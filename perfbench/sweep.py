"""Run the benchmark over several workload seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads codes verify] \\
        [--trace-seeds 11] [--out perfbench/baseline.json]

Run from the root of a patgraphs checkout.  Each run is
``perfbench/run.py`` with BENCHMARK.json's run_seconds, one after the
other.  For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  It also gives each operation's median time per item and
sift seed, and the per-layer values of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict

import run


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.RECORDS, f"{workload}_seed{seed}"
                           f"_trace{trace}.json")) as fh:
        result["record"] = json.load(fh)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--label", default="",
                        help="what was measured, e.g. a commit id")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    report = {
        "label": args.label,
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count(), "platform": platform.platform()},
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in names:
        runs = []
        for seed in args.seeds:
            res = bench(workload, seed, seconds, 0)
            runs.append(res)
            print(workload, seed, res["correct"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"],
                "values": values}
            print(f"  {m['name']}: median {median:.4f} {m['unit']}, spread "
                  f"{(q3 - q1) / median:.4f} (bound {m['bound']})", flush=True)
        op_times = defaultdict(lambda: defaultdict(list))
        for r in runs:
            for row in r["record"]["op_seconds"]:
                op_times[row["item"]][str(row["seed"])] += row["seconds"]
        traced = []
        for seed in args.trace_seeds:
            res = bench(workload, seed, seconds, 1)
            traced.append({"seed": seed, "correct": res["correct"],
                           "attempted": res["attempted"],
                           "failed": res["failed"],
                           "metrics": {k: v["value"]
                                       for k, v in res["metrics"].items()},
                           "replays": res["record"].get("replays"),
                           "pmul": res["record"].get("pmul"),
                           "gf": res["record"].get("gf")})
            print(workload, "traced", seed, res["correct"], flush=True)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "sift_seeds": {str(r["record"]["seed"]): r["record"]["sift_seeds"]
                           for r in runs},
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failures": runs[0]["record"]["failures"],
            "end_to_end": summary,
            "op_seconds_median": {
                item: {seed: statistics.median(times)
                       for seed, times in by_seed.items()}
                for item, by_seed in op_times.items()},
            "traced": traced,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
