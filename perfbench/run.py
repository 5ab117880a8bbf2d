"""The patgraphs benchmark.

    python3 perfbench/run.py --workload {codes,construct,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a patgraphs checkout.  Every operation goes through
the real CLI entry point, ``patgraphs.cli.main(argv)``, in a child
process per pass (perfbench/child.py); passes run one after the other
and nothing runs in threads.  Passes repeat until the next one would end
after S seconds, at least one.  Every operation's exit code and output
digest is checked (golden.json holds the digests); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json: wall_s (one pass, first operation start to last
operation end), max_op_s (slowest single operation), setup_s (process
start and import, median over several starts, plus the median time of
emitting the certificates on verify) and peak_rss_mb (peak RSS of a
pass process, read by the process at exit); each is the median over the
run's passes.

With ``--trace 1`` the run adds one traced pass after the untraced ones
and reports the per-layer metrics of BENCHMARK.json: span self times
per layer and item, summed over the pass's sift seeds, the chain
replays, the kernel timings, fail_rate, and trace.overhead_s (spans
recorded times the cost of one span, measured in the traced process).
Spans and a full record of the run, with each operation's time under
each sift seed, are written to perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "work")
RUN_DIR = os.path.join(WORK, "run")
RECORDS = os.path.join(WORK, "records")
# spawn-and-import samples per run, on top of one per pass; half are
# taken before the passes and half after, because the machine's speed
# drifts over tens of seconds and a cluster of probes samples one moment
SETUP_PROBES = 16
# a run must end within 180 s; a pass process still running then is killed
DEADLINE_S = 170
# per-layer self times summed over every item instead of per item
ALL_ITEMS_SPANS = ("eqcode.equidistant_code_pipeline",
                   "eqcode.weight_profile", "gf.make_field",
                   "numth.validate_parameters")


def spawn(plan: dict, name: str, deadline: float) -> dict:
    """Run one child process on a plan and return its result; the child
    is killed if it is still running at the deadline (monotonic time)."""
    plan_path = os.path.join(RUN_DIR, f"plan_{name}.json")
    result_path = os.path.join(RUN_DIR, f"result_{name}.json")
    plan = dict(plan, spawned_at=time.monotonic())
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path,
         result_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"pass process {name} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["process_s"] = time.monotonic() - start
    return result


def run_pass(wl: workloads.Workload, name: str, trace: bool,
             deadline: float) -> dict:
    plan = {"ops": wl.ops, "trace": trace}
    if trace:
        plan.update(replays=wl.replays, pmul=wl.pmul, gf=wl.gf)
    return spawn(plan, name, deadline)


def check_ops(ops: list[dict], result: dict, golden: dict) -> list[dict]:
    """Pair each planned operation with its result and verdict."""
    checked = []
    for op, res in zip(ops, result["ops"]):
        row = dict(op, result=res)
        row["ok"], row["reason"] = workloads.expected(row, golden)
        checked.append(row)
    return checked


def layer_metrics(traced: dict, checked: list[dict]) -> dict[str, float]:
    """Per-layer values of a traced pass, keyed as in BENCHMARK.json."""
    values: dict[str, float] = defaultdict(float)
    for name, op, self_s in spans.self_times(traced["spans"]):
        if op is None or name not in spans.SPAN_NAMES:
            continue
        item = "all" if name in ALL_ITEMS_SPANS else checked[op]["item"]
        values[f"{name}_s.{item}"] += self_s
    for row in traced.get("replays", []):
        values[f"permgrp.chain_{row['mode']}_s.{row['item']}"] += row["seconds"]
        key = f"permgrp.base_len.{row['item']}"
        values[key] = max(values[key], row["base_len"])
    for row in traced.get("pmul", []):
        values[f"permgrp.pmul_ns_per_point.{row['item']}"] = row["ns_per_point"]
    for row in traced.get("gf", []):
        values[f"gf.{row['op']}_ns.q{row['q']}"] = row["ns_per_call"]
    return dict(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "patgraphs", "cli.py")):
        print("perfbench: src/patgraphs/cli.py not found; run from the root "
              "of a patgraphs checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)

    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    os.makedirs(RECORDS, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, RUN_DIR)
    print(f"workload {wl.name}, seed {wl.seed}, sift seeds {wl.sift_seeds}, "
          f"{len(wl.ops)} operations per pass")

    def probe(tag: str) -> list[float]:
        return [spawn({"ops": []}, f"probe{tag}{i}", deadline)["setup_s"]
                for i in range(SETUP_PROBES // 2)]

    checked: list[dict] = []
    setup_samples = probe("a")
    emit_samples = []
    if wl.emit:
        for i in range(workloads.EMIT_REPEATS):
            emitted = spawn({"ops": wl.emit}, f"emit{i}", deadline)
            emit_samples.append(emitted["wall_s"])
            checked += check_ops(wl.emit, emitted, golden)
        workloads.write_mutants(RUN_DIR)
    emit_s = statistics.median(emit_samples) if emit_samples else 0.0

    passes = []
    started = time.monotonic()
    while True:
        res = run_pass(wl, f"pass{len(passes)}", False, deadline)
        passes.append(res)
        checked += check_ops(wl.ops, res, golden)
        setup_samples.append(res["setup_s"])
        if time.monotonic() - started + res["process_s"] > args.seconds:
            break
    setup_samples += probe("b")

    wall_s = statistics.median(p["wall_s"] for p in passes)
    end_to_end = {
        "wall_s": wall_s,
        "max_op_s": statistics.median(max(op["seconds"] for op in p["ops"])
                                      for p in passes),
        "setup_s": statistics.median(setup_samples) + emit_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }

    per_layer = {}
    replays_ok = True
    if args.trace:
        traced = run_pass(wl, "traced", True, deadline)
        traced_checked = check_ops(wl.ops, traced, golden)
        checked += traced_checked
        per_layer = layer_metrics(traced, traced_checked)
        per_layer["trace.overhead_s"] = (len(traced["spans"])
                                         * traced["span_cost_s"])
        # the paired wall-time difference is kept for the record only:
        # one pass against a median of few, it is within the noise
        trace_wall_diff_s = traced["wall_s"] - wall_s
        replays_ok = all(r["ok"] for r in traced.get("replays", []))
        with open(os.path.join(RECORDS, f"spans_{wl.name}_seed{wl.seed}.json"),
                  "w") as fh:
            json.dump({"ops": [{k: op[k] for k in ("item", "seed", "argv")}
                               for op in traced_checked],
                       "spans": traced["spans"]}, fh)

    failures = [op for op in checked if not op["ok"]]
    unknown = [op for op in failures if not workloads.known_defect(op)]
    attempted = len(checked)
    per_layer["fail_rate"] = len(failures) / attempted
    correct = not unknown and replays_ok

    for op in failures:
        label = op.get("mutation") or f"{op['item']} seed {op['seed']}"
        known = workloads.known_defect(op)
        note = f" [known defect: {known}]" if known else ""
        print(f"FAILED {op['kind']} {label}: {op['reason']}{note}")
    if not replays_ok:
        print("FAILED chain replay: order differs from the certificate")

    by_item_seed = defaultdict(list)
    for p in passes:
        for op, res in zip(wl.ops, p["ops"]):
            by_item_seed[(op["item"], op["seed"])].append(res["seconds"])
    for (item, seed), times in by_item_seed.items():
        print(f"op {item} seed {seed}: {statistics.median(times):.4f} s")
    print(f"passes {len(passes)}, attempted {attempted}, failed "
          f"{len(failures)}, fail_rate {per_layer['fail_rate']!r} ratio")

    for m in spec["end_to_end"]:
        print(f"{m['name']} = {end_to_end[m['name']]!r} {m['unit']}")
    # a layer the workload does not run has spent no time: it reads 0
    section, measured = (("per_layer", per_layer) if args.trace
                         else ("end_to_end", end_to_end))
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in spec[section]}
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']!r} {entry['unit']}")

    record = {
        "workload": wl.name, "seed": wl.seed, "sift_seeds": wl.sift_seeds,
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "setup_samples": setup_samples, "emit_samples": emit_samples,
        "op_seconds": [{"item": item, "seed": seed, "seconds": times}
                       for (item, seed), times in by_item_seed.items()],
        "failures": [{"kind": op["kind"], "item": op["item"],
                      "seed": op["seed"], "mutation": op.get("mutation"),
                      "reason": op["reason"],
                      "output": op["result"]["error"]
                      or op["result"]["log_tail"]}
                     for op in failures],
    }
    if args.trace:
        record.update(replays=traced.get("replays"), pmul=traced.get("pmul"),
                      gf=traced.get("gf"), spans=len(traced["spans"]),
                      span_cost_s=traced["span_cost_s"],
                      trace_wall_diff_s=trace_wall_diff_s)
    with open(os.path.join(RECORDS, f"{wl.name}_seed{wl.seed}"
                           f"_trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
