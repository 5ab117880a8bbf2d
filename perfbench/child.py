"""One pass of the benchmark, run in a process of its own.

    python3 perfbench/child.py PLAN.json RESULT.json

Run from the root of a patgraphs checkout.  PLAN (written by run.py)
lists the CLI operations of the pass, each an argument list for
``patgraphs.cli.main`` with its item, sift seed and output file.  The
child imports patgraphs from ``src``, runs the operations one after the
other in this process, and writes RESULT: each operation's exit code,
time and output sha256, the pass's wall time, the child's set-up time
(from run.py's spawn timestamp to ready) and its own peak RSS, read
at exit.  A traced pass also records spans (see spans.py) and the layer
measurements the plan asks for: chain replays, kernel timings and the
cost of one span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def sha256_of(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(main, op: dict) -> dict:
    out = op.get("out")
    if out is not None and os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(op["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash in the program fails this operation only
        rc = None
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return {"rc": rc, "seconds": elapsed, "sha256": sha256_of(out),
            "error": error, "log_tail": sink.getvalue()[-400:]}


def load_generators(cert_path: str) -> tuple[list, int, int]:
    with open(cert_path) as fh:
        payload = json.load(fh)
    gens = [tuple(g) for g in payload["generators"]["G"]]
    return gens, payload["degree"], int(payload["orders"]["G"])


def chain_replays(replays: list[dict]) -> list[dict]:
    """Rebuild each item's G chain from its certificate under each sift
    seed: ``PermGroup(G.gens, known_order=|G|, seed=s).order()`` in mode
    "hinted", the same without the order in mode "full"."""
    from patgraphs.permgrp import PermGroup
    out = []
    for rp in replays:
        gens, degree, order = load_generators(rp["cert"])
        hint = order if rp["mode"] == "hinted" else None
        for seed in rp["seeds"]:
            start = time.perf_counter()
            G = PermGroup(gens, degree=degree, known_order=hint, seed=seed)
            got = G.order()
            out.append({"item": rp["item"], "seed": seed, "mode": rp["mode"],
                        "seconds": time.perf_counter() - start,
                        "base_len": len(G.base()), "ok": got == order})
    return out


def pmul_kernel(items: list[dict], calls: int = 20000,
                repeats: int = 5) -> list[dict]:
    """pmul on each item's own G generators: ns per image point.  The
    count of images per call is the degree (computed, not measured)."""
    from patgraphs.permgrp import pmul
    out = []
    for it in items:
        gens, degree, _ = load_generators(it["cert"])
        pairs = [(a, b) for a in gens for b in gens]
        work = (pairs * (calls // len(pairs) + 1))[:calls]
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in work:
                pmul(a, b)
            samples.append((time.perf_counter() - start) * 1e9
                           / (calls * degree))
        out.append({"item": it["item"], "ns_per_point":
                    statistics.median(samples), "images_per_call": degree,
                    "calls": calls * repeats})
    return out


def gf_kernel(qs: list[int], repeats: int = 5) -> list[dict]:
    """GF.mul and GF.add over all q^2 ordered pairs, ns per call."""
    from patgraphs.gf import make_field
    out = []
    for q in qs:
        k = make_field(q)
        elems = list(k.elements())
        for opname in ("mul", "add"):
            fn = getattr(k, opname)
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                for a in elems:
                    for b in elems:
                        fn(a, b)
                samples.append((time.perf_counter() - start) * 1e9 / (q * q))
            out.append({"q": q, "op": opname,
                        "ns_per_call": statistics.median(samples),
                        "calls": q * q * repeats})
    return out


def span_cost(recorder, calls: int = 100000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare
    one, median over repeats."""
    def noop():
        return None

    wrapped = recorder.wrap("span_cost", noop)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        samples.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(samples)


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    from patgraphs import cli
    result: dict = {"setup_s": time.monotonic() - plan["spawned_at"]}

    recorder = None
    main_fn = cli.main
    if plan.get("trace"):
        import spans
        recorder = spans.Recorder()
        recorder.install()
        main_fn = recorder.wrap("cli.main", cli.main)

    ops = []
    start = time.perf_counter()
    for index, op in enumerate(plan["ops"]):
        if recorder is not None:
            recorder.op = index
        ops.append(run_op(main_fn, op))
    result["wall_s"] = time.perf_counter() - start
    result["ops"] = ops

    if recorder is not None:
        recorder.op = None
        result["spans"] = [list(s) for s in recorder.spans]
        result["span_cost_s"] = span_cost(spans.Recorder())
    if plan.get("replays"):
        result["replays"] = chain_replays(plan["replays"])
    if plan.get("pmul"):
        result["pmul"] = pmul_kernel(plan["pmul"])
    if plan.get("gf"):
        result["gf"] = gf_kernel(plan["gf"])
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
