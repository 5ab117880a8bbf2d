"""Write perfbench/golden.json: the sha256 of every file the benchmark's
operations write (each ``edc --out`` JSON and each certificate), taken
from the program as it is.

    python3 perfbench/golden.py

Run from the root of a patgraphs checkout, and only when a change is
meant to alter those outputs; the diff of golden.json then shows which.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    shutil.rmtree(run.RUN_DIR, ignore_errors=True)
    os.makedirs(run.RUN_DIR)
    ops = (workloads.build("codes", 0, run.RUN_DIR).ops
           + workloads.build("verify", 0, run.RUN_DIR).emit)
    result = run.spawn({"ops": ops}, "golden",
                       time.monotonic() + run.DEADLINE_S)
    golden = {}
    for op, res in zip(ops, result["ops"]):
        if res["rc"] != 0 or res["sha256"] is None:
            print(f"{op['argv']} exited {res['rc']}", file=sys.stderr)
            return 1
        golden[op["golden"]] = res["sha256"]
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
