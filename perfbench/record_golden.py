#!/usr/bin/env python3
"""Record golden.json: the output digest of every item of every pass at the
default seed.  A run at the default seed fails any item whose digest differs.

    python3 perfbench/record_golden.py [workload ...]

Re-record only when a change is meant to alter dlab's outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
from run import THREAD_VARS, WORKLOADS, run_worker  # noqa: E402
from worker import GOLDEN  # noqa: E402
from workloads import PASS_CYCLE  # noqa: E402


def main():
    names = sys.argv[1:] or list(WORKLOADS)
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    for name in names:
        res, _ = run_worker(env, "--workload", name, "--seed", 0,
                            "--record", PASS_CYCLE, timeout=None)
        if res["failed"]:
            raise SystemExit(f"{name}: {res['failed']} items failed; not recorded")
        golden[name] = [p["digests"] for p in res["passes"]]
        print(f"{name}: {sum(map(len, golden[name]))} digests")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
