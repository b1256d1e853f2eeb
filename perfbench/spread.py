#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads generate,quotient --seeds 1-10

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  Raw result lines are appended to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "spread.jsonl"))
    args = ap.parse_args()
    os.makedirs(os.path.dirname(args.out), exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **res}) + "\n")
            ok &= res["correct"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            print(f"{workload:9s} {m['name']:12s} median={med:10.4f} q1={q1:10.4f} "
                  f"q3={q3:10.4f} spread={spread:.4f} bound={m['bound']} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
