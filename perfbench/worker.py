"""One benchmark process: set up a workload, run timed passes, check outputs.

run.py starts this script in a fresh interpreter for every measurement, so
imports, peak memory and tracing wrappers belong to one workload only.  The
process imports dlab from the checkout's `src/`, builds the first pass's
inputs (the set-up), then runs passes in a closed loop, one item after the
other, until the next pass would end after `--window` seconds.  It prints
one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--window", type=float, default=0.0,
                    help="seconds of passes; at least one pass always runs")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the timed body would start")
    ap.add_argument("--trace-out", help="trace the passes; write the first pass's spans here")
    ap.add_argument("--record", type=int, default=0, metavar="PASSES",
                    help="run exactly PASSES passes without comparing to the "
                         "golden digests (used to record them)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dlab
    from spans import Tracer, summarize
    from workloads import PASS_CYCLE, DEFAULT_SEED, WORKLOADS, CheckFailed, digest

    tmp_dir = os.path.join(ROOT, ".perfbench_out", f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp_dir)
        items = wl.items(0)
        body_start = time.monotonic()
        if args.setup_only:
            print(json.dumps({"body_start": body_start}))
            return

        tracer = Tracer(dlab) if args.trace_out else None
        golden = None
        if tracer is None and args.seed == DEFAULT_SEED and not args.record:
            with open(GOLDEN) as fh:
                golden = json.load(fh)[args.workload]
        passes, attempted, failed = [], 0, 0
        layers = table = None
        p = 0
        while True:
            pass_start = time.monotonic()
            if tracer:
                tracer.reset()
                tracer.install()
            outs = []
            w0, c0 = time.perf_counter(), time.process_time()
            for it in items:
                if tracer:
                    tracer.item = it.id
                try:
                    outs.append(it.run())
                except Exception as exc:  # counted as a failed item below
                    outs.append(exc)
            c1, w1 = time.process_time(), time.perf_counter()
            if tracer:
                tracer.uninstall()
                if p == 0:
                    layers, table = summarize(tracer.spans, w1 - w0,
                                              dlab.dset.point_budget())
                    tracer.dump(args.trace_out, w0)

            digests = []
            for i, (it, out) in enumerate(zip(items, outs)):
                attempted += 1
                where = (f"{args.workload} pass={p} item={it.id} op={it.op} "
                         f"sizes=({it.sizes})")
                if isinstance(out, Exception):
                    failed += 1
                    digests.append(None)
                    print(f"FAIL {where}: raised", file=sys.stderr)
                    traceback.print_exception(out, file=sys.stderr)
                    continue
                dg = digest(out)
                digests.append(dg)
                if tracer:
                    continue
                try:
                    it.check(out)
                    if golden is not None and golden[p % PASS_CYCLE][i] != dg:
                        raise CheckFailed(f"digest {dg} != golden "
                                          f"{golden[p % PASS_CYCLE][i]}")
                except CheckFailed as exc:
                    failed += 1
                    print(f"FAIL {where}: {exc}", file=sys.stderr)
                except Exception:  # a check that crashes is a failed item
                    failed += 1
                    print(f"FAIL {where}: check raised", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            passes.append({"wall": w1 - w0, "cpu": c1 - c0, "digests": digests})
            p += 1
            now = time.monotonic()
            if args.record:
                if p >= args.record:
                    break
            elif now - body_start + (now - pass_start) > args.window:
                break
            items = wl.items(p)

        print(json.dumps({
            "body_start": body_start, "passes": passes,
            "attempted": attempted, "failed": failed,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": layers, "table": table}))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
