#!/usr/bin/env python3
"""dlab benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): generate, expand,
quotient, count.  Every measurement runs in a fresh process (worker.py) with
numeric thread pools pinned to one thread.

--trace 0 reports the end-to-end metrics: the median pass wall time (run_s)
and process CPU time (cpu_s), the median over SETUP_SAMPLES fresh processes
of the time from process start to the first pass (setup_s), and the peak
resident memory of the measuring process (peak_rss_mb).

--trace 1 runs the workload untraced for half the time and traced for the
other half, checks that both produce the same output digests, and reports
the per-layer metrics of the first traced pass with the tracing overhead.
Spans go to .perfbench_out/ in the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("generate", "expand", "quotient", "count")
SETUP_SAMPLES = 3
WORKER_TIMEOUT = 160
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(env, *args, timeout=WORKER_TIMEOUT):
    """Run worker.py to completion; returns its JSON result and the
    monotonic time just before it was started."""
    cmd = [sys.executable, WORKER, *map(str, args)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}: "
                         f"{' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def environment(env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=False)
        commit = proc.stdout.strip() or None
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit,
            "DLAB_BUDGET_POINTS": env.get("DLAB_BUDGET_POINTS", "default"),
            **{v: env[v] for v in THREAD_VARS}}


def end_to_end(env, workload, seed, seconds):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res, t_spawn = run_worker(env, "--workload", workload, "--seed", seed,
                                  "--setup-only")
        setups.append(res["body_start"] - t_spawn)
    res, t_spawn = run_worker(env, "--workload", workload, "--seed", seed,
                              "--window", seconds)
    setups.append(res["body_start"] - t_spawn)
    passes = res["passes"]
    metrics = {
        "run_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    return metrics, res["attempted"], res["failed"]


def per_layer(env, workload, seed, seconds):
    untraced, _ = run_worker(env, "--workload", workload, "--seed", seed,
                             "--window", seconds / 2)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    traced, _ = run_worker(env, "--workload", workload, "--seed", seed,
                           "--window", seconds / 2, "--trace-out", span_file)
    failed = untraced["failed"] + traced["failed"]
    common = list(zip(untraced["passes"], traced["passes"]))
    for i, (u, t) in enumerate(common):
        bad = sum(a != b for a, b in zip(u["digests"], t["digests"]))
        if bad:
            print(f"FAIL {workload} pass={i}: {bad} traced outputs differ "
                  f"from untraced", file=sys.stderr)
        failed += bad
    overhead = (sum(t["wall"] for _, t in common)
                / sum(u["wall"] for u, _ in common) - 1)
    print(f"layers of {workload} pass 0 (name, calls, s, self_s):")
    for name, calls, s, self_s in traced["table"]:
        print(f"  {name:34s} {calls:9d} {s:10.4f} {self_s:10.4f}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    layers = dict(traced["layers"], trace_overhead_frac=overhead)
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    return metrics, untraced["attempted"] + traced["attempted"], failed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dlab", "__init__.py")):
        print(f"perfbench: no dlab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    print("environment: " + json.dumps(environment(env)))
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed = run(env, args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
