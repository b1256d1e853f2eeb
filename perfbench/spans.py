"""In-memory span tracer that wraps dlab's public functions from outside.

A traced call records one span: its name, the times it entered and left the
wrapped function, its parent span, the workload item it ran for, input and
output sizes, and for sumsets the path the kernel takes.  Spans stay in
memory; `Tracer.dump` writes them as JSON lines and `summarize` turns one
pass's spans into the benchmark's per-layer metrics.

Each public function is replaced wherever callers look it up: in its
defining module and in every dlab module that bound it with `from ... import`.
`DSet.__post_init__` and `PairSet.__post_init__` are traced as `dset.canon`.
`uninstall` restores every original object.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

TRACED = ("algebra", "dset", "setops", "structure", "energy", "lab")
IO_FUNCS = {"dset.write_dset", "dset.read_dset",
            "setops.write_pairset", "setops.read_pairset"}
# kernels whose pair count is materialized when they run pairwise
PAIRWISE_KERNELS = {"setops.sumset", "setops.product_set", "setops.product_pairs"}

# span record fields, by position
NAME, PARENT, ITEM, OUT0, T0, T1, OUT1, N_A, N_B, ROWS_OUT, PATH, NBYTES = range(12)
SPAN_FIELDS = ["id", "name", "parent", "item", "start", "end", "rows_in",
               "rows_out", "path", "bytes"]


def _rows(x):
    """Row count of a set-like argument or result, else None."""
    if isinstance(x, np.ndarray):
        return x.shape[0] if x.ndim else None
    pts = getattr(x, "points", None)
    if pts is None:
        pts = getattr(x, "pairs", None)
    return len(pts) if isinstance(pts, np.ndarray) else None


class Tracer:
    def __init__(self, dlab_pkg):
        self.pkg = dlab_pkg
        self.spans = []
        self.stack = []
        self.item = None
        self._saved = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        is_sumset = name == "setops.sumset"
        is_io = name in IO_FUNCS
        pairwise_cap = self.pkg.setops.PAIRWISE_CAP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out0 = clock()
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.item, out0, 0.0, 0.0, 0.0,
                   _rows(args[0]) if args else None,
                   _rows(args[1]) if len(args) > 1 else None,
                   None, None, None]
            if is_sumset and rec[N_A] is not None and rec[N_B] is not None:
                n = rec[N_A] * rec[N_B]
                rec[PATH] = "empty" if n == 0 else (
                    "pairwise" if n <= pairwise_cap else "fft")
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            out = result[0] if isinstance(result, tuple) and result else result
            rec[ROWS_OUT] = _rows(out)
            if is_io:
                path = args[1] if name.endswith(("write_dset", "write_pairset")) else args[0]
                rec[NBYTES] = os.path.getsize(path)
            rec[OUT1] = clock()
            return result
        return wrapper

    def _wrap_canon(self, cls, field, elems_per_point):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        fn = cls.__post_init__

        @functools.wraps(fn)
        def post_init(obj):
            out0 = clock()
            raw = getattr(obj, field)
            n_in = (raw.size // (elems_per_point * obj.alg.d)
                    if isinstance(raw, np.ndarray) else len(raw))
            rec = ["dset.canon", stack[-1] if stack else -1, self.item, out0,
                   0.0, 0.0, 0.0, n_in, None, None, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                fn(obj)
            finally:
                rec[T1] = clock()
                stack.pop()
            rec[ROWS_OUT] = len(getattr(obj, field))
            rec[OUT1] = clock()
        return post_init

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short in TRACED:
            mod = getattr(self.pkg, short)
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrapped[id(val)] = self._wrap(f"{short}.{attr}", val)
        loaded = [m for n, m in sys.modules.items() if n.startswith("dlab.")]
        for mod in loaded:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
        for cls, field, k in ((self.pkg.dset.DSet, "points", 1),
                              (self.pkg.setops.PairSet, "pairs", 2)):
            self._saved.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._wrap_canon(cls, field, k)

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path, t_ref):
        """Write the spans as JSON lines: a header naming the fields, then one
        array per span.  Times are seconds from t_ref."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for i, r in enumerate(self.spans):
                fh.write(json.dumps([
                    i, r[NAME], r[PARENT], r[ITEM], round(r[T0] - t_ref, 9),
                    round(r[T1] - t_ref, 9), [r[N_A], r[N_B]], r[ROWS_OUT],
                    r[PATH], r[NBYTES]]) + "\n")


def self_times(spans):
    """Span duration minus the wall time its children's wrappers covered."""
    own = [r[T1] - r[T0] for r in spans]
    for r in spans:
        if r[PARENT] >= 0:
            own[r[PARENT]] -= r[OUT1] - r[OUT0]
    return own


def summarize(spans, pass_wall, point_budget):
    """Per-layer metrics of one traced pass (see BENCHMARK.json) and its
    layer table: (name, calls, s, self_s) per span name, largest self first."""
    own = self_times(spans)
    by = {}
    for r, s in zip(spans, own):
        e = by.setdefault(r[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "rows_in": 0, "rows_out": 0})
        e["calls"] += 1
        e["s"] += r[T1] - r[T0]
        e["self_s"] += s
        e["rows_in"] += (r[N_A] or 0) + (r[N_B] or 0)
        e["rows_out"] += r[ROWS_OUT] or 0

    def get(name, stat):
        return by.get(name, {}).get(stat, 0)

    m = {}
    for name, stats in (
            ("dset.is_nonconcentrated", ("self_s", "calls", "rows_in")),
            ("dset.canon", ("self_s", "rows_in")),
            ("dset.uniform_subset", ("self_s",)),
            ("dset.uniformity_audit", ("self_s",)),
            ("dset.covering_number", ("self_s", "calls")),
            ("lab.run_expansion", ("self_s",)),
            ("setops.product_set", ("self_s", "rows_in")),
            ("setops.sumset", ("self_s",)),
            ("setops.ball_intersect", ("self_s",)),
            ("setops.project", ("self_s",)),
            ("setops.scalar_image", ("self_s",)),
            ("setops.quotient_set", ("self_s", "rows_out")),
            ("setops.mul_value_coords", ("calls",)),
            ("structure.dichotomy_check", ("self_s",)),
            ("structure.avoids_subalgebras", ("self_s",)),
            ("energy.quintuple_count_tv", ("self_s",)),
            ("energy.quadruple_count_sparse", ("self_s",)),
            ("energy.additive_energy", ("self_s",)),
            ("energy.ledger_rows", ("s",))):
        for stat in stats:
            m[f"{name}.{stat}"] = get(name, stat)
    canon_out = get("dset.canon", "rows_out")
    m["dset.canon.dedup_ratio"] = (get("dset.canon", "rows_in") / canon_out
                                   if canon_out else 0.0)

    gen_ids = {i for i, r in enumerate(spans) if r[NAME] == "lab.gen_random_dset"}
    attempts = sum(1 for r in spans if r[NAME] == "dset.is_nonconcentrated"
                   and r[PARENT] in gen_ids)
    m["lab.gen_random_dset.attempts"] = attempts
    m["lab.gen_random_dset.accept_ratio"] = (len(gen_ids) / attempts
                                             if attempts else 0.0)

    io = [r for r in spans if r[NAME] in IO_FUNCS]
    m["dset.io.s"] = sum(r[T1] - r[T0] for r in io)
    m["dset.io.bytes"] = sum(r[NBYTES] or 0 for r in io)

    sums = [r for r in spans if r[NAME] == "setops.sumset"]
    m["setops.sumset.fft_calls"] = sum(r[PATH] == "fft" for r in sums)
    m["setops.sumset.pairwise_calls"] = sum(r[PATH] == "pairwise" for r in sums)

    frac = 0.0
    for r in spans:
        if not r[NAME].startswith("setops."):
            continue
        size = r[ROWS_OUT] or 0
        if (r[NAME] in PAIRWISE_KERNELS and r[PATH] != "fft"
                and r[N_A] is not None and r[N_B] is not None):
            size = max(size, r[N_A] * r[N_B])
        frac = max(frac, size / point_budget)
    m["setops.budget_frac_max"] = frac

    alg_spans = [r for r in spans if r[NAME].startswith("algebra.")]
    m["algebra.calls"] = len(alg_spans)
    m["algebra.s"] = sum(r[T1] - r[T0] for r in alg_spans
                         if r[PARENT] < 0
                         or not spans[r[PARENT]][NAME].startswith("algebra."))
    for mod in TRACED:
        m[f"{mod}.self_s"] = sum(s for r, s in zip(spans, own)
                                 if r[NAME].startswith(mod + "."))
    covered = sum(r[OUT1] - r[OUT0] for r in spans if r[PARENT] < 0)
    m["unspanned_frac"] = 1.0 - covered / pass_wall if pass_wall else 0.0
    table = sorted(((n, e["calls"], e["s"], e["self_s"]) for n, e in by.items()),
                   key=lambda t: -t[3])
    return m, table
