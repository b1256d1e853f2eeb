"""The benchmark's recorded outputs as a Tier-1 gate: pass 0 of every
perfbench workload at the default seed runs in-process, each item's output
passes its check, and its digest equals the one in perfbench/golden.json.
perfbench/ is only read: workloads.py is compiled from its source, so no
bytecode is written there."""

import json
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    path = os.path.join(BENCH, "workloads.py")
    mod = types.ModuleType("perfbench_workloads")
    mod.__file__ = path
    sys.modules[mod.__name__] = mod     # dataclasses look their module up
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), mod.__dict__)
    return mod


WL = _workloads()


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_workload_pass_matches_golden(name, tmp_path):
    with open(os.path.join(BENCH, "golden.json")) as fh:
        want = json.load(fh)[name][0]
    items = WL.WORKLOADS[name](WL.DEFAULT_SEED, str(tmp_path)).items(0)
    assert len(items) == len(want)
    for it, dg in zip(items, want):
        out = it.run()
        it.check(out)
        assert WL.digest(out) == dg, f"{name} item {it.id} ({it.sizes})"
