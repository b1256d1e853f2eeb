"""CLI golden gate: the README example commands, plus a product, a
quadruple count, fibre profiles and the energy on a Qp set, the
verifiers (uniformize, verify-nc, cover) on C and Qp sets, projections
and linear maps of C and Qp pair sets, sub-algebra avoidance and escape
bases on C, H and Qp_ext sets, quintuple and quadruple counts on C, H and
Qp_ext sets, fibres and projections of construction Two, and a clipped
iterated sumset on the FFT branch must reproduce the recorded exit codes,
stdout, stderr and output files byte for byte (the version string in
config comments aside).

The reference lives in cli_golden.json next to this file.  To re-record it
from the checked-out source, run `PYTHONPATH=src python3
tests/test_cli_golden.py`; do that only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from dlab import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

# a small Qp pair set for the fibre profile (no CLI command builds one)
QP_PAIRS = "#dlab v1 base=Qp p=3 d=1 m=3 Rexp=0\n" + "".join(
    f"{a} {b}\n" for a in range(0, 27, 4) for b in range(1, 27, 3))

COMMANDS = [
    # README
    "gen --alg C --m 7 --s 1.0 --seed 3 --out a.dset",
    "cover --in a.dset --k 4",
    "verify-nc --in a.dset --s 1.0 --C 8",
    "op --op sum --in a.dset --in2 a.dset --out s.dset",
    "op --op quot --in a.dset --rho 2 --out q.dset",
    "counterexample --which 1 --m 6 --out-g g.pairs --out-x x.dset",
    "babyproj --in a.dset --x-set x.dset --format csv --out records.csv",
    "expand --in a.dset --s 1 --t 3/2 --n-iters 1 --out expand.csv",
    "energy --in a.dset",
    "gen --alg C --m 7 --s 1.0 --seed 4 --out b.dset",
    "gen --alg C --m 7 --s 1.0 --seed 5 --out c.dset",
    "ledger --in a.dset --in2 b.dset --in3 c.dset --out ledger.csv",
    # the product, projection and counting kernels on C (project runs
    # under fibres)
    "op --op prod --in b.dset --in2 c.dset --side Right --out bc.dset",
    "fibres --in-g g.pairs --x-set x.dset --rho 2",
    "count-sparse --in b.dset --p-coords 96,-32 --q-coords 128,0 --s 1 --rho 1",
    # the same on a Qp set
    "gen --alg Qp --p 3 --m 3 --s 0.8 --seed 2 --out qa.dset",
    "op --op prod --in qa.dset --in2 qa.dset --out qprod.dset",
    "count-sparse --in qa.dset --p-coords 2 --q-coords 1 --s 0.5 --rho 1",
    "count-tv --in qa.dset --x-set qa.dset --rho 1",
    "fibres --in-g qg.pairs --x-set qa.dset --rho 1",
    "energy --in qa.dset",
    # the verifiers: uniformization, non-concentration and covering
    # numbers on the C set and two Qp sets
    "gen --alg Qp --p 2 --m 6 --s 0.7 --seed 1 --out qb.dset",
    "uniformize --in a.dset --T 1 --out ua1.dset",
    "uniformize --in a.dset --T 2 --out ua2.dset",
    "uniformize --in qa.dset --T 1 --out uqa1.dset",
    "uniformize --in qa.dset --T 2 --out uqa2.dset",
    "uniformize --in qb.dset --T 1 --out uqb1.dset",
    "uniformize --in qb.dset --T 2 --out uqb2.dset",
    "verify-nc --in qa.dset --s 0.8 --C 8",
    "verify-nc --in qb.dset --s 0.7 --C 8",
    "cover --in a.dset --k 2",
    "cover --in qa.dset --k 1",
    "cover --in qb.dset --k 4",
    # projections and linear coordinate changes on the C and Qp pair sets
    "op --op proj --in g.pairs --x 32,16 --out pg.dset",
    "op --op linmap --in g.pairs --matrix 64,0/32,16;-16,48/64,0 --out lg.pairs",
    "op --op proj --in qg.pairs --x 5 --out pqg.dset",
    "op --op linmap --in qg.pairs --matrix 2/1;1/2 --out lqg.pairs",
    # sub-algebra avoidance, strong avoidance and escape bases on the C
    # set, an H set and a Qp_ext set
    "avoid --in a.dset --C 4",
    "avoid --in a.dset --C 4 --strong",
    "escape --in a.dset",
    "gen --alg H --m 3 --s 1.5 --seed 1 --out h.dset",
    "avoid --in h.dset --C 4",
    "avoid --in h.dset --C 4 --strong",
    "escape --in h.dset",
    "gen --alg Qp_ext --p 3 --d 2 --m 3 --s 1.0 --seed 1 --out e.dset",
    "avoid --in e.dset --C 2",
    "avoid --in e.dset --C 2 --strong",
    "escape --in e.dset",
    # quintuple and quadruple counts on the C sets, the H set (81 neighbour
    # offsets) and the Qp_ext set; fibres and projections of the m=6
    # construction-Two pair set
    "count-tv --in b.dset --x-set a.dset --rho 2",
    "count-tv --in b.dset --x-set b.dset --rho 3 --symmetric",
    "count-tv --in h.dset --x-set h.dset --rho 1",
    "count-sparse --in h.dset --p-coords 6,-2,1,3 --q-coords 8,0,0,0 --s 1 --rho 1",
    "count-tv --in e.dset --x-set e.dset --rho 1",
    "count-sparse --in e.dset --p-coords 2,1 --q-coords 1,0 --s 1 --rho 1",
    "counterexample --which 2 --m 6 --out-g g2.pairs --out-x x2.dset",
    "fibres --in-g g2.pairs --x-set x2.dset --rho 2",
    "op --op proj --in g2.pairs --x 16,48 --out pg2.dset",
    "op --op proj --in g2.pairs --x 0,64 --out pg3.dset",
    # an iterated sumset whose last sum takes the FFT branch, clipped to
    # the unit ball
    "op --op iter --in a.dset --n-sum 2 --n-prod 1 --out iter.dset",
]

_VERSION = re.compile(rb"# dlab \S+ config:")


def _run_all(workdir: Path) -> dict:
    """Run COMMANDS in workdir (relative paths, so config comments do not
    depend on it); returns exit codes, stdout and stderr per command and
    the sha256 of every file left behind."""
    (workdir / "qg.pairs").write_text(QP_PAIRS)
    runs = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for line in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(line.split())
            runs.append({"cmd": line, "code": code, "stdout": out.getvalue(),
                         "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    files = {p.name: hashlib.sha256(_VERSION.sub(b"# dlab <version> config:",
                                                 p.read_bytes())).hexdigest()
             for p in sorted(workdir.iterdir())}
    return {"runs": runs, "files": files}


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("DLAB_BUDGET_POINTS", raising=False)
    want = json.loads(GOLDEN.read_text())
    got = _run_all(tmp_path)
    assert [r["cmd"] for r in want["runs"]] == COMMANDS
    for w, g in zip(want["runs"], got["runs"]):
        assert g == w, w["cmd"]
    assert got["files"] == want["files"]


if __name__ == "__main__":
    os.environ.pop("DLAB_BUDGET_POINTS", None)
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_run_all(Path(tmp)), indent=1) + "\n")
    sys.exit(0)
