"""Command-line surface: determinism, formats, exit codes."""

import json

import pytest

from dlab import cli
from dlab.dset import read_dset
from dlab.errors import ParameterRangeError
from dlab.setops import read_pairset


def run(argv, capsys=None):
    code = cli.main(argv)
    out = capsys.readouterr().out if capsys else None
    return code, out


def test_counterexample_writes_both_files(tmp_path):
    g = tmp_path / "g.pairs"
    x = tmp_path / "x.dset"
    code, _ = run(["counterexample", "--which", "1", "--m", "5",
                   "--out-g", str(g), "--out-x", str(x)])
    assert code == 0
    G = read_pairset(str(g))
    X = read_dset(str(x))
    assert len(G) == 33 ** 2 and len(X) == 34
    assert g.read_text().splitlines()[0].startswith("#dlab v1 ")
    assert "config:" in g.read_text().splitlines()[1]


def test_gen_deterministic_byte_identical(tmp_path):
    a1 = tmp_path / "a1.dset"
    a2 = tmp_path / "a2.dset"
    args = ["gen", "--alg", "C", "--m", "6", "--s", "1.0", "--seed", "9"]
    assert cli.main(args + ["--out", str(a1)]) == 0
    assert cli.main(args + ["--out", str(a2)]) == 0
    assert a1.read_bytes().replace(b"a1.dset", b"") == \
        a2.read_bytes().replace(b"a2.dset", b"")


def test_cover_prints_integer(tmp_path, capsys):
    a = tmp_path / "a.dset"
    cli.main(["gen", "--alg", "R", "--m", "5", "--s", "1.0", "--seed", "0",
              "--out", str(a)])
    code, out = run(["cover", "--in", str(a), "--k", "2"], capsys)
    assert code == 0 and out.strip() == "4"


def test_verify_nc_json(tmp_path, capsys):
    a = tmp_path / "a.dset"
    cli.main(["gen", "--alg", "C", "--m", "6", "--s", "1.0", "--seed", "1",
              "--out", str(a)])
    code, out = run(["verify-nc", "--in", str(a), "--s", "1.0", "--C", "8"],
                    capsys)
    assert code == 0
    rep = json.loads(out)
    assert "best_C" in rep


def test_op_sum_roundtrip(tmp_path):
    a = tmp_path / "a.dset"
    s = tmp_path / "s.dset"
    cli.main(["gen", "--alg", "R", "--m", "5", "--s", "0.8", "--seed", "2",
              "--out", str(a)])
    assert cli.main(["op", "--op", "sum", "--in", str(a), "--in2", str(a),
                     "--out", str(s)]) == 0
    A = read_dset(str(a))
    S = read_dset(str(s))
    assert len(S) >= len(A)


def test_missing_file_exit_2(tmp_path, capsys):
    code, _ = run(["cover", "--in", str(tmp_path / "nope.dset"), "--k", "1"],
                  capsys)
    assert code == 2


HEADER = "#dlab v1 base=R p=- d=2 m=5 Rexp=0\n"


@pytest.mark.parametrize("text,where", [
    ("", ": empty file"),
    ("\n  \n", ": empty file"),
    ("#dlab v1 base=R p=- m=5 Rexp=0\n1 2\n", ":1: bad dlab header"),
    (HEADER + "1 2\n\n3\n", ":4: 1 coordinates, expected 2"),
    (HEADER + "1 2\n3 4 5\n", ":3: 3 coordinates, expected 2"),
    (HEADER + "# note\n1 x\n", ":3: non-integer coordinate"),
    (HEADER + "1 2.5\n", ":2: non-integer coordinate"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=2,x,1\n1 2\n", ":1: bad dlab header"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=2,1\n1 2\n", ":1: bad dlab header"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=0,0,1\n1 2\n", ":1: bad dlab header"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=2,1,2\n1 2\n", ":1: bad dlab header"),
])
def test_malformed_dset_file_exit_2(tmp_path, capsys, text, where):
    """An empty file, a bad header (a poly= that is not an integer list, has
    the wrong degree, is reducible or is not monic) and a ragged or
    non-integer row exit 2 with a message naming the path and the line."""
    a = tmp_path / "a.dset"
    a.write_text(text)
    code = cli.main(["cover", "--in", str(a), "--k", "1"])
    err = capsys.readouterr().err
    assert code == 2 and f"{a}{where}" in err


def test_pairset_reader_rejects_ragged_row(tmp_path):
    """Pair files go through the same reader: rows carry 2d integers."""
    g = tmp_path / "g.pairs"
    g.write_text(HEADER + "1 2 3 4\n1 2\n")
    with pytest.raises(ParameterRangeError, match=":3: 2 coordinates, expected 4"):
        read_pairset(str(g))


def test_budget_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DLAB_BUDGET_POINTS", "10")
    a = tmp_path / "a.dset"
    cli.main(["gen", "--alg", "R", "--m", "6", "--s", "1.0", "--seed", "0",
              "--out", str(a)])
    code, _ = run(["op", "--op", "iter", "--in", str(a), "--n-sum", "2",
                   "--n-prod", "2", "--out", str(tmp_path / "o.dset")], capsys)
    assert code == 3


def test_validation_error_exit_2(tmp_path, capsys):
    a = tmp_path / "a.dset"
    cli.main(["gen", "--alg", "R", "--m", "7", "--s", "1.0", "--seed", "0",
              "--out", str(a)])
    # rho too large for the scale: quotient set rejects
    code, _ = run(["op", "--op", "quot", "--in", str(a), "--rho", "5",
                   "--out", str(tmp_path / "q.dset")], capsys)
    assert code == 2


def test_energy_and_ledger(tmp_path, capsys):
    a = tmp_path / "a.dset"
    cli.main(["gen", "--alg", "Qp", "--p", "3", "--m", "3", "--s", "0.9",
              "--seed", "4", "--out", str(a)])
    code, out = run(["energy", "--in", str(a)], capsys)
    assert code == 0 and int(out.strip()) >= 1
    led = tmp_path / "ledger.csv"
    code, _ = run(["ledger", "--in", str(a), "--in2", str(a), "--in3", str(a),
                   "--out", str(led)], capsys)
    assert code == 0
    assert led.read_text().splitlines()[0] == "instance,lhs,rhs,slack"


def test_babyproj_csv_output(tmp_path):
    a = tmp_path / "a.dset"
    x = tmp_path / "x.dset"
    g = tmp_path / "g.pairs"
    cli.main(["counterexample", "--which", "1", "--m", "4",
              "--out-g", str(g), "--out-x", str(x)])
    cli.main(["gen", "--alg", "C", "--m", "4", "--s", "1.0", "--seed", "0",
              "--out", str(a)])
    out = tmp_path / "b.csv"
    assert cli.main(["babyproj", "--in", str(a), "--x-set", str(x),
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("exp_id,")


def test_expand_writes_csv(tmp_path):
    a = tmp_path / "a.dset"
    cli.main(["gen", "--alg", "C", "--m", "5", "--s", "1.0", "--seed", "6",
              "--out", str(a)])
    out = tmp_path / "e.csv"
    code = cli.main(["expand", "--in", str(a), "--s", "1", "--t", "3/2",
                     "--n-iters", "1", "--out", str(out)])
    if code == 0:
        assert "exp_id" in out.read_text()
    else:
        assert code in (2, 3)  # trapped or over budget is a clean failure
