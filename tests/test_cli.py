"""Command-line surface: determinism, formats, exit codes."""

import itertools
import json

import pytest

from dlab import algebra as al
from dlab import cli
from dlab.dset import read_dset
from dlab.errors import ParameterRangeError
from dlab.setops import apply_linear_map, project, read_pairset


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
    (HEADER + "1 2 3\n4\n", ":2: 3 coordinates, expected 2"),
    (HEADER + "1 2\n# 3 4\n5\n6 7\n", ":4: 1 coordinates, expected 2"),
    (HEADER + "# note\n1 x\n", ":3: non-integer coordinate"),
    (HEADER + "1 2.5\n", ":2: non-integer coordinate"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=2,x,1\n1 2\n", ":1: bad dlab header"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=2,1\n1 2\n", ":1: bad dlab header"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=0,0,1\n1 2\n", ":1: bad dlab header"),
    ("#dlab v2 base=Qp p=3 d=2 m=4 Rexp=0 poly=2,1,2\n1 2\n", ":1: bad dlab header"),
    (HEADER + "1 2\n# note\n3 9223372036854775808\n", ":4: coordinates past int64"),
    (HEADER + "-9223372036854775809 0\n", ":2: coordinates past int64"),
    ("#dlab v1 base=Qp p=2 d=1 m=63 Rexp=0\n1\n", ":1: modulus 2^63 past"),
    ("#dlab v1 base=Qp p=2 d=1 m=60 Rexp=3\n1\n", ":1: modulus 2^63 past"),
])
def test_malformed_dset_file_exit_2(tmp_path, capsys, text, where):
    """An empty file, a bad header (a poly= that is not an integer list, has
    the wrong degree, is reducible or is not monic), a ragged or non-integer
    row, a coordinate past int64 and a p-adic modulus past int64 exit 2 with
    a message naming the path and the line.  Ragged rows whose token count is
    a whole number of rows, and a comment between data rows, still name the
    first bad line."""
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


def test_gen_past_int64_modulus_exit_2(tmp_path, capsys):
    """A Qp p=2 m=63 set cannot be held in int64: exit 2, no traceback."""
    code = cli.main(["gen", "--alg", "Qp", "--p", "2", "--m", "63", "--s", "0.1",
                     "--out", str(tmp_path / "a.dset")])
    assert code == 2
    assert "modulus 2^63 past int64" in capsys.readouterr().err


def test_op_proj_reads_pair_file(tmp_path):
    g, x, out = tmp_path / "g.pairs", tmp_path / "x.dset", tmp_path / "p.dset"
    cli.main(["counterexample", "--which", "1", "--m", "4",
              "--out-g", str(g), "--out-x", str(x)])
    assert cli.main(["op", "--op", "proj", "--in", str(g), "--x", "3,-5",
                     "--out", str(out)]) == 0
    G = read_pairset(str(g))
    assert read_dset(str(out)) == project(al.element(G.alg, (3, -5), 4), G)


@pytest.mark.parametrize("which,m", [("1", 3), ("2", 2)])
def test_op_linmap_identity_writes_pairs_back(tmp_path, which, m):
    g, out = tmp_path / "g.pairs", tmp_path / "h.pairs"
    cli.main(["counterexample", "--which", which, "--m", str(m),
              "--out-g", str(g), "--out-x", str(tmp_path / "x.dset")])
    one = f"{2 ** m},0"
    assert cli.main(["op", "--op", "linmap", "--in", str(g), "--matrix",
                     f"{one}/0,0;0,0/{one}", "--out", str(out)]) == 0
    G, H = read_pairset(str(g)), read_pairset(str(out))
    assert H.radius_exp == G.radius_exp + 2
    assert (H.alg, H.scale_exp) == (G.alg, G.scale_exp)
    assert H.pairs.tolist() == G.pairs.tolist()
    one_e = al.element(G.alg, (2 ** m, 0), m)
    zero = al.element(G.alg, (0, 0), m)
    assert H == apply_linear_map(((one_e, zero), (zero, one_e)), G)


def test_op_prod_past_int64_exits_2(tmp_path, capsys):
    """An R m=62 file at Rexp=1 holding 2^63 - 1: the product's grid rows pass
    int64, and the CLI exits 2 naming the op."""
    path = tmp_path / "big.dset"
    path.write_text(f"#dlab v1 base=R p=- d=1 m=62 Rexp=1\n{2 ** 63 - 1}\n3\n")
    code = cli.main(["op", "--op", "prod", "--in", str(path), "--in2", str(path),
                     "--out", str(tmp_path / "out.dset")])
    assert code == 2
    assert "product_set: grid rows past int64" in capsys.readouterr().err


def _empty_and_one(tmp_path, name, head, row):
    """An empty file and a one-row file with the given header."""
    empty, one = tmp_path / f"{name}_0", tmp_path / f"{name}_1"
    empty.write_text(head)
    one.write_text(f"{head}{row}\n")
    return str(empty), str(one)


C4 = "#dlab v1 base=R p=- d=2 m=4 Rexp=0\n"


def test_count_tv_empty_set_counts_zero(tmp_path, capsys):
    """An empty A against a non-empty X counts 0 quintuples, as against an
    empty X."""
    empty, one = _empty_and_one(tmp_path, "a", C4, "3 -5")
    for x in (one, empty):
        code, out = run(["count-tv", "--in", empty, "--x-set", x, "--rho", "1"], capsys)
        rep = json.loads(out)
        assert code == 0 and rep["total"] == 0
        assert rep["breakdown"] == {"near": 0, "far": 0}


@pytest.mark.parametrize("exps", [("1", "1", "0"), ("1", "1", "0.5"), ("-1", "1", "2"),
                                  ("nan", "1", "2")],
                         ids=["t=0", "t<sigma", "s<0", "s=nan"])
def test_count_tv_bad_exponents_exit_2(tmp_path, capsys, exps):
    """--s, --sigma and --t outside 0 < s <= sigma <= t exit 2 with one
    'dlab:' line, where t = 0 was a ZeroDivisionError traceback and the
    others printed a meaningless bound."""
    a = str(tmp_path / "a.dset")
    cli.main(["gen", "--alg", "C", "--m", "4", "--s", "1.0", "--out", a])
    capsys.readouterr()
    flags = itertools.chain(*zip(("--s", "--sigma", "--t"), exps))
    code = cli.main(["count-tv", "--in", a, "--x-set", a, "--rho", "1", *flags])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("dlab: ")


@pytest.mark.parametrize("which", ["--in", "--in2"])
def test_ledger_empty_set_exit_2(tmp_path, capsys, which):
    """An empty A (K = |A+B|/|A|) or B (the Ruzsa triangle divides by |B|)
    exits 2 naming the ledger."""
    empty, one = _empty_and_one(tmp_path, "a", C4, "3 -5")
    argv = {"--in": one, "--in2": one, "--in3": one, which: empty}
    code = cli.main(["ledger", *itertools.chain(*argv.items())])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("dlab: ledger ")


def test_babyproj_empty_direction_set_exit_2(tmp_path, capsys):
    empty, one = _empty_and_one(tmp_path, "a", C4, "3 -5")
    code = cli.main(["babyproj", "--in", one, "--x-set", empty])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and err == ["dlab: babyproj: empty direction set X"]


def test_fibres_empty_pair_set_exit_2(tmp_path, capsys):
    empty, one = _empty_and_one(tmp_path, "x", C4, "3 -5")
    code = cli.main(["fibres", "--in-g", empty, "--x-set", one])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and err == ["dlab: fibre_profile: empty pair set G"]


@pytest.mark.parametrize("head,row,x,one", [
    (C4, "3 -5", "1,0", "16,0"),
    ("#dlab v1 base=Qp p=3 d=1 m=3 Rexp=0\n", "4", "1", "1"),
    ("#dlab v1 base=Qp_ext p=3 d=2 m=3 Rexp=0\n", "3 0", "1,0", "1,0"),
], ids=["C m=4", "Qp p=3 m=3", "Qp_ext p=3 d=2 m=3"])
def test_cli_degenerate_sets_exit_cleanly(tmp_path, capsys, head, row, x, one):
    """Every subcommand on empty and one-point sets and pair sets (C m=4,
    Qp p=3 m=3, Qp_ext p=3 d=2 m=3 with the point 3) exits 0, 2 or 3, never
    with a traceback; exits 2 and 3 print exactly one 'dlab:' line."""
    sets = _empty_and_one(tmp_path, "set", head, row)
    pairs = _empty_and_one(tmp_path, "pairs", head, f"{row} {row}")
    zero = "0,0" if "d=2" in head else "0"
    out = str(tmp_path / "out")
    argvs = []
    for A, B in itertools.product(sets, repeat=2):
        argvs += [["op", "--op", op, "--in", A, "--in2", B, "--out", out]
                  for op in ("sum", "diff", "prod")]
        argvs += [["energy", "--in", A, "--in2", B],
                  ["count-tv", "--in", A, "--x-set", B, "--rho", "1"],
                  ["babyproj", "--in", A, "--x-set", B]]
        argvs += [["ledger", "--in", A, "--in2", B, "--in3", C] for C in sets]
    for A in sets:
        argvs += [["cover", "--in", A, "--k", "1"],
                  ["verify-nc", "--in", A, "--s", "1", "--C", "8"],
                  ["uniformize", "--in", A, "--out", out],
                  ["op", "--op", "iter", "--in", A, "--out", out],
                  ["op", "--op", "quot", "--in", A, "--rho", "1", "--out", out],
                  ["escape", "--in", A],
                  ["avoid", "--in", A, "--C", "2"],
                  ["avoid", "--in", A, "--C", "2", "--strong"],
                  ["energy", "--in", A],
                  ["count-sparse", "--in", A, "--p-coords", x, "--q-coords", x],
                  ["expand", "--in", A, "--s", "1", "--t", "3/2", "--out", out]]
    for G in pairs:
        argvs += [["op", "--op", "proj", "--in", G, "--x", x, "--out", out],
                  ["op", "--op", "linmap", "--in", G, "--matrix",
                   f"{one}/{zero};{zero}/{one}", "--out", out]]
        argvs += [["fibres", "--in-g", G, "--x-set", X] for X in sets]
        argvs += [["bsg", "--in-h", G, "--in", A, "--in2", B]
                  for A, B in itertools.product(sets, repeat=2)]
    bad = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except Exception as e:     # the CLI would exit 1 with a traceback
            code = repr(e)
        err = capsys.readouterr().err.splitlines()
        if code not in (0, 2, 3) or (code and not (len(err) == 1
                                                   and err[0].startswith("dlab: "))):
            bad.append((argv[0], argv[1:], code, err))
    assert not bad


@pytest.mark.parametrize("argv,flag", [
    (["op", "--op", "proj", "--in", "{g}", "--x", "1,a", "--out", "{o}"], "--x"),
    (["op", "--op", "proj", "--in", "{g}", "--out", "{o}"], "--x"),
    (["op", "--op", "proj", "--in", "{g}", "--x", "1", "--out", "{o}"], "--x"),
    (["op", "--op", "linmap", "--in", "{g}", "--out", "{o}"], "--matrix"),
    (["op", "--op", "linmap", "--in", "{g}", "--matrix", "1,0/0,0;0,0", "--out", "{o}"],
     "--matrix"),
    (["op", "--op", "sum", "--in", "{a}", "--out", "{o}"], "--in2"),
    (["escape", "--in", "{a}", "--floor", "abc"], "--floor"),
    (["escape", "--in", "{a}", "--floor", "1/0"], "--floor"),
    (["count-sparse", "--in", "{a}", "--p-coords", "1,x", "--q-coords", "1,2"],
     "--p-coords"),
    (["count-sparse", "--in", "{a}", "--p-coords", "1,2", "--q-coords", ""], "--q-coords"),
    (["fibres", "--in-g", "{g}", "--x-set", "{x}", "--rho", "9"], "--rho"),
    (["expand", "--in", "{a}", "--s", "abc", "--t", "3/2", "--out", "{o}"], "--s"),
    (["expand", "--in", "{a}", "--s", "1", "--sigma", "1/0", "--t", "3/2", "--out", "{o}"],
     "--sigma"),
    (["babyproj", "--in", "{a}", "--x-set", "{x}", "--format", "csv"], "--out"),
])
def test_malformed_or_missing_flag_exit_2(tmp_path, capsys, argv, flag):
    """A flag that is missing where its operation needs it, or that does not
    parse (coordinates that are not integers or of the wrong count, a matrix
    that is not 2 x 2, a floor or an exponent that is not a fraction, a
    scale outside [0, m]), exits 2 with one 'dlab:' line naming the flag: no traceback."""
    files = {name: str(tmp_path / name) for name in ("g", "x", "a", "o")}
    cli.main(["counterexample", "--which", "Two", "--m", "4",
              "--out-g", files["g"], "--out-x", files["x"]])
    cli.main(["gen", "--alg", "C", "--m", "4", "--s", "1.0", "--out", files["a"]])
    capsys.readouterr()
    code = cli.main([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    assert err[0].startswith(f"dlab: {flag} ")
