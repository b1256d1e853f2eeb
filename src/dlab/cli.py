"""Command-line surface: generators, set operations, verifiers, counting
engines, and experiment drivers over the text file formats.

Exit codes: 0 success, 2 validation error, 3 budget exhaustion.  Every
output file starts with a header comment echoing the resolved run config.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from . import algebra as al
from . import energy as en
from . import lab
from . import setops as so
from . import structure as st
from .dset import (
    covering_number,
    is_nonconcentrated,
    read_dset,
    uniform_subset,
    uniformity_audit,
    write_dset,
)
from .errors import BudgetExceeded, DlabError, ParameterRangeError, ScaleOutOfRange


def _config_comment(args) -> str:
    items = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                     if k != "func" and v is not None)
    return f"# dlab {__version__} config: {items}"


def _flag(args, name, parse=str):
    """parse(value) of the flag --name: a missing flag, or one parse rejects,
    raises ParameterRangeError naming the flag (exit 2)."""
    text = getattr(args, name.replace("-", "_"))
    if text is None:
        raise ParameterRangeError(f"--{name} is required")
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError, ParameterRangeError) as e:
        raise ParameterRangeError(f"--{name} {text}: {e}") from None


def _element_for(A, text):
    """The Element with the coordinates of text, '1,2' or '1 2', in A's units."""
    coords = [int(t) for t in text.replace(",", " ").split()]
    return al.element(A.alg, coords, unit_exp=A.scale_exp if A.alg.is_real_base else 0)


def _matrix_for(G, text):
    """The 2 x 2 matrix of Elements of text, 'a/b;c/d' with coordinate lists."""
    rows = [row.split("/") for row in text.split(";")]
    if [len(row) for row in rows] != [2, 2]:
        raise ValueError("expected 2 x 2 entries 'a/b;c/d'")
    return [[_element_for(G, e) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_gen(args):
    alg = al.make_algebra(args.alg, p=args.p, d=args.d, m=args.m)
    A = lab.gen_random_dset(alg, args.m, args.s, args.seed, C=args.C)
    write_dset(A, args.out, [_config_comment(args)])
    return 0


def cmd_counterexample(args):
    G, X = lab.gen_counterexample(str(args.which), args.m)
    so.write_pairset(G, args.out_g, [_config_comment(args)])
    write_dset(X, args.out_x, [_config_comment(args)])
    return 0


def cmd_cover(args):
    A = read_dset(getattr(args, "in"))
    print(covering_number(A, args.k))
    return 0


def cmd_verify_nc(args):
    A = read_dset(getattr(args, "in"))
    rep = is_nonconcentrated(A, args.s, args.C)
    print(json.dumps(rep.to_dict(), default=str))
    return 0


def cmd_uniformize(args):
    A = read_dset(getattr(args, "in"))
    U = uniform_subset(A, T=args.T)
    write_dset(U, args.out, [_config_comment(args)])
    audit = uniformity_audit(U, T=args.T)
    print(json.dumps({str(k): [int(v[0]), int(v[1]), bool(v[2])]
                      for k, v in audit.items()}))
    return 0


def cmd_op(args):
    op = args.op
    if op in ("proj", "linmap"):
        G = so.read_pairset(getattr(args, "in"))
        if op == "proj":
            x = _flag(args, "x", lambda text: _element_for(G, text))
            write_dset(so.project(x, G), args.out, [_config_comment(args)])
            return 0
        L = _flag(args, "matrix", lambda text: _matrix_for(G, text))
        so.write_pairset(so.apply_linear_map(L, G), args.out, [_config_comment(args)])
        return 0
    A = read_dset(getattr(args, "in"))
    if op in ("sum", "diff", "prod"):
        B = read_dset(_flag(args, "in2"), A.alg)
        fn = {"sum": so.sumset, "diff": so.difference_set}.get(op)
        out = fn(A, B) if fn else so.product_set(A, B, args.side)
    elif op == "iter":
        out = so.iterated(A, args.n_sum, args.n_prod)
    else:
        out = so.quotient_set(A, args.rho, args.side)
    write_dset(out, args.out, [_config_comment(args)])
    return 0


def cmd_escape(args):
    A = read_dset(getattr(args, "in"))
    basis = st.escape_basis(A, _flag(args, "floor", Fraction))
    det = al.det_basis(A.alg, basis)
    print(json.dumps({"basis": [list(b.coords) for b in basis],
                      "det": str(det)}))
    return 0


def cmd_avoid(args):
    A = read_dset(getattr(args, "in"))
    rep = (st.strongly_avoids if args.strong else st.avoids_subalgebras)(A, args.C)
    print(json.dumps(rep.to_dict(), default=str))
    return 0


def cmd_energy(args):
    A = read_dset(getattr(args, "in"))
    B = read_dset(args.in2, A.alg) if args.in2 else A
    print(en.additive_energy(A, B))
    return 0


def cmd_count_tv(args):
    A = read_dset(getattr(args, "in"))
    X = read_dset(args.x_set, A.alg)
    rep = en.quintuple_count_tv(A, X, args.rho, s=args.s, sigma=args.sigma,
                                t=args.t, eps=args.eps or 0,
                                symmetric=args.symmetric)
    print(rep.to_json())
    return 0


def cmd_count_sparse(args):
    A = read_dset(getattr(args, "in"))
    p = _flag(args, "p-coords", lambda text: _element_for(A, text))
    q = _flag(args, "q-coords", lambda text: _element_for(A, text))
    rep = en.quadruple_count_sparse(A, p, q, s=args.s, rho_exp=args.rho)
    print(rep.to_json())
    return 0


def cmd_bsg(args):
    H = so.read_pairset(args.in_h)
    A = read_dset(getattr(args, "in"), H.alg)
    B = read_dset(args.in2, H.alg)
    res = en.bsg_extract(H, A, B)
    print(json.dumps(res.to_dict(), default=str))
    if args.out_a:
        write_dset(res.A_sub, args.out_a, [_config_comment(args)])
    if args.out_b:
        write_dset(res.B_sub, args.out_b, [_config_comment(args)])
    return 0


def cmd_ledger(args):
    A = read_dset(getattr(args, "in"))
    B = read_dset(args.in2, A.alg)
    C = read_dset(args.in3, A.alg)
    env = {"A": A, "B": B, "C": C}
    rows = en.ledger_rows(env, [en.ruzsa_triangle_instance()])
    rows.append(en.plunnecke_row(A, B))
    rows.append(en.energy_cs_row(A))
    if args.out:
        en.write_ledger_csv(rows, args.out)
    else:
        print(json.dumps(rows))
    return 0


def cmd_expand(args):
    A = read_dset(getattr(args, "in"))
    s, t, C = (_flag(args, name, Fraction) for name in ("s", "t", "C"))
    sched = lab.Schedule(s=s, sigma=_flag(args, "sigma", Fraction) if args.sigma else s,
                         t=t, d=A.alg.d, delta_exp=A.scale_exp,
                         n_iters=args.n_iters, n_sum=args.n_sum,
                         n_prod=args.n_prod, C=C)
    recs = lab.run_expansion(A, sched, seed=args.seed)
    lab.write_records_csv(recs, args.out, _config_comment(args)[2:])
    return 0


def cmd_babyproj(args):
    A = read_dset(getattr(args, "in"))
    X = read_dset(args.x_set, A.alg)
    rec, _ = lab.probe_babyproj(A, X, seed=args.seed)
    if args.format == "csv":
        lab.write_records_csv([rec], _flag(args, "out"), _config_comment(args)[2:])
    else:
        print(json.dumps(rec.row()))
    return 0


def cmd_fibres(args):
    G = so.read_pairset(args.in_g)
    X = read_dset(args.x_set, G.alg)
    try:
        rep = lab.fibre_profile(G, X, rho_exp=args.rho)
    except ScaleOutOfRange as e:
        raise ParameterRangeError(f"--rho {args.rho}: {e}") from None
    print(json.dumps({" ".join(map(str, k)): v for k, v in rep.items()}))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_alg_flags(p):
    p.add_argument("--alg", choices=["R", "C", "H", "Qp", "Qp_ext"], default="C")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, required=True)


def build_parser():
    ap = argparse.ArgumentParser(prog="dlab",
                                 description="discretized sum-product and "
                                             "projection experiments")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, func, about, *required):
        """The subcommand `name` running func, with the string flags
        `required` required."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = command("gen", cmd_gen, "random non-concentrated set")
    _add_alg_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=8)
    p.add_argument("--out", required=True)

    p = command("counterexample", cmd_counterexample, "flat product constructions")
    p.add_argument("--which", required=True, choices=["1", "2", "One", "Two"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-g", required=True)
    p.add_argument("--out-x", required=True)

    p = command("cover", cmd_cover, "covering number at scale 2^-k / p^-k", "--in")
    p.add_argument("--k", type=int, required=True)

    p = command("verify-nc", cmd_verify_nc, "non-concentration check", "--in")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--C", type=float, required=True)

    p = command("uniformize", cmd_uniformize, "pigeonhole a uniform subset", "--in")
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--out", required=True)

    p = command("op", cmd_op, "set calculus operations")
    p.add_argument("--op", required=True,
                   choices=["sum", "diff", "prod", "iter", "proj", "quot",
                            "linmap"])
    p.add_argument("--in", required=True)
    p.add_argument("--in2")
    p.add_argument("--x", help="direction coordinates for proj")
    p.add_argument("--matrix", help="linmap entries 'a/b;c/d' as coord lists")
    p.add_argument("--side", choices=["Left", "Right"], default="Left")
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--n-sum", type=int, default=1)
    p.add_argument("--n-prod", type=int, default=1)
    p.add_argument("--out", required=True)

    p = command("escape", cmd_escape, "greedy almost-orthogonal basis", "--in")
    p.add_argument("--floor", default="1/2")

    p = command("avoid", cmd_avoid, "sub-algebra avoidance report", "--in")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--strong", action="store_true")

    p = command("energy", cmd_energy, "additive energy", "--in")
    p.add_argument("--in2")

    p = command("count-tv", cmd_count_tv, "quintuple incidence count", "--in", "--x-set")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--symmetric", action="store_true")

    p = command("count-sparse", cmd_count_sparse, "quadruple incidence count",
                "--in", "--p-coords", "--q-coords")
    p.add_argument("--s", type=float)
    p.add_argument("--rho", type=int)

    p = command("bsg", cmd_bsg, "popular-sums subgraph extraction",
                "--in-h", "--in", "--in2")
    p.add_argument("--out-a")
    p.add_argument("--out-b")

    p = command("ledger", cmd_ledger, "exact sumset-inequality ledger",
                "--in", "--in2", "--in3")
    p.add_argument("--out")

    p = command("expand", cmd_expand, "sum-product expansion rounds", "--in", "--s")
    p.add_argument("--sigma")
    p.add_argument("--t", required=True)
    p.add_argument("--C", default="4")
    p.add_argument("--n-iters", type=int, default=1)
    p.add_argument("--n-sum", type=int, default=2)
    p.add_argument("--n-prod", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("babyproj", cmd_babyproj, "max sum-product projection growth",
                "--in", "--x-set")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)

    p = command("fibres", cmd_fibres, "heaviest projection fibres", "--in-g", "--x-set")
    p.add_argument("--rho", type=int, default=1)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"dlab: budget exhausted: {e} {e.sizes}", file=sys.stderr)
        return 3
    except (DlabError, FileNotFoundError) as e:
        print(f"dlab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
