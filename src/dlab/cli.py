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
from .errors import BudgetExceeded, DlabError


def _config_comment(args) -> str:
    items = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                     if k != "func" and v is not None)
    return f"# dlab {__version__} config: {items}"


def _parse_coords(text):
    return tuple(int(t) for t in text.replace(",", " ").split())


def _element_for(A, text):
    alg = A.alg
    unit = A.scale_exp if alg.is_real_base else 0
    return al.element(alg, _parse_coords(text), unit_exp=unit)


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
            write_dset(so.project(_element_for(G, args.x), G), args.out,
                       [_config_comment(args)])
            return 0
        ent = [_parse_coords(c) for r in args.matrix.split(";") for c in r.split("/")]
        unit = G.alg.m if G.alg.is_real_base else 0
        L = [[al.element(G.alg, e, unit_exp=unit) for e in ent[i:i + 2]]
             for i in (0, 2)]
        so.write_pairset(so.apply_linear_map(L, G), args.out, [_config_comment(args)])
        return 0
    A = read_dset(getattr(args, "in"))
    if op in ("sum", "diff", "prod"):
        B = read_dset(args.in2, A.alg)
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
    basis = st.escape_basis(A, Fraction(args.floor))
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
    p = _element_for(A, args.p_coords)
    q = _element_for(A, args.q_coords)
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
    sched = lab.Schedule(s=Fraction(args.s), sigma=Fraction(args.sigma or args.s),
                         t=Fraction(args.t), d=A.alg.d, delta_exp=A.scale_exp,
                         n_iters=args.n_iters, n_sum=args.n_sum,
                         n_prod=args.n_prod, C=Fraction(args.C))
    recs = lab.run_expansion(A, sched, seed=args.seed)
    lab.write_records_csv(recs, args.out, _config_comment(args)[2:])
    return 0


def cmd_babyproj(args):
    A = read_dset(getattr(args, "in"))
    X = read_dset(args.x_set, A.alg)
    rec, _ = lab.probe_babyproj(A, X, seed=args.seed)
    if args.format == "csv":
        lab.write_records_csv([rec], args.out, _config_comment(args)[2:])
    else:
        print(json.dumps(rec.row()))
    return 0


def cmd_fibres(args):
    G = so.read_pairset(args.in_g)
    X = read_dset(args.x_set, G.alg)
    rep = lab.fibre_profile(G, X, rho_exp=args.rho)
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

    p = sub.add_parser("gen", help="random non-concentrated set")
    _add_alg_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("counterexample", help="flat product constructions")
    p.add_argument("--which", required=True, choices=["1", "2", "One", "Two"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-g", required=True)
    p.add_argument("--out-x", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("cover", help="covering number at scale 2^-k / p^-k")
    p.add_argument("--in", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify-nc", help="non-concentration check")
    p.add_argument("--in", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.set_defaults(func=cmd_verify_nc)

    p = sub.add_parser("uniformize", help="pigeonhole a uniform subset")
    p.add_argument("--in", required=True)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_uniformize)

    p = sub.add_parser("op", help="set calculus operations")
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
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("escape", help="greedy almost-orthogonal basis")
    p.add_argument("--in", required=True)
    p.add_argument("--floor", default="1/2")
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("avoid", help="sub-algebra avoidance report")
    p.add_argument("--in", required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("energy", help="additive energy")
    p.add_argument("--in", required=True)
    p.add_argument("--in2")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("count-tv", help="quintuple incidence count")
    p.add_argument("--in", required=True)
    p.add_argument("--x-set", required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--symmetric", action="store_true")
    p.set_defaults(func=cmd_count_tv)

    p = sub.add_parser("count-sparse", help="quadruple incidence count")
    p.add_argument("--in", required=True)
    p.add_argument("--p-coords", required=True)
    p.add_argument("--q-coords", required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--rho", type=int)
    p.set_defaults(func=cmd_count_sparse)

    p = sub.add_parser("bsg", help="popular-sums subgraph extraction")
    p.add_argument("--in-h", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--in2", required=True)
    p.add_argument("--out-a")
    p.add_argument("--out-b")
    p.set_defaults(func=cmd_bsg)

    p = sub.add_parser("ledger", help="exact sumset-inequality ledger")
    p.add_argument("--in", required=True)
    p.add_argument("--in2", required=True)
    p.add_argument("--in3", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("expand", help="sum-product expansion rounds")
    p.add_argument("--in", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--sigma")
    p.add_argument("--t", required=True)
    p.add_argument("--C", default="4")
    p.add_argument("--n-iters", type=int, default=1)
    p.add_argument("--n-sum", type=int, default=2)
    p.add_argument("--n-prod", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("babyproj", help="max sum-product projection growth")
    p.add_argument("--in", required=True)
    p.add_argument("--x-set", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_babyproj)

    p = sub.add_parser("fibres", help="heaviest projection fibres")
    p.add_argument("--in-g", required=True)
    p.add_argument("--x-set", required=True)
    p.add_argument("--rho", type=int, default=1)
    p.set_defaults(func=cmd_fibres)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"dlab: budget exhausted: {e} {e.sizes}", file=sys.stderr)
        return 3
    except DlabError as e:
        print(f"dlab: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"dlab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
