#!/usr/bin/env python3
"""Iterated sum-product expansion starting from the discretized unit circle.

Runs the full pipeline (avoidance gate, sum/product rounds, ball
restriction, uniformization) and reports the covering exponent after each
round.
"""

import argparse
from fractions import Fraction

from dlab import algebra as al
from dlab import lab


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=7, help="scale exponent")
    ap.add_argument("--n-iters", type=int, default=1)
    ap.add_argument("--n-sum", type=int, default=2)
    ap.add_argument("--n-prod", type=int, default=2)
    ap.add_argument("--t", type=Fraction, default=Fraction(3, 2),
                    help="target exponent")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="expansion.csv")
    args = ap.parse_args()

    alg = al.make_algebra("C", m=args.m)
    net = lab.circle_net(alg, args.m)
    sched = lab.Schedule(s=1, sigma=1, t=args.t, d=2, delta_exp=args.m,
                         n_iters=args.n_iters, n_sum=args.n_sum,
                         n_prod=args.n_prod, C=4)
    recs = lab.run_expansion(net, sched, seed=args.seed)
    lab.write_records_csv(recs, args.out,
                          header_comment=f"config: m={args.m} t={args.t} "
                                         f"n_iters={args.n_iters} seed={args.seed}")
    for prev, cur in zip(recs, recs[1:]):
        print(f"{prev.op} -> {cur.op}: exponent "
              f"{prev.exponent:.3f} -> {cur.exponent:.3f} "
              f"(gain {cur.exponent - prev.exponent:+.3f})")
    print(f"records -> {args.out}")


if __name__ == "__main__":
    main()
