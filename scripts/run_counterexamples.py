#!/usr/bin/env python3
"""Build both product-set counterexample constructions and profile their
projections in every direction of the companion direction set.

Writes one CSV of (direction, covering count, exponent) records per
construction and prints the extremes.
"""

import argparse
import math
import sys

from dlab import lab
from dlab import setops as so
from dlab.cli import run
from dlab.dset import covering_number


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=6, help="scale exponent")
    ap.add_argument("--out-prefix", default="counterexample",
                    help="prefix for the output CSVs")
    args = ap.parse_args()

    for which in ("One", "Two"):
        G, X = lab.gen_counterexample(which, args.m)
        recs = lab.measure_projection_profile(G, X, exp_id=f"ce{which}")
        path = f"{args.out_prefix}_{which.lower()}.csv"
        lab.write_records_csv(recs, path,
                              header_comment=f"config: which={which} m={args.m}")
        counts = sorted(r.count for r in recs)
        bound = 2 * math.isqrt(len(G)) + 1
        print(f"{which}: |G|={len(G)} |X|={len(X)} "
              f"projections min={counts[0]} max={counts[-1]} "
              f"(sqrt bound {bound}) -> {path}")

    # the second construction per block: each direction is small somewhere
    G0, G1, X = lab.gen_counterexample_parts("Two", args.m)
    bound = 2 * math.isqrt(len(G0) + len(G1)) + 1
    worst = max(min(covering_number(so.project(x, G0), args.m),
                    covering_number(so.project(x, G1), args.m))
                for x in X.elements())
    print(f"Two blockwise: worst min-projection {worst} <= {bound}")


if __name__ == "__main__":
    sys.exit(run(main))
