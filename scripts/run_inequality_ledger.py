#!/usr/bin/env python3
"""Exercise the exact inequality ledger on random integer-grid sets.

Generates random triples (A, B, C), evaluates the Ruzsa triangle,
iterated-sumset, and energy Cauchy-Schwarz instances with exact integer
counts, and writes every row (instance, lhs, rhs, slack) to a CSV.
A slack below 1 would mean a violated inequality; none should occur.
"""

import argparse
import random
import sys

from dlab import algebra as al
from dlab import energy as en
from dlab.cli import run
from dlab.dset import make_dset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m", type=int, default=6)
    ap.add_argument("--out", default="ledger.csv")
    args = ap.parse_args()

    rnd = random.Random(args.seed)
    R = al.make_algebra("R", m=args.m)
    rows = []
    for _ in range(args.trials):
        env = {}
        for name in "ABC":
            pts = {(rnd.randrange(-20, 21),)
                   for _ in range(rnd.randrange(3, 12))}
            env[name] = make_dset(R, sorted(pts))
        rows += en.ledger_rows(env, [en.ruzsa_triangle_instance()])
        rows.append(en.plunnecke_row(env["A"], env["B"]))
        rows.append(en.energy_cs_row(env["A"]))
    en.write_ledger_csv(rows, args.out)
    worst = min(r["slack"] for r in rows)
    print(f"{len(rows)} rows -> {args.out}; minimum slack {worst:.4f} "
          f"({'ok' if worst >= 1 else 'VIOLATION'})")


if __name__ == "__main__":
    sys.exit(run(main))
