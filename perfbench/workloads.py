"""The benchmark's four workloads and the checks on their outputs.

A workload turns (seed, pass index) into a list of items.  Each item runs a
fixed sequence of public dlab calls (`run`, the timed part) and then has its
outputs checked (`check`, untimed) against invariants computed here from
first principles: the NC certificate is recounted with numpy, quotient cells
are recomputed from their witnesses with Fractions, and the counting engines
are compared with brute-force enumeration on a slice of their inputs.

Inputs cycle with period PASS_CYCLE, so `golden.json` holds the output
digests of every pass a run can make at the default seed.

Functions of dlab are looked up through their modules at call time so that
the tracer's wrappers see every call the workload makes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from dlab import algebra as al
from dlab import dset
from dlab import energy as en
from dlab import lab
from dlab import setops as so
from dlab import structure as st

PASS_CYCLE = 8
DEFAULT_SEED = 0


class CheckFailed(Exception):
    pass


@dataclass
class Item:
    id: str
    op: str            # the dlab pipeline the item runs, named in failures
    sizes: str         # input sizes, named in failures
    run: Callable      # timed: performs the dlab calls, returns outputs
    check: Callable    # untimed: raises CheckFailed on a wrong output


def pass_rng(seed, workload, pass_idx):
    return random.Random(f"{seed}/{workload}/{pass_idx % PASS_CYCLE}")


def digest(obj) -> str:
    """Digest of an output built from arrays, numbers, strings and containers."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.generic):
            x = x.item()
        if isinstance(x, np.ndarray):
            a = np.ascontiguousarray(x.astype(np.int64))
            h.update(b"A%r" % (a.shape,))
            h.update(a.tobytes())
        elif isinstance(x, dict):
            h.update(b"D%d" % len(x))
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"L%d" % len(x))
            for v in x:
                feed(v)
        else:
            h.update(b"S" + repr(x).encode() + b";")

    feed(obj)
    return h.hexdigest()[:16]


def _fail(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _round_half_away(num: int, den: int) -> int:
    r = (2 * abs(num) + den) // (2 * den)
    return r if num >= 0 else -r


def _random_points(rng, n, d, hi):
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(hi) for _ in range(d)))
    return sorted(pts)


def _ball_points(rng, n, m):
    """n distinct grid points of the closed unit disk at scale 2^-m.  Most
    pairs are then farther apart than rho = 1/2, so the number of admissible
    quotient denominators varies little from seed to seed."""
    r = 2 ** m
    pts = set()
    while len(pts) < n:
        x, y = rng.randint(-r, r), rng.randint(-r, r)
        if x * x + y * y <= r * r:
            pts.add((x, y))
    return sorted(pts)


def _cell_counts(points, real, radix, scale, radius, k):
    """Point count of every nonempty cell at scale radix^-k."""
    if real:
        top = 2 ** (scale + radius)
        ids = np.where(points == top, points - 1, points) // 2 ** (scale - k)
    else:
        ids = points % radix ** (k + radius)
    return np.unique(ids, axis=0, return_counts=True)[1]


# ---------------------------------------------------------------------------
# generate: random sets, NC certificate, file round trip, uniformization

GEN_M = 5
GEN_C = 8  # gen_random_dset's default certificate constant
GEN_BASES = (("R", "R", None), ("C", "C", None), ("Qp2", "Qp", 2), ("Qp3", "Qp", 3))
# Items per (base, s) cell.  The counts give every cell about the same time at
# the commit that defined the benchmark, so the pass time is not dominated by
# the few large complex sets whose size varies most from seed to seed.
GEN_REPS = {"R": (28, 22, 17, 12, 9), "C": (20, 10, 5, 2, 1),
            "Qp2": (20,) * 5, "Qp3": (20,) * 5}


def nc_best_constant(points, real, radix, scale, s):
    """Smallest C with N(A ∩ B(x, r)) <= C r^s N(A) over x in A and
    r = radix^-k, recounted from the points (open linf balls / residues)."""
    n = len(points)
    best = 0.0
    cheb = (np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
            if real else None)
    for k in range(scale + 1):
        if real:
            top = int((cheb < 2 ** (scale - k)).sum(axis=1).max())
        else:
            top = int(_cell_counts(points, False, radix, scale, 0, k).max())
        best = max(best, top * float(radix) ** (k * s) / n)
    return best


class Generate:
    name = "generate"

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.algs = {label: (al.make_algebra(kind, m=GEN_M) if p is None
                             else al.make_algebra(kind, p=p, d=1, m=GEN_M))
                     for label, kind, p in GEN_BASES}

    def items(self, pass_idx):
        rng = pass_rng(self.seed, self.name, pass_idx)
        out = []
        for label, _, _ in GEN_BASES:
            alg = self.algs[label]
            for j, reps in enumerate(GEN_REPS[label]):
                s = 0.6 + 0.4 * j / 5 * alg.d
                for r in range(reps):
                    seed = rng.randrange(2 ** 31)
                    # a new file per item, as a user writing one set per run
                    path = os.path.join(self.tmp_dir, f"{pass_idx}-{len(out)}.dset")
                    out.append(Item(
                        f"{label}/s{j}/{r}", "gen_random_dset+io+uniformize",
                        f"{label} m={GEN_M} s={s:.2f} seed={seed}",
                        self._run(alg, s, seed, path), self._check(alg, s)))
        return out

    def _run(self, alg, s, seed, path):
        def run():
            A = lab.gen_random_dset(alg, GEN_M, s, seed=seed)
            dset.write_dset(A, path)
            B = dset.read_dset(path)
            U = dset.uniform_subset(B, T=1)
            audit = dset.uniformity_audit(U, T=1)
            return {"A": A.points, "read_equal": B == A, "U": U.points,
                    "audit": {k: (mx, mn, bool(ok)) for k, (mx, mn, ok) in audit.items()}}
        return run

    def _check(self, alg, s):
        real, radix, d = alg.is_real_base, alg.radix, alg.d

        def check(out):
            A, U = out["A"], out["U"]
            _fail(out["read_equal"], "read_dset(write_dset(A)) != A")
            best = nc_best_constant(A, real, radix, GEN_M, s)
            _fail(best <= GEN_C, f"NC certificate fails on recount: C={best:.3f} > {GEN_C}")
            _fail(len(U) > 0 and len(U) * (d + 1) ** GEN_M >= len(A),
                  f"mass bound fails: |U|={len(U)} |A|={len(A)}")
            a_rows = {tuple(r) for r in A.tolist()}
            _fail(all(tuple(r) in a_rows for r in U.tolist()), "U is not a subset of A")
            for k in range(GEN_M - 1, -1, -1):
                c = _cell_counts(U, real, radix, GEN_M, 0, k)
                want = (int(c.max()), int(c.min()), bool(c.max() <= radix * c.min()))
                _fail(out["audit"].get(k) == want,
                      f"audit at k={k} is {out['audit'].get(k)}, recount {want}")
                _fail(want[2], f"U is not uniform at k={k}: {want}")
        return check


# ---------------------------------------------------------------------------
# expand: one (2,2) expansion round from a discretized unit circle

EXP_M = 7
EXP_MIN_GAIN = 0.05


def circle_points(m, phase):
    """Grid points nearest the unit circle rotated by `phase` (phase 0 is
    lab.circle_net)."""
    n = 2 ** m
    steps = 8 * n
    return sorted({(round(n * math.cos(2 * math.pi * k / steps + phase)),
                    round(n * math.sin(2 * math.pi * k / steps + phase)))
                   for k in range(steps)})


class Expand:
    name = "expand"

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.alg = al.make_algebra("C", m=EXP_M)
        self.sched = lab.Schedule(s=1, sigma=1, t=Fraction(3, 2), d=2,
                                  delta_exp=EXP_M, n_iters=1, n_sum=2,
                                  n_prod=2, C=4)

    def items(self, pass_idx):
        rng = pass_rng(self.seed, self.name, pass_idx)
        phase = rng.uniform(0, 2 * math.pi)
        net = dset.make_dset(self.alg, circle_points(EXP_M, phase), scale_exp=EXP_M)

        def run():
            recs = lab.run_expansion(net, self.sched, seed=self.seed)
            return [(r.op, r.count, r.exponent) for r in recs]

        def check(out):
            gain = out[1][2] - out[0][2]
            _fail(gain >= EXP_MIN_GAIN, f"expansion gain {gain:.4f} < {EXP_MIN_GAIN}")
        return [Item("round", "run_expansion", f"C m={EXP_M} |net|={len(net)} "
                     f"phase={phase:.6f}", run, check)]


# ---------------------------------------------------------------------------
# quotient: quotient sets with witnesses, then the dense/sparse dichotomy

Q_M, Q_RHO, Q_SIZES = 9, 1, (9, 11, 13)
QP_P, QP_M, QP_RHO, QP_SIZE = 3, 5, 1, 10


def _quotient(table, num, den):
    """q with den q = num in a commutative 2-dimensional algebra, from integer
    coordinates: Cramer's rule on the matrix of multiplication by den."""
    m = [[sum(den[i] * table[i][j][k] for i in range(2)) for j in range(2)]
         for k in range(2)]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (Fraction(m[1][1] * num[0] - m[0][1] * num[1], det),
            Fraction(m[0][0] * num[1] - m[1][0] * num[0], det))


def _mul(table, x, y):
    return [sum(x[i] * y[j] * table[i][j][k]
                for i in range(len(x)) for j in range(len(y)))
            for k in range(len(x))]


def _vp(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class Quotient:
    name = "quotient"

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.c9 = al.make_algebra("C", m=Q_M)
        self.qp = al.make_algebra("Qp_ext", p=QP_P, d=2, m=QP_M)

    def items(self, pass_idx):
        rng = pass_rng(self.seed, self.name, pass_idx)
        out = []
        for n in Q_SIZES:
            pts = _ball_points(rng, n, Q_M)
            out.append(self._item(f"C/{n}", self.c9, pts, Q_M, Q_RHO, "halving"))
        pts = _random_points(rng, QP_SIZE, 2, QP_P ** QP_M)
        out.append(self._item(f"Qp_ext/{QP_SIZE}", self.qp, pts, QP_M, QP_RHO,
                              "translate"))
        return out

    def _item(self, item_id, alg, pts, m, rho, mode):
        A = dset.make_dset(alg, pts)
        v = [al.one(alg), al.basis_element(alg, 1)]

        def run():
            Q, wit = so.quotient_set(A, rho, with_witnesses=True)
            res = st.dichotomy_check(Q, v, m, rho, witnesses=wit, mode=mode)
            return {"Q": Q.points, "scale": Q.scale_exp, "radius": Q.radius_exp,
                    "wit": sorted(wit.items()), "dichotomy": res.to_json()}

        return Item(item_id, f"quotient_set+dichotomy_check({mode})",
                    f"{alg.kind()} m={m} |A|={len(pts)} rho_exp={rho}",
                    run, self._check(alg, m, rho))

    def _check(self, alg, m, rho):
        real, d = alg.is_real_base, alg.d
        table = alg.structure_constants
        unit = Fraction(1, 2 ** m) if real else Fraction(1)  # value of one grid step of A

        def snap(vals, scale, radius):
            if real:
                return tuple(_round_half_away(v.numerator * 2 ** scale, v.denominator)
                             for v in vals)
            p, mod = alg.p, alg.p ** (scale + radius)
            out = []
            for v in vals:
                kv = _vp(v.denominator, p)
                _fail(kv <= radius, "quotient below the representable radius")
                u = v.denominator // p ** kv
                out.append(v.numerator * p ** (radius - kv) * pow(u, -1, mod) % mod)
            return tuple(out)

        def far(den):  # |den| > radix^-rho, den in grid units of A
            if real:
                return sum(x * x for x in den) * 4 ** rho > 4 ** m
            nz = [x for x in den if x != 0]
            return bool(nz) and min(_vp(x, alg.p) for x in nz) < rho

        def check(out):
            scale, radius = out["scale"], out["radius"]
            cells = {tuple(map(int, r)) for r in out["Q"].tolist()}
            _fail(cells == {c for c, _ in out["wit"]}, "witness keys differ from Q")
            for cell, (a, b, c, dd) in out["wit"]:
                num = [x - y for x, y in zip(a, b)]
                den = [x - y for x, y in zip(c, dd)]
                _fail(far(den), f"witness denominator too small at {cell}")
                q = snap(_quotient(table, num, den), scale, radius)
                _fail(q == tuple(cell), f"witness of {cell} reproduces {q}")
            res = json.loads(out["dichotomy"])
            delta = Fraction(1, alg.radix ** scale) if real else Fraction(1, alg.p ** radius)

            # the basis v is (1, e_1), so map labels are shifts in value coordinates
            def shift(label):
                if res["mode"] == "halving":
                    return [Fraction(b) for b in label]
                return [Fraction(int(t == label)) for t in range(d)]

            def image(xc, label):
                y = [Fraction(c) * delta + w for c, w in zip(xc, shift(label))]
                return [t / 2 for t in y] if res["mode"] == "halving" else y

            def near(y):
                if real:
                    r = [t / delta for t in y]
                    return any(c in cells for c in itertools.product(
                        *(range(math.ceil(t - 1), math.floor(t + 1) + 1) for t in r)))
                mod = alg.p ** (scale + radius)
                w = [t * alg.p ** radius for t in y]
                if any(t.denominator % alg.p == 0 for t in w):
                    return False
                return tuple(t.numerator * pow(t.denominator, -1, mod) % mod
                             for t in w) in cells

            labels = (list(itertools.product((0, 1), repeat=d))
                      if res["mode"] == "halving" else list(range(d)))
            if res["case"] == "Sparse":
                wit = res["witness"]
                label = tuple(wit["map"]) if res["mode"] == "halving" else wit["map"]
                _fail(tuple(wit["x_coords"]) in cells, "sparse witness x is not in Q")
                _fail(not near(image(wit["x_coords"], label)),
                      f"sparse witness image of {wit['x_coords']} is near Q")
                a, b, c, dd = dict(out["wit"])[tuple(wit["x_coords"])]
                _fail(wit["abcd"] == [list(a), list(b), list(c), list(dd)],
                      "sparse witness quadruple differs from the quotient witness")
                # y = (num/den + w)/2 = p/q (halving) or num/den + w = p/q (translate)
                num = [(x - y) * unit for x, y in zip(a, b)]
                den = [(x - y) * unit for x, y in zip(c, dd)]
                p = [x + y for x, y in zip(num, _mul(table, shift(label), den))]
                q = [2 * t for t in den] if res["mode"] == "halving" else den
                _fail(wit["p"] == [str(t) for t in p] and wit["q"] == [str(t) for t in q],
                      f"sparse decomposition p={wit['p']} q={wit['q']} does not "
                      f"reproduce the witness ({p}, {q})")
            else:
                escaping = [(xc, lb) for xc in cells for lb in labels
                            if not near(image(xc, lb))]
                _fail(not escaping, f"dense outcome but {escaping[:1]} escapes")
                _fail(res["dense_audit"]["passed"], "dense audit fails")
        return check


# ---------------------------------------------------------------------------
# count: projection profiles, counting engines, inequality ledger

CE_M = 6
TV_N, TV_NX, TV_RHO = 64, 28, 2
TV_C_M, TV_QP_P, TV_QP_M = 7, 3, 5
SLICE_N, SLICE_NX = 6, 3
LEDGER_TRIALS = 100


def _products(table, xs, ys):
    """Raw bilinear products x_i y_j c_ijk for all pairs, shape (|xs|, |ys|, d)."""
    return np.einsum("ai,bj,ijk->abk", np.asarray(xs, dtype=np.int64),
                     np.asarray(ys, dtype=np.int64), np.asarray(table, dtype=np.int64))


def _rounded(alg, raw, m):
    """Raw products in units radix^-2m back onto the grid (real) or mod p^m."""
    if alg.is_real_base:
        q = 2 ** m
        r = (2 * np.abs(raw) + q) // (2 * q)
        return np.where(raw >= 0, r, -r)
    return raw % alg.p ** m


def _tolerated(alg, v, m):
    if alg.is_real_base:
        return np.all(np.abs(v) <= 1, axis=-1)
    return np.all(v % alg.p ** m == 0, axis=-1)


def brute_quintuple(alg, A, X, m):
    """|{(a,b,c,d,x) : a + xb - c + xd within the tolerance}| by enumeration."""
    table = alg.structure_constants
    tot = 0
    for x in X:
        R = _rounded(alg, _products(table, [x], A)[0], m)
        ac = (A[:, None, :] - A[None, :, :]).reshape(-1, alg.d)
        bd = (R[:, None, :] + R[None, :, :]).reshape(-1, alg.d)
        tot += int(_tolerated(alg, ac[:, None, :] + bd[None, :, :], m).sum())
    return tot


def brute_quadruple(alg, A, p, q, m):
    """|{(a1,a2,a3,a4) : rnd((a1-a2)q) + rnd((a3-a4)p) within the tolerance}|."""
    table = alg.structure_constants
    diffs = (A[:, None, :] - A[None, :, :]).reshape(-1, alg.d)
    uq = _rounded(alg, _products(table, diffs, [q])[:, 0], m)
    up = _rounded(alg, _products(table, diffs, [p])[:, 0], m)
    return int(_tolerated(alg, uq[:, None, :] + up[None, :, :], m).sum())


def brute_energy(alg, A, m):
    sums = (A[:, None, :] + A[None, :, :]).reshape(-1, alg.d)
    if not alg.is_real_base:
        sums = sums % alg.p ** m
    return int(np.all(sums[:, None, :] == sums[None, :, :], axis=-1).sum())


class Count:
    name = "count"

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.ce = {w: lab.gen_counterexample(w, CE_M) for w in ("One", "Two")}
        self.parts = lab.gen_counterexample_parts("Two", CE_M)
        self.algs = {"C": al.make_algebra("C", m=TV_C_M),
                     "Qp": al.make_algebra("Qp", p=TV_QP_P, d=1, m=TV_QP_M)}
        self.ledger_alg = al.make_algebra("R", m=6)

    def items(self, pass_idx):
        rng = pass_rng(self.seed, self.name, pass_idx)
        out = [self._profile(w) for w in ("One", "Two")] + [self._blockwise()]
        for label, alg in self.algs.items():
            hi = 2 ** TV_C_M if alg.is_real_base else alg.p ** alg.m
            A = dset.make_dset(alg, _random_points(rng, TV_N, alg.d, hi))
            X = dset.make_dset(alg, _random_points(rng, TV_NX, alg.d, hi))
            p = al.element(alg, [rng.randrange(1, hi) for _ in range(alg.d)])
            q = al.element(alg, [rng.randrange(1, hi) for _ in range(alg.d)])
            out += [self._tv(label, A, X), self._sparse(label, A, p, q),
                    self._energy(label, A)]
        out.append(self._ledger(rng))
        return out

    def _profile(self, which):
        G, X = self.ce[which]
        n = 2 ** CE_M

        def run():
            recs = lab.measure_projection_profile(G, X, exp_id=which)
            return [(r.x_coords, r.count) for r in recs]

        def check(out):
            bound = 2 * math.isqrt(len(G)) + 1
            for xc, cnt in out:
                _fail(1 <= cnt <= len(G), f"projection count {cnt} outside [1, |G|]")
                if which == "One":
                    want_full = xc == f"0 {n}"
                    _fail(cnt == (n + 1) ** 2 if want_full else cnt <= bound,
                          f"direction {xc}: count {cnt}, sqrt bound {bound}")
        return Item(f"profile/{which}", "measure_projection_profile",
                    f"|G|={len(G)} |X|={len(X)} m={CE_M}", run, check)

    def _blockwise(self):
        G0, G1, X = self.parts

        def run():
            return max(min(dset.covering_number(so.project(x, G0), CE_M),
                           dset.covering_number(so.project(x, G1), CE_M))
                       for x in X.elements())

        def check(worst):
            bound = 2 * math.isqrt(len(G0) + len(G1)) + 1
            _fail(worst <= bound, f"blockwise min-projection {worst} > {bound}")
        return Item("blockwise", "project+covering_number",
                    f"|G0|={len(G0)} |G1|={len(G1)} |X|={len(X)}", run, check)

    def _tv(self, label, A, X):
        alg, m = A.alg, A.scale_exp

        def run():
            rep = en.quintuple_count_tv(A, X, rho_exp=TV_RHO)
            return (rep.total, rep.breakdown)

        def check(out):
            total, br = out
            _fail(total == br["near"] + br["far"], "near + far != total")
            a = dset.make_dset(alg, A.points[:SLICE_N])
            x = dset.make_dset(alg, X.points[:SLICE_NX])
            got = en.quintuple_count_tv(a, x, rho_exp=TV_RHO).total
            want = brute_quintuple(alg, a.points, x.points, m)
            _fail(got == want, f"quintuple count on a slice {got} != brute force {want}")
        return Item(f"tv/{label}", "quintuple_count_tv",
                    f"{alg.kind()} |A|={len(A)} |X|={len(X)}", run, check)

    def _sparse(self, label, A, p, q):
        alg, m = A.alg, A.scale_exp

        def run():
            rep = en.quadruple_count_sparse(A, p, q)
            return (rep.total, rep.extra)

        def check(out):
            a = dset.make_dset(alg, A.points[:SLICE_N])
            got = en.quadruple_count_sparse(a, p, q).total
            want = brute_quadruple(alg, a.points, p.coords, q.coords, m)
            _fail(got == want, f"quadruple count on a slice {got} != brute force {want}")
        return Item(f"sparse/{label}", "quadruple_count_sparse",
                    f"{alg.kind()} |A|={len(A)}", run, check)

    def _energy(self, label, A):
        alg, m, n = A.alg, A.scale_exp, len(A)

        def run():
            return en.additive_energy(A, A)

        def check(E):
            _fail(n * n <= E <= n ** 3, f"energy {E} outside [n^2, n^3]")
            a = dset.make_dset(alg, A.points[:2 * SLICE_N])
            got = en.additive_energy(a, a)
            want = brute_energy(alg, a.points, m)
            _fail(got == want, f"energy on a slice {got} != brute force {want}")
        return Item(f"energy/{label}", "additive_energy",
                    f"{alg.kind()} |A|={n}", run, check)

    def _ledger(self, rng):
        envs = []
        for _ in range(LEDGER_TRIALS):
            envs.append({name: dset.make_dset(self.ledger_alg, sorted(
                {(rng.randrange(-20, 21),) for _ in range(rng.randrange(3, 12))}))
                for name in "ABC"})

        def run():
            rows = []
            for env in envs:
                rows += en.ledger_rows(env, [en.ruzsa_triangle_instance()])
                rows.append(en.plunnecke_row(env["A"], env["B"]))
                rows.append(en.energy_cs_row(env["A"]))
            return rows

        def check(rows):
            bad = [r for r in rows if r["slack"] is None or r["slack"] < 1]
            _fail(not bad, f"ledger rows with slack < 1: {bad[:2]}")
        return Item("ledger", "ledger_rows+plunnecke_row+energy_cs_row",
                    f"{LEDGER_TRIALS} triples in R m=6", run, check)


WORKLOADS = {w.name: w for w in (Generate, Expand, Quotient, Count)}
