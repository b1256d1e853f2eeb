"""Experiment drivers: parameter schedules, set generators, projection
profiles, expansion iteration, and fibre statistics.

All exponents are tracked as exact rationals; measured covering exponents
are reported against delta = radix^-m explicitly rather than asymptotically.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import setops as so
from . import structure as st
from .dset import (
    DSet,
    _row_counts,
    covering_number,
    is_nonconcentrated,
    make_dset,
    uniform_subset,
)
from .errors import (
    GenerationFailed,
    ParameterRangeError,
    TrappedInput,
)

# cap on the digit count when materializing the theoretical iterate budget
_N_DIGIT_CAP = 100_000


# ---------------------------------------------------------------------------
# schedules and parameter formulas

@dataclass
class Schedule:
    s: Fraction
    sigma: Fraction
    t: Fraction
    d: int
    delta_exp: int
    rho_exp: int = 0
    Delta_exp: int = 0
    c1: Fraction = Fraction(0)
    c_tv: Fraction = Fraction(0)
    n_iters: int = 1
    N_budget: int = 10_000_000
    n_sum: int = 2
    n_prod: int = 2
    C: Fraction = Fraction(4)

    def __post_init__(self):
        self.s = Fraction(self.s)
        self.sigma = Fraction(self.sigma)
        self.t = Fraction(self.t)
        if not (0 < self.s <= self.sigma):
            raise ParameterRangeError("need 0 < s <= sigma")
        if not (0 < self.s < self.d):
            raise ParameterRangeError("need 0 < s < d")
        if self.rho_exp and not (0 < self.rho_exp < self.delta_exp / 3):
            raise ParameterRangeError("need 0 < rho_exp < m/3")


def choose_c1(s, d) -> Fraction:
    """Expansion gain exponent s(1 - s/d)/4."""
    s = Fraction(s)
    if not (0 < s < d):
        raise ParameterRangeError("need 0 < s < d")
    return s * (1 - s / d) / 4


def choose_rho_expand(s, d, delta_exp: int):
    """Pivot scale rho = delta^((d-s)/(3(d+s))): nearest radix-power
    exponent plus the exact rational exponent it rounds."""
    s = Fraction(s)
    if not (0 < s < d):
        raise ParameterRangeError("need 0 < s < d")
    exact = (d - s) / (3 * (d + s))
    rho_exp = round(delta_exp * exact)
    if rho_exp < 1:
        raise ParameterRangeError("degenerate rho: exponent rounds to zero")
    return rho_exp, exact


def choose_rho_tv(s, sigma, t, eps, delta_exp: int):
    """rho = delta^((t-sigma+eps)/t) and the gain c = s(t-sigma+eps)/t."""
    s, sigma, t, eps = map(Fraction, (s, sigma, t, eps))
    if t <= 0 or not (0 < s <= sigma <= t):
        raise ParameterRangeError("need 0 < s <= sigma <= t")
    exact = (t - sigma + eps) / t
    c = s * exact
    rho_exp = round(delta_exp * exact)
    return rho_exp, c


def iteration_budget(s, t, d, commutative: bool = True):
    """Rounds n of s_{k+1} = s_k + c1(s_k)/2 until s_n >= t, and the
    theoretical iterate count N = 20^(20^n) (commutative) or 20^((4d)^n).

    Returns (n, N, inner) with N = None when materializing 20^inner would
    exceed the digit cap; inner is always exact.
    """
    s, t = Fraction(s), Fraction(t)
    if not (0 < s < t < d):
        raise ParameterRangeError("need 0 < s < t < d")
    n = 0
    cur = s
    # denominators square at each step; flooring to 64 fractional bits keeps
    # the recursion exact-comparable without blowing up (a lower bound, so
    # the reported n is never an undercount)
    q = 1 << 64
    while cur < t:
        cur = cur + choose_c1(cur, d) / 2
        cur = Fraction(math.floor(cur * q), q)
        n += 1
    inner = 20 ** n if commutative else (4 * d) ** n
    digits = inner * math.log10(20)
    N = 20 ** inner if digits <= _N_DIGIT_CAP else None
    return n, N, inner


# ---------------------------------------------------------------------------
# generators

def gen_random_dset(alg, m: int, s, seed: int, C=8, tries: int = 10) -> DSet:
    """Random tree construction with branching ~ radix^s per level; verified
    against the non-concentration test and re-drawn up to `tries` times."""
    s = float(s)
    d = alg.d
    radix = alg.radix
    if not (0 < s <= d):
        raise ParameterRangeError("need 0 < s <= d")
    keep_prob = radix ** (s - d)
    branching = radix ** d
    for attempt in range(tries):
        rng = random.Random(seed * 1_000_003 + attempt)
        cells = [tuple([0] * d)]
        for level in range(m):
            nxt = []
            for cell in cells:
                if alg.is_real_base:
                    children = [tuple(2 * c + b[k] for k, c in enumerate(cell))
                                for b in _digit_tuples(2, d)]
                else:
                    children = [tuple(c + b[k] * radix ** level
                                      for k, c in enumerate(cell))
                                for b in _digit_tuples(radix, d)]
                kept = [ch for ch in children if rng.random() < keep_prob]
                if not kept:
                    kept = [children[rng.randrange(branching)]]
                nxt.extend(kept)
            cells = nxt
        A = make_dset(alg, cells, scale_exp=m)
        rep = is_nonconcentrated(A, s, C)
        if rep.passed:
            return A
    raise GenerationFailed(f"no ({s})-nonconcentrated draw in {tries} tries")


def _digit_tuples(radix, d):
    out = [()]
    for _ in range(d):
        out = [t + (b,) for t in out for b in range(radix)]
    return out


def circle_net(alg, m: int) -> DSet:
    """Grid points nearest the unit circle in C: a natural s ~ 1 set."""
    n = 2 ** m
    pts = []
    steps = 8 * n
    for k in range(steps):
        th = 2 * math.pi * k / steps
        pts.append((round(n * math.cos(th)), round(n * math.sin(th))))
    return make_dset(alg, sorted(set(pts)), scale_exp=m)


def gen_counterexample_parts(which: str, m: int):
    """The flat-grid product constructions: returns (G0, G1, X) where G1 is
    None for construction One."""
    alg = al.make_algebra("C", m=m)
    n = 2 ** m
    A_pts = [(k, 0) for k in range(n + 1)]
    iA_pts = [(0, k) for k in range(n + 1)]
    if which in ("One", "1", 1):
        G0 = so.make_pairset(alg, [a + b for a in A_pts for b in A_pts])
        X = make_dset(alg, A_pts + [(0, n)])
        return G0, None, X
    if which in ("Two", "2", 2):
        G0 = so.make_pairset(alg, [a + b for a in A_pts for b in A_pts])
        # the left factor lies on the imaginary axis; projections from
        # imaginary directions then stay one-dimensional
        G1 = so.make_pairset(alg, [a + b for a in iA_pts for b in A_pts])
        X = make_dset(alg, A_pts + iA_pts)
        return G0, G1, X
    raise ParameterRangeError(f"unknown construction {which!r}")


def gen_counterexample(which: str, m: int):
    """Product-set constructions whose projections stay small except in one
    direction; returns (G, X)."""
    G0, G1, X = gen_counterexample_parts(which, m)
    if G1 is None:
        return G0, X
    merged = so.make_pairset(G0.alg,
                             np.vstack([G0.pairs, G1.pairs]),
                             scale_exp=G0.scale_exp, radius_exp=G0.radius_exp)
    return merged, X


# ---------------------------------------------------------------------------
# records

@dataclass
class ExperimentRecord:
    exp_id: str
    algebra: str
    p: int | None
    d: int
    m: int
    s: float | None
    sigma: float | None
    t: float | None
    op: str
    x_coords: str
    count: int
    exponent: float
    seed: int | None

    FIELDS = ("exp_id", "algebra", "p", "d", "m", "s", "sigma", "t", "op",
              "x_coords", "count", "exponent", "seed")

    def row(self):
        return {f: getattr(self, f) for f in self.FIELDS}


def write_records_csv(records, path: str, header_comment: str | None = None):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.DictWriter(fh, fieldnames=list(ExperimentRecord.FIELDS))
        w.writeheader()
        for r in records:
            w.writerow(r.row())
    os.replace(tmp, path)


def _alg_label(alg):
    return alg.kind() if alg.is_real_base else f"Qp[{alg.p}^{alg.d}]"


def _exponent(count, m, radix, d):
    if count <= 1:
        return 0.0
    return min(float(d), math.log(count) / (m * math.log(radix)))


# ---------------------------------------------------------------------------
# experiments

def measure_projection_profile(G: so.PairSet, X: DSet, exp_id="profile",
                               seed=None):
    """Covering number of the projection a + xb of G for each direction x."""
    alg = G.alg
    out = []
    for x in sorted(X.elements(), key=lambda e: e.coords):
        proj = so.project(x, G)
        cnt = covering_number(proj, G.scale_exp)
        out.append(ExperimentRecord(
            exp_id, _alg_label(alg), alg.p, alg.d, G.scale_exp,
            None, None, None, "proj",
            " ".join(map(str, x.coords)), cnt,
            _exponent(cnt, G.scale_exp, alg.radix, alg.d), seed))
    return out


def _recenter(A: DSet) -> DSet:
    """Translate by the element minimizing the max coordinate norm
    (lexicographic tie-break)."""
    if len(A) == 0 or not A.alg.is_real_base:
        return A
    pts = A.points
    # lexsort's last key is the primary one: max norm, then coordinates
    best = np.lexsort([pts[:, t] for t in range(pts.shape[1] - 1, -1, -1)]
                      + [np.abs(pts).max(axis=1)])[0]
    return DSet(A.alg, A.scale_exp, A.radius_exp, pts - pts[best])


def run_expansion(A: DSet, schedule: Schedule, exp_id="expand", seed=None,
                  family=None):
    """Iterate the sum-product enlargement, recenter into the unit ball,
    re-uniformize, and record the covering exponent per round."""
    alg = A.alg
    rep = st.avoids_subalgebras(A, schedule.C, family=family)
    if not rep.passed:
        raise TrappedInput(f"input is {1 / schedule.C}-close to sub-algebra "
                           f"{rep.worst_member}")
    m = A.scale_exp
    records = []
    cur = A
    cnt0 = covering_number(cur, m)
    records.append(ExperimentRecord(
        exp_id, _alg_label(alg), alg.p, alg.d, m, float(schedule.s),
        float(schedule.sigma), float(schedule.t), "input", "", cnt0,
        _exponent(cnt0, m, alg.radix, alg.d), seed))
    for k in range(schedule.n_iters):
        grown = so.iterated(cur, schedule.n_sum, schedule.n_prod, clip=False)
        grown = _recenter(grown)
        grown = so.ball_intersect(grown, 0)
        grown = uniform_subset(grown, T=1)
        cnt = covering_number(grown, m)
        records.append(ExperimentRecord(
            exp_id, _alg_label(alg), alg.p, alg.d, m, float(schedule.s),
            float(schedule.sigma), float(schedule.t), f"iter{k + 1}", "", cnt,
            _exponent(cnt, m, alg.radix, alg.d), seed))
        cur = grown
    return records


def probe_babyproj(A: DSet, X: DSet, exp_id="babyproj", seed=None):
    """max over x in X of N(A + xA); returns (record, argmax element)."""
    alg = A.alg
    best = None
    best_x = None
    for x in sorted(X.elements(), key=lambda e: e.coords):
        S = so.sumset(A, so.scalar_image(x, A, "Left"))
        cnt = covering_number(S, A.scale_exp)
        if best is None or cnt > best:
            best = cnt
            best_x = x
    rec = ExperimentRecord(
        exp_id, _alg_label(alg), alg.p, alg.d, A.scale_exp, None, None, None,
        "babyproj", " ".join(map(str, best_x.coords)), best,
        _exponent(best, A.scale_exp, alg.radix, alg.d), seed)
    return rec, best_x


def fibre_profile(G: so.PairSet, X: DSet, c1=None, rho_exp: int = 1):
    """Heaviest rho-cell fibre mass of G under each projection direction."""
    alg = G.alg
    m = G.scale_exp
    out = {}
    for x in sorted(X.elements(), key=lambda e: e.coords):
        proj, r_out = so._project_rows(x, G)
        if alg.is_real_base:
            cells = proj // (2 ** (m - rho_exp))
        else:
            cells = proj % alg.p ** (rho_exp + r_out)
        counts = _row_counts(cells)
        heaviest = int(counts.max())
        out[tuple(map(int, x.coords))] = {
            "max_fibre": heaviest,
            "n_fibres": len(counts),
            "fraction": heaviest / len(G),
        }
    return out
