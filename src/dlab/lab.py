"""Experiment drivers: parameter schedules, set generators, projection
profiles, expansion iteration, and fibre statistics.

All exponents are tracked as exact rationals; measured covering exponents
are reported against delta = radix^-m explicitly rather than asymptotically.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import setops as so
from . import structure as st
from .dset import (
    DSet,
    _cell_rows,
    _row_counts,
    _write_csv,
    covering_number,
    is_nonconcentrated,
    make_dset,
    uniform_subset,
)
from .errors import (
    EmptyInput,
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
    n_iters: int = 1
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
    if radix ** m > 2 ** 63:
        raise ParameterRangeError(f"cells below {radix}^{m} past int64")
    keep_prob = radix ** (s - d)
    branching = radix ** d
    digits = np.array(list(itertools.product(range(radix), repeat=d)), dtype=np.int64)
    for attempt in range(tries):
        rng = random.Random(seed * 1_000_003 + attempt)
        cells = np.zeros((1, d), dtype=np.int64)
        for level in range(m):
            if alg.is_real_base:
                children = 2 * cells[:, None, :] + digits
            else:
                children = cells[:, None, :] + digits * radix ** level
            # one draw per child in digit order, then one for an empty cell
            kept = []
            for _ in range(len(cells)):
                row = [rng.random() < keep_prob for _ in range(branching)]
                if not any(row):
                    row[rng.randrange(branching)] = True
                kept += row
            cells = children.reshape(-1, d)[np.array(kept)]
        A = make_dset(alg, cells, scale_exp=m)
        rep = is_nonconcentrated(A, s, C)
        if rep.passed:
            return A
    raise GenerationFailed(f"no ({s})-nonconcentrated draw in {tries} tries")


def circle_net(alg, m: int) -> DSet:
    """Grid points nearest the unit circle in C: a natural s ~ 1 set."""
    n = 2 ** m
    ths = [2 * math.pi * k / (8 * n) for k in range(8 * n)]
    return make_dset(alg, [(round(n * math.cos(th)), round(n * math.sin(th))) for th in ths],
                     scale_exp=m)


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
    _write_csv(path, ExperimentRecord.FIELDS, (r.row() for r in records),
               header_comment)


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
    alg, m, out = G.alg, G.scale_exp, []
    xs = sorted(X.elements(), key=lambda e: e.coords)
    for x, (rows, r_out) in zip(xs, so._project_many(xs, G)):
        cnt = len(_row_counts(_cell_rows(alg, m, r_out, rows, m)))
        out.append(ExperimentRecord(
            exp_id, _alg_label(alg), alg.p, alg.d, m, None, None, None,
            "proj", " ".join(map(str, x.coords)), cnt,
            _exponent(cnt, m, alg.radix, alg.d), seed))
    return out


def run_expansion(A: DSet, schedule: Schedule, exp_id="expand", seed=None,
                  family=None):
    """Iterate the sum-product enlargement, clipped to the unit ball (the
    origin is a point of n_sum (P - P), so no recentering is needed),
    re-uniformize, and record the covering exponent per round."""
    alg = A.alg
    rep = st.avoids_subalgebras(A, schedule.C, family=family)
    if not rep.passed:
        raise TrappedInput(f"input is {1 / schedule.C}-close to sub-algebra "
                           f"{rep.worst_member}")
    m, cur = A.scale_exp, A

    def record(op, cnt):
        return ExperimentRecord(
            exp_id, _alg_label(alg), alg.p, alg.d, m, float(schedule.s),
            float(schedule.sigma), float(schedule.t), op, "", cnt,
            _exponent(cnt, m, alg.radix, alg.d), seed)
    records = [record("input", covering_number(cur, m))]
    for k in range(schedule.n_iters):
        grown = so.iterated(cur, schedule.n_sum, schedule.n_prod, clip=True)
        cur = uniform_subset(grown, T=1)
        records.append(record(f"iter{k + 1}", covering_number(cur, m)))
    return records


def probe_babyproj(A: DSet, X: DSet, exp_id="babyproj", seed=None):
    """max over x in X of N(A + xA); returns (record, argmax element)."""
    if len(X) == 0:
        raise EmptyInput("babyproj: empty direction set X")
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


def fibre_profile(G: so.PairSet, X: DSet, rho_exp: int = 1):
    """Heaviest rho-cell fibre mass of G under each projection direction."""
    if len(G) == 0:
        raise EmptyInput("fibre_profile: empty pair set G")
    alg, m, out = G.alg, G.scale_exp, {}
    xs = sorted(X.elements(), key=lambda e: e.coords)
    for x, (proj, r_out) in zip(xs, so._project_many(xs, G)):
        counts = _row_counts(_cell_rows(alg, m, r_out, proj, rho_exp))
        heaviest = int(counts.max())
        out[tuple(map(int, x.coords))] = {
            "max_fibre": heaviest,
            "n_fibres": len(counts),
            "fraction": heaviest / len(G),
        }
    return out
