"""Counting engines: additive energy, quintuple/quadruple incidence counts,
graph-based structure extraction, and exact sumset-inequality ledgers.

Tolerance convention: |y| <= delta means the rounded grid representatives
agree up to an adjacent cell (real base, l-infinity) or lie in the same
residue class (p-adic).  Counts are exact for that convention.

The counting engines are array code on the grid-product kernel of setops
(setops._grid_times), the grid reduction of dset (_grid_rows, for the
sums, differences and lookup targets of the counts) and the row-key lookup
of dset (_row_lookup), which folds the 3^d neighbour offsets of the
tolerance (one offset on the p-adic base) into a key table or sorted keys,
so that one lookup counts a target against every offset:

* additive energy sums the squared multiplicities of the pairwise sums
  a + b, counted on their row labels (dset._row_counts);
* the quintuple count forms the rows x a for every x at once (one product
  per unit_exp) and, for each x and block of b rows, looks the targets
  -(xb + xd) up among the n^2 differences a - c of A; the counts add up in
  an n x n matrix over (b, d), and the near/far split at
  |b - d| = radix^-rho is one exact boolean mask over it, from the one ball
  test of every set kernel (dset._within);
* the quadruple count forms the grid rows of (a1 - a2) q and (a3 - a4) p
  for all n^2 differences and counts in one lookup the second rows that
  cancel each first.  On the p-adic base the products are taken at the
  algebra's precision, as Element arithmetic takes them, and a product
  finer than the set's units raises ParameterRangeError;
* graph extraction counts edge sums and vertex degrees on the same row
  labels (dset._row_mult and _row_counts), with no loop over the edges.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import setops as so
from .dset import (
    DSet,
    _abs_max,
    _grid_rows,
    _row_counts,
    _row_lookup,
    _row_mult,
    _within,
    _write_csv,
    covering_number,
    pass_rows,
    point_budget,
)
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DivisionByNegligible,
    EmptyGraph,
    EmptyInput,
    ParameterRangeError,
)


@dataclass
class CountReport:
    total: int
    breakdown: dict
    bound: float | None
    ratio: float | None
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {"total": self.total, "breakdown": self.breakdown,
                "bound": self.bound, "ratio": self.ratio, "extra": self.extra}

    def to_json(self):
        return json.dumps(self.to_dict(), default=str)


@dataclass
class BsgResult:
    A_sub: DSet
    B_sub: DSet
    density_A: float
    density_B: float
    sumset_count: int
    guarantee: dict

    def to_dict(self):
        return {"A_sub": len(self.A_sub), "B_sub": len(self.B_sub),
                "density_A": self.density_A, "density_B": self.density_B,
                "sumset_count": self.sumset_count, "guarantee": self.guarantee}


# ---------------------------------------------------------------------------
# additive energy

def additive_energy(A: DSet, B: DSet) -> int:
    """|{(a, a', b, b') : a + b = a' + b'}|, exactly: the sum of the squared
    multiplicities of the pairwise sums a + b."""
    so._check_compat(A, B)
    r = max(A.radius_exp, B.radius_exp)
    a, b = so._at_radius(A, r), so._at_radius(B, r)
    if len(a) * len(b) > point_budget():
        raise BudgetExceeded("energy pair count too large",
                             {"pairs": len(a) * len(b)})
    so._check_sum_bound("additive_energy", (a, 1), (b, 1))
    sums = _grid_rows(A.alg, a[:, None, :] + b[None, :, :], A.alg.d, A.scale_exp, r)
    return sum(c * c for c in _row_counts(sums).tolist())


# ---------------------------------------------------------------------------
# differences and row lookups

def _diffs(A: DSet) -> np.ndarray:
    """All n^2 differences a - a' as rows on A's grid (dset._grid_rows);
    ParameterRangeError past int64 (only real rows can get there)."""
    if A.alg.is_real_base:
        so._check_sum_bound("_diffs", (A.points, 2))
    return _grid_rows(A.alg, A.points[:, None, :] - A.points[None, :, :], A.alg.d,
                      A.scale_exp, A.radius_exp)


def _near_mask(A: DSet, B: np.ndarray, rho_exp: int) -> np.ndarray:
    """mask[i, j]: |b - d| <= radix^-rho_exp for b = B[i] and d = A.points[j],
    decided exactly on the coordinates by the one ball test dset._within.
    On the p-adic base b and d are taken mod p^M (M = alg.m) as elements, so
    b - d is near when it is 0 there or has valuation >= rho: the radius is
    radix^-min(rho, M)."""
    alg = A.alg
    k = rho_exp if alg.is_real_base else min(rho_exp, alg.m)
    return _within(alg, B[:, None, :] - A.points[None, :, :], A.unit_exp(), k)


def _neighbor_offsets(alg):
    """The 3^d neighbour offsets of the tolerance (real); one zero (p-adic)."""
    return list(itertools.product((-1, 0, 1) if alg.is_real_base else (0,), repeat=alg.d))


# ---------------------------------------------------------------------------
# quintuple count (projection-energy form)

def tv_gain(s, sigma, t, eps=0) -> Fraction:
    """The gain c = s (t - sigma + eps) / t of the quintuple count's bound
    (and of lab.choose_rho_tv), as an exact rational; ParameterRangeError
    unless 0 < s <= sigma <= t, all finite."""
    try:
        s, sigma, t, eps = map(Fraction, (s, sigma, t, eps))
    except (ValueError, OverflowError):     # nan or inf
        raise ParameterRangeError(f"exponents {s}, {sigma}, {t}, {eps} not finite") from None
    if not 0 < s <= sigma <= t:
        raise ParameterRangeError("need 0 < s <= sigma <= t")
    return s * (t - sigma + eps) / t


def quintuple_count_tv(A: DSet, X: DSet, rho_exp: int,
                       s=None, sigma=None, t=None, eps=Fraction(0),
                       symmetric: bool = False) -> CountReport:
    """Exact count of (a,b,c,d,x) in A^4 x X with |a + xb - (c - xd)| <= delta
    (as printed; symmetric=True counts |a + xb - (c + xd)| <= delta), broken
    down at the |b - d| threshold radix^-rho_exp.

    For each x and every (b, d) at once, the target -(xb + xd) (or
    xd - xb) is looked up in the difference multiset of A with the
    neighbour offsets folded in; the counts add up in an n x n matrix over
    (b, d), which the near/far mask splits once.  Targets go in passes of
    pass_rows(n) b rows.  With s, sigma and t all given, the report carries
    the bound radix^(-m tv_gain) n^3 |X|."""
    alg = A.alg
    c_exp = None if None in (s, sigma, t) else tv_gain(s, sigma, t, eps)
    if alg != X.alg:
        raise AlgebraMismatch("A and X live in different algebras")
    n = len(A)
    if len(X) * n ** 2 * 3 ** alg.d > 100 * point_budget():
        raise BudgetExceeded("quintuple count too large; reduce m or |A|",
                             {"work": len(X) * n ** 2, "n": n, "X": len(X),
                              "offsets": 3 ** alg.d})
    offsets = np.array(_neighbor_offsets(alg), dtype=np.int64)
    xs, d = X.elements(), alg.d
    R = np.zeros((len(xs), n, d), dtype=np.int64)   # R[k]: x a for x = xs[k]
    for u in {x.unit_exp for x in xs}:
        idx = [k for k, x in enumerate(xs) if x.unit_exp == u]
        unit = A.unit_exp() + u
        times = so._grid_times(alg, [xs[k].coords for k in idx], _abs_max(A.points),
                               alg.radix ** unit, A.scale_exp, "Right", unit, "quintuple_count_tv")
        R[idx] = times(A.points).reshape(n, len(idx), d).transpose(1, 0, 2)
    so._check_sum_bound("quintuple_count_tv targets", (R.reshape(-1, d), 2), (offsets, 1))
    lookup = _row_lookup(_diffs(A), offsets)
    near_count = far_count = 0
    step = pass_rows(n)
    for lo in range(0, n, step):
        cnt = np.zeros((min(step, n - lo), n), dtype=np.int64)
        for Rx in R:
            # target for (a - c): the printed form needs a - c = -(xb + xd)
            Rb = Rx[lo:lo + step, None, :]
            T = (Rx[None, :, :] - Rb if symmetric else -(Rb + Rx[None, :, :])).reshape(-1, d)
            cnt += lookup(_grid_rows(alg, T, d, A.scale_exp, A.radius_exp)).reshape(cnt.shape)
        near = _near_mask(A, A.points[lo:lo + step], rho_exp)
        near_count += int(cnt[near].sum())
        far_count += int(cnt[~near].sum())
    total = near_count + far_count
    bound = ratio = None
    if c_exp is not None:
        bound = float(Fraction(alg.radix) ** (-A.scale_exp * c_exp) * n ** 3 * len(X))
        ratio = total / bound if bound else None
    return CountReport(total,
                       {"near": near_count, "far": far_count},
                       bound, ratio,
                       {"rho_exp": rho_exp, "symmetric": symmetric,
                        "tolerance": "adjacent-cell (real) / same-cell (p-adic)"})


# ---------------------------------------------------------------------------
# quadruple count (sparse-case form)

def quadruple_count_sparse(A: DSet, p: al.Element, q: al.Element,
                           s=None, rho_exp: int | None = None) -> CountReport:
    """Exact |{(a1,a2,a3,a4) : |a1 q + a3 p - a2 q - a4 p| <= delta}| with the
    once-rounded products (a1-a2)q and (a3-a4)p; reports the Cauchy-Schwarz
    corollary |A|^4 / |Y| <= N(Aq + Ap) alongside the measured count."""
    alg = A.alg
    if rho_exp is not None:
        if alg.is_real_base:
            small = al.norm_sq(alg, q) < Fraction(1, 4 ** rho_exp)
        else:
            ne = al.norm_exp(alg, q)
            small = ne is None or ne > rho_exp
        if small:
            raise DivisionByNegligible("|q| below the rho floor")
    n, r = len(A), A.radius_exp
    # as Elements (p-adic): a - a' mod p^(M+r) and products mod p^M (M =
    # alg.m), then on the set's grid, mod p^(scale_exp+r) in units p^-r
    diffs = _grid_rows(alg, _diffs(A), alg.d, alg.m, r)
    scale = A.scale_exp if alg.is_real_base else min(alg.m, A.scale_exp)

    def product_rows(x, name):
        """Grid rows of (a - a') x, in units p^-r on the p-adic base."""
        den = alg.radix ** (A.unit_exp() + x.unit_exp)
        return so._grid_times(alg, [x.coords], _abs_max(diffs), den, scale, "Left", r,
                              f"quadruple_count_sparse: (a - a') {name}")(diffs)

    T = -product_rows(q, "q")
    lookup = _row_lookup(product_rows(p, "p"), _neighbor_offsets(alg))
    total = int(lookup(_grid_rows(alg, T, alg.d, A.scale_exp, r)).sum())
    bound = ratio = None
    if s is not None and rho_exp is not None:
        bound = float(Fraction(alg.radix) ** (-A.scale_exp * Fraction(s))
                      * Fraction(alg.radix) ** (-rho_exp * Fraction(s)) * n ** 4)
        ratio = total / bound if bound else None
    extra = {"cs_lower_bound": n ** 4 / total if total else None}
    try:
        S = so.sumset(so.scalar_image(q, A, "Right"), so.scalar_image(p, A, "Right"))
        extra["measured_sumset"] = covering_number(S, A.scale_exp)
    except BudgetExceeded:
        extra["measured_sumset"] = None
    return CountReport(total, {"all": total}, bound, ratio, extra)


# ---------------------------------------------------------------------------
# graph extraction (popular sums)

def bsg_extract(H: so.PairSet, A: DSet, B: DSet) -> BsgResult:
    """Dense-subgraph extraction along popular sums: keep edges whose sum
    value has at least half-average multiplicity, then high-degree left
    vertices, then right vertices popular within the kept edges.  Sums and
    vertices are counted on their row labels (dset._row_mult); the sums are
    Python ints once 2 max|coord| reaches 2^63, and |A_sub + B_sub| is then
    counted from the rows of A_sub x B_sub, as the sumset kernel is int64."""
    if len(H) == 0:
        raise EmptyGraph("no edges")
    alg, d = H.alg, H.alg.d
    wide = 2 * max(H.big) >= 2 ** 63

    def sums(G):
        """a + b for the rows (a, b) of the PairSet G, reduced p-adically."""
        pairs = G.pairs.astype(object) if wide else G.pairs
        s = pairs[:, :d] + pairs[:, d:]
        return s if alg.is_real_base else s % alg.p ** (G.scale_exp + G.radius_exp)

    def popular(rows):
        """Whether each row's multiplicity is at least half the average."""
        return _row_mult(rows) >= len(rows) / len(_row_counts(rows)) / 2

    kept = H.pairs[popular(sums(H))]
    kept = kept[popular(kept[:, :d])]
    A_sub = DSet(alg, H.scale_exp, H.radius_exp, kept[:, :d])
    B_sub = DSet(alg, H.scale_exp, H.radius_exp, kept[popular(kept[:, d:]), d:])
    sum_count = len(_row_counts(sums(so.product_pairs(A_sub, B_sub))) if wide
                    else so.sumset(A_sub, B_sub))
    K = (len(A) * len(B)) / len(H)
    C0, kexp = 16.0, 5
    bound = C0 * K ** kexp * (len(A) * len(B)) ** 0.5
    return BsgResult(A_sub, B_sub, len(A_sub) / max(len(A), 1),
                     len(B_sub) / max(len(B), 1), sum_count,
                     {"K": K, "constant": C0, "K_exponent": kexp,
                      "bound": bound, "holds": sum_count <= bound,
                      "degenerate": K >= min(len(A), len(B)) / 2})


# ---------------------------------------------------------------------------
# exact sumset-inequality ledger

def eval_expr(env: dict, expr):
    """Evaluate a composition tree of sums/differences/scalar images.

    Nodes: ("set", name) | ("sum", e1, e2) | ("diff", e1, e2)
         | ("scal", Element, e, side).
    """
    op = expr[0]
    if op == "set":
        return env[expr[1]]
    if op == "sum":
        return so.sumset(eval_expr(env, expr[1]), eval_expr(env, expr[2]))
    if op == "diff":
        return so.difference_set(eval_expr(env, expr[1]), eval_expr(env, expr[2]))
    if op == "scal":
        return so.scalar_image(expr[1], eval_expr(env, expr[2]),
                               expr[3] if len(expr) > 3 else "Left")
    raise ValueError(f"unknown expression node {op!r}")


@dataclass(frozen=True)
class RuzsaInstance:
    """Inequality |lhs| <= prod|num| / prod|den| over the grid group."""
    name: str
    lhs: tuple
    num: tuple
    den: tuple = ()


def ledger_rows(env: dict, instances) -> list:
    rows = []
    for inst in instances:
        lhs = len(eval_expr(env, inst.lhs))
        num = math.prod(len(eval_expr(env, e)) for e in inst.num)
        den = math.prod(len(eval_expr(env, e)) for e in inst.den)
        if den == 0:
            raise EmptyInput(f"ledger {inst.name}: empty set in the denominator")
        rhs = Fraction(num, den)
        slack = rhs / lhs if lhs else None
        rows.append({"instance": inst.name, "lhs": lhs, "rhs": float(rhs),
                     "slack": float(slack) if slack is not None else None})
    return rows


def ruzsa_triangle_instance(a="A", b="B", c="C") -> RuzsaInstance:
    """|A-C| <= |A-B| |B-C| / |B|."""
    return RuzsaInstance("ruzsa_triangle",
                         ("diff", ("set", a), ("set", c)),
                         (("diff", ("set", a), ("set", b)),
                          ("diff", ("set", b), ("set", c))),
                         (("set", b),))


def plunnecke_row(A: DSet, B: DSet) -> dict:
    """With K = |A+B|/|A|: checks |B+B-B| <= K^3 |A| exactly."""
    if len(A) == 0:
        raise EmptyInput("ledger plunnecke_2B-B: empty set A")
    K = Fraction(len(so.sumset(A, B)), len(A))
    lhs = len(so.difference_set(so.sumset(B, B), B))
    rhs = K ** 3 * len(A)
    return {"instance": "plunnecke_2B-B", "lhs": lhs, "rhs": float(rhs),
            "slack": float(Fraction(rhs) / lhs) if lhs else None}


def energy_cs_row(A: DSet) -> dict:
    """E(A,A) |A+A| >= |A|^4 (Cauchy-Schwarz), reported as slack >= 1."""
    E = additive_energy(A, A)
    s = len(so.sumset(A, A))
    lhs = len(A) ** 4
    rhs = E * s
    return {"instance": "energy_cauchy_schwarz", "lhs": lhs, "rhs": float(rhs),
            "slack": rhs / lhs if lhs else None}


def write_ledger_csv(rows, path: str) -> None:
    _write_csv(path, ["instance", "lhs", "rhs", "slack"], rows)
