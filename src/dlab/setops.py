"""Set calculus: sums, differences, products, iterated expressions, scalar
actions, projections, quotient sets and linear coordinate changes.

Real-base composites are rounded to the grid once per operation
(half-away-from-zero); p-adic composites are exact.  Large sumsets fall
back to an FFT indicator convolution; everything else is pairwise with a
point budget.

Products, scalar images, projections and quotient numerators share one
bilinear array product (_raw_products) and one grid step (_to_grid); the
counting engines take their rows from the same kernel.  It runs on int64
while every raw product provably fits and on Python ints otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra as al
from .algebra import AlgebraDescriptor, Element, _units_to_values, _value_to_grid
from .dset import (
    DSet,
    _abs_max,
    _canon_points,
    _grid_rows,
    _read_rows,
    _row_mins,
    _row_norm_sq,
    _write_rows,
    point_budget,
)
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DivisionByNegligible,
    NoAdmissiblePairs,
    ParameterRangeError,
    ScaleMismatch,
    SingularMap,
)

PAIRWISE_CAP = 4_000_000
FFT_CELL_CAP = 1 << 24
QUOTIENT_CHUNK = 1 << 20    # (difference, denominator) pairs per array pass


@dataclass(frozen=True)
class PairSet:
    """Finite subset of E x E on the grid; columns are (a, b) coordinates."""
    alg: AlgebraDescriptor
    scale_exp: int
    radius_exp: int
    pairs: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", _canon_points(self.pairs, 2 * self.alg.d))

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return (isinstance(other, PairSet) and self.alg == other.alg
                and self.scale_exp == other.scale_exp
                and self.radius_exp == other.radius_exp
                and np.array_equal(self.pairs, other.pairs))

    def left(self) -> DSet:
        return DSet(self.alg, self.scale_exp, self.radius_exp,
                    self.pairs[:, :self.alg.d])

    def right(self) -> DSet:
        return DSet(self.alg, self.scale_exp, self.radius_exp,
                    self.pairs[:, self.alg.d:])

    def unit_exp(self) -> int:
        return self.scale_exp if self.alg.is_real_base else self.radius_exp


def make_pairset(alg, pairs, scale_exp=None, radius_exp=0) -> PairSet:
    scale_exp = alg.m if scale_exp is None else scale_exp
    return PairSet(alg, scale_exp, radius_exp,
                   _grid_rows(alg, pairs, 2 * alg.d, scale_exp, radius_exp))


def product_pairs(A: DSet, B: DSet) -> PairSet:
    """Cartesian product A x B as a PairSet."""
    _check_compat(A, B)
    r = max(A.radius_exp, B.radius_exp)
    a = _at_radius(A, r)
    b = _at_radius(B, r)
    n, k = len(a), len(b)
    if n * k > point_budget():
        raise BudgetExceeded("cartesian product too large", {"pairs": n * k})
    left = np.repeat(a, k, axis=0)
    right = np.tile(b, (n, 1))
    return PairSet(A.alg, A.scale_exp, r, np.hstack([left, right]))


# ---------------------------------------------------------------------------
# shared helpers

def _check_compat(A, B):
    if A.alg != B.alg:
        raise AlgebraMismatch("operands live in different algebras")
    if A.scale_exp != B.scale_exp:
        raise ScaleMismatch(f"scale {A.scale_exp} vs {B.scale_exp}")


def _at_radius(A, r):
    """Points of A re-expressed at p-adic radius_exp r >= A.radius_exp
    (real base: unchanged)."""
    pts = A.points if isinstance(A, DSet) else A.pairs
    if A.alg.is_real_base or r == A.radius_exp:
        return pts
    f = A.alg.p ** (r - A.radius_exp)
    _check_sum_bound(f"radius change {A.radius_exp} -> {r}", (pts, f))
    return pts * f


def _round_div_arr(v: np.ndarray, q: int) -> np.ndarray:
    """Vectorized round-half-away-from-zero of v/q."""
    r = np.abs(v)
    r *= 2
    r += q
    r //= 2 * q
    return np.negative(r, out=r, where=v < 0)


def _raw_products(alg, U, V, side, dtype):
    """The raw products u v (Left) or v u (Right) of every row u of U with
    every row v of V, in row-major (u, v) order: V is contracted with the
    structure constants into one d x |V|d matrix W, and U @ W is one
    matmul."""
    C = np.array(alg.structure_constants, dtype=dtype)
    W = np.tensordot(np.array(V, dtype=dtype), C,
                     axes=(1, 1 if side == "Left" else 0))
    W = W.transpose(1, 0, 2).reshape(alg.d, -1)
    return (np.asarray(U, dtype=dtype) @ W).reshape(-1, alg.d)


def _product_bound(alg, U, V) -> int:
    """max|U| max|V| max_l sum_ij |c_ijl|, each factor at least 1: a bound on
    every raw product and on every entry of U, V and the constants."""
    sc = alg.structure_constants
    csum = max(sum(abs(c[t]) for row in sc for c in row) for t in range(alg.d))
    return max(_abs_max(U), 1) * max(_abs_max(V), 1) * csum


def _check_sum_bound(op: str, *terms) -> None:
    """Raise ParameterRangeError, naming op and the operand sizes, unless
    sum f max|X| over the terms (X, f) is below 2^63: then every sum of f x
    over one entry x of each X fits in int64."""
    bound = sum(f * _abs_max(X) for X, f in terms)
    if bound >= 2 ** 63:
        raise ParameterRangeError(
            f"{op}: sums of operands of sizes {[len(X) for X, _ in terms]} "
            f"reach {bound}, past int64")


def _to_grid(alg, raw: np.ndarray, unit: int, scale_exp: int) -> np.ndarray:
    """Raw coordinates in units radix^-unit onto the grid of scale_exp: real
    base to units 2^-scale_exp, exact for unit <= scale_exp and rounded half
    away from zero otherwise; p-adic base reduced mod p^(scale_exp + unit),
    in the same units."""
    if not alg.is_real_base:
        return raw % alg.p ** (scale_exp + unit)
    shift = unit - scale_exp
    return raw * 2 ** (-shift) if shift <= 0 else _round_div_arr(raw, 2 ** shift)


def _grid_products(alg, U, V, unit, scale_exp, side) -> np.ndarray:
    """_to_grid of the _raw_products of U and V, whose raw coordinates are in
    units radix^-unit, as int64 rows.  int64 while the raw products and the
    grid step provably fit, Python ints otherwise."""
    U = np.ascontiguousarray(U)     # min and max are slow on column slices
    big = _product_bound(alg, U, V)
    if alg.is_real_base:
        shift = unit - scale_exp
        fits = (big << -shift if shift <= 0 else 2 * big + 2 ** (shift + 1)) < 2 ** 63
    else:
        fits = big < 2 ** 63 and alg.p ** (scale_exp + unit) < 2 ** 63
    raw = _raw_products(alg, U, V, side, np.int64 if fits else object)
    return _to_grid(alg, raw, unit, scale_exp).astype(np.int64, copy=False)


def _scalar_rows(alg, x: Element, pts, unit, scale_exp, side) -> np.ndarray:
    """Grid rows of x a (Left) or a x (Right) for every row a of pts, in
    units radix^-unit, in input order; on the p-adic base in units
    p^-(unit + x.unit_exp).  x is the contracted operand."""
    return _grid_products(alg, pts, [x.coords], unit + x.unit_exp, scale_exp,
                          "Right" if side == "Left" else "Left")


def _mod(A_alg, scale_exp, radius_exp):
    return A_alg.p ** (scale_exp + radius_exp)


def _negate_points(alg, pts, scale_exp, radius_exp):
    if alg.is_real_base:
        return -pts
    return (-pts) % _mod(alg, scale_exp, radius_exp)


# ---------------------------------------------------------------------------
# sums and differences

def _fft_support_sum(a_pts, b_pts, cyclic_mod=None):
    """Support of the sumset via indicator convolution.

    cyclic_mod None: linear convolution on the bounding boxes (real base).
    Otherwise circular convolution modulo cyclic_mod per axis (p-adic).
    """
    d = a_pts.shape[1]
    if cyclic_mod is None:
        amin, bmin = a_pts.min(axis=0), b_pts.min(axis=0)
        # the box in Python ints, so that no span wraps before the cap check
        shape = tuple(int(ha) - int(la) + int(hb) - int(lb) + 1 for ha, la, hb, lb
                      in zip(a_pts.max(axis=0), amin, b_pts.max(axis=0), bmin))
    else:
        shape = (cyclic_mod,) * d
    if math.prod(shape) > FFT_CELL_CAP:
        raise BudgetExceeded("sumset grid too large for FFT", {"cells": math.prod(shape)})
    ash, bsh = (a_pts - amin, b_pts - bmin) if cyclic_mod is None else (a_pts, b_pts)
    ga = np.zeros(shape)
    ga[tuple(ash.T)] = 1.0
    gb = np.zeros(shape)
    gb[tuple(bsh.T)] = 1.0
    axes = tuple(range(d))
    conv = np.fft.irfftn(np.fft.rfftn(ga, shape, axes) * np.fft.rfftn(gb, shape, axes),
                         shape, axes)
    out = np.argwhere(conv > 0.5).astype(np.int64)
    if cyclic_mod is None:
        out = out + amin + bmin
    return out


def sumset(A: DSet, B: DSet) -> DSet:
    """{a + b} on the grid."""
    _check_compat(A, B)
    if len(A) == 0 or len(B) == 0:
        return DSet(A.alg, A.scale_exp, max(A.radius_exp, B.radius_exp),
                    np.zeros((0, A.alg.d), dtype=np.int64))
    alg = A.alg
    r = max(A.radius_exp, B.radius_exp)
    a = _at_radius(A, r)
    b = _at_radius(B, r)
    out_r = r + 1 if alg.is_real_base else r
    _check_sum_bound("sumset", (a, 1), (b, 1))
    if len(a) * len(b) <= PAIRWISE_CAP:
        pts = (a[:, None, :] + b[None, :, :]).reshape(-1, alg.d)
        if not alg.is_real_base:
            pts %= _mod(alg, A.scale_exp, r)
        return DSet(alg, A.scale_exp, out_r, pts)
    if alg.is_real_base:
        pts = _fft_support_sum(a, b)
    else:
        pts = _fft_support_sum(a, b, cyclic_mod=_mod(alg, A.scale_exp, r))
    return DSet(alg, A.scale_exp, out_r, pts)


def negate(A: DSet) -> DSet:
    return DSet(A.alg, A.scale_exp, A.radius_exp,
                _negate_points(A.alg, A.points, A.scale_exp, A.radius_exp))


def difference_set(A: DSet, B: DSet) -> DSet:
    """{a - b}, implemented as a sumset with negation."""
    return sumset(A, negate(B))


# ---------------------------------------------------------------------------
# products and scalar images

def product_set(A: DSet, B: DSet, side: str = "Left") -> DSet:
    """{ab} (Left) or {ba} (Right) on the grid."""
    _check_compat(A, B)
    if side not in ("Left", "Right"):
        raise ParameterRangeError(f"side must be Left or Right, got {side!r}")
    alg = A.alg
    if len(A) == 0 or len(B) == 0:
        return DSet(alg, A.scale_exp, 0, np.zeros((0, alg.d), dtype=np.int64))
    if len(A) * len(B) > min(PAIRWISE_CAP, point_budget()):
        raise BudgetExceeded("product set too large",
                             {"pairs": len(A) * len(B)})
    pts = _grid_products(alg, A.points, B.points, A.unit_exp() + B.unit_exp(),
                         A.scale_exp, side)
    return DSet(alg, A.scale_exp, A.radius_exp + B.radius_exp, pts)


def scalar_image(x: Element, A: DSet, side: str = "Left") -> DSet:
    """{xa} or {ax} on the grid."""
    alg = A.alg
    if len(A) == 0:
        return A
    pts = _scalar_rows(alg, x, A.points, A.unit_exp(), A.scale_exp, side)
    if alg.is_real_base:
        r_out = A.radius_exp + max(0, _norm_ceil_exp(alg, x))
    else:
        r_out = A.radius_exp + x.unit_exp
    return DSet(alg, A.scale_exp, r_out, pts)


def _norm_ceil_exp(alg, x: Element) -> int:
    """Smallest e with |x| <= 2^e (real base)."""
    ns = al.norm_sq(alg, x)
    e = 0
    while Fraction(4) ** e < ns:
        e += 1
    return e


# ---------------------------------------------------------------------------
# projections

def _project_rows(x: Element, G: PairSet):
    """(rows, radius_exp): a + x b for every pair (a, b) of G, in G's row
    order, rounded once (real base) or exact (p-adic base)."""
    alg, d, r = G.alg, G.alg.d, G.radius_exp
    xb = _scalar_rows(alg, x, G.pairs[:, d:], G.unit_exp(), G.scale_exp, "Left")
    if alg.is_real_base:
        # a is on the grid, so rounding a + xb once equals a + round(xb)
        r_out, fa, fb = r + 1 + max(0, _norm_ceil_exp(alg, x)), 1, 1
    else:
        # a is in units p^-r and xb in units p^-(r + x.unit_exp): both to r_out
        r_out = r + max(x.unit_exp, 0)
        fa, fb = alg.p ** (r_out - r), alg.p ** (r_out - r - x.unit_exp)
    a = G.pairs[:, :d]
    if _abs_max(G.pairs) * fa + _abs_max(xb) * fb >= 2 ** 63:
        a, xb = a.astype(object), xb.astype(object)
    pts = a + xb if fa == fb == 1 else a * fa + xb * fb
    if not alg.is_real_base:
        pts %= _mod(alg, G.scale_exp, r_out)
    return pts.astype(np.int64, copy=False), r_out


def project(x: Element, G: PairSet) -> DSet:
    """pi_x(G) = {a + x b}, rounded once (real) / exact (p-adic)."""
    alg = G.alg
    if len(G) == 0:
        return DSet(alg, G.scale_exp, G.radius_exp,
                    np.zeros((0, alg.d), dtype=np.int64))
    pts, r_out = _project_rows(x, G)
    return DSet(alg, G.scale_exp, r_out, pts)


# ---------------------------------------------------------------------------
# iterated sum/product expressions

def ball_intersect(A: DSet, radius_exp: int = 0) -> DSet:
    """A ∩ B(0, radix^radius_exp) (closed Euclidean ball / ultrametric ball)."""
    alg = A.alg
    if len(A) == 0:
        return DSet(alg, A.scale_exp, radius_exp, A.points)
    if alg.is_real_base:
        keep = _row_norm_sq(A.points) <= 4 ** (A.scale_exp + radius_exp)
        return DSet(alg, A.scale_exp, radius_exp, A.points[keep])
    p = alg.p
    if radius_exp >= A.radius_exp:
        return A
    f = p ** (A.radius_exp - radius_exp)
    keep = np.all(A.points % f == 0, axis=1)
    pts = (A.points[keep] // f) % _mod(alg, A.scale_exp, radius_exp)
    return DSet(alg, A.scale_exp, radius_exp, pts)


def iterated(A: DSet, n_sum: int, n_prod: int, clip: bool = True) -> DSet:
    """n_sum*(A^(n_prod) - A^(n_prod)), intersected with B(0,1) when clip."""
    if n_sum < 1 or n_prod < 1:
        raise ParameterRangeError("n_sum and n_prod must be >= 1")
    P = A
    for _ in range(n_prod - 1):
        P = product_set(P, A, "Left")
    D = difference_set(P, P)
    S = D
    for _ in range(n_sum - 1):
        S = sumset(S, D)
    return ball_intersect(S, 0) if clip else S


# ---------------------------------------------------------------------------
# quotient sets

def mul_value_coords(alg, xv, yv):
    """Product of two exact rational coordinate vectors."""
    return al._vec_mul(alg, xv, yv)


def _distinct_differences(A: DSet):
    """(coords, diffs, first, key): A's Element coords, sorted; the distinct
    differences a - b as integer rows in one unit (2^-scale_exp, or
    p^-radius_exp, which no unit_exp exceeds); for each, the index
    i * |A| + j of its witness, the first pair (a_i, b_j) with it; and the
    rank of the witness's coords.  Rows are sorted by key, then by first;
    keys tie for p-adic elements with equal coords and different unit_exp."""
    elems = sorted(A.elements(), key=lambda e: e.coords)
    coords = [e.coords for e in elems]
    n = len(elems)
    rank = np.cumsum([0] + [a != b for a, b in zip(coords[1:], coords)])
    rows = [[c * A.alg.radix ** (A.unit_exp() - e.unit_exp) for c in e.coords]
            for e in elems]
    big = max((abs(c) for row in rows for c in row), default=0)
    r = np.array(rows, dtype=np.int64 if 2 * big < 2 ** 63 else object)
    r = r.reshape(n, A.alg.d)
    diffs = (r[:, None, :] - r[None, :, :]).reshape(-1, A.alg.d)
    first = np.sort(_row_mins(diffs))
    key = rank[first // n] * n + rank[first % n]
    order = np.argsort(key, kind="stable")
    return coords, diffs[first[order]], first[order], key[order]


def _value_norm_gt(alg, vals, rho_exp) -> bool:
    """|v| > radix^-rho_exp, exactly."""
    if alg.is_real_base:
        s = sum(v * v for v in vals)
        return s > Fraction(1, 4 ** rho_exp)
    return min((al.vq(v, alg.p) for v in vals if v != 0), default=rho_exp) < rho_exp


def quotient_set(A: DSet, rho_exp: int, side: str = "Left",
                 with_witnesses: bool = False):
    """Delta-separated representatives of {(a-b)(c-d)^-1 : |c-d| > rho}
    (Left) or {(c-d)^-1(a-b)} (Right), Delta = delta/rho^3.

    Representative per Delta-cell is the one with the lexicographically
    smallest witness quadruple (a, b, c, d) of Element coords; of equal
    quadruples, the first in row-major (difference, denominator) order.

    Exact integers throughout: with u = a - b and w = c - d as integer rows
    in one unit, (a-b)(c-d)^-1 = u num / den for w^-1 = num / den
    (algebra._int_inverse), rounded (real base) or reduced (p-adic base)
    once per cell.
    """
    alg = A.alg
    m = A.scale_exp
    if not (0 < rho_exp and m - 3 * rho_exp >= 1):
        raise ParameterRangeError("need 0 < rho_exp < m/3 so Delta is a scale")
    scale_out = m - 3 * rho_exp
    if alg.is_real_base:
        radius_out = A.radius_exp + 1 + rho_exp
    else:
        radius_out = A.radius_exp + rho_exp
    coords, diffs, first, key = _distinct_differences(A)
    if alg.is_real_base:    # sum u^2 4^-m > 4^-rho
        far = _row_norm_sq(diffs) > 4 ** (m - rho_exp)
    else:                   # min v_p(u) - radius_exp < rho
        far = np.any(diffs % alg.p ** (A.radius_exp + rho_exp) != 0, axis=1)
    den_idx = np.flatnonzero(far)
    if len(den_idx) == 0:
        raise NoAdmissiblePairs("all pairwise differences are <= rho")
    if len(diffs) * len(den_idx) > point_budget():
        raise BudgetExceeded("quotient set too large",
                             {"pairs": len(diffs) * len(den_idx)})
    cells, pair = _quotient_cells(alg, diffs, den_idx, key, side,
                                  scale_out, radius_out)
    Q = DSet(alg, scale_out, radius_out, cells)
    if not with_witnesses:
        return Q
    n, k = len(coords), len(den_idx)
    ab, cd = first[pair // k], first[den_idx[pair % k]]
    quads = zip(*([coords[t] for t in col.tolist()]
                  for col in (ab // n, ab % n, cd // n, cd % n)))
    return Q, dict(zip(map(tuple, cells.tolist()), quads))


def _quotient_cells(alg, diffs, den_idx, key, side, scale_out, radius_out):
    """The distinct cells of diffs[i] dens[j]^-1 (Left) or dens[j]^-1 diffs[i]
    (Right), dens = diffs[den_idx], lex-sorted, and for each the pair
    i * len(dens) + j with the smallest witness (by key, then row-major).
    int64 while every intermediate provably fits, Python ints otherwise;
    QUOTIENT_CHUNK pairs at a time."""
    dens = diffs[den_idx]
    d, k = alg.d, len(dens)
    nums, den = zip(*(al._int_inverse(alg, [int(c) for c in w]) for w in dens))
    # |raw numerator| <= max|u| max|num| max_l sum_ij |c_ijl|
    big = _product_bound(alg, diffs, nums)
    if alg.is_real_base:
        fits = 2 * big * 2 ** scale_out + 2 * max(den) < 2 ** 63
    else:
        # den = p^K U: divide by p^(K - radius_out) when K > radius_out, then
        # multiply by p^(radius_out - K) U^-1 mod p^(scale_out + radius_out)
        p = alg.p
        mod = p ** (scale_out + radius_out)
        K = [al.vp(q, p) for q in den]
        shift = [p ** max(0, e - radius_out) for e in K]
        mult = [p ** max(0, radius_out - e) * pow(q // p ** e, -1, mod) % mod
                for q, e in zip(den, K)]
        fits = big < 2 ** 63 and max(shift) < 2 ** 63 and (mod - 1) ** 2 < 2 ** 63
    dtype = np.int64 if fits else object

    def col(vals):          # one value per denominator, broadcast over pairs
        return np.array(vals, dtype=dtype)[None, :, None]

    if alg.is_real_base:
        den = col(den)
    else:
        shift = col(shift) if max(shift) > 1 else None
        mult = col(mult)
    # the rank of pair (i, j) among the witnesses: equal keys form blocks
    # s .. s + z of rows and of denominators, ranked block pair by block
    # pair and row-major inside one; without ties the rank is i * k + j
    s_i = np.searchsorted(key, key)
    z_i = np.searchsorted(key, key, "right") - s_i
    s_j = np.searchsorted(key[den_idx], key[den_idx])
    z_j = np.searchsorted(key[den_idx], key[den_idx], "right") - s_j
    rows, pair, rank = [], [], []
    step = max(1, QUOTIENT_CHUNK // k)
    for lo in range(0, len(diffs), step):
        # every raw numerator: (u num_j)_l (Left) or (num_j u)_l (Right)
        N = _raw_products(alg, diffs[lo:lo + step], nums, side, dtype)
        N = N.reshape(-1, k, d)
        if alg.is_real_base:
            N *= 2 ** scale_out
            N = _round_div_arr(N, den)
        else:
            if shift is not None:
                if np.any(N % shift != 0):
                    raise ParameterRangeError("value below representable radius")
                N //= shift
            N %= mod
            N *= mult
            N %= mod
        cell = N.reshape(-1, d).astype(np.int64, copy=False)
        i = np.arange(lo, lo + len(N))[:, None]
        s, z = s_i[i], z_i[i]
        r = (s * k + z * s_j + (i - s) * z_j + np.arange(k) - s_j).reshape(-1)
        idx = _row_mins(cell, r)
        rows.append(cell[idx])
        pair.append(idx + lo * k)
        rank.append(r[idx])
    rows, pair = np.concatenate(rows), np.concatenate(pair)
    idx = _row_mins(rows, np.concatenate(rank))
    return rows[idx], pair[idx]


def _inv_of_value(alg, vals):
    """Exact rational inverse of an element given by value coordinates."""
    scale = math.lcm(*(Fraction(v).denominator for v in vals))
    num, den = al._int_inverse(alg, [int(v * scale) for v in vals])
    return tuple(Fraction(scale * c, den) for c in num)


# ---------------------------------------------------------------------------
# linear coordinate changes on E^2

def _linear_map_matrix(alg, L):
    """(2d)x(2d) rational matrix of (a,b) -> (L11 a + L12 b, L21 a + L22 b)."""
    d = alg.d
    cols = []
    for pos in range(2):
        for k in range(d):
            e = al.basis_element(alg, k)
            if pos == 0:
                top = al.mul_exact(alg, L[0][0], e)
                bot = al.mul_exact(alg, L[1][0], e)
            else:
                top = al.mul_exact(alg, L[0][1], e)
                bot = al.mul_exact(alg, L[1][1], e)
            col = list(al.value_coords(alg, top)) + list(al.value_coords(alg, bot))
            cols.append(col)
    return [[cols[j][i] for j in range(2 * d)] for i in range(2 * d)]


def _check_invertible(alg, L):
    mat = _linear_map_matrix(alg, L)
    det = al.det_fraction(mat)
    if det == 0:
        raise SingularMap("linear map is singular")
    floor_exp = alg.m // 2
    if (abs(det) < Fraction(1, 2 ** floor_exp) if alg.is_real_base
            else al.vq(det, alg.p) > floor_exp):
        raise SingularMap("determinant below the invertibility floor")
    return det


def apply_linear_map(L, G: PairSet) -> PairSet:
    """Image of G under the 2x2 matrix L of algebra elements (left action)."""
    alg = G.alg
    _check_invertible(alg, L)
    d = alg.d
    a = G.pairs[:, :d]
    b = G.pairs[:, d:]
    rows = []
    unit = G.unit_exp()
    for idx in range(len(G)):
        av = _units_to_values(alg, a[idx], unit)
        bv = _units_to_values(alg, b[idx], unit)
        top = _vec_add(mul_value_coords(alg, al.value_coords(alg, L[0][0]), av),
                       mul_value_coords(alg, al.value_coords(alg, L[0][1]), bv))
        bot = _vec_add(mul_value_coords(alg, al.value_coords(alg, L[1][0]), av),
                       mul_value_coords(alg, al.value_coords(alg, L[1][1]), bv))
        r_out = G.radius_exp + 2
        rows.append(_value_to_grid(alg, top, G.scale_exp, r_out)
                    + _value_to_grid(alg, bot, G.scale_exp, r_out))
    return PairSet(alg, G.scale_exp, G.radius_exp + 2,
                   np.array(rows, dtype=np.int64).reshape(-1, 2 * d))


def apply_dual(L, X: DSet) -> DSet:
    """Induced map on projection directions: x -> w1^-1 w2 for
    (w1, w2) = L(1, x)."""
    alg = X.alg
    _check_invertible(alg, L)
    unit = X.unit_exp()
    onev = al.value_coords(alg, al.one(alg))
    rows = []
    r_out = X.radius_exp + alg.m // 2 + 1
    for idx in range(len(X)):
        xv = _units_to_values(alg, X.points[idx], unit)
        w1 = _vec_add(mul_value_coords(alg, al.value_coords(alg, L[0][0]), onev),
                      mul_value_coords(alg, al.value_coords(alg, L[0][1]), xv))
        w2 = _vec_add(mul_value_coords(alg, al.value_coords(alg, L[1][0]), onev),
                      mul_value_coords(alg, al.value_coords(alg, L[1][1]), xv))
        if not _value_norm_gt(alg, w1, alg.m // 2):
            raise DivisionByNegligible("first component below the inversion floor")
        mapped = mul_value_coords(alg, _inv_of_value(alg, w1), w2)
        rows.append(_value_to_grid(alg, mapped, X.scale_exp, r_out))
    return DSet(alg, X.scale_exp, r_out, np.array(rows, dtype=np.int64))


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# PairSet file format

def write_pairset(G: PairSet, path: str, extra_comments=()) -> None:
    _write_rows(path, G.alg, G.scale_exp, G.radius_exp, G.pairs, extra_comments)


def read_pairset(path: str, alg: AlgebraDescriptor | None = None) -> PairSet:
    return PairSet(*_read_rows(path, alg, 2))
