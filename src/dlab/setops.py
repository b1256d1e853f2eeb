"""Set calculus: sums, differences, products, iterated expressions, scalar
actions, projections, quotient sets and linear coordinate changes.

Real-base composites are rounded to the grid once per operation
(half-away-from-zero); a projection a + x b rounds x b and adds the grid
point a, which at a tie can differ from rounding a + x b.  p-adic
composites are exact.  Large sumsets fall
back to an FFT indicator convolution, transformed at 7-smooth lengths on
the real base (the cyclic grid p^k on the p-adic base) with one squared
spectrum for A + A; everything else is pairwise with a point budget.  An
empty operand gives the empty set at the (scale_exp, radius_exp) of a
one-point operand.

Products, scalar images, projections, quotients and the dual map share one
bilinear array product (_raw_products) and one grid step (_to_grid); the
counting engines take their rows from the same kernel.  It runs on int64
while every raw product provably fits and on Python ints otherwise.  A
PairSet keeps its a and b halves as contiguous columns with their bounds;
_project_many projects it along many directions, doing once what does not
depend on the direction, so a direction costs one matmul and one grid step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as al
from .algebra import AlgebraDescriptor, Element
from .dset import (
    DSet,
    _abs_max,
    _canon_points,
    _col_bounds,
    _grid_rows,
    _key_rows,
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
    """Finite subset of E x E on the grid; columns are (a, b) coordinates.
    The rows are stored as cols, a contiguous (2d, n) array, so that the a
    half cols[:d] and the b half cols[d:] are contiguous; pairs is its
    transposed view, and big holds (max|a|, max|b|)."""
    alg: AlgebraDescriptor
    scale_exp: int
    radius_exp: int
    pairs: np.ndarray = field(compare=False)
    cols: np.ndarray = field(init=False, compare=False, repr=False)
    big: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d, pairs = self.alg.d, _canon_points(self.pairs, 2 * self.alg.d, order="F")
        for name, val in (("pairs", pairs), ("cols", pairs.T),
                          ("big", (_abs_max(pairs[:, :d]), _abs_max(pairs[:, d:])))):
            object.__setattr__(self, name, val)

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return (isinstance(other, PairSet) and self.alg == other.alg
                and self.scale_exp == other.scale_exp
                and self.radius_exp == other.radius_exp
                and np.array_equal(self.pairs, other.pairs))

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
    a, b = _at_radius(A, r), _at_radius(B, r)
    n, k = len(a), len(b)
    if n * k > point_budget():
        raise BudgetExceeded("cartesian product too large", {"pairs": n * k})
    return PairSet(A.alg, A.scale_exp, r,
                   np.hstack([np.repeat(a, k, axis=0), np.tile(b, (n, 1))]))


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


def _raw_products(alg, U, V, side, dtype):
    """The raw products u v (Left) or v u (Right) of every row u of U with
    every row v of V, in row-major (u, v) order: V is contracted with the
    structure constants into one d x |V|d matrix W, and U @ W is one
    matmul."""
    C = np.array(alg.structure_constants, dtype=dtype)
    W = np.tensordot(np.array(V, dtype=dtype), C,
                     axes=(1, 1 if side == "Left" else 0))
    W = W.transpose(1, 0, 2).reshape(alg.d, -1)
    return (np.asarray(U, dtype=dtype).reshape(-1, alg.d) @ W).reshape(-1, alg.d)


def _product_bound(alg, big_u: int, big_v: int) -> int:
    """big_u big_v max_l sum_ij |c_ijl|, each factor at least 1: for rows U
    and V with max|U| <= big_u and max|V| <= big_v, a bound on every raw
    product and on every entry of U, V and the constants."""
    sc = alg.structure_constants
    csum = max(sum(abs(c[t]) for row in sc for c in row) for t in range(alg.d))
    return max(big_u, 1) * max(big_v, 1) * csum


def _check_sum_bound(op: str, *terms) -> None:
    """Raise ParameterRangeError, naming op and the operand sizes, unless
    sum f max|X| over the terms (X, f) is below 2^63: then every sum of f x
    over one entry x of each X fits in int64."""
    bound = sum(f * _abs_max(X) for X, f in terms)
    if bound >= 2 ** 63:
        raise ParameterRangeError(
            f"{op}: sums of operands of sizes {[len(X) for X, _ in terms]} "
            f"reach {bound}, past int64")


def _grid_steps(alg, den, scale_exp, unit_out):
    """(f, q, mod) for _to_grid: raw / den on the grid is round(raw f / q) on
    the real base and (raw / q) f mod `mod` on the p-adic base, where q must
    divide raw; f and q are lists with one entry per denominator."""
    dens = [den] if isinstance(den, int) else den
    if alg.is_real_base:
        g = [math.gcd(2 ** scale_exp, t) for t in dens]
        return [2 ** scale_exp // h for h in g], [t // h for t, h in zip(dens, g)], None
    p, mod = alg.p, alg.p ** (scale_exp + unit_out)
    k = [al.vp(t, p) for t in dens]
    return ([p ** max(0, unit_out - e) * pow(t // p ** e, -1, mod) % mod
             for t, e in zip(dens, k)], [p ** max(0, e - unit_out) for e in k], mod)


def _grid_dtype(alg, big, den, scale_exp, unit_out, add=0):
    """int64 when raw values of absolute value <= big, every step _to_grid
    takes on them over den, and the sum of a result with a term of absolute
    value <= add provably fit in int64; object (Python ints) otherwise."""
    f, q, mod = _grid_steps(alg, den, scale_exp, unit_out)
    if alg.is_real_base:
        top = big * max(f) if max(q) == 1 else 2 * big * max(f) + 2 * max(q)
    else:
        top = max(big, max(q), (mod - 1) * max(f) if max(f) > 1 else mod)
    return np.int64 if top + add < 2 ** 63 else object


def _to_grid(alg, raw, den, scale_exp, unit_out, op, plus=None) -> np.ndarray:
    """The exact values raw / den on the grid of scale_exp, plus the grid
    rows `plus` if given, as int64 rows; den is one int or one per row of
    raw's second-to-last axis.  Real base: |value| rounded once, half up, to
    units 2^-scale_exp, times its sign.  p-adic base: in units p^-unit_out mod
    p^(scale_exp + unit_out).  A value finer than p^-unit_out, a modulus past
    int64 or a row past int64 raises ParameterRangeError naming op.  raw's
    dtype is the one _grid_dtype chose for its bound (and the sum's); the sum
    is taken in it."""
    f, q, mod = _grid_steps(alg, den, scale_exp, unit_out)
    if mod is not None and mod >= 2 ** 63:
        raise ParameterRangeError(f"{op}: modulus {alg.p}^{scale_exp + unit_out} past int64")
    f, q = (np.array(v, dtype=raw.dtype).reshape(-1, 1) for v in (f, q))
    if alg.is_real_base:
        out = raw * f if np.any(f != 1) else raw
        if np.any(q != 1):  # (|v| + q // 2) // q with v's sign: half away from zero
            r = np.abs(out)
            r += q // 2
            r //= q     # v's sign as int8: one full-size temporary, not two
            out = np.multiply(r, (out > 0).view(np.int8) - (out < 0).view(np.int8), out=r)
    else:
        if np.any(q != 1):
            if np.any(raw % q != 0):
                raise ParameterRangeError(f"{op}: value finer than p^-{unit_out}")
            raw = raw // q
        out = raw % mod
        if np.any(f != 1):
            out *= f
            out %= mod
    if plus is not None:
        out = out + plus.astype(out.dtype, copy=False)
        out = out if mod is None else out % mod
    try:
        return out.astype(np.int64, copy=False)
    except OverflowError:
        raise ParameterRangeError(f"{op}: grid rows past int64") from None


def _grid_products(alg, U, V, unit, scale_exp, side, unit_out, op) -> np.ndarray:
    """_to_grid of the _raw_products of U and V, whose raw coordinates are in
    units radix^-unit, into units radix^-unit_out (p-adic base).  int64 while
    the raw products and the grid step provably fit, Python ints otherwise."""
    den, big = alg.radix ** unit, _product_bound(alg, _abs_max(U), _abs_max(V))
    dt = _grid_dtype(alg, big, den, scale_exp, unit_out)
    return _to_grid(alg, _raw_products(alg, U, V, side, dt), den, scale_exp,
                    unit_out, op)


# ---------------------------------------------------------------------------
# sums and differences

def _smooth_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^e >= n >= 1: a length the FFT splits into
    small radices (a prime length runs several times slower)."""
    best, f7 = 1 << (n - 1).bit_length(), 1
    while f7 < best:
        f5 = f7
        while f5 < best:
            f3 = f5
            while f3 < best:    # f3 times the least power of 2 reaching n
                best = min(best, f3 << ((n - 1) // f3).bit_length())
                f3 *= 3
            f5 *= 5
        f7 *= 7
    return best


def _indicator(pts, shape) -> np.ndarray:
    grid = np.zeros(shape)
    grid[tuple(pts.T)] = 1.0
    return grid


def _fft_support_sum(a_pts, b_pts, cyclic_mod=None, window=None):
    """Support of the sumset via indicator convolution, as rows already in
    the canonical order of a DSet (the support's flat indices are _row_keys,
    which _key_rows decodes in F order).

    cyclic_mod None (real base): the sums inside the value box window =
    (lo, hi), each one bound or a list per axis, by default the whole box of
    span N = span a + span b - 1.  With [w0, w1] the window in index space,
    clipped to [0, N - 1] (empty: no rows), the convolution is cyclic at the
    smallest 7-smooth L >= max(N - w0, w1 + 1, span a, span b) per axis, or
    at that bound when the smooth grid has more than FFT_CELL_CAP cells:
    neither indicator wraps, and no alias j +- L of a window index j lies in
    the box.  The whole box gives L = _smooth_len(N).  Otherwise circular
    convolution modulo cyclic_mod per axis (p-adic; no window).  Both
    operands the same array: one forward transform, squared; each grid is
    freed once used.

    For 0/1 inputs the float error of every convolution entry is at most
    c u log2(N) |a|_2 |b|_2 (u the unit roundoff, N the transformed cell
    count; Schatzman, SIAM J. Sci. Comput. 17, 1996): about 1e-7 under
    FFT_CELL_CAP.  Every entry of the cyclic grid is an integer count, so
    an entry farther than 1/4 from an integer raises ParameterRangeError
    instead of being thresholded.
    """
    d = a_pts.shape[1]
    if cyclic_mod is None:
        # Python-int bounds (object arrays): nothing wraps before the cap check
        (amin, amax), (bmin, bmax) = _col_bounds(a_pts), _col_bounds(b_pts)
        sa, sb = amax.astype(object) - amin + 1, bmax.astype(object) - bmin + 1
        lo, n = amin.astype(object) + bmin, sa + sb - 1
        wlo, whi = window or (lo, lo + n - 1)
        w0 = np.maximum(np.array(wlo, dtype=object) - lo, 0)
        w1 = np.minimum(np.array(whi, dtype=object) - lo, n - 1)
        if np.any(w0 > w1):
            return np.empty((0, d), dtype=np.int64)
        need = tuple(map(max, n - w0, w1 + 1, sa, sb))
        shape = tuple(map(_smooth_len, need))
        if math.prod(shape) > FFT_CELL_CAP:
            shape = need
    else:
        amin = bmin = lo = w0 = np.zeros(d, dtype=np.int64)
        w1, shape = w0 + cyclic_mod - 1, (cyclic_mod,) * d
    if math.prod(shape) > FFT_CELL_CAP:
        raise BudgetExceeded("sumset grid too large for FFT", {"cells": math.prod(shape)})
    axes = tuple(range(d))
    spec = np.fft.rfftn(_indicator(a_pts - amin, shape), shape, axes)
    if b_pts is a_pts:
        spec *= spec
    else:
        spec *= np.fft.rfftn(_indicator(b_pts - bmin, shape), shape, axes)
    conv = np.fft.irfftn(spec, shape, axes)
    del spec
    # max |conv - rint(conv)| in blocks of the leading axis, so the check
    # holds no second grid
    err = max(float(np.abs(blk - np.rint(blk)).max())
              for blk in np.array_split(conv, min(shape[0], 1 + conv.size // 65536)))
    if not err < 0.25:
        raise ParameterRangeError(
            f"sumset: FFT convolution of sizes [{len(a_pts)}, {len(b_pts)}] is "
            f"{err} off the integers, past 1/4")
    key = np.flatnonzero(conv[tuple(map(slice, w0, w1 + 1))] > 0.5)
    return _key_rows(key, (lo + w0).tolist(), (w1 - w0 + 1).tolist(), order="F")


def sumset(A: DSet, B: DSet) -> DSet:
    """{a + b} on the grid."""
    return _sumset(A, B)


def _sumset(A: DSet, B: DSet, window=None) -> DSet:
    """sumset(A, B), only inside the value box `window` on the real base's
    FFT branch."""
    _check_compat(A, B)
    alg = A.alg
    r = max(A.radius_exp, B.radius_exp)
    a, b = _at_radius(A, r), _at_radius(B, r)
    out_r, mod = (r + 1, None) if alg.is_real_base else (r, alg.p ** (A.scale_exp + r))
    _check_sum_bound("sumset", (a, 1), (b, 1))
    if len(a) * len(b) > PAIRWISE_CAP:
        return DSet(alg, A.scale_exp, out_r, _fft_support_sum(a, b, mod, window))
    pts = (a[:, None, :] + b[None, :, :]).reshape(-1, alg.d)
    if mod is not None:
        pts %= mod
    return DSet(alg, A.scale_exp, out_r, pts)


def negate(A: DSet) -> DSet:
    pts = -A.points
    return DSet(A.alg, A.scale_exp, A.radius_exp, pts if A.alg.is_real_base
                else pts % A.alg.p ** (A.scale_exp + A.radius_exp))


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
    if len(A) * len(B) > min(PAIRWISE_CAP, point_budget()):
        raise BudgetExceeded("product set too large",
                             {"pairs": len(A) * len(B)})
    unit = A.unit_exp() + B.unit_exp()
    pts = _grid_products(alg, A.points, B.points, unit, A.scale_exp, side, unit,
                         "product_set")
    return DSet(alg, A.scale_exp, A.radius_exp + B.radius_exp, pts)


def scalar_image(x: Element, A: DSet, side: str = "Left") -> DSet:
    """{xa} or {ax} on the grid."""
    alg, unit = A.alg, A.unit_exp() + x.unit_exp
    pts = _grid_products(alg, A.points, [x.coords], unit, A.scale_exp,
                         "Right" if side == "Left" else "Left", unit, "scalar_image")
    r_out = A.radius_exp + (_norm_ceil_exp(x) if alg.is_real_base else x.unit_exp)
    return DSet(alg, A.scale_exp, r_out, pts)


def _norm_ceil_exp(x: Element) -> int:
    """Smallest e >= 0 with |x| <= 2^e (real base): 4^(e + unit_exp) is at
    least the integer squared norm s, so e + unit_exp >= ceil(log4 s)."""
    s = sum(c * c for c in x.coords)
    return max(0, (max(s - 1, 0).bit_length() + 1) // 2 - x.unit_exp)


# ---------------------------------------------------------------------------
# projections

def _project_many(xs, G: PairSet):
    """Yield (rows, radius_exp) of pi_x(G) = {a + x b} for each x of the list
    xs in turn, rows in G's row order as an (n, d) view of contiguous
    columns: a + round(x b) on the real base, like add(a, mul(x, b)), which
    at a tie can differ from round(a + x b); exact on the p-adic base.

    Done once: G's bounds (G.big), the d x d left-multiplication matrices of
    all of xs (one _raw_products call), and per output radius a's grid step
    and the int64-or-object decision.  A direction is then one matmul on b's
    columns and one grid step.  On the object path a + x b is summed in
    Python ints before the int64 cast: only a + x b past int64 raises."""
    alg, d, unit, scale = G.alg, G.alg.d, G.unit_exp(), G.scale_exp
    big_a, big_b = G.big
    bound = _product_bound(alg, big_b, _abs_max([x.coords for x in xs]))
    M = _raw_products(alg, [x.coords for x in xs], np.eye(d, dtype=np.int64), "Left",
                      np.int64 if bound < 2 ** 63 else object)
    M = M.reshape(-1, d, d).transpose(0, 2, 1)     # M[i] @ b.T = (x_i b).T
    den_a, steps = alg.radix ** unit, {}
    for x, Mx in zip(xs, M):
        r = G.radius_exp + (1 + _norm_ceil_exp(x) if alg.is_real_base else max(x.unit_exp, 0))
        den = alg.radix ** (unit + x.unit_exp)
        if (x.unit_exp, r) not in steps:
            # a's grid values are at most max|a| (real) or below p^(scale + r)
            a = G.cols[:d].astype(_grid_dtype(alg, big_a, den_a, scale, r), copy=False)
            a = _to_grid(alg, a, den_a, scale, r, "project")
            add = big_a if alg.is_real_base else alg.p ** (scale + r)
            steps[x.unit_exp, r] = _grid_dtype(alg, bound, den, scale, r, add), a
        dt, a = steps[x.unit_exp, r]
        raw = Mx.astype(dt) @ G.cols[d:].astype(dt, copy=False)
        yield _to_grid(alg, raw, den, scale, r, "project", plus=a).T, r


def project(x: Element, G: PairSet) -> DSet:
    """pi_x(G) = {a + x b}: a + round(x b) (real) / exact (p-adic)."""
    pts, r_out = next(_project_many([x], G))
    return DSet(G.alg, G.scale_exp, r_out, pts)


# ---------------------------------------------------------------------------
# iterated sum/product expressions

def ball_intersect(A: DSet, radius_exp: int = 0) -> DSet:
    """A ∩ B(0, radix^radius_exp) (closed Euclidean ball / ultrametric ball)."""
    alg = A.alg
    if alg.is_real_base:
        keep = _row_norm_sq(A.points) <= 4 ** (A.scale_exp + radius_exp)
        return DSet(alg, A.scale_exp, radius_exp, A.points[keep])
    if radius_exp >= A.radius_exp:
        return A
    keep = np.all(A.points % alg.p ** (A.radius_exp - radius_exp) == 0, axis=1)
    pts = _to_grid(alg, A.points[keep], alg.p ** A.radius_exp, A.scale_exp,
                   radius_exp, "ball_intersect")
    return DSet(alg, A.scale_exp, radius_exp, pts)


def iterated(A: DSet, n_sum: int, n_prod: int, clip: bool = True) -> DSet:
    """n_sum*(A^(n_prod) - A^(n_prod)), intersected with B(0,1) when clip.
    On the real base the clipped last sum is formed only inside the box of
    B(0,1) when it takes the FFT branch; ball_intersect makes the exact cut."""
    if n_sum < 1 or n_prod < 1:
        raise ParameterRangeError("n_sum and n_prod must be >= 1")
    P = A
    for _ in range(n_prod - 1):
        P = product_set(P, A, "Left")
    # the last sum is S + T
    S, T = (P, negate(P)) if n_sum == 1 else (difference_set(P, P),) * 2
    for _ in range(n_sum - 2):
        S = sumset(S, T)
    S = _sumset(S, T, (-2 ** A.scale_exp, 2 ** A.scale_exp) if clip else None)
    return ball_intersect(S, 0) if clip else S


# ---------------------------------------------------------------------------
# quotient sets

def _distinct_differences(A: DSet):
    """(diffs, first): the distinct differences a - b of A's rows in A's
    units, p-adic rows reduced mod p^(alg.m + radius_exp) as an Element holds
    them (rows lie below p^(scale_exp + radius_exp), so only scale_exp >
    alg.m reduces); for each, the index i * |A| + j of its witness, the
    first pair (a_i, b_j) of A's rows with it.  A's rows are distinct and
    sorted, so the rows of diffs are in the lexicographic order of their
    witnesses."""
    alg, pts = A.alg, A.points
    if not alg.is_real_base and A.scale_exp > alg.m:
        pts = pts % alg.p ** (alg.m + A.radius_exp)
    if 2 * _abs_max(pts) >= 2 ** 63:
        pts = pts.astype(object)
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, alg.d)
    first = np.sort(_row_mins(diffs))
    return diffs[first], first


def quotient_set(A: DSet, rho_exp: int, side: str = "Left",
                 with_witnesses: bool = False):
    """Delta-separated representatives of {(a-b)(c-d)^-1 : |c-d| > rho}
    (Left) or {(c-d)^-1(a-b)} (Right), Delta = delta/rho^3.

    Representative per Delta-cell is the one whose witness (a, b, c, d) is
    the lexicographically smallest quadruple of A's rows.

    Exact integers throughout: with u = a - b and w = c - d as integer rows
    in A's units, (a-b)(c-d)^-1 = u num / den for w^-1 = num / den
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
    diffs, first = _distinct_differences(A)
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
    cells, pair = _quotient_cells(alg, diffs, den_idx, side, scale_out, radius_out)
    Q = DSet(alg, scale_out, radius_out, cells)
    if not with_witnesses:
        return Q
    n, k, rows = len(A), len(den_idx), list(map(tuple, A.points.tolist()))
    ab, cd = first[pair // k], first[den_idx[pair % k]]
    quads = zip(*([rows[t] for t in col.tolist()]
                  for col in (ab // n, ab % n, cd // n, cd % n)))
    return Q, dict(zip(map(tuple, cells.tolist()), quads))


def _quotient_cells(alg, diffs, den_idx, side, scale_out, radius_out):
    """The distinct cells of diffs[i] dens[j]^-1 (Left) or dens[j]^-1 diffs[i]
    (Right), dens = diffs[den_idx], lex-sorted, and for each the first pair
    i * len(dens) + j in row-major order with it.  int64 while every
    intermediate provably fits, Python ints otherwise; QUOTIENT_CHUNK pairs
    at a time."""
    dens = diffs[den_idx]
    d, k = alg.d, len(dens)
    nums, den = zip(*(al._int_inverse(alg, [int(c) for c in w]) for w in dens))
    # |raw numerator| <= max|u| max|num| max_l sum_ij |c_ijl|
    dtype = _grid_dtype(alg, _product_bound(alg, _abs_max(diffs), _abs_max(nums)), den,
                        scale_out, radius_out)
    rows, pair = [], []
    step = max(1, QUOTIENT_CHUNK // k)
    for lo in range(0, len(diffs), step):
        # every raw numerator: (u num_j)_l (Left) or (num_j u)_l (Right)
        N = _raw_products(alg, diffs[lo:lo + step], nums, side, dtype)
        cell = _to_grid(alg, N.reshape(-1, k, d), den, scale_out, radius_out,
                        "quotient_set").reshape(-1, d)
        idx = _row_mins(cell)
        rows.append(cell[idx])
        pair.append(idx + lo * k)
    # a cell occurs at most once per chunk, and the chunks go in pair order
    rows, pair = np.concatenate(rows), np.concatenate(pair)
    idx = _row_mins(rows)
    return rows[idx], pair[idx]


# ---------------------------------------------------------------------------
# linear coordinate changes on E^2

def _linear_map_rows(alg, L):
    """(M, U): the 2d x 2d integer matrix M, in units radix^-U, with (a, b) @ M
    = (L11 a + L12 b, L21 a + L22 b) for rows a, b (left action; block k, l
    of M has rows L_lk e_j, from _raw_products on L's entries aligned to one
    unit).  SingularMap when det M = 0 or |det M| radix^-2dU falls below the
    invertibility floor radix^-floor(m/2)."""
    d, r = alg.d, alg.radix
    ents = [e for row in L for e in row]
    U = max(e.unit_exp for e in ents)
    rows = [[c * r ** (U - e.unit_exp) for c in e.coords] for e in ents]
    P = _raw_products(alg, rows, np.eye(d, dtype=object), "Left", object)
    P = P.reshape(4, d, d)
    M = np.block([[P[0], P[2]], [P[1], P[3]]])
    det = al.det_fraction(M.tolist())
    if det == 0:
        raise SingularMap("linear map is singular")
    floor_exp = alg.m // 2
    if (abs(det) * 2 ** floor_exp < 2 ** (2 * d * U) if alg.is_real_base
            else al.vq(det, alg.p) - 2 * d * U > floor_exp):
        raise SingularMap("determinant below the invertibility floor")
    return M, U


def apply_linear_map(L, G: PairSet) -> PairSet:
    """Image of G under the 2x2 matrix L of algebra elements (left action):
    one integer matmul over the denominator radix^(G.unit_exp() + U), then
    one grid step."""
    alg = G.alg
    M, U = _linear_map_rows(alg, L)
    r_out, den = G.radius_exp + 2, alg.radix ** (G.unit_exp() + U)
    big = 2 * alg.d * max(_abs_max(G.pairs), 1) * max(_abs_max(M), 1)
    dt = _grid_dtype(alg, big, den, G.scale_exp, r_out)
    raw = G.pairs.astype(dt) @ M.astype(dt)
    return PairSet(alg, G.scale_exp, r_out,
                   _to_grid(alg, raw, den, G.scale_exp, r_out, "apply_linear_map"))


def apply_dual(L, X: DSet) -> DSet:
    """Induced map on projection directions: x -> w1^-1 w2 for
    (w1, w2) = L(1, x).  (1, x) @ M gives w1 and w2 as integer rows over one
    denominator, which cancels: w1^-1 w2 = num w2 / den for
    w1^-1 = num / den (algebra._int_inverse), in Python ints."""
    alg, d = X.alg, X.alg.d
    M, U = _linear_map_rows(alg, L)
    unit, floor_exp = X.unit_exp(), alg.m // 2
    r_out = X.radius_exp + floor_exp + 1
    rows = np.zeros((len(X), 2 * d), dtype=object)
    rows[:, 0], rows[:, d:] = alg.radix ** unit, X.points
    W = rows @ M
    w1, w2 = W[:, :d], W[:, d:]
    if alg.is_real_base:    # |w1| > 2^-floor
        far = _row_norm_sq(w1) * 4 ** floor_exp > 4 ** (unit + U)
    else:                   # some coordinate of valuation below the floor
        far = np.any(w1 % alg.p ** (floor_exp + unit + U) != 0, axis=1)
    # the rows before the first one below the floor are mapped and may raise a
    # p-adic value finer than the grid; past int64 only when every row maps
    n = int(np.argmin(np.append(far, False)))
    if n < len(X) and alg.is_real_base:
        n = 0
    inv = [al._int_inverse(alg, list(w)) for w in w1[:n]]
    # T[i] is left multiplication by num_i: row j is num_i e_j
    T = _raw_products(alg, [u for u, _ in inv], np.eye(d, dtype=object), "Left",
                      object).reshape(n, d, d)
    pts = _to_grid(alg, (w2[:n, :, None] * T).sum(axis=1), [q for _, q in inv],
                   X.scale_exp, r_out, "apply_dual")
    if n < len(X):
        raise DivisionByNegligible("first component below the inversion floor")
    return DSet(alg, X.scale_exp, r_out, pts)


# ---------------------------------------------------------------------------
# PairSet file format

def write_pairset(G: PairSet, path: str, extra_comments=()) -> None:
    _write_rows(path, G.alg, G.scale_exp, G.radius_exp, G.pairs, extra_comments)


def read_pairset(path: str, alg: AlgebraDescriptor | None = None) -> PairSet:
    return PairSet(*_read_rows(path, alg, 2))
