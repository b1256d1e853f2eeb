"""Set calculus: sums, differences, products, iterated expressions, scalar
actions, projections, quotient sets and linear coordinate changes.

Real-base composites are rounded to the grid once per operation
(half-away-from-zero); a projection a + x b rounds x b and adds the grid
point a, which at a tie can differ from rounding a + x b.  p-adic
composites are exact.  Every sum is one _sumset, n (A + B) with B None
for -A.  Past PAIRWISE_CAP pairs it is one inverse transform of (F_A F_B)^n
(_fft_sum) at 7-smooth lengths on the real base (the cyclic grid p^k on
the p-adic base): one squared spectrum for A + A, and the real |F_A|^(2n)
for n (A - A) while a proven float-error bound holds, the stepwise chain
of sums otherwise.  Smaller sums, every product set and the quotient cells
go through one blocked pair kernel (_pair_rows), in passes of
dset.pass_rows, the one pass size: each pass keeps its distinct rows (so
the point budget caps the distinct rows, not the pairs), or each quotient
cell's first pair, and the kept rows are merged.  An empty operand gives
the empty set at the (scale_exp, radius_exp) of a one-point operand.

Products, scalar images, projections, quotients and the dual map share one
bilinear array product (_raw_products) and one grid step (_to_grid, the
exact _grid_exact cast to int64).  Product sets, scalar images, quotient
cells and the counting engines round products onto the grid through one
entry, _grid_times, over one denominator or one per row of its second
operand; the escape pool of structure takes its rows from the same kernel.
It runs on int64 while every raw product provably fits and on Python ints
otherwise.  A PairSet keeps its a and b halves as contiguous columns with
their bounds; _project_many projects it along many directions, doing once
what does not depend on the direction, so a direction costs multiply-adds
over b's contiguous rows and one grid step.
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
    _within,
    _write_rows,
    pass_rows,
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

PAIRWISE_CAP = 4_000_000   # sumsets of more pairs take the FFT branch
FFT_CELL_CAP = 1 << 24
# c u of the FFT error bounds, u = 2^-53: c = 8 covers the radix-2 constant
# mu + gamma_4 (sqrt 2 + mu) ~ 6.7 u with twiddles correct to mu = u (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2) and the
# rounding of |F|^(2n)
_FFT_EPS = 8 * 2.0 ** -53


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
    """Points of the DSet A re-expressed at p-adic radius_exp r >=
    A.radius_exp (real base: unchanged)."""
    if A.alg.is_real_base or r == A.radius_exp:
        return A.points
    f = A.alg.p ** (r - A.radius_exp)
    _check_sum_bound(f"radius change {A.radius_exp} -> {r}", (A.points, f))
    return A.points * f


def _raw_products(alg, U, V, side, dtype):
    """The raw products u v (Left) or v u (Right) of every row u of U with
    every row v of V, in row-major (u, v) order: one matmul U @ W with the
    _product_matrix W of V."""
    W = _product_matrix(alg, V, side, dtype)
    return (np.asarray(U, dtype=dtype).reshape(-1, alg.d) @ W).reshape(-1, alg.d)


def _product_matrix(alg, V, side, dtype):
    """V contracted with the structure constants into one d x |V|d matrix W:
    the row u @ W holds the raw products u v (Left) or v u (Right) for every
    row v of V in turn."""
    C = np.array(alg.structure_constants, dtype=dtype)
    W = np.tensordot(np.array(V, dtype=dtype), C,
                     axes=(1, 1 if side == "Left" else 0))
    return W.transpose(1, 0, 2).reshape(alg.d, -1)


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
    """_grid_exact as int64 rows: a modulus or a row past int64 raises
    ParameterRangeError naming op."""
    if not alg.is_real_base and alg.p ** (scale_exp + unit_out) >= 2 ** 63:
        raise ParameterRangeError(f"{op}: modulus {alg.p}^{scale_exp + unit_out} past int64")
    try:
        return _grid_exact(alg, raw, den, scale_exp, unit_out, op, plus).astype(np.int64, copy=False)
    except OverflowError:
        raise ParameterRangeError(f"{op}: grid rows past int64") from None


def _grid_exact(alg, raw, den, scale_exp, unit_out, op, plus=None) -> np.ndarray:
    """The exact values raw / den on the grid of scale_exp, plus the grid
    rows `plus` if given, in raw's dtype; den is one int (f and q stay Python
    ints) or one per row of raw's second-to-last axis.  Real base: raw f / q
    rounded once, half away from zero, to units 2^-scale_exp by one floor
    division in raw's memory, which callers pass as scratch.  p-adic base: in
    units p^-unit_out mod p^(scale_exp + unit_out).  A value finer than
    p^-unit_out raises ParameterRangeError naming op.  raw's dtype is the one
    _grid_dtype chose for its bound (and the sum's); the sum is taken in it."""
    f, q, mod = _grid_steps(alg, den, scale_exp, unit_out)
    scaled, divided = set(f) != {1}, set(q) != {1}
    f, q = (v[0] if len(v) == 1 else  # rows as wide as raw's: numpy broadcasts whole rows
            np.array(v, dtype=raw.dtype)[:, None].repeat(raw.shape[-1], axis=1)
            for v in (f, q))
    if alg.is_real_base:
        out = raw * f if scaled else raw
        if divided:     # half away from zero: (v + q // 2 - [v < 0 and q even]) // q
            tie = (q % 2 == 0 and out < 0) if isinstance(q, int) else (out < 0) & (q % 2 == 0)
            out += q // 2
            out -= tie
            out //= q
    else:
        if divided:
            if (raw % q != 0).any():
                raise ParameterRangeError(f"{op}: value finer than p^-{unit_out}")
            raw = raw // q
        out = raw % mod
        if scaled:
            out *= f
            out %= mod
    if plus is not None:
        out += plus
        if mod is not None:
            out %= mod
    return out


def _grid_times(alg, V, big_u, den, scale_exp, side, unit_out, op):
    """The function taking rows U with max|U| <= big_u to the _to_grid, over
    den (one int, or one per row of V), of the _raw_products of U and V,
    into units radix^-unit_out (p-adic base).  int64 while the raw products
    and the grid step provably fit, Python ints otherwise; V is contracted
    with the structure constants once, for every U."""
    dt = _grid_dtype(alg, _product_bound(alg, big_u, _abs_max(V)), den, scale_exp, unit_out)
    W, k = _product_matrix(alg, V, side, dt), len(V)

    def times(U):
        raw = np.asarray(U, dtype=dt).reshape(-1, alg.d) @ W
        return _to_grid(alg, raw.reshape(len(raw), k, alg.d), den, scale_exp, unit_out,
                        op).reshape(-1, alg.d)
    return times


# ---------------------------------------------------------------------------
# the blocked pair kernel of sumsets, product sets and quotient cells

def _pair_rows(op, a, k, block, keep):
    """The rows of block(a[i:j]) over passes of pass_rows(k) rows of a: block
    gives the int64 rows of its rows paired with the k rows of the other
    operand, keep(rows) the rows a pass keeps.  One pass comes back as it is,
    for the caller to reduce (a DSet canonicalizes it anyway).  More come
    back kept: the passes' kept rows are merged in pass order by keep at the
    end and whenever they pass twice the last merge (and one pass's pairs),
    so the merges reduce a constant times the kept rows.  BudgetExceeded,
    naming op and its sizes, is raised when a merge has more rows than
    point_budget(), which is read once."""
    n, budget = len(a), point_budget()
    step = pass_rows(k, budget)
    if n <= step and n * k <= budget:     # one pass: its rows as they are
        return block(a)
    kept, held, top = [], 0, step * k
    for i in range(0, n, step):
        kept.append(keep(block(a[i:i + step])))
        held += len(kept[-1])
        if held > top or i + step >= n:
            kept = [keep(np.concatenate(kept))]
            held = len(kept[0])
            if held > budget:
                raise BudgetExceeded(
                    f"{op}: operands of sizes [{n}, {k}] give at least {held} "
                    f"distinct rows, past the point budget {budget}",
                    {"pairs": n * k, "rows": held, "budget": budget})
            top = max(2 * held, step * k)
    return kept[0]


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


def _indicator(pts, box) -> np.ndarray:
    """The 0/1 grid of extent box with ones at the rows of pts."""
    grid = np.zeros(tuple(map(int, box)))
    grid[tuple(pts.T)] = 1.0
    return grid


def _fft_box(pts, cyclic_mod):
    """(lo, span) of an operand's indicator: its column minima (int64) and
    max - min + 1 in Python ints, so that nothing wraps before the cell cap
    is checked; on the cyclic grid the minima are 0, so that an index is
    its value."""
    lo, hi = _col_bounds(pts)
    if cyclic_mod is not None:
        lo = np.zeros_like(lo)
    return lo, hi.astype(object) - lo + 1


def _fft_grid(lo, n, spans, window, cyclic_mod, sizes):
    """(w0, w1, shape) of a sum whose values lie in lo + [0, n - 1] per axis,
    from operands of the given spans (Python ints in object arrays); None
    when the window is empty.  Real base: [w0, w1] is the value box window =
    (lo_w, hi_w) in index space, clipped to [0, n - 1], and shape the
    smallest 7-smooth L >= max(n - w0, w1 + 1, spans) per axis, or that bound
    when the smooth grid has more than FFT_CELL_CAP cells.  Cyclic grid: the
    whole grid cyclic_mod^d.  A grid past FFT_CELL_CAP raises BudgetExceeded
    naming the operand sizes."""
    d = len(spans[0])
    if cyclic_mod is None:
        wlo, whi = window or (lo, lo + n - 1)
        w0 = np.maximum(np.array(wlo, dtype=object) - lo, 0)
        w1 = np.minimum(np.array(whi, dtype=object) - lo, n - 1)
        if np.any(w0 > w1):
            return None
        need = tuple(map(max, n - w0, w1 + 1, *spans))
        shape = tuple(map(_smooth_len, need))
        if math.prod(shape) > FFT_CELL_CAP:
            shape = need
    else:
        w0 = np.zeros(d, dtype=object)
        w1, shape = w0 + cyclic_mod - 1, (cyclic_mod,) * d
    if math.prod(shape) > FFT_CELL_CAP:
        raise BudgetExceeded(
            f"sumset: FFT grid {'x'.join(map(str, shape))} for operands of sizes "
            f"{sizes} has {math.prod(shape)} cells, past FFT_CELL_CAP {FFT_CELL_CAP}",
            {"cells": math.prod(shape)})
    return w0, w1, shape


def _fft_rows(conv, lo, at, w0, w1, sizes):
    """The rows lo + j, j in [w0, w1] per axis, whose count in the cyclic
    convolution grid conv, at index (at + j) mod L, is positive: in the
    canonical order of a DSet (the window's flat indices are _row_keys,
    which _key_rows decodes in F order).  Every entry of conv is an integer
    count, so one farther than 1/4 from an integer raises ParameterRangeError
    naming the operand sizes; the check runs over passes of the leading axis
    (pass_rows) through one reused buffer, so it holds no second grid."""
    step = pass_rows(conv.size // len(conv))
    buf, errs = np.empty_like(conv[:step]), []
    for blk in (conv[i:i + step] for i in range(0, len(conv), step)):
        off = buf[:len(blk)]
        np.rint(blk, out=off)
        np.subtract(blk, off, out=off)
        errs.append(np.abs(off, out=off).max())
    err = float(np.max(errs))
    if not err < 0.25:
        raise ParameterRangeError(
            f"sumset: FFT convolution of sizes {sizes} is {err} off the integers, past 1/4")
    start = (at + w0) % np.array(conv.shape, dtype=object)
    stop = start + w1 - w0 + 1
    if np.all(stop <= conv.shape):
        win = conv[tuple(map(slice, start, stop))]
    else:   # the window wraps around the cyclic grid
        win = conv[np.ix_(*(np.arange(a, b) % n for a, b, n in zip(start, stop, conv.shape)))]
    key = np.flatnonzero(win > 0.5)
    return _key_rows(key, (lo + w0).tolist(), (w1 - w0 + 1).tolist(), order="F")


def _fft_sum(a, b, n=1, cyclic_mod=None, window=None):
    """Support of n (a + b), b None standing for -a, as rows in the canonical
    order of a DSet, from one inverse transform of (F_a F_b)^n.  -a has the
    spectrum conj F_a, so its product is the real |F_a|^(2n); n > 1 only for
    -a.  b the very array a squares one spectrum.  Each indicator spans its
    operand's own box, zero-padded inside the forward transform.

    cyclic_mod None (real base): the sums inside the value box window = (lo,
    hi), each one bound or a list per axis, by default the whole box of the
    sums, at the cyclic length of _fft_grid: no indicator wraps, and no alias
    j +- L of a window index j lies in the box (the whole box: L = _smooth_len
    of span a + span b - 1, or of 2n (span a - 1) + 1 for -a).  Otherwise
    circular convolution modulo cyclic_mod per axis (p-adic; no window).  A
    sum of a + b lies at index value - lo, one of n (a - a) at value mod L.

    For 0/1 inputs the float error of every entry of a + b is at most c u
    log2(L) |a|_2 |b|_2 (u the unit roundoff, L the transformed cell count;
    Schatzman, SIAM J. Sci. Comput. 17, 1996): about 1e-7 under FFT_CELL_CAP.
    For n (a - a), with E_k(a) = (1/L) sum |F|^(2k) <= |a|^(2k - 1) the k-fold
    additive energy, the computed F has ||dF||_2 <= c u log2(L) ||F||_2 = c u
    log2(L) sqrt(L |a|) (normwise), so to first order the entries of the exact
    inverse of the raised error are at most (1/L) sum 2n |F|^(2n - 1) |dF| <=
    2n sqrt(E_(2n-1)) ||dF||_2 / sqrt(L) <= 2n c u log2(L) |a|^(2n - 1)
    (Cauchy-Schwarz, E_(2n-1) <= |a|^(4n - 3)).  The inverse transform adds
    at most c u log2(L) (1/L) sum |F|^(2n) = c u log2(L) E_n <= c u log2(L)
    |a|^(2n - 1) per entry (each output of a Cooley-Tukey FFT depends on each
    input through one path).  So n (a - a) returns None, before any
    transform, unless (2n + 1) c u log2(L) |a|^(2n - 1) < 1/4, with c u =
    _FFT_EPS: at n = 1 that is at most 1.1e-6 under FFT_CELL_CAP, so only n
    >= 2 returns None.  _fft_rows checks every entry of every sum.
    """
    amin, sa = _fft_box(a, cyclic_mod)
    if b is None:   # values in [-n (span a - 1), n (span a - 1)]; cyclic: 0
        lo = -n * (sa - 1) if cyclic_mod is None else amin.astype(object)
        at, sizes = lo, [len(a)] * (2 * n)
        grid = _fft_grid(lo, 2 * n * (sa - 1) + 1, (sa,), window, cyclic_mod, sizes)
    else:
        bmin, sb = _fft_box(b, cyclic_mod)
        lo, at, sizes = amin.astype(object) + bmin, 0, [len(a), len(b)]
        grid = _fft_grid(lo, sa + sb - 1, (sa, sb), window, cyclic_mod, sizes)
    if grid is None:
        return np.empty((0, a.shape[1]), dtype=np.int64)
    w0, w1, shape = grid
    if b is None and ((2 * n + 1) * _FFT_EPS * math.log2(math.prod(shape))
                      * len(a) ** (2 * n - 1) >= 0.25):
        return None
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(_indicator(a - amin, sa), shape, axes)
    if b is None:
        spec = np.abs(spec)     # |F|^2, then |F|^(2n): a real spectrum, half
        spec *= spec            # the inverse transform's complex input
        spec **= n
    elif b is a:
        spec *= spec
    else:
        spec *= np.fft.rfftn(_indicator(b - bmin, sb), shape, axes)
    conv = np.fft.irfftn(spec, shape, axes)
    del spec
    return _fft_rows(conv, lo, at, w0, w1, sizes)


def sumset(A: DSet, B: DSet) -> DSet:
    """{a + b} on the grid."""
    return _sumset(A, B)


def _sumset(A: DSet, B: DSet | None = None, n: int = 1, window=None) -> DSet:
    """n (A + B), B None standing for -A (n > 1 only then), at the radius_exp
    of the stepwise chain (one more per sum on the real base).  Past
    PAIRWISE_CAP pairs one _fft_sum, only inside the value box `window` on
    the real base, while its float-error bound holds; otherwise the stepwise
    chain D = A + B, D + D, ..., the last sum windowed (n > 1), or one
    pairwise pass of the pair kernel."""
    C = A if B is None else B   # -A has A's sizes and bounds
    _check_compat(A, C)
    alg, r = A.alg, max(A.radius_exp, C.radius_exp)
    a, b = _at_radius(A, r), _at_radius(C, r)
    out_r, mod = (r + n, None) if alg.is_real_base else (r, alg.p ** (A.scale_exp + r))
    _check_sum_bound("sumset", (a, 1), (b, 1))
    if len(a) * len(b) > PAIRWISE_CAP:
        rows = _fft_sum(a, None if B is None else b, n, mod, window)
        if rows is not None:
            return DSet(alg, A.scale_exp, out_r, rows)
    if n > 1:
        D = S = _sumset(A, B)
        for _ in range(n - 2):
            S = _sumset(S, D)
        return _sumset(S, D, 1, window)
    if B is None:
        b = negate(A).points

    def block(u):
        pts = (u[:, None, :] + b[None, :, :]).reshape(-1, alg.d)
        if mod is not None:
            pts %= mod
        return pts
    return DSet(alg, A.scale_exp, out_r, _pair_rows(
        "sumset", a, len(b), block, lambda rows: _canon_points(rows, alg.d)))


def negate(A: DSet) -> DSet:
    """-A: on the real base A's rows negated in reverse order, which is
    lexicographic, so that canonicalizing them is one copy."""
    pts = -A.points
    return DSet(A.alg, A.scale_exp, A.radius_exp, pts[::-1] if A.alg.is_real_base
                else pts % A.alg.p ** (A.scale_exp + A.radius_exp))


def difference_set(A: DSet, B: DSet) -> DSet:
    """{a - b}: A - A of the very same set A is _sumset with B None (on the
    FFT branch one spectrum F of A, as |F|^2), any other B the sumset of A
    and negate(B)."""
    return _sumset(A) if B is A else sumset(A, negate(B))


# ---------------------------------------------------------------------------
# products and scalar images

def product_set(A: DSet, B: DSet, side: str = "Left") -> DSet:
    """{ab} (Left) or {ba} (Right) on the grid."""
    _check_compat(A, B)
    if side not in ("Left", "Right"):
        raise ParameterRangeError(f"side must be Left or Right, got {side!r}")
    alg, a, b, scale = A.alg, A.points, B.points, A.scale_exp
    unit = A.unit_exp() + B.unit_exp()
    block = _grid_times(alg, b, _abs_max(a), alg.radix ** unit, scale, side, unit, "product_set")
    pts = _pair_rows("product_set", a, len(b), block, lambda rows: _canon_points(rows, alg.d))
    return DSet(alg, scale, A.radius_exp + B.radius_exp, pts)


def scalar_image(x: Element, A: DSet, side: str = "Left") -> DSet:
    """{xa} or {ax} on the grid."""
    alg, unit = A.alg, A.unit_exp() + x.unit_exp
    pts = _grid_times(alg, [x.coords], _abs_max(A.points), alg.radix ** unit, A.scale_exp,
                      "Right" if side == "Left" else "Left", unit, "scalar_image")(A.points)
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
    (none on the real base, where it is the identity) and the int64-or-object
    decision.  A direction is then at most d multiply-adds per coordinate on
    b's contiguous rows and one grid step.  On the object path a + x b is
    summed in Python ints before the int64 cast: only a + x b past int64
    raises."""
    alg, d, unit, scale = G.alg, G.alg.d, G.unit_exp(), G.scale_exp
    big_a, big_b = G.big
    bound = _product_bound(alg, big_b, _abs_max([x.coords for x in xs]))
    M = _raw_products(alg, [x.coords for x in xs], np.eye(d, dtype=np.int64), "Left",
                      np.int64 if bound < 2 ** 63 else object)
    M = M.reshape(-1, d, d).transpose(0, 2, 1).tolist()   # (x_i b)[t] = sum_s M[i][t][s] b[s]
    den_a, steps = alg.radix ** unit, {}
    for x, Mx in zip(xs, M):
        r = G.radius_exp + (1 + _norm_ceil_exp(x) if alg.is_real_base else max(x.unit_exp, 0))
        den = alg.radix ** (unit + x.unit_exp)
        if (x.unit_exp, r) not in steps:
            # a's grid values are at most max|a| (real) or below p^(scale + r)
            a = G.cols[:d]
            if _grid_steps(alg, den_a, scale, r)[:2] != ([1], [1]):
                a = _to_grid(alg, a.astype(_grid_dtype(alg, big_a, den_a, scale, r)),
                             den_a, scale, r, "project")
            add = big_a if alg.is_real_base else alg.p ** (scale + r)
            dt = _grid_dtype(alg, bound, den, scale, r, add)
            steps[x.unit_exp, r] = dt, a, G.cols[d:].astype(dt, copy=False)
        dt, a, b = steps[x.unit_exp, r]
        raw = np.zeros((d, len(G)), dtype=dt)
        for row, coef in zip(raw, Mx):
            for c, col in zip(coef, b):
                if c:   # a direction on an axis skips its zero terms
                    row += c * col
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
    if not alg.is_real_base and radius_exp >= A.radius_exp:
        return A
    pts = A.points[_within(alg, A.points, A.unit_exp(), -radius_exp)]
    if not alg.is_real_base:
        pts = _to_grid(alg, pts, alg.p ** A.radius_exp, A.scale_exp, radius_exp,
                       "ball_intersect")
    return DSet(alg, A.scale_exp, radius_exp, pts)


def iterated(A: DSet, n_sum: int, n_prod: int, clip: bool = True) -> DSet:
    """n_sum*(A^(n_prod) - A^(n_prod)), intersected with B(0,1) when clip:
    the one _sumset n_sum (P - P) of P = A^(n_prod), which on its FFT branch
    raises one spectrum F of P to |F|^(2 n_sum) while the float-error bound
    holds (always at n_sum = 1) and takes the stepwise chain D = P - P, D +
    D, ... otherwise.  On the real base's FFT branch the clipped chain is
    formed only inside the box of B(0,1); ball_intersect makes the exact cut."""
    if n_sum < 1 or n_prod < 1:
        raise ParameterRangeError("n_sum and n_prod must be >= 1")
    P = A
    for _ in range(n_prod - 1):
        P = product_set(P, A, "Left")
    window = (-2 ** A.scale_exp, 2 ** A.scale_exp) if clip else None
    S = _sumset(P, None, n_sum, window)
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
    den_idx = np.flatnonzero(~_within(alg, diffs, A.unit_exp(), rho_exp))
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
    del cells, pair     # free the kernel's rows before the dict: Q's are the same
    quads = zip(*([rows[t] for t in col.tolist()]
                  for col in (ab // n, ab % n, cd // n, cd % n)))
    return Q, dict(zip(zip(*Q.points.T.tolist()), quads))


def _quotient_cells(alg, diffs, den_idx, side, scale_out, radius_out):
    """The distinct cells of diffs[i] dens[j]^-1 (Left) or dens[j]^-1 diffs[i]
    (Right), dens = diffs[den_idx], lex-sorted, and for each the first pair
    i * len(dens) + j in row-major order with it: passes of _pair_rows in pair
    order, their cells carrying the pair as one more column, keep first
    occurrences.  int64 while every intermediate provably fits, Python ints otherwise."""
    dens = diffs[den_idx]
    d, k = alg.d, len(dens)
    nums, den = zip(*(al._int_inverse(alg, [int(c) for c in w]) for w in dens))
    times = _grid_times(alg, nums, _abs_max(diffs), den, scale_out, side, radius_out,
                        "quotient_set")

    def block(i):   # the cells of u num_j / den_j (Left) or num_j u / den_j (Right)
        return np.column_stack([times(diffs[i]), (i[:, None] * k + np.arange(k)).ravel()])

    def first(rows):
        return rows[_row_mins(rows[:, :d])]
    out = first(_pair_rows("quotient_set", np.arange(len(diffs)), k, block, first))
    return out[:, :d], out[:, d]


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
    det = al._int_det(M.tolist())
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
    far = ~_within(alg, w1, unit + U, floor_exp)     # |w1| > radix^-floor
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
