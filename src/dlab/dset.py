"""Delta-discretized sets: storage, covering numbers, non-concentration,
neighborhoods, uniformization, and the text file format.  One kernel,
_row_labels, labels rows: by their packed int64 row keys, else (no rows, keys
past 2^63, object arrays) by their ranks after one lexsort.  On those labels
_canon_points dedups, _row_mins takes first occurrences, and _row_counts and
_row_mult count cells in one bincount on a small box.  Uniformization labels
the points once and derives each coarser stage label from the last
(_stage_labels); the real-base non-concentration certificate counts every
ball at every scale with one searchsorted, bincount and cumulative sum.  The
same keys give the row lookup _row_lookup of the counting engines and the
dichotomy: a key table, or sorted keys, with any neighbour offsets folded
in, so that one lookup counts a target against every offset.  pass_rows is
the one pass size of every blocked array pass, in every module.

A DSet stores grid points of a normed division algebra inside the ball
B(0, radix^radius_exp) at grid scale radix^-scale_exp.  Coordinates:

* real base: integers in units of 2^-scale_exp;
* p-adic base: integers in units of p^-radius_exp, reduced modulo
  p^(scale_exp + radius_exp).  radius_exp = 0 recovers plain residues
  mod p^m.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import algebra as al
from .algebra import AlgebraDescriptor, Element
from .errors import (
    BudgetExceeded,
    DlabError,
    EmptyInput,
    ParameterRangeError,
    ScaleOutOfRange,
)

DEFAULT_POINT_BUDGET = 10_000_000
KEY_TABLE_FACTOR = 2    # keys per row (and offset) up to which a box is one table
MIN_TABLE_FACTOR = 8    # the same for _row_mins: its int32 table holds about
                        # the memory of the sort it replaces
PAIR_BLOCK = 1 << 16    # pairs per pass of every blocked array pass


def point_budget() -> int:
    env = os.environ.get("DLAB_BUDGET_POINTS")
    return int(env) if env else DEFAULT_POINT_BUDGET


def pass_rows(k: int, budget: int | None = None) -> int:
    """Rows per pass of a blocked array pass pairing each row with k others: at
    most min(PAIR_BLOCK, budget, by default point_budget()) pairs, one row at least."""
    return max(1, min(PAIR_BLOCK, point_budget() if budget is None else budget) // max(k, 1))


def _col_bounds(arr: np.ndarray):
    """(lo, hi): the column minima and maxima of a non-empty 2-d array, taken
    along the rows of its contiguous transpose (a reduction over axis 0 of a
    few C-ordered columns runs about ten times slower)."""
    cols = np.ascontiguousarray(arr.T)
    return cols.min(axis=1), cols.max(axis=1)


def _key_layout(arr: np.ndarray):
    """(lo, spans) of the columns of a 2-d int64 array: lists of the column
    minima and of max - min + 1.  None when the array is empty or the product
    of the spans reaches 2^63, so that the row keys of _row_keys would not fit
    in int64."""
    if len(arr) == 0:
        return None
    lo, hi = (v.tolist() for v in _col_bounds(arr))
    spans = [h - l + 1 for h, l in zip(hi, lo)]
    return None if math.prod(spans) >= 2 ** 63 else (lo, spans)


def _row_keys(arr: np.ndarray, lo, spans) -> np.ndarray:
    """One int64 key per row: the mixed-radix number with digits
    arr[:, t] - lo[t] in base spans[t], so that key order is lexicographic
    row order.  Every row must lie in the box lo <= row < lo + spans of a
    layout from _key_layout."""
    key = arr[:, 0] - lo[0]
    for t in range(1, len(spans)):
        key *= spans[t]
        key += arr[:, t] - lo[t]
    return key


def _key_rows(key: np.ndarray, lo, spans, order: str = "C") -> np.ndarray:
    """The rows whose _row_keys in the layout (lo, spans) are `key`, in the
    memory order given: one divmod per column, lo added column by column."""
    out = np.empty((len(key), len(spans)), dtype=np.int64, order=order)
    for t in range(len(spans) - 1, 0, -1):
        key, digit = np.divmod(key, spans[t])
        np.add(digit, lo[t], out=out[:, t])
    np.add(key, lo[0], out=out[:, 0])
    return out


def _small_box(size: int, n: int) -> bool:
    """Whether a key box of `size` keys for n rows is one table: at most
    KEY_TABLE_FACTOR keys per row, and at most point_budget() keys."""
    return size <= KEY_TABLE_FACTOR * n and size <= point_budget()


def _run_starts(srt: np.ndarray) -> np.ndarray:
    """Mask of the first entry (row, for a 2-d array) of each run of equal
    ones in a sorted array."""
    fresh, neq = np.ones(len(srt), dtype=bool), srt[1:] != srt[:-1]
    fresh[1:] = neq if srt.ndim == 1 else neq.any(axis=1)
    return fresh


def _row_labels(arr: np.ndarray):
    """(labels, size, decode) of a 2-d array: one int64 label per row, equal
    for equal rows only and increasing in lexicographic row order, with
    0 <= label < size; decode(labels, order="C") gives back the rows of
    distinct labels in the memory order given.  The labels are the _row_keys
    of the _key_layout; with no layout (no rows, keys past 2^63, an object
    array) they are the ranks of the distinct rows after one np.lexsort of
    the columns."""
    layout = None if arr.dtype == object else _key_layout(arr)
    if layout is not None:
        lo, spans = layout
        return (_row_keys(arr, lo, spans), math.prod(spans),
                lambda key, order="C": _key_rows(key, lo, spans, order))
    perm = np.lexsort(arr.T[::-1])
    fresh = _run_starts(arr[perm])
    labels = np.empty(len(arr), dtype=np.int64)
    labels[perm] = np.cumsum(fresh) - 1
    distinct = arr[perm[fresh]]
    return labels, len(distinct), lambda key, order="C": np.asarray(distinct[key], order=order)


def _canon_points(arr: np.ndarray, d: int, order: str = "C") -> np.ndarray:
    """The distinct rows of `arr` (width d) in lexicographic order: the same
    array as np.unique(arr, axis=0), in the memory order given.

    Rows whose _row_labels already increase strictly (FFT sumsets, the
    pair kernel's sumsets and product sets, translations, subsets, product
    pairs) come back as a copy.  Otherwise the
    distinct labels, in order, are the marks of an occupancy table on a
    _small_box and the sorted labels otherwise; decode turns them back."""
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, d)
    key, size, decode = _row_labels(arr)
    if np.all(key[1:] > key[:-1]):
        return arr.copy(order=order)
    if _small_box(size, len(key)):
        mark = np.zeros(size, dtype=bool)
        mark[key] = True
        key = np.flatnonzero(mark)
    else:
        key.sort()
        key = key[_run_starts(key)]
    return decode(key, order)


def _row_counts(arr: np.ndarray) -> np.ndarray:
    """np.unique(arr, axis=0, return_counts=True)[1] of a 2-d array: one
    bincount of the _row_labels on a _small_box, else np.unique of the
    labels."""
    labels, size, _ = _row_labels(arr)
    if _small_box(size, len(arr)):
        counts = np.bincount(labels, minlength=size)
        return counts[counts > 0]
    return np.unique(labels, return_counts=True)[1]


def _row_mult(arr: np.ndarray) -> np.ndarray:
    """Each row's multiplicity among the rows of a 2-d array: counts[inverse]
    of np.unique(arr, axis=0, return_inverse=True, return_counts=True): one
    bincount of the _row_labels indexed by the labels on a _small_box, else
    np.unique of the labels."""
    labels, size, _ = _row_labels(arr)
    if _small_box(size, len(arr)):
        return np.bincount(labels)[labels]
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return counts[inverse]


def _row_mins(arr: np.ndarray) -> np.ndarray:
    """For every distinct row of a 2-d array, in lexicographic row order, the
    index of its first occurrence: np.unique(arr, axis=0, return_index=True)[1]
    on the _row_labels.  On a key box of at most MIN_TABLE_FACTOR keys a row
    (and point_budget() keys) the least index of each label is taken in one
    int32 table by np.minimum.at, with no sort."""
    labels, size, _ = _row_labels(arr)
    n = len(arr)
    if size <= MIN_TABLE_FACTOR * n and size <= point_budget() and n < 2 ** 31:
        first = np.full(size, n, dtype=np.int32)
        np.minimum.at(first, labels, np.arange(n, dtype=np.int32))
        return first[first < n].astype(np.intp)
    return np.unique(labels, return_index=True)[1]


def _row_lookup(rows: np.ndarray, offsets=None):
    """A function taking an array T of rows (int64, or Python ints in an
    object array) to sum_o mult(t + o) for each row t of T: mult counts the
    rows of `rows` (int64), o runs over the offsets (one zero offset when
    None).  Targets outside the box of rows - o, which must lie in int64
    (ParameterRangeError otherwise), count 0.  The offsets are folded into
    the _row_keys of that box, key(r - o) = key(r) - key(o): into one table
    (int32 while |rows| |offsets| < 2^31), one shifted add of the row counts
    per offset, on a _small_box for |rows| |offsets| rows, each target then
    one index; else the target keys shifted by each offset are found with
    np.searchsorted among the sorted row keys; past 2^63 keys, the rows minus
    offsets are labelled with the targets by _row_labels."""
    d = rows.shape[1]
    offs = np.asarray([(0,) * d] if offsets is None else offsets, dtype=np.int64).reshape(-1, d)
    if len(rows) == 0:
        return lambda T: np.zeros(len(T), dtype=np.int64)
    lo, hi = _col_bounds(rows)
    box = [(int(lo[t]) - int(offs[:, t].max()), int(hi[t]) - int(offs[:, t].min()))
           for t in range(d)]
    if not all(-2 ** 63 <= l and h < 2 ** 63 for l, h in box):
        raise ParameterRangeError(f"row lookup: {len(rows)} rows - {len(offs)} offsets past int64")
    low, spans = np.array([l for l, _ in box]), [h - l + 1 for l, h in box]
    size = math.prod(spans)
    if size >= 2 ** 63:
        shifted = (rows[:, None, :] - offs).reshape(-1, d)

        def find(T):
            label, n_labels, _ = _row_labels(np.concatenate([shifted, T]))
            return np.bincount(label[:len(shifted)], minlength=n_labels)[label[len(shifted):]]
    else:
        keys, counts = np.unique(_row_keys(rows, low, spans), return_counts=True)
        shifts = _row_keys(offs, 0 * low, spans)
        if _small_box(size, len(rows) * len(offs)):
            table = np.zeros(size, dtype=np.int32 if len(rows) * len(offs) < 2 ** 31
                             else np.int64)
            for shift in shifts:
                table[keys - shift] += counts

            def find(T):
                return table[_row_keys(T, low, spans)]
        else:
            def find(T):    # a digit of t + o off the box lands where no row is
                key, out = _row_keys(T, low, spans), 0
                for shift in shifts:
                    pos = np.minimum(np.searchsorted(keys, key + shift), len(keys) - 1)
                    out = out + np.where(keys[pos] == key + shift, counts[pos], 0)
                return out

    def lookup(T):
        inside = np.ones(len(T), dtype=bool)
        for t, (l, h) in enumerate(box):
            inside &= (T[:, t] >= l) & (T[:, t] <= h)
        out = np.zeros(len(T), dtype=np.int64)
        out[inside] = find(T[inside].astype(np.int64, copy=False))
        return out
    return lookup


def _abs_max(arr) -> int:
    """max |entry| of an array (0 when empty)."""
    arr = np.asarray(arr)
    return max(-int(arr.min(initial=0)), int(arr.max(initial=0)))


def _row_norm_sq(pts: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean norm of every row: int64 when
    d * max|coord|^2 < 2^63, Python ints in an object array otherwise."""
    big = _abs_max(pts)
    if pts.shape[1] * big * big < 2 ** 63:
        out = pts[:, 0] * pts[:, 0]
        for t in range(1, pts.shape[1]):    # not a slow reduction over axis 1
            out += pts[:, t] * pts[:, t]
        return out
    obj = pts.astype(object)
    return (obj * obj).sum(axis=1)


@dataclass(frozen=True)
class DSet:
    alg: AlgebraDescriptor
    scale_exp: int
    radius_exp: int
    points: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _canon_points(self.points, self.alg.d))

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (isinstance(other, DSet) and self.alg == other.alg
                and self.scale_exp == other.scale_exp
                and self.radius_exp == other.radius_exp
                and np.array_equal(self.points, other.points))

    def element(self, idx: int) -> Element:
        return al.element(self.alg, tuple(int(c) for c in self.points[idx]),
                          self.unit_exp())

    def elements(self):
        return [self.element(i) for i in range(len(self))]

    def unit_exp(self) -> int:
        return self.scale_exp if self.alg.is_real_base else self.radius_exp


def _grid_rows(alg, rows, width: int, scale_exp: int, radius_exp: int) -> np.ndarray:
    """rows as an int64 array of the given width, reduced mod p^(scale_exp +
    radius_exp) on the p-adic base; ParameterRangeError past int64."""
    mod = 1 if alg.is_real_base else alg.p ** (scale_exp + radius_exp)
    if mod >= 2 ** 63:
        raise ParameterRangeError(f"modulus {alg.p}^{scale_exp + radius_exp} past int64")
    try:
        arr = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows,
                         dtype=np.int64).reshape(-1, width)
    except OverflowError:
        raise ParameterRangeError("coordinates past int64") from None
    return arr if alg.is_real_base else arr % mod


def make_dset(alg, points, scale_exp=None, radius_exp=0) -> DSet:
    scale_exp = alg.m if scale_exp is None else scale_exp
    return DSet(alg, scale_exp, radius_exp,
                _grid_rows(alg, points, alg.d, scale_exp, radius_exp))


# ---------------------------------------------------------------------------
# covering numbers and cells

def _cell_rows(alg, scale_exp, radius_exp, rows, k) -> np.ndarray:
    """cell_ids of the grid rows of a set at (scale_exp, radius_exp)."""
    if k < 0 or k > scale_exp:
        raise ScaleOutOfRange(f"k={k} outside [0, {scale_exp}]")
    if alg.is_real_base:
        # half-open boxes; the right endpoint 2^(scale_exp + radius_exp) of
        # the bounding ball joins the last cell by clamping
        rows = np.where(rows == 2 ** (scale_exp + radius_exp), rows - 1, rows)
        return rows // (2 ** (scale_exp - k))
    return rows % alg.p ** (k + radius_exp)


def cell_ids(A: DSet, k: int) -> np.ndarray:
    """Cell labels of every point at scale radix^-k (half-open boxes / residues)."""
    return _cell_rows(A.alg, A.scale_exp, A.radius_exp, A.points, k)


def covering_number(A: DSet, k: int) -> int:
    if len(A) == 0:
        return 0
    return len(_row_counts(cell_ids(A, k)))


# ---------------------------------------------------------------------------
# non-concentration verification

@dataclass
class NCReport:
    passed: bool
    s: float
    C: float
    worst_center: tuple
    worst_radius_exp: int
    worst_count: int
    best_C: float

    def to_dict(self):
        return {
            "pass": self.passed, "s": self.s, "C": self.C,
            "worst_center": list(self.worst_center),
            "worst_radius_exp": self.worst_radius_exp,
            "worst_count": self.worst_count, "best_C": self.best_C,
        }


def _real_ball_counts(A: DSet) -> np.ndarray:
    """counts[k, i]: the number of set points in the open linf ball of
    radius 2^-k around point i, for every k in 0..e = scale_exp.

    Chebyshev distances are formed in passes of pass_rows(n) rows.  A
    pair's level, how many of the radii 2^0..2^e are at most its distance
    (one searchsorted), puts it in the balls of k <= e - level: one bincount
    per row and one cumulative sum.  int64 while 2 * max|coord| < 2^63 and
    e < 63, Python ints otherwise."""
    pts, e, n = A.points, A.scale_exp, len(A.points)
    if 2 * _abs_max(pts) >= 2 ** 63 or e >= 63:
        pts = pts.astype(object)
    radii = np.array([2 ** j for j in range(e + 1)], dtype=pts.dtype)
    counts = np.empty((e + 1, n), dtype=np.int64)
    step = pass_rows(n)
    for lo in range(0, n, step):
        block = pts[lo:lo + step]
        cheb = np.abs(block[:, None, 0] - pts[None, :, 0])
        for t in range(1, A.alg.d):
            np.maximum(cheb, np.abs(block[:, None, t] - pts[None, :, t]), out=cheb)
        cheb = np.searchsorted(radii, cheb, side="right")    # no third n^2 array
        cheb += np.arange(0, len(block) * (e + 2), e + 2)[:, None]    # bin of row r
        hist = np.bincount(cheb.ravel(), minlength=len(block) * (e + 2))
        counts[:, lo:lo + step] = hist.reshape(-1, e + 2).cumsum(axis=1)[:, e::-1].T
    return counts


def is_nonconcentrated(A: DSet, s: float, C: float) -> NCReport:
    """Check N(A ∩ B(x,r)) <= C r^s N(A) over centers x in A and radii
    r = radix^-k, delta <= r <= 1.

    Real base uses open linf balls; p-adic base uses the ultrametric cells.
    Returns the worst witness and the smallest constant that would pass.
    """
    if len(A) == 0:
        raise EmptyInput("empty set")
    n = len(A)
    best_C = 0.0
    worst = (0, 0, n)
    if A.alg.is_real_base:
        counts = _real_ball_counts(A)
    else:   # the count of every point's cell
        counts = np.array([_row_mult(cell_ids(A, k)) for k in range(A.scale_exp + 1)])
    for k, i in enumerate(counts.argmax(axis=1).tolist()):
        ratio = counts[k, i] * float(A.alg.radix) ** (k * s) / n
        if ratio > best_C:
            best_C = ratio
            worst = (i, k, int(counts[k, i]))
    i, k, cnt = worst
    return NCReport(best_C <= C, s, C, tuple(int(v) for v in A.points[i]),
                    k, cnt, best_C)


# ---------------------------------------------------------------------------
# neighborhoods and ball removal

def neighborhood(A: DSet, k: int) -> DSet:
    """All grid points within radix^-k of the set (linf boxes / p-adic cells)."""
    if k > A.scale_exp:
        raise ScaleOutOfRange(f"k={k} beyond scale_exp {A.scale_exp}")
    d = A.alg.d
    if A.alg.is_real_base:
        u = 2 ** (A.scale_exp - k)
        n_off = (2 * u + 1) ** d
        if len(A) * n_off > point_budget():
            raise BudgetExceeded("neighborhood blowup", {"points": len(A), "offsets": n_off})
        offs = np.array(list(itertools.product(range(-u, u + 1), repeat=d)),
                        dtype=np.int64)
        pts = (A.points[:, None, :] + offs[None, :, :]).reshape(-1, d)
        return DSet(A.alg, A.scale_exp, A.radius_exp + 1, pts)
    p = A.alg.p
    step = p ** (k + A.radius_exp)
    reps = _canon_points(A.points % step, d)
    n_fill = p ** ((A.scale_exp - k) * d)
    if len(reps) * n_fill > point_budget():
        raise BudgetExceeded("neighborhood blowup", {"cells": len(reps), "fill": n_fill})
    fills = np.array(list(itertools.product(range(p ** (A.scale_exp - k)), repeat=d)),
                     dtype=np.int64)
    pts = (reps[:, None, :] + step * fills[None, :, :]).reshape(-1, d)
    return DSet(A.alg, A.scale_exp, A.radius_exp, pts)


def remove_ball(A: DSet, center: Element, k: int) -> DSet:
    """Points at distance > radix^-k from the center."""
    if len(A) == 0:
        return A
    alg = A.alg
    if alg.is_real_base:
        cu = np.array(al._value_to_grid(alg, al.value_coords(alg, center), A.scale_exp, 0),
                      dtype=np.int64)
        thresh = 4 ** (A.scale_exp - k)  # (2^(scale-k))^2 grid units squared
        keep = _row_norm_sq(A.points - cu) > thresh
        return DSet(alg, A.scale_exp, A.radius_exp, A.points[keep])
    p = alg.p
    if center.unit_exp > A.radius_exp:
        raise ParameterRangeError("center finer than set resolution")
    cu = np.array([c * p ** (A.radius_exp - center.unit_exp) for c in center.coords],
                  dtype=np.int64)
    mod = p ** (k + A.radius_exp)
    keep = np.any((A.points - cu) % mod != 0, axis=1)
    return DSet(alg, A.scale_exp, A.radius_exp, A.points[keep])


# ---------------------------------------------------------------------------
# uniformization (up-the-tree pigeonholing)

def _stage_labels(A: DSet, T: int):
    """(k, cell_ids(A, k)) at the stage scales k = scale_exp - T, scale_exp - 2T,
    ... and 0.  Stage cells nest: the first stage labels the points (with the
    one top clamp of the real base) and each coarser label comes from the last.
    EmptyInput for an empty A, ParameterRangeError for T < 1."""
    if len(A) == 0:
        raise EmptyInput("cannot uniformize an empty set")
    if T < 1:
        raise ParameterRangeError("stage size T must be >= 1")
    scales = list(range(A.scale_exp - T, -1, -T))
    scales += [0] if scales and scales[-1] != 0 else []
    for t, k in enumerate(scales):
        if t == 0:
            label = cell_ids(A, k)
        elif A.alg.is_real_base:
            label = label >> (scales[t - 1] - k)
        else:
            label = label % A.alg.p ** (k + A.radius_exp)
        yield k, label


@functools.lru_cache(maxsize=64)
def _radix_powers(radix: int) -> np.ndarray:
    """radix^0, radix^1, ... below 2^63, read-only."""
    powers = np.array([radix ** j for j in range(63) if radix ** j < 2 ** 63])
    powers.setflags(write=False)
    return powers


def uniform_subset(A: DSet, T: int = 1) -> DSet:
    """Refine A so all nonempty cells at every stage scale carry counts in a
    single radix-power class; keeps the heaviest class at each stage (the
    class of a count c is floor(log_radix c); of equal masses, the larger)."""
    powers = _radix_powers(A.alg.radix)
    idx = np.arange(len(A))
    for _, label in _stage_labels(A, T):
        classes = np.searchsorted(powers, _row_mult(label[idx]), side="right") - 1
        mass = np.bincount(classes)
        idx = idx[classes == len(mass) - 1 - np.argmax(mass[::-1])]
    return DSet(A.alg, A.scale_exp, A.radius_exp, A.points[idx])


def uniformity_audit(A: DSet, T: int = 1):
    """Max/min nonempty cell-count ratio at every stage scale; uniform sets
    satisfy ratio <= radix^T everywhere."""
    out = {}
    for k, label in _stage_labels(A, T):
        counts = _row_counts(label)
        mx, mn = counts.max(), counts.min()
        out[k] = (int(mx), int(mn), mx / mn <= A.alg.radix ** T)
    return out


# ---------------------------------------------------------------------------
# file format

def _write_rows(path: str, alg: AlgebraDescriptor, scale_exp: int,
                radius_exp: int, rows: np.ndarray, extra_comments=()) -> None:
    """Write a dlab file: header, comment lines, one integer row per line.
    Qp_ext files carry their defining polynomial in a v2 header; the other
    algebras keep the v1 header."""
    base = "R" if alg.is_real_base else "Qp"
    p = "-" if alg.p is None else str(alg.p)
    head = f"base={base} p={p} d={alg.d} m={scale_exp} Rexp={radius_exp}"
    if alg.kind() == "Qp_ext":
        head = "#dlab v2 " + head + " poly=" + ",".join(map(str, alg.poly))
    else:
        head = "#dlab v1 " + head
    lines = [head, *map(str, extra_comments)]
    lines += [" ".join(map(str, row)) for row in rows.tolist()]
    _write_file(path, "\n".join(lines) + "\n")


def _write_csv(path: str, fieldnames, rows, comment: str | None = None) -> None:
    """Write dict rows as CSV with a header line, after an optional
    '# comment' line."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    w = csv.DictWriter(buf, fieldnames=list(fieldnames))
    w.writeheader()
    w.writerows(rows)
    _write_file(path, buf.getvalue())


def _write_file(path: str, text: str) -> None:
    """Write text, newlines untranslated, to path + '.tmp', then move it over
    path with os.replace, so that path never holds a partly written file."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_dset(A: DSet, path: str, extra_comments=()) -> None:
    _write_rows(path, A.alg, A.scale_exp, A.radius_exp, A.points, extra_comments)


# descriptors are immutable: build one, and check its invariants, per header
_header_algebra = functools.lru_cache(maxsize=64)(al.make_algebra)


def _read_rows(path: str, alg: AlgebraDescriptor | None, per_row: int):
    """Read a dlab file with per_row * d integers on each data row; returns
    (alg, scale_exp, radius_exp, _grid_rows).  The algebra comes from the
    header unless one is given; a v2 header also carries the defining
    polynomial of a Qp_ext algebra, a v1 header leaves it at the default.  An
    empty file, a bad header, a ragged or non-integer row and values past
    int64 raise ParameterRangeError naming the path and line."""
    with open(path) as fh:
        lines = [(no, ln) for no, ln in enumerate(map(str.strip, fh), 1) if ln]
    if not lines:
        raise ParameterRangeError(f"{path}: empty file, expected a dlab header")
    no, head = lines[0]
    try:
        if not head.startswith(("#dlab v1 ", "#dlab v2 ")):
            raise ValueError("no '#dlab v1 ' or '#dlab v2 ' prefix")
        kv = dict(tok.split("=", 1) for tok in head.split()[2:])
        d, m, rexp = int(kv["d"]), int(kv["m"]), int(kv["Rexp"])
        poly = None
        if head.startswith("#dlab v2 ") and "poly" in kv:
            poly = tuple(int(c) for c in kv["poly"].split(","))
        if alg is None:
            if kv["base"] == "R":
                alg = _header_algebra(al._real_kind(d), m=m)
            else:
                alg = _header_algebra("Qp" if d == 1 else "Qp_ext",
                                      p=int(kv["p"]), d=d, m=m, poly=poly)
                if poly is not None and alg.poly != poly:
                    raise ValueError(f"poly {poly} is not monic with "
                                     f"coefficients reduced mod {alg.p}")
    except (KeyError, ValueError, DlabError) as e:
        raise ParameterRangeError(
            f"{path}:{no}: bad dlab header {head!r}: {e!r}") from None
    width = per_row * alg.d
    data = [(no, ln) for no, ln in lines[1:] if not ln.startswith("#")]
    toks = [ln.split() for _, ln in data]
    try:    # every token of every row of the right width
        flat = [int(t) for row in toks if len(row) == width for t in row]
    except ValueError:
        flat = []
    if len(flat) != width * len(toks):     # rescan for the first bad line
        for (no, ln), row in zip(data, toks):
            try:
                row = [int(t) for t in row]
            except ValueError:
                raise ParameterRangeError(
                    f"{path}:{no}: non-integer coordinate in {ln!r}") from None
            if len(row) != width:
                raise ParameterRangeError(
                    f"{path}:{no}: {len(row)} coordinates, expected {width}")
    try:
        return alg, m, rexp, _grid_rows(alg, flat, width, m, rexp)
    except ParameterRangeError as e:
        big = (no for no, ln in data
               if any(not -2 ** 63 <= int(t) < 2 ** 63 for t in ln.split()))
        raise ParameterRangeError(f"{path}:{next(big, lines[0][0])}: {e}") from None


def read_dset(path: str, alg: AlgebraDescriptor | None = None) -> DSet:
    return DSet(*_read_rows(path, alg, 1))
