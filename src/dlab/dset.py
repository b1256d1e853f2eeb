"""Delta-discretized sets: storage, covering numbers, non-concentration,
neighborhoods, uniformization, and the text file format.

A DSet stores grid points of a normed division algebra inside the ball
B(0, radix^radius_exp) at grid scale radix^-scale_exp.  Coordinates:

* real base: integers in units of 2^-scale_exp;
* p-adic base: integers in units of p^-radius_exp, reduced modulo
  p^(scale_exp + radius_exp).  radius_exp = 0 recovers plain residues
  mod p^m.
"""

from __future__ import annotations

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


def point_budget() -> int:
    env = os.environ.get("DLAB_BUDGET_POINTS")
    return int(env) if env else DEFAULT_POINT_BUDGET


def _key_layout(arr: np.ndarray):
    """(lo, spans) of the columns of a 2-d int64 array: the column minima and
    max - min + 1.  None when the array is empty or the product of the spans
    reaches 2^63, so that the row keys of _row_keys would not fit in int64."""
    if len(arr) == 0:
        return None
    lo = arr.min(axis=0)
    spans = [int(h) - int(l) + 1 for h, l in zip(arr.max(axis=0), lo)]
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


def _canon_points(arr: np.ndarray, d: int) -> np.ndarray:
    """The distinct rows of `arr` (width d) in lexicographic order: the same
    array as np.unique(arr, axis=0).

    The row keys of _row_keys are sorted in place, adjacent duplicates
    dropped and the rows decoded from the unique keys.  When there are no
    keys to pack (no rows, or keys past int64) the rows go through
    np.unique(axis=0) instead.
    """
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, d)
    layout = _key_layout(arr)
    if layout is None:
        return np.unique(arr, axis=0)
    lo, spans = layout
    key = _row_keys(arr, lo, spans)
    key.sort()
    fresh = np.empty(len(key), dtype=bool)
    fresh[0] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    out = np.empty((len(key), d), dtype=np.int64)
    for t in range(d - 1, 0, -1):
        key, out[:, t] = np.divmod(key, spans[t])
    out[:, 0] = key
    out += lo
    return out


def _row_counts(arr: np.ndarray) -> np.ndarray:
    """The multiplicity of every distinct row of a 2-d int64 array, in
    lexicographic row order: np.unique(arr, axis=0, return_counts=True)[1],
    counted on the row keys while they fit in int64."""
    layout = _key_layout(arr)
    if layout is None:
        return np.unique(arr, axis=0, return_counts=True)[1]
    return np.unique(_row_keys(arr, *layout), return_counts=True)[1]


def _row_mins(arr: np.ndarray, prio=None) -> np.ndarray:
    """For every distinct row of a 2-d array, in lexicographic row order, the
    index of its first occurrence of smallest prio (no prio: np.unique(arr,
    axis=0, return_index=True)[1]).  Rows are matched on their int64 row keys,
    on np.unique(axis=0) labels past 2^63, in a dict for object arrays."""
    if prio is None:
        prio = np.arange(len(arr))
    if arr.dtype == object:
        best = {}
        for t, row in enumerate(map(tuple, arr.tolist())):
            if row not in best or prio[t] < prio[best[row]]:
                best[row] = t
        return np.array([best[row] for row in sorted(best)], dtype=np.int64)
    layout = _key_layout(arr)
    if layout is None:
        key = np.unique(arr, axis=0, return_inverse=True)[1].reshape(-1)
    else:
        key = _row_keys(arr, *layout)
    order = np.lexsort((prio, key))
    key = key[order]
    fresh = np.empty(len(key), dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    return order[fresh]


def _abs_max(arr) -> int:
    """max |entry| of an array (0 when empty)."""
    arr = np.asarray(arr)
    return max(-int(arr.min(initial=0)), int(arr.max(initial=0)))


def _row_norm_sq(pts: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean norm of every row: int64 when
    d * max|coord|^2 < 2^63, Python ints in an object array otherwise."""
    big = _abs_max(pts)
    if pts.shape[1] * big * big < 2 ** 63:
        return (pts * pts).sum(axis=1)
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
        unit = self.scale_exp if self.alg.is_real_base else self.radius_exp
        return al.element(self.alg, tuple(int(c) for c in self.points[idx]), unit)

    def elements(self):
        return [self.element(i) for i in range(len(self))]

    def unit_exp(self) -> int:
        return self.scale_exp if self.alg.is_real_base else self.radius_exp


def make_dset(alg, points, scale_exp=None, radius_exp=0) -> DSet:
    if scale_exp is None:
        scale_exp = alg.m
    pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                     dtype=np.int64).reshape(-1, alg.d)
    if not alg.is_real_base:
        mod = alg.p ** (scale_exp + radius_exp)
        pts = pts % mod
    return DSet(alg, scale_exp, radius_exp, pts)


# ---------------------------------------------------------------------------
# covering numbers and cells

def cell_ids(A: DSet, k: int) -> np.ndarray:
    """Cell labels of every point at scale radix^-k (half-open boxes / residues)."""
    if k < 0 or k > A.scale_exp:
        raise ScaleOutOfRange(f"k={k} outside [0, {A.scale_exp}]")
    if A.alg.is_real_base:
        # half-open boxes; the right endpoint of the bounding ball joins
        # the last cell by clamping
        top = 2 ** (A.scale_exp + A.radius_exp)
        pts = np.where(A.points == top, A.points - 1, A.points)
        return pts // (2 ** (A.scale_exp - k))
    mod = A.alg.p ** (k + A.radius_exp)
    return A.points % mod


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
    radius 2^-k around point i, for every k in 0..scale_exp.

    Chebyshev distances are formed in row chunks of about 2^20 pairs and
    compared with each radius; int64 while 2 * max|coord| < 2^63, Python
    ints otherwise."""
    pts = A.points
    n = len(pts)
    if 2 * _abs_max(pts) >= 2 ** 63:
        pts = pts.astype(object)
    radii = [2 ** (A.scale_exp - k) for k in range(A.scale_exp + 1)]
    counts = np.empty((len(radii), n), dtype=np.int64)
    step = max(1, (1 << 20) // n)
    for lo in range(0, n, step):
        block = pts[lo:lo + step]
        cheb = np.abs(block[:, None, 0] - pts[None, :, 0])
        for t in range(1, A.alg.d):
            np.maximum(cheb, np.abs(block[:, None, t] - pts[None, :, t]), out=cheb)
        for k, u in enumerate(radii):
            counts[k, lo:lo + step] = (cheb < u).sum(axis=1)
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
        ball_counts = _real_ball_counts(A)
    for k in range(0, A.scale_exp + 1):
        if A.alg.is_real_base:
            counts = ball_counts[k]
        else:
            ids = cell_ids(A, k)
            _, inverse, cnt = np.unique(ids, axis=0, return_inverse=True,
                                        return_counts=True)
            counts = cnt[inverse]
        i = int(np.argmax(counts))
        ratio = counts[i] * float(A.alg.radix) ** (k * s) / n
        if ratio > best_C:
            best_C = ratio
            worst = (i, k, int(counts[i]))
    i, k, cnt = worst
    return NCReport(best_C <= C, s, C, tuple(int(v) for v in A.points[i]),
                    k, cnt, best_C)


# ---------------------------------------------------------------------------
# neighborhoods and ball removal

def neighborhood(A: DSet, k: int) -> DSet:
    """All grid points within radix^-k of the set (linf boxes / p-adic cells)."""
    if k > A.scale_exp:
        raise ScaleOutOfRange(f"k={k} beyond scale_exp {A.scale_exp}")
    if len(A) == 0:
        return A
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
    reps = np.unique(A.points % step, axis=0)
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
        # express center in the set's units
        vals = al.value_coords(alg, center)
        cu = np.array([al.round_half_away(v.numerator * 2 ** A.scale_exp,
                                          v.denominator) for v in vals],
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

def _radix_class(count: int, radix: int) -> int:
    cls = 0
    while count >= radix:
        count //= radix
        cls += 1
    return cls


def uniform_subset(A: DSet, T: int = 1) -> DSet:
    """Refine A so all nonempty cells at every stage scale carry counts in a
    single radix-power class; keeps the heaviest class at each stage."""
    if len(A) == 0:
        raise EmptyInput("cannot uniformize an empty set")
    if T < 1:
        raise ParameterRangeError("stage size T must be >= 1")
    radix = A.alg.radix
    keep = np.ones(len(A), dtype=bool)
    scales = list(range(A.scale_exp - T, -1, -T))
    if scales and scales[-1] != 0:
        scales.append(0)
    for k in scales:
        idx = np.flatnonzero(keep)
        if len(idx) == 0:
            break
        ids = cell_ids(DSet(A.alg, A.scale_exp, A.radius_exp, A.points[idx]), k)
        _, inverse, counts = np.unique(ids, axis=0, return_inverse=True,
                                       return_counts=True)
        # class of a cell: floor(log_radix(count)), exact integer arithmetic
        classes = np.array([_radix_class(int(c), radix) for c in counts])
        mass = {}
        for cls, cnt in zip(classes, counts):
            mass[cls] = mass.get(cls, 0) + int(cnt)
        best = max(sorted(mass), key=lambda c: (mass[c], c))
        cell_keep = classes[inverse] == best
        keep[idx[~cell_keep]] = False
    return DSet(A.alg, A.scale_exp, A.radius_exp, A.points[keep])


def uniformity_audit(A: DSet, T: int = 1):
    """Max/min nonempty cell-count ratio at every stage scale; uniform sets
    satisfy ratio <= radix^T everywhere."""
    radix = A.alg.radix
    out = {}
    scales = list(range(A.scale_exp - T, -1, -T))
    if scales and scales[-1] != 0:
        scales.append(0)
    for k in scales:
        counts = _row_counts(cell_ids(A, k))
        out[k] = (int(counts.max()), int(counts.min()),
                  counts.max() / counts.min() <= radix ** T)
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
    lines = [head]
    lines.extend(str(c) for c in extra_comments)
    for row in rows:
        lines.append(" ".join(str(int(v)) for v in row))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def write_dset(A: DSet, path: str, extra_comments=()) -> None:
    _write_rows(path, A.alg, A.scale_exp, A.radius_exp, A.points, extra_comments)


def _read_rows(path: str, alg: AlgebraDescriptor | None, per_row: int):
    """Read a dlab file with per_row * d integers on each data row; returns
    (alg, scale_exp, radius_exp, rows).  The algebra comes from the header
    unless one is given; a v2 header also carries the defining polynomial of
    a Qp_ext algebra, a v1 header leaves it at the default.  An empty file, a
    bad header and a row that is not per_row * d integers raise
    ParameterRangeError naming the path and line."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
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
                alg = al.make_algebra(al._real_kind(d), m=m)
            else:
                alg = al.make_algebra("Qp" if d == 1 else "Qp_ext",
                                      p=int(kv["p"]), d=d, m=m, poly=poly)
                if poly is not None and alg.poly != poly:
                    raise ValueError(f"poly {poly} is not monic with "
                                     f"coefficients reduced mod {alg.p}")
    except (KeyError, ValueError, DlabError) as e:
        raise ParameterRangeError(
            f"{path}:{no}: bad dlab header {head!r}: {e!r}") from None
    width = per_row * alg.d
    rows = []
    for no, ln in lines[1:]:
        if ln.startswith("#"):
            continue
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            raise ParameterRangeError(
                f"{path}:{no}: non-integer coordinate in {ln!r}") from None
        if len(row) != width:
            raise ParameterRangeError(
                f"{path}:{no}: {len(row)} coordinates, expected {width}")
        rows.append(row)
    return alg, m, rexp, rows


def read_dset(path: str, alg: AlgebraDescriptor | None = None) -> DSet:
    alg, m, rexp, rows = _read_rows(path, alg, 1)
    return make_dset(alg, rows, scale_exp=m, radius_exp=rexp)
