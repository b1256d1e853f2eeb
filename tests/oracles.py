"""Reference functions the tests check dlab's kernels against: an exact
algebra product, a determinant over Fractions, the halving maps of the
dichotomy and the dyadic induction of its dense case.  No dlab module calls
them."""

from fractions import Fraction

import numpy as np

from dlab import algebra as al
from dlab.algebra import Element
from dlab.dset import DSet, _row_lookup, pass_rows
from dlab.errors import NotRealBase, ParameterRangeError
from dlab.structure import _basis_rows, _image_dtype, _near_rows


def mul_exact(alg, x: Element, y: Element) -> Element:
    """Product kept at combined precision (no grid rounding; real base only
    differs from al.mul)."""
    raw = al._vec_mul(alg, x.coords, y.coords)
    if alg.is_real_base:
        return Element(tuple(raw), x.unit_exp + y.unit_exp)
    return al._canonical(alg, raw, x.unit_exp + y.unit_exp)


def det_fraction(mat):
    """Exact determinant of a square matrix of Fractions by Gaussian
    elimination."""
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        invp = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * invp
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def halving_map(alg, v: list, ibits, x: Element) -> Element:
    """f_i(x) = sum_j ((x_j + i_j)/2) v_j in coordinates relative to the
    basis v, that is (x + sum_{i_j=1} v_j) / 2, snapped to the grid."""
    if not alg.is_real_base:
        raise NotRealBase("halving maps require the real base")
    if len(v) != alg.d or al.det_basis(alg, v) == 0:
        raise ParameterRangeError("v is not a basis")
    img, _ = halving_value(alg, v, ibits, al.value_coords(alg, x))
    return al.from_value_coords(alg, img)


def halving_value(alg, v, ibits, xvals):
    """f_i on exact value coordinates: (x + sum_{i_j=1} v_j) / 2."""
    shift = (Fraction(0),) * alg.d
    for j, b in enumerate(ibits):
        if b:
            shift = tuple(s + c for s, c in zip(shift, al.value_coords(alg, v[j])))
    return tuple((x + s) / 2 for x, s in zip(xvals, shift)), shift


def dyadic_induction(Q: DSet, v: list, n: int = 4):
    """Constructive dense-case content: level-by-level membership of the
    dyadic-rational points sum_j v_j k_j 2^-level within Delta of Q, as
    integer rows sum_j k_j B[j] over 2^(level + e) (_basis_rows) in passes
    of pass_rows(1) points: _near_rows looks the 3^d neighbour offsets up one
    after another, so a pass holds its points, not points x offsets."""
    alg = Q.alg
    if not alg.is_real_base:
        raise NotRealBase("dyadic induction applies to the real base")
    if n > 6:
        raise ParameterRangeError("induction depth capped at 6")
    d = alg.d
    e, B = _basis_rows(Q, v[:d])
    lookup = _row_lookup(Q.points)
    step = pass_rows(1)
    report = {}
    for level in range(n + 1):
        side = 2 ** level + 1
        dt = _image_dtype(Q, 2 ** level * sum(max(map(abs, b)) for b in B))
        hits = 0
        for lo in range(0, side ** d, step):
            idx = np.arange(lo, min(lo + step, side ** d))
            ks = np.stack(np.unravel_index(idx, (side,) * d), axis=1).astype(dt)
            near = _near_rows(Q, ks @ np.array(B, dtype=dt), 2 ** (level + e), lookup)
            hits += int(near.sum())
        report[level] = (hits, side ** d)
    return report
