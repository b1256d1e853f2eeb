"""Reference functions the tests check dlab's kernels against: an exact
algebra product, the float distance to a sub-algebra and the halving maps
of the dichotomy.  No dlab module calls them."""

import math
from fractions import Fraction

from dlab import algebra as al
from dlab import structure as st
from dlab.algebra import Element
from dlab.errors import NotRealBase, ParameterRangeError


def mul_exact(alg, x: Element, y: Element) -> Element:
    """Product kept at combined precision (no grid rounding; real base only
    differs from al.mul)."""
    raw = al._vec_mul(alg, x.coords, y.coords)
    if alg.is_real_base:
        return Element(tuple(raw), x.unit_exp + y.unit_exp)
    return al._canonical(alg, raw, x.unit_exp + y.unit_exp)


def distance_to_subalgebra(alg, a: Element, member) -> float:
    v = st.distance_sq_or_exact(alg, a, member)
    return math.sqrt(float(v)) if alg.is_real_base else float(v)


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
