"""Exact arithmetic over R, C, H and unramified p-adic extensions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab.errors import (
    DivisionByNegligible,
    NonPrime,
    ReduciblePoly,
    UnsupportedRealDim,
)

from oracles import mul_exact


# --- construction -----------------------------------------------------------

def test_real_kinds_and_dims():
    for spec, d in (("R", 1), ("C", 2), ("H", 4)):
        alg = al.make_algebra(spec, m=4)
        assert alg.d == d and alg.is_real_base


def test_unsupported_real_dim():
    with pytest.raises(UnsupportedRealDim):
        al.make_algebra("O", m=4)


def test_nonprime_p_rejected():
    with pytest.raises(NonPrime):
        al.make_algebra("Qp", p=6, d=1, m=3)


def test_reducible_poly_rejected():
    # x^2 - 1 factors mod 3
    with pytest.raises(ReduciblePoly):
        al.make_algebra("Qp_ext", p=3, d=2, m=3, poly=(-1, 0, 1))


def test_quaternion_table():
    H = al.make_algebra("H", m=4)
    i = al.basis_element(H, 1)
    j = al.basis_element(H, 2)
    k = al.basis_element(H, 3)
    assert al.mul(H, i, j).coords == k.coords
    assert al.mul(H, j, i).coords == al.neg(H, k).coords
    assert al.mul(H, i, i).coords == al.neg(H, al.one(H)).coords


def test_padic_ext_identity_and_associativity_checked_at_build():
    # make_algebra raises if the synthesized table is not associative
    alg = al.make_algebra("Qp_ext", p=2, d=3, m=3)
    assert alg.d == 3 and alg.p == 2


# --- canonical form and values ----------------------------------------------

def test_padic_canonical_strips_common_p():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    e = al.element(Q3, (9,), unit_exp=2)  # 9/9 = 1
    assert e.coords == (1,) and e.unit_exp == 0


def test_value_roundtrip_real():
    C = al.make_algebra("C", m=5)
    x = al.element(C, (7, -13))
    vals = al.value_coords(C, x)
    assert al.from_value_coords(C, vals).coords == x.coords


def test_value_roundtrip_padic_with_denominator():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    x = al.from_value_coords(Q3, (Fraction(1, 2),))
    # 2 * x == 1 mod 3^4
    two = al.element(Q3, (2,))
    assert al.mul(Q3, two, x).coords == (1,)


# --- inversion --------------------------------------------------------------

def test_complex_inverse_of_i():
    C = al.make_algebra("C", m=6)
    i = al.basis_element(C, 1)
    inv = al.inv(C, i)
    assert al.value_coords(C, inv) == (Fraction(0), Fraction(-1))


def test_padic_inverse_exact():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    x = al.element(Q3, (2,))
    assert al.mul(Q3, x, al.inv(Q3, x)).coords == (1,)


def test_inverse_below_floor_raises():
    C = al.make_algebra("C", m=6)
    tiny = al.element(C, (1, 0))  # norm 2^-6 < 2^-3 floor
    with pytest.raises(DivisionByNegligible):
        al.inv(C, tiny)


_ALGEBRAS = [("R", None, None, None), ("C", None, None, None), ("H", None, None, None),
             ("Qp", 2, None, None), ("Qp", 3, None, None), ("Qp", 7, None, None),
             ("Qp_ext", 2, 2, None), ("Qp_ext", 3, 2, None), ("Qp_ext", 3, 2, (2, 1, 1)),
             ("Qp_ext", 5, 2, None), ("Qp_ext", 2, 3, None), ("Qp_ext", 3, 3, None),
             ("Qp_ext", 2, 4, None)]


@settings(max_examples=120, deadline=None)
@given(hst.sampled_from(_ALGEBRAS), hst.integers(1, 12), hst.data())
def test_int_inverse_is_exact(spec, m, data):
    """num / den is an exact right inverse of w in lowest terms with den > 0,
    for every kind of algebra make_algebra builds; w = 0 raises."""
    name, p, d, poly = spec
    alg = al.make_algebra(name, p=p, d=d, m=m, poly=poly)
    big = data.draw(hst.sampled_from([3, 2 ** 12, 2 ** 40]))
    w = data.draw(hst.lists(hst.integers(-big, big), min_size=alg.d,
                            max_size=alg.d).filter(any))
    num, den = al._int_inverse(alg, w)
    assert den > 0 and math.gcd(den, *num) == 1
    one = (Fraction(1),) + (Fraction(0),) * (alg.d - 1)
    assert al._vec_mul(alg, [Fraction(c) for c in w],
                       [Fraction(c, den) for c in num]) == one
    with pytest.raises(DivisionByNegligible, match="zero divisor"):
        al._int_inverse(alg, [0] * alg.d)


def test_int_inverse_is_conjugate_over_norm():
    C = al.make_algebra("C", m=4)
    assert al._int_inverse(C, (3, 4)) == ((3, -4), 25)
    assert al._int_inverse(C, (2, 2)) == ((1, -1), 4)
    H = al.make_algebra("H", m=4)
    assert al._int_inverse(H, (1, 2, 3, 4)) == ((1, -2, -3, -4), 30)
    assert al._int_inverse(H, (0, 0, 0, -6)) == ((0, 0, 0, 1), 6)


def test_int_inverse_raises_on_zero_divisor():
    # split-complex numbers: (1 + j)(1 - j) = 0
    split = al.AlgebraDescriptor(al.REAL, None, 2, 4, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    with pytest.raises(DivisionByNegligible, match="difference is a zero divisor"):
        al._int_inverse(split, (1, 1))
    assert al._int_inverse(split, (2, 1)) == ((2, -1), 3)


def _cramer(mat, rhs):
    """mat^-1 rhs over Fractions by Cramer's rule on al.det_fraction; None
    when mat is singular."""
    det = al.det_fraction(mat)
    return None if det == 0 else [
        al.det_fraction([r[:j] + [b] + r[j + 1:] for r, b in zip(mat, rhs)]) / det
        for j in range(len(mat))]


def _fraction_inv(alg, x):
    """al.inv with the inverse solved over Fractions by Cramer's rule."""
    vals = al.value_coords(alg, x)
    d = alg.d
    mat = [[sum(vals[i] * alg.structure_constants[i][j][k] for i in range(d))
            for j in range(d)] for k in range(d)]
    sol = _cramer(mat, [1] + [0] * (d - 1))
    if alg.is_real_base:
        return al.from_value_coords(alg, sol)
    e = al.norm_exp(alg, x)
    return al.from_value_coords(alg, sol, padic_precision=alg.m - 2 * max(e, 0))


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(_ALGEBRAS), hst.integers(2, 10), hst.data())
def test_inv_equals_fraction_elimination(spec, m, data):
    name, p, d, poly = spec
    alg = al.make_algebra(name, p=p, d=d, m=m, poly=poly)
    top = alg.radix ** (m + 1)
    coords = data.draw(hst.lists(hst.integers(-top, top), min_size=alg.d,
                                 max_size=alg.d))
    x = al.element(alg, coords, data.draw(hst.integers(0, m)))
    try:
        got = al.inv(alg, x)
    except DivisionByNegligible:    # below the inversion floor
        return
    assert got == _fraction_inv(alg, x)


# --- norms ------------------------------------------------------------------

def test_real_norm_sq_exact():
    C = al.make_algebra("C", m=4)
    x = al.element(C, (3, 4))
    assert al.norm_sq(C, x) == Fraction(25, 256)


def test_padic_norm_exp():
    Q2 = al.make_algebra("Qp", p=2, m=5)
    assert al.norm_exp(Q2, al.element(Q2, (12,))) == 2  # |12|_2 = 1/4
    assert al.norm_exp(Q2, al.zero(Q2)) is None


@settings(max_examples=60)
@given(hst.integers(-200, 200), hst.integers(-200, 200),
       hst.integers(-200, 200), hst.integers(-200, 200))
def test_real_norm_multiplicative_before_rounding(a, b, c, d):
    """|xy| = |x||y| for the exact (unrounded) quaternion-free product."""
    C = al.make_algebra("C", m=6)
    x = al.element(C, (a, b))
    y = al.element(C, (c, d))
    prod = mul_exact(C, x, y)
    assert al.norm_sq(C, prod) == al.norm_sq(C, x) * al.norm_sq(C, y)


@settings(max_examples=60)
@given(hst.integers(0, 3 ** 5 - 1), hst.integers(0, 3 ** 5 - 1))
def test_padic_ultrametric(a, b):
    Q3 = al.make_algebra("Qp", p=3, m=5)
    x, y = al.element(Q3, (a,)), al.element(Q3, (b,))
    s = al.add(Q3, x, y)
    es = al.norm_exp(Q3, s)
    ex, ey = al.norm_exp(Q3, x), al.norm_exp(Q3, y)
    vals = [v for v in (ex, ey) if v is not None]
    if es is not None and vals:
        assert es >= min(vals)


# --- determinants -----------------------------------------------------------

def test_det_basis_real_identity():
    C = al.make_algebra("C", m=4)
    basis = [al.one(C), al.basis_element(C, 1)]
    assert abs(al.det_basis(C, basis)) == 1


def test_det_basis_padic():
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=3)
    basis = [al.one(Q9), al.basis_element(Q9, 1)]
    assert al.det_basis(Q9, basis) == 1


def test_round_half_away():
    assert al.round_half_away(3, 2) == 2
    assert al.round_half_away(-3, 2) == -2
    assert al.round_half_away(5, 2) == 3
    assert al.round_half_away(1, 3) == 0
