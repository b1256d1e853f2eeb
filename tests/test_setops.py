"""Set calculus: sums, products, projections, quotients, linear maps."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import setops as so
from dlab.dset import DSet, make_dset
from dlab.errors import (
    BudgetExceeded,
    NoAdmissiblePairs,
    ParameterRangeError,
    ScaleMismatch,
    SingularMap,
)


def _ap(m, n, step=1):
    R = al.make_algebra("R", m=m)
    return make_dset(R, [(i * step,) for i in range(n)])


# --- sums and differences ---------------------------------------------------

def test_sum_with_zero_is_identity_on_points():
    A = _ap(5, 7)
    Z = make_dset(A.alg, [(0,)])
    S = so.sumset(A, Z)
    assert np.array_equal(S.points, A.points)


def test_ap_sumset_size():
    for n in (3, 8, 17):
        A = _ap(6, n)
        assert len(so.sumset(A, A)) == 2 * n - 1
        assert len(so.difference_set(A, A)) == 2 * n - 1


def test_difference_contains_zero():
    A = _ap(5, 4, step=3)
    D = so.difference_set(A, A)
    assert (0,) in {tuple(p) for p in D.points}


def test_scale_mismatch_rejected():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,)], scale_exp=5)
    B = make_dset(R, [(0,)], scale_exp=4)
    with pytest.raises(ScaleMismatch):
        so.sumset(A, B)


def test_fft_sumset_matches_pairwise_real_2d():
    C = al.make_algebra("C", m=5)
    import random
    rnd = random.Random(7)
    A = make_dset(C, [(rnd.randrange(32), rnd.randrange(32)) for _ in range(50)])
    B = make_dset(C, [(rnd.randrange(32), rnd.randrange(32)) for _ in range(50)])
    direct = so.sumset(A, B)
    cap = so.PAIRWISE_CAP
    try:
        so.PAIRWISE_CAP = 0
        fft = so.sumset(A, B)
    finally:
        so.PAIRWISE_CAP = cap
    assert fft == direct


def test_fft_sumset_matches_pairwise_padic():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    A = make_dset(Q3, [(i * 7 % 81,) for i in range(20)])
    direct = so.sumset(A, A)
    cap = so.PAIRWISE_CAP
    try:
        so.PAIRWISE_CAP = 0
        fft = so.sumset(A, A)
    finally:
        so.PAIRWISE_CAP = cap
    assert fft == direct


@settings(max_examples=40)
@given(hst.sets(hst.integers(0, 31), min_size=1, max_size=12),
       hst.sets(hst.integers(0, 31), min_size=1, max_size=12))
def test_sumset_at_least_max_padic(p1, p2):
    Q2 = al.make_algebra("Qp", p=2, m=5)
    A = make_dset(Q2, [(i,) for i in p1])
    B = make_dset(Q2, [(i,) for i in p2])
    assert len(so.sumset(A, B)) >= max(len(A), len(B))


# --- products ---------------------------------------------------------------

def test_product_with_one():
    A = _ap(6, 9)
    one = make_dset(A.alg, [(64,)])
    P = so.product_set(A, one, "Left")
    assert {tuple(p) for p in P.points} == {tuple(p) for p in A.points}


def test_quaternion_sides_differ():
    H = al.make_algebra("H", m=4)
    n = 16
    I = make_dset(H, [(0, n, 0, 0)])
    J = make_dset(H, [(0, 0, n, 0)])
    left = so.product_set(I, J, "Left")    # ij = k
    right = so.product_set(I, J, "Right")  # ji = -k
    assert tuple(left.points[0]) == (0, 0, 0, n)
    assert tuple(right.points[0]) == (0, 0, 0, -n)


def test_multiplication_table_m4():
    # |{1..4} x {1..4}| = 9 distinct products at fine enough scale
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(k * 8,) for k in (1, 2, 3, 4)])  # values k/8, products exact
    P = so.product_set(A, A, "Left")
    assert len(P) == 9


# --- scalar images and projections ------------------------------------------

def test_scalar_one_and_zero():
    A = _ap(5, 6)
    alg = A.alg
    assert so.scalar_image(al.one(alg), A).points.tolist() == A.points.tolist()
    Z = so.scalar_image(al.zero(alg), A)
    assert Z.points.tolist() == [[0]]


def test_scalar_i_rotates_preserving_count():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(k, 0) for k in range(9)])
    i = al.basis_element(C, 1)
    B = so.scalar_image(i, A, "Left")
    assert len(B) == len(A)
    assert all(p[0] == 0 for p in B.points)


def test_project_zero_is_first_coordinate():
    C = al.make_algebra("C", m=4)
    G = so.make_pairset(C, [(1, 2, 3, 4), (5, 6, 7, 8)])
    P = so.project(al.zero(C), G)
    assert sorted(map(tuple, P.points.tolist())) == [(1, 2), (5, 6)]


def test_project_product_pairs_is_sumset_of_scaled():
    C = al.make_algebra("C", m=5)
    import random
    rnd = random.Random(3)
    A = make_dset(C, [(rnd.randrange(32), rnd.randrange(32)) for _ in range(8)])
    B = make_dset(C, [(rnd.randrange(32), rnd.randrange(32)) for _ in range(8)])
    x = al.element(C, (13, 22))
    lhs = so.project(x, so.product_pairs(A, B))
    rhs = so.sumset(A, so.scalar_image(x, B, "Left"))
    assert {tuple(p) for p in lhs.points} == {tuple(p) for p in rhs.points}


# --- iterated expressions ---------------------------------------------------

def test_iterated_basic_shapes():
    A = _ap(5, 2)  # {0, delta}
    I = so.iterated(A, 1, 1)
    assert sorted(int(p[0]) for p in I.points) == [-1, 0, 1]
    I2 = so.iterated(A, 2, 1)
    assert sorted(int(p[0]) for p in I2.points) == [-2, -1, 0, 1, 2]


def test_iterated_matches_naive_composition():
    C = al.make_algebra("C", m=5)
    import random
    rnd = random.Random(11)
    A = make_dset(C, [(rnd.randrange(-16, 17), rnd.randrange(-16, 17))
                      for _ in range(10)])
    got = so.iterated(A, 2, 2, clip=True)
    P = so.product_set(A, A, "Left")
    D = so.difference_set(P, P)
    S = so.sumset(D, D)
    want = so.ball_intersect(S, 0)
    assert got == want


def test_iterated_stays_in_ball():
    A = _ap(4, 17)
    I = so.iterated(A, 3, 1)
    assert all(abs(int(p[0])) <= 16 for p in I.points)


def test_iterated_budget_guard(monkeypatch):
    monkeypatch.setenv("DLAB_BUDGET_POINTS", "10")
    A = _ap(6, 30)
    with pytest.raises(BudgetExceeded):
        so.iterated(A, 2, 2)


# --- quotient sets ----------------------------------------------------------

def test_quotient_two_point_set():
    R = al.make_algebra("R", m=7)
    A = make_dset(R, [(0,), (64,)])  # {0, 1/2}
    Q = so.quotient_set(A, 2)
    vals = sorted(Fraction(int(p[0]), 2 ** Q.scale_exp) for p in Q.points)
    assert vals == [Fraction(-1), Fraction(0), Fraction(1)]


def test_quotient_contains_zero_and_one():
    R = al.make_algebra("R", m=7)
    A = make_dset(R, [(0,), (40,), (90,)])
    Q = so.quotient_set(A, 2)
    vals = {Fraction(int(p[0]), 2 ** Q.scale_exp) for p in Q.points}
    assert Fraction(0) in vals and Fraction(1) in vals


def test_quotient_no_admissible_pairs():
    R = al.make_algebra("R", m=7)
    A = make_dset(R, [(0,), (1,)])  # diff = delta << rho
    with pytest.raises(NoAdmissiblePairs):
        so.quotient_set(A, 2)


def test_quotient_matches_bruteforce_cells():
    """Delta-cell support of the quotient set equals the four-loop oracle."""
    import random
    rnd = random.Random(23)
    R = al.make_algebra("R", m=9)
    pts = sorted(rnd.sample(range(0, 513), 17))
    A = make_dset(R, [(i,) for i in pts])
    rho_exp = 2
    Q = so.quotient_set(A, rho_exp)
    delta_q = Fraction(1, 2 ** Q.scale_exp)
    cells = set()
    for a, b, c, d in itertools.product(pts, repeat=4):
        if abs(c - d) * Fraction(1, 512) > Fraction(1, 4):
            v = Fraction(a - b, c - d)
            cells.add(al.round_half_away(v.numerator * 2 ** Q.scale_exp,
                                         v.denominator))
    assert {int(p[0]) for p in Q.points} == cells


def test_quotient_sides_agree_commutative():
    import random
    rnd = random.Random(5)
    R = al.make_algebra("R", m=8)
    A = make_dset(R, [(rnd.randrange(257),) for _ in range(9)])
    assert so.quotient_set(A, 2, "Left") == so.quotient_set(A, 2, "Right")


def test_quotient_witnesses_reproduce_cells():
    R = al.make_algebra("R", m=8)
    A = make_dset(R, [(0,), (64,), (128,), (200,)])
    Q, wit = so.quotient_set(A, 2, with_witnesses=True)
    for cell, (a, b, c, d) in wit.items():
        num = a[0] - b[0]
        den = c[0] - d[0]
        v = Fraction(num, den)
        snapped = al.round_half_away(v.numerator * 2 ** Q.scale_exp, v.denominator)
        assert snapped == cell[0]


# --- linear maps ------------------------------------------------------------

def _complex_L(alg, entries):
    unit = alg.m
    return tuple(tuple(al.element(alg, e, unit_exp=unit) for e in row)
                 for row in entries)


def test_linmap_identity_fixes_pairs():
    C = al.make_algebra("C", m=5)
    G = so.make_pairset(C, [(3, 4, 5, 6), (0, 0, 32, 0)])
    L = _complex_L(C, (((32, 0), (0, 0)), ((0, 0), (32, 0))))
    H = so.apply_linear_map(L, G)
    assert {tuple(r) for r in H.pairs} == {tuple(r) for r in G.pairs}


def test_linmap_swap_swaps_coordinates():
    C = al.make_algebra("C", m=5)
    G = so.make_pairset(C, [(3, 4, 5, 6)])
    L = _complex_L(C, (((0, 0), (32, 0)), ((32, 0), (0, 0))))
    H = so.apply_linear_map(L, G)
    assert tuple(H.pairs[0]) == (5, 6, 3, 4)


def test_linmap_singular_rejected():
    C = al.make_algebra("C", m=5)
    G = so.make_pairset(C, [(1, 0, 0, 1)])
    one = al.element(C, (32, 0), unit_exp=5)
    L = ((one, one), (one, one))
    with pytest.raises(SingularMap):
        so.apply_linear_map(L, G)


def test_dual_of_swap_inverts_direction():
    C = al.make_algebra("C", m=6)
    L = _complex_L(C, (((0, 0), (64, 0)), ((64, 0), (0, 0))))
    X = make_dset(C, [(0, 64)])  # {i}
    Y = so.apply_dual(L, X)
    assert tuple(Y.points[0]) == (0, -64)  # i^-1 = -i


def test_dual_transport_matches_projection_counts():
    """After mapping (1,x1)->(1,0), the x1-projection becomes the abscissa."""
    C = al.make_algebra("C", m=5)
    n = 32
    # x1 = 1 + i: grid-exact products, so no rounding ties across the two
    # evaluation orders
    x1 = al.element(C, (n, n), unit_exp=5)
    one = al.element(C, (n, 0), unit_exp=5)
    zero = al.element(C, (0, 0), unit_exp=5)
    # the map (a, b) -> (a + x1 b, b): pi_0 afterwards equals pi_{x1} before
    L = ((one, x1), (zero, one))
    import random
    rnd = random.Random(9)
    G = so.make_pairset(C, [(rnd.randrange(16), rnd.randrange(16),
                             rnd.randrange(16), rnd.randrange(16))
                            for _ in range(12)])
    H = so.apply_linear_map(L, G)
    before = so.project(x1, G)
    after = so.project(al.zero(C), H)
    assert {tuple(p) for p in after.points} == {tuple(p) for p in before.points}


# --- pairset IO -------------------------------------------------------------

def test_pairset_roundtrip(tmp_path):
    C = al.make_algebra("C", m=4)
    G = so.make_pairset(C, [(1, 2, 3, 4), (-5, 6, -7, 8)])
    path = tmp_path / "g.pairs"
    so.write_pairset(G, str(path))
    H = so.read_pairset(str(path))
    assert H == G


def _ball_intersect_oracle(A, radius_exp):
    """ball_intersect's real-base object-dtype path."""
    bound = 4 ** (A.scale_exp + radius_exp)
    keep = np.array([int(np.dot(row.astype(object), row.astype(object))) <= bound
                     for row in A.points])
    return A.points[keep]


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(["R", "C", "H"]), hst.sampled_from([4, 31]),
       hst.integers(-1, 1), hst.data())
def test_ball_intersect_equals_object_path(spec, scale, radius_exp, data):
    alg = al.make_algebra(spec, m=4)
    big = 2 ** scale + 2 ** (scale - 1)  # scale 31: past 2^31.5, forces the fallback
    rows = data.draw(hst.lists(hst.lists(hst.integers(-big, big), min_size=alg.d,
                                         max_size=alg.d), min_size=1, max_size=25))
    A = DSet(alg, scale, 1, np.array(rows, dtype=np.int64))
    got = so.ball_intersect(A, radius_exp)
    assert got.radius_exp == radius_exp
    assert np.array_equal(got.points, _ball_intersect_oracle(A, radius_exp))

