"""Set calculus: sums, products, projections, quotients, linear maps."""

import itertools
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import setops as so
from dlab.dset import DSet, make_dset
from dlab.errors import (
    BudgetExceeded,
    DivisionByNegligible,
    DlabError,
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


# --- products whose raw coordinates pass int64 -------------------------------

def _wide_elements(alg, rnd, n):
    """n random Elements with coordinates over the whole grid at scale m."""
    hi = 2 ** alg.m if alg.is_real_base else alg.p ** alg.m
    lo = -hi if alg.is_real_base else 0
    return [al.element(alg, [rnd.randrange(lo, hi) for _ in range(alg.d)])
            for _ in range(n)]


def _points(alg, elems):
    return make_dset(alg, [e.coords for e in elems]).points


@pytest.mark.parametrize("kind,p,d,m", [("Qp", 5, None, 14), ("Qp_ext", 3, 2, 20),
                                        ("H", None, None, 31)])
def test_product_set_past_int64_equals_element_mul(kind, p, d, m):
    """Raw products of these grids pass 2^63; every product is al.mul."""
    alg = al.make_algebra(kind, p=p, d=d, m=m)
    rnd = random.Random(m)
    for _ in range(3):
        a, b = _wide_elements(alg, rnd, 6), _wide_elements(alg, rnd, 5)
        A, B = make_dset(alg, [e.coords for e in a]), make_dset(alg, [e.coords for e in b])
        for side in ("Left", "Right"):
            want = [al.mul(alg, u, v) if side == "Left" else al.mul(alg, v, u)
                    for u in a for v in b]
            assert np.array_equal(so.product_set(A, B, side).points,
                                  _points(alg, want))


@pytest.mark.parametrize("kind,p,d,m", [("Qp", 5, None, 14), ("Qp_ext", 3, 2, 20),
                                        ("H", None, None, 31), ("Qp", 3, None, 25)])
def test_scalar_image_and_project_past_int64_equal_element_mul(kind, p, d, m):
    alg = al.make_algebra(kind, p=p, d=d, m=m)
    rnd = random.Random(m)
    for _ in range(5):
        a, b = _wide_elements(alg, rnd, 6), _wide_elements(alg, rnd, 5)
        A = make_dset(alg, [e.coords for e in a])
        x = _wide_elements(alg, rnd, 1)[0]
        for side in ("Left", "Right"):
            want = [al.mul(alg, x, u) if side == "Left" else al.mul(alg, u, x)
                    for u in a]
            assert np.array_equal(so.scalar_image(x, A, side).points,
                                  _points(alg, want))
        G = so.make_pairset(alg, [u.coords + v.coords for u in a for v in b])
        want = [al.add(alg, u, al.mul(alg, x, v)) for u in a for v in b]
        assert np.array_equal(so.project(x, G).points, _points(alg, want))


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
    with pytest.raises(NoAdmissiblePairs):
        so.quotient_set(make_dset(R, []), 2)


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


# --- quotient-set oracle ----------------------------------------------------

def _loop_inverse(alg, vals):
    """x^-1 from value coordinates by Gaussian elimination over Fractions."""
    d = alg.d
    mat = [[sum(vals[i] * alg.structure_constants[i][j][k] for i in range(d))
            for j in range(d)] for k in range(d)]
    sol = al._solve_fraction(mat, [Fraction(1)] + [Fraction(0)] * (d - 1))
    if sol is None:
        raise DivisionByNegligible("difference is a zero divisor")
    return tuple(sol)


def _loop_quotient_set(A, rho_exp, side="Left"):
    """quotient_set(..., with_witnesses=True) as a Fraction double loop over
    (difference, denominator) pairs, keeping the lex-smallest witness."""
    alg = A.alg
    m = A.scale_exp
    if not (0 < rho_exp and m - 3 * rho_exp >= 1):
        raise ParameterRangeError("need 0 < rho_exp < m/3 so Delta is a scale")
    scale_out = m - 3 * rho_exp
    radius_out = A.radius_exp + rho_exp + (1 if alg.is_real_base else 0)
    elems = sorted(A.elements(), key=lambda e: e.coords)
    diffs = {}
    for a in elems:
        for b in elems:
            dv = tuple(x - y for x, y in zip(al.value_coords(alg, a),
                                             al.value_coords(alg, b)))
            diffs.setdefault(dv, (a, b))
    dens = {dv: w for dv, w in diffs.items() if so._value_norm_gt(alg, dv, rho_exp)}
    if not dens:
        raise NoAdmissiblePairs("all pairwise differences are <= rho")
    if len(diffs) * len(dens) > so.point_budget():
        raise BudgetExceeded("quotient set too large",
                             {"pairs": len(diffs) * len(dens)})
    den_list = [(dens[ev], _loop_inverse(alg, ev))
                for ev in sorted(dens, key=lambda v: dens[v][0].coords + dens[v][1].coords)]
    cells = {}
    for dv in sorted(diffs, key=lambda v: diffs[v][0].coords + diffs[v][1].coords):
        wa, wb = diffs[dv]
        for (wc, wd), inv_ev in den_list:
            if side == "Left":
                q = so.mul_value_coords(alg, dv, inv_ev)
            else:
                q = so.mul_value_coords(alg, inv_ev, dv)
            cell = so._value_to_grid(alg, q, scale_out, radius_out)
            key = (wa.coords, wb.coords, wc.coords, wd.coords)
            if cell not in cells or key < cells[cell]:
                cells[cell] = key
    Q = DSet(alg, scale_out, radius_out, np.array(sorted(cells), dtype=np.int64))
    return Q, {tuple(int(v) for v in c): cells[c] for c in cells}


def _outcome(f):
    try:
        return f()
    except DlabError as e:
        return type(e)


_QUOTIENT_ALGEBRAS = [("R", None, None), ("C", None, None), ("H", None, None),
                      ("Qp", 2, None), ("Qp", 3, None), ("Qp", 5, None),
                      ("Qp_ext", 2, 2), ("Qp_ext", 3, 2), ("Qp_ext", 2, 3)]


def _quotient_input(data, name, p, d):
    """A small set: scale off alg.m, radius 0..2, p-adic rows that may all be
    divisible by p, sometimes a progression (repeated differences)."""
    m = data.draw(hst.integers(4, 8), label="m")
    alg = al.make_algebra(name, p=p, d=d, m=m)
    scale = data.draw(hst.integers(max(4, m - 1), m + 1), label="scale")
    radius = data.draw(hst.integers(0, 2), label="radius")
    top = alg.radix ** (scale + radius)
    if alg.is_real_base:
        coord = hst.integers(-top, top)
    else:
        step = data.draw(hst.sampled_from([1, p]), label="step")
        coord = hst.integers(0, top // step - 1).map(lambda c: c * step)
    rows = data.draw(hst.lists(hst.lists(coord, min_size=alg.d, max_size=alg.d),
                               min_size=2, max_size=6), label="rows")
    if data.draw(hst.booleans(), label="progression"):
        rows = [[c * t for c in rows[0]] for t in range(len(rows))]
    return make_dset(alg, rows, scale, radius)


@settings(max_examples=300, deadline=None)
@given(hst.sampled_from(_QUOTIENT_ALGEBRAS), hst.sampled_from(["Left", "Right"]),
       hst.data())
def test_quotient_set_equals_fraction_loop(spec, side, data):
    """Q, its scale and radius and the witness dict equal the Fraction loop's,
    or both raise the same error (a rho too large for the scale,
    NoAdmissiblePairs, BudgetExceeded), with the pairs cut into chunks of
    any size."""
    A = _quotient_input(data, *spec)
    top = (A.scale_exp - 1) // 3     # rho = top + 1 is rejected
    rho = data.draw(hst.sampled_from([*range(1, top + 1)] * 4 + [top + 1]), label="rho")
    budget = data.draw(hst.sampled_from([None, "40"]), label="budget")
    chunk = data.draw(hst.sampled_from([so.QUOTIENT_CHUNK, 1, 5]), label="chunk")
    saved_budget, saved_chunk = os.environ.get("DLAB_BUDGET_POINTS"), so.QUOTIENT_CHUNK
    try:
        if budget:
            os.environ["DLAB_BUDGET_POINTS"] = budget
        so.QUOTIENT_CHUNK = chunk
        got = _outcome(lambda: so.quotient_set(A, rho, side, with_witnesses=True))
        want = _outcome(lambda: _loop_quotient_set(A, rho, side))
    finally:
        so.QUOTIENT_CHUNK = saved_chunk
        if saved_budget is None:
            os.environ.pop("DLAB_BUDGET_POINTS", None)
        else:
            os.environ["DLAB_BUDGET_POINTS"] = saved_budget
    event(want.__name__ if isinstance(want, type) else "equal")
    if isinstance(want, type):
        assert got is want
    else:
        Q, wit = got
        assert Q == want[0] and wit == want[1]
        assert (Q.scale_exp, Q.radius_exp) == (want[0].scale_exp, want[0].radius_exp)


def test_quotient_set_tied_witness_coords():
    """p-adic elements of different unit_exp can carry equal coords, so equal
    witness quadruples tie; the loop keeps the first in its order."""
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=9)
    A = make_dset(alg, [[12322 * t, 11869 * t] for t in range(7)], 8, 1)
    coords = sorted(e.coords for e in A.elements())
    assert len(set(coords)) < len(coords)
    for chunk in (so.QUOTIENT_CHUNK, 3):
        so_chunk, so.QUOTIENT_CHUNK = so.QUOTIENT_CHUNK, chunk
        try:
            got = so.quotient_set(A, 1, "Left", with_witnesses=True)
        finally:
            so.QUOTIENT_CHUNK = so_chunk
        want = _loop_quotient_set(A, 1, "Left")
        assert got[0] == want[0] and got[1] == want[1]


def _nonfield_algebra(kind, m=5):
    """Descriptors make_algebra refuses, with zero divisors: split-complex
    numbers (real base) and Q_3[x]/(x^2)."""
    if kind == "split":
        return al.AlgebraDescriptor(al.REAL, None, 2, m,
                                    (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    return al.AlgebraDescriptor(al.PADIC, 3, 2, m,
                                al._padic_structure_constants((0, 0, 1), 3, 2, m),
                                (0, 0, 1))


@pytest.mark.parametrize("kind,rows,err", [
    ("nil", [(0, 0), (0, 1), (1, 1)], DivisionByNegligible),
    ("split", [(0, 0), (32, 32), (32, 0)], DivisionByNegligible),
    # (3 + x)^-1 = (3 - x) / 9 puts 1 / (3 + x) below the radius p^-1
    ("nil", [(0, 0), (3, 1), (1, 0)], ParameterRangeError),
])
def test_quotient_set_errors_match_fraction_loop(kind, rows, err):
    """A zero-divisor difference and a quotient below the representable
    radius raise the loop's errors (neither occurs in a division algebra)."""
    A = make_dset(_nonfield_algebra(kind), rows)
    for side in ("Left", "Right"):
        with pytest.raises(err) as got:
            so.quotient_set(A, 1, side, with_witnesses=True)
        with pytest.raises(err) as want:
            _loop_quotient_set(A, 1, side)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name,p,m,rows", [
    ("R", None, 64, [(0,), (2 ** 62 + 5,), (-(2 ** 62),), (3,)]),
    ("H", None, 30, [(2 ** 30 + 1, -(2 ** 30) + 5, 3, 2 ** 29 + 7),
                     (-(2 ** 30) + 3, 2 ** 30 - 1, -(2 ** 29) + 1, 11), (0, 0, 0, 0)]),
    ("Qp", 5, 16, [(1,), (5 ** 15 + 2,), (3 * 5 ** 10 + 7,), (5 ** 16 - 1,)]),
])
def test_quotient_set_exact_past_int64(name, p, m, rows):
    """Past the int64 bound the kernel takes Python ints and still equals the
    loop: differences past 2^63 on R at m=64, raw numerators of 2^64 on H at
    m=30, moduli past 2^31.5 (products past 2^63) on Qp p=5 at m=16."""
    alg = al.make_algebra(name, p=p, m=m)
    A = make_dset(alg, rows)
    got = so.quotient_set(A, 1, "Left", with_witnesses=True)
    want = _loop_quotient_set(A, 1, "Left")
    assert got[0] == want[0] and got[1] == want[1]


def test_quotient_set_chunks_match_single_pass():
    """More than QUOTIENT_CHUNK pairs: the chunked pass equals one pass."""
    import random
    rnd = random.Random(17)
    R = al.make_algebra("R", m=12)
    A = make_dset(R, [(c,) for c in rnd.sample(range(-4096, 4097), 40)])
    Q, wit = so.quotient_set(A, 1, with_witnesses=True)
    n_diffs = len({a - b for a in A.points[:, 0] for b in A.points[:, 0]})
    assert n_diffs * (n_diffs - 1) > so.QUOTIENT_CHUNK
    so_chunk, so.QUOTIENT_CHUNK = so.QUOTIENT_CHUNK, 1 << 30
    try:
        Q1, wit1 = so.quotient_set(A, 1, with_witnesses=True)
    finally:
        so.QUOTIENT_CHUNK = so_chunk
    assert Q == Q1 and wit == wit1
