"""Sub-algebra distances, avoidance, escape bases, dichotomy checks."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import setops as so
from dlab import structure as st
from dlab.dset import DSet, make_dset
from dlab.errors import BudgetExceeded, NotRealBase, ParameterRangeError, SubAlgebraTrapped

from oracles import det_fraction, halving_map, halving_value


# --- families and distances -------------------------------------------------

def _distance(alg, a, member):
    """The _span_distances value of one element: its exact squared distance
    (real base) or distance (p-adic base) to the span of member."""
    num, den = st._span_distances(alg, member.basis, np.array([a.coords], dtype=object),
                                  a.unit_exp)
    return Fraction(int(num[0]), den)


def test_complex_family_members():
    C = al.make_algebra("C", m=5)
    fam = st.subalgebra_family(C)
    assert [m.name for m in fam.members] == ["zero", "R"]


def test_padic_ext_family_has_prime_subfield():
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=4)
    fam = st.subalgebra_family(Q9)
    assert {m.name for m in fam.members} == {"zero", "Qp^1"}


def test_distance_member_is_zero():
    C = al.make_algebra("C", m=5)
    fam = st.subalgebra_family(C)
    R = fam.members[1]
    assert _distance(C, al.one(C), R) == 0


def test_distance_i_to_reals_is_one():
    C = al.make_algebra("C", m=5)
    R = st.subalgebra_family(C).members[1]
    assert _distance(C, al.basis_element(C, 1), R) == 1


def test_distance_diagonal_element():
    C = al.make_algebra("C", m=6)
    R = st.subalgebra_family(C).members[1]
    x = al.element(C, (45, 45))  # about (1+i)/sqrt(2) on the grid
    assert _distance(C, x, R) == Fraction(45, 64) ** 2  # exact projection leaves the i-part


def test_quaternion_net_distance():
    H = al.make_algebra("H", m=4)
    fam = st.subalgebra_family(H, net_exp=2)
    member = next(m for m in fam.members if m.name == "C[1,0,0]")
    j = al.element(H, (0, 0, 16, 0))
    assert _distance(H, j, member) == 1


def test_padic_subfield_distance_and_closure():
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=4)
    sub = next(m for m in st.subalgebra_family(Q9).members if m.name == "Qp^1")
    assert _distance(Q9, al.element(Q9, (5, 0)), sub) == 0
    assert _distance(Q9, al.basis_element(Q9, 1), sub) == 1


def test_teichmuller_lift_is_fixed_point():
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=4)
    g = st.residue_field_generator(Q9)
    t = st.teichmuller_lift(Q9, g)
    # t^(p^d) = t^9 must return t exactly at the working precision
    acc = al.one(Q9)
    for _ in range(9):
        acc = al.mul(Q9, acc, t)
    assert acc.coords == t.coords and acc.unit_exp == t.unit_exp


# --- avoidance --------------------------------------------------------------

def test_real_line_subset_fails_avoidance():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(k, 0) for k in range(0, 33, 4)])
    rep = st.avoids_subalgebras(A, 2)
    assert not rep.passed and rep.worst_member == "R"


def test_one_i_pair_avoids_at_two():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(32, 0), (0, 32)])
    assert st.avoids_subalgebras(A, 2).passed


def test_circle_net_avoids_at_four():
    from dlab.lab import circle_net
    C = al.make_algebra("C", m=6)
    assert st.avoids_subalgebras(circle_net(C, 6), 4).passed


def test_strongly_avoids_half_trapped_fails():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(8, 0), (16, 0), (8, 32), (16, 32)])
    rep = st.strongly_avoids(A, 2)
    assert not rep.sharp_passed  # the real half is a trapped dense subset


def test_strongly_avoids_all_far_passes():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(0, 32), (0, -32), (32, 32)])
    rep = st.strongly_avoids(A, 2)
    assert rep.sharp_passed and rep.necessary_passed


def test_strongly_avoids_matches_exhaustive_subsets():
    """Sharp counting form agrees with enumerating all dense subsets."""
    import random
    rnd = random.Random(17)
    C = al.make_algebra("C", m=4)
    fam = st.subalgebra_family(C)
    Cc = 2
    for trial in range(6):
        pts = [(rnd.randrange(-8, 9), rnd.randrange(-8, 9)) for _ in range(8)]
        A = make_dset(C, pts)
        rep = st.strongly_avoids(A, Cc, family=fam)
        elems = A.elements()
        n = len(elems)
        need = -(-n // Cc)
        thresh = Fraction(1, Cc)
        exhaustive = True
        for mem in fam.members:
            far = [_oracle_ge(C, _oracle_dist(C, a, mem.basis), thresh) for a in elems]
            for combo in itertools.combinations(range(n), need):
                if not any(far[i] for i in combo):
                    exhaustive = False
                    break
            if not exhaustive:
                break
        assert rep.sharp_passed == exhaustive


# --- escape basis -----------------------------------------------------------

def test_escape_basis_one_i():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(32, 0), (0, 32)])
    basis = st.escape_basis(A, Fraction(1, 2))
    assert abs(al.det_basis(C, basis)) >= Fraction(1, 2)


def test_escape_basis_trapped_on_line():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(8, 0), (16, 0), (32, 0)])
    with pytest.raises(SubAlgebraTrapped):
        st.escape_basis(A, Fraction(1, 2))


def test_escape_basis_padic_generator_set():
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=4)
    A = make_dset(Q9, [(1, 0), (0, 1)])
    basis = st.escape_basis(A, Fraction(1, 2))
    assert al.det_basis(Q9, basis) >= Fraction(1, 2)


# --- Fraction oracles: distances, avoidance and escape bases per element ----

def _solve_fraction(mat, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _real_dist_sq(alg, vals, basis) -> Fraction:
    """Exact squared Euclidean distance to the span (normal equations)."""
    if not basis:
        return sum(v * v for v in vals)
    k = len(basis)
    gram = [[sum(basis[i][t] * basis[j][t] for t in range(alg.d))
             for j in range(k)] for i in range(k)]
    rhs = [sum(basis[i][t] * vals[t] for t in range(alg.d)) for i in range(k)]
    sol = _solve_fraction(gram, rhs)
    proj = [sum(sol[i] * basis[i][t] for i in range(k)) for t in range(alg.d)]
    return sum((vals[t] - proj[t]) ** 2 for t in range(alg.d))


def _padic_dist(alg, vals, basis) -> Fraction:
    """Exact p-adic distance to the Q_p-span of the basis, without completing
    it: |b_1 ^ ... ^ b_k ^ v| / |b_1 ^ ... ^ b_k|, where the norm of a wedge
    of rows is the largest p^-v_p over its maximal minors.  GL_d(Z_p) keeps
    the max norm of every exterior power, and a Z_p-basis of the span's
    lattice, completed to a matrix in GL_d(Z_p), makes both sides the
    largest |coefficient| of v on the completing columns."""
    def wedge(rows):
        minors = [det_fraction([[r[t] for t in ts] for r in rows])
                  for ts in itertools.combinations(range(alg.d), len(rows))]
        kmin = min((al.vq(v, alg.p) for v in minors if v != 0), default=None)
        return Fraction(0) if kmin is None else Fraction(alg.p) ** -kmin
    return wedge(list(basis) + [list(vals)]) / wedge(list(basis))


def _oracle_dist(alg, a, basis):
    vals = al.value_coords(alg, a)
    return (_real_dist_sq if alg.is_real_base else _padic_dist)(alg, vals, basis)


def _oracle_float(alg, v):
    return math.sqrt(float(v)) if alg.is_real_base else float(v)


def _oracle_ge(alg, v, thresh):
    return v >= thresh * thresh if alg.is_real_base else v >= thresh


def _oracle_avoids(A, C, family):
    """avoids_subalgebras as a per-element Fraction loop."""
    alg, thresh = A.alg, Fraction(1) / Fraction(C)
    elems = A.elements()
    maxd, worst, ok = {}, None, True
    for mem in family.members:
        dists = [_oracle_dist(alg, a, mem.basis) for a in elems]
        best = max((_oracle_float(alg, v) for v in dists), default=0.0)
        maxd[mem.name] = best
        if not any(_oracle_ge(alg, v, thresh) for v in dists):
            ok = False
            if worst is None or best < maxd.get(worst, float("inf")):
                worst = mem.name
    return st.AvoidanceReport(ok, Fraction(C), {}, worst, maxd)


def _oracle_strongly(A, C, family):
    """strongly_avoids as a per-element Fraction loop."""
    alg, thresh = A.alg, Fraction(1) / Fraction(C)
    elems = A.elements()
    n = len(elems)
    need = -(-n * Fraction(C).denominator // Fraction(C).numerator)
    trapped, worst = {}, None
    for mem in family.members:
        t = sum(0 if _oracle_ge(alg, _oracle_dist(alg, a, mem.basis), thresh)
                else 1 for a in elems)
        trapped[mem.name] = t
        if worst is None or t > trapped[worst]:
            worst = mem.name
    sharp = all(t < need for t in trapped.values())
    necessary = all(t <= n - need for t in trapped.values())
    return st.AvoidanceReport(sharp, Fraction(C), trapped, worst, {},
                              sharp_passed=sharp, necessary_passed=necessary)


def _element_pool(A: DSet, depth: int, cap: int = 100_000):
    """Products of at most `depth` elements of A, deterministic order."""
    alg = A.alg
    elems = sorted(A.elements(), key=lambda e: e.coords)
    pool, frontier, seen = list(elems), list(elems), set(elems)
    for _ in range(depth - 1):
        nxt = []
        for f in frontier:
            for a in elems:
                prod = al.mul(alg, f, a)
                if prod not in seen:
                    seen.add(prod)
                    pool.append(prod)
                    nxt.append(prod)
                if len(pool) >= cap:
                    return pool
        frontier = nxt
    return pool


def _oracle_escape(A, floor):
    """escape_basis as a per-candidate Fraction loop over the Element loop's
    pool."""
    alg = A.alg
    pool = _element_pool(A, alg.d)
    chosen, chosen_vals = [], []
    for _ in range(alg.d):
        best = best_key = None
        for cand in pool:
            vals = al.value_coords(alg, cand)
            score = (_real_dist_sq(alg, vals, chosen_vals) if alg.is_real_base
                     else _padic_dist(alg, vals, chosen_vals))
            key = (score, tuple(-abs(v) for v in vals))
            if score > 0 and (best is None or key > best_key):
                best, best_key = (cand, vals), key
        if best is None:
            raise SubAlgebraTrapped("candidate pool spans a proper subspace",
                                    span=[c.coords for c in chosen])
        chosen.append(best[0])
        chosen_vals.append(best[1])
    det = al.det_basis(alg, chosen)
    if alg.is_real_base:
        det = abs(det)
    if det < Fraction(floor):
        raise SubAlgebraTrapped(f"greedy determinant {det} below floor {floor}",
                                span=[c.coords for c in chosen])
    return chosen


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:   # the oracle's own failures must recur too
        return type(exc).__name__, str(exc), getattr(exc, "span", None)


# name -> (spec, p, d, net_exp, m values; the last one takes the
# Python-int path of the kernel)
_AVOID_ALGS = {"R": ("R", None, None, None, (3, 5, 62)),
               "C": ("C", None, None, None, (3, 5, 62)),
               "H1": ("H", None, None, 1, (3, 4, 62)),
               "H2": ("H", None, None, 2, (3, 4, 62)),
               "Qp2": ("Qp", 2, None, None, (3, 5, 61)),
               "Qp3": ("Qp", 3, None, None, (2, 4, 38)),
               "Qp9": ("Qp_ext", 3, 2, None, (2, 3, 38))}


@hst.composite
def _avoid_case(draw, name, max_points=10):
    """(A, C, family): up to max_points points, from none at all to random
    rows with negative coordinates (real) or rows divisible by powers of p
    (p-adic), plus points at distance exactly 1/C from {0}, R and the
    members spanned by 1 and an imaginary axis (real), at a scale_exp of m
    or m - 1 (real) and a radius_exp of 0 or 1 (p-adic)."""
    spec, p, d, net_exp, ms = _AVOID_ALGS[name]
    alg = al.make_algebra(spec, p=p, d=d, m=draw(hst.sampled_from(ms)))
    m, d = alg.m, alg.d
    rnd = random.Random(draw(hst.integers(0, 2 ** 32)))
    n = draw(hst.integers(0, max_points))
    if alg.is_real_base:
        C = draw(hst.sampled_from([1, 2, 4, 8, 3, Fraction(3, 2)]))
        scale = draw(hst.sampled_from((m, m - 1)))
        top, radius = 2 ** scale, 0
        tie = Fraction(top) / C
        pts = []
        for _ in range(n):
            row = [rnd.randrange(-top, top + 1) for _ in range(d)]
            if rnd.random() < 0.4 and tie.denominator == 1:
                t = rnd.randrange(d)   # 1/C from {0}, R or span(1, e_s)
                row = [0] * d if rnd.random() < 0.5 else [row[0]] + [0] * (d - 1)
                row[t] = rnd.choice((-1, 1)) * int(tie)
            pts.append(row)
    else:
        C = draw(hst.sampled_from([1, p, p * p, 2, Fraction(5, 2)]))
        scale, radius = m, draw(hst.integers(0, 1))
        mod = p ** (m + radius)
        pts = [[rnd.randrange(mod) * p ** rnd.randrange(3) % mod for _ in range(d)]
               for _ in range(n)]
    A = make_dset(alg, pts, scale_exp=scale, radius_exp=radius)
    return A, C, st.subalgebra_family(alg, net_exp)


@pytest.mark.parametrize("name", sorted(_AVOID_ALGS))
@settings(max_examples=20, deadline=None)
@given(data=hst.data())
def test_avoidance_equals_fraction_loops(name, data):
    """avoids_subalgebras and strongly_avoids give the per-element Fraction
    loops' reports, max_distance bit for bit, and _span_distances
    gives the loops' Fraction on A's points and on products of two of them
    (whose unit_exp differs from A's)."""
    A, C, fam = data.draw(_avoid_case(name, 4 if name == "H2" else 10))
    alg = A.alg
    got, want = st.avoids_subalgebras(A, C, fam), _oracle_avoids(A, C, fam)
    assert got == want
    assert ({k: v.hex() for k, v in got.max_distance.items()}
            == {k: v.hex() for k, v in want.max_distance.items()})
    assert st.strongly_avoids(A, C, fam) == _oracle_strongly(A, C, fam)
    elems = A.elements()[:4]
    elems += [al.mul(alg, a, b) for a in elems[:2] for b in elems[:2]]
    for a in elems:
        for mem in fam.members[:12]:
            assert _distance(alg, a, mem) == _oracle_dist(alg, a, mem.basis)


@pytest.mark.parametrize("name", sorted(_AVOID_ALGS))
@settings(max_examples=15, deadline=None)
@given(data=hst.data())
def test_escape_basis_equals_fraction_loop(name, data):
    """escape_basis picks the Fraction loop's basis (or raises what it
    raises) on pools of products of at most d of up to 3 (H) or 5 points."""
    spec = _AVOID_ALGS[name][0]
    A, _, _ = data.draw(_avoid_case(name, 3 if spec == "H" else 5))
    floor = data.draw(hst.sampled_from([Fraction(1, 2), Fraction(1, 64), 0]))
    assert _outcome(st.escape_basis, A, floor) == _outcome(_oracle_escape, A, floor)


def test_escape_basis_padic_chosen_vector_divisible_by_p():
    """The one-point Qp_ext p=3 d=2 m=3 set {3}: its pool {3, 9} lies in
    Q_3 1, so after 3 is chosen the pool spans a proper subspace.  The
    completion of (3, 0), zero mod 3, raised RuntimeError before it was
    scaled to (1, 0)."""
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=3)
    A = make_dset(alg, [(3, 0)])
    with pytest.raises(SubAlgebraTrapped, match="proper subspace") as exc:
        st.escape_basis(A, 0)
    assert exc.value.span == [(3, 0)]
    assert _outcome(st.escape_basis, A, 0) == _outcome(_oracle_escape, A, 0)


def test_escape_basis_padic_chosen_vector_with_p_in_a_denominator():
    """Qp_ext p=3 d=2 m=3 (alpha^2 = -1) at radius_exp 1 with rows (1, 0)
    and (0, 3), that is 1/3 and alpha: the pool is alpha, 1/3, -1, alpha/3
    and 1/9.  1/9 (norm 9) is chosen first, then alpha/3 at distance 3 from
    Q_3, so |det| = 27.  Reducing 1/9 mod 3 raised ValueError before it was
    scaled to (1, 0)."""
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=3)
    A = make_dset(alg, [(1, 0), (0, 3)], radius_exp=1)
    basis = st.escape_basis(A, Fraction(1, 2))
    assert [(e.coords, e.unit_exp) for e in basis] == [((1, 0), 2), ((0, 1), 1)]
    assert al.det_basis(alg, basis) == 27
    for floor in (Fraction(1, 2), 27, 28):
        assert _outcome(st.escape_basis, A, floor) == _outcome(_oracle_escape, A, floor)


def _pool_is_element_loop(A, cap):
    """The Element loop's pool, after checking that _candidate_pool gives the
    same Elements in the same order, and rows of the same exact values."""
    alg = A.alg
    rows, u, element = st._candidate_pool(A, alg.d, cap)
    want = _element_pool(A, alg.d, cap)
    assert [element(i) for i in range(len(rows))] == want
    assert ([tuple(Fraction(int(c), alg.radix ** u) for c in row) for row in rows]
            == [al.value_coords(alg, e) for e in want])
    return want, rows, u


def _pool_trap(trap):
    """The set of each named trap of the pool (see below)."""
    if trap == "order-by-canonical-coords":
        alg = al.make_algebra("Qp_ext", p=3, d=2, m=3)
        return make_dset(alg, [(1, 5), (3, 0)], radius_exp=1)
    if trap == "real-elements-compare-with-unit":
        alg = al.make_algebra("C", m=4)
        return make_dset(alg, [(8, 0), (16, 0)], scale_exp=3)
    if trap == "H-products-past-int64":
        alg = al.make_algebra("H", m=62)
        return make_dset(alg, [(2 ** 62 - 1, 3 * 2 ** 60, -2 ** 61, 5),
                               (-2 ** 62, 1, 2 ** 62 - 7, 2 ** 61)])
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=38)
    return make_dset(alg, [(1, 2), (3 ** 39 - 1, 7)], radius_exp=1)


@pytest.mark.parametrize("cap", [7, 100_000])
@pytest.mark.parametrize("case", ["R", "C", "H", "Qp2", "Qp3", "Qp9",
                                  "order-by-canonical-coords",
                                  "real-elements-compare-with-unit",
                                  "H-products-past-int64", "Qp9-modulus-3^40"])
def test_candidate_pool_equals_element_loop(case, cap):
    """_candidate_pool gives the Element loop's pool: the same candidates in
    the same order, with the same Element units, cut at the same product
    when the cap is reached.  Random sets of 0, 1, 2, ... points, then one
    named case per trap:
    - the order follows canonical Element coordinates, not A's row order:
      the row (3, 0) at radius_exp 1 comes first, held as (1, 0) at unit 0;
    - real Elements compare with their unit: (16, 0) at unit 3 and (32, 0)
      at unit 4 are both the value 2, and both are kept;
    - H m=62 products pass 2^63 and are kept in Python ints;
    - on Qp_ext p=3 m=38 at radius_exp 1 the depth-2 modulus is 3^40."""
    if case in ("R", "C", "H", "Qp2", "Qp3", "Qp9"):
        spec, p, d, _, ms = _AVOID_ALGS["H1" if case == "H" else case]
        rnd = random.Random(f"{case} {cap}")
        for n in range(4 if spec == "H" else 9):
            alg = al.make_algebra(spec, p=p, d=d, m=ms[rnd.randrange(2)])
            if alg.is_real_base:
                scale, radius = alg.m + rnd.randrange(-1, 2), 0
                top = 2 ** scale
                pts = [[rnd.randrange(-top, top + 1) for _ in range(alg.d)] for _ in range(n)]
            else:
                scale, radius = alg.m, rnd.randrange(2)
                mod = p ** (alg.m + radius)
                pts = [[rnd.randrange(mod) * p ** rnd.randrange(3) % mod
                        for _ in range(alg.d)] for _ in range(n)]
            _pool_is_element_loop(make_dset(alg, pts, scale_exp=scale, radius_exp=radius), cap)
        return
    A = _pool_trap(case)
    want, rows, u = _pool_is_element_loop(A, cap)
    if case == "order-by-canonical-coords":
        assert want[:2] == [al.element(A.alg, (1, 0), 0), al.element(A.alg, (1, 5), 1)]
    elif case == "real-elements-compare-with-unit":
        assert [(e.coords, e.unit_exp) for e in want][:5] == [
            ((8, 0), 3), ((16, 0), 3), ((16, 0), 4), ((32, 0), 4), ((64, 0), 4)]
    elif case == "H-products-past-int64":
        assert rows.dtype == object and st._abs_max(rows) >= 2 ** 63
    else:
        assert u == 2 and rows.dtype == object and max(e.unit_exp for e in want) == 2
    if cap > len(want):
        assert _outcome(st.escape_basis, A, 0) == _outcome(_oracle_escape, A, 0)


def test_candidate_pool_of_a_large_set_goes_in_blocks():
    """A C set of 5,000 points, far above the square root of the cap: the
    pool is the Element loop's, and its products are formed in blocks of
    at most PAIR_BLOCK, so the pass traces a few MB; all products of the
    frontier at once would be 25 million rows, about 400 MB of int64."""
    alg, rnd = al.make_algebra("C", m=20), random.Random(5000)
    A = make_dset(alg, [[rnd.randrange(-2 ** 20, 2 ** 20) for _ in range(2)]
                        for _ in range(5000)])
    tracemalloc.start()
    try:
        rows, u, element = st._candidate_pool(A, alg.d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert [element(i) for i in range(len(rows))] == _element_pool(A, alg.d)


def test_padic_distance_to_a_span_dependent_mod_p():
    """Qp_ext p=3 d=3: (1, 0, 0) and (1, 3, 0) are each of norm 1 but equal
    mod 3, and span e_1, e_2 over Q_3.  Completing them as they are raised
    RuntimeError; the distances are those of the wedge oracle."""
    alg = al.make_algebra("Qp_ext", p=3, d=3, m=3)
    mem = st.SubAlgebra("e1, e1 + 3 e2", ((Fraction(1), Fraction(0), Fraction(0)),
                                          (Fraction(1), Fraction(3), Fraction(0))))
    want = {(0, 0, 1): 1, (0, 1, 0): 0, (0, 3, 9): Fraction(1, 9), (2, 5, 3): Fraction(1, 3)}
    for coords, dist in want.items():
        a = al.element(alg, coords)
        assert _distance(alg, a, mem) == dist == _oracle_dist(alg, a, mem.basis)


def test_avoidance_ties_at_the_threshold():
    """Points at distance exactly 1/C count as far: i/4 ties on both members
    at C = 4, and the strong count traps only the points strictly inside."""
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(8, 0), (0, 8), (3, 7)])
    fam = st.subalgebra_family(C)
    rep = st.avoids_subalgebras(A, 4, fam)
    assert rep.passed and rep.max_distance["R"] == 0.25
    assert st.strongly_avoids(A, 4, fam).trapped == {"zero": 1, "R": 2}
    assert rep == _oracle_avoids(A, 4, fam)


@pytest.mark.parametrize("p, d", [(2, 3), (3, 2), (5, 2)])
def test_padic_isometry_data_has_unit_determinant(p, d):
    """The completion's first k columns lie in Z_p and span the basis's
    Q_p-span (their maximal minors are a nonzero multiple of the basis's),
    the other columns are standard vectors, and the d columns have a unit
    determinant, so the distance does not depend on which completion it
    is; it raises exactly when every k x k minor of the basis vanishes.
    Entries include multiples of p and p in denominators."""
    alg = al.make_algebra("Qp_ext", p=p, d=d, m=4)
    rnd = random.Random(p * d)

    def minors(rows):
        return [det_fraction([[r[t] for t in ts] for r in rows])
                for ts in itertools.combinations(range(d), len(rows))]
    for _ in range(60):
        basis = [tuple(Fraction(rnd.randrange(-4, 5), rnd.choice((1, p, p + 1)))
                       for _ in range(d)) for _ in range(rnd.randrange(d))]
        k, want = len(basis), minors(basis)
        if not any(want):
            with pytest.raises(ParameterRangeError, match="not independent"):
                st._padic_isometry_data(alg, basis)
            continue
        cols = st._padic_isometry_data(alg, basis)
        assert len(cols) == d and all(al.vq(c, p) >= 0 for col in cols for c in col if c)
        got = minors(cols[:k])
        ratio = next(g / w for g, w in zip(got, want) if w)
        assert ratio != 0 and got == [ratio * w for w in want]
        assert all(sorted(c) == [0] * (d - 1) + [1] for c in cols[k:])
        assert al.vq(det_fraction([list(r) for r in zip(*cols)]), p) == 0

def test_real_distance_to_a_dependent_basis_raises():
    """A real basis with g = det G = 0 has no distance formula; the Fraction
    loop fails on it too (its Gram system is singular)."""
    C = al.make_algebra("C", m=4)
    bad = st.SubAlgebra("bad", ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))))
    with pytest.raises(ParameterRangeError, match="not independent"):
        _distance(C, al.one(C), bad)
    with pytest.raises(TypeError):
        _oracle_dist(C, al.one(C), bad.basis)

def test_padic_distance_past_int64():
    """1, 2^70 and 3 2^70 in Q_2 at m = 80 are 1, 2^-70 and 2^-70 from {0}:
    one kernel call over all three shares the denominator 2^70, so its
    numerators p^(W - w) take Python ints."""
    Q2 = al.make_algebra("Qp", p=2, m=80)
    zero = st.subalgebra_family(Q2).members[0]
    elems = [al.element(Q2, (c,)) for c in (1, 2 ** 70, 3 * 2 ** 70)]
    rows = np.array([[1], [2 ** 70], [3 * 2 ** 70]], dtype=object)
    num, den = st._span_distances(Q2, (), rows, 0)
    assert den == 2 ** 70
    assert [Fraction(int(c), den) for c in num] == [_oracle_dist(Q2, a, ()) for a in elems]
    want = [1, Fraction(1, 2 ** 70), Fraction(1, 2 ** 70)]
    assert [_distance(Q2, a, zero) for a in elems] == want


# --- halving maps -----------------------------------------------------------

def test_halving_fixed_points():
    C = al.make_algebra("C", m=6)
    v = [al.one(C), al.basis_element(C, 1)]
    z = halving_map(C, v, (0, 0), al.zero(C))
    assert z.coords == (0, 0)
    s = al.add(C, v[0], v[1])
    fixed = halving_map(C, v, (1, 1), s)
    assert fixed.coords == s.coords


def test_halving_shift():
    C = al.make_algebra("C", m=6)
    v = [al.one(C), al.basis_element(C, 1)]
    out = halving_map(C, v, (1, 0), al.zero(C))
    assert al.value_coords(C, out) == (Fraction(1, 2), Fraction(0))


def test_halving_requires_real_base():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    with pytest.raises(NotRealBase):
        halving_map(Q3, [al.one(Q3)], (1,), al.zero(Q3))


def test_halving_rejects_a_non_basis():
    C = al.make_algebra("C", m=6)
    for v in ([al.one(C), al.one(C)], [al.one(C)]):
        with pytest.raises(ParameterRangeError, match="not a basis"):
            halving_map(C, v, (1, 0), al.zero(C))


# --- dichotomy --------------------------------------------------------------

def _complex_basis(alg):
    return [al.one(alg), al.basis_element(alg, 1)]


def test_dichotomy_full_grid_dense():
    import numpy as np
    C = al.make_algebra("C", m=7)
    Q = so.DSet(C, 1, 1, np.array([[x, y] for x in range(-4, 5)
                                   for y in range(-4, 5)]))
    out = st.dichotomy_check(Q, _complex_basis(C), 7, 2)
    assert out.case == "Dense" and out.dense_audit["passed"]


def test_dichotomy_sparse_witness_reverifies():
    C = al.make_algebra("C", m=7)
    A = make_dset(C, [(0, 0), (128, 0), (0, 64), (64, 64)])
    Q, wit = so.quotient_set(A, 1, with_witnesses=True)
    out = st.dichotomy_check(Q, _complex_basis(C), 7, 1, witnesses=wit)
    assert out.case == "Sparse"
    # independent re-scan: the reported image really is > Delta from Q
    xvals = tuple(Fraction(s) for s in out.witness["x"])
    ibits = out.witness["map"]
    img, _ = halving_value(C, _complex_basis(C), ibits, xvals)
    Delta = Fraction(1, 2 ** Q.scale_exp)
    for row in Q.points:
        qv = tuple(Fraction(int(c)) * Delta for c in row)
        assert max(abs(a - b) for a, b in zip(img, qv)) > Delta


def test_dichotomy_sparse_decomposition_consistent():
    """p q^-1 equals the violating image for the reported witness."""
    C = al.make_algebra("C", m=7)
    A = make_dset(C, [(0, 0), (128, 0), (0, 64), (64, 64)])
    Q, wit = so.quotient_set(A, 1, with_witnesses=True)
    out = st.dichotomy_check(Q, _complex_basis(C), 7, 1, witnesses=wit)
    p = tuple(Fraction(s) for s in out.witness["p"])
    q = tuple(Fraction(s) for s in out.witness["q"])
    ratio = al._vec_mul(C, p, _inv_of_value(C, q))
    xvals = tuple(Fraction(s) for s in out.witness["x"])
    img, _ = halving_value(C, _complex_basis(C), out.witness["map"], xvals)
    assert ratio == img


def test_dichotomy_padic_translate_dense():
    Q3 = al.make_algebra("Qp", p=3, m=7)
    A = make_dset(Q3, [(x,) for x in range(0, 81, 3)])
    Q, wit = so.quotient_set(A, 2, with_witnesses=True)
    out = st.dichotomy_check(Q, [al.one(Q3)], 7, 2, witnesses=wit)
    assert out.case == "Dense" and out.dense_audit["passed"]


def test_dichotomy_field_mode_runs():
    Q3 = al.make_algebra("Qp", p=3, m=7)
    A = make_dset(Q3, [(x,) for x in range(0, 81, 3)])
    Q, wit = so.quotient_set(A, 2, with_witnesses=True)
    out = st.dichotomy_check(Q, [al.one(Q3)], 7, 2, witnesses=wit, mode="field")
    assert out.case in ("Dense", "Sparse")
    assert out.to_json()


def test_dyadic_induction_full_grid():
    import numpy as np
    C = al.make_algebra("C", m=7)
    Q = so.DSet(C, 2, 1, np.array([[x, y] for x in range(-8, 9)
                                   for y in range(-8, 9)]))
    rep = st.dyadic_induction(Q, _complex_basis(C), n=3)
    assert all(hits == total for hits, total in rep.values())


def test_dichotomy_witness_read_at_set_unit():
    """A at scale 6 in C m=7: the Sparse decomposition reads the quotient
    witness at A's unit 2^-6, so q = 2(c - d) = (2, 0) there (it was (1, 0)
    when read at the algebra's unit 2^-7), and p/q is still the image."""
    C = al.make_algebra("C", m=7)
    A = make_dset(C, [(0, 0), (64, 0), (0, 32), (32, 32)], scale_exp=6)
    Q, wit = so.quotient_set(A, 1, with_witnesses=True)
    out = st.dichotomy_check(Q, _complex_basis(C), 6, 1, witnesses=wit)
    assert out.case == "Sparse" and out.witness["q"] == ["2", "0"]
    p = tuple(Fraction(t) for t in out.witness["p"])
    q = tuple(Fraction(t) for t in out.witness["q"])
    xvals = tuple(Fraction(t) for t in out.witness["x"])
    img, _ = halving_value(C, _complex_basis(C), out.witness["map"], xvals)
    assert al._vec_mul(C, p, _inv_of_value(C, q)) == img


def test_dichotomy_padic_witness_read_at_set_unit():
    """A at radius_exp 1 in Qp_ext p=3 m=5: the Sparse decomposition reads
    the quotient witness at A's unit 3^-1, so q = c - d = (-132, -74) there
    (it was (-153, -222), d reduced mod 3^5 at unit 3^0) and p = (a - b) +
    w (c - d)."""
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=5)
    A = make_dset(alg, [(64, 261), (120, 507), (137, 582), (214, 96), (460, 483),
                        (667, 388)], scale_exp=5, radius_exp=1)
    Q, wit = so.quotient_set(A, 1, with_witnesses=True)
    v = [al.one(alg), al.basis_element(alg, 1)]
    out = st.dichotomy_check(Q, v, 5, 1, witnesses=wit, mode="translate")
    assert out.case == "Sparse"
    w = out.witness
    a, b, c, dd = ([Fraction(x, 3) for x in row] for row in w["abcd"])
    num, den = [x - y for x, y in zip(a, b)], [x - y for x, y in zip(c, dd)]
    shift = al.value_coords(alg, v[w["map"]])
    assert w["q"] == [str(t) for t in den] == ["-132", "-74"]
    assert w["p"] == [str(x + y) for x, y in zip(num, al._vec_mul(alg, shift, den))]


def test_basis_rows_divide_out_a_shared_radix_power():
    """v = [one] over R m=62 and a scale-1 Q: the refined denominator 2^62
    and the row 2^62 share 2^61, so the rows are (0, [[2]]), not
    (61, [[2^62]]); the dichotomy's outcome is unchanged by the smaller
    rows."""
    R = al.make_algebra("R", m=62)
    Q = DSet(R, 1, 1, np.array([[-2], [0], [1], [3]]))
    assert st._basis_rows(Q, [al.one(R)]) == (0, [[2]])
    C = al.make_algebra("C", m=7)
    Q = DSet(C, 2, 1, np.array([[0, 0], [4, 4], [8, 0]]))
    v = [al.element(C, (64, 0), 7), al.element(C, (0, 98), 7)]
    assert st._basis_rows(Q, v) == (4, [[32, 0], [0, 49]])
    out = st.dichotomy_check(Q, v, 7, 1)
    assert out.to_json() == _oracle_dichotomy(Q, v, 7, 1).to_json()


# --- Fraction oracles: the dichotomy scans before their integer rewrite -----

def _inv_of_value(alg, vals):
    """Exact rational inverse of an element given by value coordinates."""
    scale = math.lcm(*(Fraction(v).denominator for v in vals))
    num, den = al._int_inverse(alg, [int(v * scale) for v in vals])
    return tuple(Fraction(scale * c, den) for c in num)


def _oracle_near(alg, Qset, scale, radius, yvals):
    """Some q in Q within Delta of y: |y_k - q_k Delta| <= Delta for all k
    (real), or y in the cell of q (p-adic), in Fractions."""
    if alg.is_real_base:
        Delta = Fraction(1, 2 ** scale)
        ranges = [range(math.ceil(y / Delta - 1), math.floor(y / Delta + 1) + 1)
                  for y in yvals]
        return any(c in Qset for c in itertools.product(*ranges))
    try:
        return al._value_to_grid(alg, yvals, scale, radius) in Qset
    except ParameterRangeError:
        return False    # finer than representable: cannot be near the grid


def _oracle_dichotomy(Q, v, delta_exp, rho_exp, witnesses=None, mode=None):
    """dichotomy_check as a per-point Fraction loop; witnesses are read at
    A's unit: 2^-delta_exp (real base), p^-(Q.radius_exp - rho_exp)
    (p-adic base)."""
    alg, d = Q.alg, Q.alg.d
    mode = mode or ("halving" if alg.is_real_base else "translate")
    scale, radius = Q.scale_exp, Q.radius_exp
    rows = [tuple(int(c) for c in row) for row in Q.points]
    Qset = set(rows)

    bvals = [al.value_coords(alg, b) for b in v]

    def val(xc):
        return tuple(Fraction(c, alg.radix ** Q.unit_exp()) for c in xc)

    def parts(key):
        unit = delta_exp if alg.is_real_base else radius - rho_exp
        a, b, c, dd = (al.value_coords(alg, al.element(alg, w, unit)) for w in witnesses[key])
        return (tuple(s - t for s, t in zip(a, b)),
                tuple(s - t for s, t in zip(c, dd)))

    def add(u, w):
        return tuple(s + t for s, t in zip(u, w))

    def mul(u, w):
        return al._vec_mul(alg, u, w)

    def sparse(xc, label, decomp):
        wit = {"x": [str(t) for t in val(xc)], "x_coords": list(xc), "map": label}
        wit.update(decomp)
        return st.DichotomyOutcome("Sparse", mode, wit, None)

    if mode in ("halving", "translate"):
        labels = (list(itertools.product((0, 1), repeat=d)) if mode == "halving"
                  else list(range(d)))
        for xc in rows:
            for lab in labels:
                if mode == "halving":
                    w = [sum((bvals[j][t] for j in range(d) if lab[j]), Fraction(0))
                         for t in range(d)]
                    y = tuple((s + t) / 2 for s, t in zip(val(xc), w))
                else:
                    w = bvals[lab]
                    y = add(val(xc), w)
                if not _oracle_near(alg, Qset, scale, radius, y):
                    decomp = {}
                    if witnesses is not None and xc in witnesses:
                        num, den = parts(xc)
                        q = tuple(2 * t for t in den) if mode == "halving" else den
                        decomp = {"p": [str(t) for t in add(num, mul(w, den))],
                                  "q": [str(t) for t in q],
                                  "abcd": [list(map(int, t)) for t in witnesses[xc]]}
                    return sparse(xc, list(lab) if mode == "halving" else lab, decomp)
    else:
        for xc in rows:
            for yc in rows:
                for op, img in (("sum", add(val(xc), val(yc))),
                                ("prod", mul(val(xc), val(yc)))):
                    if not _oracle_near(alg, Qset, scale, radius, img):
                        decomp = {"y_coords": list(yc), "op": op}
                        if (witnesses is not None and xc in witnesses
                                and yc in witnesses):
                            (n1, e1), (n2, e2) = parts(xc), parts(yc)
                            u = (add(mul(n1, e2), mul(e1, n2)) if op == "sum"
                                 else mul(n1, n2))
                            decomp.update({"u": [str(t) for t in u],
                                           "v": [str(t) for t in mul(e1, e2)]})
                        return sparse(xc, op, decomp)
    if alg.is_real_base:
        det = abs(al.det_basis(alg, v)) if v else Fraction(1)
        bound = Fraction(det, 2 ** d) * Fraction(2 ** scale) ** d
    else:
        det = al.det_basis(alg, v) if v else Fraction(1)
        bound = det * Fraction(alg.p ** scale) ** d
    audit = {"measured": len(Q), "bound": float(bound), "Delta_exp": scale,
             "det": str(det), "passed": Fraction(len(Q)) >= bound}
    return st.DichotomyOutcome("Dense", mode, None, audit)


def _oracle_dyadic(Q, v, n):
    alg, d = Q.alg, Q.alg.d
    Qset = {tuple(int(c) for c in row) for row in Q.points}
    bvals = [al.value_coords(alg, b) for b in v]
    report = {}
    for level in range(n + 1):
        total = hits = 0
        for ks in itertools.product(range(2 ** level + 1), repeat=d):
            vals = [sum(Fraction(k, 2 ** level) * bvals[j][t] for j, k in enumerate(ks))
                    for t in range(d)]
            total += 1
            hits += _oracle_near(alg, Qset, Q.scale_exp, 0, vals)
        report[level] = (hits, total)
    return report


_DICHOTOMY_ALGS = {"R": ("R", None, None, (2, 3, 4)), "C": ("C", None, None, (2, 3, 4)),
                   "H": ("H", None, None, (2, 3)), "Qp2": ("Qp", 2, None, (2, 3, 4)),
                   "Qp3": ("Qp", 3, None, (2, 3)), "Qp5": ("Qp", 5, None, (1, 2)),
                   "Qp9": ("Qp_ext", 3, 2, (1, 2))}


@hst.composite
def _dichotomy_case(draw, name, mode):
    """(Q, v, witnesses) at scale_exp = alg.m: Q random or a full box
    (real) / the full grid (p-adic) of at most 150 points (40 in field mode,
    whose loop scans |Q|^2 pairs), v of d elements whose unit_exp differs
    from alg.m, and no witnesses or random quadruples on some of Q's rows."""
    spec, p, d, ms = _DICHOTOMY_ALGS[name]
    alg = al.make_algebra(spec, p=p, d=d, m=draw(hst.sampled_from(ms)))
    m, r = alg.m, draw(hst.integers(0, 1))
    rnd = random.Random(draw(hst.integers(0, 2 ** 32)))
    if alg.is_real_base:
        hi = 2 ** (m + r)
        box = 1 if alg.d == 4 else draw(hst.integers(1, 3))
        full = [list(c) for c in itertools.product(range(-box, box + 1), repeat=alg.d)]
        units = (m - 1, m + 1, m + 2)
    else:
        hi = p ** (m + r)
        full = [list(c) for c in itertools.product(range(hi), repeat=alg.d)]
        units = (0, 1, 2)
    if draw(hst.booleans()) and len(full) <= (40 if mode == "field" else 150):
        pts = full
    else:
        lo = -hi if alg.is_real_base else 0
        pts = [[rnd.randrange(lo, hi) for _ in range(alg.d)]
               for _ in range(draw(hst.integers(0, 12)))]
    Q = make_dset(alg, pts, scale_exp=m, radius_exp=r)
    small = draw(hst.booleans())
    v = []
    for _ in range(alg.d):
        u = draw(hst.sampled_from(units))
        top = 4 if small else alg.radix ** (u + 1)
        lo = -top if alg.is_real_base else 0
        v.append(al.element(alg, [rnd.randrange(lo, top) for _ in range(alg.d)], u))
    wit = None
    if draw(hst.booleans()):
        top = alg.radix ** (m + 1)
        lo = -top if alg.is_real_base else 0
        wit = {tuple(map(int, row)): tuple(tuple(rnd.randrange(lo, top)
                                                 for _ in range(alg.d))
                                           for _ in range(4))
               for row in Q.points if rnd.random() < 0.8}
    return Q, v, wit


@pytest.mark.parametrize("mode", ["halving", "translate", "field"])
@pytest.mark.parametrize("name", sorted(_DICHOTOMY_ALGS))
@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_dichotomy_equals_fraction_loop(name, mode, data):
    """The integer scan gives the Fraction loop's outcome, witness and audit
    (to_json) with delta_exp = alg.m."""
    Q, v, wit = data.draw(_dichotomy_case(name, mode))
    m = Q.alg.m
    got = st.dichotomy_check(Q, v, m, 1, witnesses=wit, mode=mode)
    assert got.to_json() == _oracle_dichotomy(Q, v, m, 1, wit, mode).to_json()


def test_dichotomy_int64_edge_equals_fraction_loop():
    """Images at 2^62 next to points of Q at +-2^62: the integer scan keeps
    its candidates in int64 only under a bound, and finds the loop's Sparse
    witness at x = -2^62 + 2^56."""
    R = al.make_algebra("R", m=62)
    Q = DSet(R, 1, 61, np.array([[k * 2 ** 56] for k in range(-64, 65)]))
    out = st.dichotomy_check(Q, [al.one(R)], 62, 1, mode="halving")
    want = _oracle_dichotomy(Q, [al.one(R)], 62, 1, None, "halving")
    assert out.to_json() == want.to_json()
    assert out.case == "Sparse" and out.witness["x_coords"] == [-2 ** 62 + 2 ** 56]


def test_dichotomy_blocks_and_python_ints_equal_fraction_loop(monkeypatch):
    """The doubling row blocks and images past int64 (a basis element at
    2^74 in Q's units) give the loop's outcome; a budget of 2000 images
    admits the halving and translate scans (1764 and 882 images) and
    refuses the field scan (2 49^2 9 = 43,218 images)."""
    C = al.make_algebra("C", m=4)
    Q = make_dset(C, [(x, y) for x in range(-3, 4) for y in range(-3, 4)])
    big = [al.element(C, (2 ** 74, 0)), al.element(C, (1, 1), 5)]
    for v in (_complex_basis(C), big):
        for mode in ("halving", "translate", "field"):
            want = _oracle_dichotomy(Q, v, 4, 1, None, mode).to_json()
            assert st.dichotomy_check(Q, v, 4, 1, mode=mode).to_json() == want
            monkeypatch.setenv("DLAB_BUDGET_POINTS", "2000")
            if mode == "field":
                with pytest.raises(BudgetExceeded):
                    st.dichotomy_check(Q, v, 4, 1, mode=mode)
            else:
                assert st.dichotomy_check(Q, v, 4, 1, mode=mode).to_json() == want
            monkeypatch.delenv("DLAB_BUDGET_POINTS")


def test_dichotomy_field_budget_counts_every_image(monkeypatch):
    """Field mode scans x + y and x y for every pair of rows: 2 |Q|^2 images
    per offset.  The budget check counts them all, so a Dense grid of Qp
    p=3 whose 2 |Q| images fit the budget but whose 2 |Q|^2 do not is
    refused before the scan, naming the image count."""
    Q3 = al.make_algebra("Qp", p=3, d=1, m=4)
    Q = make_dset(Q3, [(x,) for x in range(81)])
    monkeypatch.setenv("DLAB_BUDGET_POINTS", str(2 * 81 * 81 - 1))
    with pytest.raises(BudgetExceeded) as exc:
        st.dichotomy_check(Q, [al.one(Q3)], 4, 1, mode="field")
    assert exc.value.sizes == {"points": 81, "images": 2 * 81 * 81}
    monkeypatch.setenv("DLAB_BUDGET_POINTS", str(2 * 81 * 81))
    assert st.dichotomy_check(Q, [al.one(Q3)], 4, 1, mode="field").case == "Dense"


@pytest.mark.parametrize("spec,m", [("R", 3), ("C", 3), ("H", 2)])
@settings(max_examples=10, deadline=None)
@given(data=hst.data())
def test_dyadic_induction_equals_fraction_loop(spec, m, data):
    alg = al.make_algebra(spec, m=m)
    rnd = random.Random(data.draw(hst.integers(0, 2 ** 32)))
    box = data.draw(hst.integers(1, 4 if alg.d < 4 else 2))
    pts = [list(c) for c in itertools.product(range(-box, box + 1), repeat=alg.d)
           if rnd.random() < 0.8]
    Q = make_dset(alg, pts, scale_exp=data.draw(hst.integers(1, m)))
    v = [al.element(alg, [rnd.randrange(-5, 6) for _ in range(alg.d)],
                    data.draw(hst.integers(m - 1, m + 2))) for _ in range(alg.d)]
    n = 2 if alg.d == 4 else 3
    want = _oracle_dyadic(Q, v, n)
    # a small budget puts the points of a level in many passes
    budget = data.draw(hst.sampled_from([None, 50, 500]), label="budget")
    env = {} if budget is None else {"DLAB_BUDGET_POINTS": str(budget)}
    with mock.patch.dict(os.environ, env):
        assert st.dyadic_induction(Q, v, n=n) == want


# generators recorded from sympy.factorint before trial division replaced it
_GENERATORS = {
    (2, 1): (1,), (2, 2): (0, 1), (2, 3): (0, 1, 0), (2, 4): (0, 1, 0, 0),
    (3, 1): (2,), (3, 2): (1, 1), (3, 3): (0, 1, 0), (3, 4): (1, 0, 1, 0),
    (5, 1): (2,), (5, 2): (2, 1), (5, 3): (2, 1, 0), (5, 4): (0, 1, 1, 0),
    (7, 1): (3,), (7, 2): (2, 1), (7, 3): (2, 1, 0), (7, 4): (6, 1, 0, 0),
}


def test_residue_field_generator_unchanged():
    for (p, d), g in _GENERATORS.items():
        alg = al.make_algebra("Qp" if d == 1 else "Qp_ext", p=p, d=d, m=4)
        assert st.residue_field_generator(alg) == g


def test_import_does_not_load_sympy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, dlab; print('sympy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
