"""Sub-algebra distances, avoidance, escape bases, dichotomy checks."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from dlab import algebra as al
from dlab import setops as so
from dlab import structure as st
from dlab.dset import make_dset
from dlab.errors import NotRealBase, SubAlgebraTrapped


# --- families and distances -------------------------------------------------

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
    assert st.distance_to_subalgebra(C, al.one(C), R) == 0.0


def test_distance_i_to_reals_is_one():
    C = al.make_algebra("C", m=5)
    R = st.subalgebra_family(C).members[1]
    assert st.distance_to_subalgebra(C, al.basis_element(C, 1), R) == 1.0


def test_distance_diagonal_element():
    C = al.make_algebra("C", m=6)
    R = st.subalgebra_family(C).members[1]
    x = al.element(C, (45, 45))  # about (1+i)/sqrt(2) on the grid
    d = st.distance_to_subalgebra(C, x, R)
    assert abs(d - 45 / 64) < 1e-12  # exact projection leaves the i-part


def test_quaternion_net_distance():
    H = al.make_algebra("H", m=4)
    fam = st.subalgebra_family(H, net_exp=2)
    member = next(m for m in fam.members if m.name == "C[1,0,0]")
    j = al.element(H, (0, 0, 16, 0))
    assert st.distance_to_subalgebra(H, j, member) == 1.0


def test_padic_subfield_distance_and_closure():
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=4)
    sub = next(m for m in st.subalgebra_family(Q9).members if m.name == "Qp^1")
    assert st.distance_to_subalgebra(Q9, al.element(Q9, (5, 0)), sub) == 0.0
    assert st.distance_to_subalgebra(Q9, al.basis_element(Q9, 1), sub) == 1.0


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
            far = [st._dist_ge(C, a, mem, thresh) for a in elems]
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


# --- halving maps -----------------------------------------------------------

def test_halving_fixed_points():
    C = al.make_algebra("C", m=6)
    v = [al.one(C), al.basis_element(C, 1)]
    z = st.halving_map(C, v, (0, 0), al.zero(C))
    assert z.coords == (0, 0)
    s = al.add(C, v[0], v[1])
    fixed = st.halving_map(C, v, (1, 1), s)
    assert fixed.coords == s.coords


def test_halving_shift():
    C = al.make_algebra("C", m=6)
    v = [al.one(C), al.basis_element(C, 1)]
    out = st.halving_map(C, v, (1, 0), al.zero(C))
    assert al.value_coords(C, out) == (Fraction(1, 2), Fraction(0))


def test_halving_requires_real_base():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    with pytest.raises(NotRealBase):
        st.halving_map(Q3, [al.one(Q3)], (1,), al.zero(Q3))


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
    img, _ = st._halving_value(C, _complex_basis(C), ibits, xvals)
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
    ratio = so.mul_value_coords(C, p, so._inv_of_value(C, q))
    xvals = tuple(Fraction(s) for s in out.witness["x"])
    img, _ = st._halving_value(C, _complex_basis(C), out.witness["map"], xvals)
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
