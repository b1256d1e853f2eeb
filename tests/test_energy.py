"""Counting engines: energies, incidence counts, extraction, ledgers."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import energy as en
from dlab import lab
from dlab import setops as so
from dlab.dset import make_dset
from dlab.errors import (
    BudgetExceeded,
    DivisionByNegligible,
    EmptyGraph,
    EmptyInput,
    ParameterRangeError,
)

from oracles import mul_exact


def _rset(alg, rnd, n, lo=-16, hi=17):
    pts = {tuple(rnd.randrange(lo, hi) for _ in range(alg.d)) for _ in range(n)}
    return make_dset(alg, sorted(pts))


# --- additive energy --------------------------------------------------------

def test_energy_three_term_ap():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,), (1,), (2,)])
    assert en.additive_energy(A, A) == 19


def test_energy_lower_bound_diagonal():
    R = al.make_algebra("R", m=6)
    rnd = random.Random(2)
    A = _rset(R, rnd, 12)
    B = _rset(R, rnd, 9)
    assert en.additive_energy(A, B) >= len(A) * len(B)


@settings(max_examples=30)
@given(hst.sets(hst.integers(-20, 20), min_size=2, max_size=14))
def test_energy_cauchy_schwarz_identity(pts):
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(i,) for i in pts])
    E = en.additive_energy(A, A)
    assert E * len(so.sumset(A, A)) >= len(A) ** 4


def test_energy_past_int64_raises():
    """2^62 + 2^62 and -2^62 - 2^62 both wrap to -2^63 in int64, which
    counted two extra quadruples (17 against 15): the energy raises."""
    R = al.make_algebra("R", m=62)
    A = make_dset(R, [(2 ** 62,), (2 ** 62 - 1,), (-2 ** 62,)])
    with pytest.raises(ParameterRangeError, match=r"additive_energy: .*\[3, 3\]"):
        en.additive_energy(A, A)
    vals = (2 ** 62 - 1, 2 ** 62 - 2, 1 - 2 ** 62)
    B = make_dset(R, [(v,) for v in vals])
    brute = sum(a + b == c + e for a, b, c, e in itertools.product(vals, repeat=4))
    assert en.additive_energy(B, B) == brute


def test_energy_padic_mod_grid():
    Q3 = al.make_algebra("Qp", p=3, m=2)
    A = make_dset(Q3, [(i,) for i in range(9)])  # full group Z/9
    # in a group, r(s) = |A| for every s: E = |A|^3
    assert en.additive_energy(A, A) == 9 ** 3


# --- quintuple count --------------------------------------------------------

def _brute_quintuple(A, X, symmetric):
    """Unpruned five-loop enumeration with the same rounding convention."""
    alg = A.alg
    m = A.scale_exp
    tot = 0
    elems = A.elements()
    for x in X.elements():
        R = {}
        for e in elems:
            prod = mul_exact(alg, x, e)
            vals = al.value_coords(alg, prod)
            if alg.is_real_base:
                R[e.coords] = tuple(al.round_half_away(v.numerator * 2 ** m,
                                                       v.denominator)
                                    for v in vals)
            else:
                mod = alg.p ** m
                R[e.coords] = tuple(int(c) * alg.p ** (-prod.unit_exp) % mod
                                    if prod.unit_exp <= 0
                                    else (int(c) * pow(alg.p ** prod.unit_exp, -1, mod)) % mod
                                    for c in prod.coords)
        for a, b, c, d in itertools.product(elems, repeat=4):
            sign = -1 if symmetric else 1
            diff = tuple(a.coords[k] + R[b.coords][k] - c.coords[k]
                         + sign * R[d.coords][k] for k in range(alg.d))
            if alg.is_real_base:
                ok = all(abs(t) <= 1 for t in diff)
            else:
                ok = all(t % alg.p ** m == 0 for t in diff)
            if ok:
                tot += 1
    return tot


@pytest.mark.parametrize("symmetric", [False, True])
def test_quintuple_matches_bruteforce_real(symmetric):
    R = al.make_algebra("R", m=5)
    rnd = random.Random(4)
    A = _rset(R, rnd, 6, 0, 12)
    X = make_dset(R, [(0,), (16,), (32,)])
    rep = en.quintuple_count_tv(A, X, rho_exp=1, symmetric=symmetric)
    assert rep.total == _brute_quintuple(A, X, symmetric)
    assert rep.total == rep.breakdown["near"] + rep.breakdown["far"]


def test_quintuple_matches_bruteforce_padic():
    Q3 = al.make_algebra("Qp", p=3, m=3)
    A = make_dset(Q3, [(0,), (1,), (5,), (9,)])
    X = make_dset(Q3, [(0,), (1,), (2,)])
    rep = en.quintuple_count_tv(A, X, rho_exp=1)
    assert rep.total == _brute_quintuple(A, X, False)


def test_quintuple_x_zero_degenerates():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,), (5,), (11,)])
    X = make_dset(R, [(0,)])
    rep = en.quintuple_count_tv(A, X, rho_exp=1)
    # x = 0: condition reduces to |a - c| <= delta over all (a,b,c,d)
    pairs = sum(1 for a in (0, 5, 11) for c in (0, 5, 11) if abs(a - c) <= 1)
    assert rep.total == pairs * 9


def test_quintuple_bound_fields():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,), (7,)])
    X = make_dset(R, [(16,)])
    rep = en.quintuple_count_tv(A, X, rho_exp=1, s=Fraction(1, 2),
                                sigma=Fraction(1, 2), t=1)
    assert rep.bound is not None and rep.ratio == rep.total / rep.bound


@pytest.mark.parametrize("s,sigma,t", [(1, 1, 0), (1, 1, Fraction(1, 2)), (-1, 1, 2),
                                       (0, 1, 2), (float("nan"), 1, 2), (1, 1, float("inf"))],
                         ids=["t=0", "t<sigma", "s<0", "s=0", "s=nan", "t=inf"])
def test_quintuple_bad_exponents_raise(s, sigma, t):
    """s, sigma and t all given must satisfy 0 < s <= sigma <= t, all
    finite, as lab.choose_rho_tv requires (both read energy.tv_gain); with
    none of them the count carries no bound."""
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,), (7,)])
    X = make_dset(R, [(16,)])
    with pytest.raises(ParameterRangeError, match="need 0 < s <= sigma <= t|not finite"):
        en.quintuple_count_tv(A, X, rho_exp=1, s=s, sigma=sigma, t=t)
    rep = en.quintuple_count_tv(A, X, rho_exp=1)
    assert rep.bound is None and rep.ratio is None
    c = en.tv_gain(Fraction(1, 2), Fraction(3, 4), 1, Fraction(1, 10))
    assert c == Fraction(1, 2) * Fraction(7, 20)
    assert lab.choose_rho_tv(Fraction(1, 2), Fraction(3, 4), 1, Fraction(1, 10), 8) == (3, c)


def _grid_diffs(A):
    """Counter of the coordinate differences a - a' of A as tuples of Python
    ints, reduced mod p^(m+r) on the p-adic base."""
    pts = [tuple(map(int, row)) for row in A.points]
    mod = None if A.alg.is_real_base else A.alg.p ** (A.scale_exp + A.radius_exp)
    return Counter(tuple(u - v if mod is None else (u - v) % mod
                         for u, v in zip(a, c)) for a in pts for c in pts)


def _loop_quintuple(A, X, rho_exp, symmetric):
    """The per-pair loop that quintuple_count_tv ran before its lookups were
    vectorized, kept as the oracle: (total, near, far).  x b is formed with
    al._vec_mul on Python ints and put on the grid here: rounded half away
    from zero to the set's units (real base), reduced mod
    p^(m + r + x.unit_exp) (p-adic base)."""
    alg = A.alg
    n = len(A)
    offsets = en._neighbor_offsets(alg)
    D = _grid_diffs(A)
    elems = A.elements()
    mod = None if alg.is_real_base else alg.p ** (A.scale_exp + A.radius_exp)
    near_count = far_count = 0
    rho_sq = Fraction(1, 4 ** rho_exp)
    for x in X.elements():
        unit = A.unit_exp() + x.unit_exp
        shift = unit - A.scale_exp
        R = []
        for b in A.points:
            raw = al._vec_mul(alg, x.coords, [int(c) for c in b])
            if not alg.is_real_base:
                R.append([c % alg.p ** (A.scale_exp + unit) for c in raw])
            elif shift <= 0:
                R.append([c * 2 ** -shift for c in raw])
            else:
                R.append([al.round_half_away(c, 2 ** shift) for c in raw])
        for ib in range(n):
            for id_ in range(n):
                if symmetric:
                    tvec = [v - u for u, v in zip(R[ib], R[id_])]
                else:
                    tvec = [-(u + v) for u, v in zip(R[ib], R[id_])]
                cnt = 0
                for off in offsets:
                    key = tuple((tvec[k] + off[k]) % mod if mod
                                else tvec[k] + off[k]
                                for k in range(alg.d))
                    cnt += D.get(key, 0)
                if cnt:
                    bd = al.sub(alg, elems[ib], elems[id_])
                    if alg.is_real_base:
                        is_near = al.norm_sq(alg, bd) <= rho_sq
                    else:
                        ne = al.norm_exp(alg, bd)
                        is_near = ne is None or ne >= rho_exp
                    if is_near:
                        near_count += cnt
                    else:
                        far_count += cnt
    return near_count + far_count, near_count, far_count


def _report(rep):
    return rep.total, rep.breakdown["near"], rep.breakdown["far"]


_TV_ALGS = [("R", None, None), ("C", None, None), ("H", None, None),
            ("Qp", 2, None), ("Qp", 3, None), ("Qp", 5, None),
            ("Qp_ext", 2, 2), ("Qp_ext", 3, 2), ("Qp_ext", 2, 3)]


def _draw_set(spec, data):
    """(alg, scale, rexp, row strategy, points): an algebra of kind spec at
    a small m, a set scale off m by at most 1, radius 0 or 1, and points at
    random or in a progression (many repeated differences)."""
    kind, p, d = spec
    alg = al.make_algebra(kind, p=p, d=d,
                          m=data.draw(hst.integers(2, 4 if p is None else 3)))
    scale = max(1, alg.m + data.draw(hst.integers(-1, 1)))
    rexp = data.draw(hst.integers(0, 1))
    if alg.is_real_base:
        lo, hi = -2 ** (scale + rexp), 2 ** (scale + rexp)
    else:
        lo, hi = 0, alg.p ** (scale + rexp) - 1
    coord = hst.integers(lo, hi)
    row = hst.lists(coord, min_size=alg.d, max_size=alg.d)
    if data.draw(hst.booleans()):
        pts = data.draw(hst.lists(row, min_size=1, max_size=8))
    else:
        base = data.draw(row)
        step = data.draw(hst.lists(hst.integers(0, 3), min_size=alg.d,
                                   max_size=alg.d))
        pts = [[b + i * s for b, s in zip(base, step)]
               for i in range(data.draw(hst.integers(1, 8)))]
    return alg, scale, rexp, row, pts


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(_TV_ALGS), hst.booleans(), hst.data())
def test_quintuple_equals_loop_oracle(spec, symmetric, data):
    """The vectorized count equals the per-pair loop on total, near and far:
    every algebra kind, a set scale off the algebra's m, radius 0 or 1,
    progressions (many repeated differences) and X holding 0."""
    alg, scale, rexp, row, pts = _draw_set(spec, data)
    xs = data.draw(hst.lists(row, min_size=1, max_size=3))
    if data.draw(hst.booleans()):
        xs.append([0] * alg.d)
    A = make_dset(alg, pts, scale, rexp)
    X = make_dset(alg, xs, scale, rexp)
    rho = data.draw(hst.integers(0, scale + 1))
    rep = en.quintuple_count_tv(A, X, rho_exp=rho, symmetric=symmetric)
    assert _report(rep) == _loop_quintuple(A, X, rho, symmetric)


def test_quintuple_padic_set_finer_than_algebra():
    """A Qp set at scale 3 over an algebra of m=2: as elements, b = 0 and
    d = 4 are equal mod 2^2, so (b, d) is near at every rho."""
    Q2 = al.make_algebra("Qp", p=2, m=2)
    A = make_dset(Q2, [(0,), (1,), (4,), (5,)], scale_exp=3)
    X = make_dset(Q2, [(1,), (3,)], scale_exp=3)
    for rho in (1, 2, 3, 4):
        rep = en.quintuple_count_tv(A, X, rho_exp=rho)
        assert _report(rep) == _loop_quintuple(A, X, rho, False)
        assert en._near_mask(A, A.points, rho)[0, 2]


@pytest.mark.parametrize("kind,m,big", [("H", 17, 2 ** 17), ("C", 33, 2 ** 33)])
def test_quintuple_fallbacks_equal_loop_oracle(kind, m, big):
    """Differences whose packed keys would pass 2^63 (lookup through
    np.unique), and at C m=33 squared norms past int64 in the mask."""
    alg = al.make_algebra(kind, m=m)
    rnd = random.Random(m)
    A = make_dset(alg, [[rnd.randrange(-big, big) for _ in range(alg.d)]
                        for _ in range(5)]
                  + [[0] * alg.d, [1] + [0] * (alg.d - 1)])
    X = make_dset(alg, [[0] * alg.d, [1] + [0] * (alg.d - 1),
                        [-1] * alg.d])
    for rho in (0, m // 2, m):
        for symmetric in (False, True):
            rep = en.quintuple_count_tv(A, X, rho_exp=rho, symmetric=symmetric)
            want = _loop_quintuple(A, X, rho, symmetric)
            assert _report(rep) == want and want[0] > 0


@pytest.mark.parametrize("kind,p,budget", [("R", None, 7), ("C", None, 20),
                                           ("Qp", 3, 9)])
def test_quintuple_chunks_give_the_same_report(monkeypatch, kind, p, budget):
    """A budget small enough to split the targets into several blocks of b
    rows gives the same report as one block."""
    alg = al.make_algebra(kind, p=p, m=5)
    rnd = random.Random(12)
    hi = 2 ** 5 if alg.is_real_base else alg.p ** 5
    A = make_dset(alg, [[rnd.randrange(hi) for _ in range(alg.d)]
                        for _ in range(8)])
    X = make_dset(alg, [[rnd.randrange(hi) for _ in range(alg.d)]
                        for _ in range(2)])
    whole = en.quintuple_count_tv(A, X, rho_exp=2).to_dict()
    monkeypatch.setenv("DLAB_BUDGET_POINTS", str(budget))
    assert budget // len(A) < len(A)
    assert en.quintuple_count_tv(A, X, rho_exp=2).to_dict() == whole


def test_quintuple_budget_threshold_and_sizes(monkeypatch):
    """BudgetExceeded fires once |X| n^2 3^d passes 100 * budget, and names
    n, |X| and 3^d."""
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(i,) for i in range(10)])
    X = make_dset(R, [(1,), (2,)])
    monkeypatch.setenv("DLAB_BUDGET_POINTS", "6")  # 2 * 100 * 3 = 600 = 100 * 6
    en.quintuple_count_tv(A, X, rho_exp=1)
    monkeypatch.setenv("DLAB_BUDGET_POINTS", "5")
    with pytest.raises(BudgetExceeded) as exc:
        en.quintuple_count_tv(A, X, rho_exp=1)
    assert exc.value.sizes == {"work": 200, "n": 10, "X": 2, "offsets": 3}


def test_quintuple_targets_past_int64_raise():
    """R m=61, A = {2^62 + 5, 5, 3 2^61}, X = {1}: the targets -(xb + xd)
    reach 3 2^62 and used to wrap in int64 to total 3 (near 1, far 2) where
    brute force gives 0.  The count raises instead, naming the op, and so
    do the differences a - a' of the same set."""
    R = al.make_algebra("R", m=61)
    vals = (2 ** 62 + 5, 5, 3 * 2 ** 61)
    A = make_dset(R, [(v,) for v in vals])
    X = make_dset(R, [(2 ** 61,)])
    assert sum(abs(a + b - (c - d)) <= 1
               for a, b, c, d in itertools.product(vals, repeat=4)) == 0
    with pytest.raises(ParameterRangeError,
                       match=r"quintuple_count_tv targets: .*\[3, 3\]"):
        en.quintuple_count_tv(A, X, rho_exp=1)
    with pytest.raises(ParameterRangeError, match=r"_diffs: .*\[3\]"):
        en._diffs(A)


def test_diff_lookup_counts_every_row():
    """The sorted-key lookup counts each difference row and 0 for rows
    outside the difference ranges or between keys."""
    C = al.make_algebra("C", m=4)
    A = make_dset(C, [(0, 0), (1, 0), (2, 0), (0, 3)])
    lookup = en._row_lookup(en._diffs(A))
    rows = np.array([(0, 0), (1, 0), (2, 0), (-2, 0), (1, -3), (5, 0),
                     (0, 1), (-9, -9)], dtype=np.int64)
    assert lookup(rows).tolist() == [4, 2, 1, 1, 1, 0, 0, 0]


# --- quadruple count --------------------------------------------------------

def _brute_quadruple(A, p, q):
    alg = A.alg
    m = A.scale_exp
    elems = A.elements()

    def rounded(u, x):
        prod = mul_exact(alg, u, x)
        vals = al.value_coords(alg, prod)
        if alg.is_real_base:
            return tuple(al.round_half_away(v.numerator * 2 ** m, v.denominator)
                         for v in vals)
        mod = alg.p ** m
        return tuple(v.numerator * pow(v.denominator, -1, mod) % mod
                     for v in vals)

    tot = 0
    for a1, a2, a3, a4 in itertools.product(elems, repeat=4):
        uq = rounded(al.sub(alg, a1, a2), q)
        up = rounded(al.sub(alg, a3, a4), p)
        s = tuple(uq[k] + up[k] for k in range(alg.d))
        if alg.is_real_base:
            ok = all(abs(t) <= 1 for t in s)
        else:
            ok = all(t % alg.p ** m == 0 for t in s)
        if ok:
            tot += 1
    return tot


def test_quadruple_matches_bruteforce_real():
    R = al.make_algebra("R", m=5)
    rnd = random.Random(8)
    A = _rset(R, rnd, 6, 0, 14)
    p = al.element(R, (24,))
    q = al.element(R, (32,))
    rep = en.quadruple_count_sparse(A, p, q)
    assert rep.total == _brute_quadruple(A, p, q)


def test_quadruple_matches_bruteforce_complex():
    C = al.make_algebra("C", m=4)
    rnd = random.Random(9)
    A = _rset(C, rnd, 5, 0, 8)
    p = al.element(C, (8, 4))
    q = al.element(C, (16, 0))
    rep = en.quadruple_count_sparse(A, p, q)
    assert rep.total == _brute_quadruple(A, p, q)


def test_quadruple_singleton():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,)])
    rep = en.quadruple_count_sparse(A, al.one(R), al.one(R))
    assert rep.total == 1


def test_quadruple_rho_floor():
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(0,), (8,)])
    tiny = al.element(R, (1,))  # norm 2^-6 < 2^-2
    with pytest.raises(DivisionByNegligible):
        en.quadruple_count_sparse(A, al.one(R), tiny, rho_exp=2)


def _loop_quadruple(A, p, q):
    """The Element loop that quadruple_count_sparse ran before it was
    vectorized, kept as the oracle: (total, dropped).  Each distinct
    difference u goes through Element arithmetic at the algebra's precision
    (u mod p^(alg.m + r), u x mod p^alg.m) and back onto the set's grid;
    dropped tells whether a p-adic product fell below the set's radius,
    which the loop skipped."""
    alg = A.alg
    r = A.radius_exp
    mod = None if alg.is_real_base else alg.p ** (A.scale_exp + r)
    D = _grid_diffs(A)

    def rounded_mult(x):
        out = Counter()
        for u, cnt in D.items():
            prod = mul_exact(alg, al.element(alg, u, A.unit_exp()), x)
            if alg.is_real_base:
                key = tuple(al.round_half_away(v.numerator * 2 ** A.scale_exp,
                                               v.denominator)
                            for v in al.value_coords(alg, prod))
            elif prod.unit_exp <= r:
                key = tuple(c * alg.p ** (r - prod.unit_exp) % mod
                            for c in prod.coords)
            else:
                key = ("overflow",) + prod.coords
            out[key] += cnt
        return out

    Rq, Rp = rounded_mult(q), rounded_mult(p)
    total = 0
    for uq, cq in Rq.items():
        if uq[0] == "overflow":
            continue
        for off in en._neighbor_offsets(alg):
            key = tuple((-uq[k] + off[k]) % mod if mod else -uq[k] + off[k]
                        for k in range(alg.d))
            total += cq * Rp.get(key, 0)
    dropped = any(key[0] == "overflow" for R in (Rq, Rp) for key in R)
    return total, dropped


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(_TV_ALGS), hst.data())
def test_quadruple_equals_loop_oracle(spec, data):
    """The array count equals the Element loop on every algebra kind, at a
    set scale off the algebra's m and radius 0 or 1, for p and q of unit_exp
    scale or m (real base) and 0 or 1 (p-adic base); where the loop dropped
    a product below the set's radius, the count raises instead."""
    alg, scale, rexp, row, pts = _draw_set(spec, data)
    A = make_dset(alg, pts, scale, rexp)
    units = [scale, alg.m] if alg.is_real_base else [0, 1]
    p, q = (al.element(alg, data.draw(row), data.draw(hst.sampled_from(units)))
            for _ in range(2))
    total, dropped = _loop_quadruple(A, p, q)
    if dropped:
        with pytest.raises(ParameterRangeError, match="quadruple_count_sparse"):
            en.quadruple_count_sparse(A, p, q)
    else:
        assert en.quadruple_count_sparse(A, p, q).total == total


def test_quadruple_padic_product_below_radius_raises():
    """p = q = 1/3 on Qp p=3 m=3, A = {0, 1, 2, 4}: (a - a')/3 is finer than
    the set's units for a - a' = 1.  The loop skipped such products and
    counted 16, where 36 quadruples (a1 + a3 = a2 + a4) satisfy the condition
    exactly; the count raises.  For A = {0, 3, 6} every product lands on the
    grid and the count equals the loop."""
    Q3 = al.make_algebra("Qp", p=3, m=3)
    third = al.element(Q3, (1,), unit_exp=1)
    A = make_dset(Q3, [(0,), (1,), (2,), (4,)])
    assert _loop_quadruple(A, third, third) == (16, True)
    assert en.additive_energy(A, A) == 36
    with pytest.raises(ParameterRangeError, match="quadruple_count_sparse"):
        en.quadruple_count_sparse(A, third, third)
    A = make_dset(Q3, [(0,), (3,), (6,)])
    total, dropped = _loop_quadruple(A, third, third)
    assert not dropped and en.quadruple_count_sparse(A, third, third).total == total


def test_quadruple_padic_set_finer_than_algebra():
    """A Qp set at scale 3 over an algebra of m=2 with q = 1/2: as an
    Element, the difference 6 is 2 mod 2^2, so 6 q is 1, not 3."""
    Q2 = al.make_algebra("Qp", p=2, m=2)
    A = make_dset(Q2, [(0,), (2,), (6,)], scale_exp=3)
    half = al.element(Q2, (1,), unit_exp=1)
    total, dropped = _loop_quadruple(A, al.one(Q2), half)
    assert not dropped
    assert en.quadruple_count_sparse(A, al.one(Q2), half).total == total


def test_quadruple_cs_corollary_reported():
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(0,), (9,), (23,), (40,)])
    rep = en.quadruple_count_sparse(A, al.one(R), al.one(R))
    assert rep.extra["cs_lower_bound"] == len(A) ** 4 / rep.total
    assert rep.extra["measured_sumset"] >= rep.extra["cs_lower_bound"] / 2 ** R.d


# --- BSG extraction ---------------------------------------------------------

def test_bsg_complete_ap_graph_keeps_everything():
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(i,) for i in range(10)])
    H = so.product_pairs(A, A)
    res = en.bsg_extract(H, A, A)
    assert res.density_A == 1.0 and res.density_B == 1.0
    assert res.sumset_count == 19
    assert res.guarantee["holds"]


def test_bsg_matching_flagged_degenerate():
    R = al.make_algebra("R", m=8)
    rnd = random.Random(31)
    a_pts = sorted(rnd.sample(range(200), 12))
    b_pts = sorted(rnd.sample(range(200), 12))
    A = make_dset(R, [(i,) for i in a_pts])
    B = make_dset(R, [(i,) for i in b_pts])
    H = so.make_pairset(R, [(a, b) for a, b in zip(a_pts, b_pts)])
    res = en.bsg_extract(H, A, B)
    assert res.guarantee["degenerate"]


def test_bsg_empty_graph():
    R = al.make_algebra("R", m=4)
    A = make_dset(R, [(0,)])
    H = so.make_pairset(R, [])
    with pytest.raises(EmptyGraph):
        en.bsg_extract(H, A, A)


def test_bsg_planted_block_recovery():
    """AP x AP block plus sparse noise: popular sums find the block."""
    R = al.make_algebra("R", m=8)
    rnd = random.Random(5)
    ap = [(4 * i,) for i in range(16)]
    noise_a = [(rnd.randrange(128, 256),) for _ in range(8)]
    noise_b = [(rnd.randrange(128, 256),) for _ in range(8)]
    A = make_dset(R, ap + noise_a)
    B = make_dset(R, ap + noise_b)
    planted = [(a[0], b[0]) for a in ap for b in ap]
    noise_edges = [(x[0], y[0]) for x, y in zip(noise_a, noise_b)]
    H = so.make_pairset(R, planted + noise_edges)
    res = en.bsg_extract(H, A, B)
    a_keep = {tuple(p) for p in res.A_sub.points}
    b_keep = {tuple(p) for p in res.B_sub.points}
    rec = sum(1 for a, b in planted if (a,) in a_keep and (b,) in b_keep)
    assert rec >= len(planted) / 4
    assert res.sumset_count == len(so.sumset(res.A_sub, res.B_sub))



def _loop_bsg(H):
    """The popular-sums extraction as a loop over the edges, with Counters
    of Python-int tuples: the sorted kept a-rows and b-rows."""
    d = H.alg.d
    edges = [tuple(map(int, row)) for row in H.pairs]
    mod = None if H.alg.is_real_base else H.alg.p ** (H.scale_exp + H.radius_exp)

    def edge_sum(e):
        return tuple((e[k] + e[d + k]) % mod if mod else e[k] + e[d + k]
                     for k in range(d))

    mult = Counter(edge_sum(e) for e in edges)
    avg_mult = len(edges) / len(mult)
    popular = [e for e in edges if mult[edge_sum(e)] >= avg_mult / 2]
    deg = Counter(e[:d] for e in popular)
    avg_deg = len(popular) / len(deg)
    a_keep = {a for a, c in deg.items() if c >= avg_deg / 2}
    kept = [e for e in popular if e[:d] in a_keep]
    bdeg = Counter(e[d:] for e in kept)
    avg_bdeg = len(kept) / len(bdeg)
    b_keep = {b for b, c in bdeg.items() if c >= avg_bdeg / 2}
    return sorted(a_keep), sorted(b_keep)


_BSG_ALGEBRAS = [("R", {"m": 62}), ("C", {"m": 62}), ("Qp", {"p": 3, "m": 4}),
                 ("Qp", {"p": 5, "m": 27}), ("Qp_ext", {"p": 3, "d": 2, "m": 3}),
                 ("Qp_ext", {"p": 11, "d": 2, "m": 18})]


def _draw_graph(spec, edge, data):
    """(H, A, B) for a _BSG_ALGEBRAS entry: vertex pools A and B and edges
    between them, with coordinates near the int64 edge when `edge`."""
    alg = al.make_algebra(spec[0], **spec[1])
    if alg.is_real_base:
        near = hst.integers(-3, 3).map(lambda c: c + (2 ** 62 if c >= 0 else -2 ** 62))
    else:
        near = hst.integers(1, 7).map(lambda c: alg.p ** alg.m - c)
    coord = hst.integers(-3, 3) | near if edge else hst.integers(-3, 3)
    vertex = hst.lists(coord, min_size=alg.d, max_size=alg.d)
    a_pool = data.draw(hst.lists(vertex, min_size=1, max_size=6))
    b_pool = data.draw(hst.lists(vertex, min_size=1, max_size=6))
    edges = data.draw(hst.lists(hst.tuples(hst.sampled_from(a_pool), hst.sampled_from(b_pool)),
                                min_size=1, max_size=30))
    H = so.make_pairset(alg, [a + b for a, b in edges])
    event("sums past int64" if 2 * max(H.big) >= 2 ** 63 else "int64 sums")
    return H, make_dset(alg, a_pool), make_dset(alg, b_pool)


def _loop_sum_count(res):
    """|A_sub + B_sub| from a set of Python-int tuples."""
    alg, d = res.A_sub.alg, res.A_sub.alg.d
    mod = None if alg.is_real_base else alg.p ** (res.A_sub.scale_exp + res.A_sub.radius_exp)
    return len({tuple((a[k] + b[k]) % mod if mod else a[k] + b[k] for k in range(d))
                for a in res.A_sub.points.tolist() for b in res.B_sub.points.tolist()})


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from(_BSG_ALGEBRAS), hst.booleans(), hst.data())
def test_bsg_equals_counter_loop(spec, edge, data):
    """bsg_extract keeps the same A_sub and B_sub as the Counter loop on R, C,
    Qp and Qp_ext graphs: small coordinates with many repeated sums, and
    coordinates near +-2^62 (residues near p^m on Qp p=5 m=27 and Qp_ext
    p=11 m=18) whose edge sums pass int64.  The sumset of the result is
    stubbed out: past int64 it raises after the extraction."""
    H, A, B = _draw_graph(spec, edge, data)
    with mock.patch.object(so, "sumset", lambda X, Y: X):
        res = en.bsg_extract(H, A, B)
    a_keep, b_keep = _loop_bsg(H)
    assert list(map(tuple, res.A_sub.points.tolist())) == a_keep
    assert list(map(tuple, res.B_sub.points.tolist())) == b_keep


def test_bsg_padic_sums_past_int64():
    """On Qp p=5 m=27 the edge (-1, -1) sums to -2 mod 5^27 with the six
    edges (i, -2 - i), but its int64 sum wraps: summed in Python ints, it
    stays popular and keeps its a-vertex.  (The sumset of the result then
    passes int64, so it is stubbed out.)"""
    alg = al.make_algebra("Qp", p=5, m=27)
    top = 5 ** 27
    edges = [(top - 1, top - 1), (0, 0), (1, 1)] + [(i, top - 2 - i) for i in range(6)]
    H = so.make_pairset(alg, edges)
    A = make_dset(alg, [(a,) for a, _ in edges])
    with mock.patch.object(so, "sumset", lambda X, Y: X):
        res = en.bsg_extract(H, A, A)
    assert list(map(tuple, res.A_sub.points.tolist())) == _loop_bsg(H)[0]
    assert res.A_sub.points.ravel().tolist() == [0, 1, 2, 3, 4, 5, top - 1]


def test_bsg_padic_sumset_count_past_int64():
    """The same Qp p=5 m=27 graph with its sumset: |A_sub + B_sub| has sums
    past int64, so it is counted from Python-int sums mod 5^27; it equals
    the brute-force count."""
    alg = al.make_algebra("Qp", p=5, m=27)
    top = 5 ** 27
    edges = [(top - 1, top - 1), (0, 0), (1, 1)] + [(i, top - 2 - i) for i in range(6)]
    H = so.make_pairset(alg, edges)
    A = make_dset(alg, [(a,) for a, _ in edges])
    res = en.bsg_extract(H, A, A)
    assert 2 * int(res.A_sub.points.max()) >= 2 ** 63
    assert res.sumset_count == _loop_sum_count(res)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(_BSG_ALGEBRAS), hst.booleans(), hst.data())
def test_bsg_sumset_count_equals_loop(spec, edge, data):
    """bsg_extract's |A_sub + B_sub| equals the count of a set of Python-int
    sums, with int64 sums (the sumset kernel) and past int64."""
    H, A, B = _draw_graph(spec, edge, data)
    res = en.bsg_extract(H, A, B)
    assert res.sumset_count == _loop_sum_count(res)

# --- ledgers ----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(hst.integers(0, 10 ** 6))
def test_ruzsa_triangle_never_violated(seed):
    rnd = random.Random(seed)
    R = al.make_algebra("R", m=6)
    env = {name: _rset(R, rnd, rnd.randrange(3, 10)) for name in "ABC"}
    rows = en.ledger_rows(env, [en.ruzsa_triangle_instance()])
    assert rows[0]["slack"] >= 1


@settings(max_examples=30, deadline=None)
@given(hst.integers(0, 10 ** 6))
def test_plunnecke_instance_never_violated(seed):
    rnd = random.Random(seed)
    R = al.make_algebra("R", m=6)
    A = _rset(R, rnd, rnd.randrange(3, 9))
    B = _rset(R, rnd, rnd.randrange(3, 9))
    row = en.plunnecke_row(A, B)
    assert row["slack"] >= 1


def test_ledger_csv_roundtrip(tmp_path):
    R = al.make_algebra("R", m=5)
    rnd = random.Random(1)
    env = {name: _rset(R, rnd, 5) for name in "ABC"}
    rows = en.ledger_rows(env, [en.ruzsa_triangle_instance()])
    rows.append(en.energy_cs_row(env["A"]))
    path = tmp_path / "ledger.csv"
    en.write_ledger_csv(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "instance,lhs,rhs,slack"
    assert len(text) == 3


def test_eval_expr_scalar_nodes():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(0,), (4,), (8,)])
    env = {"A": A}
    out = en.eval_expr(env, ("scal", al.element(R, (64,)), ("set", "A")))
    assert sorted(int(p[0]) for p in out.points) == [0, 8, 16]
