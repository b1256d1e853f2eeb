"""Counting engines: energies, incidence counts, extraction, ledgers."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import energy as en
from dlab import setops as so
from dlab.dset import make_dset
from dlab.errors import (
    BudgetExceeded,
    DivisionByNegligible,
    EmptyGraph,
    ParameterRangeError,
)


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
            prod = al.mul_exact(alg, x, e)
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
        prod = al.mul_exact(alg, u, x)
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
            prod = al.mul_exact(alg, al.element(alg, u, A.unit_exp()), x)
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
