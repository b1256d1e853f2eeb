"""Set calculus: sums, products, projections, quotients, linear maps."""

import itertools
import math
import os
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import dset
from dlab import lab
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

from oracles import det_fraction, mul_exact


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


def test_sumset_past_int64_raises():
    """2^62 + 2^62 does not fit in int64: the pairwise branch, the FFT branch
    (more than PAIRWISE_CAP pairs) and difference_set raise instead of
    wrapping; one less fits and is exact."""
    R = al.make_algebra("R", m=62)
    A = make_dset(R, [(2 ** 62 - 1,), (2 ** 62,)])
    with pytest.raises(ParameterRangeError, match=r"sumset: .*sizes \[2, 2\]"):
        so.sumset(A, A)
    with pytest.raises(ParameterRangeError, match="sumset"):
        so.difference_set(A, so.negate(A))
    wide = make_dset(R, [(2 ** 62 - i,) for i in range(2001)])
    with pytest.raises(ParameterRangeError, match=r"sizes \[2001, 2001\]"):
        so.sumset(wide, wide)
    B = make_dset(R, [(2 ** 62 - 1,), (2 ** 62 - 2,), (1 - 2 ** 62,)])
    S = so.sumset(B, B)
    assert sorted(int(v) for v in S.points[:, 0]) == sorted(
        {a + b for a in (2 ** 62 - 1, 2 ** 62 - 2, 1 - 2 ** 62)
         for b in (2 ** 62 - 1, 2 ** 62 - 2, 1 - 2 ** 62)})


def test_fft_sumset_off_integers_raises(monkeypatch):
    """The FFT branch checks that every convolution entry is within 1/4 of
    an integer; a perturbed inverse transform raises rather than being
    thresholded at 1/2."""
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(i, 2 * i) for i in range(10)])
    monkeypatch.setattr(so, "PAIRWISE_CAP", 0)
    assert so.sumset(A, A) == make_dset(C, [(i, 2 * i) for i in range(19)],
                                        radius_exp=1)
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *a: irfftn(*a) + 0.3)
    with pytest.raises(ParameterRangeError, match=r"sumset: .*sizes \[10, 10\]"):
        so.sumset(A, A)
    # the windowed path: iterated's clipped last sum A - A
    with pytest.raises(ParameterRangeError, match=r"sumset: .*sizes \[10, 10\]"):
        so.iterated(A, 1, 1)


# --- the FFT sumset against the pairwise one ---------------------------------

# (kind, p, d, m, coordinate range): small boxes on the real base, every
# residue of the cyclic grid on the p-adic base
_FFT_ALGEBRAS = [("R", None, 1, 4, 24), ("C", None, 2, 4, 9), ("H", None, 4, 4, 3),
                 ("Qp", 2, 1, 5, None), ("Qp", 3, 1, 3, None), ("Qp", 5, 1, 2, None),
                 ("Qp_ext", 3, 2, 2, None)]


def _fft_branch(op, *args, **caps):
    """op(*args) with the FFT branch forced; caps override module constants."""
    with mock.patch.multiple(so, PAIRWISE_CAP=0, **caps):
        return op(*args)


def _fft_operands(spec, data):
    """Two sets drawn for an _FFT_ALGEBRAS entry."""
    kind, p, d, m, span = spec
    alg = al.make_algebra(kind, p=p, d=d, m=m)
    coord = (hst.integers(-span, span) if alg.is_real_base
             else hst.integers(0, p ** m - 1))
    rows = hst.lists(hst.tuples(*[coord] * d), min_size=1, max_size=12)
    return make_dset(alg, data.draw(rows)), make_dset(alg, data.draw(rows))


@settings(max_examples=100, deadline=None)
@given(hst.sampled_from(_FFT_ALGEBRAS),
       hst.sampled_from(["same", "difference", "pair", "disjoint", "difference-pair"]),
       hst.data())
def test_fft_sumset_equals_pairwise(spec, mode, data):
    """The FFT branch (smooth padded lengths on the real base, the cyclic
    grid p^k on the p-adic base, one squared spectrum when both operands
    are the same set) gives the pairwise sumset, and the pairwise
    difference set for A - A and for A - B of two sets."""
    A, B = _fft_operands(spec, data)
    alg, span = A.alg, spec[4]
    if mode == "disjoint":  # B's box far from A's on every axis
        B = make_dset(alg, B.points + (3 * span if alg.is_real_base else 0))
    op, args = {"same": (so.sumset, (A, A)), "difference": (so.difference_set, (A, A)),
                "pair": (so.sumset, (A, B)), "disjoint": (so.sumset, (A, B)),
                "difference-pair": (so.difference_set, (A, B))}[mode]
    with mock.patch.object(np.fft, "rfftn", wraps=np.fft.rfftn) as rfftn:
        assert _fft_branch(op, *args) == op(*args)
    # one spectrum for A + A (squared) and for A - A (|F|^2), two for A - B
    assert rfftn.call_count == (1 if mode in ("same", "difference") else 2)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(_FFT_ALGEBRAS), hst.booleans(), hst.data())
def test_fft_support_sum_rows_are_canonical(spec, same, data):
    """_fft_sum returns the support of a + b already distinct and in
    lexicographic order, so a DSet only copies it: its raw rows equal
    np.unique of themselves and the pairwise sumset's points."""
    A, B = _fft_operands(spec, data)
    B = A if same else B
    mod = None if A.alg.is_real_base else A.alg.p ** A.scale_exp
    out = so._fft_sum(A.points, B.points, cyclic_mod=mod)
    assert out.dtype == np.int64
    assert np.array_equal(out, np.unique(out, axis=0))
    assert np.array_equal(out, so.sumset(A, B).points)


def _is_smooth(n):
    for f in (2, 3, 5, 7):
        while n % f == 0:
            n //= f
    return n == 1


def test_smooth_len_equals_scan():
    assert [so._smooth_len(n) for n in range(1, 4000)] == [
        next(k for k in itertools.count(n) if _is_smooth(k)) for n in range(1, 4000)]


def test_fft_sumset_prime_length_and_cell_cap():
    """A 1-d convolution of prime length 1033 is transformed at 1050 =
    2 3 5^2 7; when FFT_CELL_CAP rejects the padded grid but holds the box,
    the box itself is transformed and gives the same set; below the box
    BudgetExceeded is raised as before."""
    R = al.make_algebra("R", m=9)
    rnd = random.Random(1033)
    A = make_dset(R, [(0,), (516,)] + [(rnd.randrange(517),) for _ in range(40)])
    B = make_dset(R, [(-3,), (513,)] + [(rnd.randrange(-3, 514),) for _ in range(40)])
    want = so.sumset(A, B)
    for cap, length in ((so.FFT_CELL_CAP, 1050), (1049, 1033), (1033, 1033)):
        with mock.patch.object(np.fft, "rfftn", wraps=np.fft.rfftn) as rfftn:
            assert _fft_branch(so.sumset, A, B, FFT_CELL_CAP=cap) == want
        assert [c.args[1] for c in rfftn.call_args_list] == [(length,)] * 2
    with mock.patch.object(np.fft, "rfftn", wraps=np.fft.rfftn) as rfftn:
        assert _fft_branch(so.sumset, A, A) == so.sumset(A, A)
    assert len(rfftn.call_args_list) == 1     # one spectrum, squared
    with pytest.raises(BudgetExceeded, match=rf"sumset: FFT grid 1033 for operands of "
                       rf"sizes \[{len(A)}, {len(B)}\] has 1033 cells, past FFT_CELL_CAP 1032"):
        _fft_branch(so.sumset, A, B, FFT_CELL_CAP=1032)


def _window(lo, hi, where, draw):
    """A value window per axis for sums in the box [lo, hi]: the box itself,
    inside it, crossing its edges, or disjoint from it on one axis."""
    d, w = len(lo), [h - l + 1 for l, h in zip(lo, hi)]
    if where == "box":
        return list(lo), list(hi)
    if where == "inside":
        a = [draw(hst.integers(l, h)) for l, h in zip(lo, hi)]
        return a, [draw(hst.integers(u, h)) for u, h in zip(a, hi)]
    a = [draw(hst.integers(l - t, h)) for l, h, t in zip(lo, hi, w)]
    b = [draw(hst.integers(max(u, l), h + t)) for u, l, h, t in zip(a, lo, hi, w)]
    if where == "edge":     # one axis at least crossing the box's edge
        t = draw(hst.integers(0, d - 1))
        a[t], b[t] = draw(hst.sampled_from([(lo[t] - w[t], hi[t] - 1),
                                            (lo[t] + 1, hi[t] + w[t])]))
        return a, b
    t = draw(hst.integers(0, d - 1))   # "disjoint": below or above on axis t
    a[t], b[t] = draw(hst.sampled_from([(lo[t] - w[t], lo[t] - 1),
                                        (hi[t] + 1, hi[t] + w[t])]))
    return a, b


@settings(max_examples=120, deadline=None)
@given(hst.sampled_from(_FFT_ALGEBRAS[:3]),
       hst.sampled_from(["box", "inside", "edge", "disjoint"]), hst.booleans(),
       hst.data())
def test_windowed_fft_support_sum_equals_pairwise(spec, where, same, data):
    """With a value window the FFT support is the pairwise sums inside the
    window, distinct and in lexicographic order; a window disjoint from the
    sums' box gives no rows."""
    A, B = _fft_operands(spec, data)
    a = A.points
    b = a if same else B.points
    lo = (a.min(axis=0) + b.min(axis=0)).tolist()
    hi = (a.max(axis=0) + b.max(axis=0)).tolist()
    wlo, whi = _window(lo, hi, where, data.draw)
    want = sorted({s for s in (tuple(int(t) for t in u + v) for u in a for v in b)
                   if all(l <= t <= h for t, l, h in zip(s, wlo, whi))})
    got = so._fft_sum(a, b, window=(wlo, whi))
    assert got.dtype == np.int64
    assert [tuple(r) for r in got.tolist()] == want
    if where == "disjoint":
        assert got.shape == (0, A.alg.d)


def test_fft_window_lengths():
    """The cyclic length is the smallest 7-smooth L >= max(N - w0, w1 + 1,
    span a, span b): the whole box keeps _smooth_len(N) (1050 for the prime
    N = 1033), a window in the middle transforms a shorter grid, and even
    a one-value window keeps the operands' spans."""
    R = al.make_algebra("R", m=9)
    rnd = random.Random(1033)
    A = make_dset(R, [(0,), (516,)] + [(rnd.randrange(517),) for _ in range(40)])
    B = make_dset(R, [(-3,), (513,)] + [(rnd.randrange(-3, 514),) for _ in range(40)])
    pairs = {int(u + v) for u in A.points[:, 0] for v in B.points[:, 0]}
    # (window in values, sums from -3; transformed length)
    for (wlo, whi), length in (((-3, 1029), so._smooth_len(1033)),
                               ((-100, 2000), 1050),
                               ((397, 597), 640),     # max(1033 - 400, 601) = 633
                               ((513, 513), 525)):    # all four are 517
        with mock.patch.object(np.fft, "rfftn", wraps=np.fft.rfftn) as rfftn:
            got = so._fft_sum(A.points, B.points, window=([wlo], [whi]))
        assert [c.args[1] for c in rfftn.call_args_list] == [(length,)] * 2
        assert got[:, 0].tolist() == sorted(v for v in pairs if wlo <= v <= whi)


@pytest.mark.parametrize("n_sum", [1, 2, 3])
@pytest.mark.parametrize("spec, m, top, n", [("R", 6, 64, 30), ("C", 4, 16, 20),
                                             ("H", 2, 4, 10)])
def test_clipped_iterated_fft_equals_ball_of_sumset(spec, m, top, n, n_sum):
    """iterated with clip, whose whole sum chain the FFT power path forms
    only inside the unit ball's box, equals the ball of the whole sumset."""
    alg = al.make_algebra(spec, m=m)
    rnd = np.random.default_rng(n_sum)
    A = make_dset(alg, rnd.integers(-top, top + 1, size=(n, alg.d)))
    D = so.difference_set(A, A)
    S = D
    for _ in range(n_sum - 1):
        S = so.sumset(S, D)
    want = so.ball_intersect(S, 0)
    with mock.patch.object(so, "_fft_sum", wraps=so._fft_sum) as fft:
        assert _fft_branch(so.iterated, A, n_sum, 1) == want
    assert fft.call_args.args[1:] == (None, n_sum, None, (-2 ** m, 2 ** m))    # the chain
    assert len(want) < len(S)


def _spy_fft_sum(monkeypatch):
    """Patch _fft_sum with a wrapper; the returned list records, per call,
    (n, whether the float-error bound sent the caller to the chain) for a
    power-path call n (a - a), and "a + b" for a sum of two operands."""
    calls, fft_sum = [], so._fft_sum

    def spy(a, b, n=1, *rest):
        out = fft_sum(a, b, n, *rest)
        calls.append((n, out is None) if b is None else "a + b")
        return out
    monkeypatch.setattr(so, "_fft_sum", spy)
    return calls


def _pairwise_chain(A, n_sum, clip):
    """n_sum (A - A), clipped to B(0, 1) when clip, as the stepwise chain of
    pairwise sumsets (the operands here are far below PAIRWISE_CAP pairs)."""
    D = so.difference_set(A, A)
    S = D
    for _ in range(n_sum - 1):
        S = so.sumset(S, D)
    return so.ball_intersect(S, 0) if clip else S


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([spec for spec in _FFT_ALGEBRAS if spec[:2] != ("Qp", 5)]),
       hst.integers(1, 3), hst.booleans(), hst.integers(0, 1), hst.data())
def test_fft_power_sum_equals_pairwise_chain(spec, n_sum, clip, radius, data):
    """iterated's power path, n_sum (A - A) from one forward and one inverse
    transform (forced by a pairwise cap of 0), equals the stepwise chain of
    pairwise sumsets, clipped or not, on the real base and on the cyclic
    p-adic grid (at p-adic radius_exp 0 or 1)."""
    kind, p, d, m, span = spec
    alg = al.make_algebra(kind, p=p, d=d, m=m)
    r = 0 if alg.is_real_base else radius
    coord = (hst.integers(-span, span) if alg.is_real_base
             else hst.integers(0, p ** (m + r) - 1))
    A = make_dset(alg, data.draw(hst.lists(hst.tuples(*[coord] * d), min_size=1,
                                           max_size=12)), radius_exp=r)
    want = _pairwise_chain(A, n_sum, clip)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_fft_sum(mp)
        got = _fft_branch(so.iterated, A, n_sum, 1, clip)
    assert got == want
    assert calls == [(n_sum, False)]    # no a + b sum


def test_fft_power_sum_bound_fails_takes_the_chain(monkeypatch):
    """350 points of R m=8 with n_sum = 3: (2 n + 1) c u log2(L) |P|^(2n - 1)
    is about 0.35 on the grid of 1792 cells, past 1/4, so iterated takes the
    stepwise chain (whose D = P - P is the power path with n = 1) and gives
    the pairwise chain's set."""
    R = al.make_algebra("R", m=8)
    rnd = random.Random(350)
    A = make_dset(R, [(v,) for v in rnd.sample(range(-256, 257), 350)])
    want = _pairwise_chain(A, 3, True)
    calls = _spy_fft_sum(monkeypatch)
    assert _fft_branch(so.iterated, A, 3, 1) == want
    assert 7 * so._FFT_EPS * math.log2(1792) * 350 ** 5 > 0.25
    assert calls == [(3, True), (1, False), "a + b", "a + b"]     # (D + D) + D


def test_grid_rows_past_int64_raise():
    """R m=62 at radius 1 holds 2^63 - 1; its square is 2^64 - 2 at the grid
    unit, past int64: the product, the scalar image and the projection raise
    ParameterRangeError naming the operation.  Rows that fit come back."""
    R = al.make_algebra("R", m=62)
    A = make_dset(R, [(2 ** 63 - 1,), (3,)], radius_exp=1)
    x = A.element(1)
    with pytest.raises(ParameterRangeError, match="product_set: grid rows past int64"):
        so.product_set(A, A)
    with pytest.raises(ParameterRangeError, match="scalar_image: grid rows past int64"):
        so.scalar_image(x, A)
    with pytest.raises(ParameterRangeError, match="project: grid rows past int64"):
        so.project(x, so.product_pairs(A, A))
    small = make_dset(R, [(2 ** 62,), (3,)])
    assert so.product_set(small, small).points.tolist() == [[0], [3], [2 ** 62]]
    # Qp p=2 m=61, x = 1/2: the output modulus 2^62 takes the sum a + xb to
    # Python ints (bound max|xb| = 5 over 2, plus a below 2^62), and rows that
    # fit come back (3 + 5/2 and 7 + 1/2); at m=62 the output modulus 2^63 is
    # past int64 and refused up front
    G = so.make_pairset(al.make_algebra("Qp", p=2, m=61), [(3, 5), (7, 1)])
    half = al.element(G.alg, (1,), unit_exp=1)
    assert so._grid_dtype(G.alg, 5, 2, 61, 1, 2 ** 62) is object
    assert so.project(half, G).points.tolist() == [[11], [15]]
    G = so.make_pairset(al.make_algebra("Qp", p=2, m=62), [(3, 5), (7, 1)])
    with pytest.raises(ParameterRangeError, match=r"project: modulus 2\^63 past int64"):
        so.project(al.element(G.alg, (1,), unit_exp=1), G)


def test_apply_dual_padic_modulus_past_int64_raises():
    """apply_dual of the identity on Qp p=2 m=44 maps X = {3, 5} to radius
    m // 2 + 1 = 23, modulus 2^67: the grid step refuses it, naming the op,
    instead of returning a set that write_dset writes and read_dset
    rejects."""
    Q2 = al.make_algebra("Qp", p=2, m=44)
    one, zero = (al.element(Q2, (c,)) for c in (1, 0))
    X = make_dset(Q2, [(3,), (5,)])
    with pytest.raises(ParameterRangeError, match=r"apply_dual: modulus 2\^67 past int64"):
        so.apply_dual([[one, zero], [zero, one]], X)


def test_sumset_radius_change_past_int64_raises():
    """Re-expressing a p-adic set at a larger radius multiplies by p^k; a
    product past int64 raises (sets built directly, as make_dset refuses
    the modulus p^(m + r) past int64)."""
    Q2 = al.make_algebra("Qp", p=2, m=40)
    A = DSet(Q2, 40, 0, np.array([[2 ** 40 - 1]], dtype=np.int64))
    B = DSet(Q2, 40, 30, np.array([[1]], dtype=np.int64))
    with pytest.raises(ParameterRangeError, match="radius change 0 -> 30"):
        so.sumset(A, B)


def test_construction_past_int64_raises():
    Q2 = al.make_algebra("Qp", p=2, m=63)
    with pytest.raises(ParameterRangeError, match="modulus 2\\^63"):
        make_dset(Q2, [(1,)])
    with pytest.raises(ParameterRangeError, match="modulus 2\\^63"):
        so.make_pairset(Q2, [(1, 1)])
    with pytest.raises(ParameterRangeError, match="modulus 2\\^63"):
        make_dset(al.make_algebra("Qp", p=2, m=60), [(1,)], radius_exp=3)
    R = al.make_algebra("R", m=4)
    with pytest.raises(ParameterRangeError, match="coordinates past int64"):
        make_dset(R, [(2 ** 63,)])
    with pytest.raises(ParameterRangeError, match="coordinates past int64"):
        so.make_pairset(R, [(0, -2 ** 63 - 1)])


# --- the real-base grid step against the Fraction oracle --------------------

_INT64_EDGE = [0, 2 ** 63, -2 ** 63, 2 ** 63 - 1, 1 - 2 ** 63]


@settings(max_examples=150, deadline=None)
@given(hst.integers(0, 6), hst.booleans(), hst.data())
def test_to_grid_rounds_like_value_to_grid(scale_exp, per_row, data):
    """Real-base _to_grid equals al._value_to_grid on Fractions: rounded
    once, half away from zero, on int64 (when _grid_dtype allows it) and on
    Python-int raw arrays, with one denominator or one per row, at exact
    ties +-(k + 1/2), at zero and past 2^63.  A result row past int64
    raises ParameterRangeError."""
    C = al.make_algebra("C", m=6)
    n = data.draw(hst.integers(1, 5))
    den_st = hst.builds(lambda a, b: 2 ** a * b, hst.integers(0, 9),
                        hst.sampled_from([1, 3, 5, 21]))
    dens = (data.draw(hst.lists(den_st, min_size=n, max_size=n)) if per_row
            else [data.draw(den_st)] * n)

    def raw_value(den):
        # a tie needs 2 raw 2^scale_exp = (2k + 1) den, so 2^(scale_exp + 1) | den
        half = den >> (scale_exp + 1) if den % 2 ** (scale_exp + 1) == 0 else 0
        tie = (2 * data.draw(hst.integers(0, 40)) + 1) * half
        v = data.draw(hst.one_of(hst.integers(-100, 100), hst.integers(-2 ** 70, 2 ** 70),
                                 hst.sampled_from(_INT64_EDGE + [tie, -tie])))
        if tie and abs(v) == tie:
            event("exact tie")
        return v

    rows = [[raw_value(den) for _ in range(2)] for den in dens]
    want = [list(al._value_to_grid(C, [Fraction(v, den) for v in row], scale_exp, 0))
            for row, den in zip(rows, dens)]
    fits = all(-2 ** 63 <= v < 2 ** 63 for row in want for v in row)
    den = dens if per_row else dens[0]
    big = max(abs(v) for row in rows for v in row)
    small = so._grid_dtype(C, big, den, scale_exp, 0) is np.int64
    dtypes = [object, np.int64] if small else [object]
    for dtype in dtypes:
        raw = np.array(rows, dtype=dtype)
        event(f"dtype {np.dtype(dtype).name}, fits {fits}")
        if not fits:
            with pytest.raises(ParameterRangeError):
                so._to_grid(C, raw, den, scale_exp, 0, "test")
            continue
        got = so._to_grid(C, raw, den, scale_exp, 0, "test")
        assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 3), hst.booleans(), hst.data())
def test_grid_exact_rounds_each_entry_half_away(scale_exp, per_row, data):
    """Real-base _grid_exact rounds every entry v of raw to
    algebra.round_half_away(v 2^scale_exp, den), on int64 and on Python-int
    raw arrays, with one denominator or one per row of raw's second-to-last
    axis, odd and even: at exact ties +-(k + 1/2) q (q = den / gcd(den,
    2^scale_exp), so the raw value is +-(k + 1/2) q / f), next to them, and
    at the int64 guard, the largest |v| _grid_dtype lets int64 take."""
    R = al.make_algebra("R", m=4)
    rows, width = data.draw(hst.integers(1, 3)), data.draw(hst.integers(1, 3))
    den_st = hst.builds(lambda a, b: 2 ** a * b, hst.integers(0, 6), hst.integers(1, 9))
    dens = data.draw(hst.lists(den_st, min_size=rows, max_size=rows)) if per_row \
        else [data.draw(den_st)] * rows
    den = dens if per_row else dens[0]
    f, q, _ = so._grid_steps(R, den, scale_exp, 0)
    guard, past = 0, 2 ** 63    # _grid_dtype takes int64 for |raw| <= guard only
    while past - guard > 1:
        mid = (guard + past) // 2
        guard, past = (mid, past) if so._grid_dtype(R, mid, den, scale_exp, 0) is np.int64 \
            else (guard, mid)

    def value(fi, qi):
        k, sign = data.draw(hst.integers(0, 30)), data.draw(hst.sampled_from([1, -1]))
        tie = (2 * k + 1) * qi // 2 // fi if ((2 * k + 1) * qi) % (2 * fi) == 0 else 0
        if tie:
            event("exact tie")
        return sign * data.draw(hst.one_of(
            hst.integers(0, 200), hst.sampled_from([tie, tie + 1, max(tie - 1, 0)]),
            hst.sampled_from([guard, guard - 1]), hst.integers(guard + 1, 2 ** 70)))

    steps = [(f[i], q[i]) if per_row else (f[0], q[0]) for i in range(rows)]
    raw = [[[value(fi, qi) for _ in range(width)] for fi, qi in steps] for _ in range(2)]
    want = [[[al.round_half_away(v * 2 ** scale_exp, dn) for v in row]
             for row, dn in zip(block, dens)] for block in raw]
    event("q even" if any(v % 2 == 0 for v in q) else "q odd")
    small = so._grid_dtype(R, max(abs(v) for b in raw for r in b for v in r),
                           den, scale_exp, 0) is np.int64
    if small and guard in {abs(v) for b in raw for r in b for v in r}:
        event("int64 at the guard")
    for dtype in [object, np.int64] if small else [object]:
        event(f"dtype {np.dtype(dtype).name}")
        got = so._grid_exact(R, np.array(raw, dtype=dtype), den, scale_exp, 0, "test")
        assert got.dtype == dtype and got.tolist() == want


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



def test_project_rounds_x_b_then_adds_a():
    """R m=1, a = -1/2, b = 1/2, x = 1/2: project gives a + round(x b) =
    -1/2 + 1/2 = 0, as the Element loop add(a, mul(x, b)) does; rounding
    a + x b = -1/4 once, half away from zero, would give -1/2."""
    R = al.make_algebra("R", m=1)
    G = so.make_pairset(R, [(-1, 1)])
    x = al.element(R, (1,))
    a, b = al.element(R, (-1,)), al.element(R, (1,))
    assert so.project(x, G).points.tolist() == [[0]]
    assert al.add(R, a, al.mul(R, x, b)).coords == (0,)
    assert al._value_to_grid(R, [Fraction(-1, 4)], 1, 0) == (-1,)

def test_project_adds_a_before_the_int64_cast():
    """H m=62, a = (0, 0, 1, 0), b = (-2^62, -2^62, -2^62, 0),
    x = (2^62, 0, 1, 2^62): x b passes int64 but a + x b does not.  On the
    object path a is added to x b in Python ints, so project gives the
    Element loop's row instead of raising."""
    H = al.make_algebra("H", m=62)
    a, b = (0, 0, 1, 0), (-2 ** 62, -2 ** 62, -2 ** 62, 0)
    x = al.element(H, (2 ** 62, 0, 1, 2 ** 62))
    xb = al.mul(H, x, al.element(H, b))
    assert any(not -2 ** 63 <= c < 2 ** 63 for c in xb.coords)
    want = al.add(H, al.element(H, a), xb).coords
    assert all(-2 ** 63 <= c < 2 ** 63 for c in want)
    G = so.make_pairset(H, [a + b])
    assert so.project(x, G).points.tolist() == [list(want)]


def test_project_sum_past_int64_raises_not_wraps():
    """R at scale 0, radius 62, x = 1: the raw products b x fit in int64,
    but a + x b = 2^62 + 2^62 does not.  The sum is taken in Python ints and
    raises instead of wrapping to -2^63; a + x b = 0 still projects."""
    R = al.make_algebra("R", m=1)
    x = al.element(R, (1,), unit_exp=0)
    G = so.make_pairset(R, [(2 ** 62, 2 ** 62)], scale_exp=0, radius_exp=62)
    with pytest.raises(ParameterRangeError, match="project: grid rows past int64"):
        so.project(x, G)
    G = so.make_pairset(R, [(2 ** 62, -2 ** 62)], scale_exp=0, radius_exp=62)
    assert so.project(x, G).points.tolist() == [[0]]


_PROJECT_ALGEBRAS = [("R", None, None), ("C", None, None), ("H", None, None),
                     ("Qp", 3, None), ("Qp_ext", 3, 2)]


def _loop_project_rows(x, G):
    """(rows, radius_exp) of pi_x(G) from Element arithmetic: add(a, mul(x, b))
    for every pair of G, in G's row order, snapped onto the grid of the
    output radius: G's plus 1 + the least e >= 0 with |x| <= 2^e (real) or
    plus max(unit_exp of x, 0) (p-adic)."""
    alg, d, unit = G.alg, G.alg.d, G.unit_exp()
    if alg.is_real_base:
        e = 0
        while al.norm_sq(alg, x) > 4 ** e:
            e += 1
        r = G.radius_exp + 1 + e
    else:
        r = G.radius_exp + max(x.unit_exp, 0)
    rows = []
    for row in G.pairs.tolist():
        a, b = al.element(alg, row[:d], unit), al.element(alg, row[d:], unit)
        e = al.add(alg, a, al.mul(alg, x, b))
        rows.append(al._value_to_grid(alg, al.value_coords(alg, e), G.scale_exp, r))
    return np.array(rows, dtype=np.int64).reshape(-1, d), r


@settings(max_examples=120, deadline=None)
@given(hst.sampled_from(_PROJECT_ALGEBRAS), hst.sampled_from(["int64", "object"]),
       hst.data())
def test_project_many_equals_element_loop(spec, path, data):
    """_project_many yields, direction by direction, the rows and radius of
    the Element loop add(a, mul(x, b)), on R, C, H, Qp and Qp_ext, at radius
    0 and 1, for directions of mixed unit_exp in one call, on the int64 path
    (m = 5) and the object path (raw products past int64), and for an empty
    G; project equals a one-direction call."""
    name, p, d = spec
    real = name in ("R", "C", "H")
    m = 5 if path == "int64" else (40 if real else 25)
    alg = al.make_algebra(name, p=p, d=d, m=m)
    radius = data.draw(hst.integers(0, 1), label="radius")

    def wide(top):      # the object path draws every coordinate near the top
        c = hst.integers(top // 4, top - 1)
        return c | c.map(lambda v: -v) if real else c
    top = alg.radix ** (m + radius)
    coord = _grid_coord(alg, m, radius) if path == "int64" else wide(top)
    pairs = data.draw(hst.lists(hst.lists(coord, min_size=2 * alg.d, max_size=2 * alg.d),
                                max_size=5), label="pairs")
    G = so.make_pairset(alg, pairs, m, radius)
    units = [m - 1, m, m + 1] if real else [0, 1, 2]
    xs = []
    for u in data.draw(hst.lists(hst.sampled_from(units), min_size=1, max_size=4),
                       label="units"):
        top = 2 ** (u + 1) if real else alg.p ** (m + u)
        c = (hst.integers(-top, top) if real else hst.integers(0, top - 1)) \
            if path == "int64" else wide(top)
        xs.append(al.element(alg, data.draw(hst.lists(c, min_size=alg.d, max_size=alg.d),
                                            label="x"), u))
    big_x = max(abs(c) for x in xs for c in x.coords)
    event(f"{path}: raw products "
          f"{'past' if so._product_bound(alg, G.big[1], big_x) >= 2 ** 63 else 'in'} int64")
    event("mixed unit_exp" if len({x.unit_exp for x in xs}) > 1 else "one unit_exp")
    got = list(so._project_many(xs, G))
    assert len(got) == len(xs)
    for x, (rows, r) in zip(xs, got):
        want, want_r = _loop_project_rows(x, G)
        assert r == want_r and rows.dtype == np.int64
        assert np.array_equal(rows, want)
        assert so.project(x, G) == DSet(alg, m, r, rows)


# --- empty operands get the radius of a one-point operand --------------------

_EMPTY_ALGEBRAS = [("R", None, 1), ("C", None, 2), ("H", None, 4), ("Qp", 3, 1),
                   ("Qp_ext", 3, 2)]


def _one_and_empty(kind, p, d, radius_exp=1):
    alg = al.make_algebra(kind, p=p, d=d, m=4)
    one = make_dset(alg, [(3,) * d], radius_exp=radius_exp)
    return one, make_dset(alg, np.zeros((0, d), dtype=np.int64), radius_exp=radius_exp)


@pytest.mark.parametrize("kind, p, d", _EMPTY_ALGEBRAS)
def test_sumset_of_empty_has_one_point_radius(kind, p, d):
    one, empty = _one_and_empty(kind, p, d)
    A = make_dset(one.alg, [(1,) * d, (2,) + (0,) * (d - 1)], radius_exp=0)
    for X, Y, Z in ((A, empty, one), (empty, A, one), (empty, empty, one)):
        S = so.sumset(X, Y)
        assert len(S) == 0 and S.radius_exp == so.sumset(X if len(X) else Z,
                                                         Y if len(Y) else Z).radius_exp
    assert so.difference_set(A, empty).radius_exp == so.difference_set(A, one).radius_exp


@pytest.mark.parametrize("kind, p, d", _EMPTY_ALGEBRAS)
def test_product_set_of_empty_has_one_point_radius(kind, p, d):
    one, empty = _one_and_empty(kind, p, d)
    A = make_dset(one.alg, [(1,) * d, (2,) + (0,) * (d - 1)], radius_exp=1)
    for side in ("Left", "Right"):
        for X, Y, Z in ((A, empty, (A, one)), (empty, A, (one, A))):
            P = so.product_set(X, Y, side)
            assert len(P) == 0 and P.radius_exp == so.product_set(*Z, side).radius_exp
    assert so.product_set(A, empty).radius_exp == 2


@pytest.mark.parametrize("kind, p, d", _EMPTY_ALGEBRAS)
def test_scalar_image_of_empty_has_one_point_radius(kind, p, d):
    one, empty = _one_and_empty(kind, p, d)
    for x in (al.element(one.alg, (5,) * d, 1), al.element(one.alg, (1,) * d, 3)):
        for side in ("Left", "Right"):
            I = so.scalar_image(x, empty, side)
            assert len(I) == 0
            assert I.radius_exp == so.scalar_image(x, one, side).radius_exp


@pytest.mark.parametrize("kind, p, d", _EMPTY_ALGEBRAS)
def test_project_of_empty_has_one_point_radius(kind, p, d):
    one, empty = _one_and_empty(kind, p, d)
    for x in (al.element(one.alg, (5,) * d, 1), al.element(one.alg, (1,) * d, 3)):
        P = so.project(x, so.product_pairs(one, empty))
        assert len(P) == 0 and P.points.shape == (0, d)
        assert P.radius_exp == so.project(x, so.product_pairs(one, one)).radius_exp


@pytest.mark.parametrize("kind, p, d", _EMPTY_ALGEBRAS)
def test_ball_intersect_of_empty_has_one_point_radius(kind, p, d):
    one, empty = _one_and_empty(kind, p, d, radius_exp=2)
    for r in (0, 1, 2, 3):
        B = so.ball_intersect(empty, r)
        assert len(B) == 0 and B.radius_exp == so.ball_intersect(one, r).radius_exp


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


# --- the blocked pair kernel against one-shot pairs ---------------------------

# (kind, p, d, m): small grids, and grids whose raw products pass int64 (the
# Python-int path): coordinates near 2^62 (R, C), 2^31 (H), 2^61 (Qp p=2) and
# 3^21 (Qp_ext)
_PAIR_ALGEBRAS = [("R", None, None, 6), ("C", None, None, 4), ("H", None, None, 2),
                  ("Qp", 3, None, 3), ("Qp_ext", 3, 2, 2),
                  ("R", None, None, 62), ("C", None, None, 61), ("H", None, None, 31),
                  ("Qp", 2, None, 60), ("Qp_ext", 3, 2, 20)]


def _one_shot_product(A, B, side):
    """product_set as one _grid_times call over every pair."""
    alg, unit = A.alg, A.unit_exp() + B.unit_exp()
    times = so._grid_times(alg, B.points, dset._abs_max(A.points), alg.radix ** unit,
                           A.scale_exp, side, unit, "product_set")
    return DSet(alg, A.scale_exp, A.radius_exp + B.radius_exp, times(A.points))


def _one_shot_sum(A, B):
    """The pairwise sumset as one broadcast a[:, None] + b[None]."""
    alg, r = A.alg, max(A.radius_exp, B.radius_exp)
    a, b = so._at_radius(A, r), so._at_radius(B, r)
    pts = (a[:, None] + b[None]).reshape(-1, alg.d)
    if alg.is_real_base:
        return DSet(alg, A.scale_exp, r + 1, pts)
    return DSet(alg, A.scale_exp, r, pts % alg.p ** (A.scale_exp + r))


def _pair_operand(alg, data, label):
    """1 to 14 rows.  Random: on the real base within a drawn box, from a
    few grid units to the whole grid, so the product box is sometimes
    small; on the p-adic base any residue at radius_exp 0 or 1.  Arithmetic
    (i v) and geometric (2^|e - i| v, p^i v) progressions: few distinct sums
    or products in a large box, the merge over many blocks."""
    if alg.is_real_base:
        top = min(2 ** alg.m, 2 ** 62 - 1)
        span = data.draw(hst.sampled_from([1, 2, 7, top // 3, top]), label=f"{label} span")
        coord, r, radix, mod = hst.integers(-span, span), 0, 2, None
    else:
        r = data.draw(hst.integers(0, 1), label=f"{label} radius")
        radix, mod = alg.p, alg.p ** (alg.m + r)
        coord = hst.integers(0, mod - 1)
    n = data.draw(hst.integers(1, 14), label=f"{label} size")
    shape = data.draw(hst.sampled_from(["random", "arithmetic", "geometric"]),
                      label=f"{label} shape")
    if shape == "random":
        rows = data.draw(hst.lists(hst.tuples(*[coord] * alg.d), min_size=n, max_size=n),
                         label=label)
    else:
        v = data.draw(hst.tuples(*[hst.integers(-2, 2)] * alg.d), label=f"{label} step")
        if shape == "arithmetic":
            rows = [[i * c for c in v] for i in range(n)]
        else:
            e = min(span, 2 ** 61).bit_length() - 3 if mod is None else 0
            rows = [[c * radix ** abs(e - i) if mod is None else c * radix ** i for c in v]
                    for i in range(n)]
        rows = rows if mod is None else [[c % mod for c in row] for row in rows]
    return make_dset(alg, rows, radius_exp=r)


@settings(max_examples=200, deadline=None)
@given(hst.sampled_from(_PAIR_ALGEBRAS), hst.sampled_from(["Left", "Right"]),
       hst.sampled_from([None, "output", "below output", "pairs", 1, 5, 21, 89]),
       hst.data())
def test_blocked_pair_kernel_equals_one_shot(spec, side, budget, data):
    """product_set (both sides) and the pairwise sumset, formed in one block
    or in blocks of at most DLAB_BUDGET_POINTS pairs (many blocks of one or
    a few rows under a budget near the output, one short of every pair, or
    a small one) and merged sorted-unique, equal the one-shot
    _grid_times and a[:, None] + b[None]; or, when their
    distinct rows pass the budget, raise BudgetExceeded naming the op.  A
    row past int64 raises ParameterRangeError on both sides."""
    kind, p, d, m = spec
    alg = al.make_algebra(kind, p=p, d=d, m=m)
    A = _pair_operand(alg, data, "A")
    B = A if data.draw(hst.booleans(), label="B = A") else _pair_operand(alg, data, "B")
    for op, one_shot, name in ((lambda: so.product_set(A, B, side),
                                lambda: _one_shot_product(A, B, side), "product_set"),
                               (lambda: so.sumset(A, B), lambda: _one_shot_sum(A, B),
                                "sumset")):
        try:
            want = one_shot()
        except ParameterRangeError:
            with pytest.raises(ParameterRangeError):
                op()
            continue
        cap = {"output": len(want) + data.draw(hst.integers(0, 3), label="slack"),
               "below output": len(want) - 1,
               "pairs": len(A) * len(B) - 1}.get(budget, budget)
        env = {} if cap is None else {"DLAB_BUDGET_POINTS": str(cap)}
        with mock.patch.dict(os.environ, env):
            if cap is not None and len(want) > cap:
                with pytest.raises(BudgetExceeded, match=f"{name}: operands of sizes"):
                    op()
                event(f"{name}: budget exceeded")
                continue
            got = op()
        assert got == want and (got.scale_exp, got.radius_exp) == (
            want.scale_exp, want.radius_exp)
        one = len(A) * len(B) <= min(dset.PAIR_BLOCK, cap or dset.PAIR_BLOCK)
        event(f"{name}: " + ("one block" if one else "many blocks"))


def test_pair_kernel_many_blocks_on_table_and_sort():
    """The rotated m=7 circle net's product set (652,864 pairs, 2,380 rows)
    and the sumset of 600 points of even coordinates in [-40, 40]^2
    (360,000 pairs, sums on the even lattice) run in many blocks and equal
    the one-shot result.  At the default budget each block's distinct rows
    come from an occupancy table over the block's box (257^2 and 161^2
    keys); under a budget below that box but above the output, from a
    sort."""
    C = al.make_algebra("C", m=7)
    net = lab.circle_net(C, 7)
    rnd = random.Random(600)
    even = make_dset(C, rnd.sample([(2 * i, 2 * j) for i in range(-20, 21)
                                    for j in range(-20, 21)], 600))
    real_small_box = dset._small_box
    for op, one_shot, n, budget in (
            (lambda: so.product_set(net, net), lambda: _one_shot_product(net, net, "Left"),
             len(net), 40_000),
            (lambda: so.sumset(even, even), lambda: _one_shot_sum(even, even), 600, 10_000)):
        want = one_shot()
        assert len(want) <= budget
        for cap, table in ((dset.PAIR_BLOCK, True), (budget, False)):
            seen = []

            def small_box(size, rows):
                seen.append(real_small_box(size, rows))
                return seen[-1]
            env = {} if table else {"DLAB_BUDGET_POINTS": str(budget)}
            with mock.patch.dict(os.environ, env), \
                    mock.patch.object(dset, "_small_box", small_box), \
                    mock.patch.object(so, "_canon_points", wraps=so._canon_points) as canon:
                assert op() == want
            blocks = -(-n // (cap // n))     # then the merges
            assert blocks >= 6 and canon.call_count > blocks
            assert seen[:blocks] == [table] * blocks


def test_pair_kernel_merges_geometrically():
    """R m=40: 3,000 + 1,000 random points give 3M pairs and about as many
    distinct sums.  The kept rows are merged whenever they pass twice the
    last merge, so there are about log2(3M / PAIR_BLOCK) merges, not one
    per block; under a budget of 200,000 points the first merge past it
    raises BudgetExceeded before the last block."""
    R = al.make_algebra("R", m=40)
    rng = np.random.default_rng(3)
    A = make_dset(R, rng.integers(-2 ** 40, 2 ** 40, size=(3000, 1)))
    B = make_dset(R, rng.integers(-2 ** 40, 2 ** 40, size=(1000, 1)))
    with mock.patch.object(so, "_canon_points", wraps=so._canon_points) as canon:
        got = so.sumset(A, B)
    assert np.array_equal(got.points, _one_shot_sum(A, B).points)
    blocks = -(-len(A) // (dset.PAIR_BLOCK // len(B)))
    merges = canon.call_count - blocks
    assert 2 <= merges <= 2 + math.log2(len(got) / dset.PAIR_BLOCK)
    with mock.patch.dict(os.environ, {"DLAB_BUDGET_POINTS": "200000"}), \
            pytest.raises(BudgetExceeded, match=r"sumset: operands of sizes \[3000, 1000\]") as exc:
        so.sumset(A, B)
    assert 200_000 < exc.value.sizes["rows"] <= 2 * 200_000 + dset.PAIR_BLOCK


def test_product_set_budget_caps_distinct_rows_not_pairs(monkeypatch):
    """R m=10, A = {0, ..., 99} / 2^10: 10,000 pairs, but only the 11
    products 0 .. 10 / 2^10 on the grid.  Under a budget of 50 points the
    product set succeeds; under 10 its distinct rows pass the budget, and
    BudgetExceeded names product_set and its sizes."""
    R = al.make_algebra("R", m=10)
    A = make_dset(R, [(k,) for k in range(100)])
    want = _one_shot_product(A, A, "Left")
    assert len(want) == 11
    monkeypatch.setenv("DLAB_BUDGET_POINTS", "50")
    assert so.product_set(A, A) == want
    monkeypatch.setenv("DLAB_BUDGET_POINTS", "10")
    with pytest.raises(BudgetExceeded, match=r"product_set: operands of sizes \[100, 100\] "
                                             r"give at least 11 distinct rows") as exc:
        so.product_set(A, A)
    assert exc.value.sizes == {"pairs": 10_000, "rows": 11, "budget": 10}


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

def _cramer(mat, rhs):
    """mat^-1 rhs over Fractions by Cramer's rule on det_fraction; None
    when mat is singular."""
    det = det_fraction(mat)
    return None if det == 0 else [
        det_fraction([r[:j] + [b] + r[j + 1:] for r, b in zip(mat, rhs)]) / det
        for j in range(len(mat))]


def _loop_inverse(alg, vals):
    """x^-1 from value coordinates over Fractions by Cramer's rule."""
    d = alg.d
    mat = [[sum(vals[i] * alg.structure_constants[i][j][k] for i in range(d))
            for j in range(d)] for k in range(d)]
    sol = _cramer(mat, [Fraction(1)] + [Fraction(0)] * (d - 1))
    if sol is None:
        raise DivisionByNegligible("difference is a zero divisor")
    return tuple(sol)


def _value_norm_gt(alg, vals, rho_exp) -> bool:
    """|v| > radix^-rho_exp, exactly."""
    if alg.is_real_base:
        s = sum(v * v for v in vals)
        return s > Fraction(1, 4 ** rho_exp)
    return min((al.vq(v, alg.p) for v in vals if v != 0), default=rho_exp) < rho_exp


def _loop_quotient_set(A, rho_exp, side="Left"):
    """quotient_set(..., with_witnesses=True) as a Fraction double loop over
    (difference, denominator) pairs of A's rows in order, each valued as
    A.element(i), keeping the lex-smallest witness quadruple of rows."""
    alg = A.alg
    m = A.scale_exp
    if not (0 < rho_exp and m - 3 * rho_exp >= 1):
        raise ParameterRangeError("need 0 < rho_exp < m/3 so Delta is a scale")
    scale_out = m - 3 * rho_exp
    radius_out = A.radius_exp + rho_exp + (1 if alg.is_real_base else 0)
    rows = [tuple(int(c) for c in r) for r in A.points]
    vals = [al.value_coords(alg, A.element(i)) for i in range(len(A))]
    diffs = {}
    for a, va in zip(rows, vals):
        for b, vb in zip(rows, vals):
            diffs.setdefault(tuple(x - y for x, y in zip(va, vb)), (a, b))
    dens = {dv: w for dv, w in diffs.items() if _value_norm_gt(alg, dv, rho_exp)}
    if not dens:
        raise NoAdmissiblePairs("all pairwise differences are <= rho")
    if len(diffs) * len(dens) > so.point_budget():
        raise BudgetExceeded("quotient set too large",
                             {"pairs": len(diffs) * len(dens)})
    den_list = [(dens[ev], _loop_inverse(alg, ev)) for ev in sorted(dens, key=dens.get)]
    cells = {}
    for dv in sorted(diffs, key=diffs.get):
        for cd, inv_ev in den_list:
            if side == "Left":
                q = al._vec_mul(alg, dv, inv_ev)
            else:
                q = al._vec_mul(alg, inv_ev, dv)
            cell = al._value_to_grid(alg, q, scale_out, radius_out, "quotient_set")
            key = diffs[dv] + cd
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
    NoAdmissiblePairs, BudgetExceeded), with the pairs cut into passes of
    any size."""
    A = _quotient_input(data, *spec)
    top = (A.scale_exp - 1) // 3     # rho = top + 1 is rejected
    rho = data.draw(hst.sampled_from([*range(1, top + 1)] * 4 + [top + 1]), label="rho")
    budget = data.draw(hst.sampled_from([None, "40"]), label="budget")
    chunk = data.draw(hst.sampled_from([dset.PAIR_BLOCK, 1, 5]), label="chunk")
    saved_budget, saved_chunk = os.environ.get("DLAB_BUDGET_POINTS"), dset.PAIR_BLOCK
    try:
        if budget:
            os.environ["DLAB_BUDGET_POINTS"] = budget
        dset.PAIR_BLOCK = chunk
        got = _outcome(lambda: so.quotient_set(A, rho, side, with_witnesses=True))
        want = _outcome(lambda: _loop_quotient_set(A, rho, side))
    finally:
        dset.PAIR_BLOCK = saved_chunk
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
    """p-adic points whose Element coords tie (one divisible by p, one not,
    at radius_exp 1): every witness is four rows of A, and the quotient of
    their differences, read at A's unit p^-radius_exp, lands in its cell."""
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=9)
    A = make_dset(alg, [[12322 * t, 11869 * t] for t in range(7)], 8, 1)
    coords = [e.coords for e in A.elements()]
    assert len(set(coords)) < len(coords)
    rows, unit = set(map(tuple, A.points.tolist())), Fraction(1, alg.p ** A.radius_exp)
    want = _loop_quotient_set(A, 1, "Left")
    for chunk in (dset.PAIR_BLOCK, 3):
        with mock.patch.object(dset, "PAIR_BLOCK", chunk):
            Q, wit = so.quotient_set(A, 1, "Left", with_witnesses=True)
        assert set(wit) == set(map(tuple, Q.points.tolist()))
        for cell, quad in wit.items():
            assert set(quad) <= rows
            a, b, c, dd = ([x * unit for x in w] for w in quad)
            den = [x - y for x, y in zip(c, dd)]
            q = al._vec_mul(alg, [x - y for x, y in zip(a, b)], _loop_inverse(alg, den))
            assert tuple(al._value_to_grid(alg, q, Q.scale_exp, Q.radius_exp)) == cell
        assert Q == want[0] and wit == want[1]


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
    """More than PAIR_BLOCK pairs: the passes equal one pass."""
    import random
    rnd = random.Random(17)
    R = al.make_algebra("R", m=12)
    A = make_dset(R, [(c,) for c in rnd.sample(range(-4096, 4097), 40)])
    Q, wit = so.quotient_set(A, 1, with_witnesses=True)
    n_diffs = len({a - b for a in A.points[:, 0] for b in A.points[:, 0]})
    assert n_diffs * (n_diffs - 1) > dset.PAIR_BLOCK
    with mock.patch.object(dset, "PAIR_BLOCK", 1 << 30):
        Q1, wit1 = so.quotient_set(A, 1, with_witnesses=True)
    assert Q == Q1 and wit == wit1


def test_quotient_set_many_passes_stay_small():
    """C m=9, |A| = 40: about 2M (difference, denominator) pairs, so the
    cells go in many passes of the pair kernel.  Q and the witness dict
    equal one pass over every pair, and the traced peak stays under 32 MB:
    each pass's first occurrences are merged as they come (keeping every
    pass's cells to the end traced about 66 MB)."""
    C = al.make_algebra("C", m=9)
    flat = random.Random(40).sample(range(1025 ** 2), 40)
    A = make_dset(C, [(f // 1025 - 512, f % 1025 - 512) for f in flat])
    diffs, _ = so._distinct_differences(A)
    assert len(diffs) ** 2 > 30 * dset.PAIR_BLOCK
    tracemalloc.start()
    try:
        Q, wit = so.quotient_set(A, 1, with_witnesses=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with mock.patch.object(dset, "PAIR_BLOCK", 1 << 30):
        Q1, wit1 = so.quotient_set(A, 1, with_witnesses=True)
    assert Q == Q1 and wit == wit1
    assert peak < 32 * 2 ** 20


# --- linear-map oracles: the Fraction loops the integer maps replaced ------

def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _inv_of_value(alg, vals):
    """Exact rational inverse of an element given by value coordinates."""
    scale = math.lcm(*(Fraction(v).denominator for v in vals))
    num, den = al._int_inverse(alg, [int(v * scale) for v in vals])
    return tuple(Fraction(scale * c, den) for c in num)


def _loop_linear_map_matrix(alg, L):
    """(2d)x(2d) rational matrix of (a,b) -> (L11 a + L12 b, L21 a + L22 b)."""
    d = alg.d
    cols = []
    for pos in range(2):
        for k in range(d):
            e = al.basis_element(alg, k)
            if pos == 0:
                top = mul_exact(alg, L[0][0], e)
                bot = mul_exact(alg, L[1][0], e)
            else:
                top = mul_exact(alg, L[0][1], e)
                bot = mul_exact(alg, L[1][1], e)
            col = list(al.value_coords(alg, top)) + list(al.value_coords(alg, bot))
            cols.append(col)
    return [[cols[j][i] for j in range(2 * d)] for i in range(2 * d)]


def _loop_check_invertible(alg, L):
    mat = _loop_linear_map_matrix(alg, L)
    det = det_fraction(mat)
    if det == 0:
        raise SingularMap("linear map is singular")
    floor_exp = alg.m // 2
    if (abs(det) < Fraction(1, 2 ** floor_exp) if alg.is_real_base
            else al.vq(det, alg.p) > floor_exp):
        raise SingularMap("determinant below the invertibility floor")
    return det


def _loop_apply_linear_map(L, G):
    """apply_linear_map as a per-row Fraction loop."""
    alg = G.alg
    _loop_check_invertible(alg, L)
    d = alg.d
    a = G.pairs[:, :d]
    b = G.pairs[:, d:]
    rows = []
    unit = G.unit_exp()
    for idx in range(len(G)):
        av = al._units_to_values(alg, a[idx], unit)
        bv = al._units_to_values(alg, b[idx], unit)
        top = _vec_add(al._vec_mul(alg, al.value_coords(alg, L[0][0]), av),
                       al._vec_mul(alg, al.value_coords(alg, L[0][1]), bv))
        bot = _vec_add(al._vec_mul(alg, al.value_coords(alg, L[1][0]), av),
                       al._vec_mul(alg, al.value_coords(alg, L[1][1]), bv))
        r_out = G.radius_exp + 2
        rows.append(al._value_to_grid(alg, top, G.scale_exp, r_out)
                    + al._value_to_grid(alg, bot, G.scale_exp, r_out))
    return so.PairSet(alg, G.scale_exp, G.radius_exp + 2,
                      np.array(rows, dtype=np.int64).reshape(-1, 2 * d))


def _loop_apply_dual(L, X):
    """apply_dual as a per-row Fraction loop."""
    alg = X.alg
    _loop_check_invertible(alg, L)
    unit = X.unit_exp()
    onev = al.value_coords(alg, al.one(alg))
    rows = []
    r_out = X.radius_exp + alg.m // 2 + 1
    for idx in range(len(X)):
        xv = al._units_to_values(alg, X.points[idx], unit)
        w1 = _vec_add(al._vec_mul(alg, al.value_coords(alg, L[0][0]), onev),
                      al._vec_mul(alg, al.value_coords(alg, L[0][1]), xv))
        w2 = _vec_add(al._vec_mul(alg, al.value_coords(alg, L[1][0]), onev),
                      al._vec_mul(alg, al.value_coords(alg, L[1][1]), xv))
        if not _value_norm_gt(alg, w1, alg.m // 2):
            raise DivisionByNegligible("first component below the inversion floor")
        mapped = al._vec_mul(alg, _inv_of_value(alg, w1), w2)
        rows.append(al._value_to_grid(alg, mapped, X.scale_exp, r_out))
    return DSet(alg, X.scale_exp, r_out, np.array(rows, dtype=np.int64))


def _loop_outcome(f):
    """_outcome of an oracle, with the OverflowError of its int64 cast read as
    the ParameterRangeError the kernels raise past int64."""
    try:
        return _outcome(f)
    except OverflowError:
        return ParameterRangeError


def _same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return got == want if not isinstance(want, np.ndarray) else np.array_equal(got, want)


_LINMAP_ALGEBRAS = [("R", None, None), ("C", None, None), ("H", None, None),
                    ("Qp", 2, None), ("Qp", 3, None), ("Qp_ext", 3, 2)]


def _map_entry(data, alg):
    """An L entry whose unit_exp is off m (real base) or 0..3 (p-adic), with
    values up to 2 in absolute value (real base); sometimes 0 or 1."""
    if alg.is_real_base:
        unit = data.draw(hst.sampled_from([alg.m - 2, alg.m, alg.m + 1]), label="unit")
        top = 2 ** (unit + 1)
        coord = hst.integers(-top, top)
    else:
        unit = data.draw(hst.integers(0, 3), label="unit")
        coord = hst.integers(0, alg.p ** (alg.m + unit) - 1)
    kind = data.draw(hst.sampled_from(["random"] * 4 + ["zero", "one"]), label="kind")
    if kind != "random":
        return al.zero(alg) if kind == "zero" else al.one(alg)
    return al.element(alg, data.draw(hst.lists(coord, min_size=alg.d, max_size=alg.d)),
                      unit)


def _grid_coord(alg, scale, radius):
    top = alg.radix ** (scale + radius)
    return hst.integers(-top, top) if alg.is_real_base else hst.integers(0, top - 1)


@settings(max_examples=250, deadline=None)
@given(hst.sampled_from(_LINMAP_ALGEBRAS), hst.data())
def test_linear_map_and_dual_equal_fraction_loops(spec, data):
    """The integer apply_linear_map and apply_dual equal the Fraction loops,
    or raise the same error (SingularMap, DivisionByNegligible, a value
    below the representable radius), for radius 0 and 1 and L entries of
    unit_exp off m."""
    name, p, d = spec
    alg = al.make_algebra(name, p=p, d=d, m=data.draw(hst.integers(4, 7), label="m"))
    scale = data.draw(hst.integers(alg.m - 1, alg.m + 1), label="scale")
    radius = data.draw(hst.integers(0, 1), label="radius")
    coord = _grid_coord(alg, scale, radius)
    L = [[_map_entry(data, alg) for _ in range(2)] for _ in range(2)]
    if data.draw(hst.sampled_from([False] * 4 + [True]), label="repeat row"):
        L[1] = list(L[0])
    pairs = data.draw(hst.lists(hst.lists(coord, min_size=2 * alg.d, max_size=2 * alg.d),
                                max_size=6), label="pairs")
    G = so.make_pairset(alg, pairs, scale, radius)
    got = _outcome(lambda: so.apply_linear_map(L, G))
    want = _outcome(lambda: _loop_apply_linear_map(L, G))
    event("linmap " + (want.__name__ if isinstance(want, type) else "equal"))
    assert _same(got, want)
    pts = data.draw(hst.lists(hst.lists(coord, min_size=alg.d, max_size=alg.d),
                              max_size=6), label="directions")
    X = make_dset(alg, pts, scale, radius)
    got = _outcome(lambda: so.apply_dual(L, X))
    want = _outcome(lambda: _loop_apply_dual(L, X))
    event("dual " + (want.__name__ if isinstance(want, type) else "equal"))
    assert _same(got, want)
    if not isinstance(want, type):
        assert (got.scale_exp, got.radius_exp) == (want.scale_exp, want.radius_exp)


# --- every set kernel at the int64 edge -------------------------------------

_EDGE_ALGEBRAS = [("R", None, 31), ("R", None, 62), ("C", None, 31), ("C", None, 62),
                  ("H", None, 31), ("H", None, 62), ("Qp", 2, 62), ("Qp", 3, 39)]


def test_apply_dual_floor_raises_before_int64():
    """R m=62, X = {-1, 0}, L = ((0, -1), (1, -1)): -1 maps to 2, whose row
    2^63 is past int64, and 0 has w1 = 0 below the floor.  The loop casts to
    int64 only after every row, so both raise DivisionByNegligible."""
    R = al.make_algebra("R", m=62)
    X = make_dset(R, [(-2 ** 62,), (0,)])
    L = [[al.element(R, (c,)) for c in row] for row in ((0, -2 ** 62), (2 ** 62, -2 ** 62))]
    assert _loop_outcome(lambda: _loop_apply_dual(L, X)) is DivisionByNegligible
    with pytest.raises(DivisionByNegligible):
        so.apply_dual(L, X)


@settings(max_examples=120, deadline=None)
@given(hst.sampled_from(_EDGE_ALGEBRAS), hst.sampled_from(["Left", "Right"]),
       hst.data())
def test_set_kernels_at_int64_edge_equal_loops(spec, side, data):
    """product_set, scalar_image, project, quotient_set, apply_linear_map and
    apply_dual equal their Element or Fraction loops on R, C and H at
    m = 31 and 62 and on Qp p = 2, 3 with p^m near 2^62, with coordinates
    up to the edge of the grid: equal sets, or the same error (a row past
    int64 raises ParameterRangeError; for project only a row a + x b past
    int64 does, whatever x b alone reaches).  The p-adic pair sets and directions
    sit at a scale whose images keep a modulus p^m or below."""
    name, p, m = spec
    alg = al.make_algebra(name, p=p, m=m)
    top = alg.radix ** m
    if alg.is_real_base:
        coord = hst.integers(-top, top) | hst.sampled_from([top, -top, top - 1, 1 - top])
    else:
        coord = hst.integers(0, top - 1) | hst.sampled_from([top - 1, top - p, 1])
    row = hst.lists(coord, min_size=alg.d, max_size=alg.d)
    a = sorted(set(map(tuple, data.draw(hst.lists(row, min_size=1, max_size=4), label="A"))))
    b = sorted(set(map(tuple, data.draw(hst.lists(row, min_size=1, max_size=3), label="B"))))
    A, B = make_dset(alg, a), make_dset(alg, b)
    ea, eb = A.elements(), B.elements()
    x = al.element(alg, data.draw(row, label="x"))

    def mul(u, v):
        return al.mul(alg, u, v) if side == "Left" else al.mul(alg, v, u)

    def points(elems):
        return make_dset(alg, [e.coords for e in elems]).points

    def project_loop():
        xb = [al.mul(alg, x, v) for v in eb]
        return points([al.add(alg, u, w) for u in ea for w in xb])

    checks = [
        (lambda: so.product_set(A, B, side).points,
         lambda: points([mul(u, v) for u in ea for v in eb])),
        (lambda: so.scalar_image(x, A, side).points,
         lambda: points([mul(x, u) for u in ea])),
        (lambda: so.project(x, so.product_pairs(A, B)).points, project_loop),
    ]
    for got, want in checks:
        want = _loop_outcome(want)
        event(want.__name__ if isinstance(want, type) else "equal")
        assert _same(_outcome(got), want)
    rho = data.draw(hst.integers(1, (m - 1) // 3), label="rho")
    got = _outcome(lambda: so.quotient_set(A, rho, side, with_witnesses=True))
    want = _loop_outcome(lambda: _loop_quotient_set(A, rho, side))
    assert _same(got if isinstance(got, type) else got[1],
                 want if isinstance(want, type) else want[1])
    if not isinstance(got, type):
        assert got[0] == want[0]
    # linear maps: entries up to 2 in absolute value (real base)
    L = [[al.element(alg, data.draw(row, label="L")) for _ in range(2)] for _ in range(2)]
    g_scale = m if alg.is_real_base else m - 2
    G = so.make_pairset(alg, [u + v for u in a for v in b], g_scale)
    got = _outcome(lambda: so.apply_linear_map(L, G))
    assert _same(got, _loop_outcome(lambda: _loop_apply_linear_map(L, G)))
    X = make_dset(alg, a, m if alg.is_real_base else m - m // 2 - 1)
    got = _outcome(lambda: so.apply_dual(L, X))
    assert _same(got, _loop_outcome(lambda: _loop_apply_dual(L, X)))
