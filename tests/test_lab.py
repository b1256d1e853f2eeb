"""Schedules, generators, counterexamples, and experiment drivers."""

import hashlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import lab
from dlab import setops as so
from dlab.dset import (
    covering_number,
    is_nonconcentrated,
    make_dset,
    uniform_subset,
)
from dlab.errors import GenerationFailed, ParameterRangeError, TrappedInput


# --- parameter formulas -----------------------------------------------------

def test_choose_c1_values():
    assert lab.choose_c1(1, 2) == Fraction(1, 8)
    assert lab.choose_c1(Fraction(2, 1), 4) == Fraction(1, 4)  # s = d/2 -> d/16
    with pytest.raises(ParameterRangeError):
        lab.choose_c1(2, 2)


def test_choose_rho_expand():
    rho_exp, exact = lab.choose_rho_expand(1, 2, 9)
    assert exact == Fraction(1, 9) and rho_exp == 1
    with pytest.raises(ParameterRangeError):
        lab.choose_rho_expand(Fraction(199, 100), 2, 6)  # degenerate, rounds to 0


def test_choose_rho_tv():
    rho_exp, c = lab.choose_rho_tv(Fraction(1, 2), Fraction(1, 2), 1, 0, 8)
    assert c == Fraction(1, 4)
    _, c2 = lab.choose_rho_tv(Fraction(1, 2), 1, 1, Fraction(1, 10), 8)
    assert c2 == Fraction(1, 2) * Fraction(1, 10)  # vanishing-with-eps case


def test_iteration_budget_recursion():
    n, N, inner = lab.iteration_budget(Fraction(19, 10), Fraction(39, 20), 2)
    # oracle: run the recursion independently
    s = Fraction(19, 10)
    k = 0
    while s < Fraction(39, 20):
        s += lab.choose_c1(s, 2) / 2
        k += 1
    assert n == k and inner == 20 ** n
    assert N is None or N == 20 ** inner


def test_iteration_budget_noncommutative_base():
    n, _, inner = lab.iteration_budget(Fraction(3, 2), Fraction(8, 5), 4,
                                       commutative=False)
    assert inner == 16 ** n


@settings(max_examples=25, deadline=None)
@given(hst.integers(4, 56), hst.integers(1, 7))
def test_iteration_budget_monotone_terminates(snum, gapnum):
    # coarse start values keep the exact-fraction recursion tractable
    s = Fraction(snum, 64)
    t = s + Fraction(gapnum, 64)
    if t >= 1:
        return
    n, _, _ = lab.iteration_budget(float(s), float(t), 2)
    assert n >= 1
    cur = Fraction(float(s))
    prev = cur - 1
    for _ in range(min(n, 5)):
        assert cur > prev
        prev = cur
        cur += lab.choose_c1(cur, 2) / 2


def test_schedule_validation():
    with pytest.raises(ParameterRangeError):
        lab.Schedule(s=2, sigma=2, t=2, d=2, delta_exp=6)
    with pytest.raises(ParameterRangeError):
        lab.Schedule(s=1, sigma=Fraction(1, 2), t=1, d=2, delta_exp=6)
    lab.Schedule(s=1, sigma=1, t=Fraction(3, 2), d=2, delta_exp=9)


# --- generators -------------------------------------------------------------

def test_gen_random_deterministic():
    C = al.make_algebra("C", m=6)
    A1 = lab.gen_random_dset(C, 6, 1.0, seed=42)
    A2 = lab.gen_random_dset(C, 6, 1.0, seed=42)
    assert A1 == A2


def test_gen_random_passes_nc():
    C = al.make_algebra("C", m=7)
    A = lab.gen_random_dset(C, 7, 1.0, seed=3, C=8)
    assert is_nonconcentrated(A, 1.0, 8).passed


def test_gen_random_full_density_is_grid():
    R = al.make_algebra("R", m=4)
    A = lab.gen_random_dset(R, 4, 1.0, seed=0)
    assert len(A) == 16  # every cell kept at s = d


def test_gen_random_padic():
    Q3 = al.make_algebra("Qp", p=3, m=4)
    A = lab.gen_random_dset(Q3, 4, 0.8, seed=7)
    assert is_nonconcentrated(A, 0.8, 8).passed


# (|A|, first 32 hex digits of the sha256 of the little-endian int64 points)
# of gen_random_dset for (kind, p, d, m, s, seed, C).  Low s empties cells,
# so the randrange draw of one child runs; C = 2 makes the first draws fail
# the certificate, so later attempts run.
_GEN_DIGESTS = {
    ("R", None, 1, 5, 0.3, 0, 8): (1, "e48d939f60d90eb530fe27e3605e548e"),
    ("R", None, 1, 5, 0.3, 1, 8): (7, "f95f3c69074d7acc2ee06ae033e522e9"),
    ("R", None, 1, 5, 0.3, 2, 8): (5, "f1e1060d2a38e2ef89d28c67c805c7f1"),
    ("R", None, 1, 5, 0.5, 0, 8): (1, "e48d939f60d90eb530fe27e3605e548e"),
    ("R", None, 1, 5, 0.5, 1, 8): (10, "69eb174791aa12cf51827f4cd16a7bae"),
    ("R", None, 1, 5, 0.5, 2, 8): (7, "d9258473d83b94dc82fab03b180eb1eb"),
    ("C", None, 1, 5, 0.3, 0, 8): (3, "c9ddb8c5c7aad8dfcb7da320684d7295"),
    ("C", None, 1, 5, 0.3, 1, 8): (5, "d0f069ac70d36cc520a5eb67ffde1630"),
    ("C", None, 1, 5, 0.3, 2, 8): (4, "7c7c1d78ab0ce9a552f14ad630457887"),
    ("C", None, 1, 5, 1.0, 0, 8): (22, "7a598b946559ee2cdb98c2b471737411"),
    ("C", None, 1, 5, 1.0, 1, 8): (40, "eea64cbd59804c1190f164d65eb10727"),
    ("C", None, 1, 5, 1.0, 2, 8): (38, "c14728135145a7bf04985b19d412a8a1"),
    ("H", None, 1, 4, 0.3, 0, 8): (1, "22a7bf634a2cf4ccd995b6e855748870"),
    ("H", None, 1, 4, 0.3, 1, 8): (15, "3679fb1c7b04ff41bc04869240eeff31"),
    ("H", None, 1, 4, 0.3, 2, 8): (1, "0590da2706a407d0fb39a7569359d143"),
    ("H", None, 1, 4, 2.0, 0, 8): (295, "8d58a46acdc4155b411567fe45638190"),
    ("H", None, 1, 4, 2.0, 1, 8): (327, "a21bcf76af794b9d8142a62f44394b42"),
    ("H", None, 1, 4, 2.0, 2, 8): (220, "8f898887c4971e9eb4265a8ee61b5bc0"),
    ("Qp", 2, 1, 5, 0.3, 0, 8): (1, "cbbd5f990c53684d7ae650b40fcb5656"),
    ("Qp", 2, 1, 5, 0.3, 1, 8): (7, "6160427b80ca08b644ea5e0aae2d7738"),
    ("Qp", 2, 1, 5, 0.3, 2, 8): (5, "1f95c2572b92a301e0e4de174070e628"),
    ("Qp", 2, 1, 5, 0.5, 0, 8): (1, "cbbd5f990c53684d7ae650b40fcb5656"),
    ("Qp", 2, 1, 5, 0.5, 1, 8): (10, "9de6d16a4fdb796f5f2be3ed2035a8cf"),
    ("Qp", 2, 1, 5, 0.5, 2, 8): (7, "38c7fa1ea1b5ad8a4b17b08fc61e1246"),
    ("Qp", 3, 1, 5, 0.3, 0, 8): (4, "3112b0dafc1e478cf02861da0c555874"),
    ("Qp", 3, 1, 5, 0.3, 1, 8): (5, "5386ec402cbd12494710a9204c8dad79"),
    ("Qp", 3, 1, 5, 0.3, 2, 8): (9, "be822ba42efae3a9fd5496afab70c5f4"),
    ("Qp", 3, 1, 5, 0.5, 0, 8): (11, "a208034db0ea90c8b7d0e57dc4c9136b"),
    ("Qp", 3, 1, 5, 0.5, 1, 8): (27, "d8f25f954b68f3f88100f85f4677a0a4"),
    ("Qp", 3, 1, 5, 0.5, 2, 8): (26, "570057bbbf7ecad72b5a58d573264393"),
    ("Qp_ext", 3, 2, 4, 0.3, 0, 8): (3, "3fcc303f618f6fc464036ae887be3f38"),
    ("Qp_ext", 3, 2, 4, 0.3, 1, 8): (3, "d224f5294d56c00a21d0101e19800a5a"),
    ("Qp_ext", 3, 2, 4, 0.3, 2, 8): (3, "7780a6a7bed882a8267d6db68dc2f0ae"),
    ("Qp_ext", 3, 2, 4, 1.0, 0, 8): (29, "234bc7b1627072e4507b2abe16f1896d"),
    ("Qp_ext", 3, 2, 4, 1.0, 1, 8): (135, "430dd2384813ac522faf9601d0c119fb"),
    ("Qp_ext", 3, 2, 4, 1.0, 2, 8): (40, "2b1129779fc3469afc78546d991af73c"),
    ("R", None, 1, 5, 0.5, 0, 2): (3, "1129a2988559982ba7efb138751c2e91"),
    ("C", None, 1, 5, 1.0, 1, 2): (74, "4d96c97b0a0c75600ccd6735dbba4ab8"),
    ("Qp", 3, 1, 5, 0.5, 0, 2): (17, "bbf14d34ef2ed84ce1dd4073bb46cc0b"),
}


def test_gen_random_dset_cells_past_int64_raise():
    """Cells below radix^m past int64 raise before any draw, not wrap."""
    with pytest.raises(ParameterRangeError, match="past int64"):
        lab.gen_random_dset(al.make_algebra("R", m=64), 64, 0.5, seed=0)
    with pytest.raises(ParameterRangeError, match="past int64"):
        lab.gen_random_dset(al.make_algebra("Qp", p=3, m=40), 40, 0.5, seed=0)


@pytest.mark.parametrize("case", list(_GEN_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_gen_random_dset_digests(case):
    kind, p, d, m, s, seed, C = case
    alg = al.make_algebra(kind, m=m) if p is None else \
        al.make_algebra(kind, p=p, d=d, m=m)
    A = lab.gen_random_dset(alg, m, s, seed=seed, C=C)
    got = (len(A), hashlib.sha256(np.ascontiguousarray(A.points, dtype="<i8").tobytes())
           .hexdigest()[:32])
    assert got == _GEN_DIGESTS[case]


def test_counterexample_one_shapes():
    G, X = lab.gen_counterexample("One", 5)
    assert len(G) == 33 ** 2
    assert len(X) == 34


def test_counterexample_one_projection_dichotomy():
    G, X = lab.gen_counterexample("One", 5)
    m = 5
    i_coords = (0, 32)
    bound = 2 * math.isqrt(len(G)) + 1
    for x in X.elements():
        cnt = covering_number(so.project(x, G), m)
        if x.coords == i_coords:
            assert cnt == 33 ** 2
        else:
            assert cnt <= bound


def test_counterexample_two_alternative():
    G0, G1, X = lab.gen_counterexample_parts("Two", 5)
    m = 5
    total = len(G0) + len(G1)
    bound = 2 * math.isqrt(total) + 1
    for x in X.elements():
        c0 = covering_number(so.project(x, G0), m)
        c1 = covering_number(so.project(x, G1), m)
        assert min(c0, c1) <= bound
    # the large alternative at x = i on the flat block
    i_el = al.element(G0.alg, (0, 32))
    assert covering_number(so.project(i_el, G0), m) == 33 ** 2


def test_circle_net_exponent_near_one():
    C = al.make_algebra("C", m=7)
    net = lab.circle_net(C, 7)
    expo = math.log(len(net)) / (7 * math.log(2))
    assert 1.0 <= expo <= 1.6


# --- experiment drivers -----------------------------------------------------

def test_projection_profile_matches_direct_composition():
    C = al.make_algebra("C", m=5)
    import random
    rnd = random.Random(12)
    A = make_dset(C, [(rnd.randrange(16), rnd.randrange(16)) for _ in range(6)])
    B = make_dset(C, [(rnd.randrange(16), rnd.randrange(16)) for _ in range(6)])
    G = so.product_pairs(A, B)
    X = make_dset(C, [(32, 0), (0, 32)])
    recs = lab.measure_projection_profile(G, X)
    for rec in recs:
        x = al.element(C, tuple(int(t) for t in rec.x_coords.split()))
        direct = so.sumset(A, so.scalar_image(x, B, "Left"))
        assert rec.count == covering_number(direct, 5)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([("R", None, 1), ("C", None, 1), ("H", None, 1),
                         ("Qp", 3, 1), ("Qp_ext", 3, 2)]),
       hst.integers(2, 4), hst.sampled_from([0, 1]),
       hst.lists(hst.lists(hst.integers(-40, 40), min_size=8, max_size=8),
                 min_size=0, max_size=30),
       hst.lists(hst.lists(hst.integers(-20, 20), min_size=4, max_size=4),
                 min_size=1, max_size=4))
# R: a = b = 2^m and x = 1 put a + xb on the top boundary 2^(m + r_out),
# which shares the last cell with a + xb = 2^(m + r_out) - 1
@example(("R", None, 1), 3, 0, [[8] * 8, [7] * 4 + [8] * 4, [-8] * 8, [3] * 8],
         [[8] * 4])
def test_projection_profile_equals_covering_of_project(spec, m, radius, pairs, xs):
    """The profile counts cells of the projected rows; it must equal the
    covering number of the projection DSet in every direction."""
    kind, p, d = spec
    alg = al.make_algebra(kind, m=m) if p is None else \
        al.make_algebra(kind, p=p, d=d, m=m)
    d = alg.d
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 8)
    rows = np.hstack([rows[:, :d], rows[:, 4:4 + d]])
    if alg.is_real_base:
        rows = np.clip(rows, -2 ** (m + radius), 2 ** (m + radius))
    G = so.make_pairset(alg, rows, scale_exp=m, radius_exp=radius)
    X = make_dset(alg, np.array(xs, dtype=np.int64)[:, :d], scale_exp=m)
    recs = lab.measure_projection_profile(G, X)
    xs_sorted = sorted(X.elements(), key=lambda e: e.coords)
    assert [r.x_coords for r in recs] == [" ".join(map(str, x.coords))
                                          for x in xs_sorted]
    assert [r.count for r in recs] == [covering_number(so.project(x, G), m)
                                       for x in xs_sorted]


def test_fibre_profile_clamps_the_top_of_the_ball():
    """R m=3, G = {(8, 8), (7, 8)}, x = 1: a + xb = 16 is the top boundary
    2^(m + r_out) and shares the last rho = 3 cell with 15, as cell_ids
    clamps it, so there is one fibre."""
    R = al.make_algebra("R", m=3)
    G = so.make_pairset(R, [(8, 8), (7, 8)])
    rep = lab.fibre_profile(G, make_dset(R, [(8,)]), rho_exp=3)
    assert rep[(8,)]["n_fibres"] == 1 and rep[(8,)]["max_fibre"] == 2


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([("R", None, 1), ("C", None, 1), ("H", None, 1),
                         ("Qp", 3, 1), ("Qp_ext", 3, 2)]),
       hst.integers(2, 4), hst.sampled_from([0, 1]), hst.data())
def test_fibre_profile_counts_covering_cells(spec, m, radius, data):
    """n_fibres is the covering number of the projection at rho, and the
    fibre masses add up to |G|."""
    kind, p, d = spec
    alg = al.make_algebra(kind, m=m) if p is None else \
        al.make_algebra(kind, p=p, d=d, m=m)
    top = alg.radix ** (m + radius)
    # real base: x = 1 and a = b = top put a + xb on the top of the ball
    coord = (hst.integers(-top, top) | hst.just(top) if alg.is_real_base
             else hst.integers(0, top - 1))
    pairs = data.draw(hst.lists(hst.lists(coord, min_size=2 * alg.d, max_size=2 * alg.d),
                                min_size=1, max_size=30))
    xs = data.draw(hst.lists(hst.lists(coord, min_size=alg.d, max_size=alg.d),
                             min_size=1, max_size=4)) + [al.one(alg).coords]
    rho = data.draw(hst.integers(0, m))
    G = so.make_pairset(alg, pairs, scale_exp=m, radius_exp=radius)
    X = make_dset(alg, xs, scale_exp=m)
    rep = lab.fibre_profile(G, X, rho_exp=rho)
    for x in X.elements():
        assert rep[tuple(x.coords)]["n_fibres"] == covering_number(so.project(x, G), rho)


def test_run_expansion_trapped_input():
    C = al.make_algebra("C", m=6)
    A = make_dset(C, [(k, 0) for k in range(0, 65, 8)])
    sched = lab.Schedule(s=1, sigma=1, t=Fraction(3, 2), d=2, delta_exp=6)
    with pytest.raises(TrappedInput):
        lab.run_expansion(A, sched)


def test_run_expansion_circle_net_grows():
    m = 6
    C = al.make_algebra("C", m=m)
    net = lab.circle_net(C, m)
    sched = lab.Schedule(s=1, sigma=1, t=Fraction(3, 2), d=2, delta_exp=m,
                         n_iters=1, C=4)
    recs = lab.run_expansion(net, sched, seed=0)
    assert len(recs) == 2
    assert recs[1].exponent > recs[0].exponent
    assert recs[1].exponent <= C.d


# (|X|, radius_exp, sha256 of the little-endian int64 points) at every stage
# of one (2,2) round from the m=6 circle net
_ROUND_DIGESTS = {
    "P": (1116, 0, "bfb9c6599309955290bd3c6f1abacc399288e460f8b165b48fc9ea6e39d110fc"),
    "D": (53689, 1, "85c08e4041ed8a8648378db06b17de60c5e4a21370452bccebb6bc68f5512cee"),
    "S": (214489, 2, "3141e1fe88daab3c6ddb6f722acc5381206d2ca02d6170769a4cc2851b8c3d0b"),
    "recentered": (214489, 2, "3141e1fe88daab3c6ddb6f722acc5381206d2ca02d6170769a4cc2851b8c3d0b"),
    "clipped": (12853, 0, "64193349c5324549a301464c1398475f58983a4818959ebeb9a99a3c2cb9c6fb"),
    "uniformized": (4096, 0, "0ec94629b600a3ba2441e37dd097503ae010fe263d7c641e06cd750eeb294961"),
}


def test_expansion_round_stage_digests():
    """Every stage of run_expansion's round is pinned: P = A A, D = P - P,
    S = D + D (the FFT branch with both operands the same set), then the
    recentered set (S itself: the origin is a point of S), the clipped set,
    which iterated with clip forms inside the unit ball's box only, and the
    uniformized set."""
    C = al.make_algebra("C", m=6)
    net = lab.circle_net(C, 6)
    P = so.product_set(net, net, "Left")
    D = so.difference_set(P, P)
    assert len(D) ** 2 > so.PAIRWISE_CAP
    S = so.sumset(D, D)
    assert S == so.iterated(net, 2, 2, clip=False)
    B = so.ball_intersect(S, 0)
    assert B == so.iterated(net, 2, 2, clip=True)
    stages = {"P": P, "D": D, "S": S, "recentered": S, "clipped": B,
              "uniformized": uniform_subset(B, T=1)}
    got = {k: (len(X), X.radius_exp, hashlib.sha256(
               np.ascontiguousarray(X.points, dtype="<i8").tobytes()).hexdigest())
           for k, X in stages.items()}
    assert got == _ROUND_DIGESTS


@pytest.mark.parametrize("m", [5, 6])
def test_expansion_round_power_path_equals_chain(m):
    """The (2,2) round from the circle net at m = 5 and 6, where |P|^2 is
    below PAIRWISE_CAP and iterated takes the stepwise chain (P - P
    pairwise, then D + D on the FFT branch), gives equal records when a
    pairwise cap of 0 sends it through the power path, 2 (P - P) from P's
    spectrum alone."""
    net = lab.circle_net(al.make_algebra("C", m=m), m)
    sched = lab.Schedule(s=1, sigma=1, t=Fraction(3, 2), d=2, delta_exp=m,
                         n_iters=1, n_sum=2, n_prod=2, C=4)
    with mock.patch.object(so, "_fft_sum", wraps=so._fft_sum) as fft:
        want = lab.run_expansion(net, sched, seed=0)
        # D + D only: no power-path call, whose b is None
        assert fft.called and all(c.args[1] is not None for c in fft.call_args_list)
        with mock.patch.object(so, "PAIRWISE_CAP", 0):
            got = lab.run_expansion(net, sched, seed=0)
            clipped = so.iterated(net, 2, 2)
    assert fft.call_args.args[1:3] == (None, 2)
    assert got == want
    assert clipped == so.iterated(net, 2, 2)


def test_full_grid_expansion_capped_at_dim():
    m = 4
    C = al.make_algebra("C", m=m)
    full = make_dset(C, [(x, y) for x in range(16) for y in range(16)])
    sched = lab.Schedule(s=Fraction(199, 100), sigma=2, t=Fraction(199, 100) + Fraction(1, 1000),
                         d=2, delta_exp=m, n_iters=1, C=8)
    recs = lab.run_expansion(full, sched, seed=0)
    assert all(r.exponent <= 2.0 for r in recs)


def test_probe_babyproj_recount():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(k, 0) for k in range(0, 33, 4)])
    X = make_dset(C, [(32, 0), (0, 32)])
    rec, x = lab.probe_babyproj(A, X)
    S = so.sumset(A, so.scalar_image(x, A, "Left"))
    assert rec.count == covering_number(S, 5)
    # the imaginary direction spreads the AP into a product grid
    assert x.coords == (0, 32) and rec.count == len(A) ** 2


def test_fibre_profile_product_structure():
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(k, 0) for k in range(8)])
    G = so.product_pairs(A, A)
    X = make_dset(C, [(0, 0)])
    rep = lab.fibre_profile(G, X, rho_exp=5)
    # x = 0 projects to the first factor: every delta-fibre holds |A| pairs
    assert rep[(0, 0)]["max_fibre"] == len(A)


def test_records_csv_schema(tmp_path):
    rec = lab.ExperimentRecord("e1", "C", None, 2, 6, 1.0, 1.0, 1.5, "proj",
                               "0 1", 33, 0.84, 7)
    path = tmp_path / "r.csv"
    lab.write_records_csv([rec], str(path), header_comment="cfg")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1] == "exp_id,algebra,p,d,m,s,sigma,t,op,x_coords,count,exponent,seed"
    assert lines[2].startswith("e1,C,,2,6,")


def _recenter_oracle(A):
    """The per-row min of the old recentering step: the row of least max
    coordinate norm, then least coordinates, translated to the origin."""
    best = min(range(len(A.points)),
               key=lambda i: (int(np.max(np.abs(A.points[i]))),
                              tuple(map(int, A.points[i]))))
    return A.points - A.points[best]


def _expansion_oracle(A, sched):
    """run_expansion's (op, count) records with each round taken as the
    unclipped iterate, recentered by the min loop and then cut to the unit
    ball; asserts that the origin is a point of every unclipped iterate."""
    m, cur, out = A.scale_exp, A, [("input", covering_number(A, A.scale_exp))]
    for k in range(sched.n_iters):
        S = so.iterated(cur, sched.n_sum, sched.n_prod, clip=False)
        assert np.any(np.all(S.points == 0, axis=1))
        R = make_dset(S.alg, _recenter_oracle(S), m, S.radius_exp)
        cur = uniform_subset(so.ball_intersect(R, 0), T=1)
        out.append((f"iter{k + 1}", covering_number(cur, m)))
    return out


def _random_set(spec, m, n, seed):
    """n random grid points of the unit ball (fewer if some repeat)."""
    alg = al.make_algebra(spec, m=m)
    rnd = np.random.default_rng(seed)
    pts = rnd.integers(-2 ** m, 2 ** m + 1, size=(8 * n, alg.d))
    return make_dset(alg, pts[(pts * pts).sum(axis=1) <= 4 ** m][:n], scale_exp=m)


@pytest.mark.parametrize("A, n_sum, n_prod, n_iters", [
    (lab.circle_net(al.make_algebra("C", m=5), 5), 2, 2, 2),
    (lab.circle_net(al.make_algebra("C", m=6), 6), 2, 2, 1),
    (lab.circle_net(al.make_algebra("C", m=6), 6), 1, 2, 1),
    (_random_set("R", 11, 400, 1), 2, 1, 2),
    (_random_set("R", 11, 400, 2), 3, 1, 1),
    (_random_set("R", 6, 12, 3), 2, 2, 1),
    (_random_set("H", 2, 12, 3), 2, 2, 1),
    (_random_set("H", 2, 20, 5), 3, 1, 1),
    (_random_set("H", 3, 10, 4), 1, 2, 1),
], ids=["C5-net", "C6-net", "C6-net-diff", "R11-a", "R11-b", "R6", "H2-a", "H2-b", "H3"])
def test_run_expansion_equals_recentered_oracle(A, n_sum, n_prod, n_iters):
    """Clipping the last sum to the unit ball, with no recentering, gives
    the records of the old round: the min-loop recentering of the unclipped
    iterate, cut to the ball.  The last sums take the windowed FFT branch
    on the C nets of (2,2), R11-a, R11-b, H2-a and H2-b, the pairwise one
    on the others."""
    sched = lab.Schedule(s=Fraction(1, 2), sigma=Fraction(1, 2), t=Fraction(3, 4),
                         d=A.alg.d, delta_exp=A.scale_exp, n_iters=n_iters,
                         n_sum=n_sum, n_prod=n_prod, C=64)
    recs = lab.run_expansion(A, sched, seed=0)
    assert [(r.op, r.count) for r in recs] == _expansion_oracle(A, sched)


@pytest.mark.parametrize("spec", ["R", "C", "H"])
def test_recenter_keeps_a_set_holding_the_origin(spec):
    """Every unclipped iterate n_sum (P - P) holds the origin, so the
    min-loop recentering translates it by zero: run_expansion needs no
    recentering step."""
    alg = al.make_algebra(spec, m=5)
    rnd = np.random.default_rng(alg.d)
    top = 2 if spec == "H" else 8
    A = make_dset(alg, rnd.integers(-top, top + 1, size=(12, alg.d)), scale_exp=5)
    for n_sum, n_prod in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2)):
        S = so.iterated(A, n_sum, n_prod, clip=False)
        assert np.array_equal(_recenter_oracle(S), S.points)


@settings(max_examples=50, deadline=None)
@given(hst.sampled_from(["R", "C", "H"]), hst.integers(0, 10 ** 6))
def test_recenter_equals_min_loop(spec, seed):
    """iterated with clip equals the old round: the unclipped iterate,
    recentered by the min loop, cut to the ball.  The sums are also forced
    onto the FFT branch, whose last sum is windowed to the unit ball's box
    (products do not read the pairwise cap)."""
    rnd = np.random.default_rng(seed)
    alg = al.make_algebra(spec, m=5)
    n, n_sum, n_prod = (int(v) for v in rnd.integers(1, (13, 4, 3)))
    top = 2 if spec == "H" else 16
    A = make_dset(alg, rnd.integers(-top, top + 1, size=(n, alg.d)), scale_exp=5)
    S = so.iterated(A, n_sum, n_prod, clip=False)
    want = so.ball_intersect(make_dset(alg, _recenter_oracle(S), 5, S.radius_exp), 0)
    assert so.iterated(A, n_sum, n_prod) == want
    with mock.patch.object(so, "PAIRWISE_CAP", 0):
        assert so.iterated(A, n_sum, n_prod) == want
