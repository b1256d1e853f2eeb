"""Grid sets: covering numbers, non-concentration, refinement, file IO."""

import itertools
import math
import os
import tempfile
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

from dlab import algebra as al
from dlab import dset
from dlab.dset import (
    DSet,
    _canon_points,
    _real_ball_counts,
    _row_counts,
    _row_lookup,
    _row_mins,
    _row_mult,
    _within,
    cell_ids,
    covering_number,
    is_nonconcentrated,
    make_dset,
    neighborhood,
    read_dset,
    remove_ball,
    uniform_subset,
    uniformity_audit,
    write_dset,
)
from dlab.errors import EmptyInput, ParameterRangeError
from dlab.setops import make_pairset, negate, read_pairset, write_pairset


def _line(m, step=1):
    R = al.make_algebra("R", m=m)
    return make_dset(R, [(i,) for i in range(0, 2 ** m + 1, step)])


# --- covering numbers -------------------------------------------------------

def test_covering_full_grid_is_power():
    A = _line(5)
    for k in range(6):
        assert covering_number(A, k) == 2 ** k


def test_covering_at_m_is_cardinality():
    A = _line(5, step=4)
    assert covering_number(A, 5) == len(A)


def test_covering_padic_cells():
    Q3 = al.make_algebra("Qp", p=3, m=3)
    A = make_dset(Q3, [(i,) for i in range(27)])
    assert covering_number(A, 1) == 3
    assert covering_number(A, 3) == 27


def test_empty_covering_zero():
    R = al.make_algebra("R", m=4)
    A = make_dset(R, [])
    assert covering_number(A, 2) == 0


def _where_floor_cells(rows, scale_exp, radius_exp, k):
    """Real-base cell ids in the np.where + floor-division form: rows at the
    top 2^(scale_exp + radius_exp) clamped one down, then floored."""
    rows = np.where(rows == 2 ** (scale_exp + radius_exp), rows - 1, rows)
    return rows // (2 ** (scale_exp - k))


@pytest.mark.parametrize("kind,radius_exp", [("R", 0), ("C", 0), ("C", 1), ("H", 0)])
def test_cell_rows_equal_where_floor_form(kind, radius_exp):
    """cell_ids (clamp by subtracting the top mask, right shift by
    scale_exp - k, none at k = scale_exp) equals the where + floor form on
    rows at +-top, past the top and negative, at every k, on C- and
    F-ordered rows, and leaves A.points unchanged."""
    alg, m = al.make_algebra(kind, m=4), 4
    top = 2 ** (m + radius_exp)
    vals = [-2 * top, -top - 1, -top, -top + 1, -5, -1, 0, 1, 7, top - 1, top, top + 1, 3 * top]
    rng = np.random.default_rng(alg.d)
    A = DSet(alg, m, radius_exp, rng.choice(vals, size=(200, alg.d)))
    before = A.points.copy()
    assert {top, -top, top + 1}.issubset(A.points.ravel().tolist())
    for k in range(m + 1):
        want = _where_floor_cells(A.points, m, radius_exp, k)
        assert np.array_equal(cell_ids(A, k), want)
        cols = np.ascontiguousarray(A.points.T).T    # a profile's F-ordered rows
        assert np.array_equal(dset._cell_rows(alg, m, radius_exp, cols, k), want)
    assert np.array_equal(A.points, before)


@pytest.mark.parametrize("kind", ["R", "C", "H"])
def test_negate_is_unique_of_negated_rows_by_copy(kind, monkeypatch):
    """Real-base negate equals np.unique(-A.points, axis=0) for d = 1, 2, 4
    and canonicalizes by the copy path: neither the occupancy table
    (_small_box) nor the sort (_run_starts) runs."""
    alg = al.make_algebra(kind, m=4)
    rng = np.random.default_rng(alg.d)
    A = DSet(alg, 4, 0, rng.integers(-16, 17, size=(60, alg.d)))
    want = np.unique(-A.points, axis=0)

    def spy(*args):
        raise AssertionError("negate canonicalized by a table or a sort")
    monkeypatch.setattr(dset, "_small_box", spy)
    monkeypatch.setattr(dset, "_run_starts", spy)
    assert np.array_equal(negate(A).points, want)


@settings(max_examples=40)
@given(hst.sets(hst.integers(0, 63), min_size=1, max_size=40))
def test_covering_monotone_in_scale(pts):
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(i,) for i in pts])
    covers = [covering_number(A, k) for k in range(7)]
    assert covers == sorted(covers)


@settings(max_examples=40)
@given(hst.sets(hst.integers(0, 63), min_size=1, max_size=30),
       hst.sets(hst.integers(0, 63), min_size=1, max_size=30))
def test_covering_subadditive_under_union(p1, p2):
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(i,) for i in p1])
    B = make_dset(R, [(i,) for i in p2])
    U = make_dset(R, [(i,) for i in p1 | p2])
    for k in (2, 4, 6):
        assert covering_number(U, k) <= covering_number(A, k) + covering_number(B, k)


# --- non-concentration ------------------------------------------------------

def test_ap_is_nonconcentrated_dim_one():
    A = _line(6)
    rep = is_nonconcentrated(A, 1.0, 4)
    assert rep.passed and rep.best_C <= 2


def test_cluster_fails_nc():
    R = al.make_algebra("R", m=6)
    A = make_dset(R, [(i,) for i in range(5)] + [(64,)])
    rep = is_nonconcentrated(A, 1.0, 2)
    assert not rep.passed


def test_full_grid_2d_best_C_within_box_factor():
    C = al.make_algebra("C", m=4)
    A = make_dset(C, [(x, y) for x in range(17) for y in range(17)])
    rep = is_nonconcentrated(A, 2.0, 4)
    assert rep.passed and rep.best_C <= 4  # 2^d relaxation for grid balls


def test_padic_singleton_cell_nc():
    Q3 = al.make_algebra("Qp", p=3, m=3)
    A = make_dset(Q3, [(i,) for i in range(27)])
    rep = is_nonconcentrated(A, 1.0, 2)
    assert rep.passed


# --- neighborhood / removal -------------------------------------------------

def test_neighborhood_box_around_origin():
    R = al.make_algebra("R", m=4)
    A = make_dset(R, [(0,)])
    N = neighborhood(A, 4)
    assert sorted(int(p[0]) for p in N.points) == [-1, 0, 1]


def test_neighborhood_padic_identity_at_m():
    Q3 = al.make_algebra("Qp", p=3, m=3)
    A = make_dset(Q3, [(5,)])
    assert neighborhood(A, 3) == A


def test_neighborhood_contains_input():
    R = al.make_algebra("R", m=5)
    A = make_dset(R, [(3,), (17,)])
    N = neighborhood(A, 4)
    have = {tuple(p) for p in N.points}
    assert {(3,), (17,)} <= have



@pytest.mark.parametrize("kind, p, d", [("R", None, 1), ("C", None, 2), ("H", None, 4),
                                        ("Qp", 3, 1), ("Qp_ext", 3, 2)])
def test_neighborhood_of_empty_has_one_point_radius(kind, p, d):
    """The empty set's neighborhood is empty at the radius_exp that a
    one-point set's neighborhood gets (radius_exp + 1 on the real base)."""
    alg = al.make_algebra(kind, p=p, d=d, m=4)
    one = make_dset(alg, [(1,) * d], radius_exp=1)
    empty = make_dset(alg, [], radius_exp=1)
    for k in (3, 4):
        N = neighborhood(empty, k)
        assert len(N) == 0 and N.points.shape == (0, d)
        assert N.radius_exp == neighborhood(one, k).radius_exp

def test_remove_ball_keeps_three_quarters():
    A = _line(5)
    out = remove_ball(A, al.zero(A.alg), 2)  # drop B(0, 1/4)
    assert len(out) == 24


def test_remove_ball_at_m_drops_closed_delta_ball():
    # keeps exactly the points strictly further than delta from the center
    A = _line(4)
    out = remove_ball(A, al.element(A.alg, (8,)), 4)
    assert len(out) == len(A) - 3
    kept = {int(p[0]) for p in out.points}
    assert kept == {i for i in range(17) if abs(i - 8) > 1}


# --- uniformization ---------------------------------------------------------

def test_uniform_subset_of_full_grid_is_identity():
    A = _line(5)
    assert uniform_subset(A, T=1) == A


def test_uniform_subset_empty_raises():
    R = al.make_algebra("R", m=3)
    with pytest.raises(EmptyInput):
        uniform_subset(make_dset(R, []))


@pytest.mark.parametrize("fn", [uniform_subset, uniformity_audit])
@pytest.mark.parametrize("T", [0, -1])
def test_uniformization_bad_input_raises_dlab_errors(fn, T):
    """uniform_subset and uniformity_audit reject an empty set with
    EmptyInput and a stage size T < 1 with ParameterRangeError, both
    DlabErrors, from the stage labels they share."""
    A = _line(3)
    with pytest.raises(EmptyInput):
        fn(make_dset(A.alg, []), 1)
    with pytest.raises(ParameterRangeError, match="T must be >= 1"):
        fn(A, T)


def test_uniform_subset_selects_heavier_class():
    # dense left half (all 16 points) vs sparse right half (2 points)
    R = al.make_algebra("R", m=5)
    pts = [(i,) for i in range(16)] + [(20,), (28,)]
    U = uniform_subset(make_dset(R, pts), T=1)
    kept = {int(p[0]) for p in U.points}
    assert kept <= set(range(16)) and len(kept) >= 8


@settings(max_examples=30, deadline=None)
@given(hst.integers(0, 10 ** 6))
def test_uniform_subset_audit_and_mass_bound(seed):
    import random
    rnd = random.Random(seed)
    R = al.make_algebra("R", m=6)
    pts = [(i,) for i in range(65) if rnd.random() < 0.5] or [(0,)]
    A = make_dset(R, pts)
    U = uniform_subset(A, T=1)
    audit = uniformity_audit(U, T=1)
    assert all(bool(v[2]) for v in audit.values())
    stages = A.scale_exp
    assert len(U) * (A.alg.d + 1) ** stages >= len(A)


# --- file format ------------------------------------------------------------

def test_dset_roundtrip_bit_exact(tmp_path):
    C = al.make_algebra("C", m=5)
    A = make_dset(C, [(3, -4), (0, 0), (31, 17)])
    path = tmp_path / "a.dset"
    write_dset(A, str(path))
    B = read_dset(str(path))
    assert B == A
    write_dset(B, str(tmp_path / "b.dset"))
    assert (tmp_path / "b.dset").read_bytes() == path.read_bytes()


def test_dset_roundtrip_padic(tmp_path):
    Q5 = al.make_algebra("Qp", p=5, m=3)
    A = make_dset(Q5, [(7,), (124,)], radius_exp=1)
    path = tmp_path / "q.dset"
    write_dset(A, str(path))
    assert read_dset(str(path)) == A


def test_qp_ext_roundtrip_keeps_poly(tmp_path):
    """A Qp_ext set or pair set with a non-default polynomial reads back equal,
    through a v2 header that carries the polynomial."""
    alg = al.make_algebra("Qp_ext", p=3, d=2, m=4, poly=(2, 1, 1))
    assert alg != al.make_algebra("Qp_ext", p=3, d=2, m=4)
    A = make_dset(alg, [(1, 2), (80, 0), (3, 9)], radius_exp=1)
    path = tmp_path / "a.dset"
    write_dset(A, str(path))
    assert path.read_text().splitlines()[0] == \
        "#dlab v2 base=Qp p=3 d=2 m=4 Rexp=1 poly=2,1,1"
    assert read_dset(str(path)) == A
    G = make_pairset(alg, [(1, 2, 3, 4), (0, 5, 7, 80)])
    gpath = tmp_path / "g.pairs"
    write_pairset(G, str(gpath))
    assert read_pairset(str(gpath)) == G


def test_v1_header_kept_and_read(tmp_path):
    """R, C, H and Qp files keep the v1 header; a v1 Qp_ext file still reads,
    with the default polynomial."""
    for alg, head in ((al.make_algebra("H", m=3), "base=R p=- d=4 m=3 Rexp=0"),
                      (al.make_algebra("Qp", p=5, m=3), "base=Qp p=5 d=1 m=3 Rexp=0")):
        path = tmp_path / "v1.dset"
        write_dset(make_dset(alg, [(1,) * alg.d]), str(path))
        assert path.read_text() == f"#dlab v1 {head}\n" + " ".join(["1"] * alg.d) + "\n"
    path = tmp_path / "old.dset"
    path.write_text("#dlab v1 base=Qp p=3 d=2 m=4 Rexp=0\n1 2\n5 7\n")
    A = read_dset(str(path))
    assert A.alg == al.make_algebra("Qp_ext", p=3, d=2, m=4)
    assert A.points.tolist() == [[1, 2], [5, 7]]


def _per_scalar_text(alg, scale_exp, radius_exp, rows, extra_comments=()):
    """The text of a dlab file as the per-scalar formatter wrote it: one
    str(int(v)) per coordinate."""
    base = "R" if alg.is_real_base else "Qp"
    p = "-" if alg.p is None else str(alg.p)
    head = f"base={base} p={p} d={alg.d} m={scale_exp} Rexp={radius_exp}"
    if alg.kind() == "Qp_ext":
        head = "#dlab v2 " + head + " poly=" + ",".join(map(str, alg.poly))
    else:
        head = "#dlab v1 " + head
    lines = [head]
    lines.extend(str(c) for c in extra_comments)
    for row in rows:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


_FILE_ALGS = [("R", None, 1, 5), ("C", None, 1, 5), ("H", None, 1, 3), ("Qp", 3, 1, 4),
              ("Qp", 2, 1, 62), ("Qp_ext", 3, 2, 4)]
_EDGE = hst.sampled_from([-2 ** 63, -2 ** 63 + 1, -2 ** 62, 2 ** 62, 2 ** 63 - 2, 2 ** 63 - 1])


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(_FILE_ALGS), hst.sampled_from([0, 1]), hst.booleans(),
       hst.lists(hst.text("ab #=1-", max_size=8).map(lambda t: "#" + t), max_size=3),
       hst.data())
def test_write_equals_per_scalar_formatter(spec, radius, pairs, comments, data):
    """write_dset and write_pairset write the bytes of the per-scalar
    formatter, for every algebra, coordinates near +-2^63, extra comment
    lines and pair files, and each file reads back equal."""
    kind, p, d, m = spec
    alg = al.make_algebra(kind, m=m) if p is None else al.make_algebra(kind, p=p, d=d, m=m)
    width = (2 if pairs else 1) * alg.d
    coord = hst.integers(-40, 40) | _EDGE
    if not alg.is_real_base:
        radius = 0 if m == 62 else radius
        coord = hst.integers(0, alg.p ** (m + radius) - 1)
    rows = data.draw(hst.lists(hst.lists(coord, min_size=width, max_size=width),
                               max_size=12))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x")
        if pairs:
            X = make_pairset(alg, rows, radius_exp=radius)
            write_pairset(X, path, comments)
            pts, back = X.pairs, read_pairset(path)
        else:
            X = make_dset(alg, rows, radius_exp=radius)
            write_dset(X, path, comments)
            pts, back = X.points, read_dset(path)
        with open(path, "rb") as fh:
            assert fh.read() == _per_scalar_text(alg, m, radius, pts, comments).encode()
        assert back == X
        assert os.listdir(tmp) == ["x"]


# --- array kernels against their loop references ----------------------------

@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([1, 2, 4]),
       hst.sampled_from([1, 3, 2 ** 10, 2 ** 62]),
       hst.sampled_from(["int64", "object"]),
       hst.data())
def test_row_mins_equal_loop(d, bound, dtype, data):
    """The first occurrence of every distinct row, in lex row order: packed
    keys, the np.unique fallback past 2^63 (bound 2^62 with d >= 2) and rows
    of Python ints all equal a dict loop, and np.unique's return_index."""
    rows = data.draw(hst.lists(hst.lists(hst.integers(-bound, bound), min_size=d,
                                         max_size=d), min_size=0, max_size=30))
    arr = np.array(rows, dtype=np.int64).reshape(-1, d)
    arr = np.vstack([arr, arr[: data.draw(hst.integers(0, len(arr)))]])
    first = {}
    for t, row in enumerate(map(tuple, arr.tolist())):
        first.setdefault(row, t)
    assert np.array_equal(_row_mins(arr), np.unique(arr, axis=0, return_index=True)[1])
    assert _row_mins(arr.astype(dtype)).tolist() == [first[r] for r in sorted(first)]


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([1, 2, 3]), hst.sampled_from([3, 2 ** 40]), hst.integers(0, 400),
       hst.integers(1, 50), hst.integers(0, 2 ** 32))
def test_row_mins_sort_path_equals_np_unique(d, bound, n, distinct, seed):
    """The sort path of _row_mins (the table patched off), one argsort of
    the labels that need not be stable and np.minimum.reduceat over its
    runs, gives the first occurrence of every distinct row as
    np.unique(arr, axis=0, return_index=True) does: long runs of equal rows,
    packed keys and the ranks past 2^63 (bound 2^40 with d >= 2)."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(-bound, bound + 1, size=(distinct, d))
    arr = pool[rng.integers(0, distinct, size=n)]
    with mock.patch.object(dset, "MIN_TABLE_FACTOR", 0):
        got = _row_mins(arr)
    assert np.array_equal(got, np.unique(arr, axis=0, return_index=True)[1])


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from([1, 2, 3]), hst.integers(1, 60), hst.data())
def test_row_mins_table_equals_sorted(d, n, data):
    """Rows in a box of at most MIN_TABLE_FACTOR keys per row take their
    first occurrences from one table, with no np.unique; the indices equal a
    dict loop and the sorted path's (the table patched off)."""
    side = max(1, int((dset.MIN_TABLE_FACTOR * n) ** (1 / d)))
    rows = data.draw(hst.lists(hst.lists(hst.integers(-3, side - 4), min_size=d,
                                         max_size=d), min_size=n, max_size=n))
    arr = np.array(rows, dtype=np.int64).reshape(-1, d)
    first = {}
    for t, row in enumerate(map(tuple, arr.tolist())):
        first.setdefault(row, t)
    want = [first[r] for r in sorted(first)]
    with mock.patch.object(np, "unique", side_effect=AssertionError):
        got = _row_mins(arr)
    assert got.dtype == np.intp and got.tolist() == want
    with mock.patch.object(dset, "MIN_TABLE_FACTOR", 0):
        assert _row_mins(arr).tolist() == want


@settings(max_examples=100, deadline=None)
@given(hst.sampled_from([1, 2, 3, 4]),
       hst.sampled_from(["small", "wide", "edge", "object"]), hst.data())
def test_row_labels_rank_rows(d, box, data):
    """_row_labels on small boxes, wide boxes, spans past 2^63 (edge), no
    rows, and object arrays of Python ints, some past 2^63: equal rows get
    equal labels and only they do, label order is lexicographic row order,
    0 <= label < size, and decode of the distinct labels is
    np.unique(axis=0)."""
    coord = {"small": hst.integers(-3, 3), "wide": hst.integers(-10 ** 6, 10 ** 6),
             "edge": hst.sampled_from([-2 ** 63, -2 ** 62, -1, 0, 2 ** 62, 2 ** 63 - 1]),
             "object": hst.integers(-3, 3) | hst.integers(-2 ** 70, 2 ** 70)}[box]
    rows = data.draw(hst.lists(hst.lists(coord, min_size=d, max_size=d), max_size=30))
    arr = np.array(rows, dtype=object if box == "object" else np.int64).reshape(-1, d)
    arr = np.vstack([arr, arr[data.draw(hst.permutations(range(len(arr))))][
        : data.draw(hst.integers(0, len(arr)))]])
    labels, size, decode = dset._row_labels(arr)
    event("keys" if box != "object" and dset._key_layout(arr) is not None else "lexsort")
    assert labels.dtype == np.int64 and labels.shape == (len(arr),)
    assert all(0 <= v < size for v in labels.tolist())
    ranked = sorted(zip(map(tuple, arr.tolist()), labels.tolist()))
    for (r, u), (s, v) in zip(ranked, ranked[1:]):
        assert u == v if r == s else u < v
    want = sorted(set(map(tuple, arr.tolist())))
    for order in ("C", "F"):
        got = decode(np.unique(labels), order)
        assert list(map(tuple, got.tolist())) == want
        assert got.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]
    if box != "object":
        assert np.array_equal(decode(np.unique(labels)), np.unique(arr, axis=0))


@settings(max_examples=120, deadline=None)
@given(hst.sampled_from([1, 2, 4, 8]),
       hst.sampled_from([1, 3, 2 ** 10, 2 ** 40, 2 ** 62, "dense"]),
       hst.sampled_from(["C", "F"]), hst.data())
def test_canon_points_equals_np_unique(d, bound, order, data):
    """_canon_points equals np.unique(axis=0) in the memory order asked for.
    A dense draw (a key box of at most 2 keys per row, with duplicates)
    takes the occupancy path; under DLAB_BUDGET_POINTS=1 the same draws
    take the sort path."""
    if bound == "dense":
        n = data.draw(hst.integers(1, 40))
        span = max(s for s in range(1, 2 * n + 1) if s ** d <= 2 * n)
        low = data.draw(hst.integers(-2 ** 40, 2 ** 40))
        coord, sizes = hst.integers(low, low + span - 1), (n, n)
    else:
        coord, sizes = hst.integers(-bound, bound), (1, 30)
    rows = data.draw(hst.lists(hst.lists(coord, min_size=d, max_size=d),
                               min_size=sizes[0], max_size=sizes[1]))
    arr = np.array(rows, dtype=np.int64)
    arr = np.vstack([arr, arr[: data.draw(hst.integers(0, len(arr)))]])
    arr = np.asarray(arr[data.draw(hst.permutations(range(len(arr))))], order=order)
    want = np.unique(arr, axis=0)
    if bound == "dense":
        layout = dset._key_layout(arr)
        assert dset._small_box(np.prod(layout[1]), len(arr))
    for budget in (None, "1"):
        env = {} if budget is None else {"DLAB_BUDGET_POINTS": budget}
        with mock.patch.dict(os.environ, env):
            got = _canon_points(arr, d, order)
        assert got.dtype == np.int64
        assert got.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from([1, 2, 4, 8]),
       hst.sampled_from([1, 3, 2 ** 10, 2 ** 62]),
       hst.data())
def test_row_counts_equal_np_unique(d, bound, data):
    """Row multiplicities (_row_counts) from packed keys equal np.unique's,
    including spans past 2^63 (bound 2^62 with d >= 2) and the empty array."""
    rows = data.draw(hst.lists(hst.lists(hst.integers(-bound, bound), min_size=d,
                                         max_size=d), min_size=0, max_size=30))
    arr = np.array(rows, dtype=np.int64).reshape(-1, d)
    arr = np.vstack([arr, arr[: data.draw(hst.integers(0, len(arr)))]])
    want = np.unique(arr, axis=0, return_counts=True)[1]
    assert np.array_equal(_row_counts(arr), want)


def _sorted_path():
    """Patch the key-table test so that every row-key kernel sorts."""
    return mock.patch.object(dset, "KEY_TABLE_FACTOR", 0)


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([1, 2, 3, 4]),
       hst.sampled_from(["table", "sorted", "edge"]), hst.integers(0, 40), hst.data())
def test_row_mult_equals_np_unique(d, box, n, data):
    """Each row's multiplicity (_row_mult) equals counts[inverse] of
    np.unique(axis=0): on the key table (a box of at most 2 keys per row),
    on sorted keys (a wide box, and the table's rows with the table patched
    off), on np.unique(axis=0) past 2^63 keys, and on no rows."""
    side = max(1, int((2 * n) ** (1 / d)))
    coord = {"table": hst.integers(-3, side - 4), "sorted": hst.integers(-10 ** 6, 10 ** 6),
             "edge": hst.sampled_from([-2 ** 63, -2 ** 62, -1, 0, 2 ** 62, 2 ** 63 - 1])}[box]
    rows = data.draw(hst.lists(hst.lists(coord, min_size=d, max_size=d),
                               min_size=n, max_size=n))
    arr = np.array(rows, dtype=np.int64).reshape(-1, d)
    arr = np.vstack([arr, arr[: data.draw(hst.integers(0, len(arr)))]])
    if len(arr):
        span = np.prod([int(h) - int(l) + 1 for h, l in zip(arr.max(0), arr.min(0))],
                       dtype=object)
        event("key table" if span <= dset.KEY_TABLE_FACTOR * len(arr)
              else "sorted keys" if span < 2 ** 63 else "np.unique(axis=0)")
    _, inverse, counts = np.unique(arr, axis=0, return_inverse=True, return_counts=True)
    want = counts[inverse.reshape(-1)]
    got = _row_mult(arr)
    assert got.shape == (len(arr),)
    assert got.tolist() == want.tolist()
    with _sorted_path():
        assert _row_mult(arr).tolist() == want.tolist()


def test_row_mult_fallback_and_empty():
    wide = np.array([[-2 ** 62, 1], [2 ** 62, 0], [5, 5], [-2 ** 62, 1]],
                    dtype=np.int64)
    assert _row_mult(wide).tolist() == [2, 1, 1, 2]
    assert _row_mult(np.zeros((0, 3), dtype=np.int64)).shape == (0,)
    # a box of 2 keys per row is one bincount, no np.unique
    small = np.array([[0, 0], [1, 1], [0, 0], [1, 0]], dtype=np.int64)
    with mock.patch.object(np, "unique", side_effect=AssertionError):
        assert _row_mult(small).tolist() == [2, 1, 2, 1]


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from([1, 2, 3]), hst.integers(0, 40), hst.data())
def test_row_counts_key_table_equals_np_unique(d, n, data):
    """Rows in a box of at most 2 keys per row are counted with one bincount
    (the key table); the counts equal np.unique's and the sorted path's."""
    side = max(1, int((2 * n) ** (1 / d)))
    rows = data.draw(hst.lists(hst.lists(hst.integers(-3, side - 4), min_size=d,
                                         max_size=d), min_size=n, max_size=n))
    arr = np.array(rows, dtype=np.int64).reshape(-1, d)
    want = np.unique(arr, axis=0, return_counts=True)[1]
    assert np.array_equal(_row_counts(arr), want)
    with _sorted_path():
        assert np.array_equal(_row_counts(arr), want)


def _brute_lookup(rows, offsets, T):
    mult = Counter(map(tuple, rows.tolist()))
    return [sum(mult[tuple(int(c) + int(o) for c, o in zip(t, off))]
                for off in offsets) for t in T.tolist()]


_OFFSETS = {"none": None, "zero": [(0,)], "3^d": "cube", "one-sided": [(0,), (2,), (5,)]}


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([1, 2, 3]), hst.sampled_from(sorted(_OFFSETS)),
       hst.sampled_from(["small", "wide", "residues", "edge"]),
       hst.sampled_from([np.int64, object]), hst.data())
def test_row_lookup_folded_equals_per_offset_sorted(d, offs, box, dtype, data):
    """A folded lookup equals the sum of the per-offset lookups on the sorted
    path and a Counter over the rows, for rows whose key box is small (the
    key table) or wide (sorted keys), p-adic residues, rows near the int64
    edge (np.unique(axis=0) labels), no rows, and int64 or object targets,
    some outside the box and some past int64.  Rows minus offsets past int64
    raise ParameterRangeError."""
    if _OFFSETS[offs] == "cube":
        offsets = list(itertools.product((-1, 0, 1), repeat=d))
    elif _OFFSETS[offs] is None:
        offsets = None
    else:
        offsets = [o * d for o in _OFFSETS[offs]]
    coord = {"small": hst.integers(-3, 3), "wide": hst.integers(-10 ** 6, 10 ** 6),
             "residues": hst.integers(0, 3 ** 4 - 1),
             "edge": hst.sampled_from([-2 ** 63, -2 ** 62, 0, 1, 2 ** 62, 2 ** 63 - 1])}[box]
    rows = data.draw(hst.lists(hst.lists(coord, min_size=d, max_size=d),
                               min_size=data.draw(hst.sampled_from([0, 1, 1, 1])),
                               max_size=25), label="rows")
    rows = np.array(rows, dtype=np.int64).reshape(-1, d)
    vec = hst.lists(hst.integers(-2, 2), min_size=d, max_size=d)
    near = [[int(c) + e for c, e in zip(rows[i % len(rows)], data.draw(vec))]
            for i in range(data.draw(hst.integers(0, 20) if len(rows) else hst.just(0)))]
    wide = (hst.integers(-2 ** 63, 2 ** 63 - 1) | hst.integers(-8, 8)
            | (hst.integers(-2 ** 70, 2 ** 70) if dtype is object else hst.nothing()))
    far = data.draw(hst.lists(hst.lists(wide, min_size=d, max_size=d), max_size=10),
                    label="far")
    targets = [t for t in near + far
               if dtype is object or all(-2 ** 63 <= c < 2 ** 63 for c in t)]
    T = np.array(targets, dtype=dtype).reshape(-1, d)
    offs_list = offsets or [(0,) * d]
    if any(not -2 ** 63 <= int(c) - o < 2 ** 63 for r in rows for off in offs_list
           for c, o in zip(r, off)):
        event("rows - offsets past int64")
        with pytest.raises(ParameterRangeError, match="row lookup"):
            _row_lookup(rows, offsets)
        return
    got = _row_lookup(rows, offsets)(T)
    if len(rows):
        o = np.array(offs_list)
        span = [int(h) - int(l) + 1 for h, l in zip(rows.max(0), rows.min(0))]
        size = np.prod([s + int(a) - int(b) for s, a, b in zip(span, o.max(0), o.min(0))],
                       dtype=object)
        event("key table" if size <= dset.KEY_TABLE_FACTOR * len(rows) * len(o)
              else "sorted keys" if np.prod(span, dtype=object) < 2 ** 63 else "np.unique")
    assert got.dtype == np.int64
    assert got.tolist() == _brute_lookup(rows, offs_list, T)
    with _sorted_path():
        per_offset = sum(_row_lookup(rows)(np.array(
            [[int(c) + o for c, o in zip(t, off)] for t in T.tolist()],
            dtype=object).reshape(-1, d)) for off in offs_list)
    assert got.tolist() == np.asarray(per_offset).tolist()


def test_row_lookup_key_table_is_taken():
    """The difference rows of a small C set fold 3^2 offsets into one key
    table: the lookup never calls np.searchsorted."""
    rows = np.array([(a - c, b - e) for a, b in itertools.product(range(6), repeat=2)
                     for c, e in itertools.product(range(6), repeat=2)], dtype=np.int64)
    offsets = list(itertools.product((-1, 0, 1), repeat=2))
    T = np.array([(0, 0), (5, 5), (6, 6), (7, 0), (-9, 2)], dtype=np.int64)
    with mock.patch.object(np, "searchsorted", side_effect=AssertionError):
        got = _row_lookup(rows, offsets)(T)
    assert got.tolist() == _brute_lookup(rows, offsets, T)
    empty = _row_lookup(np.zeros((0, 2), dtype=np.int64), offsets)
    assert empty(T).tolist() == [0] * len(T)


def test_canon_points_fallback_and_single_row():
    # spans whose product reaches 2^63 take the np.unique path
    wide = np.array([[-2 ** 62], [2 ** 62], [5], [-2 ** 62]], dtype=np.int64)
    assert np.array_equal(_canon_points(wide, 1), np.unique(wide, axis=0))
    cube = np.array(list(itertools.product((0, 255, -1), repeat=8)), dtype=np.int64)
    cube = np.vstack([cube, cube[::-7]])
    assert np.array_equal(_canon_points(cube, 8), np.unique(cube, axis=0))
    one = np.array([[-3, 7]], dtype=np.int64)
    assert np.array_equal(_canon_points(one, 2), one)
    assert _canon_points(np.zeros((0, 2), dtype=np.int64), 2).shape == (0, 2)


def test_canon_points_sorted_input_is_copied():
    """Rows that arrive sorted and distinct skip the sort; every input gives
    np.unique(axis=0) in a fresh C-contiguous array that shares no memory
    with it."""
    rnd = np.random.default_rng(5)
    rows = np.unique(rnd.integers(-40, 40, size=(300, 3)), axis=0)
    dups = np.repeat(rows, rnd.integers(1, 4, size=len(rows)), axis=0)
    wide = np.array([[-2 ** 62, 7], [0, -1], [2 ** 62, 0]], dtype=np.int64)
    for arr in (rows, np.asfortranarray(rows), dups, rows[::-1], rows[:1],
                rows[:0], wide, wide[::-1]):
        got = _canon_points(arr, arr.shape[1])
        assert np.array_equal(got, np.unique(arr, axis=0))
        assert got.flags.c_contiguous and not np.shares_memory(got, arr)
    alg = al.make_algebra("H", m=6)
    pts = rows[:, :2].repeat(2, axis=1)
    A = DSet(alg, 6, 0, pts)
    before = A.points.copy()
    pts[0] = 99
    assert np.array_equal(A.points, before)


_WITHIN_ALGS = {"R": al.make_algebra("R", m=8), "C": al.make_algebra("C", m=8),
                "H": al.make_algebra("H", m=8), "Qp": al.make_algebra("Qp", p=3, m=8),
                "Qp_ext": al.make_algebra("Qp_ext", p=2, d=2, m=8)}


def _within_oracle(alg, row, unit, k):
    """|row radix^-unit| <= radix^-k: by Fractions on the real base, by the
    least p-adic valuation of the coordinates on the p-adic base."""
    if alg.is_real_base:
        return Fraction(sum(c * c for c in row)) <= Fraction(4) ** (unit - k)

    def val(c):
        e = 0
        while c % alg.p == 0:
            c, e = c // alg.p, e + 1
        return e
    return all(c == 0 or val(c) - unit >= k for c in row)


@hst.composite
def _within_cases(draw):
    """(kind, rows, unit, k) with max|coord| on either side of the int64
    switch d max^2 = 2^63, k < 0 and k > unit, and p^(unit + k) past 2^63;
    some first rows sit on the sphere |row| = radix^-k or are multiples of
    p^(unit + k)."""
    kind = draw(hst.sampled_from(sorted(_WITHIN_ALGS)))
    d = _WITHIN_ALGS[kind].d
    edge = math.isqrt((2 ** 63 - 1) // d)    # the largest max|coord| on int64
    big = draw(hst.sampled_from([1, 2 ** 20, edge, edge + 1, 2 ** 40, 2 ** 62]))
    rows = draw(hst.lists(hst.lists(hst.integers(-big, big), min_size=d, max_size=d),
                          min_size=1, max_size=20))
    unit, k = draw(hst.integers(-4, 40)), draw(hst.integers(-44, 44))
    radix = _WITHIN_ALGS[kind].radix
    if draw(hst.booleans()):
        rows[0][0] = big
    elif kind in ("R", "C", "H") and 0 <= unit - k < 31:
        rows[0] = [radix ** (unit - k)] + [0] * (d - 1)
    elif kind in ("Qp", "Qp_ext") and radix ** max(0, unit + k) < 2 ** 63:
        q = radix ** max(0, unit + k)
        rows[0] = [q * c for c in draw(hst.lists(hst.integers(-(2 ** 63 // q), 2 ** 63 // q - 1),
                                                 min_size=d, max_size=d))]
    return kind, rows, unit, k


@settings(max_examples=300, deadline=None)
@given(_within_cases())
@example(("R", [[3037000500], [3037000499]], 0, 0))      # the object side of the switch
@example(("C", [[4, 0], [4, 1]], 3, 1))                  # on the sphere: 16 = 4^(3 - 1)
@example(("H", [[0, 0, 0, 0], [0, 1, 0, 0]], 2, 5))      # k > unit: only 0 is within
@example(("Qp", [[0], [3 ** 39], [-2 * 3 ** 39]], 1, 39))  # p^(unit + k) = 3^40 > 2^63
@example(("Qp_ext", [[1, 2], [4, 8]], 1, -3))           # unit + k < 0: every row
def test_within_is_exact(case):
    kind, rows, unit, k = case
    alg = _WITHIN_ALGS[kind]
    arr = np.array(rows, dtype=np.int64)
    got = _within(alg, arr, unit, k)
    assert got.dtype == bool and got.tolist() == [_within_oracle(alg, r, unit, k) for r in rows]
    # coordinates on the last axis of any array; Python ints give the same mask
    assert np.array_equal(_within(alg, arr.reshape(1, -1, alg.d), unit, k), got[None])
    assert np.array_equal(_within(alg, arr.astype(object), unit, k), got)


def _remove_ball_oracle(A, center, k):
    """remove_ball's real-base object-dtype path."""
    vals = al.value_coords(A.alg, center)
    cu = np.array([al.round_half_away(v.numerator * 2 ** A.scale_exp, v.denominator)
                   for v in vals], dtype=np.int64)
    dist_sq = np.sum((A.points - cu).astype(object) ** 2, axis=1)
    keep = np.array([ds > 4 ** (A.scale_exp - k) for ds in dist_sq])
    return A.points[keep]


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(["R", "C", "H"]), hst.sampled_from([4, 31]),
       hst.integers(0, 4), hst.data())
def test_remove_ball_equals_object_path(spec, scale, k, data):
    alg = al.make_algebra(spec, m=4)
    big = 2 ** scale + 2 ** (scale - 1)  # scale 31: past 2^31.5, forces the fallback
    rows = data.draw(hst.lists(hst.lists(hst.integers(-big, big), min_size=alg.d,
                                         max_size=alg.d), min_size=1, max_size=25))
    A = DSet(alg, scale, 0, np.array(rows, dtype=np.int64))
    c = data.draw(hst.lists(hst.integers(-16, 16), min_size=alg.d, max_size=alg.d))
    center = al.element(alg, tuple(c), 4)
    got = remove_ball(A, center, k)
    assert np.array_equal(got.points, _remove_ball_oracle(A, center, k))


def _ball_counts_per_k(A, k):
    """The per-scale cell-bucketed scan that _real_ball_counts replaced,
    with exact Python-int distances."""
    u = 2 ** (A.scale_exp - k)
    pts = A.points
    shifted = pts // u
    buckets = {}
    for i, key in enumerate(map(tuple, shifted)):
        buckets.setdefault(key, []).append(i)
    d = A.alg.d
    counts = np.zeros(len(pts), dtype=np.int64)
    offs = list(itertools.product((-1, 0, 1), repeat=d))
    for i, key in enumerate(map(tuple, shifted)):
        x = pts[i]
        c = 0
        for off in offs:
            nb = tuple(key[t] + off[t] for t in range(d))
            for j in buckets.get(nb, ()):
                if max(abs(int(a) - int(b)) for a, b in zip(pts[j], x)) < u:
                    c += 1
        counts[i] = c
    return counts


def _nc_best_per_k(A, s):
    """is_nonconcentrated's argmax scan over the per-scale counts."""
    n = len(A)
    best_C, worst = 0.0, (0, 0, n)
    for k in range(A.scale_exp + 1):
        counts = _ball_counts_per_k(A, k)
        i = int(np.argmax(counts))
        ratio = counts[i] * 2.0 ** (k * s) / n
        if ratio > best_C:
            best_C, worst = ratio, (i, k, int(counts[i]))
    return best_C, worst


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(["R", "C", "H"]), hst.integers(0, 10 ** 6),
       hst.sampled_from([0.5, 1.0, 1.7]), hst.sampled_from([None, 7, 100]))
def test_all_scale_ball_counts_equal_per_k_loop(spec, seed, s, budget):
    """The counts of every ball at every scale equal the per-scale loop's, in
    one pass or, under a small DLAB_BUDGET_POINTS, in passes of a few rows."""
    rnd = np.random.default_rng(seed)
    alg = al.make_algebra(spec, m=5)
    n = int(rnd.integers(1, 60))
    # a coarse lattice makes ties on the counts common
    A = make_dset(alg, 4 * rnd.integers(-8, 9, size=(n, alg.d)), scale_exp=5)
    env = {} if budget is None else {"DLAB_BUDGET_POINTS": str(budget)}
    with mock.patch.dict(os.environ, env):
        counts = _real_ball_counts(A)
        event("one pass" if dset.pass_rows(n) >= n else "many passes")
    for k in range(A.scale_exp + 1):
        assert np.array_equal(counts[k], _ball_counts_per_k(A, k))
    best_C, (i, k, cnt) = _nc_best_per_k(A, s)
    rep = is_nonconcentrated(A, s, 4)
    assert (rep.best_C, rep.worst_center, rep.worst_radius_exp, rep.worst_count) == (
        best_C, tuple(int(v) for v in A.points[i]), k, cnt)


def test_all_scale_ball_counts_fallback_near_int64_edge():
    alg = al.make_algebra("C", m=3)
    top = 2 ** 62
    A = DSet(alg, 3, 0, np.array([[top, 0], [top - 5, 1], [-top, 0], [-top + 3, 2]],
                                 dtype=np.int64))
    counts = _real_ball_counts(A)
    for k in range(A.scale_exp + 1):
        assert np.array_equal(counts[k], _ball_counts_per_k(A, k))


# --- uniformization and p-adic non-concentration against their loops -------

def _radix_class(count, radix):
    """floor(log_radix(count)) by repeated division."""
    cls = 0
    while count >= radix:
        count //= radix
        cls += 1
    return cls


def _uniform_subset_loop(A, T):
    """uniform_subset as a per-stage DSet, np.unique(axis=0) and a class dict:
    heaviest class mass, ties to the larger class."""
    keep = np.ones(len(A), dtype=bool)
    scales = list(range(A.scale_exp - T, -1, -T))
    if scales and scales[-1] != 0:
        scales.append(0)
    for k in scales:
        idx = np.flatnonzero(keep)
        ids = cell_ids(DSet(A.alg, A.scale_exp, A.radius_exp, A.points[idx]), k)
        _, inverse, counts = np.unique(ids, axis=0, return_inverse=True,
                                       return_counts=True)
        classes = np.array([_radix_class(int(c), A.alg.radix) for c in counts])
        mass = {}
        for cls, cnt in zip(classes, counts):
            mass[cls] = mass.get(cls, 0) + int(cnt)
        best = max(sorted(mass), key=lambda c: (mass[c], c))
        keep[idx[classes[inverse.reshape(-1)] != best]] = False
    return A.points[keep]


def _nc_loop(A, s, C):
    """is_nonconcentrated's scan with per-scale counts: the per-k ball loop
    (real base) or np.unique(axis=0) cells (p-adic base)."""
    n, best_C, worst = len(A), 0.0, (0, 0, len(A))
    for k in range(A.scale_exp + 1):
        if A.alg.is_real_base:
            counts = _ball_counts_per_k(A, k)
        else:
            _, inverse, cnt = np.unique(cell_ids(A, k), axis=0, return_inverse=True,
                                        return_counts=True)
            counts = cnt[inverse.reshape(-1)]
        i = int(np.argmax(counts))
        ratio = counts[i] * float(A.alg.radix) ** (k * s) / n
        if ratio > best_C:
            best_C, worst = ratio, (i, k, int(counts[i]))
    i, k, cnt = worst
    return (best_C <= C, tuple(int(v) for v in A.points[i]), k, cnt, best_C)


_CELL_ALGS = [("R", None, 1), ("C", None, 1), ("H", None, 1), ("Qp", 2, 1),
              ("Qp", 3, 1), ("Qp", 5, 1), ("Qp_ext", 3, 2)]


def _cell_set(spec, scale, radius, grid, rows):
    """A set of the given spec from raw rows: real-base coordinates are
    multiples of `grid` clamped into the ball of radius 2^radius, so that
    the right endpoint 2^(scale + radius) of the bounding ball occurs."""
    kind, p, d = spec
    alg = al.make_algebra(kind, m=scale) if p is None else \
        al.make_algebra(kind, p=p, d=d, m=scale)
    arr = np.array(rows, dtype=np.int64)[:, :alg.d]
    if alg.is_real_base:
        top = 2 ** (scale + radius)
        arr = np.clip(arr * grid, -top, top)
    return make_dset(alg, arr, scale_exp=scale, radius_exp=radius)


@settings(max_examples=120, deadline=None)
@given(hst.sampled_from(_CELL_ALGS), hst.integers(2, 5), hst.sampled_from([0, 1]),
       hst.sampled_from([1, 2, 3]), hst.sampled_from([1, 3, 8]),
       hst.lists(hst.lists(hst.integers(-70, 70), min_size=4, max_size=4),
                 min_size=1, max_size=60),
       hst.sampled_from([0.4, 1.0, 1.7]))
# R: cells at k=1 of counts 2 and 1, 1 (class masses 2 and 2, a tie), with
# the point 2^4 on the top boundary
@example(("R", None, 1), 3, 1, 1, 1, [[0] * 4, [1] * 4, [8] * 4, [16] * 4], 1.0)
@example(("Qp", 2, 1), 3, 0, 1, 1, [[0] * 4, [4] * 4, [1] * 4, [3] * 4], 0.4)
# R with T = 2, the top point 2^4 clamped: a coarser stage label is the last
# one shifted right by T bits
@example(("R", None, 1), 4, 0, 2, 1, [[38] * 4, [1] * 4, [64] * 4, [-69] * 4], 1.0)
# Qp at radius 1 with T = 2: a coarser stage label is a residue mod p^(k + 1)
@example(("Qp", 2, 1), 3, 1, 2, 1, [[-53] * 4, [-28] * 4, [-30] * 4, [-5] * 4], 1.0)
# T > scale_exp: no stages, the set comes back whole and the audit is empty
@example(("C", None, 1), 2, 0, 3, 1, [[3] * 4, [1] * 4, [-2] * 4], 1.0)
# H at m = 40, coordinates near 2^40: the finer stages' key layouts pass 2^63
# (the _row_labels fallback), the coarser ones pack
@example(("H", None, 1), 40, 0, 3, 2 ** 34,
         [[70, -70, 3, 9], [69, -70, 3, 9], [-64, 70, 70, -1], [1, 2, 3, 4]], 1.0)
# Qp 3 at radius 1: residues up to 242 > 3^(k + 1), so the stage keys' spans
# are capped by the modulus, not the column maxima
@example(("Qp", 3, 1), 4, 1, 1, 1, [[-1] * 4, [80] * 4, [-28] * 4, [26] * 4, [2] * 4], 1.0)
def test_uniform_subset_and_nc_equal_loops(spec, scale, radius, T, grid, rows, s):
    """uniform_subset, is_nonconcentrated and uniformity_audit equal their
    per-stage loops over np.unique(axis=0) cells."""
    A = _cell_set(spec, scale, radius, grid, rows)
    assert np.array_equal(uniform_subset(A, T).points, _uniform_subset_loop(A, T))
    scales = list(range(A.scale_exp - T, -1, -T))
    audit = {}
    for k in scales + [0] if scales else []:
        counts = np.unique(cell_ids(A, k), axis=0, return_counts=True)[1]
        audit[k] = (int(counts.max()), int(counts.min()),
                    counts.max() / counts.min() <= A.alg.radix ** T)
    assert uniformity_audit(A, T) == audit
    rep = is_nonconcentrated(A, s, 4)
    assert (rep.passed, rep.worst_center, rep.worst_radius_exp, rep.worst_count,
            rep.best_C) == _nc_loop(A, s, 4)
