import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ghgraph as gg

import _brute
from _brute import distortion_of_pairs, gh_by_enumeration, gh_forward_check

TAU = 1e-9


def _space(G, specs):
    return gg.restrict_metric(G, gg.point_set(G, specs))


def _random_points(G, rng, k):
    edges = G.edges
    specs = []
    for _ in range(k):
        e = edges[rng.integers(len(edges))]
        specs.append((e.id, float(rng.random()) * e.length))
    return gg.point_set(G, specs)


# --------------------------------------------------------------------------
# FiniteMetricSpace validation


def test_metric_validation_rejects_bad_input():
    with pytest.raises(gg.InvalidMetric):
        gg.FiniteMetricSpace(np.zeros((2, 3)))
    with pytest.raises(gg.InvalidMetric):
        gg.FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(gg.InvalidMetric):
        gg.FiniteMetricSpace(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(gg.InvalidMetric):
        gg.FiniteMetricSpace(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(gg.InvalidMetric):
        gg.FiniteMetricSpace(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    # triangle violation: d(0,2) > d(0,1) + d(1,2)
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(gg.InvalidMetric):
        gg.FiniteMetricSpace(bad)


def test_metric_validation_checks_every_middle_point():
    # uniform distance 2, except that point 3 sits at distance 1 from points
    # 1 and 2, whose distance 2.5 then breaks the triangle through 3 alone
    def matrix(n):
        d = np.full((n, n), 2.0)
        np.fill_diagonal(d, 0.0)
        d[3, [1, 2]] = d[[1, 2], 3] = 1.0
        d[1, 2] = d[2, 1] = 2.5
        return d

    for n in (200, 300):
        with pytest.raises(gg.InvalidMetric, match="through point 3"):
            gg.FiniteMetricSpace(matrix(n))


def test_metric_within_tolerance_is_kept_exact():
    # each distance keeps its smaller reading and the diagonal is zeroed, so
    # a matrix and its transpose are one space, and the oracle's value is
    # half its witness's distortion on both
    d = np.array([[5e-10, 1.0], [1.0 + 3e-10, 0.0]])
    X, XT = gg.FiniteMetricSpace(d), gg.FiniteMetricSpace(d.T)
    assert np.array_equal(X.d, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(XT.d, X.d)
    one = gg.FiniteMetricSpace([[0.0]])
    v, R = gg.gh_exact(X, one)
    assert v == gg.gh_exact(XT, one)[0] == gg.distortion(R, X, one) / 2 == 0.5


def test_from_line_sorts_and_dedups():
    M = gg.FiniteMetricSpace.from_line([0.5, 0.0, 0.5])
    assert M.d.shape == (2, 2)
    assert M.d[0, 1] == pytest.approx(0.5)
    with pytest.raises(gg.EmptySet, match="empty coordinate list"):
        gg.FiniteMetricSpace.from_line([])


@pytest.mark.filterwarnings("error")
def test_from_line_keeps_large_coordinates():
    # |x - y| is a metric by construction; near 1e9 a triangle scan against
    # the fixed tolerance rejects it through rounding alone. A coordinate
    # that is not finite raises before any difference is taken, so numpy
    # warns of no inf - inf
    xs = [
        477009776.55271703, 865309927.7716401, 260492310.39195943,
        805027827.0130223, 548699303.8355893, 14041700.164018955,
    ]
    M = gg.FiniteMetricSpace.from_line(xs)
    at = np.array(sorted(xs))
    assert (M.d == np.abs(at[:, None] - at[None, :])).all()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(gg.InvalidMetric, match="non-finite"):
            gg.FiniteMetricSpace.from_line([0.0, bad, 1.0])


def test_restrict_metric_values(segment01, circle):
    M = _space(segment01, [("seg", 0.0), ("seg", 0.5), ("seg", 1.0)])
    expect = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
    assert np.allclose(M.d, expect, atol=TAU)
    C = _space(circle, [("loop", 0.0), ("loop", math.pi / 2), ("loop", math.pi)])
    expect = np.array(
        [
            [0.0, math.pi / 2, math.pi],
            [math.pi / 2, 0.0, math.pi / 2],
            [math.pi, math.pi / 2, 0.0],
        ]
    )
    assert np.allclose(C.d, expect, atol=TAU)
    with pytest.raises(gg.EmptySet, match="cannot restrict the metric to an empty set"):
        gg.restrict_metric(segment01, gg.point_set(segment01, []))


@settings(max_examples=30, deadline=None)
@given(
    offs=st.lists(
        st.tuples(st.integers(0, 2), st.floats(min_value=0.0, max_value=1.0)),
        min_size=2,
        max_size=6,
    )
)
def test_restrict_metric_is_a_metric(offs):
    G = gg.theta_graph(3.0, 4.0, 5.0)
    ids = [e.id for e in G.edges]
    specs = [(ids[i], frac * G.edges[i].length) for i, frac in offs]
    M = gg.restrict_metric(G, gg.point_set(G, specs))
    d = M.d
    n = d.shape[0]
    assert np.allclose(d, d.T, atol=TAU)
    assert np.allclose(np.diag(d), 0.0, atol=TAU)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + TAU


# --------------------------------------------------------------------------
# distortion


def test_distortion_values():
    dx = gg.FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
    dy = gg.FiniteMetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    R = gg.Correspondence(((0, 0), (1, 1)))
    assert gg.distortion(R, dx, dy) == pytest.approx(1.0)
    ident = gg.Correspondence(((0, 0), (1, 1)))
    assert gg.distortion(ident, dx, dx) == 0.0
    # any iterable of index pairs reads as the correspondence it lists
    X = gg.FiniteMetricSpace.from_line([0.0, 1.0, 3.0])
    Y = gg.FiniteMetricSpace.from_line([0.0, 2.0])
    pairs = [(0, 0), (1, 0), (2, 1)]
    assert gg.distortion(gg.Correspondence(tuple(pairs)), X, Y) == 1.0
    assert gg.distortion(pairs, X, Y) == gg.distortion(np.array(pairs), X, Y) == 1.0
    assert len(gg.Correspondence(tuple(pairs))) == 3


def test_distortion_rejects_non_correspondence():
    dx = gg.FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
    dy = gg.FiniteMetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    with pytest.raises(gg.NotACorrespondence):
        gg.distortion(gg.Correspondence(((0, 0),)), dx, dy)  # misses x1 and y1
    with pytest.raises(gg.NotACorrespondence):
        gg.distortion(gg.Correspondence(((0, 0), (1, 5))), dx, dy)  # out of range
    with pytest.raises(gg.NotACorrespondence, match="empty relation"):
        gg.distortion([], dx, dy)


# --------------------------------------------------------------------------
# gh_exact against exhaustive enumeration


def test_gh_two_point_spaces():
    a = gg.FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
    b = gg.FiniteMetricSpace(np.array([[0.0, 4.0], [4.0, 0.0]]))
    v, R = gg.gh_exact(a, b)
    assert v == pytest.approx(1.0)
    assert gh_by_enumeration(a.d.tolist(), b.d.tolist()) == pytest.approx(1.0)
    assert gg.distortion(R, a, b) == pytest.approx(2.0 * v, abs=0.0)


@pytest.mark.parametrize("seed", range(12))
def test_gh_matches_enumeration_on_random_spaces(theta345, multi, seed):
    rng = np.random.default_rng(100 + seed)
    G = (theta345, multi)[seed % 2]
    X = _random_points(G, rng, int(rng.integers(2, 4)))
    Y = _random_points(G, rng, int(rng.integers(2, 4)))
    MX, MY = gg.restrict_metric(G, X), gg.restrict_metric(G, Y)
    v, R = gg.gh_exact(MX, MY)
    ref = gh_by_enumeration(MX.d.tolist(), MY.d.tolist())
    assert v == pytest.approx(ref, abs=1e-12)
    # the witness realizes exactly twice the reported value
    assert gg.distortion(R, MX, MY) == pytest.approx(2.0 * v, abs=0.0)
    assert distortion_of_pairs(R.pairs, MX.d.tolist(), MY.d.tolist()) == pytest.approx(
        2.0 * v, abs=TAU
    )


def test_gh_witness_covers_both_sides(theta345):
    rng = np.random.default_rng(42)
    X = _random_points(theta345, rng, 3)
    Y = _random_points(theta345, rng, 4)
    MX, MY = gg.restrict_metric(theta345, X), gg.restrict_metric(theta345, Y)
    _, R = gg.gh_exact(MX, MY)
    assert {i for i, _ in R.pairs} == set(range(MX.d.shape[0]))
    assert {j for _, j in R.pairs} == set(range(MY.d.shape[0]))


def test_gh_deterministic_witness(segment02):
    X = _space(segment02, [("seg", 0.0), ("seg", 2.0)])
    Y = _space(segment02, [("seg", 0.0), ("seg", 1.0), ("seg", 2.0)])
    v1, R1 = gg.gh_exact(X, Y)
    v2, R2 = gg.gh_exact(X, Y)
    assert v1 == v2 == pytest.approx(0.5)
    assert R1.pairs == R2.pairs == ((0, 0), (1, 1), (1, 2))


def test_gh_symmetry(theta345):
    rng = np.random.default_rng(21)
    for _ in range(5):
        MX = gg.restrict_metric(theta345, _random_points(theta345, rng, 3))
        MY = gg.restrict_metric(theta345, _random_points(theta345, rng, 3))
        vxy, _ = gg.gh_exact(MX, MY)
        vyx, _ = gg.gh_exact(MY, MX)
        assert vxy == pytest.approx(vyx, abs=1e-12)


def test_gh_self_is_zero(multi):
    rng = np.random.default_rng(77)
    M = gg.restrict_metric(multi, _random_points(multi, rng, 4))
    v, R = gg.gh_exact(M, M)
    assert v == 0.0
    assert gg.distortion(R, M, M) == 0.0


def test_gh_guard(theta345):
    rng = np.random.default_rng(1)
    MX = gg.restrict_metric(theta345, _random_points(theta345, rng, 4))
    MY = gg.restrict_metric(theta345, _random_points(theta345, rng, 4))
    with pytest.raises(gg.GuardExceeded) as info:
        gg.gh_exact(MX, MY, guard=3)
    # the error brackets the answer: a proven floor, at least half the
    # diameter gap, below and the best map pair found so far above
    floor, incumbent = info.value.bracket
    assert floor >= abs(MX.d.max() - MY.d.max()) / 2
    assert f"[{floor:.12g}, {incumbent:.12g}]" in str(info.value)
    v, _ = gg.gh_exact(MX, MY)
    assert floor <= v <= incumbent


# --------------------------------------------------------------------------
# gh_exact against the float forward-check search it replaced: the same
# value bits and the same witness, the lexicographically first minimizer


def _assert_same_search(MX, MY):
    value, pairs, _ = gh_forward_check(MX.d, MY.d)
    count = gg.oracle._search(MX, MY, 10**9)[2]
    v, R = gg.gh_exact(MX, MY, guard=count)
    assert v == value
    assert R.pairs == pairs
    # the guard bounds exactly the assignments the search explores
    with pytest.raises(gg.GuardExceeded):
        gg.gh_exact(MX, MY, guard=count - 1)
    return count


@st.composite
def _finite_spaces(draw):
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # integer coordinates under the l1 metric: many tied distances
        pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            min_size=k, max_size=k, unique=True))
        P = np.array(pts, dtype=float)
        d = np.abs(P[:, None] - P[None]).sum(axis=2)
    else:
        pts = np.array(draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                                     min_size=k, max_size=k)))
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    noise = draw(st.none() | st.integers(0, 2**32 - 1))
    if noise is not None:
        # below-diagonal entries and the diagonal moved by up to 4e-10
        rng = np.random.default_rng(noise)
        d = d + np.tril(rng.uniform(-4e-10, 4e-10, (k, k)), -1)
        d[np.diag_indices(k)] = rng.uniform(0.0, 4e-10, k)
    try:
        return gg.FiniteMetricSpace(d)
    except gg.InvalidMetric:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(MX=_finite_spaces(), MY=_finite_spaces())
def test_gh_matches_forward_check_reference(MX, MY):
    _assert_same_search(MX, MY)


@settings(max_examples=40, deadline=None)
@given(MX=_finite_spaces(), MY=_finite_spaces())
def test_gh_search_does_not_depend_on_the_block_size(MX, MY):
    # with one point of X per block, the gaps are computed again for every
    # threshold instead of kept
    kept = gg.oracle._search(MX, MY, 10**9)
    with mock.patch.object(gg.oracle, "_PAIR_BLOCK_CELLS", 1):
        assert gg.oracle._search(MX, MY, 10**9) == kept


@pytest.mark.parametrize("block_cells", [None, 1])
def test_gh_matches_forward_check_reference_on_star(monkeypatch, block_cells):
    if block_cells is not None:  # one point of X per block of compatibility rows
        monkeypatch.setattr(gg.oracle, "_PAIR_BLOCK_CELLS", block_cells)
    G = gg.star_graph([1.0, 1.5, 2.0, 2.5])
    X = [("r1", 0.43), ("r1", 0.09), ("r3", 1.57), ("r3", 1.74), ("r1", 0.11), ("r2", 0.6), ("r3", 0.5)]
    Y = [("r3", 1.29), ("r3", 0.78), ("r4", 1.2), ("r2", 0.92), ("r4", 1.86), ("r1", 0.88), ("r3", 0.31)]
    assert _assert_same_search(_space(G, X), _space(G, Y)) == 294


@pytest.mark.parametrize("block_cells", [None, 1])
def test_gh_matches_forward_check_reference_on_two_word_rows(monkeypatch, block_cells):
    # pair 30 of the benchmark panel: 81 pairs, so each compatibility row
    # spans two 64-bit words
    if block_cells is not None:
        monkeypatch.setattr(gg.oracle, "_PAIR_BLOCK_CELLS", block_cells)
    G = gg.theta_graph(3.0, 4.0, 5.0)
    X = [("e3", 3.1500511914718334), ("e1", 2.357401143326462), ("e2", 0.7846338139687944),
         ("e2", 1.694293225565246), ("e1", 2.6583933564062545), ("e1", 0.22294444525289156),
         ("e2", 0.3545672901237517), ("e1", 2.109134207741312), ("e2", 2.852262142449449)]
    Y = [("e2", 0.47455642383577595), ("e3", 0.4183994694786627), ("e2", 3.4838844600204366),
         ("e1", 0.40801426963835674), ("e3", 4.609814680170696), ("e2", 1.4727136231868738),
         ("e1", 2.9029281807199445), ("e3", 1.647631276834344), ("e3", 1.7843181808228556)]
    assert _assert_same_search(_space(G, X), _space(G, Y)) == 1150


def _cycle(k):
    # k evenly spaced points on a circle of circumference k: every
    # eccentricity and every row sum tie, exactly
    i = np.arange(k)
    gap = np.abs(i[:, None] - i[None])
    return gg.FiniteMetricSpace(np.minimum(gap, k - gap).astype(float))


@settings(max_examples=80, deadline=None)
@given(MX=_finite_spaces(), MY=_finite_spaces())
@example(MX=_cycle(5), MY=_cycle(4))
@example(MX=_cycle(4), MY=_cycle(6))
def test_seed_assignments_match_the_row_loops(MX, MY):
    # the search seeds from the row-sum rank map pair alone, the second of
    # the reference's two
    _, (f, g) = _brute._seed_assignments(MX.d, MY.d)
    m = MY.n
    path = [i * m + j for i, j in enumerate(f)] + [i * m + k for k, i in enumerate(g)]
    assert gg.oracle._seed_path(MX.d, MY.d).tolist() == path


def test_gap_max_reads_the_cells_of_ix():
    rng = np.random.default_rng(3)
    for n, m, k in [(1, 1, 1), (3, 5, 8), (7, 4, 11), (9, 9, 18)]:
        DX, DY = (
            gg.FiniteMetricSpace(np.linalg.norm(P[:, None] - P[None], axis=2)).d
            for P in (rng.random((n, 2)), rng.random((m, 2)))
        )
        xs, ys = rng.integers(0, n, k).tolist(), rng.integers(0, m, k).tolist()  # with repeats
        expected = float(np.abs(DX[np.ix_(xs, xs)] - DY[np.ix_(ys, ys)]).max())
        assert gg.oracle._gap_max(DX, DY, xs, ys) == expected
        assert gg.oracle._gap_max(DX, DY, np.array(xs), np.array(ys)) == expected


@settings(max_examples=25, deadline=None)
@given(MX=_finite_spaces(), MY=_finite_spaces())
@example(MX=_cycle(5), MY=_cycle(4))
def test_rows_below_on_kept_and_blocked_tables(MX, MY):
    DX, DY = MX.d.tolist(), MY.d.tolist()
    n, m = MX.n, MY.n
    pairs = [(a, b) for a in range(n) for b in range(m)]
    gaps = [[abs(DX[a][c] - DY[b][d]) for c, d in pairs] for a, b in pairs]
    flat = sorted({g for row in gaps for g in row})
    ts = {0.0, math.nextafter(flat[-1], math.inf)}
    for g in flat:
        ts |= {g, math.nextafter(g, -math.inf), math.nextafter(g, math.inf)}

    kept = gg.oracle._PairGaps(MX.d, MY.d)
    with mock.patch.object(gg.oracle, "_PAIR_BLOCK_CELLS", 1):
        blocked = gg.oracle._PairGaps(MX.d, MY.d)
    assert kept.kept is not None and (n == 1 or blocked.kept is None)
    for t in sorted(ts):
        rows = [sum(1 << q for q, g in enumerate(row) if g < t) for row in gaps]
        least = min((g for row in gaps for g in row if g >= t), default=math.inf)
        assert kept.rows_below(t) == (rows, least)
        assert blocked.rows_below(t) == (rows, least)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40), width=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]))
@example(rows=3, width=1, seed=0, share=0.5)
@example(rows=3, width=63, seed=1, share=0.5)
@example(rows=3, width=64, seed=2, share=0.5)
@example(rows=3, width=65, seed=3, share=0.5)
@example(rows=3, width=127, seed=4, share=0.5)
@example(rows=3, width=128, seed=5, share=0.5)
@example(rows=3, width=129, seed=6, share=0.5)
@example(rows=3, width=200, seed=7, share=0.5)
@example(rows=2, width=200, seed=8, share=1.0)
def test_word_rows_match_byte_rows(rows, width, seed, share):
    # the table padded with zero columns to whole 64-bit words, as
    # _PairGaps holds it, against the one int.from_bytes per row it replaced
    ok = np.random.default_rng(seed).random((rows, width)) < share
    buf = np.zeros((rows, -(-width // 64) * 64), dtype=bool)
    buf[:, :width] = ok
    assert gg.oracle._word_rows(buf) == _brute.bit_rows(ok)


@settings(max_examples=60, deadline=None)
@given(MX=_finite_spaces(), MY=_finite_spaces())
# given with d(1, 0) = d(0, 1) + 3e-10, and the value reads d(0, 1): a floor
# that reads the larger entry exceeds it
@example(MX=gg.FiniteMetricSpace([[0.0, 1.0], [1.0 + 3e-10, 0.0]]), MY=gg.FiniteMetricSpace([[0.0]]))
def test_gh_guard_bracket_holds_the_value(MX, MY):
    # the guard stops the search before it starts, within a decision and
    # within the witness scan; every bracket must hold the exact value, on
    # matrices given symmetric only within the tolerance too
    v, _ = gg.gh_exact(MX, MY)
    count = gg.oracle._search(MX, MY, 10**9)[2]
    for guard in sorted({0, count // 3, 2 * count // 3, count - 1}):
        with pytest.raises(gg.GuardExceeded) as info:
            gg.gh_exact(MX, MY, guard=guard)
        floor, incumbent = info.value.bracket
        assert floor <= v <= incumbent


def test_gh_circle_pair_beyond_the_lexicographic_search(circle):
    # the lexicographic branch and bound this search replaced explored more
    # than 3e6 assignments on this pair; the value and witness are its own
    rng = random.Random(24)
    X, Y = (_space(circle, [("loop", rng.uniform(0, 2 * math.pi)) for _ in range(10)]) for _ in range(2))
    v, R = gg.gh_exact(X, Y, guard=100_000)
    assert v == 0.4832967326142277
    assert R.pairs == (
        (0, 6), (1, 0), (1, 8), (2, 4), (2, 7), (3, 1), (3, 3), (4, 4),
        (4, 5), (5, 2), (5, 9), (6, 3), (7, 6), (8, 4), (9, 6),
    )


def test_gh_exact_memory_is_bounded():
    # the compatibility rows take (nm)^2 bits; a float array of all
    # (nm)^2 gaps would take about 20 MB here
    rng = np.random.default_rng(0)
    X, Y = (
        gg.FiniteMetricSpace(np.linalg.norm(P[:, None] - P[None], axis=2))
        for P in (rng.random((40, 2)), rng.random((40, 2)))
    )
    tracemalloc.start()
    try:
        with pytest.raises(gg.GuardExceeded):
            gg.gh_exact(X, Y, guard=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


# --------------------------------------------------------------------------
# isometry testing


def test_is_isometric_permuted_space(theta345):
    rng = np.random.default_rng(8)
    X = _random_points(theta345, rng, 6)
    MX = gg.restrict_metric(theta345, X)
    perm = rng.permutation(6)
    MY = gg.FiniteMetricSpace(MX.d[np.ix_(perm, perm)])
    ok, found = gg.is_isometric(MX, MY)
    assert ok
    d = MX.d
    e = MY.d
    for i in range(6):
        for j in range(6):
            assert d[i, j] == pytest.approx(e[found[i], found[j]], abs=TAU)
    # any two one-point spaces are isometric
    assert gg.is_isometric(gg.FiniteMetricSpace.from_line([0.0]), gg.FiniteMetricSpace.from_line([5.0])) == (True, (0,))


def test_is_isometric_negative():
    a = gg.FiniteMetricSpace.from_line([0.0, 1.0, 2.0])
    b = gg.FiniteMetricSpace.from_line([0.0, 1.0, 2.5])
    assert gg.is_isometric(a, b) == (False, None)
    c = gg.FiniteMetricSpace.from_line([0.0, 1.0])
    assert gg.is_isometric(a, c) == (False, None)  # size mismatch


def test_is_isometric_tolerance():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    a = gg.FiniteMetricSpace(d)
    jig = d.copy()
    jig[0, 1] = jig[1, 0] = 1.0 + 1e-12
    b = gg.FiniteMetricSpace(jig)
    assert gg.is_isometric(a, b)[0]
    off = d.copy()
    off[0, 1] = off[1, 0] = 1.001
    cbad = gg.FiniteMetricSpace(off)
    assert not gg.is_isometric(a, cbad)[0]


def _srg_16_6_2_2(adjacent):
    # path metric of a strongly regular (16, 6, 2, 2) graph on Z4 x Z4:
    # diameter 2, so 1 between neighbours and 2 otherwise
    pts = [(a, b) for a in range(4) for b in range(4)]
    d = np.array([[0.0 if p == q else 1.0 if adjacent(p, q) else 2.0 for q in pts] for p in pts])
    return gg.FiniteMetricSpace(d)


def _rook(p, q):
    return p[0] == q[0] or p[1] == q[1]


def _shrikhande(p, q):
    step = ((p[0] - q[0]) % 4, (p[1] - q[1]) % 4)
    return step in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}


def test_is_isometric_backtracks_on_equal_rows():
    # every sorted row of both spaces is the same, so only the backtracking
    # search can tell the 4x4 rook's graph from the Shrikhande graph
    rook, shri = _srg_16_6_2_2(_rook), _srg_16_6_2_2(_shrikhande)
    assert (np.sort(rook.d, axis=1) == np.sort(shri.d, axis=1)[:1]).all()
    assert gg.is_isometric(rook, shri) == (False, None)
    with pytest.raises(gg.GuardExceeded, match="isometry search exceeded 20 nodes"):
        gg.is_isometric(rook, shri, node_guard=20)
    perm = np.random.default_rng(3).permutation(16)
    moved = gg.FiniteMetricSpace(shri.d[np.ix_(perm, perm)])
    ok, found = gg.is_isometric(shri, moved)
    assert ok
    assert (shri.d == moved.d[np.ix_(found, found)]).all()


def test_restrict_metric_keeps_large_graph_metrics():
    # at lengths near 1e8 the two readings of a distance differ by more
    # than TOLERANCE through rounding alone; the graph metric is still taken
    # as its smaller reading, not rejected as asymmetric
    G = gg.build_graph(
        ["a", "b", "c"],
        [("ab", "a", "b", 3.1e8), ("bc", "b", "c", 2.7e8), ("ca", "c", "a", 4.3e8)],
    )
    A = gg.point_set(G, [(e.id, k * e.length / 7.0) for e in G.edges for k in (1, 3, 5)])
    d = gg.pairwise_distances(G, A, A)
    assert np.abs(d - d.T).max() > gg.TOLERANCE
    M = gg.restrict_metric(G, A)
    want = np.minimum(d, d.T)
    np.fill_diagonal(want, 0.0)
    assert (M.d == want).all()


def test_is_isometric_point_cap():
    M = gg.FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(gg.GuardExceeded):
        gg.is_isometric(M, M, max_points=1)
