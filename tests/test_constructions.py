import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ghgraph as gg

from _brute import circle_arc_distance

TAU = 1e-9
PI = math.pi
L = 2 * PI


# --------------------------------------------------------------------------
# star counterexample


def test_star_counterexample_rejects_degenerate():
    for n in (1, 0, -3):
        with pytest.raises(gg.ValidationError):
            gg.star_counterexample(n)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_star_counterexample_distances(n):
    T, X, Xc = gg.star_counterexample(n)
    assert gg.hausdorff_graph_to_region(T, X) == pytest.approx(1.0, abs=TAU)
    assert gg.hausdorff_graph_to_region(T, Xc) == pytest.approx(1.0 / n, abs=TAU)


def test_star_counterexample_shape():
    n = 4
    T, X, Xc = gg.star_counterexample(n)
    lengths = sorted(e.length for e in T.edges)
    assert lengths == pytest.approx([1.0 + t / n for t in range(1, n + 1)])
    # the truncated ray keeps only its first unit; every other ray is full
    spans = sorted(hi - lo for iv in X.intervals.values() for lo, hi in iv)
    assert spans == pytest.approx([1.0, 1.25, 1.5, 1.75])
    spans_c = sorted(hi - lo for iv in Xc.intervals.values() for lo, hi in iv)
    assert spans_c == pytest.approx([1.0, 1.25, 1.5, 1.75])


@pytest.mark.parametrize("n", [2, 4])
def test_star_counterexample_regions_isometric(n):
    T, X, Xc = gg.star_counterexample(n)
    delta = 1.0 / (4 * n)
    MA = gg.restrict_metric(T, gg.region_net(T, X, delta))
    MB = gg.restrict_metric(T, gg.region_net(T, Xc, delta))
    ok, _ = gg.is_isometric(MA, MB)
    assert ok


def test_star_counterexample_ratio():
    # the certified GH/H ratio collapses like 1/n
    for n in (4, 8):
        T, X, Xc = gg.star_counterexample(n)
        upper = gg.hausdorff_graph_to_region(T, Xc)  # isometry transport
        lower = gg.hausdorff_graph_to_region(T, X)
        assert upper / lower == pytest.approx(1.0 / n, abs=TAU)


def test_small_builders_reject_degenerate_input():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(gg.ValidationError, match=r"segment needs a < b"):
            gg.segment_graph(a, b)
    with pytest.raises(gg.ValidationError, match="star needs at least one ray"):
        gg.star_graph([])


def test_region_net_rejects_nonpositive_delta():
    T, X, _ = gg.star_counterexample(2)
    for delta in (0.0, -0.5, math.nan):
        with pytest.raises(gg.NonPositiveEpsilon, match="delta must be positive"):
            gg.region_net(T, X, delta)


def test_region_net_deterministic_and_covering():
    T, X, _ = gg.star_counterexample(4)
    a = gg.region_net(T, X, 0.1)
    b = gg.region_net(T, X, 0.1)
    assert a.points == b.points
    # every region vertex appears in the net
    for v in X.vertices:
        assert any(p.vertex == v for p in a.points)


# --------------------------------------------------------------------------
# six-point circle instance


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_circle_six_point_verified_quantities(circle, eps):
    X, R = gg.circle_six_point(eps)
    assert len(X.points) == 6
    assert gg.hausdorff_graph_to_set(circle, X) == pytest.approx(PI / 3 + eps, abs=TAU)
    assert gg.arc_correspondence_distortion(R, X, circle) == pytest.approx(
        2 * PI / 3, abs=TAU
    )
    cert = gg.circle_bound(circle, X)
    assert cert.value == pytest.approx(PI / 3, abs=TAU)


def test_circle_six_point_gap_structure():
    eps = 0.1
    X, R = gg.circle_six_point(eps)
    offs = sorted(p.offset if p.edge else 0.0 for p in X.points)
    gaps = [b - a for a, b in zip(offs, offs[1:])] + [L - offs[-1] + offs[0]]
    # three thirds, a sliver, the wide gap, the sliver
    assert gaps[0] == pytest.approx(PI / 3, abs=TAU)
    assert gaps[1] == pytest.approx(PI / 3, abs=TAU)
    assert gaps[2] == pytest.approx(PI / 3, abs=TAU)
    assert gaps[3] == pytest.approx(PI / 6 - eps, abs=TAU)
    assert gaps[4] == pytest.approx(2 * PI / 3 + 2 * eps, abs=TAU)
    assert gaps[5] == pytest.approx(PI / 6 - eps, abs=TAU)
    arc_lengths = [hi - lo for (lo, hi), _ in R.assignments]
    third = 2 * PI / 3 - 2 * eps
    sixth = PI / 6 + eps
    assert arc_lengths == pytest.approx([sixth, sixth, third, sixth, sixth, third])
    # arcs tile the circle and land on all six points
    assert R.assignments[0][0][0] == pytest.approx(0.0)
    for (a, b), (c, d) in zip(
        [arc for arc, _ in R.assignments], [arc for arc, _ in R.assignments][1:]
    ):
        assert b == pytest.approx(c, abs=TAU)
    assert sorted(idx for _, idx in R.assignments) == list(range(6))


def test_circle_six_point_epsilon_range():
    for bad in (0.0, PI / 6, -0.2, 1.0):
        with pytest.raises(gg.EpsilonOutOfRange):
            gg.circle_six_point(bad)


def test_circle_six_point_sandwich(circle):
    # lower bound pi/3 from the certificate, upper bound pi/3 from the
    # explicit correspondence: the instance pins the GH value exactly
    eps = 0.1
    X, R = gg.circle_six_point(eps)
    lower = gg.circle_bound(circle, X).value
    upper = gg.arc_correspondence_distortion(R, X, circle) / 2.0
    assert lower == pytest.approx(PI / 3, abs=TAU)
    assert upper == pytest.approx(PI / 3, abs=TAU)
    assert gg.hausdorff_graph_to_set(circle, X) > upper + 1e-3


# --------------------------------------------------------------------------
# arc correspondence distortion


def test_arc_distortion_quarter_swap(circle):
    X = gg.point_set(circle, [("loop", 0.0), ("loop", PI)])
    R = gg.ArcCorrespondence(
        (
            ((0.0, PI / 2), 1),
            ((PI / 2, PI), 0),
            ((PI, 3 * PI / 2), 0),
            ((3 * PI / 2, L), 1),
        )
    )
    assert gg.arc_correspondence_distortion(R, X, circle) == pytest.approx(PI, abs=TAU)


def test_arc_distortion_half_cover(circle):
    # one long arc per point: the self-pair alone forces L/2
    X = gg.point_set(circle, [("loop", 0.0), ("loop", PI)])
    R = gg.ArcCorrespondence((((0.0, PI), 0), ((PI, L), 1)))
    assert gg.arc_correspondence_distortion(R, X, circle) == pytest.approx(PI, abs=TAU)


def test_arc_distortion_validation(circle):
    X = gg.point_set(circle, [("loop", 0.0), ("loop", PI)])
    with pytest.raises(gg.NotACorrespondence):  # hole in the cover
        gg.arc_correspondence_distortion(
            gg.ArcCorrespondence((((0.0, PI), 0), ((PI + 0.5, L), 1))), X, circle
        )
    with pytest.raises(gg.NotACorrespondence, match="uncovered"):  # the cover stops short of L
        gg.arc_correspondence_distortion(
            gg.ArcCorrespondence((((0.0, PI), 0), ((0.5, L - 0.5), 1))), X, circle
        )
    with pytest.raises(gg.NotACorrespondence, match="no arcs"):
        gg.arc_correspondence_distortion(gg.ArcCorrespondence(()), X, circle)
    with pytest.raises(gg.NotACorrespondence):  # second point never used
        gg.arc_correspondence_distortion(
            gg.ArcCorrespondence((((0.0, L), 0),)), X, circle
        )
    with pytest.raises(gg.NotACircle):
        gg.arc_correspondence_distortion(
            gg.ArcCorrespondence((((0.0, 1.0), 0),)),
            gg.point_set(gg.segment_graph(0.0, 1.0), ["u"]),
            gg.segment_graph(0.0, 1.0),
        )


def test_arc_distortion_rejects_unchecked_arcs(circle):
    # an arc with a non-finite end is malformed, though a NaN end slips past
    # the cover sweep, and an index must be an integer, not one truncated
    X = gg.point_set(circle, [("loop", 0.5), ("loop", 3.0)])
    for arcs in (
        (((0.0, math.nan), 0), ((1.0, 2.0), 1)),
        (((math.nan, 1.0), 0), ((0.0, L), 1)),
        (((0.0, math.inf), 0), ((0.0, L), 1)),
        (((0.0, PI), 0.9), ((PI, L), 1)),
        (((0.0, PI), 0), ((PI, L), "1")),
    ):
        with pytest.raises(gg.NotACorrespondence):
            gg.arc_correspondence_distortion(gg.ArcCorrespondence(arcs), X, circle)
    # an index of any integer type is read as it is
    plain = gg.ArcCorrespondence((((0.0, PI), 0), ((PI, L), 1)))
    numpy = gg.ArcCorrespondence((((0.0, PI), np.int64(0)), ((PI, L), np.int32(1))))
    assert gg.arc_correspondence_distortion(numpy, X, circle) == (
        gg.arc_correspondence_distortion(plain, X, circle)
    )


def test_arc_distortion_reads_points_on_its_circle(circle):
    R = gg.ArcCorrespondence((((0.0, PI), 0), ((PI, L), 1)))
    theta = gg.theta_graph(1.0, 2.0, 3.0)
    with pytest.raises(gg.PointNotOnGraph):
        gg.arc_correspondence_distortion(R, gg.point_set(theta, ["p", "q"]), circle)
    # points built on an equal circle are read at their locations
    specs = ["o", ("loop", 2.0)]
    copy = gg.point_set(gg.circle_graph(), specs)
    own = gg.point_set(circle, specs)
    assert gg.arc_correspondence_distortion(R, copy, circle) == (
        gg.arc_correspondence_distortion(R, own, circle)
    )


def _tent(x):
    d = np.abs(x) % L
    return np.minimum(d, L - d)


_CUT = st.floats(0.0, L, exclude_max=True) | st.sampled_from([k * L / 12 for k in range(12)])
_SHIFT = st.floats(-L, L) | st.sampled_from([0.0, PI, L / 12])
_GROW = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def _cut_correspondence(draw):
    """Arcs between consecutive cuts, the last wrapping past L, all moved by
    one shift and each lengthened by up to 1 to overlap its successor; cuts
    on the twelfths make arcs touch antipodes. 1-6 arcs onto 1-6 points."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, m))
    cuts = sorted(draw(st.lists(_CUT, min_size=m, max_size=m)))
    shift = draw(_SHIFT)
    ends = [e + shift for e in cuts + [cuts[0] + L]]
    arcs = [(lo, min(hi + draw(_GROW), lo + L)) for lo, hi in zip(ends, ends[1:])]
    extra = draw(st.lists(st.integers(0, n - 1), min_size=m - n, max_size=m - n))
    targets = draw(st.permutations(list(range(n)) + extra))
    pos = draw(st.lists(_CUT, min_size=n, max_size=n, unique=True))
    return gg.ArcCorrespondence(tuple(zip(arcs, targets))), pos


@settings(max_examples=50, deadline=None)
@given(_cut_correspondence())
@example(  # the distortion is L/2 only where two arcs overlap
    (gg.ArcCorrespondence((((-1.0, 1.0), 0), ((0.9, 3.0), 1), ((3.0, 5.3), 2))), [0.0, PI, 4.1])
)
def test_arc_distortion_brackets_dense_sampling(case):
    # every pair of points is within h/2 of a sampled pair on each side, so
    # the sampled distortion undershoots the exact one by at most h
    R, pos = case
    circle = gg.circle_graph()
    X = gg.point_set(circle, [("loop", t) for t in pos])
    assume(len(X) == len(pos))  # no two positions share a canonical point
    exact = gg.arc_correspondence_distortion(R, X, circle)
    h = 0.025
    s, ix = [], []
    for (lo, hi), i in R:
        k = max(1, math.ceil((hi - lo) / h))
        s.append(np.linspace(lo, hi, k + 1))
        ix.append(np.full(k + 1, i))
    s, ix, p = np.concatenate(s), np.concatenate(ix), np.array(pos)
    sampled = np.abs(_tent(s[:, None] - s) - _tent(p[:, None] - p)[ix[:, None], ix]).max()
    assert sampled - TAU <= exact <= sampled + 2 * h


def _rotated(R, X, G, shift):
    """Rotate arcs and sample points by a common shift, splitting wrapped arcs."""
    circ = gg.circle_circumference(G)
    specs = []
    for p in X.points:
        off = p.offset if p.edge else 0.0
        specs.append(("loop", (off + shift) % circ))
    moved = gg.point_set(G, specs)
    # the rotated point at index i may land at a different canonical position;
    # recover the index permutation by matching offsets
    new_offs = [q.offset if q.edge else 0.0 for q in moved.points]
    perm = []
    for p in X.points:
        off = (p.offset if p.edge else 0.0) + shift
        target = off % circ
        perm.append(
            min(range(len(new_offs)), key=lambda k: abs(new_offs[k] - target) % circ)
        )
    arcs = []
    for (lo, hi), idx in R.assignments:
        lo2, hi2 = lo + shift, hi + shift
        if lo2 >= circ:
            lo2, hi2 = lo2 - circ, hi2 - circ
        if hi2 <= circ:
            arcs.append(((lo2, hi2), perm[idx]))
        else:  # arc crosses the seam: split it, same target index
            arcs.append(((lo2, circ), perm[idx]))
            arcs.append(((0.0, hi2 - circ), perm[idx]))
    return gg.ArcCorrespondence(tuple(arcs)), moved


@pytest.mark.parametrize("shift", [0.3, 2.0, 5.5])
def test_arc_distortion_rotation_invariant(circle, shift):
    X, R = gg.circle_six_point(0.1)
    base = gg.arc_correspondence_distortion(R, X, circle)
    R2, X2 = _rotated(R, X, circle, shift)
    assert gg.arc_correspondence_distortion(R2, X2, circle) == pytest.approx(
        base, abs=TAU
    )


def test_arc_distortion_vs_sampling(circle):
    # sampled distortion can only undershoot, and by at most the grid step
    X, R = gg.circle_six_point(0.15)
    exact = gg.arc_correspondence_distortion(R, X, circle)
    offs = [p.offset if p.edge else 0.0 for p in X.points]
    h = 0.01
    worst = 0.0
    samples = []
    for (lo, hi), idx in R.assignments:
        k = max(1, int((hi - lo) / h))
        samples.extend(
            (lo + (hi - lo) * i / k, offs[idx]) for i in range(k + 1)
        )
    for s, x in samples:
        for t, y in samples:
            gap = abs(circle_arc_distance(s, t, L) - circle_arc_distance(x, y, L))
            if gap > worst:
                worst = gap
    assert worst - TAU <= exact <= worst + 2 * h


# --------------------------------------------------------------------------
# nets and grids


def test_epsilon_net_segment(segment01):
    net = gg.epsilon_net(segment01, 0.25)
    offs = sorted(p.offset if p.edge else (0.0 if p.vertex == "u" else 1.0) for p in net.points)
    assert offs == pytest.approx([0.0, 0.5, 1.0])
    assert gg.hausdorff_graph_to_set(segment01, net) == pytest.approx(0.25, abs=TAU)


def test_epsilon_net_circle(circle):
    net = gg.epsilon_net(circle, PI / 3)
    assert len(net.points) == 3
    assert gg.hausdorff_graph_to_set(circle, net) == pytest.approx(PI / 3, abs=TAU)


def test_one_point_graph():
    # a vertex and no edge is a valid connected graph; its net is the vertex
    G = gg.build_graph(["o"], [])
    net = gg.epsilon_net(G, 0.1)
    assert net.points == (gg.GraphPoint(vertex="o"),)
    assert gg.graph_diameter(G) == 0.0
    assert gg.hausdorff_graph_to_set(G, net) == 0.0
    certs = {c.theorem: c for c in gg.best_bound(G, net)}
    assert certs["diameter"].value == 0.0
    # with no edge a thickening is its vertices alone
    T = gg.thickening(G, gg.point_set(G, ["o"]), 1.0)
    assert T.intervals == {}
    assert T.vertices == frozenset({"o"})
    assert gg.hausdorff_graph_to_region(G, T) == 0.0
    assert gg.region_is_connected(G, T)
    assert gg.hausdorff_sets(G, net, net) == 0.0


@pytest.mark.parametrize("eps", [0.6, 0.35, 0.2])
def test_epsilon_net_covers(theta345, multi, eps):
    for G in (theta345, multi):
        net = gg.epsilon_net(G, eps)
        assert gg.hausdorff_graph_to_set(G, net) <= eps + TAU


def test_epsilon_net_halving_gives_superset(theta345):
    def keys(ps):
        return {
            (p.vertex, None) if p.vertex else (p.edge, round(p.offset, 9))
            for p in ps.points
        }

    # spacings halve exactly at these levels: every length/(2 eps) is integral
    coarse = gg.epsilon_net(theta345, 0.5)
    fine = gg.epsilon_net(theta345, 0.25)
    finer = gg.epsilon_net(theta345, 0.125)
    assert keys(coarse) <= keys(fine) <= keys(finer)


def test_epsilon_net_rejects_nonpositive(segment01):
    for eps in (0.0, -1.0):
        with pytest.raises(gg.NonPositiveEpsilon):
            gg.epsilon_net(segment01, eps)


def test_grid_coordinates():
    assert gg.grid_coordinates(0.0, 1.0, 0.5) == pytest.approx((0.0, 0.5, 1.0))
    assert gg.grid_coordinates(0.0, 1.0, 2.0) == pytest.approx((0.0, 1.0))
    assert gg.grid_coordinates(0.0, 1.0, 0.3) == pytest.approx(
        (0.0, 0.3, 0.6, 0.9, 1.0)
    )


def test_grid_edge_cases():
    for h in (0.0, -0.5, math.nan):
        with pytest.raises(gg.NonPositiveEpsilon, match="grid step must be positive"):
            gg.grid_coordinates(0.0, 1.0, h)
    # an infinite step: the first point is a itself, not a + 0 * inf = NaN
    assert gg.grid_coordinates(0.0, 1.0, math.inf) == (0.0, 1.0)
    for f in (gg.grid_coordinates, gg.grid_interval):
        # a non-finite end would never be reached
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(gg.PointOutsideInterval, match="finite a < b"):
                f(a, b, 1.0)
        # nor would b where a + k * h rounds to a; too many points are refused unbuilt
        for a, b, h in ((1e20, 2e20, 1.0), (0.0, 1.0, 1e-7), (0.0, 1.0, 5e-324)):
            with pytest.raises(gg.GuardExceeded, match="grid guard"):
                f(a, b, h)


def test_grid_interval_matches_coordinates():
    ps = gg.grid_interval(0.0, 1.0, 0.5)
    G = gg.segment_graph(0.0, 1.0)
    M = gg.restrict_metric(G, ps)
    ref = gg.FiniteMetricSpace.from_line([0.0, 0.5, 1.0])
    assert np.allclose(M.d, ref.d, atol=TAU)
