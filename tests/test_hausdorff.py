import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
import ghgraph as gg
from ghgraph import graph as graph_mod

TAU = 1e-9


def _random_points(G, rng, k):
    edges = G.edges
    specs = []
    for _ in range(k):
        e = edges[rng.integers(len(edges))]
        specs.append((e.id, float(rng.random()) * e.length))
    return gg.point_set(G, specs)


# --------------------------------------------------------------------------
# set-to-set


def test_directed_values(segment01):
    A = gg.point_set(segment01, [("seg", 0.0)])
    B = gg.point_set(segment01, [("seg", 1.0)])
    assert gg.directed_hausdorff_sets(segment01, A, B) == pytest.approx(1.0)
    assert gg.directed_hausdorff_sets(segment01, B, A) == pytest.approx(1.0)
    AB = gg.point_set(segment01, [("seg", 0.0), ("seg", 1.0)])
    assert gg.directed_hausdorff_sets(segment01, A, AB) == 0.0
    assert gg.directed_hausdorff_sets(segment01, AB, A) == pytest.approx(1.0)


def test_hausdorff_sets_is_max_of_directed(theta345):
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = _random_points(theta345, rng, 5)
        B = _random_points(theta345, rng, 7)
        xy = gg.directed_hausdorff_sets(theta345, A, B)
        yx = gg.directed_hausdorff_sets(theta345, B, A)
        assert gg.hausdorff_sets(theta345, A, B) == pytest.approx(max(xy, yx), abs=TAU)


def test_hausdorff_sets_vs_double_loop(multi):
    # plain python max-min over point_distance, no matrix chunking involved
    rng = np.random.default_rng(11)
    A = _random_points(multi, rng, 23)
    B = _random_points(multi, rng, 17)
    ref_ab = max(
        min(gg.point_distance(multi, p, q) for q in B.points) for p in A.points
    )
    ref_ba = max(
        min(gg.point_distance(multi, p, q) for q in A.points) for p in B.points
    )
    assert gg.hausdorff_sets(multi, A, B) == pytest.approx(max(ref_ab, ref_ba), abs=TAU)


def test_hausdorff_sets_metric_properties(theta345):
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = _random_points(theta345, rng, 4)
        B = _random_points(theta345, rng, 5)
        C = _random_points(theta345, rng, 3)
        ab = gg.hausdorff_sets(theta345, A, B)
        ba = gg.hausdorff_sets(theta345, B, A)
        assert ab == pytest.approx(ba, abs=TAU)
        ac = gg.hausdorff_sets(theta345, A, C)
        cb = gg.hausdorff_sets(theta345, C, B)
        assert ab <= ac + cb + TAU
    same = _random_points(theta345, rng, 6)
    assert gg.hausdorff_sets(theta345, same, same) == 0.0


def test_empty_set_rejected(segment01):
    A = gg.point_set(segment01, [("seg", 0.5)])
    empty = gg.point_set(segment01, [])
    with pytest.raises(gg.EmptySet):
        gg.hausdorff_sets(segment01, A, empty)
    with pytest.raises(gg.EmptySet):
        gg.directed_hausdorff_sets(segment01, empty, A)
    with pytest.raises(gg.EmptySet, match="from the boundary to an empty set"):
        gg.directed_hausdorff_boundary(segment01, empty)


# --------------------------------------------------------------------------
# graph-to-set suprema


def test_graph_to_set_segment(segment01):
    X = gg.point_set(segment01, [("seg", 0.25)])
    assert gg.hausdorff_graph_to_set(segment01, X) == pytest.approx(0.75)


def test_graph_to_set_circle_three_points(circle):
    step = 2 * math.pi / 3
    X = gg.point_set(circle, [("loop", i * step) for i in range(3)])
    assert gg.hausdorff_graph_to_set(circle, X) == pytest.approx(math.pi / 3, abs=TAU)


def test_graph_to_set_multi(multi):
    X = gg.point_set(multi, ["u"])
    # supremum attained at the far side of edge a and at the loop antipode
    assert gg.hausdorff_graph_to_set(multi, X) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_to_set_vs_dense_sampling(theta345, seed):
    rng = np.random.default_rng(seed)
    X = _random_points(theta345, rng, 4)
    exact = gg.hausdorff_graph_to_set(theta345, X)
    h = 0.01
    worst = 0.0
    for e in theta345.edges:
        k = int(e.length / h)
        pts = gg.point_set(theta345, [(e.id, i * e.length / k) for i in range(k + 1)])
        D = gg.pairwise_distances(theta345, pts, X)
        worst = max(worst, float(D.min(axis=1).max()))
    # sampling undershoots the supremum by at most the grid step
    assert worst - TAU <= exact <= worst + h


# --------------------------------------------------------------------------
# graph-to-region suprema


def test_graph_to_region_segment(segment01):
    W = gg.region(segment01, {"seg": [(0.4, 0.6)]})
    assert gg.hausdorff_graph_to_region(segment01, W) == pytest.approx(0.4)


def test_graph_to_region_circle_half(circle):
    W = gg.region(circle, {"loop": [(0.0, math.pi)]})
    assert gg.hausdorff_graph_to_region(circle, W) == pytest.approx(
        math.pi / 2, abs=TAU
    )


def test_graph_to_region_multi(multi):
    W = gg.region(multi, {"b": [(0.0, 1.0)]}, ["w"])
    assert gg.hausdorff_graph_to_region(multi, W) == pytest.approx(1.5)


def test_graph_to_region_whole_graph_is_zero(theta345):
    W = gg.whole_graph_region(theta345)
    assert gg.hausdorff_graph_to_region(theta345, W) == pytest.approx(0.0, abs=TAU)


def test_graph_to_region_empty(segment01):
    W = gg.region(segment01, {}, ())
    with pytest.raises(gg.EmptyRegion):
        gg.hausdorff_graph_to_region(segment01, W)


# --------------------------------------------------------------------------
# the array envelope against the frozen per-edge scalar loop


def _draw_multigraph(draw, length):
    # a random spanning tree plus extra edges with free endpoints, so
    # self-loops and parallel edges occur
    n = draw(st.integers(1, 4))
    edges = [(f"t{i}", f"v{draw(st.integers(0, i - 1))}", f"v{i}", draw(length)) for i in range(1, n)]
    for i in range(draw(st.integers(1 if n == 1 else 0, 4))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.append((f"x{i}", f"v{u}", f"v{v}", draw(length)))
    return n, edges, gg.build_graph([f"v{i}" for i in range(n)], edges)


@st.composite
def _multigraph_with_region(draw):
    # sources mix vertices and points on the edges, often two on one edge
    # and none on others; the region is built by gg.region from intervals
    # given in any order, some touching, whose ends may lie within
    # TOLERANCE of 0 or l (inside or just outside the edge), so that
    # clamping and snapping run
    n, _, G = _draw_multigraph(draw, st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 3.0))
    share = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0)
    point = st.one_of(
        st.builds(lambda v: f"v{v}", st.integers(0, n - 1)),
        st.tuples(st.sampled_from(G.edges), share).map(lambda p: (p[0].id, p[1] * p[0].length)),
    )
    A = gg.point_set(G, draw(st.lists(point, min_size=1, max_size=6)))
    tol = gg.TOLERANCE
    intervals = {}
    for e in G.edges:
        end = st.sampled_from([0.0, tol / 2, -tol / 2, e.length, e.length - tol / 2, e.length + tol / 2])
        end = end | share.map(lambda x: x * e.length)
        # ends with distinct clamped values, in order; neighbours may become
        # intervals, which then only touch
        cuts = sorted({min(max(x, 0.0), e.length): x for x in draw(st.lists(end, max_size=5))}.items())
        ivs = [(p[1], q[1]) for p, q in zip(cuts, cuts[1:]) if draw(st.booleans())]
        if ivs:
            intervals[e.id] = draw(st.permutations(ivs))
    vertices = draw(st.lists(st.sampled_from(G.vertices), max_size=2))
    W = gg.region(G, intervals, vertices or G.vertices[:1])
    r = draw(st.floats(0.05, 2.0))
    return G, A, W, r


@settings(max_examples=200, deadline=None)
@given(_multigraph_with_region())
def test_continuum_suprema_match_scalar_reference(case):
    G, A, W, r = case
    assert gg.hausdorff_graph_to_set(G, A) == _brute.hausdorff_graph_to_set(G, A)
    assert gg.hausdorff_graph_to_region(G, W) == _brute.hausdorff_graph_to_region(G, W)
    T = gg.thickening(G, A, r)
    assert gg.hausdorff_graph_to_region(G, T) == _brute.hausdorff_graph_to_region(G, T)


_TIE_LENGTHS = st.sampled_from([0.5, 1.0, 2.0, 2 * math.pi])


@st.composite
def _tie_heavy_case(draw):
    # ties between candidate maxima: a multigraph, a cycle of equal edges or
    # one loop, with lengths of few bits (and 2 pi); sources at k/n of an
    # edge, n points equally spaced on every edge of a cycle or loop, and
    # sources within TOLERANCE of both ends of an edge (snapped to its
    # vertices) or just beyond it (kept on the edge)
    shape = draw(st.sampled_from(["multigraph", "cycle", "loop"]))
    if shape == "multigraph":
        n, _, G = _draw_multigraph(draw, _TIE_LENGTHS)
    else:
        m, length = (1, draw(_TIE_LENGTHS)) if shape == "loop" else (draw(st.integers(2, 4)), draw(_TIE_LENGTHS))
        G = gg.build_graph(
            [f"v{i}" for i in range(m)], [(f"c{i}", f"v{i}", f"v{(i + 1) % m}", length) for i in range(m)]
        )
    tol = gg.TOLERANCE
    fraction = st.tuples(st.integers(0, 8), st.integers(1, 8)).map(lambda kn: min(kn[0], kn[1]) / kn[1])
    near_end = st.sampled_from([tol / 2, tol, 2 * tol, -tol / 2])

    def offsets(e):
        at_fraction = fraction.map(lambda x: x * e.length)
        at_end = st.tuples(near_end, st.booleans()).map(lambda p: p[0] if p[1] else e.length - p[0])
        return st.lists(at_fraction | at_end, max_size=4)

    specs = [(e.id, t) for e in G.edges for t in draw(offsets(e))]
    if shape != "multigraph" and draw(st.booleans()):
        k = draw(st.integers(1, 6))
        specs += [(e.id, i * e.length / k) for e in G.edges for i in range(k)]
    specs += draw(st.lists(st.sampled_from(G.vertices), max_size=1))
    A = gg.point_set(G, specs or G.vertices[:1])
    # a second set from the same offsets, sharing some of A's specs
    specs_b = [(e.id, t) for e in G.edges for t in draw(offsets(e))]
    specs_b += draw(st.lists(st.sampled_from(specs + list(G.vertices)), max_size=3))
    B = gg.point_set(G, specs_b or G.vertices[-1:])
    intervals = {}
    for e in G.edges:
        cuts = sorted({min(max(x, 0.0), e.length): x for x in draw(offsets(e))}.items())
        ivs = [(p[1], q[1]) for p, q in zip(cuts, cuts[1:]) if draw(st.booleans())]
        if ivs:
            intervals[e.id] = ivs
    W = gg.region(G, intervals, draw(st.lists(st.sampled_from(G.vertices), min_size=1, max_size=2)))
    r = draw(fraction.filter(bool)) * draw(_TIE_LENGTHS)
    return G, A, B, W, r


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_case())
def test_continuum_suprema_match_scalar_reference_on_ties(case):
    # the array pass evaluates fewer candidates than the scalar loop; where a
    # dropped one ties the maximum, the two must still agree to the bit
    G, A, B, W, r = case
    assert gg.hausdorff_graph_to_set(G, A) == _brute.hausdorff_graph_to_set(G, A)
    assert gg.hausdorff_graph_to_region(G, W) == _brute.hausdorff_graph_to_region(G, W)
    T = gg.thickening(G, A, r)
    assert gg.hausdorff_graph_to_region(G, T) == _brute.hausdorff_graph_to_region(G, T)
    # set-to-set distances read each query's neighbours on its edge; a
    # query at a member of the other set, or midway between two, ties them
    a_to_b, b_to_a = max(_brute.set_distances(G, A, B)), max(_brute.set_distances(G, B, A))
    assert gg.directed_hausdorff_sets(G, A, B) == a_to_b
    assert gg.directed_hausdorff_sets(G, B, A) == b_to_a
    assert gg.hausdorff_sets(G, A, B) == max(a_to_b, b_to_a)
    assert [gg.distance_to_set(G, p, A) for p in B] == _brute.set_distances(G, B, A)


@settings(max_examples=200, deadline=None)
@given(_multigraph_with_region())
def test_region_connectivity_matches_union_find(case):
    G, A, W, r = case
    assert gg.region_is_connected(G, W) == _brute.region_is_connected(G, W)
    T = gg.thickening(G, A, r)
    assert gg.region_is_connected(G, T) == _brute.region_is_connected(G, T)


_OFF_GRAPH = [
    ({"b": ((0.2, 1.0 + 2 * TAU),)}, ()),
    ({"b": ((-2 * TAU, 0.5),)}, ()),
    ({"b": ((0.2, math.nan),)}, ()),
    ({"b": ((0.2, 0.5),), "nope": ((0.1, 0.2),)}, ()),
    ({}, {"zz"}),
    ({"b": ((0.2, 0.5),)}, {"zz"}),
]


# explicit ids keep each case's name independent of its vertices column
@pytest.mark.parametrize(
    "intervals, vertices", _OFF_GRAPH, ids=[f"intervals{i}" for i in range(len(_OFF_GRAPH))]
)
def test_graph_to_region_rejects_points_off_the_graph(multi, intervals, vertices):
    with pytest.raises(gg.PointNotOnGraph):
        gg.region(multi, intervals, vertices)


# --------------------------------------------------------------------------
# boundary


def test_boundary_directed(segment01, circle, multi):
    X = gg.point_set(segment01, [("seg", 0.25)])
    assert gg.directed_hausdorff_boundary(segment01, X) == pytest.approx(0.75)
    # boundaryless graphs: supremum over the empty set
    Xc = gg.point_set(circle, ["o"])
    assert gg.directed_hausdorff_boundary(circle, Xc) == 0.0
    Xm = gg.point_set(multi, [("self", 1.0)])
    assert gg.directed_hausdorff_boundary(multi, Xm) == pytest.approx(1.5)


def test_boundary_below_global_supremum(theta345, multi):
    rng = np.random.default_rng(9)
    for G in (theta345, multi):
        for _ in range(5):
            X = _random_points(G, rng, 3)
            b = gg.directed_hausdorff_boundary(G, X)
            h = gg.hausdorff_graph_to_set(G, X)
            assert b <= h + TAU


# --------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(
    offs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    extra=st.floats(min_value=0.0, max_value=1.0),
)
def test_directed_monotone_in_target(offs, extra):
    G = gg.segment_graph(0.0, 1.0)
    A = gg.point_set(G, [("seg", 0.1), ("seg", 0.9)])
    B = gg.point_set(G, [("seg", o) for o in offs])
    Bplus = gg.point_set(G, [("seg", o) for o in offs] + [("seg", extra)])
    assert gg.directed_hausdorff_sets(G, A, Bplus) <= (
        gg.directed_hausdorff_sets(G, A, B) + TAU
    )


@settings(max_examples=40, deadline=None)
@given(offs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5))
def test_graph_to_set_dominates_set_to_set(offs):
    G = gg.segment_graph(0.0, 1.0)
    X = gg.point_set(G, [("seg", o) for o in offs])
    whole = gg.point_set(G, [("seg", i / 20.0) for i in range(21)])
    # the continuum supremum dominates any sampled directed distance
    assert gg.directed_hausdorff_sets(G, whole, X) <= (
        gg.hausdorff_graph_to_set(G, X) + TAU
    )


# --------------------------------------------------------------------------
# distance fields against the dense all-pairs kernel


@st.composite
def _multigraph_with_sets(draw):
    # points mix vertices, interior points, and points on the edges
    # (self-loops included) of each other
    n, edges, G = _draw_multigraph(draw, st.sampled_from([0.1, 0.3, math.pi / 7]) | st.floats(0.25, 3.0))
    point = st.one_of(
        st.builds(lambda v: f"v{v}", st.integers(0, n - 1)),
        st.tuples(st.integers(0, len(edges) - 1), st.floats(0.01, 0.99)).map(
            lambda p: (edges[p[0]][0], p[1] * edges[p[0]][3])
        ),
    )
    A = gg.point_set(G, draw(st.lists(point, min_size=1, max_size=5)))
    B = gg.point_set(G, draw(st.lists(point, min_size=1, max_size=5)))
    return G, A, B


def _dense_field(G, a_idx, b_idx, off_a, off_b):
    # d(w, A) read off the all-pairs matrix: the vertex rows of the dense kernel
    D = G.vertex_distances
    return np.minimum(D[:, a_idx] + off_a, D[:, b_idx] + off_b).min(axis=1)


def _set_queries(G, A, B):
    W = gg.thickening(G, A, 0.3)
    return [
        gg.hausdorff_sets(G, A, B),
        gg.directed_hausdorff_sets(G, A, B),
        gg.hausdorff_graph_to_set(G, A),
        gg.hausdorff_graph_to_region(G, W),
        gg.directed_hausdorff_boundary(G, A),
    ], W


def _long_path():
    # 64 vertices in a row, one source at each end: the relaxation needs a
    # round per edge, far more than the round budget, so scipy searches the
    # fields unless the budget is lifted
    G = gg.build_graph([f"v{i}" for i in range(64)], [(f"e{i}", f"v{i}", f"v{i + 1}", 1.0) for i in range(63)])
    return G, gg.point_set(G, ["v0"]), gg.point_set(G, ["v63"])


@settings(max_examples=150, deadline=None)
@given(_multigraph_with_sets())
@example(_long_path())
def test_distance_field_matches_dense_kernel(case):
    G, A, B = case
    verts = [gg.vertex_point(G, v) for v in G.vertices]
    field = A._distances
    assert field == pytest.approx(gg.pairwise_distances(G, verts, A).min(axis=1), rel=1e-12)
    # the relaxation and scipy's search agree bit for bit: with no round to
    # spend, a field other than its start values goes to scipy; with no
    # limit, none does
    anchors = graph_mod._anchors(A)
    start = np.full(len(G.vertices), np.inf)
    np.minimum.at(start, anchors[0], anchors[2])
    np.minimum.at(start, anchors[1], anchors[3])
    settled = np.array_equal(start, field)
    for rounds in (0, math.inf):
        with (
            mock.patch.object(graph_mod, "_FIELD_ROUNDS", rounds),
            mock.patch.object(graph_mod, "_sparse_field", wraps=graph_mod._sparse_field) as sparse,
        ):
            assert np.array_equal(graph_mod._distance_field(G, *anchors), field)
        assert sparse.called == (rounds == 0 and not settled)
    P = gg.pairwise_distances(G, A, B)
    assert gg.directed_hausdorff_sets(G, A, B) == pytest.approx(P.min(axis=1).max(), rel=1e-12)
    assert gg.directed_hausdorff_sets(G, B, A) == pytest.approx(P.min(axis=0).max(), rel=1e-12)
    values, W = _set_queries(G, A, B)
    # the same queries with every field read off the dense matrix instead, on
    # fresh sets, since A and B keep the fields found above
    with mock.patch.object(graph_mod, "_distance_field", _dense_field):
        dense_values, dense_W = _set_queries(G, gg.point_set(G, A.points), gg.point_set(G, B.points))
    assert values == pytest.approx(dense_values, rel=1e-12)
    assert W.vertices == dense_W.vertices
    assert W.intervals.keys() == dense_W.intervals.keys()
    for eid, ivs in W.intervals.items():
        assert np.ravel(ivs) == pytest.approx(np.ravel(dense_W.intervals[eid]), rel=1e-12)


def test_distance_field_self_loop_source_near_basepoint(circle):
    # the source links to the basepoint once, with the shorter arc: two
    # links to the same vertex would be summed into the full circumference
    A = gg.point_set(circle, [("loop", 0.1)])
    o = gg.point_set(circle, ["o"])
    assert gg.directed_hausdorff_sets(circle, o, A) == pytest.approx(0.1)
    assert gg.distance_to_set(circle, gg.vertex_point(circle, "o"), A) == pytest.approx(0.1)
    assert gg.hausdorff_graph_to_set(circle, A) == pytest.approx(math.pi)
    assert gg.thickening(circle, A, 0.2).vertices == frozenset({"o"})


def test_set_distances_leave_the_dense_matrix_unbuilt(multi):
    G = multi
    A = gg.point_set(G, ["u", ("a", 1.0), ("self", 0.5)])
    B = gg.point_set(G, [("b", 0.5), ("spur", 0.25)])
    _set_queries(G, A, B)
    gg.directed_hausdorff_sets(G, B, A)
    gg.distance_to_set(G, B[0], A)
    assert G._vertex_distances is None
    gg.pairwise_distances(G, A, B)
    assert G._vertex_distances is not None


def test_kept_field_is_read_only(multi):
    A = gg.point_set(multi, ["u", ("a", 1.0), ("self", 0.5)])
    gg.hausdorff_graph_to_set(multi, A)
    with pytest.raises(ValueError):
        A._distances[0] = 1.0


def test_set_measured_on_another_graph_reads_that_graph():
    # the same ids with other lengths; the set keeps the first graph's
    # field, which the second graph must not read
    def triangle(la, lb, lc):
        return gg.build_graph(
            ["u", "v", "w", "x"], [("a", "u", "v", la), ("b", "v", "w", lb), ("c", "w", "u", lc), ("d", "w", "x", 1.0)]
        )

    def queries(G, A):
        B = gg.point_set(G, [("a", 0.3), "x"])
        return [
            gg.hausdorff_graph_to_set(G, A),
            gg.directed_hausdorff_boundary(G, A),
            gg.hausdorff_sets(G, A, B),
            gg.distance_to_set(G, gg.vertex_point(G, "v"), A),
            gg.thickening(G, A, 0.3).intervals,
        ]

    G1, G2 = triangle(1.0, 2.0, 3.0), triangle(2.5, 0.5, 1.5)
    specs = ["u", ("b", 0.4), ("c", 1.2)]
    A1, A2 = gg.point_set(G1, specs), gg.point_set(G2, specs)
    on_g1 = queries(G1, A1)
    on_g2 = queries(G2, A1)
    assert on_g2 == queries(G2, A2)
    assert on_g2 != on_g1
    assert queries(G1, A1) == on_g1
