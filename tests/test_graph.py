import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
import ghgraph as gg
from ghgraph import graph as graph_mod

from _brute import dijkstra

TAU = 1e-9


# --------------------------------------------------------------------------
# construction and validation


def test_build_graph_rejects_nonpositive_length():
    with pytest.raises(gg.NonPositiveEdgeLength):
        gg.build_graph(["u", "v"], [("e", "u", "v", 0.0)])
    with pytest.raises(gg.NonPositiveEdgeLength):
        gg.build_graph(["u", "v"], [("e", "u", "v", -1.0)])


def test_build_graph_rejects_unknown_endpoint():
    with pytest.raises(gg.UnknownEndpoint):
        gg.build_graph(["u"], [("e", "u", "zz", 1.0)])


def test_build_graph_rejects_disconnected():
    with pytest.raises(gg.DisconnectedGraph):
        gg.build_graph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
        )
    # a self-loop joins its basepoint to nothing else
    with pytest.raises(gg.DisconnectedGraph):
        gg.build_graph(["a", "b"], [("loop", "b", "b", 1.0)])


def test_build_graph_rejects_duplicates_and_empty():
    with pytest.raises(gg.ValidationError):
        gg.build_graph(["u", "v"], [("e", "u", "v", 1.0), ("e", "u", "v", 2.0)])
    with pytest.raises(gg.ValidationError):
        gg.build_graph(["u", "u", "v"], [("e", "u", "v", 1.0)])
    with pytest.raises(gg.ValidationError):
        gg.build_graph([], [])


@st.composite
def _edge_lists(draw):
    """Vertices and edges of a connected multigraph with self-loops,
    parallel edges and tied lengths, in any order, with str and int ids."""
    V = draw(st.integers(1, 7))
    names = draw(st.permutations([f"v{i}" for i in range(V)]))
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, V)]
    ends += draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)), max_size=8))
    ends = draw(st.permutations(ends))
    length = st.sampled_from([0.5, 1.0, 2.5, 0.1, 0.3, math.pi / 7]) | st.floats(0.01, 10.0)
    edges = [
        (k if draw(st.booleans()) else f"e{k}", names[a], names[b], draw(length))
        for k, (a, b) in enumerate(ends)
    ]
    return draw(st.permutations(names)), edges


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_build_graph_matches_scalar_reference(graph):
    vertices, edges = graph
    G, ref = gg.build_graph(vertices, edges), _brute.build_graph(vertices, edges)
    # the small-graph relaxation against scipy's Dijkstra, called on both skeletons
    assert np.array_equal(G.vertex_distances, ref.vertex_distances)
    assert np.array_equal(graph_mod._sparse_distances(G._skeleton), ref.vertex_distances)
    for column, ref_column in zip(G._skeleton, (ref.skeleton.indptr, ref.skeleton.indices, ref.skeleton.data)):
        assert np.array_equal(column, ref_column)
    assert G.vertices == ref.vertices and G.vertex_index == ref.vertex_index
    assert G.edge_ids == tuple(e.id for e in ref.edges) and G.edge_index == ref.edge_index
    for name in ("edge_u", "edge_v", "edge_length", "vertex_degree"):
        assert np.array_equal(getattr(G, name), getattr(ref, name))
    assert G.edges == ref.edges
    assert [G.edge(e.id) for e in ref.edges] == list(ref.edges)


@st.composite
def _crowded_edge_lists(draw):
    """Vertices and edges of a connected multigraph whose links crowd a few
    vertex pairs, with lengths from a few that tie."""
    V = draw(st.integers(2, 30))
    ends = [(i - 1, i) for i in range(1, V)]
    ends += draw(st.lists(st.tuples(st.integers(0, min(V, 5) - 1), st.integers(0, V - 1)), max_size=60))
    length = st.sampled_from([0.5, 1.0, 1.5])
    return [f"v{i}" for i in range(V)], [(f"e{k}", f"v{a}", f"v{b}", draw(length)) for k, (a, b) in enumerate(ends)]


@settings(max_examples=300, deadline=None)
@given(_edge_lists() | _crowded_edge_lists())
@example((["o"], []))  # one vertex, no edge
@example((["o"], [("a", "o", "o", 1.0), ("b", "o", "o", 0.5)]))  # only self-loops
@example(  # parallel edges of equal and of unequal length, both ways round, and a self-loop
    (["u", "v"], [("a", "u", "v", 2.0), ("b", "v", "u", 2.0), ("c", "u", "v", 0.5), ("d", "v", "v", 0.1)])
)
@example(([0, 1, 2], [(0, 1, 0, 1.5), (1, 2, 1, 0.5), (2, 0, 1, 1.5), (3, 2, 2, 1.0)]))  # ids that are not str
def test_skeleton_matches_lexsort_reference(graph):
    # one integer-key sort keeps the least length per vertex pair in the
    # same bytes as the 3-key lexsort it replaced
    G = gg.build_graph(*graph)
    for column, frozen in zip(G._skeleton, _brute.lexsort_skeleton(G), strict=True):
        assert column.dtype == frozen.dtype and column.tobytes() == frozen.tobytes()


def test_edge_views_are_the_tuples_build_graph_reads(multi):
    # a view is the (edge_id, u, v, length) tuple that build_graph reads, so
    # the views rebuild the same graph
    same = gg.build_graph(multi.vertices, multi.edges)
    assert (same.vertices, same.vertex_index) == (multi.vertices, multi.vertex_index)
    assert (same.edge_ids, same.edge_index) == (multi.edge_ids, multi.edge_index)
    for name in ("edge_u", "edge_v", "edge_length", "vertex_degree"):
        assert getattr(same, name).tobytes() == getattr(multi, name).tobytes()
    assert [a.tobytes() for a in same._skeleton] == [a.tobytes() for a in multi._skeleton]
    for k, eid in enumerate(multi.edge_ids):
        row = (eid, multi.vertices[multi.edge_u[k]], multi.vertices[multi.edge_v[k]], float(multi.edge_length[k]))
        assert multi.edges[k] == multi.edge(eid) == row
        assert type(multi.edges[k].length) is float and hash(multi.edges[k]) == hash(row)
    assert len(set(multi.edges)) == len(multi.edges)
    with pytest.raises(AttributeError):
        multi.edges[0].length = 1.0
    G = gg.build_graph(["v0", "v1"], [("e0", "v0", "v1", 0.5)])
    assert repr(G.edges[0]) == repr(G.edge("e0")) == "Edge(id='e0', u='v0', v='v1', length=0.5)"


@st.composite
def _any_edge_lists(draw):
    """Vertices and edges with free endpoints, so often disconnected, and
    lengths from a few that tie."""
    V = draw(st.integers(1, 12))
    ends = draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)), max_size=16))
    length = st.sampled_from([0.1, 0.3, math.pi / 7, 1e-9, 1e9])
    return [f"v{i}" for i in range(V)], [(f"e{k}", f"v{a}", f"v{b}", draw(length)) for k, (a, b) in enumerate(ends)]


_STAR = (["o", *"abcdefgh"], [(f"r{k}", "o", w, 0.3) for k, w in enumerate("abcdefgh")])
_PATH = (list("abcdefgh"), [(f"e{k}", u, w, math.pi / 7) for k, (u, w) in enumerate(zip("abcdefg", "bcdefgh"))])


@settings(max_examples=300, deadline=None)
@given(_any_edge_lists())
@example(_STAR)  # one vertex's link list holds most links
@example(_PATH)  # the relaxation takes a round per edge
@example((["o"], []))
def test_build_graph_decides_and_measures_as_scipy_does(graph):
    # the component count accepts and rejects as scipy's components do, with
    # the same error, and the small-graph matrix is scipy's Dijkstra's bit for bit
    vertices, edges = graph
    error = _error(lambda: gg.build_graph(vertices, edges))
    assert error == _error(lambda: _brute.build_graph(vertices, edges))
    if error is None:
        S = gg.build_graph(vertices, edges)._skeleton
        n = len(vertices)  # the identity table, a column per source
        X = graph_mod._relaxed(S, np.where(np.eye(n, dtype=bool), 0.0, np.inf))
        assert np.array_equal(X.T, graph_mod._sparse_distances(S))


@st.composite
def _link_part(draw):
    """A path, a star or free links (self-loops and parallel links among
    them) on nodes 0..V-1, relabelled by a permutation."""
    V = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["path", "star", "links"]))
    if shape == "path":
        ends = [(i, i + 1) for i in range(V - 1)]
    elif shape == "star":
        ends = [(0, i) for i in range(1, V)]
    else:
        ends = draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)), max_size=2 * V))
    label = draw(st.permutations(range(V)))
    return V, [(label[a], label[b]) for a, b in ends]


@st.composite
def _link_lists(draw):
    """The disjoint union of one to four parts, relabelled, with its links
    shuffled and each turned either way round."""
    n, links = 0, []
    for V, ends in draw(st.lists(_link_part(), min_size=1, max_size=4)):
        links += [(a + n, b + n) for a, b in ends]
        n += V
    label = draw(st.permutations(range(n)))
    links = [(label[a], label[b])[:: draw(st.sampled_from([1, -1]))] for a, b in links]
    return n, draw(st.permutations(links))


_LONG_RELABELLED_PATH = np.random.default_rng(0).permutation(20000)


@settings(max_examples=300, deadline=None)
@given(_link_lists())
@example((1, []))  # one node, no link
@example((64, [(63, i) for i in range(63)]))  # a star centred on the highest label
@example((20000, list(zip(_LONG_RELABELLED_PATH[:-1].tolist(), _LONG_RELABELLED_PATH[1:].tolist()))))
def test_component_count_matches_union_find(graph):
    n, links = graph
    a, b = (np.array([link[k] for link in links], dtype=np.int64) for k in (0, 1))
    assert graph_mod._component_count(n, a, b) == _brute.component_count(n, a.tolist(), b.tolist())


_GOOD_EDGES = [(f"e{k}", "abcdef"[k % 6], "abcdef"[(k + 1) % 6], 0.5 + k % 4) for k in range(40)]


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize(
    "bad",
    [
        ("e7", "a", "b", 1.0),  # duplicate id
        ("z", "q", "b", 1.0),  # unknown u
        ("z", "a", "q", 1.0),  # unknown v
        ("z", "q", "r", 1.0),  # both unknown: u is named
        ("z", "a", "b", 0.0),
        ("z", "a", "b", -1.0),
        ("z", "a", "b", math.nan),
        ("z", "a", "b", math.inf),
        ("z", "a", "b", "abc"),  # a length float() rejects
        ("z", "a", "b"),  # items of the wrong size
        ("z", "a", "b", 1.0, 2.0),
        7,
    ],
)
def test_build_graph_errors_match_scalar_reference(bad, where):
    k = {"start": 0, "middle": len(_GOOD_EDGES) // 2, "end": len(_GOOD_EDGES)}[where]
    # a length float() rejects and an item of the wrong size come after the
    # first bad edge and must not be the ones reported
    edges = _GOOD_EDGES[:k] + [bad] + _GOOD_EDGES[k:] + [("y", "a", "b", "later"), ("x", "a")]
    expected = _error(lambda: _brute.build_graph("abcdef", edges))
    assert expected is not None
    assert _error(lambda: gg.build_graph("abcdef", edges)) == expected


def test_point_validation(multi):
    with pytest.raises(gg.PointNotOnGraph):
        gg.edge_point(multi, "a", 3.1)
    with pytest.raises(gg.PointNotOnGraph):
        gg.edge_point(multi, "a", -0.1)
    with pytest.raises(gg.PointNotOnGraph):
        gg.edge_point(multi, "nope", 0.5)
    with pytest.raises(gg.PointNotOnGraph):
        gg.vertex_point(multi, "nope")


def test_point_canonicalization(multi):
    # offsets at (or within tolerance of) an endpoint snap to the vertex
    assert gg.edge_point(multi, "a", 0.0).vertex == "u"
    assert gg.edge_point(multi, "a", 3.0).vertex == "v"
    assert gg.edge_point(multi, "a", 1e-12).vertex == "u"
    mid = gg.edge_point(multi, "a", 1.5)
    assert mid.edge == "a" and mid.offset == 1.5


def test_point_set_reads_list_specs(multi):
    specs = [("a", 0.5), ("self", 1.25), ("spur", 0.5), "u", ("b", 0.0)]
    as_lists = gg.point_set(multi, [list(s) if isinstance(s, tuple) else s for s in specs])
    as_tuples = gg.point_set(multi, specs)
    assert as_lists == as_tuples and as_lists.points == as_tuples.points


def test_point_set_dedup_and_empty(multi):
    A = gg.point_set(multi, ["u", ("a", 0.0), ("b", 0.0), "u"])
    assert len(A.points) == 1
    # construction tolerates emptiness; consuming operations do not
    empty = gg.point_set(multi, [])
    with pytest.raises(gg.EmptySet):
        gg.distance_to_set(multi, gg.vertex_point(multi, "u"), empty)
    with pytest.raises(gg.EmptySet):
        gg.set_diameter(multi, empty)
    with pytest.raises(gg.EmptySet):
        gg.thickening(multi, empty, 0.5)
    for pair in ((A, empty), (empty, A), ([], A)):
        with pytest.raises(gg.EmptySet, match="distance against an empty point collection"):
            gg.pairwise_distances(multi, *pair)


# --------------------------------------------------------------------------
# distances


def test_vertex_distances_match_dijkstra(multi, theta345):
    for G in (multi, theta345):
        verts = sorted(G.vertices)
        edge_list = [(e.u, e.v, e.length) for e in G.edges]
        pts = gg.point_set(G, verts)
        D = gg.pairwise_distances(G, pts, pts)
        order = [p.vertex for p in pts.points]
        for i, src in enumerate(order):
            ref = dijkstra(verts, edge_list, src)
            for j, dst in enumerate(order):
                assert D[i, j] == pytest.approx(ref[dst], abs=TAU)


def test_point_distance_parallel_edges(multi):
    # leaving through the short parallel edge beats staying on the long one
    p = gg.edge_point(multi, "a", 0.5)
    assert gg.point_distance(multi, p, gg.vertex_point(multi, "v")) == pytest.approx(1.5)
    q = gg.edge_point(multi, "a", 2.5)
    assert gg.point_distance(multi, p, q) == pytest.approx(2.0)
    r = gg.edge_point(multi, "a", 2.9)
    s = gg.edge_point(multi, "a", 0.25)
    # around through u -> b -> v is shorter than walking the edge
    assert gg.point_distance(multi, s, r) == pytest.approx(1.35)


def test_point_distance_self_loop(multi):
    a = gg.edge_point(multi, "self", 0.1)
    b = gg.edge_point(multi, "self", 1.9)
    assert gg.point_distance(multi, a, b) == pytest.approx(0.2)
    c = gg.edge_point(multi, "self", 0.5)
    d = gg.edge_point(multi, "self", 1.5)
    assert gg.point_distance(multi, c, d) == pytest.approx(1.0)


def test_point_distance_symmetry_random(multi):
    rng = np.random.default_rng(7)
    edges = multi.edges
    for _ in range(50):
        e1, e2 = rng.choice(len(edges), size=2)
        p = gg.edge_point(multi, edges[e1].id, float(rng.random()) * edges[e1].length)
        q = gg.edge_point(multi, edges[e2].id, float(rng.random()) * edges[e2].length)
        assert gg.point_distance(multi, p, q) == pytest.approx(
            gg.point_distance(multi, q, p), abs=TAU
        )


def test_distance_to_set(multi):
    A = gg.point_set(multi, ["u", "w"])
    p = gg.edge_point(multi, "a", 2.0)
    assert gg.distance_to_set(multi, p, A) == pytest.approx(1.5)


def test_set_diameter(multi, segment01):
    A = gg.point_set(segment01, [("seg", 0.0), ("seg", 0.4), ("seg", 1.0)])
    assert gg.set_diameter(segment01, A) == pytest.approx(1.0)
    B = gg.point_set(multi, ["u", ("self", 1.0)])
    assert gg.set_diameter(multi, B) == pytest.approx(2.0)


# --------------------------------------------------------------------------
# global quantities


def test_graph_diameter_values(segment01, circle, multi):
    assert gg.graph_diameter(segment01) == pytest.approx(1.0)
    assert gg.graph_diameter(circle) == pytest.approx(math.pi)
    # attained between the self-loop antipode and the interior of edge a
    assert gg.graph_diameter(multi) == pytest.approx(3.0)
    assert gg.graph_diameter(gg.star_graph([1.0, 2.0, 3.0])) == pytest.approx(5.0)


def test_graph_diameter_vs_sampling(theta345):
    # dense evaluation can only undershoot the true supremum, and by < h
    h = 0.01
    specs = []
    for e in theta345.edges:
        k = int(e.length / h)
        specs.extend((e.id, i * e.length / k) for i in range(k + 1))
    pts = gg.point_set(theta345, specs)
    D = gg.pairwise_distances(theta345, pts, pts)
    sampled = float(D.max())
    exact = gg.graph_diameter(theta345)
    assert sampled - TAU <= exact <= sampled + h


@st.composite
def _multigraph(draw):
    # a random spanning tree plus extra edges with free endpoints (so
    # self-loops and parallel edges occur); lengths are either all dyadic
    # from a short list, which makes ties between routes likely, or free
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        length = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
    else:
        length = st.floats(0.05, 5.0)
    edges = [(f"t{i}", f"v{draw(st.integers(0, i - 1))}", f"v{i}", draw(length)) for i in range(1, n)]
    for i in range(draw(st.integers(1 if n == 1 else 0, 16 - len(edges)))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.append((f"x{i}", f"v{u}", f"v{v}", draw(length)))
    return gg.build_graph([f"v{i}" for i in range(n)], edges)


@settings(max_examples=100, deadline=None)
@given(_multigraph())
def test_graph_diameter_matches_scalar_reference(G):
    reference = _brute.graph_diameter(G)
    assert gg.graph_diameter(G) == reference
    # chunks of 3 pairs, so the pruning runs over many chunks on small graphs
    with mock.patch.object(graph_mod, "_PAIR_CHUNK", 3):
        assert gg.graph_diameter(G) == reference


# the diameter sits at a crossing for one pair of edges that rounds just
# outside the pair's box: without the eps slack the value drops by one ulp
_EPS_EDGE = gg.build_graph(
    ["v0", "v1", "v2", "v3"],
    [
        ("t1", "v0", "v1", 1.7234560938417396),
        ("t2", "v1", "v2", 2.8216378854122195),
        ("t3", "v1", "v3", 4.712022935740329),
        ("x0", "v0", "v2", 4.785419059723816),
    ],
)


@pytest.mark.parametrize(
    "G",
    [
        gg.circle_graph(),
        gg.segment_graph(0.0, 1.0),
        gg.theta_graph(3.0, 4.0, 5.0),
        gg.star_graph([1.0, 2.0, 3.0, 4.0]),
        _EPS_EDGE,
    ],
    ids=["circle", "segment", "theta345", "star4", "eps-edge"],
)
def test_graph_diameter_matches_scalar_reference_on_fixtures(G):
    assert gg.graph_diameter(G) == _brute.graph_diameter(G)


def test_graph_diameter_found_behind_looser_bounds():
    # the four parallel u-v edges have the largest edge bound, (0.5 + ecc(u)
    # + ecc(v))/2 = (0.5 + 0.5 + 0.65)/2, and come first, but the first one's
    # chunk of 3 pairs with the others reaches only 0.5; the diameter, 0.65
    # from the loop's antipode to v, lies in its next chunk, with the loop
    bundle = [(f"b{i}", "u", "v", 0.5) for i in range(4)]
    G = gg.build_graph(["u", "v", "w"], bundle + [("p", "u", "w", 0.05), ("c", "w", "w", 0.2)])
    with mock.patch.object(graph_mod, "_PAIR_CHUNK", 3):
        assert gg.graph_diameter(G) == _brute.graph_diameter(G) == pytest.approx(0.65)


def test_graph_diameter_prunes_chunks_of_edge_pairs(monkeypatch):
    # 90 edges make 4005 pairs, several chunks; the pass stops before the
    # last chunk and still matches the reference that visits every pair
    rng = np.random.default_rng(7)
    ends = [(rng.integers(0, i), i) for i in range(1, 45)] + [tuple(rng.integers(0, 45, 2)) for _ in range(46)]
    G = gg.build_graph(
        [f"v{i}" for i in range(45)],
        [(f"e{k}", f"v{u}", f"v{v}", rng.uniform(0.5, 2.0)) for k, (u, v) in enumerate(ends)],
    )
    chunks = []
    pair_max = graph_mod._pair_max

    def counted(D, *pairs):
        chunks.append(len(pairs[0]))
        return pair_max(D, *pairs)

    monkeypatch.setattr(graph_mod, "_pair_max", counted)
    assert gg.graph_diameter(G) == _brute.graph_diameter(G)
    n_chunks = math.ceil(90 * 89 / 2 / graph_mod._PAIR_CHUNK)
    assert n_chunks >= 3 and 1 <= len(chunks) < n_chunks


@pytest.mark.parametrize("E", [200, 201])
def test_graph_diameter_prunes_pairs_on_a_cycle(monkeypatch, E):
    # every vertex of a cycle of equal edges has ecc = L/2, so no edge bound
    # stops the pass; the pair bounds leave only pairs about half the cycle
    # apart, a few per edge instead of all E(E-1)/2 (odd E puts the diameter
    # mid-edge, above every vertex distance)
    G = gg.build_graph([f"v{i}" for i in range(E)], [(f"e{i}", f"v{i}", f"v{(i + 1) % E}", 0.1) for i in range(E)])
    pairs = []
    pair_max = graph_mod._pair_max

    def counted(D, *ends):
        pairs.append(len(ends[0]))
        return pair_max(D, *ends)

    monkeypatch.setattr(graph_mod, "_pair_max", counted)
    assert gg.graph_diameter(G) == _brute.graph_diameter(G) == pytest.approx(E * 0.1 / 2)
    assert sum(pairs) <= 3 * E < E * (E - 1) // 2


@settings(max_examples=100, deadline=None)
@given(_multigraph())
def test_degree_structure_matches_scalar_reference(G):
    assert {v: G.degree(v) for v in G.vertices} == _brute.degrees(G)
    assert gg.boundary(G) == _brute.boundary(G)
    assert gg.smallest_nonterminal_edge(G) == _brute.smallest_nonterminal_edge(G)


def test_graph_diameter_memory_is_bounded():
    # after the vertex matrix (8 MB here) is built, the search holds one
    # row block of it and one chunk of edge pairs at a time; a table of
    # bounds over all E(E-1)/2 = 2e6 pairs, with its sort order, would take
    # about 150 MB
    rng = np.random.default_rng(0)
    V, E = 1000, 2000
    ends = [(rng.integers(0, i), i) for i in range(1, V)] + [tuple(rng.integers(0, V, 2)) for _ in range(E - V + 1)]
    G = gg.build_graph(
        [f"v{i}" for i in range(V)],
        [(f"e{k}", f"v{u}", f"v{v}", rng.uniform(0.5, 2.0)) for k, (u, v) in enumerate(ends)],
    )
    G.vertex_distances
    tracemalloc.start()
    try:
        gg.graph_diameter(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


def test_boundary(segment01, circle, theta345, multi):
    assert gg.boundary(segment01) == ("u", "v")
    assert gg.boundary(circle) == ()
    assert gg.boundary(theta345) == ()
    assert gg.boundary(multi) == ("w",)


def test_smallest_nonterminal_edge(segment01, circle, theta345, lollipop, multi):
    assert gg.smallest_nonterminal_edge(segment01) is None
    assert gg.smallest_nonterminal_edge(circle) == pytest.approx(2 * math.pi)
    assert gg.smallest_nonterminal_edge(theta345) == pytest.approx(3.0)
    assert gg.smallest_nonterminal_edge(lollipop) == pytest.approx(3.0)
    assert gg.smallest_nonterminal_edge(multi) == pytest.approx(1.0)


def test_circle_circumference(circle, theta345, lollipop):
    assert gg.circle_circumference(circle) == pytest.approx(2 * math.pi)
    assert gg.circle_circumference(gg.circle_graph(5.0)) == pytest.approx(5.0)
    for G in (theta345, lollipop):
        with pytest.raises(gg.NotACircle):
            gg.circle_circumference(G)


def test_enumerate_simple_loops(segment01, circle, theta345, multi):
    assert gg.enumerate_simple_loops(segment01) == ()
    assert [l.length for l in gg.enumerate_simple_loops(circle)] == pytest.approx(
        [2 * math.pi]
    )
    assert sorted(
        l.length for l in gg.enumerate_simple_loops(theta345)
    ) == pytest.approx([7.0, 8.0, 9.0])
    # the self-loop and the parallel pair, nothing else
    assert sorted(l.length for l in gg.enumerate_simple_loops(multi)) == pytest.approx(
        [2.0, 4.0]
    )


def test_enumerate_simple_loops_guard():
    k4 = gg.build_graph(
        list("abcd"),
        [
            (f"e{i}", u, v, 1.0)
            for i, (u, v) in enumerate(
                [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
            )
        ],
    )
    loops = gg.enumerate_simple_loops(k4)
    assert len(loops) == 7
    assert sorted(l.length for l in loops) == pytest.approx([3.0] * 4 + [4.0] * 3)
    with pytest.raises(gg.LoopCountGuardExceeded):
        gg.enumerate_simple_loops(k4, max_loops=5)


# --------------------------------------------------------------------------
# regions and thickenings


def test_region_validation(segment01):
    with pytest.raises(gg.ValidationError):
        gg.region(segment01, {"seg": [(0.0, 1.5)]})
    with pytest.raises(gg.ValidationError):
        gg.region(segment01, {"seg": [(0.7, 0.3)]})
    with pytest.raises(gg.ValidationError):
        gg.region(segment01, {"seg": [(0.0, 0.6), (0.5, 1.0)]})
    with pytest.raises(gg.PointNotOnGraph):
        gg.region(segment01, {"zig": [(0.0, 0.5)]})
    # an end that is not finite or off its edge, and an unknown vertex, are
    # not on the graph
    for bad in [(0.2, math.nan), (math.nan, 0.5), (0.2, math.inf), (-2e-9, 0.5)]:
        with pytest.raises(gg.PointNotOnGraph):
            gg.region(segment01, {"seg": [bad]})
    with pytest.raises(gg.PointNotOnGraph):
        gg.region(segment01, {}, ["zz"])
    # an interval empty once clamped is rejected like a raw (1.0, 1.0)
    for empty in [[(1.0, 1.0)], [(-8e-10, -5e-10), (0.0, 0.5)], [(1 + 5e-10, 1 + 8e-10)]]:
        with pytest.raises(gg.ValidationError):
            gg.region(segment01, {"seg": empty}, ["u"])
    # rounding-level overshoot is clamped, not rejected
    W = gg.region(segment01, {"seg": [(-1e-12, 0.5)]})
    assert W.intervals == {"seg": ((0.0, 0.5),)}
    # intervals come back sorted, and a connected region is one piece
    W = gg.region(segment01, {"seg": [(0.5, 1.0 + 5e-10), (-5e-10, 0.5)]}, ["u"])
    assert W.intervals == {"seg": ((0.0, 0.5), (0.5, 1.0))}
    assert W.vertices == frozenset({"u"})
    assert gg.region_is_connected(segment01, gg.region(segment01, {"seg": [(-5e-10, 0.5)]}, ["u"]))


def test_whole_graph_region(theta345):
    W = gg.whole_graph_region(theta345)
    assert set(W.vertices) == set(theta345.vertices)
    for e in theta345.edges:
        assert W.intervals[e.id] == ((0.0, e.length),)


def test_thickening_interior(segment01):
    A = gg.point_set(segment01, [("seg", 0.5)])
    W = gg.thickening(segment01, A, 0.2)
    assert W.intervals == {"seg": ((0.3, 0.7),)}
    assert not W.vertices
    # a ball that reaches an end ties the interval grown from that end at 0
    # (or l), and reaches past it: one fragment with the ball's far end
    for t, fragment, vertex in [(0.1, (0.0, 0.4), "u"), (0.9, (0.9 - 0.3, 1.0), "v")]:
        A = gg.point_set(segment01, [("seg", t)])
        W, ref = gg.thickening(segment01, A, 0.3), _brute.thickening(segment01, A, 0.3)
        assert W.intervals == ref.intervals == {"seg": (fragment,)}
        assert W.vertices == ref.vertices == frozenset({vertex})


def test_thickening_vertex_strictness(segment01):
    A = gg.point_set(segment01, [("seg", 0.5)])
    # open balls: at r = 0.5 the endpoints are at distance exactly r, excluded
    W = gg.thickening(segment01, A, 0.5)
    assert W.intervals == {"seg": ((0.0, 1.0),)}
    assert not W.vertices
    W = gg.thickening(segment01, A, 0.6)
    assert sorted(W.vertices) == ["u", "v"]


def test_thickening_wraps_circle(circle):
    L = 2 * math.pi
    W = gg.thickening(circle, gg.point_set(circle, ["o"]), 1.0)
    assert sorted(W.vertices) == ["o"]
    (i1, i2) = W.intervals["loop"]
    assert i1 == pytest.approx((0.0, 1.0))
    assert i2 == pytest.approx((L - 1.0, L))


def test_thickening_rejects_nonpositive_radius(segment01):
    A = gg.point_set(segment01, [("seg", 0.5)])
    for r in (0.0, -0.1, math.nan):
        with pytest.raises(gg.NonPositiveRadius):
            gg.thickening(segment01, A, r)


def test_touching_open_balls_stay_disconnected(segment01):
    A = gg.point_set(segment01, [("seg", 0.25), ("seg", 0.75)])
    W = gg.thickening(segment01, A, 0.25)
    # (0, .5) and (.5, 1) touch at a point neither contains
    assert W.intervals == {"seg": ((0.0, 0.5), (0.5, 1.0))}
    assert not gg.region_is_connected(segment01, W)


def test_region_connectivity_through_vertices(segment01, circle):
    L = 2 * math.pi
    two = gg.region(segment01, {"seg": [(0.0, 0.3), (0.7, 1.0)]}, ["u", "v"])
    assert not gg.region_is_connected(segment01, two)
    joined = gg.region(circle, {"loop": [(0.0, 1.0), (5.0, L)]}, ["o"])
    assert gg.region_is_connected(circle, joined)
    # without the vertex itself the two interval closures never meet
    apart = gg.region(circle, {"loop": [(0.0, 1.0), (5.0, L)]})
    assert not gg.region_is_connected(circle, apart)


def test_region_connected_single_interval(circle):
    W = gg.region(circle, {"loop": [(1.0, 2.0)]})
    assert gg.region_is_connected(circle, W)


# --------------------------------------------------------------------------
# columnar point sets and array thickenings against the frozen scalar loops

_TOL = gg.TOLERANCE


@st.composite
def _specs_and_radius(draw):
    # every spec kind; offsets at, and within TOLERANCE either side of, 0
    # and l, and beyond them; dyadic multiples of r/2, so that two sources
    # 2r apart give open intervals that touch exactly; repeated specs
    G = draw(_multigraph())
    r = draw(st.sampled_from([0.125, 0.25, 0.5]) | st.floats(0.01, 2.0))

    def offset(e):
        l = e.length
        near_ends = [0.0, _TOL, -_TOL, _TOL / 2, -_TOL / 2, 2 * _TOL, -2 * _TOL]
        near_ends += [l, l - _TOL, l + _TOL, l - _TOL / 2, l + _TOL / 2, l - 2 * _TOL, l + 2 * _TOL]
        return (
            st.sampled_from(near_ends)
            | st.integers(0, int(2 * l / r)).map(lambda k: k * r / 2)
            | st.floats(0.0, 1.0).map(lambda x: x * l)
        )

    def edge_spec(e):
        pair = offset(e).map(lambda t: (e.id, t))
        return pair | pair.map(lambda s: gg.GraphPoint(edge=s[0], offset=s[1]))

    vertex = st.sampled_from(G.vertices)
    spec = st.one_of(
        vertex,
        vertex.map(lambda v: gg.GraphPoint(vertex=v)),
        st.sampled_from(G.edges).flatmap(edge_spec),
    )
    specs = draw(st.lists(spec, min_size=1, max_size=12))
    e = draw(st.sampled_from(G.edges))
    if draw(st.booleans()) and 2 * r < e.length:
        k = draw(st.integers(0, int(2 * (e.length - 2 * r) / r)))
        specs += [(e.id, k * r / 2), (e.id, (k + 4) * r / 2)]
    specs += draw(st.lists(st.sampled_from(specs), max_size=4))
    return G, draw(st.permutations(specs)), r


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([255, 256, 65535, 65536]).flatmap(
        lambda bound: st.tuples(
            st.just(bound),
            st.lists(
                st.tuples(
                    st.sampled_from([0, 1, bound - 2, bound - 1]) | st.integers(0, bound - 1),
                    st.sampled_from([0.0, 0.25, 0.5, 1.0, math.inf]),
                ),
                max_size=40,
            ),
        )
    )
)
def test_location_order_sorts_by_key_then_offset(case):
    # rows equal in (key, offset) may come in any order, so the gathered
    # columns are compared, not the indices
    bound, rows = case
    key = np.array([k for k, _ in rows], dtype=np.int64)
    offset = np.array([t for _, t in rows], dtype=float)
    order, k, t = graph_mod._location_order(key, offset, bound)
    ref = np.lexsort((offset, key))
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert np.array_equal(k, key[order]) and np.array_equal(t, offset[order])
    assert np.array_equal(k, key[ref]) and np.array_equal(t, offset[ref])


def _error(call):
    try:
        call()
    except Exception as err:  # the class and message are compared
        return type(err), str(err)
    return None


@settings(max_examples=300, deadline=None)
@given(_specs_and_radius())
def test_point_set_and_thickening_match_scalar_reference(case):
    G, specs, r = case
    expected = _error(lambda: _brute.point_set(G, specs))
    if expected is not None:
        assert _error(lambda: gg.point_set(G, specs)) == expected
        return
    ref = _brute.point_set(G, specs)
    A = gg.point_set(G, specs)
    assert [(p.vertex, p.edge, p.offset) for p in A] == [(p.vertex, p.edge, p.offset) for p in ref]
    assert len(A) == len(ref)
    assert A == gg.PointSet(ref.points) and hash(A) == hash(ref)
    W, W_ref = gg.thickening(G, A, r), _brute.thickening(G, ref, r)
    assert list(W.intervals.items()) == list(W_ref.intervals.items())
    assert W.vertices == W_ref.vertices
    assert gg.hausdorff_graph_to_region(G, W) == _brute.hausdorff_graph_to_region(G, W_ref)
    assert gg.region_is_connected(G, W) == _brute.region_is_connected(G, W_ref)


_GOOD_SPECS = ["u", ("a", 1.0), gg.GraphPoint(vertex="w"), gg.GraphPoint(edge="self", offset=0.5), ("b", 0.0)]


_BAD_SPECS = [
    ("nope", 0.5),
    "nope",
    ("a", math.nan),
    ("a", math.inf),
    ("a", -math.inf),
    ("a", -2 * _TOL),
    ("a", 3.0 + 2 * _TOL),
    gg.GraphPoint(),
    ("a", "half"),
    ("a", None),
    ("a", [0.5]),
    ("a",),
    ("a", 0.5, 1.0),
    ([1], 0.5),
]
_BAD_IDS = [
    "edge-id", "vertex-id", "nan", "inf", "-inf", "below-0", "above-l", "no-location",
    "offset-text", "offset-none", "offset-list", "one-field", "three-fields", "unhashable-id",
]


def _check_point_set_error(G, good, bad, where, later):
    k = {"start": 0, "middle": len(good) // 2, "end": len(good)}[where]
    # a second bad spec after the first must not be the one reported
    specs = good[:k] + [bad] + good[k:] + [later]
    expected = _error(lambda: _brute.point_set(G, specs))
    assert expected is not None
    assert _error(lambda: gg.point_set(G, specs)) == expected


def _where_and_later(later):
    """(where, later) cases: each place with the given later spec, under the
    plain place ids, then with a later spec whose id cannot be looked up."""
    return [
        pytest.param(where, spec, id=where + suffix)
        for spec, suffix in ((later, ""), (([1], 0.5), "-later-unhashable"))
        for where in ("start", "middle", "end")
    ]


@pytest.mark.parametrize(("where", "later"), _where_and_later(("a", "later")))
@pytest.mark.parametrize("bad", _BAD_SPECS, ids=_BAD_IDS)
def test_point_set_errors_match_scalar_reference(multi, bad, where, later):
    # mixed spec kinds, and a later spec whose offset is no number or whose
    # id cannot be looked up
    _check_point_set_error(multi, _GOOD_SPECS, bad, where, later)


@pytest.mark.parametrize(("where", "later"), _where_and_later(("spur", 0.5 + 2 * _TOL)))
@pytest.mark.parametrize("bad", _BAD_SPECS, ids=_BAD_IDS)
def test_point_set_errors_on_tuple_specs_match_scalar_reference(multi, bad, where, later):
    # only (edge, offset) tuples around the bad spec, and a later one off its
    # edge or with an unhashable id, so every bad spec that is such a tuple
    # takes the column path
    good = [("a", 1.0), ("self", 0.5), ("b", 0.0), ("spur", 0.25), ("a", 3.0)]
    _check_point_set_error(multi, good, bad, where, later)


def _multi_without_self_loop():
    return gg.build_graph(
        ["u", "v", "w"],
        [("a", "u", "v", 3.0), ("b", "u", "v", 1.0), ("spur", "v", "w", 0.5)],
    )


def _queries(G, A, B):
    W = gg.thickening(G, A, 0.4)
    return [
        gg.hausdorff_graph_to_set(G, A),
        gg.hausdorff_sets(G, A, B),
        gg.directed_hausdorff_boundary(G, A),
        gg.pairwise_distances(G, A, B).tolist(),
        list(W.intervals.items()),
        W.vertices,
        gg.hausdorff_graph_to_region(G, W),
    ]


def test_point_set_on_another_graph(multi):
    # a set is read on any graph with its ids; it is a gather only on its own
    specs = ["u", ("a", 1.0), ("self", 0.5), ("b", 0.25)]
    A, B = gg.point_set(multi, specs), gg.point_set(multi, [("spur", 0.2), ("a", 2.5)])
    same = gg.build_graph(multi.vertices, [(e.id, e.u, e.v, e.length) for e in multi.edges])
    expected = _queries(multi, A, B)
    assert _queries(same, A, B) == expected
    assert _queries(multi, gg.PointSet(A.points), gg.PointSet(B.points)) == expected
    lacking = _multi_without_self_loop()
    for query in (gg.hausdorff_graph_to_set, gg.directed_hausdorff_boundary, gg.set_diameter):
        with pytest.raises(gg.PointNotOnGraph, match="unknown edge id 'self'"):
            query(lacking, A)
    with pytest.raises(gg.PointNotOnGraph, match="unknown edge id 'self'"):
        gg.thickening(lacking, A, 0.4)
    # so is a region: the same value on a copy of its graph, an error where
    # an edge is missing
    W = gg.thickening(multi, A, 0.4)
    for query in (gg.hausdorff_graph_to_region, gg.region_is_connected):
        assert query(same, W) == query(multi, W)
        with pytest.raises(gg.PointNotOnGraph, match="unknown edge id 'self'"):
            query(lacking, W)
    # a set built on the smaller graph reads as its points on the larger one
    C = gg.point_set(lacking, specs[:2] + specs[3:])
    assert _queries(multi, C, B) == _queries(multi, gg.point_set(multi, specs[:2] + specs[3:]), B)


def test_field_path_builds_no_graph_point(monkeypatch):
    # point_set and every set and region query read columns: not one
    # GraphPoint is made, where the scalar path made one per spec
    rng = np.random.default_rng(3)
    V, E = 60, 120
    ends = [(int(rng.integers(0, i)), i) for i in range(1, V)]
    ends += [tuple(int(x) for x in rng.integers(0, V, 2)) for _ in range(E - V + 1)]
    edges = [(f"e{k}", f"v{u}", f"v{v}", float(rng.uniform(0.5, 2.0))) for k, (u, v) in enumerate(ends)]
    G = gg.build_graph([f"v{i}" for i in range(V)], edges)

    def specs():
        k = rng.integers(0, E, 200)
        return [(edges[i][0], float(rng.uniform(0.0, 1.0)) * edges[i][3]) for i in k] + ["v0", "v7"]

    a, b = specs(), specs()
    expected = _queries(G, gg.point_set(G, a), gg.point_set(G, b))
    made = []

    class CountingPoint(graph_mod.GraphPoint):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(graph_mod, "GraphPoint", CountingPoint)
    A, B = gg.point_set(G, a), gg.point_set(G, b)
    values = [
        gg.hausdorff_graph_to_set(G, A),
        gg.hausdorff_sets(G, A, B),
        gg.directed_hausdorff_boundary(G, A),
    ]
    W = gg.thickening(G, A, 0.4)
    values.append(gg.hausdorff_graph_to_region(G, W))
    assert made == []
    assert values == [expected[i] for i in (0, 1, 2, 6)]
    A.points  # the views are built on first use, once
    assert len(made) == len(A)
    A[0], list(A)
    assert len(made) == len(A)


def test_request_paths_build_no_edge(monkeypatch, tmp_path, capsys):
    # every library query and CLI verb reads the graph's columns: no graph
    # a request builds has its Edge views built, and no request asks for one
    # edge's view, where the scalar build made one per edge
    from ghgraph import cli as cli_mod
    from ghgraph import constructions as constructions_mod
    from ghgraph.cli import main

    built, asked = [], []
    build, edge = graph_mod.build_graph, graph_mod.MetricGraph.edge

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def recording_edge(self, edge_id):
        asked.append(edge_id)
        return edge(self, edge_id)

    for module in (gg, graph_mod, cli_mod, constructions_mod):
        monkeypatch.setattr(module, "build_graph", recording_build)
    monkeypatch.setattr(graph_mod.MetricGraph, "edge", recording_edge)
    docs = {
        "seg": [("s", "u", "v", 2.0)],
        "circle": [("loop", "u", "u", 6.0)],
        "multi": [("a", "u", "v", 3.0), ("b", "u", "v", 1.0), ("self", "v", "v", 2.0), ("spur", "v", "w", 0.5)],
    }
    for name, edges in docs.items():
        vertices = sorted({w for e in edges for w in e[1:3]})
        G = gg.build_graph(vertices, edges)
        eid, length = edges[0][0], edges[0][3]
        X = gg.point_set(G, [vertices[0], (eid, 0.3 * length)])
        Y = gg.point_set(G, [(eid, 0.7 * length)])
        W = gg.region(G, {eid: [(0.1, 0.4)]}, vertices[:1])
        gg.hausdorff_graph_to_set(G, X), gg.hausdorff_graph_to_region(G, W)
        gg.hausdorff_sets(G, X, Y), gg.directed_hausdorff_sets(G, X, Y)
        gg.directed_hausdorff_boundary(G, X), gg.thickening(G, X, 0.4)
        gg.best_bound(G, X), gg.best_bound(G, X, Y), gg.epsilon_net(G, 0.5)
        doc = {"vertices": vertices, "edges": [dict(zip(("id", "u", "v", "length"), e)) for e in edges]}
        graph = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        (tmp_path / "x.json").write_text(json.dumps([{"vertex": vertices[0]}, {"edge": eid, "offset": 0.3}]))
        (tmp_path / "y.json").write_text(json.dumps([{"edge": eid, "offset": 0.7}]))
        for argv in (
            ["hausdorff", "--graph", graph, "--subset", x, "--subset2", y],
            ["bound", "--graph", graph, "--subset", x],
            ["bound", "--graph", graph, "--subset", x, "--subset2", y],
            ["oracle", "--graph", graph, "--subset", x, "--subset2", y],
            ["construct", "net", "--graph", graph, "--epsilon", "0.5", "--out", str(tmp_path / "n")],
            ["experiment", "ratio", "--graph", graph, "--samples", "2", "--density", "0.5"],
        ):
            assert main(argv) == 0
    for argv in (["construct", "star", "--n", "3"], ["construct", "circle6", "--epsilon", "0.1"]):
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert len(built) >= 3 * (1 + 6) + 2  # each library graph, and at least one per CLI verb
    assert [H._edges for H in built] == [None] * len(built) and asked == []
    views = G.edges  # the views of the last graph, multi, are built on first access, once
    assert len(G._edges) == 4 and G.edges is views
    assert G.edge(eid) == views[0] and G.edge(eid) is not views[0] and asked == [eid, eid]
