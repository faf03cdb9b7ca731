"""Compact metric graphs and exact geodesic computations on them.

A metric graph is a finite multigraph (self-loops and parallel edges allowed)
whose edges carry positive lengths, equipped with the quotient geodesic
metric: points are vertices or interior positions along an edge, and the
distance between two points is the length of a shortest path through the
graph. Everything here is computed in closed form. Continuum quantities
(diameter, distances from whole edges) reduce to finite candidate sets
because, restricted to one edge, every distance function is piecewise
linear with slopes +1 or -1, so extrema sit at breakpoints, at crossings
of an ascending and a descending piece, or at edge endpoints.

All comparisons against stated hypotheses use the global ``TOLERANCE``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    EmptySet,
    LoopCountGuardExceeded,
    NonPositiveEdgeLength,
    NonPositiveRadius,
    NotACircle,
    PointNotOnGraph,
    UnknownEndpoint,
    ValidationError,
)

TOLERANCE = 1e-9

# The dense vertex matrix of a graph of at most this many vertices comes
# from the numpy relaxation kernel; on a larger one scipy computes it and is
# imported then.
_SMALL_GRAPH = 64

# A distance field relaxes for at most this many rounds; if entries still
# fall after them, scipy searches the field from its original start values.
# A round costs about a fifth of scipy's search on random multigraphs of 500
# to 20000 vertices, a third on a 2000-vertex path and a sixteenth below 64
# vertices. The fields of the benchmark's field and certify workloads settle
# within 4 rounds, and the 8 rounds spent before a fallback cost two to three
# scipy searches at field scale.
_FIELD_ROUNDS = 8

__all__ = [
    "TOLERANCE",
    "Edge",
    "MetricGraph",
    "build_graph",
    "GraphPoint",
    "vertex_point",
    "edge_point",
    "PointSet",
    "point_set",
    "point_distance",
    "pairwise_distances",
    "distance_to_set",
    "set_diameter",
    "graph_diameter",
    "boundary",
    "smallest_nonterminal_edge",
    "circle_circumference",
    "SimpleLoop",
    "enumerate_simple_loops",
    "EdgeIntervalSet",
    "region",
    "whole_graph_region",
    "thickening",
    "region_is_connected",
]


# --------------------------------------------------------------------------
# graph construction


class Edge(NamedTuple):
    """One edge of a metric graph; ``u == v`` makes it a self-loop. It is the
    ``(edge_id, u, v, length)`` tuple that :func:`build_graph` reads."""

    id: str
    u: str
    v: str
    length: float


class MetricGraph:
    """A compact connected metric graph, stored as columns.

    Instances are built only through :func:`build_graph`, which validates the
    input on arrays and keeps the vertex skeleton that distance searches run
    on as plain CSR arrays (indptr, indices, data). ``edge_ids`` holds the
    ids in edge order, ``edge_index`` maps an id to its position, and
    ``edge_u``, ``edge_v`` (vertex indices of the endpoints), ``edge_length``
    and ``vertex_degree`` (a self-loop counts twice) are read-only arrays in
    edge and vertex order. ``edges`` is a tuple of :class:`Edge` views, named
    tuples equal to the ``(edge_id, u, v, length)`` tuples that
    :func:`build_graph` reads, built on first access; ``edge(id)`` builds
    one. The dense matrix ``vertex_distances`` is built on first use and
    cached; only point-pair queries and the continuum diameter read it.
    """

    __slots__ = (
        "vertices",
        "vertex_index",
        "edge_ids",
        "edge_index",
        "edge_u",
        "edge_v",
        "edge_length",
        "vertex_degree",
        "_edges",
        "_skeleton",
        "_vertex_distances",
    )

    @property
    def vertex_distances(self) -> np.ndarray:
        """All-pairs vertex distances, computed on first access."""
        if self._vertex_distances is None:
            n = len(self.vertices)
            if n <= _SMALL_GRAPH:  # lower the identity table, a column per source, and read it by source
                X = _relaxed(self._skeleton, np.where(np.eye(n, dtype=bool), 0.0, np.inf))
                self._vertex_distances = np.ascontiguousarray(X.T)
            else:
                self._vertex_distances = _sparse_distances(self._skeleton)
        return self._vertex_distances

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as :class:`Edge` views, in edge order, built on first access."""
        if self._edges is None:
            names = np.array(self.vertices, dtype=object)
            rows = zip(self.edge_ids, names[self.edge_u], names[self.edge_v], self.edge_length.tolist())
            self._edges = tuple(map(tuple.__new__, itertools.repeat(Edge), rows))
        return self._edges

    # -- simple accessors ---------------------------------------------------

    def degree(self, v: str) -> int:
        return int(self.vertex_degree[self.vertex_index[v]])

    def _position(self, edge_id: str) -> int:
        k = self.edge_index.get(edge_id)
        if k is None:
            raise PointNotOnGraph(f"unknown edge id {edge_id!r}")
        return k

    def edge(self, edge_id: str) -> Edge:
        k = self._position(edge_id)
        vs = self.vertices
        return Edge(self.edge_ids[k], vs[self.edge_u[k]], vs[self.edge_v[k]], float(self.edge_length[k]))

    def __repr__(self) -> str:
        return f"MetricGraph({len(self.vertices)} vertices, {len(self.edge_ids)} edges)"


def build_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str, float]],
) -> MetricGraph:
    """Validate and assemble a metric graph.

    ``edges`` holds ``(edge_id, u, v, length)`` tuples. Ids must be unique,
    endpoints must name known vertices, lengths must be positive, and the
    result must be connected. The first bad edge in input order raises.
    """
    vs = tuple(str(v) for v in vertices)
    if not vs:
        raise ValidationError("a metric graph needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValidationError("duplicate vertex ids")
    vindex = {v: i for i, v in enumerate(vs)}
    edges = list(edges)
    E = len(edges)
    try:  # the columns; an item that is not four values, or a length float() rejects, fails
        ids, us, ws, lengths = zip(*edges, strict=True) if E else ((),) * 4
        ids, lengths = tuple(map(str, ids)), np.fromiter(map(float, lengths), float, E)
    except (TypeError, ValueError, OverflowError):
        _raise_for_edges(vindex, edges)
    eindex = dict(zip(ids, range(E)))
    u, v = (np.fromiter(map(vindex.get, map(str, c), itertools.repeat(-1)), np.int64, E) for c in (us, ws))
    if len(eindex) < E or (u < 0).any() or (v < 0).any() or not (np.isfinite(lengths) & (lengths > 0.0)).all():
        _raise_for_edges(vindex, edges)

    if _component_count(len(vs), u, v) > 1:
        raise DisconnectedGraph("graph is not connected")

    # Self-loops never shorten vertex-to-vertex paths; between distinct
    # vertices only the shortest parallel edge matters. Each pair is stored
    # once per direction, so searches run directed and never transpose.
    # A link a -> b sorts by the key a * n + b, n the vertex count, and each
    # run of one key keeps its least length.
    link, n = u != v, len(vs)
    a, b, w = u[link], v[link], lengths[link]
    key, w = np.concatenate([a * n + b, b * n + a]), np.concatenate([w, w])
    order = key.argsort()
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    first = first.nonzero()[0]
    a, b = np.divmod(key[first], n)
    indptr = np.concatenate([[0], np.bincount(a, minlength=n).cumsum()])
    skeleton = (indptr, b, np.minimum.reduceat(w[order], first))
    G = MetricGraph.__new__(MetricGraph)
    G.vertices, G.vertex_index, G.edge_ids, G.edge_index = vs, vindex, ids, eindex
    G.edge_u, G.edge_v, G.edge_length = u, v, lengths
    G.vertex_degree = np.bincount(u, minlength=len(vs)) + np.bincount(v, minlength=len(vs))
    for a in (u, v, lengths, G.vertex_degree, *skeleton):
        a.flags.writeable = False
    G._edges, G._skeleton, G._vertex_distances = None, skeleton, None
    return G


def _raise_for_edges(vindex: dict[str, int], edges: list) -> None:
    """Raise what the first bad edge in input order raises: an item that
    does not unpack to four values, a repeated id, an unknown endpoint, or a
    length that is not a positive finite float."""
    seen: set[str] = set()
    for eid, u, v, length in edges:
        eid, u, v = str(eid), str(u), str(v)
        if eid in seen:
            raise ValidationError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        for w in (u, v):
            if w not in vindex:
                raise UnknownEndpoint(f"edge {eid!r} references unknown vertex {w!r}")
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise NonPositiveEdgeLength(f"edge {eid!r} has length {length}")
    raise ValidationError("edge list rejected")


# Vertex searches. Distances come from one kernel, _relaxed, which lowers a
# table of start values with a column per search: the identity table for the
# dense matrix of a graph of at most _SMALL_GRAPH vertices, one flat column
# of start values for a distance field at every size. A field that has not
# settled after _FIELD_ROUNDS rounds, and the dense matrix of a larger graph,
# are searched by scipy. Lengths are positive and float addition rounds
# monotonically, so every correct label-correcting search ends at the least
# left-to-right sum of lengths over paths, and the two agree bit for bit.
# Connectivity is counted on arrays at every size.


def _component_count(n: int, a, b) -> int:
    """Connected components of the graph on nodes 0..n-1 with links a[i]-b[i].

    Each round hooks every node on a link to its least neighbour, if that is
    smaller, and counts one merge per hook. A node is one step from the root
    of the round before, and that root is at most one step per hook from
    its new root, so with h hooks, h.bit_length() pointer jumps point every
    node at its root; the links then join roots. A root on a link that
    neither hooked nor was hooked to had only larger neighbours, which all
    hooked to smaller roots, so it hooks in the next round. Over two rounds,
    then, the roots on links at least halve: at most 2 log2(n) + 1 rounds.
    """
    count, parent = n, np.arange(n)
    while True:
        link = a != b
        a, b = a[link], b[link]
        if not len(a):
            return count
        hooked = parent.copy()
        np.minimum.at(hooked, a, b)
        np.minimum.at(hooked, b, a)
        hooks = int(np.count_nonzero(hooked != parent))
        count -= hooks
        parent = hooked
        for _ in range(hooks.bit_length()):
            parent = parent[parent]
        a, b = parent[a], parent[b]


def _csr(indptr, indices, data):
    """CSR arrays as a scipy matrix, square with a row per indptr step."""
    from scipy.sparse import csr_matrix

    n = len(indptr) - 1
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _relaxed(skeleton, X, rounds: float = math.inf) -> np.ndarray | None:
    """Lower the start table X in place, by relaxing every column at once,
    and return it; None if entries still fall after ``rounds`` rounds.

    X has a row per vertex and a column per search, or is one flat column.
    Each round lowers row w to X[w'] + l over the skeleton links w' -> w of
    length l, reduced over w's link list, until no entry falls; X[w, j] then
    is the least start X[x, j] plus the lengths along a path from x to w.
    The rounds are one per link of the longest such path, counted in links
    from the start values, so a few for a dense set and one per edge for a
    path searched from one end.
    """
    indptr, indices, data = skeleton
    if len(indptr) > 2:  # connected, so every vertex has a link and no link list is empty
        lengths = data if X.ndim == 1 else data[:, None]
        while ((low := np.minimum.reduceat(X[indices] + lengths, indptr[:-1], axis=0)) < X).any():
            if rounds <= 0:
                return None
            rounds -= 1
            np.minimum(X, low, out=X)
    return X


def _sparse_distances(skeleton) -> np.ndarray:
    """All-pairs vertex distances by scipy's Dijkstra search."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(_csr(*skeleton), directed=True)


# --------------------------------------------------------------------------
# points


@dataclass(frozen=True, slots=True)
class GraphPoint:
    """A location on a metric graph, in canonical form.

    Either a vertex (``vertex`` set, ``edge`` None) or an interior position
    along an edge measured from the edge's ``u`` endpoint. Offsets 0 and
    full length are stored as vertex locations, which makes equality of
    points decidable by plain comparison.
    """

    vertex: str | None = None
    edge: str | None = None
    offset: float = 0.0

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self) -> str:
        if self.vertex is not None:
            return f"GraphPoint(vertex={self.vertex!r})"
        return f"GraphPoint(edge={self.edge!r}, offset={self.offset!r})"


def vertex_point(G: MetricGraph, v: str) -> GraphPoint:
    if v not in G.vertex_index:
        raise PointNotOnGraph(f"unknown vertex id {v!r}")
    return GraphPoint(vertex=v)


def edge_point(G: MetricGraph, edge_id: str, offset: float) -> GraphPoint:
    """Canonical point at ``offset`` along an edge (measured from its u end)."""
    k = G._position(edge_id)
    length = float(G.edge_length[k])
    offset = float(offset)
    if not math.isfinite(offset) or offset < -TOLERANCE or offset > length + TOLERANCE:
        raise PointNotOnGraph(
            f"offset {offset} outside [0, {length}] on edge {edge_id!r}"
        )
    if offset <= TOLERANCE:
        return GraphPoint(vertex=G.vertices[G.edge_u[k]])
    if offset >= length - TOLERANCE:
        return GraphPoint(vertex=G.vertices[G.edge_v[k]])
    return GraphPoint(edge=edge_id, offset=offset)


class PointSet:
    """An ordered, deduplicated collection of canonical graph points.

    A set made by :func:`point_set` holds read-only columns for the graph it
    was built on: the edge index (-1 at a vertex), the vertex index (-1 on
    an edge) and the offset along the edge (0 at a vertex). Distance code
    reads the columns; ``points``, iteration and indexing build the
    :class:`GraphPoint` views from them on first use, once. A set made
    directly from points, ``PointSet(points)``, holds those points and no
    graph. Equality and hash are those of the set of points either way. A
    set on a graph keeps its distance field, read-only, from first use.
    """

    __slots__ = ("_graph", "_edge", "_vertex", "_offset", "_points", "_field")

    def __init__(self, points: Iterable[GraphPoint]):
        self._points: tuple[GraphPoint, ...] | None = tuple(dict.fromkeys(points))
        self._graph = self._edge = self._vertex = self._offset = self._field = None

    @classmethod
    def _from_columns(cls, G: MetricGraph, edge, vertex, offset) -> "PointSet":
        A = cls.__new__(cls)
        for a in (edge, vertex, offset):
            a.flags.writeable = False
        A._graph, A._edge, A._vertex, A._offset, A._points, A._field = G, edge, vertex, offset, None, None
        return A

    @property
    def _distances(self) -> np.ndarray:
        """d(w, self) for every vertex w of the set's graph, searched once."""
        if self._field is None:
            self._field = _distance_field(self._graph, *_anchors(self))
            self._field.flags.writeable = False
        return self._field

    @property
    def points(self) -> tuple[GraphPoint, ...]:
        if self._points is None:
            vs, es = self._graph.vertices, self._graph.edge_ids
            self._points = tuple(
                GraphPoint(vertex=vs[w]) if e < 0 else GraphPoint(edge=es[e], offset=t)
                for e, w, t in zip(self._edge.tolist(), self._vertex.tolist(), self._offset.tolist())
            )
        return self._points

    def __len__(self) -> int:
        return len(self._edge) if self._points is None else len(self._points)

    def __iter__(self) -> Iterator[GraphPoint]:
        return iter(self.points)

    def __getitem__(self, i: int) -> GraphPoint:
        return self.points[i]

    def __contains__(self, p: GraphPoint) -> bool:
        return p in set(self.points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSet) and set(self.points) == set(other.points)

    def __hash__(self) -> int:
        return hash(frozenset(self.points))

    def __repr__(self) -> str:
        return f"PointSet({len(self)} points)"


def point_set(G: MetricGraph, specs: Iterable[GraphPoint | tuple | str]) -> PointSet:
    """Build a point set from points, ``(edge_id, offset)`` pairs, or vertex ids.

    Each spec is checked and snapped as :func:`edge_point` and
    :func:`vertex_point` do, and raises what they raise for the first bad
    spec in input order; a repeated point keeps its first position.
    """
    edge, vertex, offset = _columns(G, specs)
    # rows sorted by location, then offset; each run of equal rows keeps
    # its least input position
    E = len(G.edge_length)
    key = np.where(edge >= 0, edge, E + vertex)
    order, key, t = _location_order(key, offset, E + len(G.vertices))
    run = np.ones(len(order), bool)
    run[1:] = (key[1:] != key[:-1]) | (t[1:] != t[:-1])
    first = np.sort(np.minimum.reduceat(order, np.flatnonzero(run)))
    return PointSet._from_columns(G, edge[first], vertex[first], offset[first])


def _location_order(key, offset, bound: int):
    """Indices that sort rows by ``key``, an int in [0, bound), then by
    offset, and the two columns in that order; rows equal in both come in
    no fixed order. Sorts by offset first, then stably by key, which as a
    small unsigned int sorts in linear time."""
    order = np.argsort(offset)
    order = order[np.argsort(key[order].astype(np.min_scalar_type(bound)), kind="stable")]
    return order, key[order], offset[order]


def _columns(G: MetricGraph, specs: Iterable[GraphPoint | tuple | str]):
    """(edge, vertex, offset) columns of point specs, in input order, each
    checked and snapped to a vertex as ``edge_point`` does. A list that any
    spec spoils, by an id the graph lacks (-2 in the columns), a shape or
    offset the columns cannot hold, or a value the check rejects, is read
    again one spec at a time, so the first bad spec raises."""
    specs = list(specs)
    vget, eget = G.vertex_index.get, G.edge_index.get
    try:
        if specs and set(map(type, specs)) == {tuple} and set(map(len, specs)) == {2}:
            # every spec an (edge_id, offset) tuple: one column per field,
            # read by item getters (zip(*specs) would make one iterator per spec)
            offset = np.fromiter(map(itemgetter(1), specs), float, count=len(specs))
            ids = map(itemgetter(0), specs)
            edge = np.fromiter(map(eget, ids, itertools.repeat(-2)), np.int64, count=len(specs))
            vertex = np.full(len(specs), -1)
        else:
            rows = [
                (eget(s[0], -2), -1, s[1]) if type(s) is tuple and len(s) == 2
                else (-1, vget(s, -2), 0.0) if isinstance(s, str)
                else _spec_row(vget, eget, s)
                for s in specs
            ]
            flat = itertools.chain.from_iterable(rows)
            table = np.fromiter(flat, float, count=3 * len(rows)).reshape(-1, 3)
            edge, vertex, offset = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
        columns = _snapped(G, edge, vertex, offset)
    except (TypeError, ValueError, OverflowError):
        columns = None
    if columns is not None:
        return columns
    # the scalar constructors raise for the first bad spec in input order;
    # when none is bad, the points they make all read as rows
    return _columns(G, [_spec_point(G, s) for s in specs])


def _spec_row(vget, eget, s):
    """The row of a ``GraphPoint`` or of an ``(edge_id, offset)`` sequence
    other than a tuple; a spec of another shape fails to unpack."""
    if isinstance(s, GraphPoint):
        if s.vertex is not None:
            return -1, vget(s.vertex, -2), 0.0
        return eget(s.edge, -2), -1, s.offset
    eid, off = s
    return eget(eid, -2), -1, off


def _snapped(G: MetricGraph, edge, vertex, offset):
    """Point columns with on-edge offsets within ``TOLERANCE`` of an end
    made that end's vertex, as ``edge_point`` makes them; None if some row
    is one that ``edge_point`` or ``vertex_point`` rejects: an unknown id
    (-2), or an offset outside the edge or not finite."""
    on = edge >= 0
    l = np.zeros(len(edge))
    l[on] = G.edge_length[edge[on]]
    bad = (edge == -2) | (vertex == -2)
    bad |= on & (~np.isfinite(offset) | (offset < -TOLERANCE) | (offset > l + TOLERANCE))
    if bad.any():
        return None
    at_u = on & (offset <= TOLERANCE)
    at_v = on & ~at_u & (offset >= l - TOLERANCE)
    vertex = vertex.copy()
    vertex[at_u], vertex[at_v] = G.edge_u[edge[at_u]], G.edge_v[edge[at_v]]
    edge = np.where(at_u | at_v, -1, edge)
    return edge, vertex, np.where(edge >= 0, offset, 0.0)


def _spec_point(G: MetricGraph, s) -> GraphPoint:
    """The point the scalar constructors make of spec s; they raise for a bad one."""
    if isinstance(s, GraphPoint):
        if s.vertex is not None:
            return vertex_point(G, s.vertex)
        if s.edge is None:
            raise PointNotOnGraph("point has neither vertex nor edge")
        return edge_point(G, s.edge, s.offset)
    if isinstance(s, str):
        return vertex_point(G, s)
    eid, off = s
    return edge_point(G, eid, off)


# --------------------------------------------------------------------------
# distances between points

# Every point gets two anchor vertices with travel offsets to them: a vertex
# anchors to itself twice at cost 0, an edge point anchors to both endpoints.
# The distance between points on different edges is the best of the four
# anchor-to-anchor routes; on a shared edge the direct within-edge travel
# |s - t| joins the candidates (for a self-loop, the four routes already
# include the complementary arc through the basepoint).


def _anchors(A: PointSet):
    """Anchors a, b of a set's points on its graph and the offsets to them;
    the offset column, 0 at a vertex, is the offset to a."""
    G, edge, on = A._graph, A._edge, A._edge >= 0
    a, b = A._vertex.copy(), A._vertex.copy()
    a[on], b[on] = G.edge_u[edge[on]], G.edge_v[edge[on]]
    off_b = np.zeros(len(edge))
    off_b[on] = G.edge_length[edge[on]] - A._offset[on]
    return a, b, A._offset, off_b


def _on_graph(G: MetricGraph, pts: Sequence[GraphPoint] | PointSet) -> PointSet:
    """pts as a set on G: itself if built on G, else its points checked on G
    as ``point_set`` checks them, in order and with repeats."""
    if isinstance(pts, PointSet) and pts._graph is G:
        return pts
    return PointSet._from_columns(G, *_columns(G, pts))


def pairwise_distances(
    G: MetricGraph,
    A: Sequence[GraphPoint] | PointSet,
    B: Sequence[GraphPoint] | PointSet,
) -> np.ndarray:
    """Full |A| x |B| matrix of geodesic distances."""
    if len(A) == 0 or len(B) == 0:
        raise EmptySet("distance against an empty point collection")
    A, B = _on_graph(G, A), _on_graph(G, B)
    (aa, ba, oa, ob), (ab, bb, qa, qb) = _anchors(A), _anchors(B)
    D = G.vertex_distances
    oa, ob = oa[:, None], ob[:, None]
    out = oa + D[aa[:, None], ab[None, :]] + qa[None, :]
    np.minimum(out, oa + D[aa[:, None], bb[None, :]] + qb[None, :], out=out)
    np.minimum(out, ob + D[ba[:, None], ab[None, :]] + qa[None, :], out=out)
    np.minimum(out, ob + D[ba[:, None], bb[None, :]] + qb[None, :], out=out)
    shared = (A._edge[:, None] == B._edge[None, :]) & (A._edge[:, None] >= 0)
    if shared.any():
        out = np.where(shared, np.minimum(out, np.abs(oa - qa[None, :])), out)
    return out


def point_distance(G: MetricGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Geodesic distance between two points."""
    pq = pairwise_distances(G, [p], [q])
    return float(pq[0, 0])


# A whole set A is reached through its distance field d(w, A) over the
# vertices w, from one search that starts every vertex at its start value
# (one flat column for _relaxed, a virtual source row for scipy). Each
# endpoint x of an edge holding members of A starts at the shortest walk
# along those edges from A to x (the shorter arc on a self-loop); vertex
# members start at 0; every other vertex starts at infinity.
# A point at offset s on e = (u, v, l) then has
#   d(s, A) = min( s + d(u, A),  (l - s) + d(v, A),  min_t |s - t| )
# over A's offsets t on e: a geodesic leaves e at an endpoint or stays on e.


def _distance_field(G: MetricGraph, a_idx, b_idx, off_a, off_b) -> np.ndarray:
    """d(w, A) for every vertex w, from the anchors of A and the offsets to them."""
    n = len(G.vertices)
    walk = np.full(n, np.inf)
    np.minimum.at(walk, a_idx, off_a)
    np.minimum.at(walk, b_idx, off_b)
    field = _relaxed(G._skeleton, walk.copy(), _FIELD_ROUNDS)
    return _sparse_field(G._skeleton, walk) if field is None else field


def _sparse_field(skeleton, walk) -> np.ndarray:
    """The field search by scipy. The vertices that start above 0 are linked
    one way from one virtual source row, at their start values, so the row
    is never a transit node; the vertices at 0 are sources themselves."""
    from scipy.sparse.csgraph import dijkstra

    indptr, indices, data = skeleton
    n = len(walk)
    ends = np.flatnonzero((walk > 0.0) & (walk < np.inf))
    M = _csr(
        np.append(indptr, len(data) + len(ends)), np.concatenate([indices, ends]), np.concatenate([data, walk[ends]])
    )
    sources = np.append(np.flatnonzero(walk == 0.0), n)
    return dijkstra(M, directed=True, indices=sources, min_only=True)[:n]


def _set_distances(G: MetricGraph, P: PointSet, A: PointSet) -> np.ndarray:
    """d(p, A) for every point p of P, both sets on G."""
    a, b, sp, tp = _anchors(P)
    out = np.minimum(sp + A._distances[a], tp + A._distances[b])
    # p and A's on-edge points in one location order (p's vertices on the
    # past-the-end edge E), closed by a member of A on edge E + 1: p's
    # nearest members of A on its edge are the last A row before it and the
    # first after it, or the closing row (index -1 before) if there is none
    E, on = len(G.edge_length), A._edge >= 0
    key = np.concatenate([np.where(P._edge >= 0, P._edge, E), A._edge[on], [E + 1]])
    s = np.concatenate([sp, A._offset[on], [0.0]])
    order, key, s = _location_order(key, s, E + 2)
    row = np.where(order >= len(P), np.arange(len(order)), -1)
    before = np.maximum.accumulate(row)
    after = np.minimum.accumulate(np.where(row < 0, len(order), row)[::-1])[::-1]
    gap = np.empty(len(order))
    gap[order] = np.minimum(
        np.where(key[before] == key, s - s[before], np.inf),
        np.where(key[after] == key, s[after] - s, np.inf),
    )
    return np.minimum(out, gap[: len(P)])


def distance_to_set(G: MetricGraph, p: GraphPoint, A: PointSet) -> float:
    """Distance from a point to the nearest member of a non-empty point set."""
    if len(A) == 0:
        raise EmptySet("distance to an empty point set")
    return float(_set_distances(G, _on_graph(G, [p]), _on_graph(G, A))[0])


def set_diameter(G: MetricGraph, A: PointSet) -> float:
    """Largest pairwise distance within a non-empty point set."""
    if len(A) == 0:
        raise EmptySet("diameter of an empty point set")
    return float(pairwise_distances(G, A, A).max())


# --------------------------------------------------------------------------
# continuum diameter

# For edges e1 = (u1, v1, l1) and e2 = (u2, v2, l2) the distance between the
# points at offsets s on e1 and t on e2 is the minimum of four affine pieces
# cs*s + ct*t + c, cs and ct = +-1, one per endpoint pair a geodesic passes.
# That minimum is concave, so its maximum over the box [0, l1] x [0, l2] lies
# where two of ten lines cross: the four box sides and the six lines where
# two pieces agree. The ten slopes are the same for every pair, so which of
# the 45 line combinations cross, and their determinants, are fixed; each
# crossing is solved for a chunk of pairs at once, kept when inside the box
# (to eps) and evaluated exactly. Within one edge, points t - s apart
# (0 <= s <= t <= l) are min(t - s, s + h + l - t) apart, h = D(u, v) <= l
# (0 on a self-loop), which peaks at (h + l)/2 when t - s = (h + l)/2 <= l.
# A point p at offset s on e = (u, v, l) leaves e through u or v, so for
# every point q, d(p, q) <= (s + D(u, q) + l - s + D(v, q))/2. The farthest
# point of an edge (u', v', l') from a vertex w is (D(w, u') + D(w, v') + l')/2
# away; the largest of these over all edges is ecc(w), so no pair with e is
# farther apart than bound(e) = (l + ecc(u) + ecc(v))/2 (Hakimi's absolute
# centre argument). Edges go by decreasing bound, each paired with the edges
# after it (its pairs with earlier ones are done). Those pairs are capped by
# the other edge's bound and by the pair bound max D(ends) + (l1 + l2)/2, the
# mean of the pieces through (u1, u2) and (v1, v2), which is tighter where
# eccentricities are flat (on a cycle every edge bound exceeds the diameter).
# The pairs whose cap reaches the best value are evaluated in chunks,
# oriented (lower index, higher index): D may differ from its transpose in
# the last bit, and one fixed orientation keeps the value independent of
# the visiting order. The pass stops at the first edge whose bound is below
# the best value by 1e-11 (1 + bound), and a pair is skipped by the same
# margin: more than the 2 eps and the rounding by which a candidate kept
# within eps of the box can exceed it. The eccentricities take row blocks
# of D of the same chunk size and each edge holds one row of caps, so no
# table over all E^2 pairs is ever held.

_PAIR_CHUNK = 256
_PIECES = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
_PIECE_PAIRS = tuple(itertools.combinations(range(4), 2))


def _crossings(slopes):
    """Crossing line pairs i, j, then a_i, b_i, a_j, b_j, det as columns."""
    rows = [
        (i, j, a1, b1, a2, b2, a1 * b2 - a2 * b1)
        for (i, (a1, b1)), (j, (a2, b2)) in itertools.combinations(enumerate(slopes), 2)
        if abs(a1 * b2 - a2 * b1) >= 1e-15
    ]
    i, j, *coefs = zip(*rows)
    return (np.array(i), np.array(j), *(np.array(c)[:, None] for c in coefs))


_PAIR_CROSSINGS = _crossings(
    [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    + [(_PIECES[p][0] - _PIECES[q][0], _PIECES[p][1] - _PIECES[q][1]) for p, q in _PIECE_PAIRS]
)


def _solve(crossings, rhs):
    """(s, t) per crossing (rows) and case (columns); one rhs entry per line."""
    i, j, a1, b1, a2, b2, det = crossings
    rhs = np.array(np.broadcast_arrays(*rhs))
    c1, c2 = rhs[i], rhs[j]
    return (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det


def _pair_max(D, u1, v1, l1, u2, v2, l2) -> float:
    """Largest distance between a point of e1 and one of e2, over a chunk."""
    c = (D[u1, u2], D[u1, v2] + l2, D[v1, u2] + l1, D[v1, v2] + l1 + l2)
    s, t = _solve(_PAIR_CROSSINGS, [0.0, l1, 0.0, l2] + [c[q] - c[p] for p, q in _PIECE_PAIRS])
    eps = 1e-12 * (1.0 + l1 + l2)
    inside = (-eps <= s) & (s <= l1 + eps) & (-eps <= t) & (t <= l2 + eps)
    value = np.min([cs * s + ct * t + ck for (cs, ct), ck in zip(_PIECES, c)], axis=0)
    return float(np.max(value, where=inside, initial=-np.inf))


def graph_diameter(G: MetricGraph) -> float:
    """Supremum of distances over the whole continuum of the graph, exactly."""
    if not len(G.edge_ids):
        return 0.0
    D = G.vertex_distances
    u, v, l = G.edge_u, G.edge_v, G.edge_length
    best = max(float(D.max()), float(((D[u, v] + l) / 2.0).max()))
    rows = range(0, len(D), _PAIR_CHUNK)
    ecc = np.concatenate([(D[w : w + _PAIR_CHUNK, u] + D[w : w + _PAIR_CHUNK, v] + l).max(axis=1) for w in rows]) / 2.0
    bound = (l + ecc[u] + ecc[v]) / 2.0
    order = np.argsort(-bound)
    for k, e in enumerate(order.tolist()):
        if bound[e] + 1e-11 * (1.0 + bound[e]) < best:
            break
        f = order[k + 1 :]
        far = np.maximum(np.maximum(D[u[e], u[f]], D[u[e], v[f]]), np.maximum(D[v[e], u[f]], D[v[e], v[f]]))
        cap = np.minimum(far + (l[e] + l[f]) / 2.0, bound[f])
        f = f[cap + 1e-11 * (1.0 + cap) >= best]
        for c in range(0, len(f), _PAIR_CHUNK):
            p, q = np.minimum(e, f[c : c + _PAIR_CHUNK]), np.maximum(e, f[c : c + _PAIR_CHUNK])
            best = max(best, _pair_max(D, u[p], v[p], l[p], u[q], v[q], l[q]))
    return best


# --------------------------------------------------------------------------
# boundary and loop structure


def boundary(G: MetricGraph) -> tuple[str, ...]:
    """Vertices of degree one, in vertex order. Self-loops count twice."""
    return tuple(G.vertices[w] for w in np.flatnonzero(G.vertex_degree == 1))


def smallest_nonterminal_edge(G: MetricGraph) -> float | None:
    """Shortest edge length among edges whose endpoints both have degree > 1.

    Returns None when no edge qualifies. Whenever the graph has a loop,
    every loop edge qualifies, so the value is defined.
    """
    deg = G.vertex_degree
    qualifying = G.edge_length[(deg[G.edge_u] > 1) & (deg[G.edge_v] > 1)]
    return float(qualifying.min()) if qualifying.size else None


# Shapes of a connected graph: a tree has one edge fewer than vertices; on one
# vertex every edge is a self-loop; on two vertices one edge must join them.


def _is_tree(G: MetricGraph) -> bool:
    return len(G.edge_ids) == len(G.vertices) - 1


def _is_circle(G: MetricGraph) -> bool:
    return len(G.vertices) == 1 and len(G.edge_ids) == 1


def _is_segment(G: MetricGraph) -> bool:
    return len(G.vertices) == 2 and len(G.edge_ids) == 1


def circle_circumference(G: MetricGraph) -> float:
    """Circumference of a circle graph: one vertex carrying one self-loop."""
    if not _is_circle(G):
        raise NotACircle("graph is not a single-vertex self-loop")
    return float(G.edge_length[0])


@dataclass(frozen=True)
class SimpleLoop:
    """A closed path that revisits no vertex except its basepoint.

    ``steps`` is the canonical traversal: pairs ``(edge_id, direction)``
    with direction +1 for u -> v travel. Canonical means lexicographically
    smallest among all rotations of both traversal directions, so equal
    loops compare equal.
    """

    steps: tuple[tuple[str, int], ...]
    length: float

    @staticmethod
    def make(steps: Sequence[tuple[str, int]], length: float) -> "SimpleLoop":
        variants = []
        fwd = tuple(steps)
        rev = tuple((eid, -d) for eid, d in reversed(fwd))
        for seq in (fwd, rev):
            for r in range(len(seq)):
                variants.append(seq[r:] + seq[:r])
        return SimpleLoop(min(variants), float(length))


def enumerate_simple_loops(G: MetricGraph, max_loops: int = 10000) -> tuple[SimpleLoop, ...]:
    """All simple loops: self-loop edges, parallel-edge pairs, and longer cycles.

    Parallel edges are distinct cycle constituents, so a theta graph on two
    vertices with three parallel edges yields three loops. Raises
    LoopCountGuardExceeded when more than ``max_loops`` loops would be built.
    """
    loops: list[SimpleLoop] = []

    def push(steps, length):
        loops.append(SimpleLoop.make(steps, length))
        if len(loops) > max_loops:
            raise LoopCountGuardExceeded(
                f"more than {max_loops} simple loops; raise max_loops to continue"
            )

    ids, us, vs, ls = G.edge_ids, G.edge_u.tolist(), G.edge_v.tolist(), G.edge_length.tolist()
    by_pair: dict[tuple[int, int], list[int]] = {}
    for k, (i, j) in enumerate(zip(us, vs)):
        if i == j:
            push([(ids[k], 1)], ls[k])
        else:
            by_pair.setdefault((min(i, j), max(i, j)), []).append(k)

    # two parallel edges bound a loop: out along e1, back along e2
    for (i, _), group in by_pair.items():
        for e1, e2 in itertools.combinations(group, 2):
            push([(ids[e1], 1 if us[e1] == i else -1), (ids[e2], -1 if us[e2] == i else 1)], ls[e1] + ls[e2])

    # vertex-simple cycles on >= 3 vertices over the skeleton, whose rows
    # list each neighbour once, expanded over every choice of parallel edge
    # per hop; the search order is free, since the loops are sorted at the end
    indptr, indices, _ = G._skeleton

    def expand_cycle(cycle: list[int]) -> None:
        hops = [
            [(k, 1 if us[k] == a else -1) for k in by_pair[min(a, b), max(a, b)]]
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        ]
        for combo in itertools.product(*hops):
            push([(ids[k], d) for k, d in combo], sum(ls[k] for k, d in combo))

    for start in range(len(G.vertices)):
        stack: list[tuple[list[int], set[int]]] = [([start], {start})]
        while stack:
            path, used = stack.pop()
            last = path[-1]
            for nxt in indices[indptr[last] : indptr[last + 1]].tolist():
                if nxt == start and len(path) >= 3:
                    if path[1] < path[-1]:  # one orientation per cycle
                        expand_cycle(path)
                elif nxt > start and nxt not in used:
                    stack.append((path + [nxt], used | {nxt}))

    loops.sort(key=lambda lp: (lp.length, lp.steps))
    return tuple(loops)


# --------------------------------------------------------------------------
# regions: unions of open edge intervals plus marked vertices


class EdgeIntervalSet:
    """A region of the graph: open intervals on its edges plus the vertices
    it contains, as read-only columns for the graph it was built on:
    ``edge`` (edge index), ``lo`` and ``hi`` in edge order, and ``vertex``
    (vertex indices).

    Only :func:`region`, :func:`thickening` and :func:`whole_graph_region`
    build one, and each guarantees that on every edge the intervals are
    finite, satisfy 0 <= lo < hi <= l, and are sorted and disjoint. An
    interval end belongs to the region only through ``vertex``; operations
    on the closure of the region include the ends. ``intervals`` (edge id
    to a tuple of ``(lo, hi)``) and ``vertices`` (a frozenset of ids) are
    views built on each access.
    """

    __slots__ = ("_graph", "edge", "lo", "hi", "vertex")

    @classmethod
    def _from_columns(cls, G: MetricGraph, edge, lo, hi, vertex) -> "EdgeIntervalSet":
        W = cls.__new__(cls)
        for a in (edge, lo, hi, vertex):
            a.flags.writeable = False
        W._graph, W.edge, W.lo, W.hi, W.vertex = G, edge, lo, hi, vertex
        return W

    @property
    def intervals(self) -> dict[str, tuple[tuple[float, float], ...]]:
        es, out = self._graph.edge_ids, {}
        for e, lo, hi in zip(self.edge.tolist(), self.lo.tolist(), self.hi.tolist()):
            out.setdefault(es[e], []).append((lo, hi))
        return {eid: tuple(ivs) for eid, ivs in out.items()}

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._graph.vertices[w] for w in self.vertex.tolist())

    @property
    def is_empty(self) -> bool:
        return len(self.edge) == 0 and len(self.vertex) == 0


def region(
    G: MetricGraph,
    intervals: Mapping[str, Iterable[tuple[float, float]]],
    vertices: Iterable[str] = (),
) -> EdgeIntervalSet:
    """Validate a region description and build it on G.

    ``intervals`` maps edge ids to ``(lo, hi)`` offsets from the edge's u
    end, in any order. An unknown edge or vertex id, or an end that is not
    finite or lies off its edge by more than ``TOLERANCE``, raises
    ``PointNotOnGraph``, as :func:`edge_point` and :func:`vertex_point` do.
    Ends are then clamped to [0, l]; an interval that is empty once clamped
    (hi <= lo), or that overlaps another on its edge, raises
    ``ValidationError``.
    """
    rows = []
    for eid, ivs in intervals.items():
        k = G._position(eid)
        for lo, hi in ivs:
            edge_point(G, eid, lo), edge_point(G, eid, hi)  # each end on the edge
            lo, hi = max(float(lo), 0.0), min(float(hi), float(G.edge_length[k]))
            if hi <= lo:
                raise ValidationError(f"interval ({lo}, {hi}) is empty on edge {eid!r}")
            rows.append((k, lo, hi))
    table = np.array(sorted(rows), dtype=float).reshape(-1, 3)
    edge, lo, hi = table[:, 0].astype(np.int64), table[:, 1], table[:, 2]
    overlap = (edge[1:] == edge[:-1]) & (lo[1:] < hi[:-1])
    if overlap.any():
        raise ValidationError(f"overlapping intervals on edge {G.edge_ids[edge[np.argmax(overlap)]]!r}")
    ids = [vertex_point(G, str(v)).vertex for v in vertices]
    vertex = np.unique(np.array([G.vertex_index[v] for v in ids], dtype=np.int64))
    return EdgeIntervalSet._from_columns(G, edge, lo, hi, vertex)


def whole_graph_region(G: MetricGraph) -> EdgeIntervalSet:
    E = len(G.edge_ids)
    return EdgeIntervalSet._from_columns(
        G, np.arange(E), np.zeros(E), G.edge_length, np.arange(len(G.vertices))
    )


def thickening(G: MetricGraph, A: PointSet, r: float) -> EdgeIntervalSet:
    """Union of open balls of radius ``r`` around the members of ``A``.

    Computed in closed form: on each edge the ball around a source is the
    union of a direct within-edge interval (when the source sits on the
    edge) and two intervals growing from the endpoints with the leftover
    radius after reaching them.
    """
    r = float(r)
    if not r > 0.0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    if len(A) == 0:
        raise EmptySet("thickening of an empty point set")
    A = _on_graph(G, A)
    vdist = A._distances
    # raw intervals clamped to [0, l], per edge from u, around its sources
    # by offset, then from v: lo and hi never decrease in that order, as
    # r - d(u,A) <= r <= t + r and l - (r - d(v,A)) >= l - r >= t - r, and a
    # stable sort by edge keeps it. Empty ones (hi <= lo) are dropped.
    l, E, on = G.edge_length, np.arange(len(G.edge_ids)), A._edge >= 0
    _, se, t = _location_order(A._edge[on], A._offset[on], len(E))
    edge = np.concatenate([E, se, E])
    lo = np.concatenate([np.zeros(len(E)), np.maximum(0.0, t - r), np.maximum(0.0, l - (r - vdist[G.edge_v]))])
    hi = np.concatenate([np.minimum(l, r - vdist[G.edge_u]), np.minimum(l[se], t + r), l])
    order = np.argsort(edge.astype(np.min_scalar_type(len(E))), kind="stable")
    keep = order[hi[order] > lo[order]]
    edge, lo, hi = edge[keep], lo[keep], hi[keep]
    # merge open intervals on strict overlap only (two that merely touch
    # leave that point uncovered); a fragment runs from one cut to the next
    cut = np.ones(len(edge) + 1, dtype=bool)
    cut[1:-1] = (edge[1:] != edge[:-1]) | (lo[1:] >= hi[:-1])
    return EdgeIntervalSet._from_columns(
        G, edge[cut[:-1]], lo[cut[:-1]], hi[cut[1:]], np.flatnonzero(vdist < r)
    )


def region_is_connected(G: MetricGraph, W: EdgeIntervalSet) -> bool:
    """True iff the region is path-connected as a subspace of the graph.

    Fragments are the open intervals and the included vertices; an interval
    joins a vertex exactly when it reaches offset 0 or the full edge length
    and that endpoint vertex belongs to the region. The empty region counts
    as connected. A region built on another graph is read by its ids.
    """
    if W._graph is not G:
        W = region(G, W.intervals, W.vertices)
    # an interval that reaches none of its ends' vertices is a component of
    # its own, one that reaches one end joins that vertex's component, and
    # one that reaches both links them
    nv = len(W.vertex)
    node = np.full(len(G.vertices), -1)
    node[W.vertex] = np.arange(nv)
    a, b = node[G.edge_u[W.edge]], node[G.edge_v[W.edge]]
    at_u = (W.lo == 0.0) & (a >= 0)
    at_v = (W.hi == G.edge_length[W.edge]) & (b >= 0)
    both = at_u & at_v
    return np.count_nonzero(~(at_u | at_v)) + _component_count(nv, a[both], b[both]) <= 1
