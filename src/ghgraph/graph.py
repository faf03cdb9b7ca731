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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

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


@dataclass(frozen=True, slots=True)
class Edge:
    """One edge of a metric graph; ``u == v`` makes it a self-loop."""

    id: str
    u: str
    v: str
    length: float


class MetricGraph:
    """A compact connected metric graph.

    Instances are built through :func:`build_graph`, which validates the
    input in one pass over the edges and keeps the sparse vertex skeleton
    that distance searches run on. ``edge_u``, ``edge_v`` (vertex indices of
    the endpoints), ``edge_length`` and ``vertex_degree`` (a self-loop
    counts twice) are read-only arrays, in edge and vertex order. The dense
    vertex-to-vertex matrix ``vertex_distances`` is built on first use and
    cached; only point-pair queries and the continuum diameter read it.
    """

    __slots__ = (
        "vertices",
        "edges",
        "vertex_index",
        "edge_index",
        "edge_u",
        "edge_v",
        "edge_length",
        "vertex_degree",
        "_skeleton",
        "_vertex_distances",
    )

    def __init__(
        self,
        vertices: tuple[str, ...],
        edges: tuple[Edge, ...],
        vertex_index: dict[str, int],
        edge_index: dict[str, int],
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_length: np.ndarray,
        skeleton: csr_matrix,
    ):
        n = len(vertices)
        self.vertices, self.edges = vertices, edges
        self.vertex_index, self.edge_index = vertex_index, edge_index
        self.edge_u, self.edge_v, self.edge_length = edge_u, edge_v, edge_length
        self.vertex_degree = np.bincount(edge_u, minlength=n) + np.bincount(edge_v, minlength=n)
        for a in (self.edge_u, self.edge_v, self.edge_length, self.vertex_degree):
            a.flags.writeable = False
        self._skeleton = skeleton
        self._vertex_distances: np.ndarray | None = None

    @property
    def vertex_distances(self) -> np.ndarray:
        """All-pairs vertex distances, computed on first access."""
        if self._vertex_distances is None:
            self._vertex_distances = dijkstra(self._skeleton, directed=True)
        return self._vertex_distances

    # -- simple accessors ---------------------------------------------------

    def degree(self, v: str) -> int:
        return int(self.vertex_degree[self.vertex_index[v]])

    def edge(self, edge_id: str) -> Edge:
        idx = self.edge_index.get(edge_id)
        if idx is None:
            raise PointNotOnGraph(f"unknown edge id {edge_id!r}")
        return self.edges[idx]

    def __repr__(self) -> str:
        return f"MetricGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def build_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str, float]],
) -> MetricGraph:
    """Validate and assemble a metric graph.

    ``edges`` holds ``(edge_id, u, v, length)`` tuples. Ids must be unique,
    endpoints must name known vertices, lengths must be positive, and the
    result must be connected.
    """
    vs = tuple(str(v) for v in vertices)
    if not vs:
        raise ValidationError("a metric graph needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValidationError("duplicate vertex ids")
    vindex = {v: i for i, v in enumerate(vs)}

    # Self-loops never shorten vertex-to-vertex paths; between distinct
    # vertices only the shortest parallel edge matters. Each pair is stored
    # once per direction, so searches run directed and never transpose, and
    # strong connectivity is plain connectivity.
    built: list[Edge] = []
    eindex: dict[str, int] = {}
    ends: list[tuple[int, int]] = []
    lengths: list[float] = []
    nbrs: list[dict[int, float]] = [{} for _ in vs]
    for eid, u, v, length in edges:
        eid, u, v = str(eid), str(u), str(v)
        if eid in eindex:
            raise ValidationError(f"duplicate edge id {eid!r}")
        eindex[eid] = len(built)
        i, j = vindex.get(u), vindex.get(v)
        if i is None:
            raise UnknownEndpoint(f"edge {eid!r} references unknown vertex {u!r}")
        if j is None:
            raise UnknownEndpoint(f"edge {eid!r} references unknown vertex {v!r}")
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise NonPositiveEdgeLength(f"edge {eid!r} has length {length}")
        built.append(Edge(eid, u, v, length))
        ends.append((i, j))
        lengths.append(length)
        if i != j and length < nbrs[i].get(j, np.inf):
            nbrs[i][j] = nbrs[j][i] = length

    indptr = np.cumsum([0] + [len(row) for row in nbrs])
    indices = [j for row in nbrs for j in row]
    data = [w for row in nbrs for w in row.values()]
    skeleton = csr_matrix((data, indices, indptr), shape=(len(vs),) * 2)
    if connected_components(skeleton, connection="strong", return_labels=False) > 1:
        raise DisconnectedGraph("graph is not connected")
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T.copy()
    return MetricGraph(vs, tuple(built), vindex, eindex, u, v, np.array(lengths), skeleton)


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
    e = G.edge(edge_id)
    offset = float(offset)
    if not math.isfinite(offset) or offset < -TOLERANCE or offset > e.length + TOLERANCE:
        raise PointNotOnGraph(
            f"offset {offset} outside [0, {e.length}] on edge {edge_id!r}"
        )
    if offset <= TOLERANCE:
        return GraphPoint(vertex=e.u)
    if offset >= e.length - TOLERANCE:
        return GraphPoint(vertex=e.v)
    return GraphPoint(edge=edge_id, offset=offset)


class PointSet:
    """An ordered, deduplicated collection of canonical graph points.

    A set made by :func:`point_set` holds read-only columns for the graph it
    was built on: the edge index (-1 at a vertex), the vertex index (-1 on
    an edge) and the offset along the edge (0 at a vertex). Distance code
    reads the columns; ``points``, iteration and indexing build the
    :class:`GraphPoint` views from them on first use, once. A set made
    directly from points, ``PointSet(points)``, holds those points and no
    graph. Equality and hash are those of the set of points either way.
    """

    __slots__ = ("_graph", "_edge", "_vertex", "_offset", "_points")

    def __init__(self, points: Iterable[GraphPoint]):
        seen: set[GraphPoint] = set()
        kept: list[GraphPoint] = []
        for p in points:
            if p not in seen:
                seen.add(p)
                kept.append(p)
        self._points: tuple[GraphPoint, ...] | None = tuple(kept)
        self._graph = self._edge = self._vertex = self._offset = None

    @classmethod
    def _from_columns(cls, G: MetricGraph, edge, vertex, offset) -> "PointSet":
        A = cls.__new__(cls)
        for a in (edge, vertex, offset):
            a.flags.writeable = False
        A._graph, A._edge, A._vertex, A._offset, A._points = G, edge, vertex, offset, None
        return A

    @property
    def points(self) -> tuple[GraphPoint, ...]:
        if self._points is None:
            vs, es = self._graph.vertices, self._graph.edges
            self._points = tuple(
                GraphPoint(vertex=vs[w]) if e < 0 else GraphPoint(edge=es[e].id, offset=t)
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
    key = np.where(edge >= 0, edge, -1 - vertex) + 1j * offset
    first = np.sort(np.unique(key, return_index=True)[1])
    return PointSet._from_columns(G, edge[first], vertex[first], offset[first])


def _columns(G: MetricGraph, specs: Iterable[GraphPoint | tuple | str]):
    """(edge, vertex, offset) columns of point specs, in input order, each
    checked and snapped to a vertex as ``edge_point`` does; -2 marks an id
    the graph lacks, or a spec of the wrong shape, until the check."""
    specs = list(specs)
    vget, eget = G.vertex_index.get, G.edge_index.get
    rows = [
        (eget(s[0], -2), -1, s[1]) if type(s) is tuple and len(s) == 2
        else (-1, vget(s, -2), 0.0) if isinstance(s, str)
        else _spec_row(vget, eget, s)
        for s in specs
    ]
    flat = itertools.chain.from_iterable(rows)
    try:
        table = np.fromiter(flat, float, count=3 * len(rows)).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):
        # an offset float() rejects: NaN fails the check below, and
        # edge_point then raises float()'s own error for it
        table = np.array([(e, w, _float_or_nan(t)) for e, w, t in rows]).reshape(-1, 3)
    edge, vertex, offset = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
    edge, vertex, offset, bad = _snapped(G, edge, vertex, offset)
    if bad is not None:
        _raise_for_spec(G, specs[bad])
    return edge, vertex, offset


def _spec_row(vget, eget, s):
    """The row of a ``GraphPoint`` or of an ``(edge_id, offset)`` sequence
    other than a tuple; a spec of another shape gets -2."""
    if isinstance(s, GraphPoint):
        if s.vertex is not None:
            return -1, vget(s.vertex, -2), 0.0
        return eget(s.edge, -2), -1, s.offset
    try:
        eid, off = s
    except (TypeError, ValueError):
        return -2, -1, 0.0
    return eget(eid, -2), -1, off


def _float_or_nan(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _snapped(G: MetricGraph, edge, vertex, offset):
    """Point columns with on-edge offsets within ``TOLERANCE`` of an end
    made that end's vertex, as ``edge_point`` makes them, and the first row
    that ``edge_point`` or ``vertex_point`` rejects (None if none): an
    unknown id (-2), or an offset outside the edge or not finite."""
    on = edge >= 0
    l = np.zeros(len(edge))
    l[on] = G.edge_length[edge[on]]
    bad = (edge == -2) | (vertex == -2)
    bad |= on & (~np.isfinite(offset) | (offset < -TOLERANCE) | (offset > l + TOLERANCE))
    if bad.any():
        return edge, vertex, offset, int(np.argmax(bad))
    at_u = on & (offset <= TOLERANCE)
    at_v = on & ~at_u & (offset >= l - TOLERANCE)
    vertex = vertex.copy()
    vertex[at_u], vertex[at_v] = G.edge_u[edge[at_u]], G.edge_v[edge[at_v]]
    edge = np.where(at_u | at_v, -1, edge)
    return edge, vertex, np.where(edge >= 0, offset, 0.0), None


def _raise_for_spec(G: MetricGraph, s) -> None:
    """Raise what the scalar constructors raise for the rejected spec s."""
    if isinstance(s, GraphPoint):
        if s.vertex is not None:
            vertex_point(G, s.vertex)
        elif s.edge is None:
            raise PointNotOnGraph("point has neither vertex nor edge")
        else:
            edge_point(G, s.edge, s.offset)
    elif isinstance(s, str):
        vertex_point(G, s)
    else:
        eid, off = s
        edge_point(G, eid, off)
    raise PointNotOnGraph(f"point spec {s!r} is not on the graph")


# --------------------------------------------------------------------------
# distances between points

# Every point gets two anchor vertices with travel offsets to them: a vertex
# anchors to itself twice at cost 0, an edge point anchors to both endpoints.
# The distance between points on different edges is the best of the four
# anchor-to-anchor routes; on a shared edge the direct within-edge travel
# |s - t| joins the candidates (for a self-loop, the four routes already
# include the complementary arc through the basepoint).


def _fields(G: MetricGraph, pts: Sequence[GraphPoint] | PointSet):
    """Edge index (-1 for a vertex), anchors a and b, offsets to a and to b.

    A set built on G is a gather from its columns; any other points (a
    sequence, a set made without a graph or on another graph) are checked
    on G as ``point_set`` checks them."""
    if isinstance(pts, PointSet) and pts._graph is G:
        return _fields_from_arrays(G, pts._edge, pts._vertex, pts._offset)
    return _fields_from_arrays(G, *_columns(G, pts))


def _fields_from_arrays(G: MetricGraph, edge, w, off):
    """``_fields`` from edge indices, vertex indices (where edge is -1) and
    offsets along the edges (ignored at vertices)."""
    on = edge >= 0
    a, b = w.copy(), w.copy()
    a[on], b[on] = G.edge_u[edge[on]], G.edge_v[edge[on]]
    off_a, off_b = np.zeros(len(edge)), np.zeros(len(edge))
    off_a[on] = off[on]
    off_b[on] = G.edge_length[edge[on]] - off[on]
    return edge, a, b, off_a, off_b


def pairwise_distances(
    G: MetricGraph,
    A: Sequence[GraphPoint] | PointSet,
    B: Sequence[GraphPoint] | PointSet,
) -> np.ndarray:
    """Full |A| x |B| matrix of geodesic distances."""
    if len(A) == 0 or len(B) == 0:
        raise EmptySet("distance against an empty point collection")
    ea, aa, ba, oa, ob = _fields(G, A)
    eb, ab, bb, qa, qb = _fields(G, B)
    D = G.vertex_distances
    oa, ob = oa[:, None], ob[:, None]
    out = oa + D[aa[:, None], ab[None, :]] + qa[None, :]
    np.minimum(out, oa + D[aa[:, None], bb[None, :]] + qb[None, :], out=out)
    np.minimum(out, ob + D[ba[:, None], ab[None, :]] + qa[None, :], out=out)
    np.minimum(out, ob + D[ba[:, None], bb[None, :]] + qb[None, :], out=out)
    shared = (ea[:, None] == eb[None, :]) & (ea[:, None] >= 0)
    if shared.any():
        out = np.where(shared, np.minimum(out, np.abs(oa - qa[None, :])), out)
    return out


def point_distance(G: MetricGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Geodesic distance between two points."""
    pq = pairwise_distances(G, [p], [q])
    return float(pq[0, 0])


# A whole set A is reached through its distance field d(w, A) over the
# vertices w, from one multi-source Dijkstra. The interior members of A
# share one virtual source row, linked one way to each endpoint x of their
# edges with the shortest walk along those edges from A to x (the shorter
# arc on a self-loop), so no pair is stored twice and the row is never a
# transit node. Vertex members are sources themselves; no link weighs zero.
# A point at offset s on e = (u, v, l) then has
#   d(s, A) = min( s + d(u, A),  (l - s) + d(v, A),  min_t |s - t| )
# over A's offsets t on e: a geodesic leaves e at an endpoint or stays on e.


def _distance_field(G: MetricGraph, fa) -> np.ndarray:
    """d(w, A) for every vertex w, where ``fa`` holds the ``_fields`` of A."""
    _, a_idx, b_idx, off_a, off_b = fa
    n, S = len(G.vertices), G._skeleton
    walk = np.full(n, np.inf)
    np.minimum.at(walk, a_idx, off_a)
    np.minimum.at(walk, b_idx, off_b)
    ends = np.flatnonzero((walk > 0.0) & (walk < np.inf))
    data = np.concatenate([S.data, walk[ends]])
    indices = np.concatenate([S.indices, ends])
    M = csr_matrix((data, indices, np.append(S.indptr, len(data))), shape=(n + 1, n + 1))
    sources = np.append(np.flatnonzero(walk == 0.0), n)
    return dijkstra(M, directed=True, indices=sources, min_only=True)[:n]


def _same_edge_gap(qe, qs, keys) -> np.ndarray:
    """min |s - t| over the points t on each query's own edge, inf if none;
    ``keys`` holds those points sorted as complex edge + i offset, which
    sort by edge, then offset, so one search finds each query's two
    neighbours."""
    gap = np.full(len(qe), np.inf)
    if keys.size:
        r = np.searchsorted(keys, qe + 1j * qs)
        for nb in (keys[np.maximum(r - 1, 0)], keys[np.minimum(r, keys.size - 1)]):
            gap = np.where(nb.real == qe, np.minimum(gap, np.abs(qs - nb.imag)), gap)
    return gap


def _set_distances(G: MetricGraph, fp, fa) -> np.ndarray:
    """d(p, A) for every point p, with p and A given as ``_fields``."""
    field = _distance_field(G, fa)
    ep, ap, bp, sp, tp = fp
    out = np.minimum(sp + field[ap], tp + field[bp])
    pe, pt = fa[0], fa[3]
    return np.minimum(out, _same_edge_gap(ep, sp, np.sort(pe[pe >= 0] + 1j * pt[pe >= 0])))


def distance_to_set(G: MetricGraph, p: GraphPoint, A: PointSet) -> float:
    """Distance from a point to the nearest member of a non-empty point set."""
    if len(A) == 0:
        raise EmptySet("distance to an empty point set")
    return float(_set_distances(G, _fields(G, [p]), _fields(G, A))[0])


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
    if not G.edges:
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


def circle_circumference(G: MetricGraph) -> float:
    """Circumference of a circle graph: one vertex carrying one self-loop."""
    if len(G.vertices) == 1 and len(G.edges) == 1:
        e = G.edges[0]
        if e.u == e.v:
            return e.length
    raise NotACircle("graph is not a single-vertex self-loop")


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

    by_pair: dict[tuple[str, str], list[Edge]] = {}
    for e in G.edges:
        if e.u == e.v:
            push([(e.id, 1)], e.length)
        else:
            key = (min(e.u, e.v), max(e.u, e.v))
            by_pair.setdefault(key, []).append(e)

    # two parallel edges bound a loop
    for (u, v), group in sorted(by_pair.items()):
        for e1, e2 in itertools.combinations(group, 2):
            d1 = 1 if e1.u == u else -1
            d2 = -1 if e2.u == u else 1  # traverse e2 back from v to u
            push([(e1.id, d1), (e2.id, d2)], e1.length + e2.length)

    # vertex-simple cycles on >= 3 vertices over the simple skeleton,
    # expanded over every choice of parallel edge per hop
    neighbors: dict[int, set[int]] = {i: set() for i in range(len(G.vertices))}
    for (u, v) in by_pair:
        i, j = G.vertex_index[u], G.vertex_index[v]
        neighbors[i].add(j)
        neighbors[j].add(i)

    def expand_cycle(cycle: list[int]) -> None:
        hops = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            ua, ub = G.vertices[a], G.vertices[b]
            key = (min(ua, ub), max(ua, ub))
            hops.append([(e, 1 if e.u == ua else -1) for e in by_pair[key]])
        for combo in itertools.product(*hops):
            push(
                [(e.id, d) for e, d in combo],
                sum(e.length for e, d in combo),
            )

    n = len(G.vertices)
    for start in range(n):
        stack: list[tuple[list[int], set[int]]] = [([start], {start})]
        while stack:
            path, used = stack.pop()
            last = path[-1]
            for nxt in sorted(neighbors[last]):
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
        es, out = self._graph.edges, {}
        for e, lo, hi in zip(self.edge.tolist(), self.lo.tolist(), self.hi.tolist()):
            out.setdefault(es[e].id, []).append((lo, hi))
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
        e, k = G.edge(eid), G.edge_index[eid]
        for lo, hi in ivs:
            edge_point(G, eid, lo), edge_point(G, eid, hi)  # each end on the edge
            lo, hi = max(float(lo), 0.0), min(float(hi), e.length)
            if hi <= lo:
                raise ValidationError(f"interval ({lo}, {hi}) is empty on edge {eid!r}")
            rows.append((k, lo, hi))
    table = np.array(sorted(rows), dtype=float).reshape(-1, 3)
    edge, lo, hi = table[:, 0].astype(np.int64), table[:, 1], table[:, 2]
    overlap = (edge[1:] == edge[:-1]) & (lo[1:] < hi[:-1])
    if overlap.any():
        raise ValidationError(f"overlapping intervals on edge {G.edges[edge[np.argmax(overlap)]].id!r}")
    ids = [vertex_point(G, str(v)).vertex for v in vertices]
    vertex = np.unique(np.array([G.vertex_index[v] for v in ids], dtype=np.int64))
    return EdgeIntervalSet._from_columns(G, edge, lo, hi, vertex)


def whole_graph_region(G: MetricGraph) -> EdgeIntervalSet:
    E = len(G.edges)
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
    if r <= 0.0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    if len(A) == 0:
        raise EmptySet("thickening of an empty point set")
    fa = _fields(G, A)
    vdist = _distance_field(G, fa)
    # raw intervals from u, from v and around each source on an edge; one
    # that is empty (hi <= lo) is dropped, which also drops those from an
    # end farther than r from A
    l, E, on = G.edge_length, np.arange(len(G.edges)), fa[0] >= 0
    se, t = fa[0][on], fa[3][on]
    edge = np.concatenate([E, E, se])
    lo = np.concatenate([np.zeros(len(E)), np.maximum(0.0, l - (r - vdist[G.edge_v])), np.maximum(0.0, t - r)])
    hi = np.concatenate([np.minimum(l, r - vdist[G.edge_u]), l, np.minimum(l[se], t + r)])
    keep = hi > lo
    order = np.lexsort((hi[keep], lo[keep], edge[keep]))
    edge, lo, hi = edge[keep][order], lo[keep][order], hi[keep][order]
    # merge open intervals on strict overlap only: two that merely touch
    # leave that point uncovered. The running maximum of edge + i hi is the
    # end of the fragment open on the row's edge, if any.
    reach = np.maximum.accumulate(edge + 1j * hi)
    new = np.ones(len(edge), dtype=bool)
    new[1:] = (edge[1:] != reach[:-1].real) | (lo[1:] >= reach[:-1].imag)
    start = np.flatnonzero(new)
    return EdgeIntervalSet._from_columns(
        G, edge[start], lo[start], np.maximum.reduceat(hi, start), np.flatnonzero(vdist < r)
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
    nv, k = len(W.vertex), len(W.edge)
    node = np.full(len(G.vertices), -1)
    node[W.vertex] = np.arange(nv)
    a, b = node[G.edge_u[W.edge]], node[G.edge_v[W.edge]]
    at_u = (W.lo == 0.0) & (a >= 0)
    at_v = (W.hi == G.edge_length[W.edge]) & (b >= 0)
    iv = nv + np.arange(k)
    links = (np.concatenate([iv[at_u], iv[at_v]]), np.concatenate([a[at_u], b[at_v]]))
    adj = csr_matrix((np.ones(len(links[0])), links), shape=(nv + k, nv + k))
    return connected_components(adj, directed=False, return_labels=False) <= 1
