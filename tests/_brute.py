"""Hand-rolled reference implementations used to freeze expected test values.

Everything here is deliberately naive and independent of the code under test:
explicit Dijkstra over an adjacency list, exhaustive search over all pairs of
covering maps, double loops for distortion. The continuum diameter reference
is the scalar edge-pair loop; it reads the graph's own ``vertex_distances``,
so it checks the candidate search, not the vertex distances. The degree,
boundary and shortest non-terminal edge references are the degree dict
filled by a loop over the edges. The continuum
Hausdorff reference is the scalar per-edge envelope loop; it reads the
graph's own multi-source distance field, so it checks the envelope, not the
field. The set-to-set reference takes each query point's distance on its
own, from the same field. The point-set and thickening references are the
per-spec ``edge_point`` loop and the per-edge interval merge; a thickening
is a plain record of interval and vertex ids. The component count
reference is the union-find over vertex indices that the array label
hooking replaced. The region connectivity reference is a union-find over
intervals and vertices, and the interval GH reference takes the supremum
on a one-edge graph over the subset's span.
The exact GH search reference is the float forward-check search the
pair-bitmask search replaced; it walks the same tree and counts the same
assignments. The graph build reference is the per-edge validation and
skeleton loop that made one ``Edge`` per edge, before the graph was stored
as columns; the skeleton reference is the 3-key ``lexsort`` that kept the
shortest parallel edge before one integer key was sorted. The experiment's
random subset reference passes the edge lengths as weights on every draw.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from collections import namedtuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

import ghgraph as gg
from ghgraph.graph import _distance_field


# the per-edge build loop the columnar ``build_graph`` replaced, frozen;
# it returns a plain record of what the graph stores

BuiltGraph = namedtuple(
    "BuiltGraph",
    "vertices edges vertex_index edge_index edge_u edge_v edge_length vertex_degree skeleton vertex_distances",
)


def build_graph(vertices, edges):
    vs = tuple(str(v) for v in vertices)
    if not vs:
        raise gg.ValidationError("a metric graph needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise gg.ValidationError("duplicate vertex ids")
    vindex = {v: i for i, v in enumerate(vs)}
    built, eindex, ends, lengths = [], {}, [], []
    nbrs = [{} for _ in vs]
    for eid, u, v, length in edges:
        eid, u, v = str(eid), str(u), str(v)
        if eid in eindex:
            raise gg.ValidationError(f"duplicate edge id {eid!r}")
        eindex[eid] = len(built)
        i, j = vindex.get(u), vindex.get(v)
        if i is None:
            raise gg.UnknownEndpoint(f"edge {eid!r} references unknown vertex {u!r}")
        if j is None:
            raise gg.UnknownEndpoint(f"edge {eid!r} references unknown vertex {v!r}")
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise gg.NonPositiveEdgeLength(f"edge {eid!r} has length {length}")
        built.append(gg.Edge(eid, u, v, length))
        ends.append((i, j))
        lengths.append(length)
        if i != j and length < nbrs[i].get(j, np.inf):
            nbrs[i][j] = nbrs[j][i] = length
    indptr = np.cumsum([0] + [len(row) for row in nbrs])
    indices = [j for row in nbrs for j in sorted(row)]
    data = [row[j] for row in nbrs for j in sorted(row)]
    skeleton = csr_matrix((data, indices, indptr), shape=(len(vs),) * 2)
    if connected_components(skeleton, connection="strong", return_labels=False) > 1:
        raise gg.DisconnectedGraph("graph is not connected")
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T.copy()
    degree = np.bincount(u, minlength=len(vs)) + np.bincount(v, minlength=len(vs))
    return BuiltGraph(
        vs, tuple(built), vindex, eindex, u, v, np.array(lengths), degree, skeleton,
        sparse_dijkstra(skeleton, directed=True),
    )


# the 3-key lexsort skeleton of the columnar ``build_graph``, frozen; it
# reads the graph's own edge columns and returns (indptr, indices, data)


def lexsort_skeleton(G):
    u, v, lengths, vs = G.edge_u, G.edge_v, G.edge_length, G.vertices
    link = u != v
    a, b, w = np.concatenate([u[link], v[link]]), np.concatenate([v[link], u[link]]), np.tile(lengths[link], 2)
    order = np.lexsort((w, b, a))
    a, b, w = a[order], b[order], w[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(a[first], minlength=len(vs)))])
    return (indptr, b[first], w[first])


def dijkstra(vertex_ids, edge_list, src):
    """Vertex-to-vertex shortest distances; edge_list holds (u, v, length)."""
    adj = {v: [] for v in vertex_ids}
    for u, v, w in edge_list:
        if u != v:  # self-loops never shorten a vertex path
            adj[u].append((v, w))
            adj[v].append((u, w))
    dist = {v: math.inf for v in vertex_ids}
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, length in adj[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def distortion_of_pairs(pairs, dx, dy):
    worst = 0.0
    for (i, j), (i2, j2) in itertools.product(pairs, repeat=2):
        gap = abs(dx[i][i2] - dy[j][j2])
        if gap > worst:
            worst = gap
    return worst


def gh_by_enumeration(dx, dy):
    """Exact GH distance by exhausting every pair of covering maps.

    Only viable for very small spaces; complexity m**n * n**m.
    """
    n, m = len(dx), len(dy)
    best = math.inf
    for f in itertools.product(range(m), repeat=n):
        for gmap in itertools.product(range(n), repeat=m):
            pairs = {(i, f[i]) for i in range(n)} | {(gmap[j], j) for j in range(m)}
            dis = distortion_of_pairs(sorted(pairs), dx, dy)
            if dis < best:
                best = dis
    return best / 2.0


def circle_arc_distance(a, b, circumference):
    gap = abs(a - b) % circumference
    return min(gap, circumference - gap)


# --------------------------------------------------------------------------
# continuum diameter: the scalar line-intersection loop, kept frozen as the
# reference the array code in ``ghgraph.graph`` must match exactly


def _max_min_affine(lines, inside, evaluate):
    best = -math.inf
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-15:
            continue
        s = (c1 * b2 - c2 * b1) / det
        t = (a1 * c2 - a2 * c1) / det
        if inside(s, t):
            val = evaluate(s, t)
            if val > best:
                best = val
    return best


def _diameter_pair(G, e1, e2):
    D = G.vertex_distances
    vi = G.vertex_index
    l1, l2 = e1.length, e2.length
    u1, v1 = vi[e1.u], vi[e1.v]
    u2, v2 = vi[e2.u], vi[e2.v]
    # pieces as (coef_s, coef_t, const): value = cs*s + ct*t + c
    pieces = [
        (1.0, 1.0, float(D[u1, u2])),
        (1.0, -1.0, float(D[u1, v2]) + l2),
        (-1.0, 1.0, float(D[v1, u2]) + l1),
        (-1.0, -1.0, float(D[v1, v2]) + l1 + l2),
    ]

    def evaluate(s, t):
        return min(cs * s + ct * t + c for cs, ct, c in pieces)

    lines = [(1.0, 0.0, 0.0), (1.0, 0.0, l1), (0.0, 1.0, 0.0), (0.0, 1.0, l2)]
    for (p, q) in itertools.combinations(pieces, 2):
        a, b, c = p[0] - q[0], p[1] - q[1], q[2] - p[2]
        if a != 0.0 or b != 0.0:
            lines.append((a, b, c))
    eps = 1e-12 * (1.0 + l1 + l2)

    def inside(s, t):
        return -eps <= s <= l1 + eps and -eps <= t <= l2 + eps

    return _max_min_affine(lines, inside, evaluate)


def _diameter_same_edge(G, e):
    # On the triangle 0 <= s <= t <= l the distance is min(t - s, s + h + l - t)
    # with h the vertex distance between the endpoints (0 for a self-loop).
    l = e.length
    h = float(G.vertex_distances[G.vertex_index[e.u], G.vertex_index[e.v]])

    def evaluate(s, t):
        return min(t - s, s + h + l - t)

    lines = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, l),
        (1.0, -1.0, 0.0),  # the s = t boundary of the triangle
        (-2.0, 2.0, h + l),  # crossing of the two pieces
    ]
    eps = 1e-12 * (1.0 + l)

    def inside(s, t):
        return -eps <= s and t <= l + eps and s <= t + eps

    return _max_min_affine(lines, inside, evaluate)


def graph_diameter(G):
    """Continuum diameter by visiting every edge pair with scalar arithmetic."""
    if not G.edges:
        return 0.0
    best = float(G.vertex_distances.max())
    for i, e1 in enumerate(G.edges):
        best = max(best, _diameter_same_edge(G, e1))
        for e2 in G.edges[i + 1 :]:
            best = max(best, _diameter_pair(G, e1, e2))
    return best


# --------------------------------------------------------------------------
# degree structure: the per-vertex degree dict filled by one loop over the
# edges, kept frozen as the reference the degree array must match exactly


def degrees(G):
    """Degree of every vertex by name; a self-loop counts twice."""
    degree = {v: 0 for v in G.vertices}
    for e in G.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    return degree


def boundary(G):
    degree = degrees(G)
    return tuple(v for v in G.vertices if degree[v] == 1)


def smallest_nonterminal_edge(G):
    degree = degrees(G)
    qualifying = [e.length for e in G.edges if degree[e.u] > 1 and degree[e.v] > 1]
    if not qualifying:
        return None
    return float(min(qualifying))


# --------------------------------------------------------------------------
# continuum Hausdorff distances: the scalar per-edge envelope loop, kept
# frozen as the reference the array pass in ``ghgraph.hausdorff`` must match
# exactly


def _point_fields(G, pts):
    rows = []
    for p in pts:
        if p.vertex is not None:
            w = G.vertex_index[p.vertex]
            rows.append((-1, w, w, 0.0, 0.0))
        else:
            e = G.edge(p.edge)
            u, v = G.vertex_index[e.u], G.vertex_index[e.v]
            rows.append((G.edge_index[p.edge], u, v, p.offset, e.length - p.offset))
    table = np.array(rows, dtype=float).reshape(-1, 5)
    idx = table[:, :3].astype(np.int64)
    return idx[:, 0], idx[:, 1], idx[:, 2], table[:, 3], table[:, 4]


def _edge_envelope_max(l, au, av, ts, excluded=None):
    def value(s):
        if excluded:
            for lo, hi in excluded:
                if lo <= s <= hi:
                    return 0.0
        best = min(s + au, (l - s) + av)
        if ts:
            k = bisect_left(ts, s)
            if k < len(ts):
                best = min(best, ts[k] - s)
            if k > 0:
                best = min(best, s - ts[k - 1])
        return best

    cands = [0.0, l, (l + av - au) / 2.0]
    for t in ts:
        cands.append((t - au) / 2.0)
        cands.append((l + av + t) / 2.0)
        cands.append(t)
    for t1, t2 in zip(ts, ts[1:]):
        cands.append((t1 + t2) / 2.0)
    if excluded:
        for lo, hi in excluded:
            cands.append(lo)
            cands.append(hi)
    best = 0.0
    for s in cands:
        if 0.0 <= s <= l:
            val = value(s)
            if val > best:
                best = val
    return best


def _sup_distance_to_sources(G, sources, excluded_by_edge=None):
    vdist = _distance_field(G, *_point_fields(G, sources)[1:])
    if not G.edges:
        return float(vdist.max())
    on_edge = {}
    for p in sources:
        if p.edge is not None:
            on_edge.setdefault(p.edge, []).append(p.offset)
    best = 0.0
    for e in G.edges:
        ts = sorted(on_edge.get(e.id, ()))
        excluded = (excluded_by_edge or {}).get(e.id)
        val = _edge_envelope_max(
            e.length,
            float(vdist[G.vertex_index[e.u]]),
            float(vdist[G.vertex_index[e.v]]),
            ts,
            excluded,
        )
        if val > best:
            best = val
    return best


def hausdorff_graph_to_set(G, A):
    """sup over the graph of the distance to A, one edge at a time."""
    return _sup_distance_to_sources(G, A)


def hausdorff_graph_to_region(G, W):
    """sup over the graph of the distance to the closure of W, with the
    interval ends made points by ``edge_point``."""
    pts = [gg.GraphPoint(vertex=v) for v in W.vertices]
    excluded = {}
    for eid, ivs in W.intervals.items():
        for lo, hi in ivs:
            pts.append(edge_point(G, eid, lo))
            pts.append(edge_point(G, eid, hi))
            excluded.setdefault(eid, []).append((lo, hi))
    return _sup_distance_to_sources(G, PointSet(pts), excluded)


def set_distances(G, P, A):
    """d(p, A) for every point p of P, one point at a time: out through an
    end of p's edge, or along the edge to a member of A on it; reads the
    graph's own multi-source distance field."""
    vdist = _distance_field(G, *_point_fields(G, A)[1:])
    out = []
    for p in P:
        if p.vertex is not None:
            out.append(float(vdist[G.vertex_index[p.vertex]]))
            continue
        e, s = G.edge(p.edge), p.offset
        best = min(s + float(vdist[G.vertex_index[e.u]]), (e.length - s) + float(vdist[G.vertex_index[e.v]]))
        for q in A:
            if q.edge == p.edge:
                best = min(best, abs(s - q.offset))
        out.append(best)
    return out


# --------------------------------------------------------------------------
# point sets and thickenings: one scalar ``edge_point`` per spec, a set of
# points for deduplication, and one ``_merge_open`` per edge, kept frozen as
# the reference the columnar ``point_set`` and the array ``thickening`` in
# ``ghgraph.graph`` must match exactly


def vertex_point(G, v):
    if v not in G.vertex_index:
        raise gg.PointNotOnGraph(f"unknown vertex id {v!r}")
    return gg.GraphPoint(vertex=v)


def edge_point(G, edge_id, offset):
    e = G.edge(edge_id)
    offset = float(offset)
    if not math.isfinite(offset) or offset < -gg.TOLERANCE or offset > e.length + gg.TOLERANCE:
        raise gg.PointNotOnGraph(
            f"offset {offset} outside [0, {e.length}] on edge {edge_id!r}"
        )
    if offset <= gg.TOLERANCE:
        return gg.GraphPoint(vertex=e.u)
    if offset >= e.length - gg.TOLERANCE:
        return gg.GraphPoint(vertex=e.v)
    return gg.GraphPoint(edge=edge_id, offset=offset)


class PointSet:
    """Ordered, deduplicated points; equality and hash of the point set."""

    def __init__(self, points):
        seen = set()
        kept = []
        for p in points:
            if p not in seen:
                seen.add(p)
                kept.append(p)
        self.points = tuple(kept)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return set(self.points) == set(other.points)

    def __hash__(self):
        return hash(frozenset(self.points))


def _validate_point(G, p):
    if p.vertex is not None:
        return vertex_point(G, p.vertex)
    if p.edge is None:
        raise gg.PointNotOnGraph("point has neither vertex nor edge")
    return edge_point(G, p.edge, p.offset)


def point_set(G, specs):
    pts = []
    for s in specs:
        if isinstance(s, gg.GraphPoint):
            pts.append(_validate_point(G, s))
        elif isinstance(s, str):
            pts.append(vertex_point(G, s))
        else:
            eid, off = s
            pts.append(edge_point(G, eid, off))
    return PointSet(pts)


def _merge_open(raw):
    """Union of open intervals; merge only on strict overlap."""
    raw = sorted((lo, hi) for lo, hi in raw if hi > lo)
    if not raw:
        return ()
    merged = [list(raw[0])]
    for lo, hi in raw[1:]:
        if lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


Region = namedtuple("Region", "intervals vertices")


def thickening(G, A, r):
    """Union of open balls of radius r around the points A, edge by edge;
    reads the graph's own multi-source distance field."""
    vdist = _distance_field(G, *_point_fields(G, A)[1:])
    vertices = frozenset(v for v, d in zip(G.vertices, vdist) if d < r)
    on_edge = {}
    for p in A:
        if p.edge is not None:
            on_edge.setdefault(p.edge, []).append(p.offset)
    intervals = {}
    for e in G.edges:
        raw = []
        du = float(vdist[G.vertex_index[e.u]])
        dv = float(vdist[G.vertex_index[e.v]])
        if r - du > 0.0:
            raw.append((0.0, min(e.length, r - du)))
        if r - dv > 0.0:
            raw.append((max(0.0, e.length - (r - dv)), e.length))
        for t in on_edge.get(e.id, ()):
            raw.append((max(0.0, t - r), min(e.length, t + r)))
        merged = _merge_open(raw)
        if merged:
            intervals[e.id] = merged
    return Region(intervals, vertices)


# --------------------------------------------------------------------------
# component count: the union-find with path halving that the array label
# hooking replaced, frozen as its reference


def component_count(n, a, b):
    """Connected components of the graph on nodes 0..n-1 with links a[i]-b[i]."""
    root = list(range(n))
    count = n
    for x, y in zip(a, b):
        while root[x] != x:
            root[x] = x = root[root[x]]
        while root[y] != y:
            root[y] = y = root[root[y]]
        if x != y:
            root[x] = y
            count -= 1
    return count


# --------------------------------------------------------------------------
# region connectivity and the interval GH value: the union-find over
# intervals and vertices, and the graph supremum on a one-edge graph over
# the subset's span, kept frozen as the references the connected-components
# call and the closed-form midpoint scan must match exactly


def region_is_connected(G, W):
    """True iff W is path-connected, by union-find over its fragments."""
    parent: dict[object, object] = {}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx is not ry:
            parent[rx] = ry

    for v in W.vertices:
        parent[("v", v)] = ("v", v)
    for eid, ivs in W.intervals.items():
        e = G.edge(eid)
        for k, (lo, hi) in enumerate(ivs):
            node = ("i", eid, k)
            parent[node] = node
            if lo == 0.0 and e.u in W.vertices:
                union(node, ("v", e.u))
            if hi == e.length and e.v in W.vertices:
                union(node, ("v", e.v))
    if not parent:
        return True
    roots = {find(x) for x in parent}
    return len(roots) == 1


def interval_gh_exact(a, b, X):
    """GH distance between [a, b] and the coordinates X (all within
    TOLERANCE of [a, b]): the larger of half the overhang and the supremum
    on a one-edge graph over X's span."""
    xs = sorted(min(max(float(x), a), b) for x in X)
    c, d = xs[0], xs[-1]
    overhang = (c - a + b - d) / 2.0
    if d - c <= gg.TOLERANCE:
        inner = 0.0
    else:
        sub = gg.build_graph(["u", "v"], [("e", "u", "v", d - c)])
        inner = hausdorff_graph_to_set(sub, point_set(sub, [("e", x - c) for x in xs]))
    return max(overhang, inner)


def random_subset(G, rng, npts):
    """npts uniform points of G: an edge by length, then an offset on it."""
    ids, lengths = G.edge_ids, G.edge_length.tolist()
    specs = []
    for _ in range(npts):
        k = rng.choices(range(len(ids)), weights=lengths)[0]
        specs.append((ids[k], rng.random() * lengths[k]))
    return point_set(G, specs)


# --------------------------------------------------------------------------
# exact GH search: the float forward-check tables, kept frozen as the
# reference the pair-bitmask search in ``ghgraph.oracle`` must match exactly


def _pair_value(f, g, DX, DY):
    xs = list(range(len(f))) + list(g)
    ys = list(f) + list(range(len(g)))
    sub = np.abs(DX[np.ix_(xs, xs)] - DY[np.ix_(ys, ys)])
    return float(sub.max())


def _seed_assignments(DX, DY):
    n, m = DX.shape[0], DY.shape[0]
    ecc_x = DX.max(axis=1)
    ecc_y = DY.max(axis=1)
    f1 = [int(np.argmin(np.abs(ecc_y - ecc_x[i]))) for i in range(n)]
    g1 = [int(np.argmin(np.abs(ecc_x - ecc_y[j]))) for j in range(m)]
    order_x = sorted(range(n), key=lambda i: (float(DX[i].sum()), i))
    order_y = sorted(range(m), key=lambda j: (float(DY[j].sum()), j))
    f2 = [0] * n
    for rank, i in enumerate(order_x):
        f2[i] = order_y[min(m - 1, rank * m // n)]
    g2 = [0] * m
    for rank, j in enumerate(order_y):
        g2[j] = order_x[min(n - 1, rank * n // m)]
    return [(f1, g1), (f2, g2)]


def gh_forward_check(DXa, DYa):
    """(value, witness pairs, nodes): the lexicographic branch-and-bound over
    map pairs (f, g) with float forward-check tables and no work guard.

    ``nodes`` counts every candidate assignment the scan looked at, pruned
    or not; a guard below it stops the search, a guard at it does not.
    """
    DXa, DYa = np.asarray(DXa, dtype=float), np.asarray(DYa, dtype=float)
    n, m = DXa.shape[0], DYa.shape[0]
    DX = [[float(v) for v in row] for row in DXa]
    DY = [[float(v) for v in row] for row in DYa]

    best_val = math.inf
    for f, g in _seed_assignments(DXa, DYa):
        best_val = min(best_val, _pair_value(f, g, DXa, DYa))
    best_wit = None

    f_assign = [0] * n
    g_assign = [0] * m
    nodes = 0

    # FM[i][j]: distortion floor if f-slot i takes j, from assigned f-slots;
    # CR[k][i0]: floor if g-slot k takes i0, from assigned f-slots;
    # GM[k][i0]: the same from assigned g-slots.
    FM = [[0.0] * m for _ in range(n)]
    CR = [[0.0] * n for _ in range(m)]
    GM = [[0.0] * n for _ in range(m)]

    def blocked(bound):
        return bound > best_val or (bound == best_val and best_wit is not None)

    def search_g(k, partial):
        nonlocal best_val, best_wit, nodes
        if k == m:
            if partial < best_val or best_wit is None:
                best_val = partial
                best_wit = (tuple(f_assign), tuple(g_assign))
            return
        row_cr = CR[k]
        row_gm = GM[k]
        for i0 in range(n):
            nodes += 1
            delta = row_cr[i0] if row_cr[i0] > row_gm[i0] else row_gm[i0]
            bound = partial if partial > delta else delta
            if blocked(bound):
                continue
            g_assign[k] = i0
            dxi0 = DX[i0]
            saved_gm = [GM[k2][:] for k2 in range(k + 1, m)]
            dead = False
            for k2 in range(k + 1, m):
                row2 = GM[k2]
                crow2 = CR[k2]
                dyk = DY[k][k2]
                floor = math.inf
                for i2 in range(n):
                    v = dxi0[i2] - dyk
                    if v < 0.0:
                        v = -v
                    if v > row2[i2]:
                        row2[i2] = v
                    eff = row2[i2] if row2[i2] > crow2[i2] else crow2[i2]
                    if eff < floor:
                        floor = eff
                if blocked(bound if bound > floor else floor):
                    dead = True
                    break
            if not dead:
                search_g(k + 1, bound)
            for off, row_copy in enumerate(saved_gm):
                GM[k + 1 + off] = row_copy

    def search_f(i, partial):
        nonlocal nodes
        if i == n:
            search_g(0, partial)
            return
        row = FM[i]
        for j in range(m):
            nodes += 1
            bound = partial if partial > row[j] else row[j]
            if blocked(bound):
                continue
            f_assign[i] = j
            dxi = DX[i]
            dyj = DY[j]
            saved_fm = [FM[i2][:] for i2 in range(i + 1, n)]
            saved_cr = [CR[k][:] for k in range(m)]
            dead = False
            for i2 in range(i + 1, n):
                row2 = FM[i2]
                dx = dxi[i2]
                floor = math.inf
                for j2 in range(m):
                    v = dx - dyj[j2]
                    if v < 0.0:
                        v = -v
                    if v > row2[j2]:
                        row2[j2] = v
                    if row2[j2] < floor:
                        floor = row2[j2]
                if blocked(bound if bound > floor else floor):
                    dead = True
                    break
            if not dead:
                for k in range(m):
                    rowc = CR[k]
                    dyk = DY[j][k]
                    floor = math.inf
                    for i0 in range(n):
                        v = dxi[i0] - dyk
                        if v < 0.0:
                            v = -v
                        if v > rowc[i0]:
                            rowc[i0] = v
                        if rowc[i0] < floor:
                            floor = rowc[i0]
                    if blocked(bound if bound > floor else floor):
                        dead = True
                        break
            if not dead:
                search_f(i + 1, bound)
            for off, row_copy in enumerate(saved_fm):
                FM[i + 1 + off] = row_copy
            for k in range(m):
                CR[k] = saved_cr[k]

    search_f(0, 0.0)
    f_fin, g_fin = best_wit
    pairs = sorted(set((i, f_fin[i]) for i in range(n)) | set((g_fin[j], j) for j in range(m)))
    return best_val / 2.0, tuple(pairs), nodes
