"""Hand-rolled reference implementations used to freeze expected test values.

Everything here is deliberately naive and independent of the code under test:
explicit Dijkstra over an adjacency list, exhaustive search over all pairs of
covering maps, double loops for distortion. The continuum diameter reference
is the scalar edge-pair loop; it reads the graph's own ``vertex_distances``,
so it checks the candidate search, not the vertex distances.
"""

from __future__ import annotations

import heapq
import itertools
import math


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
