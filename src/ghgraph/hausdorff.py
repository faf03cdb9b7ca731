"""Hausdorff distances between subsets of a metric graph, computed exactly.

Every distance to a finite set starts from its distance field, the
distance from each vertex to the set, given by one multi-source graph
search; a point then leaves its edge through an endpoint or reaches the
set along the edge. Distances from the whole graph (or from a region given
by edge intervals) are suprema over the continuum: on each edge the
distance to a finite source set is a lower envelope of functions that are
affine with slopes +1 or -1, so the supremum sits at an endpoint or where
an ascending piece crosses a descending one. Those crossings form a small
closed-form candidate set, which is evaluated exactly; nothing is sampled.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import EmptyRegion, EmptySet
from .graph import (
    EdgeIntervalSet,
    GraphPoint,
    MetricGraph,
    PointSet,
    _distance_field,
    _fields,
    _set_distances,
    boundary,
    edge_point,
)

__all__ = [
    "directed_hausdorff_sets",
    "hausdorff_sets",
    "hausdorff_graph_to_set",
    "hausdorff_graph_to_region",
    "directed_hausdorff_boundary",
]


def _fields_of_both(G: MetricGraph, A: PointSet, B: PointSet):
    if len(A) == 0 or len(B) == 0:
        raise EmptySet("Hausdorff distance against an empty point set")
    return _fields(G, A), _fields(G, B)


def directed_hausdorff_sets(G: MetricGraph, A: PointSet, B: PointSet) -> float:
    """sup over a in A of the distance from a to the nearest point of B."""
    fa, fb = _fields_of_both(G, A, B)
    return float(_set_distances(G, fa, fb).max())


def hausdorff_sets(G: MetricGraph, A: PointSet, B: PointSet) -> float:
    """Symmetric Hausdorff distance: the larger of the two directed values."""
    fa, fb = _fields_of_both(G, A, B)
    return float(max(_set_distances(G, fa, fb).max(), _set_distances(G, fb, fa).max()))


# --------------------------------------------------------------------------
# distances from the continuum

# On an edge e = (u, v, l), d(s, A) is the lower envelope given above
# _distance_field in graph.py. Its candidate maxima are crossings between
# the ascending pieces {s + d(u,A), s - t} and the descending ones
# {(l-s) + d(v,A), t - s}, with t over the offsets of A on e.


def _edge_envelope_max(
    l: float,
    au: float,
    av: float,
    ts: list[float],
    excluded: list[tuple[float, float]] | None = None,
) -> float:
    def value(s: float) -> float:
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


def _sup_distance_to_sources(
    G: MetricGraph,
    sources: PointSet,
    excluded_by_edge: dict[str, list[tuple[float, float]]] | None = None,
) -> float:
    vdist = _distance_field(G, _fields(G, sources))
    if not G.edges:
        return float(vdist.max())
    on_edge: dict[str, list[float]] = {}
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


def hausdorff_graph_to_set(G: MetricGraph, A: PointSet) -> float:
    """sup over all points of the graph of the distance to the finite set A.

    Equals the Hausdorff distance between the whole graph and A, since the
    other direction vanishes.
    """
    if len(A) == 0:
        raise EmptySet("Hausdorff distance to an empty point set")
    return _sup_distance_to_sources(G, A)


def hausdorff_graph_to_region(G: MetricGraph, W: EdgeIntervalSet) -> float:
    """sup over the graph of the distance to the closure of the region W."""
    if W.is_empty:
        raise EmptyRegion("Hausdorff distance to an empty region")
    pts: list[GraphPoint] = [GraphPoint(vertex=v) for v in W.vertices]
    excluded: dict[str, list[tuple[float, float]]] = {}
    for eid, ivs in W.intervals.items():
        for lo, hi in ivs:
            pts.append(edge_point(G, eid, lo))
            pts.append(edge_point(G, eid, hi))
            excluded.setdefault(eid, []).append((lo, hi))
    sources = PointSet(pts)
    return _sup_distance_to_sources(G, sources, excluded)


def directed_hausdorff_boundary(G: MetricGraph, A: PointSet) -> float:
    """sup over degree-one vertices of the distance to A; 0 when none exist."""
    if len(A) == 0:
        raise EmptySet("Hausdorff distance from the boundary to an empty set")
    leaves = boundary(G)
    if not leaves:
        return 0.0
    field = _distance_field(G, _fields(G, A))
    return float(field[[G.vertex_index[v] for v in leaves]].max())
