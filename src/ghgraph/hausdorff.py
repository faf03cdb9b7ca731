"""Hausdorff distances between subsets of a metric graph, computed exactly.

Every distance to a finite set starts from its distance field, the
distance from each vertex to the set, given by one multi-source graph
search and kept on the set; a point then leaves its edge through an
endpoint or reaches the set along the edge. Distances from the whole
graph (or from a region given by edge intervals) are suprema over the
continuum: on each edge the distance to a finite source set is a lower
envelope of functions that are affine with slopes +1 or -1, so the
supremum sits at an endpoint or where an ascending piece crosses a
descending one. Those crossings form a small closed-form candidate set
per edge; the candidates of all edges are built and evaluated exactly in
one array pass, and nothing is sampled.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRegion, EmptySet
from .graph import (
    EdgeIntervalSet,
    MetricGraph,
    PointSet,
    _location_order,
    _on_graph,
    _set_distances,
    _snapped,
    region,
)

__all__ = [
    "directed_hausdorff_sets",
    "hausdorff_sets",
    "hausdorff_graph_to_set",
    "hausdorff_graph_to_region",
    "directed_hausdorff_boundary",
]


def _both_on(G: MetricGraph, A: PointSet, B: PointSet):
    if len(A) == 0 or len(B) == 0:
        raise EmptySet("Hausdorff distance against an empty point set")
    return _on_graph(G, A), _on_graph(G, B)


def directed_hausdorff_sets(G: MetricGraph, A: PointSet, B: PointSet) -> float:
    """sup over a in A of the distance from a to the nearest point of B."""
    return float(_set_distances(G, *_both_on(G, A, B)).max())


def hausdorff_sets(G: MetricGraph, A: PointSet, B: PointSet) -> float:
    """Symmetric Hausdorff distance: the larger of the two directed values."""
    A, B = _both_on(G, A, B)
    return float(max(_set_distances(G, A, B).max(), _set_distances(G, B, A).max()))


# --------------------------------------------------------------------------
# distances from the continuum

# On an edge e = (u, v, l), d(s, A) is the lower envelope given above
# _distance_field in graph.py. Let t_1 < ... < t_k be A's offsets on e.
# Between t_i and t_{i+1} the envelope is min(s - t_i, t_{i+1} - s): a route
# out through an end is never shorter, because d(u,A) <= t_1 and
# d(v,A) <= l - t_k. On [0, t_1] it is min(s + d(u,A), t_1 - s), and on
# [t_k, l] it is min(s - t_k, (l - s) + d(v,A)). So the candidate maxima are:
# on every edge its ends 0 and l; on an edge without sources the crossing
# (l + d(v,A) - d(u,A))/2; on an edge with sources the first crossing
# (t_1 - d(u,A))/2, the last crossing (l + d(v,A) + t_k)/2 and the midpoints
# of neighbouring sources. Each candidate's nearest sources on its edge are
# known from where it was made, so no search finds them.
#
# The value at the end 0 is d(u,A) itself, as d(u,A) <= t_1 and
# d(u,A) <= l + d(v,A); the ends therefore give the largest vertex value.
# Rounding can push only a crossing next to an end off [0, l], and there it
# is worth no more than that end. A source and an end of an excluded
# interval [lo, hi] would also qualify, but the distance is 0 at a source
# and the interval holds its own ends, so neither can raise the supremum;
# an excluded end of the edge is a source too. The candidates of all edges
# are evaluated at once, each as min(s + d(u,A), (l - s) + d(v,A), |s - t|)
# over its nearest sources t.


def _sup_distance(G: MetricGraph, A: PointSet, excluded=None) -> float:
    """sup over the graph of the distance to the set A on G, taken as 0 on
    the closed intervals ``excluded`` = (edge, lo, hi)."""
    vdist = A._distances
    l, au, av = G.edge_length, vdist[G.edge_u], vdist[G.edge_v]
    far = l + av
    # the on-edge sources by edge, then offset, closed by a sentinel source
    # on a past-the-end edge
    e, t = np.append(A._edge, len(l)), np.append(A._offset, np.inf)
    on = e >= 0
    _, e, t = _location_order(e[on], t[on], len(l) + 1)
    same = e[1:] == e[:-1]
    e, t, nxt = e[:-1], t[:-1], t[1:]
    first = np.full(len(l), np.inf)  # t_1 per edge, inf on an edge without sources
    np.minimum.at(first, e, t)
    # per edge the crossing next to u; per source the midpoint to the next
    # source on its edge, or the last crossing
    ce = np.concatenate([np.arange(len(l)), e])
    cs = np.concatenate([(np.minimum(first, far) - au) / 2.0, (t + np.where(same, nxt, far[e])) / 2.0])
    near = np.concatenate([first, t])
    after = np.concatenate([first, np.where(same, nxt, np.inf)])
    val = np.minimum(cs + au[ce], (l[ce] - cs) + av[ce])
    val = np.minimum(val, np.minimum(np.abs(cs - near), np.abs(cs - after)))
    best = vdist.max()
    if excluded is not None:
        # only a candidate above every vertex value can raise the supremum,
        # so only those are tested. s lies in some [lo, hi] of its edge iff
        # more of that edge's intervals start at or before s than end before
        # it. The complex keys edge + i end are sorted as they stand, since a
        # region's intervals are sorted and disjoint per edge; a merged order
        # would sort them on every call and leave ties at an end unordered.
        high = val > best
        ce, cs, val = ce[high], cs[high], val[high]
        xe, lo, hi = excluded
        q = ce + 1j * cs
        starts = np.searchsorted(xe + 1j * lo, q, side="right")
        ends = np.searchsorted(xe + 1j * hi, q, side="left")
        val[starts > ends] = 0.0
    return float(max(best, np.max(val, initial=0.0)))


def hausdorff_graph_to_set(G: MetricGraph, A: PointSet) -> float:
    """sup over all points of the graph of the distance to the finite set A.

    Equals the Hausdorff distance between the whole graph and A, since the
    other direction vanishes.
    """
    if len(A) == 0:
        raise EmptySet("Hausdorff distance to an empty point set")
    return _sup_distance(G, _on_graph(G, A))


def _region_sources(G: MetricGraph, W: EdgeIntervalSet):
    """W's vertices and its interval ends as one set on G, the ends snapped
    to the edge's vertices as ``edge_point`` does, and the intervals as
    (edge, lo, hi) columns. A region built on another graph is read by its
    ids."""
    if W._graph is not G:
        W = region(G, W.intervals, W.vertices)
    nv = len(W.vertex)
    edge = np.concatenate([np.full(nv, -1), W.edge, W.edge])
    vertex = np.concatenate([W.vertex, np.full(2 * len(W.edge), -1)])
    off = np.concatenate([np.zeros(nv), W.lo, W.hi])
    edge, vertex, off = _snapped(G, edge, vertex, off)
    return PointSet._from_columns(G, edge, vertex, off), (W.edge, W.lo, W.hi)


def hausdorff_graph_to_region(G: MetricGraph, W: EdgeIntervalSet) -> float:
    """sup over the graph of the distance to the closure of the region W."""
    if W.is_empty:
        raise EmptyRegion("Hausdorff distance to an empty region")
    A, excluded = _region_sources(G, W)
    return _sup_distance(G, A, excluded)


def directed_hausdorff_boundary(G: MetricGraph, A: PointSet) -> float:
    """sup over degree-one vertices of the distance to A; 0 when none exist."""
    if len(A) == 0:
        raise EmptySet("Hausdorff distance from the boundary to an empty set")
    leaves = G.vertex_degree == 1
    if not leaves.any():
        return 0.0
    return float(_on_graph(G, A)._distances[leaves].max())
