"""Hausdorff distances between subsets of a metric graph, computed exactly.

Every distance to a finite set starts from its distance field, the
distance from each vertex to the set, given by one multi-source graph
search; a point then leaves its edge through an endpoint or reaches the
set along the edge. Distances from the whole graph (or from a region given
by edge intervals) are suprema over the continuum: on each edge the
distance to a finite source set is a lower envelope of functions that are
affine with slopes +1 or -1, so the supremum sits at an endpoint or where
an ascending piece crosses a descending one. Those crossings form a small
closed-form candidate set per edge; the candidates of all edges are built
and evaluated exactly in one array pass, and nothing is sampled.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRegion, EmptySet
from .graph import (
    EdgeIntervalSet,
    MetricGraph,
    PointSet,
    _distance_field,
    _fields,
    _fields_from_arrays,
    _same_edge_gap,
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
# {(l-s) + d(v,A), t - s}, with t over the offsets of A on e: per edge 0, l
# and (l + d(v,A) - d(u,A))/2; per source t, (t - d(u,A))/2 and
# (l + d(v,A) + t)/2; per pair of neighbouring sources their midpoint. The
# source t itself and an end of an excluded interval [lo, hi] would also
# qualify, but the distance is 0 at a source and the interval holds its own
# ends, so neither can raise the supremum. The candidates of all edges are
# evaluated at once.


def _sup_distance(G: MetricGraph, fa, excluded=None) -> float:
    """sup over the graph of the distance to the sources whose ``_fields``
    are fa, taken as 0 on the closed intervals ``excluded`` = (edge, lo, hi)."""
    vdist = _distance_field(G, fa)
    if not G.edges:
        return float(vdist.max())
    u, v, l = G.edge_u, G.edge_v, G.edge_length
    au, av = vdist[u], vdist[v]
    src_e, src_t = fa[0], fa[3]
    keys = np.unique(src_e[src_e >= 0] + 1j * src_t[src_e >= 0])
    te, t = keys.real.astype(np.int64), keys.imag
    pair = te[1:] == te[:-1]
    edges = np.arange(len(l))
    ce = np.concatenate([edges, edges, edges, te, te, te[1:][pair]])
    cs = np.concatenate(
        [
            np.zeros(len(l)),
            l,
            (l + av - au) / 2.0,
            (t - au[te]) / 2.0,
            (l[te] + av[te] + t) / 2.0,
            (t[:-1][pair] + t[1:][pair]) / 2.0,
        ]
    )
    keep = (0.0 <= cs) & (cs <= l[ce])
    ce, cs = ce[keep], cs[keep]
    val = np.minimum(cs + au[ce], (l[ce] - cs) + av[ce])
    val = np.minimum(val, _same_edge_gap(ce, cs, keys))
    if excluded is not None:
        # s lies in some [lo, hi] of its edge iff more of that edge's
        # intervals start at or before s than end before it; a region's
        # intervals are sorted and disjoint per edge, so both keys are sorted
        xe, lo, hi = excluded
        q = ce + 1j * cs
        starts = np.searchsorted(xe + 1j * lo, q, side="right")
        ends = np.searchsorted(xe + 1j * hi, q, side="left")
        val[starts > ends] = 0.0
    return float(np.max(val, initial=0.0))


def hausdorff_graph_to_set(G: MetricGraph, A: PointSet) -> float:
    """sup over all points of the graph of the distance to the finite set A.

    Equals the Hausdorff distance between the whole graph and A, since the
    other direction vanishes.
    """
    if len(A) == 0:
        raise EmptySet("Hausdorff distance to an empty point set")
    return _sup_distance(G, _fields(G, A))


def _region_sources(G: MetricGraph, W: EdgeIntervalSet):
    """``_fields`` of W's vertices and of its interval ends, snapped to the
    edge's vertices as ``edge_point`` does, and the intervals as
    (edge, lo, hi) columns. A region built on another graph is read by its
    ids."""
    if W._graph is not G:
        W = region(G, W.intervals, W.vertices)
    edge, off = np.concatenate([W.edge, W.edge]), np.concatenate([W.lo, W.hi])
    edge, w, off, _ = _snapped(G, edge, np.full(len(edge), -1), off)
    fa = _fields_from_arrays(
        G,
        np.concatenate([np.full(len(W.vertex), -1), edge]),
        np.concatenate([W.vertex, w]),
        np.concatenate([np.zeros(len(W.vertex)), off]),
    )
    return fa, (W.edge, W.lo, W.hi)


def hausdorff_graph_to_region(G: MetricGraph, W: EdgeIntervalSet) -> float:
    """sup over the graph of the distance to the closure of the region W."""
    if W.is_empty:
        raise EmptyRegion("Hausdorff distance to an empty region")
    fa, excluded = _region_sources(G, W)
    return _sup_distance(G, fa, excluded)


def directed_hausdorff_boundary(G: MetricGraph, A: PointSet) -> float:
    """sup over degree-one vertices of the distance to A; 0 when none exist."""
    if len(A) == 0:
        raise EmptySet("Hausdorff distance from the boundary to an empty set")
    leaves = G.vertex_degree == 1
    if not leaves.any():
        return 0.0
    return float(_distance_field(G, _fields(G, A))[leaves].max())
