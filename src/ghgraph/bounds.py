"""Certified Gromov-Hausdorff lower bounds and exact values on metric graphs.

Every bound is returned as a BoundCertificate carrying the measured
quantities behind it. A certificate is never silently weakened: when a
hypothesis fails the kind becomes "inapplicable" and the failed comparison
stays on record.

Each statement applies one of two rules to measured distances. Capped:
d_GH(G, X) = d_H(G, X) if d_H(G, X) <= cap, else d_GH(G, X) >= cap, with cap
L/6 on a circle of circumference L, e(G)/12 on a graph with loops, none on a
tree. Pair: d_GH(X, Y) >= min{d_H(X, Y) - 2 eps, cap - eps} if positive, where
eps = d_H(G, Y), or d_H(X, Y) - 2 eps on a tree. Where G has leaves, d_H must
exceed the leaf-to-X distance by a tolerance margin, so a tie certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptySet, NotATree, PointOutsideInterval, ValidationError
from .graph import (
    TOLERANCE,
    MetricGraph,
    PointSet,
    _is_circle,
    _is_segment,
    _is_tree,
    _on_graph,
    boundary,
    circle_circumference,
    graph_diameter,
    set_diameter,
    smallest_nonterminal_edge,
)
from .hausdorff import (
    directed_hausdorff_boundary,
    hausdorff_graph_to_set,
    hausdorff_sets,
)
from .oracle import FiniteMetricSpace

__all__ = [
    "LOWER_BOUND",
    "EXACT_VALUE",
    "INAPPLICABLE",
    "Hypothesis",
    "BoundCertificate",
    "diameter_bound",
    "tree_equality",
    "tree_pair_bound",
    "circle_bound",
    "circle_pair_bound",
    "graph_bound",
    "graph_pair_bound",
    "interval_gh_exact",
    "best_bound",
]

LOWER_BOUND = "lower-bound"
EXACT_VALUE = "exact-value"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class Hypothesis:
    """One measured comparison backing (or sinking) a certificate."""

    description: str
    left: float
    relation: str
    right: float
    satisfied: bool


# each theorem's tag, by the function whose statement it is
_TAGS = {
    "tree_equality": "tree-equality",
    "tree_pair_bound": "tree-pair",
    "circle_bound": "circle",
    "circle_pair_bound": "circle-pair",
    "graph_bound": "graph",
    "graph_pair_bound": "graph-pair",
    "diameter_bound": "diameter",
    "interval_gh_exact": "interval-exact",
}
_OPS = {tag: op for op, tag in _TAGS.items()}


@dataclass(frozen=True)
class BoundCertificate:
    """A certified GH lower bound or exact value.

    value is the certified quantity (0.0 for inapplicable certificates);
    upper_bound records the co-embedded Hausdorff distance when one is
    available, since the GH distance never exceeds it.
    """

    value: float
    kind: str
    theorem: str
    hypotheses: tuple[Hypothesis, ...]
    upper_bound: float | None = None

    @property
    def op(self) -> str:
        """The name of the function whose statement produced the certificate."""
        return _OPS.get(self.theorem, self.theorem)

    def applicable(self) -> bool:
        return self.kind != INAPPLICABLE


def _certified(op: str, value: float, kind: str, hyps: tuple[Hypothesis, ...], upper: float | None):
    """value of the given kind when every hypothesis holds, else inapplicable at 0."""
    if all(h.satisfied for h in hyps):
        return BoundCertificate(value, kind, _TAGS[op], hyps, upper)
    return BoundCertificate(0.0, INAPPLICABLE, _TAGS[op], hyps, upper)


def _capped(op: str, h: float, cap: float, hyps: tuple[Hypothesis, ...] = ()) -> BoundCertificate:
    """The capped rule: exact at h when h <= cap, a lower bound at cap above it."""
    if h <= cap:
        return _certified(op, h, EXACT_VALUE, hyps, h)
    return _certified(op, cap, LOWER_BOUND, hyps, h)


def _pair(
    op: str, h_xy: float, eps: float, cap: float, positive: str, density: str, hyps: tuple[Hypothesis, ...] = ()
) -> BoundCertificate:
    """The pair rule: min{h_xy - 2 eps, cap - eps} when that is positive."""
    value = min(h_xy - 2.0 * eps, cap - eps)
    hyps += (Hypothesis(positive, value, ">", 0.0, value > 0.0), Hypothesis(density, eps, "=", eps, True))
    return _certified(op, value, LOWER_BOUND, hyps, h_xy)


def _leaf_hypothesis(description: str, G: MetricGraph, X: PointSet, h: float, eps: float = 0.0) -> Hypothesis:
    """h exceeds the directed leaf-to-X distance plus eps by more than TOLERANCE."""
    b = directed_hausdorff_boundary(G, X) + eps
    return Hypothesis(description, h, ">", b, h > b + TOLERANCE)


def _tree_equality(T: MetricGraph, X: PointSet, h: float) -> BoundCertificate:
    leaves = _leaf_hypothesis("d_H(T, X) strictly exceeds directed d(boundary(T), X)", T, X, h)
    return _capped("tree_equality", h, math.inf, (leaves,))


def _tree_pair_bound(T: MetricGraph, X: PointSet, eps: float, h_xy: float) -> BoundCertificate:
    leaves = _leaf_hypothesis("d_H(X, Y) strictly exceeds directed d(boundary(T), X) + eps", T, X, h_xy, eps)
    density = Hypothesis("eps = d_H(T, Y)", eps, "=", eps, True)
    return _certified("tree_pair_bound", h_xy - 2.0 * eps, LOWER_BOUND, (leaves, density), h_xy)


def _circle_bound(L: float, h: float) -> BoundCertificate:
    return _capped("circle_bound", h, L / 6.0)


def _circle_pair_bound(L: float, eps: float, h_xy: float) -> BoundCertificate:
    positive = "min{d_H(X,Y) - 2 eps, L/6 - eps} is positive"
    return _pair("circle_pair_bound", h_xy, eps, L / 6.0, positive, "eps = d_H(circle, Y)")


def _graph_leaves(G: MetricGraph, X: PointSet, h: float) -> tuple[Hypothesis, ...]:
    if not boundary(G):
        return ()
    return (_leaf_hypothesis("d_H(G, X) strictly exceeds directed d(boundary(G), X)", G, X, h),)


def _graph_bound(G: MetricGraph, X: PointSet, h: float) -> BoundCertificate:
    if _is_tree(G):
        return _tree_equality(G, X, h)
    # a loop forces a non-terminal edge, so e(G) is defined
    return _capped("graph_bound", h, smallest_nonterminal_edge(G) / 12.0, _graph_leaves(G, X, h))


def _graph_pair_bound(G: MetricGraph, X: PointSet, eps: float, h_xy: float) -> BoundCertificate:
    if _is_tree(G):
        return _tree_pair_bound(G, X, eps, h_xy)
    leaves = _graph_leaves(G, X, hausdorff_graph_to_set(G, X)) if boundary(G) else ()
    positive = "min{d_H(X,Y) - 2 eps, e(G)/12 - eps} is positive"
    cap = smallest_nonterminal_edge(G) / 12.0
    return _pair("graph_pair_bound", h_xy, eps, cap, positive, "eps = d_H(G, Y)", leaves)


def _diam(space: FiniteMetricSpace | float) -> float:
    if isinstance(space, FiniteMetricSpace):
        return float(space.d.max())
    diam = float(space)
    if not 0.0 <= diam < math.inf:
        raise ValidationError(f"a diameter must be finite and >= 0, got {space}")
    return diam


def diameter_bound(
    DX: FiniteMetricSpace | float,
    DY: FiniteMetricSpace | float,
    upper_bound: float | None = None,
) -> BoundCertificate:
    """Half the diameter difference; a lower bound with no hypotheses."""
    value = abs(_diam(DX) - _diam(DY)) / 2.0
    return _certified("diameter_bound", value, LOWER_BOUND, (), upper_bound)


def _require_tree(T: MetricGraph) -> None:
    if not _is_tree(T):
        raise NotATree("graph contains a simple loop")


def _require_nonempty(X: PointSet, Y: PointSet | None = None) -> None:
    for label, A in (("X", X), ("Y", Y)):
        if A is not None and len(A) == 0:
            raise EmptySet(f"{label} must be nonempty")


def tree_equality(T: MetricGraph, X: PointSet) -> BoundCertificate:
    """Exact GH distance between a metric tree and a subset.

    When the Hausdorff distance strictly exceeds the directed distance from
    the leaves to the subset, the GH distance equals the Hausdorff distance.
    """
    _require_tree(T)
    _require_nonempty(X)
    return _tree_equality(T, X, hausdorff_graph_to_set(T, X))


def tree_pair_bound(T: MetricGraph, X: PointSet, Y: PointSet) -> BoundCertificate:
    """GH lower bound d_H(X, Y) - 2*eps for subsets of a common tree.

    eps is the density slack d_H(T, Y), the smallest value the theorem
    admits; the bound only degrades as eps grows.
    """
    _require_tree(T)
    _require_nonempty(X, Y)
    return _tree_pair_bound(T, X, hausdorff_graph_to_set(T, Y), hausdorff_sets(T, X, Y))


def circle_bound(G: MetricGraph, X: PointSet) -> BoundCertificate:
    """GH bound min{d_H, L/6} for a subset of a circle of circumference L.

    Exact when d_H itself is the smaller term. Stated for L = 2*pi with
    constant pi/3; other circumferences scale linearly.
    """
    L = circle_circumference(G)
    _require_nonempty(X)
    return _circle_bound(L, hausdorff_graph_to_set(G, X))


def circle_pair_bound(G: MetricGraph, X: PointSet, Y: PointSet) -> BoundCertificate:
    """GH bound min{d_H(X,Y) - 2*eps, L/6 - eps} for subsets of a circle."""
    L = circle_circumference(G)
    _require_nonempty(X, Y)
    return _circle_pair_bound(L, hausdorff_graph_to_set(G, Y), hausdorff_sets(G, X, Y))


def graph_bound(G: MetricGraph, X: PointSet) -> BoundCertificate:
    """GH bound min{d_H, e(G)/12} for a subset of a graph with loops.

    e(G) is the shortest edge whose endpoints both have degree above one.
    Loop-free graphs get the tree result. When the graph has leaves, d_H
    must strictly exceed the directed leaf-to-subset distance.
    """
    _require_nonempty(X)
    return _graph_bound(G, X, hausdorff_graph_to_set(G, X))


def graph_pair_bound(G: MetricGraph, X: PointSet, Y: PointSet) -> BoundCertificate:
    """GH bound min{d_H(X,Y) - 2*eps, e(G)/12 - eps} for co-embedded subsets."""
    _require_nonempty(X, Y)
    return _graph_pair_bound(G, X, hausdorff_graph_to_set(G, Y), hausdorff_sets(G, X, Y))


def interval_gh_exact(
    a: float,
    b: float,
    X: Iterable[float] | PointSet,
    G: MetricGraph | None = None,
) -> float:
    """Exact GH distance between the interval [a, b] and a finite subset.

    The value is the larger of half the total overhang beyond the subset's
    span [c, d] and the Hausdorff distance of X inside its own span. Accepts
    raw coordinates, or a PointSet together with its single-edge graph.
    """
    if not -math.inf < a < b < math.inf:
        raise PointOutsideInterval(f"interval needs finite a < b, got [{a}, {b}]")
    if isinstance(X, PointSet):
        if G is None:
            raise PointOutsideInterval("a PointSet needs its segment graph")
        if not _is_segment(G):
            raise NotATree("point set does not live on a single segment")
        X = _on_graph(G, X)  # a point's offset from u, or the vertex it is
        xs = (a + X._offset + np.where(X._vertex == G.edge_v[0], G.edge_length[0], 0.0)).tolist()
    else:
        xs = [float(x) for x in X]
    if not xs:
        raise EmptySet("X must be nonempty")
    for x in xs:
        if not a - TOLERANCE <= x <= b + TOLERANCE:
            raise PointOutsideInterval(f"point {x} outside [{a}, {b}]")
    xs = sorted(min(max(x, a), b) for x in xs)
    c, d = xs[0], xs[-1]
    overhang = (c - a + b - d) / 2.0
    l = d - c
    if l <= TOLERANCE:
        return max(overhang, 0.0)
    # offsets from c, snapped to an end within TOLERANCE as point_set does;
    # the farthest point of [0, l] from the set is a neighbours' midpoint
    offsets = (x - c for x in xs)
    ps = [0.0] + [0.0 if p <= TOLERANCE else l if p >= l - TOLERANCE else p for p in offsets] + [l]
    mids = [(p, (p + q) / 2.0, q) for p, q in zip(ps, ps[1:])]
    return max(overhang, max(min(m - p, q - m) for p, m, q in mids))


def best_bound(
    G: MetricGraph, X: PointSet, Y: PointSet | None = None
) -> list[BoundCertificate]:
    """Every applicable certificate for the instance, best value first.

    With Y omitted the bounds concern d_GH(G, X); with Y present they
    concern d_GH(X, Y) for the co-embedded pair. Inapplicable certificates
    are kept (value 0) so callers can see which hypotheses failed.
    """
    _require_nonempty(X, Y)
    if Y is None:
        h = hausdorff_graph_to_set(G, X)
        certs = [diameter_bound(graph_diameter(G), set_diameter(G, X), h)]
        if _is_circle(G):
            certs.append(_circle_bound(circle_circumference(G), h))
        certs.append(_graph_bound(G, X, h))
        if _is_segment(G):
            value = interval_gh_exact(0.0, float(G.edge_length[0]), X, G)
            certs.append(_capped("interval_gh_exact", value, math.inf))
    else:
        h_xy = hausdorff_sets(G, X, Y)
        eps = hausdorff_graph_to_set(G, Y)
        certs = [diameter_bound(set_diameter(G, X), set_diameter(G, Y), h_xy)]
        if _is_circle(G):
            certs.append(_circle_pair_bound(circle_circumference(G), eps, h_xy))
        certs.append(_graph_pair_bound(G, X, eps, h_xy))
    return sorted(certs, key=lambda c: -c.value)
