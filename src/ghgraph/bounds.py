"""Certified Gromov-Hausdorff lower bounds and exact values on metric graphs.

Every bound is returned as a BoundCertificate carrying the measured
quantities behind it. A certificate is never silently weakened: when a
hypothesis fails the kind becomes "inapplicable" and the failed comparison
stays on record. Strict hypotheses are enforced with a tolerance margin,
so a measured equality does not certify anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptySet, NotATree, PointOutsideInterval
from .graph import (
    TOLERANCE,
    MetricGraph,
    PointSet,
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


# the function whose statement each theorem names
_THEOREM_OPS = {
    "tree-equality": "tree_equality",
    "tree-pair": "tree_pair_bound",
    "circle": "circle_bound",
    "circle-pair": "circle_pair_bound",
    "graph": "graph_bound",
    "graph-pair": "graph_pair_bound",
    "diameter": "diameter_bound",
    "interval-exact": "interval_gh_exact",
}


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
        return _THEOREM_OPS.get(self.theorem, self.theorem)

    def applicable(self) -> bool:
        return self.kind != INAPPLICABLE


def _diam(space: FiniteMetricSpace | float) -> float:
    if isinstance(space, FiniteMetricSpace):
        return float(space.d.max())
    return float(space)


def diameter_bound(
    DX: FiniteMetricSpace | float,
    DY: FiniteMetricSpace | float,
    upper_bound: float | None = None,
) -> BoundCertificate:
    """Half the diameter difference; a lower bound with no hypotheses."""
    value = abs(_diam(DX) - _diam(DY)) / 2.0
    return BoundCertificate(value, LOWER_BOUND, "diameter", (), upper_bound)


def _require_tree(T: MetricGraph) -> None:
    # connected multigraph is loop-free iff |E| = |V| - 1
    if len(T.edges) != len(T.vertices) - 1:
        raise NotATree("graph contains a simple loop")


def _require_nonempty(A: PointSet, label: str) -> None:
    if len(A) == 0:
        raise EmptySet(f"{label} must be nonempty")


def tree_equality(T: MetricGraph, X: PointSet) -> BoundCertificate:
    """Exact GH distance between a metric tree and a subset.

    When the Hausdorff distance strictly exceeds the directed distance from
    the leaves to the subset, the GH distance equals the Hausdorff distance.
    """
    _require_tree(T)
    _require_nonempty(X, "X")
    return _tree_equality(T, X, hausdorff_graph_to_set(T, X))


def _tree_equality(T: MetricGraph, X: PointSet, h: float) -> BoundCertificate:
    b = directed_hausdorff_boundary(T, X)
    ok = h > b + TOLERANCE
    hyp = Hypothesis(
        "d_H(T, X) strictly exceeds directed d(boundary(T), X)", h, ">", b, ok
    )
    if ok:
        return BoundCertificate(h, EXACT_VALUE, "tree-equality", (hyp,), h)
    return BoundCertificate(0.0, INAPPLICABLE, "tree-equality", (hyp,), h)


def tree_pair_bound(T: MetricGraph, X: PointSet, Y: PointSet) -> BoundCertificate:
    """GH lower bound d_H(X, Y) - 2*eps for subsets of a common tree.

    eps is the density slack d_H(T, Y), the smallest value the theorem
    admits; the bound only degrades as eps grows.
    """
    _require_tree(T)
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    return _tree_pair_bound(T, X, hausdorff_graph_to_set(T, Y), hausdorff_sets(T, X, Y))


def _tree_pair_bound(T: MetricGraph, X: PointSet, eps: float, h_xy: float) -> BoundCertificate:
    b = directed_hausdorff_boundary(T, X)
    ok = h_xy > b + eps + TOLERANCE
    hyps = (
        Hypothesis(
            "d_H(X, Y) strictly exceeds directed d(boundary(T), X) + eps",
            h_xy,
            ">",
            b + eps,
            ok,
        ),
        Hypothesis("eps = d_H(T, Y)", eps, "=", eps, True),
    )
    if ok:
        return BoundCertificate(h_xy - 2.0 * eps, LOWER_BOUND, "tree-pair", hyps, h_xy)
    return BoundCertificate(0.0, INAPPLICABLE, "tree-pair", hyps, h_xy)


def circle_bound(G: MetricGraph, X: PointSet) -> BoundCertificate:
    """GH bound min{d_H, L/6} for a subset of a circle of circumference L.

    Exact when d_H itself is the smaller term. Stated for L = 2*pi with
    constant pi/3; other circumferences scale linearly.
    """
    L = circle_circumference(G)
    _require_nonempty(X, "X")
    return _circle_bound(L, hausdorff_graph_to_set(G, X))


def _circle_bound(L: float, h: float) -> BoundCertificate:
    cap = L / 6.0
    if h <= cap:
        return BoundCertificate(h, EXACT_VALUE, "circle", (), h)
    return BoundCertificate(cap, LOWER_BOUND, "circle", (), h)


def circle_pair_bound(G: MetricGraph, X: PointSet, Y: PointSet) -> BoundCertificate:
    """GH bound min{d_H(X,Y) - 2*eps, L/6 - eps} for subsets of a circle."""
    L = circle_circumference(G)
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    return _circle_pair_bound(L, hausdorff_graph_to_set(G, Y), hausdorff_sets(G, X, Y))


def _circle_pair_bound(L: float, eps: float, h_xy: float) -> BoundCertificate:
    value = min(h_xy - 2.0 * eps, L / 6.0 - eps)
    ok = value > 0.0
    hyps = (
        Hypothesis(
            "min{d_H(X,Y) - 2 eps, L/6 - eps} is positive", value, ">", 0.0, ok
        ),
        Hypothesis("eps = d_H(circle, Y)", eps, "=", eps, True),
    )
    if ok:
        return BoundCertificate(value, LOWER_BOUND, "circle-pair", hyps, h_xy)
    return BoundCertificate(0.0, INAPPLICABLE, "circle-pair", hyps, h_xy)


def _boundary_hypothesis(
    G: MetricGraph, X: PointSet, h: float
) -> tuple[tuple[Hypothesis, ...], bool]:
    if not boundary(G):
        return (), True
    b = directed_hausdorff_boundary(G, X)
    ok = h > b + TOLERANCE
    return (
        Hypothesis(
            "d_H(G, X) strictly exceeds directed d(boundary(G), X)", h, ">", b, ok
        ),
    ), ok


def graph_bound(G: MetricGraph, X: PointSet) -> BoundCertificate:
    """GH bound min{d_H, e(G)/12} for a subset of a graph with loops.

    e(G) is the shortest edge whose endpoints both have degree above one.
    Loop-free graphs delegate to the tree result. When the graph has
    leaves, d_H must strictly exceed the directed leaf-to-subset distance.
    """
    if len(G.edges) == len(G.vertices) - 1:
        return tree_equality(G, X)
    _require_nonempty(X, "X")
    return _graph_bound(G, X, hausdorff_graph_to_set(G, X))


def _graph_bound(G: MetricGraph, X: PointSet, h: float) -> BoundCertificate:
    hyps, ok = _boundary_hypothesis(G, X, h)
    e = smallest_nonterminal_edge(G)
    assert e is not None  # a loop forces a non-terminal edge
    if not ok:
        return BoundCertificate(0.0, INAPPLICABLE, "graph", hyps, h)
    cap = e / 12.0
    if h <= cap:
        return BoundCertificate(h, EXACT_VALUE, "graph", hyps, h)
    return BoundCertificate(cap, LOWER_BOUND, "graph", hyps, h)


def graph_pair_bound(G: MetricGraph, X: PointSet, Y: PointSet) -> BoundCertificate:
    """GH bound min{d_H(X,Y) - 2*eps, e(G)/12 - eps} for co-embedded subsets."""
    if len(G.edges) == len(G.vertices) - 1:
        return tree_pair_bound(G, X, Y)
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    return _graph_pair_bound(
        G, X, hausdorff_graph_to_set(G, X), hausdorff_graph_to_set(G, Y), hausdorff_sets(G, X, Y)
    )


def _graph_pair_bound(
    G: MetricGraph, X: PointSet, h_x: float, eps: float, h_xy: float
) -> BoundCertificate:
    hyps, ok = _boundary_hypothesis(G, X, h_x)
    e = smallest_nonterminal_edge(G)
    assert e is not None
    value = min(h_xy - 2.0 * eps, e / 12.0 - eps)
    positive = value > 0.0
    hyps = hyps + (
        Hypothesis(
            "min{d_H(X,Y) - 2 eps, e(G)/12 - eps} is positive",
            value,
            ">",
            0.0,
            positive,
        ),
        Hypothesis("eps = d_H(G, Y)", eps, "=", eps, True),
    )
    if ok and positive:
        return BoundCertificate(value, LOWER_BOUND, "graph-pair", hyps, h_xy)
    return BoundCertificate(0.0, INAPPLICABLE, "graph-pair", hyps, h_xy)


def _segment_data(G: MetricGraph) -> tuple[str, str, float] | None:
    if len(G.vertices) == 2 and len(G.edges) == 1:
        e = G.edges[0]
        if e.u != e.v:
            return e.u, e.v, e.length
    return None


def _segment_coordinates(G: MetricGraph, X: PointSet, a: float) -> list[float]:
    seg = _segment_data(G)
    if seg is None:
        raise NotATree("point set does not live on a single segment")
    u, v, length = seg
    out = []
    for p in X:
        if p.vertex == u:
            out.append(a)
        elif p.vertex == v:
            out.append(a + length)
        else:
            out.append(a + p.offset)
    return out


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
    if not a < b:
        raise PointOutsideInterval("interval must satisfy a < b")
    if isinstance(X, PointSet):
        if G is None:
            raise PointOutsideInterval("a PointSet needs its segment graph")
        xs = _segment_coordinates(G, X, a)
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
    _require_nonempty(X, "X")
    certs: list[BoundCertificate] = []
    is_tree = len(G.edges) == len(G.vertices) - 1
    is_circle = len(G.vertices) == 1 and len(G.edges) == 1 and G.edges[0].u == G.edges[0].v

    if Y is None:
        h = hausdorff_graph_to_set(G, X)
        certs.append(diameter_bound(graph_diameter(G), set_diameter(G, X), h))
        if is_tree:
            certs.append(_tree_equality(G, X, h))
            seg = _segment_data(G)
            if seg is not None:
                value = interval_gh_exact(0.0, seg[2], X, G)
                certs.append(
                    BoundCertificate(value, EXACT_VALUE, "interval-exact", (), value)
                )
        else:
            if is_circle:
                certs.append(_circle_bound(circle_circumference(G), h))
            certs.append(_graph_bound(G, X, h))
    else:
        _require_nonempty(Y, "Y")
        h_xy = hausdorff_sets(G, X, Y)
        eps = hausdorff_graph_to_set(G, Y)
        certs.append(
            diameter_bound(set_diameter(G, X), set_diameter(G, Y), h_xy)
        )
        if is_tree:
            certs.append(_tree_pair_bound(G, X, eps, h_xy))
        else:
            if is_circle:
                certs.append(_circle_pair_bound(circle_circumference(G), eps, h_xy))
            h_x = hausdorff_graph_to_set(G, X)
            certs.append(_graph_pair_bound(G, X, h_x, eps, h_xy))

    return sorted(certs, key=lambda c: -c.value)
