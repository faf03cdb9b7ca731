"""Extremal instances and dense samples on metric graphs.

Two families of witnesses live here. The star family produces a tree and
two subsets whose Hausdorff distances to the tree differ by a factor of n
even though the subsets are isometric to each other, so no Hausdorff-style
quantity can control the GH distance from below on trees without extra
hypotheses. The six-point circle family produces a subset of the circle
whose GH distance to the circle is exactly pi/3 while its Hausdorff
distance is pi/3 + epsilon, witnessed by an explicit arc correspondence of
distortion 2*pi/3.

Generators verify their own guarantees numerically before returning and
raise ConstructionVerificationFailed otherwise, so a returned instance is
always a certified fixture.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ConstructionVerificationFailed,
    EpsilonOutOfRange,
    GuardExceeded,
    NonPositiveEpsilon,
    NotACorrespondence,
    PointOutsideInterval,
    ValidationError,
)
from .graph import (
    TOLERANCE,
    EdgeIntervalSet,
    MetricGraph,
    PointSet,
    build_graph,
    _on_graph,
    circle_circumference,
    point_set,
    region,
)
from .hausdorff import hausdorff_graph_to_region, hausdorff_graph_to_set

__all__ = [
    "circle_graph",
    "segment_graph",
    "star_graph",
    "theta_graph",
    "star_counterexample",
    "region_net",
    "ArcCorrespondence",
    "circle_six_point",
    "arc_correspondence_distortion",
    "epsilon_net",
    "grid_coordinates",
    "grid_interval",
]

# The most points a net or a grid, or rays a star, is built with; checked
# before anything is allocated.
POINT_GUARD = 2_000_000

# --------------------------------------------------------------------------
# small graph builders


def circle_graph(circumference: float = 2.0 * math.pi) -> MetricGraph:
    """A circle: one vertex, one self-loop of the given circumference."""
    return build_graph(["o"], [("loop", "o", "o", float(circumference))])


def segment_graph(a: float, b: float) -> MetricGraph:
    """The interval [a, b] as a single edge; offsets measure x - a."""
    if not a < b:
        raise ValidationError(f"segment needs a < b, got [{a}, {b}]")
    return build_graph(["u", "v"], [("seg", "u", "v", float(b) - float(a))])


def star_graph(lengths: Sequence[float]) -> MetricGraph:
    """A wedge of segments: center c, rays r1..rk to leaves v1..vk."""
    if len(lengths) == 0:
        raise ValidationError("star needs at least one ray")
    vertices = ["c"] + [f"v{i}" for i in range(1, len(lengths) + 1)]
    edges = [
        (f"r{i}", "c", f"v{i}", float(l)) for i, l in enumerate(lengths, start=1)
    ]
    return build_graph(vertices, edges)


def theta_graph(l1: float, l2: float, l3: float) -> MetricGraph:
    """Two vertices joined by three parallel edges."""
    return build_graph(
        ["p", "q"],
        [("e1", "p", "q", float(l1)), ("e2", "p", "q", float(l2)), ("e3", "p", "q", float(l3))],
    )


# --------------------------------------------------------------------------
# the star counterexample


def star_counterexample(
    n: int,
) -> tuple[MetricGraph, EdgeIntervalSet, EdgeIntervalSet]:
    """Tree T plus two isometric subsets with Hausdorff distances 1 and 1/n.

    T is a star with rays of lengths 1 + t/n for t = 1..n. X keeps every
    ray whole except the longest (length 2), truncated to length 1;
    X_centered shortens every ray by 1/n. Both subsets are wedges of rays
    with the same length multiset {1, 1 + 1/n, ..., 1 + (n-1)/n}, hence
    isometric, yet d_H(T, X) = 1 while d_H(T, X_centered) = 1/n.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"star counterexample needs an integer n >= 2, got {n}")
    if n > POINT_GUARD:
        raise GuardExceeded(f"star guard of {POINT_GUARD} rays exceeded: {n} rays")
    lengths = [1.0 + t / n for t in range(1, n + 1)]
    T = star_graph(lengths)

    x_intervals = {f"r{t}": [(0.0, lengths[t - 1])] for t in range(1, n)}
    x_intervals[f"r{n}"] = [(0.0, 1.0)]
    X = region(T, x_intervals, ["c"] + [f"v{t}" for t in range(1, n)])

    xc_intervals = {
        f"r{t}": [(0.0, lengths[t - 1] - 1.0 / n)] for t in range(1, n + 1)
    }
    X_centered = region(T, xc_intervals, ["c"])

    h_x = hausdorff_graph_to_region(T, X)
    h_xc = hausdorff_graph_to_region(T, X_centered)
    if abs(h_x - 1.0) > TOLERANCE or abs(h_xc - 1.0 / n) > TOLERANCE:
        raise ConstructionVerificationFailed(
            f"star instance failed its Hausdorff check: d_H(T,X)={h_x!r}, "
            f"d_H(T,X')={h_xc!r}, expected 1 and {1.0 / n!r}"
        )
    return T, X, X_centered


def region_net(G: MetricGraph, W: EdgeIntervalSet, delta: float) -> PointSet:
    """A deterministic delta-net of the closure of a region.

    Each interval is sampled with uniform spacing at most 2*delta including
    both endpoints; region vertices are included as points.
    """
    if not delta > 0.0:
        raise NonPositiveEpsilon(f"delta must be positive, got {delta}")
    pts: list = sorted(W.vertices)
    spans = [(eid, lo, hi) for eid, ivs in sorted(W.intervals.items()) for lo, hi in ivs]
    ends = point_set(G, pts + [(eid, x) for eid, lo, hi in spans for x in (lo, hi)])
    for (eid, lo, hi), m in zip(spans, _steps([hi - lo for _, lo, hi in spans], delta, len(ends))):
        pts += _spaced(eid, lo, hi, m)
    return point_set(G, pts)


def _steps(spans: list[float], eps: float, ends: int) -> list[int]:
    """Steps of at most 2*eps across each span, at least one. Raises
    GuardExceeded when the net, ``ends`` distinct span ends and other
    points plus the steps' inner ends, would exceed POINT_GUARD points."""
    ratios = [span / (2.0 * eps) for span in spans]
    if max(ratios, default=0.0) <= POINT_GUARD:
        steps = [max(1, math.ceil(r)) for r in ratios]
        count = ends + sum(steps) - len(steps)
        if count <= POINT_GUARD:
            return steps
    else:  # that span's inner ends alone exceed the guard; its ratio may be too big to round
        count = ends + sum(max(r, 1.0) - 1.0 for r in ratios)
    raise GuardExceeded(f"net guard of {POINT_GUARD} points exceeded: {count:.3g} points")


def _spaced(eid: str, lo: float, hi: float, m: int) -> list[tuple[str, float]]:
    """Points of edge eid across [lo, hi], both ends included, m uniform steps apart."""
    step = (hi - lo) / m
    return [(eid, min(lo + k * step, hi)) for k in range(m + 1)]


# --------------------------------------------------------------------------
# the six-point circle instance


@dataclass(frozen=True)
class ArcCorrespondence:
    """Closed arcs of the circle, each assigned to one sample point index.

    Valid when the arcs cover the whole circumference and every sample
    index receives at least one arc; then relating each arc's points to
    its sample point is a correspondence between the circle and the sample.
    """

    assignments: tuple[tuple[tuple[float, float], int], ...]

    def __iter__(self):
        return iter(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)


def circle_six_point(epsilon: float) -> tuple[PointSet, ArcCorrespondence]:
    """Six circle points with d_H = pi/3 + epsilon but d_GH = pi/3.

    The points sit at cyclic gaps (pi/3, pi/3, pi/3, pi/6 - epsilon,
    2*pi/3 + 2*epsilon, pi/6 - epsilon); the returned arc correspondence
    has distortion exactly 2*pi/3, so the GH distance is at most pi/3 while
    the largest gap forces d_H = pi/3 + epsilon. Both guarantees are
    re-measured at construction time, and a failure raises instead of
    returning a bad instance.
    """
    eps = float(epsilon)
    if not 0.0 < eps < math.pi / 6.0:
        raise EpsilonOutOfRange(
            f"epsilon must lie strictly inside (0, pi/6), got {epsilon}"
        )
    L = 2.0 * math.pi
    G = circle_graph(L)

    pos_d = 0.0
    pos_f = math.pi / 3.0
    pos_c = 2.0 * math.pi / 3.0
    pos_e = pos_c + math.pi / 3.0
    pos_a = pos_e + (math.pi / 6.0 - eps)
    pos_b = pos_a + 2.0 * math.pi / 3.0 + 2.0 * eps
    X = point_set(G, [("loop", t) for t in (pos_d, pos_f, pos_c, pos_e, pos_a, pos_b)])
    idx_d, idx_f, idx_c, idx_e, idx_a, idx_b = range(6)

    s = math.pi / 6.0 + eps
    cuts = [0.0, s, 2.0 * s, math.pi, math.pi + s, math.pi + 2.0 * s, L]
    targets = [idx_d, idx_c, idx_a, idx_e, idx_f, idx_b]
    R = ArcCorrespondence(
        tuple(((cuts[k], cuts[k + 1]), targets[k]) for k in range(6))
    )

    h = hausdorff_graph_to_set(G, X)
    want_h = math.pi / 3.0 + eps
    if abs(h - want_h) > TOLERANCE:
        raise ConstructionVerificationFailed(
            f"six-point instance: d_H measured {h!r}, expected {want_h!r}"
        )
    dis = arc_correspondence_distortion(R, X, G)
    want_dis = 2.0 * math.pi / 3.0
    if abs(dis - want_dis) > TOLERANCE:
        raise ConstructionVerificationFailed(
            f"six-point instance: distortion measured {dis!r}, expected {want_dis!r}"
        )
    return X, R


def _arc_segments(lo: float, hi: float, L: float) -> list[tuple[float, float]]:
    # normalize a closed arc to non-wrapping segments inside [0, L]
    length = hi - lo
    start = lo % L
    end = start + length
    if end <= L:
        return [(start, end)]
    return [(start, L), (0.0, end - L)]


def _circular(x: float, L: float) -> float:
    """Distance of points an offset x apart: 0 at multiples of L, L/2 halfway."""
    d = abs(x) % L
    return min(d, L - d)


def _meets(a: float, a2: float, b: float, b2: float, L: float) -> bool:
    """Whether closed arcs [a, a2] and [b, b2] meet: their offsets hold a multiple of L."""
    return b - a2 <= L * math.floor((b2 - a) / L)


def arc_correspondence_distortion(
    R: ArcCorrespondence, X: PointSet, G: MetricGraph
) -> float:
    """Exact distortion of an arc-to-sample correspondence on a circle.

    The offsets q - p from a point p of the arc [a, a'] to a point q of
    the arc [b, b'] fill the interval [b - a', b' - a], and the distance
    between p and q is a tent function of the offset: 0 at multiples of
    the circumference L, L/2 halfway between. So the farthest pair is L/2
    apart when the interval holds an odd multiple of L/2, the nearest pair
    0 apart when it holds a multiple of L, and otherwise both sit at the
    interval's ends. An arc paired with itself is the case of equal arcs.
    """
    L = circle_circumference(G)
    theta = _on_graph(G, X)._offset.tolist()  # 0 at the circle's one vertex
    if len(R) == 0:
        raise NotACorrespondence("no arcs")
    arcs = []
    for (lo, hi), idx in R:
        lo, hi = float(lo), float(hi)
        if not -TOLERANCE <= hi - lo <= L + TOLERANCE:  # NaN and inf fail too
            raise NotACorrespondence(f"malformed arc ({lo}, {hi})")
        if not (isinstance(idx, numbers.Integral) and 0 <= idx < len(X)):
            raise NotACorrespondence(f"arc assigned to unknown sample index {idx}")
        arcs.append((lo, max(lo, hi), int(idx)))  # an arc reversed within TOLERANCE is a point
    if {idx for _, _, idx in arcs} != set(range(len(X))):
        raise NotACorrespondence("some sample index receives no arc")
    reach = 0.0
    for lo, hi in sorted(seg for lo, hi, _ in arcs for seg in _arc_segments(lo, hi, L)):
        if lo > reach + TOLERANCE:
            raise NotACorrespondence("arcs leave part of the circle uncovered")
        reach = max(reach, hi)
    if reach < L - TOLERANCE:
        raise NotACorrespondence("arcs leave part of the circle uncovered")
    worst, half = 0.0, L / 2.0
    for k, (a, a2, i) in enumerate(arcs):
        for b, b2, j in arcs[k:]:
            # the interval's ends are the end pairs (a', b) and (a, b'), read at their positions
            ends = (_circular(b % L - a2 % L, L), _circular(b2 % L - a % L, L))
            far = half if _meets(a + half, a2 + half, b, b2, L) else max(ends)
            near = 0.0 if _meets(a, a2, b, b2, L) else min(ends)
            c = _circular(theta[i] - theta[j], L)
            worst = max(worst, far - c, c - near)
    return worst


# --------------------------------------------------------------------------
# nets and grids


def epsilon_net(G: MetricGraph, eps: float) -> PointSet:
    """A deterministic point set with d_H(G, net) <= eps.

    Each edge is subdivided uniformly with spacing at most 2*eps, endpoints
    included, so no point of the graph is farther than eps from the net;
    a vertex on no edge (the graph is then that one point) joins as itself.
    The guarantee is re-measured before returning.
    """
    if not eps > 0.0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {eps}")
    pts: list = [v for v, k in zip(G.vertices, G.vertex_degree.tolist()) if k == 0]
    lengths = G.edge_length.tolist()
    # every vertex is an edge's end or joins as itself
    for eid, length, m in zip(G.edge_ids, lengths, _steps(lengths, eps, len(G.vertices))):
        pts += _spaced(eid, 0.0, length, m)
    net = point_set(G, pts)
    measured = hausdorff_graph_to_set(G, net)
    if measured > eps + TOLERANCE:
        raise ConstructionVerificationFailed(
            f"net misses coverage: d_H measured {measured!r} > eps {eps!r}"
        )
    return net


def grid_coordinates(a: float, b: float, h: float) -> tuple[float, ...]:
    """Coordinates a, a+h, ... with b appended (clamped) as the last point."""
    if not -math.inf < a < b < math.inf:
        raise PointOutsideInterval(f"grid needs finite a < b, got [{a}, {b}]")
    if not h > 0.0:
        raise NonPositiveEpsilon(f"grid step must be positive, got {h}")
    points = (b - a) / h + 1.0  # the grid has at most ceil(points) points
    if points > POINT_GUARD:
        raise GuardExceeded(f"grid guard of {POINT_GUARD} points exceeded: {points:.3g} points")
    out = []
    k, x = 0, float(a)  # not a + 0 * h, which is NaN for h = inf
    while x < b - TOLERANCE:
        out.append(x)
        k += 1
        x = a + k * h
    out.append(float(b))
    return tuple(out)


def grid_interval(a: float, b: float, h: float) -> PointSet:
    """The grid as points on segment_graph(a, b); offsets are x - a."""
    xs = grid_coordinates(a, b, h)
    return point_set(segment_graph(a, b), [("seg", x - a) for x in xs])
