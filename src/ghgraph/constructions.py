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
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ConstructionVerificationFailed,
    EpsilonOutOfRange,
    NonPositiveEpsilon,
    NotACorrespondence,
    PointNotOnGraph,
    PointOutsideInterval,
    ValidationError,
)
from .graph import (
    TOLERANCE,
    EdgeIntervalSet,
    MetricGraph,
    PointSet,
    build_graph,
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
    for eid, ivs in sorted(W.intervals.items()):
        for lo, hi in ivs:
            span = hi - lo
            m = max(1, math.ceil(span / (2.0 * delta)))
            step = span / m
            for k in range(m + 1):
                pts.append((eid, min(lo + k * step, hi)))
    return point_set(G, pts)


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


def circle_six_point(
    epsilon: float,
    split: tuple[float, float] | None = None,
) -> tuple[PointSet, ArcCorrespondence]:
    """Six circle points with d_H = pi/3 + epsilon but d_GH = pi/3.

    The points sit at cyclic gaps (pi/3, pi/3, g1, g2, 2*pi/3 + 2*epsilon,
    pi/6 - epsilon) where g1 + g2 = pi/2 - epsilon; the returned arc
    correspondence has distortion exactly 2*pi/3, so the GH distance is at
    most pi/3 while the largest gap forces d_H = pi/3 + epsilon. The split
    defaults to (pi/3, pi/6 - epsilon); both guarantees are re-measured at
    construction time and failures raise instead of returning a bad
    instance (most other splits fail the distortion check).
    """
    eps = float(epsilon)
    if not 0.0 < eps < math.pi / 6.0:
        raise EpsilonOutOfRange(
            f"epsilon must lie strictly inside (0, pi/6), got {epsilon}"
        )
    if split is None:
        g1, g2 = math.pi / 3.0, math.pi / 6.0 - eps
    else:
        g1, g2 = float(split[0]), float(split[1])
        if g1 <= 0.0 or g2 <= 0.0:
            raise ValidationError("both split gaps must be positive")
        if abs((g1 + g2) - (math.pi / 2.0 - eps)) > TOLERANCE:
            raise ValidationError(
                "split gaps must sum to pi/2 - epsilon to close the circle"
            )
    L = 2.0 * math.pi
    G = circle_graph(L)

    pos_d = 0.0
    pos_f = math.pi / 3.0
    pos_c = 2.0 * math.pi / 3.0
    pos_e = pos_c + g1
    pos_a = pos_e + g2
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


def _circle_positions(X: PointSet, G: MetricGraph) -> list[float]:
    L = circle_circumference(G)
    loop_id = G.edges[0].id
    base = G.vertices[0]
    out = []
    for p in X:
        if p.vertex is not None:
            if p.vertex != base:
                raise PointNotOnGraph(f"point vertex {p.vertex!r} not on this circle")
            out.append(0.0)
        else:
            if p.edge != loop_id:
                raise PointNotOnGraph(f"point edge {p.edge!r} not on this circle")
            out.append(p.offset % L)
    return out


def _arc_segments(lo: float, hi: float, L: float) -> list[tuple[float, float]]:
    # normalize a closed arc to non-wrapping segments inside [0, L]
    length = hi - lo
    start = lo % L
    end = start + length
    if end <= L:
        return [(start, end)]
    return [(start, L), (0.0, end - L)]


def _segments_intersect(A: list[tuple[float, float]], B: list[tuple[float, float]]) -> bool:
    for a1, a2 in A:
        for b1, b2 in B:
            if a1 <= b2 and b1 <= a2:
                return True
    return False


def _circ_dist(a: float, b: float, L: float) -> float:
    d = abs(a - b) % L
    return min(d, L - d)


def arc_correspondence_distortion(
    R: ArcCorrespondence, X: PointSet, G: MetricGraph
) -> float:
    """Exact distortion of an arc-to-sample correspondence on a circle.

    For two closed arcs, the extreme distances between their points are
    reached either at endpoint combinations or, for the maximum, at the
    half-circumference cap when one arc meets the antipode of the other;
    overlap makes the minimum zero. Every case is closed-form, so the
    supremum over the continuum is computed without discretization.
    """
    L = circle_circumference(G)
    theta = _circle_positions(X, G)
    if len(R) == 0:
        raise NotACorrespondence("no arcs")
    half = L / 2.0

    arcs: list[dict] = []
    for (lo, hi), idx in R:
        lo, hi = float(lo), float(hi)
        if hi < lo - TOLERANCE or hi - lo > L + TOLERANCE:
            raise NotACorrespondence(f"malformed arc ({lo}, {hi})")
        if not 0 <= int(idx) < len(X):
            raise NotACorrespondence(f"arc assigned to unknown sample index {idx}")
        length = min(max(hi - lo, 0.0), L)
        segs = _arc_segments(lo, hi, L)
        ends = (lo % L, hi % L)
        arcs.append(
            {
                "idx": int(idx),
                "length": length,
                "segs": segs,
                "anti": _arc_segments(lo + half, hi + half, L),
                "ends": ends,
            }
        )

    if {a["idx"] for a in arcs} != set(range(len(X))):
        raise NotACorrespondence("some sample index receives no arc")
    merged: list[tuple[float, float]] = sorted(
        seg for a in arcs for seg in a["segs"]
    )
    reach = 0.0
    for lo, hi in merged:
        if lo > reach + TOLERANCE:
            raise NotACorrespondence("arcs leave part of the circle uncovered")
        reach = max(reach, hi)
    if reach < L - TOLERANCE:
        raise NotACorrespondence("arcs leave part of the circle uncovered")

    worst = 0.0
    for i, A in enumerate(arcs):
        worst = max(worst, min(A["length"], half))  # pair of an arc with itself
        for B in arcs[i + 1 :]:
            c0 = _circ_dist(theta[A["idx"]], theta[B["idx"]], L)
            if _segments_intersect(A["anti"], B["segs"]):
                maxd = half
            else:
                maxd = max(
                    _circ_dist(pa, pb, L) for pa in A["ends"] for pb in B["ends"]
                )
            if _segments_intersect(A["segs"], B["segs"]):
                mind = 0.0
            else:
                mind = min(
                    _circ_dist(pa, pb, L) for pa in A["ends"] for pb in B["ends"]
                )
            worst = max(worst, maxd - c0, c0 - mind)
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
    for e in G.edges:
        m = max(1, math.ceil(e.length / (2.0 * eps)))
        step = e.length / m
        for k in range(m + 1):
            pts.append((e.id, min(k * step, e.length)))
    net = point_set(G, pts)
    measured = hausdorff_graph_to_set(G, net)
    if measured > eps + TOLERANCE:
        raise ConstructionVerificationFailed(
            f"net misses coverage: d_H measured {measured!r} > eps {eps!r}"
        )
    return net


def grid_coordinates(a: float, b: float, h: float) -> tuple[float, ...]:
    """Coordinates a, a+h, ... with b appended (clamped) as the last point."""
    if not a < b:
        raise PointOutsideInterval(f"grid needs a < b, got [{a}, {b}]")
    if not h > 0.0:
        raise NonPositiveEpsilon(f"grid step must be positive, got {h}")
    out = []
    k = 0
    while True:
        x = a + k * h
        if x >= b - TOLERANCE:
            break
        out.append(x)
        k += 1
    out.append(float(b))
    return tuple(out)


def grid_interval(a: float, b: float, h: float) -> PointSet:
    """The grid as points on segment_graph(a, b); offsets are x - a."""
    G = segment_graph(a, b)
    return point_set(G, [("seg", x - a) for x in grid_coordinates(a, b, h)])
