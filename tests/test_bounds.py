import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghgraph as gg
from ghgraph import bounds as bounds_mod

import _brute
from _brute import gh_by_enumeration

TAU = 1e-9
PI = math.pi


def _space(G, specs):
    return gg.restrict_metric(G, gg.point_set(G, specs))


# --------------------------------------------------------------------------
# diameter bound


def test_diameter_bound_values():
    a = gg.FiniteMetricSpace.from_line([0.0, 4.0])
    b = gg.FiniteMetricSpace.from_line([0.0, 2.0])
    cert = gg.diameter_bound(a, b)
    assert cert.value == pytest.approx(1.0)
    assert cert.kind == gg.LOWER_BOUND
    assert cert.hypotheses == ()
    assert gg.diameter_bound(a, a).value == 0.0
    # raw diameters are accepted too: one point vs unit segment
    assert gg.diameter_bound(0.0, 1.0).value == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [math.nan, -3.0, math.inf, -math.inf])
def test_diameter_bound_rejects_bad_raw_diameters(bad):
    # a diameter is finite and >= 0; anything else made a NaN, inf or
    # meaningless lower-bound certificate
    for pair in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(gg.ValidationError, match="finite and >= 0"):
            gg.diameter_bound(*pair)


# --------------------------------------------------------------------------
# tree theorems


def test_tree_equality_exact(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    cert = gg.tree_equality(segment02, X)
    assert cert.kind == gg.EXACT_VALUE
    assert cert.value == pytest.approx(1.0)
    assert cert.upper_bound == pytest.approx(1.0)
    assert all(h.satisfied for h in cert.hypotheses)
    # exactness cross-checked against the finite oracle on a fine grid
    grid = gg.grid_interval(0.0, 2.0, 0.1)
    Gs = gg.segment_graph(0.0, 2.0)
    v, _ = gg.gh_exact(gg.restrict_metric(Gs, grid), _space(Gs, [("seg", 0.0), ("seg", 2.0)]))
    assert abs(cert.value - v) <= 0.1


def test_tree_equality_inapplicable_on_tie(segment02):
    X = gg.point_set(segment02, [("seg", 1.0)])
    cert = gg.tree_equality(segment02, X)
    assert cert.kind == gg.INAPPLICABLE
    assert any(not h.satisfied for h in cert.hypotheses)


def test_tree_equality_rejects_loops(circle):
    X = gg.point_set(circle, ["o"])
    with pytest.raises(gg.NotATree):
        gg.tree_equality(circle, X)
    with pytest.raises(gg.NotATree):
        gg.tree_pair_bound(circle, X, X)


def test_tree_pair_bound_net(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    Y = gg.epsilon_net(segment02, 0.05)
    cert = gg.tree_pair_bound(segment02, X, Y)
    assert cert.kind == gg.LOWER_BOUND
    # d_H(X, Y) = 1 at the midpoint, minus twice the net slack
    assert cert.value == pytest.approx(0.9)
    assert cert.upper_bound == pytest.approx(1.0)
    v, _ = gg.gh_exact(
        gg.restrict_metric(segment02, X), gg.restrict_metric(segment02, Y)
    )
    assert cert.value <= v + TAU


def test_tree_pair_bound_inapplicable_cases(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    assert gg.tree_pair_bound(segment02, X, X).kind == gg.INAPPLICABLE
    # X missing near the leaf v: boundary term swallows the bound
    X0 = gg.point_set(segment02, ["u"])
    Y = gg.epsilon_net(segment02, 0.05)
    assert gg.tree_pair_bound(segment02, X0, Y).kind == gg.INAPPLICABLE


def test_tree_pair_monotone_under_sparser_nets(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    values = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        cert = gg.tree_pair_bound(segment02, X, gg.epsilon_net(segment02, eps))
        values.append(cert.value)
    # denser nets can only improve the certified value
    assert all(a <= b + TAU for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# circle theorems


def test_circle_bound_three_spaced_points(circle):
    X = gg.point_set(circle, [("loop", 2 * PI * i / 3) for i in range(3)])
    cert = gg.circle_bound(circle, X)
    assert cert.kind == gg.EXACT_VALUE
    assert cert.value == pytest.approx(PI / 3, abs=TAU)
    assert cert.upper_bound == pytest.approx(PI / 3, abs=TAU)


def test_circle_bound_six_point_instance(circle):
    X, _ = gg.circle_six_point(0.1)
    cert = gg.circle_bound(circle, X)
    assert cert.kind == gg.LOWER_BOUND
    assert cert.value == pytest.approx(PI / 3, abs=TAU)
    assert cert.upper_bound == pytest.approx(PI / 3 + 0.1, abs=TAU)


def test_circle_bound_dense_net_exact(circle):
    X = gg.epsilon_net(circle, 0.01)
    cert = gg.circle_bound(circle, X)
    assert cert.kind == gg.EXACT_VALUE
    assert cert.value <= 0.01 + TAU
    assert cert.value == pytest.approx(cert.upper_bound, abs=TAU)


def test_circle_bound_rejects_non_circle(theta345):
    X = gg.point_set(theta345, ["p"])
    with pytest.raises(gg.NotACircle):
        gg.circle_bound(theta345, X)
    with pytest.raises(gg.NotACircle):
        gg.circle_pair_bound(theta345, X, X)


def test_circle_pair_bound(circle):
    X = gg.point_set(circle, [("loop", 2 * PI * i / 3) for i in range(3)])
    assert gg.circle_pair_bound(circle, X, X).kind == gg.INAPPLICABLE
    Y = gg.epsilon_net(circle, 0.25)
    cert = gg.circle_pair_bound(circle, X, Y)
    assert cert.kind == gg.LOWER_BOUND
    eps = gg.hausdorff_graph_to_set(circle, Y)
    dh = gg.hausdorff_sets(circle, X, Y)
    assert cert.value == pytest.approx(min(dh - 2 * eps, PI / 3 - eps), abs=TAU)
    v, _ = gg.gh_exact(gg.restrict_metric(circle, X), gg.restrict_metric(circle, Y))
    assert cert.value <= v + TAU


def test_circle_pair_monotone_under_sparser_nets(circle):
    X = gg.point_set(circle, [("loop", 2 * PI * i / 3) for i in range(3)])
    values = []
    for eps in (PI / 6, PI / 12, PI / 24):
        cert = gg.circle_pair_bound(circle, X, gg.epsilon_net(circle, eps))
        values.append(cert.value if cert.kind != gg.INAPPLICABLE else 0.0)
    assert all(a <= b + TAU for a, b in zip(values, values[1:]))


def test_circle_scaling():
    # value and cap both scale linearly with the circumference
    lam = 2.5
    small = gg.circle_graph(2 * PI)
    big = gg.circle_graph(2 * PI * lam)
    Xs = gg.point_set(small, [("loop", 2 * PI * i / 3) for i in range(3)])
    Xb = gg.point_set(big, [("loop", lam * 2 * PI * i / 3) for i in range(3)])
    cs = gg.circle_bound(small, Xs)
    cb = gg.circle_bound(big, Xb)
    assert cb.value == pytest.approx(lam * cs.value, abs=TAU)


# --------------------------------------------------------------------------
# general graph theorem


def test_graph_bound_circle_uses_weaker_constant(circle):
    X = gg.point_set(circle, [("loop", 2 * PI * i / 3) for i in range(3)])
    cert = gg.graph_bound(circle, X)
    assert cert.kind == gg.LOWER_BOUND
    # 1/12 of the loop length, weaker than the circle-specific cap
    assert cert.value == pytest.approx(PI / 6, abs=TAU)
    assert gg.circle_bound(circle, X).value >= cert.value - TAU


def test_graph_bound_dense_net_exact(theta345):
    X = gg.epsilon_net(theta345, 0.1)
    cert = gg.graph_bound(theta345, X)
    assert cert.kind == gg.EXACT_VALUE
    assert cert.value == pytest.approx(gg.hausdorff_graph_to_set(theta345, X), abs=TAU)
    assert cert.value <= 0.1 + TAU


def test_graph_bound_boundary_hypothesis(lollipop):
    # all sample mass on the loop: the pendant leaf kills the hypothesis
    X = gg.point_set(lollipop, [("loop", 0.5), ("loop", 1.5), ("loop", 2.5)])
    cert = gg.graph_bound(lollipop, X)
    assert cert.kind == gg.INAPPLICABLE
    assert any(not h.satisfied for h in cert.hypotheses)
    # adding the leaf restores it
    X2 = gg.point_set(lollipop, [("loop", 0.5), ("loop", 1.5), ("loop", 2.5), "q"])
    assert gg.graph_bound(lollipop, X2).kind != gg.INAPPLICABLE


def test_graph_bound_delegates_on_trees(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    Y = gg.epsilon_net(segment02, 0.05)
    assert gg.graph_bound(segment02, X).theorem == "tree-equality"
    assert gg.graph_pair_bound(segment02, X, Y).theorem == "tree-pair"


def test_graph_pair_bound_formula(theta345):
    X = gg.point_set(theta345, ["p", "q"])
    Y = gg.epsilon_net(theta345, 0.15)
    cert = gg.graph_pair_bound(theta345, X, Y)
    assert cert.kind == gg.LOWER_BOUND
    eps = gg.hausdorff_graph_to_set(theta345, Y)
    dh = gg.hausdorff_sets(theta345, X, Y)
    assert cert.value == pytest.approx(min(dh - 2 * eps, 3.0 / 12 - eps), abs=TAU)


def test_graph_pair_bound_inapplicable(theta345):
    X = gg.point_set(theta345, ["p", "q"])
    assert gg.graph_pair_bound(theta345, X, X).kind == gg.INAPPLICABLE
    # sparse net: slack eats the whole 1/12 cap
    Ysparse = gg.epsilon_net(theta345, 0.5)
    assert gg.graph_pair_bound(theta345, X, Ysparse).kind == gg.INAPPLICABLE


# --------------------------------------------------------------------------
# interval corollary


def test_interval_values():
    assert gg.interval_gh_exact(0.0, 1.0, [0.5]) == pytest.approx(0.5)
    assert gg.interval_gh_exact(0.0, 1.0, [0.0, 1.0]) == pytest.approx(0.5)
    assert gg.interval_gh_exact(0.0, 2.0, [0.5, 1.5]) == pytest.approx(0.5)
    assert gg.interval_gh_exact(0.0, 1.0, [0.2, 0.8]) == pytest.approx(0.3)
    assert gg.interval_gh_exact(0.0, 1.0, [0.0, 0.5, 1.0]) == pytest.approx(0.25)


def test_interval_accepts_point_sets(segment02):
    ps = gg.point_set(segment02, [("seg", 0.5), ("seg", 1.5)])
    assert gg.interval_gh_exact(0.0, 2.0, ps, segment02) == pytest.approx(0.5)
    # the vertices sit at the ends: u at a, v at a + length
    ends = gg.point_set(segment02, ["u", "v", ("seg", 0.5)])
    assert gg.interval_gh_exact(1.0, 3.0, ends, segment02) == gg.interval_gh_exact(1.0, 3.0, [1.0, 3.0, 1.5])
    # a point the segment lacks is rejected, not read by its offset alone
    with pytest.raises(gg.PointNotOnGraph, match="unknown edge id 'loop'"):
        gg.interval_gh_exact(0.0, 2.0, gg.point_set(gg.circle_graph(), [("loop", 1.0)]), segment02)


def test_interval_errors():
    with pytest.raises(gg.PointOutsideInterval):
        gg.interval_gh_exact(0.0, 1.0, [1.5])
    for xs in ([math.nan], [0.2, math.nan, 0.5]):
        with pytest.raises(gg.PointOutsideInterval):
            gg.interval_gh_exact(0.0, 1.0, xs)
    with pytest.raises(gg.PointOutsideInterval):
        gg.interval_gh_exact(1.0, 0.0, [0.5])
    for a, b in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(gg.PointOutsideInterval, match="finite a < b"):
            gg.interval_gh_exact(a, b, [0.5])
    with pytest.raises(gg.EmptySet):
        gg.interval_gh_exact(0.0, 1.0, [])
    # a PointSet is read on its segment graph, which must be given
    ps = gg.point_set(gg.segment_graph(0.0, 1.0), [("seg", 0.5)])
    with pytest.raises(gg.PointOutsideInterval, match="needs its segment graph"):
        gg.interval_gh_exact(0.0, 1.0, ps)
    star = gg.star_graph([1.0, 1.0])
    with pytest.raises(gg.NotATree, match="single segment"):
        gg.interval_gh_exact(0.0, 2.0, gg.point_set(star, ["c"]), star)


@pytest.mark.parametrize("seed", range(5))
def test_interval_matches_grid_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    X = sorted(float(x) for x in rng.random(int(rng.integers(1, 4))))
    exact = gg.interval_gh_exact(0.0, 1.0, X)
    grid = gg.grid_interval(0.0, 1.0, 0.05)
    Gs = gg.segment_graph(0.0, 1.0)
    MX = gg.FiniteMetricSpace.from_line(X)
    v, _ = gg.gh_exact(gg.restrict_metric(Gs, grid), MX)
    assert abs(exact - v) <= 0.05


@settings(max_examples=30, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
    shift=st.floats(min_value=-5.0, max_value=5.0),
    lam=st.floats(min_value=0.1, max_value=10.0),
)
def test_interval_translation_and_scaling(xs, shift, lam):
    base = gg.interval_gh_exact(0.0, 1.0, xs)
    moved = gg.interval_gh_exact(shift, 1.0 + shift, [x + shift for x in xs])
    assert moved == pytest.approx(base, abs=1e-7)
    scaled = gg.interval_gh_exact(0.0, lam, [lam * x for x in xs])
    assert scaled == pytest.approx(lam * base, rel=1e-7, abs=1e-7)


@st.composite
def _interval_instance(draw):
    # spans from 1e-6 to 1e6; extra points within TOLERANCE of the subset's
    # own span ends, where the offsets snap, and of [a, b]; repeated points
    tol = gg.TOLERANCE
    a = draw(st.sampled_from([0.0, -1.0]) | st.floats(-1e3, 1e3))
    length = draw(st.sampled_from([1e-6, 1.0, 1e6]) | st.floats(1e-6, 1e6))
    b = a + length
    xs = draw(st.lists(st.floats(0.0, 1.0).map(lambda x: a + x * length), min_size=1, max_size=6))
    c, d = min(xs), max(xs)
    near = [c + tol / 2, c + tol, c + 2 * tol, d - tol / 2, d - tol, d - 2 * tol, a - tol / 2, b + tol / 2]
    xs += [x for x in draw(st.lists(st.sampled_from(near), max_size=3)) if a - tol <= x <= b + tol]
    xs += draw(st.lists(st.sampled_from(xs), max_size=3))
    return a, b, draw(st.permutations(xs))


@settings(max_examples=300, deadline=None)
@given(_interval_instance())
def test_interval_matches_one_edge_graph_reference(case):
    a, b, xs = case
    assert gg.interval_gh_exact(a, b, xs) == _brute.interval_gh_exact(a, b, xs)


def test_interval_agrees_with_tree_equality(segment02):
    # two certified routes to the same exact value
    X = gg.point_set(segment02, [("seg", 0.0), ("seg", 0.3), ("seg", 2.0)])
    tree = gg.tree_equality(segment02, X)
    corollary = gg.interval_gh_exact(0.0, 2.0, X, segment02)
    if tree.kind == gg.EXACT_VALUE:
        assert tree.value == pytest.approx(corollary, abs=TAU)


# --------------------------------------------------------------------------
# dispatch


def test_best_bound_segment(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    certs = gg.best_bound(segment02, X)
    tags = [c.theorem for c in certs]
    assert tags == ["tree-equality", "interval-exact", "diameter"]
    assert certs[0].value == pytest.approx(certs[1].value, abs=TAU)
    values = [c.value for c in certs]
    assert values == sorted(values, reverse=True)
    # without v in X, tree equality's hypothesis fails
    applicable = {c.theorem: c.applicable() for c in gg.best_bound(segment02, gg.point_set(segment02, ["u"]))}
    assert applicable == {"diameter": True, "interval-exact": True, "tree-equality": False}


def test_best_bound_circle(circle):
    X = gg.point_set(circle, [("loop", 2 * PI * i / 3) for i in range(3)])
    certs = {c.theorem: c for c in gg.best_bound(circle, X)}
    assert set(certs) == {"circle", "graph", "diameter"}
    assert certs["circle"].value >= certs["graph"].value - TAU


def test_best_bound_theta(theta345):
    X = gg.point_set(theta345, ["p", "q"])
    certs = gg.best_bound(theta345, X)
    assert {c.theorem for c in certs} == {"graph", "diameter"}


def test_best_bound_pair(segment02):
    X = gg.point_set(segment02, ["u", "v"])
    Y = gg.epsilon_net(segment02, 0.05)
    certs = gg.best_bound(segment02, X, Y)
    assert {c.theorem for c in certs} == {"tree-pair", "diameter"}


@pytest.mark.parametrize("graph", ["circle", "lollipop"])
def test_best_bound_computes_each_set_distance_once(graph, request, monkeypatch):
    G = request.getfixturevalue(graph)
    edge = G.edges[0].id
    X = gg.point_set(G, [(edge, 0.5), (edge, 2.0)])
    Y = gg.point_set(G, [(edge, 0.7), (edge, 1.9), (edge, 2.5)])
    calls = Counter()

    def counted(name):
        fn = getattr(bounds_mod, name)

        def wrapper(*args):
            calls[(name, *map(id, args))] += 1
            return fn(*args)

        return wrapper

    for name in ("hausdorff_graph_to_set", "hausdorff_sets"):
        monkeypatch.setattr(bounds_mod, name, counted(name))
    alone = gg.best_bound(G, X)
    assert calls == Counter([("hausdorff_graph_to_set", id(G), id(X))])
    calls.clear()
    paired = gg.best_bound(G, X, Y)
    # d_H(G, X) is measured only for the leaf hypothesis, so not on the circle
    circle = graph == "circle"
    assert calls == Counter(
        ([] if circle else [("hausdorff_graph_to_set", id(G), id(X))])
        + [("hausdorff_graph_to_set", id(G), id(Y)), ("hausdorff_sets", id(G), id(X), id(Y))]
    )
    # the shared values give the certificates the public functions give
    expected = ([gg.circle_bound(G, X)] if circle else []) + [gg.graph_bound(G, X)]
    assert [c for c in alone if c.theorem != "diameter"] == sorted(expected, key=lambda c: -c.value)
    expected = ([gg.circle_pair_bound(G, X, Y)] if circle else []) + [gg.graph_pair_bound(G, X, Y)]
    assert [c for c in paired if c.theorem != "diameter"] == sorted(expected, key=lambda c: -c.value)


@pytest.mark.parametrize("graph", ["segment02", "circle", "theta345"])
def test_theorems_reject_empty_sets(graph, request):
    G = request.getfixturevalue(graph)
    full, empty = gg.point_set(G, [G.vertices[0]]), gg.point_set(G, [])
    singles = [gg.graph_bound, gg.best_bound]
    pairs = [gg.graph_pair_bound, gg.best_bound]
    if graph == "segment02":
        singles, pairs = singles + [gg.tree_equality], pairs + [gg.tree_pair_bound]
    if graph == "circle":
        singles, pairs = singles + [gg.circle_bound], pairs + [gg.circle_pair_bound]
    for fn in singles:
        with pytest.raises(gg.EmptySet, match="X must be nonempty"):
            fn(G, empty)
    for fn in pairs:
        for X, Y, label in ((empty, full, "X"), (full, empty, "Y"), (empty, empty, "X")):
            with pytest.raises(gg.EmptySet, match=f"{label} must be nonempty"):
                fn(G, X, Y)


def test_certificate_invariants(segment02, circle, theta345):
    PI3 = [("loop", 2 * PI * i / 3) for i in range(3)]
    cases = [
        (segment02, gg.point_set(segment02, ["u", "v"]), None),
        (segment02, gg.point_set(segment02, [("seg", 1.0)]), None),
        (segment02, gg.point_set(segment02, ["u", "v"]), gg.epsilon_net(segment02, 0.1)),
        (circle, gg.point_set(circle, PI3), None),
        (circle, gg.point_set(circle, PI3), gg.epsilon_net(circle, 0.25)),
        (theta345, gg.point_set(theta345, ["p", "q"]), None),
        (theta345, gg.point_set(theta345, ["p", "q"]), gg.epsilon_net(theta345, 0.15)),
    ]
    for G, X, Y in cases:
        for cert in gg.best_bound(G, X, Y):
            if cert.kind != gg.INAPPLICABLE:
                assert all(h.satisfied for h in cert.hypotheses)
            if cert.upper_bound is not None and cert.kind != gg.INAPPLICABLE:
                assert cert.value <= cert.upper_bound + TAU
            if cert.kind == gg.EXACT_VALUE:
                assert cert.value == pytest.approx(cert.upper_bound, abs=TAU)


def test_pair_bounds_sound_vs_enumeration(circle, segment02):
    # tiny designed pair instances where full enumeration is affordable
    X = gg.point_set(segment02, ["u", "v"])
    Y = gg.point_set(segment02, [("seg", o) for o in (0.0, 0.7, 1.3, 2.0)])
    MX, MY = gg.restrict_metric(segment02, X), gg.restrict_metric(segment02, Y)
    ref = gh_by_enumeration(MX.d.tolist(), MY.d.tolist())
    cert = gg.tree_pair_bound(segment02, X, Y)
    if cert.kind != gg.INAPPLICABLE:
        assert cert.value <= ref + TAU
