"""Certificate text pinned as literals: theorem tags, kinds, op tags,
hypothesis descriptions and 12-digit values, as the CLI emits them.

Each case runs ``best_bound`` and the public theorem functions that apply
to its graph, and compares ``cli._certificate_doc`` of every certificate
with the literal rows below. Together the cases hold every theorem and
every kind: exact, lower bound and inapplicable.
"""

import math

import pytest

import ghgraph as gg
from ghgraph.cli import _certificate_doc

PI = math.pi


def _graphs():
    return {
        "segment": gg.segment_graph(0.0, 2.0),
        "star": gg.star_graph([1.0, 1.0, 2.0]),
        "circle": gg.circle_graph(),
        "theta": gg.theta_graph(3.0, 4.0, 5.0),
        "lollipop": gg.build_graph(["p", "q"], [("loop", "p", "p", 3.0), ("stick", "p", "q", 1.0)]),
    }


# case name -> (graph, X specs or net radius, Y specs or net radius or None)
_THIRDS = [("loop", 2 * PI * i / 3) for i in range(3)]
CASES = {
    "segment-ends": ("segment", ["u", "v"], None),
    "segment-mid": ("segment", [("seg", 1.0)], None),
    "segment-pair": ("segment", ["u", "v"], 0.1),
    "segment-pair-inapplicable": ("segment", [("seg", 1.0)], ["u", "v"]),
    "star-center": ("star", ["c"], None),
    "star-leaves": ("star", ["v1", "v2", "v3"], None),
    "star-pair": ("star", ["v1", "v2", "v3"], ["c", "v3"]),
    "circle-thirds": ("circle", _THIRDS, None),
    "circle-antipodes": ("circle", [("loop", 0.0), ("loop", PI)], None),
    "circle-net": ("circle", 0.25, None),
    "circle-pair": ("circle", _THIRDS, 0.25),
    "circle-pair-inapplicable": ("circle", [("loop", 0.0)], [("loop", 0.0), ("loop", PI)]),
    "theta-ends": ("theta", ["p", "q"], None),
    "theta-net": ("theta", 0.15, None),
    "theta-pair": ("theta", ["p", "q"], 0.15),
    "theta-pair-inapplicable": ("theta", ["p"], ["p", "q"]),
    "lollipop-joint": ("lollipop", ["p"], None),
    "lollipop-far": ("lollipop", [("loop", 1.5)], None),
    "lollipop-pair": ("lollipop", ["p", "q"], 0.05),
    "lollipop-pair-inapplicable": ("lollipop", [("loop", 1.5)], 0.05),
}


def _instance(name):
    graph, xs, ys = CASES[name]
    G = _graphs()[graph]

    def subset(spec):
        return gg.epsilon_net(G, spec) if isinstance(spec, float) else gg.point_set(G, spec)

    return G, subset(xs), None if ys is None else subset(ys)


# the public functions whose certificate carries each theorem tag
_PUBLIC = {
    "tree-equality": [gg.tree_equality, gg.graph_bound],
    "tree-pair": [gg.tree_pair_bound, gg.graph_pair_bound],
    "circle": [gg.circle_bound],
    "circle-pair": [gg.circle_pair_bound],
    "graph": [gg.graph_bound],
    "graph-pair": [gg.graph_pair_bound],
}

# hypothesis descriptions, each as the CLI prints it
TREE_LEAVES = "d_H(T, X) strictly exceeds directed d(boundary(T), X)"
TREE_PAIR_LEAVES = "d_H(X, Y) strictly exceeds directed d(boundary(T), X) + eps"
EPS_TREE = "eps = d_H(T, Y)"
CIRCLE_PAIR_POSITIVE = "min{d_H(X,Y) - 2 eps, L/6 - eps} is positive"
EPS_CIRCLE = "eps = d_H(circle, Y)"
GRAPH_LEAVES = "d_H(G, X) strictly exceeds directed d(boundary(G), X)"
GRAPH_PAIR_POSITIVE = "min{d_H(X,Y) - 2 eps, e(G)/12 - eps} is positive"
EPS_GRAPH = "eps = d_H(G, Y)"

# (theorem, kind, op, value, upper_bound, ((description, left, relation, right, satisfied), ...)),
# in best_bound's order
EXPECTED = {
    'segment-ends': [
        ('tree-equality', 'exact-value', 'tree_equality', 1.0, 1.0, (
            (TREE_LEAVES, 1.0, '>', 0.0, True),
        )),
        ('interval-exact', 'exact-value', 'interval_gh_exact', 1.0, 1.0, ()),
        ('diameter', 'lower-bound', 'diameter_bound', 0.0, 1.0, ()),
    ],
    'segment-mid': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.0, 1.0, ()),
        ('interval-exact', 'exact-value', 'interval_gh_exact', 1.0, 1.0, ()),
        ('tree-equality', 'inapplicable', 'tree_equality', 0.0, 1.0, (
            (TREE_LEAVES, 1.0, '>', 1.0, False),
        )),
    ],
    'segment-pair': [
        ('tree-pair', 'lower-bound', 'tree_pair_bound', 0.8, 1.0, (
            (TREE_PAIR_LEAVES, 1.0, '>', 0.1, True),
            (EPS_TREE, 0.1, '=', 0.1, True),
        )),
        ('diameter', 'lower-bound', 'diameter_bound', 0.0, 1.0, ()),
    ],
    'segment-pair-inapplicable': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.0, 1.0, ()),
        ('tree-pair', 'inapplicable', 'tree_pair_bound', 0.0, 1.0, (
            (TREE_PAIR_LEAVES, 1.0, '>', 2.0, False),
            (EPS_TREE, 1.0, '=', 1.0, True),
        )),
    ],
    'star-center': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.5, 2.0, ()),
        ('tree-equality', 'inapplicable', 'tree_equality', 0.0, 2.0, (
            (TREE_LEAVES, 2.0, '>', 2.0, False),
        )),
    ],
    'star-leaves': [
        ('tree-equality', 'exact-value', 'tree_equality', 1.5, 1.5, (
            (TREE_LEAVES, 1.5, '>', 0.0, True),
        )),
        ('diameter', 'lower-bound', 'diameter_bound', 0.0, 1.5, ()),
    ],
    'star-pair': [
        ('diameter', 'lower-bound', 'diameter_bound', 0.5, 1.0, ()),
        ('tree-pair', 'inapplicable', 'tree_pair_bound', 0.0, 1.0, (
            (TREE_PAIR_LEAVES, 1.0, '>', 1.0, False),
            (EPS_TREE, 1.0, '=', 1.0, True),
        )),
    ],
    'circle-thirds': [
        ('circle', 'exact-value', 'circle_bound', 1.0471975512, 1.0471975512, ()),
        ('graph', 'lower-bound', 'graph_bound', 0.523598775598, 1.0471975512, ()),
        ('diameter', 'lower-bound', 'diameter_bound', 0.523598775598, 1.0471975512, ()),
    ],
    'circle-antipodes': [
        ('circle', 'lower-bound', 'circle_bound', 1.0471975512, 1.57079632679, ()),
        ('graph', 'lower-bound', 'graph_bound', 0.523598775598, 1.57079632679, ()),
        ('diameter', 'lower-bound', 'diameter_bound', 0.0, 1.57079632679, ()),
    ],
    'circle-net': [
        ('circle', 'exact-value', 'circle_bound', 0.241660973353, 0.241660973353, ()),
        ('graph', 'exact-value', 'graph_bound', 0.241660973353, 0.241660973353, ()),
        ('diameter', 'lower-bound', 'diameter_bound', 0.120830486677, 0.241660973353, ()),
    ],
    'circle-pair': [
        ('circle-pair', 'lower-bound', 'circle_pair_bound', 0.483321946706, 0.966643893412, (
            (CIRCLE_PAIR_POSITIVE, 0.483321946706, '>', 0.0, True),
            (EPS_CIRCLE, 0.241660973353, '=', 0.241660973353, True),
        )),
        ('diameter', 'lower-bound', 'diameter_bound', 0.402768288922, 0.966643893412, ()),
        ('graph-pair', 'lower-bound', 'graph_pair_bound', 0.281937802245, 0.966643893412, (
            (GRAPH_PAIR_POSITIVE, 0.281937802245, '>', 0.0, True),
            (EPS_GRAPH, 0.241660973353, '=', 0.241660973353, True),
        )),
    ],
    'circle-pair-inapplicable': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.57079632679, 3.14159265359, ()),
        ('circle-pair', 'inapplicable', 'circle_pair_bound', 0.0, 3.14159265359, (
            (CIRCLE_PAIR_POSITIVE, -0.523598775598, '>', 0.0, False),
            (EPS_CIRCLE, 1.57079632679, '=', 1.57079632679, True),
        )),
        ('graph-pair', 'inapplicable', 'graph_pair_bound', 0.0, 3.14159265359, (
            (GRAPH_PAIR_POSITIVE, -1.0471975512, '>', 0.0, False),
            (EPS_GRAPH, 1.57079632679, '=', 1.57079632679, True),
        )),
    ],
    'theta-ends': [
        ('diameter', 'lower-bound', 'diameter_bound', 0.75, 2.5, ()),
        ('graph', 'lower-bound', 'graph_bound', 0.25, 2.5, ()),
    ],
    'theta-net': [
        ('graph', 'exact-value', 'graph_bound', 0.15, 0.15, ()),
        ('diameter', 'lower-bound', 'diameter_bound', 0.0525210084034, 0.15, ()),
    ],
    'theta-pair': [
        ('diameter', 'lower-bound', 'diameter_bound', 0.697478991597, 2.35294117647, ()),
        ('graph-pair', 'lower-bound', 'graph_pair_bound', 0.1, 2.35294117647, (
            (GRAPH_PAIR_POSITIVE, 0.1, '>', 0.0, True),
            (EPS_GRAPH, 0.15, '=', 0.15, True),
        )),
    ],
    'theta-pair-inapplicable': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.5, 3.0, ()),
        ('graph-pair', 'inapplicable', 'graph_pair_bound', 0.0, 3.0, (
            (GRAPH_PAIR_POSITIVE, -2.25, '>', 0.0, False),
            (EPS_GRAPH, 2.5, '=', 2.5, True),
        )),
    ],
    'lollipop-joint': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.25, 1.5, ()),
        ('graph', 'lower-bound', 'graph_bound', 0.25, 1.5, (
            (GRAPH_LEAVES, 1.5, '>', 1.0, True),
        )),
    ],
    'lollipop-far': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.25, 2.5, ()),
        ('graph', 'inapplicable', 'graph_bound', 0.0, 2.5, (
            (GRAPH_LEAVES, 2.5, '>', 2.5, False),
        )),
    ],
    'lollipop-pair': [
        ('diameter', 'lower-bound', 'diameter_bound', 0.75, 1.5, ()),
        ('graph-pair', 'lower-bound', 'graph_pair_bound', 0.2, 1.5, (
            (GRAPH_LEAVES, 1.5, '>', 0.0, True),
            (GRAPH_PAIR_POSITIVE, 0.2, '>', 0.0, True),
            (EPS_GRAPH, 0.05, '=', 0.05, True),
        )),
    ],
    'lollipop-pair-inapplicable': [
        ('diameter', 'lower-bound', 'diameter_bound', 1.25, 2.5, ()),
        ('graph-pair', 'inapplicable', 'graph_pair_bound', 0.0, 2.5, (
            (GRAPH_LEAVES, 2.5, '>', 2.5, False),
            (GRAPH_PAIR_POSITIVE, 0.2, '>', 0.0, True),
            (EPS_GRAPH, 0.05, '=', 0.05, True),
        )),
    ],
}


def _doc(theorem, kind, op, value, upper_bound, hypotheses):
    doc = {
        "theorem": theorem,
        "kind": kind,
        "value": {"op": op, "value": value},
        "hypotheses": [
            {
                "description": description,
                "left": {"op": op, "value": left},
                "relation": relation,
                "right": {"op": op, "value": right},
                "satisfied": satisfied,
            }
            for description, left, relation, right, satisfied in hypotheses
        ],
    }
    if upper_bound is not None:
        doc["upper_bound"] = {"op": op, "value": upper_bound}
    return doc


@pytest.mark.parametrize("name", list(CASES))
def test_certificate_docs_match_literals(name):
    G, X, Y = _instance(name)
    expected = [_doc(*row) for row in EXPECTED[name]]
    assert [_certificate_doc(c) for c in gg.best_bound(G, X, Y)] == expected
    for doc in expected:
        for fn in _PUBLIC.get(doc["theorem"], []):
            cert = fn(G, X) if Y is None else fn(G, X, Y)
            assert _certificate_doc(cert) == doc, fn.__name__


def test_cases_cover_every_theorem_and_kind():
    # every (theorem, kind) pair a certificate can take
    E, L, I = gg.EXACT_VALUE, gg.LOWER_BOUND, gg.INAPPLICABLE
    assert {row[:2] for rows in EXPECTED.values() for row in rows} == {
        ("tree-equality", E), ("tree-equality", I), ("tree-pair", L), ("tree-pair", I),
        ("circle", E), ("circle", L), ("circle-pair", L), ("circle-pair", I),
        ("graph", E), ("graph", L), ("graph", I), ("graph-pair", L), ("graph-pair", I),
        ("diameter", L), ("interval-exact", E),
    }
