import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ghgraph as gg
from ghgraph import graph as graph_mod
from ghgraph.cli import _random_subset, main, parse_real

import _brute

PI = math.pi


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def seg_files(tmp_path):
    graph = _write(
        tmp_path / "g.json",
        {
            "vertices": ["u", "v"],
            "edges": [{"id": "seg", "u": "u", "v": "v", "length": 2.0}],
        },
    )
    ends = _write(tmp_path / "x.json", [{"vertex": "u"}, {"vertex": "v"}])
    mid = _write(tmp_path / "y.json", [{"edge": "seg", "offset": 1.0}])
    return graph, ends, mid


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# --------------------------------------------------------------------------
# parse_real


def test_parse_real_tokens():
    assert parse_real("2pi", "t") == pytest.approx(2 * PI)
    assert parse_real("pi", "t") == pytest.approx(PI)
    assert parse_real("pi/3", "t") == pytest.approx(PI / 3)
    assert parse_real("0.25", "t") == pytest.approx(0.25)
    assert parse_real(1.5, "t") == pytest.approx(1.5)
    for bad in ("pie", "2pi/0", "", None, True):
        with pytest.raises(gg.ParseError):
            parse_real(bad, "t")


# --------------------------------------------------------------------------
# hausdorff


def test_hausdorff_single_subset(capsys, seg_files):
    graph, ends, _ = seg_files
    code, doc = _run(capsys, ["hausdorff", "--graph", graph, "--subset", ends])
    assert code == 0
    assert doc["graph_to_set"] == {"op": "hausdorff_graph_to_set", "value": 1.0}
    assert doc["boundary_to_set"]["value"] == 0.0


def test_hausdorff_two_subsets(capsys, seg_files):
    graph, ends, mid = seg_files
    code, doc = _run(
        capsys,
        ["hausdorff", "--graph", graph, "--subset", ends, "--subset2", mid],
    )
    assert code == 0
    assert doc["directed_xy"]["value"] == 1.0
    assert doc["directed_yx"]["value"] == 1.0
    assert doc["symmetric"] == {"op": "hausdorff_sets", "value": 1.0}


def test_hausdorff_pi_tokens(capsys, tmp_path):
    graph = _write(
        tmp_path / "c.json",
        {
            "vertices": ["o"],
            "edges": [{"id": "loop", "u": "o", "v": "o", "length": "2pi"}],
        },
    )
    pts = _write(
        tmp_path / "p.json",
        [
            {"edge": "loop", "offset": 0},
            {"edge": "loop", "offset": "2pi/3"},
            {"edge": "loop", "offset": "4pi/3"},
        ],
    )
    code, doc = _run(capsys, ["hausdorff", "--graph", graph, "--subset", pts])
    assert code == 0
    assert doc["graph_to_set"]["value"] == pytest.approx(PI / 3, abs=1e-11)


def test_out_file_matches_stdout(capsys, seg_files, tmp_path):
    graph, ends, _ = seg_files
    out = tmp_path / "report.json"
    code = main(
        ["hausdorff", "--graph", graph, "--subset", ends, "--out", str(out)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == stdout


def test_reports_are_byte_deterministic(capsys, seg_files):
    graph, ends, mid = seg_files
    argv = ["hausdorff", "--graph", graph, "--subset", ends, "--subset2", mid]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


# --------------------------------------------------------------------------
# bound


def test_bound_segment(capsys, seg_files):
    graph, ends, _ = seg_files
    code, doc = _run(capsys, ["bound", "--graph", graph, "--subset", ends])
    assert code == 0
    certs = {c["theorem"]: c for c in doc["certificates"]}
    assert certs["tree-equality"]["kind"] == "exact-value"
    assert certs["tree-equality"]["value"]["value"] == 1.0
    assert certs["interval-exact"]["value"]["value"] == 1.0
    hyp = certs["tree-equality"]["hypotheses"][0]
    assert hyp["satisfied"] is True


def test_bound_pair(capsys, seg_files, tmp_path):
    graph, ends, _ = seg_files
    net = _write(
        tmp_path / "net.json",
        [{"edge": "seg", "offset": round(0.1 * i, 10)} for i in range(21)],
    )
    code, doc = _run(
        capsys, ["bound", "--graph", graph, "--subset", ends, "--subset2", net]
    )
    assert code == 0
    tags = [c["theorem"] for c in doc["certificates"]]
    assert "tree-pair" in tags and "diameter" in tags


# --------------------------------------------------------------------------
# oracle


def test_oracle_matrices(capsys, tmp_path):
    mx = _write(tmp_path / "mx.json", {"n": 2, "d": [0.0, 2.0, 2.0, 0.0]})
    my = _write(tmp_path / "my.json", {"n": 2, "d": [0.0, 4.0, 4.0, 0.0]})
    code, doc = _run(capsys, ["oracle", "--matrix", mx, "--matrix2", my])
    assert code == 0
    assert doc["value"] == {"op": "gh_exact", "value": 1.0}
    assert doc["distortion"]["value"] == 2.0
    pairs = {tuple(p) for p in doc["witness"]}
    assert {i for i, _ in pairs} == {0, 1} and {j for _, j in pairs} == {0, 1}


def test_oracle_graph_mode(capsys, seg_files):
    graph, ends, mid = seg_files
    code, doc = _run(
        capsys,
        ["oracle", "--graph", graph, "--subset", ends, "--subset2", mid],
    )
    assert code == 0
    assert doc["value"]["value"] == pytest.approx(1.0)


def test_oracle_requires_both_matrices(capsys, tmp_path):
    mx = _write(tmp_path / "mx.json", {"n": 2, "d": [0.0, 2.0, 2.0, 0.0]})
    assert main(["oracle", "--matrix", mx]) == 2


def test_oracle_guard_exit_code(capsys, seg_files):
    graph, ends, mid = seg_files
    code = main(
        [
            "oracle",
            "--graph",
            graph,
            "--subset",
            ends,
            "--subset2",
            mid,
            "--guard",
            "1",
        ]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    # diameters 2 and 0 give the floor; the seed map pair gives the incumbent
    assert "GH distance in [1, 1]" in captured.err


# --------------------------------------------------------------------------
# construct


def test_construct_star(capsys, tmp_path):
    prefix = str(tmp_path / "star4")
    code, doc = _run(capsys, ["construct", "star", "--n", "4", "--out", prefix])
    assert code == 0
    assert doc["verification"]["d_H_T_X"]["value"] == 1.0
    assert doc["verification"]["d_H_T_X_centered"]["value"] == 0.25
    regions = json.loads((tmp_path / "star4-x.json").read_text())
    assert "intervals" in regions and "vertices" in regions
    # the emitted graph is loadable by the other verbs
    g2 = json.loads((tmp_path / "star4-graph.json").read_text())
    assert len(g2["edges"]) == 4


def test_construct_circle6_round_trip(capsys, tmp_path):
    prefix = str(tmp_path / "six")
    code, doc = _run(
        capsys, ["construct", "circle6", "--epsilon", "0.1", "--out", prefix]
    )
    assert code == 0
    assert doc["verification"]["d_H"]["value"] == pytest.approx(PI / 3 + 0.1)
    assert doc["verification"]["distortion"]["value"] == pytest.approx(2 * PI / 3)
    # circumference survives as an exact token
    gdoc = json.loads((tmp_path / "six-graph.json").read_text())
    assert gdoc["edges"][0]["length"] == "2pi"
    corr = json.loads((tmp_path / "six-correspondence.json").read_text())
    assert sorted(c["point"] for c in corr) == list(range(6))
    # and the emitted files feed straight back into hausdorff
    code2, doc2 = _run(
        capsys,
        [
            "hausdorff",
            "--graph",
            str(tmp_path / "six-graph.json"),
            "--subset",
            str(tmp_path / "six-points.json"),
        ],
    )
    assert code2 == 0
    assert doc2["graph_to_set"]["value"] == pytest.approx(PI / 3 + 0.1, abs=1e-11)


def test_construct_circle6_epsilon_token(capsys, tmp_path):
    prefix = str(tmp_path / "six2")
    code, doc = _run(
        capsys, ["construct", "circle6", "--epsilon", "pi/24", "--out", prefix]
    )
    assert code == 0
    assert doc["verification"]["d_H"]["value"] == pytest.approx(PI / 3 + PI / 24)


def test_construct_net(capsys, seg_files, tmp_path):
    graph, _, _ = seg_files
    prefix = str(tmp_path / "n")
    code, doc = _run(
        capsys,
        ["construct", "net", "--graph", graph, "--epsilon", "0.25", "--out", prefix],
    )
    assert code == 0
    assert doc["verification"]["d_H"]["value"] <= 0.25
    pts = json.loads((tmp_path / "n-net.json").read_text())
    assert len(pts) == doc["verification"]["points"]


def test_one_point_graph_bound_and_net(capsys, tmp_path):
    graph = _write(tmp_path / "o.json", {"vertices": ["o"], "edges": []})
    point = _write(tmp_path / "x.json", [{"vertex": "o"}])
    code, doc = _run(capsys, ["bound", "--graph", graph, "--subset", point])
    assert code == 0
    certs = {c["theorem"]: c for c in doc["certificates"]}
    assert certs["diameter"]["value"]["value"] == 0.0
    prefix = str(tmp_path / "n")
    code, doc = _run(capsys, ["construct", "net", "--graph", graph, "--epsilon", "0.1", "--out", prefix])
    assert code == 0
    assert doc["verification"]["d_H"]["value"] == 0.0
    assert json.loads((tmp_path / "n-net.json").read_text()) == [{"vertex": "o"}]


def test_construct_missing_args(capsys):
    assert main(["construct", "star"]) == 2
    assert main(["construct", "circle6"]) == 2
    assert main(["construct", "net", "--epsilon", "0.1"]) == 2


def test_construct_circle6_bad_epsilon_exit(capsys):
    # out-of-range epsilon surfaces as a validation failure, not a crash
    assert main(["construct", "circle6", "--epsilon", "2.0"]) == 3


# --------------------------------------------------------------------------
# experiment


THETA_DOC = {
    "vertices": ["p", "q"],
    "edges": [
        {"id": "e1", "u": "p", "v": "q", "length": 1.0},
        {"id": "e2", "u": "p", "v": "q", "length": 1.2},
        {"id": "e3", "u": "p", "v": "q", "length": 1.4},
    ],
}


def test_experiment_ratio_deterministic(capsys, tmp_path):
    graph = _write(tmp_path / "t.json", THETA_DOC)
    argv = [
        "experiment",
        "ratio",
        "--graph",
        graph,
        "--samples",
        "3",
        "--density",
        "1.0",
        "--seed",
        "7",
    ]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 0
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["points_per_subset"] == 4
    assert len(doc["rows"]) == 3
    for row in doc["rows"]:
        assert "d_H" in row and "oracle" in row and row["certificates"]
    assert set(doc["levels"]) == {"e_over_12", "e_over_8"}


def test_experiment_guard_keeps_bracket(capsys, tmp_path):
    # a tripped oracle guard reports the [floor, incumbent] the search had
    # reached, and that bracket holds the value an unguarded run finds; the
    # guard also caps the points per subset, so it is the 4 points drawn
    # here, fewer than the 8 assignments any complete map pair needs
    graph = _write(tmp_path / "t.json", THETA_DOC)
    argv = ["experiment", "ratio", "--graph", graph, "--samples", "3", "--density", "1.0", "--seed", "7"]
    code, guarded = _run(capsys, argv + ["--guard", "4"])
    assert code == 0
    code, full = _run(capsys, argv)
    assert code == 0
    for row, ref in zip(guarded["rows"], full["rows"], strict=True):
        assert row["oracle"]["error"] == "guard-exceeded"
        lo, hi = row["oracle"]["bracket"]
        assert lo <= ref["oracle"]["value"] <= hi


def test_experiment_different_seeds_differ(capsys, tmp_path):
    graph = _write(
        tmp_path / "c.json",
        {
            "vertices": ["o"],
            "edges": [{"id": "loop", "u": "o", "v": "o", "length": 6.0}],
        },
    )
    base = ["experiment", "ratio", "--graph", graph, "--samples", "2"]
    main(base + ["--seed", "1"])
    a = capsys.readouterr().out
    main(base + ["--seed", "2"])
    b = capsys.readouterr().out
    assert a != b


@pytest.mark.parametrize("leaves", [True, False])
def test_each_set_is_searched_once_per_request(capsys, tmp_path, seg_files, monkeypatch, leaves):
    # a set keeps its distance field, so a request runs one graph search per
    # set however many distances it reads from it
    if leaves:
        graph, x, y = seg_files
    else:
        graph = _write(tmp_path / "t.json", THETA_DOC)
        x = _write(tmp_path / "tx.json", [{"vertex": "p"}, {"edge": "e2", "offset": 0.3}])
        y = _write(tmp_path / "ty.json", [{"edge": "e1", "offset": 0.5}])
    searches = []
    kernel = graph_mod._distance_field

    def counted(*args):
        searches.append(args)
        return kernel(*args)

    monkeypatch.setattr(graph_mod, "_distance_field", counted)
    g = ["--graph", graph]
    for argv, count in (
        (["bound", *g, "--subset", x], 1),
        (["bound", *g, "--subset", x, "--subset2", y], 2),
        (["hausdorff", *g, "--subset", x, "--subset2", y], 2),
        (["construct", "net", *g, "--epsilon", "0.25", "--out", str(tmp_path / "n")], 1),
    ):
        searches.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(searches) == count, argv


# --------------------------------------------------------------------------
# error handling


def test_exit_codes(capsys, tmp_path, seg_files):
    graph, ends, _ = seg_files
    assert main(["hausdorff", "--graph", "missing.json", "--subset", ends]) == 2
    bad_graph = _write(
        tmp_path / "bad.json",
        {
            "vertices": ["u", "v"],
            "edges": [{"id": "e", "u": "u", "v": "v", "length": -1.0}],
        },
    )
    assert main(["hausdorff", "--graph", bad_graph, "--subset", ends]) == 3
    empty = _write(tmp_path / "empty.json", [])
    assert main(["hausdorff", "--graph", graph, "--subset", empty]) == 3
    not_json = tmp_path / "nj.json"
    not_json.write_text("{nope")
    assert main(["hausdorff", "--graph", str(not_json), "--subset", ends]) == 2
    shape = _write(tmp_path / "shape.json", {"vertices": ["u"]})
    assert main(["hausdorff", "--graph", shape, "--subset", ends]) == 2
    ok_edges = [{"id": "e", "u": "a", "v": "b", "length": 1.0}]
    for i, doc in enumerate(
        [{"vertices": 5, "edges": ok_edges}, {"vertices": ["a", "b"], "edges": 5}, {"vertices": "ab", "edges": ok_edges}]
    ):
        g = _write(tmp_path / f"g{i}.json", doc)
        assert main(["hausdorff", "--graph", g, "--subset", ends]) == 2
    # ids are strings or numbers; null, booleans, lists and objects are not
    for i, bad in enumerate([None, True, ["x"], {"x": 1}]):
        docs = [
            {"vertices": ["a", bad], "edges": ok_edges},
            {"vertices": ["a", "b"], "edges": [dict(ok_edges[0], id=bad)]},
            {"vertices": ["a", "b"], "edges": [dict(ok_edges[0], u=bad)]},
            {"vertices": ["a", "b"], "edges": [dict(ok_edges[0], v=bad)]},
        ]
        for j, doc in enumerate(docs):
            g = _write(tmp_path / f"id{i}{j}.json", doc)
            assert main(["hausdorff", "--graph", g, "--subset", ends]) == 2
        for j, doc in enumerate([[{"vertex": bad}], [{"edge": bad, "offset": 0.5}]]):
            x = _write(tmp_path / f"ix{i}{j}.json", doc)
            assert main(["hausdorff", "--graph", graph, "--subset", x]) == 2
    numeric = _write(
        tmp_path / "numeric.json", {"vertices": [0, 1.5], "edges": [{"id": 7, "u": 0, "v": 1.5, "length": 1.0}]}
    )
    at = _write(tmp_path / "at.json", [{"vertex": 1.5}, {"edge": 7, "offset": 0.5}])
    assert main(["hausdorff", "--graph", numeric, "--subset", at]) == 0
    mx = _write(tmp_path / "mx.json", {"n": 2, "d": [0.0, 1.0, 1.0, 0.0]})
    for i, doc in enumerate(
        [{"n": "x", "d": [0.0]}, {"n": [2], "d": [0.0]}, {"n": 1.5, "d": [0.0]}, {"n": 1, "d": 5}]
    ):
        m = _write(tmp_path / f"m{i}.json", doc)
        assert main(["oracle", "--matrix", m, "--matrix2", mx]) == 2
    # random points need an edge to stand on
    point = _write(tmp_path / "point.json", {"vertices": ["o"], "edges": []})
    assert main(["experiment", "ratio", "--graph", point]) == 3
    assert "at least one edge" in capsys.readouterr().err
    # a density that is not positive, or gives no finite point count
    for density in ("nan", "inf", "1e308", "-1", "0"):
        assert main(["experiment", "ratio", "--graph", graph, "--density", density]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: density must be positive")
        assert "Traceback" not in captured.err
    # the guard caps the points per subset before any is drawn: the 2e300
    # points of a 1e300 density are only counted
    for density, guard, code in (("1e300", [], 4), ("5", ["--guard", "10"], 0), ("5.5", ["--guard", "10"], 4)):
        argv = ["experiment", "ratio", "--graph", graph, "--samples", "1", "--density", density, *guard]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 4:
            assert captured.out == ""
            assert captured.err.startswith("error: experiment guard of") and captured.err.count("\n") == 1


_EDGE = {"id": "e", "u": "a", "v": "b", "length": 1.0}


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        pytest.param(
            "graph", {"vertices": ["a", "b"], "edges": [["e", "a", "b", 1.0]]},
            "{path}: edge entries need id, u, v, length", id="edge-not-object",
        ),
        pytest.param(
            "graph", {"vertices": ["a", "b"], "edges": [{"id": "e", "u": "a", "v": "b"}]},
            "{path}: edge entries need id, u, v, length", id="edge-without-length",
        ),
        pytest.param(
            "graph", {"vertices": ["a", "b"], "edges": [dict(_EDGE, length="x")]},
            "edge length: cannot parse 'x'", id="edge-length-token",
        ),
        pytest.param("subset", {"vertex": "u"}, "{path}: point set document must be a list", id="points-not-list"),
        pytest.param("subset", ["u"], "{path}: point entries must be objects", id="point-not-object"),
        pytest.param(
            "subset", [{"edge": "seg"}], "{path}: point entry needs 'vertex' or 'edge'+'offset'", id="point-without-offset",
        ),
        pytest.param("matrix", [0.0], "{path}: matrix document needs 'n' and 'd'", id="matrix-not-object"),
        pytest.param("matrix", {"d": [0.0]}, "{path}: matrix document needs 'n' and 'd'", id="matrix-without-n"),
        pytest.param(
            "matrix", {"n": 2, "d": [0.0, 1.0, 1.0]}, "{path}: 'd' must hold n*n = 4 entries", id="matrix-short",
        ),
        pytest.param("matrix", {"n": 0, "d": []}, "{path}: 'd' must hold n*n = 0 entries", id="matrix-empty"),
    ],
)
def test_document_parse_errors(capsys, tmp_path, seg_files, kind, doc, message):
    graph, ends, _ = seg_files
    path = _write(tmp_path / "bad.json", doc)
    mx = _write(tmp_path / "mx.json", {"n": 1, "d": [0.0]})
    argv = {
        "graph": ["hausdorff", "--graph", path, "--subset", ends],
        "subset": ["hausdorff", "--graph", graph, "--subset", path],
        "matrix": ["oracle", "--matrix", path, "--matrix2", mx],
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


def test_missing_inputs_are_parse_errors(capsys, seg_files):
    graph, ends, _ = seg_files
    for argv, message in (
        (["oracle", "--graph", graph, "--subset", ends], "oracle needs either --matrix/--matrix2 or --graph/--subset/--subset2"),
        (["oracle"], "oracle needs either --matrix/--matrix2 or --graph/--subset/--subset2"),
        (["construct", "net", "--graph", graph], "construct net needs --epsilon"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _fresh_process(code, cwd, preexec_fn=None):
    """Run python code in a new interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=preexec_fn,
    )


def _field_scale_files(tmp_path):
    """A random multigraph with 2000 vertices and 4000 edges (self-loops and
    parallel edges allowed) and a set of 2000 points on it, as in the field
    workload, written as graph and subset documents."""
    rng = random.Random(0)
    V = 2000
    ends = [(i, rng.randrange(i)) for i in range(1, V)]
    ends += [(rng.randrange(V), rng.randrange(V)) for _ in range(2 * V - len(ends))]
    edges = [{"id": f"e{k}", "u": f"v{a}", "v": f"v{b}", "length": rng.uniform(0.1, 1.0)} for k, (a, b) in enumerate(ends)]
    points = [{"edge": e["id"], "offset": rng.uniform(0.0, e["length"])} for e in rng.choices(edges, k=2000)]
    graph = _write(tmp_path / "field.json", {"vertices": [f"v{i}" for i in range(V)], "edges": edges})
    return graph, _write(tmp_path / "points.json", points)


@pytest.mark.parametrize(
    "case",
    ["import", "hausdorff", "bound-one-subset", "bound-two-subsets", "oracle", "construct-net", "field-scale", "large-graph"],
)
def test_scipy_is_imported_for_large_graphs_only(seg_files, tmp_path, case):
    # every distance field that settles within the round budget runs without
    # scipy: the small fixtures' and a 2000-point set's on a 2000-vertex
    # multigraph. A field searched from one end of a 2000-vertex path needs
    # a round per edge, so scipy searches it, with the values the
    # relaxation reaches when run to the end
    graph, ends, mid = seg_files
    n = 2000
    path = {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": f"e{i}", "u": f"v{i}", "v": f"v{i + 1}", "length": 1.0} for i in range(n - 1)],
    }
    path, end = _write(tmp_path / "path.json", path), _write(tmp_path / "v0.json", [{"vertex": "v0"}])
    field_graph, field_points = _field_scale_files(tmp_path)
    argv = {
        "import": None,
        "hausdorff": ["hausdorff", "--graph", graph, "--subset", ends],
        "bound-one-subset": ["bound", "--graph", graph, "--subset", ends],
        "bound-two-subsets": ["bound", "--graph", graph, "--subset", ends, "--subset2", mid],
        "oracle": ["oracle", "--graph", graph, "--subset", ends, "--subset2", mid],
        "construct-net": ["construct", "net", "--graph", graph, "--epsilon", "0.25", "--out", "n"],
        "field-scale": ["hausdorff", "--graph", field_graph, "--subset", field_points],
        "large-graph": ["hausdorff", "--graph", path, "--subset", end],
    }[case]
    code = "import sys, ghgraph, ghgraph.cli\n"
    if argv is not None:
        code += f"assert ghgraph.cli.main({argv!r}) == 0\n"
    code += "print('scipy' in sys.modules)\n"
    if case == "large-graph":  # the field scipy searched, against the relaxation run to the end
        code += (
            "import math, numpy as np\n"
            "from ghgraph import graph\n"
            f"G = ghgraph.cli.load_graph({path!r})\n"
            f"A = ghgraph.cli.load_subset({end!r}, G)\n"
            "searched, sparse_field = [], graph._sparse_field\n"
            "graph._sparse_field = lambda *args: searched.append(1) or sparse_field(*args)\n"
            "field = A._distances\n"
            "graph._FIELD_ROUNDS = math.inf\n"
            "relaxed = graph._distance_field(G, *graph._anchors(A))\n"
            f"assert searched == [1] and np.array_equal(field, relaxed) and np.array_equal(field, np.arange({n}.0))\n"
        )
    done = _fresh_process(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(case == "large-graph")


def _cap_address_space():
    # a construction that allocates before its guard runs fails fast here
    # with a MemoryError instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "net", "--graph", "g.json", "--epsilon", "1e-300", "--out", "n"],
        ["construct", "net", "--graph", "g.json", "--epsilon", "1e-320", "--out", "n"],
        ["construct", "star", "--n", "1000000000", "--out", "s"],
    ],
    ids=["net-1e300-points", "net-past-float-range", "star-1e9-rays"],
)
def test_construct_guard_exits_before_allocating(seg_files, tmp_path, argv):
    before = set(tmp_path.iterdir())
    code = f"import sys; from ghgraph.cli import main; sys.exit(main({argv!r}))"
    done = _fresh_process(code, tmp_path, _cap_address_space)
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and " guard of 2000000 " in done.stderr
    assert done.stderr.count("\n") == 1
    assert set(tmp_path.iterdir()) == before


def test_construct_guard_counts_every_point(monkeypatch):
    # a segment of length 2 at epsilon 1/8 takes 8 steps, so 9 points
    assert gg.constructions.POINT_GUARD == 2_000_000
    G = gg.segment_graph(0.0, 2.0)
    monkeypatch.setattr(gg.constructions, "POINT_GUARD", 9)
    assert len(gg.epsilon_net(G, 0.125)) == 9
    assert len(gg.region_net(G, gg.whole_graph_region(G), 0.125)) == 9
    assert len(gg.star_counterexample(9)[0].edge_ids) == 9
    monkeypatch.setattr(gg.constructions, "POINT_GUARD", 8)
    with pytest.raises(gg.GuardExceeded, match="exceeded: 9 points"):
        gg.epsilon_net(G, 0.125)
    # the region's vertices are the spans' ends, counted once
    with pytest.raises(gg.GuardExceeded, match="exceeded: 9 points"):
        gg.region_net(G, gg.whole_graph_region(G), 0.125)
    with pytest.raises(gg.GuardExceeded, match="exceeded: 9 rays"):
        gg.star_counterexample(9)


def test_construct_guard_counts_shared_ends_once(monkeypatch):
    # a path of 12 short edges at a large epsilon is its 13 vertices; each
    # inner vertex ends two edges and counts once
    P = gg.build_graph([f"v{i}" for i in range(13)], [(f"e{i}", f"v{i}", f"v{i + 1}", 0.1) for i in range(12)])
    W = gg.whole_graph_region(P)
    monkeypatch.setattr(gg.constructions, "POINT_GUARD", 13)
    assert len(gg.epsilon_net(P, 1.0)) == len(gg.region_net(P, W, 1.0)) == 13
    monkeypatch.setattr(gg.constructions, "POINT_GUARD", 12)
    for net in (lambda: gg.epsilon_net(P, 1.0), lambda: gg.region_net(P, W, 1.0)):
        with pytest.raises(gg.GuardExceeded, match="exceeded: 13 points"):
            net()


def test_construction_verification_exit_code(capsys, seg_files, tmp_path, monkeypatch):
    # a net whose measured coverage misses epsilon fails its own check
    graph, _, _ = seg_files
    monkeypatch.setattr(gg.constructions, "hausdorff_graph_to_set", lambda G, A: 1.0)
    argv = ["construct", "net", "--graph", graph, "--epsilon", "0.25", "--out", str(tmp_path / "n")]
    assert main(argv) == 5
    assert "net misses coverage" in capsys.readouterr().err


def test_experiment_skips_oracle_above_eight_points(capsys, tmp_path):
    graph = _write(tmp_path / "t.json", THETA_DOC)
    code, doc = _run(capsys, ["experiment", "ratio", "--graph", graph, "--samples", "2", "--density", "3.0"])
    assert code == 0
    assert doc["points_per_subset"] == 11
    for row in doc["rows"]:
        assert row["oracle"] == {"op": "gh_exact", "error": "skipped-too-large"}
        assert row["size_x"] > 8 or row["size_y"] > 8


@pytest.mark.parametrize("seed", range(4))
def test_random_subset_matches_reference(seed):
    # one cumulative-weight table for all draws takes the same random stream
    rng = random.Random(seed)
    lengths = [rng.choice([0.5, 1.0, 1.0, 2.5]) for _ in range(60)]
    # a 25-cycle, then chords that skip one and two vertices
    edges = [(f"e{k}", f"v{k % 25}", f"v{(k + 1 + k // 25) % 25}", length) for k, length in enumerate(lengths)]
    graphs = [
        gg.build_graph([f"v{i}" for i in range(25)], edges),
        gg.theta_graph(1.0, 1.0, 2.0),
        gg.star_graph([1.0, 1.0, 1.0]),
        gg.circle_graph(),
    ]
    for G in graphs:
        a, b = random.Random(seed), random.Random(seed)
        X, ref = _random_subset(G, a, 40), _brute.random_subset(G, b, 40)
        assert X.points == ref.points
        assert a.getstate() == b.getstate()


def test_one_process_matches_separate_calls(capsys, seg_files, tmp_path):
    # the parser is built once per process; a parse failure, from argparse
    # or from a fixture, must leave the next call's bytes and code as a call
    # made on its own would give them
    from ghgraph import cli

    graph, ends, mid = seg_files
    g = ["--graph", graph]
    calls = [
        ["hausdorff", *g, "--subset", ends, "--subset2", mid],
        ["hausdorff", *g, "--bogus"],
        ["bound", *g, "--subset", ends, "--subset2", mid],
        ["hausdorff", "--graph", "missing.json", "--subset", ends],
        ["oracle", *g, "--subset", ends, "--subset2", mid],
        ["construct", "net", *g, "--epsilon", "0.25", "--out", str(tmp_path / "n")],
        ["experiment", "ratio", *g, "--samples", "2"],
        ["bound", *g, "--subset", mid],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects before main returns
            code = exc.code
        return code, capsys.readouterr().out

    together = [call(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(call(argv))
    assert together == alone
    assert [code for code, _ in together] == [0, 2, 0, 2, 0, 0, 0, 0]
