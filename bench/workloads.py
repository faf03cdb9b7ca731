"""Seeded inputs and request lists for the three benchmark workloads.

Every input is generated here, before any timing starts, from the workload
seed alone. A request is a zero-argument callable; the timed loop calls
requests in list order and wraps around at the end. Requests call the
library through attribute lookups on the ``ghgraph`` modules at call time,
so the tracer's wrappers see them.

``field``   large random multigraphs, dense all-pairs build, continuum queries.
``certify`` many small instances through the JSON CLI, one ``main(argv)`` each.
``oracle``  a fixed panel of finite-space pairs for the exact GH search.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import ghgraph as gg
import ghgraph.cli

# -- field: V cycles through these sizes with E = 2V; each graph is followed
# by ROUNDS rounds of fresh subsets. PASSES distinct passes are generated so
# that no input repeats within a run of ordinary length.
FIELD_SIZES = (500, 1000, 2000)
FIELD_ROUNDS = 2
FIELD_POINTS = 2000
FIELD_RADIUS = 0.25
FIELD_PASSES = 4

# -- certify: CERTIFY_INSTANCES instances whose families cycle in this order
CERTIFY_FAMILIES = ("multigraph30", "multigraph60", "multigraph90", "circle", "star", "theta")
CERTIFY_INSTANCES = 48
CERTIFY_POINTS = (20, 60)
CERTIFY_SMALL = 6
# Y6 is X6 with each point moved along its edge by up to this share of the
# edge length. Independent 6-point pairs make the search cost heavy-tailed
# (one star pair took 0.8 s, 170 times the median), so which seed a run got
# would decide its throughput; nearby pairs keep every search small, and the
# oracle workload is where the heavy tail is measured.
CERTIFY_SMALL_MOVE = 0.1
CERTIFY_NET_EPSILON = "0.25"

# -- oracle: a fixed panel of pairs (see make_oracle_panel.py). The search
# cost is chaotic in the inputs: moving the points by 0.2% of an edge length
# turned one 1.1 s pair into 12.6 s, and even a 1e-6 move changed the cost
# of some pairs by a quarter. So the seed changes only what leaves every
# comparison the search makes as it was: the order of the pairs, and a
# power-of-two scale of the whole graph, which multiplies every length and
# distance exactly. Each generated pass has its own scale, so no pass
# repeats the numbers of another.
ORACLE_FAMILIES = ("circle", "theta", "star4")
ORACLE_SIZES = (7, 8, 9)
ORACLE_SCALE_EXPONENTS = (-4, 0)  # the first pass's scale is 2**j for j in this range
ORACLE_PASSES = 4
PANEL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_panel.json")


@dataclass
class Request:
    """One timed call. ``key`` names it in the reference file."""

    key: str
    kind: str
    run: Callable[[], object]


@dataclass
class Workload:
    """The request list plus whatever the checks need to judge outputs."""

    name: str
    requests: list[Request]
    pass_length: int
    warmup: int
    # latency_tail_ms reports this percentile, fixed per workload so that a
    # faster program, which fits more passes in a run, is measured at the same
    # one; a run makes enough passes to leave ten samples beyond it
    tail_percentile: int
    sizes: dict
    context: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# input generators (pure functions of an rng)


def random_multigraph(rng: random.Random, V: int, E: int):
    """A spanning tree plus E - V + 1 extra edges, lengths U[0.5, 2].

    Extra edges take independent uniform endpoints, so parallel edges and
    self-loops occur, as a multigraph allows.
    """
    vertices = [f"v{i}" for i in range(V)]
    edges = []
    for v in range(1, V):
        edges.append((f"e{len(edges)}", f"v{rng.randrange(v)}", f"v{v}", rng.uniform(0.5, 2.0)))
    while len(edges) < E:
        edges.append(
            (f"e{len(edges)}", f"v{rng.randrange(V)}", f"v{rng.randrange(V)}", rng.uniform(0.5, 2.0))
        )
    return vertices, edges


def family_graph(family: str, rng: random.Random):
    """(vertices, edges) of one member of a certify family."""
    if family.startswith("multigraph"):
        E = int(family[len("multigraph"):])
        return random_multigraph(rng, E // 2, E)
    if family == "star":
        return star([rng.uniform(0.5, 2.0) for _ in range(rng.randint(3, 8))])
    return FIXED_GRAPHS[family]


def star(rays):
    return (
        ["c"] + [f"v{i}" for i in range(1, len(rays) + 1)],
        [(f"r{i}", "c", f"v{i}", float(l)) for i, l in enumerate(rays, start=1)],
    )


FIXED_GRAPHS = {
    "circle": (["o"], [("loop", "o", "o", 2.0 * math.pi)]),
    "theta": (["p", "q"], [("e1", "p", "q", 3.0), ("e2", "p", "q", 4.0), ("e3", "p", "q", 5.0)]),
    "star4": star([1.0, 1.5, 2.0, 2.5]),
}


def edge_points(rng: random.Random, edges, k: int) -> list[tuple[str, float]]:
    """k points uniform along the total length, as (edge id, offset) specs.

    Offsets stay inside (0, length) so every spec is an interior point and
    the subset has exactly k distinct members.
    """
    cum = list(accumulate(e[3] for e in edges))
    out = []
    for _ in range(k):
        i = min(bisect_right(cum, rng.random() * cum[-1]), len(edges) - 1)
        out.append((edges[i][0], edges[i][3] * rng.uniform(0.001, 0.999)))
    return out


def moved_points(rng: random.Random, edges, specs, share: float) -> list[tuple[str, float]]:
    """Each point moved along its edge by up to ``share`` of the edge length,
    staying inside (0, length)."""
    lengths = {e[0]: e[3] for e in edges}
    out = []
    for e, s in specs:
        l = lengths[e]
        out.append((e, min(max(s + rng.uniform(-share, share) * l, 0.001 * l), 0.999 * l)))
    return out


# --------------------------------------------------------------------------
# field


def make_field(seed: int) -> Workload:
    rng = random.Random(f"field:{seed}")
    requests: list[Request] = []
    graphs: dict[str, object] = {}
    subsets: dict[str, tuple] = {}
    inputs: dict[str, tuple] = {}

    def build(key, vertices, edges):
        def run():
            G = gg.build_graph(vertices, edges)
            graphs.clear()  # hold one graph at a time, as a caller moving on would
            graphs[key] = G
            return (len(G.vertices), len(G.edges))
        return run

    def graph_to_set(gkey, a):
        return lambda: gg.hausdorff_graph_to_set(graphs[gkey], gg.point_set(graphs[gkey], a))

    def sets(gkey, a, b):
        def run():
            G = graphs[gkey]
            return gg.hausdorff_sets(G, gg.point_set(G, a), gg.point_set(G, b))
        return run

    def boundary(gkey, a):
        return lambda: gg.directed_hausdorff_boundary(graphs[gkey], gg.point_set(graphs[gkey], a))

    def region(gkey, a):
        def run():
            G = graphs[gkey]
            return gg.hausdorff_graph_to_region(G, gg.thickening(G, gg.point_set(G, a), FIELD_RADIUS))
        return run

    for p in range(FIELD_PASSES):
        for V in FIELD_SIZES:
            gkey = f"p{p}/V{V}"
            vertices, edges = random_multigraph(rng, V, 2 * V)
            inputs[gkey] = (vertices, edges)
            requests.append(Request(f"{gkey}/build_graph", "build_graph", build(gkey, vertices, edges)))
            for r in range(FIELD_ROUNDS):
                a = edge_points(rng, edges, FIELD_POINTS)
                b = edge_points(rng, edges, FIELD_POINTS)
                rkey = f"{gkey}/r{r}"
                subsets[rkey] = (a, b)
                requests += [
                    Request(f"{rkey}/graph_to_set", "hausdorff_graph_to_set", graph_to_set(gkey, a)),
                    Request(f"{rkey}/sets", "hausdorff_sets", sets(gkey, a, b)),
                    Request(f"{rkey}/boundary", "directed_hausdorff_boundary", boundary(gkey, a)),
                    Request(f"{rkey}/region", "hausdorff_graph_to_region", region(gkey, a)),
                ]
    sizes = {
        "V": list(FIELD_SIZES),
        "E": [2 * V for V in FIELD_SIZES],
        "points_per_subset": FIELD_POINTS,
        "rounds_per_graph": FIELD_ROUNDS,
        "passes_generated": FIELD_PASSES,
        "apsp_bytes": [8 * V * V for V in FIELD_SIZES],
    }
    context = {"graphs": graphs, "subsets": subsets, "inputs": inputs}
    return Workload("field", requests, pass_length=len(requests) // FIELD_PASSES,
                    warmup=1 + 4 * FIELD_ROUNDS, tail_percentile=75, sizes=sizes, context=context)


# --------------------------------------------------------------------------
# certify


def _graph_doc(vertices, edges) -> dict:
    return {
        "vertices": list(vertices),
        "edges": [{"id": e, "u": u, "v": v, "length": l} for e, u, v, l in edges],
    }


def _subset_doc(specs) -> list:
    return [{"edge": e, "offset": s} for e, s in specs]


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """One in-process ``ghgraph`` invocation: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ghgraph.cli.main(argv)
    return code, out.getvalue()


def certify_instances(seed: int) -> list[dict]:
    """The generated fixtures, before anything is written to disk."""
    rng = random.Random(f"certify:{seed}")
    instances = []
    for k in range(CERTIFY_INSTANCES):
        family = CERTIFY_FAMILIES[k % len(CERTIFY_FAMILIES)]
        vertices, edges = family_graph(family, rng)
        X = edge_points(rng, edges, rng.randint(*CERTIFY_POINTS))
        Y = edge_points(rng, edges, rng.randint(*CERTIFY_POINTS))
        X6 = edge_points(rng, edges, CERTIFY_SMALL)
        Y6 = moved_points(rng, edges, X6, CERTIFY_SMALL_MOVE)
        instances.append({"family": family, "graph": (vertices, edges), "X": X, "Y": Y, "X6": X6, "Y6": Y6})
    return instances


def make_certify(seed: int, workdir: str) -> Workload:
    """Writes each instance's fixtures under ``workdir`` (a path relative to
    the current directory, so the CLI reports stay byte-stable)."""
    instances = certify_instances(seed)
    requests: list[Request] = []
    for k, inst in enumerate(instances):
        base = os.path.join(workdir, f"i{k:02d}")
        f = {name: f"{base}-{name}.json" for name in ("graph", "X", "Y", "X6", "Y6")}
        _write(f["graph"], _graph_doc(*inst["graph"]))
        for name in ("X", "Y", "X6", "Y6"):
            _write(f[name], _subset_doc(inst[name]))
        g = ["--graph", f["graph"]]
        calls = [
            ("bound1", ["bound", *g, "--subset", f["X"]]),
            ("bound2", ["bound", *g, "--subset", f["X"], "--subset2", f["Y"]]),
            ("hausdorff", ["hausdorff", *g, "--subset", f["X"], "--subset2", f["Y"]]),
            ("oracle", ["oracle", *g, "--subset", f["X6"], "--subset2", f["Y6"]]),
            ("net", ["construct", "net", *g, "--epsilon", CERTIFY_NET_EPSILON, "--out", f"{base}-out"]),
        ]
        for kind, argv in calls:
            requests.append(Request(f"i{k:02d}/{kind}", kind, lambda argv=argv: cli_call(argv)))
    sizes = {
        "instances": CERTIFY_INSTANCES,
        "families": list(CERTIFY_FAMILIES),
        "E_multigraph": [30, 60, 90],
        "V_multigraph": [15, 30, 45],
        "star_rays": [3, 8],
        "points_per_subset": list(CERTIFY_POINTS),
        "points_per_oracle_subset": CERTIFY_SMALL,
        "oracle_subset_move_share": CERTIFY_SMALL_MOVE,
        "net_epsilon": float(CERTIFY_NET_EPSILON),
    }
    return Workload("certify", requests, pass_length=len(requests), warmup=5, tail_percentile=99,
                    sizes=sizes, context={"instances": instances})


# --------------------------------------------------------------------------
# oracle


def load_panel() -> list[dict]:
    """The fixed panel written by ``make_oracle_panel.py``."""
    with open(PANEL_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [
        {"family": p["family"], "n": p["n"],
         "X": [tuple(s) for s in p["X"]], "Y": [tuple(s) for s in p["Y"]]}
        for p in doc["pairs"]
    ]


def scaled_graph(family: str, scale: float):
    vertices, edges = FIXED_GRAPHS[family]
    return vertices, [(e, u, v, l * scale) for e, u, v, l in edges]


def oracle_pairs(seed: int) -> list[dict]:
    """ORACLE_PASSES copies of the panel in one seeded order, copy p scaled
    by 2**(j + p) for a seeded j."""
    rng = random.Random(f"oracle:{seed}")
    panel = load_panel()
    order = list(range(len(panel)))
    rng.shuffle(order)
    first = rng.randint(*ORACLE_SCALE_EXPONENTS)
    pairs = []
    for p in range(ORACLE_PASSES):
        scale = 2.0 ** (first + p)
        for k in order:
            item = panel[k]
            pairs.append(
                dict(item, key=f"p{p}/k{k:02d}", scale=scale,
                     X=[(e, s * scale) for e, s in item["X"]], Y=[(e, s * scale) for e, s in item["Y"]])
            )
    return pairs


def make_oracle(seed: int) -> Workload:
    pairs = oracle_pairs(seed)
    graphs = {(item["family"], item["scale"]): gg.build_graph(*scaled_graph(item["family"], item["scale"]))
              for item in pairs}

    def solve(G, a, b):
        def run():
            X = gg.restrict_metric(G, gg.point_set(G, a))
            Y = gg.restrict_metric(G, gg.point_set(G, b))
            value, witness = gg.gh_exact(X, Y)
            return value, witness.pairs
        return run

    requests = [
        Request(item["key"], "gh_exact", solve(graphs[item["family"], item["scale"]], item["X"], item["Y"]))
        for item in pairs
    ]
    sizes = {
        "families": list(ORACLE_FAMILIES),
        "n_equals_m": list(ORACLE_SIZES),
        "pairs_per_pass": len(pairs) // ORACLE_PASSES,
        "passes_generated": ORACLE_PASSES,
        "scales": sorted({item["scale"] for item in pairs}),
    }
    return Workload("oracle", requests, pass_length=len(pairs) // ORACLE_PASSES, warmup=1,
                    tail_percentile=90, sizes=sizes, context={"pairs": pairs, "graphs": graphs})
