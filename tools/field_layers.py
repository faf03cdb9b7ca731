"""Per-call times of the field request path's layers, in process.

On each graph it builds two point sets of ``(edge id, offset)`` specs drawn
by ``bench/workloads.edge_points`` and times, per call:

- ``build_graph`` on the graph's vertex and edge lists;
- the first ``G.edges`` access, which builds the graph's ``Edge`` views
  (each call drops the views of the last one first, so it builds them anew);
- ``point_set`` on the first spec list;
- ``hausdorff_graph_to_set`` on the first set;
- ``thickening`` of the first set by r = 0.25, the field radius;
- ``hausdorff_graph_to_region`` on that thickening;
- ``hausdorff_sets`` between the two sets.

The graphs are the seed-0 ``bench/workloads.random_multigraph`` graphs with
V = 500, 1000 and 2000 and E = 2V, each with 2000 points per set, as in the
field workload, and one 60-edge graph (V = 30) with 60 points per set, the
size of the certify workload's middle family. The last two graphs are paths
of 63 and 1999 unit edges with one point in each set, at opposite ends. A
field searched from one end of a path needs a relaxation round per edge,
far more than the round budget, so these rows show what a field costs when
the budget runs out and scipy searches it after the rounds spent; the
1999-edge path is at field scale. Each time is the best, over ``--repeat``
rounds, of the mean of enough back-to-back calls to fill about 20 ms.

A point set keeps its distance field once it has been measured, so every
timed call of the three layers that read a set's field gets fresh copies of
the sets, built from their columns with no field kept
(``PointSet._from_columns``); each call then runs its own graph search, as
a request on new sets does, and the copy works on trees with and without
the kept field alike.

Each source tree runs in its own subprocess on the same inputs, so a parent
checkout and this one can be compared side by side. The trees take turns
over ``--passes`` passes, and each time printed is the least over them, so
a slow spell of a shared host does not fall on one tree only. The last line
counts the values that differ between trees: the skeleton bytes of the
graph, the count and repr of its views, and the Hausdorff distances.

    python tools/field_layers.py                            # this checkout's src/
    python tools/field_layers.py /path/to/parent/src src    # before and after
"""

import argparse
import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ((500, 1000, 2000), (1000, 2000, 2000), (2000, 4000, 2000), (30, 60, 60))
PATHS = (64, 2000)
RADIUS = 0.25
LAYERS = (
    "build_graph",
    "G.edges",
    "point_set",
    "hausdorff_graph_to_set",
    "thickening",
    "hausdorff_graph_to_region",
    "hausdorff_sets",
)


def per_call(fn, repeat: int) -> float:
    """Best over ``repeat`` rounds of the mean seconds per call of fn."""
    t0 = time.perf_counter()
    fn()
    number = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-6)))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def value(name: str, out) -> str | None:
    """What a timed call returned, as text that is equal between trees when
    the values are; None for a layer whose value is not compared."""
    if name == "build_graph":
        return sha(b"".join(a.tobytes() for a in out._skeleton))
    if name == "G.edges":
        return f"{len(out)} views, repr {sha(repr(out).encode())}"
    return repr(out) if name.startswith("hausdorff") else None


def run(src: str, repeat: int) -> None:
    """Time every layer on every case with the library under ``src``; one
    JSON line per case."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    import ghgraph as gg
    from workloads import edge_points, random_multigraph

    def cases():
        for V, E, k in CASES:
            rng = random.Random(0)
            vertices, edges = random_multigraph(rng, V, E)
            yield f"V={V} E={E} points={k}", vertices, edges, edge_points(rng, edges, k), edge_points(rng, edges, k)
        for V in PATHS:
            vertices = [f"v{i}" for i in range(V)]
            edges = [(f"e{i}", f"v{i}", f"v{i + 1}", 1.0) for i in range(V - 1)]
            yield f"path V={V} E={V - 1} points=1, at opposite ends", vertices, edges, [("e0", 0.0)], [(f"e{V - 2}", 1.0)]

    for case, vertices, edges, a, b in cases():
        G = gg.build_graph(vertices, edges)
        A, B = gg.point_set(G, a), gg.point_set(G, b)
        T = gg.thickening(G, A, RADIUS)

        def fresh(S):
            return gg.PointSet._from_columns(G, S._edge, S._vertex, S._offset)

        def first_edges():
            G._edges = None
            return G.edges

        calls = {
            "build_graph": lambda: gg.build_graph(vertices, edges),
            "G.edges": first_edges,
            "point_set": lambda: gg.point_set(G, a),
            "hausdorff_graph_to_set": lambda: gg.hausdorff_graph_to_set(G, fresh(A)),
            "thickening": lambda: gg.thickening(G, fresh(A), RADIUS),
            "hausdorff_graph_to_region": lambda: gg.hausdorff_graph_to_region(G, T),
            "hausdorff_sets": lambda: gg.hausdorff_sets(G, fresh(A), fresh(B)),
        }
        row = {"case": case, "us": {}, "values": {}}
        for name in LAYERS:
            row["us"][name] = 1e6 * per_call(calls[name], repeat)
            if (text := value(name, calls[name]())) is not None:
                row["values"][name] = text
        print(json.dumps(row), flush=True)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="*", default=[str(ROOT / "src")], help="library source trees")
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--one", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.one:
        run(args.one, args.repeat)
        return

    results = [None] * len(args.src)
    for _ in range(args.passes):
        for i, src in enumerate(args.src):
            cmd = [sys.executable, __file__, "--one", str(Path(src).resolve()), "--repeat", str(args.repeat)]
            done = subprocess.run(cmd, check=True, capture_output=True, text=True)
            rows = [json.loads(line) for line in done.stdout.splitlines()]
            for row, best in zip(rows, results[i] or rows):
                row["us"] = {name: min(us, best["us"][name]) for name, us in row["us"].items()}
            results[i] = rows

    print(f"microseconds per call, least of {args.passes} x {args.repeat} rounds; one column per tree:",
          ", ".join(args.src))
    for rows in zip(*results):
        print(rows[0]["case"])
        for name in LAYERS:
            print(f"  {name:<27}" + "".join(f"{row['us'][name]:12.1f}" for row in rows))
    differ = sum(
        len({row["values"][name] for row in rows}) > 1 for rows in zip(*results) for name in rows[0]["values"]
    )
    print(f"values that differ between trees: {differ}")


if __name__ == "__main__":
    main()
