"""Write ``oracle_panel.json``, the fixed panel of the ``oracle`` workload.

For each n in ORACLE_SIZES and each family in ORACLE_FAMILIES, pairs of
n-point subsets are drawn uniformly along the graph from one fixed seed.
The first PAIRS_PER_CELL pairs whose exact search finishes within
NODE_CAP explored assignments are kept. Uniform 9-point pairs occasionally
need minutes (one circle pair measured 112 s), longer than a benchmark run;
the cap also keeps a pass over the panel short enough that a run holds
several passes. The kept panel
still spans more than two orders of magnitude in cost. Kept pairs are
listed with the seconds they took when the panel was made, for orientation
only.

Run from the repository root:  python3 bench/make_oracle_panel.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import ghgraph as gg  # noqa: E402
from workloads import FIXED_GRAPHS, ORACLE_FAMILIES, ORACLE_SIZES, PANEL_PATH, edge_points  # noqa: E402

PANEL_SEED = 20241114
PAIRS_PER_CELL = 4
NODE_CAP = 300_000


def main() -> None:
    rng = random.Random(PANEL_SEED)
    pairs, rejected = [], 0
    for n in ORACLE_SIZES:
        for family in ORACLE_FAMILIES:
            vertices, edges = FIXED_GRAPHS[family]
            G = gg.build_graph(vertices, edges)
            kept = 0
            while kept < PAIRS_PER_CELL:
                X, Y = edge_points(rng, edges, n), edge_points(rng, edges, n)
                t0 = time.perf_counter()
                try:
                    gg.gh_exact(gg.restrict_metric(G, gg.point_set(G, X)),
                                gg.restrict_metric(G, gg.point_set(G, Y)), guard=NODE_CAP)
                except gg.GuardExceeded:
                    rejected += 1
                    continue
                pairs.append({"family": family, "n": n, "X": X, "Y": Y,
                              "seconds_when_made": round(time.perf_counter() - t0, 4)})
                kept += 1
    head = {"seed": PANEL_SEED, "node_cap": NODE_CAP, "rejected": rejected}
    with open(PANEL_PATH, "w", encoding="utf-8") as fh:  # one line per pair
        fh.write(json.dumps(head)[:-1] + ', "pairs": [\n')
        fh.write(",\n".join(json.dumps(p) for p in pairs) + "\n]}\n")
    print(f"{len(pairs)} pairs kept, {rejected} rejected")


if __name__ == "__main__":
    main()
