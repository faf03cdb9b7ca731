"""Continuum diameter at scale: matrix time, diameter time, value, peak RSS.

Two graph families, E edges each:

- ``multigraph``: the seed-0 ``bench/workloads.random_multigraph`` graph
  with V = E/2 vertices, whose eccentricities are spread out;
- ``cycle``: E unit edges around one cycle on V = E vertices, where every
  vertex has the same eccentricity, so only the pair bounds prune.

For each size it times the dense vertex-distance matrix and then
``graph_diameter`` on it, and prints the value's repr and the process's
peak RSS. Each size runs in a fresh subprocess, so each peak is its own.
The cycle stops at E = 4000 by default: its V x V matrix at E = 10000
alone takes 800 MB.

    python tools/diameter_scale.py                  # both families, default sizes
    python tools/diameter_scale.py cycle 1000 2000  # one family, chosen sizes
"""

import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"multigraph": (1000, 4000, 10000), "cycle": (1000, 4000)}


def build(family: str, E: int):
    if family == "cycle":
        return [f"v{i}" for i in range(E)], [(f"e{i}", f"v{i}", f"v{(i + 1) % E}", 1.0) for i in range(E)]
    from workloads import random_multigraph

    return random_multigraph(random.Random(0), E // 2, E)


def run(family: str, E: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import ghgraph as gg

    G = gg.build_graph(*build(family, E))
    t0 = time.perf_counter()
    G.vertex_distances
    t1 = time.perf_counter()
    d = gg.graph_diameter(G)
    t2 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{family:<10} E={E:<6} matrix {t1 - t0:.3f} s  diameter {t2 - t1:.3f} s  value {d!r}  peak RSS {rss:.0f} MB")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        run(sys.argv[2], int(sys.argv[3]))
    else:
        chosen = {sys.argv[1]: [int(a) for a in sys.argv[2:]] or SIZES[sys.argv[1]]} if sys.argv[1:] else SIZES
        for family, sizes in chosen.items():
            for E in sizes:
                subprocess.run([sys.executable, __file__, "--one", family, str(E)], check=True)
