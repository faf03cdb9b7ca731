"""Exact GH search on seeded random circle pairs: time, assignments, guard trips.

Pair i puts n = m points uniformly at random on the circle of circumference
2 pi, with n drawn from ``--sizes`` (9..12 by default); every draw comes
from one ``random.Random(--seed)``, so the pairs repeat exactly. The
benchmark panel stops at 9 points, and from 10 points on the cost of the
search is heavy-tailed, which is what this script shows. With ``--panel``
the pairs are instead the 36 pairs of the benchmark panel
(``bench/oracle_panel.json``, read only) at scale 1, on the graphs of
``bench/workloads.py``.

Each source tree runs in its own subprocess on the same pairs, so a parent
checkout and this one can be compared side by side. Per pair and tree it
prints the least time of ``CALLS`` = 3 ``gh_exact`` calls, so that a slow
spell of a shared host does not set a pair's time and the maxima repeat
between runs; then the assignments explored (where the tree reports them),
and the value, or ``trip`` with the bracket when the guard is exceeded.
These come from the first call, and every later call must give the same.
Per tree it then prints the median time of each size and the total of
the assignments. The last two lines count the pairs whose values differ
between trees, and the pairs whose assignment counts differ, among those
where every tree reports them.

    python tools/oracle_scale.py                            # this checkout's src/
    python tools/oracle_scale.py /path/to/parent/src src    # before and after
    python tools/oracle_scale.py --panel /path/to/parent/src src
    python tools/oracle_scale.py --seed 7 --pairs 20 --sizes 9 11 --guard 3000000
"""

import argparse
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
CALLS = 3


def circle_pairs(seed: int, count: int, sizes: tuple[int, int]) -> list[tuple[str, list, list]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*sizes)
        out.append(("circle", *([("loop", rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)] for _ in range(2))))
    return out


def run(src: str, panel: bool, seed: int, count: int, sizes: tuple[int, int], guard: int) -> None:
    """Solve every pair with the library under ``src``; one JSON line each."""
    sys.path.insert(0, src)
    import ghgraph as gg

    if panel:
        sys.path.insert(0, str(ROOT / "bench"))
        import workloads

        todo = [(p["family"], p["X"], p["Y"]) for p in workloads.load_panel()]
        graphs = {f: gg.build_graph(*workloads.scaled_graph(f, 1.0)) for f in {f for f, _, _ in todo}}
    else:
        todo = circle_pairs(seed, count, sizes)
        graphs = {"circle": gg.circle_graph()}
    search = getattr(gg.oracle, "_search", None)

    def solve(X, Y) -> dict:
        row = {}
        try:
            if search is None:
                row["value"] = gg.gh_exact(X, Y, guard=guard)[0]
            else:
                value, _, row["assignments"] = search(X, Y, guard)
                row["value"] = value / 2.0
        except gg.GuardExceeded as exc:
            row["bracket"] = exc.bracket
        return row

    for family, xs, ys in todo:
        G = graphs[family]
        X, Y = (gg.restrict_metric(G, gg.point_set(G, side)) for side in (xs, ys))
        times, outcomes = [], []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            outcomes.append(solve(X, Y))
            times.append(1000.0 * (time.perf_counter() - t0))
        assert all(outcome == outcomes[0] for outcome in outcomes), outcomes
        print(json.dumps({"family": family, "n": len(xs), **outcomes[0], "ms": min(times)}), flush=True)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="*", default=[str(ROOT / "src")], help="library source trees")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--sizes", type=int, nargs=2, default=(9, 12), metavar=("MIN", "MAX"))
    p.add_argument("--guard", type=int, default=3_000_000)
    p.add_argument("--panel", action="store_true", help="the benchmark panel's 36 pairs at scale 1")
    p.add_argument("--one", help=argparse.SUPPRESS)
    args = p.parse_args()
    setting = (args.panel, args.seed, args.pairs, tuple(args.sizes), args.guard)
    if args.one:
        run(args.one, *setting)
        return

    results = []
    for src in args.src:
        cmd = [sys.executable, __file__, "--one", str(Path(src).resolve()), "--seed", str(args.seed),
               "--pairs", str(args.pairs), "--sizes", *map(str, args.sizes), "--guard", str(args.guard)]
        cmd += ["--panel"] if args.panel else []
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        results.append([json.loads(line) for line in done.stdout.splitlines()])

    pairs = "benchmark panel at scale 1" if args.panel else f"seed {args.seed}"
    print(f"{pairs}, guard {args.guard}; per tree: least ms of {CALLS} calls, assignments, value or bracket")
    for i, rows in enumerate(zip(*results)):
        cells = []
        for row in rows:
            outcome = f"{row['value']:.12g}" if "value" in row else "trip [{:.4g}, {:.4g}]".format(*row["bracket"])
            cells.append(f"{row['ms']:9.2f} {row.get('assignments', '-'):>9} {outcome:<24}")
        print(f"{i:3d} {rows[0]['family']:<7} n={rows[0]['n']:<3d}" + " | ".join(cells))
    for src, rows in zip(args.src, results):
        ms = sorted(row["ms"] for row in rows)
        trips = sum("bracket" in row for row in rows)
        by_n = ", ".join(f"n={n} {median([r['ms'] for r in rows if r['n'] == n]):.2f}"
                         for n in sorted({r["n"] for r in rows}))
        print(f"{src}: median {median(ms):.2f} ms ({by_n}), max {ms[-1]:.2f} ms, {trips} guard trips")
        if all("assignments" in row for row in rows):
            print(f"{src}: {sum(row['assignments'] for row in rows)} assignments in all")
    differ = sum(len({row["value"] for row in rows if "value" in row}) > 1 for rows in zip(*results))
    print(f"pairs whose values differ between trees: {differ}")
    counts = [[row.get("assignments") for row in rows] for rows in zip(*results)]
    differ = sum(len(set(c)) > 1 for c in counts if None not in c)
    print(f"pairs whose assignment counts differ between trees: {differ}")


if __name__ == "__main__":
    main()
