"""Cold CLI runs compared between source trees: import, then one verb.

Each run is a fresh interpreter that times ``import ghgraph, ghgraph.cli``
and, after it, one in-process ``ghgraph.cli.main`` call on a case of
``tools/cli_bytes.py`` (its fixtures, written once per tree in a temporary
working directory), and says whether ``scipy`` was loaded by the end. The
first row times the import alone. Every row runs 7 times per tree; the
trees take turns, in alternating order from one round to the next, so a
drift in host speed falls on all of them alike. The table gives the least
and the median of the 7 times, in ms, and ``scipy`` where a run loaded it.

    python tools/cold_start.py /path/to/parent/src src
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

from cli_bytes import cases, write_fixtures

RUNS = 7
CHILD = """
import io, json, sys, time
from contextlib import redirect_stderr, redirect_stdout
argv = json.loads(sys.argv[1])
t = time.perf_counter()
import ghgraph, ghgraph.cli
if argv is not None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            ghgraph.cli.main(argv)
        except SystemExit:
            pass
t = time.perf_counter() - t
print(json.dumps({"seconds": t, "scipy": "scipy" in sys.modules, "file": ghgraph.__file__}))
"""


def run_once(src: Path, work: str, argv: list[str] | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)], cwd=work, env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(done.stdout.splitlines()[-1])
    assert Path(out["file"]).resolve().is_relative_to(src), out["file"]
    return out


def main(trees: list[str]) -> None:
    srcs = [Path(t).resolve() for t in trees]
    rows = {"import": None, **cases()}
    times = {(row, k): [] for row in rows for k in range(len(srcs))}
    scipy = {(row, k): False for row in rows for k in range(len(srcs))}
    with ExitStack() as stack:
        works = [stack.enter_context(tempfile.TemporaryDirectory()) for _ in srcs]
        for work in works:
            write_fixtures(Path(work))
        for r in range(RUNS):
            order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
            for k in order:
                for row, argv in rows.items():
                    out = run_once(srcs[k], works[k], argv)
                    times[row, k].append(out["seconds"])
                    scipy[row, k] |= out["scipy"]
    print(f"least / median of {RUNS} fresh processes, ms; 'scipy' where a run loaded it")
    for k, src in enumerate(srcs):
        print(f"  tree {k}: {src}")
    print(f"{'case':24}" + "".join(f"{'tree ' + str(k):>26}" for k in range(len(srcs))))
    for row in rows:
        cells = []
        for k in range(len(srcs)):
            ts = times[row, k]
            cells.append(f"{1e3 * min(ts):8.1f} / {1e3 * statistics.median(ts):7.1f}{' scipy' if scipy[row, k] else '      '}")
        print(f"{row:24}" + "".join(f"{c:>26}" for c in cells))


if __name__ == "__main__":
    main(sys.argv[1:] or ["src"])
