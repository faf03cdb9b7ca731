"""Byte comparison of every CLI verb between source trees.

Runs each verb on fixed fixtures, once per tree, and hashes what each run
leaves: stdout, stderr, the exit code and every file it writes. The
fixtures are a segment, a circle whose length is the token ``"2pi"``, a
theta graph, a lollipop and a star, each with two point sets; the runs are

- hausdorff and bound on every fixture, each with one and with two subsets;
- oracle in graph mode on every fixture, and in matrix mode on two small
  matrices (three points of a line at spacing "pi/3", and a 4-point
  cycle), each way round;
- construct net (on the segment and the circle), star, and circle6 at four
  epsilons: pi/24, 0.05, pi/12 and 0.5;
- experiment ratio on the theta graph and the lollipop;
- two error exits: a subset off its graph (exit 3) and a missing graph
  file (exit 2).

Each tree runs in its own subprocess and its own temporary directory, with
the same relative file names, so reports that echo paths compare equal.
The last line counts the outputs that differ between the first tree and
any other.

    python tools/cli_bytes.py /path/to/parent/src src
"""

import argparse
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

FIXTURES = {
    "segment": (
        {"vertices": ["u", "v"], "edges": [{"id": "seg", "u": "u", "v": "v", "length": 2.0}]},
        [{"vertex": "u"}, {"vertex": "v"}],
        [{"edge": "seg", "offset": 1.0}, {"edge": "seg", "offset": 0.3}],
    ),
    "circle": (
        {"vertices": ["o"], "edges": [{"id": "loop", "u": "o", "v": "o", "length": "2pi"}]},
        [{"vertex": "o"}, {"edge": "loop", "offset": "2pi/3"}, {"edge": "loop", "offset": "4pi/3"}],
        [{"edge": "loop", "offset": "pi/2"}, {"edge": "loop", "offset": "3pi/2"}],
    ),
    "theta": (
        {
            "vertices": ["p", "q"],
            "edges": [
                {"id": "e1", "u": "p", "v": "q", "length": 1.0},
                {"id": "e2", "u": "p", "v": "q", "length": 1.2},
                {"id": "e3", "u": "p", "v": "q", "length": 1.4},
            ],
        },
        [{"vertex": "p"}, {"vertex": "q"}, {"edge": "e1", "offset": 0.5}],
        [{"edge": "e2", "offset": 0.6}, {"edge": "e3", "offset": 0.7}, {"edge": "e3", "offset": 0.1}],
    ),
    "lollipop": (
        {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "stick", "u": "a", "v": "b", "length": 1.5},
                {"id": "loop", "u": "b", "v": "b", "length": 3.0},
            ],
        },
        [{"vertex": "a"}, {"edge": "loop", "offset": 1.5}],
        [{"vertex": "b"}, {"edge": "stick", "offset": 0.75}, {"edge": "loop", "offset": 0.5}],
    ),
    "star": (
        {
            "vertices": ["c", "t1", "t2", "t3"],
            "edges": [
                {"id": "r1", "u": "c", "v": "t1", "length": 1.0},
                {"id": "r2", "u": "c", "v": "t2", "length": 1.5},
                {"id": "r3", "u": "c", "v": "t3", "length": 2.0},
            ],
        },
        [{"vertex": "c"}, {"vertex": "t1"}, {"edge": "r3", "offset": 1.25}],
        [{"vertex": "t2"}, {"vertex": "t3"}, {"edge": "r1", "offset": 0.4}],
    ),
}

MATRICES = {
    "line3": {"n": 3, "d": [0, "pi/3", "2pi/3", "pi/3", 0, "pi/3", "2pi/3", "pi/3", 0]},
    "cycle4": {"n": 4, "d": [0, 1, 2, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 1, 0]},
}


def cases() -> dict[str, list[str]]:
    """Case name -> argv, with fixture paths relative to the working directory."""
    out = {}
    for name in FIXTURES:
        g, x, y = (["--graph", f"fx/{name}.json"], ["--subset", f"fx/{name}-x.json"], ["--subset2", f"fx/{name}-y.json"])
        for verb in ("hausdorff", "bound"):
            out[f"{verb}-{name}-1"] = [verb, *g, *x]
            out[f"{verb}-{name}-2"] = [verb, *g, *x, *y, "--out", f"{verb}-{name}-2.json"]
        out[f"oracle-{name}"] = ["oracle", *g, *x, *y]
    for a, b in itertools.permutations(MATRICES):
        out[f"oracle-{a}-{b}"] = ["oracle", "--matrix", f"fx/{a}.json", "--matrix2", f"fx/{b}.json"]
    out["net-segment"] = ["construct", "net", "--graph", "fx/segment.json", "--epsilon", "0.25", "--out", "seg"]
    out["net-circle"] = ["construct", "net", "--graph", "fx/circle.json", "--epsilon", "pi/6", "--out", "circ"]
    out["star"] = ["construct", "star", "--n", "4", "--out", "star4"]
    out["circle6"] = ["construct", "circle6", "--epsilon", "pi/24", "--out", "c6"]
    for eps in ("0.05", "pi/12", "0.5"):
        out[f"circle6-{eps}"] = ["construct", "circle6", "--epsilon", eps, "--out", f"c6-{eps.replace('/', '-')}"]
    for name in ("theta", "lollipop"):
        out[f"ratio-{name}"] = ["experiment", "ratio", "--graph", f"fx/{name}.json", "--samples", "3", "--seed", "7"]
    out["error-off-graph"] = ["hausdorff", "--graph", "fx/segment.json", "--subset", "fx/off.json"]
    out["error-missing-file"] = ["bound", "--graph", "fx/missing.json", "--subset", "fx/segment-x.json"]
    return out


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:16]


def write_fixtures(root: Path) -> None:
    """The fixture files the cases name, under root/fx."""
    fx = root / "fx"
    fx.mkdir()
    for name, (graph, x, y) in FIXTURES.items():
        for suffix, doc in (("", graph), ("-x", x), ("-y", y)):
            (fx / f"{name}{suffix}.json").write_text(json.dumps(doc))
    for name, doc in MATRICES.items():
        (fx / f"{name}.json").write_text(json.dumps(doc))
    (fx / "off.json").write_text(json.dumps([{"edge": "nope", "offset": 0.5}]))


def run_here(src: str) -> dict[str, str]:
    """Every case run in process on the tree at src, in the working
    directory: output name -> hash."""
    sys.path.insert(0, str(Path(src).resolve()))
    import ghgraph
    from ghgraph.cli import main

    assert Path(ghgraph.__file__).resolve().is_relative_to(Path(src).resolve()), ghgraph.__file__
    write_fixtures(Path("."))
    hashes = {}
    for case, argv in cases().items():
        before = set(Path(".").iterdir())
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped error is an outcome too
                code = f"raised {type(exc).__name__}: {exc}"
        hashes[f"{case} stdout"] = _digest(out.getvalue())
        hashes[f"{case} stderr"] = _digest(err.getvalue())
        hashes[f"{case} exit"] = str(code)
        for path in sorted(set(Path(".").iterdir()) - before):
            hashes[f"{case} file {path}"] = _digest(path.read_bytes())
    return hashes


def run_tree(src: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--one", str(Path(src).resolve())],
            cwd=work, capture_output=True, text=True, check=True,
        )
    return json.loads(done.stdout)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="*", default=["src"], help="source trees, each holding ghgraph/ (default: src)")
    p.add_argument("--one", metavar="TREE", help=argparse.SUPPRESS)  # one tree's hashes as JSON
    args = p.parse_args(argv)
    for tree in [args.one] if args.one else args.trees:
        if not (Path(tree) / "ghgraph" / "__init__.py").is_file():
            p.error(f"no ghgraph/__init__.py under source tree {tree!r}")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.one:
        print(json.dumps(run_here(args.one)))
        return 0
    runs = [run_tree(src) for src in args.trees]
    names = sorted(set().union(*runs))
    differ = [n for n in names if len({run.get(n) for run in runs}) > 1]
    for n in differ:
        print(f"differs: {n}: " + " | ".join(str(run.get(n)) for run in runs))
    print(f"outputs compared: {len(names)}; that differ between trees: {len(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
