"""Mutation check of the fast paths: every listed mutant must be killed.

A mutant is one literal replacement in a file under ``src/`` plus the tier-1
tests expected to fail on it. For each mutant the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the
old text, which must occur exactly once, and runs the selection there with
pytest, so the copy's ``src/`` is the one imported and hypothesis keeps its
examples in the copy. Each mutant is reported as

- killed: the selection fails;
- survived: the selection passes, so the tests no longer catch the fault;
- stale: the old text no longer occurs exactly once, so the mutant must
  be restated against the current code;
- error: pytest could not run the selection (exit code other than 0 or 1),
  for example because a selected test no longer exists;
- timed out: the selection ran past ``TIME_LIMIT_S`` and was stopped, for
  example because the mutant never ends.

Each pytest run is a child process whose address space is capped at
``MEMORY_CAP`` bytes (``RLIMIT_AS``, set in the child only), so a mutant
whose search grows without end fails with ``MemoryError`` instead of
taking the host's memory.

Before the mutants, the selections run once on an unmutated copy, which
must pass. The exit status is non-zero unless every mutant is killed or
timed out: a selection stopped at the time limit has not passed either.

    python tools/mutants.py                                          # every mutant
    python tools/mutants.py oracle-big-bit-order components-one-jump   # some

Add a mutant with each new fast path. The whole list takes a few seconds
per mutant; it is not part of tier-1.
"""

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 120
MEMORY_CAP = 1 << 30


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


ORACLE = "src/ghgraph/oracle.py"
GRAPH = "src/ghgraph/graph.py"
STAR_PIN = "tests/test_oracle.py::test_gh_matches_forward_check_reference_on_star"
TWO_WORD_PIN = "tests/test_oracle.py::test_gh_matches_forward_check_reference_on_two_word_rows"
WORD_ROWS = "tests/test_oracle.py::test_word_rows_match_byte_rows"
LOOPS_REFERENCE = "tests/test_graph.py::test_simple_loops_match_reference"
DIAMETER_REFERENCE = "tests/test_graph.py::test_graph_diameter_matches_scalar_reference"
DIAMETER_FIXTURES = "tests/test_graph.py::test_graph_diameter_matches_scalar_reference_on_fixtures"

MUTANTS = [
    # compatibility rows read from 64-bit words
    Mutant("oracle-high-word-dropped", ORACLE,
           "for k in range(1, words.shape[1]):", "for k in range(1, 1):", (WORD_ROWS,)),
    Mutant("oracle-big-bit-order", ORACLE,
           'bitorder="little").view("<u8")', 'bitorder="big").view("<u8")', (WORD_ROWS,)),
    # the dom/wdeg branching scan: the assignment count pins hold the rule
    Mutant("oracle-pick-on-ties", ORACLE,
           "if count < fewest * weight[w]:", "if count <= fewest * weight[w]:", (STAR_PIN, TWO_WORD_PIN)),
    Mutant("oracle-weight-not-raised", ORACLE,
           "weight[w] += 1\n                return False", "return False", (STAR_PIN, TWO_WORD_PIN)),
    # the skeleton sorted on one integer key keeps the shortest parallel edge
    Mutant("skeleton-keeps-longest", GRAPH,
           "np.minimum.reduceat(w[order], first)", "np.maximum.reduceat(w[order], first)",
           ("tests/test_graph.py::test_skeleton_matches_lexsort_reference",)),
    # label hooking needs h.bit_length() pointer jumps after h hooks
    Mutant("components-one-jump", GRAPH,
           "for _ in range(hooks.bit_length()):", "for _ in range(1):",
           ("tests/test_graph.py::test_component_count_matches_union_find",)),
    # the loop search keeps each parallel pair once and each longer cycle in one direction
    Mutant("loops-two-edge-tie", GRAPH,
           "steps[0][0] < k if", "steps[0][0] <= k if", (LOOPS_REFERENCE,)),
    Mutant("loops-both-directions", GRAPH,
           "path[1] < x)", "path[1] != x)", (LOOPS_REFERENCE,)),
    # without the on-path test the search revisits vertices and never ends
    Mutant("loops-revisit-path", GRAPH,
           "elif w > start and w not in path:", "elif w > start:", (LOOPS_REFERENCE,)),
    # the continuum diameter: both pairings of the ends, the stop margin and
    # the (lower, higher) orientation, against the closed form over every pair
    Mutant("diameter-one-pairing", GRAPH,
           "np.minimum(D[u1, u2] + D[v1, v2], D[u1, v2] + D[v1, u2])", "(D[u1, u2] + D[v1, v2])",
           (DIAMETER_REFERENCE,)),
    Mutant("diameter-stop-early", GRAPH,
           "if bound[e] + 1e-11 * (1.0 + bound[e]) < best:", "if bound[e] < 2.0 * best:", (DIAMETER_REFERENCE,)),
    Mutant("diameter-orientation", GRAPH,
           "p, q = np.minimum(e, f), np.maximum(e, f)", "p, q = e, f", (DIAMETER_FIXTURES,)),
]


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(tree: Path, tests, timeout: float | None = None) -> int | None:
    """pytest's exit code, or None if the run took longer than ``timeout`` seconds."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout, preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def judge(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="ghgraph-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = run_tests(tree, mutant.tests, TIME_LIMIT_S)
    return {None: "timed out", 0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = p.parse_args()
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        p.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    selection = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="ghgraph-mutant-") as tmp:
        copy_tree(Path(tmp))
        code = run_tests(Path(tmp), selection)
    if code != 0:
        print(f"the selections fail on the unmutated tree (pytest exit {code}); no mutant can be judged")
        return 1

    verdicts = []
    for m in chosen:
        verdicts.append(judge(m))
        print(f"{m.name:<28} {verdicts[-1]}", flush=True)
    killed, timed_out = verdicts.count("killed"), verdicts.count("timed out")
    print(f"{killed} of {len(chosen)} mutants killed, {timed_out} timed out")
    return 0 if killed + timed_out == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
