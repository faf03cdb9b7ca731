"""Record ``reference.json``: every request's output for the default seeds.

Each request of each workload runs once; library values are stored in
full and CLI stdout as 64 bits of its SHA-256. ``checks.check`` must pass on these
outputs before they are written, so a reference never records a value
that breaks an invariant. Re-record only on purpose, when a change to the
library is meant to change its outputs.

Run from the repository root:  python3 bench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from run import WORKDIR, make_workload, run_one  # noqa: E402

DEFAULT_SEEDS = range(10)


def record(name: str, seed: int) -> dict:
    wl = make_workload(name, seed)
    executions = [(idx, run_one(req)) for idx, req in enumerate(wl.requests)]
    failures = checks.check(wl, executions, None)
    if failures:
        raise SystemExit(f"{name} seed {seed}: {failures[:5]}")
    entries = {}
    for idx, out in executions:
        entry = checks.reference_entry(wl.requests[idx].kind, out)
        if entry is not None:
            entries[wl.requests[idx].key] = entry
    return entries


def main(names: list[str]) -> None:
    os.chdir(os.path.dirname(HERE))
    try:
        with open(checks.REFERENCE_PATH, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    try:
        for name in names or ["field", "certify", "oracle"]:
            doc[name] = {str(seed): record(name, seed) for seed in DEFAULT_SEEDS}
            print(f"{name}: recorded seeds {list(DEFAULT_SEEDS)}", flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        write_reference(doc, fh)


def write_reference(doc: dict, fh) -> None:
    """JSON with one line per (workload, seed)."""
    lines = []
    for name in sorted(doc):
        seeds = [f"  {json.dumps(seed)}: {json.dumps(doc[name][seed], sort_keys=True)}"
                 for seed in sorted(doc[name], key=int)]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(seeds) + "\n }")
    fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
