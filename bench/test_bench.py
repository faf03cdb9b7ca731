"""Tests of the benchmark itself: seeding, the checker, and the tracer.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import ghgraph as gg  # noqa: E402
import workloads  # noqa: E402
from run import Calibration, percentile, run_one, timed_passes  # noqa: E402
from tracer import BINDINGS, Tracer  # noqa: E402


def _field_inputs(seed):
    ctx = workloads.make_field(seed).context
    return ctx["inputs"], ctx["subsets"]


@pytest.mark.parametrize(
    "generate",
    [_field_inputs, workloads.certify_instances, workloads.oracle_pairs],
    ids=["field", "certify", "oracle"],
)
def test_inputs_follow_the_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def _run(wl, count):
    return [(idx, run_one(wl.requests[idx])) for idx in range(count)]


def _reference_for(wl, executions):
    return {wl.requests[idx].key: checks.reference_entry(wl.requests[idx].kind, out)
            for idx, out in executions}


def test_checker_flags_perturbed_field_values():
    wl = workloads.make_field(0)
    executions = _run(wl, 1 + 4)  # the first graph and its first round
    reference = _reference_for(wl, executions)
    assert checks.check(wl, executions, reference) == []

    keys = [wl.requests[idx].key for idx, _ in executions]
    to_set = keys.index("p0/V500/r0/graph_to_set")
    nudged = list(executions)
    nudged[to_set] = (to_set, executions[to_set][1] * (1 + 1e-9))
    assert [pos for pos, _ in checks.check(wl, nudged, reference)] == [to_set]

    # an invariant catches a wrong value even without a reference
    region = keys.index("p0/V500/r0/region")
    broken = list(executions)
    broken[region] = (region, executions[to_set][1] + 1.0)
    assert [pos for pos, _ in checks.check(wl, broken, None)] == [region]


def test_checker_flags_perturbed_cli_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs("work")
    wl = workloads.make_certify(0, "work")
    executions = _run(wl, 5)  # the five verbs on the first instance
    reference = _reference_for(wl, executions)
    assert checks.check(wl, executions, reference) == []

    code, text = executions[1][1]
    flipped = text.replace("lower-bound", "lower-bounD", 1)
    assert flipped != text
    tampered = list(executions)
    tampered[1] = (1, (code, flipped))
    assert [pos for pos, _ in checks.check(wl, tampered, reference)] == [1]


def test_checker_flags_perturbed_oracle_value():
    wl = workloads.make_oracle(0)
    executions = _run(wl, 2)
    assert checks.check(wl, executions, None) == []
    value, witness = executions[0][1]
    tampered = [(0, (value * (1 + 1e-9), witness)), executions[1]]
    assert [pos for pos, _ in checks.check(wl, tampered, None)] == [0]


def test_checker_counts_a_raised_request():
    wl = workloads.make_oracle(0)
    executions = _run(wl, 1) + [(1, gg.GuardExceeded("stopped"))]
    assert [pos for pos, _ in checks.check(wl, executions, None)] == [1]


def test_tracer_restores_every_attribute(tmp_path, monkeypatch):
    modules = [importlib.import_module(m) for m in BINDINGS]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}

    monkeypatch.chdir(tmp_path)
    os.makedirs("work")
    wl = workloads.make_certify(0, "work")
    with Tracer() as tracer:
        assert gg.best_bound is not before[("ghgraph", "best_bound")]
        executions = _run(wl, 5)
    assert checks.check(wl, executions, None) == []

    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    metrics = tracer.metrics(passes=1)
    assert metrics["cli.main.calls"][0] == 5
    assert metrics["graph.graph_diameter.calls"][0] == 1  # the single-subset bound
    assert metrics["bounds.best_bound.self_s"][0] <= metrics["bounds.best_bound.s"][0]


def test_percentile_is_nearest_rank():
    assert percentile([float(i) for i in range(40, 0, -1)], 75) == (30.0, 10)
    assert percentile([float(i) for i in range(1, 101)], 90) == (90.0, 10)
    assert percentile([float(i) for i in range(1, 1001)], 99) == (990.0, 10)


def test_timed_passes_runs_whole_passes_that_wrap_around():
    noop = [workloads.Request(f"k{i}", "noop", lambda: None) for i in range(4)]
    wl = workloads.Workload("noop", noop, pass_length=3, warmup=0, tail_percentile=75, sizes={})
    executions, latencies, pass_walls = timed_passes(wl, 0.0, 3)
    assert [idx for idx, _ in executions] == [0, 1, 2, 3, 0, 1, 2, 3, 0]
    assert len(latencies) == 9 and len(pass_walls) == 3


def test_calibration_samples_a_share_of_each_request():
    calibration = Calibration()
    assert calibration.sample(0.0) == 0
    assert calibration.chunks[-1] == 1
    assert calibration.sample(0.05) == 1
    assert calibration.seconds[-1] - calibration.seconds[1] >= 0.1 * 0.05
    assert calibration.scale(0) > 0 and calibration.scale() > 0
