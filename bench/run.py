"""ghgraph benchmark: one workload per invocation, in a fresh process.

    python3 bench/run.py --workload {field,certify,oracle} --seed N --seconds S --trace {0,1}

Run from the repository root. The library is imported from ``src/`` of the
same checkout; nothing needs installing. Inputs come from ``--seed`` and
are generated before timing. One client sends requests in a closed loop
(the next request starts when the previous one returns) with numpy/BLAS
threads capped at the number of usable cores.

``--trace 0`` runs passes over the workload's request list until
``--seconds`` have elapsed, then checks every output and prints the
end-to-end metrics, taken over the whole passes of the run: throughput_per_s
is requests over the seconds spent in them, latency_p50_ms the median over
the requests of each one's median latency and latency_tail_ms a percentile
of all the latencies.

Times are scaled to a reference host speed. The machine the benchmark was
made on is a share of a busy host whose speed changes by up to a factor
of two, within a minute and within seconds: the same request list ran 1.3
times slower in one run than in the next, and one oracle pair took 506 to
809 ms in six passes of one run. So after each request, and after each
set-up sample, the client spends a tenth of its time on a fixed pure-Python
calibration loop, which samples the host's speed evenly in time. Each
request latency and set-up time is multiplied by CALIBRATION_REFERENCE_S
over the mean time of one calibration chunk within CALIBRATION_WINDOW_S of
its own calibration, and the metrics are taken over the scaled times. The
unscaled values are printed on the line before the result. The calibration
loop is part of the benchmark, so it runs alike on every commit; a change
to the program moves the scaled times as it moves the unscaled ones.

``--trace 1`` alternates an untraced and a traced pass over the first pass
of the list until ``--seconds`` have elapsed, checks both, and prints the
per-layer metrics of the traced passes, per pass, unscaled.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say how the
tail percentile was chosen and which checks failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = ".bench_run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
# calibration: after each request, chunks of the loop below until they have
# taken CALIBRATION_SHARE of the request's time (at least one chunk)
CALIBRATION_ITERATIONS = 5000
CALIBRATION_SHARE = 0.1
# reported times are for a host on which one chunk takes this long
CALIBRATION_REFERENCE_S = 4e-4
# a time is scaled by the chunks timed within this many seconds of its own
CALIBRATION_WINDOW_S = 1.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import ghgraph, ghgraph.cli; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("field", "certify", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(env: dict) -> float:
    """Wall time of ``import ghgraph, ghgraph.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Calibration:
    """Host speed, sampled after each timed interval in proportion to its length."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each sample
        self.seconds = [0.0]  # running totals over the samples
        self.chunks = [0]

    def sample(self, busy: float) -> int:
        """Calibrate for CALIBRATION_SHARE of ``busy`` seconds (at least one
        chunk); returns the index of the sample."""
        start = perf_counter()
        spent, chunks = 0.0, 0
        while True:
            t0 = perf_counter()
            acc = 0
            for i in range(CALIBRATION_ITERATIONS):
                acc += i * i % 7
            spent += perf_counter() - t0
            chunks += 1
            if spent >= CALIBRATION_SHARE * busy:
                break
        self.times.append((start + perf_counter()) / 2)
        self.seconds.append(self.seconds[-1] + spent)
        self.chunks.append(self.chunks[-1] + chunks)
        return len(self.times) - 1

    def scale(self, k: int | None = None) -> float:
        """Factor that turns a time into reference-host time: the chunks
        within CALIBRATION_WINDOW_S of sample ``k``, or all of them."""
        a, b = 0, len(self.times)
        if k is not None:
            a = bisect_left(self.times, self.times[k] - CALIBRATION_WINDOW_S)
            b = bisect_right(self.times, self.times[k] + CALIBRATION_WINDOW_S)
        return CALIBRATION_REFERENCE_S * (self.chunks[b] - self.chunks[a]) / (
            self.seconds[b] - self.seconds[a])


def percentile(latencies: list[float], q: int) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above its rank."""
    xs = sorted(latencies)
    k = math.ceil(q * len(xs) / 100)
    return xs[k - 1], len(xs) - k


def declared_metrics(computed: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, from ``computed``.

    ``computed`` maps a name to (value, unit). A declared metric that was
    not computed, or whose unit differs, raises.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    out = {}
    for m in declared:
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def run_one(req):
    try:
        return req.run()
    except Exception as exc:  # a failing request is counted, not fatal
        return exc


def min_passes(wl) -> int:
    """Fewest passes that leave ten samples beyond the workload's tail percentile."""
    k = 1
    while percentile([0.0] * (k * wl.pass_length), wl.tail_percentile)[1] < 10:
        k += 1
    return k


def timed_passes(wl, seconds: float, at_least: int, after_pass=None, after_request=None):
    """Requests in list order until ``seconds`` have elapsed and at least
    ``at_least`` whole passes are done; the last pass may stop part-way.

    Successive passes walk the list and wrap around at its end, so a run
    meets fresh inputs for as long as the list lasts. ``after_request`` is
    called with each request's latency, and ``after_pass`` after each whole
    pass, outside the request timings but inside the ``seconds``.
    Returns (executions, latencies, seconds of each whole pass).
    """
    n = len(wl.requests)
    executions, latencies, pass_walls = [], [], []
    pos = 0
    start = t_pass = perf_counter()
    while perf_counter() - start < seconds or pos < at_least * wl.pass_length:
        idx = pos % n
        t0 = perf_counter()
        out = run_one(wl.requests[idx])
        latency = perf_counter() - t0
        latencies.append(latency)
        executions.append((idx, out))
        pos += 1
        if after_request is not None:
            after_request(latency)
        if pos % wl.pass_length == 0:
            pass_walls.append(perf_counter() - t_pass)
            if after_pass is not None:
                after_pass()
            t_pass = perf_counter()
    return executions, latencies, pass_walls


def make_workload(name: str, seed: int):
    import workloads

    if name == "field":
        return workloads.make_field(seed)
    if name == "oracle":
        return workloads.make_oracle(seed)
    path = os.path.join(WORKDIR, "certify")
    os.makedirs(path, exist_ok=True)
    return workloads.make_certify(seed, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ghgraph", "__init__.py")):
        print(f"error: no ghgraph sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    sys.path[:0] = [SRC, HERE]

    import ghgraph

    if os.path.dirname(os.path.abspath(ghgraph.__file__)) != os.path.join(SRC, "ghgraph"):
        print(f"error: imported ghgraph from {ghgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    from tracer import Tracer

    try:
        wl = make_workload(args.workload, args.seed)
        for req in wl.requests[: wl.warmup]:
            run_one(req)
        if args.trace:
            executions, plain_wall, traced_wall, passes = [], 0.0, 0.0, 0
            tracer = Tracer()
            while plain_wall + traced_wall < args.seconds or passes == 0:
                ex, _, walls = timed_passes(wl, 0.0, 1)
                executions += ex
                plain_wall += walls[0]
                with tracer:
                    ex, _, walls = timed_passes(wl, 0.0, 1)
                executions += ex
                traced_wall += walls[0]
                passes += 1
        else:
            # set-up is sampled between passes, so its samples meet the host
            # in the states the passes meet it in; every time is paired with
            # the index of the calibration sample taken right after it
            calibration = Calibration()
            setup_times, request_samples = [], []

            def sample_setup():
                if len(setup_times) < SETUP_REPEATS:
                    t = measure_setup(env)
                    setup_times.append((t, calibration.sample(t)))

            def calibrate_request(latency):
                request_samples.append(calibration.sample(latency))

            sample_setup()
            executions, latencies, pass_walls = timed_passes(
                wl, args.seconds, min_passes(wl), sample_setup, calibrate_request)
            while len(setup_times) < SETUP_REPEATS:
                sample_setup()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = checks.check(wl, executions, checks.load_reference(wl.name, args.seed))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = len(executions)
    failed = len({pos for pos, _ in failures})
    for pos, reason in failures[:20]:
        print(f"check failed: execution {pos}: {reason}")
    print(f"workload {wl.name} seed {args.seed} sizes {json.dumps(wl.sizes)} threads {cores}")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} requests failed)")

    if args.trace:
        plain_tp = passes * wl.pass_length / plain_wall
        traced_tp = passes * wl.pass_length / traced_wall
        computed = tracer.metrics(passes)
        computed["trace.untraced_throughput_per_s"] = (plain_tp, "requests/s")
        computed["trace.traced_throughput_per_s"] = (traced_tp, "requests/s")
        computed["trace.slowdown"] = (plain_tp / traced_tp, "ratio")
        metrics = declared_metrics(computed, "per_layer")
        print(f"traced {passes} pass(es) of {wl.pass_length} requests; "
              f"tracing overhead {100.0 * (plain_tp / traced_tp - 1.0):.1f}% of throughput")
    else:
        # whole passes only, so every run weighs the request kinds alike
        n = len(pass_walls) * wl.pass_length

        def summary(times, setups):
            tail, beyond = percentile(times, wl.tail_percentile)
            # the median over requests of each one's median latency: a
            # request list that repeats puts the median of all samples between
            # two requests of different cost, at the slowest run of the one and
            # the fastest of the other, extremes that swing from run to run
            per_request: dict[int, list[float]] = {}
            for (idx, _), t in zip(executions, times):
                per_request.setdefault(idx, []).append(t)
            return {
                "throughput_per_s": len(times) / math.fsum(times),
                "latency_p50_ms": 1e3 * statistics.median(
                    statistics.median(ts) for ts in per_request.values()),
                "latency_tail_ms": 1e3 * tail,
                "setup_s": statistics.median(setups),
            }, beyond

        raw, beyond = summary(latencies[:n], [t for t, _ in setup_times])
        scaled, _ = summary(
            [t * calibration.scale(k) for t, k in zip(latencies[:n], request_samples)],
            [t * calibration.scale(k) for t, k in setup_times])
        scale = calibration.scale()
        print(f"{len(pass_walls)} whole passes; latency_tail_ms is p{wl.tail_percentile} of "
              f"{n} samples ({beyond} beyond it); calibration chunk "
              f"{1e3 / scale * CALIBRATION_REFERENCE_S:.4f} ms on average, scale {scale:.4f}")
        print("unscaled " + " ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        metrics = declared_metrics({
            "throughput_per_s": (scaled["throughput_per_s"], "requests/s"),
            "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
            "latency_tail_ms": (scaled["latency_tail_ms"], "ms"),
            "setup_s": (scaled["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_rate": ((attempted - failed) / attempted, "fraction"),
        }, "end_to_end")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
