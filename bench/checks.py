"""Output checks for the benchmark. They run after timing and are not timed.

Two kinds of check apply:

* reference values, recorded by ``record_reference.py`` for the seeds in
  ``reference.json``: library values must agree to 12 significant digits
  and CLI stdout must be byte-identical (compared through 64 bits of its
  SHA-256);
* invariants that hold for any seed, listed per workload below.

Every execution of a request must also return exactly what its first
execution returned. A request fails if it raised, or if its output, or an
invariant that involves it, fails.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random

import ghgraph as gg
from workloads import FIELD_RADIUS

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def digest(text: str) -> str:
    """The first 64 bits of the SHA-256 of ``text``, in hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_entry(kind: str, output):
    """What the reference file stores for one output, or None if nothing."""
    if isinstance(output, float):
        return output
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], str):
        return digest(output[1])
    if kind == "gh_exact":
        return output[0]
    return None


def compare_reference(expected, output) -> str | None:
    """Flag an output that differs from its recorded reference entry."""
    if expected is None:
        return None
    if isinstance(expected, str):
        if digest(output[1]) != expected:
            return "stdout differs from the recorded bytes"
        return None
    value = output[0] if isinstance(output, tuple) else output
    if not math.isclose(value, expected, rel_tol=5e-12, abs_tol=1e-12):
        return f"value {value!r} differs from the recorded {expected!r}"
    return None


def _tol(*values: float) -> float:
    return 1e-9 * (1.0 + max(abs(v) for v in values))


def _leq(a: float, b: float) -> bool:
    return a <= b + _tol(a, b)


# --------------------------------------------------------------------------
# field


def _dijkstra(vertices, edges, source):
    adj = {v: [] for v in vertices}
    for _, u, v, l in edges:
        adj[u].append((v, l))
        adj[v].append((u, l))
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, l in adj[u]:
            if d + l < dist.get(v, math.inf):
                dist[v] = d + l
                heapq.heappush(heap, (d + l, v))
    return dist


def _check_field(wl, idx, out, by_key):
    req = wl.requests[idx]
    ctx = wl.context
    gkey = "/".join(req.key.split("/")[:2])
    vertices, edges = ctx["inputs"][gkey]
    # the timed loop keeps only the latest graph; build_graph is deterministic
    G = ctx["graphs"].get(gkey)
    if G is None:
        G = gg.build_graph(vertices, edges)
        ctx["graphs"].clear()
        ctx["graphs"][gkey] = G
    if req.kind == "build_graph":
        if out != (len(vertices), len(edges)):
            return f"graph has sizes {out}, expected {(len(vertices), len(edges))}"
        # an independent Dijkstra from one vertex against the library's metric
        expected = _dijkstra(vertices, edges, vertices[0])
        src = gg.vertex_point(G, vertices[0])
        for v in vertices:
            got = gg.point_distance(G, src, gg.vertex_point(G, v))
            if not math.isclose(got, expected[v], rel_tol=1e-9, abs_tol=1e-12):
                return f"d({vertices[0]}, {v}) = {got!r}, Dijkstra gives {expected[v]!r}"
        return None
    rkey = req.key.rsplit("/", 1)[0]
    sibling = {name: by_key.get(f"{rkey}/{name}") for name in ("graph_to_set", "boundary")}
    if not isinstance(out, float) or not math.isfinite(out) or out < 0.0:
        return f"{out!r} is not a finite non-negative distance"
    h = sibling["graph_to_set"]
    if req.kind == "hausdorff_graph_to_set":
        b = sibling["boundary"]
        if b is not None and not _leq(b, out):
            return f"d_H(G, A) = {out!r} is below directed d(boundary, A) = {b!r}"
    elif req.kind == "hausdorff_graph_to_region":
        # A lies inside its open r-ball union W, and W lies within r of A
        if h is not None and not (_leq(max(0.0, h - FIELD_RADIUS), out) and _leq(out, h)):
            return f"d_H(G, W) = {out!r} outside [d_H(G, A) - r, d_H(G, A)] with d_H(G, A) = {h!r}"
    elif req.kind == "hausdorff_sets":
        a, b = ctx["subsets"][rkey]
        rng = random.Random(req.key)
        A, B = gg.point_set(G, a), gg.point_set(G, b)
        for P, Q in ((a, B), (b, A)):
            sample = gg.point_set(G, rng.sample(P, 8))
            lower = float(gg.pairwise_distances(G, sample, Q).min(axis=1).max())
            if not _leq(lower, out):
                return f"d_H(A, B) = {out!r} is below a sampled directed distance {lower!r}"
    return None


# --------------------------------------------------------------------------
# certify


def _instance_sets(inst):
    G = gg.build_graph(*inst["graph"])
    return G, {name: gg.point_set(G, inst[name]) for name in ("X", "Y", "X6", "Y6")}


def _check_certify(wl, idx, out, by_key):
    req = wl.requests[idx]
    code, text = out
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    k = int(req.key.split("/")[0][1:])
    if req.kind in ("bound1", "bound2"):
        values = [c["value"]["value"] for c in doc["certificates"]]
        if values != sorted(values, reverse=True):
            return "certificates are not sorted best first"
        for c in doc["certificates"]:
            if "upper_bound" in c and not _leq(c["value"]["value"], c["upper_bound"]["value"]):
                return f"{c['theorem']} value exceeds its upper bound"
    elif req.kind == "hausdorff":
        pair = max(doc["directed_xy"]["value"], doc["directed_yx"]["value"])
        if doc["symmetric"]["value"] != pair:
            return "symmetric Hausdorff is not the larger directed value"
        if not _leq(doc["boundary_to_set"]["value"], doc["graph_to_set"]["value"]):
            return "d_H(G, X) is below directed d(boundary, X)"
    elif req.kind == "oracle":
        value = doc["value"]["value"]
        if not math.isclose(doc["distortion"]["value"], 2.0 * value, rel_tol=1e-11, abs_tol=1e-12):
            return "emitted distortion is not twice the value"
        G, sets = _instance_sets(wl.context["instances"][k])
        X, Y = gg.restrict_metric(G, sets["X6"]), gg.restrict_metric(G, sets["Y6"])
        dist = gg.distortion([tuple(p) for p in doc["witness"]], X, Y)
        if not math.isclose(dist, 2.0 * value, rel_tol=1e-11, abs_tol=1e-12):
            return f"witness distortion {dist!r} is not twice the value {value!r}"
        return _oracle_sandwich(G, sets["X6"], sets["Y6"], X, Y, value) or _pair_bounds_below(
            G, sets["X6"], sets["Y6"], value
        )
    elif req.kind == "net":
        ver = doc["verification"]
        if not _leq(ver["d_H"]["value"], ver["epsilon"]["value"]):
            return "net coverage exceeds epsilon"
        with open(doc["files"]["subset"], encoding="utf-8") as fh:
            if len(json.load(fh)) != ver["points"]:
                return "written net has the wrong number of points"
    return None


def _pair_bounds_below(G, A, B, value):
    """Every applicable certificate for the same pair lies below the exact value."""
    for cert in gg.best_bound(G, A, B):
        if cert.applicable() and not _leq(cert.value, value):
            return f"{cert.theorem} certificate {cert.value!r} exceeds the exact GH value {value!r}"
    return None


def _oracle_sandwich(G, A, B, X, Y, value):
    low = gg.diameter_bound(X, Y).value
    high = gg.hausdorff_sets(G, A, B)
    if not (_leq(low, value) and _leq(value, high)):
        return f"GH value {value!r} outside [diameter bound {low!r}, co-embedded d_H {high!r}]"
    return None


# --------------------------------------------------------------------------
# oracle


def _check_oracle(wl, idx, out, by_key):
    value, pairs = out
    item = wl.context["pairs"][idx]
    G = wl.context["graphs"][item["family"], item["scale"]]
    A, B = gg.point_set(G, item["X"]), gg.point_set(G, item["Y"])
    X, Y = gg.restrict_metric(G, A), gg.restrict_metric(G, B)
    dist = gg.distortion(pairs, X, Y)
    if not math.isclose(dist, 2.0 * value, rel_tol=1e-12, abs_tol=1e-15):
        return f"witness distortion {dist!r} is not twice the value {value!r}"
    return _oracle_sandwich(G, A, B, X, Y, value)


CHECKERS = {"field": _check_field, "certify": _check_certify, "oracle": _check_oracle}


def check(wl, executions, reference: dict | None) -> list[tuple[int, str]]:
    """Failures as (position in ``executions``, reason).

    ``executions`` holds (request index, output) in run order; an output
    that is an exception means the request raised.
    """
    first: dict[int, object] = {}
    failures: list[tuple[int, str]] = []
    for pos, (idx, out) in enumerate(executions):
        if isinstance(out, Exception):
            failures.append((pos, f"raised {type(out).__name__}: {out}"))
        elif idx not in first:
            first[idx] = out
        elif out != first[idx]:
            failures.append((pos, "output differs from an earlier run of the same request"))
    by_key = {wl.requests[idx].key: out for idx, out in first.items()}
    verdict: dict[int, str | None] = {}
    for idx, out in first.items():
        req = wl.requests[idx]
        try:
            reason = CHECKERS[wl.name](wl, idx, out, by_key)
        except Exception as exc:  # a malformed output must fail, not stop the run
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and reference is not None:
            reason = compare_reference(reference.get(req.key), out)
        verdict[idx] = reason
    for pos, (idx, out) in enumerate(executions):
        if verdict.get(idx) and not isinstance(out, Exception):
            failures.append((pos, f"{wl.requests[idx].key}: {verdict[idx]}"))
    return failures
