"""Per-layer spans recorded from outside the library.

``Tracer`` replaces each listed public function with a timing wrapper at
every module that binds it. The modules import one another's functions
with ``from .graph import ...``, so patching only the defining module
would miss internal calls; patching every binding times them too. Each
wrapper pushes a frame on a span stack, so a layer's self time is its
inclusive time minus the time of the wrapped calls made inside it.
Leaving the ``with`` block puts every original attribute back.

Counts are computed from input and output sizes, never from inside the
library, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# layer -> public functions timed in that layer
LAYERS = {
    "graph": ("build_graph", "point_set", "pairwise_distances", "graph_diameter",
              "set_diameter", "thickening"),
    "hausdorff": ("hausdorff_graph_to_set", "hausdorff_graph_to_region", "hausdorff_sets",
                  "directed_hausdorff_sets", "directed_hausdorff_boundary"),
    "oracle": ("restrict_metric", "gh_exact"),
    "bounds": ("best_bound",),
    "constructions": ("epsilon_net",),
    "cli": ("main",),
}

# every module through which callers reach those functions
BINDINGS = ("ghgraph", "ghgraph.graph", "ghgraph.hausdorff", "ghgraph.bounds",
            "ghgraph.oracle", "ghgraph.constructions", "ghgraph.cli")


def _edge_pairs(args, kwargs, result):
    E = len(args[0].edges)
    return E * (E + 1) // 2


# function -> (counter name, count of work from (args, kwargs, result))
COUNTERS = {
    "build_graph": ("apsp_cells", lambda a, k, r: len(r.vertices) ** 2),
    "point_set": ("points", lambda a, k, r: len(r)),
    "pairwise_distances": ("cells", lambda a, k, r: r.size),
    "graph_diameter": ("edge_pairs", _edge_pairs),
    "hausdorff_sets": ("cells", lambda a, k, r: len(a[1]) * len(a[2])),
}


class _Span:
    __slots__ = ("calls", "s", "self_s", "max_s", "count")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0
        self.count = 0


class Tracer:
    """Context manager that times every call into the listed functions."""

    def __init__(self):
        self.spans = {f"{layer}.{name}": _Span() for layer, names in LAYERS.items() for name in names}
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer, name, fn):
        span = self.spans[f"{layer}.{name}"]
        counter = COUNTERS.get(name)
        stack = self._stack
        errors = self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.s += dt
                span.self_s += dt - frame[0]
                span.max_s = max(span.max_s, dt)
            if counter is not None:
                span.count += counter[1](args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in BINDINGS]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"ghgraph.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    if vars(mod).get(name) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Busy seconds, calls and counts per traced pass; ``max_s`` is the
        longest single call over all of them."""
        out: dict[str, tuple[float, str]] = {}
        for key, span in self.spans.items():
            name = key.split(".", 1)[1]
            out[f"{key}.s"] = (span.s / passes, "s")
            out[f"{key}.self_s"] = (span.self_s / passes, "s")
            out[f"{key}.calls"] = (span.calls / passes, "count")
            out[f"{key}.max_s"] = (span.max_s, "s")
            if name in COUNTERS:
                out[f"{key}.{COUNTERS[name][0]}"] = (span.count / passes, "count")
        for layer, n in self.errors.items():
            out[f"{layer}.errors"] = (n / passes, "count")
        return out
