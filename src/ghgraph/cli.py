"""Command line interface: load fixtures, compute, emit tagged JSON reports.

File formats (all JSON):
  graph          {"vertices": ["v0", ...],
                  "edges": [{"id": "e0", "u": "v0", "v": "v1", "length": 1.5}, ...]}
  point set      [{"vertex": "v0"} | {"edge": "e0", "offset": 0.3}, ...]
  matrix         {"n": 3, "d": [row-major reals]}
  correspondence [{"arc": [lo, hi], "point": 2}, ...]
  region         {"intervals": {"e0": [[lo, hi], ...]}, "vertices": ["v0", ...]}

Wherever a number is expected, the tokens "pi", "2pi", "pi/3", and more
generally "<k>pi/<m>" are accepted and expanded exactly at parse time, so
fixtures can state pi-valued lengths without embedding rounded decimals.
All emitted numbers carry 12 significant digits and are tagged with the
name of the operation that produced them. Reports go to stdout; --out
writes the same bytes to a file as well.

Exit codes: 0 success, 2 parse failure, 3 validation failure, 4 work-guard
exceeded, 5 construction verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import re
import sys
from typing import Any, Sequence

import numpy as np

from .bounds import BoundCertificate, best_bound
from .constructions import (
    POINT_GUARD,
    arc_correspondence_distortion,
    circle_graph,
    circle_six_point,
    epsilon_net,
    star_counterexample,
)
from .errors import (
    ConstructionVerificationFailed,
    GhGraphError,
    GuardExceeded,
    ParseError,
    ValidationError,
)
from .graph import (
    EdgeIntervalSet,
    MetricGraph,
    PointSet,
    build_graph,
    point_set,
    smallest_nonterminal_edge,
)
from .hausdorff import (
    directed_hausdorff_boundary,
    directed_hausdorff_sets,
    hausdorff_graph_to_region,
    hausdorff_graph_to_set,
    hausdorff_sets,
)
from .oracle import FiniteMetricSpace, gh_exact, restrict_metric

__all__ = ["main"]

_PI_TOKEN = re.compile(r"^(\d*)pi(?:/(\d+))?$")


def parse_real(value: Any, what: str = "number") -> float:
    """Accept JSON numbers, numeric strings, and pi tokens like "2pi", "pi/3"."""
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        m = _PI_TOKEN.match(text)
        if m:
            coef = float(m.group(1)) if m.group(1) else 1.0
            div = float(m.group(2)) if m.group(2) else 1.0
            if div == 0.0:
                raise ParseError(f"{what}: zero divisor in {value!r}")
            return coef * math.pi / div
        try:
            return float(text)
        except ValueError:
            raise ParseError(f"{what}: cannot parse {value!r}") from None
    raise ParseError(f"{what}: expected a number, got {type(value).__name__}")


def _sig12(x: float) -> float:
    # round to 12 significant digits; the shortest repr of the result is
    # exactly the 12-digit decimal, keeping emitted files byte-stable
    return float(f"{float(x):.12g}")


def _tag(op: str, value: float) -> dict:
    return {"op": op, "value": _sig12(value)}


# --------------------------------------------------------------------------
# loading and dumping fixtures


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _parse_id(value: Any, what: str) -> str:
    """A vertex or edge id: a JSON string, or a number taken by its text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParseError(f"{what}: expected a string or number, got {json.dumps(value)}")
    return str(value)


def load_graph(path: str) -> MetricGraph:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ParseError(f"{path}: graph document needs 'vertices' and 'edges'")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise ParseError(f"{path}: 'vertices' and 'edges' must be lists")
    # ids are checked by type once per document; build_graph takes their text
    try:
        edges = [(e["id"], e["u"], e["v"], parse_real(e["length"], "edge length")) for e in doc["edges"]]
        ok = set(map(type, itertools.chain(doc["vertices"], *(e[:3] for e in edges)))) <= {str, int, float}
    except (ParseError, TypeError, KeyError):
        ok = False
    if ok:
        return build_graph(doc["vertices"], edges)
    # the first bad entry in document order raises
    for e in doc["edges"]:
        if not isinstance(e, dict) or not {"id", "u", "v", "length"} <= set(e):
            raise ParseError(f"{path}: edge entries need id, u, v, length")
        _parse_id(e["id"], "edge id"), _parse_id(e["u"], "edge end"), _parse_id(e["v"], "edge end")
        parse_real(e["length"], "edge length")
    for v in doc["vertices"]:
        _parse_id(v, "vertex id")
    raise ParseError(f"{path}: graph document rejected")


def load_subset(path: str, G: MetricGraph) -> PointSet:
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: point set document must be a list")
    specs: list = []
    for item in doc:
        if not isinstance(item, dict):
            raise ParseError(f"{path}: point entries must be objects")
        if "vertex" in item:
            specs.append(_parse_id(item["vertex"], "vertex id"))
        elif "edge" in item and "offset" in item:
            specs.append((_parse_id(item["edge"], "edge id"), parse_real(item["offset"], "offset")))
        else:
            raise ParseError(f"{path}: point entry needs 'vertex' or 'edge'+'offset'")
    return point_set(G, specs)


def load_matrix(path: str) -> FiniteMetricSpace:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "n" not in doc or "d" not in doc:
        raise ParseError(f"{path}: matrix document needs 'n' and 'd'")
    n = doc["n"]
    if type(n) is not int or not isinstance(doc["d"], list):
        raise ParseError(f"{path}: 'n' must be an integer and 'd' a list")
    flat = [parse_real(v, "matrix entry") for v in doc["d"]]
    if n <= 0 or len(flat) != n * n:
        raise ParseError(f"{path}: 'd' must hold n*n = {n * n} entries")
    return FiniteMetricSpace(np.asarray(flat, dtype=float).reshape(n, n))


def _graph_doc(G: MetricGraph, length_tokens: dict[str, str] | None = None) -> dict:
    tokens, vs = length_tokens or {}, G.vertices
    edges = zip(G.edge_ids, G.edge_u.tolist(), G.edge_v.tolist(), G.edge_length.tolist())
    return {
        "vertices": list(vs),
        "edges": [
            {"id": eid, "u": vs[i], "v": vs[j], "length": tokens.get(eid, _sig12(length))}
            for eid, i, j, length in edges
        ],
    }


def _subset_doc(X: PointSet) -> list:
    out = []
    for p in X:
        if p.vertex is not None:
            out.append({"vertex": p.vertex})
        else:
            out.append({"edge": p.edge, "offset": _sig12(p.offset)})
    return out


def _region_doc(W: EdgeIntervalSet) -> dict:
    return {
        "intervals": {
            eid: [[_sig12(lo), _sig12(hi)] for lo, hi in ivs]
            for eid, ivs in sorted(W.intervals.items())
        },
        "vertices": sorted(W.vertices),
    }


def _json_text(doc: Any) -> str:
    """The one JSON serialization of every report and written file."""
    return json.dumps(doc, indent=2) + "\n"


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc))


def _certificate_doc(cert: BoundCertificate) -> dict:
    doc = {
        "theorem": cert.theorem,
        "kind": cert.kind,
        "value": _tag(cert.op, cert.value),
        "hypotheses": [
            {
                "description": h.description,
                "left": _tag(cert.op, h.left),
                "relation": h.relation,
                "right": _tag(cert.op, h.right),
                "satisfied": h.satisfied,
            }
            for h in cert.hypotheses
        ],
    }
    if cert.upper_bound is not None:
        doc["upper_bound"] = _tag(cert.op, cert.upper_bound)
    return doc


# --------------------------------------------------------------------------
# subcommands


def _cmd_hausdorff(args: argparse.Namespace) -> dict:
    G = load_graph(args.graph)
    X = load_subset(args.subset, G)
    report: dict = {
        "command": "hausdorff",
        "graph": args.graph,
        "subset": args.subset,
        "graph_to_set": _tag("hausdorff_graph_to_set", hausdorff_graph_to_set(G, X)),
        "boundary_to_set": _tag(
            "directed_hausdorff_boundary", directed_hausdorff_boundary(G, X)
        ),
    }
    if args.subset2:
        Y = load_subset(args.subset2, G)
        report["subset2"] = args.subset2
        xy, yx = directed_hausdorff_sets(G, X, Y), directed_hausdorff_sets(G, Y, X)
        report["directed_xy"] = _tag("directed_hausdorff_sets", xy)
        report["directed_yx"] = _tag("directed_hausdorff_sets", yx)
        # hausdorff_sets is exactly the larger directed value
        report["symmetric"] = _tag("hausdorff_sets", max(xy, yx))
    return report


def _cmd_bound(args: argparse.Namespace) -> dict:
    G = load_graph(args.graph)
    X = load_subset(args.subset, G)
    Y = load_subset(args.subset2, G) if args.subset2 else None
    certs = best_bound(G, X, Y)
    return {
        "command": "bound",
        "graph": args.graph,
        "subset": args.subset,
        "subset2": args.subset2,
        "certificates": [_certificate_doc(c) for c in certs],
    }


def _cmd_oracle(args: argparse.Namespace) -> dict:
    if args.matrix:
        if not args.matrix2:
            raise ParseError("oracle needs --matrix2 alongside --matrix")
        X = load_matrix(args.matrix)
        Y = load_matrix(args.matrix2)
        source = {"matrix": args.matrix, "matrix2": args.matrix2}
    else:
        if not (args.graph and args.subset and args.subset2):
            raise ParseError(
                "oracle needs either --matrix/--matrix2 or --graph/--subset/--subset2"
            )
        G = load_graph(args.graph)
        X = restrict_metric(G, load_subset(args.subset, G))
        Y = restrict_metric(G, load_subset(args.subset2, G))
        source = {
            "graph": args.graph,
            "subset": args.subset,
            "subset2": args.subset2,
        }
    value, witness = gh_exact(X, Y, guard=args.guard)
    report = {"command": "oracle", **source}
    report["value"] = _tag("gh_exact", value)
    report["distortion"] = _tag("distortion", 2.0 * value)
    report["witness"] = [[i, j] for i, j in witness]
    return report


def _cmd_construct(args: argparse.Namespace) -> dict:
    # each instance gives its files as (report key, file name suffix, document)
    if args.name == "star":
        if args.n is None:
            raise ParseError("construct star needs --n")
        T, X, Xc = star_counterexample(args.n)
        files = [
            ("graph", "graph", _graph_doc(T)),
            ("x", "x", _region_doc(X)),
            ("x_centered", "x-centered", _region_doc(Xc)),
        ]
        verification = {
            "d_H_T_X": _tag("hausdorff_graph_to_region", hausdorff_graph_to_region(T, X)),
            "d_H_T_X_centered": _tag("hausdorff_graph_to_region", hausdorff_graph_to_region(T, Xc)),
        }
    elif args.name == "circle6":
        if args.epsilon is None:
            raise ParseError("construct circle6 needs --epsilon")
        eps = parse_real(args.epsilon, "--epsilon")
        X, R = circle_six_point(eps)
        G = circle_graph()
        arcs = [{"arc": [_sig12(lo), _sig12(hi)], "point": idx} for (lo, hi), idx in R]
        files = [
            ("graph", "graph", _graph_doc(G, {"loop": "2pi"})),
            ("points", "points", _subset_doc(X)),
            ("correspondence", "correspondence", arcs),
        ]
        verification = {
            "d_H": _tag("hausdorff_graph_to_set", hausdorff_graph_to_set(G, X)),
            "distortion": _tag("arc_correspondence_distortion", arc_correspondence_distortion(R, X, G)),
        }
    else:  # net
        if not args.graph:
            raise ParseError("construct net needs --graph")
        if args.epsilon is None:
            raise ParseError("construct net needs --epsilon")
        eps = parse_real(args.epsilon, "--epsilon")
        G = load_graph(args.graph)
        net = epsilon_net(G, eps)
        files = [("subset", "net", _subset_doc(net))]
        verification = {
            "d_H": _tag("hausdorff_graph_to_set", hausdorff_graph_to_set(G, net)),
            "epsilon": _tag("epsilon_net", eps),
            "points": len(net),
        }
    prefix = args.out or args.name
    written = {}
    for key, suffix, doc in files:
        written[key] = f"{prefix}-{suffix}.json"
        _write_json(written[key], doc)
    return {"command": "construct", "name": args.name, "verification": verification, "files": written}


def _random_subset(G: MetricGraph, rng: random.Random, npts: int) -> PointSet:
    ids, lengths = G.edge_ids, G.edge_length.tolist()
    if not ids:
        raise ValidationError("random points need a graph with at least one edge")
    # the cumulative weights choices() would rebuild per call; the draws are the same
    cum_weights = list(itertools.accumulate(lengths))
    specs = []
    for _ in range(npts):
        k = rng.choices(range(len(ids)), cum_weights=cum_weights)[0]
        specs.append((ids[k], rng.random() * lengths[k]))
    return point_set(G, specs)


def _cmd_experiment(args: argparse.Namespace) -> dict:
    G = load_graph(args.graph)
    rng = random.Random(args.seed)
    total_len = sum(G.edge_length.tolist())  # left to right: np.sum's order can move the last bit
    if not (args.density > 0.0 and math.isfinite(args.density * total_len)):
        raise ValidationError(f"density must be positive, with a finite point count, got {args.density}")
    npts = max(1, round(args.density * total_len))
    if npts > args.guard:
        raise GuardExceeded(f"experiment guard of {args.guard} points per subset exceeded: {npts:.3g} points")
    e_val = smallest_nonterminal_edge(G)

    rows = []
    for trial in range(args.samples):
        X = _random_subset(G, rng, npts)
        Y = _random_subset(G, rng, npts)
        row: dict = {
            "trial": trial,
            "size_x": len(X),
            "size_y": len(Y),
            "d_H": _tag("hausdorff_sets", hausdorff_sets(G, X, Y)),
            "certificates": [
                {
                    "theorem": c.theorem,
                    "kind": c.kind,
                    "value": _tag("best_bound", c.value),
                }
                for c in best_bound(G, X, Y)
            ],
        }
        if len(X) <= 8 and len(Y) <= 8:
            try:
                value, _ = gh_exact(
                    restrict_metric(G, X), restrict_metric(G, Y), guard=args.guard
                )
                row["oracle"] = _tag("gh_exact", value)
            except GuardExceeded as err:
                row["oracle"] = {
                    "op": "gh_exact",
                    "error": "guard-exceeded",
                    "bracket": [_sig12(b) for b in err.bracket],
                }
        else:
            row["oracle"] = {"op": "gh_exact", "error": "skipped-too-large"}
        rows.append(row)

    report: dict = {
        "command": "experiment",
        "kind": "ratio",
        "graph": args.graph,
        "seed": args.seed,
        "samples": args.samples,
        "density": args.density,
        "points_per_subset": npts,
        "rows": rows,
    }
    if e_val is not None:
        report["e"] = _tag("smallest_nonterminal_edge", e_val)
        levels = {"e_over_12": e_val / 12.0, "e_over_8": e_val / 8.0}
        summary = {}
        for label, level in levels.items():
            window = 0.25 * level
            hits = [
                r["oracle"]["value"]
                for r in rows
                if "value" in r["oracle"]
                and abs(r["d_H"]["value"] - level) <= window
            ]
            summary[label] = {
                "level": _sig12(level),
                "window": _sig12(window),
                "trials": len(hits),
                "min_gh": _sig12(min(hits)) if hits else None,
            }
        report["levels"] = summary
    return report


# --------------------------------------------------------------------------
# entry point


@functools.cache  # one parser per process: building it is most of a small request
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ghgraph",
        description="Hausdorff distances and certified GH bounds on metric graphs",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--subset", help="point set JSON file")
        p.add_argument("--subset2", help="second point set JSON file")
        p.add_argument("--out", help="also write the report (or files) here")

    p = sub.add_parser("hausdorff", help="Hausdorff distances for subsets")
    common(p)
    p.set_defaults(fn=_cmd_hausdorff)

    p = sub.add_parser("bound", help="certified GH bounds")
    common(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("oracle", help="exact GH distance for small spaces")
    common(p)
    p.add_argument("--matrix", help="distance matrix JSON file")
    p.add_argument("--matrix2", help="second distance matrix JSON file")
    p.add_argument("--guard", type=int, default=100_000_000, help="work guard")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("construct", help="generate certified instances")
    p.add_argument("name", choices=["star", "circle6", "net"])
    p.add_argument("--graph", help="graph JSON file (net)")
    p.add_argument("--n", type=int, help="ray count (star)")
    p.add_argument("--epsilon", help="epsilon value, pi tokens accepted")
    p.add_argument("--out", help="output path prefix")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("experiment", help="observational ratio experiments")
    p.add_argument("kind", choices=["ratio"])
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--density", type=float, default=1.0, help="points per unit length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guard", type=int, default=POINT_GUARD, help="oracle work guard; also caps the points per subset")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(fn=_cmd_experiment)

    return top


# the exit code of each error class, first match wins; any other library
# error counts as a validation failure
_EXIT_CODES = ((ParseError, 2), (GuardExceeded, 4), (ConstructionVerificationFailed, 5), (GhGraphError, 3))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except GhGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    text = _json_text(report)
    sys.stdout.write(text)
    if args.cmd != "construct" and getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0
