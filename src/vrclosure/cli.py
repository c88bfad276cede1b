"""Command-line front end: edge-list parsing, JSON reports, and commands.

Commands: ``build`` (clique complex), ``betti`` (homology report), ``theta``
(vertex retraction of a point), ``pipeline`` (the end-to-end runner).  Exit
codes: 0 success, 1 certificate/verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .complex import SimplicialComplex, subdivision_counts, vietoris_rips
from .domains import (
    antipodal_quarter_arc_map,
    circle_domain,
    constant_map,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)
from .graph import Graph
from .homology import betti_numbers, euler_characteristic
from .pipeline import canonical_json, fnv1a64, run_pipeline
from .realization import BaryPoint, theta_point
from .transform import CertificateFailure


#: most samples a pipeline domain may have, as given or after
#: ``--subdivisions``.  It keeps the largest measured domain (sphere2:icosa:5,
#: 10,242 samples) and icosa:4 refined once (15,362); the certificate's full
#: scan is quadratic, 2.7e8 distances at this size
MAX_SAMPLES = 1 << 14


class InputError(ValueError):
    """Malformed user input; maps to exit code 2."""


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one "u v" edge per line, '#' comments,
    single-token lines declaring isolated vertices, explicit loops dropped.

    Vertex tokens are ordered numerically when every token is numeric and
    lexicographically otherwise; this order drives all downstream
    tie-breaking.
    """
    entries = []  # (line_number, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise InputError(
                f"line {lineno}: expected 'u v' or a single vertex, got {len(tokens)} tokens"
            )
        entries.append((lineno, tokens))
    if not entries:
        raise InputError("no vertices or edges found")
    numeric = all(tok.isdigit() for _, toks in entries for tok in toks)
    convert = int if numeric else str
    vertices = []
    seen = set()
    edges = []
    for lineno, tokens in entries:
        try:
            toks = [convert(t) for t in tokens]
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad vertex token: {exc}") from exc
        for t in toks:
            if t not in seen:
                seen.add(t)
                vertices.append(t)
        if len(toks) == 2 and toks[0] != toks[1]:
            edges.append((toks[0], toks[1]))
    return Graph(vertices, edges)


def load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file: {exc}") from exc
    return parse_edge_list(text)


def complex_to_json(k: SimplicialComplex) -> dict:
    return {
        "dim_cap": k.dim_cap,
        "vertices": list(k.vertices),
        "counts": k.counts(),
        "simplices": [[list(s) for s in k.simplices(d)] for d in range(k.dim_cap + 1)],
    }


def _emit(report: dict, out: str | None) -> None:
    text = canonical_json(report)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _check_at_least(flag: str, value: int | None, low: int) -> None:
    """Reject a numeric option below its least meaningful value before any work."""
    if value is not None and value < low:
        raise InputError(f"{flag} must be at least {low}, got {value}")


def cmd_build(args) -> int:
    _check_at_least("--max-dim", args.max_dim, 0)
    graph = load_graph(args.graph)
    k = vietoris_rips(graph, args.max_dim)
    print(f"simplex counts by dimension: {k.counts()}", file=sys.stderr)
    body = complex_to_json(k)
    report = dict(body)
    report["digest"] = fnv1a64(canonical_json(body))
    _emit(report, args.out)
    return 0


def cmd_betti(args) -> int:
    _check_at_least("--max-dim", args.max_dim, 0)
    _check_at_least("--max-k", args.max_k, 0)
    graph = load_graph(args.graph)
    dim_cap = args.max_dim if args.max_dim is not None else args.max_k + 1
    if args.max_k >= dim_cap:
        raise InputError(f"--max-k {args.max_k} needs --max-dim at least {args.max_k + 1}")
    k = vietoris_rips(graph, dim_cap)
    report = {
        "field": "GF(2)",
        "betti": betti_numbers(k, args.max_k),
        "euler": euler_characteristic(k),
    }
    _emit(report, args.out)
    return 0


def _coerce_carrier(graph: Graph, raw_carrier) -> tuple:
    def coerce(tok):
        if tok in graph:
            return tok
        alt = str(tok)
        if alt in graph:
            return alt
        try:
            num = int(tok)
        except (TypeError, ValueError):
            num = None
        if num is not None and num in graph:
            return num
        raise InputError(f"carrier vertex {tok!r} is not a vertex of the graph")

    return tuple(coerce(t) for t in raw_carrier)


def cmd_theta(args) -> int:
    graph = load_graph(args.graph)
    source = args.point
    try:
        text = source if source.lstrip().startswith("{") else Path(source).read_text()
        data = json.loads(text)
        carrier = _coerce_carrier(graph, data["carrier"])
        point = BaryPoint(carrier, tuple(float(t) for t in data["coords"]))
    except InputError:
        raise
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad point JSON: {exc}") from exc
    k = vietoris_rips(graph, max(1, len(carrier) - 1))
    try:
        vertex = theta_point(k, point)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit({"vertex": vertex}, args.out)
    return 0


def _check_samples(samples) -> None:
    """Refuse a domain of more than ``MAX_SAMPLES`` samples before it is built."""
    if samples > MAX_SAMPLES:
        raise ValueError(f"more than {MAX_SAMPLES} samples")


def parse_domain_spec(spec: str):
    parts = spec.split(":")
    try:
        if parts[0] == "circle" and len(parts) == 2:
            n = int(parts[1])
            _check_samples(n)
            return circle_domain(n)
        if parts[0] == "sphere2" and len(parts) == 3 and parts[1] == "icosa":
            k = int(parts[2])
            # 10 * 4^k + 2 samples; k >= 6 is over the ceiling, so the
            # exponent is capped to keep a huge k cheap to refuse
            _check_samples(10 * 4 ** min(k, 8) + 2)
            return icosphere_domain(k)
    except ValueError as exc:
        raise InputError(f"bad domain spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown domain spec {spec!r} (use circle:N or sphere2:icosa:K)")


def build_sample_map(spec: str, domain, graph: Graph, seed: int):
    """Resolve a map spec: a built-in name or ``@file`` with value JSON."""
    if spec.startswith("@"):
        try:
            data = json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
            values = data["values"]
            out = {}
            for i in range(domain.n_samples):
                tok = values[str(i)]
                (vertex,) = _coerce_carrier(graph, [tok])
                out[i] = BaryPoint.of_vertex(vertex)
            return out
        except InputError:
            raise
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad values file {spec[1:]!r}: {exc}") from exc
    name, _, arg = spec.partition(":")
    try:
        if name == "constant":
            vertex = _coerce_carrier(graph, [arg])[0] if arg else None
            return constant_map(domain, graph, vertex)
        if name == "quarter-arc":
            return quarter_arc_map(domain, graph)
        if name == "antipodal-composition":
            return antipodal_quarter_arc_map(domain, graph)
        if name == "nearest-vertex":
            return nearest_pole_map(domain, graph)
        if name == "rotated-nearest":
            return nearest_pole_map(domain, graph, rotation=random_rotation(seed))
    except ValueError as exc:
        raise InputError(f"map spec {spec!r} does not fit this domain/graph: {exc}") from exc
    raise InputError(f"unknown map spec {spec!r}")


def _check_subdivision_budget(domain, rounds: int) -> None:
    """Refuse ``rounds`` subdivisions that would take the domain past
    ``MAX_SAMPLES`` samples, from simplex counts alone."""
    counts = domain.triangulation.counts()
    for _ in range(rounds):  # every CLI domain at least doubles per round
        counts = subdivision_counts(counts)
        if counts[0] > MAX_SAMPLES:
            raise InputError(
                f"--subdivisions {rounds} would refine the domain past "
                f"{MAX_SAMPLES} samples"
            )


def cmd_pipeline(args) -> int:
    _check_at_least("--subdivisions", args.subdivisions, 0)
    _check_at_least("--grid", args.grid, 1)
    graph = load_graph(args.graph)
    domain = parse_domain_spec(args.domain)
    _check_subdivision_budget(domain, args.subdivisions)
    sample_points = build_sample_map(args.map, domain, graph, args.seed)
    try:
        report = run_pipeline(
            graph,
            domain,
            sample_points,
            extra_subdivisions=args.subdivisions,
            check_sd=args.check_sd,
        )
    except CertificateFailure as exc:
        failure = {
            "failure": {
                "stage": exc.stage,
                "pair": [exc.pair[0], exc.pair[1]],
                "values": [str(exc.values[0]), str(exc.values[1])],
                "detail": exc.detail,
            }
        }
        _emit(failure, args.out)
        return 1
    report["seed"] = args.seed
    report["map"] = args.map
    report["domain_spec"] = args.domain
    _emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrclosure",
        description="Clique complexes of reflexive graphs and the transformation "
        "pipeline connecting sampled sphere maps to simplicial ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the clique complex of a graph")
    p_build.add_argument("graph", help="edge-list file")
    p_build.add_argument("--max-dim", type=int, default=2, help="dimension cap")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_betti = sub.add_parser("betti", help="GF(2) Betti numbers of the clique complex")
    p_betti.add_argument("graph")
    p_betti.add_argument("--max-k", type=int, default=1)
    p_betti.add_argument("--max-dim", type=int, default=None)
    p_betti.add_argument("--out", default=None)
    p_betti.set_defaults(func=cmd_betti)

    p_theta = sub.add_parser("theta", help="retract a realization point onto a vertex")
    p_theta.add_argument("graph")
    p_theta.add_argument("point", help="point JSON file or inline JSON")
    p_theta.add_argument("--out", default=None)
    p_theta.set_defaults(func=cmd_theta)

    p_pipe = sub.add_parser("pipeline", help="run the full transformation pipeline")
    p_pipe.add_argument("graph")
    p_pipe.add_argument("--domain", required=True, help="circle:N or sphere2:icosa:K")
    p_pipe.add_argument(
        "--map",
        required=True,
        help="constant[:v], quarter-arc, antipodal-composition, nearest-vertex, "
        "rotated-nearest, or @values.json",
    )
    p_pipe.add_argument("--subdivisions", type=int, default=0, help="extra subdivision rounds")
    p_pipe.add_argument("--seed", type=int, default=0)
    p_pipe.add_argument("--check-sd", action="store_true", help="verify subdivision compatibility")
    p_pipe.add_argument("--grid", type=int, default=50, help="at least 1; unused, --check-sd is exact")
    p_pipe.add_argument("--out", default=None)
    p_pipe.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
