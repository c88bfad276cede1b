"""Command-line front end: edge-list parsing, JSON reports, and commands.

Commands: ``build`` (clique complex), ``betti`` (homology report), ``theta``
(vertex retraction of a point), ``pipeline`` (the end-to-end runner).  Exit
codes: 0 success, 1 certificate/verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .complex import SimplicialComplex, TooManySimplices, vietoris_rips
from .domains import (
    antipodal_quarter_arc_map,
    circle_domain,
    constant_map,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)
from .graph import Graph, sort_vertices
from .homology import betti_numbers, euler_characteristic
from .pipeline import canonical_json, fnv1a64, run_pipeline
from .realization import BaryPoint, NotAClique, theta_on_graph
from .transform import CertificateFailure, TooManySamples


class InputError(ValueError):
    """Malformed user input; maps to exit code 2."""


#: the 29 code points ``str.isspace`` accepts, which ``str.split`` splits at,
#: and the 10 of them ``str.splitlines`` breaks at; none is above U+3000
SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
          "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
#: per code point to U+3001, which stands for all above it: 0 in a token, 1 a space, 2 a break
_CODE_KIND = np.zeros(0x3002, np.uint8)
_CODE_KIND[list(map(ord, SPACES))] = 1
_CODE_KIND[list(map(ord, BREAKS))] = 2
_COMMENT = re.compile(f"#[^{BREAKS}]*")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one "u v" edge per line (the lines of
    ``str.splitlines``), '#' comments, single-token lines declaring isolated
    vertices, explicit loops dropped.

    Vertex tokens are ordered numerically when every token is numeric and
    lexicographically otherwise; this order drives all downstream
    tie-breaking.  The text is read whole: one regex drops the comments,
    ``text.split()`` gives the tokens, and each token's line is the count of
    line breaks before it among the text's code points.  Each distinct token
    is converted once; the graph is built from one array of endpoint indices.
    """
    text = _COMMENT.sub("", text).replace("\r\n", "\n")
    tokens = text.split()
    # the kind of each code point, after one leading space so that every token follows one
    code = np.frombuffer(f" {text}".encode("utf-32-le", "surrogatepass"), np.uint32)
    kind = _CODE_KIND.take(code, mode="clip")
    space = kind != 0
    before = np.flatnonzero(space[:-1] > space[1:])  # the space before each token
    line = np.searchsorted(np.flatnonzero(kind == 2), before, side="right")  # from 0
    per_line = np.bincount(line)
    if len(per_line) and per_line.max() > 2:
        over = int(np.argmax(per_line > 2))
        raise InputError(f"line {over + 1}: expected 'u v' or a single vertex, got {per_line[over]} tokens")
    if not tokens:
        raise InputError("no vertices or edges found")
    distinct = set(tokens)
    try:
        label = dict(zip(distinct, map(int if "".join(distinct).isdigit() else str, distinct)))
    except ValueError:  # a digit that int refuses, such as a superscript: name its line
        for tok, lineno in zip(tokens, line.tolist()):
            try:
                int(tok)
            except ValueError as exc:
                raise InputError(f"line {lineno + 1}: bad vertex token: {exc}") from None
    vertices = sort_vertices(set(label.values()))
    position = dict(zip(vertices, range(len(vertices))))
    index = {tok: position[v] for tok, v in label.items()}
    ends = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    # a single-token line declares a vertex: read it as the loop "v v"
    return Graph.from_index_pairs(vertices, np.repeat(ends, 3 - per_line[line]))


def load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file: {exc}") from exc
    return parse_edge_list(text)


def complex_to_json(k: SimplicialComplex) -> dict:
    """The complex as a report dict; ``complex_json`` writes its canonical JSON."""
    return {
        "dim_cap": k.dim_cap,
        "vertices": list(k.vertices),
        "counts": k.counts(),
        # each level's labels in one gather, zipped from its columns into
        # tuples: rows as lists take a third more memory
        "simplices": [list(zip(*k.labels[level].T.tolist())) for level in k.rows],
    }


def complex_json(k: SimplicialComplex) -> str:
    """``canonical_json(complex_to_json(k))``, written directly: one JSON
    token per vertex label, gathered by each level's columns and joined
    into rows and levels."""
    # a str or int label as the encoder writes it, without building an encoder
    write = {str: encode_basestring_ascii, int: int.__repr__}
    tokens = np.fromiter((write.get(type(v), canonical_json)(v) for v in k.vertices), object, len(k.vertices))
    levels = ",".join(
        f"[[{'],['.join(map(','.join, zip(*tokens[level.T].tolist())))}]]" if len(level) else "[]"
        for level in k.rows
    )
    return (f'{{"counts":{canonical_json(k.counts())},"dim_cap":{k.dim_cap},'
            f'"simplices":[{levels}],"vertices":[{",".join(tokens.tolist())}]}}')


def _emit(report: dict | str, out: str | None) -> None:
    """Print a report, or write it to ``out``; a string is its canonical JSON."""
    text = report if isinstance(report, str) else canonical_json(report)
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _check_at_least(flag: str, value: int | None, low: int) -> None:
    """Reject a numeric option below its least meaningful value before any work."""
    if value is not None and value < low:
        raise InputError(f"{flag} must be at least {low}, got {value}")


def cmd_build(args) -> int:
    _check_at_least("--max-dim", args.max_dim, 0)
    k = vietoris_rips(load_graph(args.graph), args.max_dim)  # the graph goes before the JSON
    print(f"simplex counts by dimension: {k.counts()}", file=sys.stderr)
    # the body is encoded once: the report is its canonical text with
    # "digest" spliced in at its sorted place, right after "counts"
    body = complex_json(k)
    at = len(f'{{"counts":{canonical_json(k.counts())}')
    _emit(f'{body[:at]},"digest":"{fnv1a64(body)}"{body[at:]}', args.out)
    return 0


def cmd_betti(args) -> int:
    _check_at_least("--max-dim", args.max_dim, 0)
    _check_at_least("--max-k", args.max_k, 0)
    graph = load_graph(args.graph)
    dim_cap = args.max_dim if args.max_dim is not None else args.max_k + 1
    if args.max_k >= dim_cap:
        raise InputError(f"--max-k {args.max_k} needs --max-dim at least {args.max_k + 1}")
    k = vietoris_rips(graph, dim_cap)
    del graph  # the complex is all the reductions read: its edge keys go first
    report = {
        "field": "GF(2)",
        "betti": betti_numbers(k, args.max_k),
        "euler": euler_characteristic(k),
    }
    _emit(report, args.out)
    return 0


def _coerce_carrier(graph: Graph, raw_carrier) -> tuple:
    """Each token as the graph's own label: the vertex equal to the token, to
    its string or to its integer; a boolean is refused, as ``sort_vertices``
    refuses boolean labels, although ``True == 1``, and so is a float that
    is not integral, which ``int`` would truncate (``1.0`` names 1)."""

    def coerce(tok):
        if isinstance(tok, bool):
            raise InputError(f"carrier vertex {tok!r} is a boolean, not a vertex label")
        for alt in (tok, str(tok)):
            if alt in graph:
                return graph.vertices[graph.index(alt)]
        num = None
        if not isinstance(tok, float) or tok.is_integer():
            try:
                num = int(tok)
            except (TypeError, ValueError):
                pass
        if num is not None and num in graph:
            return num
        raise InputError(f"carrier vertex {tok!r} is not a vertex of the graph")

    return tuple(coerce(t) for t in raw_carrier)


def cmd_theta(args) -> int:
    graph = load_graph(args.graph)
    source = args.point
    try:
        text = (source if source.lstrip().startswith("{")
                else Path(source).read_text(encoding="utf-8"))
        data = json.loads(text)
        # a str or an object would iterate as characters or keys
        if not all(isinstance(data[key], list) for key in ("carrier", "coords")):
            raise InputError("bad point JSON: carrier and coords must be arrays")
        if any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in data["coords"]):
            raise InputError("bad point JSON: coords must be numbers")
        carrier = _coerce_carrier(graph, data["carrier"])
        point = BaryPoint(carrier, tuple(map(float, data["coords"])))
    except InputError:
        raise
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad point JSON: {exc}") from exc
    _emit({"vertex": theta_on_graph(graph, point)}, args.out)
    return 0


def parse_domain_spec(spec: str):
    parts = spec.split(":")
    try:
        if parts[0] == "circle" and len(parts) == 2:
            return circle_domain(int(parts[1]))
        if parts[0] == "sphere2" and len(parts) == 3 and parts[1] == "icosa":
            return icosphere_domain(int(parts[2]))
    except ValueError as exc:
        raise InputError(f"bad domain spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown domain spec {spec!r} (use circle:N or sphere2:icosa:K)")


def build_sample_map(spec: str, domain, graph: Graph, seed: int):
    """Resolve a map spec: a built-in name or ``@file`` with value JSON."""
    if spec.startswith("@"):
        try:
            data = json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
            values = data["values"]
            point: dict = {}  # by repr, which keeps 1, 1.0, True and "1" apart
            out = {}
            for i in range(domain.n_samples):
                key = repr(tok := values[str(i)])
                if key not in point:
                    point[key] = BaryPoint.of_vertex(*_coerce_carrier(graph, [tok]))
                out[i] = point[key]
            # the built-in domains' basepoint is sample 0
            if "base" in data and _coerce_carrier(graph, [data["base"]]) != out[0].carrier:
                raise InputError(f"base {data['base']!r} is not the value of basepoint 0")
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


def cmd_pipeline(args) -> int:
    _check_at_least("--subdivisions", args.subdivisions, 0)
    _check_at_least("--grid", args.grid, 1)
    graph = load_graph(args.graph)
    domain = parse_domain_spec(args.domain)
    sample_points = build_sample_map(args.map, domain, graph, args.seed)
    report = run_pipeline(
        graph,
        domain,
        sample_points,
        extra_subdivisions=args.subdivisions,
        check_sd=args.check_sd,
    )
    report["seed"] = args.seed
    report["map"] = args.map
    report["domain_spec"] = args.domain
    _emit(report, args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    """Run one command; the only place where a refusal becomes an exit code:
    2 for malformed or oversized input or an unwritable ``--out``, 1 for a
    failed certificate (reported as JSON, like a success) or a non-clique
    ``theta`` carrier."""
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except CertificateFailure as exc:
            _emit({"failure": exc.to_json_dict()}, args.out)
            return 1
    except (InputError, TooManySimplices, TooManySamples) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NotAClique as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
