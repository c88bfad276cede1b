"""Traced replay of CLI operations, layer by layer.

``replay(tracer, argv)`` re-runs one operation by calling the public
functions of each module in the order the CLI and ``build_pipeline`` call
them, with a span around every call.  Spans live in memory (name, start, end,
parent, op id) until ``Tracer.write`` dumps them as JSONL.  The replay returns
the canonical JSON the CLI would print, so the caller can require it to equal
the untraced output: a replay that drifts from the program shows up as a
digest mismatch, never as a silently different measurement.

End-to-end numbers never come from here; a change to an internal signature
can break this replay but not the untraced run through ``cli.main``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from checks import components
from vrclosure import cli, homology, pipeline, transform
from vrclosure.complex import check_simplicial, vietoris_rips
from vrclosure.realization import subdivision_depth_for_mesh

#: spans and counters reported as per-layer metrics, in BENCHMARK.json order
LAYER_TIMES = (
    "domains.build", "transform.discrete_modify", "transform.flood",
    "transform.certificate", "transform.subdivide", "transform.convex",
    "complex.vietoris_rips", "homology.induced_h1", "homology.boundary",
    "homology.rank", "pipeline.digest", "pipeline.refine", "pipeline.sd_compat",
    "cli.parse", "cli.emit",
)
LAYER_COUNTS = (
    "domains.samples", "transform.flood_changed", "transform.certificate_rows",
    "transform.subdivide_samples", "complex.simplices", "homology.h1_cycles",
    "homology.rank_columns",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self, first: int = 0) -> Counter:
        """Each span name's duration minus its children's, from span ``first`` on."""
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans[first:]:
            out[name] += end - start
        for _, start, end, parent, _ in self.spans[first:]:
            if parent is not None and parent >= first:
                out[self.spans[parent][0]] -= end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _cycle_rank(k) -> int:
    """dim Z1 = edges - vertices + components of the 1-skeleton."""
    adj = {v: set() for v in k.vertices}
    for u, w in k.simplices(1):
        adj[u].add(w)
        adj[w].add(u)
    return len(k.simplices(1)) - len(k.vertices) + components(k.vertices, adj)


def _pipeline(tr: Tracer, args) -> str:
    with tr.span("cli.parse"):
        graph = cli.load_graph(args.graph)
    with tr.span("domains.build"):
        domain = cli.parse_domain_spec(args.domain)
        points = cli.build_sample_map(args.map, domain, graph, args.seed)
    n = domain.n_samples
    tr.count("domains.samples", n)
    try:
        with tr.span("transform.discrete_modify"):
            f0 = transform.discrete_modify(points, domain, graph)
        with tr.span("pipeline.digest"):
            stages = [{"stage": "discrete_modify", "digest": pipeline.digest_map(f0), "changed": 0}]
        current = f0
        for v in f0.image_vertices():
            with tr.span("transform.flood"):
                radii = transform.flood_stage_radii(current, v)
                flooded = transform.flood(current, v, radii) if radii else current
            entry = {"stage": f"flood:{v}", "preimage": len(radii)}
            entry["changed"] = sum(flooded.values[i] != current.values[i] for i in range(n))
            if radii:
                entry["min_radius"] = min(radii.values())
            tr.count("transform.flood_changed", entry["changed"])
            current = flooded
            with tr.span("pipeline.digest"):
                entry["digest"] = pipeline.digest_map(current)
            stages.append(entry)
        with tr.span("transform.certificate"):
            cert = transform.clique_certificate(current)
        tr.count("transform.certificate_rows", n)
    except transform.CertificateFailure as exc:
        failure = {"failure": {"stage": exc.stage, "pair": list(exc.pair),
                               "values": [str(exc.values[0]), str(exc.values[1])],
                               "detail": exc.detail}}
        with tr.span("cli.emit"):
            return pipeline.canonical_json(failure)

    with tr.span("transform.mesh"):
        mesh = domain.max_simplex_diameter()
        dim = domain.triangulation.dimension()
        required = subdivision_depth_for_mesh(dim, mesh, cert.delta) if mesh > 0 else 0
    depth = max(required, args.subdivisions)
    cur_domain, cur_values = domain, dict(current.values)
    for _ in range(depth):
        with tr.span("transform.subdivide"):
            cur_domain, cur_values, _fv = transform.subdivide_domain(cur_domain, cur_values)
        tr.count("transform.subdivide_samples", cur_domain.n_samples)
    f_final = transform.DiscreteMap(cur_domain, graph, cur_values, current.base_value)
    cap = max(2, 2 * cur_domain.triangulation.dimension() + 1)
    with tr.span("complex.vietoris_rips"):
        target = vietoris_rips(graph, cap)
    tr.count("complex.simplices", sum(target.counts()))
    with tr.span("transform.convex"):
        m = transform.convex_transform(f_final, cur_domain.triangulation, cert, target)
    with tr.span("homology.induced_h1"):
        ih1 = homology.induced_h1(m)
    tr.count("homology.h1_cycles", _cycle_rank(m.source) + _cycle_rank(m.target))
    with tr.span("complex.check_simplicial"):
        simplicial = check_simplicial(m)
    with tr.span("pipeline.digest"):
        radii_digest = pipeline.fnv1a64(pipeline.canonical_json(cert.to_json_dict()))
        final_digest = pipeline.digest_map(f_final)
    report = {
        "graph": {"vertices": len(graph.vertices), "edges": len(graph.edges)},
        "domain": {"samples": n, "triangulation": domain.triangulation.counts(),
                   "basepoints": list(domain.basepoints), "eps_net": domain.eps_net},
        "stages": stages,
        "certificate": {"delta": cert.delta, "radii_digest": radii_digest},
        "depth": {"required": required, "chosen": depth},
        "simplicial": simplicial,
        "h1": {"rank": ih1.rank, "source_betti1": ih1.source_betti1,
               "target_betti1": ih1.target_betti1},
        "final_digest": final_digest,
        "seed": args.seed,
        "map": args.map,
        "domain_spec": args.domain,
    }
    if args.check_sd:
        art = pipeline.PipelineArtifacts(
            discrete=f0, flooded=current, stage_log=stages, certificate=cert,
            required_depth=required, depth=depth, final_domain=cur_domain,
            final_map=f_final, simplicial_map=m, target=target)
        with tr.span("pipeline.refine"):
            m2, face_vertex = pipeline.refine_once(art)
        with tr.span("pipeline.sd_compat"):
            report["sd_compatible"] = pipeline.sd_compatibility(m, m2, face_vertex, args.grid)
    with tr.span("cli.emit"):
        return pipeline.canonical_json(report)


def _graph(tr: Tracer, args) -> str:
    with tr.span("cli.parse"):
        graph = cli.load_graph(args.graph)
    if args.command == "build":
        dim_cap = args.max_dim
    else:
        dim_cap = args.max_dim if args.max_dim is not None else args.max_k + 1
    with tr.span("complex.vietoris_rips"):
        k = vietoris_rips(graph, dim_cap)
    tr.count("complex.simplices", sum(k.counts()))
    if args.command == "build":
        with tr.span("cli.emit"):
            body = cli.complex_to_json(k)
            report = dict(body, digest=pipeline.fnv1a64(pipeline.canonical_json(body)))
            return pipeline.canonical_json(report)
    ranks = {0: 0}
    for d in range(1, args.max_k + 2):
        ranks[d] = 0
        if k.simplices(d):
            with tr.span("homology.boundary"):
                columns = homology.boundary_columns(k, d)
            with tr.span("homology.rank"):
                ranks[d] = homology.gf2_rank(columns)
            tr.count("homology.rank_columns", len(columns))
    betti = [len(k.simplices(i)) - ranks[i] - ranks[i + 1] for i in range(args.max_k + 1)]
    report = {"field": "GF(2)", "betti": betti, "euler": homology.euler_characteristic(k)}
    with tr.span("cli.emit"):
        return pipeline.canonical_json(report)


def replay(tr: Tracer, argv: list, op_id: str) -> str:
    """Replay one operation under an ``op`` span; returns the canonical JSON
    the CLI prints for it."""
    args = cli.build_parser().parse_args(argv)
    tr.op = op_id
    with tr.span("op"):
        if args.command == "pipeline":
            return _pipeline(tr, args)
        return _graph(tr, args)
