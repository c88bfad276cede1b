"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every edge list and values file a
workload needs into ``out_dir`` and returns its operations: the argv handed to
``vrclosure.cli.main`` plus the facts the checks need (family parameters,
flipped sample, expected exit code).  The program only ever sees the argv and
the files.  The generator uses the program once: the sphere's sample
coordinates, which define sample numbering, to place the flipped sample.

Run as a script it is the set-up probe: a fresh interpreter imports the CLI
exactly as a workload process does, generates the inputs and writes
``manifest.json`` next to them.

    python3 bench/inputs.py --workload graph-homology --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

WORKLOADS = ("sampled-pipeline", "sd-check", "graph-homology")

# Vertex k of the octahedron graph sits at pole k; 2i and 2i+1 are antipodal.
POLES = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
         (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))

# The grid check's cost follows the number of distinct image patterns, which a
# random rotation changes by up to a third; one fixed rotation keeps the
# sd-check round the same size on every seed.
SD_ROTATION_SEED = 5


class Writer:
    """Writes edge lists with seeded line order and edge orientation."""

    def __init__(self, out_dir: Path, rng: random.Random):
        self.out_dir = out_dir
        self.rng = rng

    def edge_list(self, name: str, edges, isolated=(), header: str = "") -> str:
        lines = [f"{u} {v}" if self.rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
        lines += [str(v) for v in isolated]
        self.rng.shuffle(lines)
        path = self.out_dir / name
        path.write_text(f"# {header}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def relabel(self, n: int, prefix: str = ""):
        """Seeded bijection from 0..n-1 onto vertex tokens."""
        ids = list(range(n))
        self.rng.shuffle(ids)
        return [f"{prefix}{i}" if prefix else i for i in ids]


# -- graph families --------------------------------------------------------


def _surface_edges(canon, reps):
    """Edges of the six-neighbour triangulated plane, folded by ``canon``."""
    index = {r: k for k, r in enumerate(reps)}
    edges = set()
    for i, j in reps:
        a = index[canon(i, j)]
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            b = index[canon(i + di, j + dj)]
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def torus_edges(m: int, n: int):
    """Flag triangulation of the torus on an m x n grid (m, n >= 4)."""
    reps = [(i, j) for i in range(m) for j in range(n)]
    return len(reps), _surface_edges(lambda i, j: (i % m, j % n), reps)


def klein_edges(a: int, k: int):
    """Flag triangulation of the Klein bottle with 2ak vertices.

    The plane's six-neighbour grid is folded by the translation (k, -k) and the
    glide reflection (i, j) -> (j + a, i + a), which maps the grid's edge
    directions onto themselves.  In u = i + j, w = i - j the glide is
    u -> u + 2a, w -> -w, so representatives are 0 <= u < 2a, 0 <= w < 2k.
    """

    def canon(i, j):
        u, w = i + j, (i - j) % (2 * k)
        u %= 4 * a
        if u >= 2 * a:
            u, w = u - 2 * a, (-w) % (2 * k)
        return ((u + w) // 2, (u - w) // 2)

    reps = sorted(
        ((u + w) // 2, (u - w) // 2)
        for u in range(2 * a) for w in range(2 * k) if (u - w) % 2 == 0
    )
    return len(reps), _surface_edges(canon, reps)


def cross_polytope_edges(m: int):
    """K_{2,...,2} on m antipodal pairs (2i, 2i + 1): the boundary of the
    m-dimensional cross-polytope, a flag (m-1)-sphere."""
    return 2 * m, [(u, v) for u in range(2 * m) for v in range(u + 1, 2 * m) if u // 2 != v // 2]


def complete_edges(n: int):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def gnp_edges(n: int, p: float, rng: random.Random):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def clique_number(n: int, edges) -> int:
    """Size of a largest clique, by the checks' own enumeration."""
    from checks import cliques

    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    levels = cliques(list(range(n)), adj, n)
    return max(d + 1 for d, level in enumerate(levels) if level)


def _graph_op(w: Writer, name: str, family: dict, n: int, edges, prefix: str = ""):
    labels = w.relabel(n, prefix)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    path = w.edge_list(
        f"{name}.txt",
        [(labels[u], labels[v]) for u, v in edges],
        [labels[v] for v in range(n) if degree[v] == 0],
        header=json.dumps(family, sort_keys=True),
    )
    return path


def graph_homology_ops(w: Writer) -> list:
    ops = []

    def add(op_id, command, family, n, edges, argv_tail, prefix=""):
        path = _graph_op(w, op_id, family, n, edges, prefix)
        ops.append({
            "id": op_id,
            "argv": [command, path, *argv_tail],
            "check": dict(family, command=command),
            "expect_exit": 0,
        })

    n, e = torus_edges(36, 40)
    add("torus-betti", "betti", {"family": "torus", "m": 36, "n": 40}, n, e,
        ["--max-k", "2", "--max-dim", "3"])
    n, e = klein_edges(18, 40)
    add("klein-betti", "betti", {"family": "klein", "a": 18, "k": 40}, n, e,
        ["--max-k", "2", "--max-dim", "3"], prefix="k")
    n, e = torus_edges(16, 20)
    add("torus-build", "build", {"family": "torus", "m": 16, "n": 20}, n, e, ["--max-dim", "2"])
    n, e = cross_polytope_edges(7)
    add("cross-betti", "betti", {"family": "cross", "pairs": 7}, n, e,
        ["--max-k", "6", "--max-dim", "7"])
    n, e = cross_polytope_edges(6)
    add("cross-build", "build", {"family": "cross", "pairs": 6}, n, e, ["--max-dim", "6"])
    n, e = complete_edges(18)
    add("complete-betti", "betti", {"family": "complete", "n": 18}, n, e,
        ["--max-k", "2", "--max-dim", "3"])
    # 150 vertices give 11,175 edge columns, above the 10,000-column switch
    n, e = complete_edges(150)
    add("complete-wide-betti", "betti", {"family": "complete", "n": 150}, n, e,
        ["--max-k", "0", "--max-dim", "1"])
    for op_id, command, size, p in (
        ("gnp-dense-betti", "betti", 300, 0.1),
        ("gnp-sparse-betti", "betti", 400, 0.006),
        ("gnp-build", "build", 400, 0.1),
    ):
        n, e = gnp_edges(size, p, w.rng)
        omega = clique_number(n, e)
        tail = (["--max-k", str(omega - 1), "--max-dim", str(omega)] if command == "betti"
                else ["--max-dim", str(omega)])
        add(op_id, command, {"family": "gnp", "n": size, "p": p}, n, e, tail)
    ops.extend(malformed_graph_ops(w))
    return ops


def malformed_graph_ops(w: Writer) -> list:
    """Inputs the CLI must reject with exit 2 and no traceback.

    They do not depend on the seed, so each fails the same way on every run.
    """
    d = w.out_dir
    (d / "unicode-digit.txt").write_text("0 1\n1 ²\n", encoding="utf-8")
    (d / "not-utf8.txt").write_bytes(b"0 1\n1 \xff\xfe\n")
    (d / "path3.txt").write_text("0 1\n1 2\n", encoding="utf-8")
    return [
        {"id": "malformed-unicode-digit", "argv": ["betti", str(d / "unicode-digit.txt")],
         "check": {"family": "malformed"}, "expect_exit": 2},
        {"id": "malformed-not-utf8", "argv": ["build", str(d / "not-utf8.txt")],
         "check": {"family": "malformed"}, "expect_exit": 2},
        {"id": "malformed-negative-dim", "argv": ["build", str(d / "path3.txt"), "--max-dim", "-1"],
         "check": {"family": "malformed"}, "expect_exit": 2},
        {"id": "malformed-nan-theta",
         "argv": ["theta", str(d / "path3.txt"), '{"carrier":[0,1],"coords":[1.0,NaN]}'],
         "check": {"family": "malformed"}, "expect_exit": 2},
    ]


# -- sampled pipelines -----------------------------------------------------


def _target_graphs(w: Writer) -> tuple:
    octa = w.edge_list("octahedron.txt", cross_polytope_edges(3)[1], header="octahedron")
    c4 = w.edge_list("c4.txt", [(0, 1), (1, 2), (2, 3), (0, 3)], header="C4")
    return octa, c4


def _pipeline_op(op_id, graph, domain, map_spec, check, extra=(), expect_exit=0):
    return {
        "id": op_id,
        "argv": ["pipeline", graph, "--domain", domain, "--map", map_spec, *extra],
        "check": dict(check, domain=domain, map=map_spec, extra=list(extra)),
        "expect_exit": expect_exit,
    }


def flipped_values(w: Writer, k: int) -> dict:
    """Nearest-pole values on ``sphere2:icosa:k`` with one sample flipped to
    the antipodal vertex.

    The flipped sample is one of the eight samples nearest a seeded pole,
    never the basepoint 0.  There it lies deep inside its pole's cap: every
    other vertex's flood stops half-way to that vertex's own antipodal cap,
    so no flood overwrites the flip, and the clique certificate must reject
    the map at the flipped sample.

    Near a pole is also the one region where ``pipeline`` rejects such a map
    every time: elsewhere the flood of a vertex adjacent to both values
    can overwrite the flip first, and the map is accepted (the FOUND line on
    discontinuous maps in CHANGES.md).  Once that is mended, draw the
    flipped sample from all samples but the basepoint.
    """
    from vrclosure.domains import icosphere_domain

    coords = icosphere_domain(k).coords.tolist()
    values = [min(range(6), key=lambda p: math.dist(POLES[p], x)) for x in coords]
    pole = w.rng.randrange(6)
    near = sorted(range(1, len(coords)), key=lambda i: (math.dist(POLES[pole], coords[i]), i))
    sample = near[w.rng.randrange(8)]
    values[sample] ^= 1
    path = w.out_dir / "flipped.json"
    path.write_text(json.dumps({
        "base": str(values[0]),
        "values": {str(i): str(v) for i, v in enumerate(values)},
    }), encoding="utf-8")
    return {"path": str(path), "sample": sample, "values": values}


def sampled_pipeline_ops(w: Writer) -> list:
    octa, c4 = _target_graphs(w)
    rot_a, rot_b = w.rng.randrange(1 << 16), w.rng.randrange(1 << 16)
    flip = flipped_values(w, 3)
    return [
        _pipeline_op("sphere3-nearest", octa, "sphere2:icosa:3", "nearest-vertex", {"target": "octa"}),
        _pipeline_op("sphere3-rotated-a", octa, "sphere2:icosa:3", "rotated-nearest",
                     {"target": "octa", "rotation": rot_a}, ["--seed", str(rot_a)]),
        _pipeline_op("sphere3-rotated-b", octa, "sphere2:icosa:3", "rotated-nearest",
                     {"target": "octa", "rotation": rot_b}, ["--seed", str(rot_b)]),
        _pipeline_op("circle2048-quarter-arc", c4, "circle:2048", "quarter-arc", {"target": "c4"}),
        _pipeline_op("circle1024-constant", c4, "circle:1024", "constant", {"target": "c4"}),
        _pipeline_op("sphere2-subdivided", octa, "sphere2:icosa:2", "nearest-vertex",
                     {"target": "octa"}, ["--subdivisions", "1"]),
        _pipeline_op("sphere3-flipped", octa, "sphere2:icosa:3", "@" + flip["path"],
                     {"target": "octa", "flipped": flip["sample"], "values": flip["values"]},
                     expect_exit=1),
    ]


def sd_check_ops(w: Writer) -> list:
    octa, c4 = _target_graphs(w)
    sd = ["--check-sd"]
    return [
        _pipeline_op("sd-sphere2-nearest", octa, "sphere2:icosa:2", "nearest-vertex",
                     {"target": "octa"}, sd),
        _pipeline_op("sd-sphere2-rotated", octa, "sphere2:icosa:2", "rotated-nearest",
                     {"target": "octa", "rotation": SD_ROTATION_SEED},
                     sd + ["--seed", str(SD_ROTATION_SEED)]),
        _pipeline_op("sd-circle256-quarter-arc", c4, "circle:256", "quarter-arc", {"target": "c4"}, sd),
        _pipeline_op("sd-circle256-antipodal", c4, "circle:256", "antipodal-composition",
                     {"target": "c4"}, sd),
        {"id": "malformed-grid-zero",
         "argv": ["pipeline", c4, "--domain", "circle:64", "--map", "quarter-arc",
                  "--check-sd", "--grid", "0"],
         "check": {"family": "malformed"}, "expect_exit": 2},
    ]


def generate(workload: str, seed: int, out_dir) -> list:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = Writer(out_dir, random.Random(f"{workload}:{seed}"))
    builders = {
        "sampled-pipeline": sampled_pipeline_ops,
        "sd-check": sd_check_ops,
        "graph-homology": graph_homology_ops,
    }
    ops = builders[workload](w)
    (out_dir / "manifest.json").write_text(json.dumps(ops), encoding="utf-8")
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import vrclosure.cli  # noqa: F401  the import a workload process pays for

    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
