"""Independent checks of every operation's output.

Nothing here calls the program's serializers, digests, clique enumeration or
homology: canonical JSON, FNV-1a, clique counts, connected components and
the expected Betti numbers are computed here from the generated inputs and
closed forms.  The only program objects read are the sphere domain's sample
coordinates and triangles, which define the ``sphere2:icosa:K`` samples, and
the seeded rotation behind ``rotated-nearest``; both are inputs, and the
coordinates are checked against closed-form counts before use.

``check_op(op, rc, stdout)`` returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

import inputs

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1

POLES = np.array(inputs.POLES)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def fnv1a(text: str) -> str:
    h = FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return f"{h:016x}"


# -- graphs ------------------------------------------------------------------


def read_edge_list(path: str):
    """Vertex tokens in the documented order and the adjacency sets."""
    tokens, pairs = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if parts:
                tokens.extend(parts)
                if len(parts) == 2 and parts[0] != parts[1]:
                    pairs.append(tuple(parts))
    numeric = all(t.isdigit() for t in tokens)
    conv = int if numeric else str
    vertices = sorted({conv(t) for t in tokens})
    adj = {v: set() for v in vertices}
    for a, b in pairs:
        adj[conv(a)].add(conv(b))
        adj[conv(b)].add(conv(a))
    return vertices, adj


def cliques(vertices, adj, top_dim: int) -> list:
    """All cliques up to ``top_dim`` as sorted tuples, grouped by dimension."""
    order = {v: i for i, v in enumerate(vertices)}
    later = {v: {w for w in adj[v] if order[w] > order[v]} for v in vertices}
    levels = [[] for _ in range(top_dim + 1)]

    def grow(simplex, cand):
        levels[len(simplex) - 1].append(simplex)
        if len(simplex) <= top_dim:
            for w in cand:
                grow(simplex + (w,), cand & later[w])

    for v in vertices:
        grow((v,), later[v])
    return [sorted(level, key=lambda s: [order[v] for v in s]) for level in levels]


def components(vertices, adj) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in vertices:
        for w in adj[v]:
            parent[find(v)] = find(w)
    return sum(1 for v in vertices if find(v) == v)


def closed_form_counts(check: dict, top_dim: int):
    """Simplex counts by dimension of a generated family, or None for G(n,p)."""
    fam = check["family"]
    if fam in ("torus", "klein"):
        v = check["m"] * check["n"] if fam == "torus" else 2 * check["a"] * check["k"]
        counts = [v, 3 * v, 2 * v]
    elif fam == "cross":
        m = check["pairs"]
        counts = [math.comb(m, d + 1) * 2 ** (d + 1) for d in range(m)]
    elif fam == "complete":
        counts = [math.comb(check["n"], d + 1) for d in range(check["n"])]
    else:
        return None
    return (counts + [0] * (top_dim + 1))[: top_dim + 1]


def expected_betti(check: dict, max_k: int) -> list | None:
    fam = check["family"]
    if fam in ("torus", "klein"):
        known = [1, 2, 1]
    elif fam == "cross":
        known = [1] + [0] * (check["pairs"] - 2) + [1]
    elif fam == "complete":
        known = [1]
    else:
        return None
    return (known + [0] * (max_k + 1))[: max_k + 1]


def _flag(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def check_graph(op: dict, report: dict) -> list:
    check, argv = op["check"], op["argv"]
    problems = []
    vertices, adj = read_edge_list(argv[1])
    if check["command"] == "build":
        dim_cap = _flag(argv, "--max-dim", 2)
        own = cliques(vertices, adj, dim_cap)
        counts = [len(level) for level in own]
        body = {k: report.get(k) for k in ("dim_cap", "vertices", "counts", "simplices")}
        if fnv1a(canonical(body)) != report.get("digest"):
            problems.append("build digest differs from FNV-1a of the canonical body")
        if report.get("counts") != counts:
            problems.append(f"build counts {report.get('counts')} != own clique counts {counts}")
        if report.get("vertices") != vertices:
            problems.append("build vertex list is not the documented vertex order")
        got = [sorted(tuple(s) for s in level) for level in report.get("simplices") or []]
        if got != [sorted(level) for level in own]:
            problems.append("build simplices differ from the own clique enumeration")
    else:
        max_k = _flag(argv, "--max-k", 1)
        dim_cap = _flag(argv, "--max-dim", max_k + 1)
        counts = [len(level) for level in cliques(vertices, adj, dim_cap)]
        betti = report.get("betti")
        euler = sum((-1) ** d * c for d, c in enumerate(counts))
        if report.get("euler") != euler:
            problems.append(f"euler {report.get('euler')} != alternating clique count {euler}")
        if report.get("field") != "GF(2)":
            problems.append("field is not GF(2)")
        known = expected_betti(check, max_k)
        if known is not None and betti != known:
            problems.append(f"betti {betti} != known {known} for {check['family']}")
        if check["family"] == "gnp":
            beta0 = components(vertices, adj)
            if not betti or betti[0] != beta0:
                problems.append(f"beta0 {betti and betti[0]} != {beta0} union-find components")
            if counts[-1] != 0:
                problems.append("generator chose --max-dim below the clique number")
            elif betti is None or sum((-1) ** d * b for d, b in enumerate(betti)) != euler:
                problems.append("Euler-Poincare sum of betti differs from alternating clique count")
    closed = closed_form_counts(check, dim_cap)
    if closed is not None and closed != counts:
        problems.append(f"own clique counts {counts} != closed form {closed}")
    return problems


# -- sampled pipelines -----------------------------------------------------


def circle_coords(n: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def sample_domain(spec: str):
    """Coordinates, top simplices and closed-form counts of a domain spec."""
    parts = spec.split(":")
    if parts[0] == "circle":
        n = int(parts[1])
        return circle_coords(n), [(i, (i + 1) % n) for i in range(n)], n, [n, n, 0]
    from vrclosure.domains import icosphere_domain

    k = int(parts[2])
    dom = icosphere_domain(k)
    v, e, f = 10 * 4**k + 2, 30 * 4**k, 20 * 4**k
    return dom.coords, list(dom.triangulation.simplices(2)), v, [v, e, f, 0]


def initial_values(spec: str, coords: np.ndarray, check: dict) -> list:
    """The map's vertex at every sample, recomputed from the coordinates."""
    n = len(coords)
    if spec.startswith("@"):
        return list(check["values"])
    if spec == "constant":
        return [0] * n
    if spec in ("quarter-arc", "antipodal-composition"):
        shift = 0 if spec == "quarter-arc" else 2
        return [(4 * i // n + shift) % 4 for i in range(n)]
    pts = coords
    if spec == "rotated-nearest":
        from vrclosure.domains import random_rotation

        pts = coords @ random_rotation(check["rotation"]).T
    return [int(np.argmin(np.linalg.norm(POLES - p, axis=1))) for p in pts]


def required_depth(coords, top, delta: float) -> int:
    dim = len(top[0]) - 1
    mesh = max(
        float(np.linalg.norm(coords[a] - coords[b])) for s in top for a, b in combinations(s, 2)
    )
    ratio, depth = dim / (dim + 1), 0
    while mesh >= delta:
        depth += 1
        mesh *= ratio
    return depth


def check_pipeline(op: dict, rc: int, report: dict) -> list:
    check = op["check"]
    spec, argv = check["map"], op["argv"]
    coords, top, n, tri_counts = sample_domain(check["domain"])
    problems = []
    if len(coords) != n:
        problems.append(f"domain has {len(coords)} samples, closed form {n}")
    if "flipped" in check:
        fail = report.get("failure") or {}
        pair, values = fail.get("pair", []), [int(v) for v in fail.get("values", [])]
        if rc != 1 or check["flipped"] not in pair:
            problems.append(f"flipped sample {check['flipped']} not named: exit {rc}, {fail}")
        if len(values) != 2 or values[0] == values[1] or values[0] // 2 != values[1] // 2:
            problems.append(f"failure values {values} are not an antipodal (non-adjacent) pair")
        return problems
    if rc != 0:
        return [f"exit {rc}"]
    if report.get("simplicial") is not True:
        problems.append("simplicial is not true")
    dom = report.get("domain", {})
    if dom.get("samples") != n or dom.get("triangulation") != tri_counts:
        problems.append(f"domain {dom.get('samples')}/{dom.get('triangulation')} != {n}/{tri_counts}")
    values = initial_values(spec, coords, check)
    f0 = {"base": str(values[0]), "values": {str(i): str(v) for i, v in enumerate(values)}}
    if report["stages"][0].get("digest") != fnv1a(canonical(f0)):
        problems.append("stages[0].digest differs from the recomputed initial map")
    delta = report["certificate"]["delta"]
    if not delta > 0:
        problems.append(f"certificate delta {delta} is not positive")
    need = required_depth(coords, top, delta)
    chosen = max(need, _flag(argv, "--subdivisions", 0))
    if report.get("depth") != {"required": need, "chosen": chosen}:
        problems.append(f"depth {report.get('depth')} != required {need}, chosen {chosen}")
    circle = check["domain"].startswith("circle")
    want_h1 = {
        "source_betti1": 1 if circle else 0,
        "target_betti1": 1 if check["target"] == "c4" else 0,
        "rank": 1 if spec in ("quarter-arc", "antipodal-composition") else 0,
    }
    if report.get("h1") != want_h1:
        problems.append(f"h1 {report.get('h1')} != {want_h1}")
    if "--check-sd" in argv and report.get("sd_compatible") is not True:
        problems.append("sd_compatible is not true")
    return problems


def check_op(op: dict, rc, stdout: str) -> list:
    """Problems with one operation's output.  Malformed-input operations
    never come here: ``harness.check_outputs`` judges them by their exit
    code alone."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"stdout is not one JSON document (exit {rc})"]
    if op["argv"][0] == "pipeline":
        return check_pipeline(op, rc, report)
    if rc != 0:
        return [f"exit {rc}"]
    return check_graph(op, report)
