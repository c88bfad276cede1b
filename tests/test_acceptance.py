"""Acceptance suite: one test per criterion, each ending in a PASS line.

Every expected value is either exact combinatorics or comes from an
independent oracle computed here (chain-subsimplex containment, union-find,
brute-force ball scans); tolerances and time budgets are pinned inline.
"""

import random
import time
from itertools import combinations

import numpy as np
import pytest

from vrclosure import (
    BaryPoint,
    CertificateFailure,
    Graph,
    bary_cover_membership,
    betti_numbers,
    clique_certificate,
    complete_graph,
    cycle_graph,
    discrete_modify,
    edge_path_presentation,
    euler_characteristic,
    flood,
    flood_stage_radii,
    octahedron_graph,
    pl_evaluate,
    simplex_grid,
    theta_point,
    vietoris_rips,
)
from vrclosure.cli import main
from vrclosure.domains import (
    circle_domain,
    constant_map,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)
from vrclosure.pipeline import build_pipeline, refine_once, sd_compatibility

from grid_oracle import grid_sd_compatibility
from helpers import chain_subsimplices, distances
from homology_oracle import induced_h1 as oracle_induced_h1


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def test_criterion_1_betti_agreement():
    """Clique-complex homology matches the spheres the graphs discretize."""
    cases = []

    start = time.perf_counter()
    cases.append((betti_numbers(vietoris_rips(cycle_graph(4), 2), 1), [1, 1]))
    cases.append((betti_numbers(vietoris_rips(cycle_graph(5), 2), 1), [1, 1]))
    for n in range(1, 7):
        cap = min(n + 1, 3)
        max_k = cap - 1
        betti = betti_numbers(vietoris_rips(complete_graph(n), cap), max_k)
        cases.append((betti, [1] + [0] * max_k))
    cases.append((betti_numbers(vietoris_rips(octahedron_graph(), 3), 2), [1, 0, 1]))
    elapsed = time.perf_counter() - start

    for got, expected in cases:
        assert got == expected, (got, expected)
    assert elapsed < 1.0 * len(cases), f"homology too slow: {elapsed:.2f}s"
    report(1, "betti agreement")


def test_criterion_2_barycentric_cover():
    """Every 1/20-grid point lies in some cover piece, and the max-coordinate
    criterion agrees with the chain-subsimplex containment oracle."""
    start = time.perf_counter()
    for n in range(1, 5):
        simplex = tuple(range(n + 1))
        grid = np.array(list(simplex_grid(n, 20)))

        # oracle: containment in some chain subsimplex, solved in bulk
        oracle = np.zeros((len(grid), n + 1), dtype=bool)
        for i in range(n + 1):
            member = np.zeros(len(grid), dtype=bool)
            for chain in chain_subsimplices(simplex, i):
                matrix = np.zeros((n + 1, n + 1))
                for col, face in enumerate(chain):
                    matrix[list(face), col] = 1.0 / len(face)
                lam = np.linalg.solve(matrix, grid.T)
                member |= (lam >= -1e-9).all(axis=0)
            oracle[:, i] = member

        criterion = np.zeros_like(oracle)
        for row, coords in enumerate(grid):
            point = BaryPoint(simplex, tuple(coords))
            for i in range(n + 1):
                criterion[row, i] = bary_cover_membership(simplex, point, i)

        assert (criterion == oracle).all(), f"criterion/oracle mismatch at n={n}"
        assert criterion.any(axis=1).all(), f"uncovered grid point at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"cover check too slow: {elapsed:.2f}s"
    report(2, "barycentric cover exhaustive, criterion == oracle")


def test_criterion_3_theta_properties():
    """Retraction: idempotent, fixes vertices, lands in the carrier."""
    rng = random.Random(271)
    nprng = np.random.default_rng(271)
    checked = 0
    while checked < 10_000:
        n = rng.randint(3, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        k = vietoris_rips(Graph(range(n), edges), 3)
        pool = [s for d in range(4) for s in k.simplices(d)]
        for _ in range(min(500, 10_000 - checked)):
            s = pool[rng.randrange(len(pool))]
            coords = nprng.dirichlet(np.ones(len(s)))
            x = BaryPoint(s, tuple(coords))
            v = theta_point(k, x)
            assert v in x.canonical().carrier, (s, coords, v)
            assert theta_point(k, BaryPoint.of_vertex(v)) == v
            checked += 1
    assert checked == 10_000
    report(3, "theta idempotent, vertex-fixing, local: 10^4 points, 0 failures")


def test_criterion_4_flood_contract():
    """100 randomized sphere maps: floods preserve basepoints, stay inside
    the half-radius union, and end with a positive certificate."""
    g = octahedron_graph()
    start = time.perf_counter()
    instances = [(icosphere_domain(1), seed) for seed in range(80)]
    instances += [(icosphere_domain(2), 1000 + seed) for seed in range(20)]
    for domain, seed in instances:
        dist = distances(domain)
        pts = nearest_pole_map(domain, g, rotation=random_rotation(seed))
        try:
            current = discrete_modify(pts, domain, g)
            for v in current.image_vertices():
                radii = flood_stage_radii(current, v)
                if not radii:
                    continue
                nxt = flood(current, v, radii)
                for b in domain.basepoints:
                    assert nxt(b) == current.base_value, f"seed {seed}: basepoint moved"
                for z in range(domain.n_samples):
                    if nxt(z) != current(z):
                        assert any(dist[y][z] < radii[y] / 2 for y in radii), (
                            f"seed {seed}: sample {z} changed outside the half-radius union"
                        )
                current = nxt
            cert = clique_certificate(current)
            assert cert.delta > 0, f"seed {seed}: certificate delta is not positive"
        except CertificateFailure as exc:
            pytest.fail(f"seed {seed}: {exc}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"flood contract too slow: {elapsed:.2f}s"
    report(4, f"flood contract on 100 sphere instances in {elapsed:.1f}s")


def _pipeline_cases():
    c4 = cycle_graph(4)
    octa = octahedron_graph()
    cases = [
        ("quarter-arc on circle:64", c4, circle_domain(64), quarter_arc_map),
        ("constant on circle:64", c4, circle_domain(64), constant_map),
        ("nearest-vertex on sphere2:icosa:1", octa, icosphere_domain(1), nearest_pole_map),
        ("nearest-vertex on sphere2:icosa:2", octa, icosphere_domain(2), nearest_pole_map),
    ]
    for name, graph, domain, builder in cases:
        yield name, graph, domain, builder(domain, graph)


def test_criterion_5_convex_well_defined():
    """Adjacent triangulation simplices agree exactly on shared faces under
    piecewise-linear evaluation, at every 1/10 face-grid point."""
    for name, graph, domain, pts in _pipeline_cases():
        art = build_pipeline(graph, domain, pts)
        m = art.simplicial_map
        tri = art.final_domain.triangulation
        top = tri.dimension()
        parents: dict = {}
        for s in tri.simplices(top):
            for face in combinations(s, top):
                parents.setdefault(face, []).append(s)
        checked = 0
        for face, sharing in parents.items():
            if len(sharing) < 2:
                continue
            for coords in simplex_grid(len(face) - 1, 10):
                outputs = []
                for s in sharing:
                    padded = tuple(
                        coords[face.index(v)] if v in face else 0.0 for v in s
                    )
                    outputs.append(pl_evaluate(m, BaryPoint(s, padded)))
                first = outputs[0]
                for other in outputs[1:]:
                    assert other.carrier == first.carrier, (name, face)
                    assert other.coords == first.coords, (name, face)
                checked += 1
        assert checked > 0, f"{name}: no shared faces exercised"
    report(5, "convex transform agrees exactly on shared faces")


def test_criterion_6_epimorphism_end_to_end():
    """The wrap map survives the pipeline with H1 rank 1; constants give 0."""
    from vrclosure.homology import induced_h1

    c4 = cycle_graph(4)

    start = time.perf_counter()
    art = build_pipeline(c4, circle_domain(64), quarter_arc_map(circle_domain(64), c4))
    wrap_time = time.perf_counter() - start
    assert art.certificate.delta > 0
    ih1 = induced_h1(art.simplicial_map)
    assert ih1.rank == 1, f"quarter-arc pipeline rank {ih1.rank}"

    start = time.perf_counter()
    art0 = build_pipeline(c4, circle_domain(64), constant_map(circle_domain(64), c4))
    const_time = time.perf_counter() - start
    assert induced_h1(art0.simplicial_map).rank == 0

    assert wrap_time < 5.0 and const_time < 5.0, (wrap_time, const_time)
    report(6, "quarter-arc H1 rank 1, constant rank 0")


def test_criterion_7_subdivision_compatibility():
    """Consecutive subdivision depths produce carrier-compatible maps on a
    1/50 grid, for every passing pipeline run; the exact chain check agrees,
    and both maps' induced maps on H1 equal the hand-written elimination's."""
    from vrclosure.homology import induced_h1

    for name, graph, domain, pts in _pipeline_cases():
        art = build_pipeline(graph, domain, pts)
        m2, face_vertex = refine_once(art)
        assert grid_sd_compatibility(art.simplicial_map, m2, face_vertex, 50), name
        assert sd_compatibility(art.simplicial_map, m2, face_vertex), name
        for m in (art.simplicial_map, m2):
            assert induced_h1(m) == oracle_induced_h1(m), name
    report(7, "sd-consecutive maps share carriers on the 1/50 grid and on every chain")


def test_criterion_8_homology_self_consistency():
    """Euler characteristic, edge-path abelianization, and beta_0 all agree
    with their independent counterparts."""
    # alternating betti sum equals the Euler characteristic
    for graph, cap, max_k in [
        (cycle_graph(4), 2, 1),
        (cycle_graph(5), 2, 1),
        (complete_graph(4), 4, 3),
        (octahedron_graph(), 3, 2),
    ]:
        k = vietoris_rips(graph, cap)
        betti = betti_numbers(k, max_k)
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == euler_characteristic(k)

    # edge-path abelianization rank equals beta_1
    for graph in (cycle_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(4)):
        k = vietoris_rips(graph, 2)
        pres = edge_path_presentation(k, graph.vertices[0])
        assert pres.abelianized_rank() == betti_numbers(k, 1)[1], graph

    # beta_0 equals union-find component count on 200 random graphs
    rng = random.Random(828)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = Graph(range(n), edges)

        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        components = len({find(v) for v in range(n)})
        assert betti_numbers(vietoris_rips(g, 1), 0)[0] == components
    report(8, "chi, edge-path rank, and beta_0 cross-checks")


def test_criterion_9_determinism(capsys, tmp_path):
    """Byte-identical stdout for repeated runs of every command."""
    c4 = tmp_path / "c4.txt"
    c4.write_text("0 1\n1 2\n2 3\n3 0\n")
    octa = tmp_path / "octa.txt"
    octa.write_text(
        "\n".join(f"{i} {j}" for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2)
    )
    commands = [
        ["build", str(c4), "--max-dim", "2"],
        ["betti", str(c4)],
        ["betti", str(octa), "--max-k", "2", "--max-dim", "3"],
        ["theta", str(c4), '{"carrier": [1, 2], "coords": [0.5, 0.5]}'],
        ["pipeline", str(c4), "--domain", "circle:32", "--map", "quarter-arc", "--seed", "7"],
        ["pipeline", str(octa), "--domain", "sphere2:icosa:1", "--map", "rotated-nearest", "--seed", "3"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"
    report(9, "byte-identical reruns across all commands")
