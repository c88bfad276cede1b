"""Discrete modification, floods, clique certificates, convex transformation."""

import math
import tracemalloc

import numpy as np
import pytest

from vrclosure import (
    BaryPoint,
    CertificateFailure,
    DiscreteMap,
    SampledDomain,
    SimplicialComplex,
    check_simplicial,
    clique_certificate,
    complete_graph,
    convex_transform,
    cycle_graph,
    discrete_modify,
    flood,
    flood_stage_radii,
    flood_stages,
    octahedron_graph,
    subdivide_domain,
    vietoris_rips,
)
from vrclosure import transform
from vrclosure.domains import (
    circle_domain,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)

from grid_oracle import carriers_compatible
from helpers import distances, flood_all, simplex_diameter


def chain_domain(positions, basepoints=()):
    """Samples on a line, triangulated by consecutive edges."""
    coords = [[float(p)] for p in positions]
    edges = [(i, i + 1) for i in range(len(positions) - 1)]
    tri = SimplicialComplex.from_simplices(
        edges if edges else [(0,)], dim_cap=2, vertices=range(len(positions))
    )
    return SampledDomain(coords, tri, basepoints=basepoints)


def brute_force_certificate_delta(f):
    """Independent oracle: for each sample, the largest pairwise distance d
    such that the closed d-ball around it carries pairwise-adjacent values."""
    n = f.domain.n_samples
    d = distances(f.domain)
    best = []
    for y in range(n):
        candidates = sorted(set(float(x) for x in d[y]))
        r_y = None
        for r in candidates:
            ball = [z for z in range(n) if d[y][z] <= r]
            ok = all(
                f.target.are_adjacent(f.values[a], f.values[b])
                for ai, a in enumerate(ball)
                for b in ball[ai + 1 :]
            )
            if ok:
                r_y = r
            else:
                break
        best.append(r_y)
    return best


class TestSampledDomain:
    def test_triangulation_vertices_are_samples(self):
        with pytest.raises(ValueError):
            tri = SimplicialComplex.from_simplices([(0, 5)], dim_cap=1)
            SampledDomain([[0.0], [1.0]], tri)

    def test_diameter_and_simplex_diameter(self):
        dom = chain_domain([0, 1, 3])
        assert dom.diameter == 3.0
        assert simplex_diameter(dom, (1, 2)) == 2.0

    def test_eps_net_is_the_mesh_or_one(self):
        dom = chain_domain([0, 1, 3])
        assert dom.eps_net == dom.max_simplex_diameter() == 2.0
        isolated = SampledDomain([[0.0], [1.0]], SimplicialComplex.from_simplices([(0,), (1,)], 1))
        assert isolated.eps_net == 1.0

    def test_row_blocks_cover_the_matrix(self, monkeypatch):
        dom = chain_domain([0, 1, 3, 7, 8])
        dist = distances(dom)
        blocks = list(dom.row_blocks())
        assert [lo for lo, _ in blocks] == [0]
        assert np.array_equal(blocks[0][1], dist)
        # the block size is read from BLOCK_CELLS at each call
        monkeypatch.setattr(transform, "BLOCK_CELLS", 10)
        blocks = list(dom.row_blocks())
        assert [lo for lo, _ in blocks] == [0, 2, 4]
        assert np.array_equal(np.vstack([block for _, block in blocks]), dist)
        picked = list(dom.row_blocks((4, 0, 2)))
        assert [lo for lo, _ in picked] == [0, 2]
        assert np.array_equal(np.vstack([block for _, block in picked]), dist[[4, 0, 2]])
        assert list(dom.row_blocks(())) == []

    def test_edge_lengths(self):
        dom = chain_domain([0, 1, 3])
        assert dom.edge_lengths([(0, 1), (2, 0), (1, 2)]).tolist() == [1.0, 3.0, 2.0]
        assert dom.edge_lengths([]).shape == (0,)

    def test_mesh_sees_a_longer_lower_dimensional_simplex(self):
        # a small triangle with a long dangling edge: the mesh is the edge,
        # so the pipeline subdivides once where the top simplices alone
        # would call for no subdivision and fail the convex transform
        from vrclosure.pipeline import build_pipeline

        tri = SimplicialComplex.from_simplices([(0, 1, 2), (2, 3)], dim_cap=2)
        dom = SampledDomain([[0, 0], [0.1, 0], [0, 0.1], [3, 0]], tri, basepoints=(0,))
        assert dom.max_simplex_diameter() == math.dist((0, 0.1), (3, 0))
        points = {i: BaryPoint.of_vertex(v) for i, v in enumerate([0, 0, 0, 1])}
        art = build_pipeline(complete_graph(2), dom, points)
        assert art.required_depth == art.depth == 1
        assert check_simplicial(art.simplicial_map)


class TestMatrixFree:
    """No n-by-n array is built: rows come in blocks, each flood stage
    builds its preimage rows once and the diameter the upper triangle."""

    @staticmethod
    def count_cells(monkeypatch):
        """Record the shape of every row build."""
        shapes = []
        build = transform._distances_to

        def counted(points, coords):
            shapes.append((len(points), len(coords)))
            return build(points, coords)

        monkeypatch.setattr(transform, "_distances_to", counted)
        return shapes

    def test_pipeline_peak_stays_a_few_row_blocks(self):
        from vrclosure.pipeline import build_pipeline

        dom = circle_domain(2048)
        c4 = cycle_graph(4)
        points = quarter_arc_map(dom, c4)
        tracemalloc.start()
        try:
            art = build_pipeline(c4, dom, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert art.certificate.delta > 0
        # a 2048-sample matrix alone is 32 MiB, twice that while built
        assert peak < 8 * transform.BLOCK_CELLS * 8

    @pytest.mark.parametrize("rows_per_block", [1, None])
    def test_diameter_scans_the_upper_triangle(self, rows_per_block, monkeypatch):
        n = 300
        dom = circle_domain(n)
        if rows_per_block is not None:
            monkeypatch.setattr(transform, "BLOCK_CELLS", rows_per_block * n)
        step = max(1, transform.BLOCK_CELLS // n)
        shapes = self.count_cells(monkeypatch)
        assert dom.diameter == dom.diameter == 2.0
        cells = sum(m * k for m, k in shapes)
        # each block of ``step`` rows also holds its own lower-left corner
        assert n * (n + 1) // 2 <= cells <= n * (n + 1) // 2 + n * (step - 1) // 2
        if rows_per_block == 1:
            assert cells == n * (n + 1) // 2

    def test_flood_stages_build_each_preimage_row_once(self, monkeypatch):
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        f = discrete_modify(nearest_pole_map(dom, octa, rotation=random_rotation(4)), dom, octa)
        dom.diameter
        shapes = self.count_cells(monkeypatch)
        stages = flood_stages(f)
        built = []
        for v, radii, _flooded in stages:
            assert all(k == dom.n_samples for _, k in shapes)
            built.append((sum(m for m, _ in shapes), len(radii)))
            shapes.clear()
        assert len(built) == 6
        assert all(rows == preimage for rows, preimage in built)
        assert any(preimage for _, preimage in built)


class TestDiscreteModify:
    def test_constant_at_vertex(self):
        dom = chain_domain([0, 1, 2])
        g = cycle_graph(4)
        pts = {i: BaryPoint.of_vertex(2) for i in range(3)}
        f = discrete_modify(pts, dom, g)
        assert all(f(i) == 2 for i in range(3))

    def test_quarter_arc_values_already_vertices(self):
        dom = circle_domain(64)
        g = cycle_graph(4)
        pts = quarter_arc_map(dom, g)
        f = discrete_modify(pts, dom, g)
        for i in range(64):
            assert f(i) == pts[i].carrier[0]
            assert f(i) == (i * 4) // 64

    def test_edge_midpoint_tie_breaks_down(self):
        dom = chain_domain([0.0])
        g = cycle_graph(4)
        pts = {0: BaryPoint((1, 2), (0.5, 0.5))}
        assert discrete_modify(pts, dom, g)(0) == 1

    def test_unknown_carrier_vertex(self):
        dom = chain_domain([0.0])
        with pytest.raises(ValueError, match="carrier vertex 7"):
            discrete_modify({0: BaryPoint((1, 7), (0.5, 0.5))}, dom, cycle_graph(4))

    def test_carrier_must_be_clique(self):
        dom = chain_domain([0.0])
        g = cycle_graph(4)
        pts = {0: BaryPoint((0, 2), (0.5, 0.5))}
        with pytest.raises(ValueError, match="not a clique"):
            discrete_modify(pts, dom, g)

    def test_basepoint_value_becomes_base(self):
        dom = chain_domain([0, 1, 2], basepoints=(1,))
        g = cycle_graph(4)
        pts = {0: BaryPoint.of_vertex(0), 1: BaryPoint.of_vertex(1), 2: BaryPoint.of_vertex(2)}
        f = discrete_modify(pts, dom, g)
        assert f.base_value == 1


class TestFlood:
    def test_empty_preimage_is_identity(self):
        dom = chain_domain([0, 1, 2])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 1, 1: 1, 2: 1}, 1)
        assert flood(f, 3, {}).values == f.values

    def test_chain_middle_gets_flooded(self):
        dom = chain_domain([0, 1, 2])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 0}, 0)
        out = flood(f, 0, {0: 2.5, 2: 2.5})
        assert [out(i) for i in range(3)] == [0, 0, 0]

    def test_base_value_flood_keeps_basepoint(self):
        dom = chain_domain([0, 1, 2], basepoints=(0,))
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 1}, 0)
        out = flood(f, 0, {0: 1.5})
        assert out(0) == 0 and out.base_value == 0

    def test_precondition_violation_names_pair(self):
        dom = chain_domain([0, 1])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 2}, 0)
        with pytest.raises(CertificateFailure) as info:
            flood(f, 0, {0: 1.5})
        assert info.value.pair == (0, 1)
        assert info.value.values == (0, 2)

    def test_basepoint_in_ball_rejected(self):
        dom = chain_domain([0, 1, 2], basepoints=(0,))
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 1}, 0)
        with pytest.raises(CertificateFailure):
            flood(f, 1, {1: 1.5, 2: 1.5})

    def test_changes_confined_to_half_radius_union(self):
        dom = chain_domain([0, 1, 2, 3, 4])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 1, 3: 1, 4: 0}, 0)
        radii = {0: 2.9, 4: 2.9}
        out = flood(f, 0, radii)
        dist = distances(dom)
        for z in range(5):
            inside = any(dist[y][z] < radii[y] / 2 for y in (0, 4))
            if not inside:
                assert out(z) == f(z)
        assert [out(i) for i in range(5)] == [0, 0, 1, 0, 0]


class TestFloodStageRadii:
    def test_capped_at_half_diameter(self):
        dom = chain_domain([0, 1, 2])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 0, 2: 0}, 0)
        radii = flood_stage_radii(f, 0)
        assert radii == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_capped_at_nearest_bad_value(self):
        dom = chain_domain([0, 1, 2, 3])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 0, 2: 1, 3: 2}, 0)
        radii = flood_stage_radii(f, 0)
        # nearest 2-valued sample from 1 sits at distance 2; cap is 1.5
        assert radii[1] == 1.5
        assert radii[0] == 1.5

    def test_capped_at_basepoint_distance(self):
        dom = chain_domain([0, 1, 2], basepoints=(0,))
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 1}, 0)
        radii = flood_stage_radii(f, 1)
        assert radii[1] == 1.0  # distance from sample 1 to the basepoint

    def test_no_preimage_no_radii(self):
        dom = chain_domain([0, 1])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 0}, 0)
        assert flood_stage_radii(f, 3) == {}


class TestFloodSequence:
    def test_constant_unchanged(self):
        dom = circle_domain(16)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {i: 2 for i in range(16)}, 2)
        assert flood_all(f).values == f.values

    def test_one_dimensional_two_stage_growth(self):
        # regions of 0 surrounded by 1: stage 0 grows the 0-region by half
        # radii, stage 1 grows what is left of the 1-region
        dom = chain_domain([0, 1, 2, 3, 4, 5, 6])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 1, 1: 1, 2: 1, 3: 0, 4: 1, 5: 1, 6: 1}, 1)
        out = flood_all(f)
        # stage 0: r(3) = diameter/2 = 3, half-ball < 1.5 floods 2 and 4
        # stage 1: preimage {0,1,5,6}: r = 3 capped, half-ball floods 2 and 4 back
        assert [out(i) for i in range(7)] == [1, 1, 1, 0, 1, 1, 1]

    def test_sequence_equals_manual_stages(self):
        dom = circle_domain(32)
        g = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, g), dom, g)
        manual = f
        stages = list(flood_stages(f))
        assert [v for v, _, _ in stages] == list(f.image_vertices())
        for v, radii, flooded in stages:
            assert radii == flood_stage_radii(manual, v)
            if radii:
                manual = flood(manual, v, radii)
            assert flooded.values == manual.values

    def test_empty_stage_keeps_the_map(self):
        # stage 0 floods the lone 1-valued sample, so stage 1 has no preimage
        dom = chain_domain([0, 1, 2, 3, 4, 5, 6])
        f = DiscreteMap(dom, cycle_graph(4), {i: int(i == 3) for i in range(7)}, 0)
        (v0, radii0, after0), (v1, radii1, after1) = flood_stages(f)
        assert (v0, v1) == (0, 1)
        assert radii0 and radii1 == {}
        assert after1 is after0
        assert set(after1.values.values()) == {0}

    def test_stage_iteration_reaches_fixed_point(self):
        # a single stage is not idempotent (new preimage samples get fresh
        # half-balls), but iterating it is monotone and must stabilize
        dom = circle_domain(32)
        g = cycle_graph(4)
        current = discrete_modify(quarter_arc_map(dom, g), dom, g)
        for _ in range(dom.n_samples + 1):
            radii = flood_stage_radii(current, 0)
            nxt = flood(current, 0, radii)
            if nxt.values == current.values:
                break
            current = nxt
        else:
            pytest.fail("flood stage did not stabilize")
        again = flood(current, 0, flood_stage_radii(current, 0))
        assert again.values == current.values


class TestCliqueCertificate:
    def test_constant_map_gets_diameter(self):
        dom = circle_domain(12)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {i: 1 for i in range(12)}, 1)
        cert = clique_certificate(f)
        assert cert.delta == dom.diameter
        assert all(r == dom.diameter for r in cert.radii.values())

    def test_adjacent_non_neighbors_fail_with_pair(self):
        dom = chain_domain([0, 1])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 2}, 0)
        with pytest.raises(CertificateFailure) as info:
            clique_certificate(f)
        assert set(info.value.values) == {0, 2}

    def test_json_form(self):
        dom = chain_domain([0, 1])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1}, 0)
        cert = clique_certificate(f)
        data = cert.to_json_dict()
        assert set(data) == {"delta", "radii"}
        assert list(data["radii"]) == ["0", "1"]
        assert data["delta"] == cert.delta

    def test_quarter_arc_matches_brute_force(self):
        dom = circle_domain(64)
        g = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, g), dom, g)
        cert = clique_certificate(f)
        oracle = brute_force_certificate_delta(f)
        for y in range(64):
            assert math.isclose(cert.radii[y], oracle[y], rel_tol=1e-12)
        assert cert.delta == min(oracle)
        assert cert.delta > 0

    def test_memory_does_not_grow_with_the_image(self):
        # 128 image values leave about 8K non-adjacent pairs; scratch space
        # must stay a few distance row blocks regardless
        dom = circle_domain(256)
        f = DiscreteMap(dom, cycle_graph(128), {i: i // 2 for i in range(256)}, 0)
        tracemalloc.start()
        try:
            cert = clique_certificate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.delta > 0
        assert peak < 8 * transform.BLOCK_CELLS * 8

    def test_opposite_values_bind_at_a_quarter_turn(self):
        # samples valued 0 and 2 (the only non-adjacent pair straddling a
        # whole band) are never closer than a quarter circumference less one
        # sample step
        dom = circle_domain(64)
        g = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, g), dom, g)
        d = distances(dom)
        closest = min(
            d[i][j]
            for i in range(64)
            for j in range(64)
            if {f(i), f(j)} == {0, 2}
        )
        quarter_minus_step = 2 * math.sin((16 - 1) * math.pi / 64)
        assert closest >= quarter_minus_step - 1e-9


class TestConvexTransform:
    def test_constant_map(self):
        dom = circle_domain(8)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {i: 3 for i in range(8)}, 3)
        cert = clique_certificate(f)
        m = convex_transform(f, dom.triangulation, cert)
        assert check_simplicial(m)
        assert all(m(v) == 3 for v in dom.triangulation.vertices)

    def test_quarter_arc_wraps_polygon_onto_cycle(self):
        dom = circle_domain(64)
        g = cycle_graph(4)
        f = flood_all(discrete_modify(quarter_arc_map(dom, g), dom, g))
        cert = clique_certificate(f)
        m = convex_transform(f, dom.triangulation, cert)
        assert check_simplicial(m)
        for v in dom.triangulation.vertices:
            assert m(v) == f(v)

    def test_triangle_collapses_to_edge(self):
        # a far-away extra sample keeps the triangle below the domain diameter
        coords = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [5.0, 0.0]]
        tri = SimplicialComplex.from_simplices([(0, 1, 2)], dim_cap=2)
        dom = SampledDomain(coords, tri)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 0, 2: 1, 3: 0}, 0)
        cert = clique_certificate(f)
        m = convex_transform(f, tri, cert)
        assert m.image_simplex((0, 1, 2)) == (0, 1)

    def test_oversized_simplex_rejected(self):
        dom = chain_domain([0, 1, 2])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 1}, 0)
        cert = clique_certificate(f)
        fake = type(cert)(dict(cert.radii), min(cert.delta, 0.5))
        with pytest.raises(CertificateFailure, match="delta"):
            convex_transform(f, dom.triangulation, fake)

    def test_non_clique_simplex_rejected(self):
        from vrclosure import CliqueCertificate

        coords = [[0.0], [0.1]]
        tri = SimplicialComplex.from_simplices([(0, 1)], dim_cap=1)
        dom = SampledDomain(coords, tri)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 2}, 0)
        with pytest.raises(CertificateFailure):
            convex_transform(f, tri, CliqueCertificate({0: 1.0, 1: 1.0}, 1.0))


class TestCarriersCompatible:
    def test_collapse_onto_same_edge(self):
        from vrclosure import SimplicialMap, barycentric_subdivision

        k = SimplicialComplex.from_simplices([(0, 1)], dim_cap=1)
        target = vietoris_rips(cycle_graph(4), 2)
        m1 = SimplicialMap(k, target, {0: 0, 1: 1})
        sd = barycentric_subdivision(k)
        m2 = SimplicialMap(sd, target, {(0,): 0, (1,): 1, (0, 1): 0})
        pts = [BaryPoint((0, 1), (1 - t / 10, t / 10)) for t in range(11)]
        assert carriers_compatible(m1, m2, pts)

    def test_distant_images_fail(self):
        from vrclosure import SimplicialMap, barycentric_subdivision

        k = SimplicialComplex.from_simplices([(0, 1)], dim_cap=1)
        target = vietoris_rips(cycle_graph(4), 2)
        m1 = SimplicialMap(k, target, {0: 0, 1: 0})
        sd = barycentric_subdivision(k)
        m2 = SimplicialMap(sd, target, {(0,): 2, (1,): 2, (0, 1): 2})
        pts = [BaryPoint((0, 1), (0.5, 0.5))]
        assert not carriers_compatible(m1, m2, pts)

    def test_mismatched_targets_rejected(self):
        from vrclosure import SimplicialMap, barycentric_subdivision

        k = SimplicialComplex.from_simplices([(0, 1)], dim_cap=1)
        t1 = vietoris_rips(cycle_graph(4), 2)
        t2 = vietoris_rips(cycle_graph(5), 2)
        sd = barycentric_subdivision(k)
        m1 = SimplicialMap(k, t1, {0: 0, 1: 1})
        m2 = SimplicialMap(sd, t2, {(0,): 0, (1,): 1, (0, 1): 0})
        with pytest.raises(ValueError):
            carriers_compatible(m1, m2, [])


class TestSubdivideDomain:
    def test_counts_and_values(self):
        dom = circle_domain(8)
        g = cycle_graph(4)
        values = {i: (i * 4) // 8 for i in range(8)}
        new_dom, new_values, face_vertex = subdivide_domain(dom, values)
        assert new_dom.n_samples == 16  # midpoint per edge
        assert new_dom.triangulation.counts()[1] == 16
        for i in range(8):
            assert new_values[i] == values[i]
        for face, idx in face_vertex.items():
            if len(face) == 2:
                # midpoint inherits the nearest original sample's value
                nearest = np.argmin(np.linalg.norm(dom.coords - new_dom.coords[idx], axis=1))
                assert new_values[idx] == values[nearest]

    def test_basepoints_preserved(self):
        dom = circle_domain(8)
        values = {i: 0 for i in range(8)}
        new_dom, _, _ = subdivide_domain(dom, values)
        assert new_dom.basepoints == dom.basepoints

    def test_mesh_shrinks(self):
        dom = icosphere_domain(0)
        values = {i: 0 for i in range(dom.n_samples)}
        new_dom, _, _ = subdivide_domain(dom, values)
        assert new_dom.max_simplex_diameter() < dom.max_simplex_diameter()

    def test_mesh_contraction_factor(self):
        # one round shrinks diameters by at most dim/(dim+1)
        for dom, dim in ((circle_domain(12), 1), (icosphere_domain(0), 2)):
            values = {i: 0 for i in range(dom.n_samples)}
            new_dom, _, _ = subdivide_domain(dom, values)
            bound = dom.max_simplex_diameter() * dim / (dim + 1)
            assert new_dom.max_simplex_diameter() <= bound + 1e-12


class TestPipelineBasepoints:
    def test_preserved_through_every_stage(self):
        from vrclosure.pipeline import build_pipeline

        g = octahedron_graph()
        dom = icosphere_domain(1)
        pts = nearest_pole_map(dom, g, rotation=random_rotation(4))
        art = build_pipeline(g, dom, pts)
        base = art.discrete.base_value
        for stage_map in (art.discrete, art.flooded, art.final_map):
            for b in stage_map.domain.basepoints:
                assert stage_map(b) == base
        for b in art.final_domain.basepoints:
            assert art.simplicial_map(b) == base


class TestRandomizedSphereInstances:
    def test_flood_safety_on_rotated_maps(self):
        g = octahedron_graph()
        dom = icosphere_domain(1)
        dist = distances(dom)
        for seed in range(8):  # the acceptance suite runs the full batch
            pts = nearest_pole_map(dom, g, rotation=random_rotation(seed))
            current = discrete_modify(pts, dom, g)
            for v in current.image_vertices():
                radii = flood_stage_radii(current, v)
                if not radii:
                    continue
                nxt = flood(current, v, radii)
                # basepoints untouched
                for b in dom.basepoints:
                    assert nxt(b) == current(b) == current.base_value
                # changes confined to the half-radius union
                for z in range(dom.n_samples):
                    if nxt(z) != current(z):
                        assert any(
                            dist[y][z] < radii[y] / 2 for y in radii
                        ), f"sample {z} changed outside the flood region"
                current = nxt
            cert = clique_certificate(current)
            assert cert.delta > 0
