"""Discrete modification, floods, clique certificates, convex transformation."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from vrclosure import (
    BaryPoint,
    CertificateFailure,
    DiscreteMap,
    Graph,
    SampledDomain,
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
from vrclosure.realization import NotAClique, theta_on_graph

from grid_oracle import carriers_compatible
from helpers import barycentric_subdivision, distances, flood_all, from_simplices, rooted_blocks, simplex_diameter


def chain_domain(positions, basepoints=()):
    """Samples on a line, triangulated by consecutive edges."""
    coords = [[float(p)] for p in positions]
    edges = [(i, i + 1) for i in range(len(positions) - 1)]
    tri = from_simplices(
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
            tri = from_simplices([(0, 5)], dim_cap=1)
            SampledDomain([[0.0], [1.0]], tri)

    def test_diameter_and_simplex_diameter(self):
        dom = chain_domain([0, 1, 3])
        assert dom.diameter == 3.0
        assert simplex_diameter(dom, (1, 2)) == 2.0

    def test_eps_net_is_the_mesh_or_one(self):
        dom = chain_domain([0, 1, 3])
        assert dom.eps_net == dom.max_simplex_diameter() == 2.0
        isolated = SampledDomain([[0.0], [1.0]], from_simplices([(0,), (1,)], 1))
        assert isolated.eps_net == 1.0

    def test_mesh_is_computed_once(self, monkeypatch):
        dom = chain_domain([0, 1, 3])
        calls = []
        lengths = SampledDomain.edge_lengths
        monkeypatch.setattr(SampledDomain, "edge_lengths",
                            lambda self, edges: calls.append(len(edges)) or lengths(self, edges))
        assert dom.max_simplex_diameter() == dom.max_simplex_diameter() == dom.eps_net == 2.0
        assert calls == [2]

    def test_squared_blocks_cover_the_matrix(self, monkeypatch):
        dom = chain_domain([0, 1, 3, 7, 8])
        coords, dist = dom.coords, distances(dom)
        blocks = rooted_blocks(coords, coords)
        assert [lo for lo, _ in blocks] == [0]
        assert np.array_equal(blocks[0][1], dist)
        # the block size is read from BLOCK_CELLS at each call
        monkeypatch.setattr(transform, "BLOCK_CELLS", 10)
        blocks = rooted_blocks(coords, coords)
        assert [lo for lo, _ in blocks] == [0, 2, 4]
        assert np.array_equal(np.vstack([block for _, block in blocks]), dist)
        picked = rooted_blocks(coords[[4, 0, 2]], coords)
        assert [lo for lo, _ in picked] == [0, 2]
        assert np.array_equal(np.vstack([block for _, block in picked]), dist[[4, 0, 2]])
        assert rooted_blocks(coords[[]], coords) == []
        # a column subset: BLOCK_CELLS // 2 = 5 rows per block
        cut = rooted_blocks(coords[[4, 0, 2]], coords[[3, 1]])
        assert [lo for lo, _ in cut] == [0]
        assert np.array_equal(cut[0][1], dist[[4, 0, 2]][:, [3, 1]])
        empty = rooted_blocks(coords[[4, 0, 2]], coords[[]])
        assert [(lo, block.shape) for lo, block in empty] == [(0, (3, 0))]
        # each block reads the columns its keep selects: 2 rows a block
        keeps = [slice(0, None), np.array([4, 1]), slice(3, None)]
        for (lo, keep, block), want in zip(transform._squared_blocks(coords, coords, iter(keeps)), keeps):
            assert keep is want
            assert np.array_equal(np.sqrt(block), dist[lo : lo + 2][:, keep])
        # the row a failure rebuilds is the same row, in sample order
        assert np.array_equal(transform._distance_row(coords, 3), dist[3])

    def test_edge_lengths(self):
        dom = chain_domain([0, 1, 3])
        assert dom.edge_lengths([(0, 1), (2, 0), (1, 2)]).tolist() == [1.0, 3.0, 2.0]
        assert dom.edge_lengths([]).shape == (0,)

    def test_mesh_sees_a_longer_lower_dimensional_simplex(self):
        # a small triangle with a long dangling edge: the mesh is the edge,
        # so the pipeline subdivides once where the top simplices alone
        # would call for no subdivision and fail the convex transform
        from vrclosure.pipeline import build_pipeline

        tri = from_simplices([(0, 1, 2), (2, 3)], dim_cap=2)
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
        """Record the shape of every block the squared-distance kernel builds."""
        shapes = []
        build = transform._squared_distances_to

        def counted(points, columns, out, gap):
            shapes.append(out.shape)
            return build(points, columns, out, gap)

        monkeypatch.setattr(transform, "_squared_distances_to", counted)
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

    def test_certificate_peak_stays_under_four_blocks(self):
        # near pairs come half a block of candidates at a time, each held
        # in a few arrays of one entry per candidate or per near pair
        dom = circle_domain(2048)
        c4 = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, c4), dom, c4)
        tracemalloc.start()
        try:
            cert = clique_certificate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.delta > 0
        assert peak < 4 * transform.BLOCK_CELLS * 8

    @pytest.mark.parametrize("consumer", ["certificate", "diameter"])
    def test_grid_blocks_are_freed_before_the_next(self, consumer, monkeypatch):
        # each block's unfiltered candidate positions and squares, one entry
        # per candidate, are gone once its consumer asks for the next block;
        # the certificate's near pairs drop them even before they are handed on
        refs = []
        pairs = transform._Grid.pairs

        def watched(grid, first, span):
            for block in pairs(grid, first, span):
                refs.append([weakref.ref(block[3]), weakref.ref(block[4])])
                yield block
                assert [ref() for ref in refs[-1]] == [None, None]

        monkeypatch.setattr(transform._Grid, "pairs", watched)
        dom = circle_domain(2048)
        if consumer == "diameter":
            assert dom.diameter > 0
        else:
            for _ in transform._near_blocks(dom.coords, 2.0 * dom.eps_net):
                assert [ref() for ref in refs[-1]] == [None, None]
        assert refs

    @staticmethod
    def count_pairs(monkeypatch):
        """Record the number of candidate pairs each block of grid pairs reads."""
        counts = []
        pairs = transform._Grid.pairs

        def counted(grid, first, span):
            for block in pairs(grid, first, span):
                counts.append(len(block[3]))
                yield block

        monkeypatch.setattr(transform._Grid, "pairs", counted)
        return counts

    @pytest.mark.parametrize("rows_per_block", [1, None])
    def test_diameter_scans_the_upper_triangle(self, rows_per_block, monkeypatch):
        # a triangle of at most WHOLE_SCAN_BLOCKS blocks of cells is scanned
        # whole; one-row blocks would lower that cut-off below it
        n = 300
        dom = circle_domain(n)
        if rows_per_block is not None:
            monkeypatch.setattr(transform, "BLOCK_CELLS", rows_per_block * n)
            monkeypatch.setattr(transform, "WHOLE_SCAN_BLOCKS", n)
        assert n * (n + 1) // 2 <= transform.WHOLE_SCAN_BLOCKS * transform.BLOCK_CELLS
        step = max(1, transform.BLOCK_CELLS // n)
        shapes = self.count_cells(monkeypatch)
        assert dom.diameter == dom.diameter == 2.0
        cells = sum(m * k for m, k in shapes)
        # each block of ``step`` rows also holds its own lower-left corner
        assert n * (n + 1) // 2 <= cells <= n * (n + 1) // 2 + n * (step - 1) // 2
        if rows_per_block == 1:
            assert cells == n * (n + 1) // 2

    @pytest.mark.parametrize("rows_per_block", [1, None])
    def test_diameter_reads_two_rows_and_the_reflected_pairs(self, rows_per_block, monkeypatch):
        # past the cut-off: the rows of sample 0 and of its farthest sample,
        # then on this centrally symmetric domain a few candidates a sample
        n = 2048
        dom = circle_domain(n)
        if rows_per_block is not None:
            monkeypatch.setattr(transform, "BLOCK_CELLS", rows_per_block * n)
        shapes = self.count_cells(monkeypatch)
        pairs = self.count_pairs(monkeypatch)
        assert dom.diameter == dom.diameter == float(distances(dom).max())
        assert shapes == [(1, n), (1, n)]
        assert n <= sum(pairs) <= 4 * n

    @staticmethod
    def count_calls(monkeypatch, name):
        """Record each call of the ``transform`` function ``name``."""
        calls, real = [], getattr(transform, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(transform, name, counted)
        return calls

    @pytest.mark.parametrize("cut_off", [28, 27])
    def test_diameter_cut_off(self, cut_off, monkeypatch):
        # circle:7's upper triangle is 28 cells: a cut-off of 28 scans it
        # whole, one cell less reads the two rows and the reflected pairs
        n = 7
        dom = circle_domain(n)
        monkeypatch.setattr(transform, "BLOCK_CELLS", cut_off)
        monkeypatch.setattr(transform, "WHOLE_SCAN_BLOCKS", 1)
        shapes = self.count_cells(monkeypatch)
        reflected = self.count_calls(monkeypatch, "_reflected_diameter")
        assert dom.diameter == float(distances(dom).max())
        if cut_off == 28:
            assert not reflected and shapes == [(4, n), (3, 3)]
        else:
            assert len(reflected) == 1 and shapes == [(1, n), (1, n)]

    @pytest.mark.parametrize("cut_off", [12, 11])
    def test_flood_stage_cut_off(self, cut_off, monkeypatch):
        # the stage at 0 is 3 preimage rows by 4 other samples, 12 cells: a
        # cut-off of 12 reads every cell, one cell less prunes the columns
        dom = chain_domain([0, 1, 2, 3, 4, 5, 6])
        c4 = cycle_graph(4)
        f = DiscreteMap(dom, c4, dict(enumerate([0, 1, 0, 1, 0, 1, 2])), 0)
        dom.diameter
        monkeypatch.setattr(transform, "BLOCK_CELLS", cut_off)
        monkeypatch.setattr(transform, "WHOLE_SCAN_BLOCKS", 1)
        shapes = self.count_cells(monkeypatch)
        pruned = self.count_calls(monkeypatch, "_reached_chunks")
        radii = flood_stage_radii(f, 0)
        assert radii == {0: 3.0, 2: 3.0, 4: 2.0}
        if cut_off == 12:
            assert not pruned and shapes == [(3, 4)]
        else:
            assert len(pruned) == 1 and sum(m for m, _ in shapes) == 3

    @pytest.mark.parametrize("cells", [None, 5 * 162])
    def test_flood_stages_build_each_preimage_row_once(self, cells, monkeypatch):
        # in one block a stage reads every sample whose value is not v; in
        # blocks of about 5 rows a preimage spans several, and each block
        # reads only the columns its bounding box can reach
        if cells is not None:
            monkeypatch.setattr(transform, "BLOCK_CELLS", cells)
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        f = discrete_modify(nearest_pole_map(dom, octa, rotation=random_rotation(4)), dom, octa)
        dom.diameter
        shapes = self.count_cells(monkeypatch)
        built, pruned, current = [], 0, f
        for v, radii, flooded in flood_stages(f):
            others = sum(current.values[i] is not v for i in range(dom.n_samples))
            assert 0 < others < dom.n_samples
            step = max(1, transform.BLOCK_CELLS // others)
            assert all(m <= step and k <= others for m, k in shapes)
            pruned += sum(k < others for _, k in shapes)
            built.append((sum(m for m, _ in shapes), len(radii)))
            shapes.clear()
            current = flooded
        assert len(built) == 6
        assert all(rows == preimage for rows, preimage in built)
        assert any(preimage for _, preimage in built)
        assert (pruned > 0) == (cells is not None)

    def test_flood_stages_on_a_long_circle_read_a_fraction_of_the_cells(self, monkeypatch):
        dom = circle_domain(2048)
        c4 = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, c4), dom, c4)
        dom.diameter
        shapes = self.count_cells(monkeypatch)
        full = cells = 0
        current = f
        for v, radii, flooded in flood_stages(f):
            others = int(np.count_nonzero(current.codes != c4.vertex_index[v]))
            assert sum(m for m, _ in shapes) == len(radii)
            assert all(k <= others for _, k in shapes)
            full += len(radii) * others
            cells += sum(m * k for m, k in shapes)
            shapes.clear()
            current = flooded
        assert full > 0 and cells < full / 4

    def test_flood_stage_peak_stays_under_four_blocks(self):
        # one workspace of two blocks, the chunks' boxes and a few arrays of
        # one entry per sample
        dom = circle_domain(2048)
        c4 = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, c4), dom, c4)
        dom.diameter, dom.spatial_order
        tracemalloc.start()
        try:
            radii = flood_stage_radii(f, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(radii) == 512
        assert peak < 4 * transform.BLOCK_CELLS * 8


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

    def test_non_clique_carrier_names_the_sample(self):
        dom = chain_domain([0.0, 1.0])
        pts = {0: BaryPoint.of_vertex(0), 1: BaryPoint((2, 0), (0.5, 0.5))}
        with pytest.raises(NotAClique, match=r"sample 1: carrier \(0, 2\) is not a clique"):
            discrete_modify(pts, dom, cycle_graph(4))

    def test_base_value_is_required(self):
        with pytest.raises(TypeError):
            DiscreteMap(chain_domain([0.0]), cycle_graph(4), {0: 0})

    def test_basepoint_value_becomes_base(self):
        dom = chain_domain([0, 1, 2], basepoints=(1,))
        g = cycle_graph(4)
        pts = {0: BaryPoint.of_vertex(0), 1: BaryPoint.of_vertex(1), 2: BaryPoint.of_vertex(2)}
        f = discrete_modify(pts, dom, g)
        assert f.base_value == 1


class TestSharedPoints:
    """A point object shared by many samples is retracted once, with the
    result and the failure of one retraction per sample."""

    def test_repeated_non_clique_point_names_its_first_sample(self):
        dom = chain_domain(range(6))
        good, bad = BaryPoint.of_vertex(0), BaryPoint((0, 2), (0.5, 0.5))
        pts = {0: good, 1: good, 2: bad, 3: good, 4: bad, 5: bad}
        with pytest.raises(NotAClique, match=r"^sample 2: carrier \(0, 2\) is not a clique"):
            discrete_modify(pts, dom, cycle_graph(4))
        # an equal but distinct point earlier in sample order is named first
        pts[1] = BaryPoint((0, 2), (0.5, 0.5))
        with pytest.raises(NotAClique, match=r"^sample 1: "):
            discrete_modify(pts, dom, cycle_graph(4))
        # a missing sample before the first failing one is reported instead
        del pts[0]
        with pytest.raises(ValueError, match="^no image point for sample 0$"):
            discrete_modify(pts, dom, cycle_graph(4))

    def test_shared_equal_and_edge_carrier_points_retract_per_sample(self):
        g = cycle_graph(4)
        edge = BaryPoint((2, 1), (0.3, 0.7))
        tie = BaryPoint((1, 2), (0.5, 0.5))
        pts = {0: edge, 1: edge, 2: tie, 3: BaryPoint((1, 2), (0.5, 0.5)), 4: edge,
               5: BaryPoint.of_vertex(3), 6: BaryPoint.of_vertex(3), 7: tie}
        f = discrete_modify(pts, chain_domain(range(8)), g)
        assert f.values == {i: theta_on_graph(g, p) for i, p in pts.items()}
        assert list(f.values.values()) == [1, 1, 1, 1, 1, 3, 3, 1]

    def test_mapping_that_builds_a_new_point_per_lookup(self):
        # each lookup returns a fresh object that may reuse a freed one's id
        class Fresh(dict):
            def __getitem__(self, i):
                return BaryPoint.of_vertex(super().__getitem__(i))

        wanted = [0, 1, 2, 3, 0, 1, 2, 3, 3, 2]
        f = discrete_modify(Fresh(enumerate(wanted)), chain_domain(range(10)), cycle_graph(4))
        assert list(f.values.values()) == wanted


class TestDiscreteMapValidation:
    """Each refusal of ``DiscreteMap`` names its first offender in sample
    order; keys beyond the samples are not read."""

    @pytest.mark.parametrize(
        "values, message",
        [
            ({0: 0, 2: 1}, "no value for sample 1"),
            ({0: 0, 1: 9, 2: 1}, "value 9 is not a vertex of the target"),
            ({0: 0, 1: 1}, "no value for sample 2"),
            ({0: "x", 2: 1}, "value 'x' is not a vertex of the target"),
            ({0: 0, 2: 9}, "no value for sample 1"),
            ({0: 0, 1: 7, 2: 8}, "value 7 is not a vertex of the target"),
        ],
    )
    def test_sample_values(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DiscreteMap(chain_domain([0, 1, 2]), cycle_graph(4), values, 0)

    def test_base_value(self):
        with pytest.raises(ValueError, match="^base value 9 is not a vertex of the target$"):
            DiscreteMap(chain_domain([0, 1, 2]), cycle_graph(4), {0: 0, 1: 1, 2: 2}, 9)

    def test_basepoint_value(self):
        dom = chain_domain([0, 1, 2], basepoints=(0, 2))
        with pytest.raises(ValueError, match="^basepoint 2 has value 1, expected 0$"):
            DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 1, 2: 1}, 0)
        # the sample values are checked before the base value
        with pytest.raises(ValueError, match="^value 5 is not a vertex of the target$"):
            DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 5, 2: 1}, 9)

    def test_keys_beyond_the_samples_are_not_read(self):
        f = DiscreteMap(chain_domain([0, 1]), cycle_graph(4), {0: 0, 1: 1, 5: "x", "y": None}, 0)
        assert f.image_vertices() == (0, 1)


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

    @pytest.mark.parametrize("whole_scan_blocks", [None, 0])
    def test_half_radius_ball_is_open(self, whole_scan_blocks, monkeypatch):
        # sample 1 lies exactly half a radius of 2 from sample 0 and stays
        # out; sample 2, one float nearer, is covered, whole or pruned
        if whole_scan_blocks is not None:
            monkeypatch.setattr(transform, "WHOLE_SCAN_BLOCKS", whole_scan_blocks)
        dom = chain_domain([0.0, 1.0, np.nextafter(1.0, 0.0), -3.0])
        f = DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 1, 2: 1, 3: 1}, 0)
        assert flood_stage_radii(f, 0) == {0: 2.0}
        assert [flood(f, 0, {0: 2.0})(i) for i in range(4)] == [0, 1, 0, 1]
        assert next(flood_stages(f))[2].codes.tolist() == [0, 1, 0, 1]


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

    def test_a_stage_searches_about_log_e_plus_degree_keys(self, monkeypatch):
        # each stage reads its vertex's neighbours from two runs of edge
        # keys; a search of every vertex would cost V = 256 keys a stage
        dom = circle_domain(256)
        g = cycle_graph(256)
        f = DiscreteMap(dom, g, {i: i for i in range(256)}, 0)
        searched = [0]  # keys searched per stage, the last entry counting
        search = np.searchsorted

        def spy(keys, queries, *args, **kwargs):
            searched[-1] += np.size(queries)
            return search(keys, queries, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        for _ in flood_stages(f):
            searched.append(0)
        searched.pop()  # after the last stage
        assert len(searched) == 256 and sum(searched) > 0
        assert max(searched) <= 4 * (math.log2(len(g.edge_keys)) + 2) < 256


def capped_radii(f, full):
    """Full per-sample radii under the cap C = 2 * eps_net: a sample whose
    first conflicting distance (the next one after its full radius) is
    below C keeps its radius, any other takes its largest distance below C
    when that is above the mesh."""
    d = distances(f.domain)
    cap, mesh = 2 * f.domain.eps_net, f.domain.max_simplex_diameter()
    out = []
    for y, r in enumerate(full):
        level = min((x for x in d[y] if x > r), default=math.inf)
        near = max(x for x in d[y] if x < cap)
        out.append(r if level < cap or near <= mesh else near)
    return out


class TestCliqueCertificate:
    def test_constant_map_gets_the_cap(self):
        dom = circle_domain(12)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {i: 1 for i in range(12)}, 1)
        cert = clique_certificate(f)
        assert cert.delta == 2 * dom.eps_net < dom.diameter
        assert all(r == cert.delta for r in cert.radii.values())

    def test_constant_map_keeps_a_diameter_equal_to_the_mesh(self):
        # on a triangle every pair is an edge, so the cap would lift delta
        # above the mesh and drop the subdivision the diameter calls for
        dom = circle_domain(3)
        f = DiscreteMap(dom, cycle_graph(4), {i: 1 for i in range(3)}, 1)
        assert dom.diameter == dom.max_simplex_diameter()
        assert clique_certificate(f).delta == dom.diameter

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
        full = brute_force_certificate_delta(f)
        oracle = capped_radii(f, full)
        for y in range(64):
            assert math.isclose(cert.radii[y], oracle[y], rel_tol=1e-12)
        assert cert.delta == min(oracle)
        # the full delta is above the mesh, and so is the capped one
        assert min(full) > dom.max_simplex_diameter()
        assert cert.delta > dom.max_simplex_diameter()

    @pytest.mark.parametrize("k, steps, per_value", [(128, (1,), 2), (4096, (1, 2), 1)])
    def test_memory_does_not_grow_with_the_image(self, k, steps, per_value):
        # 128 image values leave about 8K non-adjacent pairs; scratch space
        # must stay a few distance row blocks regardless.  At 4,096 values
        # (C_4096 squared, each sample its own value) a k x k adjacency
        # table alone would take 16 MB
        edges = [(i, (i + step) % k) for i in range(k) for step in steps]
        n = k * per_value
        dom = circle_domain(n)
        f = DiscreteMap(dom, Graph(range(k), edges), {i: i // per_value for i in range(n)}, 0)
        tracemalloc.start()
        try:
            cert = clique_certificate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.delta > 0
        assert peak < 8 * transform.BLOCK_CELLS * 8

    def test_memory_when_every_pair_is_near(self):
        # 4,096 samples in a disc of radius 0.01 and one sample joined to
        # them by an edge about 1 long: the cap is about 2, so all 4,097
        # squared pairs are near.  The far sample's value 2 is apart from
        # the 0s, so every row walks its near values
        rng = np.random.default_rng(0)
        m = 4096
        coords = np.vstack([rng.uniform(-0.01, 0.01, size=(m, 2)), [[1.0, 0.0]]])
        dom = SampledDomain(coords, from_simplices([(0, m)], dim_cap=1, vertices=range(m + 1)))
        values = {i: int(coords[i, 0] > 0) for i in range(m)}
        values[m] = 2
        f = DiscreteMap(dom, cycle_graph(4), values, values[0])
        assert math.dist(coords[0], coords[m]) < 2 * dom.eps_net - 0.03
        tracemalloc.start()
        try:
            cert = clique_certificate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < cert.delta < 0.03
        # the far sample's ball reaches the nearest 0, past every 1
        d = np.linalg.norm(coords - coords[m], axis=1)
        assert cert.radii[m] == d[:m][d[:m] < d[:m][coords[:m, 0] <= 0].min()].max()
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
        m = convex_transform(f, dom.triangulation, cert, vietoris_rips(g, 2))
        assert check_simplicial(m)
        assert all(m(v) == 3 for v in dom.triangulation.vertices)

    def test_quarter_arc_wraps_polygon_onto_cycle(self):
        dom = circle_domain(64)
        g = cycle_graph(4)
        f = flood_all(discrete_modify(quarter_arc_map(dom, g), dom, g))
        cert = clique_certificate(f)
        m = convex_transform(f, dom.triangulation, cert, vietoris_rips(g, 2))
        assert check_simplicial(m)
        for v in dom.triangulation.vertices:
            assert m(v) == f(v)

    def test_triangle_collapses_to_edge(self):
        # a far-away extra sample keeps the triangle below the domain diameter
        coords = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [5.0, 0.0]]
        tri = from_simplices([(0, 1, 2)], dim_cap=2)
        dom = SampledDomain(coords, tri)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 0, 2: 1, 3: 0}, 0)
        cert = clique_certificate(f)
        m = convex_transform(f, tri, cert, vietoris_rips(g, 2))
        assert m.image_simplex((0, 1, 2)) == (0, 1)

    def test_oversized_simplex_rejected(self):
        dom = chain_domain([0, 1, 2])
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 1, 2: 1}, 0)
        cert = clique_certificate(f)
        fake = type(cert)(dict(cert.radii), min(cert.delta, 0.5))
        with pytest.raises(CertificateFailure, match="delta"):
            convex_transform(f, dom.triangulation, fake, vietoris_rips(g, 2))

    def test_non_clique_simplex_rejected(self):
        from vrclosure import CliqueCertificate

        coords = [[0.0], [0.1]]
        tri = from_simplices([(0, 1)], dim_cap=1)
        dom = SampledDomain(coords, tri)
        g = cycle_graph(4)
        f = DiscreteMap(dom, g, {0: 0, 1: 2}, 0)
        with pytest.raises(CertificateFailure):
            convex_transform(f, tri, CliqueCertificate({0: 1.0, 1: 1.0}, 1.0), vietoris_rips(g, 2))


class TestCarriersCompatible:
    def test_collapse_onto_same_edge(self):
        from vrclosure import SimplicialMap

        k = from_simplices([(0, 1)], dim_cap=1)
        target = vietoris_rips(cycle_graph(4), 2)
        m1 = SimplicialMap(k, target, {0: 0, 1: 1})
        sd = barycentric_subdivision(k)
        m2 = SimplicialMap(sd, target, {(0,): 0, (1,): 1, (0, 1): 0})
        pts = [BaryPoint((0, 1), (1 - t / 10, t / 10)) for t in range(11)]
        assert carriers_compatible(m1, m2, pts)

    def test_distant_images_fail(self):
        from vrclosure import SimplicialMap

        k = from_simplices([(0, 1)], dim_cap=1)
        target = vietoris_rips(cycle_graph(4), 2)
        m1 = SimplicialMap(k, target, {0: 0, 1: 0})
        sd = barycentric_subdivision(k)
        m2 = SimplicialMap(sd, target, {(0,): 2, (1,): 2, (0, 1): 2})
        pts = [BaryPoint((0, 1), (0.5, 0.5))]
        assert not carriers_compatible(m1, m2, pts)

    def test_mismatched_targets_rejected(self):
        from vrclosure import SimplicialMap

        k = from_simplices([(0, 1)], dim_cap=1)
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
        for face, idx in zip(dom.triangulation.all_simplices(), face_vertex):
            if len(face) == 2:
                # midpoint inherits the nearest original sample's value
                nearest = np.argmin(np.linalg.norm(dom.coords - new_dom.coords[idx], axis=1))
                assert new_values[idx] == values[nearest]

    def test_basepoints_preserved(self):
        dom = circle_domain(8)
        values = {i: 0 for i in range(8)}
        for basepoints in ((0,), (3, 5)):
            dom = SampledDomain(dom.coords, dom.triangulation, basepoints=basepoints)
            new_dom, _, _ = subdivide_domain(dom, values)
            assert new_dom.basepoints == basepoints

    def test_oversized_result_refused_before_subdividing(self, monkeypatch):
        # one round takes circle:16 to 32 samples
        dom, values = circle_domain(16), dict.fromkeys(range(16), 0)
        monkeypatch.setattr(transform, "MAX_SAMPLES", 31)
        with monkeypatch.context() as mp:
            mp.setattr(transform, "subdivision_on", lambda *args: pytest.fail("subdivided"))
            with pytest.raises(transform.TooManySamples, match="^more than 31 samples after 1 subdivision rounds$"):
                subdivide_domain(dom, values)
        monkeypatch.setattr(transform, "MAX_SAMPLES", 32)
        assert subdivide_domain(dom, values)[0].n_samples == 32

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
