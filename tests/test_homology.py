"""GF(2) homology: ranks, Betti numbers, induced maps, edge-path groups."""

import random

import pytest

from vrclosure import (
    Graph,
    SimplicialMap,
    betti_numbers,
    complete_graph,
    cycle_graph,
    edge_path_presentation,
    euler_characteristic,
    induced_h1,
    octahedron_graph,
    vietoris_rips,
)
from vrclosure import homology
from vrclosure.domains import icosphere_domain
from vrclosure.homology import boundary_columns, gf2_rank

from helpers import compose_simplicial
from homology_oracle import gf2_rank_dense


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def union_find_components(g):
    """Independent component counter for the beta_0 cross-check."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in g.vertices})


class TestRank:
    def test_matches_dense_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            rows = rng.randint(1, 40)
            cols = [rng.getrandbits(rows) for _ in range(rng.randint(1, 40))]
            assert gf2_rank(cols) == gf2_rank_dense(cols)
        # 11,175 edge columns of K150, where a sparse path used to take over
        cols = boundary_columns(vietoris_rips(complete_graph(150), 1), 1)
        assert len(cols) == 11_175
        assert gf2_rank(cols) == gf2_rank_dense(cols) == 149

    def test_known_rank(self):
        # rows of the 3x3 identity plus their sum
        cols = [0b001, 0b010, 0b100, 0b111]
        assert gf2_rank(cols) == 3

    def test_boundary_composite_is_zero(self):
        rng = random.Random(55)
        for _ in range(15):
            g = random_graph(rng, rng.randint(3, 9), p=0.6)
            k = vietoris_rips(g, 3)
            for d in range(2, 4):
                if not k.simplices(d):
                    continue
                lower = boundary_columns(k, d - 1)
                for col in boundary_columns(k, d):
                    composite = 0
                    bits = col
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        composite ^= lower[low.bit_length() - 1]
                    assert composite == 0


class TestBetti:
    def test_c4_is_a_circle(self):
        assert betti_numbers(vietoris_rips(cycle_graph(4), 2), 1) == [1, 1]

    def test_c5_is_a_circle(self):
        assert betti_numbers(vietoris_rips(cycle_graph(5), 2), 1) == [1, 1]

    def test_k3_is_contractible(self):
        assert betti_numbers(vietoris_rips(complete_graph(3), 2), 1) == [1, 0]

    def test_octahedron_is_a_sphere(self):
        assert betti_numbers(vietoris_rips(octahedron_graph(), 3), 2) == [1, 0, 1]

    def test_requires_dim_cap_headroom(self):
        with pytest.raises(ValueError):
            betti_numbers(vietoris_rips(cycle_graph(4), 1), 1)

    def test_beta0_matches_union_find(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12))
            k = vietoris_rips(g, 1)
            assert betti_numbers(k, 0)[0] == union_find_components(g)

    def test_alternating_sum_is_euler(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9), p=0.5)
            # cap high enough that no simplices are cut off
            k = vietoris_rips(g, len(g.vertices) + 1)
            betti = betti_numbers(k, len(g.vertices))
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == euler_characteristic(k)


class TestWorkCounts:
    """Eliminations counted, not timed: every column and cycle the homology
    reduces goes through one ``_reduce`` call, so skipped work shows as
    missing calls."""

    @pytest.fixture
    def reduce_calls(self, monkeypatch):
        calls = []
        real = homology._reduce

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(homology, "_reduce", counted)
        return calls

    def test_beta0_reduces_nothing(self, reduce_calls):
        # the forest alone: none of K150's 11,175 edge columns is reduced
        assert betti_numbers(vietoris_rips(complete_graph(150), 1), 0) == [1]
        assert reduce_calls == []

    @pytest.mark.parametrize(
        "g, cap",
        [
            (complete_graph(12), 4),
            (octahedron_graph(), 4),
            (Graph(range(9), [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]), 3),
        ],
        ids=["K12", "octahedron", "components"],
    )
    def test_betti_reduces_only_uncleared_columns(self, reduce_calls, g, cap):
        # level d reduces its columns less rank D_d (D_d the boundary from
        # d-chains), which the forest (d = 1) or the pivots of the level below
        # (d >= 2) clear; a level with no cofaces reduces nothing
        k = vietoris_rips(g, cap)
        betti_numbers(k, cap - 1)
        want = sum(
            len(k.simplices(d)) - gf2_rank_dense(boundary_columns(k, d))
            for d in range(1, cap)
            if k.simplices(d + 1)
        )
        assert len(reduce_calls) == want

    def test_sphere_h1_skips_the_cycle_kernel(self, reduce_calls):
        # beta_1 = 0 is known once the triangles are in: one call per triangle
        tri = icosphere_domain(2).triangulation
        ctx = homology._H1Context(tri)
        assert ctx.h1_basis == []
        assert len(reduce_calls) == len(tri.simplices(2))

    def test_h1_stops_at_beta1(self, reduce_calls):
        # C4 with a 16-edge tail: the only cycle closes at the fourth edge
        # (0-1, 0-3, 1-2, 2-3), after which no edge is reduced
        g = Graph(range(20), [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, i + 1) for i in range(3, 19)])
        ctx = homology._H1Context(vietoris_rips(g, 2))
        assert len(ctx.h1_basis) == 1
        assert len(reduce_calls) == 4 + 1


class TestEuler:
    def test_examples(self):
        assert euler_characteristic(vietoris_rips(cycle_graph(4), 2)) == 0
        assert euler_characteristic(vietoris_rips(complete_graph(3), 2)) == 1
        assert euler_characteristic(vietoris_rips(octahedron_graph(), 3)) == 2


class TestInducedH1:
    def test_identity_is_identity(self):
        k = vietoris_rips(cycle_graph(4), 2)
        out = induced_h1(SimplicialMap(k, k, {v: v for v in k.vertices}))
        assert out.rank == 1
        assert out.matrix == ((1,),)

    def test_constant_kills_homology(self):
        k = vietoris_rips(cycle_graph(4), 2)
        out = induced_h1(SimplicialMap(k, k, {v: 0 for v in k.vertices}))
        assert out.rank == 0
        assert out.matrix == ((0,),)

    def test_hexagon_wrap_has_rank_one(self):
        k6 = vietoris_rips(cycle_graph(6), 2)
        k4 = vietoris_rips(cycle_graph(4), 2)
        wrap = SimplicialMap(k6, k4, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3})
        out = induced_h1(wrap)
        assert (out.source_betti1, out.target_betti1) == (1, 1)
        assert out.rank == 1

    def test_functorial_under_composition(self):
        k8 = vietoris_rips(cycle_graph(8), 2)
        k4 = vietoris_rips(cycle_graph(4), 2)
        wrap = SimplicialMap(k8, k4, {i: i // 2 for i in range(8)})
        rotate = SimplicialMap(k4, k4, {i: (i + 1) % 4 for i in range(4)})
        lhs = induced_h1(compose_simplicial(rotate, wrap))
        a = induced_h1(rotate)
        b = induced_h1(wrap)
        # 1x1 matrices over GF(2): composition is the product of entries
        assert lhs.matrix[0][0] == (a.matrix[0][0] & b.matrix[0][0])
        assert lhs.rank == min(a.rank, b.rank)

    def test_non_simplicial_rejected(self):
        k = vietoris_rips(cycle_graph(4), 2)
        bad = SimplicialMap(k, k, {0: 0, 1: 1, 2: 3, 3: 3})
        with pytest.raises(ValueError):
            induced_h1(bad)


class TestEdgePath:
    def test_c4_free_of_rank_one(self):
        pres = edge_path_presentation(vietoris_rips(cycle_graph(4), 2), 0)
        assert len(pres.generators) == 1
        assert len(pres.relators) == 0
        assert pres.abelianized_rank() == 1

    def test_k3_trivial_group(self):
        pres = edge_path_presentation(vietoris_rips(complete_graph(3), 2), 0)
        assert len(pres.generators) == 1
        assert len(pres.relators) == 1
        assert pres.abelianized_rank() == 0

    def test_single_vertex(self):
        pres = edge_path_presentation(vietoris_rips(complete_graph(1), 2), 0)
        assert pres.generators == ()
        assert pres.abelianized_rank() == 0

    def test_disconnected_rejected(self):
        g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            edge_path_presentation(vietoris_rips(g, 2), 0)

    def test_abelianization_matches_beta1(self):
        for graph in (cycle_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(4)):
            k = vietoris_rips(graph, 2)
            pres = edge_path_presentation(k, graph.vertices[0])
            assert pres.abelianized_rank() == betti_numbers(k, 1)[1]

    def test_abelianization_matches_beta1_random_connected(self):
        rng = random.Random(19)
        found = 0
        while found < 15:
            g = random_graph(rng, rng.randint(2, 9), p=0.5)
            if union_find_components(g) != 1:
                continue
            found += 1
            k = vietoris_rips(g, 2)
            pres = edge_path_presentation(k, g.vertices[0])
            assert pres.abelianized_rank() == betti_numbers(k, 1)[1]
