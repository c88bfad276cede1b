"""Clique complexes, barycentric subdivision, simplicial maps."""

import random
from itertools import combinations

import pytest

from vrclosure import (
    Graph,
    SimplicialMap,
    check_simplicial,
    complete_graph,
    cycle_graph,
    euler_characteristic,
    octahedron_graph,
    vietoris_rips,
)
from vrclosure.complex import subdivision_counts

from helpers import barycentric_subdivision, from_simplices


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def brute_force_cliques(g, dim_cap):
    """Oracle: every subset of size <= dim_cap+1 whose members are pairwise
    adjacent, found by direct enumeration."""
    levels = []
    for size in range(1, dim_cap + 2):
        level = [
            s
            for s in combinations(g.vertices, size)
            if all(g.are_adjacent(u, v) for u, v in combinations(s, 2))
        ]
        levels.append(level)
    return levels


class TestVietorisRips:
    def test_c4(self):
        assert vietoris_rips(cycle_graph(4), 2).counts() == [4, 4, 0]

    def test_k3(self):
        assert vietoris_rips(complete_graph(3), 2).counts() == [3, 3, 1]

    def test_octahedron(self):
        assert vietoris_rips(octahedron_graph(), 3).counts() == [6, 12, 8, 0]

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 12))
            cap = rng.randint(0, 3)
            k = vietoris_rips(g, cap)
            oracle = brute_force_cliques(g, cap)
            for d in range(cap + 1):
                assert sorted(k.simplices(d)) == sorted(oracle[d]), (g.edges, d)

    def test_one_skeleton_is_the_graph(self):
        rng = random.Random(4)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 12))
            k = vietoris_rips(g, 2)
            assert set(k.simplices(1)) == set(g.edges)

    def test_downward_closed(self):
        k = vietoris_rips(octahedron_graph(), 3)
        for d in range(1, 4):
            for s in k.simplices(d):
                for face in combinations(s, d):
                    assert k.has_simplex(face)


class TestFromSimplices:
    def test_non_pure_closure(self):
        k = from_simplices([(2, 0, 1), (3, 2), (5,)], dim_cap=2)
        assert k.vertices == (0, 1, 2, 3, 5)
        assert k.simplices(1) == ((0, 1), (0, 2), (1, 2), (2, 3))
        assert k.simplices(2) == ((0, 1, 2),)

    def test_cap_truncates(self):
        k = from_simplices([(0, 1, 2, 3)], dim_cap=1)
        assert k.counts() == [4, 6]

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="dim_cap"):
            from_simplices([(0, 1)], dim_cap=-1)

    def test_simplex_outside_vertex_set_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            from_simplices([(0, 5)], 1, vertices=[0, 1])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            from_simplices([(0, 0)], 1)


class TestSubdivision:
    def test_single_edge(self):
        k = from_simplices([(0, 1)], dim_cap=1)
        sd = barycentric_subdivision(k)
        assert sd.counts() == [3, 2]

    def test_full_triangle(self):
        k = vietoris_rips(complete_graph(3), 2)
        sd = barycentric_subdivision(k)
        assert sd.counts() == [7, 12, 6]

    def test_counts_without_building(self):
        rng = random.Random(9)
        for _ in range(12):
            k = vietoris_rips(random_graph(rng, rng.randint(1, 8)), rng.randint(1, 4))
            assert subdivision_counts(k.counts()) == barycentric_subdivision(k).counts()

    def test_chain_counts_match_poset_oracle(self):
        rng = random.Random(8)
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 7))
            k = vietoris_rips(g, 2)
            if sum(k.counts()) > 20:
                continue
            sd = barycentric_subdivision(k)
            faces = list(k.all_simplices())
            # oracle: count strictly increasing chains by brute force
            for d in range(k.dim_cap + 1):
                chains = 0
                for combo in combinations(faces, d + 1):
                    ordered = sorted(combo, key=len)
                    if all(
                        set(a) < set(b) for a, b in zip(ordered, ordered[1:])
                    ):
                        chains += 1
                assert len(sd.simplices(d)) == chains

    def test_euler_characteristic_preserved(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 8))
            k = vietoris_rips(g, 2)
            sd = barycentric_subdivision(k)
            assert euler_characteristic(sd) == euler_characteristic(k)


class TestSimplicialMaps:
    def test_identity_is_simplicial(self):
        k = vietoris_rips(cycle_graph(4), 2)
        m = SimplicialMap(k, k, {v: v for v in k.vertices})
        assert check_simplicial(m)

    def test_edge_image_missing_from_target(self):
        k = vietoris_rips(cycle_graph(4), 2)
        # {1,2} maps to {1,3}, which is not an edge of C_4
        m = SimplicialMap(k, k, {0: 0, 1: 1, 2: 3, 3: 3})
        assert not check_simplicial(m)

    def test_constant_is_simplicial(self):
        k = vietoris_rips(cycle_graph(4), 2)
        m = SimplicialMap(k, k, {v: 2 for v in k.vertices})
        assert check_simplicial(m)


class TestSimplicialMapValidation:
    """Each refusal of ``SimplicialMap`` names its first offender in the
    source's vertex order; keys beyond the source vertices are not read."""

    @pytest.mark.parametrize(
        "images, error, message",
        [
            ({0: 0, 2: 1, 3: 0}, ValueError, "no image for source vertex 1"),
            ({0: 0, 1: 9, 2: 1, 3: 0}, ValueError, "image 9 is not a target vertex"),
            ({0: 0, 1: 1, 2: 2}, ValueError, "no image for source vertex 3"),
            ({0: "x", 2: 1}, ValueError, "image 'x' is not a target vertex"),
            ({0: 0, 2: 9}, ValueError, "no image for source vertex 1"),
            ({0: 0, 1: 7, 2: 8, 3: 0}, ValueError, "image 7 is not a target vertex"),
            ({0: 0, 1: [1], 2: 9, 3: 0}, TypeError, "unhashable type"),
        ],
    )
    def test_vertex_images(self, images, error, message):
        k = vietoris_rips(cycle_graph(4), 2)
        with pytest.raises(error, match=f"^{message}"):
            SimplicialMap(k, k, images)

    def test_keys_beyond_the_source_are_not_read(self):
        k = vietoris_rips(cycle_graph(4), 2)
        m = SimplicialMap(k, k, {0: 0, 1: 1, 2: 2, 3: 3, 9: "x", "y": [None]})
        assert check_simplicial(m)

