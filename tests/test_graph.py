"""Graph model: canonical closure, adjacency, vertex ordering."""

import random

import pytest

from vrclosure import Graph, complete_graph, cycle_graph, octahedron_graph


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


class TestConstruction:
    def test_self_loops_dropped(self):
        g = Graph([0, 1], [(0, 0), (0, 1)])
        assert g.edges == {(0, 1)}

    def test_duplicate_edges_collapse(self):
        g = Graph([0, 1], [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 2)])

    def test_numeric_vertex_order(self):
        g = Graph([10, 2, 1], [])
        assert g.vertices == (1, 2, 10)

    def test_lexicographic_vertex_order(self):
        g = Graph(["b", "a", "aa"], [])
        assert g.vertices == ("a", "aa", "b")

    def test_mixed_tokens_rejected(self):
        with pytest.raises(ValueError):
            Graph([1, "a"], [])


class TestCanonicalClosure:
    def test_c4_matches_mod4_arithmetic(self):
        space = cycle_graph(4).canonical_closure()
        for y in range(4):
            assert space.cl1[y] == {(y - 1) % 4, y, (y + 1) % 4}

    def test_single_vertex(self):
        space = Graph(["a"], []).canonical_closure()
        assert space.cl1["a"] == {"a"}

    def test_complete_graph(self):
        space = complete_graph(3).canonical_closure()
        for x in range(3):
            assert space.cl1[x] == {0, 1, 2}

    def test_symmetry_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 12))
            space = g.canonical_closure()
            for x in g.vertices:
                for y in g.vertices:
                    assert (y in space.cl1[x]) == (x in space.cl1[y])

    def test_adjacency_agrees_with_closure(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10))
            space = g.canonical_closure()
            for x in g.vertices:
                for y in g.vertices:
                    assert g.are_adjacent(x, y) == (y in space.cl1[x])


class TestQueries:
    def test_c4_edges(self):
        g = cycle_graph(4)
        assert g.are_adjacent(0, 1)
        assert not g.are_adjacent(0, 2)

    def test_reflexive(self):
        g = cycle_graph(4)
        for v in g.vertices:
            assert g.are_adjacent(v, v)

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            cycle_graph(4).are_adjacent(0, 9)
        # either endpoint, and a vertex paired with itself, is named
        for u, v, named in [(0, 9, 9), (9, 0, 9), (9, 9, 9), (8, 9, 8)]:
            with pytest.raises(KeyError, match=f"unknown vertex {named}"):
                cycle_graph(4).are_adjacent(u, v)

    def test_octahedron_antipodes(self):
        g = octahedron_graph()
        assert len(g.edges) == 12
        for i in range(0, 6, 2):
            assert not g.are_adjacent(i, i + 1)
