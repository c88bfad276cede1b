"""Finite simple reflexive graphs and their canonical closure structure.

Reflexivity is implicit: loops are never stored, and every adjacency query
treats a vertex as adjacent to itself.  The vertex order fixed here (numeric
when every identifier is an int, lexicographic otherwise) is the total order
that all downstream tie-breaking refers to.

A graph is stored on vertex indices: ``index_neighbors[i]`` is the set of
indices adjacent to ``vertices[i]``, O(V + E) in all.  The label-level views
(``edges``, ``neighbors``, ``closed_neighborhood``, ``are_adjacent``) are
built from it on first use.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .closure import ClosureSpace

Vertex = Hashable


def sort_vertices(tokens: Iterable[Vertex]) -> tuple:
    """Deterministic vertex order: numeric for ints, lexicographic for strings."""
    toks = list(tokens)
    if not toks:
        return ()
    if any(isinstance(t, bool) for t in toks):
        raise ValueError("boolean vertex identifiers are not supported")
    if all(isinstance(t, int) for t in toks):
        return tuple(sorted(toks))
    if all(isinstance(t, str) for t in toks):
        return tuple(sorted(toks))
    if all(isinstance(t, tuple) for t in toks):
        return tuple(sorted(toks, key=lambda t: (len(t), t)))
    raise ValueError("vertex identifiers must be all ints, all strings, or all tuples")


def _neighbor_sets(n: int, ends: Sequence[int]) -> list:
    """Per-index neighbour sets of the index pairs ``ends[0::2]``,
    ``ends[1::2]``, loops dropped."""
    nbrs = [set() for _ in range(n)]
    it = iter(ends)
    for a, b in zip(it, it):
        nbrs[a].add(b)
        nbrs[b].add(a)
    for i, s in enumerate(nbrs):
        s.discard(i)
    return nbrs


class Graph:
    """Finite simple reflexive graph with a fixed total vertex order.

    Edges are unordered pairs of distinct vertices; explicit loops in the
    input are accepted and dropped, since reflexivity is implicit.
    ``index_neighbors`` is read-only: the label views are built from it
    once.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]] = ()):
        verts = sort_vertices(vertices)
        index = dict(zip(verts, range(len(verts))))
        if len(index) != len(verts):
            raise ValueError("duplicate vertex identifiers")
        ends = []
        for pair in edges:
            u, v = pair
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the vertex set")
            ends += (index[u], index[v])
        self.vertices = verts
        self.vertex_index = index
        self.index_neighbors = _neighbor_sets(len(verts), ends)

    @classmethod
    def from_index_pairs(cls, vertices: Sequence[Vertex], ends: Sequence[int]) -> "Graph":
        """The graph on ``vertices``, already distinct and in vertex order,
        whose edges are the consecutive pairs of the flat index list ``ends``.

        A pair ``(i, i)`` adds no edge, so it can declare an isolated vertex.
        """
        return cls._of(tuple(vertices), _neighbor_sets(len(vertices), ends))

    @classmethod
    def _of(cls, verts: tuple, nbrs: list) -> "Graph":
        g = cls.__new__(cls)
        g.vertices = verts
        g.vertex_index = dict(zip(verts, range(len(verts))))
        g.index_neighbors = nbrs
        return g

    @cached_property
    def edges(self) -> frozenset:
        """Edges as label pairs ``(u, v)`` with ``u`` before ``v``."""
        verts = self.vertices
        return frozenset(
            (verts[i], verts[j])
            for i, s in enumerate(self.index_neighbors)
            for j in s
            if i < j
        )

    @cached_property
    def _adjacency(self) -> dict:
        verts = self.vertices
        return {
            verts[i]: frozenset(verts[j] for j in s)
            for i, s in enumerate(self.index_neighbors)
        }

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertex_index

    def index(self, v: Vertex) -> int:
        try:
            return self.vertex_index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}") from None

    def neighbors(self, v: Vertex) -> frozenset:
        """Neighbors of ``v`` excluding ``v`` itself."""
        self.index(v)
        return self._adjacency[v]

    def closed_neighborhood(self, v: Vertex) -> frozenset:
        """``v`` together with its neighbors; the singleton closure of ``v``."""
        return self._adjacency[v] | {v}

    def are_adjacent(self, u: Vertex, v: Vertex) -> bool:
        """Reflexive adjacency: true iff ``u == v`` or ``{u, v}`` is an edge."""
        nbrs = self._adjacency.get(u)
        if nbrs is None or v not in self._adjacency:
            raise KeyError(f"unknown vertex {u if nbrs is None else v!r}")
        return u == v or v in nbrs

    def canonical_closure(self) -> ClosureSpace:
        """The closure space whose singleton closures are closed neighborhoods."""
        return ClosureSpace(
            self.vertices,
            {v: self.closed_neighborhood(v) for v in self.vertices},
        )


def cycle_graph(n: int) -> Graph:
    """The n-cycle C_n on vertices 0..n-1 (n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """The complete graph K_n on vertices 0..n-1."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def octahedron_graph() -> Graph:
    """K_{2,2,2}: vertices 0..5 with the three antipodal pairs non-adjacent.

    Vertex 2i and 2i+1 form an antipodal pair, matching the pole order
    (+x, -x, +y, -y, +z, -z) used by the sphere domain generators.
    """
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if i // 2 != j // 2
    ]
    return Graph(range(6), edges)
