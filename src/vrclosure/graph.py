"""Finite simple reflexive graphs and their canonical closure structure.

Reflexivity is implicit: loops are never stored as edges, and every
adjacency query treats a vertex as adjacent to itself.  The vertex order
fixed here (numeric when every identifier is an int, lexicographic
otherwise) is the total order that all downstream tie-breaking refers to.

A graph is stored on vertex indices as ``edge_keys``: one sorted int64
array of distinct keys ``i * n + j``, one per edge ``i < j`` on ``n``
vertices, built in numpy from the flat endpoint indices.  It is the only
stored relation.  ``vietoris_rips`` searches it as it is; every other
adjacency question is read on vertex indices from one sorted array built
from it, the keys of both directions of each edge and of each loop:
``adjacent`` searches it once per pair and ``neighbor_indices`` reads a
vertex's run of it; the label views ``edges``, ``closed_neighborhood`` and
``are_adjacent`` wrap those.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

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


def _edge_keys(n: int, ends: Sequence[int]) -> np.ndarray:
    """The sorted distinct keys ``i * n + j`` (``i < j``) of the index pairs in
    ``ends``, a list or an int array, loops dropped; not ``np.unique``, which
    imports ``numpy.ma``."""
    pairs = np.asarray(ends, np.int64).reshape(-1, 2)
    a, b = pairs[:, 0], pairs[:, 1]
    keys = np.sort((np.minimum(a, b) * n + np.maximum(a, b))[a != b])
    first = np.ones(len(keys), bool)  # the first of each run of equal keys
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class Graph:
    """Finite simple reflexive graph with a fixed total vertex order.

    Edges are unordered pairs of distinct vertices; explicit loops in the
    input are accepted and dropped, since reflexivity is implicit.
    ``edge_keys`` is read-only: the search arrays and label views are
    built from it once.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]] = ()):
        verts = sort_vertices(vertices)
        index = dict(zip(verts, range(len(verts))))
        if len(index) != len(verts):
            raise ValueError("duplicate vertex identifiers")
        ends = []
        for u, v in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the vertex set")
            ends += (index[u], index[v])
        self.vertices, self.vertex_index, self.edge_keys = verts, index, _edge_keys(len(verts), ends)

    @classmethod
    def from_index_pairs(cls, vertices: Sequence[Vertex], ends: Sequence[int]) -> "Graph":
        """The graph on ``vertices``, already distinct and in vertex order,
        whose edges are the consecutive pairs of the flat indices ``ends``,
        a list or an int array.

        A pair ``(i, i)`` adds no edge, so it can declare an isolated vertex.
        """
        g = cls.__new__(cls)
        g.vertices = tuple(vertices)
        g.vertex_index = dict(zip(g.vertices, range(len(g.vertices))))
        g.edge_keys = _edge_keys(len(g.vertices), ends)
        return g

    @cached_property
    def _closed_keys(self) -> np.ndarray:
        """The keys ``i * n + j`` of the ordered pairs of adjacent vertices,
        both ways round and the loops ``i * (n + 1)`` included, sorted, then
        a sentinel above every key, so that a search never runs off the end:
        each vertex's run lists its closed neighbourhood, ascending."""
        n = len(self.vertices)
        tail, head = np.divmod(self.edge_keys, n)
        keys = [self.edge_keys, head * n + tail, np.arange(n) * (n + 1), [np.iinfo(np.int64).max]]
        return np.sort(np.concatenate(keys))

    def adjacent(self, i, j) -> np.ndarray:
        """Reflexive adjacency of the vertex indices ``i`` and ``j``,
        elementwise as they broadcast: one search of the closed keys."""
        key, keys = np.multiply(i, len(self.vertices)) + j, self._closed_keys
        return keys[np.searchsorted(keys, key)] == key

    def neighbor_indices(self, i: int) -> np.ndarray:
        """The vertex indices adjacent to ``i``, ``i`` itself included as
        adjacency is reflexive, ascending: its run of the closed keys, found
        by one search of both ends, so O(log E + deg i)."""
        n, keys = len(self.vertices), self._closed_keys
        return keys[slice(*np.searchsorted(keys, (i * n, i * n + n)))] % n

    @cached_property
    def edges(self) -> frozenset:
        """Edges as label pairs ``(u, v)`` with ``u`` before ``v``."""
        tail, head = np.divmod(self.edge_keys, len(self.vertices))
        label = self.vertices.__getitem__
        return frozenset(zip(map(label, tail.tolist()), map(label, head.tolist())))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edge_keys)} edges)"

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertex_index

    def index(self, v: Vertex) -> int:
        try:
            return self.vertex_index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}") from None

    def closed_neighborhood(self, v: Vertex) -> frozenset:
        """``v`` together with its neighbors; the singleton closure of ``v``."""
        closed = self.neighbor_indices(self.index(v)).tolist()
        return frozenset(map(self.vertices.__getitem__, closed))

    def are_adjacent(self, u: Vertex, v: Vertex) -> bool:
        """Reflexive adjacency: true iff ``u == v`` or ``{u, v}`` is an edge."""
        return bool(self.adjacent(self.index(u), self.index(v)))

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
