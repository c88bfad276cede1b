"""Simplicial complexes: clique (Vietoris-Rips) construction, barycentric
subdivision, and simplicial maps.

Each level of a complex is one ``(n_d, d + 1)`` array of vertex indices, up
to a mandatory cap: clique complexes blow up, and the pipeline builds its
target up to dimension 2d+1 for a d-dimensional domain (5 on spheres).
Builders write the arrays and the product reads them; label tuples are a
view, built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .graph import Graph

Vertex = Hashable
Simplex = tuple


class SimplicialComplex:
    """A finite, downward-closed family of simplices capped at ``dim_cap``.

    ``rows[d]`` holds the d-simplices as vertex-index rows in lexicographic
    order, the simplex order of boundary matrices and serialization; faces
    are numbered through the levels in that order, as ``all_simplices()``
    lists them.  The constructor trusts its rows (strictly increasing, every
    face present, levels lexicographic) and ``prefixes``, which builders that
    grow rows pass: per level d >= 1, the position in level d - 1 of each
    row's prefix, all but its last vertex.  ``vietoris_rips``,
    ``subdivision_on`` and the domain triangulations build such rows.
    """

    def __init__(self, vertices: Sequence[Vertex], rows: Sequence, dim_cap: int,
                 prefixes: Sequence | None = None):
        if dim_cap < 0:
            raise ValueError("dim_cap must be nonnegative")
        self.vertices, self.dim_cap, self._prefixes = tuple(vertices), dim_cap, prefixes
        self.rows = tuple(np.asarray(rows[d] if d < len(rows) else (), np.intp).reshape(-1, d + 1)
                          for d in range(dim_cap + 1))
        self._starts = np.cumsum([0, *map(len, self.rows)])  # each level's first face number
        self._facets: dict = {}

    @cached_property
    def vertex_index(self) -> dict:
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def labels(self) -> np.ndarray:
        """The vertex labels as an object array, to gather rows by."""
        return np.fromiter(self.vertices, dtype=object, count=len(self.vertices))

    @cached_property
    def _label_levels(self) -> list:
        return [tuple(map(tuple, self.labels[level].tolist())) for level in self.rows]

    @cached_property
    def _keys(self) -> np.ndarray:
        """Per face, increasing: its last vertex plus the vertex count times
        one more than its prefix's face number (-1 for the empty prefix);
        then a sentinel above every key."""
        keys = np.array([np.iinfo(np.intp).max])
        for d, level in enumerate(self.rows):
            prefix = (self._starts[d - 1] + self._prefixes[d - 1] if d and self._prefixes is not None
                      else self.positions(level[:, :-1], keys))
            level_keys = (prefix + 1) * len(self.vertices) + level[:, -1]
            keys = np.concatenate([keys[:-1], level_keys, keys[-1:]])
        return keys

    # -- queries ---------------------------------------------------

    def simplices(self, dim: int) -> tuple:
        """The ``dim``-simplices as label tuples, in order; built on first read."""
        return self._label_levels[dim] if 0 <= dim <= self.dim_cap else ()

    def all_simplices(self):
        return chain.from_iterable(self._label_levels)

    def positions(self, rows: np.ndarray, keys: np.ndarray | None = None) -> np.ndarray:
        """The face number of each row of ascending vertex indices, a repeated
        vertex counting once; negative for a row that is no simplex.  Rows
        are read one vertex at a time, so keys stay below faces times
        vertices, where a mixed-radix row code overflows int64 at 200
        vertices and 9-vertex rows; ``_keys`` passes the levels built so far."""
        keys = self._keys if keys is None else keys
        at = np.full(len(rows), -1, dtype=np.intp)  # the empty face; -2 once not found
        for j in range(rows.shape[1]):
            query = (at + 1) * len(self.vertices) + rows[:, j]
            found = np.searchsorted(keys, query)
            found[keys[found] != query] = -2
            at = np.where(rows[:, j] == rows[:, j - 1], at, found) if j else found
        return at

    def has_simplex(self, simplex: Sequence[Vertex]) -> bool:
        """Whether a nonempty label sequence, in the vertex order and without
        repeats, is a simplex: one search per vertex of the keys
        ``positions`` reads, where a row out of order or with a repeat has
        no key."""
        keys, n, index = self._keys, len(self.vertices), self.vertex_index
        at = -1  # the face so far, the empty one first
        for v in simplex:
            if v not in index:
                return False
            query = (at + 1) * n + index[v]
            at = int(keys.searchsorted(query))
            if keys[at] != query:
                return False
        return at >= 0

    def has_simplices(self, rows: np.ndarray) -> bool:
        """Whether the vertex set of every row of vertex indices, in any
        order and with repeats, is a simplex."""
        return bool((self.positions(np.sort(rows, axis=1)) >= 0).all())

    def sort_simplex(self, vertices: Iterable[Vertex]) -> Simplex:
        """Sort distinct vertices into this complex's simplex order."""
        return tuple(sorted(vertices, key=lambda v: self.vertex_index[v]))

    def facets(self, dim: int) -> np.ndarray:
        """``(n_dim, dim + 1)``: column j holds the position in level
        ``dim - 1`` of each ``dim``-simplex's facet without its j-th vertex:
        the prefix's facet j plus the last vertex, the prefix itself last."""
        if dim not in self._facets:
            n, start, last = len(self.vertices), self._starts, self.rows[dim][:, -1:]
            out = np.empty((len(last), dim + 1), dtype=np.intp)
            out[:, -1] = self._keys[start[dim] : start[dim + 1]] // n - 1 - start[dim - 1]
            # keys of the prefix's facets plus the last vertex; -1 + 1 for an edge's empty face
            keys = self.facets(dim - 1)[out[:, -1]] + (start[dim - 2] + 1) if dim > 1 else 0
            out[:, :-1] = np.searchsorted(self._keys, keys * n + last) - start[dim - 1]
            self._facets[dim] = out
        return self._facets[dim]

    def counts(self) -> list:
        return [len(level) for level in self.rows]

    def dimension(self) -> int:
        """Largest dimension with at least one simplex (-1 if empty)."""
        return max((d for d, level in enumerate(self.rows) if len(level)), default=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex) and self.vertices == other.vertices
                and self.dim_cap == other.dim_cap and all(map(np.array_equal, self.rows, other.rows)))

    def __repr__(self) -> str:
        return f"SimplicialComplex(counts={self.counts()})"


#: most simplices a clique complex may have; about 27 times the 19,656 of
#: the largest complex the benchmark builds
MAX_SIMPLICES = 1 << 19

#: candidate pairs tested per step of a clique level, so a level that passes
#: ``MAX_SIMPLICES`` never holds more than one step of candidates
BLOCK_CELLS = 1 << 13


class TooManySimplices(ValueError):
    """A clique complex would pass ``MAX_SIMPLICES`` simplices up to
    dimension ``dim``, or, for a cap ``dim`` above it, as many levels."""

    def __init__(self, dim: int):
        super().__init__(
            f"the dimension cap {dim} would make more than {MAX_SIMPLICES} levels"
            if dim > MAX_SIMPLICES
            else f"the clique complex has more than {MAX_SIMPLICES} simplices up to dimension {dim}"
        )


def vietoris_rips(graph: Graph, dim_cap: int) -> SimplicialComplex:
    """Clique complex of a reflexive graph, capped at ``dim_cap``.

    k-simplices are exactly the (k+1)-cliques, grown level by level as in
    Zomorodian's inductive construction: the edges are the graph's edge keys
    split into rows, and a (d+1)-simplex is a d-simplex ``s`` plus the last
    vertex ``t`` of a later sibling (same prefix, all but the last vertex)
    adjacent to the last vertex of ``s``.  Each row's candidates ``t`` come
    in order from the shorter of its later siblings and its last vertex's
    later neighbours, and are kept when in both; so a hub's leaves are never
    paired, every clique comes out once, and each level comes out
    lexicographic, with the position of ``s`` as the new row's prefix.
    A candidate is already in the list it comes from, so one search, in one
    sorted array of the edge keys and the level's keys, tests the other.  No
    level is grown past an empty one, as every later level is empty too.

    Candidates are tested ``BLOCK_CELLS`` at a time and the simplices
    counted after each step: once the count passes ``MAX_SIMPLICES``,
    ``TooManySimplices`` names the dimension that overflows, while at most
    one step of that level exists.  A ``dim_cap`` above ``MAX_SIMPLICES`` is
    refused first: the complex holds one array per level up to its cap.
    """
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    if dim_cap > MAX_SIMPLICES:
        raise TooManySimplices(dim_cap)
    n, keys = len(graph.vertices), graph.edge_keys
    starts = np.searchsorted(keys, np.arange(n + 1) * n)  # each vertex's run of edge keys
    rows, prefixes, total = [np.arange(n).reshape(n, 1)], [], n + len(keys)
    if dim_cap and total > MAX_SIMPLICES:
        raise TooManySimplices(1)
    for d in range(1, dim_cap + 1):
        if not len(rows[-1]):
            break
        if d == 1:
            above, last = np.divmod(keys, n)
            heads = last  # each vertex's later neighbours, in its run of edge keys
        else:
            prefix, last = prefixes[-1], rows[-1][:, -1]
            siblings = np.searchsorted(prefix, prefix, side="right") - np.arange(len(prefix)) - 1
            degree = starts[last + 1] - starts[last]
            by_sibling, count = siblings <= degree, np.minimum(siblings, degree)
            first, pairs = np.cumsum(count) - count, int(count.sum())  # each row's first candidate
            # row s's j-th candidate t is pool[offset[s] + first[s] + j]; its key base[s] + t
            # is an edge key (last, t) below n * n or a level key (prefix + n) * n + t above
            pool = np.concatenate([last, heads])
            offset = np.where(by_sibling, np.arange(1, len(last) + 1), len(last) + starts[last]) - first
            base = np.where(by_sibling, last, prefix + n) * n
            known = np.concatenate([keys, (prefix + n) * n + last, [np.iinfo(np.int64).max]])
            above, new = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
            for start in range(0, pairs, BLOCK_CELLS):
                stop = min(start + BLOCK_CELLS, pairs)
                # the rows the step reaches, each once per candidate of its own in the step
                span = np.arange(*np.searchsorted(first, (start, stop - 1), side="right") - (1, 0))
                ends = np.minimum(first[span] + count[span], stop)
                s = np.repeat(span, ends - np.maximum(first[span], start))
                pair = np.arange(start, stop)
                t = pool[offset[s] + pair]
                key = base[s] + t
                hit = known[np.searchsorted(known, key)] == key
                above.append(s[hit])
                new.append(t[hit])
                total += len(above[-1])
                if total > MAX_SIMPLICES:
                    raise TooManySimplices(d)
            above, last = np.concatenate(above), np.concatenate(new)
        rows.append(np.column_stack([rows[-1][above], last]))
        prefixes.append(above)
    prefixes += [np.empty(0, np.intp)] * (dim_cap - len(prefixes))  # the levels not grown
    return SimplicialComplex(graph.vertices, rows, dim_cap, prefixes)


def subdivision_on(k: SimplicialComplex, names: Sequence[Vertex]) -> SimplicialComplex:
    """Barycentric subdivision sd(K) with ``names[i]`` as the vertex at the
    barycenter of the i-th simplex of ``k.all_simplices()``.

    d-simplices of sd(K) are chains of d+1 faces under strict inclusion.
    Each chain grows by the cofaces of its last face in face order, read
    from one face -> coface incidence array, so every level comes out
    lexicographic in the order of ``names`` without a sort.
    """
    counts = k.counts()
    total = sum(counts)
    pairs = [np.empty(0, dtype=np.intp)]  # face * total + coface, for every proper face
    for d in range(1, k.dim_cap + 1):
        whole = sum(counts[:d]) + np.arange(counts[d])
        for size in range(1, d + 1):
            for columns in combinations(range(d + 1), size):
                pairs.append(k.positions(k.rows[d][:, columns]) * total + whole)
    pairs = np.sort(np.concatenate(pairs))  # each face's cofaces in a run, in order
    cofaces, first = pairs % total, np.searchsorted(pairs, np.arange(total + 1) * total)

    chains, prefixes = [np.arange(total).reshape(-1, 1)], []
    for _ in range(k.dim_cap):
        ends = chains[-1][:, -1]
        grow = first[ends + 1] - first[ends]  # the children of each chain
        parent = np.repeat(np.arange(len(ends)), grow)
        slot = np.arange(len(parent)) + np.repeat(first[ends] - np.cumsum(grow) + grow, grow)
        chains.append(np.column_stack([chains[-1][parent], cofaces[slot]]))
        prefixes.append(parent)
    return SimplicialComplex(names, chains, k.dim_cap, prefixes)


def subdivision_counts(counts: Sequence[int]) -> list:
    """Simplex counts by dimension of sd(K) from those of K, without building it.

    A j-simplex of sd(K) is a chain of j+1 faces under strict inclusion; an
    i-simplex tops one such chain per ordered partition of its i+1 vertices
    into j+1 blocks, counted by inclusion-exclusion over empty blocks.
    """

    def ordered_partitions(n: int, blocks: int) -> int:
        return sum((-1) ** t * comb(blocks, t) * (blocks - t) ** n for t in range(blocks + 1))

    return [
        sum(f * ordered_partitions(i + 1, j + 1) for i, f in enumerate(counts))
        for j in range(len(counts))
    ]


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex map between complexes, intended to send simplices to simplices;
    ``codes[i]`` is the target vertex index of source vertex i's image."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_images: Mapping[Vertex, Vertex] = field(hash=False)
    codes: np.ndarray = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        vertices, images, index = self.source.vertices, self.vertex_images, self.target.vertex_index
        try:  # the whole map at C speed; the loop below names the first offender
            codes = np.fromiter(map(index.__getitem__, map(images.__getitem__, vertices)),
                                dtype=np.intp, count=len(vertices))
        except KeyError:
            for v in vertices:
                if v not in images:
                    raise ValueError(f"no image for source vertex {v!r}") from None
                if images[v] not in index:
                    raise ValueError(f"image {images[v]!r} is not a target vertex") from None
        object.__setattr__(self, "codes", codes)

    def __call__(self, v: Vertex) -> Vertex:
        return self.vertex_images[v]

    def image_simplex(self, simplex: Sequence[Vertex]) -> Simplex:
        """Deduplicated image of a simplex, sorted in the target's order."""
        return self.target.sort_simplex({self.vertex_images[v] for v in simplex})


def check_simplicial(m: SimplicialMap) -> bool:
    """True iff every source simplex, as a row of image codes, lands on a
    target simplex; reading every level costs less than finding the maximal
    simplices, which would suffice."""
    levels = range(m.source.dim_cap + 1)
    return all(m.target.has_simplices(m.codes[m.source.rows[d]]) for d in levels)

