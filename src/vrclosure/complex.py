"""Simplicial complexes: clique (Vietoris-Rips) construction, barycentric
subdivision, stars, and simplicial maps.

Simplices are tuples of vertex identifiers, strictly increasing in the
complex's vertex order, grouped by dimension up to a mandatory cap.  The cap
is required because clique complexes blow up; the pipeline builds its
target up to dimension 2d+1 for a d-dimensional domain (5 on spheres).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, filterfalse, repeat
from math import comb
from typing import Hashable, Iterable, Mapping, Sequence

from .graph import Graph, sort_vertices

Vertex = Hashable
Simplex = tuple


class SimplicialComplex:
    """A finite, downward-closed family of simplices capped at ``dim_cap``.

    ``by_dim[k]`` holds the k-simplices as sorted tuples, in lexicographic
    order of vertex indices; this ordering is the deterministic simplex order
    used by boundary matrices and serialization.

    The constructor trusts its levels: each simplex must be strictly
    increasing in the vertex order, every face of a simplex must be present,
    and each level must be in that lexicographic order.  ``from_simplices``,
    ``vietoris_rips``, ``barycentric_subdivision`` and the domain builders
    build such levels; arbitrary simplex lists go through ``from_simplices``.
    """

    def __init__(self, vertices: Sequence[Vertex], by_dim: Sequence[Sequence[Simplex]], dim_cap: int):
        if dim_cap < 0:
            raise ValueError("dim_cap must be nonnegative")
        self.vertices = tuple(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.dim_cap = dim_cap
        filled = [tuple(by_dim[d]) if d < len(by_dim) else () for d in range(dim_cap + 1)]
        self._by_dim: tuple = tuple(filled)

    @cached_property
    def _sets(self) -> tuple:
        return tuple(frozenset(level) for level in self._by_dim)

    # -- queries ---------------------------------------------------

    def simplices(self, dim: int) -> tuple:
        """All simplices of the given dimension, in deterministic order."""
        if dim < 0 or dim > self.dim_cap:
            return ()
        return self._by_dim[dim]

    def all_simplices(self):
        for level in self._by_dim:
            yield from level

    def has_simplex(self, simplex: Sequence[Vertex]) -> bool:
        s = tuple(simplex)
        d = len(s) - 1
        return 0 <= d <= self.dim_cap and s in self._sets[d]

    def sort_simplex(self, vertices: Iterable[Vertex]) -> Simplex:
        """Sort distinct vertices into this complex's simplex order."""
        return tuple(sorted(vertices, key=lambda v: self.vertex_index[v]))

    def maximal_simplices(self):
        """Simplices that are a face of no other, top dimension first.

        Downward closure makes a simplex non-maximal exactly when it is a
        face of a simplex one dimension up, so each level is read once.
        """
        covered: set = set()
        for d in range(self.dim_cap, -1, -1):
            level = self._by_dim[d]
            yield from filterfalse(covered.__contains__, level)
            covered = set(chain.from_iterable(map(combinations, level, repeat(d))))

    def counts(self) -> list:
        return [len(level) for level in self._by_dim]

    def dimension(self) -> int:
        """Largest dimension with at least one simplex (-1 if empty)."""
        for d in range(self.dim_cap, -1, -1):
            if self._by_dim[d]:
                return d
        return -1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.dim_cap == other.dim_cap
            and self._by_dim == other._by_dim
        )

    def __repr__(self) -> str:
        return f"SimplicialComplex(counts={self.counts()})"

    @classmethod
    def from_simplices(
        cls,
        simplices: Iterable[Sequence[Vertex]],
        dim_cap: int,
        vertices: Iterable[Vertex] | None = None,
    ) -> "SimplicialComplex":
        """Build the downward closure of the given simplices, capped at
        ``dim_cap``; the validating entry for arbitrary simplex lists."""
        if dim_cap < 0:
            raise ValueError(f"dim_cap must be nonnegative, got {dim_cap}")
        given = [tuple(s) for s in simplices]
        if vertices is None:
            seen: set = set()
            for s in given:
                seen.update(s)
            verts = sort_vertices(seen)
        else:
            verts = sort_vertices(vertices)
        index = {v: i for i, v in enumerate(verts)}
        # faces are collected as sorted index tuples, whose default order is
        # the simplex order, and named by their vertices once at the end
        levels: list = [set() for _ in range(dim_cap + 1)]
        levels[0].update((i,) for i in range(len(verts)))
        for s in given:
            if len(set(s)) != len(s):
                raise ValueError(f"simplex {s} has repeated vertices")
            if not all(v in index for v in s):
                raise ValueError(f"simplex {s} uses vertices outside the vertex set")
            canon = sorted(map(index.__getitem__, s))
            for k in range(1, min(len(canon), dim_cap + 1)):
                levels[k].update(combinations(canon, k + 1))
        by_dim = [sorted(level) for level in levels]
        if verts != tuple(range(len(verts))):
            by_dim = [[tuple(map(verts.__getitem__, s)) for s in level] for level in by_dim]
        return cls(verts, by_dim, dim_cap)


#: most simplices a clique complex may have; about 27 times the 19,656 of
#: the largest complex the benchmark builds
MAX_SIMPLICES = 1 << 19


class TooManySimplices(ValueError):
    """A clique complex would pass ``MAX_SIMPLICES`` simplices."""

    def __init__(self, dim: int):
        super().__init__(
            f"the clique complex has more than {MAX_SIMPLICES} simplices up to dimension {dim}"
        )


def vietoris_rips(graph: Graph, dim_cap: int) -> SimplicialComplex:
    """Clique complex of a reflexive graph, capped at ``dim_cap``.

    k-simplices are exactly the (k+1)-cliques.  Enumeration runs on vertex
    indices: each simplex carries the set of its common neighbours that come
    after its last vertex, so a child costs one intersection, every clique
    is produced exactly once, and each level comes out in lexicographic
    order.  Simplices without candidates have no children and are not
    carried; the top level carries none.

    The carried sets of a level hold exactly the simplices of the next, so
    their sizes are counted as soon as they are made.  Once the count passes
    ``MAX_SIMPLICES``, checked after each parent, ``TooManySimplices`` names
    the dimension that overflows, before that level is built.
    """
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    one = [(v,) for v in graph.vertices]
    later = [{j for j in s if j > i} for i, s in enumerate(graph.index_neighbors)]
    by_dim = [one]
    parents = [(s, c) for s, c in zip(one, later) if c] if dim_cap else []
    owed = len(one) + sum(len(c) for _, c in parents)
    for d in range(1, dim_cap + 1):
        if owed > MAX_SIMPLICES:
            raise TooManySimplices(d)
        level: list = []
        children: list = []
        for s, cand in parents:
            for j in sorted(cand):
                t = s + one[j]
                level.append(t)
                if d < dim_cap:
                    c = cand & later[j]
                    if c:
                        children.append((t, c))
                        owed += len(c)
            if owed > MAX_SIMPLICES:
                raise TooManySimplices(d + 1)
        by_dim.append(level)
        parents = children
    return SimplicialComplex(graph.vertices, by_dim, dim_cap)


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision sd(K) whose vertices are the simplices of K
    themselves (their barycenters), so each new vertex is its own carrier."""
    return subdivision_on(k, list(k.all_simplices()))


def subdivision_on(k: SimplicialComplex, names: Sequence[Vertex]) -> SimplicialComplex:
    """Barycentric subdivision sd(K) with ``names[i]`` as the vertex at the
    barycenter of the i-th simplex of ``k.all_simplices()``.

    d-simplices of sd(K) are chains of d+1 faces under strict inclusion.
    ``all_simplices()`` lists faces by size, then lexicographically, and each
    chain grows by the cofaces of its last face in that order, so every level
    comes out lexicographic in the order of ``names`` without a sort.
    """
    faces = list(k.all_simplices())
    name_of = dict(zip(faces, names))
    cofaces: dict = {name: [] for name in names}  # strict cofaces, in face order
    for s in faces:
        for size in range(1, len(s)):
            for face in combinations(s, size):
                cofaces[name_of[face]].append(name_of[s])

    by_dim: list = [[(name,) for name in names]]
    for _ in range(k.dim_cap):
        by_dim.append([chain + (big,) for chain in by_dim[-1] for big in cofaces[chain[-1]]])
    return SimplicialComplex(names, by_dim, k.dim_cap)


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


def closed_star(k: SimplicialComplex, v: Vertex) -> frozenset:
    """All simplices containing ``v`` plus their faces.

    This is the combinatorial support of the minimal neighborhood of a vertex
    in the coarsened realization of a clique complex.
    """
    if v not in k.vertex_index:
        raise KeyError(f"unknown vertex {v!r}")
    out: set = set()
    for s in k.all_simplices():
        if v in s:
            for size in range(1, len(s) + 1):
                out.update(combinations(s, size))
    return frozenset(out)


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex map between complexes, intended to send simplices to simplices."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_images: Mapping[Vertex, Vertex] = field(hash=False)

    def __post_init__(self):
        vertices, images = self.source.vertices, self.vertex_images
        is_vertex = self.target.vertex_index.__contains__
        # the whole map at C speed; the loop below only names the first offender
        if not (all(map(images.__contains__, vertices))
                and all(map(is_vertex, map(images.__getitem__, vertices)))):
            for v in vertices:
                if v not in images:
                    raise ValueError(f"no image for source vertex {v!r}")
                if images[v] not in self.target.vertex_index:
                    raise ValueError(f"image {images[v]!r} is not a target vertex")

    def __call__(self, v: Vertex) -> Vertex:
        return self.vertex_images[v]

    def image_simplex(self, simplex: Sequence[Vertex]) -> Simplex:
        """Deduplicated image of a simplex, sorted in the target's order."""
        return self.target.sort_simplex({self.vertex_images[v] for v in simplex})


def check_simplicial(m: SimplicialMap) -> bool:
    """True iff every source simplex lands on a target simplex.  Many
    simplices share an image, so each distinct image is looked up once;
    checking every simplex costs less than finding the maximal ones, which
    would suffice since the target is downward closed."""
    image = m.vertex_images.__getitem__
    images = set(map(frozenset, map(map, repeat(image), m.source.all_simplices())))
    return all(m.target.has_simplex(m.target.sort_simplex(s)) for s in images)


def compose_simplicial(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    if inner.target != outer.source:
        raise ValueError("target of inner map does not match source of outer map")
    return SimplicialMap(
        inner.source,
        outer.target,
        {v: outer(inner(v)) for v in inner.source.vertices},
    )


def check_star_condition(f_sample: Mapping, phi: SimplicialMap) -> bool:
    """Star condition for a sampled map against a candidate simplicial map.

    ``f_sample`` assigns each source vertex a point of the target realization.
    The condition holds iff every vertex's image under ``phi`` is a vertex of
    the carrier of the sampled point: being a vertex of the minimal simplex
    containing the point is equivalent to lying in every simplex whose
    realization contains it.
    """
    from .realization import aligned  # local import to avoid a cycle

    for x in phi.source.vertices:
        point = aligned(f_sample[x].canonical(), phi.target)
        if not phi.target.has_simplex(point.carrier):
            raise ValueError(
                f"malformed barycentric point for {x!r}: carrier {point.carrier} "
                "is not a simplex of the target"
            )
        if phi(x) not in point.carrier:
            return False
    return True
