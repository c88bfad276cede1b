"""Simplicial homology over GF(2): Betti numbers, Euler characteristic,
induced maps on H1, and edge-path group presentations.

Boundary matrices are stored column-wise as Python int bitsets, and every
elimination (ranks, the cycle kernel, the H1 echelon and H1 coordinates)
is one reduction by the lowest set bit against a dict of pivots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Sequence

from .complex import SimplicialComplex, SimplicialMap, check_simplicial

Vertex = Hashable


def _reduce(pivots: dict, vec: int, tag: int = 0) -> tuple:
    """Reduce ``vec`` by its lowest set bit against ``pivots``, which maps
    each lowest bit to ``(vector, tag)``, XOR-ing the tags of the pivots used.

    Returns ``(residue, tag)``: the residue is zero, or its lowest bit has no
    pivot yet and it can be stored as a new one under that bit.
    """
    while vec:
        low = vec & -vec
        if low not in pivots:
            break
        pvec, ptag = pivots[low]
        vec ^= pvec
        tag ^= ptag
    return vec, tag


def gf2_rank(columns: Sequence[int]) -> int:
    """Rank of a GF(2) matrix given as int bitset columns."""
    pivots: dict = {}
    for col in columns:
        col, _ = _reduce(pivots, col)
        if col:
            pivots[col & -col] = (col, 0)
    return len(pivots)


def boundary_columns(k: SimplicialComplex, dim: int) -> list:
    """Columns of the boundary map from ``dim``-chains, as row bitsets.

    Rows are indexed by the (dim-1)-simplices in the complex's deterministic
    order; each column has exactly ``dim + 1`` bits set.
    """
    if dim < 1:
        raise ValueError("boundary columns start at dimension 1")
    rows = {s: i for i, s in enumerate(k.simplices(dim - 1))}
    cols = []
    for s in k.simplices(dim):
        bits = 0
        for face in combinations(s, dim):
            bits |= 1 << rows[face]
        cols.append(bits)
    return cols


def betti_numbers(k: SimplicialComplex, max_k: int) -> list:
    """GF(2) Betti numbers beta_0..beta_max_k.

    Requires ``max_k < dim_cap`` so that the rank of the next boundary map is
    available.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if max_k >= k.dim_cap:
        raise ValueError(
            f"dim_cap {k.dim_cap} too small: need simplices of dimension {max_k + 1}"
        )
    ranks = {0: 0}
    for d in range(1, max_k + 2):
        ranks[d] = gf2_rank(boundary_columns(k, d)) if k.simplices(d) else 0
    return [
        len(k.simplices(i)) - ranks[i] - ranks[i + 1]
        for i in range(max_k + 1)
    ]


def euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating sum of simplex counts up to the dimension cap."""
    return sum((-1) ** d * len(k.simplices(d)) for d in range(k.dim_cap + 1))


class _H1Context:
    """Reduction state for one complex: boundary echelon plus a chosen H1 basis.

    Cycles come from the kernel of the edge boundary map, processed in edge
    order, so the homology basis is the lexicographically first set of
    surviving cycles.  Every echelon entry carries the GF(2) combination of
    homology basis elements it absorbs, which lets us read off H1 coordinates
    of an arbitrary cycle by plain reduction.
    """

    def __init__(self, k: SimplicialComplex):
        if k.dim_cap < 2:
            raise ValueError("need dim_cap >= 2 for H1")
        self.edges = k.simplices(1)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}

        # kernel of the vertex boundary: reduce edge columns, tracking the
        # combination of edges that produced each zero reduction
        vrows = {v: i for i, v in enumerate(k.vertices)}
        pivots: dict = {}
        cycles = []
        for j, (u, w) in enumerate(self.edges):
            vec, comb = _reduce(pivots, (1 << vrows[u]) | (1 << vrows[w]), 1 << j)
            if vec:
                pivots[vec & -vec] = (vec, comb)
            else:
                cycles.append(comb)

        # echelon over edge bitsets: boundaries of triangles first, then the
        # surviving cycles tagged with fresh homology coordinates
        self.echelon: dict = {}
        for s in k.simplices(2):
            bits = 0
            for face in combinations(s, 2):
                bits |= 1 << self.edge_index[face]
            self._insert(bits, 0)
        self.h1_basis = []
        for z in cycles:
            if self._insert(z, 1 << len(self.h1_basis)):
                self.h1_basis.append(z)

    def _insert(self, vec: int, coord: int) -> bool:
        vec, coord = _reduce(self.echelon, vec, coord)
        if vec:
            self.echelon[vec & -vec] = (vec, coord)
        return bool(vec)

    def coordinates(self, cycle: int) -> int:
        """H1 coordinates of an edge-bitset cycle, as a bitmask."""
        residue, coord = _reduce(self.echelon, cycle)
        if residue:
            raise ValueError("chain is not a cycle of the complex")
        return coord


@dataclass(frozen=True)
class InducedH1:
    """The induced map on H1 in the chosen bases, with its rank."""

    matrix: tuple  # rows over GF(2), one tuple of 0/1 per target basis element
    rank: int
    source_betti1: int
    target_betti1: int


def induced_h1(m: SimplicialMap) -> InducedH1:
    """Push the source H1 basis through a simplicial map and report the rank.

    Bases on both sides are the lexicographically first surviving cycles
    after reduction, so identity maps yield identity matrices and the
    construction is functorial under composition.
    """
    if not check_simplicial(m):
        raise ValueError("map is not simplicial")
    src = _H1Context(m.source)
    tgt = _H1Context(m.target)

    columns = []
    for z in src.h1_basis:
        image = 0
        bits = z
        while bits:
            low = bits & -bits
            bits ^= low
            u, w = src.edges[low.bit_length() - 1]
            iu, iw = m.vertex_images[u], m.vertex_images[w]
            if iu != iw:
                e = m.target.sort_simplex((iu, iw))
                image ^= 1 << tgt.edge_index[e]
        columns.append(tgt.coordinates(image))

    n_rows = len(tgt.h1_basis)
    matrix = tuple(
        tuple((col >> i) & 1 for col in columns) for i in range(n_rows)
    )
    return InducedH1(
        matrix=matrix,
        rank=gf2_rank(columns),
        source_betti1=len(src.h1_basis),
        target_betti1=n_rows,
    )


@dataclass(frozen=True)
class GroupPresentation:
    """Edge-path presentation of the fundamental group of a 2-skeleton.

    One generator per non-tree edge, one relator per triangle; tree edges
    contribute the empty word.  Only the abelianization's free rank is ever
    computed from it.
    """

    generators: tuple
    relators: tuple  # exponent dicts, generator index -> int

    def abelianized_rank(self) -> int:
        """Free rank of the abelianization: generators minus relator rank."""
        rows = [
            [Fraction(rel.get(j, 0)) for j in range(len(self.generators))]
            for rel in self.relators
        ]
        rank = 0
        for col in range(len(self.generators)):
            pivot_row = next(
                (i for i in range(rank, len(rows)) if rows[i][col] != 0), None
            )
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            lead = rows[rank][col]
            for i in range(len(rows)):
                if i != rank and rows[i][col] != 0:
                    factor = rows[i][col] / lead
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return len(self.generators) - rank


def edge_path_presentation(k: SimplicialComplex, base: Vertex) -> GroupPresentation:
    """Spanning-tree presentation of the edge-path group from ``base``.

    The tree is grown breadth-first in vertex order, so the presentation is
    deterministic.  Raises on disconnected 1-skeletons.
    """
    if base not in k.vertex_index:
        raise KeyError(f"unknown base vertex {base!r}")
    adjacency: dict = {v: [] for v in k.vertices}
    for u, w in k.simplices(1):
        adjacency[u].append(w)
        adjacency[w].append(u)
    for v in adjacency:
        adjacency[v].sort(key=k.vertex_index.__getitem__)

    tree: set = set()
    seen = {base}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                tree.add(k.sort_simplex((u, w)))
                queue.append(w)
    if len(seen) != len(k.vertices):
        raise ValueError("complex is not connected")

    generators = tuple(e for e in k.simplices(1) if e not in tree)
    gen_index = {e: j for j, e in enumerate(generators)}
    relators = []
    for a, b, c in k.simplices(2):
        exps: dict = {}
        for u, w, sign in ((a, b, 1), (b, c, 1), (a, c, -1)):
            j = gen_index.get((u, w))
            if j is not None:
                exps[j] = exps.get(j, 0) + sign
        relators.append({j: e for j, e in exps.items() if e != 0})
    return GroupPresentation(generators, tuple(relators))
