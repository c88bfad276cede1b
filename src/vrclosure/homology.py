"""Simplicial homology over GF(2): Betti numbers, Euler characteristic,
induced maps on H1, and edge-path group presentations.

Chains are Python int bitsets, and every elimination (coboundary ranks, the
cycle kernel, the H1 echelon and H1 coordinates) is one reduction by the
highest set bit against a dict of pivots keyed by ``bit_length()``,
``_reduce``: each step is one XOR and one lookup under a small int, with no
big-int negation or mask.  Pivoting from the top, as Ripser's coboundary
reduction does, keeps dense flag complexes short in their own vertex order.
No column whose fate is known in advance is reduced:

* beta_0 and the rank of the edge boundary come from a spanning forest
  found by Borůvka's rounds in numpy, the same forest that union-find joins
  in edge order, with no elimination at all;
* the higher ranks come from coboundaries in increasing dimension, whose
  columns are built only where the forest or the previous level's pivots do
  not prove them dependent (clearing, as in Chen and Kerber's twist and in
  Ripser), and reduced from the highest position down;
* the H1 basis is collected only until beta_1 cycles have survived.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

import numpy as np

from .complex import SimplicialComplex, SimplicialMap, check_simplicial

Vertex = Hashable


def _reduce(pivots: dict, vec: int, tag: int = 0) -> tuple:
    """Reduce ``vec`` by its highest set bit against ``pivots``, which maps
    each ``bit_length()`` to ``(vector, tag)``, XOR-ing the tags of the pivots
    used.

    Returns ``(residue, tag)``: the residue is zero, or its ``bit_length()``
    has no pivot yet and it can be stored as a new one under that key.
    """
    while vec:
        top = vec.bit_length()
        if top not in pivots:
            break
        pvec, ptag = pivots[top]
        vec ^= pvec
        tag ^= ptag
    return vec, tag


def _echelon(columns: Iterable[int]) -> dict:
    """Reduce the int bitset columns in order; returns the pivots dict, one
    entry per independent column, keyed by the ``bit_length()`` of its
    reduction."""
    pivots: dict = {}
    for col in columns:
        col, _ = _reduce(pivots, col)
        if col:
            pivots[col.bit_length()] = (col, 0)
    return pivots


def gf2_rank(columns: Sequence[int]) -> int:
    """Rank of a GF(2) matrix given as int bitset columns."""
    return len(_echelon(columns))


def boundary_columns(k: SimplicialComplex, dim: int) -> list:
    """Columns of the boundary map from ``dim``-chains, as row bitsets.

    Rows are indexed by the (dim-1)-simplices in the complex's deterministic
    order; each column has exactly ``dim + 1`` bits set.
    """
    if dim < 1:
        raise ValueError("boundary columns start at dimension 1")
    return [sum(map((1).__lshift__, row)) for row in zip(*k.facets(dim).T.tolist())]


def _spanning_forest(k: SimplicialComplex) -> np.ndarray:
    """Mask over ``k.rows[1]`` of the spanning forest that union-find, run
    over the edges in order, joins: the minimum spanning forest under
    position weights, unique as they are distinct.  Its size is the rank of
    the edge boundary map.

    Borůvka's rounds find it in a fixed number of numpy passes a round:
    every component takes its least edge to another and hooks onto the
    component at its other end, a pair that took the same edge is rooted at
    its smaller component, and pointer jumping relabels the merged
    components.  Each round at least halves the components with edges left."""
    u, w = k.rows[1].T
    forest = np.zeros(len(u), dtype=bool)
    live = np.arange(len(u))
    while True:
        keep = u != w
        live, u, w = live[keep], u[keep], w[keep]
        if not len(live):
            return forest
        # (component, slot) keys for both ends of each live edge, slots in
        # edge order: sorted, each component's least edge comes first
        at = np.arange(len(live))
        keys = np.concatenate([u * len(live) + at, w * len(live) + at])
        keys.sort()
        comp = keys // len(live)
        comp, at = np.divmod(keys[np.concatenate([[True], comp[1:] != comp[:-1]])], len(live))
        forest[live[at]] = True
        root = np.arange(len(k.vertices))
        root[comp] = u[at] + w[at] - comp
        # the minimum with the grandparent roots each pair that shares an
        # edge at its smaller component and moves every other pointer up
        root = np.minimum(root, root[root])
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        u, w = root[u], root[w]


#: incidences gathered per step of a coboundary build
_INCIDENCE_BLOCK = 1 << 12


def _coboundary_rank(k: SimplicialComplex, d: int, cleared: np.ndarray) -> tuple:
    """Rank of the coboundary from d- to (d+1)-cochains, building and
    reducing only the columns (d-simplex positions) outside the ``cleared``
    mask, from the highest position down.  Only the incidences of
    ``k.facets(d + 1)`` on uncleared faces are read, ``_INCIDENCE_BLOCK``
    at a time, so no cleared column is built.

    Returns ``(rank, pivots)``, the pivots being a mask over the
    (d+1)-simplices that are the highest bits of the reduced columns.
    """
    cofaces = k.facets(d + 1)
    pivots = np.zeros(len(cofaces), dtype=bool)
    if not len(cofaces):
        return 0, pivots
    slot = np.cumsum(~cleared) - 1  # each uncleared column's place in ``columns``
    columns = [0] * (slot[-1] + 1)
    step = max(1, _INCIDENCE_BLOCK // (d + 2))
    for start in range(0, len(cofaces), step):
        block = cofaces[start : start + step]
        coface, at = np.nonzero(~cleared[block])
        for j, i in zip(slot[block[coface, at]].tolist(), (coface + start).tolist()):
            columns[j] |= 1 << i
    # popped from the highest down, so a column reduced to zero is freed at once
    tops = _echelon(columns.pop() for _ in range(len(columns)))
    pivots[np.fromiter(tops, dtype=np.intp, count=len(tops)) - 1] = True
    return len(tops), pivots


def betti_numbers(k: SimplicialComplex, max_k: int) -> list:
    """GF(2) Betti numbers beta_0..beta_max_k.

    Requires ``max_k < dim_cap`` so that the rank of the next boundary map is
    available.  With D_i the boundary map from i-chains, beta_i = n_i -
    rank D_i - rank D_{i+1}, where rank D_0 = 0 and rank D_1 is the size of a
    spanning forest F, found by Borůvka's rounds (the forest union-find joins
    in edge order).  For d >= 1, rank D_{d+1} is the rank of the
    coboundary delta_d, whose columns are the d-simplices and whose rows the
    (d+1)-simplices.  A column known to lie in the span of the
    others is skipped (cleared), which leaves the rank unchanged:

    * d = 1, the tree edges.  Removing a tree edge t splits its tree into
      sides A and B.  The edges across that cut are t and non-tree edges, and
      their sum is the coboundary of A's indicator, so delta_1 t is the sum
      of delta_1 of those non-tree edges.
    * d >= 2, the pivots of delta_{d-1}.  A reduced column of delta_{d-1} is
      a coboundary r whose highest bit is a d-simplex tau, so delta_d r = 0
      writes delta_d tau as a sum of columns with smaller index.  Taken from
      the smallest up, every cleared column is a sum of uncleared ones.

    Neither argument depends on the order in which the columns of
    delta_{d-1} were processed, only on each pivot being the highest bit of
    a reduced column; the pivots are even the same set in any order, the
    highest bits of an echelon basis of the columns' span.  So each level
    reduces its uncleared columns from the highest position down.

    A level without (d+1)-simplices has rank 0 and clears nothing above it.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if max_k >= k.dim_cap:
        raise ValueError(
            f"dim_cap {k.dim_cap} too small: need simplices of dimension {max_k + 1}"
        )
    cleared = _spanning_forest(k)
    ranks = [0, int(cleared.sum())]
    for d in range(1, max_k + 1):
        rank, cleared = _coboundary_rank(k, d, cleared)
        ranks.append(rank)
    return [count - ranks[i] - ranks[i + 1] for i, count in enumerate(k.counts()[: max_k + 1])]


def euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating sum of simplex counts up to the dimension cap."""
    return sum((-1) ** d * count for d, count in enumerate(k.counts()))


class _H1Context:
    """Reduction state for one complex: boundary echelon plus a chosen H1 basis.

    The triangle boundaries go into the echelon first, so its size is the
    rank of the triangle boundary map D_2, and beta_1 = |E| - |F| - rank D_2
    is known before any cycle is seen (F a spanning forest).  Cycles then come from the kernel of the edge
    boundary map, in edge order, and are inserted with fresh homology
    coordinates until beta_1 of them have survived, so the basis is the
    lexicographically first set of surviving cycles.  Stopping there loses
    nothing: boundaries and survivors then span Z1, so every later cycle would
    reduce to zero and store nothing.  With beta_1 = 0 the kernel loop never
    runs.  Every echelon entry carries the GF(2) combination of basis elements
    it absorbs, which lets us read off H1 coordinates of an arbitrary cycle by
    plain reduction.
    """

    def __init__(self, k: SimplicialComplex):
        if k.dim_cap < 2:
            raise ValueError("need dim_cap >= 2 for H1")
        self.echelon: dict = {}
        for a, b, c in zip(*k.facets(2).T.tolist()):
            self._insert((1 << a) | (1 << b) | (1 << c), 0)
        need = len(k.rows[1]) - int(_spanning_forest(k).sum()) - len(self.echelon)
        self.h1_basis = []
        cycles = self._edge_cycles(k)
        while len(self.h1_basis) < need:
            z = next(cycles)
            if self._insert(z, 1 << len(self.h1_basis)):
                self.h1_basis.append(z)

    def _edge_cycles(self, k: SimplicialComplex):
        """Kernel of the vertex boundary, lazily: reduce the edge columns in
        order and yield the combination of edges behind each zero reduction."""
        pivots: dict = {}
        for j, (u, w) in enumerate(zip(*k.rows[1].T.tolist())):
            vec, comb = _reduce(pivots, (1 << u) | (1 << w), 1 << j)
            if vec:
                pivots[vec.bit_length()] = (vec, comb)
            else:
                yield comb

    def _insert(self, vec: int, coord: int) -> bool:
        vec, coord = _reduce(self.echelon, vec, coord)
        if vec:
            self.echelon[vec.bit_length()] = (vec, coord)
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

    # the target edge under each source edge, negative where it collapses to a vertex
    ends = np.sort(m.codes[m.source.rows[1]], axis=1)
    image_edge = (m.target.positions(ends) - len(m.target.rows[0])).tolist()
    columns = []
    for z in src.h1_basis:
        image = 0
        bits = z
        while bits:
            low = bits & -bits
            bits ^= low
            e = image_edge[low.bit_length() - 1]
            if e >= 0:
                image ^= 1 << e
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

    The tree is the Borůvka forest that ``betti_numbers`` reads, the forest
    union-find joins in edge order, and the generators are the other edges
    in order, so the presentation is deterministic; on a connected complex
    it presents the same group from every base.  Raises on disconnected 1-skeletons.
    """
    if base not in k.vertex_index:
        raise KeyError(f"unknown base vertex {base!r}")
    tree = _spanning_forest(k) if k.dim_cap else np.zeros(0, dtype=bool)
    if tree.sum() != len(k.vertices) - 1:
        raise ValueError("complex is not connected")
    edges = k.simplices(1)
    generator = {j: i for i, j in enumerate(np.flatnonzero(~tree).tolist())}
    # triangle abc's facets are bc, ac, ab; its boundary word is ab + bc - ac
    triangles = k.facets(2).tolist() if k.dim_cap > 1 else ()
    relators = tuple({generator[j]: sign for j, sign in ((ab, 1), (bc, 1), (ac, -1)) if j in generator}
                     for bc, ac, ab in triangles)
    return GroupPresentation(tuple(map(edges.__getitem__, generator)), relators)
