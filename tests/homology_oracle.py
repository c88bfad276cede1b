"""The hand-written GF(2) eliminations that ``homology._reduce`` replaced,
kept as test oracles: the dense bitset rank, the H1 reduction context with
its own copies of the kernel, insertion and coordinate loops, and the Betti
numbers and induced map on H1 built on them.  They pivot on the lowest set
bit, so they share no convention with ``_reduce``, which pivots on the
highest.  Also the breadth-first edge-path presentation that the union-find
spanning forest replaced, and that union-find forest, which Borůvka's rounds
replaced."""

from collections import deque
from itertools import combinations

from vrclosure import GroupPresentation, InducedH1, check_simplicial


def gf2_rank_dense(columns) -> int:
    """Rank of a GF(2) matrix given as int bitset columns."""
    pivots: dict = {}
    rank = 0
    for col in columns:
        while col:
            low = col & -col
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


def boundary_columns(k, dim: int) -> list:
    """Boundary columns from the label tuples, each face looked up by value."""
    rows = {s: i for i, s in enumerate(k.simplices(dim - 1))}
    return [sum(1 << rows[face] for face in combinations(s, dim)) for s in k.simplices(dim)]


def betti_numbers(k, max_k: int) -> list:
    ranks = {0: 0}
    for d in range(1, max_k + 2):
        ranks[d] = gf2_rank_dense(boundary_columns(k, d)) if k.simplices(d) else 0
    return [len(k.simplices(i)) - ranks[i] - ranks[i + 1] for i in range(max_k + 1)]


class H1Context:
    """Boundary echelon plus the lexicographically first H1 basis."""

    def __init__(self, k):
        self.edges = k.simplices(1)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}

        vrows = {v: i for i, v in enumerate(k.vertices)}
        pivots: dict = {}
        cycles = []
        for j, (u, w) in enumerate(self.edges):
            vec = (1 << vrows[u]) | (1 << vrows[w])
            comb = 1 << j
            while vec:
                low = vec & -vec
                if low not in pivots:
                    pivots[low] = (vec, comb)
                    break
                pvec, pcomb = pivots[low]
                vec ^= pvec
                comb ^= pcomb
            else:
                cycles.append(comb)

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
        while vec:
            low = vec & -vec
            if low not in self.echelon:
                self.echelon[low] = (vec, coord)
                return True
            pvec, pcoord = self.echelon[low]
            vec ^= pvec
            coord ^= pcoord
        return False

    def coordinates(self, cycle: int) -> int:
        vec, coord = cycle, 0
        while vec:
            low = vec & -vec
            if low not in self.echelon:
                raise ValueError("chain is not a cycle of the complex")
            pvec, pcoord = self.echelon[low]
            vec ^= pvec
            coord ^= pcoord
        return coord


def induced_h1(m) -> InducedH1:
    if not check_simplicial(m):
        raise ValueError("map is not simplicial")
    src = H1Context(m.source)
    tgt = H1Context(m.target)
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
                image ^= 1 << tgt.edge_index[m.target.sort_simplex((iu, iw))]
        columns.append(tgt.coordinates(image))
    n_rows = len(tgt.h1_basis)
    matrix = tuple(tuple((col >> i) & 1 for col in columns) for i in range(n_rows))
    return InducedH1(
        matrix=matrix,
        rank=gf2_rank_dense(columns),
        source_betti1=len(src.h1_basis),
        target_betti1=n_rows,
    )


def spanning_forest(k) -> set:
    """Positions in ``k.rows[1]`` of the edges that union-find, run over the
    edges in order, joins into a spanning forest."""
    root = list(range(len(k.vertices)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    forest = set()
    for j, (u, w) in enumerate(zip(*k.rows[1].T.tolist())):
        a, b = find(u), find(w)
        if a != b:
            root[a] = b
            forest.add(j)
    return forest


def edge_path_presentation(k, base) -> GroupPresentation:
    """The presentation on a tree grown breadth-first from ``base`` in vertex
    order, from a label adjacency dict; relators looked up by edge label."""
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
