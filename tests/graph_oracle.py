"""The label-level edge-list parser, graph storage, clique enumerations and
simplex sort that the index-native graph layer replaced, kept as test
oracles: the parser converts each line's tokens on its own, the storage is
one Python set of neighbour indices per vertex, the first enumeration
intersects label-index neighbour sets for every simplex, then relabels the
levels, the second carries each simplex's set of later common neighbours
and counts the ceiling as it goes, and ``from_simplices`` sorts label
tuples by a key of vertex indices."""

from itertools import combinations

import numpy as np

from vrclosure import Graph, SimplicialComplex
from vrclosure.cli import InputError
from vrclosure.complex import MAX_SIMPLICES, TooManySimplices
from vrclosure.graph import sort_vertices


def parse_edge_list(text: str) -> Graph:
    return Graph(*parse_pairs(text))


def parse_pairs(text: str):
    """The vertices in order of first appearance and the label pairs of the
    edges, loops dropped."""
    entries = []  # (line_number, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise InputError(
                f"line {lineno}: expected 'u v' or a single vertex, got {len(tokens)} tokens"
            )
        entries.append((lineno, tokens))
    if not entries:
        raise InputError("no vertices or edges found")
    numeric = all(tok.isdigit() for _, toks in entries for tok in toks)
    convert = int if numeric else str
    vertices = []
    seen = set()
    edges = []
    for lineno, tokens in entries:
        try:
            toks = [convert(t) for t in tokens]
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad vertex token: {exc}") from exc
        for t in toks:
            if t not in seen:
                seen.add(t)
                vertices.append(t)
        if len(toks) == 2 and toks[0] != toks[1]:
            edges.append((toks[0], toks[1]))
    return vertices, edges


def neighbor_sets(n: int, ends) -> list:
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


def edge_neighbor_sets(graph: Graph) -> list:
    """Per-index neighbour sets of ``graph``, read from its label edges."""
    index = graph.vertex_index
    return neighbor_sets(len(graph.vertices), [index[v] for edge in graph.edges for v in edge])


def vietoris_rips(graph: Graph, dim_cap: int) -> SimplicialComplex:
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    verts = graph.vertices
    n = len(verts)
    nbr_after = [frozenset(j for j in s if j > i) for i, s in enumerate(edge_neighbor_sets(graph))]
    by_dim: list = [[(i,) for i in range(n)]]
    for _ in range(dim_cap):
        prev = by_dim[-1]
        nxt = []
        for s in prev:
            common = nbr_after[s[0]]
            for i in s[1:]:
                common = common & nbr_after[i]
                if not common:
                    break
            for j in sorted(common):
                nxt.append(s + (j,))
        by_dim.append(nxt)
    return SimplicialComplex(verts, by_dim, dim_cap)


def carried_vietoris_rips(graph: Graph, dim_cap: int) -> SimplicialComplex:
    """Each simplex carries the set of its later common neighbours, so a
    child costs one intersection; the carried sets of a level hold exactly
    the simplices of the next, so the ceiling is counted after each parent
    and ``TooManySimplices`` names the dimension that overflows."""
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    n = len(graph.vertices)
    later = [{j for j in s if j > i} for i, s in enumerate(edge_neighbor_sets(graph))]
    rows, prefixes = [np.arange(n).reshape(n, 1)], []
    parents = [(i, c) for i, c in enumerate(later) if c] if dim_cap else []  # (row, candidates)
    owed = n + sum(len(c) for _, c in parents)
    for d in range(1, dim_cap + 1):
        if owed > MAX_SIMPLICES:
            raise TooManySimplices(d)
        sizes, last, children = [], [], []
        for _, cand in parents:
            js = sorted(cand)
            if d < dim_cap:
                for i, j in enumerate(js, len(last)):
                    c = cand & later[j]
                    if c:
                        children.append((i, c))
                        owed += len(c)
            sizes.append(len(js))
            last += js
            if owed > MAX_SIMPLICES:
                raise TooManySimplices(d + 1)
        above = np.repeat(np.fromiter([p for p, _ in parents], np.intp, len(parents)), sizes)
        rows.append(np.column_stack([rows[-1][above], np.fromiter(last, np.intp, len(last))]))
        prefixes.append(above)
        parents = children
    return SimplicialComplex(graph.vertices, rows, dim_cap, prefixes)


def from_simplices(simplices, dim_cap, vertices=None):
    """Downward closure on label tuples, each level sorted by a key of
    vertex indices built per simplex."""
    given = [tuple(s) for s in simplices]
    verts = sort_vertices({v for s in given for v in s} if vertices is None else vertices)
    index = {v: i for i, v in enumerate(verts)}
    levels = [set() for _ in range(dim_cap + 1)]
    for v in verts:
        levels[0].add((v,))
    for s in given:
        canon = tuple(sorted(s, key=index.__getitem__))
        for k in range(1, min(len(canon), dim_cap + 1)):
            levels[k].update(combinations(canon, k + 1))
    by_dim = [sorted(tuple(index[v] for v in s) for s in level) for level in levels]
    return SimplicialComplex(verts, by_dim, dim_cap)
