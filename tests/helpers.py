"""Small helpers shared by several test modules."""

from itertools import chain, combinations, permutations

import numpy as np

from vrclosure import SimplicialComplex, SimplicialMap, flood_stages
from vrclosure import transform
from vrclosure.complex import subdivision_on
from vrclosure.graph import sort_vertices


def flood_all(f):
    """The map after every flood stage of ``f``."""
    return list(flood_stages(f))[-1][2]


def chain_subsimplices(simplex, i):
    """All maximal chain subsimplices of the i-th barycentric-cover piece.

    Each is the tuple of nested faces ``{v_i}, {v_i, v_a}, ...`` for one
    ordering of the remaining vertices; their realizations united give the
    piece.  Exponential in the dimension.
    """
    simplex = tuple(simplex)
    others = [v for j, v in enumerate(simplex) if j != i]
    for perm in permutations(others):
        chain = [(simplex[i],)]
        acc = [simplex[i]]
        for v in perm:
            acc.append(v)
            chain.append(tuple(sorted(acc, key=simplex.index)))
        yield tuple(chain)


def from_simplices(simplices, dim_cap, vertices=None):
    """Build the downward closure of the given simplices, capped at
    ``dim_cap``: the validating way to write a complex from arbitrary simplex
    lists, which ``SimplicialComplex`` itself trusts."""
    if dim_cap < 0:
        raise ValueError(f"dim_cap must be nonnegative, got {dim_cap}")
    given = [tuple(s) for s in simplices]
    verts = sort_vertices(set(chain.from_iterable(given)) if vertices is None else vertices)
    index = {v: i for i, v in enumerate(verts)}
    # faces are collected as sorted index tuples, whose default order is
    # the simplex order
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
    return SimplicialComplex(verts, [sorted(level) for level in levels], dim_cap)


def barycentric_subdivision(k):
    """Barycentric subdivision sd(K) whose vertices are the simplices of K
    themselves (their barycenters), so each new vertex is its own carrier."""
    return subdivision_on(k, list(k.all_simplices()))


def compose_simplicial(outer, inner):
    """The simplicial map ``outer`` after ``inner``."""
    if inner.target != outer.source:
        raise ValueError("target of inner map does not match source of outer map")
    return SimplicialMap(inner.source, outer.target, {v: outer(inner(v)) for v in inner.source.vertices})


def maximal_simplices(k):
    """Label tuples of the simplices that are a facet of no simplex one
    level up, read from ``k.facets``, top dimension first."""
    out = []
    for d in range(k.dim_cap, -1, -1):
        covered = set(k.facets(d + 1).ravel().tolist()) if d < k.dim_cap else set()
        out += [s for i, s in enumerate(k.simplices(d)) if i not in covered]
    return out


def assert_well_formed(k):
    """The well-formedness pass ``SimplicialComplex.__init__`` used to run:
    every simplex sits at its dimension, uses known vertices in strictly
    increasing order, and has all its facets one level down.  The builders
    must produce this; tests check their output with it."""
    for d in range(k.dim_cap + 1):
        for s in k.simplices(d):
            if len(s) != d + 1:
                raise ValueError(f"simplex {s} stored at dimension {d}")
            idx = [k.vertex_index.get(v) for v in s]
            if None in idx:
                raise ValueError(f"simplex {s} uses unknown vertices")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"simplex {s} is not strictly sorted")
            if d > 0:
                for face in combinations(s, d):
                    if not k.has_simplex(face):
                        raise ValueError(f"missing face {face} of {s}")


def oracle_distances(points, coords=None):
    """Distances from each point to each row of ``coords`` (default: the
    points themselves) by the broadcast formula."""
    coords = points if coords is None else coords
    diff = points[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def distances(dom):
    """The full distance matrix of a sampled domain, which the domain itself
    never builds; its row blocks equal these rows bit for bit."""
    return oracle_distances(dom.coords)


def rooted_blocks(points, targets):
    """``transform._squared_blocks(points, targets)`` rooted: ``(lo, block)``
    with the distances from ``points[lo : lo + len(block)]`` to ``targets``,
    each block a fresh array rather than the reused workspace."""
    return [(lo, np.sqrt(block)) for lo, _, block in transform._squared_blocks(points, targets)]


def simplex_diameter(dom, simplex):
    """Largest distance between two vertices of a simplex of ``dom``."""
    return float(oracle_distances(dom.coords[list(simplex)]).max())


def oracle_max_simplex_diameter(dom):
    """The old per-simplex loop over the top-dimensional simplices."""
    top = dom.triangulation.dimension()
    if top < 1:
        return 0.0
    return max(simplex_diameter(dom, s) for s in dom.triangulation.simplices(top))
