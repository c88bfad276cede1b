"""Small helpers shared by several test modules."""

from itertools import combinations, permutations

import numpy as np

from vrclosure import flood_stages


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


def simplex_diameter(dom, simplex):
    """Largest distance between two vertices of a simplex of ``dom``."""
    return float(oracle_distances(dom.coords[list(simplex)]).max())


def oracle_max_simplex_diameter(dom):
    """The old per-simplex loop over the top-dimensional simplices."""
    top = dom.triangulation.dimension()
    if top < 1:
        return 0.0
    return max(simplex_diameter(dom, s) for s in dom.triangulation.simplices(top))
