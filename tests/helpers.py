"""Small helpers shared by several test modules."""

from itertools import permutations

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
