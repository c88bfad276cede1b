"""Points of geometric realizations in barycentric coordinates.

Houses the barycentric-cover membership test, the retraction of a realization
onto its vertex set (evaluated pointwise, on a complex or on the graph whose
clique complex it is), piecewise-linear evaluation of simplicial maps, the
mesh-shrinking depth bound for barycentric subdivision, and the uniform
barycentric grid on a simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterator, Sequence

from .complex import SimplicialComplex, SimplicialMap
from .graph import Graph

Vertex = Hashable

#: tolerance for the sum-to-one invariant of barycentric coordinates
TOL_SUM = 1e-9
#: coordinates with absolute value at or below this are treated as zero
EPS_ZERO = 1e-12


@dataclass(frozen=True)
class BaryPoint:
    """A point of a realization: carrier simplex plus aligned coordinates.

    Coordinates are nonnegative and sum to one within ``TOL_SUM``.  The
    canonical form strips zero coordinates so that the carrier is the support
    simplex; constructors that need the minimal carrier call ``canonical()``.
    """

    carrier: tuple
    coords: tuple

    def __post_init__(self):
        if len(self.carrier) != len(self.coords):
            raise ValueError("carrier and coordinates have different lengths")
        if not self.carrier:
            raise ValueError("empty carrier")
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier has repeated vertices")
        if any(t < -EPS_ZERO for t in self.coords):
            raise ValueError(f"negative barycentric coordinate in {self.coords}")
        total = sum(self.coords)
        if not abs(total - 1.0) <= TOL_SUM:  # also rejects NaN and inf
            raise ValueError(f"coordinates sum to {total}, not 1")

    @classmethod
    def of_vertex(cls, v: Vertex) -> "BaryPoint":
        return cls((v,), (1.0,))

    def coordinate(self, v: Vertex) -> float:
        """Coordinate at ``v``, zero when ``v`` is outside the carrier."""
        for w, t in zip(self.carrier, self.coords):
            if w == v:
                return t
        return 0.0

    def canonical(self) -> "BaryPoint":
        """Strip zero coordinates so the carrier is the support simplex."""
        kept = [(v, t) for v, t in zip(self.carrier, self.coords) if t > EPS_ZERO]
        if len(kept) == len(self.carrier):
            return self
        return BaryPoint(tuple(v for v, _ in kept), tuple(t for _, t in kept))


def aligned(point: BaryPoint, complex_: SimplicialComplex | Graph) -> BaryPoint:
    """Reorder a point's carrier into the vertex order of a complex or graph."""
    try:
        key = [complex_.vertex_index[v] for v in point.carrier]
    except KeyError as exc:
        raise ValueError(f"carrier vertex {exc.args[0]!r} is not a vertex") from None
    if all(a < b for a, b in zip(key, key[1:])):
        return point
    pairs = sorted(zip(key, point.carrier, point.coords))
    return BaryPoint(tuple(v for _, v, _ in pairs), tuple(t for _, _, t in pairs))


def bary_cover_membership(simplex: Sequence[Vertex], point: BaryPoint, i: int) -> bool:
    """Membership of a point in the i-th piece of a simplex's barycentric cover.

    The piece around vertex ``i`` is the union of the chain subsimplices
    rooted at that vertex; a point belongs to it exactly when its coordinate
    at ``i`` is maximal, which is what the coordinate-sorting decomposition
    shows.  Comparison is exact so that tie sets reproduce the piecewise
    set differences verbatim.
    """
    simplex = tuple(simplex)
    if not 0 <= i < len(simplex):
        raise IndexError(f"piece index {i} out of range for {simplex}")
    if not set(point.carrier) <= set(simplex):
        raise ValueError(f"point with carrier {point.carrier} lies outside {simplex}")
    coords = [point.coordinate(v) for v in simplex]
    return coords[i] == max(coords)


def dominant_vertex(point: BaryPoint) -> Vertex:
    """First carrier vertex achieving the maximal coordinate.

    The carrier must already be in the owning complex's vertex order; ties
    break toward the earlier vertex, reproducing the ``A_0``-first set
    differences of the retraction's piecewise definition.
    """
    coords = point.coords
    best = max(coords)
    for v, t in zip(point.carrier, coords):
        if t == best:
            return v
    raise AssertionError("unreachable: nonempty carrier always has a maximum")


def theta_point(complex_: SimplicialComplex, point: BaryPoint) -> Vertex:
    """Retraction of a realization point onto the vertex set.

    Returns the least-index vertex of the support carrier with maximal
    coordinate; vertices are fixed.
    """
    p = aligned(point.canonical(), complex_)
    if not complex_.has_simplex(p.carrier):
        raise ValueError(f"carrier {p.carrier} is not a simplex of the complex")
    return dominant_vertex(p)


class NotAClique(ValueError):
    """A point's carrier is not a clique of the graph, so the point is not in
    the clique complex's realization."""


def theta_on_graph(graph: Graph, point: BaryPoint) -> Vertex:
    """``theta_point`` on the clique complex of ``graph``, decided on the
    graph: the support carrier is a simplex exactly when its vertices are
    pairwise adjacent, so no complex is built."""
    p = aligned(point.canonical(), graph)
    for a, b in combinations(p.carrier, 2):
        if not graph.adjacent(graph.vertex_index[a], graph.vertex_index[b]):
            raise NotAClique(f"carrier {p.carrier} is not a clique: {a!r} and {b!r} are not adjacent")
    return dominant_vertex(p)


def pl_evaluate(m: SimplicialMap, point: BaryPoint) -> BaryPoint:
    """Piecewise-linear evaluation of a simplicial map at a point.

    The image point's coordinate at a target vertex is the sum of the input
    coordinates over the source vertices mapping there.  Accumulation runs in
    source-carrier order, so evaluations of the same face point through
    different parent simplices agree bit for bit after canonicalization.
    """
    p = aligned(point, m.source)
    if not m.source.has_simplex(p.carrier):
        raise ValueError(f"carrier {p.carrier} is not a simplex of the source")
    image = m.image_simplex(p.carrier)
    if not m.target.has_simplex(image):
        raise ValueError(f"map is not simplicial on {p.carrier}: image {image} missing")
    sums: dict = {}
    for v, t in zip(p.carrier, p.coords):
        w = m.vertex_images[v]
        sums[w] = sums.get(w, 0.0) + t
    carrier = m.target.sort_simplex(sums.keys())
    out = BaryPoint(carrier, tuple(sums[w] for w in carrier))
    return out.canonical()


def subdivision_depth_for_mesh(dim: int, diameter: float, delta: float) -> int:
    """Smallest subdivision depth bringing the mesh below ``delta``.

    Uses the standard bound: one barycentric subdivision shrinks simplex
    diameters by at most ``dim / (dim + 1)``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    ratio = dim / (dim + 1)
    depth = 0
    mesh = float(diameter)
    while mesh >= delta:
        if mesh == 0.0:
            break
        depth += 1
        mesh *= ratio
        if depth > 10_000:
            raise ValueError("mesh bound does not reach delta (degenerate input)")
    return depth


def simplex_grid(dim: int, steps: int) -> Iterator[tuple]:
    """Uniform barycentric grid on the standard simplex of dimension ``dim``.

    Yields every coordinate tuple with entries ``k/steps`` summing to one,
    in lexicographic order of the integer compositions.
    """
    if steps < 1:
        raise ValueError("steps must be positive")

    def parts(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for rest in parts(remaining - head, slots - 1):
                yield (head,) + rest

    for composition in parts(steps, dim + 1):
        yield tuple(k / steps for k in composition)

