"""Map transformations on sampled domains: discrete modification, floods,
and the convex transformation, tied together by clique certificates.

Continuity of a sampled map cannot be decided, only certified: every
continuity hypothesis becomes a finite adjacency check on the sample net,
and failures surface the offending sample pair instead of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .complex import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    vietoris_rips,
)
from .graph import Graph
from .realization import BaryPoint, aligned, dominant_vertex

Vertex = Hashable


#: distance cells per row block in the blocked scans (2 MB of floats)
BLOCK_CELLS = 1 << 18


#: cells per row block of the nearest-sample scan (128 KB of floats); 2 MB
#: blocks ran slower and raised peak memory
NEAREST_BLOCK_CELLS = 1 << 14


def _distances_to(points: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to each coordinate row.

    Squared coordinate gaps are summed one coordinate at a time, starting
    from the first coordinate's, so the build needs one scratch array of the
    result's shape, not a (m, n, d) one.  numpy sums a last axis of up to 7
    entries in the same sequential order, so for d <= 7 coordinates the
    result equals ``sqrt(((p[:, None] - x[None]) ** 2).sum(axis=2))`` and
    each row ``norm(x - p, axis=1)`` bit for bit; from 8 on numpy sums
    pairwise and they may differ in the last bit.
    """
    columns = zip(points.T, coords.T)
    p_column, x_column = next(columns)
    total = np.subtract.outer(p_column, x_column)
    total *= total
    gap = np.empty_like(total)
    for p_column, x_column in columns:
        np.subtract.outer(p_column, x_column, out=gap)
        gap *= gap
        total += gap
    return np.sqrt(total, out=total)


class CertificateFailure(ValueError):
    """A finite continuity certificate failed; names the violating samples."""

    def __init__(self, stage: str, pair: tuple, values: tuple, detail: str = ""):
        self.stage = stage
        self.pair = pair
        self.values = values
        self.detail = detail
        message = (
            f"{stage}: samples {pair[0]} and {pair[1]} carry values "
            f"{values[0]!r} and {values[1]!r}"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class SampledDomain:
    """Finite net of a triangulated compact metric space.

    Samples are indexed 0..n-1 with embedding coordinates; the metric is the
    Euclidean (chordal) distance on the embedding.  The triangulation's
    vertices are sample indices, and ``basepoints`` is the marked subset that
    floods must preserve.
    """

    def __init__(
        self,
        coords: Sequence,
        triangulation: SimplicialComplex,
        basepoints: Sequence[int] = (),
    ):
        self.coords = np.asarray(coords, dtype=float)
        if self.coords.ndim != 2 or 0 in self.coords.shape:
            raise ValueError("coords must be a nonempty (n, d) array")
        n = len(self.coords)
        for v in triangulation.vertices:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"triangulation vertex {v!r} is not a sample index")
        self.triangulation = triangulation
        self.basepoints = tuple(sorted(set(int(b) for b in basepoints)))
        for b in self.basepoints:
            if not 0 <= b < n:
                raise ValueError(f"basepoint {b} is not a sample index")

    @property
    def n_samples(self) -> int:
        return len(self.coords)

    @cached_property
    def diameter(self) -> float:
        """Largest pairwise distance, computed once; every flood stage reads it.

        Row block ``[lo:hi]`` is built against ``coords[lo:]`` only, a scan of
        the upper triangle: d[i, j] and d[j, i] are bitwise equal, since a gap
        and its negation square to the same float.
        """
        n = self.n_samples
        step = max(1, BLOCK_CELLS // n)
        return max(
            float(_distances_to(self.coords[lo : lo + step], self.coords[lo:]).max())
            for lo in range(0, n, step)
        )

    @cached_property
    def eps_net(self) -> float:
        """Net scale: the triangulation's mesh, or 1.0 when the mesh is 0."""
        mesh = self.max_simplex_diameter()
        return mesh if mesh > 0 else 1.0

    def row_blocks(self, rows: Sequence[int] | None = None) -> Iterator[tuple]:
        """Distance rows in blocks of about ``BLOCK_CELLS`` cells, built on demand.

        Yields ``(lo, block)``: the distances from the samples
        ``rows[lo : lo + len(block)]`` (every sample when ``rows`` is None) to
        every sample.  Each block is built when the iteration reaches it.
        """
        points = self.coords if rows is None else self.coords[np.asarray(rows, dtype=np.intp)]
        step = max(1, BLOCK_CELLS // self.n_samples)
        for lo in range(0, len(points), step):
            yield lo, _distances_to(points[lo : lo + step], self.coords)

    def edge_lengths(self, edges: Sequence) -> np.ndarray:
        """Distance between the endpoints of each sample pair ``(u, w)``.

        Gaps are gathered and squared one coordinate at a time, the sum of
        ``_distances_to``, so each length equals the row entry bit for bit.
        """
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        total = np.zeros(len(pairs))
        for column in self.coords.T:
            gap = column[pairs[:, 0]] - column[pairs[:, 1]]
            total += gap * gap
        return np.sqrt(total)

    def max_simplex_diameter(self) -> float:
        """Mesh of the triangulation: its longest edge, 0.0 without edges.

        On a pure complex this is the largest top-simplex diameter; on a
        non-pure one it also sees lower-dimensional maximal simplices.
        """
        lengths = self.edge_lengths(self.triangulation.simplices(1))
        return float(lengths.max()) if lengths.size else 0.0

    def nearest_samples(self, points) -> np.ndarray:
        """Index of the nearest sample to each point, the first one on ties.

        Points go in row blocks through ``_distances_to``, so for d <= 7
        coordinates each index equals ``argmin(norm(coords - point, axis=1))``,
        ties included.
        """
        points = np.asarray(points, dtype=float)
        out = np.empty(len(points), dtype=np.intp)
        step = max(1, NEAREST_BLOCK_CELLS // self.n_samples)
        for start in range(0, len(points), step):
            block = _distances_to(points[start : start + step], self.coords)
            out[start : start + step] = np.argmin(block, axis=1)
        return out


@dataclass(frozen=True)
class DiscreteMap:
    """Vertex-valued map on the samples of a domain, with a marked base value."""

    domain: SampledDomain
    target: Graph
    values: Mapping[int, Vertex] = field(hash=False)
    base_value: Vertex = None

    def __post_init__(self):
        for i in range(self.domain.n_samples):
            if i not in self.values:
                raise ValueError(f"no value for sample {i}")
            if self.values[i] not in self.target:
                raise ValueError(f"value {self.values[i]!r} is not a vertex of the target")
        if self.base_value not in self.target:
            raise ValueError(f"base value {self.base_value!r} is not a vertex of the target")
        for b in self.domain.basepoints:
            if self.values[b] != self.base_value:
                raise ValueError(
                    f"basepoint {b} has value {self.values[b]!r}, expected {self.base_value!r}"
                )

    def __call__(self, sample: int) -> Vertex:
        return self.values[sample]

    def image_vertices(self) -> tuple:
        """Distinct values in the target graph's vertex order."""
        image = set(self.values.values())
        return tuple(v for v in self.target.vertices if v in image)

    def preimage(self, v: Vertex) -> tuple:
        return tuple(i for i in range(self.domain.n_samples) if self.values[i] == v)

    def with_values(self, new_values: Mapping[int, Vertex]) -> "DiscreteMap":
        return DiscreteMap(self.domain, self.target, dict(new_values), self.base_value)

    def to_json_dict(self) -> dict:
        return {
            "base": str(self.base_value),
            "values": {str(i): str(self.values[i]) for i in range(self.domain.n_samples)},
        }


@dataclass(frozen=True)
class CliqueCertificate:
    """Per-sample radii within which all map values are pairwise adjacent,
    plus their minimum, a Lebesgue-style number for the induced cover."""

    radii: Mapping[int, float] = field(hash=False)
    delta: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "radii": {str(i): self.radii[i] for i in sorted(self.radii)},
        }


def discrete_modify(
    sample_points: Mapping[int, BaryPoint],
    domain: SampledDomain,
    graph: Graph,
) -> DiscreteMap:
    """Compose a sampled realization-valued map with the vertex retraction.

    Every sample's image point must be carried by a clique of the graph; the
    resulting value is the least-index vertex with maximal coordinate, so
    samples already sitting on vertices keep their value.
    """
    values = {}
    for i in range(domain.n_samples):
        if i not in sample_points:
            raise ValueError(f"no image point for sample {i}")
        point = aligned(sample_points[i].canonical(), graph)
        for j, a in enumerate(point.carrier):
            for b in point.carrier[j + 1 :]:
                if not graph.are_adjacent(a, b):
                    raise ValueError(
                        f"carrier {point.carrier} of sample {i} is not a clique: "
                        f"{a!r} and {b!r} are not adjacent"
                    )
        values[i] = dominant_vertex(point)

    if domain.basepoints:
        base = values[domain.basepoints[0]]
        for b in domain.basepoints:
            if values[b] != base:
                raise ValueError(
                    f"basepoints map to different vertices: {values[b]!r} vs {base!r}"
                )
    else:
        base = values[0]
    return DiscreteMap(domain, graph, values, base)


def _flood_scan(
    f: DiscreteMap, v: Vertex, radii: Mapping[int, float] | None = None
) -> tuple:
    """One row build of the flood stage at ``v``: returns ``(radii, covered)``.

    Each block of preimage rows gives ``reach``, the distance from each row's
    sample to the nearest sample a flooding ball must not contain: one whose
    value is not adjacent to ``v``, or a basepoint when ``v`` is not the base
    value (inf when there is none).  With ``radii`` None the radii are
    maximal, ``reach`` capped at half the diameter, and the first row with
    ``reach`` 0 fails; otherwise the given radii are checked row by row in
    preimage order.  ``covered`` marks the union of the half-radius balls.
    """
    n = f.domain.n_samples
    covered = np.zeros(n, dtype=bool)
    preimage = f.preimage(v)
    if not preimage:
        return {}, covered
    closed = f.target.closed_neighborhood(v)
    avoid = np.fromiter((f.values[i] not in closed for i in range(n)), dtype=bool, count=n)
    if v != f.base_value:
        avoid[list(f.domain.basepoints)] = True
    maximal = radii is None
    if maximal:
        diameter = f.domain.diameter
        cap = diameter / 2.0 if diameter > 0 else 1.0
        radii = {}
    for lo, block in f.domain.row_blocks(preimage):
        rows = preimage[lo : lo + len(block)]
        reach = np.where(avoid, block, np.inf).min(axis=1)
        if maximal:
            failing = np.flatnonzero(reach <= 0.0)
            if failing.size:
                i = int(failing[0])
                raise _stage_failure(f, v, rows[i], block[i], None)
            r = np.minimum(reach, cap)
            radii.update(zip(rows, r.tolist()))
        else:
            r = np.empty(len(block))
            for i, y in enumerate(rows):
                if y not in radii:
                    raise ValueError(f"no radius for preimage sample {y}")
                r[i] = float(radii[y])
                if r[i] <= 0:
                    raise ValueError(f"radius for sample {y} must be positive")
                if r[i] > reach[i]:
                    raise _stage_failure(f, v, y, block[i], float(r[i]))
        covered |= (block < r[:, None] / 2.0).any(axis=0)
    return radii, covered


def _overwritten(f: DiscreteMap, v: Vertex, covered: np.ndarray) -> DiscreteMap:
    """``f`` with value ``v`` on the covered samples."""
    new_values = dict(f.values)
    for z in np.flatnonzero(covered).tolist():
        new_values[z] = v
    return f.with_values(new_values)


def _stage_failure(
    f: DiscreteMap, v: Vertex, y: int, row: np.ndarray, r: float | None
) -> CertificateFailure:
    """The failure of the flood ball of radius ``r`` around preimage sample
    ``y``, or of its coincident samples when ``r`` is None: the first sample
    inside with a value not adjacent to ``v``, else the first basepoint."""
    inside = row <= 0.0 if r is None else row < r
    closed = f.target.closed_neighborhood(v)
    stage = f"flood stage {v!r}"
    for z in np.flatnonzero(inside).tolist():
        if f.values[z] not in closed:
            detail = (
                "coincident sample with non-adjacent value"
                if r is None
                else f"value within radius {r:g} of a preimage sample is not adjacent"
            )
            return CertificateFailure(stage, (y, z), (v, f.values[z]), detail)
    a = next(b for b in f.domain.basepoints if inside[b])
    detail = (
        "preimage sample coincides with a basepoint"
        if r is None
        else "flooding ball touches a basepoint"
    )
    return CertificateFailure(stage, (y, a), (v, f.base_value), detail)


def flood(f: DiscreteMap, v: Vertex, radii: Mapping[int, float]) -> DiscreteMap:
    """Overwrite with ``v`` on the half-radius balls around its preimage.

    Each preimage sample's full-radius ball must only contain values adjacent
    to ``v``, and (when ``v`` is not the base value) must avoid every
    basepoint; violations raise ``CertificateFailure`` with the offending
    pair.  Values change only inside the union of the half-radius balls.
    """
    if v not in f.target:
        raise ValueError(f"{v!r} is not a vertex of the target")
    _, covered = _flood_scan(f, v, radii)
    return _overwritten(f, v, covered)


def flood_stage_radii(f: DiscreteMap, v: Vertex) -> dict:
    """Maximal admissible flood radii for the stage at vertex ``v``.

    For each preimage sample: the distance to the nearest sample whose value
    is not adjacent to ``v``, capped at the distance to the nearest basepoint
    (when ``v`` differs from the base value) and at half the domain diameter.
    Raises ``CertificateFailure`` when no positive radius exists.
    """
    return _flood_scan(f, v)[0]


def flood_stages(f: DiscreteMap) -> Iterator[tuple]:
    """Flood once per image vertex of ``f``, in the target's vertex order,
    with maximal radii, yielding ``(v, radii, flooded)`` after each stage.

    Each stage builds its preimage rows once, for both the radii and the
    overwrite.  A stage whose preimage earlier floods overwrote yields empty
    radii and the map unchanged.  Errors from a stage propagate with the
    stage named.
    """
    current = f
    for v in f.image_vertices():
        radii, covered = _flood_scan(current, v)
        if radii:
            current = _overwritten(current, v, covered)
        yield v, radii, current


def clique_certificate(f: DiscreteMap) -> CliqueCertificate:
    """Largest per-sample radii whose closed balls carry pairwise-adjacent values.

    Radii are drawn from the finite set of pairwise distances.  For each row
    block of distance rows, D[y, u] is the distance from sample y to
    the nearest sample carrying value u; the closed ball of radius r around
    y carries both u and w exactly when r >= max(D[y, u], D[y, w]).  The
    row's conflict level is the least such maximum over non-adjacent image
    values: walking the row's values in ascending D order, it is D of the
    first value not adjacent to an earlier one.  The radius is the largest
    row distance strictly below that level.  For k image values this takes
    O(n^2 + n k log k) numpy time, plus O(j^2) adjacency lookups per row
    where j is the rank of that first conflicting value (2 or 3 on a
    continuous map), and O(block * n) memory: each row block is built on
    demand and dropped before the next.  When even the nearest neighbors
    violate adjacency there is no positive radius and the certificate fails,
    naming the pair met first in stable distance order on the first such
    row; when no two image values are non-adjacent, the radius is the domain
    diameter.
    """
    n = f.domain.n_samples
    diameter = f.domain.diameter if n > 1 else 0.0
    fallback = diameter if diameter > 0 else 1.0
    image = f.image_vertices()
    k = len(image)
    code = {u: c for c, u in enumerate(image)}
    # adjacent image pairs a < b as sorted keys a * k + b, closed by a
    # sentinel above every key so that a lookup never runs off the end
    adjacent = np.sort(
        np.fromiter(
            (
                code[u] * k + code[w]
                for u in image
                for w in f.target.neighbors(u)
                if code.get(w, -1) > code[u]
            ),
            dtype=np.int64,
        )
    )
    adjacent = np.append(adjacent, k * k)
    below = np.full(n, fallback)
    if len(adjacent) - 1 < k * (k - 1) // 2:
        labels = np.fromiter((code[f.values[z]] for z in range(n)), dtype=np.intp, count=n)
        by_value = np.argsort(labels, kind="stable")
        class_starts = np.searchsorted(labels[by_value], np.arange(k))
        for lo, block in f.domain.row_blocks():
            nearest = np.minimum.reduceat(block[:, by_value], class_starts, axis=1)
            level = _conflict_level(nearest, adjacent, k)
            rows = slice(lo, lo + len(block))
            below[rows] = np.where(block < level[:, None], block, -np.inf).max(axis=1)
            failing = np.flatnonzero(below[rows] <= 0.0)
            if failing.size:
                i = int(failing[0])
                raise _row_failure(f, lo + i, block[i])
    radii = {y: float(r) for y, r in enumerate(below)}
    return CliqueCertificate(radii, min(radii.values()))


def _conflict_level(nearest: np.ndarray, adjacent: np.ndarray, k: int) -> np.ndarray:
    """Per row of value distances, the distance of the first value in
    ascending order that is not adjacent to an earlier one.

    ``adjacent`` holds the sorted keys a * k + b of adjacent value codes
    a < b, then a sentinel; some pair must be missing from it.  Rows leave
    the scan as soon as they conflict, so the loop runs to the largest
    conflicting rank in the block.
    """
    order = np.argsort(nearest, axis=1, kind="stable")
    reach = np.take_along_axis(nearest, order, axis=1)
    level = np.empty(len(nearest))
    rows = np.arange(len(nearest))
    for j in range(1, k):
        later = order[rows, j][:, None]
        earlier = order[rows, :j]
        key = np.minimum(earlier, later) * k + np.maximum(earlier, later)
        hit = (adjacent[np.searchsorted(adjacent, key)] != key).any(axis=1)
        level[rows[hit]] = reach[rows[hit], j]
        rows = rows[~hit]
        if not rows.size:
            break
    return level


def _row_failure(f: DiscreteMap, y: int, row: np.ndarray) -> CertificateFailure:
    """The first non-adjacent value pair met in stable distance order from
    sample ``y``, for a row that has no positive certificate radius."""
    present: dict = {}  # value -> first sample seen carrying it
    for z in np.argsort(row, kind="stable").tolist():
        vz = f.values[z]
        if vz in present:
            continue
        for u, holder in present.items():
            if not f.target.are_adjacent(vz, u):
                return CertificateFailure(
                    "clique certificate",
                    (holder, z),
                    (u, vz),
                    f"nearest neighbors of sample {y} are not adjacent",
                )
        present[vz] = z
    raise AssertionError(f"row {y} has no conflicting values")  # pragma: no cover


def convex_transform(
    f: DiscreteMap,
    triangulation: SimplicialComplex,
    cert: CliqueCertificate,
    target_complex: SimplicialComplex | None = None,
) -> SimplicialMap:
    """The simplicial map induced by a vertex-valued map on a fine triangulation.

    Every simplex must be smaller than the certificate's Lebesgue number and
    its values must form a clique; restricting ``f`` to the vertices is then
    simplicial into the clique complex, and shared faces agree exactly by
    construction.  Downward closure makes the edge-level checks cover every
    simplex, provided ``target_complex`` is the clique complex of ``f.target``
    capped at the triangulation's dimension or above, as the default is.
    """
    edges = triangulation.simplices(1)
    for (u, w), length in zip(edges, f.domain.edge_lengths(edges).tolist()):
        if length >= cert.delta:
            raise CertificateFailure(
                "convex transform",
                (u, w),
                (f.values[u], f.values[w]),
                f"edge length {length:g} is not below delta {cert.delta:g}",
            )
        if not f.target.are_adjacent(f.values[u], f.values[w]):
            raise CertificateFailure(
                "convex transform",
                (u, w),
                (f.values[u], f.values[w]),
                "triangulation edge does not map to a clique",
            )
    if target_complex is None:
        cap = max(2, triangulation.dimension())
        target_complex = vietoris_rips(f.target, cap)
    return SimplicialMap(
        triangulation,
        target_complex,
        {v: f.values[v] for v in triangulation.vertices},
    )


def subdivide_domain(domain: SampledDomain, values: Mapping[int, Vertex]) -> tuple:
    """One barycentric subdivision of a sampled domain, with extended values.

    New samples sit at the Euclidean barycenters of the faces; each inherits
    the value of the nearest pre-existing sample, the finite stand-in for
    evaluating the map at the new point.  Returns ``(new_domain, new_values,
    face_vertex)`` where ``face_vertex`` maps face tuples of the old
    triangulation to new sample indices.
    """
    sd = barycentric_subdivision(domain.triangulation)
    n = domain.n_samples
    new_faces = [face for face in sd.vertices if len(face) > 1]
    face_vertex = {face: face[0] for face in sd.vertices if len(face) == 1}
    face_vertex.update((face, n + i) for i, face in enumerate(new_faces))
    # sd lists its vertices by face size, so each size is one block of rows
    centers = [
        domain.coords[np.array(list(group))].mean(axis=1)
        for _, group in groupby(new_faces, key=len)
    ]
    coords = np.vstack([domain.coords, *centers])

    # renaming keeps sd's vertex order (singletons keep their sample index
    # below n, new faces count up from n in sd's order), so the renamed
    # chains are already sorted and each level stays lexicographic
    renamed = SimplicialComplex(
        sorted(face_vertex.values()),
        [
            [tuple(face_vertex[face] for face in chain) for chain in sd.simplices(d)]
            for d in range(sd.dim_cap + 1)
        ],
        sd.dim_cap,
    )

    new_values = dict(values)
    for idx, nearest in enumerate(domain.nearest_samples(coords[n:]).tolist(), start=n):
        new_values[idx] = values[nearest]

    new_domain = SampledDomain(coords, renamed, domain.basepoints)
    return new_domain, new_values, face_vertex
