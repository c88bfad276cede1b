"""Map transformations on sampled domains: discrete modification, floods,
and the convex transformation, tied together by clique certificates.

Continuity of a sampled map cannot be decided, only certified: every
continuity hypothesis becomes a finite adjacency check on the sample net,
and failures surface the offending sample pair instead of a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product, repeat
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .complex import (
    SimplicialComplex,
    SimplicialMap,
    subdivision_counts,
    subdivision_on,
)
from .graph import Graph
from .realization import BaryPoint, NotAClique, theta_on_graph

Vertex = Hashable


#: distance cells per row block in every blocked scan: 256 KB of floats.  A
#: scan reuses one workspace of two blocks, the squared sum and its scratch,
#: which stays within a 2 MB per-core L2 cache (2 MB blocks ran the scans at
#: memory speed, about twice as slow) and spares a one-shot process the page
#: faults of fresh blocks.  The certificate's near pairs come half a block at
#: a time, since about eight arrays hold one entry per pair (the rare rows it
#: scans in full, a whole block).  No cell and no row's min or max depends on
#: the block bounds
BLOCK_CELLS = 1 << 15


#: most samples a pipeline domain may have, as given or after its chosen
#: subdivision depth.  It keeps the largest measured domain (sphere2:icosa:5,
#: 10,242 samples) and icosa:4 refined once (15,362).  The diameter reads two
#: rows and the reflected pairs, and a flood block only the columns it can
#: reach, but both stay quadratic at worst (no far pairs, balls as wide as
#: the domain), as does a subdivision's nearest-sample search: 2.7e8
#: distances at this size
MAX_SAMPLES = 1 << 14


#: most blocks of ``BLOCK_CELLS`` cells that a scan reads whole.  The
#: diameter's scan is the upper triangle, n(n + 1) / 2 cells; past this it
#: reads the reflected pairs, whose fixed cost of about 0.3 ms makes them
#: slower on circle:256 and faster on circle:512.  A flood stage's scan is
#: its preimage rows by the samples of other values; past this it prunes
#: its columns, which on the icosa:3 stages, of two blocks at most, prunes
#: little and ran no faster
WHOLE_SCAN_BLOCKS = 2


#: columns per chunk of a pruned flood stage, each chunk with one bounding
#: box: on icosa:5 the stages ran fastest with 16 (of 8, 16, 32, 64 and the
#: square root of the column count)
CHUNK_COLUMNS = 16


def _squared_distances_to(
    points: np.ndarray, columns: np.ndarray, out: np.ndarray, gap: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distance from each point to each target, into ``out``.

    ``columns`` holds the targets' coordinates transposed, one row per
    coordinate, and ``gap`` is scratch of ``out``'s shape.  Squared gaps are
    summed one coordinate at a time, starting from the first coordinate's.
    numpy sums a last axis of up to 7 entries in the same sequential order,
    so for d <= 7 coordinates the root of each cell equals
    ``sqrt(((p[:, None] - x[None]) ** 2).sum(axis=2))`` and each row
    ``norm(x - p, axis=1)`` bit for bit; from 8 on numpy sums pairwise and
    they may differ in the last bit.
    """
    pairs = zip(points.T, columns)
    p_column, x_column = next(pairs)
    np.subtract.outer(p_column, x_column, out=out)
    out *= out
    for p_column, x_column in pairs:
        np.subtract.outer(p_column, x_column, out=gap)
        gap *= gap
        out += gap
    return out


def _block_rows(columns: int) -> int:
    """Rows per block of a scan over ``columns`` targets: ``BLOCK_CELLS``
    cells, at least one row."""
    return max(1, BLOCK_CELLS // max(1, columns))


def _squared_blocks(
    points: np.ndarray, targets: np.ndarray, keeps: Iterator | None = None
) -> Iterator[tuple]:
    """Yields ``(lo, keep, block)``: the squared distances from the rows
    ``points[lo : lo + len(block)]`` to ``targets[keep]``, in blocks of
    ``_block_rows(len(targets))`` rows.  ``keeps`` gives each block's
    ``keep``, a slice or an index array, all targets when None.  Every block
    is a view into one workspace that the next one overwrites.
    """
    columns = np.ascontiguousarray(targets.T)
    step = _block_rows(len(targets))
    work = np.empty((2, min(step, len(points)) * len(targets)))
    for lo, keep in zip(range(0, len(points), step), repeat(slice(None)) if keeps is None else keeps):
        rows = points[lo : lo + step]
        reached = columns[:, keep] if isinstance(keep, slice) else np.take(columns, keep, axis=1)
        shape = len(rows), reached.shape[1]
        out, gap = work[:, : shape[0] * shape[1]].reshape(2, *shape)
        yield lo, keep, _squared_distances_to(rows, reached, out, gap)


def _squared_row(coords: np.ndarray, y: int) -> np.ndarray:
    """The squared distances from sample ``y`` to every sample, in sample
    order."""
    return next(_squared_blocks(coords[y : y + 1], coords))[2][0]


def _distance_row(coords: np.ndarray, y: int) -> np.ndarray:
    """The distances from sample ``y`` to every sample, rooted and in sample
    order: the row a failure rebuilds to name its offender."""
    return np.sqrt(_squared_row(coords, y))


def _nearest_targets(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest target to each point, the first one on ties; the
    argmin reads roots, since distinct squares can share a root."""
    out = np.empty(len(points), dtype=np.intp)
    for lo, _, block in _squared_blocks(points, targets):
        out[lo : lo + len(block)] = np.argmin(np.sqrt(block, out=block), axis=1)
    return out


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

    def to_json_dict(self) -> dict:
        values = [str(v) for v in self.values]
        return {"stage": self.stage, "pair": list(self.pair), "values": values, "detail": self.detail}


class TooManySamples(ValueError):
    """A domain would pass ``MAX_SAMPLES`` samples."""


def check_sample_budget(counts: Sequence[int], rounds: int = 0) -> None:
    """Refuse simplex ``counts`` of more than ``MAX_SAMPLES`` samples, as given
    or after ``rounds`` barycentric subdivisions, from the counts alone; a
    domain with an edge at least doubles per round, so a huge ``rounds`` is
    refused within a few."""
    for _ in range(rounds):
        if counts[0] > MAX_SAMPLES:
            break
        counts = subdivision_counts(counts)
    if counts[0] > MAX_SAMPLES:
        suffix = f" after {rounds} subdivision rounds" if rounds else ""
        raise TooManySamples(f"more than {MAX_SAMPLES} samples{suffix}")


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
        """Largest pairwise distance, computed once; every flood stage reads
        it, and the clique certificate only on a domain whose every sample
        lies within the mesh of sample 0.  It is the root of the largest
        square of the kernel: IEEE ``sqrt`` is correctly rounded, so it
        never decreases and the root of the largest square is the largest
        root.  d[i, j] and d[j, i] are bitwise equal, since a gap and its
        negation square to the same float.

        A domain whose upper triangle is at most ``WHOLE_SCAN_BLOCKS``
        blocks of cells, or whose coordinates are not finite and moderate,
        is scanned over the upper triangle.  Any other reads the pairs that
        can beat a lower bound L, the largest square in the rows of sample 0
        and of its farthest sample.  With c the centre of the bounding box, R = max |p - c| and
        p' = 2c - p, the parallelogram law gives
        |q - p'|^2 = 2|p - c|^2 + 2|q - c|^2 - |p - q|^2 <= 4R^2 - |p - q|^2,
        so a pair farther apart than L has q within sqrt(4R^2 - L^2) of p'.
        Those q come from the grid of ``_Grid`` around each p'; on a
        centrally symmetric domain about one per sample.  The radius is
        widened by a relative slack of (d + 4) * 2**-50 on R^2 and L^2,
        several times their rounding and the kernel's, and by 2**-40 of the
        largest coordinate, about 2**10 times the rounding of c, p' and the
        cells.  An extra candidate only adds a true pair's square, so the
        maximum is that of the full scan.
        """
        coords = self.coords
        n = len(coords)
        if n * (n + 1) // 2 > WHOLE_SCAN_BLOCKS * BLOCK_CELLS:
            low, high = coords.min(axis=0), coords.max(axis=0)
            scale = float(np.abs([low, high]).max())
            if 2.0**-400 < scale < 2.0**400:  # NaN fails too
                return _reflected_diameter(coords, low, high, scale)
        upper = (slice(lo, None) for lo in range(0, n, _block_rows(n)))
        blocks = _squared_blocks(coords, coords, upper)
        return math.sqrt(max(float(block.max()) for _, _, block in blocks))

    @cached_property
    def spatial_order(self) -> np.ndarray:
        """The samples along a Z-order (Morton) curve through 2**10 levels a
        side of their first three coordinates, ties in sample order: runs of
        it lie close together at every scale, so a flood block's bounding
        box stays small (``_flood_scan``)."""
        g = min(3, self.coords.shape[1])
        x = self.coords[:, :g]
        low, extent = x.min(axis=0), np.ptp(x, axis=0)
        with np.errstate(invalid="ignore"):  # a NaN coordinate orders anywhere
            level = np.nan_to_num((x - low) / np.where(extent > 0, extent, 1.0) * 1023.0)
            level = level.astype(np.int64)
        code = np.zeros(len(x), dtype=np.int64)
        for bit in range(10):
            for k in range(g):
                code |= ((level[:, k] >> bit) & 1) << (g * bit + k)
        return np.argsort(code, kind="stable")

    @cached_property
    def eps_net(self) -> float:
        """Net scale: the triangulation's mesh, or 1.0 when the mesh is 0."""
        mesh = self.max_simplex_diameter()
        return mesh if mesh > 0 else 1.0

    def edge_lengths(self, edges: Sequence) -> np.ndarray:
        """Distance between the endpoints of each sample pair ``(u, w)``.

        Gaps are gathered and squared one coordinate at a time, the sum of
        ``_squared_distances_to``, so each length equals the row entry bit
        for bit.
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
        non-pure one it also sees lower-dimensional maximal simplices.  It
        is computed once per domain.
        """
        return self._mesh

    @cached_property
    def _mesh(self) -> float:
        samples = np.asarray(self.triangulation.vertices, dtype=np.intp)
        lengths = self.edge_lengths(samples[self.triangulation.rows[1]])
        return float(lengths.max()) if lengths.size else 0.0


def _reflected_diameter(coords: np.ndarray, low: np.ndarray, high: np.ndarray,
                        scale: float) -> float:
    """The diameter of samples in the box ``[low, high]`` whose largest
    coordinate magnitude is ``scale``, from the pairs that can beat the
    double sweep's lower bound (``SampledDomain.diameter``)."""
    d = coords.shape[1]
    row = _squared_row(coords, 0)
    far = int(row.argmax())
    lower = max(float(row.max()), float(_squared_row(coords, far).max()))
    centre = (low + high) / 2.0
    offset = coords - centre
    slack = (d + 4) * 2.0**-50
    spread = 4.0 * float(np.einsum("ij,ij->i", offset, offset).max()) * (1.0 + slack)
    reach = math.sqrt(max(spread - lower * (1.0 - slack), 0.0)) * (1.0 + slack)
    reach += 2.0**-40 * math.sqrt(d) * scale
    # cells of at least 2**-20 of the extent, so no cell index is clamped
    grid = _Grid(coords, max(reach, float((high - low)[:3].max()) * 2.0**-20))
    # each sorted sample's candidates lie around its reflection; emptying
    # each block frees it before the next is built
    for block in grid.pairs(*grid.runs(grid.keys(2.0 * centre - grid.points.T))):
        lower = max(lower, float(block.pop().max(initial=0.0)))
        block.clear()
    return math.sqrt(lower)


class DiscreteMap:
    """Vertex-valued map on the samples of a domain, with a marked base value.

    The values are held once, as ``codes``: an int array of target vertex
    indices, one per sample, checked where the map is built.  ``values`` is
    the label view ``{sample: vertex}``, built on first read; a value equal
    to a vertex but another object (``1.0`` for the vertex ``1``) reads back
    as the graph's own label, and so does ``base_value``.
    """

    def __init__(
        self, domain: SampledDomain, target: Graph, values: Mapping[int, Vertex], base_value: Vertex
    ):
        samples, index = range(domain.n_samples), target.vertex_index
        try:
            codes = np.fromiter(map(index.__getitem__, map(values.__getitem__, samples)),
                                dtype=np.intp, count=len(samples))
        except KeyError:
            # the whole map at C speed; this loop only names the first offender
            for i in samples:
                if i not in values:
                    raise ValueError(f"no value for sample {i}") from None
                if values[i] not in target:
                    raise ValueError(f"value {values[i]!r} is not a vertex of the target") from None
        if base_value not in target:
            raise ValueError(f"base value {base_value!r} is not a vertex of the target")
        base = index[base_value]
        for b in domain.basepoints:
            if codes[b] != base:
                raise ValueError(
                    f"basepoint {b} has value {values[b]!r}, expected {base_value!r}"
                )
        self.domain, self.target, self.codes, self.base_code = domain, target, codes, base

    @classmethod
    def _of(cls, domain: SampledDomain, target: Graph, codes: np.ndarray, base: int):
        """The map with vertex indices ``codes`` and base vertex index ``base``,
        which the caller has checked."""
        f = cls.__new__(cls)
        f.domain, f.target, f.codes, f.base_code = domain, target, codes, base
        return f

    @property
    def base_value(self) -> Vertex:
        return self.target.vertices[self.base_code]

    @cached_property
    def values(self) -> dict:
        return dict(enumerate(map(self.target.vertices.__getitem__, self.codes.tolist())))

    def __call__(self, sample: int) -> Vertex:
        return self.target.vertices[self.codes[sample]]

    def image_codes(self) -> np.ndarray:
        """Indices of the distinct values, ascending: the target's vertex order."""
        return np.flatnonzero(np.bincount(self.codes, minlength=len(self.target.vertices)))

    def image_vertices(self) -> tuple:
        """Distinct values in the target graph's vertex order."""
        return tuple(map(self.target.vertices.__getitem__, self.image_codes().tolist()))

    def preimage(self, v: Vertex) -> tuple:
        return tuple(np.flatnonzero(self.codes == self.target.vertex_index.get(v, -1)).tolist())


@dataclass(frozen=True)
class CliqueCertificate:
    """Per-sample radii within which all map values are pairwise adjacent,
    plus their minimum, a Lebesgue-style number for the induced cover."""

    radii: Mapping[int, float] = field(hash=False)
    delta: float = 0.0

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "radii": {str(i): r for i, r in self.radii.items()}}


def discrete_modify(
    sample_points: Mapping[int, BaryPoint],
    domain: SampledDomain,
    graph: Graph,
) -> DiscreteMap:
    """Compose a sampled realization-valued map with the vertex retraction.

    Every sample's image point must be carried by a clique of the graph
    (``NotAClique`` otherwise, naming the first such sample); each distinct
    point object is retracted once, to its least-index vertex of maximal
    coordinate, so samples already sitting on vertices keep their value.
    """
    index = graph.vertex_index
    codes = []
    retracted: dict = {}  # id(point) -> (point, vertex index); the point keeps its id unique
    for i in range(domain.n_samples):
        if i not in sample_points:
            raise ValueError(f"no image point for sample {i}")
        p = sample_points[i]
        if id(p) not in retracted:
            try:
                retracted[id(p)] = p, index[theta_on_graph(graph, p)]
            except NotAClique as exc:
                raise NotAClique(f"sample {i}: {exc}") from None
        codes.append(retracted[id(p)][1])

    codes = np.array(codes, dtype=np.intp)
    base = codes[domain.basepoints[0] if domain.basepoints else 0]
    for b in domain.basepoints:
        if codes[b] != base:
            raise ValueError(
                "basepoints map to different vertices: "
                f"{graph.vertices[codes[b]]!r} vs {graph.vertices[base]!r}"
            )
    return DiscreteMap._of(domain, graph, codes, int(base))


def _flood_scan(
    f: DiscreteMap, v: Vertex, radii: Mapping[int, float] | None = None
) -> tuple:
    """One row build of the flood stage at ``v``: returns ``(radii, covered)``.

    Each block of preimage rows gives ``reach``, the distance from each row's
    sample to the nearest sample a flooding ball must not contain: one whose
    value is not adjacent to ``v``, or a basepoint when ``v`` is not the base
    value (inf when there is none).  Each row has a ``limit``: with
    ``radii`` None the cap, half the diameter, and the radii are maximal,
    ``reach`` capped at it, the least row with ``reach`` 0 failing;
    otherwise its given radius, checked as row by row in preimage order
    (``_given_radii``).  ``covered`` marks the union of the balls of radius
    min(reach, limit) / 2, the half-radius balls of every stage that does
    not fail.  Rows reach only the samples whose value is not
    ``v``: writing ``v`` over ``v`` changes nothing, and every sample to
    avoid is among them, so a single-valued map reads no column and
    ``covered`` counts the samples the overwrite changes.

    Each block's squares are rooted in place, so ``reach`` and the ball test
    ``d < r / 2`` read the kernel's distances.  A block holds
    ``BLOCK_CELLS`` // columns rows.  A stage of at most
    ``WHOLE_SCAN_BLOCKS`` blocks of cells, rows by columns, is scanned
    whole.  A larger one goes in the domain's ``spatial_order``, with its
    columns, so a block's rows lie close together, and a block sends to the
    kernel only the chunks of columns its bounding box can reach
    (``_reached_chunks``).  A row that reaches no sample to avoid gets inf,
    so exactly its limit.  Box gaps are squared and summed as the kernel
    sums, so a box's distance is never above the kernel's distance of a
    pair inside it, and a chunk left out holds no cell that could change a
    radius, a failure or ``covered``; a coincident pair is never left out.
    Rows fail, and are capped, after the last block, so the failure is the
    least failing row in preimage order.
    """
    n = f.domain.n_samples
    covered = np.zeros(n, dtype=bool)
    c = f.target.vertex_index.get(v, -1)
    preimage = np.flatnonzero(f.codes == c)
    if not preimage.size:
        return {}, covered
    maximal = radii is None
    if maximal:
        diameter = f.domain.diameter
        r, problem = np.full(len(preimage), diameter / 2.0 if diameter > 0 else 1.0), None
    else:
        r, problem = _given_radii(preimage, radii)
    pruned = len(r) * (n - len(preimage)) > WHOLE_SCAN_BLOCKS * BLOCK_CELLS
    if pruned:
        spatial = f.domain.spatial_order
        mine = f.codes[spatial] == c
        columns = spatial[~mine]
        order = np.searchsorted(preimage, spatial[mine])
        order = order[order < len(r)]
    else:
        columns, order = np.flatnonzero(f.codes != c), np.arange(len(r))
    closed = np.zeros(len(f.target.vertices), dtype=bool)
    closed[f.target.neighbor_indices(c)] = True
    avoid = ~closed[f.codes]
    if c != f.base_code:
        avoid[list(f.domain.basepoints)] = True
    avoid = avoid[columns]
    targets = f.domain.coords[columns]
    points = f.domain.coords[preimage[order]]
    limit = r[order]  # the cap, or the given radii
    keeps = _reached_chunks(points, targets, avoid, limit) if pruned else None
    reach = np.full(len(order), np.inf)  # each row's distance to the nearest sample to avoid
    reached = np.zeros(len(columns), dtype=bool)  # inside a half-radius ball
    for lo, keep, block in _squared_blocks(points, targets, keeps):
        hi = lo + len(block)
        np.sqrt(block, out=block)
        avoided = avoid[keep]
        if avoided.any():
            reach[lo:hi] = np.minimum.reduce(block, axis=1, where=avoided, initial=np.inf)
        half = np.minimum(reach[lo:hi], limit[lo:hi]) / 2.0
        reached[keep] |= np.logical_or.reduce(block < half[:, None], axis=0)
    failing = reach <= 0.0 if maximal else limit > reach
    if failing.any():
        worst = int(order[failing].min())
        raise _stage_failure(f, v, int(preimage[worst]), None if maximal else float(r[worst]))
    if problem is not None:
        raise problem
    covered[columns] = reached
    if maximal:
        r[order] = np.minimum(reach, limit)
        return dict(zip(preimage.tolist(), r.tolist())), covered
    return radii, covered


def _given_radii(preimage: np.ndarray, radii: Mapping[int, float]) -> tuple:
    """The given radius of each preimage sample, in preimage order, up to the
    first sample whose radius is missing or not positive: ``(r, error)``,
    with that sample's error, or None.  The scan checks the balls of the
    rows before it and raises the error only when none of them fails, as a
    row-by-row check would."""
    r = np.empty(len(preimage))
    for i, y in enumerate(preimage.tolist()):
        try:
            if y not in radii:
                raise ValueError(f"no radius for preimage sample {y}")
            r[i] = float(radii[y])
            if not r[i] > 0:  # NaN too
                raise ValueError(f"radius for sample {y} must be positive")
        except (TypeError, ValueError, OverflowError) as error:  # as float() raises them
            return r[:i], error
    return r, None


def _reached_chunks(points: np.ndarray, targets: np.ndarray, avoid: np.ndarray,
                    limit: np.ndarray) -> Iterator[np.ndarray]:
    """Yields, for each block of rows of ``points`` that ``_squared_blocks``
    scans against ``targets``, the columns of ``targets`` in the chunks of
    ``CHUNK_COLUMNS`` that the block can reach: a chunk is reached when it
    holds a sample to ``avoid`` closer to the block's bounding box than the
    block's largest ``limit``, or any sample closer than half of it.  The
    boxes of as many blocks as make ``BLOCK_CELLS`` box pairs are tested at
    once."""
    step = _block_rows(len(targets))
    starts = np.arange(0, len(targets), CHUNK_COLUMNS)
    chunk_low = np.minimum.reduceat(targets, starts).T[:, None]
    chunk_high = np.maximum.reduceat(targets, starts).T[:, None]
    chunk_avoids = np.logical_or.reduceat(avoid, starts)
    lanes, tail = np.arange(CHUNK_COLUMNS), len(starts) * CHUNK_COLUMNS - len(targets)
    batch = max(1, BLOCK_CELLS // len(starts)) * step
    for lo in range(0, len(points), batch):
        blocks = np.arange(lo, min(lo + batch, len(points)), step)
        gaps = np.sqrt(_box_squares(np.minimum.reduceat(points, blocks).T[:, :, None],
                                    np.maximum.reduceat(points, blocks).T[:, :, None],
                                    chunk_low, chunk_high))
        largest = np.maximum.reduceat(limit, blocks)[:, None]
        near = gaps < largest
        near &= chunk_avoids
        near |= gaps < largest / 2.0
        owner, chunk = np.nonzero(near)
        cuts = np.searchsorted(owner, np.arange(len(blocks) + 1))
        for j in range(len(blocks)):
            keep = (chunk[cuts[j] : cuts[j + 1], None] * CHUNK_COLUMNS + lanes).ravel()
            yield keep[: len(keep) - tail] if near[j, -1] else keep


def _box_squares(low: np.ndarray, high: np.ndarray, box_low: np.ndarray,
                 box_high: np.ndarray) -> np.ndarray:
    """Squared distance from the box ``[low, high]`` to each box of
    ``[box_low, box_high]`` (one coordinate per array row).  Gaps are
    squared and summed one coordinate at a time, as in
    ``_squared_distances_to``; rounding never decreases, so each gap and
    the sum are at most the kernel's for any point in the one box and any
    point in the other."""
    out = np.zeros(np.broadcast_shapes(low.shape[1:], box_low.shape[1:]))
    for a, b, x_low, x_high in zip(low, high, box_low, box_high):
        gap = np.maximum(a - x_high, x_low - b)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        out += gap
    return out


def _overwritten(f: DiscreteMap, v: Vertex, covered: np.ndarray) -> DiscreteMap:
    """``f`` with value ``v`` on the covered samples."""
    codes = f.codes.copy()
    codes[covered] = f.target.vertex_index[v]
    return DiscreteMap._of(f.domain, f.target, codes, f.base_code)


def _stage_failure(f: DiscreteMap, v: Vertex, y: int, r: float | None) -> CertificateFailure:
    """The failure of the flood ball of radius ``r`` around preimage sample
    ``y``, or of its coincident samples when ``r`` is None: the first sample
    inside with a value not adjacent to ``v``, else the first basepoint."""
    row = _distance_row(f.domain.coords, y)  # in full, whatever the stage read
    inside = row <= 0.0 if r is None else row < r
    far = np.flatnonzero(inside & ~f.target.adjacent(f.target.vertex_index[v], f.codes))
    stage = f"flood stage {v!r}"
    if far.size:
        z = int(far[0])
        detail = (
            "coincident sample with non-adjacent value"
            if r is None
            else f"value within radius {r:g} of a preimage sample is not adjacent"
        )
        return CertificateFailure(stage, (y, z), (v, f(z)), detail)
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
    overwrite, and writes one new code array.  A stage whose preimage
    earlier floods overwrote yields empty radii and the map unchanged.
    Errors from a stage propagate with the stage named.
    """
    current = f
    for v in f.image_vertices():
        radii, covered = _flood_scan(current, v)
        if radii:
            current = _overwritten(current, v, covered)
        yield v, radii, current


def clique_certificate(f: DiscreteMap) -> CliqueCertificate:
    """Per-sample radii whose closed balls carry pairwise-adjacent values:
    the largest ones, certified up to C = 2 * ``eps_net``.

    Radii are drawn from the finite set of pairwise distances.  D[y, u] is
    the distance from sample y to the nearest sample carrying value u; the
    closed ball of radius r around y carries both u and w exactly when
    r >= max(D[y, u], D[y, w]).  The row's conflict level is the least such
    maximum over non-adjacent image values, and its full radius is the
    largest row distance strictly below that level.

    Delta is only ever compared with triangulation edges
    (``subdivision_depth_for_mesh``, ``convex_transform``), and no edge is
    longer than the mesh.  So each row is settled from its near pairs, those
    closer than C (``_near_blocks``):

    - a row whose conflict level is below C gets its full radius, since
      every distance up to the level is near;
    - a row with no conflict below C gets its largest near distance, when
      that is above the mesh;
    - any other row gets its full radius from all its pairs, taken as near
      ones.

    Then delta equals the full one whenever that is at most the mesh, and is
    above the mesh otherwise, so the subdivision depth and every verdict are
    those of the full radii.  When no two image values are apart every
    radius is C, or the diameter where that is the mesh (when no two samples
    are farther apart), as the full radius would be.  A row with no
    positive radius fails the certificate: the least such row, named by
    ``_row_failure``.

    Every scanned square is rooted before it is compared.  Whether two
    image values are apart is counted from the edge keys in O(E), and pairs
    are asked of ``Graph.adjacent``, so no k x k table is built.  With m
    samples within C of a sample this takes O(n m log m) numpy time, plus
    O(n) a row scanned in full, and memory for ``BLOCK_CELLS`` pairs.
    """
    n = f.domain.n_samples
    cap = 2.0 * f.domain.eps_net
    image, keys = f.image_codes(), f.target.edge_keys
    k, held = len(image), np.zeros(len(f.target.vertices), dtype=bool)
    held[image] = True
    coords, mesh = f.domain.coords, f.domain.max_simplex_diameter()
    radii = np.full(n, cap)
    if np.count_nonzero(held[keys // len(held)] & held[keys % len(held)]) == k * (k - 1) // 2:
        # sample 0's row is enough to find a pair farther apart than the mesh
        # on all but the smallest domains
        if mesh > 0 and _distance_row(coords, 0).max() <= mesh and f.domain.diameter <= mesh:
            radii[:] = f.domain.diameter
    else:
        unsettled = np.zeros(n, dtype=bool)
        for rows, owner, columns, distances in _near_blocks(coords, cap):
            radii[rows], level = _near_radii(f, len(rows), owner, columns, distances)
            unsettled[rows] = np.isinf(level) & (radii[rows] <= mesh)
        rescan = np.flatnonzero(unsettled)
        if rescan.size:
            for lo, _, block in _squared_blocks(coords[rescan], coords):
                m = len(block)
                owner, columns = np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
                np.sqrt(block, out=block)
                radii[rescan[lo : lo + m]] = _near_radii(f, m, owner, columns, block.ravel())[0]
        failing = np.flatnonzero(radii <= 0.0)
        if failing.size:
            raise _row_failure(f, int(failing[0]))
    radii = dict(enumerate(radii.tolist()))
    return CliqueCertificate(radii, min(radii.values()))


def _near_radii(f: DiscreteMap, m: int, owner: np.ndarray, columns: np.ndarray,
                distances: np.ndarray) -> tuple:
    """``(radii, level)`` of ``m`` rows from their near pairs, as
    ``_near_blocks`` yields them (``owner`` ascending, every row owning its
    own sample's pair): each row's conflict level among its near values
    (inf when they are pairwise adjacent), and its largest near distance
    below that level.  Given all of a row's pairs, these are its full
    conflict level and radius."""
    # each row's least distance per value, in a table padded with inf
    group = owner * len(f.target.vertices) + f.codes[columns]
    by_group = np.argsort(group, kind="stable")
    group = group[by_group]
    firsts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    nearest = np.minimum.reduceat(distances[by_group], firsts)
    row, code = np.divmod(group[firsts], len(f.target.vertices))
    del group, by_group
    count = np.bincount(row, minlength=m)
    slot = np.arange(len(firsts)) - np.repeat(np.cumsum(count) - count, count)
    table = np.full((m, count.max()), np.inf)
    table[row, slot] = nearest
    codes = np.zeros(table.shape, dtype=np.intp)
    codes[row, slot] = code
    del firsts, nearest, row, code, slot
    level = _conflict_level(table, codes, f.target)
    # a row's largest distance below its level, which its own sample is
    distances[distances >= level[owner]] = 0.0
    return np.maximum.reduceat(distances, np.searchsorted(owner, np.arange(m))), level


class _Grid:
    """Samples binned in a grid of side ``side`` (a hair more, so that
    rounding never parts two samples closer than ``side`` by two cells) over
    their first three coordinates, the fixed-radius near-neighbour search of
    Bentley, Stanat and Williams: two such samples lie in neighbouring
    cells.  Samples are sorted by cell key, the last grid coordinate
    fastest, so the three cells in a line along it hold one run of the
    sorted keys, and the cells beside a point are the 3**(g-1) runs around
    its key for g grid coordinates; no cell array is built, however wide the
    domain.
    """

    def __init__(self, coords: np.ndarray, side: float):
        self.g = min(3, coords.shape[1])
        self.origin = coords[:, : self.g].min(axis=0)
        self.side = side * (1.0 + 2.0**-20)
        cells = self.cells(coords)
        self.strides = np.cumprod(np.concatenate(([1], cells.max(axis=0)[:0:-1] + 2)))[::-1]
        key = cells @ self.strides
        self.order = np.argsort(key, kind="stable")
        self.key = key[self.order]
        self.points = np.ascontiguousarray(coords[self.order].T)  # sorted, one row per coordinate

    def cells(self, points: np.ndarray) -> np.ndarray:
        """Each point's cell, from one below the samples' box (a point
        outside it) to 2**20: 2**20 cells a side keep the keys in int64, and
        merging the cells beyond only adds candidates.  Cells count from 1,
        so a neighbour's is >= -1"""
        cells = np.floor((points[:, : self.g] - self.origin) / self.side)
        return np.fmax(np.fmin(cells, 2.0**20), -1.0).astype(np.int64) + 1

    def keys(self, points: np.ndarray) -> np.ndarray:
        return self.cells(points) @ self.strides

    def runs(self, keys: np.ndarray) -> tuple:
        """``(first, span)``: per cell key, the index in the sorted keys and
        the length of each run of the cells beside it."""
        shifts = np.array(list(product((-1, 0, 1), repeat=self.g - 1)), dtype=np.int64)
        middle = keys[:, None] + shifts.reshape(len(shifts), self.g - 1) @ self.strides[:-1]
        first = np.searchsorted(self.key, middle - 1)
        return first, np.searchsorted(self.key, middle + 1, side="right") - first

    def pairs(self, first: np.ndarray, span: np.ndarray) -> Iterator[list]:
        """Yields ``[a, b, count, column, squares]`` for the sorted samples
        ``a:b`` whose candidates are the runs ``first[i], span[i]`` of
        sorted positions: each row's candidate count, every candidate's
        position, row by row, and its square from the row's sample.  A
        block holds as many rows as keep their candidates and runs within
        half of ``BLOCK_CELLS`` (at least one).  Squares are summed one
        coordinate at a time, as in ``_squared_distances_to``, so each
        equals the entry of the full scan bit for bit.  Only the yielded
        list holds a block's arrays, so a consumer that empties it frees
        them as soon as it drops its own references."""
        count = span.sum(axis=1)
        ends = np.concatenate(([0], np.cumsum(count + span.shape[1])))
        a = 0
        while a < len(count):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] + BLOCK_CELLS // 2, side="right")) - 1)
            runs = span[a:b].ravel()
            column = np.repeat(first[a:b].ravel() - np.cumsum(runs) + runs, runs)
            del runs
            column += np.arange(len(column))
            squares = np.zeros(len(column))
            for p, x in zip(self.points[:, a:b], self.points):
                gap = np.repeat(p, count[a:b])
                gap -= x[column]
                gap *= gap
                squares += gap
            block = [a, b, count[a:b], column, squares]
            del column, squares, gap
            yield block
            a = b


def _near_blocks(coords: np.ndarray, cap: float) -> Iterator[tuple]:
    """Yields ``(rows, owner, columns, distances)``: each ordered pair of
    samples closer than ``cap``, once, sample ``rows[owner[i]]`` to sample
    ``columns[i]`` at distance ``distances[i]``, with ``owner``
    ascending and every row, which is near itself, owning a pair.

    The candidates come from a ``_Grid`` of side ``cap``, the runs beside
    each row's cell.  Rows are handed out in key order, whole, as many as
    ``_Grid.pairs`` puts in a block.
    """
    grid = _Grid(coords, cap)
    key = grid.key
    fresh = np.concatenate(([True], key[1:] != key[:-1]))
    cell_of = np.cumsum(fresh) - 1
    first, span = grid.runs(key[fresh])  # per cell
    for block in grid.pairs(first[cell_of], span[cell_of]):
        a, b, count, column, distances = block
        block.clear()
        near = np.sqrt(distances, out=distances) < cap
        owner = np.repeat(np.arange(b - a), count)[near]
        column, distances = grid.order[column[near]], distances[near]
        del near
        yield grid.order[a:b], owner, column, distances


def _conflict_level(nearest: np.ndarray, codes: np.ndarray, graph: Graph) -> np.ndarray:
    """Per row of the padded table ``_near_radii`` builds, the distance of
    the first value in ascending order that is not adjacent to an earlier
    one, inf for a row whose finite entries hold no such value.

    Entry [i, r] of ``nearest`` is row i's distance to the value
    ``codes[i, r]``, a vertex index of ``graph``; a row's values are
    distinct, and inf entries pad it (whatever their codes, they can only
    give a level of inf).  At step j each row still scanning asks
    ``graph.adjacent`` about its j-th value against its j earlier ones.
    Rows leave the scan as soon as they conflict, so the loop runs to the
    largest conflicting rank in the block.
    """
    order = np.argsort(nearest, axis=1, kind="stable")
    level = np.full(len(nearest), np.inf)
    rows = np.arange(len(nearest))
    for j in range(1, nearest.shape[1]):
        later = codes[rows, order[rows, j]][:, None]
        hit = ~graph.adjacent(codes[rows[:, None], order[rows, :j]], later).all(axis=1)
        level[rows[hit]] = nearest[rows[hit], order[rows[hit], j]]
        rows = rows[~hit]
        if not rows.size:
            break
    return level


def _row_failure(f: DiscreteMap, y: int) -> CertificateFailure:
    """The first non-adjacent value pair met in stable distance order from
    sample ``y``, for a row that has no positive certificate radius."""
    row = _distance_row(f.domain.coords, y)
    codes, label = f.codes.tolist(), f.target.vertices.__getitem__
    present: dict = {}  # value code -> first sample seen carrying it
    for z in np.argsort(row, kind="stable").tolist():
        if codes[z] in present:
            continue
        earlier = np.fromiter(present, np.intp, len(present))
        apart = earlier[~f.target.adjacent(earlier, codes[z])]
        if apart.size:
            u = int(apart[0])
            return CertificateFailure(
                "clique certificate",
                (present[u], z),
                (label(u), label(codes[z])),
                f"nearest neighbors of sample {y} are not adjacent",
            )
        present[codes[z]] = z
    raise AssertionError(f"row {y} has no conflicting values")  # pragma: no cover


def convex_transform(
    f: DiscreteMap,
    triangulation: SimplicialComplex,
    cert: CliqueCertificate,
    target_complex: SimplicialComplex,
) -> SimplicialMap:
    """The simplicial map induced by a vertex-valued map on a fine triangulation.

    Every simplex must be smaller than the certificate's Lebesgue number and
    its values must form a clique; restricting ``f`` to the vertices is then
    simplicial into the clique complex, and shared faces agree exactly by
    construction.  Downward closure makes the edge-level checks cover every
    simplex, provided ``target_complex`` is the clique complex of ``f.target``
    capped at the triangulation's dimension or above.
    The first failing edge is named, its length before its clique; the
    cliques are looked up as rows of value codes in ``target_complex``.
    """
    pairs = np.asarray(triangulation.vertices, dtype=np.intp)[triangulation.rows[1]]
    lengths = f.domain.edge_lengths(pairs)
    apart = target_complex.positions(np.sort(f.codes[pairs], axis=1)) < 0
    failing = np.flatnonzero((lengths >= cert.delta) | apart)
    if failing.size:
        i = int(failing[0])
        length = float(lengths[i])
        u, w = edge = tuple(pairs[i].tolist())
        raise CertificateFailure(
            "convex transform",
            edge,
            (f(u), f(w)),
            f"edge length {length:g} is not below delta {cert.delta:g}"
            if length >= cert.delta
            else "triangulation edge does not map to a clique",
        )
    vertices = triangulation.vertices
    return SimplicialMap(
        triangulation, target_complex, dict(zip(vertices, map(f.values.__getitem__, vertices)))
    )


def subdivide_domain(domain: SampledDomain, values: Mapping[int, Vertex]) -> tuple:
    """One barycentric subdivision of a sampled domain, with extended values.

    New samples sit at the Euclidean barycenters of the faces; each inherits
    the value of the nearest pre-existing sample, the finite stand-in for
    evaluating the map at the new point.  Returns ``(new_domain, new_values,
    face_vertex)`` where ``face_vertex[i]`` is the new sample at the i-th
    face of the old triangulation in ``all_simplices()`` order.  Raises
    ``TooManySamples`` before building anything when the result would pass
    ``MAX_SAMPLES``.
    """
    tri = domain.triangulation
    check_sample_budget(tri.counts(), 1)
    n = domain.n_samples
    # old samples keep their index and new faces count up from n in face
    # order, so sd(K) is built once, directly on sample indices
    samples = np.asarray(tri.vertices, dtype=np.intp)
    points, *levels = [samples[level] for level in tri.rows]
    names = [*points[:, 0].tolist(), *range(n, n + sum(map(len, levels)))]
    centers = [domain.coords[level].mean(axis=1) for level in levels if len(level)]
    coords = np.vstack([domain.coords, *centers])

    new_values = dict(values)
    nearest = _nearest_targets(coords[n:], domain.coords).tolist()
    new_values.update(zip(range(n, len(coords)), map(values.__getitem__, nearest)))

    new_domain = SampledDomain(coords, subdivision_on(tri, names), domain.basepoints)
    return new_domain, new_values, names
