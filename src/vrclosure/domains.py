"""Built-in sampled domains (circles and icospheres) and sample maps.

These are the only domain sources: everything downstream runs on sampled
spheres, and a regular n-gon or a subdivided icosahedron is an honest
epsilon-net of one.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from .complex import SimplicialComplex
from .graph import Graph
from .realization import BaryPoint
from .transform import SampledDomain, _nearest_targets, check_sample_budget

Vertex = Hashable

#: pole order matching ``octahedron_graph``: vertices 2i and 2i+1 are antipodal
OCTAHEDRON_POLES = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)


def circle_domain(n: int) -> SampledDomain:
    """Regular n-gon sample of the unit circle, triangulated by its edges,
    with basepoint 0; ``TooManySamples`` past ``MAX_SAMPLES``."""
    if n < 3:
        raise ValueError("need at least 3 samples on the circle")
    check_sample_budget([n])
    angles = 2.0 * math.pi * np.arange(n) / n
    coords = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    edges = np.column_stack([np.r_[0, 0, 1 : n - 1], np.r_[1, n - 1, 2:n]])  # lexicographic
    tri = SimplicialComplex(range(n), [np.arange(n), edges], dim_cap=2)
    return SampledDomain(coords, tri, basepoints=(0,))


_ICOSA_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _icosahedron() -> tuple:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw, list(_ICOSA_FACES)


def icosphere(subdivisions: int) -> tuple:
    """Icosahedron-based triangulation of the unit sphere.

    Each round splits every triangle (a, b, c) into (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca); midpoints are numbered as the faces first
    meet their edges (a, b), (b, c), (c, a), and divided by ``sqrt(m.dot(m))``,
    the ``np.linalg.norm`` of one vector, which a row-wise sum may miss by a bit.
    """
    if subdivisions < 0:
        raise ValueError("subdivision count must be nonnegative")
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        mid: dict = {}  # sorted edge -> midpoint index
        splits = [[mid.setdefault((i, j) if i < j else (j, i), len(verts) + len(mid))
                   for i, j in ((a, b), (b, c), (c, a))] for a, b, c in faces]
        ends = np.array(list(mid))
        mids = (verts[ends[:, 0]] + verts[ends[:, 1]]) / 2.0
        mids /= np.sqrt([m.dot(m) for m in mids])[:, None]
        verts = np.vstack([verts, mids])
        faces = [face for (a, b, c), (ab, bc, ca) in zip(faces, splits)
                 for face in ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))]
    return verts, faces


def icosphere_domain(subdivisions: int) -> SampledDomain:
    """Sampled 2-sphere: a subdivided icosahedron with its face triangulation,
    with basepoint 0; ``TooManySamples`` past ``MAX_SAMPLES``."""
    # 10 * 4^k + 2 samples; k >= 6 is over the ceiling, so the exponent is
    # capped to keep a huge k cheap to refuse
    check_sample_budget([10 * 4 ** min(subdivisions, 8) + 2])
    coords, faces = icosphere(subdivisions)
    n = len(coords)
    # rows sort as their codes a * n + b and (a * n + b) * n + c, far below 2**63
    a, b, c = np.sort(np.array(faces), axis=1).T
    e = np.sort(np.concatenate([a * n + b, a * n + c, b * n + c]))
    e = e[np.diff(e, prepend=-1) > 0]  # each edge once
    t = np.sort((a * n + b) * n + c)
    levels = [np.arange(n), np.column_stack([e // n, e % n]),
              np.column_stack([t // n // n, t // n % n, t % n])]
    tri = SimplicialComplex(range(n), levels, dim_cap=3)
    return SampledDomain(coords, tri, basepoints=(0,))


# -- built-in sample maps ------------------------------------------------


def constant_map(domain: SampledDomain, graph: Graph, vertex: Vertex | None = None) -> dict:
    """Every sample to one vertex (the first in vertex order by default)."""
    v = graph.vertices[0] if vertex is None else vertex
    graph.index(v)
    return dict.fromkeys(range(domain.n_samples), BaryPoint.of_vertex(v))


def _sector_map(domain: SampledDomain, graph: Graph, offset: float) -> dict:
    if domain.coords.shape[1] != 2:
        raise ValueError("arc maps need a planar (circle) domain")
    if len(graph.vertices) < 4:
        raise ValueError("arc maps need at least 4 target vertices")
    points = [BaryPoint.of_vertex(v) for v in graph.vertices[:4]]
    out = {}
    for i, (x, y) in enumerate(domain.coords.tolist()):
        angle = (math.atan2(y, x) + offset) % (2.0 * math.pi)
        # keep samples that sit on a sector boundary in the upper (half-open)
        # arc despite rounding; the nudge is far below any sample spacing
        angle = (angle + 1e-9) % (2.0 * math.pi)
        sector = min(3, int(angle / (math.pi / 2.0)))
        out[i] = points[sector]
    return out


def quarter_arc_map(domain: SampledDomain, graph: Graph) -> dict:
    """Quarter-arc wrap of the circle onto the first four vertices.

    Samples in the k-th quarter turn go to vertex k, reproducing the
    classical continuous surjection onto the 4-cycle.
    """
    return _sector_map(domain, graph, 0.0)


def antipodal_quarter_arc_map(domain: SampledDomain, graph: Graph) -> dict:
    """Quarter-arc wrap precomposed with the antipodal rotation."""
    return _sector_map(domain, graph, math.pi)


def nearest_pole_map(
    domain: SampledDomain, graph: Graph, rotation: np.ndarray | None = None
) -> dict:
    """Each sample to the graph vertex of its nearest octahedron pole.

    Pole k of ``OCTAHEDRON_POLES`` corresponds to ``graph.vertices[k]``; an
    optional rotation is applied to the samples first.  Ties resolve to the
    first pole.
    """
    if len(graph.vertices) != len(OCTAHEDRON_POLES):
        raise ValueError(f"graph has {len(graph.vertices)} vertices but 6 poles given")
    pts = domain.coords
    if rotation is not None:
        pts = pts @ np.asarray(rotation, dtype=float).T
    if pts.shape[1] != 3:
        raise ValueError("domain and poles have different embedding dimensions")
    nearest = _nearest_targets(pts, OCTAHEDRON_POLES)
    points = [BaryPoint.of_vertex(v) for v in graph.vertices]
    return dict(enumerate(map(points.__getitem__, nearest.tolist())))


def random_rotation(seed: int) -> np.ndarray:
    """Seeded uniform-ish 3x3 rotation via QR of a Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q
