"""The domain builders that ``vrclosure.domains`` replaced: the icosphere's
per-midpoint split loop and triangulations closed by ``from_simplices``.
The array builders must reproduce their coordinates bit for bit and their
triangulations exactly."""

import math

import numpy as np

from vrclosure import SampledDomain

from helpers import from_simplices

ICOSA_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosahedron():
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
    return raw, list(ICOSA_FACES)


def icosphere(subdivisions):
    """One numpy midpoint per new edge, numbered as the faces meet it."""
    vertices, faces = icosahedron()
    verts = [row for row in vertices]
    for _ in range(subdivisions):
        midpoint = {}

        def split(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = (verts[i] + verts[j]) / 2.0
                m = m / np.linalg.norm(m)
                midpoint[key] = len(verts)
                verts.append(m)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = split(a, b), split(b, c), split(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = new_faces
    return np.array(verts), faces


def icosphere_domain(subdivisions):
    coords, faces = icosphere(subdivisions)
    tri = from_simplices(faces, dim_cap=3, vertices=range(len(coords)))
    return SampledDomain(coords, tri, basepoints=(0,))


def circle_domain(n):
    angles = 2.0 * math.pi * np.arange(n) / n
    coords = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    edges = [(i, (i + 1) % n) for i in range(n)]
    tri = from_simplices(edges, dim_cap=2, vertices=range(n))
    return SampledDomain(coords, tri, basepoints=(0,))
