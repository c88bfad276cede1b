"""The sampled subdivision-compatibility check, kept as a test oracle.

It evaluates both maps with ``pl_evaluate`` at every point of the uniform
1/``grid_steps`` grid of each top simplex and asks ``carriers_compatible``
whether their carriers fit in one target simplex.  Simplices whose image
pattern (vertex images plus subdivision-vertex images) was already checked
are skipped, since the verdict only depends on that pattern.
"""

from itertools import combinations

from vrclosure import BaryPoint, carriers_compatible, simplex_grid


def grid_sd_compatibility(m1, m2, face_vertex, grid_steps: int) -> bool:
    tri = m1.source
    top = tri.dimension()
    if top < 1:
        return True
    seen: set = set()
    for s in tri.simplices(top):
        faces = [
            face
            for size in range(1, len(s) + 1)
            for face in combinations(s, size)
        ]
        signature = (
            tuple(m1.vertex_images[v] for v in s),
            tuple(m2.vertex_images[face_vertex[f]] for f in faces),
        )
        if signature in seen:
            continue
        seen.add(signature)
        points = [BaryPoint(s, c) for c in simplex_grid(top, grid_steps)]
        if not carriers_compatible(m1, m2, points, face_vertex):
            return False
    return True
