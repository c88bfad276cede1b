"""The sampled subdivision-compatibility check, kept as a test oracle.

It evaluates both maps with ``pl_evaluate`` at every point of the uniform
1/``grid_steps`` grid of each maximal simplex, the refined map at the point
as ``subdivided_point`` rewrites it in sd(K), and asks ``carriers_compatible``
whether their carriers fit in one target simplex.  Simplices whose image
pattern (vertex images plus subdivision-vertex images) was already checked
are skipped, since the verdict only depends on that pattern.
"""

from itertools import combinations

from vrclosure import BaryPoint, pl_evaluate, simplex_grid
from vrclosure.realization import EPS_ZERO, aligned


def subdivided_point(point, face_vertex=None):
    """Rewrite a point of ``|K|`` as a point of ``|sd K|``.

    Sorting the coordinates in decreasing order produces the chain of support
    faces whose barycenters carry the point; the weight of the j-th face is
    ``j * (s_j - s_{j+1})`` for the sorted coordinates ``s``.  New vertices
    are the face tuples themselves, or their images under ``face_vertex``
    when the subdivision's vertices were renamed.
    """
    order = sorted(range(len(point.carrier)), key=lambda i: (-point.coords[i], i))
    faces = []
    weights = []
    prefix: list = []
    for j, idx in enumerate(order, start=1):
        prefix.append(point.carrier[idx])
        s_here = point.coords[idx]
        s_next = point.coords[order[j]] if j < len(order) else 0.0
        w = j * (s_here - s_next)
        if w > EPS_ZERO:
            face = tuple(sorted(prefix, key=point.carrier.index))
            faces.append(face if face_vertex is None else face_vertex[face])
            weights.append(w)
    total = sum(weights)
    return BaryPoint(tuple(faces), tuple(w / total for w in weights))


def carriers_compatible(m1, m2, points, face_vertex=None) -> bool:
    """Do both maps send each sampled point into a common target simplex?

    ``m2`` must be defined on the barycentric subdivision of ``m1``'s source;
    ``face_vertex`` renames each face tuple of the source to the subdivision
    vertex at its barycenter (identity when the subdivision kept face tuples
    as vertices).  A common carrier certifies that the straight-line homotopy
    between the two evaluations stays inside the realization.
    """
    if m1.target != m2.target:
        raise ValueError("maps have different target complexes")
    for x in points:
        p1 = pl_evaluate(m1, aligned(x, m1.source))
        x2 = subdivided_point(aligned(x, m1.source), face_vertex)
        p2 = pl_evaluate(m2, aligned(x2, m2.source))
        union = set(p1.carrier) | set(p2.carrier)
        if not m1.target.has_simplex(m1.target.sort_simplex(union)):
            return False
    return True


def maximal_simplices(tri) -> list:
    """Simplices that are a proper face of no other simplex."""
    simplices = list(tri.all_simplices())
    proper_faces = {
        face for s in simplices for size in range(1, len(s)) for face in combinations(s, size)
    }
    return [s for s in simplices if s not in proper_faces]


def grid_sd_compatibility(m1, m2, face_vertex, grid_steps: int) -> bool:
    """``face_vertex[i]`` names the barycenter of the i-th face of ``m1.source``."""
    face_vertex = dict(zip(m1.source.all_simplices(), face_vertex))
    seen: set = set()
    for s in maximal_simplices(m1.source):
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
        points = [BaryPoint(s, c) for c in simplex_grid(len(s) - 1, grid_steps)]
        if not carriers_compatible(m1, m2, points, face_vertex):
            return False
    return True
