"""Reflexive graphs as closure spaces, their clique complexes, and the
transformation pipeline that certifies both carry the same desk-scale
homotopy invariants."""

from .closure import ClosureSpace, PointMap, compose, is_continuous
from .complex import (
    SimplicialComplex,
    SimplicialMap,
    check_simplicial,
    vietoris_rips,
)
from .graph import Graph, complete_graph, cycle_graph, octahedron_graph
from .homology import (
    GroupPresentation,
    InducedH1,
    betti_numbers,
    edge_path_presentation,
    euler_characteristic,
    induced_h1,
)
from .realization import (
    BaryPoint,
    bary_cover_membership,
    pl_evaluate,
    simplex_grid,
    subdivision_depth_for_mesh,
    theta_point,
)
from .transform import (
    CertificateFailure,
    CliqueCertificate,
    DiscreteMap,
    SampledDomain,
    clique_certificate,
    convex_transform,
    discrete_modify,
    flood,
    flood_stage_radii,
    flood_stages,
    subdivide_domain,
)

__all__ = [
    "BaryPoint",
    "CertificateFailure",
    "CliqueCertificate",
    "ClosureSpace",
    "DiscreteMap",
    "Graph",
    "GroupPresentation",
    "InducedH1",
    "PointMap",
    "SampledDomain",
    "SimplicialComplex",
    "SimplicialMap",
    "bary_cover_membership",
    "betti_numbers",
    "check_simplicial",
    "clique_certificate",
    "complete_graph",
    "compose",
    "convex_transform",
    "cycle_graph",
    "discrete_modify",
    "edge_path_presentation",
    "euler_characteristic",
    "flood",
    "flood_stage_radii",
    "flood_stages",
    "induced_h1",
    "is_continuous",
    "octahedron_graph",
    "pl_evaluate",
    "simplex_grid",
    "subdivide_domain",
    "subdivision_depth_for_mesh",
    "theta_point",
    "vietoris_rips",
]

__version__ = "0.1.0"
