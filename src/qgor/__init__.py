"""Exact-arithmetic toolkit for simplicial complexes and their
Stanley-Reisner rings: reduced and relative homology over Q and GF(p),
local cohomology tables via Hochster's formula, quasi-Gorenstein and
related classification predicates, facet-partition liaison reports,
facet graphs, and discrete collapses."""

from .errors import (
    CapacityExceeded,
    EmptySelection,
    GammaTwoNotIsolated,
    HypothesesNotMet,
    IndexOutOfRange,
    InvalidPartition,
    InvalidStep,
    NotAFace,
    NotAPseudomanifold,
    NotASubcomplex,
    NotPure,
    ParseError,
    QgorError,
    TooLarge,
    TOutOfRange,
    VertexOutOfRange,
)
from .simplicial_core import (
    SimplicialComplex,
    core,
    face,
    faces_avoiding,
    from_facets,
    link,
    restrict_to_facets,
)
from .homology import (
    GF2,
    GF3,
    QQ,
    BettiVector,
    ExactMatrix,
    FieldSpec,
    boundary_matrix,
    rank,
    reduced_betti,
    relative_betti,
)
from .hochster import (
    DepthReport,
    LocalCohomologyTable,
    a_invariant,
    cohen_macaulay_direct,
    depth_report,
    is_buchsbaum,
    local_cohomology_table,
    serre_condition,
)
from .classify import (
    ClassificationReport,
    NormalPseudomanifoldReport,
    classification_report,
    is_gorenstein,
    is_homology_manifold,
    is_orientable,
    is_pseudomanifold,
    is_quasi_gorenstein,
    is_strongly_connected,
    normal_pseudomanifold_report,
)
from .graphs import (
    ConnectivityReport,
    GammaGraph,
    connectivity_report,
    gamma_graph,
    removal_experiment,
)
from .collapse import (
    CollapseTrace,
    Failure,
    collapse_onto,
    free_faces,
    verify_trace,
)
from .liaison import (
    CmLinkageReport,
    FacetPartition,
    LefschetzReport,
    LinkRestrictionReport,
    cm_linkage_check,
    lefschetz_report,
    link_restriction_check,
    tconn_check,
)

__all__ = [
    "CapacityExceeded", "EmptySelection", "GammaTwoNotIsolated",
    "HypothesesNotMet", "IndexOutOfRange", "InvalidPartition", "InvalidStep",
    "NotAFace", "NotAPseudomanifold", "NotASubcomplex", "NotPure",
    "ParseError", "QgorError", "TooLarge", "TOutOfRange", "VertexOutOfRange",
    "SimplicialComplex", "core", "face", "faces_avoiding", "from_facets",
    "link", "restrict_to_facets",
    "GF2", "GF3", "QQ", "BettiVector", "ExactMatrix", "FieldSpec",
    "boundary_matrix", "rank", "reduced_betti", "relative_betti",
    "DepthReport", "LocalCohomologyTable", "a_invariant",
    "cohen_macaulay_direct", "depth_report", "is_buchsbaum",
    "local_cohomology_table", "serre_condition",
    "ClassificationReport", "NormalPseudomanifoldReport",
    "classification_report", "is_gorenstein", "is_homology_manifold",
    "is_orientable", "is_pseudomanifold", "is_quasi_gorenstein",
    "is_strongly_connected", "normal_pseudomanifold_report",
    "ConnectivityReport", "GammaGraph", "connectivity_report",
    "gamma_graph", "removal_experiment",
    "CollapseTrace", "Failure", "collapse_onto", "free_faces",
    "verify_trace",
    "CmLinkageReport", "FacetPartition", "LefschetzReport",
    "LinkRestrictionReport", "cm_linkage_check", "lefschetz_report",
    "link_restriction_check", "tconn_check",
]
