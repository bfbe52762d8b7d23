"""Exact-arithmetic toolkit for simplicial complexes and their
Stanley-Reisner rings: reduced and relative homology over Q and GF(p),
local cohomology tables via Hochster's formula, quasi-Gorenstein and
related classification predicates, facet-partition liaison reports,
facet graphs, and discrete collapses.

`import qgor` loads no submodule.  A module `__getattr__` (PEP 562)
imports a public name's home module on first use and binds the name
here; submodules such as `qgor.homology` resolve the same way, so a
process compiles only the modules it uses.  The rule is one table, in
`__all__` order: `_HOMES` maps each public name to its home module, a
name is written only there, and `__all__` is read from it.
"""

import importlib

_HOMES = {name: module for module, names in (
    ("errors", "CapacityExceeded EmptySelection GammaTwoNotIsolated HypothesesNotMet "
               "IndexOutOfRange InvalidPartition InvalidStep NotAFace NotAPseudomanifold "
               "NotASubcomplex NotPure ParseError QgorError TooLarge TOutOfRange "
               "VertexOutOfRange"),
    ("simplicial_core", "SimplicialComplex core face faces_avoiding from_facets link "
                        "restrict_to_facets"),
    ("homology", "GF2 GF3 QQ BettiVector ExactMatrix FieldSpec boundary_matrix rank "
                 "reduced_betti relative_betti"),
    ("hochster", "DepthReport LocalCohomologyTable a_invariant depth_report is_buchsbaum "
                 "local_cohomology_table serre_condition"),
    ("classify", "ClassificationReport NormalPseudomanifoldReport classification_report "
                 "is_gorenstein is_homology_manifold is_orientable is_pseudomanifold "
                 "is_quasi_gorenstein is_strongly_connected normal_pseudomanifold_report"),
    ("graphs", "ConnectivityReport GammaGraph connectivity_report gamma_graph "
               "removal_experiment"),
    ("collapse", "CollapseTrace Failure collapse_onto free_faces verify_trace"),
    ("liaison", "CmLinkageReport FacetPartition LefschetzReport LinkRestrictionReport "
                "cm_linkage_check lefschetz_report link_restriction_check tconn_check"),
) for name in names.split()}

__all__ = list(_HOMES)

_SUBMODULES = {*_HOMES.values(), "cli", "fixtures"}


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
