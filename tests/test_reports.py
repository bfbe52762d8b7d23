"""The report values.

Each report class is a types.SimpleNamespace subclass built with keyword
arguments: two reports of one input compare equal, the repr names the
class and every field, a report is unhashable, and the serialized form
is the one the CLI and the schemas read.
"""

import pytest

from qgor import (
    GF2,
    QQ,
    ClassificationReport,
    CmLinkageReport,
    ConnectivityReport,
    DepthReport,
    Failure,
    FacetPartition,
    LefschetzReport,
    LinkRestrictionReport,
    NormalPseudomanifoldReport,
    classification_report,
    cm_linkage_check,
    collapse_onto,
    connectivity_report,
    depth_report,
    from_facets,
    gamma_graph,
    lefschetz_report,
    link_restriction_check,
    normal_pseudomanifold_report,
)
from qgor.fixtures import get_fixture


def _fx(name):
    return get_fixture(name).complex()


def _moebius(check):
    """check on the Moebius strip with A = facets 1 and 3, over GF(2)."""
    delta = _fx("paper-moebius")
    return check(delta, FacetPartition.complementary(delta, [0, 2]), GF2)


#: Each class -> (a call that builds one report, its fields, and its
#: to_json(), or its fields' values for a class with no to_json).
CASES = {
    DepthReport: (
        lambda: depth_report(_fx("wedge-triangles"), QQ),
        {"depth": 2, "is_cohen_macaulay": False, "witness": (2, (1,))},
        None,
    ),
    NormalPseudomanifoldReport: (
        lambda: normal_pseudomanifold_report(_fx("wedge-triangles")),
        {"ok": False, "pure": True, "normal": False, "ridge_condition": False,
         "witnesses": {"normal": (1,), "ridge_condition": ((1, 2), 1)}},
        None,
    ),
    ClassificationReport: (
        lambda: classification_report(_fx("wedge-triangles"), QQ),
        ("field", "n_vertices", "dim", "pure", "strongly_connected", "normal",
         "pseudomanifold_ridge_condition", "normal_pseudomanifold", "orientable",
         "buchsbaum", "homology_manifold", "homology_sphere", "cohen_macaulay",
         "quasi_gorenstein", "gorenstein", "witnesses"),
        {"field": "q", "n_vertices": 5, "dim": 2, "pure": True, "strongly_connected": False,
         "normal": False, "pseudomanifold_ridge_condition": False,
         "normal_pseudomanifold": False, "orientable": False, "buchsbaum": False,
         "homology_manifold": False, "homology_sphere": False, "cohen_macaulay": False,
         "quasi_gorenstein": False, "gorenstein": False,
         "witnesses": {"normal": [1], "ridge_condition": {"face": [1, 2], "count": 1},
                       "buchsbaum": [1], "cohen_macaulay": [1]}},
    ),
    ConnectivityReport: (
        lambda: connectivity_report(gamma_graph(from_facets([[1, 2], [2, 3], [3, 4]]), 1)),
        ("components", "two_connected", "articulation_points", "trivial"),
        {"components": 1, "two_connected": False, "articulation_points": [2],
         "trivial": False},
    ),
    LefschetzReport: (
        lambda: _moebius(lefschetz_report),
        ("d", "field", "partition", "terms", "alternating_sum", "alternating_sum_printed",
         "neighbor_bound_ok", "duality_pairs", "hypotheses"),
        {"d": 2, "field": "2", "a": [1, 3], "b": [2, 4, 5],
         "terms": [{"label": "H~^0(Delta_B)", "dim": 0}, {"label": "H~_1(Delta_A)", "dim": 0},
                   {"label": "H~^1(Delta)", "dim": 1}, {"label": "H~^1(Delta_B)", "dim": 1},
                   {"label": "H~_0(Delta_A)", "dim": 0}],
         "alternating_sum": 0, "alternating_sum_printed": 0, "neighbor_bound_ok": True,
         "duality_pairs": [{"i": 1, "relative": 0, "a_side": 0}], "duality_ok": True,
         "hypotheses": {"quasi_gorenstein": False, "buchsbaum_A": False}},
    ),
    LinkRestrictionReport: (
        lambda: _moebius(link_restriction_check),
        ("ok", "witnesses", "hypotheses_met"),
        {"ok": False, "hypotheses_met": False,
         "witnesses": [{"sigma": [2], "i": 0, "in_b": True, "dim_restricted": 1,
                        "dim_ambient": 0},
                       {"sigma": [5], "i": 0, "in_b": True, "dim_restricted": 1,
                        "dim_ambient": 0}]},
    ),
    CmLinkageReport: (
        lambda: _moebius(cm_linkage_check),
        ("ok", "hypotheses_met", "hypotheses", "witness"),
        {"ok": False, "hypotheses_met": False,
         "hypotheses": {"quasi_gorenstein": False, "cm_A": False},
         "witness": {"i": 2, "sigma": [2], "delta": 0, "delta_b": 1}},
    ),
    Failure: (
        lambda: collapse_onto(_fx("paper-cex1-A"), {1, 2, 5}),
        ("stuck_complex", "partial_trace", "reason"),
        {"start": [[1, 2, 3], [1, 2, 4]],
         "steps": [{"free": [1, 4], "coface": [1, 2, 4]},
                   {"free": [1, 2], "coface": [1, 2, 3]},
                   {"free": [1], "coface": [1, 3]}],
         "stuck": [[2, 3], [2, 4]],
         "reason": "link of vertex 2 is stuck with no usable free face"},
    ),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_report_is_a_value(cls):
    build, fields, payload = CASES[cls]
    report, again = build(), build()
    assert type(report) is cls and report is not again
    assert report == again and not report != again
    assert list(vars(report)) == list(fields)
    changed = cls(**{**vars(report), next(iter(fields)): "changed"})
    assert changed != report
    text = repr(report)
    assert text.startswith(cls.__name__ + "(")
    for name in fields:
        assert f"{name}=" in text, name
    with pytest.raises(TypeError):
        hash(report)
    if payload is None:
        assert vars(report) == fields
        assert not hasattr(report, "to_json")
    else:
        assert report.to_json() == payload


def test_report_methods_read_the_fields():
    links = _moebius(link_restriction_check)
    linkage = _moebius(cm_linkage_check)
    assert not links and not linkage
    assert LinkRestrictionReport(ok=True, witnesses=[], hypotheses_met=False)
    assert CmLinkageReport(ok=True, hypotheses_met=False, hypotheses={}, witness=None)
    components, two_connected, points = CASES[ConnectivityReport][0]()
    assert (components, two_connected, points) == (1, False, [1])
    assert _moebius(lefschetz_report).duality_ok


def test_traces_and_partitions_compare_by_value():
    # the reports that hold them compare by value only if they do
    delta = _fx("paper-moebius")
    assert FacetPartition.complementary(delta, [0, 2]) == FacetPartition({2, 0}, {1, 3, 4})
    assert FacetPartition({0}, {1}) != FacetPartition({1}, {0})
    triangle = from_facets([[1, 2, 3]], 3)
    assert collapse_onto(triangle, {2, 3}) == collapse_onto(triangle, {3, 2})
    assert collapse_onto(triangle, {2, 3}) != collapse_onto(triangle, {3})
