"""Facet partitions, the Lefschetz sequence, linkage and connectivity checks."""

from itertools import combinations

import pytest

from qgor import (
    GF2,
    QQ,
    FacetPartition,
    HypothesesNotMet,
    IndexOutOfRange,
    InvalidPartition,
    NotPure,
    cm_linkage_check,
    depth_report,
    from_facets,
    is_buchsbaum,
    is_quasi_gorenstein,
    lefschetz_report,
    link_restriction_check,
    local_cohomology_table,
    restrict_to_facets,
    tconn_check,
)
from qgor.fixtures import get_fixture


def _partition(delta, a_indices):
    return FacetPartition.complementary(delta, a_indices)


def test_partition_validation():
    delta = get_fixture("boundary-3-simplex").complex()
    p = _partition(delta, [0, 1])
    assert p.a == frozenset({0, 1})
    assert p.b == frozenset({2, 3})
    with pytest.raises(InvalidPartition):
        FacetPartition(set(), {0, 1})
    with pytest.raises(InvalidPartition):
        FacetPartition({0}, {0, 1})
    with pytest.raises(IndexOutOfRange):
        _partition(delta, [9])
    with pytest.raises(InvalidPartition):
        _partition(delta, [0, 1, 2, 3])  # B would be empty
    with pytest.raises(InvalidPartition):
        FacetPartition({0}, {1}).validate_for(delta)


def test_partition_refuses_an_index_that_is_not_an_int():
    # 1.0 and True equal the int 1, so a frozenset alone would take them
    delta = get_fixture("csaszar-torus").complex()
    for bad in (1.0, True):
        with pytest.raises(InvalidPartition, match=f"facet index {bad!r} is not an int"):
            lefschetz_report(delta, FacetPartition({bad}, set(range(14)) - {1}), QQ)
    with pytest.raises(InvalidPartition, match="facet index 1.0 is not an int"):
        FacetPartition({1.0}, {0})
    with pytest.raises(InvalidPartition, match="facet index True is not an int"):
        FacetPartition([1, True], [0])
    with pytest.raises(InvalidPartition, match="facet index 'a' is not an int"):
        FacetPartition([0], ["a"])


def test_lefschetz_sphere_balanced_partition():
    delta = get_fixture("boundary-3-simplex").complex()
    report = lefschetz_report(delta, _partition(delta, [0, 1]), QQ)
    assert report.d == 2
    assert [t[0] for t in report.terms] == [
        "H~^0(Delta_B)",
        "H~_1(Delta_A)",
        "H~^1(Delta)",
        "H~^1(Delta_B)",
        "H~_0(Delta_A)",
    ]
    assert all(dim == 0 for _, dim in report.terms)
    assert report.alternating_sum == 0
    assert report.neighbor_bound_ok
    assert report.duality_ok
    assert report.hypotheses == {"quasi_gorenstein": True, "buchsbaum_A": True}


def test_lefschetz_torus_single_facet():
    delta = get_fixture("csaszar-torus").complex()
    report = lefschetz_report(delta, _partition(delta, [0]), QQ)
    assert report.hypotheses == {"quasi_gorenstein": True, "buchsbaum_A": True}
    assert report.alternating_sum == 0
    assert report.neighbor_bound_ok
    for i, rel, a_side in report.duality_pairs:
        assert rel == a_side, i
    dims = dict((label, dim) for label, dim in report.terms)
    assert dims["H~^1(Delta)"] == 2
    assert dims["H~_0(Delta_A)"] == 0


def test_lefschetz_printed_convention_differs_in_last_term():
    # the customary printed sequence ends with H~_1(Delta_A); the report
    # carries both alternating sums so the difference stays visible
    delta = get_fixture("csaszar-torus").complex()
    p = _partition(delta, [0])
    report = lefschetz_report(delta, p, QQ)
    from qgor import reduced_betti

    delta_a = restrict_to_facets(delta, p.a)
    b_a = reduced_betti(delta_a, QQ)
    k = len(report.terms) - 1
    sign = 1 if k % 2 == 0 else -1
    assert report.alternating_sum_printed == report.alternating_sum - sign * (b_a[0] - b_a[1])


def test_lefschetz_counterexample_two_flags_hypotheses():
    delta = get_fixture("paper-cex2").complex()
    a = [i for i, f in enumerate(delta.facets) if f in ((1, 2, 5), (3, 4, 5))]
    report = lefschetz_report(delta, _partition(delta, a), QQ)
    assert not report.hypotheses["buchsbaum_A"]
    assert not report.hypotheses["quasi_gorenstein"]


def test_lefschetz_rejects_impure_and_degenerate():
    with pytest.raises(NotPure):
        delta = from_facets([[1, 2, 3], [4, 5]], 5)
        lefschetz_report(delta, FacetPartition({0}, {1}), QQ)
    with pytest.raises(ValueError):
        lefschetz_report(from_facets([[]]), FacetPartition({0}, {1}), QQ)


def test_link_restriction_sphere():
    delta = get_fixture("boundary-3-simplex").complex()
    for a in ([0], [0, 1], [0, 1, 2]):
        result = link_restriction_check(delta, _partition(delta, a), QQ)
        assert result.ok and bool(result)
        assert result.witnesses == []
        assert result.hypotheses_met


def test_link_restriction_reports_violations_with_witnesses():
    # gluing wedge-like A onto the ambient complex of counterexample 2
    # violates the restriction claim and the hypotheses flag says why
    delta = get_fixture("paper-cex2").complex()
    a = [i for i, f in enumerate(delta.facets) if f in ((1, 2, 5), (3, 4, 5))]
    result = link_restriction_check(delta, _partition(delta, a), QQ)
    assert not result.hypotheses_met
    payload = result.to_json()
    assert payload["ok"] == result.ok
    for w in payload["witnesses"]:
        assert set(w) == {"sigma", "i", "in_b", "dim_restricted", "dim_ambient"}


def test_cm_linkage_sphere_and_cycle():
    sphere = get_fixture("boundary-3-simplex").complex()
    result = cm_linkage_check(sphere, _partition(sphere, [0]), QQ)
    assert result.ok and result.hypotheses_met and result.witness is None

    cycle = get_fixture("four-cycle").complex()
    result = cm_linkage_check(cycle, _partition(cycle, [0]), QQ)
    assert result.ok and result.hypotheses_met


def test_cm_linkage_without_hypotheses_still_compares():
    delta = get_fixture("two-triangles").complex()
    result = cm_linkage_check(delta, _partition(delta, [0]), QQ)
    assert not result.hypotheses_met
    assert not result.hypotheses["quasi_gorenstein"]
    assert result.hypotheses["cm_A"]
    # the comparison itself ran; {456} alone is CM while Delta is not,
    # so the below-top tables disagree and a witness is produced
    assert not result.ok
    assert result.witness is not None
    i, sigma, lhs, rhs = result.witness
    assert lhs != rhs


def test_cm_linkage_tables_agree_below_krull_dim():
    # independent recomputation of the comparison for one pair
    delta = get_fixture("boundary-3-simplex").complex()
    p = _partition(delta, [0])
    delta_b = restrict_to_facets(delta, p.b)
    d = delta.dim + 1
    t_full = local_cohomology_table(delta, QQ)
    t_b = local_cohomology_table(delta_b, QQ)
    assert {(i, s): v for i, s, v in t_full.entries() if i < d} == \
        {(i, s): v for i, s, v in t_b.entries() if i < d}
    assert cm_linkage_check(delta, p, QQ).ok


def test_tconn_on_valid_premises():
    torus = get_fixture("csaszar-torus").complex()
    assert tconn_check(torus, _partition(torus, [0]), QQ)

    cycle = get_fixture("four-cycle").complex()
    assert tconn_check(cycle, _partition(cycle, [0]), QQ)


def test_tconn_rejects_failing_premises():
    torus = get_fixture("csaszar-torus").complex()
    # |A| = 3 is not < dim + 1 = 3
    with pytest.raises(HypothesesNotMet) as exc:
        tconn_check(torus, _partition(torus, [0, 5, 9]), QQ)
    assert any("|A|" in msg for msg in exc.value.failed)

    rp2 = get_fixture("rp2-6").complex()
    with pytest.raises(HypothesesNotMet) as exc:
        tconn_check(rp2, _partition(rp2, [0]), QQ)
    assert any("quasi-Gorenstein" in msg for msg in exc.value.failed)


def test_tconn_exhaustive_small_spheres():
    for name in ("boundary-2-simplex", "boundary-3-simplex", "four-cycle"):
        delta = get_fixture(name).complex()
        m = len(delta.facets)
        for size in range(1, delta.dim + 1):
            for a in combinations(range(m), size):
                if len(a) >= m:
                    continue
                delta_a = restrict_to_facets(delta, a)
                if not is_buchsbaum(delta_a, QQ)[0]:
                    continue
                assert tconn_check(delta, _partition(delta, a), QQ), (name, a)


def test_liaison_report_serialization():
    delta = get_fixture("csaszar-torus").complex()
    report = lefschetz_report(delta, _partition(delta, [0, 3]), GF2)
    payload = report.to_json()
    assert payload["field"] == "2"
    assert payload["a"] == [1, 4]
    assert len(payload["b"]) == 12
    assert payload["terms"][0]["label"] == "H~^0(Delta_B)"
    assert payload["terms"][-1]["label"] == "H~_0(Delta_A)"
    assert isinstance(payload["duality_ok"], bool)
