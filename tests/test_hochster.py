"""Local cohomology tables, depth, a-invariant, Buchsbaum and Serre."""

import pytest

from qgor import (
    GF2,
    GF3,
    QQ,
    a_invariant,
    depth_report,
    from_facets,
    is_buchsbaum,
    is_quasi_gorenstein,
    link,
    local_cohomology_table,
    normal_pseudomanifold_report,
    reduced_betti,
    serre_condition,
)
from _oracles import cohen_macaulay_direct
from qgor.fixtures import corpus, get_fixture

FIELDS = [QQ, GF2, GF3]


def test_table_of_polynomial_ring():
    # full triangle: k[x,y,z], one socle entry at the top multidegree
    delta = from_facets([[1, 2, 3]], 3)
    for field in FIELDS:
        table = local_cohomology_table(delta, field)
        assert table.d == 3
        assert table.entries() == [(3, (1, 2, 3), 1)]
        assert table.totals() == [(3, -3, 1)]


def test_table_of_four_cycle():
    delta = get_fixture("four-cycle").complex()
    table = local_cohomology_table(delta, QQ)
    assert table.d == 2
    expected = {(2, ()): 1}
    for v in (1, 2, 3, 4):
        expected[(2, (v,))] = 1
    for e in [(1, 2), (1, 4), (2, 3), (3, 4)]:
        expected[(2, e)] = 1
    assert {(i, s): v for i, s, v in table.entries()} == expected
    assert table.entry(1, ()) == 0
    assert table.entry(2, (1, 2)) == 1


def test_table_of_two_points():
    delta = get_fixture("two-points").complex()
    table = local_cohomology_table(delta, QQ)
    assert {(i, s): v for i, s, v in table.entries()} == {
        (1, ()): 1,
        (1, (1,)): 1,
        (1, (2,)): 1,
    }


def test_table_entries_match_link_cohomology():
    # dim of the -sigma piece of H^i equals H~^{i-|sigma|-1} of the link
    for name in ("four-cycle", "paper-moebius", "wedge-triangles"):
        delta = get_fixture(name).complex()
        for field in (QQ, GF2):
            table = local_cohomology_table(delta, field)
            for sigma in delta.faces():
                betti = reduced_betti(link(delta, sigma), field)
                for i in range(0, table.d + 1):
                    assert table.entry(i, sigma) == betti[i - len(sigma) - 1], (name, sigma, i)


def test_depth_of_sphere():
    report = depth_report(get_fixture("boundary-3-simplex").complex(), QQ)
    assert report.depth == 3
    assert report.is_cohen_macaulay
    assert report.witness is None


def test_depth_of_disjoint_triangles():
    report = depth_report(get_fixture("two-triangles").complex(), QQ)
    assert report.depth == 1
    assert not report.is_cohen_macaulay
    assert report.witness == (1, ())


def test_projective_plane_cm_flips_with_characteristic():
    delta = get_fixture("rp2-6").complex()
    assert not depth_report(delta, GF2).is_cohen_macaulay
    assert depth_report(delta, QQ).is_cohen_macaulay
    assert depth_report(delta, GF3).is_cohen_macaulay


def test_cm_two_code_paths_agree_on_corpus():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            via_table = depth_report(delta, field).is_cohen_macaulay
            direct = cohen_macaulay_direct(delta, field)
            assert via_table == direct, (fx.name, field)


def test_a_invariant_examples():
    assert a_invariant(from_facets([[1, 2, 3]], 3), QQ) == -3
    assert a_invariant(get_fixture("boundary-3-simplex").complex(), QQ) == 0
    assert a_invariant(get_fixture("cone-four-cycle").complex(), QQ) == -1


def test_a_invariant_never_positive_and_zero_iff_top_homology():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            a = a_invariant(delta, field)
            assert a <= 0, (fx.name, field)
            top = reduced_betti(delta, field)[delta.dim]
            assert (a == 0) == (top != 0), (fx.name, field)


def test_totals_never_in_positive_degree():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            table = local_cohomology_table(delta, field)
            for i, j, dim in table.totals():
                assert j <= 0 and dim > 0, (fx.name, field, i, j)
                assert i <= table.d


def test_is_buchsbaum_examples():
    ok, witness = is_buchsbaum(get_fixture("boundary-3-simplex").complex(), QQ)
    assert ok and witness is None

    # the definition exempts sigma = {}, so disjoint triangles pass
    ok, witness = is_buchsbaum(get_fixture("two-triangles").complex(), QQ)
    assert ok and witness is None

    ok, witness = is_buchsbaum(get_fixture("wedge-triangles").complex(), QQ)
    assert not ok
    assert witness == ((1,), 0)


def test_buchsbaum_forces_degree_zero_below_top():
    # below the top index, a Buchsbaum table is supported on sigma = {} only
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            if not is_buchsbaum(delta, field)[0]:
                continue
            table = local_cohomology_table(delta, field)
            for i, sigma, dim in table.entries():
                if i < table.d:
                    assert sigma == (), (fx.name, field, i, sigma)


def test_serre_condition_examples():
    wedge = get_fixture("wedge-triangles").complex()
    assert not serre_condition(wedge, QQ, 2)
    assert serre_condition(wedge, QQ, 1)

    rp2 = get_fixture("rp2-6").complex()
    assert serre_condition(rp2, QQ, 3)
    assert not serre_condition(rp2, GF2, 3)

    for fx in corpus():
        assert serre_condition(fx.complex(), GF3, 1), fx.name


def test_serre_two_equals_normality():
    # (S_2) coincides with the combinatorial normality flag, every field
    for fx in corpus():
        delta = fx.complex()
        normal = normal_pseudomanifold_report(delta).normal
        for field in FIELDS:
            assert serre_condition(delta, field, 2) == normal, (fx.name, field)


def test_serre_rejects_bad_ell():
    delta = get_fixture("four-cycle").complex()
    with pytest.raises(ValueError):
        serre_condition(delta, QQ, 0)
    for ell in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="ell must be an int"):
            serre_condition(delta, QQ, ell)


def test_depth_bounded_by_krull_dimension():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            report = depth_report(delta, field)
            assert 1 <= report.depth <= delta.dim + 1, (fx.name, field)
            assert report.is_cohen_macaulay == (report.depth == delta.dim + 1)


def test_poincare_symmetry_degree_zero():
    # quasi-Gorenstein Buchsbaum complexes: total(d-i, 0) = total(i+1, 0)
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            if not (is_buchsbaum(delta, field)[0] and is_quasi_gorenstein(delta, field)):
                continue
            table = local_cohomology_table(delta, field)
            d = table.d
            total = {(i, j): v for i, j, v in table.totals()}
            for i in range(1, d - 1):
                assert total.get((d - i, 0), 0) == total.get((i + 1, 0), 0), (fx.name, field, i)
