"""Classification predicates: pseudomanifolds, orientability, (quasi-)Gorenstein."""

import random
from unittest import mock

import pytest
from _perfbench import families, gen

import qgor
from qgor import (
    GF2,
    GF3,
    QQ,
    CapacityExceeded,
    NotAPseudomanifold,
    NotPure,
    a_invariant,
    classification_report,
    core,
    from_facets,
    is_buchsbaum,
    is_gorenstein,
    is_homology_manifold,
    is_orientable,
    is_pseudomanifold,
    is_quasi_gorenstein,
    is_strongly_connected,
    normal_pseudomanifold_report,
    reduced_betti,
    serre_condition,
)
from qgor.fixtures import corpus, get_fixture

FIELDS = [QQ, GF2, GF3]


def test_normal_pseudomanifold_sphere():
    report = normal_pseudomanifold_report(get_fixture("boundary-3-simplex").complex())
    assert report.ok
    assert report.pure and report.normal and report.ridge_condition
    assert report.witnesses == {}


def test_normal_pseudomanifold_moebius():
    # normality holds but the boundary edges sit in a single facet each
    report = normal_pseudomanifold_report(get_fixture("paper-moebius").complex())
    assert report.normal
    assert not report.ridge_condition
    assert not report.ok
    assert report.witnesses["ridge_condition"] == ((1, 3), 1)


def test_normal_pseudomanifold_wedge():
    report = normal_pseudomanifold_report(get_fixture("wedge-triangles").complex())
    assert not report.normal
    assert report.witnesses["normal"] == (1,)


def test_normal_pseudomanifold_zero_dimensional():
    # in dimension 0 the ridge is the empty face: a 0-sphere passes,
    # three points have it in three facets
    assert normal_pseudomanifold_report(get_fixture("two-points").complex()).ok
    three = from_facets([[1], [2], [3]], 3)
    report = normal_pseudomanifold_report(three)
    assert not report.ridge_condition
    assert report.witnesses["ridge_condition"] == ((), 3)


def test_normal_pseudomanifold_rejects_degenerate():
    with pytest.raises(ValueError):
        normal_pseudomanifold_report(from_facets([]))
    with pytest.raises(ValueError):
        normal_pseudomanifold_report(from_facets([[]]))


PSEUDOMANIFOLD_CASES = [(f.name, f.complex()) for f in corpus()] + [
    ("three-points", from_facets([[1], [2], [3]], 3)),
    ("two-four-cycles", from_facets([[1, 2], [2, 3], [3, 4], [1, 4],
                                     [5, 6], [6, 7], [7, 8], [5, 8]], 8)),
    ("edge-in-three-triangles", from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]], 5)),
]


@pytest.mark.parametrize("delta", [c for _, c in PSEUDOMANIFOLD_CASES],
                         ids=[name for name, _ in PSEUDOMANIFOLD_CASES])
def test_pseudomanifold_ridge_count_agrees_with_the_report(delta):
    want = normal_pseudomanifold_report(delta).ridge_condition and is_strongly_connected(delta)
    assert is_pseudomanifold(delta) == want


def test_pseudomanifold_predicates_answer_over_the_face_cap(monkeypatch):
    # Counting ridges is linear in the facets, so is_pseudomanifold answers
    # facets over the face cap; orientability refuses them as homology does.
    monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", 31)
    boundary = from_facets([[v for v in range(1, 7) if v != w] for w in range(1, 7)], 6)
    assert is_pseudomanifold(boundary)
    with pytest.raises(NotAPseudomanifold):
        is_orientable(from_facets([list(range(1, 7))], 6))
    with pytest.raises(CapacityExceeded):
        is_orientable(boundary)
    with pytest.raises(CapacityExceeded):
        classification_report(boundary, QQ)


def test_strong_connectivity():
    assert is_strongly_connected(get_fixture("boundary-3-simplex").complex())
    assert not is_strongly_connected(get_fixture("two-triangles").complex())
    assert is_strongly_connected(get_fixture("csaszar-torus").complex())
    with pytest.raises(NotPure):
        is_strongly_connected(from_facets([[1, 2, 3], [4, 5]], 5))


def test_orientability():
    assert is_orientable(get_fixture("boundary-3-simplex").complex())
    assert not is_orientable(get_fixture("rp2-6").complex())
    assert is_orientable(get_fixture("csaszar-torus").complex())


def test_long_cycle_is_orientable_without_elimination():
    # a cycle is a graph, so orientability reads E - V + c and no
    # boundary is built
    cycle = qgor.SimplicialComplex(4100, sorted((i, i % 4100 + 1) for i in range(1, 4101)))
    with mock.patch.object(qgor.homology, "rank", wraps=qgor.homology.rank) as spy:
        assert is_orientable(cycle) is True
        assert classification_report(cycle, GF2).orientable is True
    assert spy.call_count == 0


def test_orientation_cover_matches_rational_top_homology():
    cases = [d for d in families(random.Random(14)) if is_pseudomanifold(d)]
    assert len(cases) >= 30 and 0 < sum(map(is_orientable, cases)) < len(cases)
    for delta in cases:
        # elimination, since reduced_betti answers a surface off the same walk
        want = qgor.homology._betti(qgor.homology._cells(delta), QQ)[delta.dim] != 0
        assert is_orientable(delta) == want, delta
        for field in FIELDS:
            assert classification_report(delta, field).orientable == want, (delta, field)


def test_orientability_requires_pseudomanifold():
    assert not is_pseudomanifold(get_fixture("paper-moebius").complex())
    with pytest.raises(NotAPseudomanifold):
        is_orientable(get_fixture("paper-moebius").complex())
    with pytest.raises(NotAPseudomanifold):
        is_orientable(get_fixture("two-triangles").complex())
    # a non-pure complex and the empty complex have no ridge map
    for delta in (from_facets([[1, 2, 3], [3, 4]], 4), from_facets([[]])):
        assert not is_pseudomanifold(delta)
        with pytest.raises(NotAPseudomanifold):
            is_orientable(delta)


def test_homology_manifold():
    assert is_homology_manifold(get_fixture("boundary-3-simplex").complex(), QQ) == (True, True)
    assert is_homology_manifold(get_fixture("csaszar-torus").complex(), QQ) == (True, False)
    assert is_homology_manifold(get_fixture("wedge-triangles").complex(), QQ) == (False, False)
    # in dimension 0 the ridge is the empty face, which no link scan reads:
    # three points are a closed 0-manifold, but not a 0-sphere
    assert is_homology_manifold(from_facets([[1], [2], [3]], 3), QQ) == (True, False)
    assert is_homology_manifold(get_fixture("two-points").complex(), QQ) == (True, True)


def test_full_simplices_as_manifolds():
    # a single vertex is a closed 0-manifold (its link is the (-1)-sphere);
    # a full triangle is not closed: edge links are single points
    assert is_homology_manifold(get_fixture("full-simplex-1").complex(), QQ) == (True, False)
    assert is_homology_manifold(get_fixture("full-simplex-3").complex(), QQ) == (False, False)


def test_quasi_gorenstein():
    for field in FIELDS:
        assert is_quasi_gorenstein(get_fixture("boundary-3-simplex").complex(), field)
        assert is_quasi_gorenstein(get_fixture("four-cycle").complex(), field)
    rp2 = get_fixture("rp2-6").complex()
    assert is_quasi_gorenstein(rp2, GF2)
    assert not is_quasi_gorenstein(rp2, QQ)
    assert not is_quasi_gorenstein(rp2, GF3)


def test_gorenstein():
    for field in FIELDS:
        assert is_gorenstein(get_fixture("boundary-3-simplex").complex(), field)
        assert is_gorenstein(from_facets([[1, 2, 3]], 3), field)
    assert not is_gorenstein(get_fixture("csaszar-torus").complex(), QQ)
    # the cone is Gorenstein through its core although the cone itself
    # is contractible, hence not quasi-Gorenstein in the strict sense
    cone = get_fixture("cone-four-cycle").complex()
    assert is_gorenstein(cone, QQ)
    assert not is_quasi_gorenstein(cone, QQ)


def test_report_flag_implications_on_corpus():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            r = classification_report(delta, field)
            if r.normal_pseudomanifold:
                assert r.pure and r.normal and r.pseudomanifold_ridge_condition
            if r.gorenstein and core(delta) == delta:
                assert r.quasi_gorenstein and r.cohen_macaulay
            if r.homology_sphere:
                assert r.homology_manifold
            top = reduced_betti(delta, field)[delta.dim]
            assert r.quasi_gorenstein == (r.normal_pseudomanifold and top != 0), (fx.name, field)


def test_quasi_gorenstein_forces_a_invariant_zero():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            if is_quasi_gorenstein(delta, field):
                assert a_invariant(delta, field) == 0, (fx.name, field)


def test_normal_pseudomanifold_has_top_homology_mod_two():
    for fx in corpus():
        delta = fx.complex()
        if normal_pseudomanifold_report(delta).ok:
            assert reduced_betti(delta, GF2)[delta.dim] != 0, fx.name


def test_buchsbaum_normal_pseudomanifolds_are_manifolds():
    for fx in corpus():
        delta = fx.complex()
        if not normal_pseudomanifold_report(delta).ok:
            continue
        for field in FIELDS:
            if is_buchsbaum(delta, field)[0]:
                manifold, _ = is_homology_manifold(delta, field)
                assert manifold, (fx.name, field)


def test_normality_flag_is_field_independent_serre_two():
    # on a pure complex the faces below the ridges are those whose links
    # have dimension >= 1, where (S_2) asks H~_0 = 0, that is connectivity
    rng = random.Random(18)
    cases = families(rng) + [gen.random_pure(rng, rng.randint(5, 7), rng.randint(1, 2),
                                             rng.randint(2, 8)) for _ in range(40)]
    for delta in cases:
        report = classification_report(delta, QQ)
        assert normal_pseudomanifold_report(delta).normal == report.normal, delta
        for field in FIELDS:
            assert serre_condition(delta, field, 2) == report.normal, (delta, field)


def test_report_witnesses_and_serialization():
    r = classification_report(get_fixture("paper-moebius").complex(), QQ)
    payload = r.to_json()
    assert payload["field"] == "q"
    assert payload["witnesses"]["ridge_condition"] == {"face": [1, 3], "count": 1}
    assert payload["orientable"] is False
    assert payload["pseudomanifold_ridge_condition"] is False

    r = classification_report(get_fixture("wedge-triangles").complex(), GF2)
    assert r.to_json()["witnesses"]["normal"] == [1]


def test_non_pseudomanifold_reports_false_instead_of_raising():
    r = classification_report(get_fixture("two-triangles").complex(), QQ)
    assert not r.orientable
    assert not r.strongly_connected
    r = classification_report(get_fixture("paper-moebius").complex(), QQ)
    assert not r.orientable


def test_report_runs_one_normal_pseudomanifold_pass_per_complex(monkeypatch):
    # The complex and, when it differs, its nonempty core: one pass each.
    passes = []
    view = qgor.classify._Analysis.__dict__["normal"]
    original = view.func

    def counting(analysis):
        passes.append(analysis.delta)
        return original(analysis)

    monkeypatch.setattr(view, "func", counting)
    distinct = {"csaszar-torus": 1, "rp2-6": 1, "cone-four-cycle": 2, "paper-cex1": 2}
    for fx in corpus():
        delta = fx.complex()
        if delta.is_empty:
            continue
        complexes = {delta, core(delta)} - {from_facets([()], delta.n_vertices)}
        assert len(complexes) == distinct.get(fx.name, len(complexes)), fx.name
        for field in FIELDS:
            passes.clear()
            classification_report(delta, field)
            assert sorted(passes, key=repr) == sorted(complexes, key=repr), (fx.name, field)
