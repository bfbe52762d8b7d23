"""Canonical complexes, links, restrictions, cores."""

import inspect
import random
import time

import pytest

import qgor
from qgor import (
    CapacityExceeded,
    EmptySelection,
    IndexOutOfRange,
    NotAFace,
    VertexOutOfRange,
    core,
    face,
    faces_avoiding,
    from_facets,
    link,
    restrict_to_facets,
)
from qgor.fixtures import corpus, get_fixture

MOEBIUS = [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]]


def test_face_canonicalizes():
    assert face([3, 1, 2]) == (1, 2, 3)
    assert face([2, 2, 1]) == (1, 2)
    assert face([]) == ()


def test_from_facets_absorbs_nonmaximal():
    delta = from_facets([[1, 2, 3], [1, 2]], 3)
    assert delta.facets == ((1, 2, 3),)


def test_from_facets_dedupes():
    delta = from_facets([[1, 2], [2, 1], [1, 2]])
    assert delta.facets == ((1, 2),)


def test_from_facets_keeps_moebius_facets():
    delta = from_facets(MOEBIUS, 5)
    assert len(delta.facets) == 5
    assert delta.dim == 2


def test_from_facets_two_isolated_vertices():
    delta = from_facets([[1], [2]], 2)
    assert delta.dim == 0
    assert delta.facets == ((1,), (2,))


def test_from_facets_canonical_order():
    # size first, lexicographic second
    delta = from_facets([[2, 3], [1], [1, 4, 5], [1, 2]], 5)
    assert delta.facets == ((1, 2), (2, 3), (1, 4, 5))


def test_from_facets_rejects_bad_ids():
    with pytest.raises(VertexOutOfRange):
        from_facets([[0, 1]], 2)
    with pytest.raises(VertexOutOfRange):
        from_facets([[-3]], 2)
    with pytest.raises(VertexOutOfRange):
        from_facets([[1, 2, 3]], 2)


def test_from_facets_checks_id_types_before_canonicalizing():
    # True == 1 would vanish into 1, and a str or None cannot be sorted
    # with ints: each is named, with the entry as given
    for entry in ([1, True, 3], [True, 2], [1, "a"], [1, None], [2, 1.0]):
        with pytest.raises(VertexOutOfRange) as exc:
            from_facets([entry])
        bad = next(v for v in entry if type(v) is not int)
        assert str(exc.value) == f"vertex id {bad!r} in facet {entry} is not an integer"
    # an entry given as an iterator is read once
    assert from_facets([iter([3, 1])]).facets == ((1, 3),)
    with pytest.raises(VertexOutOfRange, match=r"vertex id 0 in facet \[0, 0, 2\] is not positive"):
        from_facets([(v for v in (2, 0, 0))])


def test_from_facets_checks_the_type_of_n_vertices():
    # a float or bool equal to an int is refused, like a str
    for n_vertices in (2.0, True, "3"):
        with pytest.raises(VertexOutOfRange) as exc:
            from_facets([[1]], n_vertices)
        assert str(exc.value) == f"n_vertices {n_vertices!r} is not an integer"
    assert from_facets([[1]], None).n_vertices == 1
    assert from_facets([[1]], 2).n_vertices == 2


def test_void_and_empty_are_distinct():
    void = from_facets([])
    empty = from_facets([[]])
    assert void.is_void and not void.is_empty
    assert empty.is_empty and not empty.is_void
    assert empty.dim == -1
    with pytest.raises(ValueError):
        void.dim
    assert list(empty.faces()) == [()]
    assert list(void.faces()) == []


def test_from_facets_idempotent_on_corpus():
    for fx in corpus():
        delta = fx.complex()
        again = from_facets(delta.facets, delta.n_vertices)
        assert again == delta, fx.name


def test_from_facets_absorbs_like_pairwise_containment():
    # the reference tests every face against every other one
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        raw = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(0, 12))]
        faces = {face(f) for f in raw}
        maximal = [f for f in faces if not any(set(f) < set(g) for g in faces)]
        assert from_facets(raw, n).facets == tuple(sorted(maximal, key=lambda f: (len(f), f))), raw


def test_link_of_vertex_in_sphere():
    delta = get_fixture("boundary-3-simplex").complex()
    lk = link(delta, (1,))
    assert lk.facets == ((2, 3), (2, 4), (3, 4))
    assert lk.n_vertices == delta.n_vertices


def test_link_of_empty_face_is_whole_complex():
    for fx in corpus():
        delta = fx.complex()
        assert link(delta, ()) == delta, fx.name


def test_link_of_moebius_edge():
    delta = from_facets(MOEBIUS, 5)
    assert link(delta, (1, 2)).facets == ((3,), (5,))


def test_link_of_facet_is_empty_complex():
    delta = get_fixture("four-cycle").complex()
    lk = link(delta, (1, 2))
    assert lk.is_empty and not lk.is_void


def test_link_rejects_nonfaces():
    delta = get_fixture("four-cycle").complex()
    with pytest.raises(NotAFace):
        link(delta, (1, 3))


def test_link_join_property_on_corpus():
    # every face of lk(sigma), joined with sigma, is a face of the complex
    for fx in corpus():
        delta = fx.complex()
        for sigma in delta.faces():
            lk = link(delta, sigma)
            for tau in lk.faces():
                assert not set(tau) & set(sigma)
                assert delta.is_face(set(tau) | set(sigma)), (fx.name, sigma, tau)


def test_restrict_to_facets():
    delta = get_fixture("paper-cex1").complex()
    assert delta.facets == ((1, 2, 3), (1, 2, 4), (1, 2, 5))
    sub = restrict_to_facets(delta, [0, 1])
    assert sub.facets == ((1, 2, 3), (1, 2, 4))

    assert restrict_to_facets(delta, range(3)) == delta

    cycle = get_fixture("four-cycle").complex()
    edge = restrict_to_facets(cycle, [0])
    assert edge.facets == (cycle.facets[0],)

    # a selection of canonical facets is the complex they generate
    rng = random.Random(20240601)
    for fx in corpus():
        delta = fx.complex()
        m = len(delta.facets)
        selections = [range(m), [0], [m - 1]]
        selections += [rng.sample(range(m), rng.randint(1, m)) for _ in range(10)]
        for idx in selections:
            want = from_facets([delta.facets[i] for i in idx], delta.n_vertices)
            assert restrict_to_facets(delta, idx) == want, (fx.name, sorted(idx))


def test_restrict_to_facets_errors():
    delta = get_fixture("four-cycle").complex()
    with pytest.raises(EmptySelection):
        restrict_to_facets(delta, [])
    with pytest.raises(IndexOutOfRange):
        restrict_to_facets(delta, [4])
    with pytest.raises(IndexOutOfRange):
        restrict_to_facets(delta, [-1])


def test_faces_avoiding():
    delta_a = from_facets([[1, 2, 3], [1, 2, 4]], 5)
    gamma = faces_avoiding(delta_a, {1, 2, 5})
    assert gamma.facets == ((3,), (4,))

    cycle = get_fixture("four-cycle").complex()
    assert faces_avoiding(cycle, set()) == cycle
    assert faces_avoiding(cycle, {1}).facets == ((2, 3), (3, 4))


def test_faces_avoiding_everything_leaves_empty():
    delta = from_facets([[1, 2]], 2)
    gamma = faces_avoiding(delta, {1, 2})
    assert gamma.is_empty


def test_core():
    assert core(from_facets([[1, 2, 3]], 3)).is_empty
    sphere = get_fixture("boundary-3-simplex").complex()
    assert core(sphere) == sphere
    cone = get_fixture("cone-four-cycle").complex()
    assert core(cone) == from_facets([[1, 2], [2, 3], [3, 4], [1, 4]], 5)


def test_core_idempotent_on_corpus():
    for fx in corpus():
        once = core(fx.complex())
        assert core(once) == once, fx.name


def test_face_enumeration_cap(monkeypatch):
    delta = get_fixture("csaszar-torus").complex()
    monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", 10)
    with pytest.raises(CapacityExceeded):
        delta.faces()
    monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", 3)
    with pytest.raises(CapacityExceeded):
        delta.faces_of_dim(1)
    monkeypatch.undo()
    assert len(delta.faces()) == 1 + 7 + 21 + 14


def test_faces_of_dim_screens_the_span_first():
    # one 30-vertex facet: its 14-faces alone are C(30, 15) > 2^24, and the
    # span 2^30 refuses every dimension before a single face is built
    wide = from_facets([range(1, 31)])
    start = time.perf_counter()
    for k in (-1, 0, 14):
        with pytest.raises(CapacityExceeded):
            wide.faces_of_dim(k)
    assert time.perf_counter() - start < 1


def test_no_public_callable_takes_a_cap():
    # the face cap is the constant simplicial_core.FACE_CAP, not a parameter
    for name in qgor.__all__:
        obj = getattr(qgor, name)
        members = [getattr(obj, k) for k in vars(obj)] if inspect.isclass(obj) else [obj]
        for fn in members:
            if inspect.isfunction(fn) or inspect.ismethod(fn):
                assert "cap" not in inspect.signature(fn).parameters, (name, fn.__name__)


def test_faces_of_dim_ranges():
    delta = get_fixture("four-cycle").complex()
    assert delta.faces_of_dim(-1) == [()]
    assert delta.faces_of_dim(0) == [(1,), (2,), (3,), (4,)]
    assert delta.faces_of_dim(1) == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert delta.faces_of_dim(2) == []
    assert delta.faces_of_dim(-2) == []


def test_is_face_and_vertices():
    delta = from_facets([[1, 3, 5]], 6)
    assert delta.is_face(())
    assert delta.is_face((3, 5))
    assert not delta.is_face((2,))
    assert delta.vertices() == (1, 3, 5)
    assert delta.n_vertices == 6
