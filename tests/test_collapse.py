"""Free faces, guided collapses, trace verification."""

import hashlib
import random
from itertools import combinations

import pytest
from _perfbench import gen

from qgor import (
    GF2,
    QQ,
    CapacityExceeded,
    CollapseTrace,
    Failure,
    InvalidStep,
    collapse_onto,
    faces_avoiding,
    free_faces,
    from_facets,
    reduced_betti,
    simplicial_core,
    verify_trace,
)
from qgor.fixtures import corpus, get_fixture

FIELDS = [QQ, GF2]


def _random_complexes(seed, count):
    """Seeded complexes on at most 7 vertices, each with a random forbidden set."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        facets = [rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))
                  for _ in range(rng.randint(1, 6))]
        forbidden = {v for v in range(1, n + 1) if rng.random() < 0.4}
        out.append((from_facets(facets, n), forbidden))
    return out


def _collapse_cases():
    """Every fixture against every subset of its vertices, then random cases."""
    for fx in corpus():
        delta = fx.complex()
        verts = delta.vertices()
        for k in range(len(verts) + 1):
            for forbidden in combinations(verts, k):
                yield delta, set(forbidden)
    yield from _random_complexes(20261018, 300)


def test_free_faces_of_single_triangle():
    delta = from_facets([[1, 2, 3]], 3)
    pairs = free_faces(delta)
    assert pairs == [
        ((1, 2), (1, 2, 3)),
        ((1, 3), (1, 2, 3)),
        ((2, 3), (1, 2, 3)),
    ]


def test_free_faces_of_closed_sphere_is_empty():
    assert free_faces(get_fixture("boundary-3-simplex").complex()) == []


def test_free_faces_of_two_glued_triangles():
    delta = from_facets([[1, 2, 3], [2, 3, 4]], 4)
    pairs = free_faces(delta)
    # the shared edge (2,3) has two cofaces; each boundary edge has one;
    # every vertex has several. The empty face never counts.
    assert pairs == [
        ((1, 2), (1, 2, 3)),
        ((1, 3), (1, 2, 3)),
        ((2, 4), (2, 3, 4)),
        ((3, 4), (2, 3, 4)),
    ]


def test_free_faces_of_lone_edge_includes_vertices():
    delta = from_facets([[1, 2]], 2)
    assert free_faces(delta) == [((1,), (1, 2)), ((2,), (1, 2))]


def test_collapse_two_triangles_onto_shared_edge():
    delta_a = from_facets([[1, 2, 3], [2, 3, 4]], 4)
    trace = collapse_onto(delta_a, {1, 4})
    assert isinstance(trace, CollapseTrace)
    assert trace.end == faces_avoiding(delta_a, {1, 4})
    assert trace.end.facets == ((2, 3),)
    # v' = 2 in both rounds, so the free pair deleting (2,) is skipped
    assert trace.steps == (
        ((1, 3), (1, 2, 3)),
        ((1,), (1, 2)),
        ((3, 4), (2, 3, 4)),
        ((4,), (2, 4)),
    )
    for field in FIELDS:
        assert verify_trace(trace, field)


def test_collapse_star_onto_center():
    delta_a = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4]], 4)
    trace = collapse_onto(delta_a, {2, 3, 4})
    assert isinstance(trace, CollapseTrace)
    assert trace.end.facets == ((1,),)
    assert verify_trace(trace, QQ)


def test_collapse_triangle_to_vertex():
    trace = collapse_onto(from_facets([[1, 2, 3]], 3), {2, 3})
    assert isinstance(trace, CollapseTrace)
    assert trace.end.facets == ((1,),)
    assert len(trace.steps) == 3
    assert verify_trace(trace, QQ)


def test_collapse_counterexample_one_fails():
    # two triangles glued along an edge cannot collapse onto the
    # complement of {1,2,5}: the target is two isolated vertices
    delta_a = get_fixture("paper-cex1-A").complex()
    result = collapse_onto(delta_a, {1, 2, 5})
    assert isinstance(result, Failure)
    target = faces_avoiding(delta_a, {1, 2, 5})
    b_a = reduced_betti(delta_a, QQ)
    b_t = reduced_betti(target, QQ)
    assert b_a[0] == 0 and b_t[0] == 1  # the certifying mismatch
    assert result.partial_trace.start == delta_a


def test_collapse_counterexample_two_fails():
    # Delta_B = <235,145,123> touches every vertex, so the target is the
    # empty complex and no collapse can reach it
    delta_a = get_fixture("paper-cex2-A").complex()
    forbidden = {1, 2, 3, 4, 5}
    result = collapse_onto(delta_a, forbidden)
    assert isinstance(result, Failure)
    target = faces_avoiding(delta_a, forbidden)
    assert target.is_empty
    assert reduced_betti(delta_a, QQ) != reduced_betti(target, QQ)
    assert reduced_betti(target, QQ)[-1] == 1


def test_collapse_nothing_to_do():
    delta = get_fixture("four-cycle").complex()
    trace = collapse_onto(delta, {9})
    assert isinstance(trace, CollapseTrace)
    assert trace.steps == ()
    assert trace.end == delta


def test_collapse_preserves_betti_on_corpus():
    for fx in corpus():
        delta = fx.complex()
        verts = delta.vertices()
        result = collapse_onto(delta, {verts[0]})
        if isinstance(result, CollapseTrace):
            assert result.end == faces_avoiding(delta, {verts[0]}), fx.name
            for field in FIELDS:
                assert verify_trace(result, field), (fx.name, field)
        else:
            # a stuck collapse must still leave a replayable partial trace
            assert result.partial_trace.start == delta
            assert result.reason


def test_verify_trace_rejects_forged_steps():
    delta_a = from_facets([[1, 2, 3], [2, 3, 4]], 4)
    trace = collapse_onto(delta_a, {1, 4})
    forged = CollapseTrace(trace.start, trace.end, [((2, 3), (2, 3, 4))] + list(trace.steps[1:]))
    with pytest.raises(InvalidStep) as exc:
        verify_trace(forged, QQ)
    assert exc.value.index == 0


def test_verify_trace_rejects_a_repeated_pair():
    # the pair is gone after its first step, so its repeat names a missing pair
    trace = collapse_onto(from_facets([[1, 2, 3], [2, 3, 4]], 4), {1, 4})
    steps = list(trace.steps)
    forged = CollapseTrace(trace.start, trace.end, steps[:2] + [steps[1]] + steps[2:])
    with pytest.raises(InvalidStep) as exc:
        verify_trace(forged, QQ)
    assert exc.value.index == 2
    assert str(exc.value) == "step 2: pair ((1,), (1, 2)) is not in the complex"


def test_verify_trace_rejects_a_face_with_two_covers():
    # (2, 3) lies in both triangles; the end is what removing the pair
    # would leave, so only the free test can refuse the step
    delta = from_facets([[1, 2, 3], [2, 3, 4]], 4)
    forged = CollapseTrace(delta, from_facets([[1, 2], [1, 3], [2, 3, 4]], 4),
                           [((2, 3), (1, 2, 3))])
    with pytest.raises(InvalidStep) as exc:
        verify_trace(forged, QQ)
    assert str(exc.value) == "step 0: face (2, 3) is not free with coface (1, 2, 3)"


def test_verify_trace_rejects_the_empty_face():
    # () is a face with the one cover (1,), yet it is never free
    point = from_facets([[1]], 1)
    forged = CollapseTrace(point, from_facets([], 1), [((), (1,))])
    with pytest.raises(InvalidStep) as exc:
        verify_trace(forged, QQ)
    assert str(exc.value) == "step 0: face () is not free with coface (1,)"


def test_verify_trace_rejects_wrong_end():
    delta_a = from_facets([[1, 2, 3], [2, 3, 4]], 4)
    trace = collapse_onto(delta_a, {1, 4})
    wrong = CollapseTrace(trace.start, from_facets([[2]], 4), trace.steps)
    with pytest.raises(InvalidStep):
        verify_trace(wrong, QQ)


def test_failure_serialization_carries_partial_trace():
    result = collapse_onto(get_fixture("paper-cex1-A").complex(), {1, 2, 5})
    payload = result.to_json()
    assert payload["reason"] == result.reason
    assert "end" not in payload
    assert payload["stuck"] == [list(f) for f in result.stuck_complex.facets]
    assert all(set(step) == {"free", "coface"} for step in payload["steps"])


def test_trace_serialization_round_trip():
    trace = collapse_onto(from_facets([[1, 2, 3], [2, 3, 4]], 4), {1, 4})
    payload = trace.to_json()
    assert payload["start"] == [[1, 2, 3], [2, 3, 4]]
    assert payload["end"] == [[2, 3]]
    rebuilt = CollapseTrace(
        from_facets(payload["start"], 4),
        from_facets(payload["end"], 4),
        [(tuple(s["free"]), tuple(s["coface"])) for s in payload["steps"]],
    )
    assert verify_trace(rebuilt, QQ)


def test_every_outcome_replays():
    # A success replays to the faces avoiding the forbidden set; a stuck
    # run replays to its stuck state, which its trace records as the end.
    outcomes = {CollapseTrace: 0, Failure: 0}
    for delta, forbidden in _collapse_cases():
        result = collapse_onto(delta, forbidden)
        outcomes[type(result)] += 1
        if isinstance(result, CollapseTrace):
            trace = result
            assert trace.end == faces_avoiding(delta, forbidden), (delta, forbidden)
        else:
            trace = result.partial_trace
            assert result.stuck_complex == trace.end, (delta, forbidden)
        assert trace.start == delta
        assert verify_trace(trace, GF2) is True, (delta, forbidden)
    assert outcomes[CollapseTrace] > 100 and outcomes[Failure] > 100


def test_free_faces_match_the_definition():
    # One cover is the same as one proper superface: the nonempty faces
    # with exactly one proper superface, each paired with it.
    cases = [fx.complex() for fx in corpus()]
    cases += [delta for delta, _ in _random_complexes(7, 200)]
    for delta in cases:
        faces = delta.faces()
        expected = []
        for beta in faces:
            sup = [g for g in faces if len(g) > len(beta) and set(beta) <= set(g)]
            if beta and len(sup) == 1:
                expected.append((beta, sup[0]))
        assert free_faces(delta) == expected, delta


def test_collapse_refuses_what_faces_refuses(monkeypatch):
    two = from_facets([[1, 2, 3, 4], [5, 6, 7, 8]])  # 31 faces, span 16 + 16
    monkeypatch.setattr(simplicial_core, "FACE_CAP", 20)
    with pytest.raises(CapacityExceeded):
        two.faces()
    with pytest.raises(CapacityExceeded):
        collapse_onto(two, {1})
    with pytest.raises(CapacityExceeded):
        free_faces(two)
    monkeypatch.setattr(simplicial_core, "FACE_CAP", 32)
    assert isinstance(collapse_onto(two, {1}), CollapseTrace)


def _steps_digest(trace):
    return hashlib.sha256(repr(trace.steps).encode()).hexdigest()


def test_collapse_cone_over_sd3_fan_off_its_apex():
    # One star of 665 steps: the cone over sd^3 of a fan of two triangles.
    cone = gen.cone(gen.sd(gen.sd(gen.sd(gen.cone(gen.sd(gen.simplex(2)))))))
    apex = {cone.n_vertices}
    assert len(cone.faces()) == 2660
    trace = collapse_onto(cone, apex)
    assert isinstance(trace, CollapseTrace)
    assert len(trace.steps) == 665
    assert trace.end == faces_avoiding(cone, apex)
    assert _steps_digest(trace) == "c54bffe3b1a200e050fa6acc5b78f514a74e5f7c82b51ad3456bccc36607213b"
    assert verify_trace(trace, GF2)


def test_collapse_cone_over_sd4_fan_off_its_apex():
    # 3,921 steps in one star of 2,592 facets.  The digest was recorded when
    # each step scanned the star's free set for its least face, so it pins
    # that the heap takes the same steps.
    cone = gen.cone(gen.sd(gen.sd(gen.sd(gen.sd(gen.cone(gen.sd(gen.simplex(2))))))))
    apex = {cone.n_vertices}
    trace = collapse_onto(cone, apex)
    assert isinstance(trace, CollapseTrace)
    assert len(trace.steps) == 3921
    assert trace.end == faces_avoiding(cone, apex)
    assert _steps_digest(trace) == "2c52d4cc232dd4fc5cd221381915cbd9464889633a482f8f42c73d3de0ab3df3"


def test_collapse_ball_in_sd2_sphere_away_from_its_complement():
    # The radius-3 ball about vertex 1 in the 1-skeleton of sd^2 of the
    # boundary of the 4-simplex (the facets with every vertex within
    # distance 3), collapsed away from the vertices of the other facets.
    sphere = gen.sd(gen.sd(gen.simplex_boundary(5)))
    neighbours = {}
    for f in sphere.facets:
        for v in f:
            neighbours.setdefault(v, set()).update(f)
    dist, queue = {1: 0}, [1]
    for v in queue:  # breadth first: the queue grows while it is read
        for w in neighbours[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    inside = [f for f in sphere.facets if max(dist[v] for v in f) <= 3]
    outside = [f for f in sphere.facets if max(dist[v] for v in f) > 3]
    ball = from_facets(inside, sphere.n_vertices)
    forbidden = {v for f in outside for v in f}
    assert len(ball.facets) == 1440
    assert len(forbidden.intersection(ball.vertices())) == 242
    trace = collapse_onto(ball, forbidden)
    assert isinstance(trace, CollapseTrace)
    assert len(trace.steps) == 2138
    assert trace.end == faces_avoiding(ball, forbidden)
    assert _steps_digest(trace) == "d67b0ce84f6aa47ffe819f1518e44373bb877e2ba7bb752084f0b07724b302c0"
    assert verify_trace(trace, GF2)
