"""Boundary matrices, ranks, reduced and relative Betti numbers."""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from _perfbench import families, gen
from hypothesis import given, settings
from hypothesis import strategies as st

from qgor import (
    GF2,
    GF3,
    QQ,
    BettiVector,
    CapacityExceeded,
    ExactMatrix,
    FieldSpec,
    NotASubcomplex,
    SimplicialComplex,
    boundary_matrix,
    classification_report,
    from_facets,
    homology,
    local_cohomology_table,
    rank,
    reduced_betti,
    relative_betti,
    restrict_to_facets,
    simplicial_core,
)
from qgor.fixtures import corpus, get_fixture, oracle_betti

FIELDS = [QQ, GF2, GF3]


def test_field_spec_parse():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("Q") == QQ
    assert FieldSpec.parse("2") == GF2
    with pytest.raises(ValueError):
        FieldSpec.parse("4")
    with pytest.raises(ValueError):
        FieldSpec.parse("gf2")
    assert GF3.spec_string() == "3"
    assert str(QQ) == "Q"


def test_field_spec_refuses_a_prime_that_is_not_an_int():
    # a float would run elimination on float residues and serialize as "2.0"
    for p in (2.0, 3.0, True, "2"):
        for make in (FieldSpec, FieldSpec.prime):
            with pytest.raises(ValueError, match="a prime must be an int"):
                make(p)


BIG_PRIME = "1152921504606846883"  # 2**60 - 93


def test_field_spec_parses_a_large_prime_quickly():
    started = time.perf_counter()
    assert FieldSpec.parse(BIG_PRIME).p == int(BIG_PRIME)
    assert time.perf_counter() - started < 1.0


def test_field_spec_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 3825123056546413051 (19 digits) is a
    # strong pseudoprime to every base up to 23, and 3317044064679887385961981,
    # the first one to all thirteen bases up to 41, is past the supported range
    for composite in ("561", "3825123056546413051", "318665857834031151167461",
                      str(int(BIG_PRIME) * 3)):
        with pytest.raises(ValueError, match="not a prime"):
            FieldSpec.parse(composite)
    with pytest.raises(ValueError, match="below"):
        FieldSpec.parse("3317044064679887385961981")
    with pytest.raises(ValueError, match="below"):
        FieldSpec.prime(2 ** 89 - 1)  # a Mersenne prime above the range


def test_primality_matches_trial_division():
    from qgor.homology import _is_prime

    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 3000) if _is_prime(n)] == [n for n in range(-3, 3000) if slow(n)]


def test_betti_vector_behaves_like_sparse_map():
    b = BettiVector({0: 0, 1: 2})
    assert b[1] == 2
    assert b[5] == 0
    assert b.nonzero() == {1: 2}
    assert b == BettiVector({1: 2})
    assert b.euler() == -2
    assert sum(b.dims.values()) == 2


def test_boundary_matrix_single_edge():
    delta = from_facets([[1, 2]], 2)
    m = boundary_matrix(delta, 1, QQ)
    assert (m.rows, m.cols) == (2, 1)
    assert sorted(m.columns[0].values()) == [-1, 1]


def test_boundary_matrix_out_of_range_degrees():
    delta = get_fixture("four-cycle").complex()
    high = boundary_matrix(delta, delta.dim + 2, QQ)
    assert (high.rows, high.cols) == (0, 0)


def test_boundary_matrix_augmentation_row():
    # d_0 maps vertices onto the empty face with coefficient one
    delta = from_facets([[1], [2]], 2)
    m = boundary_matrix(delta, 0, QQ)
    assert (m.rows, m.cols) == (1, 2)
    assert m.columns == [{0: 1}, {0: 1}]


def test_boundary_squared_is_zero_on_corpus():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            for i in range(0, delta.dim + 2):
                lo = boundary_matrix(delta, i, field)
                hi = boundary_matrix(delta, i + 1, field)
                if lo.rows == 0 or hi.cols == 0:
                    continue
                assert lo.cols == hi.rows
                for col in hi.columns:
                    image = {}
                    for k, x in col.items():
                        for r, y in lo.columns[k].items():
                            image[r] = image.get(r, 0) + x * y
                    for s in image.values():
                        if field.p is not None:
                            s %= field.p
                        assert s == 0, (fx.name, field, i)


def test_rank_basics():
    zero = ExactMatrix(QQ, 2, 3, [{0: 0, 1: 0}] * 3)
    assert zero.columns == [{}, {}, {}]
    assert rank(zero) == 0
    ident = ExactMatrix(GF2, 3, 3, [{0: 1}, {1: 1}, {2: 1}])
    assert rank(ident) == 3
    with pytest.raises(ValueError):
        ExactMatrix(QQ, 2, 1, [{2: 1}])


def test_boundary_rank_sphere():
    delta = get_fixture("boundary-3-simplex").complex()
    for field in FIELDS:
        m = boundary_matrix(delta, 2, field)
        assert (m.rows, m.cols) == (6, 4)
        assert rank(m) == 3


def _naive_rank(entries, p):
    """Row-echelon rank by the most literal elimination possible."""
    mat = [list(map(Fraction, row)) if p is None else [x % p for x in row] for row in entries]
    if not mat or not mat[0]:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(n_rows):
            if i == r or mat[i][c] == 0:
                continue
            if p is None:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            else:
                f = (mat[i][c] * pow(mat[r][c], p - 2, p)) % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def _columns(entries, n_cols):
    """The columns of a dense row list, explicit zeros kept."""
    return [{r: row[c] for r, row in enumerate(entries)} for c in range(n_cols)]


def test_rank_against_naive_elimination():
    # the columns are passed unreduced, with their zeros and negative
    # entries, so the constructor's normalisation is exercised too
    rng = random.Random(20240 + 817)
    for fields, bound, rounds in ((FIELDS, 2, 120), ([QQ, FieldSpec.prime(32003)], 5, 60)):
        for _ in range(rounds):
            n_rows = rng.randint(0, 12)
            n_cols = rng.randint(0, 12)
            entries = [[rng.randint(-bound, bound) for _ in range(n_cols)] for _ in range(n_rows)]
            for field in fields:
                m = ExactMatrix(field, n_rows, n_cols, _columns(entries, n_cols))
                assert rank(m) == _naive_rank(entries, field.p)
    # 3 is zero in GF(3) and -1 is 2: a stored 3 or 0 must not become a pivot
    entries = [[3, -1, 0], [-1, 3, 0], [0, 0, 3]]
    m = ExactMatrix(GF3, 3, 3, _columns(entries, 3))
    assert m.columns == [{1: 2}, {0: 2}, {}]
    assert rank(m) == _naive_rank(entries, 3) == 2
    assert rank(ExactMatrix(GF3, 1, 1, [{0: 3}])) == 0
    assert rank(ExactMatrix(QQ, 3, 3, _columns(entries, 3))) == _naive_rank(entries, None) == 3


def test_betti_beyond_the_oracle_limit():
    # the dense oracle stops at 4,096 faces; these answers hold by construction
    sphere = gen.cross_polytope_boundary(8)
    simplex = from_facets([range(1, 14)], 13)
    disc = from_facets([sphere.facets[0]], 16)
    assert (len(sphere.faces()), len(simplex.faces())) == (6561, 8192)
    for field in (QQ, GF2, FieldSpec.prime(32003)):
        assert reduced_betti(sphere, field).nonzero() == {7: 1}, field
        assert reduced_betti(simplex, field).nonzero() == {}, field
        # H(S^7, D^7) = H~(S^7)
        assert relative_betti(sphere, disc, field).nonzero() == {7: 1}, field


def test_reduced_betti_empty_complex():
    empty = from_facets([[]])
    for field in FIELDS:
        assert reduced_betti(empty, field).nonzero() == {-1: 1}
    with pytest.raises(ValueError):
        reduced_betti(from_facets([]), QQ)


def test_reduced_betti_spheres():
    assert reduced_betti(get_fixture("boundary-3-simplex").complex(), QQ).nonzero() == {2: 1}
    assert reduced_betti(get_fixture("four-cycle").complex(), QQ).nonzero() == {1: 1}
    assert reduced_betti(get_fixture("two-points").complex(), QQ).nonzero() == {0: 1}


def test_reduced_betti_projective_plane_depends_on_field():
    delta = get_fixture("rp2-6").complex()
    assert reduced_betti(delta, GF2).nonzero() == {1: 1, 2: 1}
    assert reduced_betti(delta, QQ).nonzero() == {}
    assert reduced_betti(delta, GF3).nonzero() == {}


def test_reduced_betti_contractible():
    assert reduced_betti(from_facets([[1, 2, 3]], 3), QQ).nonzero() == {}
    assert reduced_betti(get_fixture("cone-four-cycle").complex(), GF2).nonzero() == {}


def test_euler_from_faces_equals_euler_from_betti():
    for fx in corpus():
        delta = fx.complex()
        face_euler = sum((-1) ** (len(f) - 1) for f in delta.faces())
        for field in FIELDS:
            assert reduced_betti(delta, field).euler() == face_euler, (fx.name, field)


def test_euler_agrees_across_fields():
    for fx in corpus():
        delta = fx.complex()
        eulers = {reduced_betti(delta, field).euler() for field in FIELDS}
        assert len(eulers) == 1, fx.name


def test_relative_betti_of_equal_pair_vanishes():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            assert relative_betti(delta, delta, field).nonzero() == {}


def test_relative_betti_against_empty_is_unreduced():
    # relative to the empty subcomplex the degree-0 term picks up the
    # extra summand of unreduced homology
    delta = get_fixture("four-cycle").complex()
    empty = from_facets([[]], delta.n_vertices)
    assert relative_betti(delta, empty, QQ).nonzero() == {0: 1, 1: 1}

    two = get_fixture("two-points").complex()
    empty2 = from_facets([[]], two.n_vertices)
    assert relative_betti(two, empty2, GF3).nonzero() == {0: 2}

    # an empty or void Delta has no relative chains at all; a void Delta has
    # no empty cell either, and an empty Gamma asks for none
    void = from_facets([], two.n_vertices)
    for delta, gamma in ((empty2, empty2), (empty2, void), (void, void), (void, empty2)):
        assert relative_betti(delta, gamma, QQ).to_json() == {}


def test_relative_betti_rejects_nonsubcomplexes():
    delta = get_fixture("four-cycle").complex()
    other = from_facets([[1, 3]], 4)
    with pytest.raises(NotASubcomplex):
        relative_betti(delta, other, QQ)

    moebius = get_fixture("paper-moebius").complex()
    assert (1, 2, 3) in moebius.facets
    # an edge, a proper face of a facet, is a subcomplex; the strip
    # relative to a contractible edge keeps the circle's homology
    edge = from_facets([[1, 2]], moebius.n_vertices)
    assert relative_betti(moebius, edge, QQ).nonzero() == {1: 1}
    # every vertex of {1, 3, 4} and of {2, 4, 5} is in the strip, neither
    # triangle is; the message names the first of them in canonical order
    other = from_facets([[1, 2], [1, 3, 4], [2, 4, 5]], moebius.n_vertices)
    assert not any({1, 3, 4} <= set(f) or {2, 4, 5} <= set(f) for f in moebius.facets)
    with pytest.raises(NotASubcomplex, match=r"^\[1, 3, 4\] is not a face of the ambient complex$"):
        relative_betti(moebius, other, QQ)


def test_relative_betti_long_exact_sequence_euler_identity():
    # chi(Delta, Gamma) = chi~(Delta) - chi~(Gamma) for every pair
    for fx in corpus():
        delta = fx.complex()
        if len(delta.facets) < 2:
            continue
        subsets = [[0], [len(delta.facets) - 1], list(range(len(delta.facets) // 2 + 1))]
        for indices in subsets:
            gamma = restrict_to_facets(delta, indices)
            for field in FIELDS:
                rel = relative_betti(delta, gamma, field)
                chi_delta = reduced_betti(delta, field).euler()
                chi_gamma = reduced_betti(gamma, field).euler()
                assert rel.euler() == chi_delta - chi_gamma, (fx.name, indices, field)


def test_relative_betti_hand_checked_pair():
    # disc (two triangles) relative to its boundary circle: homology of
    # the quotient sphere in degree 2... here dimension 2 top cell count
    delta = from_facets([[1, 2, 3], [2, 3, 4]], 4)
    boundary = from_facets([[1, 2], [1, 3], [2, 4], [3, 4]], 4)
    rel = relative_betti(delta, boundary, QQ)
    assert rel.nonzero() == {2: 1}


# Shortcuts: reduced_betti answers cones and graphs without a boundary
# matrix.  Each family below is seeded through the benchmark's
# generators; the answer must match the elimination path and the dense
# oracle byte for byte (zero degrees included), and must come from the
# path the family is meant to take.

SHORTCUT_FIELDS = [QQ, GF2, GF3, FieldSpec.prime(32003)]


def _any_complex(rng):
    """Facets of mixed sizes on at most 7 vertices."""
    n = rng.randint(1, 7)
    return from_facets([rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
                        for _ in range(rng.randint(1, 6))], n)


def _cone(rng):
    return gen.cone(_any_complex(rng))


def _one_facet(rng):
    n = rng.randint(1, 9)
    if rng.random() < 0.5:
        return gen.simplex(n)
    return from_facets([rng.sample(range(1, n + 1), rng.randint(1, n))], n + rng.randint(0, 2))


def _points(rng):
    n = rng.randint(1, 9)
    return from_facets([[v] for v in rng.sample(range(1, n + 1), rng.randint(1, n))], n)


def _graph(rng):
    """Up to three random graphs side by side, plus isolated vertices."""
    facets, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(2, 6)
        edges = gen.random_pure(rng, size, 1, rng.randint(1, size * (size - 1) // 2))
        facets += [tuple(v + n for v in f) for f in edges.facets]
        n += size
    isolated = rng.randint(0, 3)
    facets += [(n + k,) for k in range(1, isolated + 1)]
    return from_facets(facets, n + isolated)


def _general(rng):
    """A complex of dimension at least 2 whose facets share no vertex."""
    pick = rng.randrange(6)
    if pick == 0:
        delta = gen.random_pure(rng, 7, rng.randint(2, 3), rng.randint(2, 8))
    elif pick == 1:
        delta = gen.suspension(_graph(rng))
    elif pick == 2:
        delta = gen.add_dangling_edge(gen.random_pure(rng, 6, 2, rng.randint(2, 6)), 1)
    elif pick == 3:
        delta = gen.join(_points(rng), _points(rng))
    elif pick == 4:
        delta = rng.choice([gen.torus(), gen.rp2(), gen.simplex_boundary(rng.randint(4, 6)),
                            gen.cross_polytope_boundary(3), gen.sd(gen.simplex_boundary(4))])
    else:
        delta = _any_complex(rng)
    if delta.dim < 2 or set(delta.facets[0]).intersection(*delta.facets[1:]):
        # a disjoint triangle and point lift the dimension and break any cone
        n = delta.n_vertices
        delta = from_facets(list(delta.facets) + [(n + 1, n + 2, n + 3), (n + 4,)], n + 4)
    return delta


FAMILIES = {"cone": _cone, "one-facet": _one_facet, "points": _points,
            "graph": _graph, "general": _general}


def _eliminated(delta, field):
    """reduced_betti's answer through the one elimination path."""
    return homology._betti(homology._cells(delta), field)


def _stars(delta):
    """The vertex stars {k : v in F_k}, facets numbered from 1, read off
    the definition: the facets of the nerve, before absorption."""
    return [[k for k, f in enumerate(delta.facets, 1) if v in f] for v in delta.vertices()]


def _surface(delta):
    """Whether delta is a pure 2-complex whose edges each lie in at most two
    triangles and whose triangles are joined by walks across shared edges,
    read off the definition: reduced_betti answers it with no matrix."""
    facets = delta.facets
    if delta.dim != 2 or any(len(f) != 3 for f in facets):
        return False
    if max(Counter(e for f in facets for e in combinations(f, 2)).values()) > 2:
        return False
    seen, todo = {facets[0]}, [facets[0]]
    while todo:
        f = todo.pop()
        for g in facets:
            if g not in seen and len(set(f) & set(g)) == 2:
                seen.add(g)
                todo.append(g)
    return len(seen) == len(facets)


def _takes_nerve(delta):
    """Whether reduced_betti trades delta for its nerve: dimension at least
    2, no vertex in every facet, not a surface, and stars that span
    strictly less."""
    stars = _stars(delta)
    return (delta.dim > 1 and max(map(len, stars)) < len(delta.facets) and not _surface(delta)
            and sum(2 ** len(s) for s in stars) < sum(2 ** len(f) for f in delta.facets))


def _eliminated_side(delta):
    """The complex reduced_betti hands to elimination, delta or an iterated
    nerve; None when a cone, a graph or a surface is answered first."""
    while _takes_nerve(delta):
        delta = from_facets(_stars(delta), len(delta.facets))
    if delta.dim <= 1 or len(delta.facets) in map(len, _stars(delta)) or _surface(delta):
        return None
    return delta


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), rng=st.randoms(use_true_random=False))
def test_shortcuts_match_elimination_and_oracle(family, rng):
    delta = FAMILIES[family](rng)
    for field in SHORTCUT_FIELDS:
        with mock.patch.object(homology, "rank", wraps=homology.rank) as spy:
            got = reduced_betti(delta, field).to_json()
        side = _eliminated_side(delta)
        assert (spy.call_count > 0) == (side is not None), (family, delta)
        assert side is None or family == "general", (family, delta)
        assert got == _eliminated(delta, field).to_json(), (delta, field)
        assert got == oracle_betti(delta, field).to_json(), (delta, field)
        assert list(got) == [str(j) for j in range(delta.dim + 1)]


def _subcomplex(rng, delta):
    """A nonempty subcomplex: the closure of one to four random nonempty faces."""
    faces = [f for f in delta.faces() if f]
    return from_facets(rng.sample(faces, rng.randint(1, min(len(faces), 4))), delta.n_vertices)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), rng=st.randoms(use_true_random=False))
def test_relative_betti_is_the_reduced_betti_of_the_coned_pair(family, rng):
    # for nonempty Gamma, H_j(Delta, Gamma) = H~_j(Delta u cone(Gamma)) in every degree
    delta = FAMILIES[family](rng)
    gamma = _subcomplex(rng, delta)
    apex = delta.n_vertices + 1
    coned = from_facets(list(delta.facets) + [f + (apex,) for f in gamma.facets], apex)
    for field in SHORTCUT_FIELDS:
        got = relative_betti(delta, gamma, field).to_json()
        want = oracle_betti(coned, field)
        assert got == {str(j): want[j] for j in range(delta.dim + 1)}, (delta, gamma, field)
        assert sum(want.dims.values()) == sum(got.values()), (delta, gamma, field)


def test_betti_ranks_each_degree_once_on_the_survivors():
    # coreduction first, then rank sees d_j once per degree j = 0..d on the
    # surviving cells, with no columns when no (j-1)-cell survives: a map
    # into the zero space has rank 0.  reduced_betti answers the surface
    # sd-torus with no matrix, so its cells are eliminated directly.
    for delta, betti, kept, betti_of in (
            (gen.sd(gen.torus()), {1: 2, 2: 1}, {1: 27, 2: 26}, _eliminated),
            (gen.cross_polytope_boundary(6), {5: 1}, {5: 1}, reduced_betti)):
        d = delta.dim
        survivors = homology._coreduce(homology._cells(delta))
        s = {j: len(fs) for j, fs in survivors.items()}
        assert {j: n for j, n in s.items() if n} == kept
        for field in (QQ, GF2):
            with mock.patch.object(homology, "rank", wraps=homology.rank) as spy:
                assert betti_of(delta, field).nonzero() == betti, field
            shapes = [(c.args[0].rows, c.args[0].cols) for c in spy.call_args_list]
            want = [(s[j - 1], s[j] if s[j - 1] else 0) for j in range(0, d + 1)]
            assert sorted(shapes) == sorted(want), field


def test_coreduction_leaves_one_cell_of_a_subdivided_sphere(monkeypatch):
    # sd^2 of the boundary of the 4-simplex, 12,601 faces: the FIFO pairs
    # remove every cell but one facet, so rank sees at most one column
    monkeypatch.setattr(simplicial_core, "FACE_CAP", 2 ** 26)
    sphere = gen.sd(gen.sd(gen.simplex_boundary(5)))
    for field in (QQ, GF2):
        with mock.patch.object(homology, "rank", wraps=homology.rank) as spy:
            assert reduced_betti(sphere, field).nonzero() == {3: 1}, field
        assert sum(c.args[0].cols for c in spy.call_args_list) <= 1, field


def test_simplex13_table_and_report_need_no_elimination():
    # every one of the 8,192 links of a simplex is a simplex, so a cone
    simplex = gen.simplex(13)
    with mock.patch.object(homology, "rank", wraps=homology.rank) as spy:
        table = local_cohomology_table(simplex, GF2)
        report = classification_report(simplex, GF2)
    assert table.to_json()["entries"] == [{"i": 13, "sigma": list(range(1, 14)), "dim": 1}]
    assert report.gorenstein and report.cohen_macaulay
    assert spy.call_count == 0


def test_surface_tables_and_reports_need_no_elimination():
    # every link of a surface is a surface, a graph or {empty}, and a
    # surface is answered off its ridge map, so none builds a matrix
    for delta in (gen.sd(gen.torus()), gen.sd(gen.rp2())):
        for field in FIELDS:
            with mock.patch.object(homology, "rank", wraps=homology.rank) as spy:
                local_cohomology_table(delta, field)
                classification_report(delta, field)
            assert spy.call_count == 0, (delta, field)
    with mock.patch.object(homology, "_cells", wraps=homology._cells) as spy:
        assert reduced_betti(gen.sd(gen.sd(gen.torus())), QQ).nonzero() == {1: 2, 2: 1}
    assert spy.call_count == 0


def test_long_cycle_is_a_graph():
    # the graph shortcut answers with no elimination; the facets are built
    # directly, as they are already canonical
    cycle = SimplicialComplex(4100, sorted((i, i % 4100 + 1) for i in range(1, 4101)))
    with mock.patch.object(homology, "rank", wraps=homology.rank) as spy:
        assert reduced_betti(cycle, QQ).to_json() == {"0": 0, "1": 1}
    assert spy.call_count == 0


def test_work_refusals_read_the_face_cap(monkeypatch):
    # Each cap admits the facets' span and refuses the work: the Fano plane
    # spans 56 faces and its cells record 21 + 42 + 7 = 70 boundary ids;
    # 3,000 random tetrahedra span 48,000 faces and their elimination
    # passes 48,000 touched entries.  Neither has a smaller nerve.
    fano = from_facets([[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [5, 6, 1], [6, 7, 2],
                        [7, 1, 3]])
    tetrahedra = gen.random_pure(random.Random(1), 30, 3, 3000)
    for delta, cap, message in (
            (fano, 64, "cells need 70 boundary ids, cap is 64"),
            (tetrahedra, 48000, "elimination touched 48174 entries, cap is 48000")):
        assert _eliminated_side(delta) is delta
        monkeypatch.setattr(simplicial_core, "FACE_CAP", cap)
        with pytest.raises(CapacityExceeded) as exc:
            reduced_betti(delta, QQ)
        assert str(exc.value) == message
        with pytest.raises(CapacityExceeded) as exc:
            relative_betti(delta, restrict_to_facets(delta, [0]), QQ)
        assert str(exc.value) == message
    # the builder refuses before numbering the level that passes the cap
    monkeypatch.setattr(simplicial_core, "FACE_CAP", 69)
    with mock.patch.object(homology, "combinations", wraps=homology.combinations) as spy:
        with pytest.raises(CapacityExceeded):
            homology._cells(fano)
    assert spy.call_count == 7 + 21


def test_relative_chains_need_no_screen_of_gamma(monkeypatch):
    # Gamma's faces are Delta's cells, so a Gamma whose facets span more
    # than Delta's is answered whenever Delta is: the boundary of the
    # 6-simplex spans 7 * 2^6 = 448 faces, its 4-subsets 35 * 2^4 = 560
    monkeypatch.setattr(simplicial_core, "FACE_CAP", 448)
    sphere = gen.simplex_boundary(7)
    gamma = from_facets(combinations(range(1, 8), 4), 7)
    for field in FIELDS:
        assert relative_betti(sphere, gamma, field).nonzero() == {4: 15, 5: 1}, field


def _nerve_inputs(rng):
    """The checked families, then seeded random complexes on 7 to 12
    vertices with two to eight facets, pure and not."""
    out = families(rng)
    for k in range(120):
        n = rng.randint(7, 12)
        m = rng.randint(2, 8)
        if k % 2:
            out.append(gen.random_pure(rng, n, rng.randint(2, 4), m))
        else:
            out.append(from_facets([rng.sample(range(1, n + 1), rng.randint(1, 6))
                                    for _ in range(m)], n))
    return out


def test_nerve_matches_elimination_and_oracle():
    # H~(Delta) = H~(N(Delta)) over every field (the nerve theorem), so
    # every answer equals elimination on Delta itself, and the dense
    # oracle's where it is quick (at most 128 faces)
    taken = 0
    for delta in _nerve_inputs(random.Random(24)):
        small = len(delta.faces()) <= 128
        with mock.patch.object(homology, "_nerve", wraps=homology._nerve) as spy:
            for field in FIELDS:
                got = reduced_betti(delta, field).to_json()
                assert got == _eliminated(delta, field).to_json(), (delta, field)
                assert not small or got == oracle_betti(delta, field).to_json(), (delta, field)
        taken += spy.call_count > 0
        assert (spy.call_count > 0) == _takes_nerve(delta), delta
    assert taken > 50


# reduced_betti answers a strongly connected pure 2-complex whose edges
# each lie in at most two triangles off its signed ridge map, with no
# matrix.  The property below draws such surfaces, closed and bordered,
# and the complexes near them that must fall through: disconnected and
# pinched surfaces, wedges, and edges in three triangles.


def _grid_surface(n, twist):
    """The n x n grid of squares, each cut along a diagonal, with opposite
    sides glued: a torus, or with twist a Klein bottle (the top side glued
    to the bottom one reversed)."""
    def v(i, j):
        i %= n
        if j == n:
            i, j = (-i % n if twist else i), 0
        return i * n + j + 1
    facets = []
    for i in range(n):
        for j in range(n):
            facets += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
    return from_facets(facets, n * n)


_KLEIN = _grid_surface(4, True)
_CLOSED = [gen.simplex_boundary(4), gen.cross_polytope_boundary(3), gen.torus(), gen.rp2(),
           _grid_surface(4, False), _KLEIN]
_CLOSED += [gen.sd(delta) for delta in (_CLOSED[0], _CLOSED[2], _CLOSED[3], _KLEIN)]


def _two_spheres(shared):
    """Two tetrahedron boundaries, sharing one vertex or none."""
    other = [[v + 4 - shared for v in f] for f in combinations(range(1, 5), 3)]
    return from_facets(list(combinations(range(1, 5), 3)) + other, 8 - shared)


_SINGULAR = [
    get_fixture("paper-moebius").complex(),
    _two_spheres(1),
    _two_spheres(0),
    from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]], 5),
    # three triangles on the edge 12, joined around it across edges in two
    from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [2, 4, 5]], 5),
]


def _bordered(rng):
    """A closed surface with one to five facets deleted: bordered, and on
    the small ones sometimes no longer strongly connected."""
    delta = rng.choice(_CLOSED)
    m = len(delta.facets)
    return from_facets(rng.sample(delta.facets, m - rng.randint(1, min(5, m - 1))),
                       delta.n_vertices)


def _pinched(rng):
    """Two vertices with no common neighbour glued in a subdivided surface,
    closed or with one facet deleted."""
    delta = rng.choice(_CLOSED[-4:])
    if rng.random() < 0.5:
        delta = from_facets(delta.facets[1:], delta.n_vertices)
    star = {}
    for f in delta.facets:
        for v in f:
            star.setdefault(v, set()).update(f)
    a, b = rng.choice([(a, b) for a, b in combinations(sorted(star), 2)
                       if b not in star[a] and not star[a] & star[b]])
    return gen.identify_vertices(delta, a, b)


def _random_2(rng):
    n = rng.randint(4, 8)
    return gen.random_pure(rng, n, 2, rng.randint(1, min(14, n * (n - 1) * (n - 2) // 6)))


SURFACES = {"closed": lambda rng: rng.choice(_CLOSED), "bordered": _bordered, "pinched": _pinched,
            "singular": lambda rng: rng.choice(_SINGULAR), "random": _random_2}


def test_surface_inputs_are_what_they_claim():
    assert _eliminated(_KLEIN, QQ).nonzero() == {1: 1}
    assert _eliminated(_KLEIN, GF2).nonzero() == {1: 2, 2: 1}
    assert _eliminated(_grid_surface(4, False), QQ).nonzero() == {1: 2, 2: 1}
    assert all(map(_surface, _CLOSED)) and not _surface(_two_spheres(1))
    # the property below sees both answers of _surface on random complexes
    rng = random.Random(27)
    drawn = {(family, _surface(SURFACES[family](rng))) for family in ("bordered", "random")
             for _ in range(40)}
    assert len(drawn) == 4, drawn


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(SURFACES)), rng=st.randoms(use_true_random=False))
def test_surfaces_need_no_matrix_and_match_elimination_and_oracle(family, rng):
    delta = SURFACES[family](rng)
    cone = len(delta.facets) in map(len, _stars(delta))
    small = len(delta.faces()) <= 128
    for field in SHORTCUT_FIELDS:
        with mock.patch.object(homology, "_ridge_map", wraps=homology._ridge_map) as ridges, \
                mock.patch.object(homology, "_nerve", wraps=homology._nerve) as nerve, \
                mock.patch.object(homology, "_cells", wraps=homology._cells) as cells:
            got = reduced_betti(delta, field).to_json()
        taken = ridges.call_count == 1 and nerve.call_count == cells.call_count == 0
        assert taken == (not cone and _surface(delta)), (family, delta)
        assert got == _eliminated(delta, field).to_json(), (delta, field)
        assert not small or got == oracle_betti(delta, field).to_json(), (delta, field)
