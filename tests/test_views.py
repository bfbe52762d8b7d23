"""Every link predicate against a naive per-face reference.

The library reads CM, depth, the a-invariant, Buchsbaum, (S_l), the
manifold flags, normality and the liaison comparisons off one lazily
filled link view per complex and field.  The references below recompute
each of them face by face from qgor.link and the independent
oracle_betti, on the corpus, on two wedges of simplex boundaries and on
seeded random complexes on at most seven vertices; normality also on
the checked families of tests/_perfbench.py and on seeded non-pure
complexes with facets below the ridges.  The counting tests pin that
each link is computed once per call and once per `qgor classify`,
`qgor hochster` and `qgor liaison` run, whose payload equals the four
public liaison checks called one by one, that a link of dimension at
most 1 is read off its facets by _graph_betti and that larger links
equal up to an order-preserving renumbering share one computed Betti
vector (both checked against elimination and the oracle on seeded
families), that nothing is kept from one call to the next, that a
predicate builds only what it reads, that the liaison comparisons read
only the faces of Delta_A and never build a link level of Delta_B, that
a scan stops at its answer, and that it builds no link level past the
last face size that can change that answer.  The reads off the ridge map
(the table at the ridges and the facets, the a-invariant, H~_dim and
quasi-Gorenstein) and tconn's component count are checked against
references that read every face's link through link() and reduced_betti,
on the families, seeded impure complexes and degenerate inputs over
three fields; no public call builds the ridge or facet level of a
complex with facets of size 2 or more, and quasi-Gorenstein and tconn on
a subdivided 3-sphere build no cells.
"""

import json
import random
from itertools import combinations
from unittest import mock

import pytest
from _perfbench import families, gen
from hypothesis import given, settings
from hypothesis import strategies as st

import qgor.classify
import qgor.cli
import qgor.hochster
import qgor.homology
import qgor.liaison
from qgor import (
    CapacityExceeded,
    GF2,
    GF3,
    QQ,
    FacetPartition,
    HypothesesNotMet,
    NotPure,
    a_invariant,
    classification_report,
    cm_linkage_check,
    core,
    depth_report,
    from_facets,
    is_buchsbaum,
    is_gorenstein,
    is_homology_manifold,
    is_orientable,
    is_quasi_gorenstein,
    lefschetz_report,
    link,
    link_restriction_check,
    local_cohomology_table,
    normal_pseudomanifold_report,
    reduced_betti,
    serre_condition,
    tconn_check,
)
from qgor.fixtures import corpus, get_fixture, oracle_betti
from qgor.simplicial_core import face_key

FIELDS = [QQ, GF2, GF3]


def _random_complexes(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 7)
        pure = rng.random() < 0.5
        size = rng.randint(1, min(n, 4))
        facets = [rng.sample(range(1, n + 1), size if pure else rng.randint(1, min(n, 4)))
                  for _ in range(rng.randint(1, 7))]
        out.append(from_facets(facets, n))
    return out


def _wedge(k):
    """Two boundaries of the k-simplex glued at vertex 1: lk{1} is disconnected."""
    return from_facets(list(combinations(range(1, k + 2), k))
                       + list(combinations((1, *range(k + 2, 2 * k + 2)), k)))


COMPLEXES = ([fx.complex() for fx in corpus()] + [_wedge(3), _wedge(4)]
             + _random_complexes(20221023, 40))


def _links(delta, field):
    """(sigma, dim lk sigma, Betti vector of lk sigma) for every face, in order."""
    out = []
    for sigma in delta.faces():
        lk = link(delta, sigma)
        out.append((sigma, lk.dim, oracle_betti(lk, field)))
    return out


def _first_low(links, bound, nonempty=False):
    for sigma, dim, b in links:
        if nonempty and not sigma:
            continue
        for i in range(-1, bound(dim)):
            if b[i]:
                return sigma, i
    return None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_table_views_match_per_face_reference(field):
    for delta in COMPLEXES:
        if delta.is_empty:
            continue
        links = _links(delta, field)
        d = delta.dim + 1
        tag = (delta, field)

        witness = _first_low(links, lambda dim: dim, nonempty=True)
        assert is_buchsbaum(delta, field) == (witness is None, witness), tag
        for ell in (1, 2, 3):
            want = _first_low(links, lambda dim: min(ell - 1, dim)) is None
            assert serre_condition(delta, field, ell) == want, (tag, ell)

        # (i, position in canonical order, sigma) for every nonzero entry
        entries = [(r + len(sigma) + 1, k, sigma)
                   for k, (sigma, _, b) in enumerate(links) for r in b.nonzero()]
        depth, _, first = min(entries)
        report = depth_report(delta, field)
        assert report.depth == depth, tag
        assert report.witness == ((depth, first) if depth < d else None), tag
        reisner = _first_low(links, lambda dim: dim) is None
        assert report.is_cohen_macaulay == reisner == (depth == d), tag
        top = [len(sigma) for sigma, _, b in links if b[d - len(sigma) - 1]]
        assert a_invariant(delta, field) == -min(top), tag

        if delta.is_pure():
            sphere = [b.nonzero() == {dim: 1} for _, dim, b in links]
            manifold = all(sphere[1:])
            assert is_homology_manifold(delta, field) == (manifold, manifold and sphere[0]), tag


def _nonpure_complexes(seed, count):
    """Seeded complexes of dimension 2 or 3 with smaller facets beside the
    top ones: some faces below the ridges have 0-dimensional links, and
    some facets lie below the ridges (their link is {empty})."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, top = rng.randint(5, 8), rng.randint(3, 4)
        facets = [rng.sample(range(1, n + 1), top) for _ in range(rng.randint(1, 4))]
        facets += [rng.sample(range(1, n + 1), rng.randint(1, top - 1))
                   for _ in range(rng.randint(1, 4))]
        out.append(from_facets(facets, n))
    return out


#: Impure complexes with a facet one size below the top, and their ridge
#: witnesses: such a facet is a ridge in one facet.
IMPURE_RIDGES = [
    (from_facets(list(combinations(range(1, 5), 3)) + [(5, 6)], 6), ((5, 6), 1)),
    (from_facets([(2, 3, 4), (1, 2)], 4), ((1, 2), 1)),
]


def test_normal_pseudomanifold_matches_per_face_reference():
    for delta, witness in IMPURE_RIDGES:
        assert normal_pseudomanifold_report(delta).witnesses["ridge_condition"] == witness
    low_link_dims = set()
    fixed = [delta for delta, _ in IMPURE_RIDGES]
    for delta in COMPLEXES + fixed + families(random.Random(18)) + _nonpure_complexes(18, 60):
        if delta.is_empty:
            continue
        d = delta.dim
        report = normal_pseudomanifold_report(delta)
        low = [(sigma, link(delta, sigma)) for sigma in delta.faces() if len(sigma) - 1 <= d - 2]
        low_link_dims.update(lk.dim for sigma, lk in low if sigma)
        # connected and nonempty <=> no reduced homology in degrees -1, 0
        disconnected = [sigma for sigma, lk in low
                        if oracle_betti(lk, GF2).nonzero().keys() & {-1, 0}]
        assert report.normal == (not disconnected), delta
        assert report.witnesses.get("normal") == (disconnected[0] if disconnected else None), delta
        counts = [(r, sum(1 for f in delta.facets if set(r) <= set(f)))
                  for r in delta.faces_of_dim(d - 1)]
        bad = [rc for rc in counts if rc[1] != 2]
        assert report.ridge_condition == (not bad), delta
        assert report.witnesses.get("ridge_condition") == (bad[0] if bad else None), delta
    # lower-dimensional facets and 0-dimensional links below the ridges occur
    assert {-1, 0} <= low_link_dims


def test_normal_pseudomanifold_answers_past_the_homology_cap():
    # sd^2 of the boundary of the 4-simplex: its homology is answered under
    # the default cap, but normality reads the vertex graphs of its links
    # and of itself, never their homology, so it builds no cells
    sphere = gen.sd(gen.sd(gen.simplex_boundary(5)))
    assert reduced_betti(sphere, GF2).nonzero() == {3: 1}
    with mock.patch.object(qgor.homology, "_cells", wraps=qgor.homology._cells) as spy:
        report = normal_pseudomanifold_report(sphere)
    assert spy.call_count == 0
    assert report.ok and report.witnesses == {}
    # the cone point's link is that sphere; the cone is a ball, so its
    # boundary ridges lie in one facet and no homology decides the answer
    cone = gen.cone(sphere)
    report = normal_pseudomanifold_report(cone)
    assert report.normal and not report.ridge_condition
    for field in FIELDS:
        assert not is_quasi_gorenstein(cone, field)


def _partitions(delta, rng):
    """Two seeded complementary partitions, then the extremes that leave B
    nonempty: A the first facet, A every facet but the last, and A the star
    of the first vertex."""
    m = len(delta.facets)
    sizes = range(1, m)
    blocks = [rng.sample(range(m), k) for k in rng.sample(sizes, min(2, len(sizes)))]
    v = delta.facets[0][0]
    blocks += [[0], list(range(m - 1)), [i for i, f in enumerate(delta.facets) if v in f]]
    for a in blocks:
        if 0 < len(a) < m:
            yield FacetPartition.complementary(delta, a)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_liaison_comparisons_match_per_face_reference(field):
    rng = random.Random(7)
    for delta in COMPLEXES:
        if delta.is_empty or not delta.is_pure():
            continue
        d = delta.dim
        for partition in _partitions(delta, rng):
            delta_b = from_facets([delta.facets[i] for i in partition.b], delta.n_vertices)
            b_faces = set(delta_b.faces())
            want = []
            table_diff = []
            for sigma in delta.faces():
                ambient = oracle_betti(link(delta, sigma), field)
                restricted = (oracle_betti(link(delta_b, sigma), field) if sigma in b_faces
                              else None)
                for r in range(-1, d - len(sigma)):
                    da, db = ambient[r], restricted[r] if restricted is not None else 0
                    if da != db:
                        table_diff.append((r + len(sigma) + 1, sigma, da, db))
                        if sigma:
                            want.append((sigma, r, sigma in b_faces, db, da))
            report = link_restriction_check(delta, partition, field)
            assert report.witnesses == want, (delta, partition, field)
            assert report.ok == (not want)
            first = min(table_diff, key=lambda w: (w[0], len(w[1]), w[1]), default=None)
            assert cm_linkage_check(delta, partition, field).witness == first, (delta, partition)


def _count_betti(monkeypatch):
    """(counts, routes): counts maps the facets of every complex whose Betti
    vector the link view computes to the number of times it did, and
    routes[name] does the same for each of its two routes, reduced_betti
    and _graph_betti (a complex of dimension at most 1, off its facets)."""
    counts, routes = {}, {"reduced_betti": {}, "_graph_betti": {}}

    def count(name, facets):
        counts[facets] = counts.get(facets, 0) + 1
        routes[name][facets] = routes[name].get(facets, 0) + 1

    reduced, graph = qgor.hochster.reduced_betti, qgor.hochster._graph_betti

    def counting_reduced(delta, field):
        count("reduced_betti", delta.facets)
        return reduced(delta, field)

    def counting_graph(facets):
        count("_graph_betti", facets)
        return graph(facets)

    # every Betti vector a predicate reads comes through hochster's link view
    assert not any(hasattr(m, name) for m in (qgor.classify, qgor.liaison) for name in routes)
    monkeypatch.setattr(qgor.hochster, "reduced_betti", counting_reduced)
    monkeypatch.setattr(qgor.hochster, "_graph_betti", counting_graph)
    return counts, routes


def _spy_levels(monkeypatch):
    """A list that records (facets, k) for every link level built, in order:
    the link view builds its levels through hochster's import of
    simplicial_core._link_level."""
    built = []
    original = qgor.hochster._link_level

    def spy(delta, k):
        built.append((delta.facets, k))
        return original(delta, k)

    monkeypatch.setattr(qgor.hochster, "_link_level", spy)
    return built


def _spy_walks(monkeypatch):
    """A list that records the facets of every complex whose top homology
    the link view reads off a walk over its ridge map (homology._top)."""
    walks = []
    original = qgor.hochster._top

    def spy(facets, ridges, p):
        walks.append(facets)
        return original(facets, ridges, p)

    monkeypatch.setattr(qgor.hochster, "_top", spy)
    return walks


def _facet_file(tmp_path, delta):
    path = tmp_path / "delta.cplx"
    path.write_text(f"n={delta.n_vertices}\n" + "".join(
        " ".join(map(str, f)) + "\n" for f in delta.facets))
    return str(path)


def test_each_link_computed_once_per_call(monkeypatch, tmp_path, capsys):
    counts, _ = _count_betti(monkeypatch)
    cases = [fx.complex() for fx in corpus() if not fx.complex().is_empty]
    for delta in cases + _random_complexes(5, 10):
        for field in FIELDS:
            counts.clear()
            classification_report(delta, field)
            assert counts and max(counts.values()) == 1, (delta, field, counts)
            for predicate in (is_gorenstein, is_homology_manifold):
                counts.clear()
                try:
                    predicate(delta, field)
                except NotPure:
                    pass
                assert max(counts.values(), default=1) == 1, (predicate, delta, field, counts)
            if delta.is_pure() and len(delta.facets) > 1:
                counts.clear()
                partition = FacetPartition.complementary(delta, [0])
                link_restriction_check(delta, partition, field)
                # points have no face below their ridges, and H~_0 of Delta
                # comes off the ridge map, so they read no vector
                assert counts or delta.dim == 0, (delta, field)
                assert max(counts.values(), default=1) == 1, (delta, field, counts)
                counts.clear()
                lefschetz_report(delta, partition, field)
                assert counts[delta.facets] == 1, (delta, field, counts)
                # a standalone check reads only Delta, Delta_B and Delta_A's links
                delta_b = from_facets([delta.facets[i] for i in partition.b], delta.n_vertices)
                delta_a = from_facets([delta.facets[i] for i in partition.a], delta.n_vertices)
                allowed = {delta.facets, delta_b.facets}
                allowed |= {link(delta_a, s).facets for s in delta_a.faces()}
                for check in (lefschetz_report, tconn_check):
                    counts.clear()
                    try:
                        check(delta, partition, field)
                    except HypothesesNotMet:
                        pass
                    assert set(counts) <= allowed, (check, delta, field, counts)
                    assert max(counts.values(), default=1) == 1, (check, delta, field, counts)
    # one qgor liaison run computes each (complex, field) once
    pure = [d for d in cases + _random_complexes(5, 40) if d.is_pure() and len(d.facets) > 1]
    for delta in pure:
        path = _facet_file(tmp_path, delta)
        for a in ("1", "1,2"):
            for field in ("q", "2", "3"):
                counts.clear()
                code = qgor.cli.main(["liaison", path, "--facets-a", a, "--field", field])
                capsys.readouterr()
                if code == 0:
                    assert max(counts.values()) == 1, (delta, a, field, counts)
                else:
                    assert len(delta.facets) == 2 and a == "1,2", (delta, a, field)
    # one qgor classify or qgor hochster run computes each (complex, field) once
    for delta in cases + _random_complexes(5, 10):
        path = _facet_file(tmp_path, delta)
        for sub in ("classify", "hochster"):
            for field in ("q", "2", "3"):
                counts.clear()
                assert qgor.cli.main([sub, path, "--field", field]) == 0, (sub, delta)
                capsys.readouterr()
                assert max(counts.values()) == 1, (sub, delta, field, counts)


def test_liaison_reads_only_the_faces_of_delta_a(monkeypatch, tmp_path, capsys):
    # Vertex-star partitions, as the benchmark's partition sweep builds them.
    # The comparisons read the levels of Delta and Delta_A, never Delta_B's,
    # and compute the vectors of Delta, Delta_A, Delta_B and of the links of
    # the faces of Delta_A in the three: a face outside Delta_A is never read.
    # Normality reads Delta's levels below its ridges (the ridge condition is
    # read off the ridge map), and Buchsbaum, depth and the comparisons read
    # Delta_A's levels below its ridges (Delta_A is the cone over a sphere, so
    # its depth is fixed by the apex's link).
    counts, _ = _count_betti(monkeypatch)
    built = _spy_levels(monkeypatch)
    for base in (gen.torus(), gen.simplex_boundary(5)):
        delta, labels = gen.sd(base), gen.sd_labels(base)
        path = _facet_file(tmp_path, delta)
        for v in base.vertices()[:2]:
            star = labels[(v,)]
            a = [i for i, f in enumerate(delta.facets) if star in f]
            partition = FacetPartition.complementary(delta, a)
            delta_a = from_facets([delta.facets[i] for i in partition.a], delta.n_vertices)
            delta_b = from_facets([delta.facets[i] for i in partition.b], delta.n_vertices)
            b_faces = set(delta_b.faces())
            d = delta.dim + 1
            levels = ([(delta.facets, k) for k in range(1, d - 1)]
                      + [(delta_a.facets, k) for k in range(1, d - 1)])
            allowed = {delta.facets, delta_a.facets, delta_b.facets}
            for sigma in delta_a.faces():
                allowed |= {link(delta, sigma).facets, link(delta_a, sigma).facets}
                if sigma in b_faces:
                    allowed.add(link(delta_b, sigma).facets)
            for field in FIELDS:
                runs = [lambda: link_restriction_check(delta, partition, field),
                        lambda: cm_linkage_check(delta, partition, field),
                        lambda: qgor.cli.main(["liaison", path, "--facets-a",
                                               ",".join(str(i + 1) for i in a),
                                               "--field", field.spec_string()])]
                for run in runs:
                    counts.clear()
                    built.clear()
                    run()
                    capsys.readouterr()
                    assert delta_b.facets not in {f for f, _ in built}, (base, v, field, run)
                    assert sorted(built) == sorted(levels), (base, v, field, run)
                    assert counts and set(counts) <= allowed, (base, v, field)
                    assert max(counts.values()) == 1, (base, v, field, counts)


def test_analysis_builds_only_what_it_reads(monkeypatch):
    counts, _ = _count_betti(monkeypatch)
    walks = _spy_walks(monkeypatch)
    tables = []
    view = qgor.hochster._Links.__dict__["table"]
    original = view.func

    def spy(links):
        tables.append(links.delta)
        return original(links)

    monkeypatch.setattr(view, "func", spy)
    torus = get_fixture("csaszar-torus").complex()
    local_cohomology_table(torus, QQ)
    assert tables == [torus]
    tables.clear()
    for delta in [fx.complex() for fx in corpus() if not fx.complex().is_empty]:
        for field in FIELDS:
            counts.clear()
            walks.clear()
            qg = is_quasi_gorenstein(delta, field)
            assert not tables, (delta, field)
            # no Betti vector: H~_dim(Delta) comes off one walk over the ridge
            # map, and only for a normal pseudomanifold, which is strongly
            # connected, so the walk decides it
            npm = normal_pseudomanifold_report(delta).ok
            assert not counts, (delta, field, counts)
            assert walks == ([delta.facets] if npm else []), (delta, field)
            assert qg <= npm
    # a cone over a core that is Buchsbaum but no normal pseudomanifold
    two = get_fixture("two-triangles").complex()
    cone = from_facets([f + (7,) for f in two.facets], 7)
    assert core(cone).facets == two.facets and is_buchsbaum(two, QQ)[0]
    tables.clear()
    for field in FIELDS:
        assert not is_gorenstein(cone, field)
    assert tables == []


def test_scans_stop_at_their_answer(monkeypatch):
    counts, routes = _count_betti(monkeypatch)
    built = _spy_levels(monkeypatch)
    walks = _spy_walks(monkeypatch)
    # H~_2(sd-torus) != 0, read off one walk over its ridge map, fixes a = 0
    # at the empty face, before any level and with no Betti vector
    sd_torus = gen.sd(gen.torus())
    assert a_invariant(sd_torus, GF2) == 0
    assert counts == {} and built == [] and walks == [sd_torus.facets]
    # Buchsbaum exempts the empty face, so Delta's own vector is never computed,
    # and H~_{-1} of a nonempty link is 0, so neither is a link of dimension <= 0
    for delta in [sd_torus] + [d for d in COMPLEXES if not d.is_empty and core(d) == d]:
        for field in FIELDS:
            counts.clear()
            is_buchsbaum(delta, field)
            assert delta.facets not in counts, (delta, field)
            assert all(len(lk[-1]) > 1 for lk in counts), (delta, field, counts)
            counts.clear()
            serre_condition(delta, field, 3)
            assert all(len(lk[-1]) > 1 for lk in counts), (delta, field, counts)
    # on sd-torus the vertex links are cycles, each read once off its facets,
    # with no class key and no reduced_betti; none per edge
    counts.clear()
    for route in routes.values():
        route.clear()
    assert is_buchsbaum(sd_torus, GF2) == (True, None)
    cycles = {link(sd_torus, (v,)).facets for v in sd_torus.vertices()}
    assert counts == routes["_graph_betti"] == dict.fromkeys(cycles, 1)
    assert len(cycles) == sd_torus.n_vertices and not routes["reduced_betti"]
    # on the cone, the apex's link (H~_1 of the torus) is the first witness
    cone = gen.cone(sd_torus)
    apex = (cone.n_vertices,)
    counts.clear()
    assert is_buchsbaum(cone, GF2) == (False, (apex, 1))
    faces = cone.faces()
    read = _classes(link(cone, s).facets for s in faces[1:faces.index(apex) + 1])
    assert set(counts) == set(read) and len(read) == 9
    assert max(counts.values()) == 1
    # two boundaries of the 4-simplex wedged at vertex 1: lk{1}, the second
    # face in canonical order, is two 2-spheres and ends the manifold scan
    wedge = _wedge(4)
    assert len(wedge.faces()) == 60 and wedge.faces()[1] == (1,)
    counts.clear()
    assert is_homology_manifold(wedge, GF2) == (False, False)
    assert sum(counts.values()) <= 2, counts


def test_each_scan_builds_only_the_sizes_that_can_change_it(monkeypatch):
    built = _spy_levels(monkeypatch)
    sd_torus = gen.sd(gen.torus())
    surfaces = [sd_torus, gen.rp2(), get_fixture("csaszar-torus").complex()]
    for field in FIELDS:
        # H~_1(sd-torus) != 0 gives i = 2 at the empty face, and a vertex gives
        # i >= 2, so depth builds no level and the empty face is the witness
        built.clear()
        report = depth_report(sd_torus, field)
        assert (report.depth, report.witness) == (2, (2, ())) and built == []
        # a surface's edges and triangles have links of dimension <= 0, which
        # hold no low homology, so Buchsbaum reads the vertex level alone
        for surface in surfaces:
            built.clear()
            is_buchsbaum(surface, field)
            assert built == [(surface.facets, 1)], (surface, field)
    # the classification builds no ridge or facet level of a pure complex,
    # nor of its core: the ridges are read off the ridge map, the facets'
    # links are all {empty}, and H^d never vanishes; the normality scan of a
    # normal complex still reaches the last size below the ridges
    pure = [d for d in families(random.Random(26)) if d.is_pure() and not d.is_empty]
    for delta in pure:
        for predicate in (classification_report, is_homology_manifold, is_quasi_gorenstein,
                          is_gorenstein):
            built.clear()
            answer = predicate(delta, GF2)
            assert all(k < len(facets[-1]) - 1 for facets, k in built), (predicate, delta, built)
            if predicate is classification_report and answer.normal and delta.dim >= 2:
                assert (delta.facets, delta.dim - 1) in built, delta
    # the liaison checks on vertex-star partitions of sd(torus) and of
    # sd(boundary of the 4-simplex) build no level of Delta_B, and no ridge
    # or facet level of Delta or of Delta_A
    for base in (gen.torus(), gen.simplex_boundary(5)):
        delta, labels = gen.sd(base), gen.sd_labels(base)
        star = labels[(base.vertices()[0],)]
        partition = FacetPartition.complementary(
            delta, [i for i, f in enumerate(delta.facets) if star in f])
        delta_b = from_facets([delta.facets[i] for i in partition.b], delta.n_vertices)
        for check in (lefschetz_report, link_restriction_check, cm_linkage_check, tconn_check):
            built.clear()
            try:
                check(delta, partition, GF2)
            except HypothesesNotMet:
                pass
            assert built and all(facets != delta_b.facets for facets, _ in built), check
            assert all(k < delta.dim for _, k in built), (check, built)


def _renumbered(facets):
    """The facets with their vertices renumbered 1..m in ascending order."""
    order = sorted(set().union(*facets))
    return tuple(tuple(order.index(v) + 1 for v in f) for f in facets)


def _classes(links):
    """The first facet list of each class equal up to an order-preserving
    renumbering, in the order given."""
    first = {}
    for lk in links:
        first.setdefault(_renumbered(lk), lk)
    return list(first.values())


def test_links_share_betti_vectors_by_class(monkeypatch):
    counts, routes = _count_betti(monkeypatch)
    # a hexagon and two disjoint triangle boundaries: both links have six
    # vertices and six edges, and they are not isomorphic.  Then links of
    # dimension 2, which go through the class key: the octahedron boundary,
    # and a 2-complex with its 6 vertices, 12 edges and 8 triangles but
    # H~_1 = 1, H~_2 = 2
    hexagon = [(v, v % 6 + 1, 7) for v in range(1, 7)]
    triangles = [(a, b, 14) for t in ((8, 9, 10), (11, 12, 13)) for a, b in combinations(t, 2)]
    octahedron = [(a, b, c, 7) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    other = [(a + 7, b + 7, c + 7, 14) for a, b, c in (
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 5, 6), (3, 5, 6))]
    cases = ((from_facets(hexagon + triangles), "_graph_betti", [0, 1], [1, 2]),
             (from_facets(octahedron + other), "reduced_betti", [0, 0, 1], [0, 1, 2]))
    for delta, route, h7, h14 in cases:
        lk7, lk14 = link(delta, (7,)).facets, link(delta, (14,)).facets
        assert lk7 != lk14 and _renumbered(lk7) != _renumbered(lk14)
        for field in FIELDS:
            for route_counts in routes.values():
                route_counts.clear()
            table = local_cohomology_table(delta, field)
            assert {lk7, lk14} <= set(routes[route]), (delta, field)
            want = {}
            for sigma in delta.faces():
                for r, dim_r in oracle_betti(link(delta, sigma), field).nonzero().items():
                    want[(r + len(sigma) + 1, sigma)] = dim_r
            assert table._entries == want, field
            # H~_1 = 1 against H~_0 = 1, H~_1 = 2 for the graphs, and H~_2 = 1
            # against H~_1 = 1, H~_2 = 2 for the 2-complexes, at i = r + 2
            assert [table.entry(i, (7,)) for i in range(2, 2 + len(h7))] == h7, field
            assert [table.entry(i, (14,)) for i in range(2, 2 + len(h14))] == h14, field
    # sd(boundary of the 4-simplex): its 242 distinct links are 211 of
    # dimension <= 1 ({empty}, 80 point pairs and 130 cycles) and 31 of
    # dimension >= 2 (the vertex links and the complex) in 4 classes.  The
    # table reads {empty} and the point pairs, the links of the facets and
    # the ridges, off the ridge map, each cycle once off its facets, and
    # each class with one reduced_betti call
    sphere = gen.sd(gen.simplex_boundary(5))
    links = [link(sphere, s).facets for s in sphere.faces()]
    small = {lk for lk in links if len(lk[-1]) <= 2}
    large = _classes(lk for lk in links if len(lk[-1]) > 2)
    assert len(set(links)) == 242 and len(small) == 211
    assert [sum(len(lk[-1]) == k for lk in small) for k in (0, 1, 2)] == [1, 80, 130]
    counts.clear()
    for route in routes.values():
        route.clear()
    local_cohomology_table(sphere, GF2)
    assert routes["_graph_betti"] == dict.fromkeys((lk for lk in small if len(lk[-1]) == 2), 1)
    assert routes["reduced_betti"] == dict.fromkeys(large, 1)
    dims = sorted(len(lk[-1]) - 1 for lk in routes["reduced_betti"])
    assert dims == [2, 2, 2, 3], routes


def _mixed_complexes(seed, count):
    """Seeded complexes of triangles, edges and points on at most 8 vertices,
    some pure and some not: a vertex in a triangle and in an edge elsewhere
    has a link that mixes an isolated vertex with an edge."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 8)
        sizes = [3] * rng.randint(1, 5) if rng.random() < 0.3 else [
            rng.choice((1, 2, 2, 3, 3)) for _ in range(rng.randint(2, 9))]
        out.append(from_facets([rng.sample(range(1, n + 1), k) for k in sizes], n))
    return out


def _spy_routes(monkeypatch):
    """(graph, keys): the facets each _graph_betti call and each class key
    of the link view was given, in order."""
    graph, keys = [], []
    original_graph, original_key = qgor.hochster._graph_betti, qgor.hochster._class_key

    def spy_graph(facets):
        graph.append(facets)
        return original_graph(facets)

    def spy_key(lk):
        keys.append(lk)
        return original_key(lk)

    monkeypatch.setattr(qgor.hochster, "_graph_betti", spy_graph)
    monkeypatch.setattr(qgor.hochster, "_class_key", spy_key)
    return graph, keys


def test_link_routes_match_elimination_and_oracle(monkeypatch):
    # Every face's Betti vector in a fresh link view equals elimination on its
    # link and, up to 128 faces, the dense oracle; a link of dimension <= 1
    # is read by _graph_betti and never keyed, a larger one is keyed and
    # never read by _graph_betti, each distinct link once.
    graph, keys = _spy_routes(monkeypatch)
    complexes = (families(random.Random(28)) + _random_complexes(28, 40)
                 + _nonpure_complexes(28, 40) + _mixed_complexes(28, 80))
    reference = {}
    mixed = 0
    for delta in complexes:
        if delta.is_empty:
            continue
        for field in FIELDS:
            graph.clear()
            keys.clear()
            view = qgor.hochster._Links(delta, field)
            small, large = set(), set()
            for sigma, lk in view.faces():
                got = view.betti(sigma)
                complex_lk = link(delta, sigma)
                assert lk == complex_lk.facets, (delta, sigma)
                (small if len(lk[-1]) <= 2 else large).add(lk)
                mixed += len(lk[0]) == 1 and len(lk[-1]) == 2
                key = (lk, field.p)
                if key not in reference:
                    want = (qgor.homology._betti(qgor.homology._cells(complex_lk), field)
                            if lk[-1] else qgor.homology.BettiVector({-1: 1}))
                    if len(complex_lk.faces()) <= 128:
                        assert oracle_betti(complex_lk, field) == want, (delta, sigma, field)
                    reference[key] = want
                assert got == reference[key], (delta, sigma, field)
            assert sorted(graph) == sorted(small), (delta, field)
            assert sorted(keys) == sorted(large), (delta, field)
    assert mixed


def test_an_analysis_lives_as_long_as_its_call(monkeypatch):
    # Two identical calls on one complex each compute its own Betti vector
    # once: nothing a call computes is kept for the next one.
    counts, _ = _count_betti(monkeypatch)
    for delta in (get_fixture("csaszar-torus").complex(), gen.sd(gen.simplex_boundary(4)),
                  get_fixture("four-cycle").complex()):
        partition = FacetPartition.complementary(delta, [0])
        for field in FIELDS:
            for call, args in ((local_cohomology_table, (delta, field)),
                               (classification_report, (delta, field)),
                               (lefschetz_report, (delta, partition, field))):
                for _ in range(2):
                    counts.clear()
                    call(*args)
                    assert counts.get(delta.facets) == 1, (call, delta, field, counts)


def test_a_scan_refuses_only_what_it_reads(monkeypatch):
    # At a cap of 64: the 20-cycle's facets span 80, so each of its link
    # levels of nonempty faces is refused; the Fano plane's span 56 admits
    # its levels, but its cells record 70 boundary ids (and its nerve spans
    # 56 too), so its own Betti vector is refused.  A predicate refuses when
    # what it reads does.
    cycle = from_facets([[v, v % 20 + 1] for v in range(1, 21)])
    fano = from_facets([[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [5, 6, 1], [6, 7, 2],
                        [7, 1, 3]])
    spheres = from_facets([[v + 4 * i for v in f] for i in range(3)
                           for f in combinations(range(1, 5), 3)])
    partition = FacetPartition.complementary(cycle, [0])
    want = {field: classification_report(cycle, field).to_json() for field in FIELDS}
    tables = {field: local_cohomology_table(cycle, field) for field in FIELDS}
    monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", 64)
    for field in FIELDS:
        # H~_1 of a graph is E - V + c, and it fixes a = 0 and depth 2 = d with
        # no level read; Buchsbaum reads no face of a graph but the empty one,
        # which it exempts
        assert a_invariant(cycle, field) == 0
        report = depth_report(cycle, field)
        assert (report.depth, report.is_cohen_macaulay, report.witness) == (2, True, None)
        assert is_buchsbaum(cycle, field) == (True, None)
        # the table, the classification, the manifold scan and liaison's
        # quasi-Gorenstein premise read the vertices' edges off the ridge
        # map, so they answer as under the default cap
        assert local_cohomology_table(cycle, field) == tables[field]
        assert classification_report(cycle, field).to_json() == want[field]
        assert is_homology_manifold(cycle, field) == (True, True)
        assert tconn_check(cycle, partition, field) is True
        # three disjoint tetrahedron boundaries span 96: normality stops at
        # the disconnected empty face and the ridge condition holds, so the
        # normal report and quasi-Gorenstein answer; Buchsbaum, the manifold
        # scan and the table read the vertex level
        assert normal_pseudomanifold_report(spheres).witnesses == {"normal": ()}
        assert not is_quasi_gorenstein(spheres, field) and not is_gorenstein(spheres, field)
        for predicate in (classification_report, is_homology_manifold, local_cohomology_table):
            with pytest.raises(CapacityExceeded):
                predicate(spheres, field)
        # Buchsbaum exempts the empty face; the vertex links are three
        # disjoint edges, graphs, and the first is a witness
        assert is_buchsbaum(fano, field) == (False, ((1,), 0))
        # its edges each lie in one triangle, so the walk over its ridge map
        # reaches one facet and decides nothing, and the table, depth and the
        # a-invariant read its own Betti vector
        for predicate in (depth_report, a_invariant, classification_report,
                          local_cohomology_table):
            with pytest.raises(CapacityExceeded):
                predicate(fano, field)
    # orienting the facets builds no cells
    with mock.patch.object(qgor.homology, "_cells", wraps=qgor.homology._cells) as spy:
        assert is_orientable(gen.cross_polytope_boundary(3))
    assert spy.call_count == 0


def _bitmask_faces(delta):
    """Every face, by subset bitmasks of each facet, sorted by face_key."""
    seen = {tuple(f[i] for i in range(len(f)) if mask >> i & 1)
            for f in delta.facets for mask in range(2 ** len(f))}
    return sorted(seen, key=face_key)


def _link_levels(delta):
    """The link levels of delta for k = 0 up to its largest facet size."""
    return [qgor.simplicial_core._link_level(delta, k)
            for k in range(len(delta.facets[-1]) + 1 if delta.facets else 0)]


def test_index_links_equal_absorbed_links():
    void, empty = from_facets([]), from_facets([[]])
    for delta in [void, empty] + COMPLEXES + families(random.Random(14)):
        want = _bitmask_faces(delta)
        assert delta.faces() == want, delta
        # faces_of_dim(k) is the slice of dimension k, and the slices tile faces()
        start = 0
        for k in range(-2, len(delta.facets[-1]) + 1 if delta.facets else 1):
            stop = start + sum(len(f) == k + 1 for f in want)
            assert delta.faces_of_dim(k) == want[start:stop], (delta, k)
            start = stop
        assert start == len(want)
        # the levels joined in order are faces(), and each level's tuples are link()
        levels = _link_levels(delta)
        assert [sigma for level in levels for sigma in level] == want
        for k, level in enumerate(levels):
            for sigma, facets in level.items():
                assert len(sigma) == k
                assert facets == from_facets(facets, delta.n_vertices).facets == link(delta, sigma).facets
                assert facets == tuple(sorted(
                    (tuple(v for v in f if v not in sigma) for f in delta.facets if set(sigma) <= set(f)),
                    key=lambda f: (len(f), f)))
        assert qgor.simplicial_core._link_level(delta, len(levels)) == {}


def test_index_refuses_what_faces_refuses(monkeypatch):
    wide = from_facets([range(1, 6)])  # one facet with 32 subsets
    two = from_facets([[1, 2, 3, 4], [5, 6, 7, 8]])  # 31 faces, 16 per facet
    # built before the cap is lowered: the octahedron generator lists faces
    csaszar = get_fixture("csaszar-torus").complex()
    octahedron = gen.cross_polytope_boundary(3)
    nonpure = from_facets([[1, 2, 3], [3, 4], [5]])
    for delta, cap in ((wide, 16), (two, 20)):
        monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", cap)
        with pytest.raises(CapacityExceeded):
            delta.faces()
        for k in range(len(delta.facets[-1]) + 1):
            with pytest.raises(CapacityExceeded):
                qgor.simplicial_core._link_level(delta, k)
    monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", 32)
    assert sum(map(len, _link_levels(two))) == 31
    # a complex whose facets span s (the sum of 2^|F|) and which has n faces
    # is refused at a cap of s - 1, at every level, and answered at s
    for delta, s, n in ((two, 32, 31), (csaszar, 112, 43), (octahedron, 64, 27), (nonpure, 14, 11)):
        monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", s - 1)
        with pytest.raises(CapacityExceeded):
            delta.faces()
        for k in range(len(delta.facets[-1]) + 1):
            with pytest.raises(CapacityExceeded):
                qgor.simplicial_core._link_level(delta, k)
        monkeypatch.setattr(qgor.simplicial_core, "FACE_CAP", s)
        assert len(delta.faces()) == n
        assert [sigma for level in _link_levels(delta) for sigma in level] == delta.faces()


def _standalone_payload(delta, partition, field):
    """What `qgor liaison --json` prints, assembled from the four public checks."""
    out = lefschetz_report(delta, partition, field).to_json()
    out["link_restriction"] = link_restriction_check(delta, partition, field).to_json()
    out["cm_linkage"] = cm_linkage_check(delta, partition, field).to_json()
    try:
        out["tconn"] = {"ok": tconn_check(delta, partition, field), "hypotheses_failed": []}
    except HypothesesNotMet as exc:
        out["tconn"] = {"ok": None, "hypotheses_failed": list(exc.failed)}
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_liaison_run_matches_standalone_checks(field, tmp_path, capsys):
    for delta in COMPLEXES:
        if not delta.is_pure() or len(delta.facets) < 2:
            continue
        path = _facet_file(tmp_path, delta)
        for a in ([0], [0, 1]):
            if len(a) == len(delta.facets):
                continue
            code = qgor.cli.main(["liaison", path, "--facets-a", ",".join(str(i + 1) for i in a),
                                  "--field", field.spec_string(), "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0, (delta, a)
            partition = FacetPartition.complementary(delta, a)
            assert payload == _standalone_payload(delta, partition, field), (delta, a)


def _point_sets(rng):
    return from_facets([[v] for v in range(1, rng.randint(2, 6))])


def _impure(rng):
    """A seeded complex of top size 2 to 4 with smaller facets beside the
    top ones, one of them a size below the top, so it is a ridge in no
    top facet and its link is {empty}."""
    n, top = rng.randint(4, 8), rng.randint(2, 4)
    facets = [rng.sample(range(1, n + 1), top) for _ in range(rng.randint(1, 5))]
    facets += [rng.sample(range(1, n + 1), rng.randint(1, top - 1)) for _ in range(3)]
    facets.append(rng.sample(range(n + 1, n + top + 1), top - 1))
    return from_facets(facets)


RIDGE_FAMILIES = families(random.Random(34))

#: Name -> a seeded builder of the inputs the ridge view is checked on.
RIDGE_CASES = {
    "family": lambda rng: rng.choice(RIDGE_FAMILIES),
    "impure": _impure,
    "random": lambda rng: _random_complexes(rng.random(), 1)[0],
    "mixed": lambda rng: _mixed_complexes(rng.random(), 1)[0],
    "wedge": lambda rng: _wedge(rng.choice((2, 3, 4))),
    "empty": lambda rng: from_facets([[]]),
    "vertex": lambda rng: from_facets([[1]]),
    "points": _point_sets,
    "0-sphere": lambda rng: gen.simplex_boundary(2),
    "cone": lambda rng: gen.cone(gen.sd(gen.rp2())),
    "ball": lambda rng: gen.simplex(rng.randint(1, 5)),
    "rp2": lambda rng: gen.rp2(),
    "susp-sd-rp2": lambda rng: gen.suspension(gen.sd(gen.rp2())),
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(RIDGE_CASES)), field=st.sampled_from(FIELDS),
       rng=st.randoms(use_true_random=False))
def test_ridge_view_matches_every_level(case, field, rng):
    # The table, the a-invariant, H~_dim, quasi-Gorenstein and the tconn
    # verdict against references that read every face's link through link()
    # and reduced_betti, with no ridge map.
    delta = RIDGE_CASES[case](rng)
    d = delta.dim + 1
    betti = {sigma: reduced_betti(link(delta, sigma), field) for sigma in delta.faces()}
    table = {(r + len(sigma) + 1, sigma): dim_r
             for sigma, b in betti.items() for r, dim_r in b.nonzero().items()}
    assert local_cohomology_table(delta, field)._entries == table, (delta, field)
    assert a_invariant(delta, field) == -min(
        len(sigma) for sigma, b in betti.items() if b[d - len(sigma) - 1]), (delta, field)
    if delta.is_empty:
        return
    top = betti[()][delta.dim]
    assert qgor.hochster._Links(delta, field).top == top, (delta, field)
    normal = all(b[-1] == b[0] == 0 for sigma, b in betti.items() if len(sigma) < delta.dim)
    ridges = all(len(link(delta, r).facets) == 2 for r in delta.faces_of_dim(delta.dim - 1))
    qg = delta.is_pure() and normal and ridges and top != 0
    assert is_quasi_gorenstein(delta, field) == qg, (delta, field)
    if not delta.is_pure() or len(delta.facets) < 2:
        return
    v = delta.facets[0][0]
    for a in ([0], [i for i, f in enumerate(delta.facets) if v in f]):
        if len(a) == len(delta.facets):
            continue
        partition = FacetPartition.complementary(delta, a)
        delta_a = from_facets([delta.facets[i] for i in partition.a], delta.n_vertices)
        delta_b = from_facets([delta.facets[i] for i in partition.b], delta.n_vertices)
        buchsbaum = all(reduced_betti(link(delta_a, sigma), field)[i] == 0
                        for sigma in delta_a.faces()[1:]
                        for i in range(link(delta_a, sigma).dim))
        held = [qg, buchsbaum, len(a) < d]
        try:
            got = tconn_check(delta, partition, field)
        except HypothesesNotMet as exc:
            assert not all(held) and len(exc.failed) == held.count(False), (delta, a, field)
        else:
            assert all(held), (delta, a, field)
            assert got == (reduced_betti(delta_b, field)[0] == 0), (delta, a, field)


def test_no_public_call_builds_the_ridge_or_facet_level(monkeypatch, tmp_path, capsys):
    # For a top facet size D >= 2 the faces of sizes D - 1 and D, and
    # H~_{D-1} wherever only that degree is read, come off the ridge map:
    # no public call builds a link level of size D - 1 or more, for the
    # complex, its core, Delta_A or Delta_B.
    built = _spy_levels(monkeypatch)
    impure = _nonpure_complexes(34, 10) + _mixed_complexes(34, 10)
    cases = [d for d in families(random.Random(34)) + impure if not d.is_empty]
    single = (local_cohomology_table, depth_report, a_invariant, is_buchsbaum,
              classification_report, is_homology_manifold, is_quasi_gorenstein, is_gorenstein,
              lambda delta, field: serre_condition(delta, field, 3),
              lambda delta, field: normal_pseudomanifold_report(delta),
              lambda delta, field: is_orientable(delta))
    checks = (lefschetz_report, link_restriction_check, cm_linkage_check, tconn_check)
    levels = 0
    for delta in cases:
        calls = [lambda f=f: f(delta, GF2) for f in single]
        if delta.is_pure() and len(delta.facets) > 1:
            partition = FacetPartition.complementary(delta, [0])
            calls += [lambda c=c: c(delta, partition, GF2) for c in checks]
            path = _facet_file(tmp_path, delta)
            calls += [lambda: qgor.cli.main([sub, path] + args) for sub, args in (
                ("classify", []), ("hochster", []), ("liaison", ["--facets-a", "1"]))]
        for call in calls:
            built.clear()
            try:
                call()
            except (HypothesesNotMet, NotPure, qgor.NotAPseudomanifold):
                pass
            capsys.readouterr()
            levels += len(built)
            for facets, k in built:
                top = len(facets[-1])
                assert top < 2 or k < top - 1, (delta, facets, k)
    assert levels > 1000, levels


def test_quasi_gorenstein_and_tconn_eliminate_nothing():
    # sd of the boundary of the 4-simplex: quasi-Gorenstein reads H~_3 off
    # the walk over the ridge map, and tconn reads H~_0(Delta_B) off the
    # components of Delta_B's facets, so neither builds a cell of Delta or
    # Delta_B.  Delta_A's Buchsbaum links are disks, spheres and simplices,
    # answered with no matrix.  A vertex star has more than 4 facets, so
    # tconn refuses it on the size premise alone; one facet passes it.
    base = gen.simplex_boundary(5)
    delta, labels = gen.sd(base), gen.sd_labels(base)
    star = labels[(1,)]
    partition = FacetPartition.complementary(
        delta, [i for i, f in enumerate(delta.facets) if star in f])
    for field in FIELDS:
        with mock.patch.object(qgor.homology, "_cells", wraps=qgor.homology._cells) as spy:
            assert is_quasi_gorenstein(delta, field)
            with pytest.raises(HypothesesNotMet) as exc:
                tconn_check(delta, partition, field)
            assert tconn_check(delta, FacetPartition.complementary(delta, [0]), field)
        assert spy.call_count == 0, field
        assert len(exc.value.failed) == 1 and exc.value.failed[0].startswith("|A|")
