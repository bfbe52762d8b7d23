"""Gamma_t facet graphs, 2-connectivity, removal experiments."""

import random
import re
import time
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from _perfbench import families, gen
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgor import (
    GF2,
    FacetPartition,
    GammaGraph,
    GammaTwoNotIsolated,
    IndexOutOfRange,
    NotPure,
    QQ,
    TOutOfRange,
    classification_report,
    connectivity_report,
    core,
    from_facets,
    gamma_graph,
    graphs,
    hochster,
    is_orientable,
    is_pseudomanifold,
    is_quasi_gorenstein,
    is_strongly_connected,
    removal_experiment,
    restrict_to_facets,
)
from qgor.cli import main
from qgor.fixtures import corpus, get_fixture

FIELDS_QG = [QQ]


def test_gamma_one_of_simplex_boundary_is_complete():
    delta = get_fixture("boundary-3-simplex").complex()
    g = gamma_graph(delta, 1)
    assert g.n_vertices == 4
    assert len(g.edges) == 6
    assert all((i, j) in g.edges for i in range(4) for j in range(i + 1, 4))


def test_gamma_zero_is_edgeless():
    delta = get_fixture("boundary-3-simplex").complex()
    assert gamma_graph(delta, 0).edges == frozenset()


def test_gamma_one_of_four_cycle_is_the_cycle():
    delta = get_fixture("four-cycle").complex()
    g = gamma_graph(delta, 1)
    # canonical facet order: (1,2), (1,4), (2,3), (3,4)
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
    assert sorted(g.adjacency()[0]) == [1, 2]


def test_gamma_rejects_bad_inputs():
    delta = get_fixture("four-cycle").complex()
    with pytest.raises(TOutOfRange):
        gamma_graph(delta, -1)
    with pytest.raises(TOutOfRange):
        gamma_graph(delta, delta.dim + 2)
    for t in (True, False, 1.0, "1", None):
        with pytest.raises(TOutOfRange, match="t must lie in 0..2"):
            gamma_graph(delta, t)
    with pytest.raises(NotPure):
        gamma_graph(from_facets([[1, 2, 3], [4, 5]], 5), 1)
    with pytest.raises(ValueError):
        gamma_graph(from_facets([]), 0)


def test_gamma_monotone_in_t():
    for fx in corpus():
        delta = fx.complex()
        graphs = [gamma_graph(delta, t) for t in range(delta.dim + 2)]
        for s in range(len(graphs) - 1):
            assert graphs[s].edges <= graphs[s + 1].edges, (fx.name, s)
        assert graphs[0].edges == frozenset()
        m = len(delta.facets)
        assert len(graphs[-1].edges) == m * (m - 1) // 2, fx.name


def test_gamma_one_equals_ridge_adjacency():
    # independent of Gamma_t's intersection sizes: file each facet under
    # its ridges, then join the facets filed under a common ridge
    for fx in corpus():
        delta = fx.complex()
        g = gamma_graph(delta, 1)
        by_ridge = {}
        for i, f in enumerate(delta.facets):
            for ridge in combinations(f, len(f) - 1):
                by_ridge.setdefault(ridge, []).append(i)
        ridge_edges = {pair for facets in by_ridge.values() for pair in combinations(facets, 2)}
        assert g.edges == frozenset(ridge_edges), fx.name


# Gamma_t against its definition.  gamma_graph pairs facets through shared
# k-subsets (k = dim + 1 - t), writes the complete graph down for k <= 0,
# and falls back to intersecting every pair when filing each facet under
# its C(dim + 1, k) subsets would cost more than the m(m-1)/2 pairs.


def _random_pure(rng):
    n = rng.randint(1, 9)
    d = rng.randint(0, min(n - 1, 4))
    return gen.random_pure(rng, n, d, rng.randint(1, min(comb(n, d + 1), 30)))


def _wide(rng):
    """Two 22-vertex facets: filing them under their 11-subsets alone
    would take seconds and hundreds of MB, where one intersection answers."""
    overlap = rng.randint(0, 21)
    return from_facets([range(1, 23), range(23 - overlap, 45 - overlap)])


GAMMA_FAMILIES = {
    "random": _random_pure,
    "cone": lambda rng: gen.cone(_random_pure(rng)),
    "join": lambda rng: gen.join(gen.random_pure(rng, 4, rng.randint(0, 2), rng.randint(1, 4)),
                                 gen.random_pure(rng, 4, rng.randint(0, 1), rng.randint(1, 4))),
    "wide": _wide,
}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(family=st.sampled_from(sorted(GAMMA_FAMILIES)), rng=st.randoms(use_true_random=False))
@example(family="wide", rng=random.Random(0))
def test_gamma_matches_pairwise_definition(family, rng):
    delta = GAMMA_FAMILIES[family](rng)
    d, m = delta.dim, len(delta.facets)
    for t in range(d + 2):
        k = d + 1 - t
        want = {(i, j) for i, j in combinations(range(m), 2)
                if len(set(delta.facets[i]) & set(delta.facets[j])) >= k}
        with mock.patch.object(graphs, "_pairwise_edges", wraps=graphs._pairwise_edges) as pairwise, \
                mock.patch.object(graphs, "_shared_subset_edges",
                                  wraps=graphs._shared_subset_edges) as shared:
            got = gamma_graph(delta, t)
        assert got.edges == want, (delta, t)
        bounded = k > 0 and m * comb(d + 1, k) > m * (m - 1) // 2
        assert pairwise.call_count == int(bounded), (delta, t)
        assert shared.call_count == int(k > 0 and not bounded), (delta, t)
        if family == "wide" and k > 0:
            assert pairwise.call_count == 1, t


class _CountHidden:
    """A graph's adjacency behind an edge count above the complete graph's,
    so connectivity_report has to run its depth-first search."""

    def __init__(self, graph):
        self.n_vertices = graph.n_vertices
        self.edges = [None] * (graph.n_vertices ** 2 + 1)
        self.adjacency = graph.adjacency


def _report_and_search(graph):
    with mock.patch.object(graphs, "_articulation_points",
                           wraps=graphs._articulation_points) as spy:
        report = connectivity_report(graph)
    return report, spy.call_count > 0


def test_complete_graph_report_matches_the_search():
    points = [gamma_graph(from_facets([[v] for v in range(1, n + 1)]), 1) for n in range(1, 7)]
    tops = [gamma_graph(fx.complex(), fx.complex().dim + 1) for fx in corpus()]
    for g in points + tops:
        assert len(g.edges) == g.n_vertices * (g.n_vertices - 1) // 2
        fast, searched = _report_and_search(g)
        assert not searched, g
        slow, searched = _report_and_search(_CountHidden(g))
        assert searched, g
        assert fast.to_json() == slow.to_json(), g
        assert repr(fast) == repr(slow), g
        assert fast.trivial == (g.n_vertices <= 2)
    for n in range(2, 7):
        full = gamma_graph(from_facets([[v] for v in range(1, n + 1)]), 1)
        for edge in full.edges:
            g = GammaGraph(full.t, full.facets, full.edges - {edge})
            report, searched = _report_and_search(g)
            assert searched, (n, edge)
            assert report.components == (2 if n == 2 else 1), (n, edge)


def test_gamma_on_sd3_torus():
    # 3,024 facets: intersecting every pair took about 1 s per Gamma_t
    surface = gen.sd(gen.sd(gen.sd(gen.torus())))
    m = len(surface.facets)
    degree = {}
    for f in surface.facets:
        for v in f:
            degree[v] = degree.get(v, 0) + 1
    # a closed surface: each edge lies in two triangles, and a pair
    # sharing an edge shares two vertices, so the vertex sum counts it twice
    ridges = 3 * m // 2
    share_vertex = sum(comb(k, 2) for k in degree.values()) - ridges
    counts = [len(gamma_graph(surface, t).edges) for t in range(3)]
    assert counts == [0, ridges, share_vertex] == [0, 4536, 30912]
    # Gamma_3 is complete, and none of its pairs is listed
    graph, peak = _traced(lambda: gamma_graph(surface, 3))
    assert len(graph.edges) == comb(m, 2) == 4570776
    assert peak < 2 ** 20
    assert is_strongly_connected(surface)
    removal, used = [], set()
    for i, f in enumerate(surface.facets):
        if not used & set(f):
            removal.append(i)
            used |= set(f)
    assert len(removal) > 100
    assert removal_experiment(surface, removal)


def _traced(call):
    """call()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _gamma_and_report(delta, t):
    graph = gamma_graph(delta, t)
    return graph, connectivity_report(graph)


def test_complete_gamma_lists_no_pairs():
    surface = gen.sd(gen.sd(gen.torus()))
    (graph, report), peak = _traced(lambda: _gamma_and_report(surface, 3))
    assert len(graph.edges) == comb(len(surface.facets), 2) == 126756
    assert (report.components, report.two_connected, report.articulation_points) == (1, True, [])
    assert peak < 2 ** 20


def test_complete_gamma_is_the_set_of_all_pairs():
    probes = 0
    for fx in corpus():
        delta = fx.complex()
        if delta.is_void or delta.is_empty or not delta.is_pure():
            continue
        d, m = delta.dim, len(delta.facets)
        full = gamma_graph(delta, d + 1).edges
        pairs = frozenset(combinations(range(m), 2))
        assert full == pairs and pairs == full and not full != pairs, fx.name
        assert hash(full) == hash(pairs), fx.name
        below = gamma_graph(delta, d).edges
        assert below <= full and full >= below, fx.name
        assert list(full) == sorted(pairs), fx.name
        assert isinstance(full & below, frozenset) and full & below == below == below & full
        assert isinstance(full | below, frozenset) and full | below == pairs
        for i, j in pairs:
            assert (i, j) in full and (j, i) not in full and (i, i) not in full
            probes += 1
        for probe in ((m - 1, m), (-1, 0), (0, m), (m, m + 1), (0,), (0, 1, 2),
                      [0, 1], "01", 0, None, (0.5, 1), ("0", "1")):
            assert probe not in full, (fx.name, probe)
    assert probes > 100


def test_connectivity_report_complete_graph():
    g = gamma_graph(get_fixture("boundary-3-simplex").complex(), 1)
    components, two_connected, points = connectivity_report(g)
    assert (components, two_connected, points) == (1, True, [])


def test_connectivity_report_path():
    # three edges in a path: the middle one is an articulation point
    delta = from_facets([[1, 2], [2, 3], [3, 4]], 4)
    g = gamma_graph(delta, 1)
    components, two_connected, points = connectivity_report(g)
    assert components == 1
    assert not two_connected
    assert points == [1]  # facet (2,3) sits between the other two


def test_connectivity_report_torus():
    g = gamma_graph(get_fixture("csaszar-torus").complex(), 1)
    report = connectivity_report(g)
    assert report.components == 1
    assert report.two_connected
    assert report.articulation_points == []
    assert not report.trivial


def test_connectivity_trivial_small_graphs():
    single = gamma_graph(get_fixture("full-simplex-3").complex(), 1)
    report = connectivity_report(single)
    assert report.trivial and report.two_connected

    two = gamma_graph(get_fixture("two-triangles").complex(), 1)
    report = connectivity_report(two)
    assert report.trivial
    assert not report.two_connected  # two isolated vertices


def test_two_connected_gamma_one_for_quasi_gorenstein_fixtures():
    for fx in corpus():
        delta = fx.complex()
        if not any(is_quasi_gorenstein(delta, f) for f in FIELDS_QG):
            continue
        assert connectivity_report(gamma_graph(delta, 1)).two_connected, fx.name


def test_removal_single_facet_of_sphere():
    delta = get_fixture("boundary-3-simplex").complex()
    assert removal_experiment(delta, [0])


def test_removal_rejects_gamma_two_neighbors():
    delta = get_fixture("csaszar-torus").complex()
    # facets 0 and 1 share two vertices, hence already a Gamma_1 edge
    with pytest.raises(GammaTwoNotIsolated) as exc:
        removal_experiment(delta, [0, 1])
    assert exc.value.pair == (0, 1)
    # sharing a single vertex is enough to be adjacent in Gamma_2
    g2 = gamma_graph(delta, 2)
    i, j = next(iter(sorted(g2.edges - gamma_graph(delta, 1).edges)))
    with pytest.raises(GammaTwoNotIsolated):
        removal_experiment(delta, [i, j])


def test_removal_index_range():
    delta = get_fixture("four-cycle").complex()
    with pytest.raises(IndexOutOfRange):
        removal_experiment(delta, [7])


def test_facet_indices_must_be_ints_in_range():
    # a float or a bool is no facet position: 1.5 was read as no facet and
    # True as facet 1, and a partition with 1.5 failed later as not covering;
    # a value that does not compare with ints is refused before any sort
    delta = get_fixture("csaszar-torus").complex()
    m = len(delta.facets)
    for bad in ([1.5], [True], [-1], [m], [1, "a"], [1, None]):
        for call in (lambda: removal_experiment(delta, bad),
                     lambda: FacetPartition.complementary(delta, bad),
                     lambda: restrict_to_facets(delta, bad)):
            with pytest.raises(IndexOutOfRange):
                call()
    for bad in (-1, m):
        want = f"facet index {bad} out of range 0..{m - 1}"
        for call in (lambda: removal_experiment(delta, [0, bad]),
                     lambda: FacetPartition.complementary(delta, [bad]),
                     lambda: restrict_to_facets(delta, [0, bad])):
            with pytest.raises(IndexOutOfRange, match=re.escape(want) + "$"):
                call()


def test_removal_exhaustive_on_corpus():
    # every Gamma_2-edgeless facet set leaves Gamma_1 connected
    for fx in corpus():
        delta = fx.complex()
        m = len(delta.facets)
        g2 = gamma_graph(delta, min(2, delta.dim + 1))
        valid = 0
        for size in range(1, m + 1):
            for b in combinations(range(m), size):
                if any(e in g2.edges for e in combinations(b, 2)):
                    continue
                valid += 1
                assert removal_experiment(delta, b), (fx.name, b)
        assert valid >= 1, fx.name


def test_torus_has_twenty_one_valid_removal_sets():
    delta = get_fixture("csaszar-torus").complex()
    g2 = gamma_graph(delta, 2)
    sets = [
        b
        for size in (1, 2, 3)
        for b in combinations(range(14), size)
        if not any(e in g2.edges for e in combinations(b, 2))
    ]
    assert len(sets) == 21
    assert sum(1 for b in sets if len(b) == 1) == 14
    assert sum(1 for b in sets if len(b) == 2) == 7


def test_graph_serialization():
    delta = get_fixture("four-cycle").complex()
    g = gamma_graph(delta, 1)
    payload = g.to_json()
    assert payload["t"] == 1
    assert payload["n_facets"] == 4
    assert payload["facets"]["1"] == [1, 2]
    # adjacency is symmetric and 1-based
    for v, nbrs in payload["adjacency"].items():
        for w in nbrs:
            assert int(v) in payload["adjacency"][str(w)]

    dot = g.to_dot()
    assert dot.startswith("graph gamma_1 {")
    assert 'f1 [label="{1,2}"];' in dot
    assert dot.rstrip().endswith("}")


# Strong connectivity and the removal experiment count Gamma_1's components
# through its ridge buckets and never list its pairs; connectivity_report
# reads components and articulation points off one search.


def _book(pages, spine=(1, 2)):
    """The pages spine + {v} for v past the spine: every facet through one ridge."""
    first = max(spine) + 1
    return from_facets([(*spine, v) for v in range(first, first + pages)])


def _timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def test_book_is_connected_in_linear_time(tmp_path, capsys):
    # 2,000 triangles on one edge: Gamma_1 is complete with 1,999,000 pairs,
    # which took 2.6-3.6 s and about 465 MB to list per call
    book = _book(2000)
    calls = {
        "is_strongly_connected": lambda: is_strongly_connected(book),
        "classification_report": lambda: classification_report(book, GF2).strongly_connected,
        "removal_experiment": lambda: removal_experiment(book, [0]),
    }
    for name, call in calls.items():
        result, seconds = _timed(call)
        assert result is True, name
        assert seconds < 1, (name, seconds)
        assert _traced(call)[1] < 8 * 2 ** 20, name
    path = tmp_path / "book.cplx"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in book.facets))
    code, seconds = _timed(lambda: main(["classify", str(path)]))
    out = capsys.readouterr().out
    assert code == 0 and "strongly_connected: yes" in out
    assert seconds < 1, seconds


def _reference_components(adj, removed=()):
    """Components of a graph less some vertices, by a plain depth-first search."""
    seen, count = set(removed), 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _reference_report(graph):
    """(components, two_connected, articulation points, trivial), the points
    found by deleting each vertex and recounting."""
    adj = graph.adjacency()
    components = _reference_components(adj)
    points = [v for v in adj if _reference_components(adj, {v}) > components]
    trivial = graph.n_vertices <= 2
    return components, components == 1 and (trivial or not points), points, trivial


def _gamma_two_pairs(delta, b):
    """The pairs x < y of b whose facets share at least dim - 1 vertices."""
    return [(x, y) for x, y in combinations(sorted(b), 2)
            if len(set(delta.facets[x]) & set(delta.facets[y])) >= delta.dim - 1]


def _removal_sets(rng, delta):
    """The benchmark's draw (facets in random order, each kept when it shares
    no vertex with those kept, at most eight), the empty set, random sets
    grown the same way under the Gamma_2 check, and random sets."""
    m = len(delta.facets)
    order = list(range(m))
    rng.shuffle(order)
    disjoint, used = [], set()
    for i in order:
        if len(disjoint) < 8 and not used & set(delta.facets[i]):
            disjoint.append(i)
            used |= set(delta.facets[i])
    sets = [disjoint, []]
    for _ in range(3):
        rng.shuffle(order)
        grown = []
        for i in order[:rng.randint(1, m)]:
            if not _gamma_two_pairs(delta, grown + [i]):
                grown.append(i)
        sets.append(grown)
    return sets + [rng.sample(range(m), rng.randint(1, m)) for _ in range(2)]


def _differential_inputs(rng):
    randoms = []
    for _ in range(150):
        n = rng.randint(2, 8)
        d = rng.randint(0, min(n - 1, 3))
        randoms.append(gen.random_pure(rng, n, d, rng.randint(1, min(comb(n, d + 1), 14))))
    books = [_book(p, spine) for p in (1, 2, 5) for spine in ((1,), (1, 2), (1, 2, 3))]
    return (families(rng) + randoms + [gen.cone(d) for d in randoms[:40]] + books
            + [gen.add_dangling_edge(b, 1) for b in books[:3]])


def test_facet_components_match_a_reference_search():
    rng = random.Random(22)
    removals = disconnected = 0
    for delta in _differential_inputs(rng):
        if delta.is_void or delta.is_empty or not delta.is_pure():
            continue
        d, m = delta.dim, len(delta.facets)
        adj = gamma_graph(delta, 1).adjacency()
        assert is_strongly_connected(delta) == (_reference_components(adj) <= 1), delta
        for t in range(min(2, d + 1) + 1):
            graph = gamma_graph(delta, t)
            report = connectivity_report(graph)
            got = (report.components, report.two_connected,
                   report.articulation_points, report.trivial)
            assert got == _reference_report(graph), (delta, t)
        for b in _removal_sets(rng, delta):
            bad = _gamma_two_pairs(delta, b)
            if bad:
                with pytest.raises(GammaTwoNotIsolated) as exc:
                    removal_experiment(delta, b)
                assert exc.value.pair == bad[0], (delta, b)
                continue
            want = _reference_components(adj, set(b)) <= 1
            assert removal_experiment(delta, b) == want, (delta, b)
            removals += 1
            disconnected += not want
    assert removals > 500 and disconnected > 50, (removals, disconnected)


def _pair_listings(call):
    """call()'s result, or the exception it raised, with the pair listings
    graphs made during it: each list of facet indices paired by
    combinations(..., 2), as _shared_subset_edges pairs a bucket (a facet,
    filed under its 2-subsets, is a tuple), and the _pairwise_edges calls."""
    real, listed = graphs.combinations, []

    def spy(items, r):
        if r == 2 and isinstance(items, list):
            listed.append(tuple(items))
        return real(items, r)

    with mock.patch.object(graphs, "combinations", spy), \
            mock.patch.object(graphs, "_pairwise_edges", wraps=graphs._pairwise_edges) as pairwise:
        try:
            result = call()
        except Exception as exc:  # a refusal is an answer here
            result = exc
    return result, listed, pairwise.call_count


def test_connectivity_predicates_list_no_facet_pair():
    rng = random.Random(5)
    cases = families(rng)
    assert len(cases) > len(corpus())
    for delta in cases:
        calls = [lambda: is_strongly_connected(delta), lambda: is_pseudomanifold(delta),
                 lambda: is_orientable(delta), lambda: classification_report(delta, GF2)]
        for call in calls:
            _, listed, pairwise = _pair_listings(call)
            assert (listed, pairwise) == ([], 0), delta
        if delta.is_void or delta.is_empty or not delta.is_pure():
            continue
        for b in _removal_sets(rng, delta)[:3]:
            # the Gamma_2 check files B's facets and lists none of its pairs
            _, listed, pairwise = _pair_listings(lambda: removal_experiment(delta, b))
            assert pairwise == 0 and listed == [], (delta, b)


def test_connectivity_report_searches_once():
    searched = 0
    for fx in corpus():
        delta = fx.complex()
        if delta.is_void or delta.is_empty or not delta.is_pure():
            continue
        graph = gamma_graph(delta, 1)
        n = graph.n_vertices
        if len(graph.edges) == n * (n - 1) // 2:
            continue
        with mock.patch.object(graphs, "_components", wraps=graphs._components) as count, \
                mock.patch.object(graphs, "_articulation_points",
                                  wraps=graphs._articulation_points) as search:
            connectivity_report(graph)
        assert (count.call_count, search.call_count) == (0, 1), fx.name
        searched += 1
    assert searched >= 3


# _components counts the components of the complex its facets generate by
# union-find; the reference joins every two vertices of a facet and searches.


def _search_components(facets):
    """Components of the complex the facets generate, by a plain depth-first
    search over the adjacency joining every two vertices of a facet."""
    adj = {v: set() for f in facets for v in f}
    for f in facets:
        for v, w in combinations(f, 2):
            adj[v].add(w)
            adj[w].add(v)
    return _reference_components(adj)


def _random_facet_lists(rng):
    """Seeded facet lists: facets of 0 to 4 vertices, repeats and singletons
    included, on few vertices (so facets overlap) and on many (so paths of
    joined roots grow long), with some vertices renamed to tuples."""
    lists = []
    for _ in range(400):
        n = rng.choice((1, 3, 6, 12, 40))
        facets = [tuple(rng.sample(range(n), rng.randint(0, min(n, 4))))
                  for _ in range(rng.randint(0, 30))]
        facets += rng.sample(facets, min(len(facets), rng.randint(0, 3)))
        rng.shuffle(facets)
        if rng.random() < 0.3:
            facets = [tuple((v % 3, v // 3) for v in f) for f in facets]
        lists.append(facets)
    return lists


def test_components_match_a_plain_search():
    rng = random.Random(23)
    paths = []
    for n in (2, 5, 50):
        order = list(range(n))
        rng.shuffle(order)
        paths.append([(order[i], order[i + 1]) for i in range(n - 1)])
    # the orientation cover of a hexagon: two components
    cover = [((k, e), ((k + 1) % 6, -e)) for k in range(6) for e in (1, -1)]
    fixed = [[], [()], [(), ()], [(1,)], [(1,), (1,)], [(1,), (2,), (3,)],
             [(1, 2), (1, 2)], [(1, 2), (2, 1)], [(1, 2), (), (3,)],
             [(1, 2, 3), (3, 4), (4, 1), (5,), (5, 6), (6, 5)], cover]
    counts = set()
    for facets in fixed + paths + _random_facet_lists(rng):
        want = _search_components(facets)
        assert graphs._components(facets) == want, facets
        # a one-shot generator of one-shot facets reads the same
        assert graphs._components(iter(f) for f in facets) == want, facets
        counts.add(want)
    assert graphs._components(cover) == 2
    assert len(counts) >= 8, counts


def _disjoint_triangles(n):
    return from_facets([(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(n)])


def test_removal_of_many_facets_is_linear(tmp_path, capsys):
    # 3,000 vertex-disjoint triangles, all removed: checking B's 4,498,500
    # pairs for a Gamma_2 edge one by one took over 4 s
    delta = _disjoint_triangles(3000)
    result, seconds = _timed(lambda: removal_experiment(delta, range(3000)))
    assert result is True and seconds < 0.5, seconds
    path = tmp_path / "triangles.cplx"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in delta.facets))
    remove = ",".join(str(i) for i in range(1, 3001))
    code, seconds = _timed(lambda: main(["graph", str(path), "--remove", remove]))
    out = capsys.readouterr().out
    assert code == 0 and "still connected" in out
    assert seconds < 1, seconds


def test_classify_predicates_build_one_ridge_map():
    # One ridge map per analysed complex, of its facets of top size: the
    # field-free predicates analyse a pure complex with a vertex, and the
    # report analyses the complex and, when it differs and is nonempty, its
    # core.  No facet is filed under its ridges again through graphs.
    checked = 0
    for delta in families(random.Random(6)):
        calls = {"is_strongly_connected": lambda: is_strongly_connected(delta),
                 "is_pseudomanifold": lambda: is_pseudomanifold(delta),
                 "is_orientable": lambda: is_orientable(delta),
                 "classification_report": lambda: classification_report(delta, GF2)}
        for name, call in calls.items():
            with mock.patch.object(hochster, "_ridge_map",
                                   wraps=hochster._ridge_map) as ridges, \
                    mock.patch.object(graphs, "_subset_buckets",
                                      wraps=graphs._subset_buckets) as buckets:
                try:
                    call()
                    answered = True
                except Exception:  # a refusal is an answer here
                    answered = False
            assert buckets.call_count == 0, (name, delta)
            analysed = []
            if name == "classification_report" and not (delta.is_void or delta.is_empty):
                analysed = [delta] + [c for c in [core(delta)] if c != delta and not c.is_empty]
            elif delta.is_pure() and not (delta.is_void or delta.is_empty):
                analysed = [delta]
            want = [([f for f in x.facets if len(f) == len(x.facets[-1])],) for x in analysed]
            got = [c.args for c in ridges.call_args_list]
            assert got == want if answered else got == want[:len(got)], (name, delta, got)
            checked += bool(analysed) and answered
    assert checked > 100, checked
