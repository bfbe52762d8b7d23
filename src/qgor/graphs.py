"""Facet graphs Gamma_t and connectivity experiments.

For a pure complex of dimension dimDelta the graph Gamma_t has the
facets as vertices, with an edge between two facets sigma, tau exactly
when |sigma cap tau| >= dimDelta + 1 - t.  Thus Gamma_0 is edgeless,
Gamma_1 is the dual graph (adjacency across ridges), and
Gamma_{dimDelta+1} is complete.  removal_experiment checks the
connectedness statement: deleting a set of facets that is edgeless in
Gamma_2 never disconnects Gamma_1.

With k = dimDelta + 1 - t, two facets are adjacent exactly when they
share a k-subset, so each facet is filed under its k-subsets.
gamma_graph pairs only facets filed together, so it costs what its
output costs; when filing (C(dimDelta + 1, k) subsets per facet) would
cost more than the facet pairs, it intersects every pair instead.  For
k <= 0 its edge set lists no pair: it is every pair i < j < m held as m,
a frozen set with O(1) size and membership, lexicographic iteration and
set algebra that returns frozensets.  Strong connectivity and the
removal experiment list no pair at all: _components, one union-find over
facets, counts Gamma_1's components off its ridge buckets, so a ridge in
n facets costs n, not n(n-1)/2, and a Gamma_2 edge within B is found by
filing B's facets alone.  connectivity_report reads a complete graph off
its edge count and any other graph off one depth-first search.
"""

from collections.abc import Set
from itertools import chain, combinations
from math import comb
from types import SimpleNamespace

from .errors import GammaTwoNotIsolated, NotPure, TOutOfRange
from .simplicial_core import check_facet_indices


class GammaGraph:
    """The graph Gamma_t on the facets of a pure complex.

    Vertices are 0-based facet indices into the canonical facet order,
    and edges are pairs (i, j) with i < j; serialized forms use 1-based
    indices to match the CLI convention.
    """

    __slots__ = ("t", "facets", "edges")

    def __init__(self, t, facets, edges):
        self.t = t
        self.facets = facets
        self.edges = edges if isinstance(edges, _AllPairs) else frozenset(edges)

    @property
    def n_vertices(self):
        return len(self.facets)

    def adjacency(self):
        adj = {i: set() for i in range(len(self.facets))}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def to_json(self):
        adj = self.adjacency()
        return {
            "t": self.t,
            "n_facets": len(self.facets),
            "facets": {str(i + 1): list(f) for i, f in enumerate(self.facets)},
            "adjacency": {str(i + 1): sorted(j + 1 for j in adj[i]) for i in adj},
        }

    def to_dot(self):
        """Plain DOT text, one node per facet, no layout hints."""
        lines = [f"graph gamma_{self.t} {{"]
        for i, f in enumerate(self.facets):
            label = "{" + ",".join(str(v) for v in f) + "}"
            lines.append(f'  f{i + 1} [label="{label}"];')
        for a, b in sorted(self.edges):
            lines.append(f"  f{a + 1} -- f{b + 1};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, GammaGraph):
            return NotImplemented
        return (self.t, self.facets, self.edges) == (other.t, other.facets, other.edges)

    def __repr__(self):
        return (
            f"GammaGraph(t={self.t}, facets={len(self.facets)}, "
            f"edges={len(self.edges)})"
        )


class _AllPairs(Set):
    """Every pair (i, j) with i < j < n, the edge set of the complete graph
    on n vertices, held as n: len and membership are O(1), iteration is
    lexicographic, and set algebra with it returns frozensets."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n * (self.n - 1) // 2

    def __contains__(self, pair):
        return (isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(v, int) for v in pair) and 0 <= pair[0] < pair[1] < self.n)

    def __iter__(self):
        return combinations(range(self.n), 2)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    __hash__ = Set._hash


def gamma_graph(delta, t):
    """Build Gamma_t: facets adjacent iff |sigma cap tau| >= dimDelta+1-t.

    With k = dimDelta + 1 - t: k <= 0 gives the complete graph, whose
    edges are held as the facet count; otherwise facets are paired
    through the k-subsets they share, unless filing every facet under its
    C(dimDelta + 1, k) subsets would cost more than intersecting every
    pair of facets, which is then done instead.  A t that is not an int
    in 0..dimDelta+1, a bool included, raises TOutOfRange.
    """
    _check_facet_graph(delta)
    d = delta.dim
    if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t <= d + 1:
        raise TOutOfRange(f"t must lie in 0..{d + 1}, got {t!r}")
    facets = delta.facets
    m = len(facets)
    k = d + 1 - t
    if k <= 0:
        edges = _AllPairs(m)
    elif m * comb(d + 1, k) > m * (m - 1) // 2:
        edges = _pairwise_edges(facets, k)
    else:
        edges = _shared_subset_edges(facets, k)
    return GammaGraph(t, facets, edges)


def _check_facet_graph(delta):
    """Refuse a void, empty or impure complex, as every facet graph does."""
    if delta.is_void or delta.is_empty:
        raise ValueError("Gamma_t needs a complex with at least one facet vertex")
    if not delta.is_pure():
        raise NotPure("Gamma_t is defined for pure complexes")


def _pairwise_edges(facets, k):
    """The pairs i < j of facets sharing at least k vertices, by intersecting
    every pair."""
    sets = [set(f) for f in facets]
    return [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
            if len(sets[i] & sets[j]) >= k]


def _subset_buckets(facets, k, removed=()):
    """The facet indices filed under each k-subset of a facet, one increasing
    list per subset, with the removed indices left out."""
    buckets = {}
    for i, f in enumerate(facets):
        if i not in removed:
            for s in combinations(f, k):
                buckets.setdefault(s, []).append(i)
    return buckets.values()


def _shared_subset_edges(facets, k):
    """The pairs i < j of facets sharing at least k vertices, listed within
    the buckets of their k-subsets."""
    return set(chain.from_iterable(combinations(b, 2) for b in _subset_buckets(facets, k)))


class ConnectivityReport(SimpleNamespace):
    """Components, articulation points and the 2-connectivity verdict:
    components, two_connected, articulation_points (sorted 0-based facet
    indices) and trivial; it unpacks as the first three.

    Graphs on at most two vertices have no meaningful 2-connectivity
    notion; they are reported as two_connected when connected, with
    trivial set so callers can tell the degenerate case apart.
    """

    def __iter__(self):
        return iter((self.components, self.two_connected, self.articulation_points))

    def to_json(self):
        return {
            "components": self.components,
            "two_connected": self.two_connected,
            "articulation_points": [i + 1 for i in self.articulation_points],
            "trivial": self.trivial,
        }


def _components(facets):
    """The component count of the complex the facets generate, each facet an
    iterable of hashable vertices (never None) read once.  Union-find with
    path halving (van Leeuwen and Tarjan, J. ACM 1984): each vertex's root
    is joined to the root of its facet's first vertex."""
    parent, count = {}, 0
    for f in facets:
        first = None
        for v in f:
            if v not in parent:
                parent[v] = v
                count += 1
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if first is None:
                first = v
            elif v != first:
                parent[v] = first
                count -= 1
    return count


def _articulation_points(adj):
    """(components, articulation points) by one iterative depth-first search:
    standard low-link computation, one tree per component, whose root is an
    articulation point iff it has at least two tree children."""
    disc, low, points = {}, {}, set()
    timer = components = 0
    for root in adj:
        if root in disc:
            continue
        components += 1
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        # stack entries: (vertex, parent, iterator over neighbors)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(adj[w])))
                    break
            else:  # v has no unvisited neighbour left
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if parent != root and low[v] >= disc[parent]:
                        points.add(parent)
        if root_children >= 2:
            points.add(root)
    return components, sorted(points)


def connectivity_report(graph):
    """Components, articulation points and 2-connectivity of a facet graph.

    A GammaGraph holds only pairs i < j < n, so n(n-1)/2 edges means the
    complete graph: one component (none when n = 0) and no articulation
    point, with no adjacency built; any other graph is searched once.
    """
    n = graph.n_vertices
    if len(graph.edges) == n * (n - 1) // 2:
        components, points = min(n, 1), []
    else:
        components, points = _articulation_points(graph.adjacency())
    trivial = n <= 2
    return ConnectivityReport(components=components,
                              two_connected=components == 1 and (trivial or not points),
                              articulation_points=points, trivial=trivial)


def removal_experiment(delta, b_indices):
    """Does deleting the facet set B (edgeless in Gamma_2) disconnect Gamma_1?

    Returns True when Gamma_1 minus B is connected.  B must induce no
    edge of Gamma_2, otherwise GammaTwoNotIsolated reports the first
    offending pair; a graph on zero or one remaining vertices counts
    as connected.  The complex is refused as by gamma_graph, but neither
    graph is built: B's facets alone are filed under their max(dimDelta -
    1, 0)-subsets, the least (bucket[0], bucket[1]) being the first Gamma_2
    edge, and the other facets are counted through their ridges.
    """
    b = set(check_facet_indices(delta, b_indices))
    m = len(delta.facets)
    _check_facet_graph(delta)
    pairs = [(s[0], s[1]) for s in _subset_buckets(delta.facets, max(delta.dim - 1, 0),
                                                   set(range(m)) - b) if len(s) > 1]
    if pairs:
        raise GammaTwoNotIsolated(min(pairs))
    return _components(_subset_buckets(delta.facets, delta.dim, b)) <= 1
