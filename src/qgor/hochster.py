"""Local cohomology of Stanley-Reisner rings via Hochster's formula.

For a complex with Krull dimension d = dim(Delta) + 1, the squarefree
multidegree -sigma piece of H^i_m(k[Delta]) has

    dim_k H^i_m(k[Delta])_{-sigma} = dim_k H~^{i - |sigma| - 1}(lk sigma; k)

for every face sigma (the empty face included), and every other
multidegree vanishes.  Link homology is computed in one place, a link
view of the (complex, field) that fills itself on first read: the faces
of one size k >= 1 and their links (a level) when a scan first reaches
size k, and each link's Betti vector once.  A link of dimension at most
1 ({empty}, points or a graph; in a pure complex the links of the
facets, the ridges and the faces of codimension 2) is read straight off
its facets by counting components.  A link of dimension 2 or more is
computed once per class of links equal up to an order-preserving
renumbering of their vertices (isomorphic complexes, so one vector
serves the class).  The scans walk each face with its link, as the
levels hold them.

The view's one ridge map (homology._ridge_map of the facets of the top
size D = d) serves the faces of sizes D - 1 and D with no level built:
a ridge in k top facets has k points as its link, so H~_0 = k - 1, and
a facet of size D - 1 or D has {empty}, so H~_{-1} = 1.  It also serves
the top degree, H~_{D-1}(Delta), off one orientation walk
(homology._top) when Delta is pure, no ridge lies in three facets and
the walk reaches every facet; otherwise Delta's own vector is read.
The table is the one full read of the view: the levels below D - 1,
then the ridge map (for D <= 1, {empty} and points, every level).
Depth and the Reisner Cohen-Macaulay criterion, the a-invariant, the
Buchsbaum predicate and the Serre condition (S_l) here, and classify's
normality and manifold scans, are scans of it in canonical face order
that stop as soon as their answer is fixed, and build no level past the
last size that can change it: depth stops before size k once it has
found i <= k + 1 (H^d never vanishes, so it never reads the ridges or
the facets), the a-invariant at its answer, reading the top degree at
the empty face and the ridge map at the last two sizes, and Buchsbaum
and (S_l) after size dim Delta - 1, since the links of larger faces
have dimension <= 0 and hold no low homology.  So for D >= 2 no scan
builds the level of the ridges or of the facets.  Over a field the
cohomology dimensions of a link equal its homology dimensions, so link
Betti vectors serve throughout.
"""

from functools import cached_property
from itertools import islice
from types import SimpleNamespace

from .homology import _graph_betti, _ridge_map, _top, reduced_betti
from .simplicial_core import SimplicialComplex, _link_level, face, face_key


def _class_key(lk):
    """The class key of a link: its facets with the vertices renumbered 1..m
    in ascending order, written as a string, so it never equals a facet tuple."""
    # Renumbering the vertices 1..m in ascending order keeps the facets
    # sorted and in canonical order, so isomorphic links meet at one key.
    # One string ("1,2;1,3") rather than a tuple of tuples: a burst of
    # short-lived small tuples stays in CPython's tuple free lists and
    # raised the peak RSS.
    vertices = sorted({v for f in lk for v in f})
    rank = dict(zip(vertices, map(str, range(1, len(vertices) + 1))))
    return ";".join(",".join(map(rank.__getitem__, f)) for f in lk)


class LocalCohomologyTable:
    """Sparse table of dim_k H^i_m(k[Delta])_{-sigma} over faces sigma.

    Only nonzero entries are stored.  totals() aggregates (i, j) over the
    squarefree multidegrees with |sigma| = -j; positive j never occurs.
    """

    __slots__ = ("d", "_entries")

    def __init__(self, d, entries):
        self.d = d
        self._entries = dict(entries)

    def entry(self, i, sigma):
        return self._entries.get((i, face(sigma)), 0)

    def entries(self):
        """Nonzero (i, sigma, dim) triples in canonical order."""
        return sorted(
            ((i, s, v) for (i, s), v in self._entries.items()),
            key=lambda t: (t[0], face_key(t[1])),
        )

    def totals(self):
        """Nonzero (i, j, dim) aggregates in canonical order."""
        agg = {}
        for (i, s), v in self._entries.items():
            key = (i, -len(s))
            agg[key] = agg.get(key, 0) + v
        return sorted((i, j, v) for (i, j), v in agg.items())

    def to_json(self):
        return {
            "d": self.d,
            "entries": [
                {"i": i, "sigma": list(s), "dim": v} for i, s, v in self.entries()
            ],
            "total": [{"i": i, "j": j, "dim": v} for i, j, v in self.totals()],
        }

    def __eq__(self, other):
        return (
            isinstance(other, LocalCohomologyTable)
            and self.d == other.d
            and self._entries == other._entries
        )

    def __repr__(self):
        return f"LocalCohomologyTable(d={self.d}, {len(self._entries)} nonzero entries)"


class DepthReport(SimpleNamespace):
    """Depth of k[Delta] read off the links, with a CM verdict: depth,
    is_cohen_macaulay and witness, the first table entry (i, sigma) below
    d or None."""


class _Links:
    """The link homology of one (complex, field), each piece on first read.

    level(k) maps the faces of size k to their link facets in lexicographic
    order.  Level 0 is the empty face, whose link is the complex itself; a
    level k >= 1 is built by _link_level on its first read, and each level
    refuses what faces() refuses.  faces(stop) walks the (face, link
    facets) pairs of the levels below stop in canonical order, building
    each level only when the walk reaches it, so a scan builds only the
    sizes it can still be changed by.  ridges, the ridge map of the top
    facets, serves the sizes d - 1 and d of the table and the a-invariant
    when d >= 2, and top, H~_{d-1}(Delta), which is read only for a
    complex with a vertex.  betti(sigma) is link_betti(link(sigma));
    link_betti takes any link by its facets, such as a link of Delta_B
    filtered out of one of Delta, and goes through memo (facets -> Betti
    vector), which the views of a complex and its core, or of Delta,
    Delta_A and Delta_B, share.  A link is looked up by its own facets.  On
    a miss, a link of dimension at most 1 is answered by _graph_betti; a
    larger one is looked up by its class key (_class_key), and only a class
    seen for the first time is computed, by reduced_betti on the link
    itself, and stored under the key.  Either vector is stored under the
    link's facets.  The memo lives as long as the public call that made it.
    """

    def __init__(self, delta, field, memo=None):
        if delta.is_void:
            raise ValueError("the void complex has no Stanley-Reisner ring")
        self.delta, self.field, self.d = delta, field, delta.dim + 1
        self.memo = {} if memo is None else memo
        self.levels = {0: {(): delta.facets}}

    def level(self, k):
        """The faces of size k -> their link facets, built on first read."""
        if k not in self.levels:
            self.levels[k] = _link_level(self.delta, k)
        return self.levels[k]

    def faces(self, stop=None):
        """(face, link facets) for the faces of size below stop (all faces by
        default), in canonical order."""
        for k in range(self.d + 1 if stop is None else stop):
            yield from self.level(k).items()

    def link(self, sigma):
        return self.level(len(sigma))[sigma]

    def betti(self, sigma):
        return self.link_betti(self.link(sigma))

    def link_betti(self, lk):
        """The Betti vector of the complex with facets lk, a link of the view."""
        vector = self.memo.get(lk)
        if vector is None:
            if len(lk[-1]) <= 2:
                vector = _graph_betti(lk)
            else:
                key = _class_key(lk)
                vector = self.memo.get(key)
                if vector is None:
                    vector = reduced_betti(SimplicialComplex(self.delta.n_vertices, lk),
                                           self.field)
                    self.memo[key] = vector
            self.memo[lk] = vector
        return vector

    @cached_property
    def ridges(self):
        """homology._ridge_map of the facets of top size d, which are every
        facet of a pure complex."""
        return _ridge_map([f for f in self.delta.facets if len(f) == self.d])

    @cached_property
    def top(self):
        """H~_{d-1}(Delta): off _top's walk over the ridge map when Delta is
        pure and the walk decides it, else off Delta's Betti vector, which
        is read first when the memo holds it already (the classification's
        depth scan computes it), so no walk is repeated work."""
        walk = self.delta.facets not in self.memo and self.delta.is_pure()
        top = _top(self.delta.facets, self.ridges, self.field.p) if walk else None
        return self.betti(())[self.d - 1] if top is None else top

    @cached_property
    def table(self):
        """The one full read of the view: every face's Betti vector, as
        entries.  For d >= 2 the sizes d - 1 and d come off the ridge map: a
        ridge in k >= 2 top facets has k points as its link, so H~_0 = k - 1
        at (d, r), and a facet F of size d - 1 or d has {empty}, so 1 at
        (|F|, F)."""
        entries = {}
        for sigma, lk in self.faces(self.d - 1 if self.d >= 2 else None):
            for r, dim_r in self.link_betti(lk).dims.items():
                if dim_r:
                    entries[(r + len(sigma) + 1, sigma)] = dim_r
        if self.d >= 2:
            entries.update(((self.d, r), len(b) - 1) for r, b in self.ridges.items() if len(b) > 1)
            entries.update(((len(f), f), 1) for f in self.delta.facets if len(f) >= self.d - 1)
        return LocalCohomologyTable(self.d, entries)

    @cached_property
    def depth(self):
        # Faces come by size, and sigma gives i >= |sigma| + 1 unless it is a
        # facet (i = |sigma|).  A facet F beside others never gives the least
        # entry: the largest face of F in another facet comes earlier and has
        # a disconnected link (F minus it is a component), so i <= |F| there.
        # H^d never vanishes, so the scan starts from d with no witness, and
        # level k is built only while it can still lower that bound.
        best = (self.d, None)
        for k in range(self.d + 1):
            if best[0] <= k + 1:
                break
            for sigma, lk in self.level(k).items():
                low = min(self.link_betti(lk).nonzero(), default=None)
                if low is not None and low + k + 1 < best[0]:
                    best = (low + k + 1, sigma)
                    if best[0] <= k + 1:
                        break
        return DepthReport(depth=best[0], is_cohen_macaulay=best[0] == self.d,
                           witness=best if best[0] < self.d else None)

    @cached_property
    def a_invariant(self):
        # Faces come by size, and a maximal-dimension facet has the link
        # {empty}, whose H~_{-1} sits at i = d, so the scan ends by that size.
        # For d >= 2 the empty face reads top, and the ridge map the last two
        # sizes: a ridge gives i = d when its points are two or more.
        ridge = self.d >= 2
        if ridge and self.top:
            return 0
        for s, lk in islice(self.faces(self.d - 1 if ridge else None), ridge, None):
            if self.link_betti(lk)[self.d - len(s) - 1]:
                return -len(s)
        return any(len(b) > 1 for b in self.ridges.values()) - self.d

    def low_homology(self, ell=None, nonempty=False):
        """The first (sigma, i) in canonical order with H~_i(lk sigma) != 0,
        0 <= i < dim lk sigma (H~_{-1} of a nonempty link is 0, so no link of
        dimension <= 0 is computed) and, when ell is given, i < ell - 1; None
        if there is none.  nonempty skips the empty face."""
        # A face of size dim Delta or more has a link of dimension <= 0.
        for sigma, lk in islice(self.faces(self.d - 1), nonempty, None):
            dim = len(lk[-1]) - 1
            for i in range(dim if ell is None else min(ell - 1, dim)):
                if self.link_betti(lk)[i]:
                    return sigma, i

    @cached_property
    def buchsbaum(self):
        witness = self.low_homology(nonempty=True)
        return witness is None, witness


def local_cohomology_table(delta, field):
    """The full Hochster table of delta over the given field."""
    return _Links(delta, field).table


def depth_report(delta, field):
    """Depth and Cohen-Macaulayness from the links.

    depth = min { i : H^i_m(k[Delta]) != 0 }; Cohen-Macaulay means
    depth = d.  The witness is the first table entry below d (in
    canonical order), None when CM.
    """
    return _Links(delta, field).depth


def a_invariant(delta, field):
    """The a-invariant: the top degree j with a nonzero total (d, j).

    Equals -min{ |sigma| : H~^{d - |sigma| - 1}(lk sigma; k) != 0 } and
    is never positive; it is 0 exactly when the complex itself has
    nonzero top reduced homology.
    """
    return _Links(delta, field).a_invariant


def is_buchsbaum(delta, field):
    """Buchsbaum test: links of nonempty faces have no low homology.

    Returns (flag, witness) where witness is the first violating
    (sigma, i) pair or None.  The empty face is exempt, which is what
    separates Buchsbaum from Cohen-Macaulay here.
    """
    return _Links(delta, field).buchsbaum


def serre_condition(delta, field, ell):
    """The link-vanishing form of Serre's condition (S_ell).

    True iff H~_i(lk sigma; k) = 0 for every face sigma (the empty face
    included) and every i < min(ell - 1, dim lk sigma).  For ell = 2
    this coincides with normality of the complex (all low links
    connected); larger ell is an extension of that criterion, and
    (S_1) is vacuously true.  An ell that is not an int of at least 1, a
    bool included, raises ValueError.
    """
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
        raise ValueError(f"ell must be an int of at least 1, got {ell!r}")
    return _Links(delta, field).low_homology(ell) is None
