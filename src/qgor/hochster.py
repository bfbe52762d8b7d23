"""Local cohomology of Stanley-Reisner rings via Hochster's formula.

For a complex with Krull dimension d = dim(Delta) + 1, the squarefree
multidegree -sigma piece of H^i_m(k[Delta]) has

    dim_k H^i_m(k[Delta])_{-sigma} = dim_k H~^{i - |sigma| - 1}(lk sigma; k)

for every face sigma (the empty face included), and every other
multidegree vanishes.  Link homology is computed in one place, a link
view of the (complex, field) that fills itself on first read: the face
-> link index only once a nonempty face is read, and each link's Betti
vector once per class of links equal up to an order-preserving
renumbering of their vertices (isomorphic complexes, so one vector
serves the class).  The table is the one full read of that view.
Depth and the Reisner Cohen-Macaulay criterion, the a-invariant, the
Buchsbaum predicate and the Serre condition (S_l) here, and the
manifold flags in classify, are scans of it in canonical face order
that stop as soon as their answer is fixed.  Over a field the
cohomology dimensions of a link equal its homology dimensions, so link
Betti vectors serve throughout.
"""

from functools import cached_property
from itertools import islice

from .homology import reduced_betti
from .simplicial_core import SimplicialComplex, _link_index, face, face_key


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


class DepthReport:
    """Depth of k[Delta] read off the links, with a CM verdict."""

    __slots__ = ("depth", "is_cohen_macaulay", "witness")

    def __init__(self, depth, is_cohen_macaulay, witness):
        self.depth = depth
        self.is_cohen_macaulay = is_cohen_macaulay
        self.witness = witness

    def __repr__(self):
        return (
            f"DepthReport(depth={self.depth}, cm={self.is_cohen_macaulay}, "
            f"witness={self.witness})"
        )


class _Links:
    """The link homology of one (complex, field), each piece on first read.

    index (face -> link facets, canonical order) is built on the first read
    of a nonempty face, as lk(empty) is the complex itself.  betti(sigma) is
    link_betti(link(sigma)); link_betti takes any link by its facets, such as
    a link of Delta_B filtered out of one of Delta, and goes through memo
    (facets -> Betti vector), which the views of a complex and its core, or
    of Delta, Delta_A and Delta_B, share.  A link is looked
    up by its own facets, then by its class key, the facets with the
    vertices renumbered 1..m in ascending order (written as a string, so it
    never equals a facet tuple); only a class seen for the first time is
    computed, on the link itself, and the vector is stored under both keys.
    """

    def __init__(self, delta, field, memo=None):
        if delta.is_void:
            raise ValueError("the void complex has no Stanley-Reisner ring")
        self.delta, self.field, self.d = delta, field, delta.dim + 1
        self.memo = {} if memo is None else memo

    @cached_property
    def index(self):
        return _link_index(self.delta)

    def faces(self):
        """The faces in canonical order; the index is read only past the empty face."""
        yield ()
        yield from islice(self.index, 1, None)

    def link(self, sigma):
        return self.index[sigma] if sigma else self.delta.facets

    def betti(self, sigma):
        return self.link_betti(self.link(sigma))

    def link_betti(self, lk):
        """The Betti vector of the complex with facets lk, a link of the view."""
        vector = self.memo.get(lk)
        if vector is None:
            # Renumbering the vertices 1..m in ascending order keeps the facets
            # sorted and in canonical order, so isomorphic links meet at one key.
            # One string ("1,2;1,3") rather than a tuple of tuples: a burst of
            # short-lived small tuples stays in CPython's tuple free lists and
            # raised the peak RSS.
            vertices = sorted({v for f in lk for v in f})
            rank = dict(zip(vertices, map(str, range(1, len(vertices) + 1))))
            key = ";".join(",".join(map(rank.__getitem__, f)) for f in lk)
            vector = self.memo.get(key)
            if vector is None:
                vector = reduced_betti(SimplicialComplex(self.delta.n_vertices, lk), self.field)
            self.memo[lk] = self.memo[key] = vector
        return vector

    @cached_property
    def table(self):
        """The one full read of the view: every face's Betti vector, as entries."""
        entries = {}
        for sigma in self.index:
            for r, dim_r in self.betti(sigma).dims.items():
                if dim_r:
                    entries[(r + len(sigma) + 1, sigma)] = dim_r
        return LocalCohomologyTable(self.d, entries)

    @cached_property
    def depth(self):
        # Faces come by size, and sigma gives i >= |sigma| + 1 unless it is a
        # facet (i = |sigma|).  A facet F beside others never gives the least
        # entry: the largest face of F in another facet comes earlier and has
        # a disconnected link (F minus it is a component), so i <= |F| there.
        best = None
        for sigma in self.faces():
            if best and best[0] <= len(sigma) + 1:
                break
            low = min(self.betti(sigma).nonzero(), default=None)
            if low is not None and (not best or low + len(sigma) + 1 < best[0]):
                best = (low + len(sigma) + 1, sigma)
        return DepthReport(best[0], best[0] == self.d, best if best[0] < self.d else None)

    @cached_property
    def a_invariant(self):
        # Faces come by size, and a maximal-dimension facet has the link
        # {empty}, whose H~_{-1} sits at i = d, so the scan ends by that size.
        return -next(len(s) for s in self.faces() if self.betti(s)[self.d - len(s) - 1])

    def low_homology(self, ell=None, nonempty=False):
        """The first (sigma, i) in canonical order with H~_i(lk sigma) != 0,
        0 <= i < dim lk sigma (H~_{-1} of a nonempty link is 0, so no link of
        dimension <= 0 is computed) and, when ell is given, i < ell - 1; None
        if there is none.  nonempty skips the empty face."""
        for sigma in islice(self.faces(), nonempty, None):
            dim = len(self.link(sigma)[-1]) - 1
            for i in range(dim if ell is None else min(ell - 1, dim)):
                if self.betti(sigma)[i]:
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
    (S_1) is vacuously true.
    """
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    return _Links(delta, field).low_homology(ell) is None
