"""Local cohomology of Stanley-Reisner rings via Hochster's formula.

For a complex with Krull dimension d = dim(Delta) + 1, the squarefree
multidegree -sigma piece of H^i_m(k[Delta]) has

    dim_k H^i_m(k[Delta])_{-sigma} = dim_k H~^{i - |sigma| - 1}(lk sigma; k)

for every face sigma (the empty face included), and every other
multidegree vanishes.  So the table is the reduced homology of every
link, and it is the one place where link homology is computed: once
per (complex, field), over the face -> link index, with links that
coincide as facet lists sharing one Betti vector.  Depth and the
Reisner Cohen-Macaulay criterion, the a-invariant, the Buchsbaum
predicate and the Serre condition (S_l) here, and the manifold,
Gorenstein and liaison checks elsewhere, are reads of that table.
Over a field the cohomology dimensions of a link equal its homology
dimensions, so link Betti vectors serve throughout.
"""

from .homology import reduced_betti
from .simplicial_core import SimplicialComplex, _link_index, face, face_key, link


class LocalCohomologyTable:
    """Sparse table of dim_k H^i_m(k[Delta])_{-sigma} over faces sigma.

    Only nonzero entries are stored.  total(i, j) aggregates over the
    squarefree multidegrees with |sigma| = -j; positive j never occurs.
    A table built by local_cohomology_table also keeps, for every face
    in canonical order, its link facets (_index) and the link's Betti
    vector (_betti); the predicates below read those.
    """

    __slots__ = ("d", "n_vertices", "_entries", "_index", "_betti")

    def __init__(self, d, n_vertices, entries):
        self.d = d
        self.n_vertices = n_vertices
        self._entries = dict(entries)

    def entry(self, i, sigma):
        return self._entries.get((i, face(sigma)), 0)

    def entries(self):
        """Nonzero (i, sigma, dim) triples in canonical order."""
        return sorted(
            ((i, s, v) for (i, s), v in self._entries.items()),
            key=lambda t: (t[0], face_key(t[1])),
        )

    def total(self, i, j):
        return sum(v for (ii, s), v in self._entries.items() if ii == i and len(s) == -j)

    def totals(self):
        """Nonzero (i, j, dim) aggregates in canonical order."""
        agg = {}
        for (i, s), v in self._entries.items():
            key = (i, -len(s))
            agg[key] = agg.get(key, 0) + v
        return sorted((i, j, v) for (i, j), v in agg.items())

    def min_i(self):
        return min((i for i, _ in self._entries), default=None)

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
    """Depth of k[Delta] read off the table, with a CM verdict."""

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


def local_cohomology_table(delta, field):
    """The full Hochster table of delta over the given field."""
    return _table(delta, field, {}, _link_index(delta))


def _table(delta, field, memo, index):
    """The table of delta read off its face -> link index; memo maps link
    facets to Betti vectors over field.

    Tables built within one call over one field share a memo, so a link
    common to them (Delta and Delta_B away from A, a complex and its
    core) is computed once.
    """
    if delta.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ring")
    betti = {}
    entries = {}
    for sigma, lk in index.items():
        b = memo.get(lk)
        if b is None:
            b = memo[lk] = reduced_betti(SimplicialComplex(delta.n_vertices, lk), field)
        betti[sigma] = b
        for r, dim_r in b.dims.items():
            if dim_r:
                entries[(r + len(sigma) + 1, sigma)] = dim_r
    table = LocalCohomologyTable(delta.dim + 1, delta.n_vertices, entries)
    table._index, table._betti = index, betti
    return table


def _link_dim(link_facets):
    """Dimension of a link given by its canonically ordered facets."""
    return len(link_facets[-1]) - 1


def depth_report(delta, field):
    """Depth and Cohen-Macaulayness from the table.

    depth = min { i : H^i_m(k[Delta]) != 0 }; Cohen-Macaulay means
    depth = d.  The witness is the first table entry below d (in
    canonical order), None when CM.
    """
    return _depth_report(local_cohomology_table(delta, field))


def _depth_report(table):
    depth = table.min_i()
    witness = next(((i, s) for i, s, _ in table.entries() if i < table.d), None)
    return DepthReport(depth, depth == table.d, witness)


def cohen_macaulay_direct(delta, field):
    """Reisner's criterion checked directly on links, without the table.

    k[Delta] is Cohen-Macaulay iff H~_i(lk sigma; k) = 0 for every face
    sigma (the empty face included) and every i < dim lk sigma.  Kept
    as a second code path so the table-derived verdict can be
    cross-checked.
    """
    if delta.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ring")
    for sigma in delta.faces():
        lk = link(delta, sigma)
        b = reduced_betti(lk, field)
        for i in range(-1, lk.dim):
            if b[i]:
                return False
    return True


def a_invariant(delta, field):
    """The a-invariant: the top degree j with total(d, j) nonzero.

    Equals -min{ |sigma| : H~^{d - |sigma| - 1}(lk sigma; k) != 0 } and
    is never positive; it is 0 exactly when the complex itself has
    nonzero top reduced homology.
    """
    return _a_invariant(local_cohomology_table(delta, field))


def _a_invariant(table):
    # A maximal-dimension facet always contributes H~^{-1} of an empty
    # link at i = d, so the top module is never zero.
    return -min(len(s) for i, s in table._entries if i == table.d)


def _low_homology(table, ell=None, nonempty=False):
    """The first (sigma, i) in canonical order with H~_i(lk sigma) != 0,
    -1 <= i < dim lk sigma and, when ell is given, i < ell - 1; None if
    there is none.  nonempty skips the empty face."""
    for sigma, lk in table._index.items():
        if nonempty and not sigma:
            continue
        b = table._betti[sigma]
        top = _link_dim(lk) if ell is None else min(ell - 1, _link_dim(lk))
        for i in range(-1, top):
            if b[i]:
                return sigma, i
    return None


def is_buchsbaum(delta, field):
    """Buchsbaum test: links of nonempty faces have no low homology.

    Returns (flag, witness) where witness is a violating (sigma, i)
    pair or None.  The empty face is exempt, which is what separates
    Buchsbaum from Cohen-Macaulay here.
    """
    return _buchsbaum(local_cohomology_table(delta, field))


def _buchsbaum(table):
    witness = _low_homology(table, nonempty=True)
    return witness is None, witness


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
    return _low_homology(local_cohomology_table(delta, field), ell) is None
