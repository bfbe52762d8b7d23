"""Facet-partition liaison and the Lefschetz duality sequence.

A partition of the facets of a pure complex Delta into nonempty sets
A and B yields subcomplexes Delta_A and Delta_B.  When Delta is
quasi-Gorenstein and Delta_A is Buchsbaum there is a long exact
sequence (d = dim Delta)

    0 -> H~^0(Delta_B) -> H~_{d-1}(Delta_A) -> H~^1(Delta)
      -> H~^1(Delta_B) -> H~_{d-2}(Delta_A) -> H~^2(Delta) -> ...
      -> H~^{d-1}(Delta) -> H~^{d-1}(Delta_B) -> H~_0(Delta_A) -> 0

together with duality isomorphisms H^i(Delta, Delta_B) ~ H~_{d-i}(Delta_A)
for 0 < i < d.  The report records term dimensions and necessary
conditions for exactness (alternating sum zero, each dimension at most
the sum of its neighbours); connecting maps are not constructed.

The customary printed form of the sequence ends in H~_1(Delta_A), but
degree reasoning forces H~_0(Delta_A) in the last slot; the report
carries the alternating sums of both readings rather than hiding the
discrepancy.

All four checks (the sequence, link restriction, CM linkage, the
connectedness of Delta_B) read three analyses, of Delta, Delta_A and
Delta_B, that share one memo: each link level and Betti vector is
computed at most once, on first use (a link of dimension at most 1 off
its facets, and a larger one once per class of links equal up to an
order-preserving renumbering), and a check computes only what it reads.
Quasi-Gorenstein is the analysis's view in classify; Buchsbaum and
Cohen-Macaulay are the scans of hochster's link view it extends.

Link restriction and CM linkage compare the Hochster tables of Delta
and Delta_B below the Krull dimension d, which can differ only at the
faces of Delta_A: every facet through a face outside Delta_A lies in B,
so the face has one link in both.  The comparison walks Delta_A's faces
of size at most d - 2 (a larger face of the pure Delta has a link of
points or {empty}, which gives no entry below d that differs), reads
each link in Delta off Delta's level of that size and filters the link
in Delta_B out of it, so neither table is built, Delta_B gets no link
level, and neither Delta nor Delta_A builds its ridge or facet level
(the quasi-Gorenstein premise reads classify's ridge map).
"""

from functools import cached_property
from types import SimpleNamespace

from .classify import _Analysis
from .errors import HypothesesNotMet, InvalidPartition, NotPure
from .homology import relative_betti
from .simplicial_core import check_facet_indices, face_key, restrict_to_facets


class FacetPartition:
    """A two-block partition {A, B} of the facet index set (0-based ints,
    not bools); two partitions are equal when their blocks are."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = tuple(a), tuple(b)
        for i in a + b:
            if not isinstance(i, int) or isinstance(i, bool):
                raise InvalidPartition(f"facet index {i!r} is not an int")
        self.a = frozenset(a)
        self.b = frozenset(b)
        if not self.a or not self.b:
            raise InvalidPartition("both blocks must be nonempty")
        if self.a & self.b:
            raise InvalidPartition(f"blocks overlap in {sorted(self.a & self.b)}")

    @classmethod
    def complementary(cls, delta, a_indices):
        """Partition with the given A block and B = all other facets."""
        a = frozenset(check_facet_indices(delta, a_indices))
        return cls(a, frozenset(range(len(delta.facets))) - a)

    def validate_for(self, delta):
        m = len(delta.facets)
        if self.a | self.b != frozenset(range(m)):
            raise InvalidPartition(f"blocks must cover all {m} facet indices exactly")

    def __eq__(self, other):
        return isinstance(other, FacetPartition) and (self.a, self.b) == (other.a, other.b)

    def __repr__(self):
        return f"FacetPartition(a={sorted(self.a)}, b={sorted(self.b)})"


class LefschetzReport(SimpleNamespace):
    """Term dimensions and exactness diagnostics of the duality sequence: d,
    field, partition, terms ((label, dim) pairs), alternating_sum,
    alternating_sum_printed, neighbor_bound_ok, duality_pairs ((i, relative,
    a_side) triples) and hypotheses (premise -> flag)."""

    @property
    def duality_ok(self):
        return all(rel == a_side for _, rel, a_side in self.duality_pairs)

    def to_json(self):
        return {
            "d": self.d,
            "field": self.field.spec_string(),
            "a": sorted(i + 1 for i in self.partition.a),
            "b": sorted(i + 1 for i in self.partition.b),
            "terms": [{"label": lab, "dim": dim} for lab, dim in self.terms],
            "alternating_sum": self.alternating_sum,
            "alternating_sum_printed": self.alternating_sum_printed,
            "neighbor_bound_ok": self.neighbor_bound_ok,
            "duality_pairs": [{"i": i, "relative": rel, "a_side": a_side}
                              for i, rel, a_side in self.duality_pairs],
            "duality_ok": self.duality_ok,
            "hypotheses": dict(self.hypotheses),
        }


class LinkRestrictionReport(SimpleNamespace):
    """Outcome of the link comparison, truthy when every check passed: ok,
    witnesses ((sigma, i, in_b, dim_restricted, dim_ambient) tuples) and
    hypotheses_met."""

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {
            "ok": self.ok,
            "hypotheses_met": self.hypotheses_met,
            "witnesses": [{"sigma": list(s), "i": i, "in_b": in_b,
                           "dim_restricted": db, "dim_ambient": da}
                          for s, i, in_b, db, da in self.witnesses],
        }


class CmLinkageReport(SimpleNamespace):
    """Graded comparison of the tables of Delta and Delta_B below degree d:
    ok, hypotheses_met, hypotheses (premise -> flag) and witness, the first
    difference (i, sigma, dim for Delta, dim for Delta_B) or None."""

    def __bool__(self):
        return self.ok

    def to_json(self):
        out = {"ok": self.ok, "hypotheses_met": self.hypotheses_met,
               "hypotheses": dict(self.hypotheses), "witness": None}
        if self.witness is not None:
            i, sigma, lhs, rhs = self.witness
            out["witness"] = {"i": i, "sigma": list(sigma), "delta": lhs, "delta_b": rhs}
        return out


class _Liaison:
    """One (Delta, partition, field).  The constructor checks that the
    partition applies and builds Delta_A and Delta_B; each is one analysis,
    and the three share one memo keyed by facets and by renumbered facets
    (the link of the empty face is the complex itself, so a complex's own
    vector serves both, and links of dimension 2 or more of the three
    equal up to an order-preserving renumbering share one vector).  The
    analyses of Delta and Delta_A build their link levels below the ridges
    when a check reads them; Delta_B's is read only at its empty face."""

    def __init__(self, delta, partition, field):
        if delta.is_void or delta.is_empty:
            raise ValueError("liaison needs a complex with facets")
        if not delta.is_pure():
            raise NotPure("facet partitions are defined for pure complexes")
        partition.validate_for(delta)
        self.partition = partition
        memo = {}
        self.whole = _Analysis(delta, field, memo)
        self.a = _Analysis(restrict_to_facets(delta, partition.a), field, memo)
        self.b = _Analysis(restrict_to_facets(delta, partition.b), field, memo)

    @cached_property
    def differences(self):
        """(i, sigma, dim for Delta, dim for Delta_B, sigma in Delta_B) wherever
        the tables of Delta and Delta_B differ below the Krull dimension of
        Delta, in no particular order.

        Only the faces of Delta_A of size at most d - 2 are read.  A face
        outside Delta_A lies in facets of B alone, so its links in Delta and
        in Delta_B are one facet tuple.  A larger face sigma gives entries
        i >= |sigma| >= d - 1, and i = d - 1 only through H~_{-1}, which
        neither link has: Delta is pure, so a ridge's links are points or
        empty.  At a face of Delta_A, lk_{Delta_B} sigma is lk_Delta sigma
        without the facets of lk_{Delta_A} sigma (sigma + r is a facet of
        exactly one block), a filter that keeps canonical order; it is empty
        exactly when sigma is not in Delta_B, and then its entries are 0."""
        whole, a, d = self.whole, self.a, self.whole.d
        out = []
        for sigma, lk_a in a.faces(d - 1):
            lk = whole.link(sigma)
            in_a = set(lk_a)
            lk_b = tuple(r for r in lk if r not in in_a)
            ambient = whole.link_betti(lk).dims
            restricted = whole.link_betti(lk_b).dims if lk_b else {}
            for r in ambient.keys() | restricted.keys():
                dim, dim_b = ambient.get(r, 0), restricted.get(r, 0)
                if dim != dim_b and r + len(sigma) + 1 < d:
                    out.append((r + len(sigma) + 1, sigma, dim, dim_b, bool(lk_b)))
        return out

    def lefschetz_report(self):
        d = self.whole.delta.dim
        b_a, b_delta, b_b = (x.betti(()) for x in (self.a, self.whole, self.b))

        terms = [("H~^0(Delta_B)", b_b[0])]
        for i in range(1, d):
            terms.append((f"H~_{d - i}(Delta_A)", b_a[d - i]))
            terms.append((f"H~^{i}(Delta)", b_delta[i]))
            terms.append((f"H~^{i}(Delta_B)", b_b[i]))
        terms.append(("H~_0(Delta_A)", b_a[0]))

        alt = sum(dim if k % 2 == 0 else -dim for k, (_, dim) in enumerate(terms))
        alt_printed = alt - (1 if (len(terms) - 1) % 2 == 0 else -1) * (b_a[0] - b_a[1])

        dims = [dim for _, dim in terms]
        neighbor_ok = all(
            dims[k] <= (dims[k - 1] if k else 0) + (dims[k + 1] if k + 1 < len(dims) else 0)
            for k in range(len(dims))
        )

        rel = relative_betti(self.whole.delta, self.b.delta, self.whole.field)
        duality_pairs = [(i, rel[i], b_a[d - i]) for i in range(1, d)]

        hypotheses = {"quasi_gorenstein": self.whole.quasi_gorenstein,
                      "buchsbaum_A": self.a.buchsbaum[0]}
        return LefschetzReport(
            d=d, field=self.whole.field, partition=self.partition, terms=terms,
            alternating_sum=alt, alternating_sum_printed=alt_printed,
            neighbor_bound_ok=neighbor_ok, duality_pairs=duality_pairs, hypotheses=hypotheses,
        )

    def link_restriction_check(self):
        witnesses = sorted(
            ((sigma, i - len(sigma) - 1, in_b, dim_b, dim)
             for i, sigma, dim, dim_b, in_b in self.differences if sigma),
            key=lambda w: (face_key(w[0]), w[1]),
        )
        hypotheses_met = self.whole.quasi_gorenstein and self.a.buchsbaum[0]
        return LinkRestrictionReport(ok=not witnesses, witnesses=witnesses,
                                     hypotheses_met=hypotheses_met)

    def cm_linkage_check(self):
        first = min(self.differences, key=lambda w: (w[0], face_key(w[1])), default=None)
        witness = None if first is None else first[:4]
        hypotheses = {"quasi_gorenstein": self.whole.quasi_gorenstein,
                      "cm_A": self.a.depth.is_cohen_macaulay}
        return CmLinkageReport(ok=witness is None, hypotheses_met=all(hypotheses.values()),
                               hypotheses=hypotheses, witness=witness)

    def tconn_check(self):
        a, d = len(self.partition.a), self.whole.delta.dim
        failed = [premise for premise, held in (
            ("Delta is quasi-Gorenstein", self.whole.quasi_gorenstein),
            ("Delta_A is Buchsbaum", self.a.buchsbaum[0]),
            (f"|A| = {a} < dim Delta + 1 = {d + 1}", a < d + 1)) if not held]
        if failed:
            raise HypothesesNotMet(failed)
        return self.b.betti(())[0] == 0


def lefschetz_report(delta, partition, field):
    """Dimensions of the duality sequence plus exactness diagnostics.

    Always produced; the hypothesis flags record whether the sequence
    is actually guaranteed to be exact for this input.
    """
    return _Liaison(delta, partition, field).lefschetz_report()


def link_restriction_check(delta, partition, field):
    """Compare links of Delta_B faces with their ambient links.

    For every nonempty sigma in Delta_B and every i with
    -1 <= i < dim Delta - |sigma| the check asks
    dim H~^i(lk_{Delta_B} sigma) = dim H~^i(lk_Delta sigma); for
    nonempty sigma of Delta outside Delta_B it asks that the ambient
    link cohomology vanishes in the same range.  The range stops where
    purity arguments stop: beyond it the claim fails already for a
    facet cut out of the boundary of a 3-simplex.  By Hochster's
    formula this is the comparison of the tables of Delta and Delta_B
    below degree dim Delta + 1 at the nonempty faces.

    Always runs; hypotheses_met reports whether the guarantee applies.
    """
    return _Liaison(delta, partition, field).link_restriction_check()


def cm_linkage_check(delta, partition, field):
    """Check H^i_m(k[Delta])_{-sigma} = H^i_m(k[Delta_B])_{-sigma}, i < d.

    The guarantee needs Delta quasi-Gorenstein and Delta_A
    Cohen-Macaulay; the comparison itself is cheap and is always
    carried out, so failed hypotheses come back annotated rather than
    as errors.
    """
    return _Liaison(delta, partition, field).cm_linkage_check()


def tconn_check(delta, partition, field):
    """Connectedness of Delta_B under the stated premises.

    Premises: Delta quasi-Gorenstein over the field, Delta_A
    Buchsbaum, and |A| < dim Delta + 1.  Premise failures raise
    HypothesesNotMet naming the culprits; on valid premises the
    verdict is H~^0(Delta_B) = 0, and False would falsify the
    underlying connectedness statement for this instance.
    """
    return _Liaison(delta, partition, field).tconn_check()
