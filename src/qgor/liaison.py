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
"""

from .classify import _quasi_gorenstein, is_quasi_gorenstein, normal_pseudomanifold_report
from .errors import HypothesesNotMet, IndexOutOfRange, InvalidPartition, NotPure
from .hochster import _buchsbaum, _depth_report, _table, is_buchsbaum, local_cohomology_table
from .homology import reduced_betti, relative_betti
from .simplicial_core import FACE_CAP, face_key, restrict_to_facets


class FacetPartition:
    """A two-block partition {A, B} of the facet index set (0-based)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = frozenset(a)
        self.b = frozenset(b)
        if not self.a or not self.b:
            raise InvalidPartition("both blocks must be nonempty")
        if self.a & self.b:
            raise InvalidPartition(f"blocks overlap in {sorted(self.a & self.b)}")

    @classmethod
    def complementary(cls, delta, a_indices):
        """Partition with the given A block and B = all other facets."""
        a = frozenset(a_indices)
        m = len(delta.facets)
        for i in a:
            if not 0 <= i < m:
                raise IndexOutOfRange(f"facet index {i} out of range 0..{m - 1}")
        return cls(a, frozenset(range(m)) - a)

    def validate_for(self, delta):
        m = len(delta.facets)
        if self.a | self.b != frozenset(range(m)):
            raise InvalidPartition(
                f"blocks must cover all {m} facet indices exactly"
            )

    def __repr__(self):
        return f"FacetPartition(a={sorted(self.a)}, b={sorted(self.b)})"


class LefschetzReport:
    """Term dimensions and exactness diagnostics of the duality sequence."""

    __slots__ = (
        "d", "field", "partition", "terms", "alternating_sum",
        "alternating_sum_printed", "neighbor_bound_ok", "duality_pairs",
        "hypotheses",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

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
            "duality_pairs": [
                {"i": i, "relative": rel, "a_side": a_side}
                for i, rel, a_side in self.duality_pairs
            ],
            "duality_ok": self.duality_ok,
            "hypotheses": dict(self.hypotheses),
        }

    def __repr__(self):
        return (
            f"LefschetzReport(d={self.d}, alternating_sum={self.alternating_sum}, "
            f"duality_ok={self.duality_ok}, hypotheses={self.hypotheses})"
        )


def _sides(delta, partition):
    """Delta_A and Delta_B, after checking that the partition applies."""
    if delta.is_void or delta.is_empty:
        raise ValueError("liaison needs a complex with facets")
    if not delta.is_pure():
        raise NotPure("facet partitions are defined for pure complexes")
    partition.validate_for(delta)
    delta_a = restrict_to_facets(delta, partition.a)
    delta_b = restrict_to_facets(delta, partition.b)
    return delta_a, delta_b


def lefschetz_report(delta, partition, field, cap=FACE_CAP):
    """Dimensions of the duality sequence plus exactness diagnostics.

    Always produced; the hypothesis flags record whether the sequence
    is actually guaranteed to be exact for this input.
    """
    delta_a, delta_b = _sides(delta, partition)
    d = delta.dim

    table_a = local_cohomology_table(delta_a, field, cap)
    b_delta = reduced_betti(delta, field, cap)
    b_a = table_a._betti[()]
    b_b = reduced_betti(delta_b, field, cap)

    terms = [("H~^0(Delta_B)", b_b[0])]
    for i in range(1, d):
        terms.append((f"H~_{d - i}(Delta_A)", b_a[d - i]))
        terms.append((f"H~^{i}(Delta)", b_delta[i]))
        terms.append((f"H~^{i}(Delta_B)", b_b[i]))
    terms.append(("H~_0(Delta_A)", b_a[0]))

    alt = sum(dim if k % 2 == 0 else -dim for k, (_, dim) in enumerate(terms))
    printed_last = b_a[1]
    alt_printed = alt - (1 if (len(terms) - 1) % 2 == 0 else -1) * (b_a[0] - printed_last)

    dims = [dim for _, dim in terms]
    neighbor_ok = all(
        dims[k] <= (dims[k - 1] if k else 0) + (dims[k + 1] if k + 1 < len(dims) else 0)
        for k in range(len(dims))
    )

    rel = relative_betti(delta, delta_b, field, cap)
    duality_pairs = [(i, rel[i], b_a[d - i]) for i in range(1, d)]

    hypotheses = {
        "quasi_gorenstein": normal_pseudomanifold_report(delta, cap).ok and b_delta[d] != 0,
        "buchsbaum_A": _buchsbaum(table_a)[0],
    }
    return LefschetzReport(
        d=d,
        field=field,
        partition=partition,
        terms=terms,
        alternating_sum=alt,
        alternating_sum_printed=alt_printed,
        neighbor_bound_ok=neighbor_ok,
        duality_pairs=duality_pairs,
        hypotheses=hypotheses,
    )


class LinkRestrictionReport:
    """Outcome of the link comparison, truthy when every check passed."""

    __slots__ = ("ok", "witnesses", "hypotheses_met")

    def __init__(self, ok, witnesses, hypotheses_met):
        self.ok = ok
        self.witnesses = witnesses
        self.hypotheses_met = hypotheses_met

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {
            "ok": self.ok,
            "hypotheses_met": self.hypotheses_met,
            "witnesses": [
                {"sigma": list(s), "i": i, "in_b": in_b,
                 "dim_restricted": db, "dim_ambient": da}
                for s, i, in_b, db, da in self.witnesses
            ],
        }

    def __repr__(self):
        return (
            f"LinkRestrictionReport(ok={self.ok}, "
            f"witnesses={len(self.witnesses)}, "
            f"hypotheses_met={self.hypotheses_met})"
        )


def link_restriction_check(delta, partition, field, cap=FACE_CAP):
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
    delta_a, delta_b = _sides(delta, partition)
    memo = {}
    table = _table(delta, field, cap, memo)
    table_b = _table(delta_b, field, cap, memo)
    witnesses = sorted(
        ((sigma, i - len(sigma) - 1, sigma in table_b._index, dim_b, dim)
         for i, sigma, dim, dim_b in _differences(table, table_b) if sigma),
        key=lambda w: (face_key(w[0]), w[1]),
    )
    hypotheses_met = (
        _quasi_gorenstein(delta, table)
        and _buchsbaum(_table(delta_a, field, cap, memo))[0]
    )
    return LinkRestrictionReport(not witnesses, witnesses, hypotheses_met)


def _differences(table, table_b):
    """(i, sigma, dim for Delta, dim for Delta_B) wherever the two tables
    differ below the Krull dimension of Delta, in no particular order."""
    keys = {k for t in (table, table_b) for k in t._entries if k[0] < table.d}
    out = []
    for i, sigma in keys:
        dim, dim_b = table.entry(i, sigma), table_b.entry(i, sigma)
        if dim != dim_b:
            out.append((i, sigma, dim, dim_b))
    return out


class CmLinkageReport:
    """Graded comparison of the tables of Delta and Delta_B below degree d."""

    __slots__ = ("ok", "hypotheses_met", "hypotheses", "witness")

    def __init__(self, ok, hypotheses_met, hypotheses, witness):
        self.ok = ok
        self.hypotheses_met = hypotheses_met
        self.hypotheses = hypotheses
        self.witness = witness

    def __bool__(self):
        return self.ok

    def to_json(self):
        out = {
            "ok": self.ok,
            "hypotheses_met": self.hypotheses_met,
            "hypotheses": dict(self.hypotheses),
        }
        if self.witness is not None:
            i, sigma, lhs, rhs = self.witness
            out["witness"] = {"i": i, "sigma": list(sigma), "delta": lhs, "delta_b": rhs}
        else:
            out["witness"] = None
        return out

    def __repr__(self):
        return f"CmLinkageReport(ok={self.ok}, hypotheses_met={self.hypotheses_met})"


def cm_linkage_check(delta, partition, field, cap=FACE_CAP):
    """Check H^i_m(k[Delta])_{-sigma} = H^i_m(k[Delta_B])_{-sigma}, i < d.

    The guarantee needs Delta quasi-Gorenstein and Delta_A
    Cohen-Macaulay; the comparison itself is cheap and is always
    carried out, so failed hypotheses come back annotated rather than
    as errors.
    """
    delta_a, delta_b = _sides(delta, partition)
    memo = {}
    table = _table(delta, field, cap, memo)
    table_b = _table(delta_b, field, cap, memo)
    witness = min(_differences(table, table_b),
                  key=lambda w: (w[0], face_key(w[1])), default=None)
    hypotheses = {
        "quasi_gorenstein": _quasi_gorenstein(delta, table),
        "cm_A": _depth_report(_table(delta_a, field, cap, memo)).is_cohen_macaulay,
    }
    return CmLinkageReport(
        ok=witness is None,
        hypotheses_met=all(hypotheses.values()),
        hypotheses=hypotheses,
        witness=witness,
    )


def tconn_check(delta, partition, field, cap=FACE_CAP):
    """Connectedness of Delta_B under the stated premises.

    Premises: Delta quasi-Gorenstein over the field, Delta_A
    Buchsbaum, and |A| < dim Delta + 1.  Premise failures raise
    HypothesesNotMet naming the culprits; on valid premises the
    verdict is H~^0(Delta_B) = 0, and False would falsify the
    underlying connectedness statement for this instance.
    """
    delta_a, delta_b = _sides(delta, partition)

    failed = []
    if not is_quasi_gorenstein(delta, field, cap):
        failed.append("Delta is quasi-Gorenstein")
    if not is_buchsbaum(delta_a, field, cap)[0]:
        failed.append("Delta_A is Buchsbaum")
    if not len(partition.a) < delta.dim + 1:
        failed.append(f"|A| = {len(partition.a)} < dim Delta + 1 = {delta.dim + 1}")
    if failed:
        raise HypothesesNotMet(failed)
    return reduced_betti(delta_b, field, cap)[0] == 0
