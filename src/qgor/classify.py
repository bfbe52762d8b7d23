"""Classification predicates with machine-checkable witnesses.

The chain of notions, strongest to weakest, for a complex Delta of
dimension d over a field k:

    homology sphere  =>  Gorenstein
    homology manifold with H~_d != 0  =>  quasi-Gorenstein (if Buchsbaum)
    quasi-Gorenstein  =  normal pseudomanifold with H~_d(Delta; k) != 0
    normal pseudomanifold  =  pure + connected low links + every ridge
                              in exactly two facets

Each predicate is a read of one analysis of the complex: hochster's link
view, with classify's views on top, each computed on first read, at most
once, and only if read.  The ridge facts come off the link view's one
signed ridge map (homology._ridge_map of the facets of top size): the
ridge condition (a facet one size below the top is a ridge in one
facet), strong connectivity (the components of the buckets, by
union-find), orientability (homology._top's walk over Q, the one
reduced_betti reads on a surface), quasi-Gorenstein's H~_d(Delta) (the
view's top, the same walk over the field, which decides it on a normal
pseudomanifold, since a pure normal complex is strongly connected, so
no elimination runs) and the manifold scan's ridges, whose links are two
points exactly when their buckets hold two facets.  Normality counts the
components of the links of the faces below the ridges, so it reads no
homology, and the manifold scan reads the same faces' link homology; a
facet's link is {empty}, the (-1)-sphere.  So the classification builds
no link level of the ridges or the facets.  Every predicate returns its
first witness in canonical face order, so failures are reproducible.  An
analysis lives as long as its call.
"""

from functools import cached_property
from itertools import chain, islice
from types import SimpleNamespace

from .errors import NotAPseudomanifold, NotPure
from .graphs import _components
from .hochster import _Links
from .homology import _top
from .simplicial_core import check_face_budget, core, face_key


class NormalPseudomanifoldReport(SimpleNamespace):
    """Sub-flags of the normal pseudomanifold test plus witnesses: ok, pure,
    normal, ridge_condition and witnesses, a dict from each failed flag to
    its first witness."""


def normal_pseudomanifold_report(delta):
    """Purity, normality and the ridge condition, with first witnesses.

    Normality asks that lk(sigma) be connected for every face sigma of
    dimension at most dim(Delta) - 2, the empty face included.  The
    ridge condition asks that every (dim Delta - 1)-face lie in exactly
    two facets; in dimension 0 the relevant ridge is the empty face, so
    a 0-sphere passes and three points fail.
    """
    return _Analysis(delta, None).normal  # no homology is read, so no field


def is_strongly_connected(delta):
    """True when any two facets are joined by a walk across ridges, read
    off the ridge map with no pair of Gamma_1 listed."""
    if not delta.is_pure():
        raise NotPure("strong connectivity is defined for pure complexes")
    return delta.is_void or delta.is_empty or _Analysis(delta, None).strongly_connected


def is_pseudomanifold(delta):
    """Pure + strongly connected + every ridge in exactly two facets.

    The facets of a pure complex through each ridge are read off its
    ridge map, with no link built.
    """
    return not (delta.is_void or delta.is_empty) and _Analysis(delta, None).pseudomanifold


def is_orientable(delta):
    """Orientability of a pseudomanifold, by orienting its facets.

    Raises NotAPseudomanifold when the input is not a pseudomanifold
    (the notion presumes one).
    """
    analysis = None if delta.is_void or delta.is_empty else _Analysis(delta, None)
    if analysis is None or not analysis.pseudomanifold:
        raise NotAPseudomanifold("orientability is defined for pseudomanifolds")
    return analysis.orientable


class _Analysis(_Links):
    """The link view of one (complex, field) with classify's views on top,
    each computed on first read; an analysis of the core shares its memo."""

    def __init__(self, delta, field, memo=None):
        if delta.is_void or delta.is_empty:
            raise ValueError("classification needs a complex with at least one vertex")
        super().__init__(delta, field, memo)

    @cached_property
    def ridge_witness(self):
        """(face, number of facets through it) for the first face of size
        dim Delta, in canonical order, not in exactly two facets; None if
        there is none.  Such a face lies in a top facet, and is read off its
        bucket, or is a facet itself, and lies in that one alone."""
        return min(chain(((r, len(b)) for r, b in self.ridges.items() if len(b) != 2),
                         ((f, 1) for f in self.delta.facets if len(f) == self.d - 1)),
                   default=None)

    @cached_property
    def strongly_connected(self):
        """Pure, and the facets form one component of Gamma_1: the complex
        whose facets are the buckets' facet ids, of any size, is connected."""
        buckets = self.ridges.values()
        return self.delta.is_pure() and _components([k for k, _ in b] for b in buckets) == 1

    @property
    def pseudomanifold(self):
        """Strongly connected, and every ridge in exactly two facets."""
        return self.strongly_connected and self.ridge_witness is None

    @cached_property
    def orientable(self):
        """Whether the complex is a pseudomanifold whose facets can be signed
        to cancel on every ridge, which is H~_d(Delta; Q) != 0, read by
        homology._top's walk over the ridge map over Q."""
        check_face_budget(self.delta.facets[-1:])  # the facet size reduced_betti refuses
        return self.pseudomanifold and _top(self.delta.facets, self.ridges, None) == 1

    @cached_property
    def normal(self):
        """The normal-pseudomanifold report.  Normality is read off the view's
        levels below the ridges: a link is connected when its facets form
        one component (_components), so no homology is read.  The ridge
        condition is ridge_witness."""
        delta, d = self.delta, self.delta.dim
        witnesses = {}
        pure = delta.is_pure()
        if not pure:
            witnesses["pure"] = min((f for f in delta.facets if len(f) - 1 < d), key=face_key)
        # faces of dimension at most d - 2 need connected links
        normal_w = next((s for s, lk in self.faces(d) if _components(lk) != 1), None)
        normal, ridge_condition = normal_w is None, self.ridge_witness is None
        if not normal:
            witnesses["normal"] = normal_w
        if not ridge_condition:
            witnesses["ridge_condition"] = self.ridge_witness
        return NormalPseudomanifoldReport(ok=pure and normal and ridge_condition, pure=pure,
                                          normal=normal, ridge_condition=ridge_condition,
                                          witnesses=witnesses)

    @cached_property
    def quasi_gorenstein(self):
        """The one definition: a normal pseudomanifold with H~_dim != 0, read
        off top's walk (a pure normal complex is strongly connected)."""
        return self.normal.ok and self.top != 0

    @cached_property
    def manifold(self):
        """(manifold, sphere) of a pure complex, as is_homology_manifold
        defines them; the first non-sphere link ends the scan.  The empty
        complex is the (-1)-sphere."""
        def sphere(lk):
            return self.link_betti(lk).nonzero() == {len(lk[-1]) - 1: 1}

        # The faces below the ridges are read off the levels.  A ridge's link
        # is two points exactly when its bucket holds two facets, except in
        # dimension 0, where the ridge is the empty face, which is not
        # scanned.  The facets' links are all {empty}, the (-1)-sphere.
        manifold = (all(sphere(lk) for _, lk in islice(self.faces(self.d - 1), 1, None))
                    and (self.d == 1 or self.ridge_witness is None))
        return manifold, manifold and sphere(self.link(()))

    @cached_property
    def gorenstein(self):
        """The core is empty, or quasi-Gorenstein and Cohen-Macaulay."""
        cored = core(self.delta)
        if cored.is_empty:
            return True
        analysis = self if cored == self.delta else _Analysis(cored, self.field, self.memo)
        return analysis.quasi_gorenstein and analysis.depth.is_cohen_macaulay


def is_homology_manifold(delta, field):
    """(manifold_flag, sphere_flag) over the given field.

    manifold: every nonempty face has a link with the reduced homology
    of a sphere of the link's dimension (so facet links pass).  sphere:
    additionally the complex itself, the link of the empty face, has
    sphere homology.
    """
    analysis = _Analysis(delta, field)
    if not delta.is_pure():
        raise NotPure("homology manifolds are pure")
    return analysis.manifold


def is_quasi_gorenstein(delta, field):
    """Normal pseudomanifold with nonvanishing top homology over the field."""
    return _Analysis(delta, field).quasi_gorenstein


def is_gorenstein(delta, field):
    """Gorenstein = the core is quasi-Gorenstein and Cohen-Macaulay.

    Cone points are free ring variables, so they are stripped first;
    an empty core (the complex was a full simplex) is Gorenstein.
    """
    return _Analysis(delta, field).gorenstein


#: The report's flags, in the order reports print them.
_FLAGS = ("pure", "strongly_connected", "normal", "pseudomanifold_ridge_condition",
          "normal_pseudomanifold", "orientable", "buchsbaum", "homology_manifold",
          "homology_sphere", "cohen_macaulay", "quasi_gorenstein", "gorenstein")


class ClassificationReport(SimpleNamespace):
    """Flat bundle of every predicate for one complex and field: field,
    n_vertices, dim, one attribute per flag in _FLAGS, and witnesses."""

    def to_json(self):
        out = {
            "field": self.field.spec_string(),
            "n_vertices": self.n_vertices,
            "dim": self.dim,
        }
        for name in _FLAGS:
            out[name] = getattr(self, name)
        # Every witness is a face, except the ridge witness (face, count).
        out["witnesses"] = {
            k: {"face": list(w[0]), "count": w[1]} if k == "ridge_condition" else list(w)
            for k, w in self.witnesses.items()
        }
        return out


def classification_report(delta, field):
    """Run every predicate once and bundle the outcome.

    Every flag is a read of one analysis of the complex over the field,
    with no table built: the link levels below the ridges, the ridge map,
    one normal-pseudomanifold pass and each link's Betti vector, computed
    once, serve them all, and a core unlike the complex gets its own
    analysis sharing the Betti vectors computed so far.  Predicates whose
    preconditions fail are reported false rather than raising: a
    non-pseudomanifold is not orientable, a non-pure complex is not a
    homology manifold.
    """
    analysis = _Analysis(delta, field)
    np_report = analysis.normal
    witnesses = dict(np_report.witnesses)

    buchsbaum, bb_witness = analysis.buchsbaum
    if bb_witness is not None:
        witnesses["buchsbaum"] = bb_witness[0]

    manifold, sphere = analysis.manifold if np_report.pure else (False, False)

    depth = analysis.depth
    if depth.witness is not None:
        witnesses["cohen_macaulay"] = depth.witness[1]

    return ClassificationReport(
        field=field,
        n_vertices=delta.n_vertices,
        dim=delta.dim,
        pure=np_report.pure,
        strongly_connected=analysis.strongly_connected,
        normal=np_report.normal,
        pseudomanifold_ridge_condition=np_report.ridge_condition,
        normal_pseudomanifold=np_report.ok,
        orientable=analysis.orientable,
        buchsbaum=buchsbaum,
        homology_manifold=manifold,
        homology_sphere=sphere,
        cohen_macaulay=depth.is_cohen_macaulay,
        quasi_gorenstein=analysis.quasi_gorenstein,
        gorenstein=analysis.gorenstein,
        witnesses=witnesses,
    )
