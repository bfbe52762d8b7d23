"""Classification predicates with machine-checkable witnesses.

The chain of notions, strongest to weakest, for a complex Delta of
dimension d over a field k:

    homology sphere  =>  Gorenstein
    homology manifold with H~_d != 0  =>  quasi-Gorenstein (if Buchsbaum)
    quasi-Gorenstein  =  normal pseudomanifold with H~_d(Delta; k) != 0
    normal pseudomanifold  =  pure + connected low links + every ridge
                              in exactly two facets

Strong connectivity, the ridge condition and orientability read one
signed ridge map per call; orientability orients the facets of a
pseudomanifold across its ridges, which is exactly H~_d(Delta; Q) != 0,
over every field.  The ridge map and the orientation walk are
homology's, the ones reduced_betti answers a surface with; strong
connectivity counts the components of the map's buckets, of any size,
by union-find.  Every predicate returns its first witness in
canonical face order, so failures are reproducible.

Each predicate over a field is a read of one analysis of the complex,
hochster's link view: each level of faces of one size with their links,
the normal-pseudomanifold report and each link's Betti vector are
computed on first read, at most once, and only if read.  Normality
counts the components of each low link's facets and the facets through
each ridge, so it reads no homology and no level past the ridges; the
manifold scan of a pure complex also stops at the ridges, since every
facet's link is {empty}, the (-1)-sphere.  So the classification never
builds a pure complex's facet level.  An analysis lives as long as its
call.
"""

from functools import cached_property
from itertools import islice

from .errors import NotAPseudomanifold, NotPure
from .graphs import _components
from .hochster import _Links
from .homology import _orient, _ridge_map
from .simplicial_core import check_face_budget, core, face_key


class NormalPseudomanifoldReport:
    """Sub-flags of the normal pseudomanifold test plus witnesses."""

    __slots__ = ("ok", "pure", "normal", "ridge_condition", "witnesses")

    def __init__(self, ok, pure, normal, ridge_condition, witnesses):
        self.ok = ok
        self.pure = pure
        self.normal = normal
        self.ridge_condition = ridge_condition
        self.witnesses = witnesses

    def __repr__(self):
        return (
            f"NormalPseudomanifoldReport(ok={self.ok}, pure={self.pure}, "
            f"normal={self.normal}, ridge_condition={self.ridge_condition})"
        )


def _classifiable(delta):
    if delta.is_void or delta.is_empty:
        raise ValueError("classification needs a complex with at least one vertex")


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
    ridges = _ridges(delta)
    return ridges is None or _strongly_connected(ridges)


def is_pseudomanifold(delta):
    """Pure + strongly connected + every ridge in exactly two facets.

    The facets of a pure complex through each ridge are read off its
    ridge map, with no link built.
    """
    return _pseudomanifold(_ridges(delta))


def _ridges(delta):
    """homology._ridge_map of a pure complex with a vertex, None for any other
    complex.  Its buckets give strong connectivity, the ridge condition and
    the orientation walk."""
    if delta.is_void or delta.is_empty or not delta.is_pure():
        return None
    return _ridge_map(delta.facets)


def _strongly_connected(ridges):
    """Whether the facets of a ridge map form one component of Gamma_1: the
    complex whose facets are the buckets' facet ids is connected."""
    return _components([k for k, _ in bucket] for bucket in ridges.values()) == 1


def _pseudomanifold(ridges):
    """Whether a ridge map (None unless the complex is pure with a vertex)
    has every ridge in exactly two facets, which are strongly connected."""
    return (ridges is not None and all(len(bucket) == 2 for bucket in ridges.values())
            and _strongly_connected(ridges))


def is_orientable(delta):
    """Orientability of a pseudomanifold, by orienting its facets.

    Raises NotAPseudomanifold when the input is not a pseudomanifold
    (the notion presumes one).
    """
    ridges = _ridges(delta)
    if not _pseudomanifold(ridges):
        raise NotAPseudomanifold("orientability is defined for pseudomanifolds")
    return _orientable(delta, ridges)


def _orientable(delta, ridges):
    """Whether the facets of a pseudomanifold can be signed to cancel on every
    ridge, which is H~_d(Delta; Q) != 0: homology._orient's walk over the
    ridge map, the one reduced_betti reads on a surface, finds no ridge on
    which its signs disagree."""
    check_face_budget(delta.facets[-1:])  # the facet size reduced_betti refuses
    return _orient(delta.facets, ridges)[1]


class _Analysis(_Links):
    """The link view of one (complex, field) with classify's views on top,
    each computed on first read; an analysis of the core shares its memo."""

    def __init__(self, delta, field, memo=None):
        _classifiable(delta)
        super().__init__(delta, field, memo)

    @cached_property
    def normal(self):
        """The normal-pseudomanifold report, read off the view's levels up to
        the ridges.  A link is connected when its facets form one component
        (_components), so no homology is read.  A ridge lies in as many
        facets as its link has facets."""
        delta, d = self.delta, self.delta.dim
        witnesses = {}
        pure = delta.is_pure()
        if not pure:
            witnesses["pure"] = min((f for f in delta.facets if len(f) - 1 < d), key=face_key)
        # faces of dimension at most d - 2 need connected links
        normal_w = next((s for s, lk in self.faces(d) if _components(lk) != 1), None)
        ridge_w = next(((s, len(lk)) for s, lk in self.level(d).items() if len(lk) != 2), None)
        normal, ridge_condition = normal_w is None, ridge_w is None
        if not normal:
            witnesses["normal"] = normal_w
        if not ridge_condition:
            witnesses["ridge_condition"] = ridge_w
        ok = pure and normal and ridge_condition
        return NormalPseudomanifoldReport(ok, pure, normal, ridge_condition, witnesses)

    @cached_property
    def quasi_gorenstein(self):
        """The one definition: a normal pseudomanifold with H~_dim != 0."""
        return self.normal.ok and self.betti(())[self.delta.dim] != 0

    @cached_property
    def manifold(self):
        """(manifold, sphere) as is_homology_manifold defines them; the first
        non-sphere link ends the scan.  The empty complex is the (-1)-sphere."""
        def sphere(lk):
            return self.link_betti(lk).nonzero() == {len(lk[-1]) - 1: 1}

        # the links of a pure complex's facets are all {empty}, the (-1)-sphere
        manifold = all(sphere(lk) for _, lk in islice(self.faces(self.d), 1, None))
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


class ClassificationReport:
    """Flat bundle of every predicate for one complex and field."""

    __slots__ = ("field", "n_vertices", "dim", *_FLAGS, "witnesses")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

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

    def __repr__(self):
        flags = ", ".join(
            f"{n}={getattr(self, n)}"
            for n in ("normal_pseudomanifold", "quasi_gorenstein", "gorenstein")
        )
        return f"ClassificationReport({self.field}, {flags})"


def classification_report(delta, field):
    """Run every predicate once and bundle the outcome.

    Every flag is a read of one analysis of the complex over the field,
    with no table built: the link levels below the facets, one
    normal-pseudomanifold pass and each link's Betti vector, computed
    once, serve them all, and a
    core unlike the complex gets its own analysis sharing the Betti vectors
    computed so far.  Predicates whose preconditions fail are reported
    false rather than raising: a non-pseudomanifold is not orientable, a
    non-pure complex is not a homology manifold.
    """
    analysis = _Analysis(delta, field)
    np_report = analysis.normal
    witnesses = dict(np_report.witnesses)

    ridges = _ridges(delta)  # None exactly when delta is impure
    strongly_connected = ridges is not None and _strongly_connected(ridges)
    pseudo = np_report.ridge_condition and strongly_connected
    orientable = pseudo and _orientable(delta, ridges)

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
        strongly_connected=strongly_connected,
        normal=np_report.normal,
        pseudomanifold_ridge_condition=np_report.ridge_condition,
        normal_pseudomanifold=np_report.ok,
        orientable=orientable,
        buchsbaum=buchsbaum,
        homology_manifold=manifold,
        homology_sphere=sphere,
        cohen_macaulay=depth.is_cohen_macaulay,
        quasi_gorenstein=analysis.quasi_gorenstein,
        gorenstein=analysis.gorenstein,
        witnesses=witnesses,
    )
