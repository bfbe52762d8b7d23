"""Simplicial complexes as canonical facet lists.

A face is a tuple of strictly increasing positive vertex ids; the empty
face is the empty tuple.  A complex stores its inclusion-maximal faces
(facets) sorted by size and then lexicographically, so two equal
complexes compare equal structurally.  Two degenerate complexes are
kept distinct: the *void* complex with no faces at all, and the *empty*
complex whose only face is the empty face.  The distinction matters
because reduced homology of the empty complex is one-dimensional in
degree -1, which Hochster's formula relies on for links of facets.

Vertex ids are 1-based and need not all occur in a facet; unused ids
stay in the ambient set (this matters for multidegrees downstream).
faces_of_dim enumerates the faces of one size, for faces() (and so for
collapses) and for homology.boundary_matrix; _link_level maps the faces
of one size to their link facets, for the link view in hochster, which
builds only the sizes a scan reads, so nothing sorts all faces.  The
cells that homology eliminates are enumerated by its own top-down
builder, which puts only the cells left after coreduction into
canonical order.  check_face_budget is the one face screen:
faces_of_dim, every link level and that builder run it on the span of
all the facets before any face is built.
"""

from itertools import combinations

from .errors import (
    CapacityExceeded,
    EmptySelection,
    IndexOutOfRange,
    NotAFace,
    VertexOutOfRange,
)

#: Cap on the span sum 2^|F| over the facets F of any complex whose faces
#: are built, and in homology on the boundary ids the cell builder records
#: and on the entries elimination touches.  Every refusal reads it at call
#: time, so lowering it here lowers them all.
FACE_CAP = 2 ** 24


def face(vertices):
    """Canonicalize an iterable of vertex ids into a face tuple."""
    return tuple(sorted(set(vertices)))


def face_key(f):
    """Sort key realizing the canonical (cardinality, lexicographic) order."""
    return (len(f), f)


def check_face_budget(facets):
    """Refuse facets whose span, the sum of 2^|F| over them, exceeds FACE_CAP.

    The span bounds the number of faces they generate and costs one pass
    over the facets, so every routine that builds faces runs this first
    and refuses wide input before any face tuple exists.
    """
    span = sum(2 ** len(f) for f in facets)
    if span > FACE_CAP:
        raise CapacityExceeded(f"facets span {span} faces, cap is {FACE_CAP}")


def check_facet_indices(delta, indices):
    """The distinct facet positions in indices, sorted, once each entry in
    turn is checked to be an int (not a bool) in 0..m - 1 for delta's m
    facets: the first that is not raises IndexOutOfRange."""
    m = len(delta.facets)
    seen = set()
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < m:
            raise IndexOutOfRange(f"facet index {i} out of range 0..{m - 1}")
        seen.add(i)
    return sorted(seen)


class SimplicialComplex:
    """A simplicial complex on the vertex set {1, ..., n_vertices}.

    Instances are immutable value objects; build them with from_facets
    rather than calling the constructor directly, so facet lists are
    always canonical (maximal, deduplicated, sorted).
    """

    __slots__ = ("n_vertices", "facets")

    def __init__(self, n_vertices, facets):
        self.n_vertices = n_vertices
        self.facets = tuple(facets)

    @property
    def is_void(self):
        """True when the complex has no faces whatsoever."""
        return not self.facets

    @property
    def is_empty(self):
        """True when the only face is the empty face."""
        return self.facets == ((),)

    @property
    def dim(self):
        """Dimension, i.e. max |F| - 1 over facets (-1 for the empty complex)."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return len(self.facets[-1]) - 1

    def is_pure(self):
        """True when all facets share one dimension (void and empty count as pure)."""
        return len({len(f) for f in self.facets}) <= 1

    def vertices(self):
        """The vertex ids that occur in at least one facet, ascending."""
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    def is_face(self, sigma):
        """Membership test; accepts any iterable of vertex ids."""
        s = set(sigma)
        return any(s.issubset(f) for f in self.facets)

    def faces(self):
        """All faces in canonical order: faces_of_dim(-1), faces_of_dim(0), ...

        The void complex yields nothing.  Raises CapacityExceeded, before
        any face is built, when the facets span more than FACE_CAP.
        """
        out = []
        for k in range(-1, len(self.facets[-1]) if self.facets else -1):
            out += self.faces_of_dim(k)
        return out

    def faces_of_dim(self, k):
        """All k-dimensional faces in lexicographic order.

        k = -1 yields the empty face (unless the complex is void);
        out-of-range k yields an empty list.  Raises CapacityExceeded,
        before any face is built, when the facets span more than FACE_CAP.
        """
        if self.is_void or k < -1:
            return []
        check_face_budget(self.facets)
        if k == -1:
            return [()]
        return sorted(_faces_of_dim(self.facets, k))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.n_vertices == other.n_vertices
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.n_vertices, self.facets))

    def __repr__(self):
        if self.is_void:
            return f"SimplicialComplex(n={self.n_vertices}, void)"
        if self.is_empty:
            return f"SimplicialComplex(n={self.n_vertices}, empty)"
        body = ",".join("".join(map(str, f)) if all(v < 10 for v in f) else str(f) for f in self.facets)
        return f"SimplicialComplex(n={self.n_vertices}, <{body}>)"


def _faces_of_dim(facets, k):
    """The set of k-dimensional faces of the given facets, k >= 0."""
    seen = set()
    for f in facets:
        seen.update(combinations(f, k + 1))
    return seen


def from_facets(raw_facets, n_vertices=None):
    """Build the canonical complex generated by the given faces.

    Parameters
    ----------
    raw_facets : iterable of iterables of positive ints
        Generating faces; non-maximal and duplicate entries are absorbed.
        Repeated ids inside one entry are deduplicated.
    n_vertices : int, optional
        Ambient vertex count.  Defaults to the largest id seen (0 when
        no faces or only the empty face are given).

    Raises
    ------
    VertexOutOfRange
        If an id is not an int (or is a bool), is nonpositive or exceeds
        an explicit n_vertices.
    """
    cleaned = []
    for entry in raw_facets:
        # types first, while the entry is as given: face() would let True
        # merge into 1 and cannot sort a mixed entry
        entry = list(entry)
        for v in entry:
            if not isinstance(v, int) or isinstance(v, bool):
                raise VertexOutOfRange(f"vertex id {v!r} in facet {entry} is not an integer")
        f = face(entry)
        if f and f[0] <= 0:
            raise VertexOutOfRange(f"vertex id {f[0]} in facet {sorted(entry)} is not positive")
        cleaned.append(f)

    top = max((f[-1] for f in cleaned if f), default=0)
    if n_vertices is None:
        n_vertices = top
    else:
        if n_vertices < 0:
            raise VertexOutOfRange(f"n_vertices must be nonnegative, got {n_vertices}")
        if top > n_vertices:
            offender = next(f for f in cleaned if f and f[-1] == top)
            raise VertexOutOfRange(
                f"vertex id {top} in facet {list(offender)} exceeds n_vertices={n_vertices}"
            )

    # Absorption: keep only inclusion-maximal faces.  Larger faces come
    # first, so a face is absorbed exactly when a kept facet contains it;
    # such a facet lies in the star of every vertex of the face, so only
    # the star of its rarest vertex (the fewest kept facets) is searched.
    maximal = []
    star = {}
    for f in sorted(set(cleaned), key=len, reverse=True):
        if not f:
            if not maximal:
                maximal.append(f)
            continue
        rarest = min(f, key=lambda v: len(star.get(v, ())))
        fs = frozenset(f)
        if not any(fs <= m for m in star.get(rarest, ())):
            maximal.append(f)
            for v in f:
                star.setdefault(v, []).append(fs)
    maximal.sort(key=face_key)
    return SimplicialComplex(n_vertices, maximal)


def link(delta, sigma):
    """The link lk(sigma) = {tau : tau disjoint from sigma, tau + sigma a face}.

    Stays on the same ambient vertex set.  The link of the empty face is
    the complex itself; the link of a facet is the empty complex.  Its
    facets are the F - sigma over the facets F containing sigma: these
    are maximal, distinct and inherit the canonical order, so no
    absorption pass is needed.

    Raises NotAFace when sigma is not a face of delta.
    """
    s = face(sigma)
    ss = set(s)
    facets = tuple(tuple(v for v in f if v not in ss) for f in delta.facets if ss.issubset(f))
    if not facets:
        raise NotAFace(f"{list(s)} is not a face")
    return SimplicialComplex(delta.n_vertices, facets)


def _link_level(delta, k):
    """The faces of size k mapped to the facets of their links, in
    lexicographic order.

    Each k-subset sigma of a facet F with |F| >= k files F - sigma under
    sigma; as in link(), those lists are already the canonical link
    facets.  Refuses the same inputs as faces(), by the same span screen
    over all of delta's facets before any face is filed, whatever k is.
    """
    check_face_budget(delta.facets)
    level = {}
    for f in delta.facets:
        if len(f) < k:
            continue
        # The k-subsets of f in lexicographic order are the complements
        # of its (|f|-k)-subsets in reverse lexicographic order.
        rests = list(combinations(f, len(f) - k))
        rests.reverse()
        for s, rest in zip(combinations(f, k), rests):
            level.setdefault(s, []).append(rest)
    return {s: tuple(level[s]) for s in sorted(level)}


def restrict_to_facets(delta, indices):
    """The subcomplex generated by the facets at the given 0-based positions.

    Positions refer to the canonical facet order.  Raises EmptySelection
    for an empty selection and IndexOutOfRange for a bad position.
    """
    idx = check_facet_indices(delta, indices)
    if not idx:
        raise EmptySelection("at least one facet index is required")
    # facets of a canonical complex, kept in order, are again canonical
    return SimplicialComplex(delta.n_vertices, [delta.facets[i] for i in idx])


def faces_avoiding(delta, forbidden_vertices):
    """The subcomplex of faces containing no forbidden vertex."""
    forbidden = set(forbidden_vertices)
    new_facets = [tuple(v for v in f if v not in forbidden) for f in delta.facets]
    return from_facets(new_facets, delta.n_vertices)


def core(delta):
    """Strip cone points (vertices lying in every facet) until none remain.

    Removing all current cone points at once leaves a complex whose
    facets have empty common intersection, so a single pass converges;
    the operation is idempotent.
    """
    if delta.is_void:
        raise ValueError("the void complex has no core")
    cone = set(delta.facets[0]).intersection(*delta.facets[1:])
    if not cone:
        return delta
    return from_facets([tuple(v for v in f if v not in cone) for f in delta.facets], delta.n_vertices)

