"""Elementary collapses and the guided vertex-elimination procedure.

An elementary collapse removes a pair (beta, gamma) where beta is a
nonempty face properly contained in exactly one face of the complex;
that face is then automatically a facet gamma with dim gamma =
dim beta + 1, and removing the pair preserves the homotopy type.

Both free pairs and facets are read off one cover map, which sends
each face to the set of faces one vertex larger that contain it.  In a
complex, a nonempty face is free exactly when it has one cover: a
face two vertices above beta would give beta two covers.  A face is
a facet exactly when it has no cover.  verify_trace replays a trace on
the same map, with one set lookup per step.

collapse_onto eliminates the forbidden vertices one at a time,
smallest first, on one cover map that each removal updates.  The star
of v (everything above {v}) collapses in the complex itself, and the
pair ({v}, {v,v'}) for a neighbour v' comes last.  The covers of a
face sigma containing v are those of sigma - v in lk v, joined with v:
so sigma != {v} is free exactly when sigma - v is free in lk v, and
as adding v keeps faces of one size in canonical order, the steps are
those of collapsing lk v onto {v'}, joined with v.  Finishing v
removes exactly its star, so a finished run ends at the faces avoiding
every forbidden vertex.  A stuck run returns a Failure value: on
inputs outside the procedure's hypotheses it is the expected outcome.
"""

from heapq import heappop, heappush
from types import SimpleNamespace

from .errors import InvalidStep
from .homology import reduced_betti
from .simplicial_core import SimplicialComplex, face, face_key


class CollapseTrace:
    """An ordered, replayable record of elementary collapses; two traces
    are equal when their start, end and steps are."""

    __slots__ = ("start", "end", "steps")

    def __init__(self, start, end, steps):
        self.start = start
        self.end = end
        self.steps = tuple((face(b), face(g)) for b, g in steps)

    def to_json(self):
        return {
            "start": [list(f) for f in self.start.facets],
            "end": [list(f) for f in self.end.facets],
            "steps": [
                {"free": list(b), "coface": list(g)} for b, g in self.steps
            ],
        }

    def __eq__(self, other):
        return isinstance(other, CollapseTrace) and (
            (self.start, self.end, self.steps) == (other.start, other.end, other.steps))

    def __repr__(self):
        return f"CollapseTrace({len(self.steps)} steps)"


class Failure(SimpleNamespace):
    """A stuck collapse attempt: where it stopped and how it got there, as
    stuck_complex, partial_trace (a CollapseTrace ending there) and reason."""

    def to_json(self):
        out = self.partial_trace.to_json()
        del out["end"]
        out["stuck"] = [list(f) for f in self.stuck_complex.facets]
        out["reason"] = self.reason
        return out


def _covers(faces):
    """Each face mapped to the set of faces one vertex larger that contain it.

    One pass over the faces, which must be closed under subsets.  The keys
    keep the order of faces, and removals keep it, so a map built from
    delta.faces() lists its faces in canonical order for good.
    """
    covers = {f: set() for f in faces}
    for g in faces:
        for i in range(len(g)):
            covers[g[:i] + g[i + 1:]].add(g)
    return covers


def _to_complex(covers, n_vertices):
    """The complex whose facets are the faces with no cover."""
    return SimplicialComplex(n_vertices, [f for f, up in covers.items() if not up])


def free_faces(delta):
    """All free pairs of the complex, in canonical order: the (beta, gamma)
    with beta nonempty and gamma its one cover.

    The empty face is never free: removing it together with a lone
    vertex would change reduced homology in degree -1.
    """
    return [(b, *up) for b, up in _covers(delta.faces()).items() if b and len(up) == 1]


def collapse_onto(delta_a, forbidden_vertices):
    """Collapse away the forbidden vertices, one star at a time.

    Returns a CollapseTrace whose end is the faces avoiding every
    forbidden vertex, or a Failure with the stuck state.  Tie-breaks
    are fixed: smallest forbidden vertex first; its target neighbour v'
    prefers non-forbidden ids, then smallest; inner collapses take the
    canonically first free face of the star other than {v} and {v,v'}.
    The star's free faces sit in one heap that each step pushes the faces
    it frees onto, so a step costs a logarithm of the star, not a scan.
    """
    forbidden = set(forbidden_vertices)
    covers = _covers(delta_a.faces())
    steps = []

    def fail(reason):
        stuck = _to_complex(covers, delta_a.n_vertices)
        return Failure(stuck_complex=stuck, partial_trace=CollapseTrace(delta_a, stuck, steps),
                       reason=reason)

    # Finishing v removes only its star: later forbidden vertices stay.
    for v in sorted(forbidden.intersection(delta_a.vertices())):
        link_verts = {w for g in covers[(v,)] for w in g if w != v}
        if not link_verts:
            return fail(f"vertex {v} has an empty link; it cannot be collapsed away")
        edge = face((v, min(link_verts - forbidden, default=min(link_verts))))
        star, level = set(), {(v,)}
        while level:
            star |= level
            level = {g for f in level for g in covers[f]}
        # {v,v'} is never the free face, and {v} has one cover only once
        # the star is down to {v} and {v,v'}: that pair comes last.
        star.discard(edge)
        # A heap of the star's free faces by face_key, which holds the face (a
        # sorted list is a heap).  Covers only shrink, so a face is pushed
        # once, when it is left with one cover, and a popped face that has
        # left the star or lost its last cover stays unusable: it is dropped.
        free = sorted(face_key(f) for f in star if len(covers[f]) == 1)
        while star:
            while free and (free[0][1] not in star or len(covers[free[0][1]]) != 1):
                heappop(free)
            if not free:
                return fail(f"link of vertex {v} is stuck with no usable free face")
            beta = heappop(free)[1]
            [gamma] = covers[beta]
            steps.append((beta, gamma))
            star.difference_update((beta, gamma))
            # gamma has no cover and beta only gamma, so only the faces
            # just below them lose a cover
            for g, f in [(f[:i] + f[i + 1:], f) for f in (gamma, beta) for i in range(len(f))]:
                covers[g].remove(f)
                if len(covers[g]) == 1 and g in star:
                    heappush(free, face_key(g))
            del covers[beta], covers[gamma]

    return CollapseTrace(delta_a, _to_complex(covers, delta_a.n_vertices), steps)


def verify_trace(trace, field):
    """Replay a trace and compare Betti vectors of start and end.

    Structural problems raise InvalidStep with the offending index:
    a step whose pair is not a free pair of the current state, or a
    final state that differs from the recorded end.  The boolean
    verdict is reserved for the homology comparison.
    """
    covers = _covers(trace.start.faces())
    for k, (beta, gamma) in enumerate(trace.steps):
        if beta not in covers or gamma not in covers:
            raise InvalidStep(k, f"pair ({beta}, {gamma}) is not in the complex")
        if not beta or covers[beta] != {gamma}:
            raise InvalidStep(k, f"face {beta} is not free with coface {gamma}")
        # gamma has no cover and beta only gamma, so only the faces just
        # below them lose a cover
        for f in (gamma, beta):
            for i in range(len(f)):
                covers[f[:i] + f[i + 1:]].remove(f)
        del covers[beta], covers[gamma]
    if _to_complex(covers, trace.start.n_vertices) != trace.end:
        raise InvalidStep(len(trace.steps), "replayed end differs from recorded end")
    b_start = reduced_betti(trace.start, field)
    b_end = reduced_betti(trace.end, field)
    return b_start == b_end
