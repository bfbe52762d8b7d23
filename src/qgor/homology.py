"""Exact reduced and relative simplicial homology over Q and GF(p).

Boundary matrices use the standard sign convention

    d[v_0 < ... < v_i] = sum_j (-1)^j [v_0 < ... < v_j-hat < ... < v_i]

on ascending vertex order, with the augmentation row included at i = 0,
so Betti numbers are reduced.  One builder writes these matrices as
sparse columns, for the reduced complex and for the relative one (the
faces of Delta not in Gamma), and one column reduction on the lowest
nonzero row computes every rank over every field.  All arithmetic is
exact: integers over Q, residues over GF(p).  The order of the columns
and pivots is fixed, so every matrix and rank is reproducible.

The cells of a chain complex are numbered in one top-down pass over
Delta: the facets first, then, level by level from the top degree,
each boundary face when it is first reached, with every cell's boundary
and coboundary ids recorded in the same pass.  The pass never sees
Gamma: the relative complex is the same cells with the empty face and
Gamma's facets as dead roots, whose down-set (the faces of Gamma)
coreduction marks dead before it starts, so reduced and relative
homology run one kernel.  No face is enumerated per degree and no face
list is sorted: only the cells that survive coreduction are put into
canonical order, for the boundary matrices.

Before any matrix is built, the chain complex is coreduced (Mrozek and
Batko, Coreduction homology algorithm, DCG 2009; in discrete Morse
terms an acyclic matching, Forman 1998).  A cell b whose only remaining
boundary face is a has d b = +-a, and removing the pair (a, b) leaves a
chain complex with the same homology whose boundary is d restricted to
the remaining cells: the general reduction d'c = d c - (<d c, a> /
<d b, a>) d b only clears the a-entry of d c, as d b is +-a.  The
coefficient +-1 is a unit over every field, so the pairs are the same
over Q and every GF(p), and the ranks are taken on what is left.  On
the augmented chains the empty face pairs with the first vertex in id
order, and a relative complex, whose empty face is dead, needs nothing
extra.  The queue of candidate cells is first in, first out: the pairs
then spread outward from that vertex like a breadth-first search, and
on a subdivided sphere they remove every cell but one facet, where a
last-in, first-out stack runs deep into the complex and strands most
of it (sd^3 of the boundary of the 4-simplex keeps 225,739 of its
301,681 cells under a stack and 1 under the queue).

Three kinds of complex need no matrix, and reduced_betti answers them
before any is built, exactly over every field: a cone (all facets share
a vertex) is acyclic, and a graph (dimension at most 1) with V vertices,
E edges and c components has H~_0 = c - 1 and H~_1 = E - V + c
(_graph_betti, which hochster's link view calls on small links too).  A
surface, a pure 2-complex whose triangles are joined across edges that
each lie in at most two, has H~_0 = 0, H~_2 = 1 when no edge is free and
the triangles orient or p = 2, else 0 (a 2-cycle is fixed up to a unit
across each shared edge, and is 0 at a free one), and H~_1 from the
Euler characteristic (Munkres, Elements of Algebraic Topology, 1984,
sections 22 and 43); one walk over the signed ridge map reads it all.
In a manifold of dimension at most 3 every link of a nonempty face is a
graph or a surface, and in a cone every link of a face missing the apex
is a cone.
Any other complex may be traded for its nerve N(Delta), whose facets are
the vertex stars {k : v in F_k} on the facet ids: the facets cover Delta
by simplices whose nonempty intersections are simplices, so by the nerve
theorem (Borsuk 1948; Bjorner, Topological methods, 1995, section 10)
Delta and N(Delta) have the same reduced homology over every field.  A
few wide facets have a tiny nerve.  simplicial_core.FACE_CAP, read when
a refusal runs, bounds the facets' span, the boundary ids of the cells
and the entries elimination touches, so it bounds work as well as faces.

Over a field the dimensions of cohomology equal those of homology in
each degree (universal coefficients), so the Betti vectors computed
here serve for both H~_i and H~^i.
"""

from collections import Counter, deque, namedtuple
from itertools import chain, combinations, product, repeat
from math import gcd

from . import simplicial_core
from .errors import CapacityExceeded, NotASubcomplex
from .graphs import _components
from .simplicial_core import check_face_budget


# Miller-Rabin with the first 13 primes as bases is exact below this bound.
_PRIME_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p):
    """Deterministic Miller-Rabin; exact for p < _PRIME_LIMIT."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The coefficient field: the rationals, or GF(p) for a prime p.

    p is None or an int (not a bool) that is a prime below _PRIME_LIMIT;
    anything else raises ValueError.
    """

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            # a float or bool p would run elimination on non-int residues
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"a prime must be an int, got {p!r}")
            if p >= _PRIME_LIMIT:
                raise ValueError(f"primes must be below {_PRIME_LIMIT}, got {p}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not a prime")
        self.p = p

    @classmethod
    def rationals(cls):
        return cls(None)

    @classmethod
    def prime(cls, p):
        return cls(p)

    @classmethod
    def parse(cls, text):
        """Parse a CLI field flag: 'q' (any case) or a prime integer."""
        t = str(text).strip().lower()
        if t == "q":
            return cls(None)
        try:
            p = int(t)
        except ValueError:
            raise ValueError(f"field must be 'q' or a prime integer, got {text!r}") from None
        return cls(p)

    def spec_string(self):
        """The flag/JSON spelling: 'q' or the prime as a decimal string."""
        return "q" if self.p is None else str(self.p)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "FieldSpec.rationals()" if self.p is None else f"FieldSpec.prime({self.p})"

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)


class BettiVector:
    """Dimensions of reduced homology, one entry per degree.

    Behaves like a sparse map: absent degrees read as 0, and equality
    compares the nonzero entries only.
    """

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = {int(j): int(d) for j, d in dict(dims).items()}

    def __getitem__(self, j):
        return self.dims.get(j, 0)

    def nonzero(self):
        return {j: d for j, d in self.dims.items() if d}

    def euler(self):
        """Reduced Euler characteristic sum_j (-1)^j dim H~_j."""
        return sum((-1) ** j * d for j, d in self.dims.items())

    def to_json(self):
        return {str(j): self.dims[j] for j in sorted(self.dims)}

    def __eq__(self, other):
        return isinstance(other, BettiVector) and self.nonzero() == other.nonzero()

    def __repr__(self):
        inner = ", ".join(f"{j}: {d}" for j, d in sorted(self.dims.items()))
        return "BettiVector({" + inner + "})"


class ExactMatrix:
    """Sparse matrix with exact integer entries over a FieldSpec.

    columns[c] is a {row: nonzero int} dict.  The constructor drops
    zero entries and, over GF(p), reduces the rest into 1..p-1, so every
    stored entry is a nonzero field element.  Only what homology needs:
    shape, columns, rank.
    """

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, rows, cols, columns):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.columns = [_nonzero(col, field.p) for col in columns]
        if len(self.columns) != cols or any(r not in range(rows) for c in self.columns for r in c):
            raise ValueError(f"columns do not fit a {rows} x {cols} matrix")

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols})"


def _nonzero(col, p):
    """The nonzero entries of a column, reduced mod p over GF(p)."""
    if p is not None:
        return {r: x % p for r, x in col.items() if x % p}
    return {r: x for r, x in col.items() if x}


def rank(matrix):
    """Exact rank of an ExactMatrix by column reduction on the lowest row.

    Columns are reduced left to right.  A column whose lowest nonzero
    row is already the pivot of a reduced column is replaced by
    a*col - b*pivot_col, which clears that row; a column that reaches a
    new lowest row becomes its pivot, and one that vanishes is
    dependent.  The rank is the number of pivots.  Over GF(p) entries
    stay reduced mod p; over Q they stay integers, each new column
    divided by the gcd of its entries, which keeps them small.
    Each column operation touches the entries of both columns; once
    their running count passes the face cap, CapacityExceeded is raised.
    """
    p = matrix.field.p
    cap = simplicial_core.FACE_CAP
    touched = 0
    pivots = {}
    for col in matrix.columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            touched += len(col) + len(pivot)
            if touched > cap:
                raise CapacityExceeded(f"elimination touched {touched} entries, cap is {cap}")
            a, b = pivot[low], col[low]
            col = _nonzero({r: a * col.get(r, 0) - b * pivot.get(r, 0)
                            for r in col.keys() | pivot.keys()}, p)
            if p is None and col:
                g = gcd(*col.values())
                col = {r: x // g for r, x in col.items()}
    return len(pivots)


def _boundary(cols, rows, field):
    """The matrix of d from the faces cols to the faces rows, one size below.

    Column c holds (-1)^j at the row of cols[c] minus its j-th vertex.
    A face missing from rows is skipped: with rows the faces of Delta
    not in Gamma this is the relative boundary.
    """
    row_index = {f: k for k, f in enumerate(rows)}
    columns = []
    for f in cols:
        col = {}
        for j in range(len(f)):
            r = row_index.get(f[:j] + f[j + 1:])
            if r is not None:
                col[r] = -1 if j % 2 else 1
        columns.append(col)
    return ExactMatrix(field, len(rows), len(cols), columns)


def boundary_matrix(delta, i, field):
    """The matrix of d_i from i-chains to (i-1)-chains in canonical face order.

    Out-of-range degrees give matrices with zero rows and/or columns.
    The (-1)-faces list is the empty face alone, which makes the i = 0
    matrix the augmentation row of the reduced chain complex.  The faces
    are built by faces_of_dim, so only the span screen applies.
    """
    return _boundary(delta.faces_of_dim(i), delta.faces_of_dim(i - 1), field)


#: The cells of a complex as _cells numbers them: faces[b] is the face of
#: cell b, bd[b] the ids of its boundary faces and cob[b] the ids of the
#: cells that have b among theirs.
_Cells = namedtuple("_Cells", "faces bd cob")


def _cells(delta):
    """Delta's augmented cells, the empty face included, numbered top-down
    with their boundary and coboundary ids as the module docstring
    describes.

    Raises CapacityExceeded when delta's facets span more than the face
    cap, before any face is built, and before numbering a level whose
    boundary ids would bring the total recorded past the cap: ids, not
    faces, are what the pass stores and walks.
    """
    check_face_budget(delta.facets)
    cap = simplicial_core.FACE_CAP
    facets = delta.facets
    faces = list(facets)
    ident = {f: b for b, f in enumerate(faces)}
    bd = [()] * len(faces)
    cob = [[] for _ in faces]
    number = ident.setdefault
    by_size = {}
    for b, f in enumerate(facets):
        by_size.setdefault(len(f), []).append(b)
    total = 0
    top = len(facets[-1]) - 1 if facets else -2
    level = by_size.get(top + 1, [])
    for k in range(top, -1, -1):
        total += (k + 1) * len(level)
        if total > cap:
            raise CapacityExceeded(f"cells need {total} boundary ids, cap is {cap}")
        below = by_size.get(k, [])
        n = len(faces)
        for b in level:
            ids = []
            for g in combinations(faces[b], k):
                a = number(g, n)
                if a == n:
                    faces.append(g)
                    cob.append([b])
                    below.append(a)
                    n += 1
                else:
                    cob[a].append(b)
                ids.append(a)
            bd[b] = ids
        bd += [()] * (n - len(bd))
        level = below
    return _Cells(faces, bd, cob)


def _coreduce(cells, dead=()):
    """The live faces left after coreducing cells (from _cells), per
    degree -1..dim in canonical order.

    The pass runs on cell ids with the boundary and coboundary lists of
    cells.  The ids in dead and their down-set, walked along bd, are
    killed first; each cell starts with the count of its live boundary
    faces.  A FIFO queue, seeded in id order with the cells of count 1,
    yields the pairs: a popped cell b still alive with exactly one live
    face a is removed with a, and every live coface of a or b loses one
    face, joining the queue when its count reaches 1.  See the module
    docstring for why the survivors have the same homology as the chain
    complex over every field.  Only the survivors are sorted.
    """
    bd, cob = cells.bd, cells.cob
    alive = [True] * len(bd)
    count = [len(fs) for fs in bd]
    dead = list(dead)
    for a in dead:
        if alive[a]:
            alive[a] = False
            for c in cob[a]:
                count[c] -= 1
            dead.extend(bd[a])
    queue = deque(b for b, n in enumerate(count) if n == 1)
    while queue:
        b = queue.popleft()
        if not alive[b] or count[b] != 1:
            continue
        for a in bd[b]:
            if alive[a]:
                break
        alive[a] = alive[b] = False
        for c in (*cob[a], *cob[b]):
            if alive[c]:
                count[c] -= 1
                if count[c] == 1:
                    queue.append(c)
    survivors = {j: [] for j in range(-1, max(map(len, cells.faces)))}
    for f, live in zip(cells.faces, alive):
        if live:
            survivors[len(f) - 1].append(f)
    return {j: sorted(fs) for j, fs in sorted(survivors.items())}


def _betti(cells, field, dead=()):
    """dim H_j = #chains_j - rank d_j - rank d_{j+1} for j = 0..top on
    the cells of cells (built by _cells) outside the down-set of dead.

    The cells are coreduced (_coreduce), and the formula is taken on the
    survivors, whose boundary is d restricted to them: _boundary builds
    it as it stands, skipping the rows of removed cells.  This is exact
    over every field because each removed pair (a, b) has d b = +-a, a
    unit, and it uses a FIFO queue because a stack strands most cells of
    a subdivided sphere (both in the module docstring).  Each d_j is
    ranked once; when no (j-1)-cell survives it maps into the zero space,
    so it is handed to rank with no columns.
    """
    chains = _coreduce(cells, dead)
    top = max(chains)
    ranks = {top + 1: 0}
    for j in range(0, top + 1):
        rows = chains[j - 1]
        ranks[j] = rank(_boundary(chains[j] if rows else [], rows, field))
    return BettiVector({j: len(chains[j]) - ranks[j] - ranks[j + 1] for j in range(0, top + 1)})


def _ridge_map(facets):
    """The signed ridge map of a pure complex's facets: each ridge f - f[j]
    maps to the (k, (-1)^j) of the facets f = facets[k] through it, in id
    order.  combinations drops the last vertex first."""
    n = len(facets[0]) - 1
    ridges = {}
    put = ridges.setdefault
    for r, ks in zip(chain.from_iterable(map(combinations, facets, repeat(n))),
                     product(range(len(facets)), [(-1) ** j for j in range(n, -1, -1)])):
        put(r, []).append(ks)
    return ridges


def _orient(facets, ridges):
    """Walk from facet 0 across the ridges of _ridge_map(facets) in exactly
    two facets, signing each facet reached to cancel its neighbour on the
    ridge: the number reached, and whether every crossing agrees."""
    n = len(facets[0]) - 1
    sign = [0] * len(facets)
    sign[0] = 1
    reached = [0]
    agree = True
    for k in reached:
        for r in combinations(facets[k], n):
            bucket = ridges[r]
            if len(bucket) == 2:
                (a, s), (b, t) = bucket
                m, want = a + b - k, -sign[k] * s * t
                if not sign[m]:
                    sign[m] = want
                    reached.append(m)
                elif sign[m] != want:
                    agree = False
    return len(reached), agree


def _nerve(facets):
    """The nerve of the complex the facets generate: one vertex k per
    facet F_k (k = 1..m), and the vertex stars {k : v in F_k} as facets."""
    stars = {}
    for k, f in enumerate(facets, 1):
        for v in f:
            stars.setdefault(v, []).append(k)
    return simplicial_core.from_facets(stars.values(), len(facets))


def _graph_betti(facets):
    """The Betti vector of the complex of dimension at most 1 with these
    facets: {empty} has H~_{-1} = 1, and otherwise, with V vertices, E
    edges and c components, H~_0 = c - 1 and, when there are edges,
    H~_1 = E - V + c.  Exact over every field."""
    if not facets[-1]:
        return BettiVector({-1: 1})
    c = _components(facets)
    if len(facets[-1]) == 1:
        return BettiVector({0: c - 1})
    vertices = len(set(chain.from_iterable(facets)))
    edges = sum(len(f) == 2 for f in facets)
    return BettiVector({0: c - 1, 1: edges - vertices + c})


def reduced_betti(delta, field):
    """Reduced Betti numbers dim H~_j(delta; field) for all degrees.

    dim H~_j = nullity(d_j) - rank(d_{j+1}) on the reduced (augmented)
    chain complex.  The empty complex has {-1: 1}; ordinary complexes
    report degrees 0..dim (H~_{-1} vanishes once there is a vertex).
    After the span screen of the widest facet alone, a complex of
    dimension at most 1 is answered by _graph_betti, the empty complex
    included (a graph that is a cone gets the cone's zeros there, on the
    same degrees).  Otherwise the vertex degrees are counted once.  A
    vertex in every facet makes a cone, which has every entry 0.  A pure
    2-complex whose edges each lie in at most two triangles is a surface
    when _orient reaches every triangle, and then H~_2 is 1 if no edge is
    free and the signs agree or p = 2, else 0, and H~_1 = H~_2 - (-1 + V -
    E + F).  Otherwise, when the nerve's span, the sum of 2^deg(v), is
    strictly below delta's, the answer is the nerve's; spans strictly
    decrease, so this ends.  What is left is eliminated, and _cells and
    rank refuse work past the face cap.
    """
    if delta.is_void:
        raise ValueError("the void complex has no homology")
    d = delta.dim
    facets = delta.facets
    check_face_budget(facets[-1:])
    if d <= 1:
        return _graph_betti(facets)
    degree = Counter(chain.from_iterable(facets)).values()
    if max(degree) == len(facets):
        return BettiVector(dict.fromkeys(range(d + 1), 0))
    if d == 2 and len(facets[0]) == 3:
        ridges = _ridge_map(facets)
        sizes = set(map(len, ridges.values()))
        if max(sizes) <= 2:
            reached, orientable = _orient(facets, ridges)
            if reached == len(facets):
                top = int(sizes == {2} and (orientable or field.p == 2))
                euler = len(degree) - len(ridges) + len(facets) - 1
                return BettiVector({0: 0, 1: top - euler, 2: top})
    if sum(map((1).__lshift__, degree)) < sum(map((1).__lshift__, map(len, facets))):
        nerve = reduced_betti(_nerve(facets), field)
        return BettiVector({j: nerve[j] for j in range(d + 1)})
    return _betti(_cells(delta), field)


def relative_betti(delta, gamma, field):
    """Dimensions of the relative homology H_j(delta, gamma; field).

    The relative chain complex is spanned by the faces of delta not in
    gamma; it never contains the empty face, so it is unreduced.  In
    particular gamma = empty (or void) gives the unreduced homology of
    delta, whose degree 0 exceeds the reduced one by 1 on nonempty
    complexes.  Over a field the same dimensions compute relative
    cohomology H^j(delta, gamma; field).

    The chains are delta's cells (_cells) off the down-set of the empty
    face and gamma's facets, so this is reduced_betti's kernel; gamma's
    faces are delta's cells, so gamma needs no screen of its own.  Raises,
    in this order: CapacityExceeded when delta's facets span more than the
    cap, before any face is built, or when delta's cells need more boundary
    ids than the cap; NotASubcomplex, naming the first facet of gamma in
    canonical order that is not a face of delta; CapacityExceeded when
    the elimination touches more entries than the cap.
    """
    cells = _cells(delta)
    roots = {(), *gamma.facets}
    found = {f: b for b, f in enumerate(cells.faces) if f in roots}
    for g in gamma.facets:
        if g and g not in found:
            raise NotASubcomplex(f"{list(g)} is not a face of the ambient complex")
    if delta.is_void or delta.is_empty:
        return BettiVector({})
    return _betti(cells, field, found.values())
