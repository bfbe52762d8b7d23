"""Exact reduced and relative simplicial homology over Q and GF(p).

Boundary matrices use the standard sign convention

    d[v_0 < ... < v_i] = sum_j (-1)^j [v_0 < ... < v_j-hat < ... < v_i]

on ascending vertex order, with the augmentation row included at i = 0,
so Betti numbers are reduced.  All arithmetic is exact: rank over the
rationals runs fraction-free (Bareiss) on integers, rank over GF(p)
reduces eagerly mod p.  Pivoting is deterministic (leftmost column,
then lowest row), so every matrix and rank is reproducible.

Over a field the dimensions of cohomology equal those of homology in
each degree (universal coefficients), so the Betti vectors computed
here serve for both H~_i and H~^i.
"""

from fractions import Fraction
from math import lcm

from .errors import CapacityExceeded, NotASubcomplex
from .simplicial_core import FACE_CAP, check_face_budget


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
    """The coefficient field: the rationals, or GF(p) for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
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

    @property
    def is_rationals(self):
        return self.p is None

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

    def degrees(self):
        return sorted(self.dims)

    def euler(self):
        """Reduced Euler characteristic sum_j (-1)^j dim H~_j."""
        return sum((-1) ** j * d for j, d in self.dims.items())

    def total(self):
        return sum(self.dims.values())

    def to_json(self):
        return {str(j): self.dims[j] for j in sorted(self.dims)}

    def __eq__(self, other):
        return isinstance(other, BettiVector) and self.nonzero() == other.nonzero()

    def __repr__(self):
        inner = ", ".join(f"{j}: {d}" for j, d in sorted(self.dims.items()))
        return "BettiVector({" + inner + "})"


class ExactMatrix:
    """Dense matrix with exact entries over a FieldSpec.

    Entries are ints or Fractions over the rationals and ints in
    0..p-1 over GF(p).  Only what homology needs: shape, entries, rank.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = [list(r) for r in entries]
        assert len(self.entries) == rows and all(len(r) == cols for r in self.entries)

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols})"


def rank(matrix):
    """Exact rank of an ExactMatrix.

    Rationals: denominators are cleared rowwise, then fraction-free
    Bareiss elimination keeps every intermediate value an integer (the
    exact divisions are Sylvester's identity).  GF(p): ordinary Gaussian
    elimination with eager reduction.
    """
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    if matrix.field.is_rationals:
        return _rank_bareiss(matrix.entries)
    return _rank_mod_p(matrix.entries, matrix.field.p)


def _rank_bareiss(entries):
    m = []
    for row in entries:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        m.append([int(x * den) for x in row])
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        piv = m[r][col]
        for i in range(r + 1, n_rows):
            factor = m[i][col]
            for j in range(col + 1, n_cols):
                m[i][j] = (piv * m[i][j] - factor * m[r][j]) // prev
            m[i][col] = 0
        prev = piv
        r += 1
        if r == n_rows:
            break
    return r

def _rank_mod_p(entries, p):
    m = [[x % p for x in row] for row in entries]
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][col], -1, p)
        for i in range(r + 1, n_rows):
            factor = (m[i][col] * inv) % p
            if factor:
                row_r = m[r]
                row_i = m[i]
                for j in range(col, n_cols):
                    row_i[j] = (row_i[j] - factor * row_r[j]) % p
        r += 1
        if r == n_rows:
            break
    return r


def boundary_matrix(delta, i, field, cap=FACE_CAP):
    """The matrix of d_i from i-chains to (i-1)-chains in canonical face order.

    Out-of-range degrees give matrices with zero rows and/or columns.
    The (-1)-faces list is the empty face alone, which makes the i = 0
    matrix the augmentation row of the reduced chain complex.
    """
    cols = delta.faces_of_dim(i, cap)
    rows = delta.faces_of_dim(i - 1, cap)
    if len(rows) * len(cols) > cap:
        raise CapacityExceeded(
            f"boundary matrix with {len(rows)} x {len(cols)} entries, cap is {cap}"
        )
    row_index = {f: k for k, f in enumerate(rows)}
    p = field.p
    entries = [[0] * len(cols) for _ in rows]
    for c, f in enumerate(cols):
        for j in range(len(f)):
            sub = f[:j] + f[j + 1:]
            sign = -1 if j % 2 else 1
            entries[row_index[sub]][c] = sign % p if p is not None else sign
    return ExactMatrix(field, len(rows), len(cols), entries)


def reduced_betti(delta, field, cap=FACE_CAP):
    """Reduced Betti numbers dim H~_j(delta; field) for all degrees.

    dim H~_j = nullity(d_j) - rank(d_{j+1}) on the reduced (augmented)
    chain complex.  The empty complex has {-1: 1}; ordinary complexes
    report degrees 0..dim (H~_{-1} vanishes once there is a vertex).
    """
    if delta.is_void:
        raise ValueError("the void complex has no homology")
    d = delta.dim
    if d == -1:
        return BettiVector({-1: 1})
    check_face_budget(delta.facets, cap)
    counts = {j: len(delta.faces_of_dim(j, cap)) for j in range(-1, d + 1)}
    ranks = {j: rank(boundary_matrix(delta, j, field, cap)) for j in range(0, d + 1)}
    ranks[d + 1] = 0
    dims = {}
    for j in range(0, d + 1):
        dims[j] = (counts[j] - ranks[j]) - ranks[j + 1]
    return BettiVector(dims)


def relative_betti(delta, gamma, field, cap=FACE_CAP):
    """Dimensions of the relative homology H_j(delta, gamma; field).

    The relative chain complex is spanned by the faces of delta not in
    gamma; it never contains the empty face, so it is unreduced.  In
    particular gamma = empty (or void) gives the unreduced homology of
    delta, whose degree 0 exceeds the reduced one by 1 on nonempty
    complexes.  Over a field the same dimensions compute relative
    cohomology H^j(delta, gamma; field).

    Raises NotASubcomplex when a facet of gamma is not a face of delta.
    """
    for f in gamma.facets:
        if f and not delta.is_face(f):
            raise NotASubcomplex(f"{list(f)} is not a face of the ambient complex")
    if delta.is_void or delta.is_empty:
        return BettiVector({})
    check_face_budget(delta.facets, cap)
    d = delta.dim
    gamma_faces = set(gamma.faces(cap))
    rel = {
        j: [f for f in delta.faces_of_dim(j, cap) if f not in gamma_faces]
        for j in range(0, d + 1)
    }
    p = field.p

    def rel_rank(j):
        cols = rel.get(j, [])
        rows = rel.get(j - 1, [])
        if not cols or not rows:
            return 0
        if len(rows) * len(cols) > cap:
            raise CapacityExceeded(
                f"relative boundary matrix with {len(rows)} x {len(cols)} entries, cap is {cap}"
            )
        row_index = {f: k for k, f in enumerate(rows)}
        entries = [[0] * len(cols) for _ in rows]
        for c, f in enumerate(cols):
            for k in range(len(f)):
                sub = f[:k] + f[k + 1:]
                r = row_index.get(sub)
                if r is None:
                    continue
                sign = -1 if k % 2 else 1
                entries[r][c] = sign % p if p is not None else sign
        return rank(ExactMatrix(field, len(rows), len(cols), entries))

    ranks = {j: rel_rank(j) for j in range(0, d + 2)}
    dims = {}
    for j in range(0, d + 1):
        dims[j] = (len(rel[j]) - ranks[j]) - ranks[j + 1]
    return BettiVector(dims)
