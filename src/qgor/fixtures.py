"""The built-in test corpus and an independent brute-force Betti oracle.

The corpus collects small classical complexes (simplex boundaries, the
minimal 6-vertex projective plane, the 7-vertex Csaszar torus) together
with a handful of complexes taken verbatim from the research literature
on quasi-Gorenstein complexes (the 5-vertex Moebius strip and two
counterexample pairs for the collapse lemma).  Fixture facet lists are
data, never recomputed; everything derived about them is frozen in the
"expected" block of fixtures/manifest.json (written by
tools/freeze_expected.py from this oracle plus plain set arithmetic)
and re-derived by the test suite.

oracle_betti is deliberately naive and shares no code with the homology
module: its own bitmask face enumeration, dense Gauss-Jordan over
Fraction for the rationals, Fermat-inverse elimination for GF(p).  The
point is that two independent implementations must agree on every
fixture before any value is trusted.
"""

from fractions import Fraction

from .errors import TooLarge
from .homology import BettiVector
from .simplicial_core import from_facets

#: Hard face budget for the oracle; it exists to certify desk-scale
#: fixtures, not to compute.
ORACLE_FACE_LIMIT = 4096


class Fixture:
    """A named corpus member: its facet data and where it comes from."""

    __slots__ = ("name", "n_vertices", "facets", "provenance", "description")

    def __init__(self, name, n_vertices, facets, provenance, description):
        self.name = name
        self.n_vertices = n_vertices
        self.facets = [sorted(f) for f in facets]
        self.provenance = provenance
        self.description = description

    def complex(self):
        return from_facets(self.facets, self.n_vertices)

    def facet_file_text(self):
        """Render the .cplx facet file content for this fixture.

        Facets are listed in canonical order so that file line numbers
        line up with the 1-based facet indices the CLI reports.
        """
        lines = [f"# {self.name}: {self.description}", f"n={self.n_vertices}"]
        lines += [" ".join(str(v) for v in f)
                  for f in sorted(self.facets, key=lambda f: (len(f), f))]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Fixture({self.name!r}, n={self.n_vertices}, {len(self.facets)} facets)"


_RAW = [
    ("boundary-2-simplex", 3, [[1, 2], [1, 3], [2, 3]],
     "standard", "boundary of the triangle, a 1-sphere"),
    ("boundary-3-simplex", 4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
     "standard", "boundary of the tetrahedron, a 2-sphere"),
    ("boundary-4-simplex", 5,
     [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5]],
     "standard", "boundary of the 4-simplex, a 3-sphere"),
    ("four-cycle", 4, [[1, 2], [2, 3], [3, 4], [1, 4]],
     "standard", "the 4-cycle, a 1-sphere with two diagonals missing"),
    ("full-simplex-1", 1, [[1]],
     "standard", "a single vertex, polynomial ring in one variable"),
    ("full-simplex-3", 3, [[1, 2, 3]],
     "standard", "the full triangle, polynomial ring in three variables"),
    ("cone-four-cycle", 5, [[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5]],
     "standard", "cone over the 4-cycle with apex 5"),
    ("two-points", 2, [[1], [2]],
     "standard", "two isolated vertices, a 0-sphere"),
    ("two-triangles", 6, [[1, 2, 3], [4, 5, 6]],
     "standard", "two disjoint full triangles"),
    ("wedge-triangles", 5, [[1, 2, 3], [1, 4, 5]],
     "standard", "two full triangles glued at vertex 1"),
    ("rp2-6", 6,
     [[1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
      [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6]],
     "standard", "minimal 6-vertex triangulation of the real projective plane"),
    ("csaszar-torus", 7,
     [[1, 2, 4], [1, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 6], [3, 5, 6],
      [4, 5, 7], [4, 6, 7], [1, 5, 6], [1, 5, 7], [2, 6, 7], [1, 2, 6],
      [1, 3, 7], [2, 3, 7]],
     "standard", "Csaszar's 7-vertex triangulation of the torus"),
    ("paper-moebius", 5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]],
     "paper", "5-vertex Moebius strip used as a non-orientability example"),
    ("paper-cex1", 5, [[1, 2, 3], [1, 2, 4], [1, 2, 5]],
     "paper", "three triangles sharing an edge; ambient complex of collapse counterexample 1"),
    ("paper-cex1-A", 5, [[1, 2, 3], [1, 2, 4]],
     "paper", "two triangles sharing an edge; the Delta_A of collapse counterexample 1"),
    ("paper-cex2", 5, [[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5], [1, 2, 3]],
     "paper", "cone over the 4-cycle plus one extra triangle; ambient complex of collapse counterexample 2"),
    ("paper-cex2-A", 5, [[1, 2, 5], [3, 4, 5]],
     "paper", "two triangles sharing vertex 5; the Delta_A of collapse counterexample 2"),
]


def corpus():
    """The full fixture list in a fixed, documented order."""
    return [Fixture(*row) for row in _RAW]


def get_fixture(name):
    for row in _RAW:
        if row[0] == name:
            return Fixture(*row)
    raise KeyError(name)


def oracle_betti(delta, field):
    """Reduced Betti numbers by plain dense elimination, for cross-checking.

    Refuses complexes with more than ORACLE_FACE_LIMIT faces (TooLarge).
    Only reads delta.facets and the field characteristic; everything
    else is recomputed from scratch on purpose.
    """
    p = field.p
    faces = {frozenset()}
    for f in delta.facets:
        fs = list(f)
        if 2 ** len(fs) > ORACLE_FACE_LIMIT:
            raise TooLarge(f"facet with {len(fs)} vertices exceeds the oracle budget")
        for mask in range(2 ** len(fs)):
            faces.add(frozenset(fs[i] for i in range(len(fs)) if mask >> i & 1))
        if len(faces) > ORACLE_FACE_LIMIT:
            raise TooLarge(f"more than {ORACLE_FACE_LIMIT} faces")
    if delta.is_void:
        return BettiVector({})

    by_dim = {}
    for fs in faces:
        by_dim.setdefault(len(fs) - 1, []).append(tuple(sorted(fs)))
    for lst in by_dim.values():
        lst.sort()
    top = max(by_dim)
    if top == -1:
        return BettiVector({-1: 1})

    def boundary_rank(j):
        rows = by_dim.get(j - 1, [])
        cols = by_dim.get(j, [])
        if not rows or not cols:
            return 0
        where = {f: i for i, f in enumerate(rows)}
        mat = []
        for _ in rows:
            mat.append([Fraction(0) if p is None else 0] * len(cols))
        for c, f in enumerate(cols):
            for k in range(len(f)):
                sign = 1 if k % 2 == 0 else -1
                sub = f[:k] + f[k + 1:]
                if p is None:
                    mat[where[sub]][c] = Fraction(sign)
                else:
                    mat[where[sub]][c] = sign % p
        return _gauss_jordan_rank(mat, p)

    ranks = {j: boundary_rank(j) for j in range(0, top + 2)}
    dims = {}
    for j in range(0, top + 1):
        n_j = len(by_dim.get(j, []))
        dims[j] = (n_j - ranks[j]) - ranks[j + 1]
    return BettiVector(dims)


def _gauss_jordan_rank(mat, p):
    # Textbook full reduction, clearing above and below every pivot.
    n_rows = len(mat)
    n_cols = len(mat[0])
    r = 0
    for col in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if p is None:
            inv = Fraction(1) / mat[r][col]
            mat[r] = [x * inv for x in mat[r]]
        else:
            inv = pow(mat[r][col], p - 2, p)
            mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(n_rows):
            if i == r or mat[i][col] == 0:
                continue
            factor = mat[i][col]
            if p is None:
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
            else:
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == n_rows:
            break
    return r



