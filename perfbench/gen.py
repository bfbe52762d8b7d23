"""Seeded generators for the benchmark's complexes.

Every generator builds through qgor.from_facets and checks what it
built: the f-vector against a closed form, and, for subdivision, cone,
suspension and join, the reduced Euler characteristic against the one
the construction must give.  A failed check raises GeneratorError, so
a wrong input can never be timed.
"""

from itertools import combinations, permutations, product
from math import comb, factorial

from qgor import from_facets


class GeneratorError(AssertionError):
    """A generated complex does not have the shape its construction gives."""


def f_vector(delta):
    """f_{-1}, f_0, ..., f_dim as a list; index k + 1 holds f_k."""
    counts = {}
    for f in delta.faces():
        counts[len(f)] = counts.get(len(f), 0) + 1
    return [counts.get(k, 0) for k in range(max(counts) + 1)]


def reduced_euler(fv):
    return sum((-1) ** (k - 1) * n for k, n in enumerate(fv))


def _check(delta, fv, chi=None, what=""):
    got = f_vector(delta)
    if got != fv:
        raise GeneratorError(f"{what}: f-vector {got}, construction gives {fv}")
    if chi is not None and reduced_euler(got) != chi:
        raise GeneratorError(f"{what}: reduced Euler characteristic {reduced_euler(got)}, "
                             f"expected {chi}")
    return delta


def _stirling2(n, k):
    row = [1] + [0] * k
    for i in range(1, n + 1):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


def simplex(n):
    """The full simplex on vertices 1..n."""
    return _check(from_facets([range(1, n + 1)]),
                  [comb(n, k) for k in range(n + 1)], what=f"simplex({n})")


def simplex_boundary(n):
    """The boundary of the simplex on vertices 1..n, an (n-2)-sphere."""
    delta = from_facets(combinations(range(1, n + 1), n - 1))
    return _check(delta, [comb(n, k) for k in range(n)], what=f"boundary({n})")


def cross_polytope_boundary(n):
    """The boundary of the n-dimensional cross-polytope, an (n-1)-sphere.

    Vertex 2i-1 is +e_i and vertex 2i is -e_i; a facet picks one of each.
    """
    facets = [[2 * i + 1 + bit for i, bit in enumerate(bits)]
              for bits in product((0, 1), repeat=n)]
    fv = [1] + [2 ** k * comb(n, k) for k in range(1, n + 1)]
    return _check(from_facets(facets), fv, what=f"cross_polytope({n})")


def sd(delta):
    """Barycentric subdivision: vertices are the nonempty faces, facets the full flags.

    The faces are numbered 1.. in qgor's canonical face order, so the
    labelling is deterministic.
    """
    label = sd_labels(delta)
    flags = set()
    for top in delta.facets:
        for order in permutations(top):
            flags.add(tuple(label[tuple(sorted(order[:k]))] for k in range(1, len(order) + 1)))
    out = from_facets(flags, len(label))
    fv = f_vector(delta)
    want = [1] + [sum(fv[j + 1] * factorial(k + 1) * _stirling2(j + 1, k + 1)
                      for j in range(k, len(fv) - 1))
                  for k in range(len(fv) - 1)]
    return _check(out, want, reduced_euler(fv), what="sd")


def sd_labels(delta):
    """The vertex of sd(delta) that stands for each nonempty face of delta."""
    return {f: i for i, f in enumerate((f for f in delta.faces() if f), start=1)}


def cone(delta):
    """The cone with apex n_vertices + 1."""
    apex = delta.n_vertices + 1
    out = from_facets([f + (apex,) for f in delta.facets], apex)
    fv = f_vector(delta)
    want = [a + b for a, b in zip(fv + [0], [0] + fv)]
    return _check(out, want, 0, what="cone")


def suspension(delta):
    """The suspension with apexes n_vertices + 1 and n_vertices + 2."""
    n = delta.n_vertices
    out = from_facets([f + (n + k,) for f in delta.facets for k in (1, 2)], n + 2)
    fv = f_vector(delta)
    want = [a + 2 * b for a, b in zip(fv + [0], [0] + fv)]
    return _check(out, want, -reduced_euler(fv), what="suspension")


def join(delta, gamma):
    """The join, with gamma's vertices shifted past delta's."""
    n = delta.n_vertices
    out = from_facets([f + tuple(v + n for v in g) for f in delta.facets for g in gamma.facets],
                      n + gamma.n_vertices)
    fa, fb = f_vector(delta), f_vector(gamma)
    want = [sum(fa[i] * fb[k - i] for i in range(len(fa)) if 0 <= k - i < len(fb))
            for k in range(len(fa) + len(fb) - 1)]
    return _check(out, want, -reduced_euler(fa) * reduced_euler(fb), what="join")


def identify_vertices(delta, a, b):
    """Glue vertex b onto vertex a; a and b must have no common neighbour.

    Without a common neighbour no two faces merge, so only f_0 drops
    by one; the precondition is checked.
    """
    def nbrs(v):
        return {w for f in delta.facets if v in f for w in f} - {v}
    if b in nbrs(a) or nbrs(a) & nbrs(b):
        raise GeneratorError(f"vertices {a} and {b} are too close to identify cleanly")
    out = from_facets([[a if v == b else v for v in f] for f in delta.facets], delta.n_vertices)
    fv = f_vector(delta)
    return _check(out, [fv[0], fv[1] - 1] + fv[2:], what="identify")


def add_dangling_edge(delta, v):
    """Attach a new vertex n_vertices + 1 to v by one edge."""
    w = delta.n_vertices + 1
    out = from_facets(list(delta.facets) + [(v, w)], w)
    fv = f_vector(delta)
    return _check(out, [fv[0], fv[1] + 1, fv[2] + 1] + fv[3:], what="dangling edge")


def random_pure(rng, n_vertices, dim, n_facets):
    """A random pure complex: n_facets distinct (dim+1)-subsets of 1..n_vertices."""
    pool = list(combinations(range(1, n_vertices + 1), dim + 1))
    facets = rng.sample(pool, n_facets)
    out = from_facets(facets, n_vertices)
    if len(out.facets) != n_facets or not out.is_pure():
        raise GeneratorError("random pure complex lost facets")
    return out


CSASZAR_TORUS = [(1, 2, 4), (1, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 6), (3, 5, 6),
                 (4, 5, 7), (4, 6, 7), (1, 5, 6), (1, 5, 7), (2, 6, 7), (1, 2, 6),
                 (1, 3, 7), (2, 3, 7)]
RP2_6 = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
         (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]


def torus():
    return _check(from_facets(CSASZAR_TORUS), [1, 7, 21, 14], -1, what="torus")


def rp2():
    return _check(from_facets(RP2_6), [1, 6, 15, 10], 0, what="rp2")
