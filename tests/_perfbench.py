"""The benchmark's seeded generators, loaded read-only from perfbench/gen.py.

Test modules import gen from here, so the tests and the benchmark
build their complexes with one set of checked constructions; families
is the list of those constructions that the tests and
tools/predicate_digest.py share.
"""

import importlib.util
from itertools import combinations
from pathlib import Path

from qgor.fixtures import corpus

_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def families(rng):
    """The fixture corpus, spheres, surfaces and their subdivisions, cones,
    suspensions, joins, and the subdivided torus with two vertices that lie
    in disjoint triangles of the torus identified (the pair drawn from rng)."""
    torus, rp2 = gen.torus(), gen.rp2()
    spheres = [gen.simplex_boundary(n) for n in range(2, 7)]
    spheres += [gen.cross_polytope_boundary(n) for n in range(1, 4)]
    surfaces = [torus, rp2, gen.sd(torus), gen.sd(rp2)]
    out = [fx.complex() for fx in corpus()] + spheres + surfaces
    out += [gen.cone(d) for d in spheres[:3] + surfaces]
    out += [gen.suspension(d) for d in spheres[:4] + surfaces]
    out += [gen.join(a, b) for a in spheres[:3] + surfaces[:2] for b in spheres[:2]]
    labels = gen.sd_labels(torus)
    pairs = [(labels[s], labels[t]) for s, t in combinations(torus.facets, 2)
             if not set(s) & set(t)]
    out.append(gen.identify_vertices(surfaces[2], *rng.choice(pairs)))
    return out
