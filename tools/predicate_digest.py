"""Print digests of every predicate's answers on seeded complexes.

For each complex and each of Q, GF(2) and GF(3) it records the Hochster
table JSON, the depth report (depth, verdict, witness), the a-invariant,
Buchsbaum with its witness, (S_1), (S_2), (S_3), the manifold flags,
orientability and the classification report JSON; an exception counts as
an answer (its type and message).  The complexes are the families of
tests/_perfbench.py (the fixture corpus and seeded constructions from
perfbench/gen.py), then seeded random complexes, pure and not, up to
COUNT.  A second line digests the four liaison reports (the Lefschetz
report, link restriction and CM linkage as JSON, tconn as its verdict or
its exception) on seeded complementary facet partitions of the pure
complexes among them, over the same three fields; these read Delta,
Delta_A and Delta_B through one shared memo.  A third line digests the
predicates that take no field on every complex: the normal-pseudomanifold
report (its flags and witnesses), is_pseudomanifold and
is_strongly_connected, exceptions again counting as answers.  A fourth
line digests the facet graphs of every pure complex among them: for each
t in 0..dim+1, Gamma_t as JSON and its connectivity report as JSON.  A
fifth line digests removal_experiment, exceptions counting as answers, on
every pure complex among them, for three facet sets each: the greedy
vertex-disjoint set that the partition-sweep benchmark draws (facets in
seeded random order, each kept when it shares no vertex with those kept,
at most eight) and two seeded random facet sets.  A sixth line digests
the collapses of every complex away from two seeded sets of its
vertices: free_faces, each outcome of collapse_onto as JSON, the replay
of its trace (a stuck run's partial trace) by verify_trace over the same
three fields, and the replay over Q of two forged copies of the trace,
one with a seeded step dropped and one with it repeated; exceptions
again count as answers.  Two checkouts whose predicates agree print the
same lines, so a refactor can be checked with a plain diff:

    python3 tools/predicate_digest.py
    python3 tools/predicate_digest.py --root ../other-checkout

qgor is imported from <root>/src (default root: the checkout this script
lives in); the families and generators always come from this checkout.
"""

import argparse
import hashlib
import json
import os
import random
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, COUNT = 14, 1000


def complexes(qgor, perfbench):
    """The families, then seeded random complexes up to COUNT."""
    rng = random.Random(SEED)
    out = perfbench.families(rng)
    while len(out) < COUNT:
        n = rng.randint(2, 8)
        if rng.random() < 0.5:
            dim = rng.randint(0, min(3, n - 1))
            m = rng.randint(1, min(12, len(list(combinations(range(n), dim + 1)))))
            out.append(perfbench.gen.random_pure(rng, n, dim, m))
        else:
            out.append(qgor.from_facets(
                [rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
                 for _ in range(rng.randint(1, 9))], n))
    return out


def _answer(call):
    try:
        return call()
    except Exception as exc:  # an exception is the answer being compared
        return [type(exc).__name__, str(exc)]


def answers(qgor, delta, field):
    depth = _answer(lambda: qgor.depth_report(delta, field))
    return {
        "table": _answer(lambda: qgor.local_cohomology_table(delta, field).to_json()),
        "depth": depth if isinstance(depth, list)
        else [depth.depth, depth.is_cohen_macaulay, depth.witness],
        "a": _answer(lambda: qgor.a_invariant(delta, field)),
        "buchsbaum": _answer(lambda: qgor.is_buchsbaum(delta, field)),
        "serre": [_answer(lambda: qgor.serre_condition(delta, field, ell)) for ell in (1, 2, 3)],
        "manifold": _answer(lambda: qgor.is_homology_manifold(delta, field)),
        "orientable": _answer(lambda: qgor.is_orientable(delta)),
        "report": _answer(lambda: qgor.classification_report(delta, field).to_json()),
    }


def field_free_answers(qgor, delta):
    def normal():
        r = qgor.normal_pseudomanifold_report(delta)
        return [r.ok, r.pure, r.normal, r.ridge_condition, r.witnesses]

    return {
        "normal_pseudomanifold": _answer(normal),
        "pseudomanifold": _answer(lambda: qgor.is_pseudomanifold(delta)),
        "strongly_connected": _answer(lambda: qgor.is_strongly_connected(delta)),
    }


def partitions(qgor, cases):
    """(delta, partition) for up to two seeded complementary partitions of
    each pure complex with at least two facets: A is a random set of k
    facets for two distinct sizes k drawn from 1..m-1."""
    rng = random.Random(SEED)
    out = []
    for delta in cases:
        m = len(delta.facets)
        if m < 2 or not delta.is_pure():
            continue
        for k in rng.sample(range(1, m), min(2, m - 1)):
            out.append((delta, qgor.FacetPartition.complementary(delta, rng.sample(range(m), k))))
    return out


def liaison_answers(qgor, delta, partition, field):
    return {
        "lefschetz": _answer(lambda: qgor.lefschetz_report(delta, partition, field).to_json()),
        "link_restriction": _answer(
            lambda: qgor.link_restriction_check(delta, partition, field).to_json()),
        "cm_linkage": _answer(lambda: qgor.cm_linkage_check(delta, partition, field).to_json()),
        "tconn": _answer(lambda: qgor.tconn_check(delta, partition, field)),
    }


def gamma_answers(qgor, delta, t):
    def graph():
        g = qgor.gamma_graph(delta, t)
        return [g.to_json(), qgor.connectivity_report(g).to_json()]

    return _answer(graph)


def removal_sets(rng, delta):
    """The benchmark's greedy vertex-disjoint facet set, then two random ones."""
    m = len(delta.facets)
    order = list(range(m))
    rng.shuffle(order)
    greedy, used = [], set()
    for i in order:
        if len(greedy) < 8 and not used & set(delta.facets[i]):
            greedy.append(i)
            used |= set(delta.facets[i])
    return [greedy] + [rng.sample(range(m), rng.randint(1, m)) for _ in range(2)]


def collapse_answers(qgor, rng, delta):
    """free_faces, then per seeded forbidden set the collapse outcome, its
    trace replayed over three fields and two forged replays."""
    out = [_answer(lambda: qgor.free_faces(delta))]
    verts = delta.vertices()
    for forbidden in [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(2)]:
        result = _answer(lambda: qgor.collapse_onto(delta, forbidden))
        if isinstance(result, list):
            out.append([sorted(forbidden), result])
            continue
        trace = getattr(result, "partial_trace", result)
        steps = list(trace.steps)
        forged = []
        if steps:
            k = rng.randrange(len(steps))
            forged = [_answer(lambda: qgor.verify_trace(
                qgor.CollapseTrace(trace.start, trace.end, s), qgor.QQ))
                for s in (steps[:k] + steps[k + 1:], steps[:k + 1] + steps[k:])]
        out.append([sorted(forbidden), result.to_json(),
                    [_answer(lambda: qgor.verify_trace(trace, field))
                     for field in (qgor.QQ, qgor.GF2, qgor.GF3)], forged])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=HERE, help="checkout whose src/qgor is digested")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import qgor
    sys.path.insert(0, os.path.join(HERE, "tests"))
    import _perfbench
    digest = hashlib.sha256()
    cases = complexes(qgor, _perfbench)
    for delta in cases:
        for field in (qgor.QQ, qgor.GF2, qgor.GF3):
            record = [delta.n_vertices, delta.facets, str(field), answers(qgor, delta, field)]
            digest.update(json.dumps(record, sort_keys=True, default=list).encode() + b"\n")
    print(f"{len(cases)} complexes x 3 fields: sha256 {digest.hexdigest()}")
    digest = hashlib.sha256()
    pairs = partitions(qgor, cases)
    for delta, partition in pairs:
        for field in (qgor.QQ, qgor.GF2, qgor.GF3):
            record = [delta.n_vertices, delta.facets, sorted(partition.a), str(field),
                      liaison_answers(qgor, delta, partition, field)]
            digest.update(json.dumps(record, sort_keys=True, default=list).encode() + b"\n")
    print(f"{len(pairs)} partitions x 3 fields of liaison reports: sha256 {digest.hexdigest()}")
    digest = hashlib.sha256()
    for delta in cases:
        record = [delta.n_vertices, delta.facets, field_free_answers(qgor, delta)]
        digest.update(json.dumps(record, sort_keys=True, default=list).encode() + b"\n")
    print(f"{len(cases)} complexes of field-free predicates: sha256 {digest.hexdigest()}")
    digest = hashlib.sha256()
    graphs = 0
    for delta in (d for d in cases if d.is_pure()):
        for t in range(delta.dim + 2):
            record = [delta.n_vertices, delta.facets, t, gamma_answers(qgor, delta, t)]
            digest.update(json.dumps(record, sort_keys=True, default=list).encode() + b"\n")
            graphs += 1
    print(f"{graphs} facet graphs with connectivity reports: sha256 {digest.hexdigest()}")
    digest = hashlib.sha256()
    rng = random.Random(SEED)
    removals = 0
    for delta in (d for d in cases if d.is_pure()):
        for b in removal_sets(rng, delta):
            record = [delta.n_vertices, delta.facets, b,
                      _answer(lambda: qgor.removal_experiment(delta, b))]
            digest.update(json.dumps(record, sort_keys=True, default=list).encode() + b"\n")
            removals += 1
    print(f"{removals} removal experiments: sha256 {digest.hexdigest()}")
    digest = hashlib.sha256()
    rng = random.Random(SEED)
    for delta in cases:
        record = [delta.n_vertices, delta.facets, collapse_answers(qgor, rng, delta)]
        digest.update(json.dumps(record, sort_keys=True, default=list).encode() + b"\n")
    print(f"{len(cases)} complexes x 2 forbidden sets of collapses: sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
