"""The four workloads: their inputs, operations and answer checks.

A workload is a list of Op.  Op.run does the timed work and returns
its result; Op.check looks at that result outside the timed region
and returns None or a description of what is wrong.  Library
functions are looked up on the qgor package at call time, so the
traced run sees the wrapped versions.

The seed picks the random complexes, the star vertices, the glued
vertex pair, the dangling-edge vertex and the removal set; it never
changes a size.
"""

import glob
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb

import qgor
from qgor import GF2, QQ, FieldSpec
from qgor.fixtures import oracle_betti

import gen

GFP = FieldSpec.prime(32003)
FIELDS = (QQ, GF2, GFP)

#: Exact elimination over Q on the largest inputs takes seconds a call
#: (sd^2 torus: about 10 s), which would leave no time in a run to repeat
#: the other operations; inputs above these sizes run over fewer fields.
LADDER_Q_MAX_FACES = 800
CLASSIFY_ALL_FIELDS_MAX_FACES = 300


class Op:
    """One timed operation: what it is, how to run it, how to check it."""

    __slots__ = ("kind", "case", "field", "faces", "run", "check")

    def __init__(self, kind, case, field, faces, run, check):
        self.kind = kind
        self.case = case
        self.field = field
        self.faces = faces
        self.run = run
        self.check = check


def _n_faces(delta):
    return len(delta.faces())


def _betti_mismatch(got, want):
    got = {j: d for j, d in got.items() if d}
    want = {j: d for j, d in want.items() if d}
    return None if got == want else f"Betti numbers {got}, expected {want}"


def _kunneth(a, b):
    """Reduced Betti numbers of a join over a field: H~_{i+j+1} = sum H~_i (x) H~_j."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out


TORUS = {1: 2, 2: 1}


def _rp2(field):
    return {1: 1, 2: 1} if field.p == 2 else {}


# betti-ladder ---------------------------------------------------------------

def betti_ladder(seed, root):
    rng = random.Random(seed)
    ladder = [
        ("cross-polytope-6", gen.cross_polytope_boundary(6), lambda f: {5: 1}),
        ("simplex-9", gen.simplex(9), lambda f: {}),
        ("sd-bd-simplex-4", gen.sd(gen.simplex_boundary(5)), lambda f: {3: 1}),
        ("sd2-torus", gen.sd(gen.sd(gen.torus())), lambda f: TORUS),
        ("sd-rp2*bd-simplex-2", gen.join(gen.sd(gen.rp2()), gen.simplex_boundary(3)),
         lambda f: _kunneth(_rp2(f), {1: 1})),
    ]
    for k in range(3):
        ladder.append((f"random-3-complex-{k}", gen.random_pure(rng, 12, 3, 40), None))
    oracle = {}

    def expect(delta, field, expected):
        # the dense oracle runs at the first check, not in set-up
        if expected is not None:
            return expected(field)
        if (delta, field) not in oracle:
            oracle[delta, field] = oracle_betti(delta, field).nonzero()
        return oracle[delta, field]

    ops = []
    for case, delta, expected in ladder:
        faces = _n_faces(delta)
        for field in FIELDS if faces <= LADDER_Q_MAX_FACES else (GF2, GFP):
            ops.append(Op("reduced_betti", case, field, faces,
                          lambda d=delta, f=field: qgor.reduced_betti(d, f),
                          lambda b, d=delta, f=field, e=expected:
                          _betti_mismatch(b.nonzero(), expect(d, f, e))))
    return ops


# classify-links -------------------------------------------------------------

FLAG_NAMES = ("pure", "strongly_connected", "normal", "pseudomanifold_ridge_condition",
              "normal_pseudomanifold", "orientable", "buchsbaum", "homology_manifold",
              "homology_sphere", "cohen_macaulay", "quasi_gorenstein", "gorenstein")


def _flags(true_names):
    return {name: name in true_names for name in FLAG_NAMES}


_PM = {"pure", "strongly_connected", "normal", "pseudomanifold_ridge_condition",
       "normal_pseudomanifold"}


def _expect_classify(case, field):
    """(flags, depth, a-invariant, reduced Betti) known by construction."""
    char2 = field.p == 2
    if case == "sd-torus":
        return (_flags(_PM | {"orientable", "buchsbaum", "homology_manifold",
                              "quasi_gorenstein"}), 2, 0, TORUS)
    if case == "sd-rp2":
        if char2:
            return (_flags(_PM | {"buchsbaum", "homology_manifold", "quasi_gorenstein"}),
                    2, 0, _rp2(field))
        return _flags(_PM | {"buchsbaum", "homology_manifold", "cohen_macaulay"}), 3, -1, {}
    if case == "sd-bd-simplex-4":
        return _flags(set(FLAG_NAMES)), 4, 0, {3: 1}
    if case == "cone-sd-torus":
        return _flags({"pure", "strongly_connected", "normal"}), 3, -1, {}
    if case == "susp-sd-rp2":
        if char2:
            return _flags(_PM | {"quasi_gorenstein"}), 3, 0, {2: 1, 3: 1}
        return _flags(_PM | {"buchsbaum", "cohen_macaulay"}), 4, -1, {}
    if case == "pinched-sd-torus":
        return (_flags({"pure", "strongly_connected", "pseudomanifold_ridge_condition",
                        "orientable"}), 2, 0, {1: 3, 2: 1})
    if case == "sd-bd-simplex-3+edge":
        return _flags(set()), 2, 0, {2: 1}
    raise KeyError(case)


def _check_classify(report, want):
    flags = {name: getattr(report, name) for name in FLAG_NAMES}
    if flags != want[0]:
        diff = sorted(n for n in FLAG_NAMES if flags[n] != want[0][n])
        return f"flags differ from construction: {diff}"
    return None


def _check_hochster(result, want):
    table, depth, a, buchsbaum = result
    flags, want_depth, want_a, betti = want
    got_betti = {i - 1: table.entry(i, ()) for i in range(0, table.d + 1)}
    problems = []
    if depth.depth != want_depth:
        problems.append(f"depth {depth.depth}, expected {want_depth}")
    if depth.is_cohen_macaulay != flags["cohen_macaulay"]:
        problems.append("Cohen-Macaulay verdict")
    if a != want_a:
        problems.append(f"a-invariant {a}, expected {want_a}")
    if buchsbaum[0] != flags["buchsbaum"]:
        problems.append("Buchsbaum verdict")
    mismatch = _betti_mismatch(got_betti, betti)
    if mismatch:
        problems.append("table at the empty face: " + mismatch)
    return "; ".join(problems) or None


def _hochster_bundle(delta, field):
    return (qgor.local_cohomology_table(delta, field), qgor.depth_report(delta, field),
            qgor.a_invariant(delta, field), qgor.is_buchsbaum(delta, field))


def classify_links(seed, root):
    rng = random.Random(seed)
    torus = gen.torus()
    sd_torus = gen.sd(torus)
    sd_rp2 = gen.sd(gen.rp2())
    bd3 = gen.simplex_boundary(4)
    # Barycentres of two vertex-disjoint triangles have no common
    # neighbour in sd(torus), so gluing them pinches the torus cleanly.
    labels = gen.sd_labels(torus)
    triangles = [f for f in labels if len(f) == 3]
    pairs = [(labels[s], labels[t]) for s, t in combinations(triangles, 2) if not set(s) & set(t)]
    vertex = gen.sd_labels(bd3)[(rng.randint(1, 4),)]
    cases = [
        ("sd-torus", sd_torus),
        ("sd-rp2", sd_rp2),
        ("sd-bd-simplex-4", gen.sd(gen.simplex_boundary(5))),
        ("cone-sd-torus", gen.cone(sd_torus)),
        ("susp-sd-rp2", gen.suspension(sd_rp2)),
        ("pinched-sd-torus", gen.identify_vertices(sd_torus, *rng.choice(pairs))),
        ("sd-bd-simplex-3+edge", gen.add_dangling_edge(gen.sd(bd3), vertex)),
    ]
    ops = []
    for case, delta in cases:
        faces = _n_faces(delta)
        for field in (GF2, QQ, GFP) if faces <= CLASSIFY_ALL_FIELDS_MAX_FACES else (GF2,):
            want = _expect_classify(case, field)
            ops.append(Op("classification_report", case, field, faces,
                          lambda d=delta, f=field: qgor.classification_report(d, f),
                          lambda r, w=want: _check_classify(r, w)))
            ops.append(Op("hochster", case, field, faces,
                          lambda d=delta, f=field: _hochster_bundle(d, f),
                          lambda r, w=want: _check_hochster(r, w)))
    return ops


# partition-sweep ------------------------------------------------------------

def _liaison_bundle(delta, partition, field):
    lef = qgor.lefschetz_report(delta, partition, field)
    restriction = qgor.link_restriction_check(delta, partition, field)
    linkage = qgor.cm_linkage_check(delta, partition, field)
    try:
        tconn = qgor.tconn_check(delta, partition, field)
    except qgor.HypothesesNotMet as exc:
        tconn = exc
    return lef, restriction, linkage, tconn


def _check_liaison(result, delta, partition):
    """The paper's statements, which apply: Delta is qG and Delta_A a ball."""
    lef, restriction, linkage, tconn = result
    problems = []
    if lef.hypotheses != {"quasi_gorenstein": True, "buchsbaum_A": True}:
        problems.append(f"hypotheses {lef.hypotheses}, expected both to hold")
    if lef.alternating_sum != 0 or not lef.neighbor_bound_ok:
        problems.append("Lefschetz sequence not exact")
    if not lef.duality_ok:
        problems.append("duality pairs differ")
    if not (restriction.ok and restriction.hypotheses_met):
        problems.append("link restriction failed")
    if not (linkage.ok and linkage.hypotheses_met):
        problems.append("CM linkage failed")
    size_premise = f"|A| = {len(partition.a)} < dim Delta + 1 = {delta.dim + 1}"
    if len(partition.a) < delta.dim + 1:
        if tconn is not True:
            problems.append(f"tconn verdict {tconn!r}")
    elif not isinstance(tconn, qgor.HypothesesNotMet) or tconn.failed != [size_premise]:
        problems.append(f"tconn should refuse only the size premise, got {tconn!r}")
    return "; ".join(problems) or None


def _collapse_and_verify(delta_a, forbidden, field):
    trace = qgor.collapse_onto(delta_a, forbidden)
    verified = qgor.verify_trace(trace, field) if isinstance(trace, qgor.CollapseTrace) else None
    return trace, verified


def _check_collapse(result, delta_a, forbidden):
    trace, verified = result
    if not isinstance(trace, qgor.CollapseTrace):
        return f"collapse got stuck: {trace.reason}"
    if not verified:
        return "trace does not preserve Betti numbers"
    if trace.end != qgor.faces_avoiding(delta_a, forbidden):
        return "trace does not end at the faces avoiding the forbidden vertices"
    return None


def _gamma_and_connectivity(delta, t):
    graph = qgor.gamma_graph(delta, t)
    return graph, qgor.connectivity_report(graph)


def _gamma_edges_by_construction(delta):
    """Edge counts of Gamma_0..Gamma_3 of a closed surface, from its facets alone."""
    m = len(delta.facets)
    degree = {}
    for f in delta.facets:
        for v in f:
            degree[v] = degree.get(v, 0) + 1
    ridges = len({r for f in delta.facets for r in combinations(f, 2)})
    # a pair sharing an edge shares two vertices, so the vertex sum counts it twice
    share_vertex = sum(comb(k, 2) for k in degree.values()) - ridges
    return [0, ridges, share_vertex, comb(m, 2)]


def partition_sweep(seed, root):
    rng = random.Random(seed)
    ops = []
    # Q and GF(32003) on the surface; the 3-sphere over GF(2) only, since
    # its Q bundle alone takes about 3 s.
    for case, base, fields in (("sd-torus", gen.torus(), FIELDS),
                               ("sd-bd-simplex-4", gen.simplex_boundary(5), (GF2,))):
        delta = gen.sd(base)
        labels = gen.sd_labels(base)
        for v in sorted(rng.sample(base.vertices(), 2)):
            star = labels[(v,)]
            a = [i for i, f in enumerate(delta.facets) if star in f]
            partition = qgor.FacetPartition.complementary(delta, a)
            label = f"{case}/star-{star}"
            faces = _n_faces(delta)
            for field in fields:
                ops.append(Op("liaison", label, field, faces,
                              lambda d=delta, p=partition, f=field: _liaison_bundle(d, p, f),
                              lambda r, d=delta, p=partition: _check_liaison(r, d, p)))
            delta_a = qgor.restrict_to_facets(delta, partition.a)
            forbidden = set(qgor.restrict_to_facets(delta, partition.b).vertices())
            ops.append(Op("collapse_onto+verify_trace", label, QQ, _n_faces(delta_a),
                          lambda d=delta_a, x=forbidden: _collapse_and_verify(d, x, QQ),
                          lambda r, d=delta_a, x=forbidden: _check_collapse(r, d, x)))

    # Collapsing the cone over a disk off its apex: one step per pair of
    # nonempty link faces except the surviving vertex, plus the final
    # (apex, apex-edge) step.  The disk is sd^2 of a fan of two triangles
    # (the cone over sd of an edge), 117 steps.
    disk = gen.sd(gen.sd(gen.cone(gen.sd(gen.simplex(2)))))
    cone = gen.cone(disk)
    apex = {cone.n_vertices}
    steps = (_n_faces(disk) - 2) // 2 + 1
    shared = {}

    def collapse_cone():
        shared["trace"] = qgor.collapse_onto(cone, apex)
        return shared["trace"]

    def check_cone(trace):
        if not isinstance(trace, qgor.CollapseTrace):
            return f"cone collapse got stuck: {trace.reason}"
        if len(trace.steps) != steps:
            return f"{len(trace.steps)} steps, expected {steps}"
        if trace.end != qgor.faces_avoiding(cone, apex):
            return "cone collapse does not end at its base"
        return None

    ops.append(Op("collapse_onto", "cone-sd2-fan", None, _n_faces(cone),
                  collapse_cone, check_cone))
    ops.append(Op("verify_trace", "cone-sd2-fan", GFP, _n_faces(cone),
                  lambda: qgor.verify_trace(shared["trace"], GFP),
                  lambda ok: None if ok is True else "cone trace does not verify"))

    stuck = gen.cone(gen.sd(gen.torus()))
    ops.append(Op("collapse_onto", "cone-sd-torus", None, _n_faces(stuck),
                  lambda: qgor.collapse_onto(stuck, {stuck.n_vertices}),
                  lambda r: None if isinstance(r, qgor.Failure)
                  else "the cone over a torus cannot collapse off its apex"))

    surface = gen.sd(gen.sd(gen.torus()))
    edges = _gamma_edges_by_construction(surface)
    m = len(surface.facets)
    for t in range(surface.dim + 2):
        def check_gamma(result, t=t):
            graph, conn = result
            if len(graph.edges) != edges[t]:
                return f"Gamma_{t} has {len(graph.edges)} edges, expected {edges[t]}"
            want = (m, False) if t == 0 else (1, True)
            if (conn.components, conn.two_connected) != want:
                return f"Gamma_{t} connectivity {conn!r}, expected {want}"
            return None

        ops.append(Op(f"gamma_graph+connectivity t={t}", "sd2-torus", None, _n_faces(surface),
                      lambda t=t: _gamma_and_connectivity(surface, t), check_gamma))

    # A Gamma_2-edgeless set on a surface: facets pairwise sharing no vertex.
    order = list(range(m))
    rng.shuffle(order)
    removal, used = [], set()
    for i in order:
        if len(removal) < 8 and not used & set(surface.facets[i]):
            removal.append(i)
            used |= set(surface.facets[i])
    ops.append(Op("removal_experiment", "sd2-torus", None, _n_faces(surface),
                  lambda: qgor.removal_experiment(surface, removal),
                  lambda ok: None if ok is True else "removal disconnected Gamma_1"))
    return ops


# cli-corpus -----------------------------------------------------------------

SUBCOMMANDS = (("classify", ()), ("homology", ()), ("hochster", ()),
               ("liaison", ("--facets-a", "1")), ("graph", ()),
               ("collapse", ("--forbid", "1")))


def _schemas(root):
    import jsonschema

    out = {}
    for name, _ in SUBCOMMANDS:
        with open(os.path.join(root, "schemas", f"{name}.schema.json"), encoding="utf-8") as fh:
            schema = json.load(fh)
        out[name] = jsonschema.validators.validator_for(schema)(schema)
    return out


def _check_cli(result, command, validator, expected):
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    errors = sorted(validator.iter_errors(payload), key=str)
    if errors:
        return f"schema: {errors[0].message}"
    if command == "classify":
        got = {k: payload[k] for k in expected["flags"]}
        if got != expected["flags"]:
            return "flags differ from fixtures/manifest.json"
    elif command == "homology":
        got = {k: v for k, v in payload["betti"].items() if v}
        if got != expected["betti"]:
            return f"betti {got}, expected {expected['betti']}"
    elif command == "hochster":
        got = (payload["depth"], payload["a_invariant"], payload["cohen_macaulay"],
               payload["buchsbaum"])
        want = (expected["depth"], expected["a_invariant"],
                expected["flags"]["cohen_macaulay"], expected["flags"]["buchsbaum"])
        if got != want:
            return f"depth/a/CM/Buchsbaum {got}, expected {want}"
    return None


def run_cli(root, argv, tracer=None):
    """One child process; with a tracer, through the benchmark's shim."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    if tracer is None:
        cmd = [sys.executable, "-m", "qgor.cli", *argv]
    else:
        trace_file = os.path.join(tracer.out_dir, "cli-child-trace.json")
        cmd = [sys.executable, os.path.join(root, "perfbench", "cli_shim.py"), trace_file, *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.merge_child(trace_file, wall)
    return proc.returncode, proc.stdout, proc.stderr


def cli_corpus(seed, root):
    """Every fixture and subcommand that exits 0, over Q and GF(2),
    plus homology over GF(32003) checked against the dense oracle.
    The corpus is fixed, so the seed only shuffles the child order."""
    rng = random.Random(seed)
    with open(os.path.join(root, "fixtures", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    validators = _schemas(root)
    runs = []
    for path in sorted(glob.glob(os.path.join(root, "fixtures", "*.cplx"))):
        name = os.path.basename(path)[:-len(".cplx")]
        entry = manifest[name]
        delta = qgor.from_facets(entry["facets"], entry["n_vertices"])
        for command, extra in SUBCOMMANDS:
            if command == "liaison" and len(delta.facets) < 2:
                continue
            for field in (QQ, GF2):
                key = field.spec_string()
                expected = {kind: per_field[key] for kind, per_field in entry["expected"].items()}
                runs.append((command, extra, name, path, field, expected, delta))
        oracle = {str(j): d for j, d in oracle_betti(delta, GFP).nonzero().items()}
        runs.append(("homology", (), name, path, GFP, {"betti": oracle}, delta))
    rng.shuffle(runs)
    ops = []
    for command, extra, name, path, field, expected, delta in runs:
        argv = [command, os.path.relpath(path, root), "--field", field.spec_string(), "--json",
                *extra]
        ops.append(Op(command, name, field, _n_faces(delta),
                      lambda tracer=None, a=argv: run_cli(root, a, tracer),
                      lambda r, c=command, e=expected: _check_cli(r, c, validators[c], e)))
    return ops


WORKLOADS = {
    "betti-ladder": betti_ladder,
    "classify-links": classify_links,
    "partition-sweep": partition_sweep,
    "cli-corpus": cli_corpus,
}
