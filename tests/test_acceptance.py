"""The acceptance gate.

One test per criterion, in order.  Every comparison is exact integer or
exact field arithmetic; there are no numeric tolerances anywhere.  Each
test carries a wall-clock budget and prints its elapsed time, so a run
with -v gives one pass/fail line per criterion.
"""

import time
from functools import lru_cache
from itertools import combinations

from qgor import (
    a_invariant,
    GF2,
    GF3,
    QQ,
    CollapseTrace,
    FacetPartition,
    Failure,
    cm_linkage_check,
    collapse_onto,
    connectivity_report,
    depth_report,
    faces_avoiding,
    gamma_graph,
    is_buchsbaum,
    is_gorenstein,
    is_homology_manifold,
    is_quasi_gorenstein,
    lefschetz_report,
    link_restriction_check,
    local_cohomology_table,
    normal_pseudomanifold_report,
    reduced_betti,
    removal_experiment,
    restrict_to_facets,
    verify_trace,
)
from _oracles import cohen_macaulay_direct
from qgor.fixtures import corpus, get_fixture, oracle_betti

FIELDS = [QQ, GF2, GF3]


def _check_budget(label, started, budget):
    elapsed = time.monotonic() - started
    print(f"{label}: exact, {elapsed:.2f}s elapsed (budget {budget}s)")
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget is {budget}s"


@lru_cache(maxsize=None)
def _buchsbaum_partitions(name, max_size, field_key):
    """All (a, partition) with 1 <= |A| <= max_size, B nonempty and
    the restriction to A Buchsbaum over the given field."""
    field = {"q": QQ, "2": GF2, "3": GF3}[field_key]
    delta = get_fixture(name).complex()
    m = len(delta.facets)
    out = []
    for size in range(1, min(max_size, m - 1) + 1):
        for a in combinations(range(m), size):
            if is_buchsbaum(restrict_to_facets(delta, a), field)[0]:
                out.append((a, FacetPartition.complementary(delta, a)))
    return delta, tuple(out)


def test_criterion_01_oracle_equivalence():
    """reduced_betti agrees with the independent dense oracle everywhere."""
    t0 = time.monotonic()
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            assert reduced_betti(delta, field) == oracle_betti(delta, field), \
                (fx.name, str(field))
    _check_budget("criterion 1 (oracle equivalence)", t0, 10)


def test_criterion_02_quasi_gorenstein_characterization():
    """qG <=> normal pseudomanifold with nonzero top homology, both ways;
    the 6-vertex projective plane flips between GF(2) and Q."""
    t0 = time.monotonic()
    for fx in corpus():
        delta = fx.complex()
        npm = normal_pseudomanifold_report(delta).ok
        for field in FIELDS:
            top = oracle_betti(delta, field)[delta.dim] != 0
            assert is_quasi_gorenstein(delta, field) == (npm and top), \
                (fx.name, str(field))
    rp2 = get_fixture("rp2-6").complex()
    assert is_quasi_gorenstein(rp2, GF2)
    assert not is_quasi_gorenstein(rp2, QQ)
    assert not is_quasi_gorenstein(rp2, GF3)
    _check_budget("criterion 2 (qG characterization)", t0, 5)


def test_criterion_03_manifold_corollary():
    """On Buchsbaum corpus members: qG-not-Gorenstein <=> homology
    manifold, not a sphere, with nonzero top homology."""
    t0 = time.monotonic()
    checked = 0
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            if not is_buchsbaum(delta, field)[0]:
                continue
            checked += 1
            lhs = is_quasi_gorenstein(delta, field) and not is_gorenstein(delta, field)
            manifold, sphere = is_homology_manifold(delta, field)
            top = oracle_betti(delta, field)[delta.dim] != 0
            rhs = manifold and not sphere and top
            assert lhs == rhs, (fx.name, str(field))
    assert checked >= 20
    torus = get_fixture("csaszar-torus").complex()
    for field in FIELDS:
        assert is_quasi_gorenstein(torus, field) and not is_gorenstein(torus, field)
        assert is_homology_manifold(torus, field) == (True, False)
    _check_budget("criterion 3 (manifold corollary)", t0, 5)


def test_criterion_04_lefschetz_duality():
    """Every partition of the torus and the 2-sphere with |A| <= 3 and
    Buchsbaum restriction: zero alternating sum, neighbor bounds, and
    equal duality pairs."""
    t0 = time.monotonic()
    counts = {}
    for name in ("csaszar-torus", "boundary-3-simplex"):
        delta, pairs = _buchsbaum_partitions(name, 3, "q")
        counts[name] = len(pairs)
        for a, partition in pairs:
            for field in FIELDS:
                report = lefschetz_report(delta, partition, field)
                assert report.alternating_sum == 0, (name, a, str(field))
                assert report.neighbor_bound_ok, (name, a, str(field))
                for i, rel, a_side in report.duality_pairs:
                    assert rel == a_side, (name, a, str(field), i)
    assert counts["boundary-3-simplex"] == 14
    assert counts["csaszar-torus"] >= 42
    _check_budget("criterion 4 (Lefschetz duality)", t0, 120)


def test_criterion_05_link_restriction():
    """link_restriction_check holds across the criterion-4 enumeration."""
    t0 = time.monotonic()
    for name in ("csaszar-torus", "boundary-3-simplex"):
        delta, pairs = _buchsbaum_partitions(name, 3, "q")
        for a, partition in pairs:
            result = link_restriction_check(delta, partition, QQ)
            assert result.ok and result.hypotheses_met, (name, a)
            assert result.witnesses == []
    _check_budget("criterion 5 (link restriction)", t0, 60)


def test_criterion_06_collapse_lemma():
    """Positive path: wherever some vertex of Delta_A survives into the
    target, the collapse succeeds, replays, and lands exactly on the
    faces avoiding V(Delta_B).  Negative path: both counterexample
    pairs leave a Betti mismatch between Delta_A and that target."""
    t0 = time.monotonic()
    positives = {}
    for name in ("csaszar-torus", "boundary-3-simplex"):
        delta, pairs = _buchsbaum_partitions(name, 3, "q")
        positives[name] = 0
        for a, partition in pairs:
            delta_a = restrict_to_facets(delta, partition.a)
            forbidden = set(restrict_to_facets(delta, partition.b).vertices())
            result = collapse_onto(delta_a, forbidden)
            if set(delta_a.vertices()) <= forbidden:
                # the target is the empty complex; no collapse can get there
                assert isinstance(result, Failure), (name, a)
                continue
            positives[name] += 1
            assert isinstance(result, CollapseTrace), (name, a)
            assert verify_trace(result, QQ), (name, a)
            assert result.end == faces_avoiding(delta_a, forbidden), (name, a)
    # on the 2-sphere exactly the four vertex stars admit the collapse;
    # on the torus every vertex lies in facets on both sides, always
    assert positives["boundary-3-simplex"] == 4
    assert positives["csaszar-torus"] == 0

    for amb_name, a_name, expect_degree in (
        ("paper-cex1", "paper-cex1-A", 0),
        ("paper-cex2", "paper-cex2-A", -1),
    ):
        ambient = get_fixture(amb_name).complex()
        delta_a = get_fixture(a_name).complex()
        a_facets = set(delta_a.facets)
        b = [i for i, f in enumerate(ambient.facets) if f not in a_facets]
        forbidden = set(restrict_to_facets(ambient, b).vertices())
        target = faces_avoiding(delta_a, forbidden)
        left = reduced_betti(delta_a, QQ)
        right = reduced_betti(target, QQ)
        assert left[expect_degree] != right[expect_degree], amb_name
        assert isinstance(collapse_onto(delta_a, forbidden), Failure), amb_name
    cex1 = get_fixture("paper-cex1-A").complex()
    assert reduced_betti(cex1, QQ)[0] == 0
    assert reduced_betti(faces_avoiding(cex1, {1, 2, 5}), QQ)[0] == 1
    _check_budget("criterion 6 (collapse lemma)", t0, 60)


def test_criterion_07_gamma_graphs():
    """Gamma_1 is 2-connected on every qG member; removal keeps the
    graph connected for every Gamma_2-edgeless B; Gamma_s <= Gamma_t."""
    t0 = time.monotonic()
    for fx in corpus():
        delta = fx.complex()
        if any(is_quasi_gorenstein(delta, field) for field in FIELDS) \
                and len(delta.facets) > 2:
            conn = connectivity_report(gamma_graph(delta, 1))
            assert conn.components == 1 and conn.two_connected, fx.name

        d = delta.dim
        edges = {t: gamma_graph(delta, t).edges for t in range(0, d + 2)}
        for s in range(0, d + 2):
            for t in range(s, d + 2):
                assert edges[s] <= edges[t], (fx.name, s, t)

        m = len(delta.facets)
        t2 = min(2, d + 1)
        gamma2 = edges[t2]
        valid = 0
        for size in range(1, m):
            for b in combinations(range(m), size):
                if any((b[i], b[j]) in gamma2
                       for i in range(len(b)) for j in range(i + 1, len(b))):
                    continue
                valid += 1
                assert removal_experiment(delta, b), (fx.name, b)
        if m > 1:
            assert valid >= m - 1, fx.name
    torus = get_fixture("csaszar-torus").complex()
    gamma2 = gamma_graph(torus, 2).edges
    edgeless = [b for size in (1, 2, 3) for b in combinations(range(14), size)
                if not any((b[i], b[j]) in gamma2
                           for i in range(len(b)) for j in range(i + 1, len(b)))]
    assert len(edgeless) == 21
    _check_budget("criterion 7 (Gamma graphs)", t0, 120)


def test_criterion_08_hochster_consistency():
    """Depth-from-table CM verdict equals the direct criterion; the
    a-invariant is nonpositive, zero exactly on nonzero top homology,
    and -n on the full simplices."""
    t0 = time.monotonic()
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            rep = depth_report(delta, field)
            assert rep.is_cohen_macaulay == cohen_macaulay_direct(delta, field), \
                (fx.name, str(field))
            table = local_cohomology_table(delta, field)
            top_degrees = [j for i, j, dim in table.totals() if dim and i == table.d]
            assert top_degrees, (fx.name, str(field))
            a = max(top_degrees)
            assert a == a_invariant(delta, field)
            assert a <= 0, (fx.name, str(field))
            top = oracle_betti(delta, field)[delta.dim] != 0
            assert (a == 0) == top, (fx.name, str(field))
    for name, n in (("full-simplex-1", 1), ("full-simplex-3", 3)):
        delta = get_fixture(name).complex()
        for field in FIELDS:
            assert a_invariant(delta, field) == -n
    _check_budget("criterion 8 (Hochster consistency)", t0, 10)


def test_criterion_09_poincare_degree_zero():
    """Degree-0 Poincare pairing on the qG Buchsbaum fixtures:
    total(d - i, 0) == total(i + 1, 0) for 1 <= i <= d - 2."""
    t0 = time.monotonic()
    seen = set()
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            if not (is_quasi_gorenstein(delta, field) and is_buchsbaum(delta, field)[0]):
                continue
            seen.add(fx.name)
            table = local_cohomology_table(delta, field)
            d = table.d
            total = {(i, j): v for i, j, v in table.totals()}
            for i in range(1, d - 1):
                assert total.get((d - i, 0), 0) == total.get((i + 1, 0), 0), \
                    (fx.name, str(field), i)
    assert {"csaszar-torus", "boundary-4-simplex", "boundary-3-simplex"} <= seen
    _check_budget("criterion 9 (Poincare degree 0)", t0, 5)


def _qg_enumeration(field):
    field_key = field.spec_string()
    for fx in corpus():
        delta = fx.complex()
        if not is_quasi_gorenstein(delta, field):
            continue
        if delta.dim < 1 or len(delta.facets) < 2:
            continue
        _, pairs = _buchsbaum_partitions(fx.name, delta.dim, field_key)
        yield fx.name, delta, pairs


def test_criterion_10_b_side_connectivity():
    """qG ambient, Buchsbaum A, |A| <= dim: the B side is connected."""
    t0 = time.monotonic()
    checked = 0
    for name, delta, pairs in _qg_enumeration(QQ):
        for a, partition in pairs:
            delta_b = restrict_to_facets(delta, partition.b)
            assert reduced_betti(delta_b, QQ)[0] == 0, (name, a)
            checked += 1
    for name, delta, pairs in _qg_enumeration(GF2):
        if name != "rp2-6":
            continue
        for a, partition in pairs:
            delta_b = restrict_to_facets(delta, partition.b)
            assert reduced_betti(delta_b, GF2)[0] == 0, (name, a)
            checked += 1
    assert checked >= 100
    _check_budget("criterion 10 (B-side connectivity)", t0, 60)


def test_criterion_11_cm_linkage():
    """Same enumeration restricted to CM restrictions: the multigraded
    tables of Delta and Delta_B agree below the Krull dimension."""
    t0 = time.monotonic()
    torus_cm = 0
    for name, delta, pairs in _qg_enumeration(QQ):
        for a, partition in pairs:
            if not cohen_macaulay_direct(restrict_to_facets(delta, a), QQ):
                continue
            if name == "csaszar-torus":
                torus_cm += 1
            result = cm_linkage_check(delta, partition, QQ)
            assert result.ok and result.hypotheses_met, (name, a)
            assert result.witness is None, (name, a)
    # 14 single facets plus the 21 ridge-sharing pairs
    assert torus_cm == 35
    _check_budget("criterion 11 (CM linkage)", t0, 60)
