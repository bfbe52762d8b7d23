"""Corpus integrity: frozen values, manifest, facet files, and the oracle."""

import json
import pathlib

import pytest

from qgor import FieldSpec, TooLarge, a_invariant, classification_report, depth_report, \
    from_facets, reduced_betti
from qgor.cli import parse_facet_file
from qgor.fixtures import ORACLE_FACE_LIMIT, corpus, get_fixture, oracle_betti

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(3)]
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
MANIFEST = json.loads((FIXTURE_DIR / "manifest.json").read_text())
KINDS = {"betti", "flags", "depth", "a_invariant"}

REQUIRED_NAMES = {
    "boundary-2-simplex", "boundary-3-simplex", "boundary-4-simplex",
    "four-cycle", "full-simplex-1", "full-simplex-3", "cone-four-cycle",
    "two-points", "two-triangles", "wedge-triangles", "rp2-6",
    "csaszar-torus", "paper-moebius", "paper-cex1", "paper-cex1-A",
    "paper-cex2", "paper-cex2-A",
}


def test_corpus_contents():
    names = [fx.name for fx in corpus()]
    assert len(names) == len(set(names))
    assert set(names) == REQUIRED_NAMES
    for fx in corpus():
        assert fx.provenance in ("standard", "paper")
        expected = MANIFEST[fx.name]["expected"]
        assert set(expected) == KINDS, fx.name
        for per_field in expected.values():
            assert set(per_field) == {f.spec_string() for f in FIELDS}, fx.name
    with pytest.raises(KeyError):
        get_fixture("no-such-complex")


def _frozen(fx, field):
    """The manifest's frozen values of one fixture over one field."""
    exp = {kind: per_field[field.spec_string()]
           for kind, per_field in MANIFEST[fx.name]["expected"].items()}
    exp["betti"] = {int(j): d for j, d in exp["betti"].items()}
    return exp


def test_every_fixture_is_pure_and_small():
    # the acceptance sweeps rely on this, so pin it down
    for fx in corpus():
        delta = fx.complex()
        assert delta.is_pure(), fx.name
        assert len(delta.facets) <= 14, fx.name


def test_betti_three_ways():
    # frozen value == library == oracle, per fixture and field
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            frozen = _frozen(fx, field)["betti"]
            assert reduced_betti(delta, field).nonzero() == frozen, (fx.name, str(field))
            assert oracle_betti(delta, field).nonzero() == frozen, (fx.name, str(field))


def test_flags_match_frozen():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            frozen = _frozen(fx, field)["flags"]
            report = classification_report(delta, field).to_json()
            got = {k: report[k] for k in frozen}
            assert got == frozen, (fx.name, str(field))


def test_depth_and_a_invariant_match_frozen():
    for fx in corpus():
        delta = fx.complex()
        for field in FIELDS:
            exp = _frozen(fx, field)
            assert depth_report(delta, field).depth == exp["depth"], (fx.name, str(field))
            assert a_invariant(delta, field) == exp["a_invariant"], (fx.name, str(field))


def test_manifest_agrees_with_corpus():
    assert set(MANIFEST) == REQUIRED_NAMES
    for fx in corpus():
        entry = MANIFEST[fx.name]
        assert entry["file"] == f"{fx.name}.cplx"
        assert entry["n_vertices"] == fx.n_vertices
        assert entry["provenance"] == fx.provenance
        assert entry["description"] == fx.description
        assert [tuple(f) for f in entry["facets"]] == list(fx.complex().facets)
        assert set(entry["expected_provenance"]) == KINDS


def test_facet_files_on_disk():
    for fx in corpus():
        path = FIXTURE_DIR / f"{fx.name}.cplx"
        text = path.read_text()
        assert text == fx.facet_file_text(), fx.name
        assert parse_facet_file(text) == fx.complex(), fx.name


def test_facet_file_round_trip():
    for fx in corpus():
        parsed = parse_facet_file(fx.facet_file_text())
        assert parsed == fx.complex()
        assert parsed.n_vertices == fx.n_vertices


def test_fixture_facets_are_already_maximal():
    for fx in corpus():
        assert len(fx.complex().facets) == len(fx.facets), fx.name


def test_oracle_refuses_large_input():
    wide = from_facets([list(range(1, 14))])
    with pytest.raises(TooLarge):
        oracle_betti(wide, FieldSpec.rationals())
    assert 2 ** 13 > ORACLE_FACE_LIMIT


def test_oracle_on_non_corpus_complexes():
    # a couple of complexes the freeze tool never saw
    bowtie = from_facets([[1, 2, 3], [3, 4, 5]])
    octahedron = from_facets([
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 5],
        [2, 3, 6], [2, 4, 6], [3, 5, 6], [4, 5, 6],
    ])
    for field in FIELDS:
        assert oracle_betti(bowtie, field) == reduced_betti(bowtie, field)
        assert oracle_betti(octahedron, field).nonzero() == {2: 1}
        assert reduced_betti(octahedron, field).nonzero() == {2: 1}
