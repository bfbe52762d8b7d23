"""The qgor command line: parsing, payloads, exit codes, schemas."""

import json
import pathlib
import random
import time

import jsonschema
import pytest
from _perfbench import gen

from qgor import cli, simplicial_core
from qgor.cli import main, parse_facet_file
from qgor.errors import CapacityExceeded, ParseError
from qgor.fixtures import corpus, get_fixture
from qgor.homology import GF2, reduced_betti, relative_betti
from qgor.simplicial_core import from_facets, restrict_to_facets

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas"
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _fixture_path(name):
    return str(FIXTURE_DIR / f"{name}.cplx")


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_parse_facet_file_plain():
    delta = parse_facet_file("1 2 3\n2 3 4\n")
    assert delta.facets == ((1, 2, 3), (2, 3, 4))
    assert delta.n_vertices == 4


def test_parse_facet_file_header_and_comments():
    text = "# a sphere\nn=5\n\n1 2\n2 3\n# middle comment\n1 3\n"
    delta = parse_facet_file(text)
    assert delta.n_vertices == 5
    assert delta.facets == ((1, 2), (1, 3), (2, 3))


def test_parse_facet_file_errors():
    with pytest.raises(ParseError) as exc:
        parse_facet_file("1 0 2\n")
    assert exc.value.line_number == 1
    assert "positive" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_facet_file("1 2\n1 x\n")
    assert exc.value.line_number == 2
    assert "not an integer" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_facet_file("# nothing\n# here\n")
    assert "no facets" in str(exc.value)

    with pytest.raises(ParseError):
        parse_facet_file("")

    with pytest.raises(ParseError) as exc:
        parse_facet_file("n=2\n1 3\n")
    assert "n=2" in str(exc.value) and "3" in str(exc.value)

    with pytest.raises(ParseError):
        parse_facet_file("n=zero\n1 2\n")
    with pytest.raises(ParseError):
        parse_facet_file("n=0\n1\n")


def test_parse_facet_file_header_must_come_first():
    # once a facet or a header has been seen, "n=5" is read as a facet line
    for text in ("1 2\nn=5\n", "n=3\nn=5\n1 2\n"):
        with pytest.raises(ParseError) as exc:
            parse_facet_file(text)
        assert exc.value.line_number == 2
        assert "not an integer" in str(exc.value)


def test_integers_are_ascii_decimal_digits():
    # int() also reads digit-group underscores, a leading '+' and non-ASCII
    # digits, which would turn malformed tokens into other vertices
    for text, line in (("1_0 2\n", 1), ("1 2\n+1 3\n", 2), ("1 \u0663\n", 1),
                       ("n=1_2\n1 2\n", 1), ("n=+3\n1 2\n", 1), ("n=\u0663\n1 2\n", 1),
                       ("# c\nn=3\n1 2\n2 \u00b2\n", 4)):
        with pytest.raises(ParseError) as exc:
            parse_facet_file(text)
        assert exc.value.line_number == line, text
        assert ("bad header" if "n=" in text.splitlines()[line - 1]
                else "not an integer") in str(exc.value), text
    # a negative id keeps its own message, and plain digits still parse
    with pytest.raises(ParseError) as exc:
        parse_facet_file("1 -2\n")
    assert "vertex ids are positive, got -2" in str(exc.value)
    assert parse_facet_file("n=12\n10 2\n").facets == ((2, 10),)


def test_cli_integer_options_are_ascii_decimal_digits(capsys):
    path = _fixture_path("csaszar-torus")
    for argv in (("liaison", path, "--facets-a", "1_0"), ("liaison", path, "--facets-a", "+1"),
                 ("graph", path, "--remove", "\u0661"), ("collapse", path, "--forbid", "1,2_0"),
                 ("graph", path, "--t", "1_0"), ("graph", path, "--t", "+1"),
                 ("graph", path, "--t", "\u0661")):
        code, _, err = _run(capsys, *argv)
        assert code == 1 and "not an integer" in err, argv
    code, _, err = _run(capsys, "collapse", path, "--forbid", "-1")
    assert code == 1 and "vertex ids are positive, got -1" in err
    assert _run_json(capsys, "graph", path, "--t", "1", "--json")["t"] == 1


def test_parse_facet_file_refuses_a_vertex_above_the_header_on_its_line():
    # the header is on line 3 and the offending facet on line 5
    with pytest.raises(ParseError) as exc:
        parse_facet_file("# c\n# d\nn=2\n1 2\n1 3\n")
    assert exc.value.line_number == 5
    assert str(exc.value) == "line 5: header n=2 but vertex 3 appears"
    # the first offending line is reported, before a later malformed one
    with pytest.raises(ParseError) as exc:
        parse_facet_file("n=2\n1 3\n1 x\n")
    assert exc.value.line_number == 2


def test_cli_classify_json(capsys):
    payload = _run_json(capsys, "classify", _fixture_path("boundary-3-simplex"),
                        "--field", "2", "--json")
    assert payload["quasi_gorenstein"] is True
    assert payload["gorenstein"] is True
    assert payload["homology_sphere"] is True
    assert payload["facets"] == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_cli_classify_text(capsys):
    code, out, _ = _run(capsys, "classify", _fixture_path("paper-moebius"))
    assert code == 0
    assert "orientable: no" in out
    assert "witness" in out


def test_cli_list_facets(capsys):
    payload = _run_json(capsys, "classify", _fixture_path("csaszar-torus"),
                        "--list-facets", "--json")
    assert payload["facets"]["1"] == [1, 2, 4]
    assert len(payload["facets"]) == 14
    code, out, _ = _run(capsys, "classify", _fixture_path("csaszar-torus"), "--list-facets")
    assert code == 0
    assert out.splitlines()[0] == "1: {1,2,4}"


def test_cli_homology(capsys):
    payload = _run_json(capsys, "homology", _fixture_path("rp2-6"),
                        "--field", "2", "--json")
    assert payload["betti"] == {"0": 0, "1": 1, "2": 1}
    assert payload["euler"] == 0
    code, out, _ = _run(capsys, "homology", _fixture_path("rp2-6"))
    assert code == 0
    assert "all reduced Betti numbers vanish" in out


def test_cli_hochster(capsys):
    payload = _run_json(capsys, "hochster", _fixture_path("two-points"), "--json")
    assert payload["depth"] == 1
    assert payload["cohen_macaulay"] is True
    assert payload["a_invariant"] == 0
    assert payload["table"]["d"] == 1
    assert {"i": 1, "sigma": [], "dim": 1} in payload["table"]["entries"]


def test_cli_liaison(capsys):
    payload = _run_json(capsys, "liaison", _fixture_path("csaszar-torus"),
                        "--facets-a", "1", "--json")
    assert payload["alternating_sum"] == 0
    assert payload["hypotheses"] == {"quasi_gorenstein": True, "buchsbaum_A": True}
    assert payload["duality_ok"] is True
    assert payload["tconn"]["ok"] is True
    code, out, _ = _run(capsys, "liaison", _fixture_path("csaszar-torus"), "--facets-a", "1")
    assert code == 0
    assert "alternating_sum: 0" in out
    assert "tconn: yes" in out


def test_cli_collapse_success(capsys):
    payload = _run_json(capsys, "collapse", _fixture_path("full-simplex-3"),
                        "--forbid", "1", "--json")
    assert payload["outcome"] == "success"
    assert payload["verified"] is True
    assert payload["end"] == [[2, 3]]
    code, out, _ = _run(capsys, "collapse", _fixture_path("full-simplex-3"), "--forbid", "1")
    assert code == 0
    assert out.splitlines()[0] == "SUCCESS"


def test_cli_collapse_failure(capsys):
    code, out, _ = _run(capsys, "collapse", _fixture_path("paper-cex1-A"),
                        "--forbid", "1,2,5")
    assert code == 0
    assert out.splitlines()[0] == "FAILURE"
    assert "reason:" in out
    payload = _run_json(capsys, "collapse", _fixture_path("paper-cex1-A"),
                        "--forbid", "1,2,5", "--json")
    assert payload["outcome"] == "failure"
    assert "end" not in payload


def test_cli_graph(tmp_path, capsys):
    payload = _run_json(capsys, "graph", _fixture_path("boundary-3-simplex"), "--json")
    assert payload["t"] == 1
    assert payload["connectivity"]["two_connected"] is True
    for i, nbrs in payload["adjacency"].items():
        for j in nbrs:
            assert int(i) in payload["adjacency"][str(j)]

    code, out, _ = _run(capsys, "graph", _fixture_path("boundary-3-simplex"), "--dot")
    assert code == 0
    assert out.startswith("graph gamma_1 {")

    payload = _run_json(capsys, "graph", _fixture_path("boundary-3-simplex"),
                        "--remove", "1", "--json")
    assert payload["removal"] == {"b": [1], "connected": True, "gamma2_edge": None}

    payload = _run_json(capsys, "graph", _fixture_path("csaszar-torus"),
                        "--remove", "1,2", "--json")
    assert payload["removal"]["connected"] is None
    assert payload["removal"]["gamma2_edge"] == [1, 2]

    # a strip of three triangles: Gamma_1 is the path 1 - 2 - 3
    strip = tmp_path / "strip.cplx"
    strip.write_text("1 2 3\n2 3 4\n3 4 5\n")
    code, out, _ = _run(capsys, "graph", str(strip))
    assert code == 0
    assert "articulation_points: [2]" in out.splitlines()


def test_cli_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cplx"
    bad.write_text("1 x\n")
    cases = [
        ("classify", str(tmp_path / "missing.cplx")),
        ("classify", str(bad)),
        ("classify", _fixture_path("four-cycle"), "--field", "x"),
        ("classify", _fixture_path("four-cycle"), "--field", "4"),
        ("liaison", _fixture_path("full-simplex-3"), "--facets-a", "1"),
        ("liaison", _fixture_path("four-cycle"), "--facets-a", "9"),
        ("liaison", _fixture_path("four-cycle"), "--facets-a", "1,x"),
        ("graph", _fixture_path("four-cycle"), "--t", "5"),
        ("frobnicate", _fixture_path("four-cycle")),
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv
    # asking for help is not an error
    code, out, _ = _run(capsys, "--help")
    assert code == 0 and out.startswith("usage:")


def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.cplx"
    path.write_bytes(b"\xff\xfe1\x00 \x002\x00\n\x00")
    code, out, err = _run(capsys, "homology", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"qgor: error: {path}: ") and "utf-8" in err
    assert err.count("\n") == 1


def test_cli_handlers_return_payload_and_lines_and_print_nothing(capsys):
    path = _fixture_path("csaszar-torus")
    runs = [["classify"], ["classify", "--list-facets"], ["homology"], ["hochster"],
            ["liaison", "--facets-a", "1,2"], ["graph", "--remove", "1"], ["graph", "--dot"],
            ["collapse", "--forbid", "1"]]
    delta = parse_facet_file(pathlib.Path(path).read_text())
    for command, *options in runs:
        args = cli._build_parser().parse_args([command, path, *options])
        payload, lines = args.run(delta, args)
        assert capsys.readouterr().out == "", command
        assert lines and all(isinstance(line, str) for line in lines), command
        # main prints the lines, or the payload under --json; DOT has no payload
        assert _run(capsys, command, path, *options)[1] == "\n".join(lines) + "\n"
        if payload is None:
            assert options == ["--dot"]
            assert _run(capsys, command, path, *options, "--json")[1].startswith("graph ")
        else:
            assert _run_json(capsys, command, path, *options, "--json") == payload


def test_cli_large_prime_field(capsys):
    code, out, err = _run(capsys, "homology", _fixture_path("csaszar-torus"),
                          "--field", "1152921504606846883", "--json")
    assert code == 0, err
    assert json.loads(out)["betti"] == {"0": 0, "1": 2, "2": 1}
    code, _, err = _run(capsys, "homology", _fixture_path("csaszar-torus"),
                        "--field", str(2 ** 89 - 1))
    assert code == 1 and "below" in err


def test_cli_id_lists(capsys):
    # facet indices: refused when empty, 1-based in and out; vertex
    # lists may be empty
    code, _, err = _run(capsys, "liaison", _fixture_path("four-cycle"), "--facets-a", ",")
    assert code == 1 and "empty index list" in err
    code, _, err = _run(capsys, "graph", _fixture_path("four-cycle"), "--remove", "")
    assert code == 1 and "empty index list" in err
    payload = _run_json(capsys, "graph", _fixture_path("csaszar-torus"),
                        "--remove", "3,1,3", "--json")
    assert payload["removal"]["b"] == [1, 3]
    payload = _run_json(capsys, "collapse", _fixture_path("four-cycle"), "--forbid", "", "--json")
    assert payload["outcome"] == "success" and payload["steps"] == []
    code, _, err = _run(capsys, "collapse", _fixture_path("four-cycle"), "--forbid", "0")
    assert code == 1 and "vertex ids are positive" in err


def test_cli_exit_two_on_capacity(tmp_path, capsys):
    wide = tmp_path / "wide.cplx"
    wide.write_text(" ".join(str(v) for v in range(1, 26)) + "\n")
    for command in ("hochster", "classify", "homology"):
        code, _, err = _run(capsys, command, str(wide))
        assert code == 2, command
        assert "capacity" in err


def _three_wide_facets(n):
    """Facets X+Y, Y+Z, Z+X on blocks of n/2 vertices: pairwise overlapping
    with no common vertex, so no cone, and their nerve is a triangle."""
    x, y, z = (list(range(b, b + n // 2)) for b in (1, 1 + n // 2, 1 + n))
    return [x + y, y + z, z + x]


def _write(path, facets):
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    return str(path)


def test_cli_refuses_a_wide_span_before_building_faces(tmp_path, capsys):
    # Three 24-vertex facets: each alone spans exactly the cap, all three
    # span 3 * 2^24.  Homology reads the nerve, a triangle; every other
    # subcommand builds faces, so it refuses before building any.
    facets = _three_wide_facets(24)
    wide = _write(tmp_path / "wide-span.cplx", facets)
    for argv in (("homology", "--json"), ("hochster",), ("classify",),
                 ("liaison", "--facets-a", "1"), ("collapse", "--forbid", "1")):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv[0], wide, *argv[1:])
        assert time.perf_counter() - start < 1, argv
        if argv[0] == "homology":
            betti = json.loads(out)["betti"]
            assert code == 0 and betti == {str(j): int(j == 1) for j in range(24)}, err
        else:
            assert (code, out) == (2, ""), argv
            assert "capacity" in err, argv
    delta = from_facets(facets)
    with pytest.raises(CapacityExceeded):
        relative_betti(delta, restrict_to_facets(delta, [0]), GF2)


def test_cli_answers_three_wide_facets_by_their_nerve(tmp_path, capsys):
    # up to n = 22 the span screen admits these facets, and eliminating
    # them would build millions of faces; n = 24 is past the span screen
    for n in range(14, 25, 2):
        facets = _three_wide_facets(n)
        start = time.perf_counter()
        betti = reduced_betti(from_facets(facets), GF2)
        payload = _run_json(capsys, "homology", _write(tmp_path / f"wide-{n}.cplx", facets),
                            "--json")
        assert time.perf_counter() - start < 1, n
        assert betti.nonzero() == {1: 1}, n
        assert payload["betti"] == {str(j): int(j == 1) for j in range(n)}, n


def test_cli_exit_two_on_work_past_the_cap(tmp_path, monkeypatch, capsys):
    # The Fano plane spans 56 faces, and its cells record 21 + 42 + 7 = 70
    # boundary ids; 3,000 random tetrahedra span 48,000 faces, and their
    # elimination passes 48,000 touched entries.  Neither has a smaller
    # nerve.  Each cap admits the span and refuses the work.
    fano = [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [5, 6, 1], [6, 7, 2], [7, 1, 3]]
    tetrahedra = gen.random_pure(random.Random(1), 30, 3, 3000).facets
    for facets, cap, message in (
            (fano, 64, "cells need 70 boundary ids, cap is 64"),
            (tetrahedra, 48000, "elimination touched 48174 entries, cap is 48000")):
        monkeypatch.setattr(simplicial_core, "FACE_CAP", cap)
        code, out, err = _run(capsys, "homology", _write(tmp_path / "work.cplx", facets))
        assert (code, out) == (2, "")
        assert err.startswith(f"qgor: capacity: {message}")


def test_cli_payloads_validate_against_schemas(capsys):
    schemas = {name: _schema(name)
               for name in ("classify", "homology", "hochster", "liaison",
                            "graph", "collapse")}
    for fx in corpus():
        path = _fixture_path(fx.name)
        runs = [
            ("classify", ["classify", path, "--json"]),
            ("homology", ["homology", path, "--field", "2", "--json"]),
            ("hochster", ["hochster", path, "--field", "3", "--json"]),
            ("graph", ["graph", path, "--json"]),
            ("collapse", ["collapse", path, "--forbid", "1", "--json"]),
        ]
        if len(fx.complex().facets) > 1:
            runs.append(("liaison", ["liaison", path, "--facets-a", "1", "--json"]))
        for name, argv in runs:
            code, out, err = _run(capsys, *argv)
            assert code == 0, (fx.name, argv, err)
            jsonschema.validate(json.loads(out), schemas[name])


def test_cli_classify_facets_round_trip(capsys):
    for fx in corpus():
        payload = _run_json(capsys, "classify", _fixture_path(fx.name), "--json")
        rebuilt = from_facets(payload["facets"], fx.n_vertices)
        assert rebuilt == fx.complex()
