"""Command-line front end.

Facet files are plain text: one facet per line as whitespace-separated
positive integer vertex ids, and `#` starts a comment line.  A header
`n=<int>` fixes the ambient vertex count.  It comes before any facet,
it appears at most once (a later `n=` line is read as a facet line),
and a vertex above n is refused with the line number of its facet.
Every integer, in the file and in the options, is ASCII decimal digits
after an optional `-`, so `1_0`, `+1` and non-ASCII digits are refused.

Exit codes: 0 for any produced report (hypothesis failures are fields
inside the report, not process failures), 1 for I/O, decoding, parse
and usage errors, 2 when a capacity limit is hit.

Each subcommand handler imports the modules it runs, so a process that
runs one subcommand compiles and loads only those.  A handler prints
nothing: it returns its JSON payload and its text lines, and main
prints the payload under --json and the lines otherwise.  `graph --dot`
returns no payload, so it prints DOT in either mode.
"""

import argparse
import functools
import json
import sys

from .errors import (
    CapacityExceeded,
    GammaTwoNotIsolated,
    HypothesesNotMet,
    ParseError,
    QgorError,
)
from .homology import FieldSpec, reduced_betti
from .simplicial_core import from_facets


def _int(text):
    """The int that text spells in ASCII decimal digits after an optional
    leading '-', as an argparse type: anything else raises
    ArgumentTypeError, where int() also takes digit-group underscores, a
    leading '+', spaces and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def parse_facet_file(text):
    """Parse facet-file text into a canonical complex.

    Raises ParseError with a 1-based line number on malformed input,
    including files with no facet lines at all (the void complex has
    no representation in this format).
    """
    facets = []
    n_vertices = None
    line_number = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not facets and n_vertices is None and line.startswith("n="):
            try:
                n_vertices = _int(line[2:])
            except argparse.ArgumentTypeError:
                raise ParseError(line_number, f"bad header {line!r}")
            if n_vertices <= 0:
                raise ParseError(line_number, f"vertex count must be positive, got {n_vertices}")
            continue
        entries = []
        for tok in line.split():
            try:
                v = _int(tok)
            except argparse.ArgumentTypeError as exc:
                raise ParseError(line_number, str(exc))
            if v <= 0:
                raise ParseError(line_number, f"vertex ids are positive, got {v}")
            if n_vertices is not None and v > n_vertices:
                raise ParseError(line_number, f"header n={n_vertices} but vertex {v} appears")
            entries.append(v)
        facets.append(entries)
    if not facets:
        raise ParseError(max(line_number, 1), "file contains no facets")
    return from_facets(facets, n_vertices)


def _parse_field(text):
    try:
        return FieldSpec.parse(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_ids(text, facet_indices=False):
    """Comma-separated positive ids -> sorted, deduplicated list.

    Facet indices are 1-based on the command line and come back
    0-based, and an empty facet index list is refused; vertex ids come
    back as given, and an empty vertex list is allowed.
    """
    out = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        v = _int(tok)
        if v <= 0:
            raise argparse.ArgumentTypeError(
                f"indices are 1-based positive, got {v}" if facet_indices
                else f"vertex ids are positive, got {v}")
        out.add(v - 1 if facet_indices else v)
    if facet_indices and not out:
        raise argparse.ArgumentTypeError("empty index list")
    return sorted(out)


_parse_facet_indices = functools.partial(_parse_ids, facet_indices=True)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; here 2 means
    capacity, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"qgor: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="qgor", description="exact simplicial-complex analyses")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="facet file")
    common.add_argument("--field", type=_parse_field, default=FieldSpec.rationals(),
                        help="q for the rationals or a prime p (default q)")
    common.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("classify", parents=[common],
                       help="classification predicates and witnesses")
    p.add_argument("--list-facets", action="store_true",
                   help="print the canonical facet order and exit")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("homology", parents=[common], help="reduced Betti numbers")
    p.set_defaults(run=_cmd_homology)

    p = sub.add_parser("hochster", parents=[common],
                       help="graded local cohomology table, depth, a-invariant")
    p.set_defaults(run=_cmd_hochster)

    p = sub.add_parser("liaison", parents=[common],
                       help="Lefschetz sequence and linkage checks for a facet partition")
    p.add_argument("--facets-a", type=_parse_facet_indices, required=True,
                   metavar="I,J,...", help="1-based facet indices of the A block")
    p.set_defaults(run=_cmd_liaison)

    p = sub.add_parser("graph", parents=[common],
                       help="facet graph Gamma_t and connectivity")
    p.add_argument("--t", type=_int, default=1, help="graph parameter (default 1)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a report")
    p.add_argument("--remove", type=_parse_facet_indices, metavar="I,J,...",
                   help="run the removal experiment for this 1-based facet set")
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("collapse", parents=[common],
                       help="collapse away a set of forbidden vertices")
    p.add_argument("--forbid", type=_parse_ids, required=True,
                   metavar="V,W,...", help="vertex ids to eliminate")
    p.set_defaults(run=_cmd_collapse)
    return parser


def _flag(value):
    return "yes" if value else "no"


def _cmd_classify(delta, args):
    from .classify import _FLAGS, classification_report

    if args.list_facets:
        payload = {"facets": {str(i + 1): list(f) for i, f in enumerate(delta.facets)}}
        lines = [f"{i + 1}: {{{','.join(map(str, f))}}}" for i, f in enumerate(delta.facets)]
        return payload, lines
    report = classification_report(delta, args.field)
    payload = report.to_json()
    payload["facets"] = [list(f) for f in delta.facets]
    lines = [f"field: {args.field}", f"n_vertices: {report.n_vertices}", f"dim: {report.dim}"]
    for name in _FLAGS:
        lines.append(f"{name}: {_flag(getattr(report, name))}")
    for key, value in sorted(report.witnesses.items()):
        lines.append(f"witness {key}: {value}")
    return payload, lines


def _cmd_homology(delta, args):
    betti = reduced_betti(delta, args.field)
    payload = {
        "field": args.field.spec_string(),
        "dim": delta.dim,
        "betti": betti.to_json(),
        "euler": betti.euler(),
    }
    lines = [f"field: {args.field}", f"dim: {delta.dim}"]
    nz = betti.nonzero()
    if nz:
        for j in sorted(nz):
            lines.append(f"b_{j} = {nz[j]}")
    else:
        lines.append("all reduced Betti numbers vanish")
    lines.append(f"reduced euler characteristic: {betti.euler()}")
    return payload, lines


def _cmd_hochster(delta, args):
    from .hochster import _Links

    links = _Links(delta, args.field)
    table = links.table
    depth = links.depth
    payload = {
        "field": args.field.spec_string(),
        "table": table.to_json(),
        "depth": depth.depth,
        "cohen_macaulay": depth.is_cohen_macaulay,
        "a_invariant": links.a_invariant,
        "buchsbaum": links.buchsbaum[0],
    }
    lines = [f"field: {args.field}", f"krull dimension: {table.d}"]
    lines.append(f"depth: {depth.depth}")
    lines.append(f"cohen_macaulay: {_flag(depth.is_cohen_macaulay)}")
    lines.append(f"buchsbaum: {_flag(payload['buchsbaum'])}")
    lines.append(f"a_invariant: {payload['a_invariant']}")
    for i, sigma, dim in table.entries():
        lines.append(f"H^{i} at -{{{','.join(map(str, sigma))}}}: {dim}")
    return payload, lines


def _cmd_liaison(delta, args):
    from .liaison import FacetPartition, _Liaison

    partition = FacetPartition.complementary(delta, args.facets_a)
    liaison = _Liaison(delta, partition, args.field)
    report = liaison.lefschetz_report()
    payload = report.to_json()
    payload["link_restriction"] = liaison.link_restriction_check().to_json()
    payload["cm_linkage"] = liaison.cm_linkage_check().to_json()
    try:
        payload["tconn"] = {"ok": liaison.tconn_check(), "hypotheses_failed": []}
    except HypothesesNotMet as exc:
        payload["tconn"] = {"ok": None, "hypotheses_failed": list(exc.failed)}
    lines = [f"field: {args.field}", f"d: {report.d}",
             f"A: {sorted(i + 1 for i in partition.a)}"]
    for label, dim in report.terms:
        lines.append(f"  {label} = {dim}")
    lines.append(f"alternating_sum: {report.alternating_sum}")
    lines.append(f"alternating_sum_printed: {report.alternating_sum_printed}")
    lines.append(f"neighbor_bound_ok: {_flag(report.neighbor_bound_ok)}")
    for i, rel, a_side in report.duality_pairs:
        verdict = "=" if rel == a_side else "!="
        lines.append(f"duality i={i}: H^{i}(Delta,Delta_B) = {rel} {verdict} {a_side} = H~_{report.d - i}(Delta_A)")
    lines.append(f"hypotheses: quasi_gorenstein={_flag(report.hypotheses['quasi_gorenstein'])} "
                 f"buchsbaum_A={_flag(report.hypotheses['buchsbaum_A'])}")
    lines.append(f"link_restriction: {_flag(payload['link_restriction']['ok'])}")
    lines.append(f"cm_linkage: {_flag(payload['cm_linkage']['ok'])}")
    tconn = payload["tconn"]
    if tconn["ok"] is None:
        lines.append(f"tconn: premises not met ({'; '.join(tconn['hypotheses_failed'])})")
    else:
        lines.append(f"tconn: {_flag(tconn['ok'])}")
    return payload, lines


def _cmd_graph(delta, args):
    from .graphs import connectivity_report, gamma_graph, removal_experiment

    graph = gamma_graph(delta, args.t)
    if args.dot:
        return None, graph.to_dot().splitlines()
    conn = connectivity_report(graph)
    payload = graph.to_json()
    payload["connectivity"] = conn.to_json()
    lines = [f"t: {graph.t}", f"facets: {graph.n_vertices}",
             f"edges: {len(graph.edges)}",
             f"components: {conn.components}",
             f"two_connected: {_flag(conn.two_connected)}"]
    if conn.articulation_points:
        lines.append(f"articulation_points: {[i + 1 for i in conn.articulation_points]}")
    if args.remove is not None:
        try:
            ok = removal_experiment(delta, args.remove)
            payload["removal"] = {"b": [i + 1 for i in args.remove],
                                  "connected": ok, "gamma2_edge": None}
            lines.append(f"removal of {[i + 1 for i in args.remove]}: "
                         f"{'still connected' if ok else 'disconnected'}")
        except GammaTwoNotIsolated as exc:
            i, j = exc.pair
            payload["removal"] = {"b": [i + 1 for i in args.remove],
                                  "connected": None, "gamma2_edge": [i + 1, j + 1]}
            lines.append(f"removal of {[k + 1 for k in args.remove]}: "
                         f"rejected, facets {i + 1} and {j + 1} are adjacent in Gamma_2")
    return payload, lines


def _cmd_collapse(delta, args):
    from .collapse import CollapseTrace, collapse_onto, verify_trace

    result = collapse_onto(delta, args.forbid)
    payload = result.to_json()
    if isinstance(result, CollapseTrace):
        trace = result
        verified = verify_trace(result, args.field)
        payload.update({"outcome": "success", "verified": verified})
        lines = ["SUCCESS",
                 f"steps: {len(result.steps)}",
                 f"end: {[list(f) for f in result.end.facets]}",
                 f"betti preserved over {args.field}: {_flag(verified)}"]
    else:
        trace = result.partial_trace
        payload["outcome"] = "failure"
        lines = ["FAILURE",
                 f"reason: {result.reason}",
                 f"stuck at: {[list(f) for f in result.stuck_complex.facets]}",
                 f"steps taken: {len(trace.steps)}"]
    lines += [f"  collapse ({','.join(map(str, beta))}) < ({','.join(map(str, gamma))})"
              for beta, gamma in trace.steps]
    return payload, lines


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        with open(args.path, encoding="utf-8") as handle:
            delta = parse_facet_file(handle.read())
    except OSError as exc:
        print(f"qgor: error: {exc}", file=sys.stderr)
        return 1
    except (UnicodeDecodeError, ParseError) as exc:
        print(f"qgor: error: {args.path}: {exc}", file=sys.stderr)
        return 1
    try:
        payload, lines = args.run(delta, args)
    except CapacityExceeded as exc:
        print(f"qgor: capacity: {exc}", file=sys.stderr)
        return 2
    except (QgorError, ValueError) as exc:
        print(f"qgor: error: {exc}", file=sys.stderr)
        return 1
    if args.json and payload is not None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
