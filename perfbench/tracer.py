"""Outside-in tracer: wraps qgor's public functions from the benchmark.

install() replaces each traced function in every qgor.* module
namespace that bound it (so calls between modules are seen too), plus
the SimplicialComplex.faces/faces_of_dim/is_face methods.  Each call
made while an operation is active records a span (name, start, end,
parent span, op id) in memory; calls outside an operation, such as the
benchmark's own answer checks, pass straight through.  Self time is a
span's duration minus the durations of its direct children.
"""

import functools
import json
import sys
from time import perf_counter

TRACED = {
    "homology": ("rank", "boundary_matrix", "relative_betti", "reduced_betti"),
    "simplicial_core": ("link", "from_facets", "restrict_to_facets"),
    "hochster": ("local_cohomology_table", "depth_report", "a_invariant", "is_buchsbaum"),
    "classify": ("classification_report", "normal_pseudomanifold_report",
                 "is_strongly_connected", "is_homology_manifold",
                 "is_quasi_gorenstein", "is_gorenstein"),
    "liaison": ("lefschetz_report", "link_restriction_check", "cm_linkage_check",
                "tconn_check"),
    "collapse": ("collapse_onto", "verify_trace"),
    "graphs": ("gamma_graph", "connectivity_report", "removal_experiment"),
    "cli": ("parse_facet_file", "main"),
}
TRACED_METHODS = ("faces", "faces_of_dim", "is_face")


def field_tag(field):
    return "q" if field.p is None else "gf2" if field.p == 2 else "gfp"


class Tracer:
    """Span recorder plus the per-layer counters the benchmark reports."""

    def __init__(self, out_dir=None):
        self.out_dir = out_dir
        self.op = None
        self.spans = []
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.distinct = {"homology.reduced_betti": set(), "simplicial_core.link": set()}
        self._tokens = {}
        self._canon = {}
        self._patched = []
        self.child_spans = []

    def _token(self, delta):
        """A value identity for a complex, computed once per object."""
        hit = self._tokens.get(id(delta))
        if hit is None:
            key = (delta.n_vertices, delta.facets)
            hit = (delta, self._canon.setdefault(key, len(self._canon)))
            self._tokens[id(delta)] = hit
        return hit[1]

    def _count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # Per-function hooks: the span name, and counters read off the call.
    def _rank_name(self, args, kw):
        matrix = args[0]
        name = "homology.rank." + field_tag(matrix.field)
        self._count(name + ".entries", matrix.rows * matrix.cols)
        return name

    def _reduced_betti_name(self, args, kw):
        field = args[1] if len(args) > 1 else kw["field"]
        self.distinct["homology.reduced_betti"].add((self._token(args[0]), field.p))
        return "homology.reduced_betti"

    def _link_name(self, args, kw):
        sigma = tuple(sorted(set(args[1])))
        self.distinct["simplicial_core.link"].add((self._token(args[0]), sigma))
        return "simplicial_core.link"

    def _gamma_name(self, args, kw):
        m = len(args[0].facets)
        self._count("graphs.gamma_graph.pairs", m * (m - 1) // 2)
        return "graphs.gamma_graph"

    def _collapse_after(self, result):
        trace = getattr(result, "partial_trace", result)
        self._count("collapse.steps", len(trace.steps))

    def wrap(self, name, fn, namer=None, after=None):
        tracer = self
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            if tracer.op is None:
                return fn(*args, **kw)
            span_name = namer(args, kw) if namer else name
            parent = stack[-1][0] if stack else -1
            entry = [len(spans), 0.0]
            spans.append(None)
            stack.append(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[entry[0]] = (span_name, start, end, parent, tracer.op)
                tracer.calls[span_name] = tracer.calls.get(span_name, 0) + 1
                tracer.self_s[span_name] = tracer.self_s.get(span_name, 0.0) + dur - entry[1]
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in every qgor module that bound it."""
        hooks = {
            "homology.rank": (self._rank_name, None),
            "homology.reduced_betti": (self._reduced_betti_name, None),
            "simplicial_core.link": (self._link_name, None),
            "graphs.gamma_graph": (self._gamma_name, None),
            "collapse.collapse_onto": (None, self._collapse_after),
        }
        wrappers = {}
        for short, names in TRACED.items():
            home = sys.modules.get("qgor." + short)
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname)
                name = f"{short}.{fname}"
                namer, after = hooks.get(name, (None, None))
                wrappers[id(original)] = self.wrap(name, original, namer, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qgor" or modname.startswith("qgor.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cls = sys.modules["qgor.simplicial_core"].SimplicialComplex
        for meth in TRACED_METHODS:
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"simplicial_core.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def merge_child(self, path, process_s):
        """Fold in the totals and spans a traced CLI child wrote to path."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        for name, n in child["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in child["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for name, n in child["counts"].items():
            self._count(name, n)
        for name, n in child["distinct"].items():
            self._count(name + ".distinct", n)
        self._count("cli.import_s", child["import_s"])
        self._count("cli.process_s", process_s)
        self._count("trace.child_wall", child["wall"])
        self.child_spans.append((self.op, child["spans"]))

    def distinct_ratio(self, name):
        calls = self.calls.get(name, 0)
        if not calls:
            return 1.0
        distinct = len(self.distinct[name]) + self.counts.get(name + ".distinct", 0)
        return distinct / calls

    def self_total(self):
        return sum(self.self_s.values())

    def span_rows(self, t0):
        """Spans as compact rows, times in microseconds from t0."""
        return [[s[0], round((s[1] - t0) * 1e6), round((s[2] - t0) * 1e6), s[3], s[4]]
                for s in self.spans]
