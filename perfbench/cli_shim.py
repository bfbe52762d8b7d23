"""Traced stand-in for `python -m qgor.cli`.

Usage: cli_shim.py TRACE_FILE SUBCOMMAND ARGS...

Times the import of qgor.cli as the cli.import span, installs the
benchmark's wrappers, runs qgor.cli.main on the arguments, and writes
the spans and per-function totals to TRACE_FILE.  The traced wall runs
from the start of that import to the return of main.  Stdout, stderr and
the exit code are the CLI's own.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer  # the script's directory is on sys.path


def main(trace_file, argv):
    tracer = Tracer()
    tracer.op = 0
    t0 = perf_counter()
    import qgor.cli
    t1 = perf_counter()
    tracer.spans.append(("cli.import", t0, t1, -1, 0))
    tracer.install()
    try:
        code = qgor.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        end = perf_counter()
        tracer.op = None
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({
                "wall": end - t0,
                "import_s": t1 - t0,
                "calls": tracer.calls,
                "self_s": tracer.self_s,
                "counts": tracer.counts,
                "distinct": {k: len(v) for k, v in tracer.distinct.items()},
                "spans": tracer.span_rows(t0),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
