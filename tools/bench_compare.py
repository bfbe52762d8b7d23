"""Compare two BENCH_<label>.json files, a parent's and a change's, run by run.

    python3 tools/bench_compare.py BENCH_27_parent.json BENCH_27.json

Reads the two files that tools/bench_record.py wrote, and BENCHMARK.json
for the end-to-end metrics, which way each is better and its bound.  It
does no timing of its own and writes nothing.  The runs of each workload
are paired in recorded order (the i-th parent run with the i-th change
run); a side's extra runs are left unpaired and named.  For each workload
and end-to-end metric it prints the parent's median and interquartile
range (statistics.quantiles' default quartiles), the change's median, the
change in per cent of the parent's median, the pairs the change won (ties
count for neither) and one verdict:

- gain: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a fraction of the parent's median);
- unresolved: either side's interquartile range exceeds the bound times
  its median, and not every change run is better than every parent run;
- within bound: anything else.

A last row per workload compares the share of failed operations, worse
when the change's is larger.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def by_workload(record):
    """workload -> its runs' result objects, in recorded order."""
    out = {}
    for run in record["runs"]:
        out.setdefault(run["workload"], []).append(run["result"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """(parent median, parent IQR, change median, per cent, wins, verdict) for
    paired runs of one metric."""
    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (pm - cm)
    c1, c3 = quartiles(change)
    if wins >= 0.9 * len(parent) and gain > iqr:
        word = "gain"
    elif -gain > bound * abs(pm):
        word = "worse"
    elif (iqr > bound * abs(pm) or c3 - c1 > bound * abs(cm)) and not (
            max(sign * c for c in change) < min(sign * p for p in parent)):
        word = "unresolved"
    else:
        word = "within bound"
    percent = 100 * (cm - pm) / pm if pm else float("nan")
    return pm, iqr, cm, percent, wins, word


HEADER = ("workload", "metric", "parent median [IQR]", "change median", "change %", "won",
          "verdict")


def compare(parent, change, benchmark):
    """(notes, rows) for two BENCH records and the benchmark's declaration:
    a row per workload and end-to-end metric, laid out as HEADER, and one
    per workload for the share of failed operations."""
    notes, rows = [], []
    for key in ("command", "dont_write_bytecode", "python"):
        if parent.get(key) != change.get(key):
            notes.append(f"warning: {key} differs: "
                         f"{parent.get(key)!r} against {change.get(key)!r}")
    runs_p, runs_c = by_workload(parent), by_workload(change)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        ps, cs = runs_p.get(workload, []), runs_c.get(workload, [])
        n = min(len(ps), len(cs))
        if len(ps) != len(cs):
            notes.append(f"note: {workload}: {len(ps)} parent runs and {len(cs)} change runs; "
                         f"the first {n} of each are paired")
        if not n:
            continue
        ps, cs = ps[:n], cs[:n]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not all(name in r["metrics"] for r in ps + cs):
                continue
            pm, iqr, cm, percent, wins, word = verdict(
                [r["metrics"][name]["value"] for r in ps],
                [r["metrics"][name]["value"] for r in cs],
                metric["better"], metric["bound"])
            rows.append((workload, name, f"{pm:.4g} [{iqr:.2g}]", f"{cm:.4g}",
                         f"{percent:+.1f}", f"{wins}/{n}", word))
        share_p, share_c = (sum(r["failed"] for r in side)
                            / max(1, sum(r["attempted"] for r in side)) for side in (ps, cs))
        rows.append((workload, "failed share", f"{share_p:.3g}", f"{share_c:.3g}", "", "",
                     "worse" if share_c > share_p else "within bound"))
    return notes, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's BENCH_<label>.json")
    parser.add_argument("change", help="the change's BENCH_<label>.json")
    parser.add_argument("--benchmark", default=os.path.join(HERE, "BENCHMARK.json"),
                        help="the benchmark declaration (default: this checkout's)")
    args = parser.parse_args(argv)
    notes, rows = compare(load(args.parent), load(args.change), load(args.benchmark))
    table = [HEADER, *rows]
    widths = [max(len(row[k]) for row in table) for k in range(len(HEADER))]
    for line in notes:
        print(line)
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
