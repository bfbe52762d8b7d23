"""The qgor benchmark: one workload per run, every answer checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload betti-ladder --seed 1 --seconds 30 --trace 0

Workloads: betti-ladder, classify-links, partition-sweep, cli-corpus
(see README.md in this directory).  With --trace 0 a run visits the
operations round-robin for --seconds, and times the workload's set-up
in fresh child processes spread over the same span; each operation's
time is the median of its runs, a pass over the workload is the sum of
those medians, and setup_s is the median of the set-up processes.

--trace 1 runs every operation once untraced and once with every qgor
public function wrapped from outside, and prints the per-layer metrics.
Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; details, including the spans of
a traced run, go to .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from tracer import TRACED, TRACED_METHODS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 11
#: Seconds the reference loop takes on the host the scaled figures are
#: expressed for: an idle core of the 2-vCPU Xeon VM the benchmark was
#: tuned on (9.5 to 10 ms there).
REF_S = 0.010
REF_WINDOW = 4

#: ROADMAP Baseline figures for sd2-torus reduced Betti numbers, shown
#: next to the measured rows for reference; no bound is attached.
BASELINE_S = {("sd2-torus", "Q"): 10.1, ("sd2-torus", "GF(2)"): 0.32}

def _import_program():
    """Import qgor from the checkout's src/, and the benchmark's modules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qgor", "__init__.py")):
        sys.exit(f"perfbench: no qgor sources under {src}")
    sys.path.insert(0, src)
    import workloads
    return workloads


def setup_sample(workload, seed):
    """Wall time of one fresh process that imports qgor and builds the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return elapsed


def reference_loop():
    """Fixed pure-Python work of the kind qgor does: tuple keys, dict
    look-ups, integer arithmetic.  About 10 ms on an idle core."""
    table = {}
    acc = 0
    for i in range(40000):
        key = (i % 613, i % 7)
        acc = (acc + table.get(key, i) * 31) % 1000003
        table[key] = acc
    return acc


class HostSpeed:
    """Reference-loop timings taken next to every timed sample.

    A shared machine's speed drifts by tens of percent over seconds to
    minutes, for every process on it alike; on a 2-vCPU VM it flips
    between a fast and a slow state (about 1.5 times slower) within a
    second.  Each timed sample is scaled by REF_S over the mean of the
    reference timings within REF_WINDOW on either side of it, which
    averages those flips the way a long operation does, so the figures
    read as seconds on a host where the loop takes REF_S, and a run on a
    busy host reads like one on an idle host.  The raw seconds are
    printed beside them.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        """Time the reference loop once; return the index of the sample."""
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, k):
        return REF_S / statistics.fmean(self.samples[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])


class Measurement:
    """Runs of every operation, and set-up samples: medians and failures.

    With a HostSpeed, every run and set-up sample is preceded by a
    reference sample and the medians are of scaled times; without one
    (traced runs) they are of raw times.
    """

    def __init__(self, ops, speed=None):
        self.ops = ops
        self.speed = speed
        self.samples = [[] for _ in ops]
        self.refs = [[] for _ in ops]
        self.setup = []
        self.failures = []
        self.attempted = 0

    def run_setup(self, take_setup):
        k = self.speed.sample()
        self.setup.append((take_setup(), k))

    def setup_time(self, scaled=True):
        return statistics.median(t * self.speed.scale(k) if scaled else t for t, k in self.setup)

    def run(self, i, in_process, tracer=None):
        """Run operation i once, timed, then check its answer untimed."""
        op = self.ops[i]
        if self.speed is not None:
            self.refs[i].append(self.speed.sample())
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            value = op.run() if in_process else op.run(tracer)
            error = None
        except Exception as exc:  # a raising operation is a failed one; keep going
            value, error = None, f"raised {type(exc).__name__}: {exc}"
        self.samples[i].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
        error = error or op.check(value)
        self.attempted += 1
        if error:
            self.failures.append(f"{op.kind} {op.case} {op.field}: {error}")

    def scaled(self, i):
        if self.speed is None:
            return self.samples[i]
        return [t * self.speed.scale(k) for t, k in zip(self.samples[i], self.refs[i])]

    def rows(self):
        return [{"kind": op.kind, "case": op.case, "field": str(op.field) if op.field else "-",
                 "faces": op.faces, "runs": len(runs), "raw_seconds": statistics.median(runs),
                 "seconds": statistics.median(self.scaled(i))}
                for i, (op, runs) in enumerate(zip(self.ops, self.samples))]

    def wall(self, tag=None):
        """One pass over the operations: the sum of their median times."""
        return sum(r["seconds"] for r in self.rows() if tag is None or r["field"] == tag)


def measure(ops, in_process, seconds, take_setup):
    """Run the operations round-robin until the deadline; sample set-up among them.

    Every operation runs at least once; after that the next one in turn
    runs only if its median time so far still fits before the deadline,
    so run counts differ by at most one.  On a shared machine a burst of
    interference slows whatever runs during it; spreading every
    operation's runs, and the SETUP_SAMPLES set-up processes, over the
    whole run keeps one burst from deciding a median.
    Every timed sample is scaled by the host's speed (HostSpeed).
    """
    start = time.perf_counter()
    deadline = start + seconds
    m = Measurement(ops, HostSpeed())
    i = 0
    while True:
        if len(m.setup) < SETUP_SAMPLES and \
                len(m.setup) <= SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            m.run_setup(take_setup)
            continue
        j = i % len(ops)
        if i >= len(ops) and time.perf_counter() + statistics.median(m.samples[j]) > deadline:
            break
        m.run(j, in_process)
        i += 1
    while len(m.setup) < SETUP_SAMPLES:
        m.run_setup(take_setup)
    return m


def trace_ops(ops, in_process):
    """Each operation once untraced and once traced, alternating which goes
    first, so that warming up favours neither side of trace.overhead_frac."""
    untraced, traced, tracer = Measurement(ops), Measurement(ops), Tracer(OUT_DIR)
    for i in range(len(ops)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.run(i, in_process)
                continue
            if in_process:
                tracer.install()
            try:
                traced.run(i, in_process, tracer)
            finally:
                tracer.uninstall()
    return untraced, traced, tracer


def tail(values):
    """The highest percentile with at least 10 samples beyond it, and its rank."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"{len(ordered)} samples, a tail needs at least 11")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(m, setup_s, rss_mb):
    lat = [1000 * r["seconds"] for r in m.rows()]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (m.wall(), "s"),
        "wall_q_s": (m.wall("Q"), "s"),
        "wall_gf2_s": (m.wall("GF(2)"), "s"),
        "wall_gfp_s": (m.wall("GF(32003)"), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced, in_process):
    functions = [f"{module}.{name}" for module, names in TRACED.items() if module != "cli"
                 for name in names if name != "rank"]
    functions += [f"simplicial_core.{name}" for name in TRACED_METHODS]
    m = {}
    for key in functions:
        m[key + ".calls"] = (tracer.calls.get(key, 0), "count")
        m[key + ".self_s"] = (tracer.self_s.get(key, 0.0), "s")
    for tag in ("q", "gf2", "gfp"):
        key = f"homology.rank.{tag}"
        m[key + ".calls"] = (tracer.calls.get(key, 0), "count")
        m[key + ".self_s"] = (tracer.self_s.get(key, 0.0), "s")
        m[key + ".entries"] = (tracer.counts.get(key + ".entries", 0), "count")
    for key in ("homology.reduced_betti", "simplicial_core.link"):
        m[key + ".distinct_ratio"] = (tracer.distinct_ratio(key), "ratio")
    m["collapse.steps"] = (tracer.counts.get("collapse.steps", 0), "count")
    m["graphs.gamma_graph.pairs"] = (tracer.counts.get("graphs.gamma_graph.pairs", 0), "count")
    m["cli.import_s"] = (tracer.counts.get("cli.import_s", 0.0), "s")
    m["cli.parse_facet_file.self_s"] = (tracer.self_s.get("cli.parse_facet_file", 0.0), "s")
    m["cli.main.self_s"] = (tracer.self_s.get("cli.main", 0.0), "s")
    m["cli.process_s"] = (tracer.counts.get("cli.process_s", 0.0), "s")
    m["op_tail_ms"] = (tail(1000 * r["seconds"] for r in untraced.rows())[0], "ms")
    m["trace.overhead_frac"] = (traced.wall() / untraced.wall() - 1, "ratio")
    if in_process:
        covered, wall = tracer.self_total(), traced.wall()
    else:
        covered = tracer.self_total() + tracer.counts.get("cli.import_s", 0.0)
        wall = tracer.counts.get("trace.child_wall", 0.0)
    m["trace.coverage"] = (covered / wall, "ratio")
    return m


def print_rows(m):
    """Per-operation rows: median seconds over the operation's runs, raw and
    scaled to the reference host (the same on a traced run)."""
    print(f"{'operation':<34} {'case':<28} {'field':<10} {'faces':>6} {'runs':>4} "
          f"{'raw s':>9} {'seconds':>9}  baseline")
    rows = m.rows()
    for row in rows:
        base = BASELINE_S.get((row["case"], row["field"]))
        note = f"{base} s (ROADMAP)" if base and row["kind"] == "reduced_betti" else ""
        print(f"{row['kind']:<34} {row['case']:<28} {row['field']:<10} {row['faces']:>6} "
              f"{row['runs']:>4} {row['raw_seconds']:>9.4f} {row['seconds']:>9.4f}  {note}")
    shown = {(r["case"], r["field"]) for r in rows if r["kind"] == "reduced_betti"}
    for (case, field), base in BASELINE_S.items():
        if case in {c for c, _ in shown} and (case, field) not in shown:
            print(f"{'reduced_betti':<34} {case:<28} {field:<10} not run{'':>22}  "
                  f"{base} s (ROADMAP)")


def print_speed(m):
    """The host's speed over the run, and the unscaled pass and set-up."""
    refs = m.speed.samples
    print(f"reference loop: median {1000 * statistics.median(refs):.3f} ms over {len(refs)} "
          f"samples (scaled figures assume {1000 * REF_S:g} ms); unscaled pass "
          f"{sum(r['raw_seconds'] for r in m.rows()):.4f} s, set-up {m.setup_time(scaled=False):.4f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import qgor, build the inputs and exit (timed by the parent)")
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed, ROOT)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    ops = build(args.seed, ROOT)
    in_process = args.workload != "cli-corpus"

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        m = measure(ops, in_process, args.seconds, lambda: setup_sample(args.workload, args.seed))
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        metrics = end_to_end(m, m.setup_time(), resource.getrusage(who).ru_maxrss / 1024)
        measurements = [m]
    else:
        untraced, traced, tracer = trace_ops(ops, in_process)
        metrics = per_layer(tracer, traced, untraced, in_process)
        measurements = [untraced, traced]
        t0 = min((s[1] for s in tracer.spans), default=0.0)
        report["spans"] = {"columns": ["name", "start_us", "end_us", "parent", "op"],
                           "in_process": tracer.span_rows(t0),
                           "children": tracer.child_spans}

    failures = [f for m in measurements for f in m.failures]
    attempted = sum(m.attempted for m in measurements)
    print_rows(measurements[0])
    if args.trace == 0:
        print_speed(measurements[0])
    _, pct = tail(r["seconds"] for r in measurements[0].rows())
    print(f"operations: {len(ops)}  op_tail_ms is their p{pct:.0f}  attempted runs: {attempted}  "
          f"failed: {len(failures)}  failed_frac: {len(failures) / attempted:.4f}")
    for f in failures[:20]:
        print("FAILED", f)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6f} {unit}")
    report.update(rows=[m.rows() for m in measurements], failures=failures,
                  metrics={k: v for k, (v, _) in metrics.items()})
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
