"""Record benchmark runs of one checkout in a BENCH_<label>.json file.

Runs the benchmark command unchanged, at the benchmark's own run length,

    python3 perfbench/run.py --workload W --seed S --trace 0

once per (workload, seed) in the given checkout, and writes the
checkout's git revision (with whether its tracked files other than
BENCH_*.json differ from it, and a SHA-256 of its src/qgor sources,
which names uncommitted code), the Python version, whether
PYTHONDONTWRITEBYTECODE is set in the environment the benchmark runs
in, and each run's final JSON line (the `correct`/`attempted`/`failed`/
`metrics` object) to BENCH_<label>.json.  It does no timing of its own:
every figure in the file is one the benchmark printed.

    python3 tools/bench_record.py change --workload betti-ladder --seed 4 7
    python3 tools/bench_record.py parent --checkout ../parent --workload betti-ladder

An existing BENCH_<label>.json of the same source, Python, command and
bytecode setting is appended to, so runs of two checkouts can be
interleaved (parent, change, parent, ...) one call at a time; delete the
file to start afresh.  The bytecode setting is part of that match
because it moves the CLI workload more than the changes it compares:
without cached bytecode every CLI child compiles each module it imports.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload W --seed S --trace 0"


def git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def source(checkout):
    """The revision, whether tracked files differ from it, and a digest of src/qgor."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "qgor", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    # Recording into a tracked BENCH file must not make the next call's source differ.
    changed = git(checkout, "status", "--porcelain", "--untracked-files=no",
                  "--", ".", ":(exclude)BENCH_*.json")
    return {"rev": git(checkout, "rev-parse", "HEAD"), "dirty": bool(changed),
            "src_sha256": digest.hexdigest()}


def run_once(checkout, workload, seed):
    """The final JSON line of one untraced benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", nargs="+", type=int, default=[1])
    parser.add_argument("--checkout", default=HERE,
                        help="the checkout whose perfbench/run.py is run (default: this one)")
    args = parser.parse_args(argv)

    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    record = {**source(args.checkout), "python": platform.python_version(),
              "command": COMMAND,
              "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
              "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        if any(old.get(k) != v for k, v in record.items() if k != "runs"):
            raise SystemExit(f"{path} records another source, Python, command or bytecode setting")
        record = old
    for workload in args.workload:
        for seed in args.seed:
            result = run_once(args.checkout, workload, seed)
            record["runs"].append({"workload": workload, "seed": seed, "result": result})
            print(workload, seed, result["failed"],
                  {k: round(v["value"], 6) for k, v in result["metrics"].items()}, flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
