"""Write the CLI output for the whole fixture corpus to one file.

Runs every fixtures/*.cplx file through every subcommand (with the
option sets below), over --field q, 2 and 3, in text and --json
mode, and records each run's exit code, stdout and stderr.  Two
checkouts that behave the same produce byte-identical files, so a
refactor can be checked with a plain diff:

    python3 tools/cli_snapshot.py after.txt
    python3 tools/cli_snapshot.py before.txt --root ../other-checkout
    cmp before.txt after.txt

The runs happen in-process through qgor.cli.main, importing qgor from
<root>/src (default: the checkout this script lives in).  argparse wraps
usage text to the terminal width, so the runs see COLUMNS=80 whatever
the terminal, as a pipe does.
"""

import argparse
import contextlib
import glob
import io
import os
import sys

RUNS = (
    ("classify",),
    ("classify", "--list-facets"),
    ("homology",),
    ("hochster",),
    ("liaison", "--facets-a", "1"),
    ("liaison", "--facets-a", "1,2"),
    ("liaison", "--facets-a", "1,2,3"),
    ("graph",),
    ("graph", "--t", "0"),
    ("graph", "--t", "2"),
    ("graph", "--t", "3"),
    ("graph", "--dot"),
    ("graph", "--remove", "1"),
    ("collapse", "--forbid", "1"),
    ("collapse", "--forbid", "1,2,5"),
    ("collapse", "--forbid", ""),
    # usage errors of the id-list options
    ("liaison", "--facets-a", ""),
    ("graph", "--remove", "0"),
    ("collapse", "--forbid", "1,x"),
)
FIELDS = ("q", "2", "3")


def snapshot(root):
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, os.path.join(root, "src"))
    from qgor.cli import main

    chunks = []
    for path in sorted(glob.glob(os.path.join(root, "fixtures", "*.cplx"))):
        for command, *options in RUNS:
            for field in FIELDS:
                for mode in ((), ("--json",)):
                    argv = [command, path, *options, "--field", field, *mode]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    shown = " ".join([command, os.path.basename(path), *argv[2:]])
                    chunks.append(f"$ qgor {shown}\nexit {code}\n"
                                  f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(chunks)


def main():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="file to write")
    parser.add_argument("--root", default=here, help="checkout to run (default: this one)")
    args = parser.parse_args()
    text = snapshot(os.path.abspath(args.root))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{args.out}: {text.count('$ qgor ')} runs")


if __name__ == "__main__":
    main()
