"""Count the lines of each module of src/qgor: all lines, and code lines.

A code line holds at least one token that is neither a comment nor a
docstring (the string that opens a module, class or function body);
blank lines do not count.  One row per module, then the total:

    python3 tools/loc.py
    python3 tools/loc.py --root ../other-checkout
"""

import argparse
import ast
import glob
import io
import os
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def count(source):
    """(all lines, code lines) of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=here,
                        help="checkout whose src/qgor is counted (default: this one)")
    args = parser.parse_args(argv)
    total = [0, 0]
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(glob.glob(os.path.join(args.root, "src", "qgor", "*.py"))):
        with open(path, encoding="utf-8") as f:
            lines, code = count(f.read())
        total[0] += lines
        total[1] += code
        print(f"{os.path.basename(path):<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total[0]:>6} {total[1]:>6}")


if __name__ == "__main__":
    main()
