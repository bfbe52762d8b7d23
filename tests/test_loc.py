"""tools/loc.py: all lines and code lines per module, and their total."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment counts as code


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        y = (x +
             1)
        "a string statement after the first is code"
        return y
'''


def test_counts_lines_and_code_lines_of_a_sample():
    # code: import, class, def, the two lines of y, the string, return
    assert loc.count(SAMPLE) == (16, 7)
    assert loc.count("") == (0, 0)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "src" / "qgor"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SAMPLE)
    (package / "b.py").write_text("x = 1\n\n")
    loc.main(["--root", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "16", "7"], ["b.py", "2", "1"],
                    ["total", "18", "8"]]
