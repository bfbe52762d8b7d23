"""The package's import contract, checked in fresh child processes.

`import qgor` loads no submodule, each public name resolves to its home
module's object on first use, the `python -m qgor.cli` entry point
answers as main() does in-process, each subcommand loads only the
modules it runs, and the library imports nothing outside the standard
library.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from qgor.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TORUS = "fixtures/csaszar-torus.cplx"

#: Modules every subcommand loads: parsing and dispatch need errors,
#: homology (FieldSpec, reduced_betti) and simplicial_core, and
#: homology brings in graphs.
BASE = {"qgor", "qgor.cli", "qgor.errors", "qgor.graphs", "qgor.homology",
        "qgor.simplicial_core"}

SUBCOMMANDS = {
    "homology": ([], BASE),
    "graph": ([], BASE),
    "hochster": ([], BASE | {"qgor.hochster"}),
    "classify": ([], BASE | {"qgor.hochster", "qgor.classify"}),
    "liaison": (["--facets-a", "1,2"], BASE | {"qgor.hochster", "qgor.classify", "qgor.liaison"}),
    "collapse": (["--forbid", "1"], BASE | {"qgor.collapse"}),
}


def _child(*args):
    """Run the interpreter on args from the repository root, importing qgor from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def _argv(sub):
    return [sub, TORUS, "--json", *SUBCOMMANDS[sub][0]]


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_module_entry_point_matches_main(sub, capsys, monkeypatch):
    proc = _child("-m", "qgor.cli", *_argv(sub))
    monkeypatch.chdir(ROOT)
    code = main(_argv(sub))
    out = capsys.readouterr().out
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert code == 0


#: Modules no subcommand may load: importing dataclasses (with inspect)
#: costs a CLI process about 9 ms.
HEAVY = {"dataclasses", "inspect"}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_each_subcommand_loads_only_what_it_runs(sub):
    script = ("import json, sys, qgor.cli\n"
              f"code = qgor.cli.main({_argv(sub)!r})\n"
              "print(json.dumps(sorted(m for m in sys.modules"
              f" if m.startswith('qgor') or m in {sorted(HEAVY)!r})), file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = _child("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert loaded == SUBCOMMANDS[sub][1]


_LAZY_SCRIPT = textwrap.dedent("""
    import json, sys
    import qgor
    facts = {"on_import": sorted(m for m in sys.modules if m.startswith("qgor"))}
    h = qgor.homology
    facts["rank"] = h.rank(h.ExactMatrix(h.QQ, 2, 2, [{0: 1, 1: 2}, {0: 2, 1: 4}]))
    try:
        qgor.no_such_name
        facts["unknown"] = "no error"
    except AttributeError as exc:
        facts["unknown"] = str(exc)
    facts["not_home"] = [
        name for name in qgor.__all__
        if getattr(qgor, name) is not getattr(sys.modules["qgor." + qgor._HOMES[name]], name)
        or getattr(getattr(qgor, name), "__module__", None) != "qgor." + qgor._HOMES[name]]
    facts["unbound"] = sorted(set(qgor.__all__) - set(vars(qgor)))
    star = {}
    exec("from qgor import *", star)
    facts["star"] = sorted(set(star) - {"__builtins__"})
    facts["dir_missing"] = sorted(set(qgor.__all__) - set(dir(qgor)))
    facts["all"] = qgor.__all__
    print(json.dumps(facts))
""")


def test_package_attributes_load_lazily():
    proc = _child("-c", _LAZY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["on_import"] == ["qgor"]
    assert facts["rank"] == 1
    assert facts["unknown"] == "module 'qgor' has no attribute 'no_such_name'"
    assert facts["not_home"] == []
    assert facts["unbound"] == []
    assert facts["star"] == sorted(facts["all"])
    assert facts["dir_missing"] == []


def test_library_imports_only_the_standard_library():
    seen = set()
    for path in sorted((SRC / "qgor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                seen.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                seen.add((path.name, node.module.split(".")[0]))
    assert seen
    assert sorted(item for item in seen if item[1] not in sys.stdlib_module_names) == []
