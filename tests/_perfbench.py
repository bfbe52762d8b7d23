"""The benchmark's seeded generators, loaded read-only from perfbench/gen.py.

Test modules import gen from here, so the tests and the benchmark
build their complexes with one set of checked constructions.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)
