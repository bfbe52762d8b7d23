"""tools/bench_compare.py: runs paired in recorded order, one verdict each."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _record(workload, values, failed=0):
    return {"command": "c", "dont_write_bytecode": True, "python": "3", "runs": [
        {"workload": workload, "seed": 1, "result": {
            "correct": 10 - failed, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": v, "unit": "s"}}}} for v in values]}


BENCHMARK = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}


def _verdicts(parent, change, failed=0):
    _, rows = bench_compare.compare(_record("w", parent), _record("w", change, failed), BENCHMARK)
    return [row[-1] for row in rows]


def test_verdicts_follow_the_pairing_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    # lower in every pair, beyond the parent's interquartile range
    assert _verdicts(parent, [p - 0.1 for p in parent]) == ["gain", "within bound"]
    # lower in 8 of 10 pairs is no gain, however far
    change = [p - 0.1 for p in parent[:8]] + [p + 0.01 for p in parent[8:]]
    assert _verdicts(parent, change)[0] == "within bound"
    # worse by more than the bound
    assert _verdicts(parent, [p * 1.3 for p in parent])[0] == "worse"
    # a change spread wider than the bound cannot be told from the parent
    assert _verdicts(parent, [0.5, 1.5] * 5)[0] == "unresolved"
    # more failed operations is worse
    assert _verdicts(parent, parent, failed=1)[1] == "worse"


def test_reproduces_a_committed_pair():
    parent, change = (json.loads((ROOT / name).read_text())
                      for name in ("BENCH_27_parent.json", "BENCH_27.json"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes, rows = bench_compare.compare(parent, change, benchmark)
    assert notes == []
    row = next(row for row in rows if row[:2] == ("classify-links", "wall_s"))
    assert row[2:] == ("0.09421 [0.00092]", "0.07559", "-19.8", "10/10", "gain")
