"""Self-test of the benchmark's checkers and output format.

    python3 -m pytest bench/selftest.py

Not named test_*.py on purpose: the package's own test suite does not
collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def analyze_doc(p, r, m) -> dict:
    return json.loads(workloads.analyze(p, r, m))


def test_analyze_output_passes_and_flipped_status_fails():
    doc = analyze_doc(2, 2, 17)
    assert doc["verdict"]["status"] == "NOT_MONOGENIC"
    assert checks.analyze_failures(2, 2, 17, json.dumps(doc)) == []
    doc["verdict"]["status"] = "MONOGENIC_ZALPHA"
    assert checks.analyze_failures(2, 2, 17, json.dumps(doc))


def test_moved_hull_vertex_fails():
    doc = analyze_doc(3, 5, 10)
    factor = doc["certificate"]["primes"]["3"]["factors"][0]
    assert len(factor["vertices"]) >= 3
    assert checks.analyze_failures(3, 5, 10, json.dumps(doc)) == []
    factor["vertices"][1][1] += 1
    problems = checks.analyze_failures(3, 5, 10, json.dumps(doc))
    assert any("hull vertices" in msg for msg in problems)
    points = [tuple(pt) for pt in factor["points"]]
    assert checks.polygon_failures(points, factor["vertices"], factor["index"], 1, "t")


def test_flipped_scan_row_fails(tmp_path):
    scan = workloads.ScanDeg7(0, tmp_path)
    unit = workloads.Unit("scan", 30, (2, 31))
    text = scan.call(unit)
    assert scan.failures(unit, text) == (0, [])
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if ",MONOGENIC_ZALPHA," in line)
    lines[row] = lines[row].replace(",MONOGENIC_ZALPHA,", ",UNDETERMINED,")
    failed, problems = scan.failures(unit, "".join(lines))
    assert failed == 1 and problems


def test_general_engine_cases_check_clean():
    import random

    engine = workloads.EngineGeneral(0, None)
    for case in engine.cases[:20]:
        unit = workloads.Unit(f"general f#{case.ident}", 1, case)
        assert engine.failures(unit, engine.call(unit)) == (0, [])
    case = workloads.make_case(0, random.Random(5))
    assert case.f[-1] == 1 and len(case.f) == case.k * (len(case.phi) - 1) + 1


def test_expected_verdicts():
    assert checks.expected_verdict(2, 2, 17) == ("NOT_MONOGENIC", "THEOREM_MONO2")
    assert checks.expected_verdict(7, 1, 2) == ("MONOGENIC_ZALPHA", "THEOREM_PIB")
    assert checks.expected_verdict(5, 1, 7) == ("UNDETERMINED", "NONE")
    assert checks.expected_verdict(3, 3, 161) == ("NOT_MONOGENIC", "COROLLARY_MONO3")
    assert checks.expected_verdict(2, 2, 9) == ("UNDETERMINED", "NONE")
    assert checks.verdict_failures(2, 2, 9, "NOT_MONOGENIC", "ENGINE_COMINDEX", [(1, 2)])
    assert not checks.verdict_failures(2, 2, 9, "NOT_MONOGENIC", "ENGINE_COMINDEX", [(1, 3)])


def test_compare_reports_changed_digest():
    assert compare.differing({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"}) == ["b"]


def run_bench(trace: int):
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", "engine_general",
        "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_every_metric_prints_with_its_unit():
    for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, table_text = run_bench(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in table]
        for metric in table:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
            assert any(
                line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
                for line in table_text.splitlines()
                if line.strip()
            )
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
