"""Tiny-size smoke test of the benchmark, so that it does not rot.

    python3 -m pytest perfbench/tests -q

Runs every workload for a fraction of a second at --tiny sizes and checks the
result line against BENCHMARK.json, the traced run's self-checks, the seeded
generators, and the refusal to run without the program's sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import gen  # noqa: E402


def bench(*args, cwd=ROOT):
    argv = [sys.executable, str(BENCH / "run.py"), "--seconds", "0.3", "--tiny", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        row = result["metrics"][m["name"]]
        assert row["unit"] == m["unit"]
        assert isinstance(row["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_line(workload):
    result = result_line(bench("--workload", workload, "--seed", "3"))
    check_shape(result, SPEC["end_to_end"])
    assert all(row["value"] > 0 for row in result["metrics"].values())


def traced_record(workload: str) -> tuple[dict, dict]:
    result = result_line(bench("--workload", workload, "--seed", "5", "--trace", "1"))
    record = json.loads((BENCH / "_out" / f"{workload}-s5-t1-tiny.json").read_text())
    return result, record["trace"]


@pytest.mark.parametrize("workload", ["corpus-cli", "torus-report"])
def test_traced_runs_agree(workload):
    first, trace_1 = traced_record(workload)
    second, trace_2 = traced_record(workload)
    check_shape(first, SPEC["per_layer"])
    assert trace_1["output_mismatches"] == trace_2["output_mismatches"] == 0
    common = set(trace_1["counts_by_op"]) & set(trace_2["counts_by_op"])
    assert common
    for op in common:
        assert trace_1["counts_by_op"][op] == trace_2["counts_by_op"][op]
    assert first["metrics"]["trace.ops"]["value"] >= 1


def test_generators_are_seeded_and_valid():
    from slinv import checkerboard, parse_diagram, parse_map

    texts = [gen.torus_diagram(random.Random(9), 6)[0] for _ in range(2)]
    assert texts[0] == texts[1]
    d = parse_diagram(texts[0])
    assert d.genus == gen.sld_genus(texts[0]) == 1
    checkerboard(d)
    for genus in (1, 2, 3):
        text, _ = gen.ribbon_map(random.Random(genus), 8, genus)
        m = parse_map(text)
        assert (m.V, m.E, m.F, m.genus) == (*gen.rg_stats(text)[:1], 8, *gen.rg_stats(text)[2:])
        assert m.genus == genus


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
