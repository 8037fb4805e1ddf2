import json
import shutil
import subprocess
import sys
from pathlib import Path

import spantrace
from run import END_TO_END_UNITS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "moduli",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()


def test_one_round_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "moduli",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 24  # one sweep: 4 functions x 2 orders x 3 p
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac" in proc.stdout


def test_layer_units_match_the_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spantrace.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
