"""Smoke test of the benchmark harness: one tiny cell per workload,
untraced and traced, in a few seconds.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS, make_job  # noqa: E402


def run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_round(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0, proc.stderr
    want = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in out["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_inputs_follow_the_seed():
    for w in WORKLOADS:
        assert make_job(w, 7) == make_job(w, 7)
        assert make_job(w, 7) != make_job(w, 8)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "tables_n01", "--seed", "1", "--seconds", "1",
               cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip()
