"""Smoke test of the benchmark: every workload, untraced and traced, on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert 0.98 <= result["metrics"]["trace.accounted_ratio"]["value"] <= 1.0 + 1e-9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("answer_sha256: ") for line in lines)


def test_traced_and_untraced_answers_hash_the_same():
    def sha(lines):
        return next(line.split()[1] for line in lines if line.startswith("answer_sha256: "))

    assert sha(_run("cli-mix", 0)) == sha(_run("cli-mix", 1))


def test_fails_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as fh:
                (bench / name).write_text(fh.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reals-g65", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
