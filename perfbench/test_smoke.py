"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_emits_every_metric_and_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert lines[-1]["smoke"] is True
    runs = {(line["workload"], line["trace"]) for line in lines[:-1]}
    assert runs == {(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)}
    assert all(line["passed"] and not line["missing"] for line in lines[:-1])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-window", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
