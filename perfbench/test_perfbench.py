"""The benchmark's own checks.

Run from the repository root (a few minutes; runs every workload
traced, twice)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from run import NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metrics whose value depends on timing, so two runs may differ.
TIMING_DEPENDENT = layers.TIMING_DEPENDENT | {"trace.overhead_frac"}


def _run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return report, json.loads(lines[-1])


def _counts(metrics: dict) -> dict:
    return {
        name: entry["value"] for name, entry in metrics.items()
        if entry["unit"] in ("count", "frac", "MB") and name not in TIMING_DEPENDENT
    }


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, result = _traced(workload, seed=3)
    second, _ = _traced(workload, seed=3)
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert _counts(first["metrics"])
    # Traced outputs equal the untraced phase's, pose_err_deg/mota too.
    assert first["same_outputs"] and second["same_outputs"]
    # Self times of the blocking spans add up to each operation's wall
    # time, and no span's children overlap.
    assert first["residual_s"] < 1e-6 and first["min_self_s"] > -1e-6
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    known = {m.name: m.unit for m in layers.METRICS}
    known["trace.overhead_frac"] = "frac"
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert known[metric["name"]] == metric["unit"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
