"""The paired benchmark gate's decision rule (``scripts/perf_gate.py``).

``decide`` is pure, so these tests feed it synthetic perfbench results
instead of running the benchmark.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import signal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "scripts" / "perf_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SPEC = gate.load_spec()
BASE_VALUES = {
    "latency_p50_s": 2.5,
    "frames_per_s": 9.0,
    "setup_s": 1.2,
    "peak_rss_mb": 400.0,
}


def _run(scale=None, exit=0, correct=True, attempted=10, failed=0, drop=()):
    """One ``--workload all`` result; ``scale`` maps a metric key to a factor."""
    scale = scale or {}
    metrics = {}
    for workload in SPEC["workloads"]:
        for name, value in BASE_VALUES.items():
            key = f"{workload['name']}/{name}"
            if key not in drop:
                metrics[key] = {"value": value * scale.get(key, 1.0), "unit": ""}
    return {
        "exit": exit,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def _pairs(head_scales, **head):
    return [(_run(), _run(scale, **head)) for scale in head_scales]


def _row(rows, key):
    workload, metric = key.split("/")
    (row,) = [r for r in rows if (r["workload"], r["metric"]) == (workload, metric)]
    return row


def test_identical_sides_pass():
    rows, failures = gate.decide(SPEC, _pairs([{}, {}, {}]))
    assert failures == []
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert {row["verdict"] for row in rows} == {"ok"}


def test_worse_than_bound_in_every_pair_fails():
    key = "jump_analyze/latency_p50_s"
    rows, failures = gate.decide(SPEC, _pairs([{key: 1.5}] * 3))
    assert len(failures) == 1 and key in failures[0]
    row = _row(rows, key)
    assert row["verdict"] == "REGRESSION"
    assert row["worse"] == row["pairs"] == 3
    assert abs(row["change"] - 0.5) < 1e-12


def test_median_past_bound_with_one_pair_better_passes():
    # A whole-run stretch of host steal moves one side of a pair; the
    # gate needs the head worse in every pair before it fails.
    key = "vga_jump_jobs/latency_p50_s"
    rows, failures = gate.decide(SPEC, _pairs([{key: 1.5}, {key: 1.5}, {key: 0.9}]))
    assert failures == []
    row = _row(rows, key)
    assert row["verdict"] == "ok" and row["worse"] == 2
    assert row["change"] > 0.25


def test_frames_per_s_is_higher_is_better():
    key = "two_actor_live/frames_per_s"
    _, faster = gate.decide(SPEC, _pairs([{key: 2.0}] * 3))
    assert faster == []
    rows, slower = gate.decide(SPEC, _pairs([{key: 0.5}] * 3))
    assert len(slower) == 1 and key in slower[0]
    assert _row(rows, key)["verdict"] == "REGRESSION"


def test_failing_head_runs_fail_the_gate():
    cases = {
        "incorrect": _pairs([{}, {}, {}], exit=1, correct=False, failed=1),
        "crashed": [(_run(), {"exit": 1, "result": None})] * 3,
        "missing metric": _pairs([{}, {}, {}], drop=("two_actor_live/setup_s",)),
        "failed share": _pairs([{}, {}, {}], attempted=10, failed=1),
    }
    for name, pairs in cases.items():
        _, failures = gate.decide(SPEC, pairs)
        assert failures, name
    _, failures = gate.decide(SPEC, cases["missing metric"])
    assert failures == ["two_actor_live/setup_s: missing from 3 head run(s)"]


def test_failed_base_run_skips_its_pair():
    key = "jump_analyze/latency_p50_s"
    pairs = [(_run(), _run({key: 1.5})) for _ in range(3)]
    pairs[0] = (_run(exit=1, correct=False, failed=2), _run())
    rows, failures = gate.decide(SPEC, pairs)
    assert _row(rows, key)["pairs"] == 2
    assert len(failures) == 1 and key in failures[0]


def test_bounds_are_read_from_benchmark_json():
    assert SPEC == json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "jump_analyze/setup_s"
    (bound,) = [m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    pairs = _pairs([{key: 1.0 + 0.8 * bound}] * 3)
    _, failures = gate.decide(SPEC, pairs)
    assert failures == []
    tighter = copy.deepcopy(SPEC)
    for metric in tighter["end_to_end"]:
        metric["bound"] = 0.5 * bound
    _, failures = gate.decide(tighter, pairs)
    assert len(failures) == 1 and key in failures[0]


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    order = []
    monkeypatch.setattr(gate, "run_perfbench", lambda checkout: order.append(checkout) or _run())
    base = Path("base-checkout")
    pairs = gate.run_pairs(base)
    assert len(pairs) == gate.PAIRS
    expected = []
    for index in range(gate.PAIRS):
        expected += [base, gate.ROOT] if index % 2 == 0 else [gate.ROOT, base]
    assert order == expected


def test_sigterm_becomes_system_exit_143(monkeypatch):
    """A SIGTERM during a gate run unwinds through ``finally`` blocks.

    ``load_spec`` runs before any worktree is made, so the signal is
    sent from there: no perfbench starts and no worktree is created.
    """
    def terminated():
        os.kill(os.getpid(), signal.SIGTERM)
        raise AssertionError("SIGTERM did not interrupt the gate")

    monkeypatch.setattr(gate, "load_spec", terminated)
    previous = signal.getsignal(signal.SIGTERM)
    try:
        with pytest.raises(SystemExit) as excinfo:
            gate.main(["--base", "HEAD"])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert excinfo.value.code == 143
