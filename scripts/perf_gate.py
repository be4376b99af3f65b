#!/usr/bin/env python3
"""Paired benchmark gate: a base revision against this checkout, on one host.

Run from the repository root::

    python3 scripts/perf_gate.py --base origin/main

The base revision is checked out into a temporary git worktree.  Each
of ``PAIRS`` pairs runs ``perfbench/run.py --workload all --trace 0``
once from the base checkout and once from this one, each side with its
own ``perfbench/`` and ``src/``; pair *i* runs the base first when *i*
is even and this checkout (the head) first when *i* is odd.  Both sides
thus share the host and its stretches of host steal, which move whole
runs (``perfbench/README.md``, "Noise and bounds"): a number recorded
on another machine cannot be compared with one measured here.

Metric names, directions and bounds come from this checkout's
``BENCHMARK.json``.  A (workload, metric) regresses when both hold:

* the head median is worse than the base median by more than the
  metric's bound, relative to the base;
* the head is worse in every pair, so one stretch of host steal during
  a single run cannot fail an A/A comparison.

The gate also fails when a head run exits non-zero, lacks a metric the
base reports, or fails a larger share of its operations (summed over
runs) than the base.  A base run that fails is reported and its pair
skipped, so a fix is never blocked by the bug it fixes.  The exit code
is 0 when the gate passes and 1 when it fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: An even number of pairs, so each side runs first equally often.  On a
#: 2-vCPU VM four pairs of 10 s runs take ~10 minutes; with three, an A/A
#: run came within its mirror image of a false alarm (docs/performance.md).
PAIRS = 4
SECONDS = 10
SEED = 1


def load_spec() -> dict:
    """This checkout's ``BENCHMARK.json``: workloads, metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_perfbench(checkout: Path) -> dict:
    """One run of ``checkout``'s benchmark: its exit code and last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])
    return {"exit": proc.returncode, "result": result}


def _succeeded(run: dict) -> bool:
    return run["exit"] == 0 and run["result"] is not None and run["result"]["correct"]


def _failed_share(runs: list[dict]) -> float:
    results = [run["result"] for run in runs if run["result"] is not None]
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 0.0


def decide(spec: dict, pairs: list[tuple[dict, dict]]) -> tuple[list[dict], list[str]]:
    """Judge paired runs; the gate passes when the returned failures are empty.

    ``pairs`` holds one ``(base, head)`` per pair, each side a run as
    :func:`run_perfbench` returns it.  Returns one row per (workload,
    metric) that a usable base run reports, and the failure messages.
    """
    failures = [
        f"pair {index}: head run failed (exit {head['exit']})"
        for index, (_, head) in enumerate(pairs)
        if not _succeeded(head)
    ]
    base_share = _failed_share([base for base, _ in pairs])
    head_share = _failed_share([head for _, head in pairs])
    if head_share > base_share:
        failures.append(
            f"head failed {head_share:.2%} of its operations, base {base_share:.2%}"
        )

    usable = [(base, head) for base, head in pairs if _succeeded(base)]
    rows = []
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = f"{workload['name']}/{metric['name']}"
            values, missing = [], 0
            for base, head in usable:
                if head["result"] is None or key not in base["result"]["metrics"]:
                    continue
                head_metrics = head["result"]["metrics"]
                if key in head_metrics:
                    values.append((base["result"]["metrics"][key]["value"],
                                   head_metrics[key]["value"]))
                else:
                    missing += 1
            if missing:
                failures.append(f"{key}: missing from {missing} head run(s)")
            if not values:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            base_median = statistics.median(b for b, _ in values)
            head_median = statistics.median(h for _, h in values)
            worse = sum(sign * (h - b) > 0 for b, h in values)
            change = (head_median - base_median) / base_median
            regressed = sign * change > metric["bound"] and worse == len(values)
            if regressed:
                failures.append(
                    f"{key}: {base_median:.4g} -> {head_median:.4g} "
                    f"({change:+.1%}, bound {metric['bound']:.0%}, "
                    f"worse in {worse}/{len(values)} pairs)"
                )
            rows.append({
                "workload": workload["name"], "metric": metric["name"],
                "base": base_median, "head": head_median, "change": change,
                "worse": worse, "pairs": len(values), "bound": metric["bound"],
                "verdict": "REGRESSION" if regressed else "ok",
                "ratios": [h / b for b, h in values],
            })
    return rows, failures


def run_pairs(base_checkout: Path) -> list[tuple[dict, dict]]:
    """``PAIRS`` alternating runs of the base checkout and this one."""
    pairs = []
    for index in range(PAIRS):
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        runs = {}
        for side in order:
            start = time.perf_counter()
            runs[side] = run_perfbench(base_checkout if side == "base" else ROOT)
            print(f"pair {index} {side}: exit {runs[side]['exit']} "
                  f"in {time.perf_counter() - start:.0f} s", flush=True)
        pairs.append((runs["base"], runs["head"]))
    return pairs


def _raise_on_sigterm(signum: int, _frame: object) -> None:
    """SIGTERM as ``SystemExit(143)``: ``subprocess.run`` then kills the
    running perfbench child and the ``finally`` removes the worktree."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision to compare this checkout against")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _raise_on_sigterm)
    spec = load_spec()
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        base_checkout = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_checkout), args.base],
            cwd=ROOT, check=True,
        )
        try:
            pairs = run_pairs(base_checkout)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_checkout)],
                cwd=ROOT, check=False,
            )
    for index, (base, _) in enumerate(pairs):
        if not _succeeded(base):
            print(f"pair {index}: base run failed (exit {base['exit']}); pair skipped")
    rows, failures = decide(spec, pairs)

    print(f"{'workload':16s} {'metric':14s} {'base':>10s} {'head':>10s} "
          f"{'change':>8s} {'worse':>6s} {'bound':>6s}  {'verdict':10s} head/base per pair")
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:14s} {row['base']:10.4g} "
              f"{row['head']:10.4g} {row['change']:+8.1%} "
              f"{row['worse']:>2d}/{row['pairs']:<3d} {row['bound']:6.0%}  {row['verdict']:10s} "
              + " ".join(f"{ratio:.3f}" for ratio in row["ratios"]))
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"perf gate {'FAILED' if failures else 'passed'}: {args.base} -> this checkout, "
          f"{PAIRS} pairs x {SECONDS:g} s, seed {SEED}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
