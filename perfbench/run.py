#!/usr/bin/env python3
"""The repository's benchmark: three closed-loop workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload jump_analyze --seed 1 --seconds 20 --trace 0

``--workload`` is ``jump_analyze``, ``vga_jump_jobs``, ``two_actor_live``
or ``all`` (each workload in turn, in its own process).  Each run
builds the workload from ``src/``, synthesises its inputs from
``--seed``, discards one warm-up operation and then runs operations
back to back for ``--seconds`` seconds, checking every output.

The report ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the
end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` the
run measures an untraced phase, then installs the span recorder
(``tracer.py``) and measures a traced phase of the same length, and
the metrics are the per-layer metrics listed there.  The lines before
it print every metric the workload has, with unit and sample count,
and the run metadata.  The exit code is 0 only when every output
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("jump_analyze", "vga_jump_jobs", "two_actor_live")
#: ``setup_s`` is the median of the main process's set-up and this
#: many fresh child processes doing the same set-up.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` (compiled once)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    import compileall

    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    sys.path.insert(0, str(SRC))


def _check_imported_source() -> None:
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def _child(*arguments: str) -> dict:
    """Run this script in a child process; return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {arguments} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _timed_phase(workload, seconds: float, recorder=None):
    """Closed loop: run units back to back until ``seconds`` elapse."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.run_unit(recorder))
    return units, time.perf_counter() - start


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _frames_per_s(units, elapsed: float) -> float:
    return sum(u.frames for u in units if not u.failures) / elapsed


def _line(name: str, value, unit: str, note: str = "") -> None:
    shown = "absent" if value is None else f"{value:.6g}"
    print(f"  {name:32s} {shown:>12s} {unit:6s} {note}")


def run_workload(args) -> int:
    _use_checkout_source()
    start = time.perf_counter()
    from workloads import WORKLOADS  # imports repro

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setups = [time.perf_counter() - start]
    try:
        return _measure(args, workload, setups)
    finally:
        workload.close()


def _measure(args, workload, setups: list[float]) -> int:
    import hostinfo

    _check_imported_source()
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(
                _child("--probe-setup", "--workload", args.workload)["setup_s"]
            )
    workload.load(
        _child("--emit-inputs", "--workload", args.workload, "--seed", str(args.seed))
    )
    calibration_before = hostinfo.calibration_seconds()
    warm_up = workload.run_unit()
    jiffies = hostinfo.cpu_jiffies()
    units, elapsed = _timed_phase(workload, args.seconds)
    steal = hostinfo.steal_fraction(jiffies, hostinfo.cpu_jiffies())

    layer = None
    if args.trace:
        layer = _traced_phase(args, workload, units, elapsed)
    calibration_after = hostinfo.calibration_seconds()

    checked = [warm_up] + units + (layer["units"] if layer else [])
    attempted = sum(u.ops for u in checked)
    failed = sum(u.failures for u in checked)
    errors = sorted({e for u in checked for e in u.errors})
    correct = failed == 0

    meta = {
        **hostinfo.machine(),
        "config_hash": warm_up.config_hash,
        "steal_frac": steal,
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "seconds": args.seconds,
        "unit_latencies_s": [round(sum(u.latencies), 4) for u in units],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for error in errors:
        print(f"  check failed: {error}")

    spec = _benchmark_spec()
    if args.trace:
        correct = correct and layer["consistent"]
        wanted = spec["per_layer"]
        metrics = layer["metrics"]
    else:
        wanted = spec["end_to_end"]
        metrics = _end_to_end(workload, units, elapsed, setups, attempted, failed)
    result = {}
    for entry in wanted:
        if entry["name"] not in metrics:
            print(f"  missing metric {entry['name']}", file=sys.stderr)
            correct = False
            continue
        result[entry["name"]] = {
            "value": metrics[entry["name"]]["value"],
            "unit": entry["unit"],
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0 if correct else 1


def _end_to_end(workload, units, elapsed, setups, attempted, failed) -> dict:
    latencies = [lat for u in units for lat in u.latencies]
    qualities = [u.quality for u in units if u.quality is not None]
    live = workload.name == "two_actor_live"
    latency_name = "frame_latency" if live else "latency"
    metrics = {
        "frames_per_s": {"value": _frames_per_s(units, elapsed), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    if latencies:  # none when every operation failed
        metrics["latency_p50_s"] = {"value": statistics.median(latencies), "unit": "s"}
    frames = sum(u.frames for u in units if not u.failures)
    _line(f"{latency_name}_p50_s", statistics.median(latencies) if latencies else None, "s",
          f"n={len(latencies)}")
    if live:
        _line("frame_latency_p90_s", _p90(latencies) if latencies else None, "s",
              f"n={len(latencies)}")
    _line("frames_per_s", metrics["frames_per_s"]["value"], "1/s",
          f"n={frames} frames in {elapsed:.1f} s")
    _line("setup_s", metrics["setup_s"]["value"], "s", f"n={len(setups)}")
    _line("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", "n=1")
    _line("error_rate", failed / attempted if attempted else None, "frac",
          f"n={attempted}")
    _line(workload.quality_name, statistics.median(qualities) if qualities else None,
          "deg" if workload.quality_name == "pose_err_deg" else "frac",
          f"n={len(qualities)} outputs, identical input")
    return metrics


def _traced_phase(args, workload, untraced_units, untraced_elapsed) -> dict:
    """Repeat the timed phase with every layer wrapped by the recorder."""
    import layers
    import tracer

    recorder = tracer.SpanRecorder()
    http = hasattr(workload, "cache_stats")
    cache_before = workload.cache_stats() if http else None
    installation = tracer.install(recorder, getattr(workload, "handle", None))
    try:
        units, elapsed = _timed_phase(workload, args.seconds, recorder)
    finally:
        installation.undo()
    if http:
        cache_after = workload.cache_stats()
        hits = cache_after["hits"] - cache_before["hits"]
        lookups = hits + cache_after["misses"] - cache_before["misses"]
        for unit in units:
            unit.extra["service.cache_hit_frac"] = hits / lookups if lookups else 0.0

    metrics = layers.layer_metrics(
        [layers.Unit(u.records, u.ops, u.extra) for u in units]
    )
    metrics["trace.overhead_frac"] = {
        "value": 1.0 - _frames_per_s(units, elapsed)
        / _frames_per_s(untraced_units, untraced_elapsed),
        "unit": "frac",
    }

    # The traced outputs must equal the untraced ones exactly.
    expected = {(u.fingerprint, u.quality) for u in untraced_units}
    observed = {(u.fingerprint, u.quality) for u in units}
    same_outputs = len(expected) == 1 and observed == expected
    records = [r for u in units for r in u.records]
    residual = max(
        (abs(r.wall - r.root_self - r.blocking_self) for r in records), default=0.0
    )
    min_self = min((r.min_self for r in records), default=0.0)

    print("  per-layer metrics (absent: the layer does not run here)")
    for metric in layers.METRICS:
        entry = metrics.get(metric.name)
        _line(metric.name, entry and entry["value"], metric.unit)
    _line("trace.overhead_frac", metrics["trace.overhead_frac"]["value"], "frac")
    if "ga.frame_s" in metrics:
        parts = sum(metrics[name]["value"] for name in layers.GA_FRAME_PARTS
                    if name in metrics)
        _line("ga.frame_s - its parts", metrics["ga.frame_s"]["value"] - parts, "s",
              "0 when the split is complete")
    _line("trace.unattributed_s", residual, "s", "max over operations")
    _line("trace.min_self_s", min_self, "s", "negative = overlapping spans")
    _line("traced outputs == untraced", float(same_outputs), "bool",
          f"{workload.quality_name} {sorted(q for _, q in observed)}")
    print("report " + json.dumps({
        "metrics": metrics,
        "residual_s": residual,
        "min_self_s": min_self,
        "same_outputs": same_outputs,
    }, sort_keys=True))
    return {"metrics": metrics, "units": units, "consistent": same_outputs}


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child-process modes used by the run itself.
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--emit-inputs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        _use_checkout_source()
        start = time.perf_counter()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        workload.setup()
        elapsed = time.perf_counter() - start
        workload.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.emit_inputs:
        _use_checkout_source()
        from workloads import WORKLOADS

        print(json.dumps(WORKLOADS[args.workload].make_inputs(args.seed)))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
