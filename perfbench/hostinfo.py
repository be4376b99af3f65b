"""Run metadata for explaining a disagreeing pair of runs.

These values are recorded beside the metrics and never used to
rescale them.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Any

import numpy as np


def cpu_jiffies() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(value) for value in fields[1:9]]


def steal_fraction(before: list[int] | None, after: list[int] | None) -> float | None:
    """Host steal time as a fraction of all CPU time between two reads."""
    if before is None or after is None:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total else None


def calibration_seconds(repeats: int = 3) -> float:
    """Median duration of a fixed numpy loop (sort, exp, matmul)."""
    rng = np.random.default_rng(0)
    base = rng.random((300, 300))
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        matrix = base
        for _ in range(60):
            matrix = np.sort(matrix, axis=1)
            matrix = np.exp(-matrix) @ matrix.T / 300.0
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def machine() -> dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
