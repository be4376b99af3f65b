"""Performance layer: execution backends, the analyzer cache and the worker pool.

``repro.perf`` owns everything about *how fast* the pipeline runs and
nothing about *what* it computes: switching the
:class:`~repro.perf.executors.ParallelConfig` backend or reusing an
analyzer from the :class:`~repro.perf.cache.AnalyzerCache` never changes
a numeric result (``tests/test_perf_parity.py`` enforces this).

Submodules
----------
``executors``
    :class:`ParallelConfig` (``serial`` / ``threads``) and
    :func:`parallel_map`, the per-frame fan-out of segmentation.
``cache``
    :class:`AnalyzerCache`, an LRU keyed by config hash so repeated
    service requests stop rebuilding :class:`~repro.pipeline.JumpAnalyzer`.
``pool``
    :class:`WorkerPool`, the counted bounded thread pool shared by the
    synchronous service path, the batch fan-out and the async job
    subsystem (:mod:`repro.jobs`).

The repository's benchmark is ``perfbench/`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

from .cache import AnalyzerCache
from .executors import BACKENDS, ParallelConfig, parallel_map
from .pool import WorkerPool

__all__ = [
    "AnalyzerCache",
    "BACKENDS",
    "ParallelConfig",
    "WorkerPool",
    "parallel_map",
]
