"""Execution backends for embarrassingly parallel per-frame work.

:func:`parallel_map` is the fan-out behind frame segmentation (Steps
2–5 run on each frame independently).  The contract is strict so
callers never need backend-specific code:

* results come back in input order;
* an exception in any worker propagates to the caller;
* the ``serial`` backend (and any degenerate pool) runs everything
  in-process, byte-for-byte equivalent to a plain list comprehension.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError

#: Recognised values of :attr:`ParallelConfig.backend`.
BACKENDS = ("serial", "threads")


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host; a container or ``taskset`` can
    pin the process to fewer.  Pool sizing uses this number: starting
    more CPU-bound workers than schedulable CPUs only buys context
    switching.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """How per-frame fan-out executes.

    This is an *execution* knob, not a model knob: both backends
    produce numerically identical results (``tests/test_perf_parity.py``
    proves byte-identical analysis serialisations), so it is excluded
    from :func:`~repro.config.config_hash`.

    ``threads`` suits the numpy-dominated kernels here: they release
    the GIL, so frames segment concurrently in one process.
    """

    backend: str = "serial"
    workers: int = 4

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"parallel backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    def pool_size(self, num_items: int) -> int:
        """Workers actually worth starting for ``num_items`` tasks.

        Capped at :func:`available_cpus`: on a CPU-bound fan-out, more
        workers than schedulable CPUs is pure context-switch overhead.
        When this returns 1, :func:`parallel_map` skips the pool
        entirely and runs in-process.
        """
        return max(1, min(self.workers, available_cpus(), num_items))

    @property
    def is_serial(self) -> bool:
        """True when no pool would be created."""
        return self.backend == "serial" or self.workers <= 1


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    config: ParallelConfig | None = None,
) -> list[Any]:
    """Ordered ``[fn(item) for item in items]`` under ``config``'s backend.

    Degenerates to in-process execution for the serial backend, one
    worker, at most one item, or a pool capped to one worker by
    :meth:`ParallelConfig.pool_size`.
    """
    work = list(items)
    cfg = config or ParallelConfig()
    workers = cfg.pool_size(len(work))
    if cfg.is_serial or workers <= 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-map"
    ) as pool:
        return list(pool.map(fn, work))
