"""Tests for the perf runtime pieces: executors, cache, merging."""

import dataclasses
import threading

import pytest

from repro.errors import ConfigurationError
from repro.perf.cache import AnalyzerCache
from repro.perf import executors
from repro.perf.executors import BACKENDS, ParallelConfig, parallel_map
from repro.pipeline import AnalyzerConfig
from repro.runtime import Instrumentation


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"worker refused item {value}")


class TestParallelConfig:
    def test_rejects_unknown_backend(self):
        # The removed "processes" backend is refused like any unknown name.
        for backend in ("fibers", "processes"):
            with pytest.raises(ConfigurationError, match=backend):
                ParallelConfig(backend=backend)

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ParallelConfig(workers=0)

    def test_pool_size_never_exceeds_items(self, monkeypatch):
        monkeypatch.setattr(executors, "available_cpus", lambda: 16)
        config = ParallelConfig(backend="threads", workers=8)
        assert config.pool_size(3) == 3
        assert config.pool_size(100) == 8

    def test_pool_size_capped_at_available_cpus(self, monkeypatch):
        monkeypatch.setattr(executors, "available_cpus", lambda: 2)
        config = ParallelConfig(backend="threads", workers=8)
        assert config.pool_size(100) == 2

    def test_serial_detection(self):
        assert ParallelConfig().is_serial
        assert ParallelConfig(backend="threads", workers=1).is_serial
        assert not ParallelConfig(backend="threads", workers=2).is_serial


class TestParallelMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preserves_input_order(self, backend):
        config = ParallelConfig(backend=backend, workers=3)
        items = list(range(23))
        assert parallel_map(_square, items, config) == [i * i for i in items]

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_worker_exception_propagates(self, backend):
        config = ParallelConfig(backend=backend, workers=2)
        with pytest.raises(ValueError, match="refused item"):
            parallel_map(_boom, [1, 2, 3], config)


class TestInstrumentationMerge:
    def test_merge_folds_spans_calls_and_counters(self):
        parent = Instrumentation()
        with parent.span("shared"):
            pass
        parent.count("frames", 2)

        worker = Instrumentation()
        with worker.span("shared"):
            pass
        with worker.span("worker_only"):
            pass
        worker.count("frames", 3)
        worker.count("pixels", 10)

        parent.merge(worker)
        timings = {t.name: t for t in parent.timings()}
        assert timings["shared"].calls == 2
        assert timings["worker_only"].calls == 1
        assert parent.counter("frames") == 5
        assert parent.counter("pixels") == 10
        assert parent.seconds("shared") >= timings["worker_only"].seconds * 0

    def test_parallel_segmentation_keeps_sub_spans(self):
        from repro.segmentation.pipeline import SegmentationPipeline
        from repro.video.synthesis import (
            JumpParameters,
            SyntheticJumpConfig,
            synthesize_jump,
        )

        jump = synthesize_jump(
            SyntheticJumpConfig(seed=1, params=JumpParameters(num_frames=5))
        )
        instrumentation = Instrumentation()
        pipeline = SegmentationPipeline(
            instrumentation=instrumentation,
            parallel=ParallelConfig(backend="threads", workers=2),
        )
        pipeline.segment_video(jump.video)
        names = {t.name for t in instrumentation.timings()}
        assert "segmentation/subtract" in names
        assert "segmentation/parallel_frames" in names
        assert instrumentation.counter("segmentation.frames") == 5


class TestAnalyzerCache:
    def _config(self, max_points=1500):
        base = AnalyzerConfig()
        return dataclasses.replace(
            base,
            tracker=dataclasses.replace(
                base.tracker,
                fitness=dataclasses.replace(
                    base.tracker.fitness, max_points=max_points
                ),
            ),
        )

    def test_hit_miss_and_identity(self):
        built = []

        def factory(config):
            built.append(config)
            return object()

        cache = AnalyzerCache(factory, capacity=4)
        first = cache.get(self._config())
        second = cache.get(self._config())
        assert first is second
        assert len(built) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_eviction_at_capacity(self):
        cache = AnalyzerCache(lambda config: object(), capacity=2)
        a = cache.get(self._config(100))
        cache.get(self._config(200))
        cache.get(self._config(300))  # evicts the 100-point entry
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["size"] == 2
        assert cache.get(self._config(100)) is not a  # rebuilt

    def test_parallel_block_separates_entries(self):
        """Same config hash, different backend: distinct cache slots."""
        cache = AnalyzerCache(lambda config: object(), capacity=4)
        serial = self._config()
        threaded = dataclasses.replace(
            serial, parallel=ParallelConfig(backend="threads", workers=4)
        )
        assert cache.key_for(serial) != cache.key_for(threaded)
        assert cache.get(serial) is not cache.get(threaded)

    def test_concurrent_gets_share_one_instance(self):
        cache = AnalyzerCache(lambda config: object(), capacity=2)
        config = self._config()
        seen = []

        def worker():
            seen.append(cache.get(config))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(entry) for entry in seen}) == 1

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            AnalyzerCache(lambda config: object(), capacity=0)
