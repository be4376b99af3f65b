"""Job store backends: the shared-directory queue and its guarantees.

The headline invariant is **zero double-claims**: any number of
replicas may race ``claim_next`` on one shared directory, and every
queued job is handed to exactly one of them (``os.replace`` of the
queue marker is the atomic arbiter).  The rest is plumbing that has to
hold for that to matter — monotonic ids across processes, per-job
records readable by every replica, and a manager drain loop that
actually runs what it claims.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.jobs import (
    JobManager,
    JobsConfig,
    JobState,
    JobStore,
    SharedDirectoryBackend,
    SingleProcessBackend,
)
from repro.perf.pool import WorkerPool
from repro.service import encode_video
from repro.video.sequence import VideoSequence


@pytest.fixture()
def store_root(tmp_path):
    return tmp_path / "store"


def _backend(root):
    return SharedDirectoryBackend(root)


class TestSingleProcessBackend:
    def test_is_the_non_shared_default(self, tmp_path):
        backend = SingleProcessBackend()
        assert backend.kind == "single"
        assert not backend.shared
        store = JobStore()
        assert not store.shared
        assert store.backend.kind == "single"

    def test_refuses_shared_operations(self):
        backend = SingleProcessBackend()
        with pytest.raises(ConfigurationError):
            backend.write_job({"id": "j1"})
        with pytest.raises(ConfigurationError):
            backend.enqueue("j1")
        assert backend.claim_next("owner") is None


class TestSharedDirectoryBackend:
    def test_seq_is_monotonic_across_instances(self, store_root):
        first = _backend(store_root)
        second = _backend(store_root)
        seqs = [first.allocate_seq(), second.allocate_seq(),
                first.allocate_seq()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_job_records_are_cross_visible(self, store_root):
        writer = _backend(store_root)
        reader = _backend(store_root)
        writer.write_job({"id": "j1", "state": "submitted"})
        assert reader.read_job("j1") == {"id": "j1", "state": "submitted"}
        assert reader.list_job_ids() == ["j1"]
        reader.remove_job("j1")
        assert writer.read_job("j1") is None
        assert writer.list_job_ids() == []

    def test_read_is_defensive(self, store_root):
        backend = _backend(store_root)
        assert backend.read_job("missing") is None
        (store_root / "jobs" / "bad.json").write_text("{not json")
        assert backend.read_job("bad") is None

    def test_claims_are_fifo_and_exclusive(self, store_root):
        backend = _backend(store_root)
        for job_id in ("j00001-a", "j00002-b", "j00003-c"):
            backend.write_job({"id": job_id})
            backend.enqueue(job_id)
        assert backend.claim_next("alice") == "j00001-a"
        assert backend.claim_next("bob") == "j00002-b"
        assert backend.claim_owner("j00001-a") == "alice"
        assert backend.claim_owner("j00002-b") == "bob"
        assert backend.queued_ids() == ["j00003-c"]
        assert backend.claim_next("carol") == "j00003-c"
        assert backend.claim_next("dave") is None

    def test_contended_claims_never_double_assign(self, store_root):
        """Many threads over two replicas: every job claimed exactly once."""
        jobs = [f"j{i:05d}-x" for i in range(40)]
        setup = _backend(store_root)
        for job_id in jobs:
            setup.write_job({"id": job_id})
            setup.enqueue(job_id)

        replicas = [_backend(store_root) for _ in range(2)]
        claims: list[tuple[str, str]] = []
        lock = threading.Lock()

        def drain(replica: SharedDirectoryBackend, owner: str) -> None:
            while True:
                job_id = replica.claim_next(owner)
                if job_id is None:
                    return
                with lock:
                    claims.append((owner, job_id))

        threads = [
            threading.Thread(target=drain, args=(replica, f"owner-{i}"))
            for i, replica in enumerate(replicas)
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        claimed_ids = [job_id for _, job_id in claims]
        assert sorted(claimed_ids) == jobs  # all claimed, none twice
        assert setup.queued_ids() == []


class TestSharedJobStore:
    def _store(self, root):
        return JobStore(backend=_backend(root))

    def test_create_is_visible_to_other_replicas(self, store_root):
        a = self._store(store_root)
        b = self._store(store_root)
        payload = a.create("deadbeef00", seed=7)
        job_id = payload["id"]
        seen = b.payload(job_id)
        assert seen is not None
        assert seen["state"] == JobState.SUBMITTED
        assert seen["seed"] == 7

    def test_ids_sort_in_submission_order(self, store_root):
        store = self._store(store_root)
        ids = [store.create("d" * 10)["id"] for _ in range(3)]
        assert ids == sorted(ids)

    def test_enqueue_claim_adopt_roundtrip(self, store_root):
        a = self._store(store_root)
        b = self._store(store_root)
        job_id = a.create("deadbeef00")["id"]
        a.enqueue(job_id)
        assert b.claim_next("replica-b") == job_id
        adopted = b.adopt(job_id)
        assert adopted is not None and adopted["id"] == job_id
        # Adoption makes the job locally owned: replica B can run it.
        assert b.mark_running(job_id)
        assert a.payload(job_id)["state"] == JobState.RUNNING

    def test_cancel_of_queued_job_wins_over_late_claim(self, store_root):
        a = self._store(store_root)
        b = self._store(store_root)
        job_id = a.create("deadbeef00")["id"]
        a.enqueue(job_id)
        state = b.request_cancel(job_id)
        assert state == JobState.CANCELLED
        # The queue marker may still exist; a claimer must notice the
        # terminal record and skip the job instead of running it.
        claimed = a.claim_next("replica-a")
        if claimed is not None:
            adopted = a.adopt(claimed)
            assert adopted["state"] == JobState.CANCELLED
            assert not a.mark_running(claimed)

    def test_backend_and_persist_path_are_exclusive(self, store_root):
        with pytest.raises(ConfigurationError):
            JobStore(persist_path="x.json", backend=_backend(store_root))


class TestJobsConfigValidation:
    def test_store_dir_requires_checkpoint_dir(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            JobsConfig(store_dir=str(tmp_path / "store"))

    def test_store_dir_excludes_persist_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="mutually"):
            JobsConfig(
                store_dir=str(tmp_path / "store"),
                checkpoint_dir=str(tmp_path / "ckpt"),
                persist_path=str(tmp_path / "jobs.json"),
            )

    def test_drain_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="drain_interval"):
            JobsConfig(
                store_dir=str(tmp_path / "store"),
                checkpoint_dir=str(tmp_path / "ckpt"),
                store_drain_interval_seconds=0.0,
            )


class StubAnalyzer:
    def analyze(self, video, annotation=None, seed=0, **kwargs):
        return {"frames": len(video), "seed": seed}


def _shared_manager(tmp_path) -> JobManager:
    config = JobsConfig(
        store_dir=str(tmp_path / "store"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    return JobManager(
        config, pool=WorkerPool(2), serializer=lambda analysis: dict(analysis)
    )


def _wait_terminal(store: JobStore, job_ids, timeout: float = 30.0):
    import time

    deadline = time.time() + timeout
    while time.time() < deadline:
        payloads = {job_id: store.payload(job_id) for job_id in job_ids}
        if all(
            p is not None and p["state"] in JobState.TERMINAL
            for p in payloads.values()
        ):
            return payloads
        time.sleep(0.05)
    raise AssertionError(f"jobs not terminal after {timeout}s: {payloads}")


class TestTwoManagerDrain:
    def test_two_replicas_drain_one_queue(self, tmp_path):
        """Ten jobs, two managers: every job runs exactly once."""
        video = VideoSequence(np.zeros((4, 16, 16, 3)))
        a = _shared_manager(tmp_path)
        b = _shared_manager(tmp_path)
        try:
            job_ids = [
                a.submit_analysis(
                    StubAnalyzer(), video, seed=i, video_npz_b64=encode_video(video)
                )["id"]
                for i in range(10)
            ]
            factory = lambda degradation=None: StubAnalyzer()  # noqa: E731
            # Alternate manual drains: deterministic interleaving.
            claimed_by = {}
            for _ in range(30):
                for manager, label in ((a, "a"), (b, "b")):
                    job_id = manager.drain_once(factory)
                    if job_id is not None:
                        assert job_id not in claimed_by, "double claim!"
                        claimed_by[job_id] = label
                if len(claimed_by) == len(job_ids):
                    break
            assert sorted(claimed_by) == sorted(job_ids)
            assert set(claimed_by.values()) == {"a", "b"}

            payloads = _wait_terminal(a.store, job_ids)
            assert all(
                p["state"] == JobState.SUCCEEDED for p in payloads.values()
            )
            # Results are readable from the replica that did NOT run them.
            for job_id, label in claimed_by.items():
                other = b if label == "a" else a
                result = other.store.payload(job_id, include_result=True)
                assert result["result"]["frames"] == 4
            assert a.stats()["claimed"] + b.stats()["claimed"] == 10
        finally:
            a.close()
            b.close()

    def test_background_drain_thread(self, tmp_path):
        video = VideoSequence(np.zeros((4, 16, 16, 3)))
        manager = _shared_manager(tmp_path)
        try:
            factory = lambda degradation=None: StubAnalyzer()  # noqa: E731
            assert manager.start_drain(factory)
            assert not manager.start_drain(factory)  # already running
            job_ids = [
                manager.submit_analysis(
                    StubAnalyzer(), video, seed=i, video_npz_b64=encode_video(video)
                )["id"]
                for i in range(3)
            ]
            payloads = _wait_terminal(manager.store, job_ids)
            assert all(
                p["state"] == JobState.SUCCEEDED for p in payloads.values()
            )
        finally:
            manager.close()

    def test_non_shared_manager_has_no_drain(self, tmp_path):
        config = JobsConfig()
        manager = JobManager(
            config,
            pool=WorkerPool(1),
            serializer=lambda analysis: dict(analysis),
        )
        try:
            assert not manager.start_drain(lambda degradation=None: None)
            assert manager.drain_once(lambda degradation=None: None) is None
        finally:
            manager.close()
