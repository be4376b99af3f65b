"""The crash-safe lifecycle: spool re-runs, watchdog, breaker, drain.

Covers the :mod:`repro.resilience` primitives plus their wiring into
the job subsystem and the service:

* a job killed mid-run is re-run from its input spool after a restart
  and lands on a payload identical to an uninterrupted run (modulo the
  wall-clock trace), whatever point it was killed at;
* the store restores restart survivors as resumable instead of failing
  them, keeping the no-spool ``Interrupted`` fallback;
* the watchdog reaps wedged jobs without leaking pool slots, and loses
  races against normal completion cleanly (``finish`` is a no-op on
  terminal jobs — no state flips, ever);
* the circuit breaker walks closed → open → half-open → closed;
* drain refuses new work over HTTP while in-flight jobs finish;
* the client honours ``Retry-After`` with capped, jittered backoff on
  idempotent requests only.
"""

from __future__ import annotations

import base64
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import RetryPolicy, ServiceClient, ServiceError
from repro.config import config_hash, config_to_dict, resolve_config
from repro.errors import CircuitOpen, ReproError
from repro.faults.ops import _wait_for
from repro.jobs import JobManager, JobsConfig, JobState, JobStore
from repro.jobs.stream import FrameQueue, StreamIdleTimeout
from repro.jobs.worker import JobWorkerPool
from repro.perf.pool import WorkerPool
from repro.pipeline import AnalyzerConfig, JumpAnalyzer, multi_actor_config
from repro.resilience import (
    CircuitBreaker,
    ServiceLifecycle,
    Watchdog,
    has_spool,
    spool_input,
)
from repro.runtime import Instrumentation
from repro.serialization import analysis_payload, annotation_to_dict
from repro.service import encode_video
from repro.model.annotation import simulate_human_annotation
from repro.video.sequence import VideoSequence


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _SimulatedKill(BaseException):
    """BaseException so it tunnels through recovery like a real kill."""


class KillAt:
    """Instrumentation sink raising :class:`_SimulatedKill` at one point.

    Sinks emit synchronously, inside the run: ``("span", name)`` kills
    as the first span of that name closes, ``("stage_start", stage)``
    as the runner starts that stage.
    """

    def __init__(self, kind: str, name: str) -> None:
        self._kind = kind
        self._name = name

    def emit(self, event) -> None:
        if self._kind == "span":
            hit = event.kind == "span" and event.name == self._name
        else:
            hit = (
                event.kind == "event"
                and event.name == "runtime/stage_start"
                and event.field_dict().get("stage") == self._name
            )
        if hit:
            raise _SimulatedKill(f"{self._kind} {self._name}")


#: Where a crash interrupts the run: with segmentation done, one GA
#: frame into tracking, and with tracking done.
KILL_POINTS = {
    "segmentation_span": ("span", "segmentation"),
    "first_tracking_frame": ("span", "tracking/frame"),
    "scoring_start": ("stage_start", "scoring"),
}


def _setup(analyzer, video, annotation):
    """One recovery scenario's inputs and its uninterrupted payload."""
    reference = analysis_payload(
        analyzer.analyze(video, annotation=annotation, rng=np.random.default_rng(5))
    )
    reference.pop("trace", None)
    return {
        "analyzer": analyzer,
        "video": video,
        "annotation": annotation,
        "reference": reference,
        "hash": config_hash(config_to_dict(analyzer.config)),
    }


@pytest.fixture(scope="module")
def fast_config():
    return resolve_config(preset="fast")


@pytest.fixture(scope="module")
def fast_setup(fast_config):
    """Analyzer + annotated synthetic jump + reference payload."""
    from repro.video.synthesis import SyntheticJumpConfig, synthesize_jump

    jump = synthesize_jump(SyntheticJumpConfig(seed=5))
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(5),
    )
    return _setup(JumpAnalyzer(fast_config), jump.video, annotation)


@pytest.fixture(scope="module")
def two_actor_setup(fast_config):
    """The ``fast`` preset tracking two jumpers, no annotation."""
    from repro.video.synthesis import MultiActorJumpConfig, synthesize_multi_jump

    scene = synthesize_multi_jump(MultiActorJumpConfig(seed=0, actors=2))
    analyzer = JumpAnalyzer(multi_actor_config(fast_config, actors=2))
    return _setup(analyzer, scene.video, None)


def _spool_batch(directory, job_id: str, setup) -> None:
    """Spool ``setup``'s job as the service does at submit time."""
    annotation = setup["annotation"]
    spool_input(
        directory,
        job_id,
        mode="batch",
        seed=5,
        config=config_to_dict(setup["analyzer"].config),
        annotation=None if annotation is None else annotation_to_dict(annotation),
        archive=base64.b64decode(encode_video(setup["video"])),
    )


def _rerun_factory(config_dict):
    """What the service does with a spooled config: rebuild the analyzer."""
    return JumpAnalyzer(AnalyzerConfig.from_dict(config_dict))


# ----------------------------------------------------------------------
# Input spools
# ----------------------------------------------------------------------
class TestSpool:
    def test_spool_presence_is_the_resume_predicate(self, tmp_path):
        assert not has_spool(tmp_path, "job-9")
        archive = base64.b64decode(
            encode_video(VideoSequence(np.zeros((2, 4, 4, 3))))
        )
        spool_input(tmp_path, "job-9", mode="batch", seed=3, config=None,
                    annotation=None, archive=archive)
        assert has_spool(tmp_path, "job-9")
        assert (tmp_path / "job-9" / "input.npz").read_bytes() == archive


# ----------------------------------------------------------------------
# Store restore semantics
# ----------------------------------------------------------------------
class TestStoreResume:
    def _crashed_store(self, tmp_path):
        persist = tmp_path / "jobs.json"
        store = JobStore(persist_path=str(persist))
        payload = store.create("d" * 10, seed=1, config_hash="h")
        store.mark_running(payload["id"])
        return persist, payload["id"]

    def test_resumable_job_requeues_as_submitted(self, tmp_path):
        persist, job_id = self._crashed_store(tmp_path)
        store = JobStore(
            persist_path=str(persist), resumable=lambda _job_id: True
        )
        payload = store.payload(job_id)
        assert payload["state"] == JobState.SUBMITTED
        assert payload["resumed"] is True
        assert store.resumed_count == 1
        assert [p["id"] for p in store.queued_jobs()] == [job_id]

    def test_without_spool_falls_back_to_interrupted(self, tmp_path):
        persist, job_id = self._crashed_store(tmp_path)
        store = JobStore(persist_path=str(persist))
        payload = store.payload(job_id)
        assert payload["state"] == JobState.FAILED
        assert payload["error"]["type"] == "Interrupted"

    def test_finish_is_a_noop_on_terminal_jobs(self, tmp_path):
        store = JobStore()
        payload = store.create("d" * 10)
        job_id = payload["id"]
        store.mark_running(job_id)
        assert store.finish(job_id, JobState.SUCCEEDED, result={"ok": 1})
        # The losing side of any race (watchdog, idle timeout, late
        # error) must not flip a finished job.
        assert not store.finish(
            job_id, JobState.FAILED, error={"type": "WatchdogTimeout"}
        )
        assert store.payload(job_id)["state"] == JobState.SUCCEEDED


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
class WedgedAnalyzer:
    STAGES = ("segmentation",)

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def analyze(self, video, annotation=None, rng=None,
                instrumentation=None, cancel_token=None):
        self.entered.set()
        self.release.wait(10)
        raise ReproError("released")


class TestWatchdog:
    def test_reap_fails_job_and_reclaims_slot(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        pool = WorkerPool(1, thread_name_prefix="wd-test")
        workers = JobWorkerPool(pool, store, serializer=lambda a: {"ok": 1})
        wedged = WedgedAnalyzer()
        payload = store.create("d" * 10)
        job_id = payload["id"]
        workers.submit(job_id, wedged, video=object())
        assert wedged.entered.wait(5)

        # Under the deadline: nothing reaped.
        clock.advance(1.0)
        assert workers.reap_overdue(5.0) == []

        clock.advance(10.0)
        assert workers.reap_overdue(5.0) == [job_id]
        final = store.payload(job_id)
        assert final["state"] == JobState.FAILED
        assert final["error"]["type"] == "WatchdogTimeout"
        assert pool.stats()["reclaimed"] == 1
        assert workers.watchdog_timeouts == 1
        # Idempotent: the zombie is only reaped once.
        assert workers.reap_overdue(5.0) == []

        # The reclaimed slot actually runs new work.
        done = threading.Event()
        pool.submit(done.set)
        assert done.wait(5)

        # Zombie exit returns the extra slot: zero leaks.
        wedged.release.set()
        deadline = threading.Event()
        for _ in range(100):
            if pool.stats()["reclaimed"] == 0 and workers.active() == 0:
                break
            deadline.wait(0.05)
        assert pool.stats()["reclaimed"] == 0
        assert workers.active() == 0
        pool.shutdown(wait=True)

    def test_watchdog_thread_lifecycle(self):
        class CountingWorker:
            def __init__(self):
                self.calls = 0

            def reap_overdue(self, deadline):
                self.calls += 1
                return []

        worker = CountingWorker()
        dog = Watchdog(worker, deadline_seconds=1.0, interval_seconds=0.01)
        assert dog.enabled
        dog.start()
        for _ in range(100):
            if worker.calls:
                break
            threading.Event().wait(0.01)
        dog.stop()
        assert worker.calls >= 1
        assert not Watchdog(worker, deadline_seconds=0.0).enabled


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_walks_closed_open_half_open_closed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=2, cooldown_seconds=10.0, clock=clock
        )
        breaker.check("cfg")  # closed: no-op
        breaker.record_failure("cfg")
        breaker.check("cfg")  # one failure: still closed
        breaker.record_failure("cfg")
        with pytest.raises(CircuitOpen) as exc_info:
            breaker.check("cfg")
        assert 0 < exc_info.value.retry_after <= 10.0
        assert breaker.snapshot()["trips"] == 1

        clock.advance(11.0)
        breaker.check("cfg")  # half-open: exactly one probe admitted
        with pytest.raises(CircuitOpen):
            breaker.check("cfg")  # concurrent second caller still refused
        breaker.record_success("cfg")
        breaker.check("cfg")  # closed again
        assert breaker.snapshot()["open"] == []

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=1, cooldown_seconds=5.0, clock=clock
        )
        breaker.record_failure("cfg")
        clock.advance(6.0)
        breaker.check("cfg")  # probe
        breaker.record_failure("cfg")  # probe failed: reopen
        with pytest.raises(CircuitOpen):
            breaker.check("cfg")
        assert breaker.snapshot()["trips"] == 2

    def test_disabled_breaker_never_trips(self):
        breaker = CircuitBreaker(threshold=0)
        for _ in range(50):
            breaker.record_failure("cfg")
        breaker.check("cfg")
        assert breaker.snapshot()["enabled"] is False

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=5.0)
        breaker.record_failure("bad-config")
        with pytest.raises(CircuitOpen):
            breaker.check("bad-config")
        breaker.check("good-config")  # untouched key stays closed


# ----------------------------------------------------------------------
# Idle-timeout vs eof race
# ----------------------------------------------------------------------
class CueTimeoutQueue(FrameQueue):
    """``get`` blocks on a cue, then raises the idle timeout — modelling
    a timeout that fires in the same instant ``eof`` lands."""

    def __init__(self, cue: threading.Event) -> None:
        super().__init__(8)
        self._cue = cue

    def get(self, timeout=None):
        self._cue.wait(10)
        raise StreamIdleTimeout("idle past the deadline")


class StubStream:
    def push_frame(self, frame):
        from types import SimpleNamespace

        return SimpleNamespace(
            frames_seen=1, phase=None, pose_box=None, provisional=None
        )

    def finish(self):
        return {"ok": True}


class StubStreamAnalyzer:
    STAGES = ("segmentation",)

    def open_stream(self, annotation=None, rng=None, instrumentation=None,
                    cancel_token=None):
        return StubStream()


class TestIdleTimeoutEofRace:
    def test_timeout_firing_at_eof_yields_one_terminal_state(self):
        """Timeout wins the photo finish: exactly one terminal state,
        the queue is closed, no slot leaks, and a late ``eof`` is a
        clean structured refusal."""
        store = JobStore()
        pool = WorkerPool(1, thread_name_prefix="race-test")
        workers = JobWorkerPool(pool, store, serializer=lambda a: dict(a))
        cue = threading.Event()
        queue = CueTimeoutQueue(cue)
        payload = store.create("d" * 10, mode="stream")
        job_id = payload["id"]
        workers.submit_stream(job_id, StubStreamAnalyzer(), queue)

        # eof lands... and the idle timer fires in the same instant.
        store.mark_eof(job_id)
        queue.close()
        cue.set()

        for _ in range(200):
            if (store.payload(job_id) or {})["state"] in JobState.TERMINAL:
                break
            threading.Event().wait(0.01)
        final = store.payload(job_id)
        assert final["state"] == JobState.FAILED
        assert final["error"]["type"] == "StreamIdleTimeout"
        # Exactly one terminal transition: a second resolution attempt
        # (either side of the race re-firing) is a no-op.
        assert not store.finish(job_id, JobState.SUCCEEDED, result={})
        assert store.payload(job_id)["state"] == JobState.FAILED
        for _ in range(200):
            if workers.active() == 0:
                break
            threading.Event().wait(0.01)
        assert workers.active() == 0
        assert pool.stats()["reclaimed"] == 0
        assert queue.closed
        pool.shutdown(wait=True)

    def test_finish_beating_timeout_is_never_flipped(self):
        """Opposite interleaving: the stream finishes first; the late
        idle-timeout (or watchdog) loses and cannot flip the state."""
        store = JobStore()
        pool = WorkerPool(1, thread_name_prefix="race-test2")
        workers = JobWorkerPool(pool, store, serializer=lambda a: dict(a))
        queue = FrameQueue(8)
        payload = store.create("d" * 10, mode="stream")
        job_id = payload["id"]
        workers.submit_stream(job_id, StubStreamAnalyzer(), queue)
        store.mark_eof(job_id)
        queue.close()
        for _ in range(200):
            if (store.payload(job_id) or {})["state"] in JobState.TERMINAL:
                break
            threading.Event().wait(0.01)
        assert store.payload(job_id)["state"] == JobState.SUCCEEDED
        # The late timeout path resolves to a no-op, not a flip.
        assert not store.finish(
            job_id,
            JobState.FAILED,
            error={"type": "StreamIdleTimeout", "message": "late"},
        )
        assert store.payload(job_id)["state"] == JobState.SUCCEEDED
        assert pool.stats()["reclaimed"] == 0
        pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# Manager recovery (end to end, fast preset)
# ----------------------------------------------------------------------
class TestManagerRecovery:
    """A killed job re-runs from its spool to the uninterrupted payload."""

    @staticmethod
    def _crashed(tmp_path, setup, kill=None):
        """A store + spool as a process killed at ``kill`` leaves them.

        The job is persisted ``running`` with its inputs spooled; with
        ``kill`` its analysis is torn down there first.
        """
        persist = str(tmp_path / "jobs.json")
        checkpoints = tmp_path / "checkpoints"
        store = JobStore(persist_path=persist)
        job_id = store.create("d" * 10, seed=5, config_hash=setup["hash"])["id"]
        store.mark_running(job_id)
        _spool_batch(checkpoints, job_id, setup)
        if kill is not None:
            with pytest.raises(_SimulatedKill):
                setup["analyzer"].analyze(
                    setup["video"],
                    annotation=setup["annotation"],
                    rng=np.random.default_rng(5),
                    instrumentation=Instrumentation(sink=KillAt(*kill)),
                )
        return persist, checkpoints, job_id

    @staticmethod
    def _assert_rerun_matches(persist, checkpoints, job_id, setup):
        """Restart on the state: the job re-runs to the reference."""
        pool = WorkerPool(2, thread_name_prefix="recover-test")
        manager = JobManager(
            JobsConfig(persist_path=persist, checkpoint_dir=str(checkpoints)),
            pool,
        )
        try:
            assert manager.recover(_rerun_factory) == [job_id]
            assert _wait_for(
                lambda: manager.payload(job_id)["state"] in JobState.TERMINAL,
                timeout=60.0,
            )
            final = manager.payload(job_id, include_result=True)
            assert final["state"] == JobState.SUCCEEDED
            assert final["resumed"] is True
            result = dict(final["result"])
            result.pop("trace", None)
            assert result == setup["reference"]
            assert manager.stats()["resumed"] == 1
            # The worker flips the state *before* its finally-block
            # clears the spool, so give the sweep a moment on a loaded
            # machine.
            assert _wait_for(lambda: not (checkpoints / job_id).exists())
            assert _wait_for(lambda: manager.workers.active() == 0)
            assert pool.stats()["reclaimed"] == 0
        finally:
            manager.close()
            pool.shutdown(wait=True)

    def test_killed_batch_job_resumes_through_the_manager(
        self, tmp_path, fast_setup
    ):
        state = self._crashed(
            tmp_path, fast_setup, KILL_POINTS["segmentation_span"]
        )
        self._assert_rerun_matches(*state, fast_setup)

    @pytest.mark.parametrize(
        "setup_name, kill_point",
        [
            ("fast_setup", "first_tracking_frame"),
            ("fast_setup", "scoring_start"),
            ("two_actor_setup", "segmentation_span"),
            ("two_actor_setup", "first_tracking_frame"),
            ("two_actor_setup", "scoring_start"),
        ],
    )
    def test_rerun_matches_uninterrupted_run(
        self, request, tmp_path, setup_name, kill_point
    ):
        """The rest of the kill-point × config matrix (one actor at the
        segmentation span is the test above); two actors never had a
        tracking checkpoint, and re-run the same way."""
        setup = request.getfixturevalue(setup_name)
        state = self._crashed(tmp_path, setup, KILL_POINTS[kill_point])
        self._assert_rerun_matches(*state, setup)

    def test_job_dir_in_the_previous_layout_recovers(
        self, tmp_path, fast_setup
    ):
        """A directory the stage-checkpoint layout left behind — frames
        re-compressed as float64, ``checkpoint.json`` + ``.npz`` — still
        re-runs to the same payload, and is cleared with the spool."""
        persist, checkpoints, job_id = self._crashed(tmp_path, fast_setup)
        job_dir = checkpoints / job_id
        with open(job_dir / "input.npz", "wb") as handle:
            np.savez_compressed(
                handle, frames=np.asarray(fast_setup["video"].frames)
            )
        (job_dir / "checkpoint.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "job_id": job_id,
                    "config_hash": fast_setup["hash"],
                    "stage": "tracking",
                }
            )
        )
        np.savez_compressed(
            job_dir / "checkpoint.npz", persons=np.zeros((1, 4, 4), bool)
        )
        self._assert_rerun_matches(persist, checkpoints, job_id, fast_setup)

    def test_claimed_job_reruns_from_its_spool(self, tmp_path, fast_setup):
        """A shared-store claim rebuilds the job from the spool alone."""
        checkpoints = tmp_path / "checkpoints"
        config = JobsConfig(
            store_dir=str(tmp_path / "store"), checkpoint_dir=str(checkpoints)
        )
        pool = WorkerPool(1, thread_name_prefix="claim-test")
        manager = JobManager(config, pool)
        archive_b64 = encode_video(fast_setup["video"])
        try:
            job_id = manager.submit_analysis(
                fast_setup["analyzer"],
                fast_setup["video"],
                annotation=fast_setup["annotation"],
                seed=5,
                config_hash=fast_setup["hash"],
                video_npz_b64=archive_b64,
            )["id"]
            # Spooled as sent: the client's archive, byte for byte.
            spooled = checkpoints / job_id / "input.npz"
            assert spooled.read_bytes() == base64.b64decode(archive_b64)
            assert manager.drain_once(_rerun_factory) == job_id
            assert _wait_for(
                lambda: manager.payload(job_id)["state"] in JobState.TERMINAL,
                timeout=60.0,
            )
            final = manager.payload(job_id, include_result=True)
            assert final["state"] == JobState.SUCCEEDED
            result = dict(final["result"])
            result.pop("trace", None)
            assert result == fast_setup["reference"]
            assert _wait_for(lambda: not (checkpoints / job_id).exists())
        finally:
            manager.close()
            pool.shutdown(wait=True)


    def test_spooled_config_that_no_longer_parses_fails_interrupted(
        self, tmp_path, fast_setup
    ):
        """A spool written under a config key this build lacks fails the
        job ``Interrupted`` on restart instead of re-running it under the
        server's config; its directory and its queue slot are freed."""
        from repro.service import ServiceConfig, ServiceHandle

        persist, checkpoints, job_id = self._crashed(tmp_path, fast_setup)
        meta = json.loads((checkpoints / job_id / "meta.json").read_text())
        meta["config"]["segmentation"]["no_such_knob"] = True
        (checkpoints / job_id / "meta.json").write_text(json.dumps(meta))
        handle = ServiceHandle(
            service_config=ServiceConfig(
                jobs=JobsConfig(
                    persist_path=persist,
                    checkpoint_dir=str(checkpoints),
                    max_queued=1,
                )
            )
        ).start()
        try:
            payload = handle.jobs.payload(job_id)
            assert payload["state"] == JobState.FAILED
            assert payload["error"]["type"] == "Interrupted"
            assert "no_such_knob" in payload["error"]["message"]
            assert not (checkpoints / job_id).exists()
            request = urllib.request.Request(
                f"{handle.address}/v1/jobs",
                data=json.dumps({"mode": "stream"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202  # the max_queued=1 slot is free
                handle.jobs.cancel(json.loads(response.read())["job"]["id"])
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Drain + lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_uptime_and_drain_flag(self):
        clock = FakeClock()
        lifecycle = ServiceLifecycle(clock=clock)
        clock.advance(12.5)
        assert lifecycle.uptime_seconds() == pytest.approx(12.5)
        assert not lifecycle.draining
        lifecycle.begin_drain()
        assert lifecycle.draining

    def test_wait_drained_polls_until_idle_or_deadline(self):
        lifecycle = ServiceLifecycle()
        calls = {"n": 0}

        def idle_after_three() -> bool:
            calls["n"] += 1
            return calls["n"] >= 3

        assert lifecycle.wait_drained(idle_after_three, timeout=5.0,
                                      poll_seconds=0.01)
        assert not lifecycle.wait_drained(lambda: False, timeout=0.05,
                                          poll_seconds=0.01)


class TestServiceDrain:
    def test_draining_service_refuses_new_work_over_http(self):
        from repro.service import ServiceHandle

        with ServiceHandle() as handle:
            assert handle.drain(timeout=5.0)
            health = json.loads(
                urllib.request.urlopen(
                    f"{handle.address}/v1/health", timeout=5
                ).read()
            )
            assert health["status"] == "shutting_down"
            assert health["shutting_down"] is True
            assert health["uptime_seconds"] >= 0.0
            request = urllib.request.Request(
                f"{handle.address}/v1/jobs",
                data=json.dumps({"mode": "stream"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=5)
            assert exc_info.value.code == 503
            assert exc_info.value.headers.get("Retry-After")
            envelope = json.loads(exc_info.value.read())
            assert envelope["error"]["type"] == "draining"


# ----------------------------------------------------------------------
# Client backoff
# ----------------------------------------------------------------------
class TestClientRetry:
    def _client(self, **policy_kwargs) -> tuple[ServiceClient, list]:
        client = ServiceClient(
            "http://unit.test",
            retry_policy=RetryPolicy(
                base_delay_seconds=0.01, **policy_kwargs
            ),
        )
        sleeps: list[float] = []
        client._sleep = sleeps.append
        return client, sleeps

    def test_idempotent_503_retries_honouring_retry_after(self):
        client, sleeps = self._client(max_retries=3)
        calls = {"n": 0}

        def flaky(method, path, body=None, timeout=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServiceError(503, "overloaded", "busy",
                                   retry_after=2.5)
            return {"ok": True}

        client._request_once = flaky
        assert client._request("GET", "/health") == {"ok": True}
        assert sleeps == [2.5, 2.5]

    def test_retries_are_capped_then_raise(self):
        client, sleeps = self._client(max_retries=2)

        def always_busy(method, path, body=None, timeout=None):
            raise ServiceError(429, "frame_queue_full", "full",
                               retry_after=0.5)

        client._request_once = always_busy
        with pytest.raises(ServiceError):
            client._request("GET", "/jobs/x")
        assert len(sleeps) == 2

    def test_submit_is_single_shot(self):
        client, sleeps = self._client(max_retries=5)
        calls = {"n": 0}

        def busy(method, path, body=None, timeout=None):
            calls["n"] += 1
            raise ServiceError(503, "draining", "shutting down")

        client._request_once = busy
        with pytest.raises(ServiceError):
            client._request("POST", "/jobs", {"mode": "stream"})
        assert calls["n"] == 1 and sleeps == []

    def test_non_retryable_statuses_raise_immediately(self):
        client, sleeps = self._client(max_retries=5)

        def bad_request(method, path, body=None, timeout=None):
            raise ServiceError(400, "bad_seed", "nope")

        client._request_once = bad_request
        with pytest.raises(ServiceError):
            client._request("GET", "/health")
        assert sleeps == []

    def test_backoff_doubles_capped_with_jitter(self):
        policy = RetryPolicy(
            max_retries=8, base_delay_seconds=0.1, max_delay_seconds=1.0
        )
        for attempt, nominal in [(0, 0.1), (1, 0.2), (2, 0.4), (6, 1.0)]:
            delay = policy.delay_seconds(attempt)
            assert nominal * 0.5 <= delay <= nominal
        # Retry-After wins, capped at the policy ceiling.
        assert policy.delay_seconds(0, retry_after=0.3) == 0.3
        assert policy.delay_seconds(0, retry_after=99.0) == 1.0
