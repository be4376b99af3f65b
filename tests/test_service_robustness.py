"""Tests for the hardened service: 413/503/504, degraded 200s, /health."""

import base64
import io
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.errors as errors_module
from repro.client import ServiceClient
from repro.errors import ReproError
from repro.ga.engine import GAConfig
from repro.faults.ops import _pool_leaks
from repro.ga.temporal import TrackerConfig
from repro.jobs import JobsConfig
from repro.model.annotation import simulate_human_annotation
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig
from repro.serialization import annotation_to_dict
from repro.service import (
    ServiceConfig,
    ServiceHandle,
    encode_video,
)


def _fast_config():
    return AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=24, max_generations=8, patience=4),
            fitness=FitnessConfig(max_points=400),
        )
    )


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post_raw(url, body: bytes, headers=None):
    """POST and return (status, payload, headers) without raising."""
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _analyze_body(video, annotation=None, seed=0):
    body = {"video_npz_b64": encode_video(video), "seed": seed}
    if annotation is not None:
        body["annotation"] = annotation_to_dict(annotation)
    return json.dumps(body).encode("utf-8")


class _StubAnalyzer:
    """Stand-in analyzer whose behaviour the test scripts."""

    def __init__(self, error=None, delay=0.0):
        self.config = AnalyzerConfig()
        self._error = error
        self._delay = delay

    def analyze(self, *args, **kwargs):
        if self._delay:
            time.sleep(self._delay)
        if self._error is not None:
            raise self._error
        raise AssertionError("stub analyzer has no success path")


class _BlockingAnalyzer(_StubAnalyzer):
    """Blocks in ``analyze`` until released, then succeeds."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def analyze(self, *args, **kwargs):
        self.started.set()
        self.release.wait(10)
        return object()


class _StagedAnalyzer(_StubAnalyzer):
    """Seven slow stages that honour the cancellation token between them."""

    STAGES = tuple(f"stage{index}" for index in range(7))

    def __init__(self, stage_seconds):
        super().__init__()
        self.stage_seconds = stage_seconds
        self.ran = []

    def analyze(self, video, cancel_token=None, **kwargs):
        for stage in self.STAGES:
            cancel_token.raise_if_cancelled(stage)
            time.sleep(self.stage_seconds)
            self.ran.append(stage)
        raise AssertionError("the deadline should have cancelled the run")


def _stub_serializer(handle):
    handle.jobs.workers._serializer = lambda analysis: {"stub": True}


class TestRefusalsReadTheBody:
    """A refusal made before the body is read still drains it, so a
    client sending a multi-megabyte video reads the answer instead of
    a broken pipe."""

    def test_jobs_disabled_is_503(self, short_jump):
        body = _analyze_body(short_jump.video)
        assert len(body) >= 1_400_000
        handle = ServiceHandle(
            service_config=ServiceConfig(jobs=JobsConfig(enabled=False))
        ).start()
        try:
            status, payload, _ = _post_raw(f"{handle.address}/v1/jobs", body)
        finally:
            handle.stop()
        assert status == 503
        assert payload["error"]["type"] == "jobs_disabled"

    def test_draining_analyze_is_503_with_retry_after(self, short_jump):
        handle = ServiceHandle().start()
        try:
            assert handle.drain(timeout=5.0)
            status, payload, headers = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
        finally:
            handle.stop()
        assert status == 503
        assert payload["error"]["type"] == "draining"
        assert headers["Retry-After"]

    def test_unknown_path_is_404(self, short_jump):
        handle = ServiceHandle().start()
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/nowhere", _analyze_body(short_jump.video)
            )
        finally:
            handle.stop()
        assert status == 404
        assert payload["error"]["type"] == "not_found"


class TestBodyLimit:
    def test_oversized_body_is_413(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(max_body_bytes=512)
        ).start()
        try:
            status, payload, headers = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 413
            assert payload["error"]["type"] == "body_too_large"
            # Draining is capped, so the connection must not be reused.
            assert headers["Connection"] == "close"
        finally:
            handle.stop()

    def test_small_bodies_pass_the_limit(self):
        handle = ServiceHandle(
            service_config=ServiceConfig(max_body_bytes=512)
        ).start()
        try:
            status, payload, _ = _post_raw(f"{handle.address}/v1/analyze", b"{}")
            assert status == 400  # missing video, but not 413
        finally:
            handle.stop()


class TestConcurrencyGate:
    def test_analyzer_construction_error_is_400_not_a_leaked_slot(
        self, short_jump
    ):
        """A config that survives parsing but fails JumpAnalyzer
        construction (robustness stage names are validated there) must
        answer a structured 400 without creating a job — repeat
        offenders must not wedge the pool into permanent 503s.
        """
        handle = ServiceHandle(
            service_config=ServiceConfig(max_concurrent=1)
        ).start()
        try:
            body = json.dumps(
                {
                    "video_npz_b64": encode_video(short_jump.video),
                    "config": {"robustness": {"retry_stages": ["bogus"]}},
                }
            ).encode("utf-8")
            for _ in range(3):  # would fill a one-worker pool if admitted
                status, payload, _ = _post_raw(
                    f"{handle.address}/v1/analyze", body
                )
                assert status == 400
                assert payload["error"]["type"] == "bad_config"
                assert "bogus" in payload["error"]["message"]
            # Refused before admission: no job was ever created.
            assert handle.jobs.store.stats()["created"] == 0
        finally:
            handle.stop()

    def test_busy_service_is_503_with_retry_after(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(
                max_concurrent=1, retry_after_seconds=7
            )
        ).start()
        try:
            # An open stream job holds the only pool worker, so the
            # next synchronous request is refused.
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/jobs", json.dumps({"mode": "stream"}).encode()
            )
            assert status == 202
            job_id = payload["job"]["id"]
            try:
                status, payload, headers = _post_raw(
                    f"{handle.address}/v1/analyze",
                    _analyze_body(short_jump.video),
                )
                assert status == 503
                assert payload["error"]["type"] == "overloaded"
                assert headers["Retry-After"] == "7"
            finally:
                handle.jobs.cancel(job_id)
        finally:
            handle.stop()


class TestDeadline:
    def test_slow_analysis_is_504(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(deadline_seconds=0.05)
        ).start()
        handle._server.analyzer = _StubAnalyzer(delay=0.6)
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 504
            assert payload["error"]["type"] == "deadline_exceeded"
            # The timeout lands in /health's last_error.
            _, health = _get(f"{handle.address}/v1/health")
            assert health["last_error"]["type"] == "deadline_exceeded"
        finally:
            handle.stop()


class TestAttachedJobs:
    """``/v1/analyze`` runs as a job on the one ``JobManager`` path."""

    def test_breaker_guards_sync_analyze(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(jobs=JobsConfig(breaker_threshold=2))
        ).start()
        handle._server.analyzer = _StubAnalyzer(error=ReproError("kaput"))
        try:
            for _ in range(2):
                status, payload, _ = _post_raw(
                    f"{handle.address}/v1/analyze",
                    _analyze_body(short_jump.video),
                )
                assert status == 422
                assert payload["error"]["type"] == "analysis_failed"
            status, payload, headers = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 503
            assert payload["error"]["type"] == "circuit_open"
            assert int(headers["Retry-After"]) >= 1
        finally:
            handle.stop()

    def test_deadline_cancels_the_job_and_leaks_no_slot(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(deadline_seconds=0.15)
        ).start()
        analyzer = _StagedAnalyzer(stage_seconds=0.1)
        handle._server.analyzer = analyzer
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 504
            assert payload["error"]["type"] == "deadline_exceeded"
            pool = handle._server.pool
            deadline = time.monotonic() + 10
            jobs = []
            while time.monotonic() < deadline:
                _, listing = _get(f"{handle.address}/v1/jobs")
                jobs = listing["jobs"]
                if jobs and jobs[0]["state"] == "cancelled" and not pool.stats()["active"]:
                    break
                time.sleep(0.02)
            # The timed-out job stays visible, cancelled at a stage
            # boundary instead of running all seven stages.
            assert [job["state"] for job in jobs] == ["cancelled"]
            assert len(analyzer.ran) < len(analyzer.STAGES)
            assert pool.stats()["active"] == 0
            assert _pool_leaks(pool) == 0
        finally:
            handle.stop()

    def test_sync_request_leaves_no_job_record_and_no_spool(
        self, short_jump, tmp_path
    ):
        checkpoints = tmp_path / "checkpoints"
        handle = ServiceHandle(
            service_config=ServiceConfig(
                jobs=JobsConfig(checkpoint_dir=str(checkpoints))
            )
        ).start()
        analyzer = _BlockingAnalyzer()
        handle._server.analyzer = analyzer
        _stub_serializer(handle)
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(
                _post_raw(
                    f"{handle.address}/v1/analyze",
                    _analyze_body(short_jump.video),
                )
            )
        )
        try:
            thread.start()
            assert analyzer.started.wait(10)
            # Running as a job, but nothing was spooled for it.
            assert handle.jobs.store.stats()["pending"] == 1
            assert not any(checkpoints.glob("*"))
            analyzer.release.set()
            thread.join(30)
            status, payload, _ = answers[0]
            assert (status, payload) == (200, {"stub": True})
            _, listing = _get(f"{handle.address}/v1/jobs")
            assert listing == {"jobs": [], "count": 0}
            assert not any(checkpoints.glob("*"))
        finally:
            analyzer.release.set()
            handle.stop()

    def test_disabled_job_api_still_serves_sync_analyze(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(jobs=JobsConfig(enabled=False))
        ).start()
        analyzer = _BlockingAnalyzer()
        analyzer.release.set()
        handle._server.analyzer = analyzer
        _stub_serializer(handle)
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert (status, payload) == (200, {"stub": True})
            # The flag gates only the /v1/jobs endpoints.
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/jobs", _analyze_body(short_jump.video)
            )
            assert status == 503
            assert payload["error"]["type"] == "jobs_disabled"
        finally:
            handle.stop()

    def test_shutdown_answers_a_queued_batch_item_with_503(self, short_jump):
        handle = ServiceHandle(
            service_config=ServiceConfig(max_concurrent=1)
        ).start()
        analyzer = _BlockingAnalyzer()
        handle._server.analyzer = analyzer
        _stub_serializer(handle)
        video = json.loads(_analyze_body(short_jump.video))
        body = json.dumps({"videos": [video, video]}).encode()
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(
                _post_raw(f"{handle.address}/v1/analyze/batch", body)
            )
        )
        try:
            thread.start()
            # The first item holds the only worker; the second is queued
            # when the pool shuts down and cancels it.
            assert analyzer.started.wait(10)
        finally:
            handle.stop()
            analyzer.release.set()
        thread.join(30)
        status, payload, headers = answers[0]
        assert status == 503
        assert payload["error"]["type"] == "draining"
        assert "Retry-After" in headers


REPRO_ERRORS = sorted(
    (
        obj
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, ReproError)
    ),
    key=lambda cls: cls.__name__,
)


class TestDetachedSpool:
    """``POST /v1/jobs`` with a state directory spools the request's
    archive as sent, and a spool that cannot be written is a clean 503."""

    def test_running_job_dir_holds_the_archive_as_sent(
        self, short_jump, tmp_path
    ):
        checkpoints = tmp_path / "checkpoints"
        handle = ServiceHandle(
            service_config=ServiceConfig(
                jobs=JobsConfig(checkpoint_dir=str(checkpoints))
            )
        ).start()
        analyzer = _BlockingAnalyzer()
        handle._server.analyzer = analyzer
        _stub_serializer(handle)
        # uint8, as clients send video: decoding yields float64 frames,
        # so an archive rebuilt from the decoded clip would differ.
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            frames=np.round(short_jump.video.frames * 255).astype(np.uint8),
        )
        archive = buffer.getvalue()
        body = json.dumps(
            {"video_npz_b64": base64.b64encode(archive).decode("ascii")}
        ).encode("utf-8")
        try:
            status, payload, _ = _post_raw(f"{handle.address}/v1/jobs", body)
            assert status == 202
            job_id = payload["job"]["id"]
            assert analyzer.started.wait(10)
            job_dir = checkpoints / job_id
            assert sorted(path.name for path in job_dir.iterdir()) == [
                "input.npz",
                "meta.json",
            ]
            assert (job_dir / "input.npz").read_bytes() == archive
            analyzer.release.set()
            deadline = time.monotonic() + 10
            while job_dir.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not job_dir.exists()
        finally:
            analyzer.release.set()
            handle.stop()

    @pytest.mark.parametrize("mode", ["batch", "stream"])
    def test_failed_spool_is_503_and_fails_the_job(
        self, short_jump, tmp_path, monkeypatch, mode
    ):
        import repro.jobs.manager as manager_module

        def disk_full(*_args, **_kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(manager_module, "spool_input", disk_full)
        handle = ServiceHandle(
            service_config=ServiceConfig(
                jobs=JobsConfig(
                    checkpoint_dir=str(tmp_path / "checkpoints"), max_queued=1
                ),
                retry_after_seconds=3,
            )
        ).start()
        body = (
            _analyze_body(short_jump.video)
            if mode == "batch"
            else json.dumps({"mode": "stream"}).encode("utf-8")
        )
        try:
            for _ in range(2):  # the first failure holds no queue slot
                status, payload, headers = _post_raw(
                    f"{handle.address}/v1/jobs", body
                )
                assert status == 503
                assert payload["error"]["type"] == "spool_failed"
                assert "No space left" in payload["error"]["message"]
                assert headers["Retry-After"] == "3"
            _, listing = _get(f"{handle.address}/v1/jobs")
            assert [job["state"] for job in listing["jobs"]] == ["failed"] * 2
            assert {job["error"]["type"] for job in listing["jobs"]} == {
                "SpoolFailed"
            }
            assert not any((tmp_path / "checkpoints").glob("*"))
            # Once the disk recovers, the max_queued=1 slot is free.
            monkeypatch.undo()
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/jobs",
                json.dumps({"mode": "stream"}).encode("utf-8"),
            )
            assert status == 202
            handle.jobs.cancel(payload["job"]["id"])
        finally:
            handle.stop()


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc_type", REPRO_ERRORS, ids=lambda cls: cls.__name__
    )
    def test_every_repro_error_maps_to_422(self, short_jump, exc_type):
        handle = ServiceHandle().start()
        handle._server.analyzer = _StubAnalyzer(error=exc_type("kaput"))
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 422
            assert payload["error"]["type"] == "analysis_failed"
            assert "kaput" in payload["error"]["message"]
        finally:
            handle.stop()

    def test_unexpected_error_maps_to_500(self, short_jump):
        handle = ServiceHandle().start()
        handle._server.analyzer = _StubAnalyzer(error=ValueError("surprise"))
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", _analyze_body(short_jump.video)
            )
            assert status == 500
            assert payload["error"]["type"] == "internal_error"
            _, health = _get(f"{handle.address}/v1/health")
            assert health["last_error"]["type"] == "internal_error"
        finally:
            handle.stop()

    def test_malformed_body_maps_to_400(self):
        handle = ServiceHandle().start()
        try:
            status, payload, _ = _post_raw(
                f"{handle.address}/v1/analyze", b"not json"
            )
            assert status == 400
            assert payload["error"]["type"] == "malformed_json"
        finally:
            handle.stop()


class TestDegradedResponses:
    def test_degraded_analysis_is_200_with_block(self, short_jump):
        from repro.faults import FaultPlan, FaultSpec, inject_video_faults

        plan = FaultPlan((FaultSpec(kind="blank_silhouette"),))
        faulted = inject_video_faults(short_jump.video, plan)
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        handle = ServiceHandle(config=_fast_config()).start()
        try:
            result = ServiceClient(handle.address).analyze(
                faulted,
                annotation=annotation_to_dict(annotation),
            )
            assert result["degraded"] is True
            target = FaultSpec(kind="blank_silhouette").resolve_frame(
                len(faulted)
            )
            assert result["degradation"]["unhealthy_frames"] == [target]
            assert result["diagnostics"]["health_summary"]["extrapolated"] == 1
        finally:
            handle.stop()

    def test_clean_analysis_reports_not_degraded(self, short_jump):
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        handle = ServiceHandle(config=_fast_config()).start()
        try:
            result = ServiceClient(handle.address).analyze(
                short_jump.video,
                annotation=annotation_to_dict(annotation),
            )
            assert result["degraded"] is False
            assert "degradation" not in result
            assert result["diagnostics"]["unhealthy_frames"] == []
            _, health = _get(f"{handle.address}/v1/health")
            assert health["in_flight"] == 0
        finally:
            handle.stop()
