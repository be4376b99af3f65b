"""Tests for :class:`repro.client.ServiceClient`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import (
    ClientError,
    JobFailedError,
    JobTimeoutError,
    ServiceClient,
    ServiceError,
)
from repro.config import config_hash, config_to_dict
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig, JumpAnalyzer
from repro.service import ServiceHandle


def _fast_config():
    return AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=24, max_generations=8, patience=4),
            fitness=FitnessConfig(max_points=400),
        )
    )


@pytest.fixture(scope="module")
def fast_service(short_jump):
    with ServiceHandle(config=_fast_config()) as handle:
        yield handle


class TestInfoEndpoints:
    def test_version(self, fast_service):
        import repro

        client = ServiceClient(fast_service.address)
        version = client.version()
        assert version["package_version"] == repro.__version__
        assert version["api_version"] == "v1"
        expected = config_hash(config_to_dict(_fast_config()))
        assert version["config_hash"] == expected

    def test_health_standards_config_metrics(self, fast_service):
        client = ServiceClient(fast_service.address)
        assert client.health()["status"] == "ok"
        assert len(client.standards()["rules"]) == 7
        assert client.config()["config_hash"] == config_hash(
            config_to_dict(_fast_config())
        )
        assert "jobs" in client.metrics()


class TestTypedErrors:
    def test_service_error_carries_type_and_status(self, fast_service):
        client = ServiceClient(fast_service.address)
        with pytest.raises(ServiceError) as excinfo:
            client.job("j99999-0000000000")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "job_not_found"

    def test_transport_error_is_client_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ClientError):
            client.health()

    def test_wait_timeout_raises(self, fast_service, short_jump):
        # waiting zero seconds on a real job cannot finish in time
        client = ServiceClient(fast_service.address)
        job = client.submit(short_jump.video, seed=0)
        try:
            with pytest.raises(JobTimeoutError):
                client.wait(job["id"], timeout=0.0, poll_interval=0.01)
        finally:
            client.cancel(job["id"])
            # drain so the module-scoped service is clean for other tests
            try:
                client.wait(job["id"], timeout=60.0)
            except (JobFailedError, JobTimeoutError):
                pass


class TestEndToEndParity:
    def test_wait_matches_direct_analysis(self, fast_service, short_jump):
        client = ServiceClient(fast_service.address)
        job = client.submit(short_jump.video, seed=0)
        remote = client.wait(job["id"], timeout=300.0)

        direct = JumpAnalyzer(_fast_config()).analyze(
            short_jump.video, rng=np.random.default_rng(0)
        )
        assert remote["config_hash"] == direct.config_hash
        assert remote["report"]["score"] == direct.report.score
        assert (
            remote["measurement"]["distance_px"]
            == direct.measurement.distance
        )
        # the job record advertises the same config hash
        assert client.job(job["id"])["config_hash"] == direct.config_hash

    def test_analyze_matches_submit_wait(self, fast_service, short_jump):
        client = ServiceClient(fast_service.address)
        sync = client.analyze(short_jump.video, seed=0)
        job = client.submit(short_jump.video, seed=0)
        async_result = client.wait(job["id"], timeout=300.0)
        assert sync["report"] == async_result["report"]
        assert sync["config_hash"] == async_result["config_hash"]
