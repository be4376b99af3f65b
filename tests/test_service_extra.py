"""Additional service tests: concurrency, payload limits, standards detail."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceClient
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig
from repro.service import ServiceHandle, encode_video
from repro.video.sequence import VideoSequence


@pytest.fixture(scope="module")
def tiny_jump():
    from repro.video.synthesis import (
        JumpParameters,
        SyntheticJumpConfig,
        synthesize_jump,
    )

    return synthesize_jump(
        SyntheticJumpConfig(seed=5, params=JumpParameters(num_frames=8))
    )


@pytest.fixture(scope="module")
def service():
    config = AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=20, max_generations=6, patience=3),
            fitness=FitnessConfig(max_points=300),
            containment_margin=1,
            min_inside_fraction=0.95,
            containment_samples=7,
        )
    )
    handle = ServiceHandle(config=config).start()
    yield handle
    handle.stop()


class TestConcurrency:
    def test_parallel_health_checks(self, service):
        results = []

        def probe():
            with urllib.request.urlopen(f"{service.address}/v1/health", timeout=10) as r:
                results.append(json.loads(r.read())["status"])

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["ok"] * 8

    def test_two_analyses_in_parallel(self, service, tiny_jump):
        outcomes = {}

        def run(name, seed):
            outcomes[name] = ServiceClient(service.address).analyze(
                tiny_jump.video, seed=seed
            )

        a = threading.Thread(target=run, args=("a", 1))
        b = threading.Thread(target=run, args=("b", 2))
        a.start(); b.start(); a.join(); b.join()
        assert set(outcomes) == {"a", "b"}
        for result in outcomes.values():
            assert len(result["poses"]) == 8


class TestStandardsDetail:
    def test_rules_consistent_with_library(self, service):
        from repro.scoring.rules import RULES

        with urllib.request.urlopen(f"{service.address}/v1/standards", timeout=10) as r:
            payload = json.loads(r.read())
        served = {rule["rule"]: rule for rule in payload["rules"]}
        for rule in RULES:
            assert served[rule.rule_id]["threshold_deg"] == rule.threshold
            assert served[rule.rule_id]["standard"] == rule.standard.name

    def test_advice_text_served(self, service):
        with urllib.request.urlopen(f"{service.address}/v1/standards", timeout=10) as r:
            payload = json.loads(r.read())
        assert all(len(item["advice"]) > 20 for item in payload["standards"])


class TestPayloadEdges:
    def test_single_frame_video_rejected_cleanly(self, service, tiny_jump):
        # a one-frame video cannot be change-detected; server maps the
        # library error to HTTP 422 rather than crashing
        one = VideoSequence(tiny_jump.video.frames[:1])
        payload = json.dumps(
            {"video_npz_b64": encode_video(one), "seed": 0}
        ).encode()
        request = urllib.request.Request(
            f"{service.address}/v1/analyze",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 422

    def test_empty_body(self, service):
        request = urllib.request.Request(
            f"{service.address}/v1/analyze", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


def _post_json(url: str, body: dict, timeout: float = 300.0) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestBatchEndpoint:
    def test_batch_analyzes_every_video(self, service, tiny_jump):
        encoded = encode_video(tiny_jump.video)
        status, payload = _post_json(
            f"{service.address}/v1/analyze/batch",
            {"videos": [{"video_npz_b64": encoded}, {"video_npz_b64": encoded}]},
        )
        assert status == 200
        assert payload["count"] == 2
        assert payload["failed"] == 0
        for index, result in enumerate(payload["results"]):
            assert result["index"] == index
            assert result["ok"] is True
            assert result["analysis"]["report"]["score"] >= 0

    def test_batch_isolates_per_item_failures(self, service, tiny_jump):
        good = {"video_npz_b64": encode_video(tiny_jump.video)}
        bad = {
            "video_npz_b64": encode_video(
                VideoSequence(tiny_jump.video.frames[:1])
            )
        }
        status, payload = _post_json(
            f"{service.address}/v1/analyze/batch", {"videos": [bad, good]}
        )
        assert status == 200
        assert payload["failed"] == 1
        assert payload["results"][0]["ok"] is False
        assert payload["results"][0]["error"]
        assert payload["results"][1]["ok"] is True

    def test_batch_rejects_empty_and_oversized(self, service):
        for body in ({"videos": []}, {"videos": "nope"}):
            request = urllib.request.Request(
                f"{service.address}/v1/analyze/batch",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_batch_item_errors_name_the_index(self, service):
        request = urllib.request.Request(
            f"{service.address}/v1/analyze/batch",
            data=json.dumps({"videos": [{"seed": 1}]}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())
        assert "videos[0]" in detail["error"]["message"]


class TestAnalyzerCacheMetrics:
    def test_per_request_config_populates_cache(self, service, tiny_jump):
        overrides = {"tracker": {"ga": {"max_generations": 5}}}
        for _ in range(2):
            ServiceClient(f"{service.address}").analyze(
                tiny_jump.video,
                seed=0,
                config=overrides,
            )
        with urllib.request.urlopen(
            f"{service.address}/v1/metrics", timeout=10
        ) as response:
            snapshot = json.loads(response.read())
        cache = snapshot["analyzer_cache"]
        assert cache["misses"] >= 1
        assert cache["hits"] >= 1
        assert cache["size"] >= 1
        assert snapshot["pool"]["completed"] >= 2
        assert snapshot["pool"]["workers"] >= 1
