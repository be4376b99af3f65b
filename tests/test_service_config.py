"""Tests for the service's configuration surface.

``GET /config`` exposes the resolved defaults + hash; ``POST /analyze``
accepts a per-request ``config`` block / ``preset`` name, answering bad
keys with a structured 400.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceClient
from repro.config import config_to_dict
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig
from repro.service import ServiceHandle, encode_video


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
def default_config():
    return AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=20, max_generations=6, patience=3),
            fitness=FitnessConfig(max_points=300),
        )
    )


@pytest.fixture(scope="module")
def service(default_config):
    handle = ServiceHandle(config=default_config).start()
    yield handle
    handle.stop()


def _post(service, body: dict) -> urllib.request.Request:
    return urllib.request.Request(
        f"{service.address}/v1/analyze",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )


class TestConfigEndpoint:
    def test_resolved_defaults_and_hash(self, service, default_config):
        with urllib.request.urlopen(f"{service.address}/v1/config", timeout=10) as r:
            payload = json.loads(r.read())
        assert payload["config"] == config_to_dict(default_config)
        assert payload["config_hash"] == default_config.hash
        assert {"paper", "fast", "accurate"} <= set(payload["presets"])


class TestPerRequestConfig:
    def test_config_block_overrides_defaults(self, service, tiny_jump):
        result = ServiceClient(service.address).analyze(
            tiny_jump.video,
            config={"tracker": {"ga": {"max_generations": 2}}},
        )
        assert result["config"]["tracker"]["ga"]["max_generations"] == 2
        # merged over the server defaults, not the library defaults
        assert result["config"]["tracker"]["ga"]["population_size"] == 20
        assert result["config_hash"]
        assert result["trace"]["metadata"]["config_hash"] == result["config_hash"]

    def test_response_echoes_default_config_hash(self, service, tiny_jump, default_config):
        result = ServiceClient(service.address).analyze(tiny_jump.video)
        assert result["config_hash"] == default_config.hash

    def test_unknown_config_key_is_structured_400(self, service, tiny_jump):
        # A removed key must fail loudly rather than be ignored.
        for config, name in (
            ({"tracker": {"no_such_knob": 1}}, "no_such_knob"),
            ({"parallel": {"shared_memory": True}}, "shared_memory"),
            ({"tracker": {"ga": {"incremental": False}}}, "incremental"),
            ({"tracker": {"fitness": {"chunk_size": 0}}}, "chunk_size"),
        ):
            request = _post(
                service,
                {"video_npz_b64": encode_video(tiny_jump.video), "config": config},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "bad_config"
            assert name in error["message"]

    def test_ill_typed_value_is_structured_400(self, service, tiny_jump):
        # A removed backend must be refused by name.
        for config, name in (
            ({"tracker": {"ga": {"max_generations": "banana"}}}, "tracker.ga.max_generations"),
            ({"parallel": {"backend": "processes"}}, "processes"),
        ):
            request = _post(
                service,
                {"video_npz_b64": encode_video(tiny_jump.video), "config": config},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "bad_config"
            assert name in error["message"]

    def test_unknown_preset_is_structured_400(self, service, tiny_jump):
        request = _post(
            service,
            {
                "video_npz_b64": encode_video(tiny_jump.video),
                "preset": "warp-speed",
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == "bad_config"

    def test_non_object_config_is_400(self, service, tiny_jump):
        request = _post(
            service,
            {"video_npz_b64": encode_video(tiny_jump.video), "config": [1, 2]},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
