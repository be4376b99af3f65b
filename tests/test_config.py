"""Tests for the typed configuration layer and component registry."""

import json

import numpy as np
import pytest

from repro.analysis.kalman import KalmanConfig
from repro.config import (
    PRESETS,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    get_preset,
    load_config_data,
    parse_override,
    preset_names,
    resolve_config,
)
from repro.errors import ConfigurationError
from repro.ga.baselines import HillClimbConfig
from repro.ga.engine import GAConfig
from repro.ga.operators import OperatorConfig
from repro.ga.single_frame import SingleFrameConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.model.sticks import AngleWindows
from repro.perf.executors import ParallelConfig
from repro.pipeline import AnalyzerConfig
from repro.registry import Registry
from repro.segmentation.background import ChangeDetectionConfig
from repro.segmentation.cleanup import CleanupConfig
from repro.segmentation.pipeline import SegmentationConfig
from repro.segmentation.shadow import ShadowMaskConfig
from repro.segmentation.subtraction import SubtractionConfig

ALL_CONFIG_CLASSES = [
    AnalyzerConfig,
    TrackerConfig,
    GAConfig,
    OperatorConfig,
    FitnessConfig,
    HillClimbConfig,
    SingleFrameConfig,
    SegmentationConfig,
    ChangeDetectionConfig,
    SubtractionConfig,
    CleanupConfig,
    ShadowMaskConfig,
    AngleWindows,
    KalmanConfig,
    ParallelConfig,
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cls", ALL_CONFIG_CLASSES, ids=lambda c: c.__name__
    )
    def test_default_roundtrip(self, cls):
        config = cls()
        data = config_to_dict(config)
        assert config_from_dict(cls, data) == config

    @pytest.mark.parametrize(
        "cls", ALL_CONFIG_CLASSES, ids=lambda c: c.__name__
    )
    def test_dict_is_json_ready(self, cls):
        data = config_to_dict(cls())
        assert config_from_dict(cls, json.loads(json.dumps(data))) == cls()

    def test_non_default_roundtrip(self):
        config = AnalyzerConfig(
            tracker=TrackerConfig(
                ga=GAConfig(population_size=24, max_generations=7),
                strategy="hill_climb",
                extrapolate=False,
            ),
            smoothing_mode="kalman",
        )
        assert AnalyzerConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected_with_path(self):
        data = AnalyzerConfig().to_dict()
        data["tracker"]["ga"]["populaton_size"] = 10  # typo
        with pytest.raises(ConfigurationError, match="populaton_size"):
            AnalyzerConfig.from_dict(data)

    def test_bad_type_names_dotted_path(self):
        data = AnalyzerConfig().to_dict()
        data["tracker"]["ga"]["max_generations"] = "banana"
        with pytest.raises(ConfigurationError, match="tracker.ga.max_generations"):
            AnalyzerConfig.from_dict(data)

    def test_validators_still_run(self):
        data = config_to_dict(GAConfig())
        data["elite_fraction"] = 3.0
        with pytest.raises(ConfigurationError, match="elite_fraction"):
            config_from_dict(GAConfig, data)

    def test_optional_field(self):
        data = config_to_dict(GAConfig())
        data["patience"] = None
        assert config_from_dict(GAConfig, data).patience is None

    def test_nested_tuple_of_tuples(self):
        config = config_from_dict(
            OperatorConfig,
            {"gene_groups": [[0, 1], [2], [3, 6], [4, 7], [5, 8, 9]]},
        )
        assert config.gene_groups == ((0, 1), (2,), (3, 6), (4, 7), (5, 8, 9))


class TestHash:
    def test_stable_across_key_order(self):
        data = config_to_dict(AnalyzerConfig())
        reordered = json.loads(json.dumps(data))
        reordered["tracker"] = dict(reversed(list(reordered["tracker"].items())))
        assert config_hash(data) == config_hash(reordered)

    def test_accepts_dataclass_and_dict(self):
        config = AnalyzerConfig()
        assert config_hash(config) == config_hash(config.to_dict())
        assert config.hash == config_hash(config)

    def test_changes_with_content(self):
        base = AnalyzerConfig()
        tweaked = resolve_config(overrides=["tracker.ga.max_generations=3"])
        assert config_hash(base) != config_hash(tweaked)


class TestPresets:
    def test_known_names(self):
        assert set(preset_names()) >= {"paper", "fast", "accurate"}

    def test_paper_is_strict(self):
        paper = get_preset("paper")
        assert paper.robustness.enabled is False
        assert paper.tracker.recovery.enabled is False

    def test_paper_matches_defaults_outside_robustness(self):
        from dataclasses import replace

        from repro.ga.temporal import RecoveryConfig
        from repro.pipeline import RobustnessConfig

        paper = get_preset("paper")
        default = AnalyzerConfig()
        relaxed = replace(
            paper,
            robustness=RobustnessConfig(),
            tracker=replace(paper.tracker, recovery=RecoveryConfig()),
        )
        assert relaxed == default

    def test_fast_reduces_budget(self):
        fast = get_preset("fast")
        assert fast.tracker.ga.max_generations == 10
        assert fast.tracker.ga.population_size == 30
        assert fast.tracker.fitness.max_points == 600

    def test_fast_enables_threaded_frames(self):
        fast = get_preset("fast")
        assert fast.parallel.backend == "threads"
        assert not fast.parallel.is_serial

    def test_paper_stays_serial_float64(self):
        paper = get_preset("paper")
        assert paper.parallel.is_serial

    def test_parallel_round_trips_through_config_layer(self):
        config = AnalyzerConfig(
            parallel=ParallelConfig(backend="threads", workers=3)
        )
        restored = config_from_dict(AnalyzerConfig, config_to_dict(config))
        assert restored == config
        assert restored.parallel.workers == 3

    def test_parallel_is_execution_only_for_hashing(self):
        serial = AnalyzerConfig()
        threaded = AnalyzerConfig(
            parallel=ParallelConfig(backend="threads", workers=4)
        )
        assert config_hash(serial) == config_hash(threaded)

    def test_fitness_tuning_changes_hash(self):
        from dataclasses import replace

        base = AnalyzerConfig()
        tuned = replace(
            base,
            tracker=replace(
                base.tracker,
                fitness=replace(base.tracker.fitness, max_points=600),
            ),
        )
        assert config_hash(base) != config_hash(tuned)

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigurationError, match="paper"):
            get_preset("warp-speed")

    def test_fresh_instance_per_call(self):
        assert get_preset("fast") is not get_preset("fast")

    def test_duplicate_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            PRESETS.add("fast", lambda: AnalyzerConfig())


class TestOverrides:
    def test_parse_number(self):
        assert parse_override("tracker.ga.max_generations=5") == (
            ("tracker", "ga", "max_generations"),
            5,
        )

    def test_parse_bare_string(self):
        assert parse_override("tracker.strategy=hill_climb") == (
            ("tracker", "strategy"),
            "hill_climb",
        )

    def test_parse_bool_and_null(self):
        assert parse_override("tracker.polish=false")[1] is False
        assert parse_override("tracker.ga.patience=null")[1] is None

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigurationError, match="dotted.key=value"):
            parse_override("tracker.ga.max_generations")

    def test_apply_to_resolved_config(self):
        config = resolve_config(
            overrides=[
                "tracker.ga.max_generations=5",
                "smoothing_mode=none",
                "tracker.strategy=nelder_mead",
            ]
        )
        assert config.tracker.ga.max_generations == 5
        assert config.smoothing_mode == "none"
        assert config.tracker.strategy == "nelder_mead"

    def test_type_coercion_error(self):
        with pytest.raises(ConfigurationError, match="max_generations"):
            resolve_config(overrides=["tracker.ga.max_generations=banana"])

    def test_unknown_key_error(self):
        with pytest.raises(ConfigurationError, match="no_such_knob"):
            resolve_config(overrides=["tracker.no_such_knob=1"])

    def test_scalar_section_clash(self):
        data = {"a": 1}
        with pytest.raises(ConfigurationError, match="not a"):
            apply_overrides(data, ["a.b=2"])


class TestFileLoading:
    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tracker": {"ga": {"population_size": 12}}}))
        config = resolve_config(config_file=path)
        assert config.tracker.ga.population_size == 12
        # untouched keys keep their defaults
        assert config.tracker.ga.max_generations == 30

    def test_toml_file(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        assert tomllib  # quiet the linter
        path = tmp_path / "cfg.toml"
        path.write_text("[tracker.ga]\npopulation_size = 12\n")
        assert resolve_config(config_file=path).tracker.ga.population_size == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config_data(tmp_path / "nope.json")

    def test_analysis_json_extracts_config(self, tmp_path):
        payload = {
            "config": config_to_dict(get_preset("fast")),
            "config_hash": "abc",
            "report": {},
        }
        path = tmp_path / "analysis.json"
        path.write_text(json.dumps(payload))
        assert resolve_config(config_file=path) == get_preset("fast")

    def test_precedence_preset_file_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tracker": {"ga": {"max_generations": 7}}}))
        config = resolve_config(
            preset="fast",
            config_file=path,
            overrides=["tracker.ga.population_size=16"],
        )
        assert config.tracker.ga.max_generations == 7  # file beats preset
        assert config.tracker.ga.population_size == 16  # override beats file
        assert config.tracker.fitness.max_points == 600  # preset survives


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.add("a", object())
        with pytest.raises(ConfigurationError, match="duplicate widget"):
            registry.add("a", object())

    def test_unknown_name_lists_known(self):
        registry = Registry("widget")
        registry.add("alpha", 1)
        registry.add("beta", 2)
        with pytest.raises(ConfigurationError, match="alpha, beta"):
            registry.get("gamma")

    def test_decorator_registration(self):
        registry = Registry("fn")

        @registry.register("double")
        def double(x):
            return 2 * x

        assert registry.get("double") is double
        assert "double" in registry and len(registry) == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            Registry("widget").add("", 1)


class TestSearchStrategies:
    def test_all_four_registered(self):
        from repro.ga.strategies import SEARCH_STRATEGIES

        assert set(SEARCH_STRATEGIES.names()) == {
            "ga",
            "hill_climb",
            "random_search",
            "nelder_mead",
        }

    def test_unknown_strategy_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="hill_climb"):
            TrackerConfig(strategy="simulated_annealing")

    @pytest.mark.parametrize(
        "strategy", ["ga", "hill_climb", "random_search", "nelder_mead"]
    )
    def test_strategy_estimates_a_frame(self, strategy):
        from repro.ga.temporal import TemporalPoseTracker
        from repro.model.annotation import auto_annotate
        from repro.model.pose import StickPose

        annotation = auto_annotate(_standing_mask())
        config = TrackerConfig(
            ga=GAConfig(population_size=8, max_generations=2, patience=2),
            fitness=FitnessConfig(max_points=200),
            strategy=strategy,
            limb_rescue=False,
            polish=False,
        )
        tracker = TemporalPoseTracker(annotation.dims, config)
        pose, result = tracker.estimate_frame(
            _standing_mask(), annotation.pose, rng=np.random.default_rng(0)
        )
        assert isinstance(pose, StickPose)
        assert np.isfinite(result.best_fitness)
        assert result.total_evaluations > 0


class TestSegmentationSteps:
    def test_default_steps_registered(self):
        from repro.segmentation.pipeline import (
            DEFAULT_STEPS,
            SEGMENTATION_STEPS,
        )

        assert SegmentationConfig().steps == DEFAULT_STEPS
        for name in DEFAULT_STEPS:
            assert name in SEGMENTATION_STEPS

    def test_unknown_step_rejected(self):
        with pytest.raises(Exception, match="unknown segmentation step"):
            SegmentationConfig(steps=("subtract", "levitate"))

    def test_subtract_is_mandatory(self):
        with pytest.raises(Exception, match="mandatory"):
            SegmentationConfig(steps=("noise_removal",))


def _standing_mask():
    """A coarse person-shaped silhouette for strategy smoke tests."""
    mask = np.zeros((120, 80), dtype=bool)
    mask[20:100, 35:45] = True  # trunk + legs
    mask[10:26, 32:48] = True  # head
    return mask
