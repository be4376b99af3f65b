"""Track lifecycle and :class:`TrackManager` unit tests (mask level)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.ga.engine import GAConfig
from repro.ga.temporal import RecoveryConfig, TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.runtime import Instrumentation
from repro.tracking import TrackManager, TrackingConfig

SHAPE = (60, 100)


def blob(row, col, height=14, width=10):
    mask = np.zeros(SHAPE, dtype=bool)
    mask[row : row + height, col : col + width] = True
    return mask


def fast_tracker_config(**overrides):
    return TrackerConfig(
        ga=GAConfig(population_size=16, max_generations=3, patience=2),
        fitness=FitnessConfig(max_points=200),
        **overrides,
    )


def manager(instrumentation=None, tracker_config=None, **tracking_overrides):
    return TrackManager(
        tracker_config or fast_tracker_config(),
        TrackingConfig(enabled=True, **tracking_overrides),
        rng=np.random.default_rng(0),
        instrumentation=instrumentation,
    )


class TestTrackingConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_tracks", 0),
            ("method", "nearest"),
            ("iou_threshold", 0.0),
            ("iou_threshold", 1.5),
            ("confirm_hits", 0),
            ("max_misses", 0),
            ("min_spawn_area", 0),
            ("box_margin", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            TrackingConfig(**{field: value})

    def test_confirm_hits_one_confirms_on_spawn(self):
        m = manager(confirm_hits=1)
        m.step(blob(5, 10))
        assert m.tracks[0].state == "confirmed"


class TestLifecycle:
    def test_spawn_is_tentative_then_confirms(self):
        m = manager(confirm_hits=2)
        m.step(blob(5, 10))
        (track,) = m.tracks
        assert track.state == "tentative" and track.track_id == "t0"
        m.step(blob(5, 12))
        assert track.state == "confirmed"

    def test_retires_after_max_misses(self):
        m = manager(max_misses=2)
        m.step(blob(5, 10))
        m.step(blob(5, 12))
        empty = np.zeros(SHAPE, dtype=bool)
        m.step(empty)
        assert m.tracks[0].alive
        m.step(empty)
        assert m.tracks[0].state == "retired"
        assert not m.alive_tracks()

    def test_trailing_misses_trimmed_from_result(self):
        m = manager(max_misses=3)
        for _ in range(4):
            m.step(blob(5, 10))
        for _ in range(3):
            m.step(np.zeros(SHAPE, dtype=bool))
        track = m.tracks[0]
        assert track.state == "retired"
        assert track.frames == 7  # carried frames were consumed...
        assert len(track.result().poses) == 4  # ...but trimmed from the result
        assert len(track.result(trim_trailing_misses=False).poses) == 7

    def test_miss_then_recovery_keeps_interior_frames(self):
        m = manager(max_misses=3)
        m.step(blob(5, 10))
        m.step(blob(5, 12))
        m.step(np.zeros(SHAPE, dtype=bool))  # one occluded frame
        m.step(blob(5, 16))  # reacquired
        track = m.tracks[0]
        assert track.alive
        # The interior carried frame stays: only the tail is trimmed.
        assert len(track.result().poses) == 4

    def test_recovery_disabled_retires_on_first_miss(self):
        config = fast_tracker_config(recovery=RecoveryConfig(enabled=False))
        m = manager(tracker_config=config, max_misses=3)
        m.step(blob(5, 10))
        m.step(np.zeros(SHAPE, dtype=bool))
        track = m.tracks[0]
        assert track.state == "retired"
        assert track.frames == 1  # the miss consumed no frame


class TestSpawning:
    def test_min_spawn_area_blocks_debris(self):
        m = manager(min_spawn_area=80)
        m.step(blob(5, 10, height=4, width=4))  # 16 px of debris
        assert not m.tracks

    def test_max_tracks_caps_births(self):
        # Segmentation hands over one more candidate than max_tracks
        # (the multi_actor_config slack slot): the excess birth is
        # suppressed and counted, not silently dropped.
        inst = Instrumentation()
        m = manager(instrumentation=inst, max_tracks=2)
        parts = [blob(5, 10), blob(25, 10), blob(45, 10)]
        m.step(parts[0] | parts[1] | parts[2], candidates=parts)
        assert len(m.tracks) == 2
        assert inst.counter("tracking.births") == 2
        assert inst.counter("tracking.births_suppressed") == 1

    def test_ids_follow_spawn_order(self):
        m = manager(max_tracks=3)
        m.step(blob(5, 10))
        m.step(blob(5, 12) | blob(40, 10))
        assert [t.track_id for t in m.tracks] == ["t0", "t1"]
        assert m.tracks[1].start_frame == 1

    def test_larger_component_spawns_first(self):
        # Equal start frame: candidate order is area descending, so the
        # bigger blob becomes t0 even though it sits lower in the frame.
        m = manager(max_tracks=2)
        m.step(blob(5, 10, height=10, width=10) | blob(30, 10, height=16, width=12))
        by_id = {t.track_id: t for t in m.tracks}
        assert by_id["t0"].annotation.pose.y0 < by_id["t1"].annotation.pose.y0

    def test_empty_scene_has_no_primary(self):
        m = manager()
        m.step(np.zeros(SHAPE, dtype=bool))
        with pytest.raises(TrackingError, match="no tracks"):
            m.primary_track()

    def test_unseeded_spawn_uses_the_given_prior(self):
        from repro.profiles import get_profile

        prior = get_profile("sit_to_stand").start_angles
        m = TrackManager(
            fast_tracker_config(),
            TrackingConfig(enabled=True),
            rng=np.random.default_rng(0),
            prior_angles=prior,
        )
        m.step(blob(5, 10, height=20, width=14))
        (track,) = m.tracks
        assert track.annotation.pose.angles_deg == pytest.approx(prior)


class TestManagerStep:
    def test_states_report_match_and_miss(self):
        m = manager(max_tracks=2)
        m.step(blob(5, 10) | blob(40, 10))
        states = m.step(blob(5, 12))  # second actor vanished
        by_id = {s.track_id: s for s in states}
        assert by_id["t0"].matched and by_id["t0"].box is not None
        assert not by_id["t1"].matched and by_id["t1"].box is None

    def test_state_to_dict_shape(self):
        m = manager()
        (state,) = m.step(blob(5, 10))
        payload = state.to_dict()
        assert set(payload) == {
            "track_id",
            "state",
            "matched",
            "pose",
            "box",
            "health",
        }
        assert payload["box"] is not None and len(payload["box"]) == 4
        assert payload["pose"] is not None and len(payload["pose"]) == 10

    def test_candidates_override_mask_splitting(self):
        m = manager(max_tracks=2)
        mask = blob(5, 10) | blob(40, 10)
        m.step(mask, candidates=[blob(5, 10), blob(40, 10)])
        assert len(m.tracks) == 2

    def test_primary_is_longest_confirmed(self):
        m = manager(max_tracks=2)
        m.step(blob(5, 10))
        for f in range(1, 6):
            m.step(blob(5, 10 + 2 * f) | blob(40, 10 + 2 * (f - 1)))
        assert m.primary_track().track_id == "t0"

    def test_deterministic_across_runs(self):
        def run():
            m = manager(max_tracks=2)
            for f in range(5):
                m.step(blob(5, 10 + 2 * f) | blob(40, 10 + 2 * f))
            return [
                (t.track_id, t.state, [(p.x0, p.y0) for p in t.result().poses])
                for t in m.tracks
            ]

        assert run() == run()

    def test_association_counters(self):
        inst = Instrumentation()
        m = manager(instrumentation=inst, max_tracks=1)
        m.step(blob(5, 10))
        m.step(blob(5, 12))
        m.step(np.zeros(SHAPE, dtype=bool))
        assert inst.counter("tracking.associations") == 1
        assert inst.counter("tracking.misses") == 1
