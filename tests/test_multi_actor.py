"""Multi-actor acceptance: parity, per-track scoring, MOT, wire shape.

Three contracts pinned here:

1. **Within-version parity** — the multi-actor refactor left the
   single-actor path untouched: config hash, score, events and poses of
   the canonical seed-0 jump are hardcoded and must not move.
2. **Two actors, two tracks** — the labelled 2-actor scene yields
   exactly two confirmed tracks, each scored within tolerance of that
   actor's single-actor run, with zero ID switches under
   :func:`evaluate_mot`.
3. **Wire shape** — ``analysis_to_dict`` (and therefore
   ``POST /v1/analyze`` and the job results) always carries a
   ``tracks`` array with one identical key shape in both modes.
"""

import json
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.config import config_hash, config_to_dict
from repro.evaluation import evaluate_mot
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.model.sticks import default_body
from repro.pipeline import (
    AnalyzerConfig,
    JumpAnalyzer,
    StreamingConfig,
    multi_actor_config,
)
from repro.serialization import analysis_to_dict
from repro.video.synthesis import MultiActorJumpConfig, synthesize_multi_jump
from repro.video.synthesis.motion import generate_jump_motion, good_style
from repro.video.synthesis.render import render_poses
from repro.video.synthesis.scene import Scene

#: Scores are rule fractions (n/7); the fast GA budget used in tests is
#: noisy enough to flip up to two rules between a lane render and the
#: full scene, so tolerance is 2.5 rules.
SCORE_TOLERANCE = 2.5 / 7


def fast_config(**overrides):
    return AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=30, max_generations=10, patience=5),
            fitness=FitnessConfig(max_points=500),
        ),
        **overrides,
    )


@pytest.fixture(scope="module")
def scene():
    return synthesize_multi_jump(MultiActorJumpConfig(seed=0, actors=2))


@pytest.fixture(scope="module")
def multi_analysis(scene):
    analyzer = JumpAnalyzer(multi_actor_config(fast_config(), actors=2))
    return analyzer.analyze(scene.video, rng=np.random.default_rng(1))


def solo_analysis(scene, index):
    """Analyze actor ``index`` rendered alone in the same scene."""
    config = scene.config
    dims = default_body(stature=config.actor_stature(index))
    motion = generate_jump_motion(
        dims, config.actor_parameters(index), good_style()
    )
    rendered = render_poses(
        motion.poses,
        dims,
        Scene(config.scene_config()),
        shadow_config=config.shadow,
        noise_config=config.noise,
        rng=np.random.default_rng(config.seed),
    )
    return JumpAnalyzer(fast_config()).analyze(
        rendered.video, rng=np.random.default_rng(1)
    )


class TestSingleActorParity:
    """The refactor must not move the single-jumper path (pinned)."""

    def test_default_config_hash_pinned(self):
        assert config_hash(config_to_dict(AnalyzerConfig())) == "4da5a4095700ad0d"

    def test_tracking_disabled_by_default(self):
        config = AnalyzerConfig()
        assert config.tracking.enabled is False
        assert config.segmentation.max_components == 1

    def test_seed0_results_pinned(self, jump):
        from repro.model.annotation import simulate_human_annotation

        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        analysis = JumpAnalyzer(fast_config()).analyze(
            jump.video, annotation=annotation, rng=np.random.default_rng(1)
        )
        assert analysis.report.score == 1.0
        assert analysis.events.takeoff_frame == 12
        assert analysis.events.landing_frame == 17
        assert analysis.measurement.distance == pytest.approx(
            55.23874, abs=1e-3
        )
        checksum = float(
            np.sum([[p.x0, p.y0, *p.angles_deg] for p in analysis.poses])
        )
        assert checksum == pytest.approx(22736.9326, abs=0.01)
        # Single mode: no track objects, but the wire format still
        # synthesises the tracks array (shape test below).
        assert analysis.tracks == ()


def _pose_checksum(poses):
    return float(np.sum([[p.x0, p.y0, *p.angles_deg] for p in poses]))


def _assert_pinned(result, score, takeoff, landing, distance, checksum):
    """One analysis (or track) against its pinned seed-0 values."""
    assert result.report.score == pytest.approx(score)
    assert result.events.takeoff_frame == takeoff
    assert result.events.landing_frame == landing
    assert result.measurement.distance == pytest.approx(distance, abs=1e-3)
    assert _pose_checksum(result.poses) == pytest.approx(checksum, abs=0.01)


def _live_config(config):
    return replace(config, streaming=StreamingConfig(warmup_frames=4))


def _streamed(config, video, annotation=None):
    stream = JumpAnalyzer(config).open_stream(
        annotation=annotation, rng=np.random.default_rng(1)
    )
    for frame in video:
        stream.push_frame(frame)
    return stream.finish()


class TestPathPins:
    """Live and multi-actor results of the seed-0 scenes (pinned).

    Together with :meth:`TestSingleActorParity.test_seed0_results_pinned`
    these pin every tracking path — batch or live, one actor or two —
    so a refactor of how the paths are wired cannot move a result.
    """

    def test_live_single_actor_pinned(self, jump):
        from repro.model.annotation import simulate_human_annotation

        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        analysis = _streamed(
            _live_config(fast_config()), jump.video, annotation=annotation
        )
        _assert_pinned(analysis, 1 / 7, 2, 10, 11.13469, 26616.8249)
        assert analysis.tracks == ()

    def test_batch_two_actor_pinned(self, multi_analysis):
        _assert_pinned(multi_analysis, 2 / 7, 3, 19, 34.32916, 22766.7761)
        t0, t1 = multi_analysis.tracks
        _assert_pinned(t0, 2 / 7, 3, 19, 34.32916, 22766.7761)
        _assert_pinned(t1, 4 / 7, 6, 19, 40.51256, 25981.6785)

    def test_live_two_actor_pinned(self, scene):
        analysis = _streamed(
            _live_config(multi_actor_config(fast_config(), actors=2)),
            scene.video,
        )
        _assert_pinned(analysis, 1 / 7, 10, 11, -11.82755, 33558.2876)
        t0, t1 = analysis.tracks
        _assert_pinned(t0, 1 / 7, 10, 11, -11.82755, 33558.2876)
        _assert_pinned(t1, 5 / 7, 8, 9, -14.69224, 26744.4798)

    def test_analyze_with_live_config_is_the_live_result(self, jump):
        """``analyze()`` under a live config streams the clip live."""
        from repro.model.annotation import simulate_human_annotation

        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        analysis = JumpAnalyzer(_live_config(fast_config())).analyze(
            jump.video, annotation=annotation, rng=np.random.default_rng(1)
        )
        _assert_pinned(analysis, 1 / 7, 2, 10, 11.13469, 26616.8249)

    def test_analyze_with_live_two_actor_config_is_the_live_result(
        self, scene
    ):
        config = _live_config(multi_actor_config(fast_config(), actors=2))
        analysis = JumpAnalyzer(config).analyze(
            scene.video, rng=np.random.default_rng(1)
        )
        _assert_pinned(analysis, 1 / 7, 10, 11, -11.82755, 33558.2876)
        t0, t1 = analysis.tracks
        _assert_pinned(t0, 1 / 7, 10, 11, -11.82755, 33558.2876)
        _assert_pinned(t1, 5 / 7, 8, 9, -14.69224, 26744.4798)


class TestTwoActorAcceptance:
    def test_exactly_two_confirmed_tracks(self, multi_analysis):
        assert [t.track_id for t in multi_analysis.tracks] == ["t0", "t1"]
        assert all(t.state == "confirmed" for t in multi_analysis.tracks)
        assert all(t.frames == 20 for t in multi_analysis.tracks)

    def test_each_track_scored_near_its_solo_run(self, scene, multi_analysis):
        # Track ids are area-ordered (t0 = taller actor 0, t1 = the
        # shorter actor 1), matching actor indices in the lane layout.
        for index, track in enumerate(multi_analysis.tracks):
            solo = solo_analysis(scene, index)
            assert track.report.score == pytest.approx(
                solo.report.score, abs=SCORE_TOLERANCE
            ), track.track_id
            assert track.measurement.distance == pytest.approx(
                solo.measurement.distance, rel=0.5
            ), track.track_id

    def test_zero_id_switches(self, scene, multi_analysis):
        mot = evaluate_mot(scene, multi_analysis)
        assert mot.num_actors == 2
        assert mot.num_tracks == 2
        assert mot.id_switches == 0
        assert mot.id_switches_per_actor == (0, 0)
        assert all(p == 1.0 for p in mot.track_purity.values())
        assert mot.mota == 1.0

    def test_diagnostics_summarise_tracks(self, multi_analysis):
        rows = multi_analysis.diagnostics["tracks"]
        assert [row["track_id"] for row in rows] == ["t0", "t1"]
        assert all(row["state"] == "confirmed" for row in rows)

    def test_primary_track_mirrors_top_level(self, multi_analysis):
        primary = max(
            multi_analysis.tracks, key=lambda t: (t.frames,)
        )
        assert multi_analysis.report.score == primary.report.score
        assert len(multi_analysis.poses) == primary.frames


class TestWireShape:
    def test_tracks_array_in_multi_mode(self, multi_analysis):
        payload = analysis_to_dict(multi_analysis)
        assert [t["track_id"] for t in payload["tracks"]] == ["t0", "t1"]
        for entry in payload["tracks"]:
            assert entry["report"]["score"] is not None
            assert entry["measurement"]["distance_px"] > 0
        json.dumps(payload)  # JSON-safe end to end

    def test_single_mode_synthesises_identical_shape(self, jump, multi_analysis):
        from repro.model.annotation import simulate_human_annotation

        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        single = JumpAnalyzer(fast_config()).analyze(
            jump.video, annotation=annotation, rng=np.random.default_rng(1)
        )
        single_payload = analysis_to_dict(single)
        multi_payload = analysis_to_dict(multi_analysis)
        assert len(single_payload["tracks"]) == 1
        (entry,) = single_payload["tracks"]
        assert entry["track_id"] == "t0"
        assert set(entry) == set(multi_payload["tracks"][0])
        assert entry["report"] == single_payload["report"]
        assert len(entry["poses"]) == len(single_payload["poses"])


class TestCrossingScene:
    """Crossing trajectories: render, genuinely overlap, track with a
    documented bound of at most one identity switch.

    The parallel-lane scenes above never overlap, so they cannot
    exercise the tracker's occlusion handling.  ``crossing=True``
    renders :func:`crossing_actor_parameters` — two jumpers sharing one
    lane, launched toward each other — and the masks really do merge
    mid-flight.  The greedy IoU matcher may hand identities across the
    merge; empirically seed 0 costs exactly one switch, and this test
    pins that as a ceiling (improvements tighten it, regressions fail).
    """

    @pytest.fixture(scope="class")
    def crossing(self):
        return synthesize_multi_jump(
            MultiActorJumpConfig(seed=0, actors=2, crossing=True)
        )

    def test_crossing_requires_exactly_two_actors(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MultiActorJumpConfig(seed=0, actors=3, crossing=True)

    def test_masks_genuinely_overlap(self, crossing):
        first, second = crossing.actors
        overlap = max(
            int(np.sum(a & b))
            for a, b in zip(first.masks, second.masks)
        )
        assert overlap > 0

    def test_two_tracks_at_most_one_id_switch(self, crossing):
        analyzer = JumpAnalyzer(multi_actor_config(fast_config(), actors=2))
        analysis = analyzer.analyze(
            crossing.video, rng=np.random.default_rng(0)
        )
        mot = evaluate_mot(crossing, analysis)
        assert mot.num_actors == 2
        assert mot.num_tracks == 2
        assert mot.id_switches <= 1


class TestStreamingMulti:
    def test_live_updates_carry_per_track_states(self, scene):
        config = replace(
            multi_actor_config(fast_config(), actors=2),
            streaming=StreamingConfig(warmup_frames=4),
        )
        stream = JumpAnalyzer(config).open_stream(
            rng=np.random.default_rng(1)
        )
        saw_tracked_update = False
        for frame in scene.video:
            update = stream.push_frame(frame)
            if update.phase == "tracking" and len(update.tracks) == 2:
                saw_tracked_update = True
                ids = {state.track_id for state in update.tracks}
                assert ids == {"t0", "t1"}
                payload = update.to_dict()
                assert len(payload["tracks"]) == 2
        assert saw_tracked_update
        analysis = stream.finish()
        assert [t.track_id for t in analysis.tracks] == ["t0", "t1"]
        assert all(t.report.score is not None for t in analysis.tracks)


class TestServiceTracks:
    def test_analyze_returns_tracks(self, short_jump):
        from repro.service import ServiceHandle, encode_video

        config = AnalyzerConfig(
            tracker=TrackerConfig(
                ga=GAConfig(population_size=20, max_generations=5, patience=3),
                fitness=FitnessConfig(max_points=300),
            )
        )
        body = json.dumps(
            {"video_npz_b64": encode_video(short_jump.video), "seed": 1}
        ).encode()

        with ServiceHandle(config=config) as handle:
            request = urllib.request.Request(
                handle.address + "/v1/analyze",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                v1 = json.loads(response.read())
        assert isinstance(v1["tracks"], list) and len(v1["tracks"]) == 1
        assert v1["tracks"][0]["track_id"] == "t0"
        assert v1["tracks"][0]["report"]["score"] is not None
