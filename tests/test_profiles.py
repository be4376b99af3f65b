"""Movement-profile registry: identity, the second profile, end to end.

Three contracts pinned here:

1. **Registry wiring** — both shipped profiles register at import
   time, lookups resolve, unknown names are a ``ConfigurationError``
   (at the registry and at ``AnalyzerConfig`` construction).
2. **Standing long jump is a wrapper, not a rewrite** — the profile
   points at the *same objects* (``RULES``, ``Standard``, ``ADVICE``,
   event detector, distance measure) the scoring layer always used, so
   registry dispatch cannot move the paper's results.
3. **Sit-to-stand proves the engine general** — the synthetic chair
   rise scores end to end through the registry with the default
   config: all four form rules pass, the detected rise onset lands
   after the ground-truth rise start (the detector is deliberately
   late so the forward lean stays in the seated window), and the
   measured vertical rise matches the clip's geometry.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ScoringError
from repro.model.sticks import default_body
from repro.pipeline import AnalyzerConfig, JumpAnalyzer
from repro.profiles import (
    MOVEMENT_PROFILES,
    MovementProfile,
    get_profile,
    profile_names,
)
from repro.profiles.sit_to_stand import (
    SIT_TO_STAND_RULES,
    detect_sit_to_stand_events,
    measure_sit_to_stand,
)
from repro.video.synthesis import (
    SitToStandClipConfig,
    generate_sit_to_stand_poses,
    synthesize_sit_to_stand,
)


class TestRegistry:
    def test_shipped_profiles_registered_in_order(self):
        assert profile_names() == ("standing_long_jump", "sit_to_stand")

    def test_lookup(self):
        profile = get_profile("sit_to_stand")
        assert isinstance(profile, MovementProfile)
        assert profile.name == "sit_to_stand"
        assert MOVEMENT_PROFILES.get("standing_long_jump").title == (
            "Standing Long Jump"
        )

    def test_unknown_profile_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            get_profile("backflip")
        with pytest.raises(ConfigurationError):
            AnalyzerConfig(profile="backflip")

    def test_config_accepts_registered_profiles(self):
        assert AnalyzerConfig(profile="sit_to_stand").profile == "sit_to_stand"


class TestStandingLongJumpIdentity:
    """The flagship profile must be the scoring layer, verbatim."""

    def test_same_objects_not_copies(self):
        from repro.analysis.events import detect_events
        from repro.scoring.distance import measure_jump
        from repro.scoring.rules import RULES
        from repro.scoring.standards import ADVICE, Standard

        profile = get_profile("standing_long_jump")
        assert profile.rules is RULES
        assert profile.standards == tuple(Standard)
        assert profile.advice is ADVICE
        assert profile.detect_events is detect_events
        assert profile.measure is measure_jump

    def test_standing_prior_is_the_legacy_default(self):
        assert get_profile("standing_long_jump").start_angles is None

    def test_default_config_uses_it(self):
        assert AnalyzerConfig().profile == "standing_long_jump"


class TestSitToStandUnits:
    @pytest.fixture(scope="class")
    def truth(self):
        config = SitToStandClipConfig()
        dims = default_body(stature=config.stature)
        poses, rise_frame = generate_sit_to_stand_poses(dims, config)
        return poses, rise_frame, dims

    def test_event_detector_on_ground_truth(self, truth):
        poses, rise_frame, dims = truth
        events = detect_sit_to_stand_events(poses, dims)
        # Onset at half-rise is deliberately later than the blend start.
        assert rise_frame <= events.takeoff_frame <= rise_frame + 8
        assert events.landing_frame >= events.takeoff_frame
        assert events.peak_frame >= events.takeoff_frame

    def test_event_detector_needs_four_poses(self, truth):
        poses, _, dims = truth
        with pytest.raises(ScoringError):
            detect_sit_to_stand_events(poses[:3], dims)

    def test_measure_rise_on_ground_truth(self, truth):
        poses, _, dims = truth
        measurement = measure_sit_to_stand(poses, dims)
        seated, stand = poses[0].y0, max(p.y0 for p in poses)
        assert measurement.distance == pytest.approx(stand - seated)
        assert measurement.takeoff_line_x == pytest.approx(seated)
        assert measurement.landing_heel_x == pytest.approx(stand)
        assert measurement.relative_to_stature == pytest.approx(
            (stand - seated) / dims.stature
        )

    def test_rules_reference_their_standards(self):
        assert [rule.rule_id for rule in SIT_TO_STAND_RULES] == [
            "T1",
            "T2",
            "T3",
            "T4",
        ]
        stages = [rule.standard.stage for rule in SIT_TO_STAND_RULES]
        assert stages == [
            "initiation",
            "initiation",
            "air_landing",
            "air_landing",
        ]

    def test_profile_has_seated_annotation_prior(self):
        profile = get_profile("sit_to_stand")
        assert profile.start_angles is not None
        assert len(profile.start_angles) == 8
        trunk, _, _, thigh = profile.start_angles[:4]
        assert trunk > 0  # leaning forward, not the standing prior
        assert thigh < 180  # hips flexed


class TestSitToStandEndToEnd:
    @pytest.fixture(scope="class")
    def analysis(self):
        clip = synthesize_sit_to_stand()
        analyzer = JumpAnalyzer(AnalyzerConfig(profile="sit_to_stand"))
        result = analyzer.analyze(
            clip.video, rng=np.random.default_rng(clip.config.seed)
        )
        return clip, result

    def test_all_rules_pass(self, analysis):
        _, result = analysis
        assert result.report.score == 1.0
        assert [r.rule.rule_id for r in result.report.results] == [
            "T1",
            "T2",
            "T3",
            "T4",
        ]

    def test_events_and_measurement(self, analysis):
        clip, result = analysis
        assert clip.rise_frame <= result.events.takeoff_frame <= (
            clip.rise_frame + 8
        )
        # The rise is positive and bounded, but not pinned to the
        # ground-truth 10 px: a subject who never leaves their spot
        # contaminates the median background, so the segmented
        # silhouettes are fragments and the automatic annotation's
        # absolute scale (hence the px rise) is biased — the angles the
        # rules score survive, the metric calibration does not.
        assert 0.0 < result.measurement.distance < clip.dims.stature
        assert result.measurement.landing_heel_x > (
            result.measurement.takeoff_line_x
        )

    def test_report_carries_the_profile(self, analysis):
        _, result = analysis
        assert result.report.profile == "sit_to_stand"
        text = result.report.render_text()
        assert "Sit to Stand" in text
        assert "T1" in text

    def test_serialization_roundtrip_resolves_profile_rules(self, analysis):
        from repro.serialization import report_from_dict, report_to_dict

        _, result = analysis
        back = report_from_dict(report_to_dict(result.report))
        assert back.profile == "sit_to_stand"
        assert back.score == result.report.score
        assert [r.rule.rule_id for r in back.results] == [
            "T1",
            "T2",
            "T3",
            "T4",
        ]


class TestSitToStandLive:
    """A live stream follows the configured profile, as batch does."""

    @pytest.fixture(scope="class")
    def streamed(self):
        from dataclasses import replace

        from repro.config import get_preset
        from repro.pipeline import StreamingConfig

        clip = synthesize_sit_to_stand()
        config = replace(
            get_preset("fast"),
            profile="sit_to_stand",
            # The subject sits still through the first frames, so a short
            # warm-up freezes them into the background and frame 0
            # segments empty (docs/profiles.md).  Warming up on every
            # frame but the last lets the background see them rise.
            streaming=StreamingConfig(warmup_frames=len(clip.video) - 1),
        )
        stream = JumpAnalyzer(config).open_stream(
            rng=np.random.default_rng(clip.config.seed)
        )
        for frame in clip.video:
            stream.push_frame(frame)
        provisional = stream.provisional
        return provisional, stream.finish()

    def test_anchors_on_the_seated_prior(self, streamed):
        _, analysis = streamed
        profile = get_profile("sit_to_stand")
        assert analysis.annotation.pose.angles_deg == pytest.approx(
            profile.start_angles
        )

    def test_provisional_uses_the_profile(self, streamed):
        from repro.scoring.report import JumpScorer

        provisional, analysis = streamed
        profile = get_profile("sit_to_stand")
        poses = analysis.tracking.poses
        events = profile.detect_events(poses, analysis.annotation.dims)
        report = JumpScorer(profile=profile).score(
            poses, takeoff_frame=events.takeoff_frame
        )
        assert provisional.frames_seen == len(poses)
        assert provisional.takeoff_frame == events.takeoff_frame
        assert provisional.landing_frame == events.landing_frame
        assert provisional.score == report.score


class TestSitToStandClipValidation:
    def test_rejects_bad_timeline(self):
        with pytest.raises(ConfigurationError):
            SitToStandClipConfig(lean_start=0.6, rise_start=0.5)
        with pytest.raises(ConfigurationError):
            SitToStandClipConfig(num_frames=3)

    def test_clip_shape(self):
        clip = synthesize_sit_to_stand(SitToStandClipConfig(num_frames=12))
        assert len(clip.video) == 12
        assert len(clip.poses) == 12
        assert len(clip.person_masks) == 12
        assert 1 <= clip.rise_frame < 12
