"""Integration tests for the five-step segmentation pipeline."""

import numpy as np
import pytest

from repro.errors import SegmentationError
from repro.imaging.metrics import iou
from repro.segmentation.evaluation import evaluate_sequence, score_stages
from repro.segmentation.pipeline import SegmentationConfig, SegmentationPipeline


class TestPipeline:
    def test_requires_fit_before_background(self):
        with pytest.raises(SegmentationError):
            SegmentationPipeline().background

    def test_segments_whole_jump(self, jump):
        pipeline = SegmentationPipeline()
        segmentations = pipeline.segment_video(jump.video)
        assert len(segmentations) == jump.num_frames
        for seg in segmentations:
            assert seg.person.any()

    def test_silhouette_quality(self, jump):
        pipeline = SegmentationPipeline()
        silhouettes = pipeline.silhouettes(jump.video)
        scores = [
            iou(sil, jump.person_masks[k]) for k, sil in enumerate(silhouettes)
        ]
        assert float(np.mean(scores)) > 0.9
        assert min(scores) > 0.75

    def test_shadow_pixels_removed(self, jump):
        pipeline = SegmentationPipeline()
        segmentations = pipeline.segment_video(jump.video)
        evaluation = evaluate_sequence(segmentations, jump, pipeline.background)
        assert evaluation.mean_shadow_leakage < 0.05
        assert evaluation.mean_shadow_discrimination > 0.95

    def test_without_shadow_removal_silhouette_dirtier(self, jump):
        with_config = SegmentationPipeline()
        without_config = SegmentationPipeline(
            SegmentationConfig(remove_shadows=False)
        )
        sil_with = with_config.silhouettes(jump.video)
        sil_without = without_config.silhouettes(jump.video)
        k = 15  # well-separated flight frame
        assert iou(sil_with[k], jump.person_masks[k]) > iou(
            sil_without[k], jump.person_masks[k]
        )

    def test_stage_masks_nested(self, jump):
        pipeline = SegmentationPipeline()
        pipeline.fit(jump.video)
        seg = pipeline.segment(jump.video[12])
        # spot removal only removes, hole fill only adds
        assert not (seg.after_spot_removal & ~seg.after_noise_removal).any()
        assert (seg.after_hole_fill | ~seg.after_spot_removal).all()


class TestEvaluationHelpers:
    def test_score_stages_f1_keys(self, jump):
        pipeline = SegmentationPipeline()
        segmentations = pipeline.segment_video(jump.video)
        scores = score_stages(segmentations[5], jump, 5)
        f1 = scores.f1_by_stage()
        assert set(f1) == {
            "raw_foreground",
            "after_noise_removal",
            "after_spot_removal",
            "after_hole_fill",
            "person",
        }
        assert all(0.0 <= v <= 1.0 for v in f1.values())

    def test_sequence_evaluation_lengths(self, jump):
        pipeline = SegmentationPipeline()
        segmentations = pipeline.segment_video(jump.video)
        evaluation = evaluate_sequence(segmentations, jump, pipeline.background)
        assert len(evaluation.person_iou) == jump.num_frames
        assert len(evaluation.shadow_detection) == jump.num_frames
        assert evaluation.background_rmse < 0.06

    def test_mismatched_lengths_rejected(self, jump):
        pipeline = SegmentationPipeline()
        segmentations = pipeline.segment_video(jump.video)
        with pytest.raises(ValueError):
            evaluate_sequence(segmentations[:-1], jump, pipeline.background)


class TestMultiComponentCandidates:
    """``max_components > 1``: per-component candidates + reject metrics."""

    def test_candidates_empty_in_single_mode(self, jump):
        pipeline = SegmentationPipeline()
        seg = pipeline.segment_video(jump.video)[10]
        assert seg.candidates == ()

    def test_candidates_union_is_person(self, jump):
        pipeline = SegmentationPipeline(
            SegmentationConfig(max_components=3, min_component_area=40)
        )
        for seg in pipeline.segment_video(jump.video):
            union = np.zeros_like(seg.person)
            for candidate in seg.candidates:
                union |= candidate
            assert np.array_equal(union, seg.person)

    def test_candidates_area_ordered(self, jump):
        pipeline = SegmentationPipeline(
            SegmentationConfig(max_components=3, min_component_area=40)
        )
        seg = pipeline.segment_video(jump.video)[10]
        areas = [int(c.sum()) for c in seg.candidates]
        assert areas == sorted(areas, reverse=True)
        assert areas and areas[0] >= 40

    def test_rejected_components_counted(self, jump):
        from repro.runtime import Instrumentation

        # An absurd area floor rejects every component: the drop is an
        # observable metric, never a silent truncation.
        instrumentation = Instrumentation()
        pipeline = SegmentationPipeline(
            SegmentationConfig(max_components=2, min_component_area=100_000),
            instrumentation=instrumentation,
        )
        segmentations = pipeline.segment_video(jump.video)
        assert all(seg.candidates == () for seg in segmentations)
        assert instrumentation.counter("segmentation.components_total") > 0
        assert instrumentation.counter(
            "segmentation.components_rejected"
        ) == instrumentation.counter("segmentation.components_total")
        assert instrumentation.counter("segmentation.rejected_area") > 0

    def test_rejected_metrics_zero_when_all_kept(self, jump):
        from repro.runtime import Instrumentation

        instrumentation = Instrumentation()
        pipeline = SegmentationPipeline(
            SegmentationConfig(max_components=10_000, min_component_area=1),
            instrumentation=instrumentation,
        )
        pipeline.segment_video(jump.video)
        assert instrumentation.counter("segmentation.components_rejected") == 0
        assert instrumentation.counter("segmentation.rejected_area") == 0

    def test_single_mode_metrics_still_emitted(self, jump):
        from repro.runtime import Instrumentation

        instrumentation = Instrumentation()
        pipeline = SegmentationPipeline(
            SegmentationConfig(), instrumentation=instrumentation
        )
        pipeline.segment_video(jump.video)
        assert instrumentation.counter("segmentation.components_total") > 0
