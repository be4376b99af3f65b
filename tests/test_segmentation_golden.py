"""Golden digests of segmentation Steps 1–5 on fixed synthetic clips.

Segmentation draws no random numbers, so every background and every
per-frame mask is a pure function of the frames and the config.  The
digests below pin them byte for byte: a faster kernel for any step
(labelling, the shadow test, the channel reductions, the background
scan) must reproduce them exactly.

Each clip is the standard synthetic jump with every scene length
scaled, quantised to ``uint8`` and decoded back (the service's input
path).  To print the digests of the current code, run
``PYTHONPATH=src python tests/test_segmentation_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.segmentation import (
    BackgroundResult,
    ChangeDetectionBackgroundEstimator,
    ChangeDetectionConfig,
    RunningBackgroundModel,
    SegmentationConfig,
    SegmentationPipeline,
)
from repro.video.sequence import VideoSequence
from repro.video.synthesis import JumpParameters, SyntheticJumpConfig, synthesize_jump
from repro.video.synthesis.scene import SceneConfig

#: Geometry name -> (scale of every scene length, frames, seed).
CLIPS = {"160x120": (1, 20, 11), "320x240": (2, 12, 12)}

_SCALED = (
    "stand_x",
    "jump_distance",
    "flight_height",
    "lean_advance",
    "settle_advance",
    "ground_level",
)

#: Change thresholds: the default, and one low enough that some pixels
#: never see a stable pair (the temporal-median fallback).
THRESHOLDS = (0.05, 0.015)

BACKGROUND_DIGESTS = {
    ("160x120", "longest_run", 0.05): "693822f6b1b190d9",
    ("160x120", "longest_run", 0.015): "26c457c9432e3b5c",
    ("320x240", "longest_run", 0.05): "3aa59fc6be63cda5",
    ("320x240", "longest_run", 0.015): "8fd9db400e729656",
}

#: RunningBackgroundModel fed the clip frame by frame.  Where every
#: pixel saw a stable pair (threshold 0.05) it equals the batch
#: estimate; elsewhere its fallback is the running mean frame.
RUNNING_DIGESTS = {
    ("160x120", "longest_run", 0.05): "693822f6b1b190d9",
    ("160x120", "longest_run", 0.015): "338895c970cfb197",
    ("320x240", "longest_run", 0.05): "3aa59fc6be63cda5",
    ("320x240", "longest_run", 0.015): "204db3bfbbf2eb90",
}

SEGMENTATION_DIGESTS = {
    ("160x120", "paper"): "3e76b05df7059121",
    ("160x120", "multi_actor"): "2899c61a31ca64c4",
    ("320x240", "paper"): "468fe5dc1545be95",
    ("320x240", "multi_actor"): "4dd0da5c53f093d9",
}

SEGMENTATION_CONFIGS = {
    "paper": SegmentationConfig(),
    # Top-N candidates: pins the label numbering that breaks area ties.
    "multi_actor": SegmentationConfig(max_components=3, min_component_area=5),
}


def make_clip(geometry: str) -> VideoSequence:
    """The fixed clip of ``geometry``, through a uint8 round trip."""
    scale, frames, seed = CLIPS[geometry]
    params, scene = JumpParameters(), SceneConfig()
    config = SyntheticJumpConfig(
        seed=seed,
        stature=SyntheticJumpConfig().stature * scale,
        params=dataclasses.replace(
            params,
            num_frames=frames,
            **{name: getattr(params, name) * scale for name in _SCALED},
        ),
        scene=dataclasses.replace(
            scene,
            height=scene.height * scale,
            width=scene.width * scale,
            ground_level=scene.ground_level * scale,
        ),
    )
    video = synthesize_jump(config).video
    return VideoSequence(np.round(video.frames * 255.0).astype(np.uint8))


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


def _result_digest(result: BackgroundResult) -> str:
    return _digest((result.background, result.support, result.fallback_mask))


def background_digest(video: VideoSequence, threshold: float) -> str:
    config = ChangeDetectionConfig(threshold=threshold)
    return _result_digest(ChangeDetectionBackgroundEstimator(config).estimate(video))


def running_digest(video: VideoSequence, threshold: float) -> str:
    model = RunningBackgroundModel(ChangeDetectionConfig(threshold=threshold))
    for frame in video:
        model.observe(frame)
    return _result_digest(model.freeze())


def segmentation_digest(video: VideoSequence, config: SegmentationConfig) -> str:
    masks = []
    for seg in SegmentationPipeline(config).segment_video(video):
        masks.extend(seg.stages().values())
        masks.append(seg.detected_shadow)
        masks.extend(seg.candidates)
    return _digest(masks)


@pytest.fixture(scope="module", params=sorted(CLIPS))
def clip(request):
    return request.param, make_clip(request.param)


def _longest_run_id(threshold: float) -> str:
    return f"longest_run-{threshold}"


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=_longest_run_id)
def test_background_digest(clip, threshold):
    geometry, video = clip
    digest = background_digest(video, threshold)
    assert digest == BACKGROUND_DIGESTS[geometry, "longest_run", threshold]


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=_longest_run_id)
def test_running_background_digest(clip, threshold):
    geometry, video = clip
    digest = running_digest(video, threshold)
    assert digest == RUNNING_DIGESTS[geometry, "longest_run", threshold]


@pytest.mark.parametrize("name", sorted(SEGMENTATION_CONFIGS))
def test_segmentation_digest(clip, name):
    geometry, video = clip
    digest = segmentation_digest(video, SEGMENTATION_CONFIGS[name])
    assert digest == SEGMENTATION_DIGESTS[geometry, name]


def test_clips_exercise_every_branch(clip):
    """The pins are only as strong as the branches the clips reach."""
    geometry, video = clip
    low = ChangeDetectionConfig(threshold=min(THRESHOLDS))
    fallback = ChangeDetectionBackgroundEstimator(low).estimate(video).fallback_mask
    assert fallback.any() and not fallback.all()
    segs = SegmentationPipeline().segment_video(video)
    assert all(seg.detected_shadow.any() for seg in segs)
    multi = SegmentationPipeline(SEGMENTATION_CONFIGS["multi_actor"])
    assert max(len(seg.candidates) for seg in multi.segment_video(video)) > 1


if __name__ == "__main__":
    for geometry in sorted(CLIPS):
        video = make_clip(geometry)
        for threshold in THRESHOLDS:
            print(geometry, "longest_run", threshold, background_digest(video, threshold))
            print(geometry, "running", threshold, running_digest(video, threshold))
        for name, config in sorted(SEGMENTATION_CONFIGS.items()):
            print(geometry, name, segmentation_digest(video, config))
