"""The benchmark's three closed-loop workloads.

One process, one operation in flight, the ``fast`` preset.  Each
workload owns

* its inputs, synthesised from the seed (``make_inputs`` runs in a
  child process, so synthesis never counts in the parent's peak RSS,
  and returns JSON: encoded request bodies, not float arrays);
* its set-up, which ``setup_s`` times from before ``import repro``;
* one *unit* of closed-loop work and the checks each output must pass.

A unit is one request (``jump_analyze``), one job (``vga_jump_jobs``)
or one whole 24-frame clip pushed frame by frame and finished
(``two_actor_live``).  Every unit of a run repeats the same input, so
a unit's counts repeat exactly and its outputs can be compared across
the traced and untraced phases.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import io
import json
import time
import types
from typing import Any

import numpy as np

FRAMES = 24
PRESET = "fast"
#: ``vga_jump_jobs`` renders the paper-size scene with every length
#: scaled by this factor: 160x120 -> 640x480.
VGA_SCALE = 4
ACTORS = 2
LIVE_WARMUP_FRAMES = 4


@dataclasses.dataclass
class UnitResult:
    """What one unit of work produced."""

    latencies: list[float]
    frames: int
    ops: int
    failures: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    #: Digest of the unit's outputs (timings excluded).
    fingerprint: str | None = None
    #: ``pose_err_deg`` or ``mota`` of this unit's output.
    quality: float | None = None
    config_hash: str | None = None
    #: Per-unit values measured outside the spans (sizes, track count).
    extra: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Operation records of the traced phase.
    records: list[Any] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# Inputs (child process)
# ----------------------------------------------------------------------
def _uint8(frames: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(frames) * 255.0).astype(np.uint8)


def _encode(frames: np.ndarray) -> str:
    """uint8 frames as a ``video_npz_b64`` payload (``encode_video``
    takes a ``VideoSequence``, whose frames are float64)."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, frames=frames)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def _decode(payload: str) -> np.ndarray:
    with np.load(io.BytesIO(base64.b64decode(payload))) as archive:
        return archive["frames"]


def jump_inputs(seed: int, scale: int) -> dict[str, Any]:
    """One single-jumper clip, every scene length scaled by ``scale``."""
    from repro import simulate_human_annotation, synthesize_jump
    from repro.serialization import annotation_to_dict, pose_to_dict
    from repro.video.synthesis import JumpParameters, SyntheticJumpConfig
    from repro.video.synthesis.scene import SceneConfig

    params, scene = JumpParameters(), SceneConfig()
    config = SyntheticJumpConfig(
        seed=seed,
        stature=SyntheticJumpConfig().stature * scale,
        params=dataclasses.replace(
            params,
            num_frames=FRAMES,
            **{
                name: getattr(params, name) * scale
                for name in (
                    "stand_x", "jump_distance", "flight_height",
                    "lean_advance", "settle_advance", "ground_level",
                )
            },
        ),
        scene=dataclasses.replace(
            scene,
            height=scene.height * scale,
            width=scene.width * scale,
            ground_level=scene.ground_level * scale,
        ),
    )
    jump = synthesize_jump(config)
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(seed),
    )
    return {
        "body": _encode(_uint8(jump.video.frames)),
        "annotation": annotation_to_dict(annotation),
        "truth": [pose_to_dict(pose) for pose in jump.motion.poses],
        "shape": list(jump.video.frames.shape[1:3]),
    }


def two_actor_inputs(seed: int) -> dict[str, Any]:
    """One two-actor scene with its per-frame ground-truth boxes."""
    from repro import MultiActorJumpConfig, synthesize_multi_jump

    jump = synthesize_multi_jump(
        MultiActorJumpConfig(seed=seed, actors=ACTORS, num_frames=FRAMES)
    )
    boxes = [
        [
            None if box is None
            else [box.row_min, box.col_min, box.row_max, box.col_max]
            for box in jump.gt_boxes(frame)
        ]
        for frame in range(jump.num_frames)
    ]
    return {"frames": _encode(_uint8(jump.video.frames)), "boxes": boxes}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _fingerprint(payload: dict[str, Any]) -> str:
    """Digest of an analysis payload without its timing trace."""
    stable = {key: value for key, value in payload.items() if key != "trace"}
    text = json.dumps(stable, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_payload(payload: dict[str, Any], frames: int) -> list[str]:
    """Violations of the output contract by one analysis payload."""
    from repro.serialization import pose_from_dict, pose_to_dict

    problems = []
    poses = payload["poses"]
    if len(poses) != frames:
        problems.append(f"{len(poses)} poses for {frames} frames")
    for index, entry in enumerate(poses):
        if pose_to_dict(pose_from_dict(entry)) != entry:
            problems.append(f"pose {index} does not round-trip")
            break
    score = payload["report"]["score"]
    if not 0.0 <= score <= 1.0:
        problems.append(f"score {score} outside [0, 1]")
    events = payload["events"]
    if not events["takeoff_frame"] < events["landing_frame"]:
        problems.append(
            f"takeoff {events['takeoff_frame']} not before "
            f"landing {events['landing_frame']}"
        )
    return problems


def pose_error_deg(payload: dict[str, Any], truth: list[Any]) -> float:
    """Mean per-stick angle error over frames 1..T-1, as in
    ``evaluate_tracking.mean_angle_error``."""
    from repro.model.pose import pose_angle_errors
    from repro.serialization import pose_from_dict

    errors = [
        pose_angle_errors(pose_from_dict(payload["poses"][k]), truth[k])
        for k in range(1, len(truth))
    ]
    return float(np.mean(errors, axis=0).mean())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class _HttpWorkload:
    """Shared set-up of the two workloads served by a ``ServiceHandle``."""

    scale = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.handle = None
        self.client = None

    @classmethod
    def make_inputs(cls, seed: int) -> dict[str, Any]:
        return jump_inputs(seed, cls.scale)

    def setup(self) -> None:
        from repro import ServiceClient, ServiceHandle

        self.handle = ServiceHandle(port=0).start()
        self.client = ServiceClient(self.handle.address)
        self.client.health()

    def load(self, inputs: dict[str, Any]) -> None:
        from repro.serialization import pose_from_dict

        self.body = inputs["body"]
        self.annotation = inputs["annotation"]
        self.truth = [pose_from_dict(entry) for entry in inputs["truth"]]
        request = {
            "video_npz_b64": self.body,
            "annotation": self.annotation,
            "seed": self.seed,
            "preset": PRESET,
        }
        self.request_mb = len(json.dumps(request)) / 1e6

    def cache_stats(self) -> dict[str, int]:
        return self.client.metrics()["analyzer_cache"]

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()

    def _request(self) -> dict[str, Any]:
        raise NotImplementedError

    def run_unit(self, recorder: Any = None) -> UnitResult:
        unit = UnitResult(latencies=[], frames=FRAMES, ops=1)
        if recorder is not None:
            recorder.begin_op()
        start = time.perf_counter()
        try:
            payload = self._request()
        except Exception as exc:  # a failed request is a counted failure
            payload = None
            unit.errors.append(f"request failed: {type(exc).__name__}: {exc}")
        finally:
            latency = time.perf_counter() - start
            if recorder is not None:
                unit.records.append(recorder.end_op())
        if payload is not None:
            try:
                unit.errors.extend(check_payload(payload, FRAMES))
            except (KeyError, TypeError, ValueError) as exc:
                unit.errors.append(f"malformed payload: {exc!r}")
        if unit.errors:
            unit.failures = 1
            return unit
        unit.latencies.append(latency)
        unit.fingerprint = _fingerprint(payload)
        unit.quality = pose_error_deg(payload, self.truth)
        unit.config_hash = payload.get("config_hash")
        if recorder is not None:
            unit.extra["service.request_mb"] = self.request_mb
            unit.extra["service.response_kb"] = len(json.dumps(payload)) / 1e3
        return unit


class JumpAnalyze(_HttpWorkload):
    """``POST /v1/analyze`` of a 24-frame 160x120 single-jumper clip."""

    name = "jump_analyze"
    quality_name = "pose_err_deg"

    def _request(self) -> dict[str, Any]:
        return self.client.analyze(
            self.body, annotation=self.annotation, seed=self.seed,
            preset=PRESET,
        )


class VgaJumpJobs(_HttpWorkload):
    """``POST /v1/jobs`` + polls + result of the same clip at 640x480."""

    name = "vga_jump_jobs"
    quality_name = "pose_err_deg"
    scale = VGA_SCALE

    def _request(self) -> dict[str, Any]:
        job = self.client.submit(
            self.body, annotation=self.annotation, seed=self.seed,
            preset=PRESET,
        )
        return self.client.wait(job["id"], timeout=170.0)


class _SceneTruth:
    """The parts of a ``MultiActorJump`` that ``evaluate_mot`` reads,
    rebuilt from the inputs document."""

    def __init__(self, frames: np.ndarray, boxes: list[Any]) -> None:
        from repro.types import BoundingBox

        self.video = types.SimpleNamespace(frames=frames)
        self.num_frames = len(boxes)
        self.num_actors = len(boxes[0])
        self._boxes = [
            [None if box is None else BoundingBox(*box) for box in row]
            for row in boxes
        ]

    def gt_boxes(self, frame: int) -> list[Any]:
        return self._boxes[frame]


class TwoActorLive:
    """Live ``open_stream`` of a two-actor scene, one frame at a time."""

    name = "two_actor_live"
    quality_name = "mota"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.analyzer = None

    @staticmethod
    def make_inputs(seed: int) -> dict[str, Any]:
        return two_actor_inputs(seed)

    def setup(self) -> None:
        from repro import JumpAnalyzer, get_preset, multi_actor_config

        config = multi_actor_config(get_preset(PRESET), actors=ACTORS)
        config = dataclasses.replace(
            config,
            streaming=dataclasses.replace(
                config.streaming, warmup_frames=LIVE_WARMUP_FRAMES
            ),
        )
        self.analyzer = JumpAnalyzer(config)

    def load(self, inputs: dict[str, Any]) -> None:
        frames = _decode(inputs["frames"])
        self.frames = list(frames)
        self.truth = _SceneTruth(frames, inputs["boxes"])

    def close(self) -> None:
        pass

    def run_unit(self, recorder: Any = None) -> UnitResult:
        from repro import evaluate_mot
        from repro.serialization import analysis_payload

        unit = UnitResult(latencies=[], frames=len(self.frames), ops=len(self.frames))
        stream = self.analyzer.open_stream(rng=np.random.default_rng(self.seed))
        try:
            for frame in self.frames:
                if recorder is not None:
                    recorder.begin_op()
                start = time.perf_counter()
                try:
                    update = stream.push_frame(frame)
                finally:
                    latency = time.perf_counter() - start
                    if recorder is not None:
                        unit.records.append(recorder.end_op())
                # Warm-up pushes only buffer; latency counts tracked frames.
                if update.phase == "tracking":
                    unit.latencies.append(latency)
            if recorder is not None:
                recorder.begin_op()
            try:
                analysis = stream.finish()
            finally:
                if recorder is not None:
                    unit.records.append(recorder.end_op())
        except Exception as exc:  # the whole clip counts as failed
            unit.errors.append(f"stream failed: {type(exc).__name__}: {exc}")
        else:
            if len(analysis.tracks) != ACTORS:
                unit.errors.append(f"{len(analysis.tracks)} tracks, expected {ACTORS}")
        if unit.errors:
            unit.failures = unit.ops
            unit.latencies.clear()
            return unit
        unit.fingerprint = _fingerprint(analysis_payload(analysis))
        unit.quality = evaluate_mot(self.truth, analysis).mota
        unit.config_hash = analysis.config_hash
        unit.extra["tracking.tracks"] = float(len(analysis.tracks))
        return unit


WORKLOADS = {
    workload.name: workload for workload in (JumpAnalyze, VgaJumpJobs, TwoActorLive)
}
