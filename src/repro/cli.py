"""Command-line interface: ``slj``.

Subcommands:

* ``slj synthesize`` — generate a synthetic jump video (optionally
  violating chosen standards) and save frames/ground truth.
* ``slj analyze`` — run the full pipeline on a saved video and print
  the scoring report.
* ``slj demo`` — synthesize + analyze end to end in one go.
  ``--long`` synthesizes a long clip with dead time and several
  attempts, localises them and scores each one; ``--movement
  sit_to_stand`` exercises the second registered movement profile.
* ``slj localize`` — run only the temporal localisation front-stage
  over a video and print the attempt windows it finds.
* ``slj jobs submit|status|result|cancel|list`` — drive a running
  service's asynchronous job API (``/v1/jobs``) from the shell.
* ``slj stream`` — push a video frame by frame through a streaming
  job (``POST /v1/jobs/{id}/frames``) and watch provisional takeoff /
  landing / score estimates evolve before the final report.
* ``slj chaos`` — fault-injection sweep (one analysis per fault) with
  a survival report; ``--min-survival`` turns it into a CI gate.

``analyze``, ``demo``, ``evaluate`` and ``chaos`` share the configuration flags
``--config PATH`` (JSON/TOML file, or an analysis JSON reproducing
itself), ``--preset NAME`` (``paper`` / ``fast`` / ``accurate``) and
repeatable ``--set key=value`` dotted overrides — see
``docs/configuration.md``.  ``--fast`` is shorthand for
``--preset fast``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import preset_names, resolve_config
from .errors import ConfigurationError, ReproError
from .model.annotation import simulate_human_annotation
from .pipeline import AnalyzerConfig, JumpAnalyzer
from .scoring.standards import Standard
from .video.sequence import VideoSequence
from .video.synthesis.dataset import SyntheticJumpConfig, synthesize_jump


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared configuration flags (analyze / demo / evaluate)."""
    group = parser.add_argument_group("configuration")
    group.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="config file (JSON or TOML); an analysis JSON written by "
        "--json works too (its embedded config is used)",
    )
    group.add_argument(
        "--preset",
        default=None,
        metavar="NAME",
        help=f"named preset: {', '.join(preset_names())}",
    )
    group.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, repeatable "
        "(e.g. --set tracker.ga.max_generations=5)",
    )
    group.add_argument(
        "--fast",
        action="store_true",
        help="shorthand for --preset fast (quicker, noisier)",
    )
    group.add_argument(
        "--movement",
        default=None,
        metavar="PROFILE",
        help="movement profile the tail stages score (shorthand for "
        "--set profile=NAME); registered profiles are listed in "
        "docs/profiles.md and by GET /v1/profiles",
    )


def _resolve_cli_config(args: argparse.Namespace) -> AnalyzerConfig:
    """Resolve preset/file/overrides flags into an AnalyzerConfig."""
    preset = getattr(args, "preset", None)
    if getattr(args, "fast", False):
        if preset is not None and preset != "fast":
            raise SystemExit(
                f"--fast conflicts with --preset {preset!r}; pick one"
            )
        preset = "fast"
    overrides = list(getattr(args, "overrides", ()) or ())
    movement = getattr(args, "movement", None)
    if movement is not None:
        # Appended last so the explicit flag wins over a profile buried
        # in --config / --set, mirroring the service's `profile` field.
        overrides.append(f"profile={movement}")
    try:
        return resolve_config(
            preset=preset,
            config_file=getattr(args, "config", None),
            overrides=overrides,
        )
    except ConfigurationError as exc:
        raise SystemExit(f"bad configuration: {exc}") from None


def _parse_standards(raw: list[str]) -> tuple[Standard, ...]:
    out = []
    for name in raw:
        try:
            out.append(Standard[name.upper()])
        except KeyError:
            valid = ", ".join(s.name for s in Standard)
            raise SystemExit(
                f"unknown standard {name!r}; choose from {valid}"
            ) from None
    return tuple(out)


def _cmd_synthesize(args: argparse.Namespace) -> int:
    config = SyntheticJumpConfig(
        seed=args.seed, violated=_parse_standards(args.violate or [])
    )
    jump = synthesize_jump(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jump.video.save(out / "video.npz")

    if args.frames:
        from .imaging.io import write_png

        for index, frame in enumerate(jump.video):
            write_png(out / f"frame_{index:03d}.png", frame)
    poses = np.array([pose.to_genes() for pose in jump.motion.poses])
    np.savez_compressed(
        out / "ground_truth.npz",
        poses=poses,
        person_masks=np.stack(jump.person_masks),
        shadow_masks=np.stack(jump.shadow_masks),
        stature=jump.config.stature,
    )
    violated = ", ".join(s.name for s in config.violated) or "none"
    print(f"wrote {len(jump.video)}-frame jump to {out} (violated: {violated})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    analyzer = JumpAnalyzer(_resolve_cli_config(args))
    video = VideoSequence.load(args.video)

    annotation = None
    truth_path = Path(args.video).parent / "ground_truth.npz"
    if args.annotation == "ground-truth":
        if not truth_path.exists():
            raise SystemExit(f"no ground truth next to the video: {truth_path}")
        from .model.pose import StickPose
        from .model.sticks import default_body

        with np.load(truth_path) as archive:
            pose0 = StickPose.from_genes(archive["poses"][0])
            dims = default_body(float(archive["stature"]))
            mask0 = archive["person_masks"][0].astype(bool)
        annotation = simulate_human_annotation(
            pose0, dims, mask=mask0, rng=np.random.default_rng(args.seed)
        )

    analysis = analyzer.analyze(
        video, annotation=annotation, rng=np.random.default_rng(args.seed)
    )
    print(analysis.report.render_text())
    print()
    print(
        f"jump distance: {analysis.measurement.distance:.1f} px "
        f"({analysis.measurement.relative_to_stature:.2f} statures); "
        f"takeoff frame {analysis.events.takeoff_frame}, "
        f"landing frame {analysis.events.landing_frame}"
    )

    if args.profile:
        print()
        print("stage timings:")
        print(analysis.trace.render_table())

    if args.stature_cm is not None:
        from .scoring.calibration import PixelCalibration, grade_distance

        calibration = PixelCalibration.from_stature(
            analysis.annotation.dims.stature, args.stature_cm
        )
        distance_cm = calibration.jump_distance_cm(analysis.measurement)
        line = f"calibrated distance: {distance_cm:.0f} cm"
        if args.age is not None:
            line += f" ({grade_distance(distance_cm, args.age)} for age {args.age})"
        print(line)

    if args.json is not None:
        from .serialization import write_analysis_json

        write_analysis_json(args.json, analysis)
        print(
            f"wrote analysis JSON to {args.json} "
            f"(config {analysis.config_hash})"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if getattr(args, "long", False):
        return _cmd_demo_long(args)
    if getattr(args, "actors", 1) > 1:
        return _cmd_demo_multi(args)
    movement = getattr(args, "movement", None)
    if movement is not None and movement != "standing_long_jump":
        return _cmd_demo_movement(args)
    analyzer_config = _resolve_cli_config(args)
    config = SyntheticJumpConfig(
        seed=args.seed, violated=_parse_standards(args.violate or [])
    )
    jump = synthesize_jump(config)
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(args.seed),
    )
    analysis = JumpAnalyzer(analyzer_config).analyze(
        jump.video, annotation=annotation, rng=np.random.default_rng(args.seed)
    )
    violated = ", ".join(s.name for s in config.violated) or "none"
    print(f"synthetic jump (seed {args.seed}, violated: {violated})")
    print()
    print(analysis.report.render_text())
    detected = {s.name for s in analysis.report.violated_standards}
    injected = {s.name for s in config.violated}
    print()
    print(f"injected flaws: {sorted(injected) or 'none'}")
    print(f"detected flaws: {sorted(detected) or 'none'}")
    if args.profile:
        print()
        print("stage timings:")
        print(analysis.trace.render_table())
    if args.json is not None:
        from .serialization import write_analysis_json

        write_analysis_json(args.json, analysis)
        print(
            f"wrote analysis JSON to {args.json} "
            f"(config {analysis.config_hash})"
        )
    return 0


def _cmd_demo_long(args: argparse.Namespace) -> int:
    """``slj demo --long``: localise + score every attempt in a long clip."""
    from dataclasses import replace

    from .localization import AttemptWindow
    from .video.synthesis import LongClipConfig, synthesize_long_clip

    if args.violate:
        print("note: --violate applies to single-jump demos only; ignored")
    config = _resolve_cli_config(args)
    config = replace(
        config, localization=replace(config.localization, enabled=True)
    )
    clip = synthesize_long_clip(
        LongClipConfig(seed=args.seed, attempts=args.attempts)
    )
    analysis = JumpAnalyzer(config).analyze(
        clip.video, rng=np.random.default_rng(args.seed)
    )
    truth = [AttemptWindow(start, end, 1.0) for start, end in clip.windows]
    print(
        f"long clip: {len(clip.video)} frames, "
        f"{len(clip.windows)} ground-truth attempts (seed {args.seed})"
    )
    for attempt in analysis.attempts:
        window = attempt.window
        best_iou = max((window.iou(t) for t in truth), default=0.0)
        marker = " (primary)" if attempt.primary else ""
        print(
            f"  {attempt.attempt_id}: frames {window.start}..{window.end - 1} "
            f"conf {window.confidence:.2f} score "
            f"{attempt.analysis.report.score:.3f} "
            f"distance {attempt.analysis.measurement.distance:.1f}px "
            f"IoU {best_iou:.2f}{marker}"
        )
    if not analysis.attempts:
        print("  no attempts found")
    if args.profile:
        print()
        print("stage timings:")
        print(analysis.trace.render_table())
    if args.json is not None:
        from .serialization import write_analysis_json

        write_analysis_json(args.json, analysis)
        print(
            f"wrote analysis JSON to {args.json} "
            f"(config {analysis.config_hash})"
        )
    if len(analysis.attempts) < args.min_attempts:
        print(
            f"FAIL: found {len(analysis.attempts)} attempts, "
            f"required {args.min_attempts}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_demo_movement(args: argparse.Namespace) -> int:
    """``slj demo --movement PROFILE``: score a non-jump movement clip."""
    config = _resolve_cli_config(args)  # validates the profile name
    if config.profile != "sit_to_stand":
        raise SystemExit(
            f"demo has no synthesiser for profile {config.profile!r}; "
            "use `slj analyze --movement` on your own video"
        )
    from .video.synthesis import SitToStandClipConfig, synthesize_sit_to_stand

    if args.violate:
        print("note: --violate applies to jump demos only; ignored")
    clip = synthesize_sit_to_stand(SitToStandClipConfig(seed=args.seed))
    analysis = JumpAnalyzer(config).analyze(
        clip.video, rng=np.random.default_rng(args.seed)
    )
    print(
        f"synthetic chair rise (seed {args.seed}, "
        f"ground-truth rise at frame {clip.rise_frame})"
    )
    print()
    print(analysis.report.render_text())
    print()
    print(
        f"rise onset: frame {analysis.events.takeoff_frame} "
        f"(stand at frame {analysis.events.landing_frame}); "
        f"rise height {analysis.measurement.distance:.1f}px"
    )
    if args.profile:
        print()
        print("stage timings:")
        print(analysis.trace.render_table())
    if args.json is not None:
        from .serialization import write_analysis_json

        write_analysis_json(args.json, analysis)
        print(
            f"wrote analysis JSON to {args.json} "
            f"(config {analysis.config_hash})"
        )
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    """``slj localize``: only the temporal front-stage, no scoring."""
    import json as _json

    from .localization import localize_attempts

    config = _resolve_cli_config(args)
    if args.video is not None:
        video = VideoSequence.load(args.video)
    else:
        from .video.synthesis import LongClipConfig, synthesize_long_clip

        video = synthesize_long_clip(
            LongClipConfig(seed=args.seed, attempts=args.attempts)
        ).video
        print(f"synthesized a {len(video)}-frame {args.attempts}-attempt clip")
    result = localize_attempts(video, config.localization)
    print(
        f"{len(result.windows)} attempt windows in {result.num_frames} "
        f"frames (seed threshold {result.seed_threshold:.4f}, floor "
        f"{result.floor:.4f})"
    )
    for index, window in enumerate(result.windows):
        marker = " (primary)" if index == result.primary_index else ""
        print(
            f"  frames {window.start}..{window.end - 1} "
            f"({window.frames} frames, confidence "
            f"{window.confidence:.2f}){marker}"
        )
    if result.truncated:
        print(f"note: truncated to the top {config.localization.max_attempts}")
    if args.json is not None:
        Path(args.json).write_text(
            _json.dumps(result.to_dict(), indent=2) + "\n"
        )
        print(f"wrote localization JSON to {args.json}")
    return 0


def _cmd_demo_multi(args: argparse.Namespace) -> int:
    """``slj demo --actors N``: an N-jumper scene, one report per track."""
    from .evaluation import evaluate_mot
    from .pipeline import multi_actor_config
    from .video.synthesis import MultiActorJumpConfig, synthesize_multi_jump

    if args.violate:
        print("note: --violate applies to single-actor demos only; ignored")
    config = multi_actor_config(_resolve_cli_config(args), actors=args.actors)
    jump = synthesize_multi_jump(
        MultiActorJumpConfig(seed=args.seed, actors=args.actors)
    )
    analysis = JumpAnalyzer(config).analyze(
        jump.video, rng=np.random.default_rng(args.seed)
    )
    print(f"synthetic {args.actors}-actor scene (seed {args.seed})")
    for track in analysis.tracks:
        last = track.start_frame + track.frames - 1
        print()
        print(
            f"track {track.track_id} ({track.state}, frames "
            f"{track.start_frame}..{last}): score {track.report.score:.3f}, "
            f"distance {track.measurement.distance:.1f}px"
        )
    mot = evaluate_mot(jump, analysis)
    print()
    print(
        f"MOT vs ground truth: {mot.num_tracks} tracks for "
        f"{mot.num_actors} actors, {mot.id_switches} id switches, "
        f"MOTA {mot.mota:.3f}"
    )
    if args.profile:
        print()
        print("stage timings:")
        print(analysis.trace.render_table())
    if args.json is not None:
        from .serialization import write_analysis_json

        write_analysis_json(args.json, analysis)
        print(
            f"wrote analysis JSON to {args.json} "
            f"(config {analysis.config_hash})"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import evaluate_detection, evaluate_tracking
    from .video.synthesis.dataset import synthesize_flawed_jump

    config = _resolve_cli_config(args)

    jumps = [synthesize_jump(SyntheticJumpConfig(seed=s)) for s in args.seeds]
    if args.flaws:
        jumps += [
            synthesize_flawed_jump(standard, seed=900 + i)
            for i, standard in enumerate(Standard)
        ]
    print(f"evaluating {len(jumps)} jumps (this runs the full pipeline)…")

    detection = evaluate_detection(jumps, config=config)
    print()
    print("flaw detection per standard:")
    for stats in detection.per_standard:
        print(
            f"  {stats.standard.name}: recall {stats.recall:.2f} "
            f"({stats.true_positive}/{stats.true_positive + stats.false_negative}), "
            f"false alarms {stats.false_positive}/{stats.false_positive + stats.true_negative}"
        )
    print(
        f"overall: recall {detection.overall_recall:.2f}, "
        f"false-alarm rate {detection.overall_false_alarm_rate:.2f}"
    )

    tracking = evaluate_tracking(jumps, config=config)
    print()
    print(
        f"tracking: mean joint err {tracking.mean_joint_error:.2f}px "
        f"(max {tracking.max_joint_error:.2f}px), "
        f"mean angle err {tracking.mean_angle_error:.1f} deg"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .jobs import JobsConfig
    from .service import ServiceConfig, serve

    procs = getattr(args, "procs", 1)
    jobs = JobsConfig()
    if args.state_dir is not None:
        state_dir = Path(args.state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        if procs > 1:
            # Multi-process front: per-job records in a shared
            # directory store all workers drain together, instead of
            # one JSON snapshot they would fight over.
            jobs = JobsConfig(
                store_dir=str(state_dir / "store"),
                checkpoint_dir=str(state_dir / "checkpoints"),
                job_deadline_seconds=args.job_deadline,
            )
        else:
            jobs = JobsConfig(
                persist_path=str(state_dir / "jobs.json"),
                checkpoint_dir=str(state_dir / "checkpoints"),
                job_deadline_seconds=args.job_deadline,
            )
    elif procs > 1:
        raise ConfigurationError(
            "--procs > 1 requires --state-dir: the worker processes "
            "share the job queue through its directory store"
        )
    elif args.job_deadline:
        jobs = JobsConfig(job_deadline_seconds=args.job_deadline)
    serve(
        host=args.host,
        port=args.port,
        service_config=ServiceConfig(
            deadline_seconds=args.deadline,
            max_concurrent=args.max_concurrent,
            drain_timeout_seconds=args.drain_timeout,
            jobs=jobs,
        ),
        procs=procs,
    )
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from .client import ServiceClient
    from .config import config_to_dict

    client = ServiceClient(args.url)
    action = args.jobs_command
    if action == "submit":
        from .service import encode_video

        video = VideoSequence.load(args.video)
        customised = (
            getattr(args, "preset", None)
            or getattr(args, "config", None)
            or getattr(args, "overrides", None)
            or getattr(args, "fast", False)
        )
        config = (
            config_to_dict(_resolve_cli_config(args)) if customised else None
        )
        job = client.submit(
            encode_video(video),
            seed=args.seed,
            config=config,
            profile=getattr(args, "movement", None),
        )
        print(f"submitted job {job['id']} ({job['state']})")
        if args.wait:
            analysis = client.wait(job["id"], timeout=args.timeout)
            print(
                f"job {job['id']} succeeded: score "
                f"{analysis['report']['score']:.4f} "
                f"(config {analysis['config_hash']})"
            )
            if args.json is not None:
                Path(args.json).write_text(_json.dumps(analysis, indent=2))
                print(f"wrote analysis JSON to {args.json}")
    elif action == "status":
        job = client.job(args.job_id)
        progress = job["progress"]
        print(
            f"job {job['id']}: {job['state']} "
            f"({progress['fraction']:.0%}, stage "
            f"{progress['current_stage'] or '-'})"
        )
    elif action == "result":
        analysis = client.result(args.job_id)
        if args.json is not None:
            Path(args.json).write_text(_json.dumps(analysis, indent=2))
            print(f"wrote analysis JSON to {args.json}")
        else:
            print(_json.dumps(analysis["report"], indent=2))
    elif action == "cancel":
        response = client.cancel(args.job_id)
        print(
            f"job {response['job']['id']}: cancel={response['cancel']} "
            f"(state {response['job']['state']})"
        )
    elif action == "list":
        jobs = client.jobs(limit=args.limit, state=args.state)
        if not jobs:
            print("no jobs")
        for job in jobs:
            print(
                f"{job['id']}  {job['state']:<9}  "
                f"{job['progress']['fraction']:.0%}"
            )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from .client import ServiceClient
    from .config import config_to_dict
    from .serialization import annotation_to_dict
    from .video.synthesis.motion import JumpParameters

    config_dict = config_to_dict(_resolve_cli_config(args))
    config_dict["streaming"]["warmup_frames"] = args.warmup

    if args.video is not None:
        video = VideoSequence.load(args.video)
        annotation = None
    else:
        jump = synthesize_jump(
            SyntheticJumpConfig(
                seed=args.seed, params=JumpParameters(num_frames=args.frames)
            )
        )
        video = jump.video
        annotation = annotation_to_dict(
            simulate_human_annotation(
                jump.motion.poses[0],
                jump.dims,
                mask=jump.person_masks[0],
                rng=np.random.default_rng(args.seed),
            )
        )

    def run(client: ServiceClient) -> int:
        job = client.submit_stream(
            annotation=annotation, seed=args.seed, config=config_dict
        )
        job_id = job["id"]
        print(f"stream job {job_id} open (warmup {args.warmup} frames)")
        frames = video.frames
        provisional_seen = False
        for start in range(0, len(frames), args.chunk):
            response = client.push_frames(
                job_id, frames[start : start + args.chunk]
            )
            block = response["job"]["stream"]
            provisional = block["provisional"] or {}
            estimate = provisional.get("estimate")
            line = (
                f"pushed {block['frames_received']}/{len(frames)} frames "
                f"(queued {response['queued']}, "
                f"phase {provisional.get('phase') or 'pending'})"
            )
            if estimate:
                provisional_seen = True
                line += (
                    f"; provisional takeoff {estimate['takeoff_frame']} "
                    f"landing {estimate['landing_frame']}"
                )
                if estimate.get("score") is not None:
                    line += f" score {estimate['score']:.4f}"
            print(line)
        # Every frame is queued; give the worker a bounded window to
        # surface a provisional estimate before the stream closes.
        deadline = _time.monotonic() + args.timeout
        while not provisional_seen and _time.monotonic() < deadline:
            provisional = client.job(job_id)["stream"]["provisional"] or {}
            if provisional.get("estimate"):
                provisional_seen = True
                break
            _time.sleep(0.05)
        client.eof(job_id)
        print(f"eof sent (provisional before eof: {provisional_seen})")
        analysis = client.wait(job_id, timeout=args.timeout)
        print(
            f"job {job_id} succeeded: score "
            f"{analysis['report']['score']:.4f} "
            f"(config {analysis['config_hash']})"
        )
        if args.json is not None:
            Path(args.json).write_text(_json.dumps(analysis, indent=2))
            print(f"wrote analysis JSON to {args.json}")
        if args.require_provisional and not provisional_seen:
            print(
                "FAIL: no provisional estimate arrived before eof",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.url is not None:
        return run(ServiceClient(args.url))
    from .service import ServiceHandle

    with ServiceHandle() as handle:
        return run(ServiceClient(handle.address))


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from .faults import default_fault_grid, run_chaos
    from .video.synthesis.dataset import synthesize_jump as _synthesize

    config = _resolve_cli_config(args)
    actors = getattr(args, "actors", 1)
    if args.video is not None:
        video = VideoSequence.load(args.video)
        annotation = None
    elif actors > 1:
        from .pipeline import multi_actor_config
        from .video.synthesis import (
            MultiActorJumpConfig,
            synthesize_multi_jump,
        )

        config = multi_actor_config(config, actors=actors)
        video = synthesize_multi_jump(
            MultiActorJumpConfig(seed=args.seed, actors=actors)
        ).video
        annotation = None
    else:
        jump = _synthesize(SyntheticJumpConfig(seed=args.seed))
        video = jump.video
        annotation = simulate_human_annotation(
            jump.motion.poses[0],
            jump.dims,
            mask=jump.person_masks[0],
            rng=np.random.default_rng(args.seed),
        )
    if args.ops:
        from .faults import OPS_FAULT_KINDS, run_ops_chaos

        print(f"ops chaos sweep: {', '.join(OPS_FAULT_KINDS)}")
        report = run_ops_chaos(
            video, annotation=annotation, config=config, seed=args.seed
        )
    else:
        plan = default_fault_grid(seed=args.seed, stage=args.stage)
        mode = "streaming" if args.stream else "batch"
        print(f"chaos sweep ({mode}): {plan.describe()}")
        report = run_chaos(
            video,
            annotation=annotation,
            config=config,
            plan=plan,
            rng_seed=args.seed,
            streaming=args.stream,
        )
    print()
    print(report.render_table())
    if args.json is not None:
        Path(args.json).write_text(_json.dumps(report.to_dict(), indent=2))
        print(f"wrote chaos report JSON to {args.json}")
    if report.survival_rate < args.min_survival:
        print(
            f"FAIL: survival {report.survival_rate:.0%} below the "
            f"required {args.min_survival:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="slj",
        description="Standing-long-jump motion analysis (Hsu et al. 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="generate a synthetic jump video")
    p_syn.add_argument("--out", default="jump_out", help="output directory")
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument(
        "--violate", nargs="*", metavar="E#", help="standards to violate (E1..E7)"
    )
    p_syn.add_argument(
        "--frames", action="store_true", help="also dump per-frame PNGs"
    )
    p_syn.set_defaults(func=_cmd_synthesize)

    p_ana = sub.add_parser("analyze", help="analyze a saved video (.npz)")
    p_ana.add_argument("video", help="video .npz written by synthesize")
    p_ana.add_argument(
        "--annotation",
        choices=["auto", "ground-truth"],
        default="ground-truth",
        help="first-frame stick model source",
    )
    p_ana.add_argument("--seed", type=int, default=0)
    p_ana.add_argument(
        "--json", default=None, metavar="PATH", help="also write the analysis as JSON"
    )
    p_ana.add_argument(
        "--stature-cm",
        type=float,
        default=None,
        help="jumper's real height for pixel→cm calibration",
    )
    p_ana.add_argument(
        "--age", type=int, default=None, help="age for distance grading (6-12)"
    )
    p_ana.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage timing table and pipeline counters",
    )
    _add_config_arguments(p_ana)
    p_ana.set_defaults(func=_cmd_analyze)

    p_demo = sub.add_parser("demo", help="synthesize and analyze in one go")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--violate", nargs="*", metavar="E#", help="standards to violate (E1..E7)"
    )
    p_demo.add_argument(
        "--actors",
        type=int,
        default=1,
        help="number of jumpers in the scene; >1 enables multi-actor "
        "tracking and prints one report per track",
    )
    p_demo.add_argument(
        "--long",
        action="store_true",
        help="synthesize a long clip (dead time + --attempts jumps), "
        "localise the attempts and score each one",
    )
    p_demo.add_argument(
        "--attempts",
        type=int,
        default=2,
        help="attempts in the synthetic long clip (with --long)",
    )
    p_demo.add_argument(
        "--min-attempts",
        type=int,
        default=0,
        help="with --long, exit 1 unless at least this many attempts "
        "are found (the CI localisation smoke gate)",
    )
    p_demo.add_argument(
        "--json", default=None, metavar="PATH", help="also write the analysis as JSON"
    )
    p_demo.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage timing table and pipeline counters",
    )
    _add_config_arguments(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    p_loc = sub.add_parser(
        "localize",
        help="find the attempt windows of a video without scoring them",
    )
    p_loc.add_argument(
        "--video",
        default=None,
        metavar="PATH",
        help="video .npz to localise (default: synthesize a long clip)",
    )
    p_loc.add_argument("--seed", type=int, default=0)
    p_loc.add_argument(
        "--attempts",
        type=int,
        default=2,
        help="attempts in the synthetic clip when no --video is given",
    )
    p_loc.add_argument(
        "--json", default=None, metavar="PATH", help="also write the result as JSON"
    )
    _add_config_arguments(p_loc)
    p_loc.set_defaults(func=_cmd_localize)

    p_serve = sub.add_parser("serve", help="run the analysis web service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=300.0,
        help="per-request analysis deadline in seconds (504 beyond it)",
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        help="simultaneous analyses before the service answers 503",
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        metavar="PATH",
        help="crash-safe state directory: persists the job store and "
        "each job's inputs there, so interrupted jobs re-run after a "
        "restart instead of failing",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds a graceful stop (SIGTERM/Ctrl-C) waits for "
        "in-flight jobs before cancelling what is still queued",
    )
    p_serve.add_argument(
        "--procs",
        type=int,
        default=1,
        help="worker processes sharing one listener socket (kernel-"
        "balanced accept); needs --state-dir so the workers drain one "
        "shared job queue",
    )
    p_serve.add_argument(
        "--job-deadline",
        type=float,
        default=0.0,
        help="soft per-job deadline in seconds; the watchdog fails "
        "jobs beyond it and reclaims their worker slot (0 = off)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_jobs = sub.add_parser(
        "jobs", help="talk to a running service's async job API (/v1/jobs)"
    )
    p_jobs.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of a running `slj serve` instance",
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    pj_submit = jobs_sub.add_parser(
        "submit", help="submit a video for asynchronous analysis"
    )
    pj_submit.add_argument("video", help="video .npz written by synthesize")
    pj_submit.add_argument("--seed", type=int, default=0)
    pj_submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    pj_submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait with --wait before giving up",
    )
    pj_submit.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="with --wait, write the final analysis JSON here",
    )
    _add_config_arguments(pj_submit)

    pj_status = jobs_sub.add_parser("status", help="one job's state + progress")
    pj_status.add_argument("job_id")

    pj_result = jobs_sub.add_parser("result", help="fetch a succeeded job's analysis")
    pj_result.add_argument("job_id")
    pj_result.add_argument(
        "--json", default=None, metavar="PATH", help="write the analysis JSON here"
    )

    pj_cancel = jobs_sub.add_parser("cancel", help="cancel a queued or running job")
    pj_cancel.add_argument("job_id")

    pj_list = jobs_sub.add_parser("list", help="list recent jobs (newest first)")
    pj_list.add_argument("--limit", type=int, default=20)
    pj_list.add_argument(
        "--state",
        default=None,
        help="filter: submitted/running/succeeded/failed/cancelled",
    )
    p_jobs.set_defaults(func=_cmd_jobs)

    p_stream = sub.add_parser(
        "stream",
        help="feed a video frame by frame through a streaming job and "
        "watch provisional results evolve",
    )
    p_stream.add_argument(
        "--url",
        default=None,
        help="base URL of a running `slj serve` instance "
        "(default: start an in-process service for the demo)",
    )
    p_stream.add_argument(
        "--video",
        default=None,
        metavar="PATH",
        help="video .npz to stream (default: synthesize a jump)",
    )
    p_stream.add_argument(
        "--frames",
        type=int,
        default=24,
        help="synthetic jump length when no --video is given",
    )
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument(
        "--chunk",
        type=int,
        default=4,
        help="frames per POST /v1/jobs/{id}/frames chunk",
    )
    p_stream.add_argument(
        "--warmup",
        type=int,
        default=4,
        help="streaming.warmup_frames for the job's config "
        "(0 = batch-identical buffering; >= 2 = live mode)",
    )
    p_stream.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for the final result",
    )
    p_stream.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the final analysis JSON here",
    )
    p_stream.add_argument(
        "--require-provisional",
        action="store_true",
        help="exit 1 unless a provisional estimate surfaced before eof "
        "(the CI streaming smoke gate)",
    )
    _add_config_arguments(p_stream)
    p_stream.set_defaults(func=_cmd_stream)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: one analysis per fault, survival report",
    )
    p_chaos.add_argument(
        "--video",
        default=None,
        metavar="PATH",
        help="video .npz to torture (default: a synthetic jump)",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--stage",
        default="tracking",
        help="pipeline stage targeted by the injected stage fault",
    )
    p_chaos.add_argument(
        "--actors",
        type=int,
        default=1,
        help="torture a synthetic multi-actor scene instead of the "
        "single-jumper video (>1 enables multi-actor tracking)",
    )
    p_chaos.add_argument(
        "--min-survival",
        type=float,
        default=0.0,
        help="exit non-zero when the survival rate falls below this "
        "fraction (CI gate)",
    )
    p_chaos.add_argument(
        "--json", default=None, metavar="PATH", help="also write the report as JSON"
    )
    p_chaos.add_argument(
        "--stream",
        action="store_true",
        help="feed each faulted video frame by frame through the "
        "streaming analyzer instead of one batch analyze()",
    )
    p_chaos.add_argument(
        "--ops",
        action="store_true",
        help="run the process-level (operational) chaos grid instead: "
        "kill a worker mid-job, restart the service mid-stream, wedge "
        "a worker past the watchdog, drain under load, trip and "
        "recover the circuit breaker",
    )
    _add_config_arguments(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_eval = sub.add_parser(
        "evaluate", help="corpus evaluation: detection + tracking accuracy"
    )
    p_eval.add_argument(
        "--seeds", type=int, nargs="*", default=[0], help="clean-jump seeds"
    )
    p_eval.add_argument(
        "--flaws", action="store_true", help="also include one jump per flaw"
    )
    _add_config_arguments(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Library failures (any :class:`~repro.errors.ReproError`) are
    reported as a one-line ``error[Type]: message`` on stderr with exit
    code 2 — no traceback for expected failure modes.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
