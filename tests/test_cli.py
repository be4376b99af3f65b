"""Tests for the slj command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import _parse_standards, build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["synthesize", "--out", "x"],
            ["analyze", "video.npz"],
            ["analyze", "video.npz", "--json", "out.json", "--stature-cm", "120", "--age", "8"],
            ["analyze", "video.npz", "--profile", "--fast"],
            ["demo"],
            ["demo", "--profile"],
            ["serve", "--port", "9000"],
            ["evaluate", "--seeds", "0", "1", "--flaws", "--fast"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_profile_flag_defaults_off(self):
        args = build_parser().parse_args(["analyze", "video.npz"])
        assert args.profile is False and args.fast is False

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_standard_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synthesize", "--out", str(tmp_path), "--violate", "E9"])

    def test_unknown_standard_message_without_chained_traceback(self):
        with pytest.raises(SystemExit) as excinfo:
            _parse_standards(["E9"])
        message = str(excinfo.value)
        assert "unknown standard 'E9'" in message
        assert "E1" in message  # lists the valid choices
        # raised `from None`: the KeyError must not chain into the exit
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__

    def test_config_flags_accepted(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "analyze",
                "video.npz",
                "--preset",
                "fast",
                "--set",
                "tracker.ga.max_generations=5",
                "--set",
                "smoothing_mode=none",
            ]
        )
        assert args.preset == "fast"
        assert args.overrides == [
            "tracker.ga.max_generations=5",
            "smoothing_mode=none",
        ]
        for argv in (
            ["demo", "--fast", "--json", "out.json"],
            ["evaluate", "--preset", "accurate"],
            ["analyze", "video.npz", "--config", "cfg.toml"],
        ):
            assert callable(parser.parse_args(argv).func)

    def test_evaluate_analyses_each_jump_once(self, monkeypatch, capsys):
        # Detection and tracking are scored from one analysis per jump.
        from types import SimpleNamespace

        from repro.model.pose import StickPose
        from repro.pipeline import JumpAnalyzer

        calls = []

        def analyze(self, video, **kwargs):
            calls.append(len(video))
            return SimpleNamespace(
                report=SimpleNamespace(violated_standards=()),
                poses=[StickPose.standing(60.0, 50.0)] * len(video),
            )

        monkeypatch.setattr(JumpAnalyzer, "analyze", analyze)
        assert main(["evaluate", "--fast", "--seeds", "0", "1"]) == 0
        assert len(calls) == 2
        out = capsys.readouterr().out
        assert "flaw detection per standard:" in out
        assert "tracking: mean joint err" in out

    def test_fast_conflicts_with_other_preset(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                ["analyze", str(tmp_path / "v.npz"), "--fast", "--preset", "paper"]
            )

    def test_bad_override_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="bad configuration"):
            main(
                [
                    "analyze",
                    str(tmp_path / "v.npz"),
                    "--set",
                    "tracker.no_such_knob=1",
                ]
            )

    def test_unknown_preset_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="bad configuration"):
            main(["analyze", str(tmp_path / "v.npz"), "--preset", "warp"])


class TestSynthesize:
    def test_writes_video_and_truth(self, tmp_path, capsys):
        out = tmp_path / "jump"
        code = main(["synthesize", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "video.npz").exists()
        assert (out / "ground_truth.npz").exists()
        with np.load(out / "ground_truth.npz") as archive:
            assert archive["poses"].shape == (20, 10)
            assert archive["person_masks"].shape[0] == 20
        assert "wrote 20-frame jump" in capsys.readouterr().out

    def test_frames_flag_writes_pngs(self, tmp_path):
        out = tmp_path / "jump"
        main(["synthesize", "--out", str(out), "--frames"])
        assert (out / "frame_000.png").exists()
        assert (out / "frame_019.png").exists()

    def test_violation_recorded(self, tmp_path, capsys):
        out = tmp_path / "jump"
        main(["synthesize", "--out", str(out), "--violate", "E1", "E5"])
        assert "E1, E5" in capsys.readouterr().out


class TestConfigProvenance:
    """The acceptance flow: a report reproduces itself from its JSON."""

    def test_analyze_embeds_config_and_reproduces(self, tmp_path, capsys):
        out = tmp_path / "jump"
        main(["synthesize", "--out", str(out), "--seed", "0"])

        first = tmp_path / "out.json"
        code = main(
            [
                "analyze",
                str(out / "video.npz"),
                "--preset",
                "fast",
                "--set",
                "tracker.ga.max_generations=5",
                "--json",
                str(first),
            ]
        )
        assert code == 0
        payload = json.loads(first.read_text())
        assert payload["config"]["tracker"]["ga"]["max_generations"] == 5
        assert payload["config"]["tracker"]["ga"]["population_size"] == 30
        assert payload["config_hash"]
        assert payload["trace"]["metadata"]["config_hash"] == payload["config_hash"]

        # re-running with a config file reconstructed from that JSON
        # reproduces the identical report
        second = tmp_path / "out2.json"
        code = main(
            [
                "analyze",
                str(out / "video.npz"),
                "--config",
                str(first),
                "--json",
                str(second),
            ]
        )
        assert code == 0
        repeat = json.loads(second.read_text())
        assert repeat["config"] == payload["config"]
        assert repeat["config_hash"] == payload["config_hash"]
        assert repeat["report"] == payload["report"]
        assert repeat["poses"] == payload["poses"]
        capsys.readouterr()

    def test_demo_fast_json_carries_hash(self, tmp_path, capsys):
        path = tmp_path / "demo.json"
        code = main(["demo", "--fast", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["config_hash"]
        assert payload["config"]["tracker"]["ga"]["max_generations"] == 10
        assert f"config {payload['config_hash']}" in capsys.readouterr().out

    def test_demo_multi_actor_scores_two_tracks(self, tmp_path, capsys):
        path = tmp_path / "demo2.json"
        code = main(["demo", "--fast", "--actors", "2", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert [t["track_id"] for t in payload["tracks"]] == ["t0", "t1"]
        assert all(
            t["report"]["score"] is not None for t in payload["tracks"]
        )
        out = capsys.readouterr().out
        assert "track t0" in out and "track t1" in out
        assert "0 id switches" in out


class TestAnalyzeProfile:
    def test_profile_prints_stage_timing_table(self, tmp_path, capsys):
        out = tmp_path / "jump"
        main(["synthesize", "--out", str(out), "--seed", "0"])
        capsys.readouterr()

        code = main(
            ["analyze", str(out / "video.npz"), "--fast", "--profile"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "stage timings:" in printed
        # the per-stage table names every top-level pipeline stage
        for stage in ("segmentation", "tracking", "scoring"):
            assert stage in printed
        # sub-stages and counters ride along
        assert "segmentation/subtract" in printed
        assert "ga.evaluations" in printed


class TestJobsCommand:
    def test_jobs_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["jobs", "submit", "video.npz", "--wait", "--fast"],
            ["jobs", "status", "j00001-abc"],
            ["jobs", "result", "j00001-abc", "--json", "out.json"],
            ["jobs", "cancel", "j00001-abc"],
            ["jobs", "list", "--limit", "5", "--state", "succeeded"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])

    def test_submit_wait_status_list_against_live_service(
        self, tmp_path, capsys
    ):
        from repro.pipeline import AnalyzerConfig
        from repro.service import ServiceHandle
        from repro.video.sequence import VideoSequence

        class InstantAnalyzer:
            STAGES = ("segmentation", "tracking", "scoring")
            config = AnalyzerConfig()

            def analyze(self, video, annotation=None, rng=None,
                        instrumentation=None, cancel_token=None):
                return object()

        video_path = tmp_path / "video.npz"
        VideoSequence(np.zeros((2, 8, 8, 3), dtype=np.uint8)).save(video_path)

        handle = ServiceHandle()
        handle._server.analyzer = InstantAnalyzer()
        handle.jobs.workers._serializer = lambda analysis: {
            "report": {"score": 0.5},
            "config_hash": "deadbeef",
            "degraded": False,
        }
        handle.start()
        try:
            out_json = tmp_path / "analysis.json"
            code = main(
                [
                    "jobs",
                    "--url",
                    handle.address,
                    "submit",
                    str(video_path),
                    "--wait",
                    "--json",
                    str(out_json),
                ]
            )
            assert code == 0
            printed = capsys.readouterr().out
            assert "submitted job j00001-" in printed
            assert "succeeded" in printed
            assert json.loads(out_json.read_text())["report"]["score"] == 0.5

            job_id = printed.split("submitted job ")[1].split(" ")[0]
            assert main(["jobs", "--url", handle.address, "status", job_id]) == 0
            assert "succeeded" in capsys.readouterr().out
            assert main(["jobs", "--url", handle.address, "list"]) == 0
            assert job_id in capsys.readouterr().out
        finally:
            handle.stop()
