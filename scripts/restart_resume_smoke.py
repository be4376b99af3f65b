"""Restart-resume smoke: SIGKILL the service mid-job, restart, assert
the job re-runs from its input spool and finishes with a report.

The CI counterpart of the `kill_worker_mid_job` ops-chaos scenario,
run against the real process boundary: a served `slj serve
--state-dir` instance is killed with SIGKILL (no drain, no cleanup)
while a job is RUNNING, restarted on the same state dir, and the job
must land `succeeded` with `"resumed": true` and a scored report.

Usage (from the repo root, PYTHONPATH=src on the child processes too):

    PYTHONPATH=src python scripts/restart_resume_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

PORT = int(os.environ.get("SMOKE_PORT", "8961"))
BASE = f"http://127.0.0.1:{PORT}/v1"


def req(method: str, path: str, data: bytes | None = None) -> dict:
    request = urllib.request.Request(
        BASE + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def wait_up(proc: subprocess.Popen, attempts: int = 150) -> None:
    for _ in range(attempts):
        if proc.poll() is not None:
            sys.exit(f"service exited early with code {proc.returncode}")
        time.sleep(0.1)
        try:
            req("GET", "/health")
            return
        except Exception:
            continue
    sys.exit("service never came up")


def main() -> None:
    from repro.service import encode_video
    from repro.video.synthesis import SyntheticJumpConfig, synthesize_jump

    jump = synthesize_jump(SyntheticJumpConfig(seed=0))
    body = json.dumps(
        {
            "video_npz_b64": encode_video(jump.video),
            "seed": 0,
            "preset": "fast",
        }
    ).encode()

    workdir = tempfile.mkdtemp(prefix="resume-smoke-")
    state_dir = os.path.join(workdir, "state")

    def start() -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                str(PORT),
                "--state-dir",
                state_dir,
                "--drain-timeout",
                "2",
            ],
            env=dict(os.environ),
        )

    proc = start()
    try:
        wait_up(proc)
        job_id = req("POST", "/jobs", body)["job"]["id"]
        state = "submitted"
        for _ in range(200):
            state = req("GET", f"/jobs/{job_id}")["job"]["state"]
            if state == "running":
                break
            time.sleep(0.05)
        print("state before kill:", state)
        assert state == "running", f"job never started: {state}"

        proc.send_signal(signal.SIGKILL)  # hard kill: no drain, no cleanup
        proc.wait(timeout=10)

        proc = start()
        wait_up(proc)

        deadline = time.time() + 240
        payload = {}
        while time.time() < deadline:
            payload = req("GET", f"/jobs/{job_id}")["job"]
            if payload["state"] in ("succeeded", "failed", "cancelled"):
                break
            time.sleep(0.2)
        print(
            "state after restart:",
            payload.get("state"),
            "resumed:",
            payload.get("resumed"),
        )
        assert payload.get("state") == "succeeded", payload
        assert payload.get("resumed") is True, payload

        analysis = req("GET", f"/jobs/{job_id}/result")["analysis"]
        assert analysis["report"]["score"] is not None

        metrics = req("GET", "/metrics")
        print("resumed_jobs metric:", metrics["service"]["resumed_jobs"])
        assert metrics["service"]["resumed_jobs"] >= 1

        proc.send_signal(signal.SIGTERM)  # graceful: drains, then exits 0
        assert proc.wait(timeout=30) == 0
        print("restart-resume smoke OK")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
