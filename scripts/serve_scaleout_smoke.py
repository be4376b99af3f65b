"""Scale-out smoke: `slj serve --procs 2` against the real fork boundary.

CI's end-to-end proof of the multi-process serve path:

* one pre-bound listener, two forked worker processes — both must
  actually answer (distinct pids observed via ``/health``);
* a job submitted on one connection must succeed even though any
  replica may claim it from the shared directory store, and its
  result must be readable from whichever worker answers the poll;
* a synchronous ``POST /v1/analyze`` must answer 200 with a report:
  it runs as an attached job on the replica holding the connection,
  never through the shared queue, and leaves no job record behind;
* SIGTERM must drain both workers and exit 0.

Usage (from the repo root):

    PYTHONPATH=src python scripts/serve_scaleout_smoke.py
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

PORT = int(os.environ.get("SMOKE_PORT", "8971"))
BASE = f"http://127.0.0.1:{PORT}/v1"


def req(
    method: str, path: str, data: bytes | None = None, timeout: float = 10
) -> dict:
    request = urllib.request.Request(
        BASE + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
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

    workdir = tempfile.mkdtemp(prefix="scaleout-smoke-")
    state_dir = os.path.join(workdir, "state")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(PORT),
            "--procs",
            "2",
            "--state-dir",
            state_dir,
            "--drain-timeout",
            "5",
        ],
        env=dict(os.environ),
    )
    try:
        wait_up(proc)

        # The kernel load-balances accepts: hammer /health on fresh
        # connections until both worker pids have answered.
        pids: set[int] = set()
        deadline = time.time() + 60
        while len(pids) < 2 and time.time() < deadline:
            pids.add(int(req("GET", "/health")["pid"]))
        print("worker pids observed:", sorted(pids))
        assert len(pids) == 2, f"expected 2 worker pids, saw {pids}"

        job_id = req("POST", "/jobs", body)["job"]["id"]
        print("submitted", job_id)
        deadline = time.time() + 240
        payload: dict = {}
        while time.time() < deadline:
            payload = req("GET", f"/jobs/{job_id}")["job"]
            if payload["state"] in ("succeeded", "failed", "cancelled"):
                break
            time.sleep(0.2)
        print("final state:", payload.get("state"))
        assert payload.get("state") == "succeeded", payload

        result = req("GET", f"/jobs/{job_id}/result")
        report = (result.get("analysis") or {}).get("report")
        assert report is not None, "result payload carries no report"
        print("score:", report.get("score"))

        # urlopen raises on any non-2xx answer, so returning is the 200.
        analysis = req("POST", "/analyze", body, timeout=240)
        assert analysis.get("report") is not None, "sync answer has no report"
        print("sync score:", analysis["report"].get("score"))
        # The attached job's record is discarded once answered.
        listed = [job["id"] for job in req("GET", "/jobs")["jobs"]]
        assert listed == [job_id], f"job listing after sync call: {listed}"

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0, f"drain exited with {code}"
        print(
            "scale-out smoke: OK (2 workers, shared queue, local sync "
            "analysis, clean drain)"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
