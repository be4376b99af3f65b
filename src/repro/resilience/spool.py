"""Input spools: what a restarted process re-runs a job from.

The analysis is a deterministic function of its inputs (the video, the
first-frame annotation, the config and the GA seed), so those inputs
are all a crash leaves to recover.  Each job spooled at submit time
gets one directory, ``<checkpoint_dir>/<job_id>/``:

* batch jobs hold ``meta.json`` (mode, seed, config, annotation) and
  ``input.npz``, the compressed video archive exactly as the client
  sent it;
* streaming jobs hold ``meta.json``, a ``frames/chunk_*.npy`` sequence
  of the accepted pushes and, once the client sent it, an ``eof``
  marker.

Every file with content is written to a temporary name and
``os.replace``-d, so a crash mid-write leaves no torn file.  The
:class:`~repro.jobs.store.JobStore` persistence file only carries job
*metadata*: a job without a spool fails as ``Interrupted`` on restart,
while a spooled one is re-queued and run again from its spool with its
seed, reproducing the interrupted run's payload.  The worker deletes a
job's directory (anything else left in it included) once the job is
terminal.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any

import numpy as np


def spool_input(
    directory: str | Path,
    job_id: str,
    *,
    mode: str,
    seed: int,
    config: dict[str, Any] | None,
    annotation: dict[str, Any] | None,
    archive: bytes | None = None,
) -> Path:
    """Persist a job's inputs so a restart can re-submit it.

    Batch jobs spool their video as ``archive``, the bytes of an
    ``.npz`` holding ``frames`` (the decoded ``video_npz_b64`` the
    client sent), written as-is: re-compressing the decoded frames
    would cost seconds per VGA clip on the request thread.  Streaming
    jobs spool only ``meta.json`` here and accumulate frame chunks
    through :func:`spool_stream_chunk` as they arrive.
    """
    job_dir = Path(directory) / job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    if archive is not None:
        tmp = job_dir / "input.npz.tmp"
        tmp.write_bytes(archive)
        os.replace(tmp, job_dir / "input.npz")
    meta = {
        "mode": mode,
        "seed": int(seed),
        "config": config,
        "annotation": annotation,
    }
    tmp = job_dir / "meta.json.tmp"
    tmp.write_text(json.dumps(meta))
    os.replace(tmp, job_dir / "meta.json")
    return job_dir


def load_input_meta(directory: str | Path, job_id: str) -> dict[str, Any] | None:
    """The spooled submit-time metadata, or None when never spooled."""
    path = Path(directory) / job_id / "meta.json"
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def load_input_frames(directory: str | Path, job_id: str) -> np.ndarray | None:
    """The spooled batch video, or None."""
    path = Path(directory) / job_id / "input.npz"
    if not path.exists():
        return None
    with np.load(path) as archive:
        return archive["frames"]


def spool_stream_chunk(
    directory: str | Path, job_id: str, index: int, frames: np.ndarray
) -> None:
    """Append one pushed frame chunk to a streaming job's spool."""
    chunk_dir = Path(directory) / job_id / "frames"
    chunk_dir.mkdir(parents=True, exist_ok=True)
    tmp = chunk_dir / f"chunk_{index:06d}.npy.tmp"
    with open(tmp, "wb") as handle:
        np.save(handle, np.asarray(frames))
    os.replace(tmp, chunk_dir / f"chunk_{index:06d}.npy")


def spool_stream_eof(directory: str | Path, job_id: str) -> None:
    """Record that the client already sent eof (marker file)."""
    job_dir = Path(directory) / job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    (job_dir / "eof").touch()


def load_stream_spool(
    directory: str | Path, job_id: str
) -> tuple[list[np.ndarray], bool]:
    """Replay a streaming job's spool: (frames in push order, eof?).

    The received-frame count and the background-model state are both
    implied by the replay — feeding the same frames through the same
    (deterministic) streaming analyzer reconstructs the model exactly.
    """
    job_dir = Path(directory) / job_id
    frames: list[np.ndarray] = []
    chunk_dir = job_dir / "frames"
    if chunk_dir.is_dir():
        for path in sorted(chunk_dir.glob("chunk_*.npy")):
            chunk = np.load(path)
            frames.extend(np.asarray(frame) for frame in chunk)
    return frames, (job_dir / "eof").exists()


def stream_chunk_count(directory: str | Path, job_id: str) -> int:
    """How many chunks are already spooled (next chunk index)."""
    chunk_dir = Path(directory) / job_id / "frames"
    if not chunk_dir.is_dir():
        return 0
    return len(list(chunk_dir.glob("chunk_*.npy")))


def has_spool(directory: str | Path, job_id: str) -> bool:
    """True when the job's inputs were spooled (it is resumable)."""
    return (Path(directory) / job_id / "meta.json").exists()


def clear_spool(directory: str | Path, job_id: str) -> None:
    """Delete a terminal job's spool directory entirely."""
    shutil.rmtree(Path(directory) / job_id, ignore_errors=True)
