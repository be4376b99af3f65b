"""Pluggable persistence backends for the :class:`~repro.jobs.store.JobStore`.

The store's concurrency model never changes — one in-process lock
guards every mutation — but *where records live* is now a backend:

``SingleProcessBackend``
    The historical behaviour: an in-memory store optionally mirrored
    to one JSON snapshot file on every transition.  One process owns
    the file; replicas must not share it.

``SharedDirectoryBackend``
    A file-locked directory N service replicas (e.g. ``slj serve
    --procs N``) share.  Every job is its own JSON record written via
    tmp-file + :func:`os.replace`; submissions additionally drop a
    marker into ``queue/``; a replica claims work by atomically
    renaming the marker into ``claims/`` — :func:`os.replace` on POSIX
    guarantees exactly one renamer wins, so two replicas can never
    claim the same job.  The id sequence lives in ``index.json`` under
    an ``fcntl`` lock so replicas mint non-colliding job ids.

Layout of a shared store directory::

    store/
      index.json     {"seq": N}           (fcntl-locked via index.lock)
      index.lock
      jobs/<id>.json one record per job   (atomic replace on write)
      queue/<id>     submitted, unclaimed
      claims/<id>    claimed; content = owner id

Backends only move bytes; all lifecycle semantics (states, TTL,
capacity, cancellation) stay in the store.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Protocol

from ..errors import ConfigurationError

try:  # POSIX only; the shared backend refuses to build without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]


def _write_atomic(path: Path, payload: dict[str, Any]) -> None:
    """Write JSON so readers only ever see complete documents."""
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


class JobStoreBackend(Protocol):
    """What a :class:`~repro.jobs.store.JobStore` needs from storage.

    ``shared`` is the behavioural switch: a shared backend stores one
    record per job (other replicas read them concurrently) and serves
    the submit queue; a non-shared backend persists whole-store
    snapshots and has no queue.
    """

    kind: str
    shared: bool

    def load_snapshot(self) -> dict[str, Any] | None:
        """The persisted snapshot (non-shared), or ``{"seq": n}`` (shared)."""
        ...

    def persist_snapshot(self, snapshot: Callable[[], dict[str, Any]]) -> None:
        """Persist the whole store state (non-shared backends only).

        ``snapshot()`` builds it; a backend that persists nothing
        never calls it, so a transition costs no serialisation.
        """
        ...

    def allocate_seq(self) -> int:
        """Atomically mint the next job sequence number (shared only)."""
        ...

    def write_job(self, record: dict[str, Any]) -> None:
        """Upsert one job record."""
        ...

    def read_job(self, job_id: str) -> dict[str, Any] | None:
        """One job record, or ``None`` when unknown."""
        ...

    def remove_job(self, job_id: str) -> None:
        """Forget one job record (idempotent)."""
        ...

    def list_job_ids(self) -> list[str]:
        """Ids of every stored job record."""
        ...

    def enqueue(self, job_id: str) -> None:
        """Publish a submitted job for any replica to claim."""
        ...

    def claim_next(self, owner: str) -> str | None:
        """Atomically claim the oldest queued job, or ``None``.

        At most one replica ever gets a given id back from this call.
        """
        ...


class SingleProcessBackend:
    """The default backend: in-memory, optionally JSON-mirrored.

    Exactly reproduces the store's historical persistence: the whole
    state is rewritten (tmp + replace) on every transition, and the
    snapshot is read back once at startup.
    """

    kind = "single"
    shared = False

    def __init__(self, persist_path: str | Path | None = None) -> None:
        self._path = Path(persist_path) if persist_path else None

    def load_snapshot(self) -> dict[str, Any] | None:
        if self._path is None or not self._path.exists():
            return None
        try:
            return json.loads(self._path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"could not load job store from {self._path}: {exc}"
            ) from exc

    def persist_snapshot(self, snapshot: Callable[[], dict[str, Any]]) -> None:
        if self._path is None:
            return
        tmp = self._path.with_suffix(self._path.suffix + ".tmp")
        tmp.write_text(json.dumps(snapshot()))
        tmp.replace(self._path)

    # The queue/record surface is a shared-backend concept.
    def allocate_seq(self) -> int:  # pragma: no cover - store guards this
        raise ConfigurationError("single-process backend has no shared seq")

    def write_job(self, record: dict[str, Any]) -> None:
        raise ConfigurationError("single-process backend stores snapshots")

    def read_job(self, job_id: str) -> dict[str, Any] | None:
        return None

    def remove_job(self, job_id: str) -> None:
        return None

    def list_job_ids(self) -> list[str]:
        return []

    def enqueue(self, job_id: str) -> None:
        raise ConfigurationError("single-process backend has no claim queue")

    def claim_next(self, owner: str) -> str | None:
        return None


class SharedDirectoryBackend:
    """A shared-directory store N replicas drain with zero double-claims."""

    kind = "shared_directory"
    shared = True

    def __init__(self, root: str | Path) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            raise ConfigurationError(
                "the shared-directory job store needs fcntl (POSIX)"
            )
        self.root = Path(root)
        self._jobs = self.root / "jobs"
        self._queue = self.root / "queue"
        self._claims = self.root / "claims"
        for directory in (self.root, self._jobs, self._queue, self._claims):
            directory.mkdir(parents=True, exist_ok=True)
        self._index = self.root / "index.json"
        self._index_lock = self.root / "index.lock"

    # -- index ----------------------------------------------------------
    def _locked_index(self) -> Any:
        handle = open(self._index_lock, "a+")
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    def load_snapshot(self) -> dict[str, Any] | None:
        with self._locked_index():
            if not self._index.exists():
                return None
            try:
                return {"seq": int(json.loads(self._index.read_text())["seq"])}
            except (OSError, json.JSONDecodeError, KeyError, ValueError):
                return None

    def persist_snapshot(self, snapshot: Callable[[], dict[str, Any]]) -> None:
        # Shared stores persist per-job; nothing snapshot-shaped to do.
        return None

    def allocate_seq(self) -> int:
        with self._locked_index():
            seq = 0
            if self._index.exists():
                try:
                    seq = int(json.loads(self._index.read_text())["seq"])
                except (OSError, json.JSONDecodeError, KeyError, ValueError):
                    seq = 0
            seq += 1
            _write_atomic(self._index, {"seq": seq})
            return seq

    # -- records --------------------------------------------------------
    def write_job(self, record: dict[str, Any]) -> None:
        _write_atomic(self._jobs / f"{record['id']}.json", record)

    def read_job(self, job_id: str) -> dict[str, Any] | None:
        path = self._jobs / f"{job_id}.json"
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            # A reader racing the atomic replace never sees this (the
            # rename is atomic); an unreadable record means tampering —
            # treat as unknown rather than poisoning every listing.
            return None

    def remove_job(self, job_id: str) -> None:
        for path in (
            self._jobs / f"{job_id}.json",
            self._queue / job_id,
            self._claims / job_id,
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def list_job_ids(self) -> list[str]:
        return sorted(path.stem for path in self._jobs.glob("*.json"))

    # -- queue ----------------------------------------------------------
    def enqueue(self, job_id: str) -> None:
        _write_atomic(self._queue / job_id, {"id": job_id})

    def claim_next(self, owner: str) -> str | None:
        # Job ids start with a zero-padded sequence number, so sorted
        # marker names are submission order.
        for marker in sorted(self._queue.iterdir()):
            if marker.name.startswith("."):
                continue
            claim = self._claims / marker.name
            try:
                # The atomic heart of multi-replica draining: rename is
                # all-or-nothing, so of N replicas racing for this
                # marker exactly one sees success and every other gets
                # FileNotFoundError and moves on.
                os.replace(marker, claim)
            except FileNotFoundError:
                continue
            claim.write_text(json.dumps({"owner": owner}))
            return marker.name
        return None

    def queued_ids(self) -> list[str]:
        """Currently unclaimed submissions, oldest first."""
        return sorted(
            path.name
            for path in self._queue.iterdir()
            if not path.name.startswith(".")
        )

    def claim_owner(self, job_id: str) -> str | None:
        """Who claimed ``job_id``, if anyone."""
        try:
            return json.loads((self._claims / job_id).read_text()).get("owner")
        except (OSError, json.JSONDecodeError):
            return None
