"""Video-sequence container.

A :class:`VideoSequence` is an immutable stack of RGB frames of equal
size, stored as one ``(T, H, W, 3)`` float array in ``[0, 1]`` — the
"video sequence" every stage of the paper's pipeline consumes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..errors import VideoError
from ..imaging.image import ensure_rgb


class VideoSequence:
    """An ordered, fixed-size stack of RGB frames."""

    def __init__(self, frames: np.ndarray | Sequence[np.ndarray]) -> None:
        # Convert frame by frame into one preallocated stack, so a decoded
        # uint8 clip never holds two float64 copies of itself.  Every
        # frame is validated before a shape mismatch is reported, so a
        # dtype or range error anywhere in the clip takes precedence.
        stack: np.ndarray | None = None
        mismatch: str | None = None
        for index, frame in enumerate(frames):
            rgb = ensure_rgb(frame, f"frame {index}")
            if stack is None:
                stack = np.empty((len(frames),) + rgb.shape, dtype=np.float64)
            if rgb.shape != stack.shape[1:]:
                mismatch = mismatch or (
                    f"frame {index} has shape {rgb.shape}, expected {stack.shape[1:]}"
                )
                continue
            stack[index] = rgb
        if stack is None:
            raise VideoError("a video sequence needs at least one frame")
        if mismatch is not None:
            raise VideoError(mismatch)
        self._frames = stack
        self._frames.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._frames.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        return self._frames[index]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._frames)

    @property
    def frames(self) -> np.ndarray:
        """The read-only ``(T, H, W, 3)`` frame stack."""
        return self._frames

    @property
    def height(self) -> int:
        """Frame height in pixels."""
        return self._frames.shape[1]

    @property
    def width(self) -> int:
        """Frame width in pixels."""
        return self._frames.shape[2]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """``(num_frames, height, width, 3)``."""
        return self._frames.shape  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def clip(self, start: int, stop: int) -> "VideoSequence":
        """Sub-sequence of frames ``start..stop-1``."""
        if not 0 <= start < stop <= len(self):
            raise VideoError(
                f"invalid clip [{start}, {stop}) for a {len(self)}-frame video"
            )
        return VideoSequence(self._frames[start:stop])

    def map_frames(self, func) -> "VideoSequence":
        """Apply ``func`` to every frame, returning a new sequence."""
        return VideoSequence([func(frame.copy()) for frame in self._frames])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Save to a compressed ``.npz`` archive."""
        np.savez_compressed(path, frames=self._frames)

    @classmethod
    def load(cls, path: str | Path) -> "VideoSequence":
        """Load a sequence written by :meth:`save`."""
        with np.load(path) as archive:
            if "frames" not in archive.files:
                raise VideoError(f"{path} does not contain a 'frames' array")
            return cls(archive["frames"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VideoSequence({len(self)} frames, "
            f"{self.height}x{self.width})"
        )
