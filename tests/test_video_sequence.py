"""Tests for the VideoSequence container."""

import numpy as np
import pytest

from repro.errors import ImageError, VideoError
from repro.video.sequence import VideoSequence


def _frames(n=4, h=6, w=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((h, w, 3)) for _ in range(n)]


class TestConstruction:
    def test_from_list(self):
        video = VideoSequence(_frames())
        assert len(video) == 4
        assert video.shape == (4, 6, 8, 3)
        assert video.height == 6 and video.width == 8

    def test_from_stacked_array(self):
        video = VideoSequence(np.stack(_frames()))
        assert len(video) == 4

    def test_empty_rejected(self):
        with pytest.raises(VideoError):
            VideoSequence([])

    def test_ragged_rejected(self):
        frames = _frames()
        frames.append(np.zeros((3, 3, 3)))
        with pytest.raises(VideoError):
            VideoSequence(frames)

    def test_every_frame_validated_before_a_shape_mismatch(self):
        frames = _frames(3)
        frames[1] = np.zeros((5, 8, 3))  # wrong shape
        frames[2] = np.full((6, 8, 3), 2.0)  # out of range
        with pytest.raises(ImageError, match="frame 2"):
            VideoSequence(frames)
        frames[2] = np.zeros((6, 8, 3))
        with pytest.raises(VideoError, match="frame 1 has shape"):
            VideoSequence(frames)

    def test_uint8_decode_fills_one_stack(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, (24, 60, 80, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            video = VideoSequence(frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The float64 stack plus a frame's worth of conversion scratch,
        # not a per-frame list and a stacked copy of it.
        assert peak <= 1.25 * video.frames.nbytes
        assert np.array_equal(video.frames, frames / 255.0)

    def test_frames_read_only(self):
        video = VideoSequence(_frames())
        with pytest.raises(ValueError):
            video.frames[0, 0, 0, 0] = 5.0


class TestAccess:
    def test_indexing_and_iteration(self):
        frames = _frames()
        video = VideoSequence(frames)
        assert np.allclose(video[2], frames[2])
        assert len(list(video)) == 4

    def test_clip(self):
        video = VideoSequence(_frames(6))
        clipped = video.clip(1, 4)
        assert len(clipped) == 3
        assert np.allclose(clipped[0], video[1])

    def test_clip_validation(self):
        video = VideoSequence(_frames(4))
        with pytest.raises(VideoError):
            video.clip(3, 2)
        with pytest.raises(VideoError):
            video.clip(0, 99)

    def test_map_frames(self):
        video = VideoSequence(_frames())
        darker = video.map_frames(lambda f: f * 0.5)
        assert np.allclose(darker[0], video[0] * 0.5)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        video = VideoSequence(_frames())
        path = tmp_path / "video.npz"
        video.save(path)
        loaded = VideoSequence.load(path)
        assert np.allclose(loaded.frames, video.frames)

    def test_load_missing_key(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(VideoError):
            VideoSequence.load(path)
