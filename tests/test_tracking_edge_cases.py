"""Association edge cases: births, departures, crossings (mask level).

The jump motion model only moves actors rightward down their own lane,
so occlusion scenarios are exercised here with synthetic silhouette
sequences fed straight into :class:`TrackManager` — the same code path
the pipeline drives, minus rendering.
"""

import numpy as np

from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.tracking import TrackManager, TrackingConfig
from repro.video.synthesis import MultiActorJumpConfig, crossing_actor_parameters

SHAPE = (60, 100)


def blob(row, col, height=14, width=10):
    mask = np.zeros(SHAPE, dtype=bool)
    mask[row : row + height, col : col + width] = True
    return mask


def manager(**tracking_overrides):
    return TrackManager(
        TrackerConfig(
            ga=GAConfig(population_size=16, max_generations=3, patience=2),
            fitness=FitnessConfig(max_points=200),
        ),
        TrackingConfig(enabled=True, **tracking_overrides),
        rng=np.random.default_rng(0),
    )


class TestBirthsMidStream:
    def test_second_actor_entering_spawns_new_track(self):
        m = manager(max_tracks=2)
        for frame in range(10):
            mask = blob(5, 10 + 2 * frame)
            if frame >= 4:  # second actor walks in at frame 4
                mask |= blob(40, 10 + 2 * (frame - 4))
            m.step(mask)
        assert [t.track_id for t in m.tracks] == ["t0", "t1"]
        assert m.tracks[1].start_frame == 4
        assert all(t.confirmed for t in m.tracks)
        # The newcomer never disturbed the first actor's track.
        assert m.tracks[0].frames == 10
        assert m.tracks[1].frames == 6

    def test_late_birth_does_not_steal_primary(self):
        m = manager(max_tracks=2)
        for frame in range(8):
            mask = blob(5, 10 + 2 * frame)
            if frame >= 5:
                mask |= blob(40, 10)
            m.step(mask)
        assert m.primary_track().track_id == "t0"


class TestActorLeavingFrame:
    def test_departed_track_retires_and_trims(self):
        m = manager(max_tracks=2, max_misses=2)
        for frame in range(10):
            mask = blob(5, 10 + 2 * frame) if frame < 6 else np.zeros(
                SHAPE, dtype=bool
            )
            m.step(mask)
        (track,) = m.tracks
        assert track.state == "retired"
        # 6 observed frames + 2 carried misses were consumed...
        assert track.frames == 8
        # ...but the result ends at the last real observation.
        assert len(track.result().poses) == 6

    def test_departure_frees_a_slot_for_a_newcomer(self):
        m = manager(max_tracks=1, max_misses=1)
        for frame in range(4):
            m.step(blob(5, 10 + 2 * frame))
        m.step(np.zeros(SHAPE, dtype=bool))  # actor gone -> t0 retires
        assert m.tracks[0].state == "retired"
        for frame in range(3):
            m.step(blob(40, 10 + 2 * frame))  # a new actor enters
        assert [t.track_id for t in m.tracks] == ["t0", "t1"]
        assert m.tracks[1].confirmed


class TestCrossingActors:
    def run_crossing(self):
        # Two equal-height actors walk toward each other through the
        # same rows: their silhouettes merge into one component in the
        # middle frames, then split again.
        m = manager(max_tracks=2)
        for frame in range(14):
            a = blob(20, 6 + 5 * frame)
            b = blob(20, 76 - 5 * frame)
            m.step(a | b)
        return m

    def test_merge_and_split_id_switch_bound(self):
        # During the merge one track matches the fused component and
        # the other misses until it retires; the split then spawns a
        # replacement.  Documented bound: one crossing costs at most
        # ONE identity (<= 3 track ids for 2 actors) — the tracker
        # degrades by forking an id, never by collapsing both actors
        # into one track.
        m = self.run_crossing()
        assert len(m.tracks) <= 3
        alive = m.alive_tracks()
        assert len(alive) == 2
        assert all(t.confirmed for t in alive)

    def test_crossing_parameters_overlap(self):
        # The synthesis-level crossing layout really does overlap: the
        # second actor stands inside the first actor's flight path.
        config = MultiActorJumpConfig(seed=0, actors=2)
        first, second = crossing_actor_parameters(config)
        assert second.stand_x == first.stand_x + config.jump_distance
        assert first.stand_x + first.jump_distance >= second.stand_x
        assert second.takeoff_fraction > first.takeoff_fraction


class TestNonCrossingScene:
    def test_zero_extra_identities(self):
        # Parallel lanes, no interaction: exactly one id per actor, no
        # retirement, no respawn — the zero-ID-switch baseline the
        # MOT acceptance test also pins end to end.
        m = manager(max_tracks=2)
        for frame in range(12):
            m.step(blob(5, 10 + 3 * frame) | blob(40, 10 + 3 * frame))
        assert [t.track_id for t in m.tracks] == ["t0", "t1"]
        assert all(t.confirmed and t.alive for t in m.tracks)
        assert all(t.frames == 12 for t in m.tracks)
