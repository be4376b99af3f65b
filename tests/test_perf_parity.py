"""Parity proofs for the optimised hot paths.

Every optimisation in the GA's hot paths claims to be numerically
invisible under the default float64 configuration.  The original
implementations live here, as references, and the production code is
checked against them:

* the coordinate-split distance kernel is bitwise equal to the einsum
  reference;
* the coded containment lookup matches the per-chromosome loop on
  every chromosome, in-frame or not;
* the inline CDF selection draws the same parents from the same RNG
  stream as ``rng.choice``;
* breeding a child with read-ahead attempts returns the same child
  and leaves the generator in the same state as one attempt at a time;
* a fitness row scores the same bits alone, in any batch and under any
  chunk width, so the per-silhouette score table answers exactly what
  the kernel would compute;
* execution backends (serial / threads) produce byte-identical
  analysis serialisations;
* the whole optimised stack reproduces the reference stack end to end.

The float32 fitness fast path is the one *documented* deviation: this
file also pins its tolerance.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.ga.engine import GAConfig, GeneticAlgorithm
from repro.ga.operators import OperatorConfig, mutate, singleton_groups
from repro.model import geometry
from repro.model.containment import ContainmentChecker
from repro.model.fitness import FitnessConfig, SilhouetteFitness
from repro.model.geometry import (
    _segment_distances_fast,
    sample_segment_points,
    world_to_image,
)
from repro.model.pose import StickPose, forward_kinematics
from repro.model.sticks import default_body
from repro.perf import executors
from repro.perf.executors import ParallelConfig
from repro.serialization import analysis_to_dict
from repro.video.synthesis.render import person_mask_for_pose

BODY = default_body(60.0)
SHAPE = (120, 160)


# ----------------------------------------------------------------------
# Reference implementations: the original, unoptimised forms.
# ----------------------------------------------------------------------
def reference_segment_distances(points, segments):
    """The original einsum point-to-segment distance kernel."""
    starts = segments[:, 0, :]  # (S, 2)
    deltas = segments[:, 1, :] - starts  # (S, 2)
    length_sq = np.einsum("sd,sd->s", deltas, deltas)  # (S,)

    # Vector from each start to each point: (N, S, 2)
    rel = points[:, None, :] - starts[None, :, :]
    dot = np.einsum("nsd,sd->ns", rel, deltas)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(length_sq > 0.0, dot / length_sq, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = starts[None, :, :] + t[..., None] * deltas[None, :, :]
    diff = points[:, None, :] - closest
    return np.sqrt(np.einsum("nsd,nsd->ns", diff, diff))


def _reference_contained(checker, segments):
    """One chromosome's ``(8, 2, 2)`` sticks, tested point by point."""
    points = sample_segment_points(segments, checker._samples)
    rc = world_to_image(points, checker._height)
    rows = np.rint(rc[:, 0]).astype(int)
    cols = np.rint(rc[:, 1]).astype(int)
    in_frame = (
        (rows >= 0)
        & (rows < checker._height)
        & (cols >= 0)
        & (cols < checker._width)
    )
    if not in_frame.all():
        return False
    inside = checker._region[rows, cols]
    return float(inside.mean()) >= checker._min_fraction


def reference_check(checker, genes):
    """``ContainmentChecker.check`` as a per-chromosome loop, no cache."""
    genes = np.asarray(genes, dtype=np.float64)
    squeeze = genes.ndim == 1
    if squeeze:
        genes = genes[None, :]
    segments = forward_kinematics(genes, checker._dims)
    results = np.array(
        [_reference_contained(checker, chromosome) for chromosome in segments],
        dtype=bool,
    )
    return bool(results[0]) if squeeze else results


def reference_evaluate(fitness, genes):
    """``SilhouetteFitness.evaluate`` one chromosome at a time, no table."""
    genes = np.asarray(genes, dtype=np.float64)
    squeeze = genes.ndim == 1
    rows = genes[None, :] if squeeze else genes
    scores = np.empty(rows.shape[0])
    for p, row in enumerate(rows):
        segments = forward_kinematics(row[None, :], fitness.dims)[0]
        dists = geometry._segment_distances_fast(fitness._points, segments)
        scores[p] = (dists / fitness._thickness).min(axis=1).mean()
    return scores[0] if squeeze else scores


def reference_pick_parents(ga, rng, weights, cdf):
    """``GeneticAlgorithm._pick_parents`` drawing through ``rng.choice``."""
    if ga.config.selection == "tournament":
        size = ga.config.tournament_size
        pa = int(rng.integers(0, weights.size, size).min())
        pb = int(rng.integers(0, weights.size, size).min())
        return pa, pb
    pa = int(rng.choice(weights.size, p=weights))
    pb = int(rng.choice(weights.size, p=weights))
    return pa, pb


def reference_make_child(ga, parent_a, parent_b, validity_fn, rng):
    """``GeneticAlgorithm._make_child`` one attempt, and one check, at a
    time, with the crossover's original one scalar draw per group."""
    ops = ga.config.operators
    for _ in range(ga.config.offspring_attempts):
        child_a = np.array(parent_a, dtype=np.float64, copy=True)
        child_b = np.array(parent_b, dtype=np.float64, copy=True)
        for group in ops.gene_groups:
            if rng.random() < ops.crossover_rate:
                idx = list(group)
                child_a[idx], child_b[idx] = child_b[idx].copy(), child_a[idx].copy()
        child = child_a if rng.random() < 0.5 else child_b
        child = mutate(child, ops, rng)
        if validity_fn is None or bool(validity_fn(child[None, :])[0]):
            return child
    return None


def _setup():
    pose = StickPose.standing(60.0, 50.0)
    mask = person_mask_for_pose(pose, BODY, SHAPE)
    return pose, mask


def _random_genes(rng, count, pose):
    """Chromosomes scattered around a real pose, some far off-frame."""
    base = pose.to_genes()
    genes = base[None, :] + rng.normal(0.0, 8.0, size=(count, base.size))
    genes[:: max(count // 4, 1), 0] += 300.0  # force out-of-frame samples
    return genes


class TestDistanceKernel:
    def test_fast_matches_reference_bitwise(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-5.0, 120.0, size=(257, 2))
        segments = rng.uniform(0.0, 100.0, size=(13, 2, 2))
        fast = _segment_distances_fast(points, segments)
        reference = reference_segment_distances(points, segments)
        assert fast.dtype == reference.dtype
        np.testing.assert_array_equal(fast, reference)

    def test_degenerate_segment_bitwise(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0.0, 50.0, size=(31, 2))
        segments = rng.uniform(0.0, 50.0, size=(4, 2, 2))
        segments[2, 1] = segments[2, 0]  # zero-length stick
        np.testing.assert_array_equal(
            _segment_distances_fast(points, segments),
            reference_segment_distances(points, segments),
        )


class TestContainmentParity:
    def test_batch_matches_legacy_loop(self):
        pose, mask = _setup()
        checker = ContainmentChecker(mask, BODY)
        genes = _random_genes(np.random.default_rng(2), 64, pose)
        fast = checker.check(genes)
        legacy = reference_check(checker, genes)
        # Both verdicts must occur, or the comparison proves little.
        assert legacy.any() and not legacy.all()
        np.testing.assert_array_equal(fast, legacy)

    def test_single_memoised_path_matches_legacy(self):
        pose, mask = _setup()
        checker = ContainmentChecker(mask, BODY)
        for genes in _random_genes(np.random.default_rng(3), 16, pose):
            expected = reference_check(checker, genes)
            assert checker.check(genes) == expected
            # Second call hits the verdict cache; must not flip.
            assert checker.check(genes) == expected

    def test_inside_fraction_matches_rederived_reference(self):
        pose, mask = _setup()
        checker = ContainmentChecker(mask, BODY)
        genes = _random_genes(np.random.default_rng(4), 32, pose)
        fractions = checker.inside_fraction(genes)
        segments = forward_kinematics(genes, BODY)
        for p in range(genes.shape[0]):
            points = sample_segment_points(segments[p], checker._samples)
            rc = world_to_image(points, mask.shape[0])
            rows = np.rint(rc[:, 0]).astype(int)
            cols = np.rint(rc[:, 1]).astype(int)
            in_frame = (
                (rows >= 0)
                & (rows < mask.shape[0])
                & (cols >= 0)
                & (cols < mask.shape[1])
            )
            inside = np.zeros(points.shape[0], dtype=bool)
            inside[in_frame] = checker._region[rows[in_frame], cols[in_frame]]
            assert fractions[p] == inside.mean()


class TestSelectionParity:
    def test_inline_cdf_matches_rng_choice_stream(self):
        """The searchsorted draw consumes the identical RNG stream."""
        ga = GeneticAlgorithm(GAConfig(population_size=40))
        weights = ga._ranking_weights(40)
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        rng_a = np.random.default_rng(6)
        rng_b = np.random.default_rng(6)
        for _ in range(250):
            expected = reference_pick_parents(ga, rng_a, weights, cdf)
            assert ga._pick_parents(rng_b, weights, cdf) == expected
        # Both generators end in the same state: later draws line up too.
        assert rng_a.random() == rng_b.random()


def _generator(kind, seed):
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(seed))
    if kind == "philox":
        return np.random.Generator(np.random.Philox(seed))
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "pcg64-buffered":
        # An odd number of 32-bit draws leaves half a 64-bit output
        # buffered, which the next `integers` draw reads first.
        rng.integers(0, 10)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _same_state(left, right):
    """Bit-generator states equal, array entries (MT19937's key) too."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            _same_state(left[key], right[key]) for key in left
        )
    return np.array_equal(left, right)


def _some_rows_valid(genes):
    """A batch predicate that passes about a quarter of distinct rows."""
    return np.modf(np.abs(genes).sum(axis=1) * 0.37)[0] < 0.25


class TestBreedingParity:
    @pytest.mark.parametrize(
        "operators",
        [
            OperatorConfig(),
            OperatorConfig(gene_groups=singleton_groups()),
            OperatorConfig(crossover_rate=0.0),
            OperatorConfig(crossover_rate=1.0),
            OperatorConfig(mutation_rate=0.3),
            OperatorConfig(mutation_rate=1.0),  # every attempt mutates
        ],
        ids=["default", "singleton-groups", "crossover-0", "crossover-1",
             "mutation-0.3", "mutation-1"],
    )
    @pytest.mark.parametrize("attempts", [1, 3, 10])
    @pytest.mark.parametrize(
        "validity", [None, _some_rows_valid], ids=["no-check", "predicate"]
    )
    @pytest.mark.parametrize(
        "kind", ["pcg64", "pcg64-buffered", "mt19937", "philox"]
    )
    def test_matches_one_attempt_at_a_time(self, operators, attempts, validity, kind):
        ga = GeneticAlgorithm(
            GAConfig(offspring_attempts=attempts, operators=operators)
        )
        for seed in range(40):
            parents = np.random.default_rng(1000 + seed).uniform(0.0, 360.0, (2, 10))
            rng_ref = _generator(kind, seed)
            rng_new = _generator(kind, seed)
            expected = reference_make_child(ga, *parents, validity, rng_ref)
            child = ga._make_child(*parents, validity, rng_new)
            if expected is None:
                assert child is None
            else:
                assert child.dtype == np.float64
                np.testing.assert_array_equal(child, expected)
            assert _same_state(rng_new.bit_generator.state, rng_ref.bit_generator.state)
            np.testing.assert_array_equal(
                rng_new.integers(0, 1000, 3), rng_ref.integers(0, 1000, 3)
            )


def _stripped(analysis, drop_config=False):
    payload = analysis_to_dict(analysis)
    payload.pop("trace", None)  # timings differ run to run
    payload["config"].pop("parallel", None)  # execution-only knob
    if drop_config:
        # Legacy-vs-optimised runs legitimately carry different configs
        # (serial execution); the parity claim is about the numeric
        # output, not the config echo.
        payload.pop("config", None)
        payload.pop("config_hash", None)
    return json.dumps(payload, sort_keys=True)


def _analyze(config, jump, annotation, seed=3):
    from repro.pipeline import JumpAnalyzer

    return JumpAnalyzer(config).analyze(
        jump.video, annotation=annotation, rng=np.random.default_rng(seed)
    )


@pytest.fixture(scope="module")
def small_jump():
    from repro.model.annotation import simulate_human_annotation
    from repro.video.synthesis.dataset import SyntheticJumpConfig, synthesize_jump
    from repro.video.synthesis.motion import JumpParameters

    jump = synthesize_jump(
        SyntheticJumpConfig(seed=3, params=JumpParameters(num_frames=6))
    )
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(3),
    )
    return jump, annotation


class TestEndToEndParity:
    def test_backends_are_byte_identical(self, small_jump, monkeypatch):
        from repro.config import get_preset

        # A single-CPU runner would otherwise cap the pool to one worker
        # and run in-process; this test must prove parity across a real
        # 2-thread pool.
        monkeypatch.setattr(executors, "available_cpus", lambda: 2)
        jump, annotation = small_jump
        outputs = {}
        for backend in ("serial", "threads"):
            config = dataclasses.replace(
                get_preset("fast"),
                parallel=ParallelConfig(backend=backend, workers=2),
            )
            outputs[backend] = _stripped(_analyze(config, jump, annotation))
        assert outputs["serial"] == outputs["threads"]

    def test_optimized_stack_matches_legacy_stack(self, small_jump, monkeypatch):
        """Defaults vs the reference kernels, every fitness row computed.

        Both runs happen on this machine, in this process, so forward
        kinematics (numpy's SIMD ``sin``/``cos``) rounds identically in
        each; a stored digest would not survive a change of CPU.
        """
        from repro.config import get_preset

        jump, annotation = small_jump
        config = get_preset("fast")
        optimized = _stripped(_analyze(config, jump, annotation), drop_config=True)

        legacy_config = dataclasses.replace(config, parallel=ParallelConfig())
        calls = {
            "distances": 0,
            "fitness": 0,
            "containment": 0,
            "selection": 0,
            "breeding": 0,
        }

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            geometry,
            "_segment_distances_fast",
            counted("distances", reference_segment_distances),
        )
        monkeypatch.setattr(
            SilhouetteFitness, "evaluate", counted("fitness", reference_evaluate)
        )
        monkeypatch.setattr(
            ContainmentChecker, "check", counted("containment", reference_check)
        )
        monkeypatch.setattr(
            GeneticAlgorithm,
            "_pick_parents",
            counted("selection", reference_pick_parents),
        )
        monkeypatch.setattr(
            GeneticAlgorithm,
            "_make_child",
            counted("breeding", reference_make_child),
        )
        legacy = _stripped(
            _analyze(legacy_config, jump, annotation), drop_config=True
        )
        # Every reference actually ran: a patch that missed its call
        # site would make this comparison vacuous.
        assert all(calls.values()), calls
        assert optimized == legacy


class TestFitnessPrecision:
    def test_float32_fast_path_stays_within_tolerance(self):
        pose, mask = _setup()
        genes = _random_genes(np.random.default_rng(8), 48, pose)
        exact = SilhouetteFitness(mask, BODY, FitnessConfig()).evaluate(genes)
        fast = SilhouetteFitness(
            mask, BODY, FitnessConfig(precision="float32")
        ).evaluate(genes)
        assert np.all(np.abs(fast - exact) <= 5e-3 * np.abs(exact))
