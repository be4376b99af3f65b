"""Tests for chromosome layout and gene groups."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.chromosome import (
    GENE_GROUPS,
    GENE_X0,
    GENE_Y0,
    RowMemo,
    angle_gene,
    chromosome_distance,
    group_spans,
    validate_chromosomes,
)
from repro.model.pose import GENES


class TestLayout:
    def test_gene_count(self):
        assert GENES == 10

    def test_angle_gene_mapping(self):
        assert angle_gene(0) == 2
        assert angle_gene(7) == 9
        with pytest.raises(ModelError):
            angle_gene(8)

    def test_paper_groups(self):
        # (x0,y0) (ρ0) (ρ1,ρ4) (ρ2,ρ5) (ρ3,ρ6,ρ7) with ρl at gene 2+l
        assert GENE_GROUPS == (
            (GENE_X0, GENE_Y0),
            (angle_gene(0),),
            (angle_gene(1), angle_gene(4)),
            (angle_gene(2), angle_gene(5)),
            (angle_gene(3), angle_gene(6), angle_gene(7)),
        )

    def test_groups_partition_genes(self):
        flat = sorted(g for group in GENE_GROUPS for g in group)
        assert flat == list(range(GENES))

    def test_group_spans_are_arrays(self):
        spans = group_spans()
        assert len(spans) == len(GENE_GROUPS)
        assert all(isinstance(span, np.ndarray) for span in spans)


class TestValidation:
    def test_wraps_angles(self):
        genes = np.zeros(GENES)
        genes[2] = -30.0
        out = validate_chromosomes(genes)
        assert out.shape == (1, GENES)
        assert out[0, 2] == pytest.approx(330.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ModelError):
            validate_chromosomes(np.zeros((3, 7)))

    def test_does_not_mutate_input(self):
        genes = np.full((2, GENES), 400.0)
        validate_chromosomes(genes)
        assert (genes == 400.0).all()


class TestDistance:
    def test_zero_for_identical(self):
        genes = np.arange(GENES, dtype=float)
        assert chromosome_distance(genes, genes) == 0.0

    def test_center_term(self):
        a = np.zeros(GENES)
        b = np.zeros(GENES)
        b[0], b[1] = 3.0, 4.0
        assert chromosome_distance(a, b) == pytest.approx(5.0)

    def test_angle_wrap(self):
        a = np.zeros(GENES)
        b = np.zeros(GENES)
        a[2], b[2] = 359.0, 1.0
        assert chromosome_distance(a, b) == pytest.approx(2.0 / 8)


class TestRowMemo:
    def test_runaway_guard_restarts_the_table_keeping_answers(self):
        memo = RowMemo(np.float64)
        memo.MAX_ROWS = 4
        calls = []

        def compute(rows):
            calls.append(rows.shape[0])
            return rows.sum(axis=1)

        rows = np.arange(3 * GENES, dtype=np.float64).reshape(3, GENES)
        memo(rows, compute)
        # One remembered row and two new ones overflow the table.
        mixed = np.vstack([rows[:1], rows[:1] + 100.0, rows[:1] + 200.0])
        assert np.array_equal(memo(mixed, compute), mixed.sum(axis=1))
        assert calls == [3, 2]
        assert memo.rows_computed == 5
        assert np.array_equal(memo(mixed, compute), mixed.sum(axis=1))
        assert calls == [3, 2]
