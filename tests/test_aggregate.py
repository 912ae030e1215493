"""Choquet integral and classical fusion rules."""

import functools
import hashlib
import operator
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import choqfuse
from choqfuse import aggregate
from choqfuse.aggregate import (
    FusionRule,
    SortedScores,
    choquet_fuse,
    choquet_fuse_batch,
    rule_fuse_batch,
)
from choqfuse.data import synthetic_dataset
from choqfuse.ga import GENE_EPS
from choqfuse.measures import LambdaMeasure, TableMeasure, lambda_tables


def max_measure(n):
    return TableMeasure([1.0 if m else 0.0 for m in range(1 << n)])


def min_measure(n):
    full = (1 << n) - 1
    return TableMeasure([1.0 if m == full else 0.0 for m in range(1 << n)])


class TestChoquetFuse:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_a_lambda_table_as_a_table_measure_fuses_the_same_bits(self, n):
        rng = np.random.default_rng(300 + n)
        # Drawn densities, the additive 1/n and the GA's two clamp corners.
        densities = np.vstack([rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (3, n)),
                               np.full((3, n), [[1.0 / n], [GENE_EPS], [1.0 - GENE_EPS]])])
        scores = np.vstack([rng.uniform(0, 1, (300, n)), np.round(rng.uniform(0, 1, (300, n)), 1)])
        for d, table in zip(densities, lambda_tables(densities)):
            lam = LambdaMeasure(tuple(d))
            expected = choquet_fuse_batch(scores, lam).tobytes()
            assert choquet_fuse_batch(scores, TableMeasure(lam.dense_table())).tobytes() == expected
            assert choquet_fuse_batch(scores, TableMeasure(table)).tobytes() == expected

    def test_reference_worked_example(self):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        fused = choquet_fuse((0.7, 0.8, 0.9), m)
        assert abs(fused - 0.787) <= 1e-3  # published 3-decimal value
        # straight-line recomputation: telescoping differences times the
        # measures of the still-active criteria
        expected = 0.7 * 1.0 + 0.1 * m.value_of([1, 2]) + 0.1 * m.value_of([2])
        assert fused == pytest.approx(expected, abs=1e-12)

    def test_constant_vector_is_a_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = LambdaMeasure(tuple(rng.uniform(0.05, 0.95, n)))
            c = float(rng.uniform(0, 1))
            assert choquet_fuse([c] * n, m) == c

    def test_additive_measure_equals_weighted_sum(self):
        m = LambdaMeasure((0.3, 0.3, 0.4))
        assert m.lam == 0.0
        # oracle: plain weighted sum 0.3*0.2 + 0.3*0.9 + 0.4*0.5
        assert choquet_fuse((0.2, 0.9, 0.5), m) == pytest.approx(0.53, abs=1e-12)

    def test_additive_measure_matches_dot_product_on_random_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            w = rng.uniform(0.05, 1.0, 3)
            w /= w.sum()
            m = LambdaMeasure(tuple(w))
            if m.lam != 0.0:
                continue
            a = rng.uniform(0, 1, 3)
            assert choquet_fuse(a, m) == pytest.approx(float(a @ w), abs=1e-12)

    def test_bounded_by_min_and_max(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            m = LambdaMeasure(tuple(rng.uniform(1e-6, 1 - 1e-6, n)))
            a = rng.uniform(0, 1, n)
            fused = choquet_fuse(a, m)
            assert a.min() - 1e-12 <= fused <= a.max() + 1e-12

    def test_componentwise_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            m = LambdaMeasure(tuple(rng.uniform(0.05, 0.95, n)))
            a = rng.uniform(0, 1, n)
            b = np.minimum(a + rng.uniform(0, 0.3, n), 1.0)
            assert choquet_fuse(b, m) >= choquet_fuse(a, m) - 1e-12

    def test_max_and_min_degenerate_measures(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 5):
            hi, lo = max_measure(n), min_measure(n)
            for _ in range(100):
                a = rng.uniform(0, 1, n)
                assert abs(choquet_fuse(a, hi) - a.max()) <= 1e-12
                assert abs(choquet_fuse(a, lo) - a.min()) <= 1e-12

    def test_tied_scores_are_order_independent(self):
        m = LambdaMeasure((0.35, 0.25, 0.3))

        def reversed_tiebreak(a):
            order = sorted(range(3), key=lambda i: (a[i], -i))
            remaining, total, prev = 0b111, 0.0, 0.0
            for i in order:
                total += (a[i] - prev) * m.dense_table()[remaining]
                prev = a[i]
                remaining ^= 1 << i
            return total

        for a in [(0.5, 0.5, 0.8), (0.7, 0.7, 0.7), (0.2, 0.8, 0.2), (0.9, 0.9, 0.1)]:
            assert abs(choquet_fuse(a, m) - reversed_tiebreak(a)) <= 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(43)
        m = LambdaMeasure(tuple(rng.uniform(0.1, 0.9, 4)))
        a = rng.uniform(0, 1, (50, 4))
        batch = choquet_fuse_batch(a, m)
        singles = [choquet_fuse(row, m) for row in a]
        np.testing.assert_allclose(batch, singles, atol=1e-15)

    def test_a_single_vector_is_checked_once(self, monkeypatch):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        a = np.random.default_rng(41).uniform(0, 1, (20, 3))
        batch = choquet_fuse_batch(a, m).tolist()
        checks, check = [], aggregate._as_score_matrix

        def counted(scores, n=None):
            checks.append(n)
            return check(scores, n)

        monkeypatch.setattr(aggregate, "_as_score_matrix", counted)
        assert [choquet_fuse(row, m) for row in a] == batch
        assert checks == [3] * len(a)

    def test_sum_runs_left_to_right_over_sorted_positions(self):
        # Reference: plain Python loop, ((d0*w0 + d1*w1) + d2*w2).  Rows
        # where another association order rounds differently are kept, so
        # the comparison would catch a library reduction's own order.
        rng = np.random.default_rng(53)
        m = LambdaMeasure((0.35, 0.25, 0.3))
        table = m.dense_table().tolist()
        a = rng.uniform(0, 1, (4000, 3))
        expected, other_order = [], []
        for row in a.tolist():
            order = sorted(range(3), key=lambda i: (row[i], i))
            remaining, prev, terms = 0b111, 0.0, []
            for i in order:
                terms.append((row[i] - prev) * table[remaining])
                prev = row[i]
                remaining ^= 1 << i
            expected.append((terms[0] + terms[1]) + terms[2])
            other_order.append((terms[0] + terms[2]) + terms[1])
        differ = np.array(expected) != np.array(other_order)
        assert differ.sum() >= 100
        fused = choquet_fuse_batch(a[differ], m)
        assert fused.tolist() == np.array(expected)[differ].tolist()
        assert [choquet_fuse(row, m) for row in a[differ][:50]] == fused[:50].tolist()

    def test_batch_at_the_table_cap_matches_the_python_loop(self):
        rng = np.random.default_rng(59)
        m = LambdaMeasure(tuple(rng.uniform(0.01, 0.2, 16)))
        a = rng.uniform(0, 1, (5, 16))
        for row, fused in zip(a.tolist(), choquet_fuse_batch(a, m).tolist()):
            order = sorted(range(16), key=lambda i: (row[i], i))
            remaining, prev, total = (1 << 16) - 1, 0.0, 0.0
            for i in order:
                total += (row[i] - prev) * m.dense_table()[remaining]
                prev = row[i]
                remaining ^= 1 << i
            assert fused == total

    def test_batch_works_for_table_measures(self):
        rng = np.random.default_rng(47)
        hi = max_measure(3)
        a = rng.uniform(0, 1, (20, 3))
        np.testing.assert_allclose(choquet_fuse_batch(a, hi), a.max(axis=1), atol=1e-12)

    def test_length_mismatch_rejected(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(ValueError):
            choquet_fuse((0.5, 0.5), m)

    @pytest.mark.parametrize("rows", [0, 2])
    def test_a_matrix_is_not_a_single_vector(self, rows):
        with pytest.raises(ValueError, match="^choquet_fuse takes a single score vector; use "):
            choquet_fuse(np.full((rows, 3), 0.5), LambdaMeasure((0.3, 0.4, 0.2)))

    def test_out_of_range_scores_rejected(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(ValueError):
            choquet_fuse((0.5, 1.2, 0.1), m)
        with pytest.raises(ValueError):
            choquet_fuse((-0.1, 0.2, 0.1), m)

    @pytest.mark.parametrize("bad,text", [
        (1.5, "1.5"), (-0.25, "-0.25"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
    ])
    def test_an_out_of_range_score_is_named_as_a_float(self, bad, text):
        with pytest.raises(ValueError) as raised:
            choquet_fuse_batch([[0.5, 0.2], [0.1, bad]], LambdaMeasure((0.4, 0.5)))
        assert str(raised.value) == f"score [1,1] = {text} outside [0, 1]"

    @pytest.mark.parametrize("scores, message", [
        (np.full(3, 0.5), "scores must be an (N, n) matrix, got shape (3,)"),
        (np.full((2, 2, 2), 0.5), "scores must be an (N, n) matrix, got shape (2, 2, 2)"),
        (np.empty((2, 0)), "score vectors must not be empty"),
    ], ids=["1-D", "3-D", "zero-width"])
    def test_score_arrays_of_other_shapes_are_refused(self, scores, message):
        for fuse in (lambda a: rule_fuse_batch(a, FusionRule("mean")), SortedScores):
            with pytest.raises(ValueError) as raised:
                fuse(scores)
            assert str(raised.value) == message

    @pytest.mark.parametrize("n", [17, 130])
    def test_more_criteria_than_a_measure_table_holds_are_refused(self, n):
        with pytest.raises(ValueError, match=f"at most 16 criteria, got {n}$"):
            SortedScores(np.full((2, n), 0.5))

    def test_sixteen_criteria_still_fuse(self):
        a = np.random.default_rng(53).uniform(0, 1, (5, 16))
        tables = np.stack([max_measure(16).dense_table(), min_measure(16).dense_table()])
        fused = SortedScores(a).fuse(tables)
        assert fused.tolist() == [a.max(axis=1).tolist(), a.min(axis=1).tolist()]


# Each entry point checks the whole matrix before it fuses.
CHECKED_FUSES = {
    "choquet": lambda a: choquet_fuse_batch(a, LambdaMeasure((0.35, 0.25, 0.3))),
    "mean": lambda a: rule_fuse_batch(a, FusionRule("mean")),
    "sorted": lambda a: SortedScores(a).fuse(LambdaMeasure((0.35, 0.25, 0.3)).dense_table()[np.newaxis])[0],
}


class TestRangeCheck:
    @pytest.mark.parametrize("fuse", CHECKED_FUSES.values(), ids=CHECKED_FUSES)
    @pytest.mark.parametrize("bad,text", [
        (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (1.5, "1.5"), (-1e-300, "-1e-300"),
    ])
    def test_the_first_bad_cell_in_row_major_order_is_named(self, fuse, bad, text):
        a = np.full((5, 3), 0.5)
        a[3, 0] = 2.0  # a later row, an earlier column
        a[2, 2] = bad
        a[4, 1] = bad
        with pytest.raises(ValueError) as raised:
            fuse(a)
        assert str(raised.value) == f"score [2,2] = {text} outside [0, 1]"

    @pytest.mark.parametrize("fuse", CHECKED_FUSES.values(), ids=CHECKED_FUSES)
    def test_negative_zero_and_the_bounds_pass(self, fuse):
        a = np.array([[-0.0, 0.0, 1.0], [-0.0, -0.0, -0.0], [1.0, 1.0, 1.0]])
        assert fuse(a).tolist() == fuse(a + 0.0).tolist()  # a + 0.0 has no -0.0

    @pytest.mark.parametrize("fuse", CHECKED_FUSES.values(), ids=CHECKED_FUSES)
    def test_a_matrix_of_no_rows_fuses_to_an_empty_result(self, fuse):
        fused = fuse(np.empty((0, 3)))
        assert fused.shape == (0,) and fused.dtype == float


def gathered_fuse(sorted_scores, tables):
    """``SortedScores.fuse`` with every position's weights gathered from its mask."""
    diffs, masks = sorted_scores.diffs, sorted_scores.masks
    total = diffs[:, 0] * tables.take(masks[:, 0], axis=1)
    for i in range(1, diffs.shape[1]):
        total = total + diffs[:, i] * tables.take(masks[:, i], axis=1)
    return total


class TestFuseAgainstGatheredWeights:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_the_full_set_column_gives_the_bits_of_the_gather(self, n):
        rng = np.random.default_rng(3100 + n)
        a = np.vstack([rng.uniform(0, 1, (200, n)), rng.integers(0, 5, (200, n)) * 0.25])
        sorted_scores = SortedScores(a)
        assert sorted_scores.masks.shape == (len(a), n)
        assert (sorted_scores.masks[:, 0] == (1 << n) - 1).all()
        densities = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (4, n))
        tables = lambda_tables(densities) if n > 1 else np.array([[0.0, 1.0]] * 4)
        unsnapped = tables.copy()
        unsnapped[:, -1] = 1.0 - 1e-10
        for t in (tables, unsnapped):
            assert sorted_scores.fuse(t).tobytes() == gathered_fuse(sorted_scores, t).tobytes()
        assert (sorted_scores.fuse(unsnapped) != sorted_scores.fuse(tables)).any()

    @pytest.mark.parametrize("tables", [
        lambda_tables([[0.3] * 4]),  # 16 columns: position 0 reads the last whatever the width
        lambda_tables([[0.3] * 2]),
        LambdaMeasure((0.3, 0.3, 0.3)).dense_table(),  # one table, not a (1, 8) stack
    ], ids=["4-criteria", "2-criteria", "1-D"])
    def test_tables_of_another_shape_are_refused(self, tables):
        sorted_scores = SortedScores(np.random.default_rng(3200).uniform(0, 1, (6, 3)))
        with pytest.raises(ValueError) as raised:
            sorted_scores.fuse(tables)
        assert str(raised.value) == f"expected (P, 8) tables, got {tables.shape}"


    def test_tables_are_read_as_floats(self):
        sorted_scores = SortedScores(np.random.default_rng(3201).uniform(0, 1, (6, 3)))
        table = LambdaMeasure((0.35, 0.25, 0.3)).dense_table()
        expected = sorted_scores.fuse(table[np.newaxis])
        fused = sorted_scores.fuse([table.tolist()])
        assert fused.dtype == float and fused.tobytes() == expected.tobytes()
        # The max measure: every subset but the empty one weighs 1, in integers.
        integers = np.array([[0, 1, 1, 1, 1, 1, 1, 1]])
        fused = sorted_scores.fuse(integers)
        assert fused.dtype == float
        assert fused.tobytes() == sorted_scores.fuse(integers.astype(float)).tobytes()


CHUNK = aggregate._CHUNK_ROWS
# Not additive: m(A) = (sum of the weights in A)^2 for weights .5, .3, .2.
SQUARED_WEIGHTS = TableMeasure([sum(w for i, w in enumerate((0.5, 0.3, 0.2)) if m >> i & 1) ** 2
                                for m in range(8)])


def tied_scores(rows, seed=71):
    """3-decimal scores drawn from 21 levels: most rows hold a tie."""
    return np.round(np.random.default_rng(seed).integers(0, 21, (rows, 3)) * 0.05, 3)


class TestChunkedFusion:
    @pytest.mark.parametrize("measure", [LambdaMeasure((0.35, 0.25, 0.3)), SQUARED_WEIGHTS],
                             ids=["lambda", "table"])
    @pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_chunks_give_the_bits_of_one_piece(self, cpus, measure, rows):
        a = tied_scores(rows)
        expected = SortedScores(a).fuse(measure.dense_table()[np.newaxis])[0]
        fused = choquet_fuse_batch(a, measure)
        assert fused.shape == (rows,)
        assert fused.tobytes() == expected.tobytes()

    def test_a_vector_is_refused(self, cpus):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        with pytest.raises(ValueError) as raised:
            choquet_fuse_batch((0.7, 0.8, 0.9), m)
        assert str(raised.value) == "scores must be an (N, n) matrix, got shape (3,)"
        fused = choquet_fuse_batch([(0.7, 0.8, 0.9)], m)
        assert fused.shape == (1,) and fused[0] == choquet_fuse((0.7, 0.8, 0.9), m)

    def test_a_bad_cell_in_the_third_chunk_reports_its_global_row(self, cpus):
        a = tied_scores(3 * CHUNK + 7)
        row = 2 * CHUNK + 5
        a[row, 1] = 1.5
        with pytest.raises(ValueError) as raised:
            choquet_fuse_batch(a, LambdaMeasure((0.35, 0.25, 0.3)))
        assert str(raised.value) == f"score [{row},1] = 1.5 outside [0, 1]"

    def test_no_thread_outlives_a_call(self, cpus):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        a = tied_scores(2 * CHUNK + 1)
        before = threading.active_count()
        choquet_fuse_batch(a, m)
        assert threading.active_count() == before
        a[-1, 0] = np.nan
        with pytest.raises(ValueError):
            choquet_fuse_batch(a, m)
        assert threading.active_count() == before

    def test_two_chunk_batches_of_every_width_are_pinned(self, cpus):
        # Two chunks per width, n = 2..16: scores on five levels, so nearly
        # every row holds a tie, with -0.0 cells and whole -0.0 rows.
        digest = hashlib.sha256()
        for n in range(2, 17):
            rng = np.random.default_rng(2300 + n)
            a = rng.integers(0, 5, (70_000, n)) * 0.25
            a[(a == 0.0) & (rng.random(a.shape) < 0.5)] = -0.0
            a[rng.random(len(a)) < 0.05] = -0.0
            digest.update(choquet_fuse_batch(a, LambdaMeasure(tuple(rng.uniform(0.02, 0.4, n)))).tobytes())
        assert digest.hexdigest() == "2a65d60b94ac0be57d8dfbcc6742c4189beb9b145d883ce1ecb64883bb6ebd79"

    def test_a_one_chunk_batch_starts_no_thread(self, cpus, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        fused = choquet_fuse_batch(np.full((CHUNK, 3), 0.5), LambdaMeasure((0.35, 0.25, 0.3)))
        assert (fused == 0.5).all()
        assert started == []

CLASSICAL_TAGS = [tag for tag in aggregate.RULE_TAGS if tag != "choquet"]


def fold(values, op):
    """``op`` applied left to right over ``values``, in Python floats."""
    return functools.reduce(op, values)


def random_weights(n):
    w = np.random.default_rng(900 + n).uniform(0.0, 1.0, n)
    return (w / w.sum()).tolist()


def signed_zero_scores(n, decimals, rows=2000, seed=27):
    """Scores at full precision or rounded, with zeros of both signs in
    about a third of the rows, and a tenth of the rows made of zeros only."""
    rng = np.random.default_rng([seed, n])
    a = rng.uniform(0.0, 1.0, (rows, n))
    if decimals is not None:
        a = np.round(a, decimals)
    zeroed = rng.random((rows, 1)) < 0.3
    a[zeroed & (rng.random(a.shape) < 0.4)] = 0.0
    a[rng.random(rows) < 0.1] = 0.0
    a[(a == 0.0) & (rng.random(a.shape) < 0.5)] = -0.0
    return a


def unsorted_rows(rows):
    return np.random.default_rng(73).uniform(0, 1, (rows, 4))


# The sort works on a transposed copy; a.T of a one-row or Fortran-ordered
# matrix is already C-contiguous, so anything short of a copy would sort
# the caller's scores in place.
CALLER_SCORES = {
    "0-rows": lambda: unsorted_rows(0),
    "1-row": lambda: unsorted_rows(1),
    "vector": lambda: unsorted_rows(1)[0],
    "fortran": lambda: np.asfortranarray(unsorted_rows(50)),
    "fortran-2-chunks": lambda: np.asfortranarray(unsorted_rows(CHUNK + 9)),
    "strided": lambda: unsorted_rows(150)[::3, ::-1],
    "1-row-strided": lambda: unsorted_rows(3)[1:2, ::-1],
}


class TestCallerScoresAreNotWritten:
    @pytest.mark.parametrize("make", CALLER_SCORES.values(), ids=CALLER_SCORES.keys())
    def test_fusing_leaves_the_input_bytes(self, cpus, make):
        m = LambdaMeasure((0.1, 0.2, 0.3, 0.25))
        scores = make()
        before = scores.copy()
        expected = SortedScores(np.atleast_2d(before)).fuse(m.dense_table()[np.newaxis])[0]
        single = lambda: np.array([choquet_fuse(scores, m)])
        batch = lambda: choquet_fuse_batch(scores, m)
        if scores.ndim == 1:  # choquet_fuse is the one entry point that takes a vector
            calls = [single]
        else:
            calls = [lambda: SortedScores(scores), batch]
            if scores.size == 4:
                calls.append(single)
        for call in calls:
            call()
            assert scores.tobytes() == before.tobytes()
        assert (single if scores.ndim == 1 else batch)().tobytes() == expected.tobytes()


class TestFusionRules:
    def test_score_rules(self):
        a = (0.2, 0.6, 0.7)
        assert rule_fuse_batch([a], FusionRule("mean"))[0] == pytest.approx(0.5)
        assert rule_fuse_batch([a], FusionRule("prod"))[0] == pytest.approx(0.084)
        assert rule_fuse_batch([a], FusionRule("min"))[0] == 0.2
        assert rule_fuse_batch([a], FusionRule("max"))[0] == 0.7
        w = FusionRule("weighted_sum", weights=(0.5, 0.25, 0.25))
        assert rule_fuse_batch([a], w)[0] == pytest.approx(0.425)

    def test_product_of_identical_high_scores(self):
        fused = rule_fuse_batch([(0.98, 0.98, 0.98)], FusionRule("prod"))[0]
        assert fused == pytest.approx(0.98**3, abs=1e-15)  # oracle: direct power
        assert abs(fused - 0.941) <= 1e-3

    def test_majority_vote(self):
        vote = FusionRule("majority_vote")
        assert rule_fuse_batch([(0.9, 0.8, 0.1)], vote)[0] == 1.0
        assert rule_fuse_batch([(0.9, 0.2, 0.1)], vote)[0] == 0.0
        # even n: strict majority required
        assert rule_fuse_batch([(0.9, 0.8, 0.1, 0.2)], vote)[0] == 0.0

    def test_and_or_rules(self):
        assert rule_fuse_batch([(0.6, 0.55, 0.55)], FusionRule("and"))[0] == 1.0
        assert rule_fuse_batch([(0.6, 0.45, 0.55)], FusionRule("and"))[0] == 0.0
        assert rule_fuse_batch([(0.1, 0.45, 0.55)], FusionRule("or"))[0] == 1.0
        assert rule_fuse_batch([(0.1, 0.45, 0.35)], FusionRule("or"))[0] == 0.0

    def test_and_accepts_exactly_one_synthetic_impostor(self):
        # brute force over the embedded impostor table
        data = synthetic_dataset()
        accepted = [
            pid
            for pid, scores in zip(data.impostor_ids, data.impostor_scores)
            if rule_fuse_batch([scores], FusionRule("and"))[0] == 1.0
        ]
        assert accepted == ["P60"]

    def test_decision_outputs_are_binary(self):
        rng = np.random.default_rng(53)
        a = rng.uniform(0, 1, (200, 3))
        for tag in ("and", "or", "majority_vote"):
            out = rule_fuse_batch(a, FusionRule(tag))
            assert set(np.unique(out)) <= {0.0, 1.0}

    def test_per_modality_thresholds(self):
        rule = FusionRule("and", threshold=(0.5, 0.9, 0.1))
        assert rule_fuse_batch([(0.6, 0.95, 0.2)], rule)[0] == 1.0
        assert rule_fuse_batch([(0.6, 0.85, 0.2)], rule)[0] == 0.0

    def test_choquet_rule_dispatch(self):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        rule = FusionRule("choquet", measure=m)
        assert rule_fuse_batch([(0.7, 0.8, 0.9)], rule)[0] == choquet_fuse((0.7, 0.8, 0.9), m)

    @pytest.mark.parametrize("decimals", [None, 1, 3], ids=["full", "1dp", "3dp"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 12, 16, 17])
    def test_score_rules_fold_the_columns_left_to_right(self, n, decimals):
        # Bit for bit against a plain per-row loop: no BLAS kernel and no
        # pairwise blocks (numpy's own reductions use them from n = 8).  On
        # ties of 0.0 and -0.0, np.minimum and np.maximum keep their second
        # argument; numpy's min and max reductions pick a sign that varies
        # with n and the SIMD level, so they are compared as values only.
        a, w = signed_zero_scores(n, decimals), random_weights(n)
        rows = a.tolist()
        expected = {
            "mean": [fold(row, operator.add) / n for row in rows],
            "weighted_sum": [fold([x * v for x, v in zip(row, w)], operator.add) for row in rows],
            "prod": [fold(row, operator.mul) for row in rows],
            "min": [fold(row, lambda s, x: s if s < x else x) for row in rows],
            "max": [fold(row, lambda s, x: s if s > x else x) for row in rows],
        }
        for tag, values in expected.items():
            fused = rule_fuse_batch(a, FusionRule(tag, weights=tuple(w)))
            assert fused.tobytes() == np.array(values).tobytes(), tag
        assert np.array_equal(rule_fuse_batch(a, FusionRule("min")), a.min(axis=1))
        assert np.array_equal(rule_fuse_batch(a, FusionRule("max")), a.max(axis=1))
        assert np.signbit(a).any()

    @pytest.mark.parametrize("per_modality", [False, True], ids=["scalar", "per-modality"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16, 17])
    def test_decision_rules_count_the_accepts(self, n, per_modality):
        a = signed_zero_scores(n, 1)
        t = tuple(np.random.default_rng(n).integers(0, 11, n) / 10) if per_modality else 0.5
        levels = np.broadcast_to(t, n).tolist()
        counts = [sum(x >= level for x, level in zip(row, levels)) for row in a.tolist()]
        for tag, accept in (("and", lambda k: k == n), ("or", lambda k: k > 0),
                            ("majority_vote", lambda k: 2 * k > n)):
            fused = rule_fuse_batch(a, FusionRule(tag, threshold=t))
            assert fused.dtype == float
            assert fused.tolist() == [float(accept(k)) for k in counts], tag

    def test_one_column_is_copied_into_a_fresh_array(self):
        a = signed_zero_scores(1, 3)
        a.flags.writeable = False
        for tag in CLASSICAL_TAGS:
            fused = rule_fuse_batch(a, FusionRule(tag, weights=(1.0,)))
            assert fused.flags.writeable and fused.flags.c_contiguous, tag
            assert not np.shares_memory(fused, a), tag
            if tag not in aggregate.DECISION_RULES:
                assert fused.tobytes() == a[:, 0].tobytes(), tag

    def test_a_threshold_sequence_is_stored_as_a_tuple(self):
        levels = [0.5, 0.9]
        rule = FusionRule("and", threshold=levels)
        levels[1] = 0.1
        assert rule.threshold == (0.5, 0.9)
        assert hash(rule) == hash(FusionRule("and", threshold=(0.5, 0.9)))
        assert rule_fuse_batch([(0.6, 0.5)], rule)[0] == 0.0

    def test_a_scalar_threshold_is_stored_as_a_float(self):
        rule = FusionRule("and", threshold=np.array(0.5))
        assert rule == FusionRule("and", threshold=0.5)
        assert hash(rule) == hash(FusionRule("and", threshold=0.5))

    @pytest.mark.parametrize("variable, value", [
        ("OPENBLAS_CORETYPE", "Sandybridge"),
        ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),
    ])
    def test_classical_rules_depend_on_neither_blas_nor_simd(self, variable, value):
        # OPENBLAS_CORETYPE picks OpenBLAS's CPU kernel; a matrix product
        # rounds differently under the Sandybridge kernel on a newer CPU.
        # Without AVX-512, numpy's min reduction keeps the other zero of a
        # 0.0 / -0.0 tie from n = 7.  numpy accepts unknown feature names
        # silently: a host without AVX-512 runs the same code twice.
        script = ("import hashlib, sys\nsys.path.insert(0, sys.argv[1])\n"
                  "from choqfuse.aggregate import FusionRule, rule_fuse_batch\n"
                  "from test_aggregate import CLASSICAL_TAGS, signed_zero_scores\n"
                  "digest = hashlib.sha256()\n"
                  "for n in (4, 7, 8, 16, 17):\n"
                  "    w = (1.0 / n,) * n\n"
                  "    for decimals in (None, 1):\n"
                  "        a = signed_zero_scores(n, decimals)\n"
                  "        for tag in CLASSICAL_TAGS:\n"
                  "            digest.update(rule_fuse_batch(a, FusionRule(tag, weights=w)).tobytes())\n"
                  "print(digest.hexdigest())\n")
        outputs = []
        for setting in (None, value):
            env = {k: v for k, v in os.environ.items() if k != variable}
            env["PYTHONPATH"] = str(Path(choqfuse.__file__).resolve().parents[1])
            if setting:
                env[variable] = setting
            run = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                                 env=env, capture_output=True, text=True, timeout=120, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1] and len(outputs[0]) == 65

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError, match="^unknown rule 'median'"):
            FusionRule("median")
        with pytest.raises(ValueError, match="^the choquet rule needs a measure$"):
            FusionRule("choquet")
        with pytest.raises(ValueError, match="^the weighted_sum rule needs weights$"):
            FusionRule("weighted_sum")
        with pytest.raises(ValueError, match="^weights must sum to 1, got 1.2"):
            FusionRule("weighted_sum", weights=(0.9, 0.3))
        with pytest.raises(ValueError) as raised:
            FusionRule("weighted_sum", weights=(0.6, 0.6))
        assert str(raised.value) == "weights must sum to 1, got 1.2"

    @pytest.mark.parametrize("weights, message", [
        ((np.nan, 1.0), "weights must be nonnegative"),
        ((-0.5, 1.5), "weights must be nonnegative"),
        ((np.inf, 0.0), "weights must sum to 1, got inf"),
        ("1", "weights must be a non-empty flat sequence of numbers, got '1'"),
        (1.0, "weights must be a non-empty flat sequence of numbers, got 1.0"),
        (((0.5, 0.5),), "weights must be a non-empty flat sequence of numbers, got ((0.5, 0.5),)"),
        ((), "weights must be a non-empty flat sequence of numbers, got ()"),
    ])
    def test_invalid_weights_are_refused_when_the_rule_is_built(self, weights, message):
        with pytest.raises(ValueError) as raised:
            FusionRule("weighted_sum", weights=weights)
        assert str(raised.value) == message

    @pytest.mark.parametrize("threshold", [1.5, -0.25, np.nan, (0.5, np.nan), (0.5, 1.5)])
    @pytest.mark.parametrize("tag", ["and", "mean"])
    def test_invalid_thresholds_are_refused_when_the_rule_is_built(self, tag, threshold):
        with pytest.raises(ValueError) as raised:
            FusionRule(tag, threshold=threshold)
        assert str(raised.value) == "decision thresholds must lie in [0, 1]"

    @pytest.mark.parametrize("threshold", ["0.5", ((0.5, 0.5),), ()], ids=["text", "2-D", "empty"])
    @pytest.mark.parametrize("tag", ["and", "mean"])
    def test_malformed_thresholds_are_refused_when_the_rule_is_built(self, tag, threshold):
        with pytest.raises(ValueError) as raised:
            FusionRule(tag, threshold=threshold)
        assert str(raised.value) == ("threshold must be a number or a non-empty flat sequence "
                                     f"of numbers, got {threshold!r}")

    def test_ragged_weights_and_thresholds_are_refused_when_the_rule_is_built(self):
        with pytest.raises(ValueError):
            FusionRule("weighted_sum", weights=[[0.5], [0.25, 0.25]])
        with pytest.raises(ValueError):
            FusionRule("and", threshold=[[0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("rule, message", [
        (FusionRule("weighted_sum", weights=(0.5, 0.5)), "expected 3 weights, got 2"),
        (FusionRule("and", threshold=(0.5, 0.5)), "expected a scalar or 3 per-modality thresholds"),
    ])
    def test_counts_that_need_the_score_width_are_checked_at_the_fuse(self, rule, message):
        with pytest.raises(ValueError) as raised:
            rule_fuse_batch([(0.5, 0.5, 0.5)], rule)
        assert str(raised.value) == message
