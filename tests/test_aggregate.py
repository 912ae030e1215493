"""Choquet integral and classical fusion rules."""

import numpy as np
import pytest

from choqfuse.aggregate import (
    FusionRule,
    choquet_fuse,
    choquet_fuse_batch,
    rule_fuse_batch,
)
from choqfuse.data import synthetic_dataset
from choqfuse.measures import LambdaMeasure, TableMeasure


def max_measure(n):
    return TableMeasure({m: (1.0 if m else 0.0) for m in range(1 << n)})


def min_measure(n):
    full = (1 << n) - 1
    return TableMeasure({m: (1.0 if m == full else 0.0) for m in range(1 << n)})


class TestChoquetFuse:
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
                total += (a[i] - prev) * m.value_of(remaining)
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
                total += (row[i] - prev) * m.value_of(remaining)
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

    def test_out_of_range_scores_rejected(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(ValueError):
            choquet_fuse((0.5, 1.2, 0.1), m)
        with pytest.raises(ValueError):
            choquet_fuse((-0.1, 0.2, 0.1), m)


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
            for pid, scores in data.impostors
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

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            FusionRule("median")
        with pytest.raises(ValueError):
            FusionRule("choquet")
        with pytest.raises(ValueError):
            rule_fuse_batch([(0.5, 0.5)], FusionRule("weighted_sum", weights=(0.9, 0.3)))[0]
        with pytest.raises(ValueError):
            rule_fuse_batch([(0.5, 0.5)], FusionRule("weighted_sum", weights=(-0.5, 1.5)))[0]
        for threshold in (1.5, float("nan"), (0.5, float("nan"))):
            with pytest.raises(ValueError):
                rule_fuse_batch([(0.5, 0.5)], FusionRule("and", threshold=threshold))[0]
