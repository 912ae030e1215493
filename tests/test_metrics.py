"""Normalization, FAR/FRR, EER, and report export."""

import csv
import dataclasses
import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choqfuse
from choqfuse import data as data_module
from choqfuse import metrics
from choqfuse.aggregate import FusionRule, choquet_fuse_batch, rule_fuse_batch
from choqfuse.data import (_BLOCK_ROWS, LabeledScoreSet, normalize_minmax, synthetic_dataset,
                           write_table)
from choqfuse.measures import LambdaMeasure
from choqfuse.metrics import EvalReport, evaluate_scores, sweep_errors, write_roc_csv

properties = settings(derandomize=True, deadline=None, database=None)


class TestNormalizeMinmax:
    def test_affine_endpoints(self):
        np.testing.assert_allclose(normalize_minmax([2, 4, 6]), [0.0, 0.5, 1.0])

    def test_negative_values(self):
        np.testing.assert_allclose(normalize_minmax([-1, 0, 3]), [0.0, 0.25, 1.0])

    def test_degenerate_range_maps_to_half(self):
        np.testing.assert_allclose(normalize_minmax([0.3, 0.3]), [0.5, 0.5])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_minmax([])

    @pytest.mark.parametrize("raw", [[[0, 10], [5, 20]], [[0.2], [0.4]], 3.0, np.float64(0.5)],
                             ids=["2x2", "2x1", "float", "0-d"])
    def test_only_one_column_is_normalized(self, raw):
        # One min and one max over a whole matrix would mix the matchers' score scales.
        with pytest.raises(ValueError) as raised:
            normalize_minmax(raw)
        shape = np.shape(raw)
        assert str(raised.value) == f"can only normalize one non-empty column, got shape {shape}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax([0.2, bad, 0.4])


class TestFarFrr:
    def test_perfect_separation(self):
        assert evaluate_scores([1.0, 1.0], [0.0, 0.0]).far_frr_at(0.5) == (0.0, 0.0)

    def test_fully_inverted(self):
        assert evaluate_scores([0.4], [0.6]).far_frr_at(0.5) == (1.0, 1.0)

    def test_first_modality_of_synthetic_set(self):
        data = synthetic_dataset()
        report = evaluate_scores(data.client_scores[:, 0], data.impostor_scores[:, 0])
        far, frr = report.far_frr_at(0.5)
        # brute-force recount straight off the score rows
        fa = sum(1 for s in data.impostor_scores if s[0] >= 0.5)
        fr = sum(1 for s in data.client_scores if s[0] < 0.5)
        assert (fa, fr) == (4, 4)
        assert far == fa / 30 and frr == fr / 30

    def test_equals_the_counts_at_every_score_and_infinity(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            clients = rng.integers(0, 6, int(rng.integers(1, 15))) / 5  # heavy ties
            impostors = rng.integers(0, 6, int(rng.integers(1, 15))) / 5
            report = evaluate_scores(clients, impostors)
            for t in [-math.inf, math.inf, 0.1, *clients, *impostors]:
                far = np.count_nonzero(impostors >= t) / impostors.size
                frr = np.count_nonzero(clients < t) / clients.size
                assert report.far_frr_at(t) == (far, frr), t

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            evaluate_scores([], [0.5])
        with pytest.raises(ValueError):
            evaluate_scores([0.5], [])

    def test_only_score_vectors_are_evaluated(self):
        # A score matrix is not a batch of scores: flattened, the (30, 3)
        # synthetic matrices would pass as 90 clients and 90 impostors.
        data = synthetic_dataset()
        for clients, impostors, name, shape in (
                (data.client_scores, data.impostor_scores, "client", (30, 3)),
                (data.client_scores[:, 0], data.impostor_scores[:, :1], "impostor", (30, 1)),
                (0.7, 0.2, "client", ()),
                ([0.7], np.float64(0.2), "impostor", ())):
            with pytest.raises(ValueError) as raised:
                evaluate_scores(clients, impostors)
            assert str(raised.value) == (f"{name} scores must be 1-D with a non-empty "
                                         f"last axis, got shape {shape}")


class TestErrorRateAt:
    def test_synthetic_unimodal_error_rates(self):
        data = synthetic_dataset()
        # published: 20% for modality 2 (5 client misses + 7 impostor
        # accepts), 38.33% for modality 3
        e2, e3 = (evaluate_scores(data.client_scores[:, j],
                                  data.impostor_scores[:, j]).error_rate_at(0.5)
                  for j in (1, 2))
        assert round(e2 * 60) == 12 and abs(e2 - 0.20) <= 1e-12
        assert round(e3 * 60) == 23 and abs(e3 - 23 / 60) <= 1e-12

    def test_all_correct(self):
        assert evaluate_scores([0.9, 0.8], [0.1, 0.2]).error_rate_at(0.5) == 0.0

    def test_is_class_weighted_average_of_far_frr(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            nc, ni = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            clients = rng.uniform(0, 1, nc)
            impostors = rng.uniform(0, 1, ni)
            t = float(rng.uniform(0, 1))
            fa = int(np.count_nonzero(impostors >= t))
            fr = int(np.count_nonzero(clients < t))
            # the identity is exact in rational arithmetic
            assert Fraction(fa + fr, nc + ni) == (
                Fraction(fa, ni) * Fraction(ni, nc + ni)
                + Fraction(fr, nc) * Fraction(nc, nc + ni)
            )
            assert evaluate_scores(clients, impostors).error_rate_at(t) == float(
                Fraction(fa + fr, nc + ni)
            )


class TestEer:
    def test_perfect_separation_reports_gap_midpoint(self):
        report = evaluate_scores([0.8, 0.9], [0.1, 0.2])
        assert report.eer == 0.0
        assert report.eer_threshold == pytest.approx(0.5)  # midpoint of (0.2, 0.8)

    def test_identical_multisets_are_chance_level(self):
        scores = [0.1, 0.4, 0.7]
        assert evaluate_scores(scores, scores).eer == pytest.approx(0.5)

    def test_hand_enumerated_example(self):
        # at t = 0.6: FAR = 1/3 (only 0.7 accepted), FRR = 1/3 (only 0.4
        # rejected); enumerating every threshold confirms no earlier crossing
        report = evaluate_scores([0.8, 0.6, 0.4], [0.7, 0.3, 0.2])
        assert report.eer == pytest.approx(1 / 3)
        assert report.eer_threshold == pytest.approx(0.6)

    def test_negative_zero_reads_as_zero(self):
        # np.sort orders tied zeros of both signs per SIMD level, so a grid
        # that kept a -0.0 would depend on the level.
        rng = np.random.default_rng(103)
        cases = [(rng.choice([0.0, 0.0, 0.5, 1.0], 300), rng.choice([0.0, 0.25, 0.5], 200)),
                 ([0.0, 1.0], [0.0]), ([0.0], [0.0]), ([0.0], [-1.0]), ([1.0], [0.0])]
        for clients, impostors in cases:
            plus = evaluate_scores(clients, impostors)
            minus = evaluate_scores(*(np.where(np.asarray(x) == 0.0, -0.0, x)
                                      for x in (clients, impostors)))
            assert not np.signbit(minus.thresholds[minus.thresholds == 0.0]).any()
            for field in dataclasses.fields(EvalReport):
                value, expected = getattr(minus, field.name), getattr(plus, field.name)
                assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), field.name

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            clients = rng.uniform(0, 1, 25)
            impostors = rng.uniform(0, 1, 18)
            base = evaluate_scores(clients, impostors).eer
            warped = evaluate_scores(np.exp(clients), np.exp(impostors)).eer
            assert base == pytest.approx(warped, abs=1e-12)
            affine = evaluate_scores(3 * clients + 1, 3 * impostors + 1).eer
            assert base == pytest.approx(affine, abs=1e-12)

    def test_value_lies_within_crossing_bracket(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            clients = rng.uniform(0, 1, 20)
            impostors = rng.uniform(0, 1, 20)
            report = evaluate_scores(clients, impostors)
            value = report.eer
            diff = report.far_curve - report.frr_curve
            k = int(np.argmax(diff <= 0))
            bracket = [report.far_curve[k], report.frr_curve[k]]
            if diff[k] != 0.0:
                bracket += [report.far_curve[k - 1], report.frr_curve[k - 1]]
            assert min(bracket) - 1e-12 <= value <= max(bracket) + 1e-12


class TestFullFloatRange:
    """Scores anywhere in the double range, up to the largest finite one."""

    BIG = 1.7976931348623157e308

    def test_crossing_between_the_extremes(self):
        # Its threshold is a grid point; the unused interpolation spans 2 * BIG.
        report = evaluate_scores([-self.BIG, self.BIG], [-self.BIG, self.BIG])
        assert (report.eer, report.eer_threshold) == (0.5, self.BIG)
        assert report.thresholds.tolist() == [-math.inf, -self.BIG, self.BIG, math.inf]

    def test_separable_midpoint_without_overflow(self):
        report = evaluate_scores([self.BIG], [1.6e308])
        assert report.eer == 0.0
        assert report.eer_threshold == 1.6e308 / 2 + self.BIG / 2
        assert 1.6e308 < report.eer_threshold < self.BIG

    def test_separable_midpoint_overflowing_downward(self):
        # -BIG - 1e308 is -inf: the midpoint is taken of the halves.
        report = evaluate_scores([-1e308], [-self.BIG])
        assert (report.eer, report.eer_threshold) == (0.0, -1.398846567431158e308)

    def test_interpolated_threshold_over_a_span_past_the_largest_double(self):
        # BIG - (-BIG) is inf: the threshold is lo * (1 - t) + hi * t.
        report = evaluate_scores([-self.BIG, -self.BIG, -self.BIG, self.BIG], [-self.BIG, self.BIG])
        assert (report.eer, report.eer_threshold) == (0.6, 1.0786158809173895e308)

    def test_sentinels_clear_scores_past_two_to_the_53(self):
        # 2**53 + 1.0 rounds back to 2**53: the top sentinel is the next double.
        report = evaluate_scores([0.0], [1.0, 2.0**53])
        assert report.min_error_rate() == (1 / 3, 2.0**53 + 2)
        assert report.error_rate_at(2.0**53 + 2) == 1 / 3
        assert report.error_rate_at(2.0**53) == 2 / 3
        low = evaluate_scores([-(2.0**53), 1.0], [0.0])
        assert low.thresholds[:2].tolist() == [-(2.0**53) - 2, -(2.0**53)]


class TestSweepErrors:
    def test_rows_equal_evaluate_scores_exactly(self):
        rng = np.random.default_rng(89)
        for decimals in (1, 2, None):  # heavy ties, some ties, none
            clients = rng.uniform(0.2, 1.0, (200, 23))
            impostors = rng.uniform(0.0, 0.8, (200, 17))
            if decimals is not None:
                clients, impostors = clients.round(decimals), impostors.round(decimals)
            clients[0] = impostors[0].max() + rng.uniform(0.01, 0.2, 23)  # separable
            clients[1] = impostors[1, :1]  # every score tied across the classes
            eers, min_errors = sweep_errors(clients, impostors)
            for c, i, value, min_error in zip(clients, impostors, eers, min_errors):
                report = evaluate_scores(c, i)
                assert value == report.eer
                assert min_error == report.min_error_rate()[0]

    def test_separable_rows_have_zero_error(self):
        eers, min_errors = sweep_errors([[0.8, 0.9]], [[0.1, 0.2]])
        assert eers.tolist() == [0.0] and min_errors.tolist() == [0.0]

    def test_extreme_and_signed_zero_rows_equal_evaluate_scores(self):
        # The +inf sentinel must rank above the largest finite double, and
        # -0.0 must tie with 0.0, as in evaluate_scores.
        big, tiny = np.finfo(float).max, 5e-324
        pool = np.array([-big, -1e-310, -tiny, -0.0, 0.0, tiny, 1e-310, 0.5, big])
        rng = np.random.default_rng(97)
        clients, impostors = rng.choice(pool, (300, 7)), rng.choice(pool, (300, 5))
        clients[0], impostors[0] = big, -big  # separable at the extremes
        clients[1], impostors[1] = big, big  # every score tied at the top
        clients[2], impostors[2] = -0.0, 0.0  # every score tied at zero
        eers, min_errors = sweep_errors(clients, impostors)
        for c, i, value, min_error in zip(clients, impostors, eers, min_errors):
            report = evaluate_scores(c, i)
            assert value == report.eer
            assert min_error == report.min_error_rate()[0]
        assert eers[:3].tolist() == [0.0, 0.5, 0.5] and min_errors[0] == 0.0
        # Without a negative score the rows are swept as their own bits.
        pool = np.array([-0.0, 0.0, tiny, 1e-310, 0.25, 0.5, 1.0])
        clients, impostors = rng.choice(pool, (300, 7)), rng.choice(pool, (300, 5))
        clients[0], impostors[0] = -0.0, 0.0  # every score tied at zero
        eers, min_errors = sweep_errors(clients, impostors)
        for c, i, value, min_error in zip(clients, impostors, eers, min_errors):
            report = evaluate_scores(c, i)
            assert (value, min_error) == (report.eer, report.min_error_rate()[0])
        assert eers[0] == 0.5

    def test_dense_ranks_serve_only_inputs_with_a_negative_score(self, monkeypatch):
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
        clients, impostors = np.array([[0.5, -0.0, 1.0]]), np.array([[0.0, 0.25]])
        sweep_errors(clients, impostors)
        evaluate_scores(clients[0], impostors[0])
        assert calls == []
        impostors[0, 0] = -1e-300
        sweep_errors(clients, impostors)
        evaluate_scores(clients[0], impostors[0])
        assert calls == [1, 1]

    def test_the_gas_sweep_of_signed_zeros_and_ties(self):
        # The GA writes its fused scores straight into the sweep's buffer,
        # unranked: -0.0 must key as 0.0, and the +inf sentinel must stay.
        rng = np.random.default_rng(101)
        clients = rng.integers(0, 5, (400, 9)) / 4
        impostors = rng.integers(0, 4, (400, 6)) / 4
        for half in (clients, impostors):
            half[rng.uniform(size=half.shape) < 0.3] = -0.0
        clients[0], impostors[0] = -0.0, 0.0
        clients[1], impostors[1] = 1.0, -0.0  # separable
        sweep = metrics._Sweep(len(clients), 9, 6)
        for _ in range(2):
            sweep.scores[:, :-1] = np.hstack([clients, impostors])
            eers, min_errors = sweep()
            assert np.isposinf(sweep.scores[:, -1]).all()
            for c, i, value, min_error in zip(clients, impostors, eers, min_errors):
                report = evaluate_scores(c, i)
                assert (value, min_error) == (report.eer, report.min_error_rate()[0])
        assert eers[:2].tolist() == [0.5, 0.0]

    def test_the_integer_crossing_test_equals_the_rate_difference(self):
        # _Sweep tests FAR - FRR > 0 as accepted * Nc > clients_below * Ni;
        # for every class size up to 40 and every pair of counts, both agree.
        for n_clients in range(1, 41):
            for n_impostors in range(1, 41):
                accepted = np.arange(n_impostors + 1)[:, None]
                clients_below = np.arange(n_clients + 1)[None, :]
                rates = accepted / n_impostors - clients_below / n_clients > 0.0
                counts = accepted * n_clients > clients_below * n_impostors
                assert np.array_equal(counts, rates), (n_clients, n_impostors)

    @pytest.mark.parametrize("n_clients, n_impostors", [(2 ** 27, 2 ** 26), (1, 2 ** 53)])
    def test_a_sweep_past_two_to_the_53_score_pairs_is_refused(self, n_clients, n_impostors):
        # Refused before any buffer is allocated.
        with pytest.raises(ValueError, match="2\\*\\*53 score pairs"):
            metrics._Sweep(1, n_clients, n_impostors)

    def test_an_empty_batch_gives_empty_arrays(self):
        eers, min_errors = sweep_errors(np.empty((0, 3)), np.empty((0, 2)))
        assert eers.shape == min_errors.shape == (0,)
        assert eers.dtype == min_errors.dtype == np.float64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sweep_errors([[0.5, 0.6]], [[0.1], [0.2]])
        with pytest.raises(ValueError):
            sweep_errors([0.5, 0.6], [0.1, 0.2])
        with pytest.raises(ValueError):
            sweep_errors(np.empty((1, 0)), [[0.2]])

    @pytest.mark.parametrize("clients, impostors, message", [
        ([0.5, 0.6], [[0.1]], "client scores must be 2-D with a non-empty last axis, "
                              "got shape (2,)"),
        ([[0.5]], np.empty((1, 0)), "impostor scores must be 2-D with a non-empty last axis, "
                                    "got shape (1, 0)"),
        ([[0.5, 0.6]], [[0.1], [0.2]], "1 client score rows but 2 impostor rows"),
        ([[0.5, math.nan]], [[0.1]], "client scores must be finite, got NaN or infinity"),
        ([[0.5]], [[-math.inf]], "impostor scores must be finite, got NaN or infinity"),
    ], ids=["1-D", "zero-width", "rows", "nan", "inf"])
    def test_each_message_names_the_class_at_fault(self, clients, impostors, message):
        with pytest.raises(ValueError) as raised:
            sweep_errors(clients, impostors)
        assert str(raised.value) == message


CHUNK = metrics._CHUNK_SCORES


def report_bytes(report):
    """Every field of a report, and its minimum error rate, as bytes."""
    fields = [np.asarray(getattr(report, f.name)).tobytes() for f in dataclasses.fields(EvalReport)]
    return fields + [struct.pack("<2d", *report.min_error_rate())]


def one_piece(monkeypatch, clients, impostors):
    """``evaluate_scores`` ranking every score in one merge on the calling thread."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_CHUNK_SCORES", 10**12)
        return evaluate_scores(clients, impostors)


def overlapping(size, decimals=None, seed=2501):
    """``size`` scores, 55% clients, with the classes overlapping."""
    rng = np.random.default_rng(seed)
    n_clients = size * 55 // 100
    clients, impostors = rng.beta(5, 2, n_clients), rng.beta(2, 5, size - n_clients)
    if decimals is not None:
        clients, impostors = np.round(clients, decimals), np.round(impostors, decimals)
    return clients, impostors


def signed_zeros(size):
    clients, impostors = overlapping(size, 2, seed=2502)
    for scores in (clients, impostors):
        scores[scores < 0.2] = 0.0
        scores[(scores == 0.0) & (np.arange(scores.size) % 3 == 0)] = -0.0
    return clients, impostors


def one_class_in_a_chunk(size):
    clients, impostors = overlapping(size, seed=2503)
    return clients, 0.5 + impostors[:500] * 1e-4  # 500 impostors in one narrow value range


def runs_longer_than_a_chunk(size):
    clients, impostors = overlapping(size, 3, seed=2504)
    impostors[:CHUNK + 9] = 0.0  # the lowest run: no chunk may lie below it
    clients[:CHUNK + 9] = 0.75
    return clients, impostors


CHUNKED_CASES = {
    # About 400 scores per 3-decimal value: the pivots fall inside runs of ties.
    "3-decimal-ties": lambda size: overlapping(size, 3),
    "runs-longer-than-a-chunk": runs_longer_than_a_chunk,
    "signed-zeros": signed_zeros,
    "separable": lambda size: (0.6 + overlapping(size)[0] * 0.4, overlapping(size)[1] * 0.4),
    "one-class-in-a-chunk": one_class_in_a_chunk,
    "one-class-in-a-chunk-swapped": lambda size: one_class_in_a_chunk(size)[::-1],
}


class TestChunkedEvaluation:
    """Above ``_CHUNK_SCORES`` scores, ``evaluate_scores`` merges value-range chunks on threads."""

    @pytest.mark.parametrize("size", [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 7])
    def test_chunks_give_the_bits_of_one_piece(self, cpus, monkeypatch, size):
        clients, impostors = overlapping(size)
        expected = one_piece(monkeypatch, clients, impostors)
        assert report_bytes(evaluate_scores(clients, impostors)) == report_bytes(expected)

    @pytest.mark.parametrize("make", CHUNKED_CASES.values(), ids=CHUNKED_CASES.keys())
    def test_ties_zeros_and_lopsided_classes_give_the_bits_of_one_piece(self, cpus, monkeypatch,
                                                                        make):
        clients, impostors = make(3 * CHUNK + 7)
        expected = one_piece(monkeypatch, clients, impostors)
        assert report_bytes(evaluate_scores(clients, impostors)) == report_bytes(expected)

    def test_negative_zero_and_extreme_scores_chunk_into_the_bits_of_one_piece(self, cpus,
                                                                               monkeypatch):
        # A negative score sends the call through dense ranks, which the
        # grid maps back to the scores; the 3-decimal runs cross the pivots.
        rng = np.random.default_rng(2505)
        big = np.finfo(float).max
        clients, impostors = (np.round(x - 0.5, 3) for x in overlapping(60_000, 3, seed=2505))
        for scores in (clients, impostors):
            pick = rng.random(scores.size)
            scores[pick < 0.01] = -0.0
            scores[(pick >= 0.01) & (pick < 0.02)] = 0.0
        clients[:2], impostors[:2] = (big, -big), (-big, big)
        expected = one_piece(monkeypatch, clients, impostors)
        monkeypatch.setattr(metrics, "_CHUNK_SCORES", 4096)
        report = evaluate_scores(clients, impostors)
        assert report_bytes(report) == report_bytes(expected)
        grid = report.thresholds
        assert grid[1] == -big and grid[-2] == big and grid.size < 2_100
        assert 0.0 in grid and not np.signbit(grid[grid == 0.0]).any()

    def test_a_million_scores_are_pinned(self, cpus):
        # Taken before the chunked path existed: 30% of the scores at 3
        # decimals, 0.5% -0.0 and 0.5% 0.0.
        rng = np.random.default_rng(2500)
        clients, impostors = rng.beta(5, 2, 550_000), rng.beta(2, 5, 450_000)
        for scores in (clients, impostors):
            pick = rng.random(scores.size)
            scores[pick < 0.3] = np.round(scores[pick < 0.3], 3)
            scores[pick > 0.99] = -0.0
            scores[pick > 0.995] = 0.0
        report = evaluate_scores(clients, impostors)
        digest = hashlib.sha256()
        for curve in (report.thresholds, report.far_curve, report.frr_curve):
            digest.update(curve.tobytes())
        digest.update(struct.pack("<4d", report.eer, report.eer_threshold,
                                  *report.min_error_rate()))
        assert report.thresholds.size == 690_968
        assert digest.hexdigest() == "5921362a1d7f79c380a893bd654f135705435bd54d5bfbd776a2226d75f6df57"

    def test_no_thread_outlives_a_call(self, cpus, monkeypatch):
        clients, impostors = overlapping(3 * CHUNK + 7, 3)
        before = threading.active_count()
        evaluate_scores(clients, impostors)
        assert threading.active_count() == before
        calls, write_runs = itertools.count(), metrics._write_runs

        def third_chunk_fails(*args):
            if next(calls) == 2:
                raise RuntimeError("third chunk")
            return write_runs(*args)

        monkeypatch.setattr(metrics, "_write_runs", third_chunk_fails)
        with pytest.raises(RuntimeError, match="third chunk"):
            evaluate_scores(clients, impostors)
        assert threading.active_count() == before
        impostors[-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluate_scores(clients, impostors)
        assert threading.active_count() == before

    def test_a_one_piece_call_starts_no_thread(self, cpus, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        n = CHUNK // 2
        report = evaluate_scores(np.linspace(0.2, 1, n), np.linspace(0, 0.8, n))
        report.min_error_rate()
        assert report.thresholds.size == 2 * n + 2
        assert started == []

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_scores_rejected(self, bad):
        for clients, impostors in (([0.9, 0.8, bad], [0.1, 0.2, 0.3]),
                                   ([0.9, 0.8], [bad, 0.2])):
            with pytest.raises(ValueError, match="finite"):
                evaluate_scores(clients, impostors)
            with pytest.raises(ValueError, match="finite"):
                sweep_errors([clients], [impostors])

    def test_nan_threshold_rejected(self):
        clients, impostors = [0.9, 0.8, 0.4], [0.1, 0.2, 0.6]
        report = evaluate_scores(clients, impostors)
        for rate_at in (report.error_rate_at, report.far_frr_at):
            with pytest.raises(ValueError, match="NaN"):
                rate_at(math.nan)

    def test_infinite_thresholds_accept_or_reject_everything(self):
        report = evaluate_scores([0.9, 0.8, 0.4], [0.1, 0.2, 0.6, 0.7])
        assert report.error_rate_at(-math.inf) == 4 / 7
        assert report.error_rate_at(math.inf) == 3 / 7
        assert report.far_frr_at(-math.inf) == (1.0, 0.0)
        assert report.far_frr_at(math.inf) == (0.0, 1.0)


class TestEvalReport:
    def test_reports_compare_and_hash_by_identity(self):
        # Fields holding arrays have no single truth value, so field-wise
        # equality (and a hash of the fields) would raise.
        report, same = (evaluate_scores([0.8, 0.9], [0.1, 0.2]) for _ in range(2))
        assert report == report and report != same
        assert report in [same, report] and [same].count(report) == 0
        assert len({report, same, report}) == 2

    def test_curve_monotonicity_on_random_scores(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            report = evaluate_scores(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
            assert np.all(np.diff(report.far_curve) <= 0)
            assert np.all(np.diff(report.frr_curve) >= 0)
            assert np.all(np.diff(report.thresholds) > 0)

    def test_curve_shapes_and_endpoints(self):
        report = evaluate_scores([0.8, 0.9], [0.1, 0.2])
        assert report.far_curve.shape == report.frr_curve.shape == report.thresholds.shape
        # perfect separation: the (FAR=0, FRR=0) corner is on the curve
        assert any(far == 0.0 and frr == 0.0
                   for far, frr in zip(report.far_curve, report.frr_curve))

    def test_chance_level_curve_is_diagonal(self):
        scores = np.linspace(0.05, 0.95, 12)
        report = evaluate_scores(scores, scores)
        np.testing.assert_allclose(report.far_curve, 1.0 - report.frr_curve, atol=1e-12)

    def test_error_rate_accessor_matches_counts(self):
        rng = np.random.default_rng(79)
        clients, impostors = rng.uniform(0, 1, 30), rng.uniform(0, 1, 20)
        report = evaluate_scores(clients, impostors)
        for t in (0.1, 0.45, 0.8):
            errors = np.count_nonzero(impostors >= t) + np.count_nonzero(clients < t)
            assert report.error_rate_at(t) == errors / 50

    def test_min_error_rate_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(83)
        clients, impostors = rng.uniform(0, 1, 25), rng.uniform(0, 1, 25)
        report = evaluate_scores(clients, impostors)
        rate, threshold = report.min_error_rate()
        brute = min(np.count_nonzero(impostors >= t) + np.count_nonzero(clients < t)
                    for t in report.thresholds) / 50
        assert rate == pytest.approx(brute, abs=1e-12)
        assert report.error_rate_at(threshold) == pytest.approx(rate, abs=1e-12)


    def test_min_error_rate_keeps_the_first_minimum_across_blocks(self):
        block = metrics._BLOCK_POINTS
        size = 3 * block + 5
        errors = np.random.default_rng(2504).integers(5, 100, size).astype(float)
        errors[[block + 7, 2 * block + 3, 3 * block + 1]] = 2.0
        report = EvalReport(thresholds=np.arange(size, dtype=float), far_curve=errors / size,
                            frr_curve=np.zeros(size), eer=0.5, eer_threshold=0.5,
                            n_clients=1, n_impostors=size)
        assert report.min_error_rate() == (2 / (size + 1), float(block + 7))


def _csv_writer_roc(report, path):
    """The row-by-row csv.writer export: the reference for ROC file bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "far", "frr"])
        for t, far, frr in zip(report.thresholds, report.far_curve, report.frr_curve):
            writer.writerow([f"{t:.6g}", f"{far:.6g}", f"{frr:.6g}"])


def _curves_of_length(rows):
    """A report whose grid has ``rows`` points, around a block boundary."""
    rng = np.random.default_rng(rows)
    grid = np.concatenate([[-1.0], np.sort(rng.uniform(0, 1, rows - 2)), [2.0]])
    far = np.linspace(1.0, 0.0, rows)
    return EvalReport(thresholds=grid, far_curve=far, frr_curve=far[::-1], eer=0.5,
                      eer_threshold=0.5, n_clients=rows, n_impostors=rows)


_BLOCK = _BLOCK_ROWS
ROC_REPORTS = {
    # Scores on a 0.1 grid including exact 0 and 1: sentinels -1 and 2.
    "heavy_ties": lambda rng: evaluate_scores(rng.integers(0, 11, 500) / 10,
                                              rng.integers(0, 11, 700) / 10),
    # Thresholds below 1e-4 print in exponent form, e.g. 3.5e-07; half the
    # impostors score exactly 0.
    "tiny_scores": lambda rng: evaluate_scores(
        rng.uniform(0, 1e-4, 300), np.r_[rng.uniform(0, 1e-6, 150), np.zeros(150)]),
    # FAR steps of 5e-05, FRR steps of 3.33333e-05; seven blocks of rows.
    "many_rows": lambda rng: evaluate_scores(rng.uniform(size=30_000), rng.uniform(size=20_000)),
    # Thresholds below zero, down to about -13, and a -0.0 among them.
    "negative_thresholds": lambda rng: evaluate_scores(
        np.r_[rng.normal(-3.0, 2.0, 4000), -0.0], rng.normal(-5.0, 2.0, 3000)),
    # FAR steps of 1/70001: the first seven, 1.42855e-05 to 9.99986e-05,
    # print in exponent form with six digits.
    "exponent_far_steps": lambda rng: evaluate_scores(rng.uniform(size=1000),
                                                      rng.uniform(size=70_001)),
    "block_minus_one": lambda rng: _curves_of_length(_BLOCK - 1),
    "one_block": lambda rng: _curves_of_length(_BLOCK),
    "block_plus_one": lambda rng: _curves_of_length(_BLOCK + 1),
    "two_blocks": lambda rng: _curves_of_length(2 * _BLOCK),
}


class TestRocExport:
    @pytest.mark.parametrize("name", sorted(ROC_REPORTS))
    def test_bytes_equal_the_csv_writer_loop(self, tmp_path, name):
        report = ROC_REPORTS[name](np.random.default_rng(3))
        write_roc_csv(report, tmp_path / "blocks.csv")
        _csv_writer_roc(report, tmp_path / "rows.csv")
        written = (tmp_path / "blocks.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\r\n") == 1 + len(report.thresholds)

    def test_csv_format(self, tmp_path):
        report = evaluate_scores([0.8, 0.62, 0.9], [0.1, 0.33333333, 0.2])
        path = tmp_path / "roc.csv"
        write_roc_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold", "far", "frr"]
        assert len(rows) == 1 + report.thresholds.size
        for (t, far, frr), tt, ff, rr in zip(
            rows[1:], report.thresholds, report.far_curve, report.frr_curve
        ):
            assert t == f"{tt:.6g}" and far == f"{ff:.6g}" and frr == f"{rr:.6g}"
            assert "," not in t  # '.' decimal separator only

    def test_choquet_against_mean_rule_curves(self):
        """Step-curve comparison at shared FAR levels on the synthetic set.

        The Choquet curve (optimal densities) dominates the mean rule at
        every shared FAR level except exactly FAR = 14/30, where the mean
        rule reaches one more true accept; both facts are frozen here from
        an exhaustive pointwise computation.
        """
        data = synthetic_dataset()
        measure = LambdaMeasure((0.411, 0.547, 0.362))
        choquet = evaluate_scores(
            choquet_fuse_batch(data.client_scores, measure),
            choquet_fuse_batch(data.impostor_scores, measure),
        )
        mean = evaluate_scores(
            rule_fuse_batch(data.client_scores, FusionRule("mean")),
            rule_fuse_batch(data.impostor_scores, FusionRule("mean")),
        )

        def best_tpr_at(report, level):
            tpr = 1.0 - report.frr_curve
            return tpr[report.far_curve <= level + 1e-12].max()

        shared = sorted(set(np.round(choquet.far_curve, 12))
                        & set(np.round(mean.far_curve, 12)))
        exceptions = []
        for level in shared:
            if best_tpr_at(choquet, level) < best_tpr_at(mean, level) - 1e-12:
                exceptions.append(level)
        assert exceptions == [pytest.approx(14 / 30)]
        # strictly better where it matters: the low-FAR operating region
        assert best_tpr_at(choquet, 0.0) > best_tpr_at(mean, 0.0)
        assert best_tpr_at(choquet, 1 / 30) > best_tpr_at(mean, 1 / 30)


def _percent_reference(x) -> bytes:
    """The lines of ``%.6g`` fields that ``%`` writes for the rows of ``x``."""
    line = ",".join(["%.6g"] * x.shape[1]) + "\r\n"
    return "".join(line % row for row in map(tuple, x.tolist())).encode()


def _g6_bytes(x) -> bytes:
    x = np.asarray(x, dtype=float)
    return data_module._g6_lines(",".join(["%.6g"] * x.shape[1]) + "\r\n", x)


def _near_a_tie(v: float) -> bool:
    """Whether the 6-digit rounding of ``v`` is within 1e-9 of a tie, read off ``%.20e``.

    The digits past the sixth, as a fraction of the sixth digit's unit,
    are exact to 5e-16 there: no numpy arithmetic is involved.
    """
    text = "%.20e" % abs(v)
    rest = int((text[0] + text[2:22])[6:])  # 15 digits past the sixth
    return abs(rest - 5 * 10**14) < 10**6


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Decimal ties (m + 1/2) * 10**p, which doubles hold only approximately.
_DECIMAL_TIES = st.builds(lambda m, p: (m + 0.5) * 10.0**p,
                          st.integers(10**5, 10**6 - 1), st.integers(-40, 40))


# The doubles nearest 10**k, k = -30..29 (int-to-float and int/int round correctly).
_POWERS_OF_TEN = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-30, 30)])


class TestSixDigitFormatter:
    """``data._g6_lines``, the numpy path of ``write_table`` for ``%.6g`` lines."""

    ADVERSARIAL = np.concatenate([
        [123456.5, 12345.75, 1234565.0, 0.1234565, 999999.5, 999999.4, 9999995.0,
         9.999995e-05, 9.9999949e-05, 9.9999951e-05, 1e-5, 1e-4, 0.0001, 999999.0,
         0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-320, 1e300, -1e300,
         1e-99, 1e99, np.nextafter(1e99, 0), np.nextafter(1e-99, 0), 1.7976931348623157e308,
         np.inf, -np.inf, np.nan, 1.0, 0.5, 2.0, -1.0, 123456.0, 1234567.0, 0.1, 1 / 3],
        np.nextafter(_POWERS_OF_TEN, 0.0), _POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, np.inf),
    ])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_adversarial_values(self, sign):
        x = sign * self.ADVERSARIAL[:, np.newaxis]
        assert _g6_bytes(x) == _percent_reference(x)

    @pytest.mark.parametrize("n", [49_999, 50_000])
    def test_counts_over_n(self, n):
        x = (np.arange(n + 1) / n).reshape(-1, 1)
        assert _g6_bytes(x) == _percent_reference(x)

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_row_widths(self, width):
        rng = np.random.default_rng(width)
        x = rng.uniform(-2.0, 2.0, (500, width)) * 10.0 ** rng.integers(-8, 9, (500, width))
        x[::7, -1] = 0.0
        x[::11, 0] = 123456.5  # a tie: the row goes to %
        assert _g6_bytes(x) == _percent_reference(x)

    @settings(properties, max_examples=300)
    @given(st.lists(st.tuples(*[st.one_of(_FINITE, _DECIMAL_TIES)] * 3), min_size=1, max_size=40))
    def test_any_finite_floats(self, rows):
        x = np.array(rows, dtype=float)
        assert _g6_bytes(x) == _percent_reference(x)

    def test_only_rows_near_a_tie_are_left_to_percent(self, tmp_path):
        """The % fallback writes the rows with a value near a rounding tie, and only those.

        Products of 3-decimal scores have short decimal expansions, so many
        thresholds sit within an ulp of a tie.
        """
        rng = np.random.default_rng(19)
        clients, impostors = (rng.integers(0, 1001, (50_000, 4)) / 1000 for _ in range(2))
        report = evaluate_scores(rule_fuse_batch(clients, FusionRule("prod")),
                                 rule_fuse_batch(impostors, FusionRule("prod")))
        rows = np.column_stack([report.thresholds, report.far_curve, report.frr_curve])
        assert len(rows) > 95_000
        doubtful = sum(any(map(_near_a_tie, row)) for row in rows.tolist())
        assert doubtful > 100
        written = []
        percent_lines = data_module._percent_lines

        def counting(line, lines):
            lines = list(lines)
            written.extend(lines)
            return percent_lines(line, lines)

        with mock.patch.object(data_module, "_percent_lines", counting):
            write_roc_csv(report, tmp_path / "roc.csv")
        assert len(written) == doubtful
        assert all(any(map(_near_a_tie, row)) for row in written)
        _csv_writer_roc(report, tmp_path / "rows.csv")
        assert (tmp_path / "roc.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_other_lines_and_columns_keep_percent(self, tmp_path):
        columns = [np.array([0.5, 123456.5]), np.array([1e-7, 2.0])]
        calls = []
        percent_lines = data_module._percent_lines

        def counting(line, lines):
            calls.append(line)
            return percent_lines(line, lines)

        with mock.patch.object(data_module, "_percent_lines", counting):
            write_table(tmp_path / "a.csv", ["a", "b"], "%.6g,%.2f", columns)
            write_table(tmp_path / "b.csv", ["a", "b"], "%.6g,%.6g", [columns[0], [1e-7, 2.0]])
            write_table(tmp_path / "c.csv", ["a", "b"], "%.6g,%.6g", columns)
        assert calls == ["%.6g,%.2f\r\n", "%.6g,%.6g\r\n", "%.6g,%.6g\r\n"]
        assert (tmp_path / "a.csv").read_bytes() == b"a,b\r\n0.5,0.00\r\n123456,2.00\r\n"
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_no_warning_and_no_tables_at_import(self):
        code = ("import warnings; warnings.simplefilter('error'); import choqfuse.data as d; "
                "assert d._g6_tables.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(Path(data_module.__file__).parents[1])})


class TestLabeledScoreSet:
    def test_field_views(self):
        data = synthetic_dataset()
        assert data.n_modalities == 3
        assert len(data.client_ids) == 30 and len(data.impostor_ids) == 30
        assert data.client_ids[0] == "P1"
        np.testing.assert_array_equal(data.client_scores[0], [0.98, 0.98, 0.98])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabeledScoreSet(("a",), [[0.5]], ("a",), [[0.4]])

    def test_one_duplicate_among_1e5_ids_is_named(self):
        ids = [f"P{i}" for i in range(100_000)]
        ids[-1] = "P4321"
        half = len(ids) // 2
        with pytest.raises(ValueError) as exc:
            LabeledScoreSet(ids[:half], np.full((half, 1), 0.5),
                            ids[half:], np.full((half, 1), 0.25))
        assert str(exc.value) == "duplicate person ids: ['P4321']"

    def test_mismatched_modalities_rejected(self):
        with pytest.raises(ValueError):
            LabeledScoreSet(("a",), [[0.5, 0.5]], ("b",), [[0.4]])

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError):
            LabeledScoreSet(("a",), [[1.5]], ("b",), [[0.4]])

    def test_public_constructor_copies_stringifies_and_checks(self):
        client_scores = np.array([[0.5, 0.25]])
        data = LabeledScoreSet([7], client_scores, (8, "x"), [[0, 1], [1, 0]])
        assert data.client_ids == ("7",) and data.impostor_ids == ("8", "x")
        assert data.impostor_scores.dtype == np.float64
        assert not data.client_scores.flags.writeable and client_scores.flags.writeable
        client_scores[0, 0] = 0.75
        assert data.client_scores[0, 0] == 0.5
        for args, message in [
            ((["a"], [0.5], ["b"], [[0.5]]), "client scores must be a non-empty matrix"),
            ((["a"], [[0.5]], ["b"], np.empty((0, 1))), "impostor scores must be a non-empty matrix"),
            ((["a", "c"], [[0.5]], ["b"], [[0.5]]), "2 client ids for 1 score rows"),
            ((["a"], [[0.5]], ["b"], [[np.nan]]), "impostor scores must lie in [0, 1]"),
            ((["a"], [[-0.5]], ["b"], [[0.5]]), "client scores must lie in [0, 1]"),
            ((["a"], [[0.5]], ["b"], [[1.5]]), "impostor scores must lie in [0, 1]"),
            ((["a"], [[-np.inf]], ["b"], [[0.5]]), "client scores must lie in [0, 1]"),
            ((["a"], [[0.5]], ["b"], [[0.2, np.inf]]), "impostor scores must lie in [0, 1]"),
            ((["a"], [[0.5, -1e-300]], ["b"], [[0.5]]), "client scores must lie in [0, 1]"),
            ((["a"], [[0.5, 0.5]], ["b"], [[0.5]]), "clients have 2 modalities, impostors 1"),
            (([1, "b"], [[0.5], [0.5]], ["1"], [[0.5]]), "duplicate person ids: ['1']"),
        ]:
            with pytest.raises(ValueError) as exc:
                LabeledScoreSet(*args)
            assert str(exc.value) == message

    def test_negative_zero_and_the_bounds_are_in_range(self):
        data = LabeledScoreSet(("a", "b"), [[-0.0, 1.0], [0.0, -0.0]], ("c",), [[1.0, -0.0]])
        assert data.client_scores.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_scores_are_frozen(self):
        data = synthetic_dataset()
        with pytest.raises(ValueError):
            data.client_scores[0, 0] = 0.0
