"""Normalization, FAR/FRR, EER, and report export."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from choqfuse.aggregate import FusionRule, choquet_fuse_batch, rule_fuse_batch
from choqfuse.data import _BLOCK_ROWS, LabeledScoreSet, normalize_minmax, synthetic_dataset
from choqfuse.measures import LambdaMeasure
from choqfuse.metrics import (
    EvalReport,
    eer,
    error_rate_at,
    evaluate_scores,
    far_frr,
    sweep_errors,
    write_roc_csv,
)


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


class TestFarFrr:
    def test_perfect_separation(self):
        assert far_frr([1.0, 1.0], [0.0, 0.0], 0.5) == (0.0, 0.0)

    def test_fully_inverted(self):
        assert far_frr([0.4], [0.6], 0.5) == (1.0, 1.0)

    def test_first_modality_of_synthetic_set(self):
        data = synthetic_dataset()
        far, frr = far_frr(data.client_scores[:, 0], data.impostor_scores[:, 0], 0.5)
        # brute-force recount straight off the score rows
        fa = sum(1 for _, s in data.impostors if s[0] >= 0.5)
        fr = sum(1 for _, s in data.clients if s[0] < 0.5)
        assert (fa, fr) == (4, 4)
        assert far == fa / 30 and frr == fr / 30

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            far_frr([], [0.5], 0.5)
        with pytest.raises(ValueError):
            far_frr([0.5], [], 0.5)


class TestErrorRateAt:
    def test_synthetic_unimodal_error_rates(self):
        data = synthetic_dataset()
        # published: 20% for modality 2 (5 client misses + 7 impostor
        # accepts), 38.33% for modality 3
        e2 = error_rate_at(data.client_scores[:, 1], data.impostor_scores[:, 1], 0.5)
        e3 = error_rate_at(data.client_scores[:, 2], data.impostor_scores[:, 2], 0.5)
        assert round(e2 * 60) == 12 and abs(e2 - 0.20) <= 1e-12
        assert round(e3 * 60) == 23 and abs(e3 - 23 / 60) <= 1e-12

    def test_all_correct(self):
        assert error_rate_at([0.9, 0.8], [0.1, 0.2], 0.5) == 0.0

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
            assert error_rate_at(clients, impostors, t) == float(
                Fraction(fa + fr, nc + ni)
            )


class TestEer:
    def test_perfect_separation_reports_gap_midpoint(self):
        value, threshold = eer([0.8, 0.9], [0.1, 0.2])
        assert value == 0.0
        assert threshold == pytest.approx(0.5)  # midpoint of (0.2, 0.8)

    def test_identical_multisets_are_chance_level(self):
        scores = [0.1, 0.4, 0.7]
        value, _ = eer(scores, scores)
        assert value == pytest.approx(0.5)

    def test_hand_enumerated_example(self):
        # at t = 0.6: FAR = 1/3 (only 0.7 accepted), FRR = 1/3 (only 0.4
        # rejected); enumerating every threshold confirms no earlier crossing
        value, threshold = eer([0.8, 0.6, 0.4], [0.7, 0.3, 0.2])
        assert value == pytest.approx(1 / 3)
        assert threshold == pytest.approx(0.6)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            clients = rng.uniform(0, 1, 25)
            impostors = rng.uniform(0, 1, 18)
            base, _ = eer(clients, impostors)
            warped, _ = eer(np.exp(clients), np.exp(impostors))
            assert base == pytest.approx(warped, abs=1e-12)
            affine, _ = eer(3 * clients + 1, 3 * impostors + 1)
            assert base == pytest.approx(affine, abs=1e-12)

    def test_value_lies_within_crossing_bracket(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            clients = rng.uniform(0, 1, 20)
            impostors = rng.uniform(0, 1, 20)
            value, _ = eer(clients, impostors)
            report = evaluate_scores(clients, impostors)
            diff = report.far_curve - report.frr_curve
            k = int(np.argmax(diff <= 0))
            bracket = [report.far_curve[k], report.frr_curve[k]]
            if diff[k] != 0.0:
                bracket += [report.far_curve[k - 1], report.frr_curve[k - 1]]
            assert min(bracket) - 1e-12 <= value <= max(bracket) + 1e-12


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sweep_errors([[0.5, 0.6]], [[0.1], [0.2]])
        with pytest.raises(ValueError):
            sweep_errors([0.5, 0.6], [0.1, 0.2])
        with pytest.raises(ValueError):
            sweep_errors(np.empty((1, 0)), [[0.2]])


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_scores_rejected(self, bad):
        for clients, impostors in (([0.9, 0.8, bad], [0.1, 0.2, 0.3]),
                                   ([0.9, 0.8], [bad, 0.2])):
            with pytest.raises(ValueError, match="finite"):
                evaluate_scores(clients, impostors)
            with pytest.raises(ValueError, match="finite"):
                eer(clients, impostors)
            with pytest.raises(ValueError, match="finite"):
                sweep_errors([clients], [impostors])
            with pytest.raises(ValueError, match="finite"):
                error_rate_at(clients, impostors, 0.5)
            with pytest.raises(ValueError, match="finite"):
                far_frr(clients, impostors, 0.5)

    def test_nan_threshold_rejected(self):
        clients, impostors = [0.9, 0.8, 0.4], [0.1, 0.2, 0.6]
        report = evaluate_scores(clients, impostors)
        for rate_at in (report.error_rate_at,
                        lambda t: error_rate_at(clients, impostors, t),
                        lambda t: far_frr(clients, impostors, t)):
            with pytest.raises(ValueError, match="NaN"):
                rate_at(math.nan)

    def test_infinite_thresholds_accept_or_reject_everything(self):
        report = evaluate_scores([0.9, 0.8, 0.4], [0.1, 0.2, 0.6, 0.7])
        assert report.error_rate_at(-math.inf) == 4 / 7
        assert report.error_rate_at(math.inf) == 3 / 7


class TestEvalReport:
    def test_curve_monotonicity_on_random_scores(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            report = evaluate_scores(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
            assert np.all(np.diff(report.far_curve) <= 0)
            assert np.all(np.diff(report.frr_curve) >= 0)
            assert np.all(np.diff(report.thresholds) > 0)

    def test_roc_points_shape_and_endpoints(self):
        report = evaluate_scores([0.8, 0.9], [0.1, 0.2])
        pts = report.roc_points
        assert pts.shape == (report.thresholds.size, 2)
        # perfect separation: the (FAR=0, TPR=1) corner is on the curve
        assert any(far == 0.0 and tpr == 1.0 for far, tpr in pts)

    def test_chance_level_curve_is_diagonal(self):
        scores = np.linspace(0.05, 0.95, 12)
        report = evaluate_scores(scores, scores)
        np.testing.assert_allclose(report.roc_points[:, 0], report.roc_points[:, 1],
                                   atol=1e-12)

    def test_error_rate_accessor_matches_function(self):
        rng = np.random.default_rng(79)
        clients, impostors = rng.uniform(0, 1, 30), rng.uniform(0, 1, 20)
        report = evaluate_scores(clients, impostors)
        for t in (0.1, 0.45, 0.8):
            assert report.error_rate_at(t) == error_rate_at(clients, impostors, t)

    def test_min_error_rate_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(83)
        clients, impostors = rng.uniform(0, 1, 25), rng.uniform(0, 1, 25)
        report = evaluate_scores(clients, impostors)
        rate, threshold = report.min_error_rate()
        brute = min(error_rate_at(clients, impostors, t) for t in report.thresholds)
        assert rate == pytest.approx(brute, abs=1e-12)
        assert report.error_rate_at(threshold) == pytest.approx(rate, abs=1e-12)


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


class TestLabeledScoreSet:
    def test_field_views(self):
        data = synthetic_dataset()
        assert data.n_modalities == 3
        assert len(data.clients) == 30 and len(data.impostors) == 30
        pid, scores = data.clients[0]
        assert pid == "P1"
        np.testing.assert_array_equal(scores, [0.98, 0.98, 0.98])

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

    def test_scores_are_frozen(self):
        data = synthetic_dataset()
        with pytest.raises(ValueError):
            data.client_scores[0, 0] = 0.0
