"""Property tests: lambda roots, Choquet axioms, EER rescaling invariance, CSV
round trips, and CLI runs on drawn flag and config values.

Derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqfuse.aggregate import RULE_TAGS, SortedScores, choquet_fuse
from choqfuse.cli import main
from choqfuse import data as data_module
from choqfuse.data import DataFormatError, LabeledScoreSet, load_csv, write_csv
from choqfuse.ga import GENE_EPS
from choqfuse.measures import ADDITIVE_TOL, LambdaMeasure, solve_lambda, solve_lambda_batch
from choqfuse.metrics import evaluate_scores, sweep_errors

properties = settings(derandomize=True, deadline=None, database=None)

unit = st.floats(0.0, 1.0)
density = st.floats(GENE_EPS, 1.0 - GENE_EPS)


@st.composite
def measures_and_scores(draw):
    n = draw(st.integers(2, 6))
    measure = LambdaMeasure(tuple(draw(st.lists(density, min_size=n, max_size=n))))
    return measure, draw(st.lists(unit, min_size=n, max_size=n))


@st.composite
def density_batches(draw):
    n = draw(st.integers(2, 16))
    rows = st.lists(density, min_size=n, max_size=n)
    return draw(st.lists(rows, min_size=1, max_size=6))


class TestLambdaRoots:
    # n = 16 rows at the extremes of lambda share one batch: near -1
    # ([0.5] * 16), about 1.4e6 ([1e-6] * 16), and two in between.
    @properties
    @given(density_batches())
    @example([[0.5] * 16, [1e-6] * 16, [0.1] * 16, [0.2, 0.3, 0.25, 0.1] + [0.01] * 12])
    @example([[0.2, 0.3, 0.25, 0.1] + [0.01] * 12, [1e-6] * 16, [0.5] * 16])
    @example([[1e-6] * 16, [0.1] * 16, [0.5] * 16, [1e-6] * 16])
    def test_sign_round_trip_and_batch_equals_one_row(self, rows):
        roots = solve_lambda_batch(rows).tolist()
        for d, lam in zip(rows, roots):
            total = math.fsum(d)
            if abs(total - 1.0) <= ADDITIVE_TOL:
                assert lam == 0.0
            elif total < 1.0:
                assert lam > 0.0
            else:
                assert -1.0 < lam < 0.0
            assert LambdaMeasure(d).lam == lam
            assert solve_lambda(d) == lam


class TestChoquetAxioms:
    @properties
    @given(measures_and_scores())
    def test_bounded_by_min_and_max(self, case):
        measure, scores = case
        fused = choquet_fuse(scores, measure)
        assert min(scores) - 1e-12 <= fused <= max(scores) + 1e-12

    @properties
    @given(measures_and_scores(), st.data())
    def test_monotone_in_each_score(self, case, data):
        measure, scores = case
        j = data.draw(st.integers(0, len(scores) - 1))
        raised = list(scores)
        raised[j] = data.draw(st.floats(scores[j], 1.0))
        assert choquet_fuse(raised, measure) >= choquet_fuse(scores, measure) - 1e-12

    @properties
    @given(measures_and_scores(), unit)
    def test_constant_vector_is_a_fixed_point(self, case, t):
        measure, scores = case
        assert choquet_fuse([t] * len(scores), measure) == t


def _argsort_sorted_scores(a):
    """``diffs`` and ``masks`` of ``SortedScores`` from a stable argsort."""
    order = np.argsort(a, axis=1, kind="stable")
    ranked = np.take_along_axis(a, order, axis=1)
    diffs = ranked.copy()
    diffs[:, 1:] = ranked[:, 1:] - ranked[:, :-1]
    masks = np.cumsum((1 << order)[:, ::-1], axis=1)[:, ::-1]
    return diffs, masks


@st.composite
def score_matrices(draw):
    """1 to 40 rows of 1 to 16 scores: tie-heavy, with mixed -0.0 and 0.0."""
    n = draw(st.integers(1, 16))
    cell = st.sampled_from((-0.0, 0.0, 0.25, 0.5, 1.0)) | unit
    return np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=40)))


class TestSortedScoresOracle:
    @properties
    @given(score_matrices())
    def test_equals_a_stable_argsort_bit_for_bit(self, a):
        diffs, masks = _argsort_sorted_scores(a)
        sorted_scores = SortedScores(a)
        assert sorted_scores.diffs.tobytes() == diffs.tobytes()
        assert sorted_scores.masks.dtype == np.int64
        assert sorted_scores.masks.tolist() == masks.tolist()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_every_row_of_zeros_and_ones_of_every_width(self, zero):
        # A compare-exchange network that sorts every 0/1 input sorts every
        # input (Knuth, TAOCP vol. 3, 5.3.4): each width gets all 2^n rows.
        for n in range(1, 17):
            rows = np.arange(1 << n)[:, None]
            a = np.where((rows >> np.arange(n)) & 1, 1.0, zero)
            a[(a == 0.0) & (rows % 3 == 0) & (np.arange(n) % 2 == 0)] = -zero  # both zeros in a row
            diffs, masks = _argsort_sorted_scores(a)
            sorted_scores = SortedScores(a)
            assert sorted_scores.diffs.tobytes() == diffs.tobytes(), n
            assert sorted_scores.masks.tolist() == masks.tolist(), n


# Scores on a 1e-3 grid: ties are frequent, and each rescaling below keeps
# distinct grid values distinct in floating point.
grid_scores = st.lists(st.integers(0, 1000).map(lambda k: k / 1000), min_size=1, max_size=40)
RESCALINGS = {
    "affine": lambda x: 0.25 + 0.5 * x,
    "cubic": lambda x: x**3 + x,
    "exp": np.exp,
}


class TestEerRescaling:
    @properties
    @given(grid_scores, grid_scores, st.sampled_from(sorted(RESCALINGS)))
    def test_eer_is_invariant_under_increasing_rescaling(self, clients, impostors, name):
        f = RESCALINGS[name]
        before = evaluate_scores(clients, impostors)
        after = evaluate_scores(f(np.array(clients)), f(np.array(impostors)))
        assert after.eer == before.eer
        assert after.min_error_rate()[0] == before.min_error_rate()[0]


def _reference_evaluation(clients, impostors):
    """The np.unique + searchsorted sweep that the one merged rank replaced.

    Returns the grid, FAR and FRR curves, EER and its threshold, and the
    total error rate at a threshold counted straight off the sorted classes.
    """
    clients, impostors = np.sort(clients), np.sort(impostors)
    cand = np.unique(np.concatenate([clients, impostors]))
    grid = np.concatenate([[cand[0] - 1.0], cand, [cand[-1] + 1.0]])
    frr = np.searchsorted(clients, grid, side="left") / clients.size
    far = (impostors.size - np.searchsorted(impostors, grid, side="left")) / impostors.size
    if clients[0] > impostors[-1]:
        value, threshold = 0.0, float(impostors[-1] + clients[0]) / 2.0
    else:
        # The first grid point at or past the FAR = FRR crossing, linear
        # from the point before it unless FAR = FRR there exactly.
        diff = far - frr
        k = int(np.argmax(diff <= 0.0))
        d0, d1 = diff[k - 1], diff[k]
        if d1 == 0.0:
            value, threshold = float(far[k]), float(grid[k])
        else:
            value = float(far[k - 1] + d0 / (d0 - d1) * (far[k] - far[k - 1]))
            threshold = float(grid[k - 1] + d0 / (d0 - d1) * (grid[k] - grid[k - 1]))

    def error_rate_at(t):
        fa = int(np.count_nonzero(impostors >= t))
        fr = int(np.count_nonzero(clients < t))
        return (fa + fr) / (clients.size + impostors.size)

    return grid, far, frr, value, threshold, error_rate_at


@st.composite
def sweep_cases(draw):
    """P rows of Nc client and Ni impostor scores, tie-heavy or tie-free."""
    rows, n_clients, n_impostors = draw(st.integers(1, 4)), draw(st.integers(1, 25)), \
        draw(st.integers(1, 25))
    size = n_clients + n_impostors
    if draw(st.booleans()):  # ties within and across the classes
        value = st.integers(0, 8).map(lambda k: k / 8)
        scores = [draw(st.lists(value, min_size=size, max_size=size)) for _ in range(rows)]
    else:
        scores = [draw(st.lists(unit, min_size=size, max_size=size, unique=True))
                  for _ in range(rows)]
    scores = np.array(scores)
    return scores[:, :n_clients], scores[:, n_clients:], draw(st.data())


class TestThresholdSweep:
    @settings(properties, max_examples=200)
    @given(sweep_cases())
    def test_equals_the_unique_and_searchsorted_sweep(self, case):
        clients, impostors, data = case
        eers, min_errors = sweep_errors(clients, impostors)
        for c, i, row_eer, row_min_error in zip(clients, impostors, eers, min_errors):
            report = evaluate_scores(c, i)
            grid, far, frr, value, threshold, error_rate_at = _reference_evaluation(c, i)
            assert report.thresholds.tobytes() == grid.tobytes()
            assert report.far_curve.tobytes() == far.tobytes()
            assert report.frr_curve.tobytes() == frr.tobytes()
            assert (report.eer, report.eer_threshold) == (value, threshold)
            counts = np.rint(far * i.size + frr * c.size)
            k = int(np.argmin(counts))
            assert report.min_error_rate() == (counts[k] / (c.size + i.size), grid[k])
            assert (row_eer, row_min_error) == (report.eer, report.min_error_rate()[0])
            # Thresholds on, between, below and above the grid points.
            midpoints = (grid[:-1] + grid[1:]) / 2
            probes = [data.draw(st.sampled_from(np.r_[c, i].tolist())),
                      data.draw(st.sampled_from(midpoints.tolist())),
                      data.draw(st.floats(max_value=grid[0], allow_nan=False)),
                      data.draw(st.floats(min_value=grid[-1], allow_nan=False)),
                      data.draw(st.floats(allow_nan=False))]
            for t in probes:
                assert report.error_rate_at(t) == error_rate_at(t), t

    @settings(properties, max_examples=200)
    @given(sweep_cases())
    def test_shuffling_scores_or_rows_leaves_the_sweep_bit_identical(self, case):
        # The sweep ranks with an unstable sort: the order of the scores
        # inside a class, and of the rows, must not show in its results.
        clients, impostors, data = case
        eers, min_errors = sweep_errors(clients, impostors)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        within = sweep_errors(rng.permuted(clients, axis=1), rng.permuted(impostors, axis=1))
        assert within[0].tobytes() == eers.tobytes()
        assert within[1].tobytes() == min_errors.tobytes()
        rows = rng.permutation(len(clients))
        across = sweep_errors(clients[rows], impostors[rows])
        assert across[0].tobytes() == eers[rows].tobytes()
        assert across[1].tobytes() == min_errors[rows].tobytes()


@st.composite
def score_sets(draw):
    n = draw(st.integers(1, 4))
    # load_csv strips whitespace around ids and rejects empty ones.  Half the
    # sets draw only ids that survive that; the rest may hold other ids,
    # which write_csv must refuse.
    text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
    if draw(st.booleans()):
        text = text.map(str.strip).filter(bool)
    ids = draw(st.lists(text, min_size=2, max_size=12, unique=True))
    split = draw(st.integers(1, len(ids) - 1))
    rows = [draw(st.lists(unit, min_size=n, max_size=n)) for _ in ids]
    return LabeledScoreSet(ids[:split], rows[:split], ids[split:], rows[split:])


class TestCsvRoundTrip:
    @settings(properties, max_examples=200)
    @given(score_sets())
    def test_load_inverts_write(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "scores.csv"
        ids = data.client_ids + data.impostor_ids
        if all(pid and pid == pid.strip() for pid in ids):
            write_csv(data, path)
            assert load_csv(path) == data
        else:
            with pytest.raises(ValueError, match="round-trip"):
                write_csv(data, path)


# Pieces of score files: those numpy's reader takes, then those it leaves to
# the csv loop.  A file of the first kind only is plain.
PLAIN_IDS = ["P10", "P11", " P12", "P13 ", "id-7", "x y"]
PLAIN_LABELS = ["Client", "IMPOSTOR", "cLiEnT"]
UNIT_CELLS = ["0.5", "0", "1", ".5", "1e-3", "0.125", " 0.25", "0.75 ", "-0.0", "1e-400",
              "+0.5", "00.5"]
PLAIN_CELLS = ["1.5", "-0.1", "nan", "inf", "-Infinity", "1e999"]
OTHER_IDS = ["a,b", '"a,b"', 'say "hi"', '"q"', "\tt", "é", "", "  ", "P\x00"]
OTHER_LABELS = [" client", "impostor ", "genuine", "", "clients", '"client"']
OTHER_CELLS = ["1_0", "١", "0.5\x1f", "x", "", "0x1p-2", "\t0.5", '"0.5"', "0.5\x7f",
               "0.5\r"]


@st.composite
def score_files(draw):
    """Bytes of a plain score file with up to two pieces that are not plain."""

    def pick(common, unusual, odds=6):
        return draw(st.sampled_from(unusual if draw(st.integers(1, odds)) == 1 else common))

    n = draw(st.integers(1, 3))
    # One line is its fields, then its line end.
    lines = [[pick(["person_id"], [" Person_ID"]), pick(["label"], ["LABEL "]),
              *(f"m{j + 1}" for j in range(n)), "\n"]]
    for row in range(draw(st.integers(2, 8))):
        lines.append([pick([f"P{row + 10}"], PLAIN_IDS, odds=10),
                      pick([("client", "impostor")[row % 2]], PLAIN_LABELS),
                      *(pick(UNIT_CELLS, PLAIN_CELLS, odds=30) for _ in range(n)),
                      pick(["\n"], ["\r\n"])])
    for _ in range(draw(st.integers(0, 2))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        change = draw(st.sampled_from(["field", "blank line", "lone CR", "fewer fields"]))
        if change == "field":
            col = draw(st.integers(0, len(line) - 2))
            line[col] = draw(st.sampled_from(OTHER_IDS if col == 0 else
                                             OTHER_LABELS if col == 1 else OTHER_CELLS))
        elif change == "blank line":
            lines.insert(lines.index(line) + 1, [draw(st.sampled_from(["", "  "])), "\n"])
        elif change == "lone CR":
            line[-1] = "\r"
        elif len(line) > 2:
            del line[-2]
    text = "".join(",".join(line[:-1]) + line[-1] for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def load_or_error(path, normalize):
    try:
        result = load_csv(path, normalize=normalize)
    except DataFormatError as exc:
        return str(exc)
    return (result.client_ids, result.client_scores.tobytes(),
            result.impostor_ids, result.impostor_scores.tobytes())


class TestPlainReaderAgreesWithTheCsvLoop:
    @settings(properties, max_examples=400)
    @given(score_files(), st.booleans())
    def test_same_score_set_or_same_error(self, tmp_path_factory, body, normalize):
        path = tmp_path_factory.mktemp("csv") / "scores.csv"
        path.write_bytes(body)
        loaded = load_or_error(path, normalize)
        with mock.patch.object(data_module, "_read_plain", return_value=None):
            assert loaded == load_or_error(path, normalize)

    @pytest.mark.parametrize("col,piece", [(0, p) for p in OTHER_IDS]
                             + [(1, p) for p in OTHER_LABELS] + [(3, p) for p in OTHER_CELLS])
    @pytest.mark.parametrize("row", [1, 3])
    def test_one_piece_that_is_not_plain(self, tmp_path, row, col, piece):
        lines = [["person_id", "label", "m1", "m2"], ["P1", "client", "0.5", "0.25"],
                 ["P2", "impostor", "0.125", "1"], ["P3", "client", "0", "0.75"]]
        lines[row][col] = piece
        path = tmp_path / "scores.csv"
        path.write_bytes("".join(",".join(line) + "\r\n" for line in lines).encode())
        loaded = load_or_error(path, False)
        with mock.patch.object(data_module, "_read_plain", return_value=None):
            assert loaded == load_or_error(path, False)


# Config values of every JSON type; json.dumps writes non-finite floats as
# NaN / Infinity, which json.load reads back.  Integers stay small, so a
# drawn population or generation count keeps a run short.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4,
)
CONFIG_KEYS = ("threshold", "densities", "rule", "seed", "stop_eer", "normalize",
               "synthetic", "generations", "population", "measure_file", "mystery")
thresholds = st.floats() | unit | st.sampled_from([math.nan, math.inf, -math.inf, -0.1, 1.5])
density_strings = (
    st.lists(st.floats(), max_size=4).map(lambda v: ",".join(map(repr, v)))
    | st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3).map(
        lambda v: ",".join(map(repr, v)))
    | st.text(max_size=10)
)


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(["fuse", "compare", "eval", "optimize"]))
    argv = [command, "--synthetic"]
    if command == "optimize":
        argv += ["--generations", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv += ["--population", str(draw(st.integers(0, 6)))]
    else:
        if draw(st.booleans()):
            argv.append("--densities=" + draw(density_strings))
        if command != "fuse" and draw(st.booleans()):
            argv.append(f"--threshold={draw(thresholds)!r}")
        if command == "eval" and draw(st.booleans()):
            argv += ["--rule", draw(st.sampled_from(RULE_TAGS + ("bogus",)))]
    config = draw(st.none() | st.just({})
                  | st.dictionaries(st.sampled_from(CONFIG_KEYS), json_values, max_size=2))
    return argv, config


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestCliFuzz:
    @settings(properties, max_examples=150)
    @given(cli_runs())
    def test_exit_codes_outputs_and_json(self, run):
        argv, config = run
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv = argv + ["--out", str(out)]
            if config is not None:
                (Path(tmp) / "config.json").write_text(json.dumps(config))
                argv += ["--config", str(Path(tmp) / "config.json")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, config)
            assert "Traceback" not in err.getvalue()
            written = sorted(out.iterdir()) if out.exists() else []
            if code != 0:
                assert written == [], (argv, config, err.getvalue())
            for path in written:
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=_reject_constant)
