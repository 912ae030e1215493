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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqfuse.aggregate import RULE_TAGS, choquet_fuse
from choqfuse.cli import main
from choqfuse.data import LabeledScoreSet, load_csv, write_csv
from choqfuse.ga import GENE_EPS
from choqfuse.measures import ADDITIVE_TOL, LambdaMeasure, solve_lambda, solve_lambda_batch
from choqfuse.metrics import _crossing, evaluate_scores, sweep_errors

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
    @properties
    @given(density_batches())
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
            assert LambdaMeasure(d, lam) == LambdaMeasure(d)
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
        values, thresholds = _crossing(grid[np.newaxis], far[np.newaxis], frr[np.newaxis])
        value, threshold = float(values[0]), float(thresholds[0])

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
