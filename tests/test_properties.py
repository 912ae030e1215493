"""Property tests: lambda roots, Choquet axioms, EER rescaling invariance, CSV round trips.

Derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqfuse.aggregate import choquet_fuse
from choqfuse.data import load_csv, write_csv
from choqfuse.ga import GENE_EPS
from choqfuse.measures import ADDITIVE_TOL, LambdaMeasure, solve_lambda, solve_lambda_batch
from choqfuse.metrics import LabeledScoreSet, evaluate_scores

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
