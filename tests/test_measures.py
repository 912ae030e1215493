"""Sugeno lambda-measure construction and validation."""

import math
from itertools import permutations

import numpy as np
import pytest

from choqfuse import measures
from choqfuse.ga import GENE_EPS
from choqfuse.measures import (
    BOUNDARY_TOL,
    MONOTONE_TOL,
    ConvergenceError,
    LambdaMeasure,
    MeasureViolation,
    TableMeasure,
    lambda_tables,
    solve_lambda,
    solve_lambda_batch,
    validate_measure,
)


def quadratic_lambda(d):
    """Independent oracle for exactly three densities.

    Dividing the defining polynomial by its trivial root lambda = 0 leaves
    e3*x^2 + e2*x + (e1 - 1) = 0 with elementary symmetric e-terms; the
    admissible root is the one above -1 and away from 0.
    """
    e1 = d[0] + d[1] + d[2]
    e2 = d[0] * d[1] + d[0] * d[2] + d[1] * d[2]
    e3 = d[0] * d[1] * d[2]
    disc = e2 * e2 - 4.0 * e3 * (e1 - 1.0)
    roots = [(-e2 + math.sqrt(disc)) / (2 * e3), (-e2 - math.sqrt(disc)) / (2 * e3)]
    ok = [r for r in roots if r > -1.0 and abs(r) > 1e-9]
    assert len(ok) == 1
    return ok[0]


def fold(densities, lam, indices):
    value = 0.0
    for i in indices:
        value = value + densities[i] + lam * value * densities[i]
    return value


class TestSolveLambda:
    def test_reference_three_density_example(self):
        lam = solve_lambda([0.35, 0.25, 0.3])
        assert abs(lam - 0.361) <= 5e-4  # published 3-decimal value
        assert abs(lam - quadratic_lambda((0.35, 0.25, 0.3))) <= 1e-12

    def test_additive_densities_give_zero(self):
        assert solve_lambda([0.5, 0.5]) == 0.0
        assert solve_lambda([0.2, 0.3, 0.5]) == 0.0

    def test_back_solved_from_published_pairwise_measures(self):
        # Pairwise values published for the optimal densities let lambda be
        # recovered linearly from m_ij = m_i + m_j + lambda*m_i*m_j.
        d = (0.411, 0.547, 0.362)
        published = {(0, 1): 0.820, (0, 2): 0.682, (1, 2): 0.788}
        estimates = [
            (mij - d[i] - d[j]) / (d[i] * d[j]) for (i, j), mij in published.items()
        ]
        assert max(estimates) - min(estimates) <= 5e-3
        lam = solve_lambda(d)
        for est in estimates:
            assert abs(lam - est) <= 5e-3
        assert abs(lam - quadratic_lambda(d)) <= 1e-12

    def test_agrees_with_quadratic_oracle_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = tuple(rng.uniform(0.01, 0.99, 3))
            if abs(sum(d) - 1.0) <= 1e-9:
                continue
            assert abs(solve_lambda(d) - quadratic_lambda(d)) <= 1e-9

    def test_sign_contract_and_residual_over_random_vectors(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            d = tuple(rng.uniform(1e-6, 1.0 - 1e-6, n))
            lam = solve_lambda(d)
            total = math.fsum(d)
            if abs(total - 1.0) <= 1e-12:
                assert lam == 0.0
            elif total < 1.0:
                assert lam > 0.0
            else:
                assert -1.0 < lam < 0.0
            residual = math.prod(1.0 + lam * m for m in d) - lam - 1.0
            assert abs(residual) <= 1e-10

    def test_near_boundary_and_near_additive_densities(self):
        # Clamped-gene corners from the optimizer must never error out.
        for d in [
            (1e-6, 1e-6, 1e-6),
            (1.0 - 1e-6, 1e-6, 1e-6),
            (1.0 - 1e-6,) * 3,
            (0.4999999, 0.5000001, 1e-6),
        ]:
            lam = solve_lambda(d)
            assert lam > -1.0
            measure = LambdaMeasure(d)
            assert abs(measure.value_of(range(len(d))) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "bad",
        [[0.5], [], [0.0, 0.5], [0.5, 1.0], [-0.1, 0.5], [0.5, 1.2], [float("nan"), 0.5]],
    )
    def test_rejects_invalid_densities(self, bad):
        with pytest.raises(ValueError):
            solve_lambda(bad)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_densities_too_small_for_a_float_lambda_are_refused(self, n):
        with pytest.raises(ValueError, match=r"densities \[5e-324.*too small"):
            solve_lambda([5e-324] * n)
        with pytest.raises(ValueError, match="too small"):
            solve_lambda_batch([[0.3] * n, [1e-300] * n])
        with pytest.raises(ValueError, match="too small"):
            LambdaMeasure((5e-324,) * n)

    def test_tiny_densities_with_a_float_lambda_still_solve(self):
        # lambda = (1 - 2e-100) / 1e-200: tiny densities, yet a float lambda.
        assert solve_lambda([1e-100, 1e-100]) == pytest.approx(1e200, rel=1e-12)


def clamp_corner_rows(rng, n, count):
    """Density rows mixing the GA's clamp bounds with interior values."""
    pick = rng.integers(0, 3, (count, n))
    interior = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (count, n))
    return np.where(pick == 0, GENE_EPS, np.where(pick == 1, 1.0 - GENE_EPS, interior))


class TestSolveLambdaBatch:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_rows_equal_the_one_row_solve_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        rows = np.vstack([clamp_corner_rows(rng, n, 40),
                          rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (40, n))])
        batch = solve_lambda_batch(rows)
        singles = [solve_lambda(row) for row in rows]
        assert batch.tolist() == singles

    @pytest.mark.parametrize("n", range(2, 17))
    def test_residual_and_sign_contract_at_the_clamp_bounds(self, n):
        rng = np.random.default_rng(200 + n)
        rows = clamp_corner_rows(rng, n, 60)
        rows[0], rows[1] = GENE_EPS, 1.0 - GENE_EPS
        for d, lam in zip(rows.tolist(), solve_lambda_batch(rows).tolist()):
            total = math.fsum(d)
            if abs(total - 1.0) <= 1e-12:
                assert lam == 0.0
            elif total < 1.0:
                assert lam > 0.0
            else:
                assert -1.0 < lam < 0.0
            residual = abs(math.prod(1.0 + lam * m for m in d) - lam - 1.0)
            assert residual <= max(1e-10, 64.0 * abs(lam) * 2.3e-16 * n), (d, lam)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_densities_take_one_newton_step(self, n, monkeypatch):
        # The start is the exact root of the at most quadratic equation, so
        # one iteration converges: one residual in the loop, one in the
        # contract check.
        calls, residual = [], measures._residual

        def counted(d, lam):
            calls.append(len(lam))
            return residual(d, lam)

        monkeypatch.setattr(measures, "_residual", counted)
        rng = np.random.default_rng(300 + n)
        rows = clamp_corner_rows(rng, n, 1000)
        rows[0], rows[1] = GENE_EPS, 1.0 - GENE_EPS
        lams = solve_lambda_batch(rows)
        solved = np.count_nonzero(lams)  # additive rows are not solved
        assert solved > 700 and calls == [solved, solved]
        assert np.count_nonzero(lams > 0) > 100 and np.count_nonzero(lams < 0) > 100

    def test_additive_rows_are_exactly_zero(self):
        rows = [[0.5, 0.5], [0.25, 0.75], [0.3, 0.7]]
        assert solve_lambda_batch(rows).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [[[0.5]], [[0.2, 1.0]], [0.3, 0.4], [[0.2, float("nan")]]])
    def test_rejects_invalid_rows(self, bad):
        with pytest.raises(ValueError):
            solve_lambda_batch(bad)


class TestLambdaTables:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_doubling_equals_the_subset_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        rows = np.vstack([clamp_corner_rows(rng, n, 5), rng.uniform(0.01, 0.99, (5, n))])
        tables = lambda_tables(rows)
        for d, lam, table in zip(rows.tolist(), solve_lambda_batch(rows).tolist(), tables):
            # Each subset adds its highest criterion last.
            expected = [0.0] * (1 << n)
            for mask in range(1, 1 << n):
                i = mask.bit_length() - 1
                a = expected[mask ^ (1 << i)]
                expected[mask] = a + d[i] + lam * a * d[i]
            expected[-1] = 1.0
            assert table.tolist() == [min(max(v, 0.0), 1.0) for v in expected]

    def test_rows_equal_lambda_measure_tables(self):
        rng = np.random.default_rng(401)
        rows = clamp_corner_rows(rng, 4, 30)
        for d, table in zip(rows, lambda_tables(rows)):
            assert np.array_equal(table, LambdaMeasure(tuple(d)).dense_table())

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("lam", [0.25, math.nan, math.inf])
    def test_inconsistent_lambda_fails_the_boundary_check(self, lam):
        with pytest.raises(ConvergenceError):
            lambda_tables([[0.35, 0.25, 0.3]], [lam])


class TestLambdaMeasure:
    def test_reference_subset_table(self):
        d = (0.35, 0.25, 0.3)
        m = LambdaMeasure(d)
        lam = quadratic_lambda(d)
        # exact values from the independent oracle
        assert abs(m.value_of([0, 1]) - (d[0] + d[1] + lam * d[0] * d[1])) <= 1e-9
        assert abs(m.value_of([0, 2]) - (d[0] + d[2] + lam * d[0] * d[2])) <= 1e-9
        assert abs(m.value_of([1, 2]) - (d[1] + d[2] + lam * d[1] * d[2])) <= 1e-9
        assert abs(m.value_of([1, 2]) - 0.577) <= 5e-4  # published value

    def test_boundary_subsets(self):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        assert m.value_of([]) == 0.0
        assert abs(m.value_of([0, 1, 2]) - 1.0) <= 1e-9
        for i, d in enumerate(m.densities):
            assert m.value_of([i]) == pytest.approx(d, abs=1e-15)

    def test_full_set_is_one_for_any_densities(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = LambdaMeasure(tuple(rng.uniform(0.01, 0.99, n)))
            assert abs(m.value_of(range(n)) - 1.0) <= 1e-9

    def test_monotone_over_exhaustive_power_set(self):
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            for _ in range(20):
                m = LambdaMeasure(tuple(rng.uniform(1e-6, 1 - 1e-6, n)))
                table = m.dense_table()
                for mask in range(1 << n):
                    for j in range(n):
                        if not mask >> j & 1:
                            assert table[mask] <= table[mask | (1 << j)] + 1e-12

    def test_fold_order_independence(self):
        rng = np.random.default_rng(29)
        d = tuple(rng.uniform(0.05, 0.95, 4))
        m = LambdaMeasure(d)
        for subset in [(0, 1, 2), (0, 1, 2, 3), (1, 3)]:
            reference = m.value_of(subset)
            for perm in permutations(subset):
                assert abs(fold(d, m.lam, perm) - reference) <= 1e-12

    def test_additive_measure_is_exact_sum(self):
        d = (0.1, 0.2, 0.3, 0.4)
        m = LambdaMeasure(d)
        assert m.lam == 0.0
        for mask in range(1 << 4):
            expected = sum(d[i] for i in range(4) if mask >> i & 1)
            assert m.value_of(mask) == expected

    def test_bitmask_and_iterable_subsets_agree(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        assert m.value_of(0b011) == m.value_of([0, 1])
        assert m.value_of(0b101) == m.value_of((0, 2))

    def test_out_of_range_subsets_rejected(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(IndexError):
            m.value_of([3])
        with pytest.raises(IndexError):
            m.value_of([-1])
        with pytest.raises(IndexError):
            m.value_of(1 << 3)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_explicit_lambda_must_be_consistent(self):
        d = (0.35, 0.25, 0.3)
        lam = solve_lambda(d)
        m = LambdaMeasure(d, lam)
        assert m.lam == lam
        for wrong in (0.25, -1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                LambdaMeasure(d, wrong)

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("density", [GENE_EPS, 1.0 - GENE_EPS])
    def test_solved_lambda_round_trips_at_the_clamp_corners(self, n, density):
        # lambda ~ 1e9 at (1e-6,)*n and ~ -1 at (1 - 1e-6,)*n
        m = LambdaMeasure((density,) * n)
        again = LambdaMeasure(m.densities, m.lam)
        assert again.lam == m.lam
        assert np.array_equal(again.dense_table(), m.dense_table())

    def test_seventeen_criteria_are_refused(self):
        d = tuple(np.random.default_rng(41).uniform(0.01, 0.2, 17))
        with pytest.raises(ValueError, match="at most 16 criteria"):
            LambdaMeasure(d)
        with pytest.raises(ValueError, match="at most 16 criteria"):
            LambdaMeasure(d, solve_lambda(d))
        with pytest.raises(ValueError, match="at most 16 criteria"):
            lambda_tables([d])

    def test_immutability(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(Exception):
            m.lam = 0.5
        with pytest.raises(ValueError):
            m.dense_table()[3] = 0.9


class TestValidateMeasure:
    def _reference_table(self):
        return {
            (): 0.0,
            (0,): 0.35, (1,): 0.25, (2,): 0.3,
            (0, 1): 0.631, (0, 2): 0.687, (1, 2): 0.577,
            (0, 1, 2): 1.0,
        }

    def test_reference_values_are_a_valid_measure(self):
        assert validate_measure(self._reference_table()) == []

    def test_monotone_two_criteria_table(self):
        values = {(): 0.0, (0,): 0.6, (1,): 0.5, (0, 1): 1.0}
        assert validate_measure(values) == []

    def test_monotonicity_violation_names_the_pair(self):
        # 0.7 on {0} exceeds 0.5 on {0,1}; the full set 0.5 also breaks the
        # boundary condition, so two findings come back
        values = {(): 0.0, (0,): 0.7, (1,): 0.1, (0, 1): 0.5}
        violations = validate_measure(values)
        assert sorted(v.kind for v in violations) == ["full", "monotonicity"]
        v = next(v for v in violations if v.kind == "monotonicity")
        assert v.subset == frozenset({0})
        assert v.superset == frozenset({0, 1})
        assert "0.7" in str(v) and "0.5" in str(v)

    def test_single_monotonicity_violation_with_valid_boundaries(self):
        values = {
            (): 0.0, (0,): 0.7, (1,): 0.1, (2,): 0.2,
            (0, 1): 0.5, (0, 2): 0.8, (1, 2): 0.8, (0, 1, 2): 1.0,
        }
        violations = validate_measure(values)
        assert len(violations) == 1
        assert violations[0].kind == "monotonicity"
        assert violations[0].subset == frozenset({0})
        assert violations[0].superset == frozenset({0, 1})

    def test_boundary_violations(self):
        values = {(): 0.1, (0,): 0.2, (1,): 0.3, (0, 1): 0.9}
        kinds = {v.kind for v in validate_measure(values)}
        assert kinds == {"empty", "full"}

    def test_missing_subset_is_an_error(self):
        values = self._reference_table()
        del values[(0, 2)]
        with pytest.raises(ValueError, match="missing"):
            validate_measure(values)

    def test_accepts_bitmask_keys(self):
        values = {0: 0.0, 1: 0.6, 2: 0.5, 3: 1.0}
        assert validate_measure(values) == []


def loop_violations(table):
    """The covering-pair loop validate_measure ran before it was vectorized."""
    n = len(table).bit_length() - 1
    sets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(len(table))]
    found = []
    if abs(table[0]) > BOUNDARY_TOL:
        found.append(MeasureViolation("empty", frozenset(), None,
                                      f"m(empty set) = {table[0]!r}, must be 0"))
    if abs(table[-1] - 1.0) > BOUNDARY_TOL:
        found.append(MeasureViolation("full", sets[-1], None,
                                      f"m(full set) = {table[-1]!r}, must be 1"))
    for mask in range(1 << n):
        for j in range(n):
            if mask >> j & 1:
                continue
            wider = mask | (1 << j)
            if table[mask] > table[wider] + MONOTONE_TOL:
                found.append(MeasureViolation(
                    "monotonicity", sets[mask], sets[wider],
                    f"m({set(sets[mask]) or '{}'}) = {table[mask]!r} exceeds "
                    f"m({set(sets[wider])}) = {table[wider]!r}",
                ))
    return found


class TestValidateMeasureAgainstTheLoop:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_broken_tables_give_the_loop_violations(self, n):
        rng = np.random.default_rng(400 + n)
        sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
        kinds = set()
        for trial in range(4):
            table = sizes / n + rng.uniform(-0.5, 0.5, 1 << n) / n
            for mask in rng.integers(0, 1 << n, 8):
                for j in range(n):
                    if not mask >> j & 1:
                        # Clear drops, or ties within a few MONOTONE_TOL.
                        drop = 0.1 if trial % 2 == 0 else rng.integers(0, 3) * MONOTONE_TOL
                        table[mask | 1 << j] = table[mask] - drop
            # Valid boundaries, clear faults, then faults and ties at BOUNDARY_TOL.
            table[0] = [0.0, 0.2, 2e-9, -1e-9][trial]
            table[-1] = [1.0, 0.1, 1.0 + 2e-9, 1.0 - 1e-9][trial]
            violations = validate_measure(dict(enumerate(table)))
            assert violations == loop_violations(table)
            kinds.update(v.kind for v in violations)
        assert kinds == {"empty", "full", "monotonicity"}


class TestTableMeasure:
    def test_thirteen_criteria_are_accepted(self):
        # Additive uniform measure: m(A) = |A| / 13, a multiple of 1/13.
        sizes = [bin(mask).count("1") for mask in range(1 << 13)]
        values = {mask: size / 13 for mask, size in enumerate(sizes)}
        assert validate_measure(values) == []
        t = TableMeasure(values)
        assert t.n == 13
        assert t.value_of(range(13)) == 1.0
        assert t.value_of([0, 12]) == 2 / 13

    def test_seventeen_criteria_are_refused(self):
        sizes = [bin(mask).count("1") for mask in range(1 << 17)]
        values = {mask: size / 17 for mask, size in enumerate(sizes)}
        with pytest.raises(ValueError, match="16 criteria"):
            TableMeasure(values)
        with pytest.raises(ValueError, match="16 criteria"):
            validate_measure({(): 0.0, (16,): 1.0})

    def test_valid_table_round_trips(self):
        values = {(): 0.0, (0,): 0.6, (1,): 0.5, (0, 1): 1.0}
        t = TableMeasure(values)
        assert t.n == 2
        assert t.value_of([0]) == 0.6
        assert t.value_of([0, 1]) == 1.0

    def test_rejection_lists_every_violation_of_validate_measure(self):
        values = {(): 0.1, (0,): 0.7, (1,): 0.1, (0, 1): 0.5}
        with pytest.raises(ValueError) as exc:
            TableMeasure(values)
        violations = validate_measure(values)
        assert [v.kind for v in violations] == ["empty", "full", "monotonicity"]
        assert str(exc.value) == "invalid fuzzy measure: " + "; ".join(map(str, violations))

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            TableMeasure({
                (): 0.0, (0,): 0.7, (1,): 0.1, (2,): 0.2,
                (0, 1): 0.5, (0, 2): 0.8, (1, 2): 0.8, (0, 1, 2): 1.0,
            })
