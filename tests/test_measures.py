"""Sugeno lambda-measure construction and validation."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from choqfuse import measures
from choqfuse.aggregate import FusionRule
from choqfuse.ga import GENE_EPS
from choqfuse.measures import (
    ADDITIVE_TOL,
    BOUNDARY_TOL,
    MONOTONE_TOL,
    ROOT_RESIDUAL_TOL,
    ConvergenceError,
    LambdaMeasure,
    TableMeasure,
    lambda_tables,
    solve_lambda,
    solve_lambda_batch,
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


def decimal_root(d):
    """The root of the lambda equation on the exact float densities, by
    bisection of g(x) = (prod(1 + x*m_i) - x - 1) / x in 60-digit decimal
    arithmetic: an independent oracle for any n."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = [Decimal(v) for v in d]

        def below(x):
            p = Decimal(1)
            for v in m:
                p *= 1 + x * v
            return (p - x - 1) / x < 0

        lo, hi = Decimal(-1), Decimal(0)
        if sum(m) < 1:
            lo, hi = Decimal(0), Decimal(1)
            while below(hi):
                lo, hi = hi, 2 * hi
        while hi - lo > abs(hi) * Decimal(10) ** -55:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return (lo + hi) / 2


def ulps_off(lam, exact):
    return float(abs(Decimal(lam) - exact) / Decimal(math.ulp(float(exact))))


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
        # Huge roots from tiny equal densities: pinned, and within half an
        # ulp of the 60-digit root.
        for d, lam in [([1e-100] * 4, 2.1544346900318837e+133), ([1e-50] * 8, 1.3894953800874228e+57)]:
            assert solve_lambda(d) == lam
            assert ulps_off(lam, decimal_root(d)) <= 0.5

    def test_two_tiny_densities_give_the_exact_root(self):
        # For n = 2, lambda = (1 - m1 - m2) / (m1 * m2) is -c / e2, which
        # stays within an ulp where e2^2 underflows (densities below about
        # 1e-77), checked in 60-digit decimal arithmetic on the float densities.
        rng = np.random.default_rng(43)
        rows = [[1e-100] * 2, [1e-80] * 2, [1e-77, 3e-78], [1e-150, 2e-140], [1e-200, 0.5]]
        rows += (10.0 ** rng.uniform(-150, -70, (200, 2))).tolist()
        lams = solve_lambda_batch(rows).tolist()
        assert lams[:2] == [solve_lambda(rows[0]), solve_lambda(rows[1])]
        with localcontext() as ctx:
            ctx.prec = 60
            for d, lam in zip(rows, lams):
                m1, m2 = map(Decimal, d)
                exact = (1 - m1 - m2) / (m1 * m2)
                assert abs(Decimal(lam) - exact) <= 2 * Decimal(math.ulp(float(exact))), d

    def test_two_densities_with_a_subnormal_product_stay_within_an_ulp_and_a_half(self):
        # Where e2 = m1*m2 is subnormal (lambda within a factor 4 of the
        # largest float) it has lost digits, so lambda is (-c / m1) / m2;
        # checked in 60-digit decimal arithmetic on the float densities.
        rng = np.random.default_rng(53)
        exponents = rng.integers(-1000, -22, 400)
        rows = np.column_stack([np.ldexp(rng.uniform(0.5, 1.0, 400), exponents),
                                np.ldexp(rng.uniform(0.5, 1.0, 400), -1023 - exponents)])
        rows = np.vstack([[[1e-154, 5.7e-155], [0.5, 2.0 ** -1023]], rows])
        with localcontext() as ctx:
            ctx.prec = 60
            exact = [(1 - m1 - m2) / (m1 * m2) for m1, m2 in
                     ((Decimal(a), Decimal(b)) for a, b in rows.tolist())]
            keep = [x < Decimal(np.finfo(float).max) for x in exact]
            rows = rows[keep]
            exact = [x for x, k in zip(exact, keep) if k]
            assert len(rows) > 200 and (rows.prod(axis=1) < np.finfo(float).tiny).all()
            for d, lam, x in zip(rows.tolist(), solve_lambda_batch(rows).tolist(), exact):
                assert abs(Decimal(lam) - x) <= Decimal(1.5) * Decimal(math.ulp(float(x))), d

    def test_two_densities_with_a_normal_product_keep_their_bits(self):
        # 10^5 rows whose m1*m2 is a normal float: lambda is -c / e2, bit
        # for bit as before the subnormal case was split off (ldexp draws,
        # so the rows do not depend on numpy's SIMD level either).
        rng = np.random.default_rng(47)
        rows = np.vstack([rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (50_000, 2)),
                          np.ldexp(rng.uniform(0.5, 1.0, (50_000, 2)),
                                   rng.integers(-500, 0, (50_000, 2)))])
        assert (rows.prod(axis=1) >= np.finfo(float).tiny).all()
        digest = hashlib.sha256(solve_lambda_batch(rows).tobytes()).hexdigest()
        assert digest == "4d0ea86223d450921ff94824d40b4e777224f1cc0af44f268ac6b48c4c633cac"

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_tiny_equal_densities_meet_the_contract_or_are_refused(self, n):
        # Never a RuntimeWarning (an error under the test settings) or a
        # ConvergenceError: a root that LambdaMeasure accepts and whose raw
        # residual, in exact arithmetic, meets the contract, or a ValueError.
        for value in [float(f"1e-{k}") for k in (50, 100, 150, 160, 200, 300, 308, 320)] + [5e-324]:
            try:
                lam = solve_lambda([value] * n)
            except ValueError as exc:
                assert f"densities [{value!r}" in str(exc) and "too small" in str(exc)
                continue
            assert LambdaMeasure((value,) * n).lam == lam
            x = Fraction(lam)
            residual = abs((1 + x * Fraction(value)) ** n - x - 1)
            assert residual <= max(Fraction(ROOT_RESIDUAL_TOL), 64 * x * Fraction(2.3e-16) * n)


def test_mixed_magnitude_densities_meet_the_contract_or_are_refused():
    # Log-uniform densities in [1e-300, 0.49]: roots from moderate to past
    # the largest float, with e_k spanning thousands of binary orders.
    # Never a RuntimeWarning or a ConvergenceError: a root whose raw
    # residual, in exact arithmetic, meets the contract, or a ValueError for
    # a row whose residual is still negative at the largest float.
    rng = np.random.default_rng(61)
    big = Fraction(np.finfo(float).max)
    solved = 0
    for n in range(2, 17):
        for d in (10.0 ** rng.uniform(-300, math.log10(0.49), (100, n))).tolist():
            m = [Fraction(v) for v in d]
            try:
                lam = solve_lambda(d)
            except ValueError as exc:
                assert "too small" in str(exc)
                assert math.prod(1 + big * v for v in m) < 1 + big
                continue
            x = Fraction(lam)
            residual = abs(math.prod(1 + x * v for v in m) - x - 1)
            assert residual <= max(Fraction(ROOT_RESIDUAL_TOL), 64 * x * Fraction(2.3e-16) * n), d
            solved += 1
    assert 1350 < solved < 1500


def test_a_root_missing_the_residual_contract_raises(monkeypatch):
    # No Newton step leaves the start, whose residual the check refuses.
    monkeypatch.setattr(measures, "_MAX_ITER", 0)
    with pytest.raises(ConvergenceError) as info:
        solve_lambda([0.3, 0.2, 0.25, 0.15])
    assert str(info.value) == ("root residual 2.398e-05 exceeds 1e-10 at "
                               "lambda=0.3213000300103562 (densities sum to 0.9)")


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

    def test_additive_rows_give_zero_among_solved_ones(self):
        # n = 3, and dyadic rows summing to exactly 1 for n = 4 and n = 9.
        cases = [
            ([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]],
             [[0.3, 0.3, 0.3], [0.6, 0.3, 0.4], [0.1, 0.2, 0.3]]),
            ([[0.5, 0.25, 0.125, 0.125], [0.25] * 4],
             [[0.3] * 4, [0.6, 0.3, 0.4, 0.2], [0.1, 0.2, 0.3, 0.1]]),
            ([[0.25] + [0.125] * 4 + [0.0625] * 4, [0.5] + [0.0625] * 8],
             [[0.1] * 9, [0.2] * 9, [0.05, 0.1, 0.15, 0.2, 0.05, 0.1, 0.15, 0.2, 0.05]]),
        ]
        for additive, others in cases:
            batch = solve_lambda_batch([others[0], *additive[:1], others[1], additive[1], others[2]])
            assert batch[[1, 3]].tolist() == [0.0, 0.0]
            assert batch[[0, 2, 4]].tolist() == [solve_lambda(row) for row in others]
            assert all(lam != 0.0 for lam in batch[[0, 2, 4]])
            assert solve_lambda_batch(additive * 2).tolist() == [0.0] * 4

    # Per width, rows whose rounded left-to-right density sum lies within
    # ADDITIVE_TOL of 1 and rows whose sum lies beyond it, each one where
    # numpy's pairwise sum (8 densities or more) falls on the other side.
    # Each was a random row scaled to sum to 1 + 1e-12 + k * 2^-52, |k| < 40.
    ORDER_SENSITIVE_ROWS = {
        8: [[0.06013018159548325, 0.19358658116026697, 0.01669642681839843, 0.1995573188957392,
             0.1967484558898896, 0.19692390402123974, 0.04910522595996696, 0.08725190566001581],
            [0.19292403911555298, 0.0313928938339791, 0.15751633008294058, 0.18791481556651712,
             0.11956614401659395, 0.18802272700830394, 0.10791305608578959, 0.014749994291322696],
            [0.16495749273505547, 0.20358452448588002, 0.20349240075842231, 0.12328953958868066,
             0.029539464307422787, 0.0626227507976653, 0.20033769046676597, 0.012176136861107387]],
        9: [[0.15416208938862047, 0.13765538438678013, 0.0032041845426611943, 0.14457480236886153,
             0.13356564291285639, 0.1618083014971845, 0.08501347421876108, 0.023918011461178362,
             0.15609810922409642],
            [0.02845799666457914, 0.15078916226558456, 0.01936746801061019, 0.1320738802129082,
             0.14562438468955516, 0.15726977472320905, 0.06174228670719427, 0.2262275825825669,
             0.07844746414479262]],
        12: [[0.09716341983098079, 0.02194347676491987, 0.1075452203233476, 0.10279522776491173,
              0.06333254811458626, 0.08775013957978697, 0.030987071777280585, 0.13689880750655214,
              0.08835759174159476, 0.10217802514090736, 0.07564906190267633, 0.0853994095534556],
             [0.14837617411221452, 0.12089039110823534, 0.14138066495374174, 0.014601508364481857,
              0.15235973620845555, 0.02933995530519857, 0.03077020355696981, 0.14903995123546668,
              0.009885723592930417, 0.07956072939278692, 0.11540824953385154, 0.00838671263666707]],
        16: [[0.021610664946923937, 0.0939371468596165, 0.04244459783585062, 0.09373332099385472,
              0.08659847574171127, 0.025556745700962585, 0.04229018298523615, 0.08916775681092853,
              0.04707941413845388, 0.06950089284042389, 0.061013047785091014, 0.047360948653254256,
              0.10921309933179366, 0.11039228380858296, 0.04670928758593587, 0.01339213398238025],
             [0.016950728474981493, 0.08137192664706176, 0.019663051684309714, 0.1140551893824275,
              0.03993989163460237, 0.17878264293096152, 0.026021426029536436, 0.0763290342430638,
              0.04661390175886876, 0.027651014135069155, 0.11677003291010025, 0.014349151617579704,
              0.0880643367948751, 0.0029581297909838326, 0.020824303007657724, 0.12965523895892087]],
    }

    @pytest.mark.parametrize("n", sorted(ORDER_SENSITIVE_ROWS))
    def test_additive_rule_is_the_left_to_right_sum_for_every_width(self, n):
        rows = self.ORDER_SENSITIVE_ROWS[n]
        excesses = []
        for row in rows:
            total = 0.0
            for m in row:  # not sum(), which compensates from Python 3.12 on
                total += m
            excesses.append(total - 1.0)
        additive = [abs(e) <= ADDITIVE_TOL for e in excesses]
        assert True in additive and False in additive
        solved = [0.3] * (n - 1) + [0.05]
        batch = solve_lambda_batch([solved, *rows, solved]).tolist()
        assert batch[1:-1] == [solve_lambda(row) for row in rows]
        for lam, is_additive in zip(batch[1:-1], additive):
            assert (lam == 0.0) == is_additive
            assert is_additive or -1.0 < lam < 0.0  # every excess is positive
        assert batch[0] == batch[-1] == solve_lambda(solved) > -1.0

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
    def test_two_and_three_densities_are_solved_in_closed_form(self, n, monkeypatch):
        # The quadratic root is the exact root of the at most quadratic
        # equation and meets the contract at the clamp corners, so no row
        # enters the Newton loop (g is never evaluated).
        calls, polynomial = [], measures._polynomial

        def counted(coefs, x):
            calls.append(len(x))
            return polynomial(coefs, x)

        monkeypatch.setattr(measures, "_polynomial", counted)
        rng = np.random.default_rng(300 + n)
        rows = clamp_corner_rows(rng, n, 1000)
        rows[0], rows[1] = GENE_EPS, 1.0 - GENE_EPS
        lams = solve_lambda_batch(rows)
        assert np.count_nonzero(lams) > 700 and calls == []
        assert np.count_nonzero(lams > 0) > 100 and np.count_nonzero(lams < 0) > 100

    @pytest.mark.parametrize("n, max_ulps", [(2, 2.0), (3, 6.0)])
    def test_closed_form_is_within_a_few_ulps_of_a_decimal_oracle(self, n, max_ulps):
        # The exact root of c + e2*x + e3*x^2 = 0 (the lambda equation
        # divided by its root 0, for n <= 3) in 60-digit decimal arithmetic
        # on the exact float densities.
        rng = np.random.default_rng(400 + n)
        near = rng.uniform(0.05, 1.0, (1600, n))
        near *= (1.0 + rng.uniform(-1e-3, 1e-3, (1600, 1))) / near.sum(axis=1, keepdims=True)
        near = near[((near > GENE_EPS) & (near < 1.0 - GENE_EPS)).all(axis=1)][:400]
        rows = np.vstack([rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (400, n)),
                          clamp_corner_rows(rng, n, 400), near])
        assert len(rows) == 1200
        with localcontext() as ctx:
            ctx.prec = 60
            worst = 0.0
            for d, lam in zip(rows.tolist(), solve_lambda_batch(rows).tolist()):
                m = [Decimal(v) for v in d] + [Decimal(0)]
                c = m[0] + m[1] + m[2] - 1
                e2 = m[0] * m[1] + (m[0] + m[1]) * m[2]
                e3 = m[0] * m[1] * m[2]
                if lam == 0.0:  # additive within ADDITIVE_TOL
                    assert abs(c) <= 2 * ADDITIVE_TOL
                    continue
                exact = -2 * c / (e2 + (e2 * e2 - 4 * e3 * c).sqrt())
                worst = max(worst, abs(Decimal(lam) - exact) / Decimal(math.ulp(float(exact))))
        assert worst <= max_ulps

    @staticmethod
    def roots_at_both_simd_levels(widths):
        """Per SIMD level (numpy's default, then AVX-512 dispatch disabled), the
        hex bytes of the roots of 2000 clamp-corner rows per width, one line each."""
        script = (
            "import sys, numpy as np\n"
            "from choqfuse.ga import GENE_EPS\n"
            "from choqfuse.measures import solve_lambda_batch\n"
            "rng = np.random.default_rng(7)\n"
            f"for n in {tuple(widths)!r}:\n"
            "    pick = rng.integers(0, 3, (2000, n))\n"
            "    rows = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (2000, n))\n"
            "    rows[pick == 0], rows[pick == 1] = GENE_EPS, 1.0 - GENE_EPS\n"
            "    sys.stdout.write(solve_lambda_batch(rows).tobytes().hex() + '\\n')\n"
        )
        src = str(Path(measures.__file__).resolve().parents[1])
        outputs = []
        for features in (None, "AVX512_SPR AVX512_ICL X86_V4"):
            env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            if features:
                env["NPY_DISABLE_CPU_FEATURES"] = features
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120, check=True)
            outputs.append(run.stdout)
        return outputs

    def test_lambda_does_not_depend_on_the_simd_level(self):
        # The closed form (n <= 3) and the Newton steps on the polynomial
        # (n > 3) use only +, -, *, /, sqrt, frexp and ldexp, which every
        # numpy build rounds correctly; a host without AVX-512 runs the same
        # code twice, which also passes.
        widths = (2, 3, 4, 6, 8)
        outputs = self.roots_at_both_simd_levels(widths)
        assert len(outputs[0].split()) == len(widths) and outputs[0] == outputs[1]

    @pytest.mark.parametrize("n, max_ulps", [(4, 6.0), (6, 13.0)])
    def test_newton_is_within_a_few_ulps_of_a_decimal_oracle_at_the_clamp_corners(self, n, max_ulps):
        # Clamp corners are ill-conditioned: the slope of g is about 3e-6 at
        # (1 - 1e-6, 1e-6, 1e-6, 1e-6), so an error of 3e-22 in g moves
        # lambda by an ulp there.
        rng = np.random.default_rng(500 + n)
        rows = clamp_corner_rows(rng, n, 150)
        rows[0] = [1.0 - GENE_EPS] + [GENE_EPS] * (n - 1)
        worst = 0.0
        for d, lam in zip(rows.tolist(), solve_lambda_batch(rows).tolist()):
            if lam != 0.0:
                worst = max(worst, ulps_off(lam, decimal_root(d)))
        assert worst <= max_ulps
        corner = [1.0 - GENE_EPS] + [GENE_EPS] * 3
        assert ulps_off(solve_lambda(corner), decimal_root(corner)) <= 0.5

    def test_wide_rows_keep_their_bits(self):
        # 7,800 rows, n = 4..16: uniform, clamp corners and log-uniform by
        # binade in [2^-100, 1) (ldexp draws, so the rows do not depend on
        # numpy's SIMD level).  The hash comes from the same Newton steps run
        # on (mantissa, exponent) pairs, which never overflow or underflow.
        rng = np.random.default_rng(67)
        digest = hashlib.sha256()
        for n in range(4, 17):
            rows = np.vstack([rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (200, n)),
                              clamp_corner_rows(rng, n, 200),
                              np.ldexp(rng.uniform(0.5, 1.0, (200, n)), rng.integers(-99, 1, (200, n)))])
            digest.update(solve_lambda_batch(rows).tobytes())
        assert digest.hexdigest() == "d7084efe89e86161690696e2652a519d5f23594e2874d1219004dc36215aa992"

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_mixed_magnitude_roots_are_within_two_and_a_half_ulps(self, n):
        # Log-uniform by binade in [2^-997, 0.49): roots up to past the
        # largest float, where g itself can overflow far above the root.
        # Over 6,000 such rows the worst was 1.98 ulp for n = 4, 2.14 for
        # n = 8 and 2.30 for n = 16.
        rng = np.random.default_rng(73 + n)
        rows = np.ldexp(rng.uniform(0.5, 0.98, (100, n)), rng.integers(-996, 0, (100, n)))
        solved = 0
        for d in rows.tolist():
            try:
                lam = solve_lambda(d)
            except ValueError as exc:
                assert "too small" in str(exc)
                continue
            assert ulps_off(lam, decimal_root(d)) <= 2.5, d
            solved += 1
        assert solved >= 90

    @staticmethod
    def closed_form_by_reductions(d):
        """The n <= 3 lambdas with the sums and products formed by axis-1
        reductions (sum, cumsum, prod), extreme roots refined by the Newton
        steps and additive rows set to 0."""
        n = d.shape[1]
        with np.errstate(all="ignore"):
            total = d.sum(axis=1)
            s, err = d[:, 0], 0.0  # sum(m_i) - 1, compensated
            for m in [*d.T[1:], -1.0]:
                t = s + m
                z = t - s
                err = err + ((s - (t - z)) + (m - z))
                s = t
            c = s + err
            pairs = d.cumsum(axis=1)[:, :-1] * d[:, 1:]
            e2 = pairs.sum(axis=1)
            e3 = (pairs.cumsum(axis=1)[:, :-1] * d[:, 2:]).sum(axis=1)
            if n == 2:
                quadratic = np.where(e2 < np.finfo(float).tiny, -c / d[:, 0] / d[:, 1], -c / e2)
            else:
                quadratic = -2.0 * c / (e2 + np.sqrt(np.maximum(e2 * e2 - 4.0 * e3 * c, 0.0)))
            x = np.maximum(quadratic, np.nextafter(-1.0, 0.0))
            f = (1.0 + x[:, None] * d).prod(axis=1) - x - 1.0
            additive = np.abs(total - 1.0) <= ADDITIVE_TOL
            retry = ~(np.abs(f) <= np.maximum(ROOT_RESIDUAL_TOL, 64.0 * 2.3e-16 * n * np.abs(x)))
            retry &= ~additive
            x[retry] = measures._newton(d[retry], c[retry], -c[retry] / e2[retry], quadratic[retry])
            x[additive] = 0.0
        return x, retry

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_equals_the_reduction_forms_bit_for_bit(self, n):
        # The closed form reads the density columns; its sums must be the
        # left-to-right ones numpy's axis-1 reductions give at these widths.
        rng = np.random.default_rng(600 + n)
        binades = np.ldexp(rng.uniform(0.5, 1.0, (4000, n)), rng.integers(-996, 0, (4000, n)))
        extreme = []
        for row in binades:  # down to 1e-300: keep the rows whose lambda is a float
            try:
                solve_lambda(row)
            except ValueError as exc:
                assert "too small" in str(exc)
            else:
                extreme.append(row)
        # Density sums a few ulps either side of 1 -+ ADDITIVE_TOL.
        head = rng.uniform(0.05, 0.9 / (n - 1), (2500, n - 1))
        edge = (1.0 + rng.choice([-ADDITIVE_TOL, ADDITIVE_TOL], 2500)
                + rng.integers(-8, 9, 2500) * 2.0 ** -52)
        near = np.column_stack([head, edge - head.sum(axis=1)])
        rows = np.vstack([rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (3000, n)),
                          clamp_corner_rows(rng, n, 3000), extreme, near])
        assert len(rows) >= 10_000
        batch = solve_lambda_batch(rows)
        expected, refined = self.closed_form_by_reductions(rows)
        assert batch.tobytes() == expected.tobytes()
        assert [solve_lambda(row) for row in rows] == batch.tolist()
        edge_roots = batch[-len(near):]
        assert 100 < np.count_nonzero(edge_roots == 0.0) < len(near) - 100
        # For n = 3, roots past about 1e150 go on to Newton; for n = 2 the
        # closed form meets the contract up to the largest float.
        assert np.count_nonzero(refined) >= (10 if n == 3 else 0)

    def test_additive_rows_are_exactly_zero(self):
        rows = [[0.5, 0.5], [0.25, 0.75], [0.3, 0.7]]
        assert solve_lambda_batch(rows).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_an_empty_batch_gives_no_roots(self, n):
        assert solve_lambda_batch(np.empty((0, n))).shape == (0,)
        assert lambda_tables(np.empty((0, n))).shape == (0, 1 << n)

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
        # A lambda that misses the densities' root is a solver failure.
        with pytest.raises(ConvergenceError):
            measures._tables(np.array([[0.35, 0.25, 0.3]]), np.array([lam]))

    def test_lambda_is_not_an_argument(self):
        with pytest.raises(TypeError):
            lambda_tables([[0.35, 0.25, 0.3]], [solve_lambda((0.35, 0.25, 0.3))])


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
            assert m.dense_table()[mask] == expected

    def test_out_of_range_subsets_rejected(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(IndexError):
            m.value_of([3])
        with pytest.raises(IndexError):
            m.value_of([-1])

    @pytest.mark.parametrize("subset", [1 << 3, True, [True], [0.7], [1.9]],
                             ids=["bitmask", "bool", "bool-index", "0.7", "1.9"])
    def test_a_subset_is_given_by_integer_indices_only(self, subset):
        with pytest.raises(TypeError):
            LambdaMeasure((0.2, 0.3, 0.4)).value_of(subset)

    def test_lambda_is_solved_never_passed(self):
        d = (0.35, 0.25, 0.3)
        for call in (lambda: LambdaMeasure(d, solve_lambda(d)),
                     lambda: LambdaMeasure(d, lam=solve_lambda(d))):
            with pytest.raises(TypeError):
                call()

    def test_replacing_the_densities_solves_lambda_again(self):
        m = LambdaMeasure((0.35, 0.25, 0.3))
        for d in [(0.2, 0.3, 0.1), (0.6, 0.5, 0.4), (0.5, 0.5), (0.1, 0.2, 0.3, 0.4)]:
            again = dataclasses.replace(m, densities=d)
            assert again == LambdaMeasure(d)
            assert np.array_equal(again.dense_table(), LambdaMeasure(d).dense_table())

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("density", [GENE_EPS, 1.0 - GENE_EPS])
    def test_clamp_corner_tables_equal_lambda_tables(self, n, density):
        # lambda ~ 1e9 at (1e-6,)*n and ~ -1 at (1 - 1e-6,)*n
        m = LambdaMeasure((density,) * n)
        assert np.array_equal(m.dense_table(), lambda_tables([(density,) * n])[0])

    def test_seventeen_criteria_are_refused(self):
        d = tuple(np.random.default_rng(41).uniform(0.01, 0.2, 17))
        with pytest.raises(ValueError, match="at most 16 criteria"):
            LambdaMeasure(d)
        with pytest.raises(ValueError, match="at most 16 criteria"):
            lambda_tables([d])

    def test_immutability(self):
        m = LambdaMeasure((0.3, 0.4, 0.2))
        with pytest.raises(Exception):
            m.lam = 0.5
        with pytest.raises(ValueError):
            m.dense_table()[3] = 0.9


def rejection(values) -> str:
    """The ValueError message of TableMeasure(values), the measure check."""
    with pytest.raises(ValueError) as exc:
        TableMeasure(values)
    return str(exc.value)


class TestMeasureCheck:
    def _reference_table(self):
        # m({}), m({0}), m({1}), m({0, 1}), m({2}), m({0, 2}), m({1, 2}), m({0, 1, 2})
        return [0.0, 0.35, 0.25, 0.631, 0.3, 0.687, 0.577, 1.0]

    def test_reference_values_are_a_valid_measure(self):
        assert TableMeasure(self._reference_table()).n == 3

    def test_monotone_two_criteria_table(self):
        values = [0.0, 0.6, 0.5, 1.0]
        assert TableMeasure(values).n == 2

    def test_monotonicity_violation_names_the_pair(self):
        # 0.7 on {0} exceeds 0.5 on {0,1}; the full set 0.5 also breaks the
        # boundary condition, so two findings come back
        values = [0.0, 0.7, 0.1, 0.5]
        found = rejection(values).removeprefix("invalid fuzzy measure: ").split("; ")
        assert len(found) == 2
        assert found[0].startswith("m(full set)")
        assert found[1].startswith("m({0}) = ") and " exceeds m({0, 1}) = " in found[1]
        assert "0.7" in found[1] and "0.5" in found[1]

    def test_single_monotonicity_violation_with_valid_boundaries(self):
        values = [0.0, 0.7, 0.1, 0.5, 0.2, 0.8, 0.8, 1.0]
        assert rejection(values) == "invalid fuzzy measure: m({0}) = 0.7 exceeds m({0, 1}) = 0.5"

    def test_boundary_violations(self):
        values = [0.1, 0.2, 0.3, 0.9]
        found = rejection(values).removeprefix("invalid fuzzy measure: ").split("; ")
        assert [f.split(" = ")[0] for f in found] == ["m(empty set)", "m(full set)"]

    @pytest.mark.parametrize("mask, name", [(0, "{}"), (2, "{1}"), (7, "{0, 1, 2}")],
                             ids=["empty", "singleton", "full"])
    def test_nan_is_refused_and_named(self, mask, name):
        values = self._reference_table()
        values[mask] = math.nan
        assert rejection(values) == f"invalid fuzzy measure: m({name}) is NaN"


def loop_violations(table):
    """The covering-pair loop the measure check ran before it was vectorized:
    (kind, message) per violated condition."""
    n = len(table).bit_length() - 1
    sets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(len(table))]
    found = []
    if abs(table[0]) > BOUNDARY_TOL:
        found.append(("empty", f"m(empty set) = {float(table[0])!r}, must be 0"))
    if abs(table[-1] - 1.0) > BOUNDARY_TOL:
        found.append(("full", f"m(full set) = {float(table[-1])!r}, must be 1"))
    for mask in range(1 << n):
        for j in range(n):
            if mask >> j & 1:
                continue
            wider = mask | (1 << j)
            if table[mask] > table[wider] + MONOTONE_TOL:
                found.append(("monotonicity",
                              f"m({set(sets[mask]) or '{}'}) = {float(table[mask])!r} exceeds "
                              f"m({set(sets[wider])}) = {float(table[wider])!r}"))
    return found


class TestMeasureCheckAgainstTheLoop:
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
            expected = loop_violations(table)
            if expected:
                assert rejection(list(table)) == (
                    "invalid fuzzy measure: " + "; ".join(m for _, m in expected))
            else:
                assert TableMeasure(list(table)).dense_table().tolist() == table.tolist()
            kinds.update(k for k, _ in expected)
        assert kinds == {"empty", "full", "monotonicity"}


class TestTableMeasure:
    def test_thirteen_criteria_are_accepted(self):
        # Additive uniform measure: m(A) = |A| / 13, a multiple of 1/13.
        values = [bin(mask).count("1") / 13 for mask in range(1 << 13)]
        t = TableMeasure(values)
        assert t.n == 13
        assert t.value_of(range(13)) == 1.0
        assert t.value_of([0, 12]) == 2 / 13

    def test_seventeen_criteria_are_refused(self):
        values = [bin(mask).count("1") / 17 for mask in range(1 << 17)]
        with pytest.raises(ValueError, match="16 criteria"):
            TableMeasure(values)

    @pytest.mark.parametrize("size", [1, 3, 6])
    def test_a_table_of_no_power_of_two_length_above_1_is_refused(self, size):
        values = np.linspace(0.0, 1.0, size)
        assert rejection(values) == (
            f"a measure table holds 2^n values for n >= 1 and at most 16 criteria, "
            f"got shape ({size},)")

    def test_a_table_of_two_dimensions_is_refused(self):
        with pytest.raises(ValueError, match="at most 16 criteria"):
            TableMeasure([[0.0, 0.5], [0.5, 1.0]])

    def test_valid_table_round_trips(self):
        values = [0.0, 0.6, 0.5, 1.0]
        t = TableMeasure(values)
        assert t.n == 2
        assert t.value_of([0]) == 0.6
        assert t.value_of([0, 1]) == 1.0

    def test_rejection_lists_every_violation(self):
        values = [0.1, 0.7, 0.1, 0.5]
        assert rejection(values) == (
            "invalid fuzzy measure: m(empty set) = 0.1, must be 0; "
            "m(full set) = 0.5, must be 1; "
            "m({0}) = 0.7 exceeds m({0, 1}) = 0.5")

    def test_table_is_not_an_argument(self):
        with pytest.raises(TypeError):
            TableMeasure([0.0, 0.6, 0.5, 1.0], np.zeros(4))

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            TableMeasure([0.0, 0.7, 0.1, 0.5, 0.2, 0.8, 0.8, 1.0])

    def test_an_empty_table_is_refused(self):
        assert rejection([]) == ("a measure table holds 2^n values for n >= 1 and at most "
                                 "16 criteria, got shape (0,)")

    def test_equal_tables_make_equal_hashable_measures(self):
        table = [0.0, 0.35, 0.25, 0.631, 0.3, 0.687, 0.577, 1.0]
        same = [TableMeasure(table), TableMeasure(tuple(table)), TableMeasure(np.array(table))]
        other = TableMeasure([0.0, 0.35, 0.25, 0.631, 0.3, 0.687, 0.6, 1.0])
        assert all(m == same[0] and hash(m) == hash(same[0]) for m in same)
        assert same[0].values == tuple(table)
        assert other != same[0]
        assert len({*same, other}) == 2
        assert hash(FusionRule("choquet", same[2])) == hash(FusionRule("choquet", same[0]))

    def test_the_table_is_the_callers_copy_and_read_only(self):
        table = np.array([0.0, 0.6, 0.5, 1.0])
        t = TableMeasure(table)
        table[1] = 0.9
        assert t.dense_table().tolist() == [0.0, 0.6, 0.5, 1.0]
        assert table.flags.writeable
        with pytest.raises(ValueError):
            t.dense_table()[1] = 0.9
