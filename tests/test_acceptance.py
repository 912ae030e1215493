"""Acceptance gate: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; derived expectations are
recomputed by independent straight-line oracles inside the tests before
the library path is trusted.
"""

import importlib
import math
import time

import numpy as np
import pytest

import choqfuse
from choqfuse.aggregate import FusionRule, choquet_fuse, choquet_fuse_batch, rule_fuse_batch
from choqfuse.cli import main as cli_main
from choqfuse.data import synthetic_dataset
from choqfuse.ga import GaConfig, _mutation_offsets, _select_parents, evolve
from choqfuse.measures import LambdaMeasure, TableMeasure, solve_lambda
from choqfuse.metrics import evaluate_scores


def report(label, ok, detail):
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- oracles

def oracle_lambda_3(d):
    """Closed-form root for three densities (quadratic after removing 0)."""
    e1, e2, e3 = sum(d), d[0] * d[1] + d[0] * d[2] + d[1] * d[2], d[0] * d[1] * d[2]
    disc = e2 * e2 - 4.0 * e3 * (e1 - 1.0)
    roots = [(-e2 + math.sqrt(disc)) / (2 * e3), (-e2 - math.sqrt(disc)) / (2 * e3)]
    ok = [r for r in roots if r > -1.0 and abs(r) > 1e-9]
    assert len(ok) == 1
    return ok[0]


def oracle_subsets_3(d, lam):
    """Explicit 3-criteria subset table via the pairwise combination rule."""
    comb = lambda a, b: a + b + lam * a * b
    return {
        frozenset(): 0.0,
        frozenset([0]): d[0], frozenset([1]): d[1], frozenset([2]): d[2],
        frozenset([0, 1]): comb(d[0], d[1]),
        frozenset([0, 2]): comb(d[0], d[2]),
        frozenset([1, 2]): comb(d[1], d[2]),
        frozenset([0, 1, 2]): comb(comb(d[0], d[1]), d[2]),
    }


def oracle_choquet(scores, table):
    """Sorted telescoping sum against an explicit subset table."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (scores[i], i))
    remaining, prev, total = set(range(n)), 0.0, 0.0
    for i in order:
        total += (scores[i] - prev) * table[frozenset(remaining)]
        prev = scores[i]
        remaining.discard(i)
    return total


def oracle_error_counts(fused_clients, fused_impostors, t):
    fa = sum(1 for s in fused_impostors if s >= t)
    fr = sum(1 for s in fused_clients if s < t)
    return fa, fr


# -------------------------------------------------------------- criteria

def test_criterion_1_lambda_worked_example():
    lam = solve_lambda([0.35, 0.25, 0.3])
    report("criterion 1", abs(lam - 0.361) <= 5e-4,
           f"solve_lambda = {lam:.6f} vs published 0.361 (tol 5e-4)")


def test_criterion_2_subset_measure_table():
    """All six non-trivial reference-table entries against the published
    3-decimal figures and against the closed-form oracle.

    The source truncated its 3-decimal figures rather than rounding them.
    Every published figure of the worked example is the truncation of the
    exact value: lambda 0.361040 -> 0.361, m12 0.631591 -> 0.631, m13
    0.687909 -> 0.687, m23 0.577078 -> 0.577 and Choquet(0.7, 0.8, 0.9)
    0.787708 -> 0.787.  Rounding would print 0.632, 0.688 and 0.788 for
    three of them, and pair values that round to the printed ones would
    need lambda in [0.353, 0.357], against both the published 0.361 and
    the root of lambda + 1 = prod(1 + lambda * m_i).  The truncation is
    inferred from this consistency, not quoted from the source's table.

    Two checks, both required:

    1. published: -1e-12 <= computed - published < 1e-3 for each entry,
       i.e. the published figure is the 3-decimal truncation of the
       computed value (1e-12 is float slack on the singletons);
    2. exact: each entry, and the full set at 1.0, within 1e-12 of
       ``oracle_subsets_3(d, oracle_lambda_3(d))``.
    """
    d = (0.35, 0.25, 0.3)
    m = LambdaMeasure(d)
    exact = oracle_subsets_3(d, oracle_lambda_3(d))
    entries = [
        ("m1", [0], 0.35),
        ("m2", [1], 0.25),
        ("m3", [2], 0.3),
        ("m12", [0, 1], 0.631),
        ("m13", [0, 2], 0.687),
        ("m23", [1, 2], 0.577),
        ("m123", [0, 1, 2], 1.0),
    ]
    failures = []
    for name, subset, want in entries:
        got = m.value_of(subset)
        truncates = -1e-12 <= got - want < 1e-3
        oracle_err = abs(got - exact[frozenset(subset)])
        ok = truncates and oracle_err <= 1e-12
        print(f"  {name}: computed {got:.6f} vs published {want} "
              f"(truncates: {truncates}; oracle diff {oracle_err:.1e})")
        if not ok:
            failures.append(name)
    report("criterion 2", not failures,
           "every entry truncates to its published figure and matches the oracle to 1e-12"
           if not failures
           else f"entries failing: {', '.join(failures)} (published figure must be the "
                f"3-decimal truncation of the computed value, computed value within "
                f"1e-12 of the closed-form oracle)")


def test_criterion_3_choquet_worked_example():
    m = LambdaMeasure((0.35, 0.25, 0.3))
    fused = choquet_fuse((0.7, 0.8, 0.9), m)
    report("criterion 3", abs(fused - 0.787) <= 1e-3,
           f"choquet = {fused:.6f} vs published 0.787 (tol 1e-3)")


def test_criterion_4_pairwise_consistency_of_optimal_measure():
    d = (0.411, 0.547, 0.362)
    lam = solve_lambda(d)
    published = {(0, 1): 0.820, (0, 2): 0.682, (1, 2): 0.788}
    worst = 0.0
    for (i, j), want in published.items():
        got = d[i] + d[j] + lam * d[i] * d[j]
        worst = max(worst, abs(got - want))
    report("criterion 4", worst <= 5e-3,
           f"pairwise measures within {worst:.2e} of published values (tol 5e-3)")


def test_criterion_5_rule_table_at_half_threshold():
    data = synthetic_dataset()
    C, I = data.client_scores, data.impostor_scores
    expected_counts = {
        "m1": 8, "m2": 12, "m3": 23,
        "and": 17, "or": 18, "prod": 24, "majority_vote": 8,
        # published 10.33 for the mean is not reproducible: no error count
        # out of 60 yields it; the brute-force count is 5/60 = 8.33%
        "mean": 5,
    }
    got = {}
    for j, name in enumerate(("m1", "m2", "m3")):
        got[name] = evaluate_scores(C[:, j], I[:, j]).error_rate_at(0.5)
    for tag in ("and", "or", "prod", "majority_vote", "mean"):
        fc = rule_fuse_batch(C, FusionRule(tag))
        fi = rule_fuse_batch(I, FusionRule(tag))
        got[tag] = evaluate_scores(fc, fi).error_rate_at(0.5)
    failures = []
    for name, count in expected_counts.items():
        exact = round(got[name] * 60) == count and abs(got[name] - count / 60) < 1e-12
        print(f"  {name}: {100 * got[name]:.2f}% ({round(got[name] * 60)}/60, "
              f"expect {count}/60)")
        if not exact:
            failures.append(name)
    report("criterion 5", not failures,
           "all rule error rates exact to the count" if not failures
           else f"mismatched: {failures}")


def test_criterion_6_optimal_densities_reach_five_percent():
    d = (0.411, 0.547, 0.362)
    data = synthetic_dataset()

    # Independent straight-line oracle first: closed-form lambda, explicit
    # dict table, sorted telescope, brute-force sweep.
    lam = oracle_lambda_3(d)
    table = oracle_subsets_3(d, lam)
    fc = [oracle_choquet(row, table) for row in data.client_scores]
    fi = [oracle_choquet(row, table) for row in data.impostor_scores]
    candidates = sorted(set(fc) | set(fi))
    oracle_min = min(sum(oracle_error_counts(fc, fi, t)) for t in candidates)
    assert oracle_min == 3, f"oracle sweep found {oracle_min}/60, not 3/60"

    # Main code path must agree with the oracle person by person.
    measure = LambdaMeasure(d)
    lib_fc = choquet_fuse_batch(data.client_scores, measure)
    lib_fi = choquet_fuse_batch(data.impostor_scores, measure)
    np.testing.assert_allclose(lib_fc, fc, atol=1e-12)
    np.testing.assert_allclose(lib_fi, fi, atol=1e-12)
    rate, threshold = evaluate_scores(lib_fc, lib_fi).min_error_rate()
    ok = round(rate * 60) == 3 and abs(rate - 0.05) <= 1e-12
    report("criterion 6", ok,
           f"minimum sweep error {100 * rate:.2f}% (3/60) at t = {threshold:.4f}, "
           f"confirmed by independent oracle")


def test_criterion_7_ga_reaches_five_percent_across_seeds():
    data = synthetic_dataset()
    reached, times = 0, []
    for seed in range(10):
        start = time.perf_counter()
        best, _ = evolve(data, GaConfig(rng_seed=seed))
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        measure = LambdaMeasure(best.genes)
        rate, _ = evaluate_scores(
            choquet_fuse_batch(data.client_scores, measure),
            choquet_fuse_batch(data.impostor_scores, measure),
        ).min_error_rate()
        ok = rate <= 0.05 + 1e-12
        reached += ok
        print(f"  seed {seed}: error rate {100 * rate:.2f}% in {elapsed:.1f}s "
              f"({'ok' if ok else 'miss'})")
    ok = reached >= 9 and max(times) <= 30.0
    report("criterion 7", ok,
           f"{reached}/10 seeds reach <= 5% (need 9); slowest run "
           f"{max(times):.1f}s (limit 30s)")


def test_criterion_8a_choquet_bounds_monotonicity_idempotence():
    rng = np.random.default_rng(2027)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = LambdaMeasure(tuple(rng.uniform(1e-6, 1 - 1e-6, n)))
        a = rng.uniform(0, 1, n)
        fused = choquet_fuse(a, m)
        assert a.min() - 1e-12 <= fused <= a.max() + 1e-12
        b = np.minimum(a + rng.uniform(0, 0.2, n), 1.0)
        assert choquet_fuse(b, m) >= fused - 1e-12
        c = float(rng.uniform(0, 1))
        assert choquet_fuse([c] * n, m) == c
    report("criterion 8a", True,
           "bounds, monotonicity, idempotence over 1000 random (a, m) pairs")


def test_criterion_8b_degenerate_measures():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for n in (2, 3, 4):
        full = (1 << n) - 1
        hi = TableMeasure([1.0 if m else 0.0 for m in range(1 << n)])
        lo = TableMeasure([1.0 if m == full else 0.0 for m in range(1 << n)])
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        additive = LambdaMeasure(tuple(w)) if abs(w.sum() - 1) <= 1e-12 else None
        for _ in range(200):
            a = rng.uniform(0, 1, n)
            worst = max(worst, abs(choquet_fuse(a, hi) - a.max()))
            worst = max(worst, abs(choquet_fuse(a, lo) - a.min()))
            if additive is not None and additive.lam == 0.0:
                worst = max(worst, abs(choquet_fuse(a, additive) - float(a @ w)))
    report("criterion 8b", worst <= 1e-12,
           f"max/min/weighted-sum degeneracies deviate by at most {worst:.2e}")


def test_criterion_8c_lambda_measure_monotone_exhaustive():
    rng = np.random.default_rng(2029)
    checked = 0
    for n in range(2, 9):
        for _ in range(10):
            m = LambdaMeasure(tuple(rng.uniform(1e-6, 1 - 1e-6, n)))
            table = m.dense_table()
            for mask in range(1 << n):
                for j in range(n):
                    if not mask >> j & 1:
                        assert table[mask] <= table[mask | (1 << j)] + 1e-12
                        checked += 1
    report("criterion 8c", True,
           f"monotone over exhaustive power sets for n = 2..8 ({checked} cover pairs)")


def test_criterion_8d_mutation_magnitude_law():
    rng = np.random.default_rng(2030)
    cfg = GaConfig(max_generations=4, mutation_bound=1.0)
    worst = 0.0
    for generation, x in ((1, 0.25), (2, 0.5), (4, 1.0)):
        offsets = _mutation_offsets(100_000, generation, cfg, rng)
        expected = cfg.mutation_bound / (1.0 + x)
        worst = max(worst, abs(np.abs(offsets).mean() - expected) / expected)
    report("criterion 8d", worst <= 0.05,
           f"E|delta| matches y/(1 + itt/g_m) within {100 * worst:.2f}% (limit 5%)")


def test_criterion_8e_uniform_selection_frequencies():
    rng = np.random.default_rng(2031)
    draws = 10_000  # 5000 pairs
    first, second = _select_parents(10, draws // 2, rng)
    freq = np.bincount(np.concatenate([first, second]), minlength=10) / draws
    ok = bool(np.all(freq >= 0.8 / 10) and np.all(freq <= 1.2 / 10))
    report("criterion 8e", ok,
           f"selection frequencies in [{freq.min():.4f}, {freq.max():.4f}] "
           f"(band [0.08, 0.12])")


def test_criterion_8f_optimize_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main([
            "optimize", "--synthetic", "--seed", "33", "--generations", "20",
            "--population", "10", "--out", str(out),
        ])
        assert code == 0
    identical = (
        (out_a / "measure.json").read_bytes() == (out_b / "measure.json").read_bytes()
        and (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
    )
    report("criterion 8f", identical,
           "optimize outputs byte-identical across reruns with one seed")


def test_public_api_names_are_pinned():
    assert sorted(choqfuse.__all__) == [
        "ConvergenceError", "DataFormatError", "EvalReport", "FusionRule", "GaConfig",
        "GenerationRecord", "LabeledScoreSet", "LambdaMeasure", "Population",
        "RULE_TAGS", "SortedScores", "TableMeasure", "choquet_fuse", "choquet_fuse_batch",
        "evaluate_scores", "evolve", "lambda_tables", "load_csv", "normalize_minmax",
        "population_fitness", "rule_fuse_batch", "solve_lambda", "solve_lambda_batch",
        "sweep_errors", "synthetic_csv_path", "synthetic_dataset", "write_csv",
        "write_roc_csv",
    ]
    for name in ("", ".aggregate", ".cli", ".data", ".ga", ".measures", ".metrics"):
        module = importlib.import_module("choqfuse" + name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
