"""Genetic-algorithm operators and the evolution loop."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choqfuse
from choqfuse import ga, metrics
from choqfuse.cli import main as cli_main
from choqfuse.aggregate import choquet_fuse_batch
from choqfuse.data import LabeledScoreSet, synthetic_dataset
from choqfuse.ga import (
    GENE_EPS,
    GaConfig,
    _init_population,
    _linear_crossover,
    _mutation_offsets,
    _select_parents,
    evolve,
    population_fitness,
)
from choqfuse.measures import LambdaMeasure
from choqfuse.metrics import evaluate_scores


class StubRng:
    """Fixed draw sequences standing in for a Generator."""

    def __init__(self, s_values, sign_bits):
        self._s = np.asarray(s_values, dtype=float)
        self._bits = np.asarray(sign_bits)

    def random(self, n):
        return self._s[:n]

    def integers(self, low, high, size):
        return self._bits[:size]


def test_operators_are_private():
    assert sorted(ga.__all__) == ["GaConfig", "GenerationRecord", "Population", "evolve",
                                  "population_fitness"]
    for name in ("init_population", "select_parents", "linear_crossover", "mutation_offsets"):
        with pytest.raises(ImportError):
            exec(f"from choqfuse import {name}", {})
        assert not hasattr(ga, name)


def toy_separable():
    return LabeledScoreSet(
        ("c1", "c2", "c3"),
        [[0.9, 0.85, 0.95], [0.8, 0.9, 0.85], [0.95, 0.9, 0.9]],
        ("i1", "i2", "i3"),
        [[0.1, 0.15, 0.05], [0.2, 0.1, 0.15], [0.05, 0.1, 0.1]],
    )


def toy_inseparable():
    rows = [[0.2, 0.5, 0.8], [0.6, 0.3, 0.4]]
    return LabeledScoreSet(("c1", "c2"), rows, ("i1", "i2"), rows)


class TestInitPopulation:
    def test_random_members_are_valid(self):
        genes = _init_population(GaConfig(population_size=10, rng_seed=1), n_genes=3)
        assert genes.shape == (10, 3)
        assert np.all((genes >= GENE_EPS) & (genes <= 1 - GENE_EPS))

    def test_seeds_come_first(self):
        seed = (1 / 3, 1 / 3, 1 / 3)
        genes = _init_population(GaConfig(population_size=10, rng_seed=1), 3, seeds=[seed])
        assert tuple(genes[0].tolist()) == seed

    def test_deterministic_for_fixed_seed(self):
        cfg = GaConfig(population_size=8, rng_seed=42)
        a = _init_population(cfg, 3)
        b = _init_population(cfg, 3)
        assert a.tolist() == b.tolist()

    @staticmethod
    def member_loop(cfg, n_genes, seeds):
        """The initial population drawn one member at a time, seeds clamped first."""
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.rng_seed, spawn_key=(0, 0))))
        members = [tuple(min(max(float(g), GENE_EPS), 1.0 - GENE_EPS) for g in s)
                   for s in seeds]
        while len(members) < cfg.population_size:
            members.append(tuple(rng.uniform(GENE_EPS, 1.0 - GENE_EPS, size=n_genes).tolist()))
        return members

    @pytest.mark.parametrize("rng_seed", range(10))
    @pytest.mark.parametrize("seeds", [[], [(0.5, 0.0, 1.0)],
                                       [(0.2, 0.3, 0.4)] * 2 + [(1e-9,) * 3]])
    def test_one_draw_equals_the_member_loop(self, rng_seed, seeds):
        cfg = GaConfig(population_size=7, rng_seed=rng_seed)
        genes = _init_population(cfg, 3, seeds=seeds)
        assert [tuple(row) for row in genes.tolist()] == self.member_loop(cfg, 3, seeds)

    def test_too_many_seeds_rejected(self):
        cfg = GaConfig(population_size=2, rng_seed=0)
        with pytest.raises(ValueError):
            _init_population(cfg, 2, seeds=[(0.5, 0.5)] * 3)

    def test_nan_seed_rejected(self):
        with pytest.raises(ValueError, match="genes outside"):
            _init_population(GaConfig(population_size=4), 2, seeds=[(float("nan"), 0.5)])


def eer_of(genes, data):
    """EER of one genome: the one-row case of ``population_fitness``."""
    return float(population_fitness([genes], data)[0][0])


class TestFitness:
    def test_reference_optimum_densities(self):
        data = synthetic_dataset()
        value = eer_of((0.411, 0.547, 0.362), data)
        # the FAR/FRR curves cross exactly at 2/30 for these densities
        assert value == pytest.approx(2 / 30, abs=1e-12)

    def test_identical_genes_identical_fitness(self):
        data = synthetic_dataset()
        assert eer_of((0.3, 0.4, 0.2), data) == eer_of((0.3, 0.4, 0.2), data)

    def test_recomputation_is_identical(self):
        data = synthetic_dataset()
        genes = (0.25, 0.5, 0.3)
        first = eer_of(genes, data)
        assert eer_of(genes, data) == first
        assert population_fitness([genes, genes], data)[0].tolist() == [first, first]

    def test_separable_toy_set_reaches_zero(self):
        assert eer_of((0.4, 0.3, 0.3), toy_separable()) == 0.0

    @pytest.mark.parametrize("width", [2, 4])
    def test_genome_width_must_match_the_data(self, width):
        with pytest.raises(ValueError, match=f"{width} genes, the data 3 modalities"):
            population_fitness([(0.5,) * width] * 2, synthetic_dataset())


class TestPopulationFitness:
    @staticmethod
    def reference(genes, data):
        measure = LambdaMeasure(tuple(genes))
        report = evaluate_scores(choquet_fuse_batch(data.client_scores, measure),
                                 choquet_fuse_batch(data.impostor_scores, measure))
        return report.eer, report.min_error_rate()[0]

    def assert_matches_reference(self, genes, data):
        eers, min_errors = population_fitness(genes, data)
        for row, value, min_error in zip(genes, eers.tolist(), min_errors.tolist()):
            assert (value, min_error) == self.reference(row, data), row

    def test_random_genomes_match_the_single_measure_path(self):
        rng = np.random.default_rng(211)
        genes = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (1200, 3))
        self.assert_matches_reference(genes, synthetic_dataset())

    def test_clamp_corner_genomes_match_the_single_measure_path(self):
        rng = np.random.default_rng(223)
        levels = [GENE_EPS, 1.0 - GENE_EPS, 1.0 / 3.0, 0.5]
        corners = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1).T
        pick = rng.integers(0, 3, (300, 3))
        mixed = np.where(pick == 0, GENE_EPS, np.where(
            pick == 1, 1.0 - GENE_EPS, rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (300, 3))))
        self.assert_matches_reference(np.vstack([corners, mixed]), synthetic_dataset())

    def test_separable_toy_set(self):
        rng = np.random.default_rng(227)
        genes = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (50, 3))
        self.assert_matches_reference(genes, toy_separable())
        assert population_fitness(genes, toy_separable())[0].tolist() == [0.0] * 50

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_signed_zeros_and_ties_across_the_classes(self, n):
        # 3-decimal scores tie within and across the classes, and a fifth of
        # the cells are -0.0 and a fifth 0.0: the sweep's keys must rank
        # each fused score as evaluate_scores does.
        rng = np.random.default_rng(241 + n)
        cells = rng.integers(0, 1001, (70, n)) / 1000
        pick = rng.uniform(size=cells.shape)
        cells[pick < 0.2], cells[(pick >= 0.2) & (pick < 0.4)] = -0.0, 0.0
        cells[0] = -0.0
        cells[40] = 0.0
        ids = [f"P{i}" for i in range(len(cells))]
        data = LabeledScoreSet(tuple(ids[:40]), cells[:40], tuple(ids[40:]), cells[40:])
        genes = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (25, n))
        eers, min_errors = population_fitness(genes, data)
        for row, value, min_error in zip(genes, eers.tolist(), min_errors.tolist()):
            assert (value, min_error) == self.reference(row, data), row

    def test_fitness_is_the_one_row_case(self):
        data = synthetic_dataset()
        genes = np.random.default_rng(229).uniform(GENE_EPS, 1.0 - GENE_EPS, (20, 3))
        eers, _ = population_fitness(genes, data)
        assert [eer_of(g, data) for g in genes] == eers.tolist()


class TestWorkspace:
    def test_successive_batches_return_independent_arrays(self):
        data = synthetic_dataset()
        rng = np.random.default_rng(233)
        first_genes, second_genes = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (2, 30, 3))
        kernel = ga._fitness_kernel(data)
        for score in (lambda genes: population_fitness(genes, data), kernel):
            first = score(first_genes)
            kept = [a.copy() for a in first]
            second = score(second_genes)
            assert all(np.array_equal(a, b) for a, b in zip(first, kept))
            assert [a.tolist() for a in second] != [a.tolist() for a in first]
            arrays = list(first) + list(second)
            assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                           for b in arrays[i + 1:])

    def test_kernel_equals_the_public_fitness_across_batch_sizes(self):
        data = synthetic_dataset()
        kernel = ga._fitness_kernel(data)
        rng = np.random.default_rng(239)
        for size in (30, 30, 7, 1, 30):
            genes = rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (size, 3))
            assert ([a.tolist() for a in kernel(genes)]
                    == [a.tolist() for a in population_fitness(genes, data)])

    def test_one_sweep_per_batch_size_serves_every_call(self, monkeypatch):
        data = synthetic_dataset()
        rng = np.random.default_rng(251)
        batches = [rng.uniform(GENE_EPS, 1.0 - GENE_EPS, (size, 3)) for size in (30, 7, 30)]
        expected = [population_fitness(genes, data) for genes in batches]
        sweeps = []

        class Recorded(metrics._Sweep):
            def __init__(self, *args):
                super().__init__(*args)
                sweeps.append(self)

        monkeypatch.setattr(ga, "_Sweep", Recorded)
        kernel = ga._fitness_kernel(data)
        results = []
        for genes, want in zip(batches, expected):
            got = kernel(genes)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert all(np.isposinf(sweep.scores[:, -1]).all() for sweep in sweeps)
            results.extend(got)
        assert [len(sweep.scores) for sweep in sweeps] == [30, 7]
        buffers = [a for sweep in sweeps for a in vars(sweep).values()
                   if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(a, b) for a in results for b in buffers)

    def test_population_snapshots_outlive_later_generations(self):
        snapshots = []

        def keep(population, best):
            snapshots.append((population, population.genes.copy(), population.eers.copy()))

        evolve(synthetic_dataset(),
               GaConfig(population_size=9, max_generations=30, eer_stop_threshold=0.0,
                        rng_seed=5), on_generation=keep)
        assert len(snapshots) == 31
        for population, genes, eers in snapshots:
            assert np.array_equal(population.genes, genes)
            assert np.array_equal(population.eers, eers)
        arrays = [a for population, _, _ in snapshots for a in (population.genes, population.eers)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])


class TestSurvivors:
    @staticmethod
    def two_sort_rule(eers, min_errors):
        """The elite (row 0), then the best P - 1 of the rest, re-ranked."""
        size = len(eers) // 2
        rest = 1 + np.lexsort((min_errors[1:], eers[1:]))[: size - 1]
        pick = np.concatenate([[0], rest])
        return pick[np.lexsort((min_errors[pick], eers[pick]))]

    def test_one_sort_equals_the_two_sort_rule(self):
        # Keys from a few levels, so most pools are full of ties; every third
        # pool has all offspring strictly better than the elite.
        rng = np.random.default_rng(241)
        beaten = 0
        for trial in range(3000):
            size = int(rng.integers(2, 12))
            eers = rng.integers(0, 4, 2 * size) / 15
            min_errors = rng.integers(0, 3, 2 * size) / 60
            ranked = np.lexsort((min_errors[:size], eers[:size]))
            eers[:size], min_errors[:size] = eers[ranked], min_errors[ranked]
            if trial % 3 == 0:
                better = rng.random(size) < 0.5
                eers[size:] = np.where(better, eers[0], eers[0] - 1 / 15)
                min_errors[size:] = np.where(better, min_errors[0] - 1 / 60, min_errors[size:])
            keep = ga._survivors(eers, min_errors)
            assert keep.tolist() == self.two_sort_rule(eers, min_errors).tolist(), trial
            beaten += 0 not in keep[:-1]
        assert beaten >= 1000


class TestSelectParents:
    def test_two_member_population_always_returns_both(self):
        first, second = _select_parents(2, 50, np.random.default_rng(0))
        assert all({i, j} == {0, 1} for i, j in zip(first.tolist(), second.tolist()))

    def test_selection_is_uniform(self):
        pairs = 5000  # 10,000 individual selections
        first, second = _select_parents(10, pairs, np.random.default_rng(2024))
        freq = np.bincount(np.concatenate([first, second]), minlength=10) / (2 * pairs)
        assert np.all(freq >= 0.08) and np.all(freq <= 0.12)

    def test_parents_distinct_within_pair(self):
        first, second = _select_parents(5, 200, np.random.default_rng(9))
        assert np.all(first != second)

    def test_ordered_pairs_are_uniform(self):
        draws = 12_000  # 1000 per ordered pair
        first, second = _select_parents(4, draws, np.random.default_rng(2029))
        counts = np.bincount(4 * first + second, minlength=16).reshape(4, 4)
        assert np.all(np.diag(counts) == 0)
        off_diagonal = counts[~np.eye(4, dtype=bool)]
        assert off_diagonal.size == 12
        assert np.all((off_diagonal >= 800) & (off_diagonal <= 1200))

    def test_shape_draws_all_first_then_all_second_parents(self):
        first, second = _select_parents(6, (4, 5), np.random.default_rng(11))
        rng = np.random.default_rng(11)
        expected_first = rng.integers(0, 6, size=(4, 5))
        expected_second = rng.integers(0, 5, size=(4, 5))
        assert first.shape == second.shape == (4, 5)
        assert np.array_equal(first, expected_first)
        assert np.array_equal(second, expected_second + (expected_second >= expected_first))

    def test_reproducible_pair_sequence(self):
        seq1 = _select_parents(5, 10, np.random.default_rng(5))
        seq2 = _select_parents(5, 10, np.random.default_rng(5))
        assert [a.tolist() for a in seq1] == [a.tolist() for a in seq2]


class TestLinearCrossover:
    def test_componentwise_formulas(self):
        h1, h2, h3 = _linear_crossover(np.array([0.4, 0.4, 0.4]), np.array([0.6, 0.6, 0.6]))
        assert h1 == pytest.approx((0.5, 0.5, 0.5))
        assert h2 == pytest.approx((0.3, 0.3, 0.3))
        # 0.5*0.4 + 1.5*0.6 = 1.1 clamps to the box ceiling
        assert h3 == pytest.approx((1 - GENE_EPS,) * 3)

    def test_equal_parents(self):
        # h1 and h2 reproduce the parent; h3 = 0.5*c + 1.5*c doubles it
        # (the recombination coefficients of h3 sum to 2, not 1)
        c = (0.42, 0.17, 0.89)
        h1, h2, h3 = _linear_crossover(np.array(c), np.array(c))
        assert h1 == pytest.approx(c)
        assert h2 == pytest.approx(c)
        assert h3 == pytest.approx((0.84, 0.34, 1 - GENE_EPS))

    def test_lower_clamp(self):
        h1, h2, h3 = _linear_crossover(np.array([0.2]), np.array([0.8]))
        assert h1 == pytest.approx((0.5,))
        assert h2.tolist() == [GENE_EPS]  # 1.5*0.2 - 0.5*0.8 = -0.1
        assert h3 == pytest.approx((1 - GENE_EPS,))  # 0.1 + 1.2 = 1.3

    def test_pairs_of_parent_arrays(self):
        a = np.array([[0.4, 0.4, 0.4], [0.42, 0.17, 0.89]])
        b = np.array([[0.6, 0.6, 0.6], [0.42, 0.17, 0.89]])
        children = _linear_crossover(a, b)
        assert children.shape == (2, 3, 3)
        for k in range(2):
            assert np.array_equal(children[k], _linear_crossover(a[k], b[k]))


class TestNonuniformMutation:
    @staticmethod
    def mutate(genes, generation, cfg, rng):
        offsets = _mutation_offsets(len(genes), generation, cfg, rng)
        return np.clip(np.asarray(genes) + offsets, GENE_EPS, 1 - GENE_EPS).tolist()

    def test_unit_draw_leaves_genes_unchanged(self):
        cfg = GaConfig(max_generations=100)
        rng = StubRng([1.0, 1.0, 1.0], [1, 0, 1])
        assert self.mutate((0.3, 0.5, 0.7), 1, cfg, rng) == [0.3, 0.5, 0.7]

    def test_maximal_step_at_generation_zero_clamps(self):
        # (1 - 0)^0 = 1, so the first-generation step is the full bound
        cfg = GaConfig(max_generations=100, mutation_bound=1.0)
        up = self.mutate((0.5,), 0, cfg, StubRng([0.0], [1]))
        down = self.mutate((0.5,), 0, cfg, StubRng([0.0], [0]))
        assert up == [1 - GENE_EPS]
        assert down == [GENE_EPS]

    @pytest.mark.parametrize("bound", [1.0, 0.5])
    @pytest.mark.parametrize("generation,denominator", [(1, 1.25), (2, 1.5), (4, 2.0)])
    def test_expected_magnitude_law(self, bound, generation, denominator):
        # E|delta| = y * integral (1-s)^x ds = y / (1 + x), x = itt / g_m
        cfg = GaConfig(max_generations=4, mutation_bound=bound)
        rng = np.random.default_rng(97)
        offsets = _mutation_offsets(100_000, generation, cfg, rng)
        expected = bound / denominator
        assert abs(np.abs(offsets).mean() - expected) <= 0.05 * expected

    def test_signs_are_fair(self):
        cfg = GaConfig(max_generations=10)
        rng = np.random.default_rng(101)
        offsets = _mutation_offsets(100_000, 5, cfg, rng)
        positive = (offsets > 0).mean()
        assert abs(positive - 0.5) <= 0.01

    @pytest.mark.parametrize("generation", [5, [[3], [10]], [[0, 1, 2]]])
    def test_shape_draws_all_steps_then_all_signs(self, generation):
        # A generation array gives each row (or column) its own exponent.
        cfg = GaConfig(max_generations=10, mutation_bound=0.5)
        offsets = _mutation_offsets((2, 3), generation, cfg, np.random.default_rng(103))
        rng = np.random.default_rng(103)
        s = rng.random((2, 3)).tolist()
        signs = (rng.integers(0, 2, size=(2, 3)) * 2 - 1).tolist()
        exponents = np.broadcast_to(np.asarray(generation) / 10, (2, 3)).tolist()
        assert offsets.shape == (2, 3)
        assert offsets.tolist() == [
            [sign * 0.5 * math.pow(1.0 - v, x) for v, sign, x in zip(*row)]
            for row in zip(s, signs, exponents)]


def reference_populations(data, cfg):
    """The documented generation as plain loops over Python tuples.

    Generation 0 is ``_init_population`` (key (0, 0)).  Generation g reads
    row (g - 1) mod 64 of a block of 64 generations, all drawn from one
    generator with key (1, 0) as: all first-parent indices, all second-parent indices,
    the mutation draws s, the mutation signs; the mutation power is scalar
    ``math.pow``.  Survivors: the first best parent, then the best of the
    other parents and the offspring, parents first on ties.  Returns every
    population as (genes, EER) pairs, ranked.
    """
    def rank(genes):
        eers, min_errors = population_fitness([genes], data)
        return float(eers[0]), float(min_errors[0])

    def clamp(g):
        return min(max(g, GENE_EPS), 1.0 - GENE_EPS)

    size, n = cfg.population_size, data.n_modalities
    pool = sorted(((rank(genes), tuple(genes))
                   for genes in _init_population(cfg, n).tolist()), key=lambda m: m[0])
    populations = [pool]
    events = -(-size // 3)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(cfg.rng_seed, spawn_key=(1, 0))))
    for generation in range(1, cfg.max_generations + 1):
        row = (generation - 1) % 64
        if row == 0:
            firsts = rng.integers(0, size, size=(64, events)).tolist()
            seconds = rng.integers(0, size - 1, size=(64, events)).tolist()
            draws = rng.random((64, size, n)).tolist()
            bits = rng.integers(0, 2, size=(64, size, n)).tolist()
        children = []
        for i, j in zip(firsts[row], seconds[row]):
            a, b = pool[i][1], pool[j + (j >= i)][1]
            children += [[clamp(0.5 * (x + y)) for x, y in zip(a, b)],
                         [clamp(1.5 * x - 0.5 * y) for x, y in zip(a, b)],
                         [clamp(0.5 * x + 1.5 * y) for x, y in zip(a, b)]]
        offspring = []
        for child, child_draws, signs in zip(children[:size], draws[row], bits[row]):
            genes = tuple(
                clamp(g + (2 * sign - 1) * cfg.mutation_bound
                      * math.pow(1.0 - s, generation / cfg.max_generations))
                for g, s, sign in zip(child, child_draws, signs))
            offspring.append((rank(genes), genes))
        rest = sorted(pool[1:] + offspring, key=lambda m: m[0])
        pool = sorted([pool[0]] + rest[: size - 1], key=lambda m: m[0])
        populations.append(pool)
    return [[(genes, r[0]) for r, genes in p] for p in populations]


class TestEvolve:
    @pytest.mark.parametrize("size,seed,generations", [(8, 17, 15), (30, 0, 15), (7, 3, 15),
                                                      (5, 2, 70)])
    def test_populations_equal_the_loop_reference(self, size, seed, generations):
        # 70 generations reach into a second block of draws, of which 6 rows are used.
        data = synthetic_dataset()
        cfg = GaConfig(population_size=size, max_generations=generations,
                       eer_stop_threshold=0.0, rng_seed=seed)
        seen = []

        def record(population, best):
            assert (best.genes, best.eer) == (tuple(population.genes[0].tolist()),
                                              population.eers[0])
            seen.append(list(zip(map(tuple, population.genes.tolist()),
                                 population.eers.tolist())))

        best, history = evolve(data, cfg, on_generation=record)
        expected = reference_populations(data, cfg)
        assert seen == expected
        assert [(r.genes, r.eer) for r in history] == [p[0] for p in expected]
        assert (best.genes, best.eer) == expected[-1][0]

    @pytest.mark.parametrize("generations", [12, 130])
    def test_one_generator_and_one_record_per_generation(self, monkeypatch, generations):
        import choqfuse.ga as ga

        counts = {"rng": 0, "record": 0}
        rng, record_init = ga._rng, ga.GenerationRecord.__init__

        def counting_rng(*args):
            counts["rng"] += 1
            return rng(*args)

        def counting_init(self, *args):
            counts["record"] += 1
            record_init(self, *args)

        monkeypatch.setattr(ga, "_rng", counting_rng)
        monkeypatch.setattr(ga.GenerationRecord, "__init__", counting_init)
        cfg = GaConfig(population_size=30, max_generations=generations,
                       eer_stop_threshold=0.0)
        handed = []
        best, history = evolve(synthetic_dataset(), cfg,
                               on_generation=lambda pop, best: handed.append(best))
        assert len(history) == generations + 1
        assert counts["rng"] == 2  # _init_population's stream, then one for all generations
        # one record per generation, none per offspring
        assert counts["record"] == generations + 1
        assert best is history[-1]
        assert all(b is r for b, r in zip(handed, history, strict=True))

    def test_seed_width_must_match_the_data(self):
        data, cfg = synthetic_dataset(), GaConfig(population_size=4, max_generations=2)
        with pytest.raises(ValueError, match="a seed has 4 genes, the population 3"):
            evolve(data, cfg, seeds=[(0.5,) * 4] * 4)
        with pytest.raises(ValueError, match="a seed has 2 genes, the population 3"):
            evolve(data, cfg, seeds=[(0.5,) * 3, (0.5,) * 2])

    def test_one_modality_data_rejected(self):
        data = LabeledScoreSet(("c1", "c2"), [[0.9], [0.8]], ("i1",), [[0.1]])
        with pytest.raises(ValueError) as excinfo:
            evolve(data, GaConfig(population_size=4))
        assert str(excinfo.value) == "the GA needs at least 2 modalities, the data has 1"

    def test_separable_toy_set_stops_immediately(self):
        best, history = evolve(toy_separable(), GaConfig(population_size=6, rng_seed=3))
        assert best.eer == 0.0
        assert len(history) == 1 and history[0].generation == 0

    def test_same_seed_gives_identical_runs(self):
        data = synthetic_dataset()
        cfg = GaConfig(population_size=10, max_generations=25, rng_seed=7)
        best1, hist1 = evolve(data, cfg)
        best2, hist2 = evolve(data, cfg)
        assert best1.genes == best2.genes
        assert hist1 == hist2

    def test_zero_stop_threshold_runs_all_generations(self):
        cfg = GaConfig(
            population_size=4, max_generations=5, eer_stop_threshold=0.0, rng_seed=1
        )
        best, history = evolve(toy_inseparable(), cfg)
        assert [r.generation for r in history] == list(range(6))
        assert best.eer > 0.0

    def test_best_trace_is_monotone_and_genes_stay_in_bounds(self):
        data = synthetic_dataset()
        cfg = GaConfig(population_size=8, max_generations=40, rng_seed=11)
        seen = []
        best, history = evolve(data, cfg, on_generation=lambda pop, b: seen.append(pop))
        eers = [r.eer for r in history]
        assert all(a >= b - 1e-15 for a, b in zip(eers, eers[1:]))
        assert len(seen) == len(history)
        assert seen[0] == seen[0] and seen[0] != seen[1]  # identity, not elementwise
        for pop in seen:
            assert pop.genes.shape == (8, 3) and pop.eers.shape == (8,)
            assert not pop.genes.flags.writeable and not pop.eers.flags.writeable
            assert np.all((pop.genes >= GENE_EPS) & (pop.genes <= 1 - GENE_EPS))

    def test_best_fitness_matches_recomputation(self):
        data = synthetic_dataset()
        best, _ = evolve(data, GaConfig(population_size=8, max_generations=20, rng_seed=13))
        assert eer_of(best.genes, data) == best.eer

    def test_first_fifty_generations_of_seed_zero_are_pinned(self):
        changes, digest = first_fifty_generations()
        assert changes == PINNED_CHANGES
        assert digest == PINNED_DIGEST

    def test_seeded_run_keeps_seed_if_unbeaten(self):
        data = toy_separable()
        seed = (0.25, 0.5, 0.25)
        best, _ = evolve(data, GaConfig(population_size=5, rng_seed=0), seeds=[seed])
        assert best.eer == 0.0  # the seed already separates the toy set


def first_fifty_generations():
    """Best EER and genes at each change, and a digest of every population's
    genes and fitness, over generations 0..50 of the default configuration."""
    class Stop(Exception):
        pass

    changes, digest = [], hashlib.sha256()

    def record(population, best):
        if not changes or changes[-1][1:] != (best.eer, best.genes):
            changes.append((population.generation, best.eer, best.genes))
        for genes, eer in zip(population.genes.tolist(), population.eers.tolist()):
            digest.update(repr((tuple(genes), eer)).encode())
        if population.generation == 50:
            raise Stop

    with pytest.raises(Stop):
        evolve(synthetic_dataset(), GaConfig(rng_seed=0), on_generation=record)
    return changes, digest.hexdigest()


PINNED_CHANGES = [
    (0, 0.1, (0.5232042497357765, 0.21073541982518593, 0.3799502984857669)),
    (3, 0.06666666666666667, (0.5003837380854589, 0.5007943005268003, 0.2526311898423408)),
]
PINNED_DIGEST = "cbe429f4e26350bfbfff5bc4fa96431d7e36794ae3d21b605a6ce0fbd35e1ad2"


def write_pinned_outputs(out):
    """Every pinned GA output into ``out``: the 50-generation record of seed 0,
    and ``optimize --synthetic`` for seeds 0-2 and for the short run (seed 5,
    12 generations, population 8)."""
    out.mkdir(parents=True)
    (out / "fifty.txt").write_text(repr(first_fifty_generations()))
    runs = {f"seed{seed}": ["--seed", str(seed)] for seed in range(3)}
    runs["short"] = ["--seed", "5", "--generations", "12", "--population", "8"]
    for name, args in runs.items():
        assert cli_main(["optimize", "--synthetic", *args, "--out", str(out / name)]) == 0


def test_pinned_outputs_do_not_depend_on_the_simd_level(tmp_path):
    # Mutation powers are scalar math.pow and lambda (n = 3) is in closed
    # form, so a run's bytes do not depend on numpy's SIMD dispatch.  numpy
    # accepts unknown feature names silently: a host without AVX-512 runs the
    # same code twice, which also passes.
    write_pinned_outputs(tmp_path / "here")
    script = ("import sys\nfrom pathlib import Path\nfrom test_ga import write_pinned_outputs\n"
              "write_pinned_outputs(Path(sys.argv[1]))\n")
    paths = [str(Path(choqfuse.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "other")], env=env,
                   capture_output=True, timeout=300, check=True)
    files = sorted(f.relative_to(tmp_path / "here")
                   for f in (tmp_path / "here").rglob("*") if f.is_file())
    assert len(files) == 9
    for name in files:
        assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert (tmp_path / "here" / "fifty.txt").read_text() == repr((PINNED_CHANGES, PINNED_DIGEST))


def test_ga_ranks_no_worse_than_a_density_grid_optimum():
    """Landscape oracle: the best of 33^3 interior densities k/34 bounds the GA."""
    data = synthetic_dataset()
    levels = np.arange(1, 34) / 34
    grid = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1).reshape(-1, 3)
    eers, min_errors = population_fitness(grid, data)
    best = np.lexsort((min_errors, eers))[0]
    grid_best = (float(eers[best]), float(min_errors[best]))
    assert grid_best == (1 / 15, 0.05)  # near (0.32, 0.29, 0.21)
    for seed in range(3):
        genes = evolve(data, GaConfig(rng_seed=seed))[0].genes
        found = population_fitness([genes], data)
        assert (float(found[0][0]), float(found[1][0])) <= grid_best, seed


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"max_generations": 0},
            {"eer_stop_threshold": 1.5},
            {"mutation_bound": 0.0},
            {"mutation_bound": float("nan")},
            {"mutation_bound": float("inf")},
            {"rng_seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 30.0},
            {"population_size": True},
            {"max_generations": 2.5},
            {"max_generations": True},
            {"max_generations": 2 ** 63 - 64},
            {"max_generations": 10 ** 20},
            {"rng_seed": 1.5},
            {"rng_seed": False},
            {"eer_stop_threshold": True},
            {"eer_stop_threshold": "0.04"},
            {"eer_stop_threshold": None},
            {"mutation_bound": True},
            {"mutation_bound": np.True_},
            {"mutation_bound": "0.5"},
            {"mutation_bound": None},
        ],
    )
    def test_values_evolve_cannot_run_are_refused(self, kwargs):
        # A float or bool where evolve needs an int, a bool or a value that
        # is not a number where it needs a real one, or so many generations
        # that a block of generation numbers leaves int64.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GaConfig(**kwargs)

    def test_the_largest_generation_count_runs(self):
        cfg = GaConfig(population_size=np.int64(4), max_generations=2 ** 63 - 65,
                       eer_stop_threshold=0.0, rng_seed=np.int32(3))
        seen = []

        class Stop(Exception):
            pass

        def stop_after_two(population, best):
            seen.append(best.generation)
            if best.generation == 2:
                raise Stop

        with pytest.raises(Stop):
            evolve(toy_inseparable(), cfg, on_generation=stop_after_two)
        assert seen == [0, 1, 2]
