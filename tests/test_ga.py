"""Genetic-algorithm operators and the evolution loop."""

import hashlib

import numpy as np
import pytest

from choqfuse.aggregate import choquet_fuse_batch
from choqfuse.data import LabeledScoreSet, synthetic_dataset
from choqfuse.ga import (
    GENE_EPS,
    Chromosome,
    GaConfig,
    Population,
    evolve,
    init_population,
    linear_crossover,
    mutation_offsets,
    population_fitness,
    select_parents,
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
        pop = init_population(GaConfig(population_size=10, rng_seed=1), n_genes=3)
        assert len(pop.members) == 10
        for c in pop.members:
            assert len(c.genes) == 3
            assert all(GENE_EPS <= g <= 1 - GENE_EPS for g in c.genes)

    def test_seeds_come_first(self):
        seed = (1 / 3, 1 / 3, 1 / 3)
        pop = init_population(GaConfig(population_size=10, rng_seed=1), 3, seeds=[seed])
        assert pop.members[0].genes == seed

    def test_deterministic_for_fixed_seed(self):
        cfg = GaConfig(population_size=8, rng_seed=42)
        a = init_population(cfg, 3)
        b = init_population(cfg, 3)
        assert [c.genes for c in a.members] == [c.genes for c in b.members]

    def test_too_many_seeds_rejected(self):
        cfg = GaConfig(population_size=2, rng_seed=0)
        with pytest.raises(ValueError):
            init_population(cfg, 2, seeds=[(0.5, 0.5)] * 3)


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

    def test_fitness_is_the_one_row_case(self):
        data = synthetic_dataset()
        genes = np.random.default_rng(229).uniform(GENE_EPS, 1.0 - GENE_EPS, (20, 3))
        eers, _ = population_fitness(genes, data)
        assert [eer_of(g, data) for g in genes] == eers.tolist()


class TestSelectParents:
    def test_two_member_population_always_returns_both(self):
        members = [Chromosome((0.2, 0.3)), Chromosome((0.6, 0.7))]
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = select_parents(members, rng)
            assert {id(a), id(b)} == {id(m) for m in members}

    def test_selection_is_uniform(self):
        members = [Chromosome((0.1 + 0.05 * i, 0.5)) for i in range(10)]
        pop = Population(members=members)
        rng = np.random.default_rng(2024)
        counts = np.zeros(10)
        pairs = 5000  # 10,000 individual selections
        for _ in range(pairs):
            a, b = select_parents(pop, rng)
            counts[members.index(a)] += 1
            counts[members.index(b)] += 1
        freq = counts / (2 * pairs)
        assert np.all(freq >= 0.08) and np.all(freq <= 0.12)

    def test_parents_distinct_within_pair(self):
        members = [Chromosome((0.2 + 0.1 * i, 0.5)) for i in range(5)]
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = select_parents(members, rng)
            assert a is not b

    def test_ordered_pairs_are_uniform(self):
        members = [Chromosome((0.2 + 0.1 * i, 0.5)) for i in range(4)]
        rng = np.random.default_rng(2029)
        counts = {}
        draws = 12_000  # 1000 per ordered pair
        for _ in range(draws):
            a, b = select_parents(members, rng)
            key = (members.index(a), members.index(b))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 12
        assert all(800 <= c <= 1200 for c in counts.values())

    def test_reproducible_pair_sequence(self):
        members = [Chromosome((0.2 + 0.1 * i, 0.5)) for i in range(5)]
        seq1 = [select_parents(members, np.random.default_rng(5))[0] for _ in range(1)]
        seq2 = [select_parents(members, np.random.default_rng(5))[0] for _ in range(1)]
        assert [c.genes for c in seq1] == [c.genes for c in seq2]


class TestLinearCrossover:
    def test_componentwise_formulas(self):
        h1, h2, h3 = linear_crossover((0.4, 0.4, 0.4), (0.6, 0.6, 0.6))
        assert h1 == pytest.approx((0.5, 0.5, 0.5))
        assert h2 == pytest.approx((0.3, 0.3, 0.3))
        # 0.5*0.4 + 1.5*0.6 = 1.1 clamps to the box ceiling
        assert h3 == pytest.approx((1 - GENE_EPS,) * 3)

    def test_equal_parents(self):
        # h1 and h2 reproduce the parent; h3 = 0.5*c + 1.5*c doubles it
        # (the recombination coefficients of h3 sum to 2, not 1)
        c = (0.42, 0.17, 0.89)
        h1, h2, h3 = linear_crossover(c, c)
        assert h1 == pytest.approx(c)
        assert h2 == pytest.approx(c)
        assert h3 == pytest.approx((0.84, 0.34, 1 - GENE_EPS))

    def test_lower_clamp(self):
        h1, h2, h3 = linear_crossover((0.2,), (0.8,))
        assert h1 == pytest.approx((0.5,))
        assert h2.tolist() == [GENE_EPS]  # 1.5*0.2 - 0.5*0.8 = -0.1
        assert h3 == pytest.approx((1 - GENE_EPS,))  # 0.1 + 1.2 = 1.3

    def test_pairs_of_parent_arrays(self):
        a = np.array([[0.4, 0.4, 0.4], [0.42, 0.17, 0.89]])
        b = np.array([[0.6, 0.6, 0.6], [0.42, 0.17, 0.89]])
        children = linear_crossover(a, b)
        assert children.shape == (2, 3, 3)
        for k in range(2):
            assert np.array_equal(children[k], linear_crossover(a[k], b[k]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_crossover((0.5, 0.5), (0.5,))


class TestNonuniformMutation:
    @staticmethod
    def mutate(genes, generation, cfg, rng):
        offsets = mutation_offsets(len(genes), generation, cfg, rng)
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
        offsets = mutation_offsets(100_000, generation, cfg, rng)
        expected = bound / denominator
        assert abs(np.abs(offsets).mean() - expected) <= 0.05 * expected

    def test_signs_are_fair(self):
        cfg = GaConfig(max_generations=10)
        rng = np.random.default_rng(101)
        offsets = mutation_offsets(100_000, 5, cfg, rng)
        positive = (offsets > 0).mean()
        assert abs(positive - 0.5) <= 0.01

    def test_generation_out_of_range_rejected(self):
        cfg = GaConfig(max_generations=10)
        with pytest.raises(ValueError):
            mutation_offsets(3, 11, cfg, np.random.default_rng(0))

    def test_shape_draws_all_steps_then_all_signs(self):
        cfg = GaConfig(max_generations=10, mutation_bound=0.5)
        offsets = mutation_offsets((4, 3), 5, cfg, np.random.default_rng(103))
        rng = np.random.default_rng(103)
        s = rng.random((4, 3))
        signs = rng.integers(0, 2, size=(4, 3)) * 2 - 1
        assert offsets.shape == (4, 3)
        assert np.array_equal(offsets, signs * 0.5 * (1.0 - s) ** 0.5)


def reference_populations(data, cfg):
    """The documented generation as plain loops over Python tuples.

    Each generation's stream is spawned from the seed with key
    (generation, 0) and drawn as: all first-parent indices, all second-parent
    indices, the mutation draws s, the mutation signs.  Survivors: the first
    best parent, then the best of the other parents and the offspring, parents
    first on ties.  Returns every population as (genes, EER) pairs, ranked.
    """
    def rank(genes):
        eers, min_errors = population_fitness([genes], data)
        return float(eers[0]), float(min_errors[0])

    def clamp(g):
        return min(max(g, GENE_EPS), 1.0 - GENE_EPS)

    size, n = cfg.population_size, data.n_modalities
    pool = sorted(((rank(c.genes), c.genes)
                   for c in init_population(cfg, n).members), key=lambda m: m[0])
    populations = [pool]
    events = -(-size // 3)
    for generation in range(1, cfg.max_generations + 1):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.rng_seed, spawn_key=(generation, 0))))
        first = rng.integers(0, size, size=events).tolist()
        second = rng.integers(0, size - 1, size=events).tolist()
        # numpy's vectorized pow may differ from the scalar one in the last place.
        steps = ((1.0 - rng.random((size, n))) ** (generation / cfg.max_generations)).tolist()
        bits = rng.integers(0, 2, size=(size, n)).tolist()
        children = []
        for i, j in zip(first, second):
            a, b = pool[i][1], pool[j + (j >= i)][1]
            children += [[clamp(0.5 * (x + y)) for x, y in zip(a, b)],
                         [clamp(1.5 * x - 0.5 * y) for x, y in zip(a, b)],
                         [clamp(0.5 * x + 1.5 * y) for x, y in zip(a, b)]]
        offspring = []
        for child, child_steps, signs in zip(children[:size], steps, bits):
            genes = tuple(clamp(g + (2 * sign - 1) * cfg.mutation_bound * step)
                          for g, step, sign in zip(child, child_steps, signs))
            offspring.append((rank(genes), genes))
        rest = sorted(pool[1:] + offspring, key=lambda m: m[0])
        pool = sorted([pool[0]] + rest[: size - 1], key=lambda m: m[0])
        populations.append(pool)
    return [[(genes, r[0]) for r, genes in p] for p in populations]


class TestEvolve:
    @pytest.mark.parametrize("size,seed", [(8, 17), (30, 0), (7, 3)])
    def test_populations_equal_the_loop_reference(self, size, seed):
        data = synthetic_dataset()
        cfg = GaConfig(population_size=size, max_generations=15, eer_stop_threshold=0.0,
                       rng_seed=seed)
        seen = []

        def record(population, best):
            assert best is population.members[0]
            seen.append([(c.genes, c.fitness) for c in population.members])

        best, history = evolve(data, cfg, on_generation=record)
        expected = reference_populations(data, cfg)
        assert seen == expected
        assert [(r.best_genes, r.best_eer) for r in history] == [p[0] for p in expected]
        assert (best.genes, best.fitness) == expected[-1][0]

    def test_one_generator_per_generation_and_no_chromosome_per_offspring(self, monkeypatch):
        import choqfuse.ga as ga

        counts = {"rng": 0, "chromosome": 0}
        rng, chromosome_init = ga._rng, ga.Chromosome.__post_init__

        def counting_rng(*args):
            counts["rng"] += 1
            return rng(*args)

        def counting_init(self):
            counts["chromosome"] += 1
            chromosome_init(self)

        monkeypatch.setattr(ga, "_rng", counting_rng)
        monkeypatch.setattr(ga.Chromosome, "__post_init__", counting_init)
        cfg = GaConfig(population_size=30, max_generations=12, eer_stop_threshold=0.0)
        _, history = evolve(synthetic_dataset(), cfg)
        assert len(history) == 13
        assert counts["rng"] == 13  # init_population's stream, then one per generation
        assert counts["chromosome"] == 30 + 13  # init_population, then one best per record

    def test_seed_width_must_match_the_data(self):
        data, cfg = synthetic_dataset(), GaConfig(population_size=4, max_generations=2)
        with pytest.raises(ValueError, match="a seed has 4 genes, the population 3"):
            evolve(data, cfg, seeds=[(0.5,) * 4] * 4)
        with pytest.raises(ValueError, match="a seed has 2 genes, the population 3"):
            evolve(data, cfg, seeds=[(0.5,) * 3, (0.5,) * 2])

    def test_separable_toy_set_stops_immediately(self):
        best, history = evolve(toy_separable(), GaConfig(population_size=6, rng_seed=3))
        assert best.fitness == 0.0
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
        assert best.fitness > 0.0

    def test_best_trace_is_monotone_and_genes_stay_in_bounds(self):
        data = synthetic_dataset()
        cfg = GaConfig(population_size=8, max_generations=40, rng_seed=11)
        seen = []
        best, history = evolve(data, cfg, on_generation=lambda pop, b: seen.append(pop))
        eers = [r.best_eer for r in history]
        assert all(a >= b - 1e-15 for a, b in zip(eers, eers[1:]))
        assert len(seen) == len(history)
        for pop in seen:
            assert len(pop.members) == 8
            for c in pop.members:
                assert all(GENE_EPS <= g <= 1 - GENE_EPS for g in c.genes)

    def test_best_fitness_matches_recomputation(self):
        data = synthetic_dataset()
        best, _ = evolve(data, GaConfig(population_size=8, max_generations=20, rng_seed=13))
        assert eer_of(best.genes, data) == best.fitness

    def test_first_fifty_generations_of_seed_zero_are_pinned(self):
        # Best EER and genes, and a digest of every population's genes and
        # fitness, over generations 0..50 of the default configuration.
        class Stop(Exception):
            pass

        changes, digest = [], hashlib.sha256()

        def record(population, best):
            if not changes or changes[-1][1:] != (best.fitness, best.genes):
                changes.append((population.generation, best.fitness, best.genes))
            for c in population.members:
                digest.update(repr((c.genes, c.fitness)).encode())
            if population.generation == 50:
                raise Stop

        with pytest.raises(Stop):
            evolve(synthetic_dataset(), GaConfig(rng_seed=0), on_generation=record)
        assert changes == [
            (0, 0.1, (0.5232042497357765, 0.21073541982518593, 0.3799502984857669)),
            (2, 0.06666666666666667,
             (0.5001915402511592, 0.5009124225883117, 0.3569701487658584)),
        ]
        assert digest.hexdigest() == (
            "a237fbe90551bfff4bbdd71894bb45cc7632a3fa43609406359fd95a9031cbe1")

    def test_seeded_run_keeps_seed_if_unbeaten(self):
        data = toy_separable()
        seed = (0.25, 0.5, 0.25)
        best, _ = evolve(data, GaConfig(population_size=5, rng_seed=0), seeds=[seed])
        assert best.fitness == 0.0  # the seed already separates the toy set


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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)

    def test_chromosome_gene_box_enforced(self):
        with pytest.raises(ValueError):
            Chromosome((0.5, 1.5))
        with pytest.raises(ValueError):
            Chromosome((0.0, 0.5))

    def test_population_needs_two_members(self):
        with pytest.raises(ValueError):
            Population(members=[Chromosome((0.5, 0.5))])
