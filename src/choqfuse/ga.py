"""Learning measure densities with a real-coded genetic algorithm.

Chromosomes are candidate singleton-density vectors, clamped into
[1e-6, 1 - 1e-6] so every candidate yields a well-formed lambda-measure.
Fitness is the equal error rate of Choquet-fused scores on a labeled
client/impostor set, to be minimized.  One generation:

1. uniform parent selection (probability 1/N each, no replacement within
   a pair);
2. linear crossover producing three offspring per pair:
   0.5*(C1 + C2), 1.5*C1 - 0.5*C2, 0.5*C1 + 1.5*C2;
3. non-uniform mutation: each gene moves by +-y * (1 - s)^(g / g_max)
   with s ~ U[0, 1], so the expected step anneals as generations advance;
4. survivor selection pools parents with offspring and keeps the best N
   (the best parent always retained), which makes the best-fitness trace
   monotone.

Random streams are partitioned per generation and per offspring from the
master seed, so results are reproducible and independent of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .aggregate import SortedScores
from .measures import lambda_tables
from .metrics import LabeledScoreSet, sweep_errors

__all__ = [
    "Chromosome",
    "GENE_EPS",
    "GaConfig",
    "GenerationRecord",
    "Population",
    "evolve",
    "fitness",
    "init_population",
    "linear_crossover",
    "mutation_offsets",
    "population_fitness",
    "select_parents",
]

# Genes are clamped into [GENE_EPS, 1 - GENE_EPS]: exact 0/1 densities are
# rejected by the measure layer (vacuous resp. degenerate criteria).
GENE_EPS = 1e-6


def _clamp(genes: np.ndarray) -> np.ndarray:
    return np.clip(genes, GENE_EPS, 1.0 - GENE_EPS)


@dataclass
class Chromosome:
    """A candidate density vector with its cached fitness (EER), if known."""

    genes: tuple[float, ...]
    fitness: float | None = None

    def __post_init__(self):
        self.genes = tuple(float(g) for g in self.genes)
        if any(not GENE_EPS <= g <= 1.0 - GENE_EPS for g in self.genes):
            raise ValueError(f"genes outside [{GENE_EPS}, {1.0 - GENE_EPS}]: {self.genes}")


@dataclass
class Population:
    """Fixed-size list of chromosomes plus the generation counter."""

    members: list[Chromosome]
    generation: int = 0

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("population needs at least 2 members")


@dataclass(frozen=True)
class GaConfig:
    """Run parameters for the measure optimizer.

    Each generation breeds ``population_size`` offspring; crossover events
    each yield three, so ceil(offspring / 3) events run and the surplus is
    truncated.  ``mutation_bound`` is the upper bound y of the per-gene
    perturbation; the default is the gene-domain half-width, which leaves
    the annealed steps small enough for late-run refinement (at the full
    domain width the expected step never drops below half the domain and
    the search degenerates to corner sampling).
    """

    population_size: int = 30
    max_generations: int = 1000
    eer_stop_threshold: float = 0.04
    mutation_bound: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if not 0.0 <= self.eer_stop_threshold <= 1.0:
            raise ValueError("eer_stop_threshold must lie in [0, 1]")
        if self.mutation_bound <= 0.0:
            raise ValueError("mutation_bound must be positive")

    @property
    def offspring_count(self) -> int:
        return self.population_size


@dataclass(frozen=True)
class GenerationRecord:
    """Best-so-far fitness after one generation, for convergence traces."""

    generation: int
    best_eer: float
    best_genes: tuple[float, ...]


def _rng(seed: int, *key: int) -> np.random.Generator:
    # What default_rng builds from a SeedSequence, minus its argument checks.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def init_population(
    cfg: GaConfig,
    n_genes: int,
    seeds: Sequence[Iterable[float]] | None = None,
) -> Population:
    """Seeded members first (expert picks), the rest uniform random."""
    if n_genes < 2:
        raise ValueError("need at least 2 genes per chromosome")
    seeded = [Chromosome(tuple(_clamp(np.asarray(s, dtype=float)))) for s in (seeds or [])]
    if len(seeded) > cfg.population_size:
        raise ValueError(
            f"{len(seeded)} seeds exceed the population size {cfg.population_size}"
        )
    rng = _rng(cfg.rng_seed, 0, 0)
    members = seeded + [
        Chromosome(tuple(rng.uniform(GENE_EPS, 1.0 - GENE_EPS, size=n_genes)))
        for _ in range(cfg.population_size - len(seeded))
    ]
    return Population(members=members, generation=0)


def _fitness_kernel(
    data: LabeledScoreSet,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Scorer of (P, n) gene arrays on ``data``; the score sort is done once here."""
    clients = SortedScores(data.client_scores)
    impostors = SortedScores(data.impostor_scores)

    def score(genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tables = lambda_tables(genes)
        return sweep_errors(clients.fuse(tables), impostors.fuse(tables))

    return score


def population_fitness(genes, data: LabeledScoreSet) -> tuple[np.ndarray, np.ndarray]:
    """(EER, minimum sweep error) of Choquet fusion under each row of ``genes``.

    One lambda solve, one table build, one fuse and one threshold sweep for
    the whole (P, n) array; row p equals ``evaluate_scores`` of the scores
    fused under ``LambdaMeasure(genes[p])`` exactly.  The EER is the
    fitness proper.  The minimum total error over the threshold sweep only
    orders chromosomes whose EERs tie: the EER estimator is quantized at
    half error counts, so whole plateaus of measures share one fitness
    value while differing in the error rate they can actually operate at.
    """
    return _fitness_kernel(data)(np.asarray(genes, dtype=float))


def fitness(chromosome: Chromosome, data: LabeledScoreSet) -> float:
    """EER of Choquet fusion under the chromosome's densities (cached)."""
    if chromosome.fitness is None:
        chromosome.fitness = float(population_fitness([chromosome.genes], data)[0][0])
    return chromosome.fitness


def select_parents(
    population: Population | Sequence[Chromosome],
    rng: np.random.Generator,
) -> tuple[Chromosome, Chromosome]:
    """Two members drawn uniformly (1/N each), distinct within the pair."""
    members = population.members if isinstance(population, Population) else population
    i, j = rng.choice(len(members), size=2, replace=False)
    return members[int(i)], members[int(j)]


def linear_crossover(a, b) -> np.ndarray:
    """The three linear offspring of parent genes ``a``, ``b``, clamped into the box.

    0.5*(a + b), 1.5*a - 0.5*b and 0.5*a + 1.5*b, componentwise; parents of
    shape (..., n) give offspring of shape (..., 3, n).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"gene length mismatch: {a.shape} vs {b.shape}")
    return _clamp(np.stack([0.5 * (a + b), 1.5 * a - 0.5 * b, 0.5 * a + 1.5 * b], axis=-2))


def mutation_offsets(
    n_genes: int,
    generation: int,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Signed pre-clamp perturbations: +-y * (1 - s)^(generation / g_max).

    Per gene, independently: s ~ U[0, 1] and a fair-coin sign.  The expected
    magnitude is y / (1 + generation / g_max), shrinking as the run ages.
    """
    if not 0 <= generation <= cfg.max_generations:
        raise ValueError("generation must lie in [0, max_generations]")
    s = rng.random(n_genes)
    signs = rng.integers(0, 2, size=n_genes) * 2 - 1
    exponent = generation / cfg.max_generations
    return signs * cfg.mutation_bound * (1.0 - s) ** exponent


# A scored member: (EER, minimum sweep error) for ranking, and the chromosome.
_Ranked = tuple[tuple[float, float], Chromosome]


def _rank(member: _Ranked) -> tuple[float, float]:
    return member[0]


def _next_population(current: list[_Ranked], offspring: list[_Ranked], size: int) -> list[_Ranked]:
    """The first best of ``current`` (the elite), then the best of the rest, ranked."""
    elite = min(current, key=_rank)
    rest = sorted((m for m in current + offspring if m is not elite), key=_rank)
    return sorted([elite] + rest[: size - 1], key=_rank)


def evolve(
    data: LabeledScoreSet,
    cfg: GaConfig | None = None,
    seeds: Sequence[Iterable[float]] | None = None,
    on_generation: Callable[[Population, Chromosome], None] | None = None,
) -> tuple[Chromosome, list[GenerationRecord]]:
    """Run the generational loop; returns the best chromosome and its trace.

    Stops as soon as the best EER reaches ``cfg.eer_stop_threshold`` or
    after ``cfg.max_generations`` generations.  Fully deterministic for a
    fixed ``cfg.rng_seed``.  Each generation's offspring are built as one
    array and scored as one batch.
    """
    cfg = cfg or GaConfig()
    score = _fitness_kernel(data)
    n_genes = data.n_modalities

    def evaluate(genes: np.ndarray) -> list[_Ranked]:
        eers, min_errors = (v.tolist() for v in score(genes))
        return [((e, m), Chromosome(tuple(g), e))
                for g, e, m in zip(genes.tolist(), eers, min_errors)]

    initial = init_population(cfg, n_genes=n_genes, seeds=seeds).members
    live = evaluate(np.array([c.genes for c in initial]))
    population = Population(members=[c for _, c in live])
    best = min(live, key=_rank)[1]
    history = [GenerationRecord(0, best.fitness, best.genes)]
    if on_generation is not None:
        on_generation(population, best)

    events = math.ceil(cfg.offspring_count / 3)
    for generation in range(1, cfg.max_generations + 1):
        if best.fitness <= cfg.eer_stop_threshold:
            break
        selection_rng = _rng(cfg.rng_seed, generation, 0)
        pairs = [select_parents(population, selection_rng) for _ in range(events)]
        children = linear_crossover(
            [a.genes for a, _ in pairs], [b.genes for _, b in pairs]
        ).reshape(-1, n_genes)[: cfg.offspring_count]
        offsets = [
            mutation_offsets(n_genes, generation, cfg, _rng(cfg.rng_seed, generation, k + 1))
            for k in range(len(children))
        ]
        live = _next_population(live, evaluate(_clamp(children + np.array(offsets))),
                                cfg.population_size)
        population = Population(members=[c for _, c in live], generation=generation)
        best = population.members[0]
        history.append(GenerationRecord(generation, best.fitness, best.genes))
        if on_generation is not None:
            on_generation(population, best)
    return replace(best), history
