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

Each generation is array work driven by one generator, spawned from the
master seed with the key (generation, 0); the initial population uses the
key (0, 0).  A generation of k offspring from e = ceil(k / 3) crossover
events draws, in this order:

1. the e first-parent indices;
2. the e second-parent indices;
3. the mutation draws s, shape (k, n);
4. the mutation signs, shape (k, n).

So a seed fixes the whole run, and results do not depend on evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .aggregate import SortedScores
from .data import LabeledScoreSet
from .measures import lambda_tables
from .metrics import sweep_errors

__all__ = [
    "Chromosome",
    "GENE_EPS",
    "GaConfig",
    "GenerationRecord",
    "Population",
    "evolve",
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
    """A candidate density vector with its fitness (EER), if scored.

    ``evolve`` keeps its population as arrays and builds chromosomes, with
    their EERs, only for what it hands out: the best member and the
    populations given to ``on_generation``.
    """

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
    for c in seeded:
        if len(c.genes) != n_genes:
            raise ValueError(f"a seed has {len(c.genes)} genes, the population {n_genes}")
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
    n = data.n_modalities

    def score(genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if genes.ndim == 2 and genes.shape[1] != n:
            raise ValueError(f"genomes have {genes.shape[1]} genes, the data {n} modalities")
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
    Raises ``ValueError`` when the rows are not ``data.n_modalities`` wide.
    """
    return _fitness_kernel(data)(np.asarray(genes, dtype=float))


def _pair_indices(
    n_members: int, n_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Member indices of ``n_pairs`` parent pairs, uniform and distinct within a pair.

    All first parents are drawn, then all second parents: ``j`` is uniform
    over the ``n_members - 1`` indices other than ``i``.
    """
    first = rng.integers(0, n_members, size=n_pairs)
    second = rng.integers(0, n_members - 1, size=n_pairs)
    return first, second + (second >= first)


def select_parents(
    population: Population | Sequence[Chromosome],
    rng: np.random.Generator,
) -> tuple[Chromosome, Chromosome]:
    """Two members drawn uniformly (1/N each), distinct within the pair.

    The one-pair case of the draw ``evolve`` makes for a whole generation.
    """
    members = population.members if isinstance(population, Population) else population
    (i,), (j,) = _pair_indices(len(members), 1, rng)
    return members[i], members[j]


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
    shape: int | tuple[int, ...],
    generation: int,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Signed pre-clamp perturbations of the given shape: +-y * (1 - s)^(generation / g_max).

    Per gene, independently: s ~ U[0, 1] and a fair-coin sign; all of s is
    drawn before the signs.  The expected magnitude is
    y / (1 + generation / g_max), shrinking as the run ages.
    """
    if not 0 <= generation <= cfg.max_generations:
        raise ValueError("generation must lie in [0, max_generations]")
    s = rng.random(shape)
    signs = rng.integers(0, 2, size=shape) * 2 - 1
    exponent = generation / cfg.max_generations
    return signs * cfg.mutation_bound * (1.0 - s) ** exponent


def evolve(
    data: LabeledScoreSet,
    cfg: GaConfig | None = None,
    seeds: Sequence[Iterable[float]] | None = None,
    on_generation: Callable[[Population, Chromosome], None] | None = None,
) -> tuple[Chromosome, list[GenerationRecord]]:
    """Run the generational loop; returns the best chromosome and its trace.

    Stops as soon as the best EER reaches ``cfg.eer_stop_threshold`` or
    after ``cfg.max_generations`` generations.  Fully deterministic for a
    fixed ``cfg.rng_seed``: each generation draws from its own generator
    (see the module docstring).  The population is a (P, n) gene array with
    its EERs and minimum sweep errors, kept sorted by (EER, minimum error);
    each generation's offspring are built as one array and scored as one
    batch.  Survivors: the first best parent (the one elite), then the best
    P - 1 of the other parents and the offspring, parents first on ties.
    """
    cfg = cfg or GaConfig()
    score = _fitness_kernel(data)
    size, n_genes = cfg.population_size, data.n_modalities

    def ranked(genes, eers, min_errors):
        order = np.lexsort((min_errors, eers))  # stable: earlier rows first on ties
        return genes[order], eers[order], min_errors[order]

    history: list[GenerationRecord] = []

    def report(generation: int, genes: np.ndarray, eers: np.ndarray) -> Chromosome:
        """Record the best of a ranked population; hand the population to the callback."""
        best = Chromosome(tuple(genes[0].tolist()), float(eers[0]))
        history.append(GenerationRecord(generation, best.fitness, best.genes))
        if on_generation is not None:
            population = Population(
                members=[Chromosome(tuple(g), e) for g, e in zip(genes.tolist(), eers.tolist())],
                generation=generation,
            )
            on_generation(population, population.members[0])
        return best

    initial = init_population(cfg, n_genes=n_genes, seeds=seeds).members
    genes = np.array([c.genes for c in initial])
    genes, eers, min_errors = ranked(genes, *score(genes))
    best = report(0, genes, eers)

    events = math.ceil(cfg.offspring_count / 3)
    for generation in range(1, cfg.max_generations + 1):
        if best.fitness <= cfg.eer_stop_threshold:
            break
        rng = _rng(cfg.rng_seed, generation, 0)
        first, second = _pair_indices(size, events, rng)
        children = linear_crossover(genes[first], genes[second]).reshape(-1, n_genes)
        children = children[: cfg.offspring_count]
        children = _clamp(children + mutation_offsets(children.shape, generation, cfg, rng))
        child_eers, child_min_errors = score(children)
        # Row 0 is the elite; rows 1.. are the other parents, then the offspring.
        pool = (np.concatenate([genes, children]), np.concatenate([eers, child_eers]),
                np.concatenate([min_errors, child_min_errors]))
        rest = 1 + np.lexsort((pool[2][1:], pool[1][1:]))[: size - 1]
        genes, eers, min_errors = ranked(*(a[np.concatenate([[0], rest])] for a in pool))
        best = report(generation, genes, eers)
    return best, history
