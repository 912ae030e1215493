"""Learning measure densities with a real-coded genetic algorithm.

A chromosome is a candidate singleton-density vector, clamped into
[1e-6, 1 - 1e-6] so every candidate yields a well-formed lambda-measure.
Fitness is the equal error rate of Choquet-fused scores on a labeled
client/impostor set, to be minimized.  A population is a (P, n) gene
array, and each operator works on arrays of members.  One generation:

1. uniform parent selection (probability 1/N each, no replacement within
   a pair);
2. linear crossover producing three offspring per pair:
   0.5*(C1 + C2), 1.5*C1 - 0.5*C2, 0.5*C1 + 1.5*C2;
3. non-uniform mutation: each gene moves by +-y * (1 - s)^(g / g_max)
   with s ~ U[0, 1], so the expected step anneals as generations advance;
4. survivor selection pools parents with offspring and keeps the best N
   (the best parent always retained), which makes the best-fitness trace
   monotone.

A run draws from two generators spawned from the master seed: key (0, 0)
for the initial population, key (1, 0) for all later generations, in
blocks of 64.  Generation g, with k offspring from e = ceil(k / 3)
crossover events, reads row (g - 1) mod 64 of each array of its block,
drawn in this order:

1. the first-parent indices, shape (64, e);
2. the second-parent indices, shape (64, e);
3. the mutation draws s, shape (64, k, n);
4. the mutation signs, shape (64, k, n).

Blocks are always full, wherever a run stops, so a seed fixes the whole
run and results do not depend on evaluation order.  The mutation power is
scalar ``math.pow`` and lambda is solved with +, -, *, /, sqrt and powers
of two only, so the bits of a run do not depend on numpy's SIMD level
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .aggregate import SortedScores
from .data import LabeledScoreSet
from .measures import _as_density_matrix, _solve, _tables
from .metrics import _sweep

__all__ = [
    "GaConfig",
    "GenerationRecord",
    "Population",
    "evolve",
    "population_fitness",
]

# Genes are clamped into [GENE_EPS, 1 - GENE_EPS]: exact 0/1 densities are
# rejected by the measure layer (vacuous resp. degenerate criteria).
GENE_EPS = 1e-6


def _clamp(genes: np.ndarray) -> np.ndarray:
    # np.clip's bits (NaN included) without its Python-level overhead.
    return np.minimum(np.maximum(genes, GENE_EPS), 1.0 - GENE_EPS)


@dataclass(frozen=True, eq=False)
class Population:
    """One ranked generation of ``evolve``, as read-only arrays.

    ``genes`` is the (P, n) gene array and ``eers`` the (P,) fitness array,
    both sorted by (EER, minimum sweep error): row 0 is the best member.
    """

    generation: int
    genes: np.ndarray
    eers: np.ndarray


@dataclass(frozen=True)
class GenerationRecord:
    """The best member after one generation: its EER and genes, for convergence traces."""

    generation: int
    eer: float
    genes: tuple[float, ...]


_BLOCK = 64  # generations per block of random draws (see the module docstring)
# A block's generation numbers, up to generation + _BLOCK, must fit in int64.
_MAX_GENERATIONS = np.iinfo(np.int64).max - _BLOCK


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
        for name in ("population_size", "max_generations", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 1 <= self.max_generations <= _MAX_GENERATIONS:
            raise ValueError(f"max_generations must lie in [1, {_MAX_GENERATIONS}]")
        if not 0.0 <= self.eer_stop_threshold <= 1.0:
            raise ValueError("eer_stop_threshold must lie in [0, 1]")
        if not 0.0 < self.mutation_bound < math.inf:
            raise ValueError("mutation_bound must be positive and finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    @property
    def offspring_count(self) -> int:  # read by perfbench/spans.py until ROADMAP item 6
        return self.population_size


def _rng(seed: int, *key: int) -> np.random.Generator:
    # What default_rng builds from a SeedSequence, minus its argument checks.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _init_population(
    cfg: GaConfig,
    n_genes: int,
    seeds: Sequence[Iterable[float]] | None = None,
) -> np.ndarray:
    """The (P, n) initial gene array: clamped seeds first (expert picks), then uniform draws."""
    seeded = [_clamp(np.asarray(s, dtype=float)) for s in (seeds or [])]
    for genes in seeded:
        if genes.shape != (n_genes,):
            raise ValueError(f"a seed has {genes.size} genes, the population {n_genes}")
        if np.isnan(genes).any():
            raise ValueError(f"genes outside [{GENE_EPS}, {1.0 - GENE_EPS}]: {genes.tolist()}")
    if len(seeded) > cfg.population_size:
        raise ValueError(f"{len(seeded)} seeds exceed the population size {cfg.population_size}")
    rng = _rng(cfg.rng_seed, 0, 0)
    size = (cfg.population_size - len(seeded), n_genes)
    return np.vstack(seeded + [rng.uniform(GENE_EPS, 1.0 - GENE_EPS, size=size)])


def _fitness_kernel(
    data: LabeledScoreSet,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Stateless ``population_fitness`` on ``data`` for (P, n) gene arrays already checked."""
    scores = SortedScores(np.vstack([data.client_scores, data.impostor_scores]))
    n_clients = len(data.client_scores)

    def score(genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fused = scores.fuse(_tables(genes, _solve(genes)))
        return _sweep(fused[:, :n_clients], fused[:, n_clients:])

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
    genes = np.asarray(genes, dtype=float)
    n = data.n_modalities
    if genes.ndim == 2 and genes.shape[1] != n:
        raise ValueError(f"genomes have {genes.shape[1]} genes, the data {n} modalities")
    return _fitness_kernel(data)(_as_density_matrix(genes))


def _select_parents(
    n_members: int, shape: int | tuple[int, ...], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Member indices of parent pairs, of the given shape, uniform (1/N) and distinct in a pair.

    All first parents are drawn, then all second parents: ``second[k]`` is
    uniform over the ``n_members - 1`` indices other than ``first[k]``.
    """
    first = rng.integers(0, n_members, size=shape)
    second = rng.integers(0, n_members - 1, size=shape)
    return first, second + (second >= first)


def _linear_crossover(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The three linear offspring of parent gene arrays ``a``, ``b``, clamped into the box.

    0.5*(a + b), 1.5*a - 0.5*b and 0.5*a + 1.5*b, componentwise; parents of
    shape (..., n) give offspring of shape (..., 3, n).
    """
    children = np.concatenate([0.5 * (a + b), 1.5 * a - 0.5 * b, 0.5 * a + 1.5 * b], axis=-1)
    return _clamp(children.reshape(a.shape[:-1] + (3,) + a.shape[-1:]))


def _mutation_offsets(
    shape: int | tuple[int, ...],
    generation,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Signed pre-clamp perturbations of the given shape: +-y * (1 - s)^(generation / g_max).

    Per gene, independently: s ~ U[0, 1] and a fair-coin sign; all of s is
    drawn before the signs.  ``generation`` (in [0, g_max]) may be an array
    that broadcasts against ``shape``.  The expected magnitude is
    y / (1 + generation / g_max), shrinking as the run ages.  The power is
    scalar ``math.pow``: numpy's vectorized one rounds by the CPU's SIMD level.
    """
    s = rng.random(shape)
    signs = rng.integers(0, 2, size=shape) * 2 - 1
    exponents = np.broadcast_to(np.asarray(generation) / cfg.max_generations, s.shape)
    steps = np.fromiter(map(math.pow, (1.0 - s).flat, exponents.flat), float, s.size)
    return signs * cfg.mutation_bound * steps.reshape(s.shape)


def _survivors(eers: np.ndarray, min_errors: np.ndarray) -> np.ndarray:
    """Pool indices of the next ranked population: the elite plus the best P - 1 of
    the rest (parents first on ties), ranked.  The pool is the P ranked parents,
    the elite (row 0) first, then P offspring; in one stable sort the elite leads
    its ties, so it is among the first P unless all offspring strictly beat it."""
    size = len(eers) // 2
    order = np.lexsort((min_errors, eers))
    keep = order[:size]
    if order[size] == 0:
        keep[-1] = 0
    return keep


def evolve(
    data: LabeledScoreSet,
    cfg: GaConfig | None = None,
    seeds: Sequence[Iterable[float]] | None = None,
    on_generation: Callable[[Population, GenerationRecord], None] | None = None,
) -> tuple[GenerationRecord, list[GenerationRecord]]:
    """Run the generational loop; returns the final best member and the per-generation trace.

    Stops as soon as the best EER reaches ``cfg.eer_stop_threshold`` or
    after ``cfg.max_generations`` generations.  Fully deterministic for a
    fixed ``cfg.rng_seed``: the generations draw from one generator, in
    blocks (see the module docstring).  The population is a (P, n) gene array with
    its EERs and minimum sweep errors, kept sorted by (EER, minimum error);
    each generation's offspring are built as one array and scored as one
    batch.  Survivors: the first best parent (the one elite), then the best
    P - 1 of the other parents and the offspring, parents first on ties.

    ``on_generation(population, best)`` runs after generation 0 (the initial
    population) and after each later one, with the ranked ``Population``
    (read-only views of the loop's arrays, not copies) and its best member,
    the record just appended to the trace: the returned best is ``history[-1]``.
    Raises ``ValueError`` for data of fewer than 2 modalities and for seeds
    that are not ``data.n_modalities`` wide, NaN or more than the population.
    """
    cfg = cfg or GaConfig()
    size, n_genes = cfg.population_size, data.n_modalities
    if n_genes < 2:
        raise ValueError(f"the GA needs at least 2 modalities, the data has {n_genes}")
    score = _fitness_kernel(data)
    history: list[GenerationRecord] = []

    def report(generation: int, genes: np.ndarray, eers: np.ndarray) -> GenerationRecord:
        """Record the best of a ranked population; hand the population to the callback."""
        best = GenerationRecord(generation, float(eers[0]), tuple(genes[0].tolist()))
        history.append(best)
        if on_generation is not None:
            genes.flags.writeable = eers.flags.writeable = False  # the loop only reads them
            on_generation(Population(generation, genes, eers), best)
        return best

    genes = _init_population(cfg, n_genes, seeds)
    eers, min_errors = score(genes)
    order = np.lexsort((min_errors, eers))  # stable: earlier rows first on ties
    genes, eers, min_errors = genes[order], eers[order], min_errors[order]
    best = report(0, genes, eers)

    rng = _rng(cfg.rng_seed, 1, 0)
    events = math.ceil(size / 3)  # each generation breeds one offspring per member
    for generation in range(1, cfg.max_generations + 1):
        if best.eer <= cfg.eer_stop_threshold:
            break
        row = (generation - 1) % _BLOCK
        if row == 0:
            # Rows past max_generations keep the block full and are never used.
            block = np.minimum(np.arange(generation, generation + _BLOCK), cfg.max_generations)
            firsts, seconds = _select_parents(size, (_BLOCK, events), rng)
            offsets = _mutation_offsets((_BLOCK, size, n_genes), block[:, None, None], cfg, rng)
        children = _linear_crossover(genes[firsts[row]], genes[seconds[row]])
        children = _clamp(children.reshape(-1, n_genes)[:size] + offsets[row])
        child_eers, child_min_errors = score(children)
        eers = np.concatenate([eers, child_eers])
        min_errors = np.concatenate([min_errors, child_min_errors])
        keep = _survivors(eers, min_errors)
        genes = np.concatenate([genes, children])[keep]
        eers, min_errors = eers[keep], min_errors[keep]
        best = report(generation, genes, eers)
    return best, history
