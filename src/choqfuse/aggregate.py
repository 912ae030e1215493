"""Fusing a vector of per-matcher scores into one global score.

The Choquet integral sorts the scores ascending, then accumulates the
telescoping differences weighted by the measure of the criteria still "in
play" (those whose scores are at least the current one):

    C_m(a) = sum_i (a_(i) - a_(i-1)) * m({criteria of positions i..n})

with a_(0) = 0.  It interpolates between min, max and weighted means
depending on the measure.  Classical fusion rules (mean, product, min,
max, weighted sum and the binarizing AND / OR / majority-vote decision
rules) are provided for benchmarking.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._threads import fan_out
from .data import _within
from .measures import _TABLE_MAX_N, LambdaMeasure, TableMeasure

__all__ = [
    "FusionRule",
    "RULE_TAGS",
    "SortedScores",
    "choquet_fuse",
    "choquet_fuse_batch",
    "rule_fuse_batch",
]

# Score rules return a fused score in [0, 1]; decision rules binarize each
# modality at a threshold and return 1.0 (accept) or 0.0 (reject).
SCORE_RULES = ("choquet", "mean", "prod", "min", "max", "weighted_sum")
DECISION_RULES = ("and", "or", "majority_vote")
RULE_TAGS = SCORE_RULES + DECISION_RULES

_CHUNK_ROWS = 65_536  # rows choquet_fuse_batch fuses at a time


def _as_score_matrix(scores, n: int | None = None) -> np.ndarray:
    a = np.asarray(scores, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"scores must be an (N, n) matrix, got shape {a.shape}")
    if n is not None and a.shape[1] != n:
        raise ValueError(f"expected {n} scores per vector, got {a.shape[1]}")
    if a.shape[1] < 1:
        raise ValueError("score vectors must not be empty")
    if not _within(a, 0.0, 1.0):
        bad = np.argwhere(~((a >= 0.0) & (a <= 1.0)))[0]  # the first bad cell, row by row
        raise ValueError(f"score [{bad[0]},{bad[1]}] = {float(a[tuple(bad)])!r} outside [0, 1]")
    return a


@functools.cache
def _merge_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, i + d) of Batcher's merge exchange sort of n inputs.

    Knuth's Algorithm M (TAOCP vol. 3, section 5.2.2; Batcher, AFIPS 1968),
    0-based: with 2**t the least power of two >= n, each pass p = 2**(t-1),
    ..., 2, 1 leaves the inputs p-ordered.
    """
    top = 1 << (n - 1).bit_length() >> 1
    pairs = []
    p = top
    while p:
        q, r, d = top, 0, p
        while d:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            d, q, r = q - p, q // 2, p  # d = 0 once q == p
        p //= 2
    return tuple(pairs)


class SortedScores:
    """The measure-independent part of the Choquet integral of a score matrix.

    For every row of an (N, n) matrix (a vector is refused): the ascending
    increments ``a_(i) - a_(i-1)`` with ``a_(0) = 0`` in ``diffs`` and the
    bitmask of the criteria still in play at each sorted position in
    ``masks``, both (N, n) (transposed views of (n, N) arrays).  Ties in the
    sort are broken by criterion index, the order of a stable argsort: for a
    lambda-measure the result is tie-order independent, the fixed order
    just keeps explicit-table measures deterministic too.  The rows are
    sorted by one compare-exchange network applied to whole columns, so
    the work is a few numpy calls per comparator whatever N is.  Build it
    once per score matrix and fuse it against any number of measure tables.
    """

    def __init__(self, scores):
        a = _as_score_matrix(scores)
        # No measure table is wider; past 62 criteria the int64 masks would wrap too.
        if a.shape[1] > _TABLE_MAX_N:
            raise ValueError(f"SortedScores supports at most {_TABLE_MAX_N} criteria, "
                             f"got {a.shape[1]}")
        self._sort(a)

    @classmethod
    def _of_checked(cls, a: np.ndarray) -> SortedScores:
        """``SortedScores`` of a matrix ``_as_score_matrix`` has already checked."""
        self = cls.__new__(cls)
        self._sort(a)
        return self

    def _sort(self, a: np.ndarray) -> None:
        # Always a copy: a.T of a one-row or Fortran-ordered matrix is
        # already C-contiguous, and the network below writes in place.
        values = a.T.copy()
        n, rows = values.shape
        bits = values.view(np.int64)
        masks = np.empty((n, rows), np.int64)
        # Outputs first, scratch last: freeing the scratch then leaves no
        # hole under a live block, which keeps a thread's heap small.
        self.diffs, self.masks = values.T, masks.T
        criteria = np.arange(n, dtype=np.int8)[:, np.newaxis].repeat(rows, axis=1)
        flip = np.empty(rows, np.int64)
        flip8 = flip.view(np.int8)[:rows]
        swap = np.empty(rows, bool)
        tie = np.empty(rows, bool)
        # Swap where (value, criterion) at q is below that at p; with -0.0 ==
        # 0.0 this is the stable argsort order.  The swaps XOR the raw bits,
        # so every score moves bit for bit.
        for p, q in _merge_network(n):
            np.less(values[q], values[p], out=swap)
            np.equal(values[q], values[p], out=tie)
            tie &= criteria[q] < criteria[p]
            swap |= tie
            for column, f in ((bits, flip), (criteria, flip8)):
                np.bitwise_xor(column[p], column[q], out=f)
                f *= swap
                column[p] ^= f
                column[q] ^= f
        # Increments in place, bottom up, so each row still reads the sorted
        # score above it (a_(0) = 0 leaves row 0).
        for i in range(n - 1, 0, -1):
            values[i] -= values[i - 1]
        # Mask of criteria whose sorted position is >= i: a running OR from
        # the bottom (sum works because each bit appears once per column).
        np.left_shift(1, criteria, out=masks, dtype=np.int64)  # 1 << 7 already overflows int8
        for i in range(n - 2, -1, -1):
            masks[i] += masks[i + 1]

    def fuse(self, tables: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Choquet integral of every row under every table: (P, 2^n) -> (P, N).

        Increments times coalition weights are summed left to right over
        the sorted positions, ``(d0*w0 + d1*w1) + d2*w2 ...``: the order is
        fixed here, not left to a library reduction, so fused scores do not
        depend on the numpy build.  ``tables`` is read as floats.  ``out``, a
        (P, N) float array, receives the result when given.  Tables of any
        other width or rank are refused.
        """
        diffs, masks = self.diffs.T, self.masks.T  # (n, N), contiguous rows
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 2 or tables.shape[1] != 1 << len(diffs):
            raise ValueError(f"expected (P, {1 << len(diffs)}) tables, got {tables.shape}")
        # Position 0's coalition is every criterion: the tables' last column.
        total = np.multiply(diffs[0], tables[:, -1:], out=out)
        weights = np.empty(total.shape)  # reused at every further position
        for i in range(1, len(diffs)):
            tables.take(masks[i], axis=1, out=weights)
            total += np.multiply(diffs[i], weights, out=weights)
        return total


def choquet_fuse(scores, measure: LambdaMeasure | TableMeasure) -> float:
    """Choquet integral of one score vector against a fuzzy measure.

    A vector, or a (1, n) matrix: ``choquet_fuse_batch``'s one row, checked once.
    """
    a = np.asarray(scores, dtype=float)
    fused = choquet_fuse_batch(a[np.newaxis] if a.ndim == 1 else a, measure)
    if fused.shape != (1,):
        raise ValueError("choquet_fuse takes a single score vector; use "
                         "choquet_fuse_batch for matrices")
    return float(fused[0])


def choquet_fuse_batch(scores, measure: LambdaMeasure | TableMeasure) -> np.ndarray:
    """Choquet integral of each row of an (N, n) score matrix. Vectorized.

    A vector is refused (``choquet_fuse`` takes one).  The matrix is checked
    whole, then fused in chunks of ``_CHUNK_ROWS`` rows, on one thread per
    CPU (at most one per chunk) when there are several of each.  Each chunk
    is sorted by ``SortedScores``, one compare-exchange network over its
    columns.  Rows are independent, so the bits depend on neither count.
    """
    a = _as_score_matrix(scores, measure.n)
    table = measure.dense_table()[np.newaxis]
    fused = np.empty(len(a))

    def fuse_chunk(lo: int) -> None:
        hi = lo + _CHUNK_ROWS
        SortedScores._of_checked(a[lo:hi]).fuse(table, out=fused[np.newaxis, lo:hi])

    fan_out(fuse_chunk, range(0, len(a), _CHUNK_ROWS))
    return fused


def _as_parameter(value, name: str, scalar: bool) -> float | tuple[float, ...]:
    """A float (if ``scalar``) or a non-empty flat tuple of floats: hashable, not the caller's."""
    a = np.asarray(value)  # ragged nesting raises ValueError
    if a.dtype.kind not in "biuf" or a.ndim > 1 or a.size == 0 or a.ndim == 0 and not scalar:
        kind = "a number or a" if scalar else "a"
        raise ValueError(f"{name} must be {kind} non-empty flat sequence of numbers, got {value!r}")
    return float(a) if a.ndim == 0 else tuple(a.astype(float).tolist())


@dataclass(frozen=True)
class FusionRule:
    """A named fusion rule plus its parameters, checked when it is built.

    ``measure`` is required for the ``choquet`` tag, ``weights`` (nonnegative,
    summing to 1) for ``weighted_sum``.  ``threshold``, scalar or one per
    modality in [0, 1] (default 0.5), binarizes the scores for ``and``, ``or``
    and ``majority_vote``; ``rule_fuse_batch`` checks the counts against n.
    """

    tag: str
    measure: LambdaMeasure | TableMeasure | None = None
    weights: tuple[float, ...] | None = None
    threshold: float | tuple[float, ...] = 0.5

    def __post_init__(self):
        if self.tag not in RULE_TAGS:
            raise ValueError(f"unknown rule {self.tag!r}; expected one of {RULE_TAGS}")
        if self.tag == "choquet" and self.measure is None:
            raise ValueError("the choquet rule needs a measure")
        if self.tag == "weighted_sum" and self.weights is None:
            raise ValueError("the weighted_sum rule needs weights")
        if self.weights is not None:
            w = _as_parameter(self.weights, "weights", scalar=False)
            if not all(v >= 0.0 for v in w):  # False at NaN too; +inf fails the sum
                raise ValueError("weights must be nonnegative")
            if abs(sum(w) - 1.0) > 1e-9:
                raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
            object.__setattr__(self, "weights", w)
        t = _as_parameter(self.threshold, "threshold", scalar=True)
        if not all(0.0 <= v <= 1.0 for v in np.ravel(t)):  # False at NaN too
            raise ValueError("decision thresholds must lie in [0, 1]")
        object.__setattr__(self, "threshold", t)

    @property
    def is_decision(self) -> bool:
        return self.tag in DECISION_RULES


def rule_fuse_batch(scores, rule: FusionRule) -> np.ndarray:
    """Apply ``rule`` to every row of an (N, n) score matrix; a vector is refused.

    Score rules return a fused similarity in [0, 1]; decision rules return
    1.0 for accept and 0.0 for reject so that every rule can go through the
    same threshold machinery downstream (decision outputs are evaluated at
    the fixed threshold 0.5).  Each rule but ``choquet`` folds its columns,
    the scores (times the weights) or the accepts ``c_j >= t_j``, left to
    right into one buffer, ``(c0 op c1) op c2 ...``: one whole-column ufunc
    per modality, and sums rounded in that order whatever the CPU and n.
    """
    if rule.tag == "choquet":
        return choquet_fuse_batch(scores, rule.measure)
    a = _as_score_matrix(scores)
    n = a.shape[1]
    if rule.is_decision:
        t = rule.threshold if isinstance(rule.threshold, tuple) else (rule.threshold,) * n
        if len(t) != n:
            raise ValueError(f"expected a scalar or {n} per-modality thresholds")
        columns = (a[:, j] >= t[j] for j in range(n))
    elif rule.tag == "weighted_sum":
        w = rule.weights
        if len(w) != n:
            raise ValueError(f"expected {n} weights, got {len(w)}")
        columns = (a[:, j] * w[j] for j in range(n))
    else:
        columns = (a[:, j] for j in range(n))
    fold = {"prod": np.multiply, "min": np.minimum, "max": np.maximum, "and": np.logical_and,
            "or": np.logical_or}.get(rule.tag, np.add)  # majority_vote adds up the accepts
    # np.array copies: the fold writes its buffer, and a[:, 0] is the caller's.
    total = np.array(next(columns), np.intp if rule.tag == "majority_vote" else None)
    for column in columns:
        fold(total, column, out=total)
    if rule.tag == "mean":
        total /= n
    elif rule.tag == "majority_vote":
        total = total > n / 2  # a strict majority of accepts
    return total.astype(float, copy=False)
