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
    if a.ndim == 1:
        a = a[np.newaxis, :]
    if a.ndim != 2:
        raise ValueError(f"scores must be a vector or a matrix, got shape {a.shape}")
    if n is not None and a.shape[1] != n:
        raise ValueError(f"expected {n} scores per vector, got {a.shape[1]}")
    if a.shape[1] < 1:
        raise ValueError("score vectors must not be empty")
    inside = (a >= 0.0) & (a <= 1.0)  # False at NaN and +-inf too
    if not inside.all():
        bad = np.argwhere(~inside)[0]
        raise ValueError(f"score [{bad[0]},{bad[1]}] = {float(a[tuple(bad)])!r} outside [0, 1]")
    return a


@functools.cache
def _merge_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (p, q), p < q, of Batcher's odd-even merge sort on n inputs.

    Built for the next power of two and cut to the pairs with q < n: padding
    the input with +inf above n leaves every such pad in place, so the pairs
    cut are the ones that would compare two pads or a pad with a smaller
    real value (Batcher, AFIPS 1968).
    """
    size = 1 << (n - 1).bit_length()
    pairs = []
    span = 1
    while span < size:  # merge sorted runs of length span into runs of 2 * span
        k = span
        while k >= 1:
            for j in range(k % span, size - k, 2 * k):
                for i in range(j, min(j + k, size - k)):
                    if i // (2 * span) == (i + k) // (2 * span) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        span *= 2
    return tuple(pairs)


class SortedScores:
    """The measure-independent part of the Choquet integral of a score matrix.

    For every row (N rows, n criteria): the ascending increments
    ``a_(i) - a_(i-1)`` with ``a_(0) = 0`` in ``diffs`` and the bitmask of
    the criteria still in play at each sorted position in ``masks``, both of
    shape (N, n) (transposed views of (n, N) arrays).  Ties in the sort are
    broken by criterion index, the order of a stable argsort: for a
    lambda-measure the result is tie-order independent, the fixed order
    just keeps explicit-table measures deterministic too.  The rows are
    sorted by one compare-exchange network applied to whole columns, so
    the work is a few numpy calls per comparator whatever N is.  Build it
    once per score matrix and fuse it against any number of measure tables.
    """

    def __init__(self, scores, n: int | None = None):
        a = _as_score_matrix(scores, n)
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
        depend on the numpy build.  ``out``, a (P, N) array, receives the
        result when given.
        """
        diffs, masks = self.diffs.T, self.masks.T  # (n, N), contiguous rows
        weights = tables.take(masks[0], axis=1)  # (P, N), reused at every position
        total = np.multiply(diffs[0], weights, out=out)
        for i in range(1, len(diffs)):
            tables.take(masks[i], axis=1, out=weights)
            total += np.multiply(diffs[i], weights, out=weights)
        return total


def choquet_fuse(scores, measure: LambdaMeasure | TableMeasure) -> float:
    """Choquet integral of one score vector against a fuzzy measure.

    The one-row case of ``choquet_fuse_batch``, checked once.
    """
    a = _as_score_matrix(scores, measure.n)
    if a.shape[0] != 1:
        raise ValueError("choquet_fuse takes a single score vector; use "
                         "choquet_fuse_batch for matrices")
    return float(SortedScores._of_checked(a).fuse(measure.dense_table()[np.newaxis])[0, 0])


def choquet_fuse_batch(scores, measure: LambdaMeasure | TableMeasure) -> np.ndarray:
    """Choquet integral of each row of a score matrix. Vectorized.

    The matrix is checked whole, then fused in chunks of ``_CHUNK_ROWS`` rows,
    on one thread per CPU (at most one per chunk) when there are several of
    each.  Each chunk is sorted by ``SortedScores``, one compare-exchange
    network over its columns.  Rows are independent, so the bits do not
    depend on either count.
    """
    a = _as_score_matrix(scores, measure.n)
    table = measure.dense_table()[np.newaxis]
    fused = np.empty(len(a))

    def fuse_chunk(lo: int) -> None:
        hi = lo + _CHUNK_ROWS
        SortedScores._of_checked(a[lo:hi]).fuse(table, out=fused[np.newaxis, lo:hi])

    fan_out(fuse_chunk, range(0, len(a), _CHUNK_ROWS))
    return fused


def _normalized_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        raise ValueError("weighted_sum requires weights")
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
    return w


def _thresholds_array(threshold, n: int) -> np.ndarray:
    t = np.asarray(threshold, dtype=float)
    if t.ndim == 0:
        t = np.full(n, float(t))
    if t.shape != (n,):
        raise ValueError(f"expected a scalar or {n} per-modality thresholds")
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("decision thresholds must lie in [0, 1]")
    return t


@dataclass(frozen=True)
class FusionRule:
    """A named fusion rule plus its parameters.

    ``measure`` is required for the ``choquet`` tag, ``weights`` (nonnegative,
    summing to 1) for ``weighted_sum``.  ``threshold`` is the per-modality
    binarization level used by the decision rules ``and`` / ``or`` /
    ``majority_vote`` (scalar or one value per modality, default 0.5).
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
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        # A float or a tuple, as weights: hashable and not the caller's.
        object.__setattr__(self, "threshold", tuple(float(t) for t in self.threshold)
                           if np.ndim(self.threshold) else float(self.threshold))

    @property
    def is_decision(self) -> bool:
        return self.tag in DECISION_RULES


def rule_fuse_batch(scores, rule: FusionRule) -> np.ndarray:
    """Apply ``rule`` to every row of a score matrix.

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
        t = _thresholds_array(rule.threshold, n)
        columns = (a[:, j] >= t[j] for j in range(n))
    elif rule.tag == "weighted_sum":
        w = _normalized_weights(rule.weights, n)
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
