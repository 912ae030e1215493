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

from dataclasses import dataclass

import numpy as np

from .measures import LambdaMeasure, TableMeasure

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
    if np.any(~np.isfinite(a)) or np.any(a < 0.0) or np.any(a > 1.0):
        bad = np.argwhere(~((a >= 0.0) & (a <= 1.0)))[0]
        raise ValueError(
            f"score [{bad[0]},{bad[1]}] = {a[bad[0], bad[1]]!r} outside [0, 1]"
        )
    return a


class SortedScores:
    """The measure-independent part of the Choquet integral of a score matrix.

    For every row (N rows, n criteria): the ascending increments
    ``a_(i) - a_(i-1)`` with ``a_(0) = 0`` in ``diffs`` and the bitmask of
    the criteria still in play at each sorted position in ``masks``, both of
    shape (N, n).  Ties in the sort are broken by criterion index; for a
    lambda-measure the result is tie-order independent, the fixed order
    just keeps explicit-table measures deterministic too.  Build it once per
    score matrix and fuse it against any number of measure tables.
    """

    def __init__(self, scores, n: int | None = None):
        a = _as_score_matrix(scores, n)
        order = np.argsort(a, axis=1, kind="stable").astype(np.int64, copy=False)
        n = order.shape[1]
        # Increments in place, right to left, so each column still reads
        # its left neighbour's sorted score (a_(0) = 0 leaves column 0).
        self.diffs = np.take_along_axis(a, order, axis=1)
        for i in range(n - 1, 0, -1):
            self.diffs[:, i] -= self.diffs[:, i - 1]
        # Mask of criteria whose sorted position is >= i: a running OR from
        # the right (sum works because each bit appears once per row).
        self.masks = np.left_shift(1, order, out=order)
        for i in range(n - 2, -1, -1):
            self.masks[:, i] += self.masks[:, i + 1]

    def fuse(self, tables: np.ndarray) -> np.ndarray:
        """Choquet integral of every row under every table: (P, 2^n) -> (P, N).

        Increments times coalition weights are summed left to right over
        the sorted positions, ``(d0*w0 + d1*w1) + d2*w2 ...``: the order is
        fixed here, not left to a library reduction, so fused scores do not
        depend on the numpy build.
        """
        weights = tables[:, self.masks]
        total = self.diffs[:, 0] * weights[..., 0]
        for i in range(1, self.diffs.shape[1]):
            total += self.diffs[:, i] * weights[..., i]
        return total


def choquet_fuse(scores, measure: LambdaMeasure | TableMeasure) -> float:
    """Choquet integral of one score vector against a fuzzy measure.

    The one-row case of ``choquet_fuse_batch``.
    """
    a = _as_score_matrix(scores, measure.n)
    if a.shape[0] != 1:
        raise ValueError("choquet_fuse takes a single score vector; use "
                         "choquet_fuse_batch for matrices")
    return float(choquet_fuse_batch(a, measure)[0])


def choquet_fuse_batch(scores, measure: LambdaMeasure | TableMeasure) -> np.ndarray:
    """Choquet integral of each row of a score matrix. Vectorized."""
    table = measure.dense_table()
    return SortedScores(scores, measure.n).fuse(table[np.newaxis])[0]


def _normalized_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        raise ValueError("weighted_sum requires weights")
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
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

    @property
    def is_decision(self) -> bool:
        return self.tag in DECISION_RULES


def rule_fuse_batch(scores, rule: FusionRule) -> np.ndarray:
    """Apply ``rule`` to every row of a score matrix.

    Score rules return a fused similarity in [0, 1]; decision rules return
    1.0 for accept and 0.0 for reject so that every rule can go through the
    same threshold machinery downstream (decision outputs are evaluated at
    the fixed threshold 0.5).
    """
    if rule.tag == "choquet":
        return choquet_fuse_batch(scores, rule.measure)
    a = _as_score_matrix(scores)
    n = a.shape[1]
    if rule.tag == "mean":
        return a.mean(axis=1)
    if rule.tag == "prod":
        return a.prod(axis=1)
    if rule.tag == "min":
        return a.min(axis=1)
    if rule.tag == "max":
        return a.max(axis=1)
    if rule.tag == "weighted_sum":
        return a @ _normalized_weights(rule.weights, n)
    accepts = a >= _thresholds_array(rule.threshold, n)
    if rule.tag == "and":
        return accepts.all(axis=1).astype(float)
    if rule.tag == "or":
        return accepts.any(axis=1).astype(float)
    # majority_vote: strict majority of per-modality accepts
    return (accepts.sum(axis=1) > n / 2).astype(float)
