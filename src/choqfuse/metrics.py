"""Verification-error evaluation of fused scores.

Conventions, fixed across the package:

* a sample is accepted at threshold t iff its (fused) score >= t;
* FAR(t) = fraction of impostor scores accepted, FRR(t) = fraction of
  client scores rejected;
* the equal error rate is located by one threshold sweep: the client and
  impostor scores are ranked together by one sort (``_rank``: a stable
  merge of two sorted halves in ``evaluate_scores``, numpy's faster
  unstable sort in ``sweep_errors``), each run of tied scores is one
  candidate threshold with the error counts below its first position,
  whatever the order inside the run, and the FAR/FRR crossing is
  linearly interpolated between the two adjacent candidates where
  FAR - FRR changes sign.  When the classes are perfectly separated the
  reported threshold is the midpoint of the separating gap;
* ``EvalReport.far_frr_at`` and ``EvalReport.error_rate_at`` read the
  counts off the curves at the first candidate at or above the threshold;
* scores must be finite and thresholds not NaN (``ValueError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import write_table

__all__ = [
    "EvalReport",
    "evaluate_scores",
    "sweep_errors",
    "write_roc_csv",
]


def _as_scores(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError(f"{name} scores must not be empty")
    _require_finite(x, name)
    return x


def _require_finite(scores: np.ndarray, name: str) -> None:
    if not np.isfinite(scores).all():
        raise ValueError(f"{name} scores must be finite, got NaN or infinity")


def _rank(scores: np.ndarray, n_clients: int, kind: str):
    """Rank each row of (P, Nc + Ni) scores, clients first, in one sort of the given kind.

    Returns the ranked scores, the number of clients strictly below each
    ranked position's run of tied scores (valid at the run's first
    position) and the flags of those first positions.  Those counts do not
    depend on the order inside a run, so any sort kind gives the same.
    """
    order = scores.argsort(axis=1, kind=kind)
    is_client = order < n_clients
    # Flat positions: one take, no per-axis index arrays.
    order += np.arange(0, scores.size, scores.shape[1])[:, np.newaxis]
    ranked = scores.take(order)
    del order
    clients_below = is_client.cumsum(axis=1)
    clients_below -= is_client
    del is_client
    first = np.empty(ranked.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    return ranked, clients_below, first


def _interpolate(d0, d1, lo, hi):
    """The value at the FAR - FRR crossing, linear from ``lo`` (where FAR - FRR is
    d0 > 0) to ``hi`` (where it is d1 <= 0), and ``hi`` itself where d1 = 0."""
    return np.where(d1 == 0.0, hi, lo + d0 / (d0 - d1) * (hi - lo))


def _threshold_at_crossing(d0: float, d1: float, lo: float, hi: float) -> float:
    """``_interpolate`` of one pair of grid thresholds, with the same bits where
    ``hi - lo`` is finite and lo * (1 - t) + hi * t where it overflows."""
    if d1 == 0.0:
        return hi
    t = d0 / (d0 - d1)
    span = hi - lo  # Python floats: inf on overflow, without a warning
    return lo + t * span if span != math.inf else lo * (1.0 - t) + hi * t


def _bracket(diff: np.ndarray, first):
    """Per row of FAR - FRR, the last run start where it is > 0 and the first where it is <= 0.

    ``first`` flags the run starts (``True``: every point is one).  Along
    them FAR - FRR falls from +1 (the first) to -1 (the top sentinel), so
    the crossing lies between the two.
    """
    # first > x is first & ~x; unlike &, it is fast where first is the scalar True.
    mask = diff > 0.0
    np.greater(first, mask, out=mask)  # the run starts at or past the crossing
    hi = mask.argmax(axis=-1)
    np.greater(first, mask, out=mask)  # the run starts before it
    return diff.shape[-1] - 1 - mask[..., ::-1].argmax(axis=-1), hi


def sweep_errors(fused_clients, fused_impostors) -> tuple[np.ndarray, np.ndarray]:
    """EER and minimum total error rate of each row of (P, Nc) / (P, Ni) scores.

    Row p equals ``evaluate_scores(fused_clients[p], fused_impostors[p])``'s
    ``eer`` and ``min_error_rate()[0]`` exactly: ``_sweep`` ranks each row's
    scores once and reads the same integer error counts on the same
    candidate thresholds, at the run starts only.  Memory is O(P * (Nc + Ni)).
    """
    clients = np.asarray(fused_clients, dtype=float)
    impostors = np.asarray(fused_impostors, dtype=float)
    if clients.ndim != 2 or impostors.ndim != 2 or len(clients) != len(impostors):
        raise ValueError(f"expected (P, Nc) and (P, Ni) score rows, got shapes "
                         f"{clients.shape} and {impostors.shape}")
    if clients.shape[1] == 0 or impostors.shape[1] == 0:
        raise ValueError("client and impostor scores must not be empty")
    for scores in (clients, impostors):
        _require_finite(scores, "client and impostor")
    return _sweep(clients, impostors)


def _sweep(clients: np.ndarray, impostors: np.ndarray):
    """``sweep_errors`` of finite, non-empty (P, Nc) and (P, Ni) float rows, unchecked.

    Only this function closes a row with the +inf sentinel, the grid's top
    one: its run start has every client rejected and no impostor accepted."""
    n_clients, n_impostors = clients.shape[1], impostors.shape[1]
    scores = np.concatenate([clients, impostors, np.full((len(clients), 1), np.inf)], axis=1)
    ranked, clients_below, first = _rank(scores, n_clients, "quicksort")
    # Counts at every run start (elsewhere they are not read).
    accepted = clients_below + (n_impostors - np.arange(scores.shape[1]))
    far, frr = accepted / n_impostors, clients_below / n_clients
    diff = far - frr
    lo, hi = _bracket(diff, first)
    rows = np.arange(len(ranked))
    value = _interpolate(diff[rows, lo], diff[rows, hi], far[rows, lo], far[rows, hi])
    errors = np.where(first, accepted + clients_below, ranked.shape[1]).min(axis=1)
    return value, errors / (n_clients + n_impostors)


@dataclass(frozen=True)
class EvalReport:
    """FAR/FRR curves over a shared threshold grid and the EER."""

    thresholds: np.ndarray
    far_curve: np.ndarray
    frr_curve: np.ndarray
    eer: float
    eer_threshold: float
    n_clients: int
    n_impostors: int

    def _errors(self, k):
        """False accepts + false rejects at grid index (or slice) ``k``."""
        # The true counts are integers; rint clears the rate-to-count rounding.
        return np.rint(self.far_curve[k] * self.n_impostors
                       + self.frr_curve[k] * self.n_clients)

    def _index(self, threshold: float) -> int:
        """The first grid point >= ``threshold``, the top sentinel above the top score.

        No score lies between the two, so the counts there are those at
        ``threshold``; above the top score the top sentinel (everything
        rejected) stands for it.
        """
        if np.isnan(threshold):
            raise ValueError("the threshold must not be NaN")
        return min(int(np.searchsorted(self.thresholds, threshold)), self.thresholds.size - 1)

    def far_frr_at(self, threshold: float) -> tuple[float, float]:
        """(FAR, FRR) at one decision threshold, accepting scores >= threshold."""
        k = self._index(threshold)
        return float(self.far_curve[k]), float(self.frr_curve[k])

    def error_rate_at(self, threshold: float) -> float:
        """Total error rate at one threshold: (false accepts + false rejects) / all samples."""
        return float(self._errors(self._index(threshold))) / (self.n_clients + self.n_impostors)

    def min_error_rate(self) -> tuple[float, float]:
        """Smallest total error rate over the grid and a threshold reaching it."""
        counts = self._errors(slice(None))
        k = int(np.argmin(counts))
        total = self.n_clients + self.n_impostors
        return float(counts[k]) / total, float(self.thresholds[k])


def evaluate_scores(fused_clients, fused_impostors) -> EvalReport:
    """Full evaluation of fused scores: curves on the candidate grid + EER.

    Each class is sorted, and ``_rank``'s stable sort merges the two
    sorted runs; the grid is the first score of every tied
    run, between a sentinel below and one above every score.  When the
    classes are perfectly separated the EER is 0 and its threshold the
    midpoint of the separating gap.
    """
    # Each intermediate is dropped once used: at a million scores they, not
    # the returned curves, would set the peak memory.
    clients = _as_scores(fused_clients, "client")
    impostors = _as_scores(fused_impostors, "impostor")
    n_clients, n_impostors = clients.size, impostors.size
    scores = np.concatenate([clients, impostors])[np.newaxis]
    del clients, impostors
    scores[0, :n_clients].sort()
    scores[0, n_clients:].sort()
    lowest_client, highest_impostor = scores[0, 0], scores[0, -1]
    # Presorted halves: the stable rank is one merge.
    ranked, clients_below, first = _rank(scores, n_clients, "stable")
    del scores
    starts = np.flatnonzero(first[0])
    del first
    size = starts.size + 2
    grid = np.empty(size)
    low, top = float(ranked[0, 0]), float(ranked[0, -1])
    # Past 2**53, ±1 rounds back onto the score; np.nextafter warns where it reaches ±inf.
    grid[0] = low - 1.0 if low - 1.0 != low else math.nextafter(low, -math.inf)
    grid[-1] = top + 1.0 if top + 1.0 != top else math.nextafter(top, math.inf)
    grid[1:-1] = ranked[0, starts]
    del ranked
    rejected = clients_below[0, starts]
    del clients_below
    frr = np.empty(size)
    frr[0], frr[-1] = 0.0, 1.0
    np.divide(rejected, n_clients, out=frr[1:-1])
    # Impostors accepted at a run start: all but those ranked below it.
    starts -= rejected
    np.subtract(n_impostors, starts, out=starts)
    del rejected
    far = np.empty(size)
    far[0], far[-1] = 1.0, 0.0
    np.divide(starts, n_impostors, out=far[1:-1])
    del starts
    if lowest_client > highest_impostor:
        below, above = float(highest_impostor), float(lowest_client)
        eer_value, eer_threshold = 0.0, (below + above) / 2.0
        if math.isinf(eer_threshold):  # the sum overflowed
            eer_threshold = below / 2.0 + above / 2.0
    else:
        diff = far - frr
        lo, hi = _bracket(diff, True)
        eer_value = float(_interpolate(diff[lo], diff[hi], far[lo], far[hi]))
        eer_threshold = _threshold_at_crossing(float(diff[lo]), float(diff[hi]),
                                               float(grid[lo]), float(grid[hi]))
    for arr in (grid, far, frr):
        arr.flags.writeable = False
    return EvalReport(
        thresholds=grid,
        far_curve=far,
        frr_curve=frr,
        eer=eer_value,
        eer_threshold=eer_threshold,
        n_clients=n_clients,
        n_impostors=n_impostors,
    )


def write_roc_csv(report: EvalReport, path) -> None:
    """Write the threshold/FAR/FRR series as CSV (6 significant digits).

    The bytes are those the standard ``csv`` module's writer (excel
    dialect) writes for the ``f"{v:.6g}"`` texts.  ``data.write_table``
    formats them in blocks with numpy, and with ``%`` the rows holding a
    value it cannot prove: one within 1e-9 of a rounding tie, a non-finite
    one, or one outside [1e-99, 1e99) other than 0.
    """
    write_table(path, ["threshold", "far", "frr"], "%.6g,%.6g,%.6g",
                [report.thresholds, report.far_curve, report.frr_curve])
