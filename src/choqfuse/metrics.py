"""Verification-error evaluation of fused scores.

Conventions, fixed across the package:

* a sample is accepted at threshold t iff its (fused) score >= t;
* FAR(t) = fraction of impostor scores accepted, FRR(t) = fraction of
  client scores rejected;
* the equal error rate is located by one threshold sweep: the client and
  impostor scores are ranked together by one stable sort (``_rank``), each
  run of tied scores is one candidate threshold with the error counts
  below its first position, and the FAR/FRR crossing is linearly
  interpolated between the two adjacent candidates where FAR - FRR
  changes sign.  When the classes are perfectly separated the reported
  threshold is the midpoint of the separating gap;
* ``EvalReport.error_rate_at`` reads the counts off the curves at the
  first candidate at or above the threshold;
* scores must be finite and thresholds not NaN (``ValueError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_rows

__all__ = [
    "EvalReport",
    "eer",
    "error_rate_at",
    "evaluate_scores",
    "far_frr",
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


def _require_threshold(threshold) -> None:
    if np.isnan(threshold):
        raise ValueError("the threshold must not be NaN")


def far_frr(fused_clients, fused_impostors, threshold: float) -> tuple[float, float]:
    """(FAR, FRR) at one decision threshold, accepting scores >= threshold."""
    clients = _as_scores(fused_clients, "client")
    impostors = _as_scores(fused_impostors, "impostor")
    _require_threshold(threshold)
    far = float(np.count_nonzero(impostors >= threshold)) / impostors.size
    frr = float(np.count_nonzero(clients < threshold)) / clients.size
    return far, frr


def error_rate_at(fused_clients, fused_impostors, threshold: float) -> float:
    """Total error rate: (false accepts + false rejects) / all samples."""
    clients = _as_scores(fused_clients, "client")
    impostors = _as_scores(fused_impostors, "impostor")
    _require_threshold(threshold)
    fa = int(np.count_nonzero(impostors >= threshold))
    fr = int(np.count_nonzero(clients < threshold))
    return (fa + fr) / (clients.size + impostors.size)


def _rank(scores: np.ndarray, n_clients: int):
    """Rank each row of (P, Nc + Ni) scores, clients first, in one stable sort.

    Returns the ranked scores, the number of clients strictly below each
    ranked position's run of tied scores (valid at the run's first
    position) and the flags of those first positions.
    """
    order = np.argsort(scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=1)
    is_client = order < n_clients
    del order
    clients_below = np.cumsum(is_client, axis=1)
    clients_below -= is_client
    del is_client
    first = np.empty(ranked.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    return ranked, clients_below, first


def _crossing(grid: np.ndarray, far: np.ndarray, frr: np.ndarray):
    """EER and its threshold for every row of (P, K) curves on (P, K) grids.

    FAR - FRR starts at +1 (everything accepted) and ends at -1; the EER is
    read at the first candidate at or past the crossing, linearly
    interpolated from the candidate before it unless FAR = FRR exactly.
    """
    diff = far - frr
    rows = np.arange(len(diff))
    k = np.argmax(diff <= 0.0, axis=1)
    d0, d1 = diff[rows, k - 1], diff[rows, k]
    f0, f1 = far[rows, k - 1], far[rows, k]
    t0, t1 = grid[rows, k - 1], grid[rows, k]
    exact = d1 == 0.0
    alpha = d0 / (d0 - d1)
    value = np.where(exact, f1, f0 + alpha * (f1 - f0))
    threshold = np.where(exact, t1, t0 + alpha * (t1 - t0))
    return value, threshold


def eer(fused_clients, fused_impostors) -> tuple[float, float]:
    """Equal error rate and its threshold (``evaluate_scores`` fields).

    Deterministic: the candidate sweep uses order statistics only, so the
    EER value is invariant under any common strictly increasing rescaling
    of the scores.
    """
    report = evaluate_scores(fused_clients, fused_impostors)
    return report.eer, report.eer_threshold


def sweep_errors(fused_clients, fused_impostors) -> tuple[np.ndarray, np.ndarray]:
    """EER and minimum total error rate of each row of (P, Nc) / (P, Ni) scores.

    Row p equals ``evaluate_scores(fused_clients[p], fused_impostors[p])``'s
    ``eer`` and ``min_error_rate()[0]`` exactly: the sweep ranks each row's
    scores once and reads the same integer error counts on the same
    candidate thresholds.  Memory is O(P * (Nc + Ni)).
    """
    clients = np.asarray(fused_clients, dtype=float)
    impostors = np.asarray(fused_impostors, dtype=float)
    if clients.ndim != 2 or impostors.ndim != 2 or len(clients) != len(impostors):
        raise ValueError(f"expected (P, Nc) and (P, Ni) score rows, got shapes "
                         f"{clients.shape} and {impostors.shape}")
    n_clients, n_impostors = clients.shape[1], impostors.shape[1]
    if n_clients == 0 or n_impostors == 0:
        raise ValueError("client and impostor scores must not be empty")
    scores = np.concatenate([clients, impostors], axis=1)
    _require_finite(scores, "client and impostor")
    ranked, clients_below, first = _rank(scores, n_clients)
    # A run of tied scores is one candidate threshold: every position takes
    # the counts below the run's first position.
    position = np.arange(ranked.shape[1])
    run_start = np.maximum.accumulate(np.where(first, position, 0), axis=1)
    rejected = np.take_along_axis(clients_below, run_start, axis=1)
    accepted = n_impostors - (run_start - rejected)
    # Sentinels below and above every score, as on the evaluate_scores grid.
    rows = len(ranked)
    rejected = np.hstack([np.zeros((rows, 1), dtype=int), rejected,
                          np.full((rows, 1), n_clients)])
    accepted = np.hstack([np.full((rows, 1), n_impostors), accepted,
                          np.zeros((rows, 1), dtype=int)])
    grid = np.hstack([ranked[:, :1] - 1.0, ranked, ranked[:, -1:] + 1.0])
    value, _ = _crossing(grid, accepted / n_impostors, rejected / n_clients)
    min_error = (accepted + rejected).min(axis=1) / (n_clients + n_impostors)
    return value, min_error


@dataclass(frozen=True)
class EvalReport:
    """FAR/FRR curves over a shared threshold grid, EER, and ROC points."""

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

    def error_rate_at(self, threshold: float) -> float:
        """Exact total error rate at an arbitrary threshold.

        Read at the first grid point >= ``threshold``: no score lies between
        the two, so the counts are those at ``threshold``; above the top
        score the top sentinel (everything rejected) stands for it.
        """
        _require_threshold(threshold)
        k = min(int(np.searchsorted(self.thresholds, threshold)), self.thresholds.size - 1)
        return float(self._errors(k)) / (self.n_clients + self.n_impostors)

    def min_error_rate(self) -> tuple[float, float]:
        """Smallest total error rate over the grid and a threshold reaching it."""
        counts = self._errors(slice(None))
        k = int(np.argmin(counts))
        total = self.n_clients + self.n_impostors
        return float(counts[k]) / total, float(self.thresholds[k])

    @property
    def roc_points(self) -> np.ndarray:
        """(FAR, 1 - FRR) rows, FAR non-increasing down the rows."""
        return np.column_stack([self.far_curve, 1.0 - self.frr_curve])


def evaluate_scores(fused_clients, fused_impostors) -> EvalReport:
    """Full evaluation of fused scores: curves on the candidate grid + EER.

    Each class is sorted, and the two sorted runs are merged by the stable
    rank of ``sweep_errors``; the grid is the first score of every tied
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
    ranked, clients_below, first = _rank(scores, n_clients)
    del scores
    starts = np.flatnonzero(first[0])
    del first
    size = starts.size + 2
    grid = np.empty(size)
    grid[0], grid[-1] = ranked[0, 0] - 1.0, ranked[0, -1] + 1.0
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
        eer_value, eer_threshold = 0.0, float(highest_impostor + lowest_client) / 2.0
    else:
        value, threshold = _crossing(grid[np.newaxis], far[np.newaxis], frr[np.newaxis])
        eer_value, eer_threshold = float(value[0]), float(threshold[0])
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
    dialect) writes for the ``f"{v:.6g}"`` texts, formatted in blocks by
    ``data.write_rows``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("threshold,far,frr\r\n")
        write_rows(fh, "{:.6g},{:.6g},{:.6g}\r\n",
                   [report.thresholds, report.far_curve, report.frr_curve])
