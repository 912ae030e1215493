"""Score normalization and verification-error evaluation.

Conventions, fixed across the package:

* a sample is accepted at threshold t iff its (fused) score >= t;
* FAR(t) = fraction of impostor scores accepted, FRR(t) = fraction of
  client scores rejected;
* the equal error rate is located by sweeping the sorted union of all
  observed scores as candidate thresholds and linearly interpolating the
  FAR/FRR crossing between the two adjacent candidates where FAR - FRR
  changes sign.  When the classes are perfectly separated the reported
  threshold is the midpoint of the separating gap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EvalReport",
    "LabeledScoreSet",
    "eer",
    "error_rate_at",
    "evaluate_scores",
    "far_frr",
    "normalize_minmax",
    "sweep_errors",
    "write_roc_csv",
]


def normalize_minmax(raw) -> np.ndarray:
    """Affinely map values onto [0, 1]: x -> (x - min) / (max - min).

    A degenerate input (max == min) maps everything to 0.5 rather than
    erroring out, so batch pipelines survive constant columns.
    """
    x = np.asarray(raw, dtype=float)
    if x.size == 0:
        raise ValueError("cannot normalize an empty list")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot normalize non-finite values")
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def _as_scores(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError(f"{name} scores must not be empty")
    return x


def far_frr(fused_clients, fused_impostors, threshold: float) -> tuple[float, float]:
    """(FAR, FRR) at one decision threshold, accepting scores >= threshold."""
    clients = _as_scores(fused_clients, "client")
    impostors = _as_scores(fused_impostors, "impostor")
    far = float(np.count_nonzero(impostors >= threshold)) / impostors.size
    frr = float(np.count_nonzero(clients < threshold)) / clients.size
    return far, frr


def error_rate_at(fused_clients, fused_impostors, threshold: float) -> float:
    """Total error rate: (false accepts + false rejects) / all samples."""
    clients = _as_scores(fused_clients, "client")
    impostors = _as_scores(fused_impostors, "impostor")
    fa = int(np.count_nonzero(impostors >= threshold))
    fr = int(np.count_nonzero(clients < threshold))
    return (fa + fr) / (clients.size + impostors.size)


def _threshold_grid(clients: np.ndarray, impostors: np.ndarray) -> np.ndarray:
    """Candidate thresholds: sorted unique scores plus below/above sentinels."""
    cand = np.unique(np.concatenate([clients, impostors]))
    return np.concatenate([[cand[0] - 1.0], cand, [cand[-1] + 1.0]])


def _curves(clients: np.ndarray, impostors: np.ndarray, grid: np.ndarray):
    """FAR and FRR on the grid; ``clients`` and ``impostors`` sorted ascending."""
    frr = np.searchsorted(clients, grid, side="left") / clients.size
    far = (impostors.size - np.searchsorted(impostors, grid, side="left")) / impostors.size
    return far, frr


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
    order = np.argsort(scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=1)
    is_client = order < n_clients
    clients_below = np.cumsum(is_client, axis=1) - is_client
    # A run of tied scores is one candidate threshold: every position takes
    # the counts below the run's first position.
    position = np.arange(scores.shape[1])
    first = np.empty(ranked.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    run_start = np.maximum.accumulate(np.where(first, position, 0), axis=1)
    rejected = np.take_along_axis(clients_below, run_start, axis=1)
    accepted = n_impostors - (run_start - rejected)
    # Sentinels below and above every score, as on the evaluate_scores grid.
    rows = len(scores)
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
    _clients: np.ndarray = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    _impostors: np.ndarray = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def error_rate_at(self, threshold: float) -> float:
        """Exact total error rate at an arbitrary threshold."""
        return error_rate_at(self._clients, self._impostors, threshold)

    def min_error_rate(self) -> tuple[float, float]:
        """Smallest total error rate over the grid and a threshold reaching it."""
        # The true counts are integers; rint clears the rate-to-count rounding.
        counts = np.rint(self.far_curve * self.n_impostors
                         + self.frr_curve * self.n_clients)
        k = int(np.argmin(counts))
        total = self.n_clients + self.n_impostors
        return float(counts[k]) / total, float(self.thresholds[k])

    @property
    def roc_points(self) -> np.ndarray:
        """(FAR, 1 - FRR) rows, FAR non-increasing down the rows."""
        return np.column_stack([self.far_curve, 1.0 - self.frr_curve])


def evaluate_scores(fused_clients, fused_impostors) -> EvalReport:
    """Full evaluation of fused scores: curves on the candidate grid + EER.

    When the classes are perfectly separated the EER is 0 and its
    threshold the midpoint of the separating gap.
    """
    clients = np.sort(_as_scores(fused_clients, "client"))
    impostors = np.sort(_as_scores(fused_impostors, "impostor"))
    grid = _threshold_grid(clients, impostors)
    far, frr = _curves(clients, impostors, grid)
    if clients[0] > impostors[-1]:
        eer_value, eer_threshold = 0.0, float(impostors[-1] + clients[0]) / 2.0
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
        n_clients=clients.size,
        n_impostors=impostors.size,
        _clients=clients,
        _impostors=impostors,
    )


# One ROC row as csv.writer writes it: the "excel" dialect ends rows with
# \r\n and quotes none of these fields.
_ROC_ROW = "{:.6g},{:.6g},{:.6g}\r\n"
_ROC_BLOCK_ROWS = 8192


def write_roc_csv(report: EvalReport, path) -> None:
    """Write the threshold/FAR/FRR series as CSV (6 significant digits).

    Rows are formatted and written ``_ROC_BLOCK_ROWS`` at a time, so no
    Python object is kept per row.
    """
    columns = [np.asarray(c, dtype=float)
               for c in (report.thresholds, report.far_curve, report.frr_curve)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("threshold,far,frr\r\n")
        for start in range(0, len(columns[0]), _ROC_BLOCK_ROWS):
            block = [c[start:start + _ROC_BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join(map(_ROC_ROW.format, *block)))


@dataclass(frozen=True)
class LabeledScoreSet:
    """Client and impostor score vectors: the fusion/evaluation substrate.

    Score matrices are one row per person, one column per modality, all
    values already normalized into [0, 1].  Person ids are unique across
    both classes.  Instances are immutable and safe to share.
    """

    client_ids: tuple[str, ...]
    client_scores: np.ndarray
    impostor_ids: tuple[str, ...]
    impostor_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "client_ids", tuple(str(i) for i in self.client_ids))
        object.__setattr__(self, "impostor_ids", tuple(str(i) for i in self.impostor_ids))
        cs = np.array(self.client_scores, dtype=float)
        imp = np.array(self.impostor_scores, dtype=float)
        for name, ids, arr in (("client", self.client_ids, cs),
                               ("impostor", self.impostor_ids, imp)):
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise ValueError(f"{name} scores must be a non-empty matrix")
            if arr.shape[0] != len(ids):
                raise ValueError(f"{len(ids)} {name} ids for {arr.shape[0]} score rows")
            if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} scores must lie in [0, 1]")
        if cs.shape[1] != imp.shape[1]:
            raise ValueError(
                f"clients have {cs.shape[1]} modalities, impostors {imp.shape[1]}"
            )
        all_ids = self.client_ids + self.impostor_ids
        if len(set(all_ids)) != len(all_ids):
            dupes = sorted(i for i, count in Counter(all_ids).items() if count > 1)
            raise ValueError(f"duplicate person ids: {dupes}")
        cs.flags.writeable = False
        imp.flags.writeable = False
        object.__setattr__(self, "client_scores", cs)
        object.__setattr__(self, "impostor_scores", imp)

    @property
    def n_modalities(self) -> int:
        return int(self.client_scores.shape[1])

    @property
    def clients(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self.client_ids, self.client_scores))

    @property
    def impostors(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self.impostor_ids, self.impostor_scores))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledScoreSet):
            return NotImplemented
        return (
            self.client_ids == other.client_ids
            and self.impostor_ids == other.impostor_ids
            and np.array_equal(self.client_scores, other.client_scores)
            and np.array_equal(self.impostor_scores, other.impostor_scores)
        )
