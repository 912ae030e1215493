"""Verification-error evaluation of fused scores.

Conventions, fixed across the package:

* a sample is accepted at threshold t iff its (fused) score >= t;
* FAR(t) = fraction of impostor scores accepted, FRR(t) = fraction of
  client scores rejected;
* the equal error rate is located by one threshold sweep: the client and
  impostor scores are ranked together by ``_key_sort``, one sort of keys
  carrying each score's class in their low bit (in ``evaluate_scores`` a
  stable merge of the sorted classes, in value-range chunks on one thread
  per CPU above ``_CHUNK_SCORES`` scores; in ``sweep_errors`` and the GA a
  sort of each row; inputs with a negative score as their dense ranks),
  each run of tied scores is one candidate threshold with the error
  counts below its first position, whatever the order inside the run, and
  the FAR/FRR crossing is linearly interpolated between the two adjacent
  candidates where FAR - FRR changes sign (``evaluate_scores`` bisects its
  grid for them).  When the classes are perfectly separated the threshold
  is the gap's midpoint;
* ``EvalReport.far_frr_at`` and ``EvalReport.error_rate_at`` read the
  counts off the curves at the first candidate at or above the threshold;
* ``evaluate_scores`` takes two non-empty score vectors, ``sweep_errors`` two
  (P, N) matrices; other shapes, non-finite scores and NaN thresholds raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import fan_out
from .data import write_table

__all__ = [
    "EvalReport",
    "evaluate_scores",
    "sweep_errors",
    "write_roc_csv",
]

_CHUNK_SCORES = 131_072  # larger evaluate_scores calls merge value-range chunks of about this size
_BLOCK_POINTS = 65_536  # grid points EvalReport.min_error_rate scans at a time


def _as_scores(values, ndim: int, name: str) -> np.ndarray:
    """``values`` as floats, checked: ``ndim`` axes, a non-empty last one, all finite."""
    x = np.asarray(values, dtype=float)
    if x.ndim != ndim or x.shape[-1] == 0:
        raise ValueError(f"{name} scores must be {ndim}-D with a non-empty last axis, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} scores must be finite, got NaN or infinity")
    return x


def _key_sort(scores: np.ndarray, n_clients: int, flags: np.ndarray, kind=None) -> None:
    """Rank scores >= 0 along the last axis, clients (the first ``n_clients``) first, in place.

    The keys are the scores' bits shifted left one bit, the low bit set
    from column ``n_clients`` on.  Scores >= 0 order as their bits do and
    the shift drops the sign of -0.0, so the sorted keys give the ranked
    scores (shifted back) and their classes, whichever sort numpy picks.
    ``flags`` (all positions but the last) receives the impostors ranked
    at or below each position: a running count of the low bits.
    """
    keys = scores.view(np.uint64)
    keys <<= np.uint64(1)
    keys[..., n_clients:] |= np.uint64(1)
    keys.sort(axis=-1, kind=kind)
    np.bitwise_and(keys[..., :-1], np.uint64(1), out=flags)
    flags.cumsum(axis=-1, out=flags)
    keys >>= np.uint64(1)


def sweep_errors(fused_clients, fused_impostors) -> tuple[np.ndarray, np.ndarray]:
    """EER and minimum total error rate of each row of (P, Nc) / (P, Ni) scores.

    Row p equals ``evaluate_scores(fused_clients[p], fused_impostors[p])``'s
    ``eer`` and ``min_error_rate()[0]`` exactly: ``_Sweep``, the GA's sweep,
    ranks each row's scores once and reads the same integer error counts
    on the same candidate thresholds, at the run starts only.  Its keys
    order only scores >= 0, and the sweep reads only the order and the
    ties, so a matrix holding a negative score is swept as its dense ranks.
    Memory is O(P * (Nc + Ni)).  Rows of Nc * Ni >= 2**53 score pairs are
    refused (``ValueError``).
    """
    clients = _as_scores(fused_clients, 2, "client")
    impostors = _as_scores(fused_impostors, 2, "impostor")
    if len(clients) != len(impostors):
        raise ValueError(f"{len(clients)} client score rows but {len(impostors)} impostor rows")
    sweep = _Sweep(len(clients), clients.shape[1], impostors.shape[1])
    scores = np.concatenate([clients, impostors], axis=1, out=sweep.scores[:, :-1])
    if scores.size and scores.min() < 0.0:  # numpy 2.0.0 shapes the inverse like the matrix
        scores[...] = np.unique(scores, return_inverse=True)[1].reshape(scores.shape)
    return sweep()


class _Sweep:
    """The threshold sweep of P rows of Nc client and Ni impostor scores, and its buffers.

    The caller writes the rows' scores, clients first, all >= 0, into
    ``scores[:, :-1]``; a call ranks each (unsorted) row by ``_key_sort``
    with numpy's default sort and returns new (P,) arrays of their EERs and
    minimum error rates.  Only the constructor writes the last column, the
    +inf sentinel, which keys as an impostor: the grid's top run start (all
    clients rejected, no impostor accepted).  The buffers (the scores, the
    impostor counts, the run-start flags and the bracket's 2P indices) are
    built once; a call allocates the (P, Nc + Ni + 1) integer counts
    (accepted, clients below and their two products), the crossing mask
    and arrays of P or 2P entries.  Not reentrant.

    The crossing is tested on the integer counts: FAR - FRR > 0 exactly when
    accepted * Nc > clients_below * Ni, as the rates are the counts divided
    by Ni and Nc, rounded.  Two different fractions of those denominators
    lie at least 1 / (Nc * Ni) apart, more than the float spacing in
    [0, 1] while Nc * Ni < 2^53, so rounding keeps their order; the
    products are then exact in int64 too.  Larger sweeps are refused.
    """

    def __init__(self, rows: int, n_clients: int, n_impostors: int):
        if n_clients * n_impostors >= 2 ** 53:
            raise ValueError(f"a sweep of {n_clients} client and {n_impostors} impostor "
                             f"scores per row exceeds 2**53 score pairs")
        size = n_clients + n_impostors + 1
        self.n_clients, self.n_impostors = n_clients, n_impostors
        self.scores = np.empty((rows, size))
        self.scores[:, -1] = np.inf
        self._ramp = np.arange(size)
        self._offsets = np.arange(0, rows * size, size)
        self._row_ends = self._offsets + (size - 1)
        # Impostors ranked strictly below each position: _key_sort's flags, one column right.
        self._below = np.zeros((rows, size), np.int64)
        self._flags = self._below.view(np.uint64)[:, 1:]
        self._first = np.empty((rows, size), bool)
        self._first[:, 0] = True
        self._bracket = np.empty((2, rows), np.intp)

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        ranked, below, first, bracket = self.scores, self._below, self._first, self._bracket
        n_clients, n_impostors = self.n_clients, self.n_impostors
        _key_sort(ranked, n_clients, self._flags)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
        # Counts at every position; the bracket reads them at the run starts.
        accepted = n_impostors - below
        clients_below = self._ramp - below
        # The last run start where FAR - FRR > 0 (lo) and the first where it is
        # <= 0 (hi), scanned: over P rows of a few dozen points a bisection is slower.
        mask = accepted * n_clients > clients_below * n_impostors
        np.greater(first, mask, out=mask)  # first & ~mask: the run starts at or past the crossing
        lo, hi = bracket[0], bracket[1]  # flat indices into the (P, Nc + Ni + 1) arrays
        mask.argmax(axis=1, out=hi)
        np.add(hi, self._offsets, out=hi)
        np.greater(first, mask, out=mask)  # the run starts before it
        mask[:, ::-1].argmax(axis=1, out=lo)
        np.subtract(self._row_ends, lo, out=lo)
        # FAR and FRR at the 2P bracket points only.
        far = accepted.take(bracket) / n_impostors
        diff = far - clients_below.take(bracket) / n_clients
        far0, far1, d0, d1 = far[0], far[1], diff[0], diff[1]
        value = np.where(d1 == 0.0, far1, far0 + d0 / (d0 - d1) * (far1 - far0))  # as in _eer
        # Inside a run of ties the clients rank first: the errors climb by one
        # per client, then fall by one per impostor to the next run start.  So
        # no position holds fewer errors than every run start, and all are read.
        accepted += clients_below
        return value, accepted.min(axis=1) / (n_clients + n_impostors)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """FAR/FRR curves over a shared threshold grid and the EER; equal only to itself."""

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
        """Smallest total error rate over the grid and the first threshold reaching it.

        The grid is scanned ``_BLOCK_POINTS`` points at a time, so no
        temporary grows with it.
        """
        best, k = math.inf, 0
        for start in range(0, self.thresholds.size, _BLOCK_POINTS):
            counts = self._errors(slice(start, start + _BLOCK_POINTS))
            j = int(counts.argmin())
            if counts[j] < best:
                best, k = float(counts[j]), start + j
        return best / (self.n_clients + self.n_impostors), float(self.thresholds[k])


def _write_runs(scores: np.ndarray, n_clients: int, curves, at: int, clients_before: int,
                totals: tuple[int, int]):
    """Rank presorted client and impostor halves in place and write their runs to the curves.

    ``scores`` holds a piece's clients, sorted, then its impostors, sorted,
    all >= 0; ``_key_sort``'s stable sort merges the two runs of keys.
    ``clients_before`` clients and ``at - 1`` scores of the whole evaluation
    (``totals``: clients, impostors) rank below the piece.  Column ``at + j``
    of the (3, size) ``curves`` receives the threshold, FAR and FRR of the
    piece's j-th run.  ``curves=None`` makes the piece the whole evaluation:
    it gets curves of its own size, a sentinel column at each end.  Returns
    the curves and the number of runs.
    """
    below = np.zeros(scores.size, np.int64)  # impostors ranked strictly below each position
    _key_sort(scores, n_clients, below.view(np.uint64)[1:], kind="stable")
    starts = np.flatnonzero(np.concatenate([[True], scores[1:] != scores[:-1]]))
    if curves is None:
        curves = np.empty((3, starts.size + 2))
    grid, far, frr = curves[:, at:at + starts.size]
    np.take(scores, starts, out=grid, mode="clip")  # "raise" would buffer the output
    del scores  # a chunk's own copy: freed before the next chunk-sized array
    below = below.take(starts)
    # Counts up to 2**53 are exact in floats, so each rate has the bits of count / total.
    np.subtract(starts, below, out=frr)
    frr += clients_before
    below += at - 1 - clients_before
    np.subtract(totals[1], below, out=far)
    far /= totals[1]
    frr /= totals[0]
    return curves, starts.size


def _chunked_runs(scores: np.ndarray, totals: tuple[int, int]):
    """``_write_runs`` of presorted halves cut into value-range chunks, one thread per CPU.

    The pivots are every 64th value of a sample taken every
    ``_CHUNK_SCORES // 64`` positions of each half, so they lie about
    ``_CHUNK_SCORES`` scores apart.  Each cut puts the scores equal to its
    pivot above it, so no run of ties crosses a cut and each chunk's first
    score starts a run of the whole grid.  Each chunk writes its runs at its
    rank in curves sized for the worst case, every score a run; where ties
    left gaps the runs then move down.  Returns the curves.
    """
    n_clients = totals[0]
    clients, impostors = scores[:n_clients], scores[n_clients:]
    step = max(_CHUNK_SCORES // 64, 1)
    sample = np.sort(np.concatenate([clients[::step], impostors[::step]]))
    every = _CHUNK_SCORES // step
    picks = sample[every::every]
    # Each distinct pick above sample[0], the lowest score: nothing lies below it.
    pivots = picks[picks > np.concatenate([sample[:1], picks[:-1]])]
    client_cuts = np.concatenate([[0], np.searchsorted(clients, pivots), [n_clients]])
    impostor_cuts = np.concatenate([[0], np.searchsorted(impostors, pivots), [totals[1]]])
    curves = np.empty((3, scores.size + 2))

    def rank_chunk(k: int) -> int:
        c0, c1 = client_cuts[k:k + 2]
        i0, i1 = impostor_cuts[k:k + 2]
        # The chunk's copy goes straight to _write_runs, which drops it once ranked.
        return _write_runs(np.concatenate([clients[c0:c1], impostors[i0:i1]]), c1 - c0,
                           curves, 1 + c0 + i0, c0, totals)[1]

    runs = fan_out(rank_chunk, range(len(pivots) + 1))
    firsts = np.cumsum([1] + runs)  # the grid index of each chunk's first run
    for k, count in enumerate(runs):
        at = 1 + client_cuts[k] + impostor_cuts[k]
        if at != firsts[k]:
            curves[:, firsts[k]:firsts[k + 1]] = curves[:, at:at + count]
    if firsts[-1] + 1 < curves.shape[1]:
        curves = curves[:, :firsts[-1] + 1].copy()
    return curves


def _eer(grid: np.ndarray, far: np.ndarray, frr: np.ndarray) -> tuple[float, float]:
    """The EER and its threshold, at the FAR/FRR crossing of a grid's curves.

    FAR - FRR never rises along the grid (FAR never rises, FRR never falls,
    and rounding is monotone), from +1 at the bottom sentinel to -1 at the
    top, so a bisection finds ``lo``, the last point where it is > 0.  If it
    is 0 at ``hi = lo + 1``, that point is the crossing, unless FAR is 0
    there too: then the classes are separated, the EER is 0 and the threshold
    the gap's midpoint.  Otherwise both are linear from ``lo`` to ``hi``.
    """
    lo, hi = 0, grid.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if far[mid] - frr[mid] > 0.0:
            lo = mid
        else:
            hi = mid
    below, above = float(grid[lo]), float(grid[hi])
    far0, far1 = float(far[lo]), float(far[hi])
    d0, d1 = far0 - float(frr[lo]), far1 - float(frr[hi])
    # Python floats overflow to ±inf without a warning; the midpoint and the
    # threshold then take forms that stay finite.
    if d1 == 0.0 and far1 == 0.0:
        middle = (below + above) / 2.0
        return 0.0, below / 2.0 + above / 2.0 if math.isinf(middle) else middle
    if d1 == 0.0:
        return far1, above
    t = d0 / (d0 - d1)
    span = above - below
    threshold = below + t * span if span != math.inf else below * (1.0 - t) + above * t
    return far0 + t * (far1 - far0), threshold


def evaluate_scores(fused_clients, fused_impostors) -> EvalReport:
    """Full evaluation of fused scores: curves on the candidate grid + EER.

    Each class is sorted, and ``_write_runs`` merges the two sorted runs
    by ``_key_sort``; the grid is the first score of every tied run,
    between a sentinel below and one above every score.  Above
    ``_CHUNK_SCORES`` scores the two sorts, and then the merges of
    value-range chunks (``_chunked_runs``), run on one thread per CPU, with
    the same bits for any CPU count.  Scores holding a negative one are
    swept as their dense ranks, and the grid maps back to the scores.  A
    score of -0.0 reads as 0.0.  ``_eer`` bisects the grid for the EER and
    its threshold; when the classes are perfectly separated the EER is 0
    and its threshold the midpoint of the separating gap.
    """
    # Each intermediate is dropped once used: at a million scores they, not
    # the returned curves, would set the peak memory.
    clients = _as_scores(fused_clients, 1, "client")
    impostors = _as_scores(fused_impostors, 1, "impostor")
    totals = n_clients, n_impostors = clients.size, impostors.size
    scores = np.concatenate([clients, impostors])
    del clients, impostors
    halves = scores[:n_clients], scores[n_clients:]
    if scores.size <= _CHUNK_SCORES:
        for half in halves:
            half.sort()
    else:
        fan_out(np.ndarray.sort, halves)
    values = None
    if min(halves[0][0], halves[1][0]) < 0.0:
        values, scores = np.unique(scores, return_inverse=True)
        values += 0.0  # np.unique keeps either zero of a tie: -0.0 reads as 0.0
        scores = scores.astype(float)  # each half stays sorted
    del halves
    if scores.size <= _CHUNK_SCORES:
        curves = _write_runs(scores, n_clients, None, 1, 0, totals)[0]
    else:
        curves = _chunked_runs(scores, totals)
    del scores
    if values is not None:
        np.take(values, curves[0, 1:-1].astype(np.intp), out=curves[0, 1:-1])
    low, top = float(curves[0, 1]), float(curves[0, -2])
    # Past 2**53, ±1 rounds back onto the score; np.nextafter warns where it reaches ±inf.
    curves[:, 0] = (low - 1.0 if low - 1.0 != low else math.nextafter(low, -math.inf), 1.0, 0.0)
    curves[:, -1] = (top + 1.0 if top + 1.0 != top else math.nextafter(top, math.inf), 0.0, 1.0)
    curves.flags.writeable = False
    grid, far, frr = curves
    eer_value, eer_threshold = _eer(grid, far, frr)
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
