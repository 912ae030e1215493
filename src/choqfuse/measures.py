"""Sugeno lambda-fuzzy measures over small criteria sets.

A fuzzy measure assigns a weight in [0, 1] to every subset of criteria,
is monotone under inclusion, and is pinned to 0 on the empty set and 1 on
the full set.  The Sugeno lambda family is fully determined by the
per-criterion singleton densities m_i together with the unique parameter
lambda > -1 solving

    lambda + 1 = prod_i (1 + lambda * m_i)

after which any two disjoint subsets combine as

    m(A | B) = m(A) + m(B) + lambda * m(A) * m(B)

When the densities sum to exactly 1 the measure is additive (lambda = 0).
A density sum below 1 forces lambda > 0 (super-additive interaction), a
sum above 1 forces -1 < lambda < 0 (sub-additive, redundant criteria).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ConvergenceError",
    "LambdaMeasure",
    "MeasureViolation",
    "TableMeasure",
    "lambda_tables",
    "solve_lambda",
    "solve_lambda_batch",
    "validate_measure",
]

# |sum(m_i) - 1| at or below this is treated as exactly additive (lambda = 0).
ADDITIVE_TOL = 1e-12
# Residual |f(lambda)| the solved root must satisfy.
ROOT_RESIDUAL_TOL = 1e-10
# Iteration budget of the root solver.  From the quadratic start Newton
# converges in one step for n <= 3 (the start is the exact root) and
# typically in under 10 for n > 3; rows with n >= 8 and lambda near -1, and
# extreme roots (densities at the 1e-6 clamp bounds, n <= 16), took at most
# 32 with bisection steps mixed in.
_MAX_ITER = 200
_EPS = np.finfo(float).eps
# Boundary check tolerances for measures (empty/full set, monotonicity).
BOUNDARY_TOL = 1e-9
MONOTONE_TOL = 1e-12
# Power-set tables are precomputed up to this criterion count (2^16 floats);
# larger measures evaluate subsets on demand.
_TABLE_MAX_N = 16


class ConvergenceError(RuntimeError):
    """Root refinement failed to meet its residual contract.

    Signals a solver bug or a numerically degenerate input, not a user error.
    """


def _as_density_matrix(densities) -> np.ndarray:
    """Validate a (P, n) array of density rows, n >= 2, every entry in (0, 1)."""
    d = np.array(densities, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"expected a (P, n) array of density rows, got shape {d.shape}")
    if d.shape[1] < 2:
        raise ValueError(f"need at least 2 densities, got {d.shape[1]}")
    bad = np.argwhere(~((d > 0.0) & (d < 1.0)))
    if bad.size:
        row, i = bad[0]
        where = f" of row {row}" if len(d) > 1 else ""
        raise ValueError(
            f"density {i}{where} is {float(d[row, i])!r}; singleton densities "
            f"must lie strictly inside (0, 1)"
        )
    return d


def _as_densities(densities: Iterable[float]) -> tuple[float, ...]:
    """One validated density vector as a tuple of floats."""
    return tuple(_as_density_matrix([[float(v) for v in densities]])[0].tolist())


def _residual(d: np.ndarray, lam: np.ndarray):
    """Per row: g(lambda), dg/dlambda and an estimate of the rounding error of g.

    g(lambda) = [prod(1 + lambda*m_i) - lambda - 1] / lambda has the same
    nonzero root as the raw residual but stays numerically resolvable where
    the raw form cancels to noise: g -> sum(m_i) - 1 as lambda -> 0, and
    g -> -prod(1 - m_i) as lambda -> -1.  The product is evaluated through
    log1p/expm1 to keep those limits exact.  g increases through its root on
    both search branches (it is the slope of the convex raw residual's
    secant through 0).  Every operation is elementwise or row-wise, so a
    row's values do not depend on the other rows.
    """
    scaled = lam[:, None] * d
    log_prod = np.log1p(scaled).sum(axis=1)
    prod = np.exp(log_prod)
    big = np.abs(lam) >= 0.5
    # Far from zero prod and (1 + lam) are far apart, and direct subtraction
    # survives prod -> 0; near zero expm1 keeps the relative precision of
    # prod - 1.
    g = np.where(big, (prod - (1.0 + lam)) / lam, np.expm1(log_prod) / lam - 1.0)
    slope = (prod * (d / (1.0 + scaled)).sum(axis=1) - 1.0 - g) / lam
    spread = np.where(
        big,
        (prod * (1.0 + np.abs(log_prod)) + np.abs(1.0 + lam)) / np.abs(lam),
        1.0 + np.abs(g + 1.0) + prod * np.abs(log_prod / lam),
    )
    return g, slope, (d.shape[1] + 3) * _EPS * spread


def _solve(d: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on g over validated density rows; see solve_lambda_batch."""
    total = d.sum(axis=1)
    roots = np.zeros(len(d))
    rows = np.flatnonzero(np.abs(total - 1.0) > ADDITIVE_TOL)
    if rows.size == 0:
        return roots
    d, total = d[rows], total[rows]
    # g(lam) = c + e2*lam + e3*lam^2 + ... + e_n*lam^(n-1) with c = sum(m_i) - 1
    # and e_k the k-th elementary symmetric sum of the densities.  For lam > 0
    # every term past the linear one is positive, so the positive root lies
    # in (0, -c / e2]; a negative root lies in (-1, 0).  Newton starts at the
    # root of the quadratic truncation c + e2*lam + e3*lam^2, written in the
    # cancellation-free form: the exact root for n <= 3 (e3 = 0 for n = 2),
    # and for n > 3 a tighter upper bound than -c / e2 on the positive side.
    # On the negative side it is only a guess; outside (-1, 0) the start is
    # the linear estimate, no lower than -0.5.
    pairs = np.cumsum(d, axis=1)[:, :-1] * d[:, 1:]
    e2 = pairs.sum(axis=1)
    e3 = (np.cumsum(pairs, axis=1)[:, :-1] * d[:, 2:]).sum(axis=1)
    c = total - 1.0
    linear = -c / e2
    quadratic = -2.0 * c / (e2 + np.sqrt(np.maximum(e2 * e2 - 4.0 * e3 * c, 0.0)))
    positive = c < 0.0
    lo = np.where(positive, 0.0, -1.0)
    hi = np.where(positive, linear, 0.0)
    inside = (quadratic > -1.0) & (quadratic < 0.0)
    x = np.where(positive | inside, quadratic, np.maximum(linear, -0.5))
    last_step = hi - lo
    done = np.zeros(len(d), dtype=bool)
    for _ in range(_MAX_ITER):
        g, slope, noise = _residual(d, x)
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        newton = x - g / slope
        newton_step = np.abs(newton - x)
        # Newton while it stays inside the bracket and at least halves the
        # previous step; bisection otherwise.
        take = (newton > lo) & (newton < hi) & (newton_step <= 0.5 * last_step)
        step_to = np.where(take, newton, 0.5 * (lo + hi))
        last_step = np.abs(step_to - x)
        # Converged once the Newton step is below 2^-30 |x| (quadratic
        # convergence leaves an error far below one ulp after it) or g is
        # within its rounding error (its sign is noise).
        converged = (newton_step <= 2.0 ** -30 * np.abs(x)) | (np.abs(g) <= noise) | (step_to == x)
        # Finished rows stay frozen, so no row depends on the others.
        x = np.where(done, x, np.where(converged, newton, step_to))
        done |= converged
        if done.all():
            break
    # A root within one ulp of -1 can land on -1, where the measure is
    # undefined; the next float above stands for it.
    x = np.maximum(x, np.nextafter(-1.0, 0.0))

    # Contract check on the raw residual f = lambda * g.  For extreme roots
    # (|lambda| >> 1) evaluation noise alone moves f by tens of ulps of
    # lambda, so a scale-proportional band is accepted as the best possible
    # there; it stays below the absolute tolerance for every |lambda| < ~2000.
    residual = np.abs(x * _residual(d, x)[0])
    failed = (residual > ROOT_RESIDUAL_TOL) & (residual > 64.0 * np.abs(x) * 2.3e-16 * d.shape[1])
    if failed.any() or not np.all(np.isfinite(x)):
        k = int(np.argmax(failed | ~np.isfinite(x)))
        raise ConvergenceError(
            f"root residual {residual[k]:.3e} exceeds {ROOT_RESIDUAL_TOL} at "
            f"lambda={float(x[k])!r} (densities sum to {float(total[k])})"
        )
    roots[rows] = x
    return roots


def solve_lambda_batch(densities) -> np.ndarray:
    """Solve ``lambda + 1 = prod(1 + lambda * m_i)`` for every row of a (P, n) array.

    Per row, returns the unique root greater than -1 and distinct from the
    trivial root 0, except that density sums within ``ADDITIVE_TOL`` of 1
    give exactly 0.0 (additive measure).  The root lies on the side dictated
    by the density sum (positive when the sum is below 1, inside (-1, 0)
    when above); it is found by Newton steps on the lambda-normalized
    residual, safeguarded by bisection of that bracket.  Newton starts at
    the root of the equation's quadratic truncation: the exact root for
    n <= 3, so one step converges, and an upper bound of a positive root
    for n > 3.  Rows are solved independently: a row's root does not depend
    on the other rows.

    Raises ``ValueError`` for rows of fewer than two densities or densities
    outside (0, 1), and ``ConvergenceError`` if a root misses the residual
    contract.
    """
    return _solve(_as_density_matrix(densities))


def solve_lambda(densities: Iterable[float]) -> float:
    """Solve ``lambda + 1 = prod(1 + lambda * m_i)`` for one density vector.

    The one-row case of ``solve_lambda_batch``, with the same contract.
    """
    return float(_solve(np.array([_as_densities(densities)]))[0])


def lambda_tables(densities, lams=None) -> np.ndarray:
    """Power-set tables of the lambda-measures of a (P, n) density array.

    Row p, column ``mask`` holds the measure of the criteria subset
    ``mask``.  ``lams`` defaults to ``solve_lambda_batch(densities)``.  The
    table is built by doubling: each subset adds its highest criterion last,
    ``t[A + {i}] = t[A] + m_i + lambda * t[A] * m_i``, so with lambda = 0 an
    entry is the plain left-to-right sum of its densities.  The full set is
    checked against 1 (``ConvergenceError`` beyond ``BOUNDARY_TOL``) and
    snapped to exactly 1; every entry is clipped into [0, 1].
    """
    d = _as_density_matrix(densities)
    p, n = d.shape
    if n > _TABLE_MAX_N:
        raise ValueError(f"power-set tables support at most {_TABLE_MAX_N} criteria, got {n}")
    lam = (_solve(d) if lams is None else np.asarray(lams, dtype=float))[:, None]
    table = np.empty((p, 1 << n))
    table[:, 0] = 0.0
    for i in range(n):
        below, m = table[:, : 1 << i], d[:, i : i + 1]
        table[:, 1 << i : 2 << i] = below + m + lam * below * m
    full = table[:, -1]
    off = np.abs(full - 1.0) > BOUNDARY_TOL
    if off.any():
        raise ConvergenceError(
            f"full-set measure {float(full[np.argmax(off)])!r} deviates from 1 "
            f"beyond {BOUNDARY_TOL}"
        )
    # Snap the normalization boundary exactly; everything else is within
    # one rounding of the lambda recursion.
    table[:, -1] = 1.0
    np.clip(table, 0.0, 1.0, out=table)
    return table


def _combine(a: float, b: float, lam: float) -> float:
    return a + b + lam * a * b


def _subset_mask(subset: Iterable[int] | int, n: int) -> int:
    """Normalize a subset given as an index iterable or a bitmask."""
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0 or mask >= (1 << n):
            raise IndexError(f"bitmask {mask} out of range for {n} criteria")
        return mask
    mask = 0
    for idx in subset:
        i = int(idx)
        if not 0 <= i < n:
            raise IndexError(f"criterion index {i} out of range for n={n}")
        mask |= 1 << i
    return mask


@dataclass(frozen=True)
class LambdaMeasure:
    """A Sugeno lambda-measure: singleton densities plus the solved lambda.

    Instances are immutable and safe to share across threads.  For up to
    16 criteria the full power-set table is precomputed at construction so
    subset queries are array lookups.
    """

    densities: tuple[float, ...]
    lam: float = None  # type: ignore[assignment]  # solved in __post_init__
    _table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        densities = _as_densities(self.densities)
        object.__setattr__(self, "densities", densities)
        # One consistency rule, as in lambda_tables: the full set measures 1
        # within BOUNDARY_TOL.  A solved lambda that misses it is a solver
        # failure, a supplied one a caller error.
        if self.lam is None:
            object.__setattr__(self, "lam", solve_lambda(densities))
            error = ConvergenceError
        else:
            lam = float(self.lam)
            if lam <= -1.0:
                raise ValueError(f"lambda must exceed -1, got {lam}")
            object.__setattr__(self, "lam", lam)
            error = ValueError
        full = 0.0
        for m in densities:
            full = _combine(full, m, self.lam)
        if not abs(full - 1.0) <= BOUNDARY_TOL:
            raise error(
                f"lambda {self.lam!r} gives the full set the measure {full!r}, "
                f"not 1 within {BOUNDARY_TOL}"
            )
        if self.n <= _TABLE_MAX_N:
            table = lambda_tables([densities], [self.lam])[0]
            table.flags.writeable = False
            object.__setattr__(self, "_table", table)

    @property
    def n(self) -> int:
        return len(self.densities)

    def dense_table(self) -> np.ndarray | None:
        """Power-set table indexed by bitmask, or None above 16 criteria."""
        return self._table

    def value_of(self, subset: Iterable[int] | int) -> float:
        """Measure of a criteria subset (index iterable or bitmask)."""
        mask = _subset_mask(subset, self.n)
        if self._table is not None:
            return float(self._table[mask])
        value = 0.0
        for i in range(self.n):
            if mask >> i & 1:
                value = _combine(value, self.densities[i], self.lam)
        return min(max(value, 0.0), 1.0) if mask != (1 << self.n) - 1 else 1.0


@dataclass(frozen=True)
class TableMeasure:
    """A fuzzy measure given by an explicit power-set table.

    Covers measures outside the Sugeno family (e.g. the max- and
    min-degenerate measures).  Construction validates the boundary and
    monotonicity conditions.
    """

    values: Mapping[frozenset[int] | tuple[int, ...] | int, float]
    _table: np.ndarray = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _n: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        n, table = _dense_from_mapping(self.values)
        violations = validate_measure(self.values)
        if violations:
            raise ValueError(
                "invalid fuzzy measure: " + "; ".join(str(v) for v in violations)
            )
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "values", dict(self.values))

    @property
    def n(self) -> int:
        return self._n

    def dense_table(self) -> np.ndarray:
        return self._table

    def value_of(self, subset: Iterable[int] | int) -> float:
        return float(self._table[_subset_mask(subset, self.n)])


@dataclass(frozen=True)
class MeasureViolation:
    """One broken measure condition, naming the offending subset pair."""

    kind: str  # "empty", "full", or "monotonicity"
    subset: frozenset[int]
    superset: frozenset[int] | None
    detail: str

    def __str__(self) -> str:
        return self.detail


def _key_to_mask(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key)
    mask = 0
    for idx in key:
        mask |= 1 << int(idx)
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _dense_from_mapping(values: Mapping) -> tuple[int, np.ndarray]:
    by_mask: dict[int, float] = {}
    union = 0
    for key, val in values.items():
        mask = _key_to_mask(key)
        if mask < 0:
            raise ValueError(f"negative subset mask {mask}")
        by_mask[mask] = float(val)
        union |= mask
    n = union.bit_length()
    if n < 1:
        raise ValueError("measure table has no non-empty subset")
    if n > 12:
        raise ValueError(f"explicit tables support at most 12 criteria, got {n}")
    missing = [m for m in range(1 << n) if m not in by_mask]
    if missing:
        raise ValueError(
            f"measure table is missing {len(missing)} of {1 << n} subsets, "
            f"e.g. {sorted(_mask_to_set(missing[0]))}"
        )
    table = np.empty(1 << n)
    for mask, val in by_mask.items():
        table[mask] = val
    return n, table


def validate_measure(values: Mapping) -> list[MeasureViolation]:
    """Check boundary and monotonicity conditions of an explicit measure.

    ``values`` must map every subset of {0..n-1} (as a frozenset/tuple of
    indices or a bitmask) to its measure, for n <= 12.  Returns an empty
    list iff m(empty) = 0, m(full) = 1 and m(A) <= m(B) whenever A is a
    subset of B; otherwise one entry per violated covering pair.  Missing
    entries raise ``ValueError``.
    """
    n, table = _dense_from_mapping(values)
    violations: list[MeasureViolation] = []
    if abs(table[0]) > BOUNDARY_TOL:
        violations.append(
            MeasureViolation(
                "empty", frozenset(), None,
                f"m(empty set) = {table[0]!r}, must be 0",
            )
        )
    full = (1 << n) - 1
    if abs(table[full] - 1.0) > BOUNDARY_TOL:
        violations.append(
            MeasureViolation(
                "full", _mask_to_set(full), None,
                f"m(full set) = {table[full]!r}, must be 1",
            )
        )
    # Monotone over all covering pairs A < A + {j} implies monotone over
    # every inclusion chain, so covers are sufficient and name the
    # tightest offending pair.  Row-major np.nonzero lists them by (A, j).
    masks = np.arange(1 << n)[:, None]
    bits = 1 << np.arange(n)
    covers = masks | bits
    broken = ((masks & bits) == 0) & (table[masks] > table[covers] + MONOTONE_TOL)
    for mask, j in zip(*np.nonzero(broken)):
        mask = int(mask)
        wider = mask | 1 << int(j)
        violations.append(
            MeasureViolation(
                "monotonicity", _mask_to_set(mask), _mask_to_set(wider),
                f"m({set(_mask_to_set(mask)) or '{}'}) = {table[mask]!r} exceeds "
                f"m({set(_mask_to_set(wider))}) = {table[wider]!r}",
            )
        )
    return violations
