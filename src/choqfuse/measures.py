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

import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "ConvergenceError",
    "LambdaMeasure",
    "TableMeasure",
    "lambda_tables",
    "solve_lambda",
    "solve_lambda_batch",
]

# |sum(m_i) - 1|, summed left to right, at or below this is treated as
# exactly additive (lambda = 0).
ADDITIVE_TOL = 1e-12
# Residual |f(lambda)| the solved root must satisfy.
ROOT_RESIDUAL_TOL = 1e-10
# Iteration budget of the Newton loop, which solves n > 3 and the n <= 3
# rows whose closed-form root misses the contract (roots past about 1e150
# for n = 3, near the largest float for n = 2).  From the quadratic start
# it typically converges in under 10.  Over 44,000 rows with n = 2..16
# (uniform, at the 1e-6 clamp bounds, log-uniform down to 1e-300) it took
# at most 31 (n >= 8, lambda near -1), and 27 for roots past 1e40.
_MAX_ITER = 200
_FLOAT_MAX = np.finfo(float).max
_FLOAT_TINY = np.finfo(float).tiny
_ABOVE_MINUS_ONE = np.nextafter(-1.0, 0.0)
# Boundary check tolerances for measures (empty/full set, monotonicity).
BOUNDARY_TOL = 1e-9
MONOTONE_TOL = 1e-12
# Every measure is held as its power-set table (2^n floats), so both measure
# kinds take at most this many criteria.
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
        raise ValueError(f"density {i}{where} is {float(d[row, i])!r}; singleton densities "
                         f"must lie strictly inside (0, 1)")
    return d


def _density_row(densities: Iterable[float]) -> np.ndarray:
    """One validated density vector as a (1, n) array."""
    return _as_density_matrix([[float(v) for v in densities]])


def _excess(columns) -> tuple[np.ndarray, np.ndarray]:
    """Per row sum(m_i) - 1 of the density columns, twice: rounded at every
    step, ((m_1 + m_2) + ...) - 1, and as if summed in twice the precision,
    by TwoSum steps whose rounding errors are summed on the side (Ogita,
    Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26,
    2005)."""
    s, err = columns[0], 0.0
    for m in [*columns[1:], -1.0]:
        t = s + m
        z = t - s
        err = err + ((s - (t - z)) + (m - z))
        s = t
    return s, s + err


def _coefficients(d: np.ndarray, c: np.ndarray):
    """Per row the rescale exponent s and c, e2', ..., e_n': the coefficients
    of g(2^s * y) = c + e2' * y + ... + e_n' * y^(n-1), e_k' = e_k * 2^((k-1)s).

    s = 0 where c > 0 (a root in (-1, 0)).  Where c < 0 every term
    e_k * lam^(k-1) is below |c| at the root and e_k >= 2^(L_k - k), L_k the
    sum of the row's k largest binary exponents, so lam < 2^bound with
    bound = min over k of (exp(c) - L_k + k) / (k - 1).  s is the even
    number at or below min(bound, 1022): y < 4 at the root, 2^-s is normal
    and sqrt keeps the scale.  The recurrence e_k += m * e_(k-1) on the
    densities times 2^s from e_0' = 2^-s gives e_k'; its steps and the Horner
    steps on y round as on the unscaled numbers while both stay normal.
    """
    k = np.arange(2, d.shape[1] + 1)
    largest = np.sort(np.frexp(d)[1], axis=1)[:, ::-1].cumsum(axis=1)[:, 1:]  # L_2, ..., L_n
    bound = ((np.frexp(c)[1][:, None] - largest + k) / (k - 1)).min(axis=1)
    s = np.where(c > 0.0, 0, 2 * (np.minimum(bound, 1022.0) // 2)).astype(int)
    m = np.ldexp(d, s[:, None])
    # Column j holds e_j' of the densities so far.
    e = np.zeros((len(d), d.shape[1] + 1))
    e[:, 0] = np.ldexp(1.0, -s)
    for i in range(d.shape[1]):
        e[:, 1:] = e[:, :-1] * m[:, i:i + 1] + e[:, 1:]
    return s, [c, *e.T[2:]]


def _polynomial(coefs: list, x: np.ndarray):
    """g(x) and g'(x) per row, by Horner's rule."""
    slope = coefs[-1]
    g = slope * x + coefs[-2]
    for coef in coefs[-3::-1]:
        slope = slope * x + g
        g = g * x + coef
    return g, slope


def _misses_contract(d: np.ndarray, x: np.ndarray):
    """Per row: the raw residual f = prod(1 + x*m_i) - x - 1 and whether it misses the contract.

    f is a plain product, good to a few ulps per density.  For extreme roots
    evaluation noise alone moves f by tens of ulps of lambda, so a band
    proportional to |lambda| is accepted there; it stays below the absolute
    tolerance for every |lambda| < ~2000.  A NaN f (a non-finite root) misses.
    """
    f = (1.0 + x[:, None] * d).prod(axis=1) - x - 1.0
    band = 64.0 * 2.3e-16 * d.shape[1]
    return f, ~(np.abs(f) <= np.maximum(ROOT_RESIDUAL_TOL, band * np.abs(x)))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _solve(d: np.ndarray) -> np.ndarray:
    """lambda per density row, one flow for every width; see solve_lambda_batch.

    g(lam) = c + e2*lam + e3*lam^2 + ... + e_n*lam^(n-1) is the lambda
    equation divided by its root 0, with c = sum(m_i) - 1 summed compensated
    and e_k the k-th elementary symmetric sum of the densities.  The root of
    the quadratic truncation c + e2*lam + e3*lam^2, in the cancellation-free
    form, is the exact root for n <= 3; for n > 3 it starts Newton: an upper
    bound of a positive root, a guess otherwise.  Only e2 and e3 take a form
    that depends on n.  For n <= 3 they come from the density columns, sums
    left to right: e2 = m1*m2 + (m1 + m2)*m3, e3 = (m1*m2)*m3.  For n > 3
    numpy's axis-1 reductions form them, pairwise from 9 (e2) and 10 (e3)
    densities on.  For n = 2 (e3 = 0) the root is -c / e2, which stays exact
    where e2^2 underflows, and (-c / m1) / m2 where e2 = m1*m2 is subnormal
    (fewer digits).  A root within one ulp of -1 can land on -1, where the
    measure is undefined; the next float above stands for it.

    A row is additive (lambda = 0) where its rounded left-to-right density
    sum, ((m1 + m2) + ...) - 1, is within ``ADDITIVE_TOL`` of 0, for every
    n.  Newton refines the other rows for n > 3, and for n <= 3 the rare
    rows whose root misses the contract (extreme ones, where e2^2, e3 or
    the root leave the float range).  Additive and refined rows are rare at
    n <= 3, so two counts decide that the batch is done.
    """
    n = d.shape[1]
    m1, m2, *rest = columns = list(d.T)
    rounded, c = _excess(columns)
    if n == 2:
        e2 = m1 * m2
        quadratic = np.where(e2 < _FLOAT_TINY, -c / m1 / m2, -c / e2)
    else:
        if n == 3:
            m12 = m1 * m2
            e3 = m12 * rest[0]
            e2 = m12 + (m1 + m2) * rest[0]
        else:
            pairs = d.cumsum(axis=1)[:, :-1] * d[:, 1:]
            e2 = pairs.sum(axis=1)
            e3 = (pairs.cumsum(axis=1)[:, :-1] * d[:, 2:]).sum(axis=1)
        quadratic = -2.0 * c / (e2 + np.sqrt(np.maximum(e2 * e2 - 4.0 * e3 * c, 0.0)))
    x = np.maximum(quadratic, _ABOVE_MINUS_ONE)
    solved = np.abs(rounded) > ADDITIVE_TOL  # the other rows are additive: lambda = 0
    retry = _misses_contract(d, x)[1] if n <= 3 else solved
    if np.count_nonzero(retry) or np.count_nonzero(solved) < len(d):
        retry = retry & solved  # a new array: for n > 3 retry is solved itself
        if retry.any():
            x[retry] = _newton(d[retry], c[retry], -c[retry] / e2[retry], quadratic[retry])
        x[~solved] = 0.0
    return x


def _newton(d: np.ndarray, c: np.ndarray, linear: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on g from ``start``, then the contract check.

    g increases on (-1, inf): it is the slope of the convex raw residual's
    secant through 0.  With c > 0 the root lies in (-1, 0), where a
    ``start`` outside gives way to ``linear`` (-c / e2), no lower than -0.5.
    With c < 0 it lies in (min(linear, 1) / 2, linear]: g < c + 2*e2*lam
    below, as e_k <= e2 * e1^(k-2) and e1 < 1.
    """
    s, coefs = _coefficients(d, c)
    # Steps run on y = lam / 2^s (s = 0 wherever the root is negative).
    linear, start = np.ldexp(linear, -s), np.ldexp(start, -s)
    top = np.ldexp(_FLOAT_MAX, -s)
    positive = linear > 0.0
    lo = np.where(positive, 0.5 * np.minimum(linear, np.ldexp(1.0, -s)), -1.0)
    hi = np.where(positive, np.minimum(linear, top), 0.0)
    inside = (start > -1.0) & (start < 0.0)
    y = np.where(positive | inside, np.minimum(start, hi), np.maximum(linear, -0.5))
    # Where -c / e2 passes the largest float, so may the root: g is tried there first.
    y = np.where(linear > top, top, y)
    last_step = hi - lo
    done = np.zeros(len(d), dtype=bool)
    for _ in range(_MAX_ITER):
        g, slope = _polynomial(coefs, y)
        below = g < 0.0
        beyond = below & (y == top)
        if beyond.any():
            raise ValueError(f"densities {d[np.argmax(beyond)].tolist()} are too "
                             f"small: their lambda exceeds the largest float")
        lo = np.where(below, y, lo)
        hi = np.where(below, hi, y)
        newton = y - g / slope
        newton_step = np.abs(newton - y)
        # Newton while it stays inside the bracket and at least halves the
        # previous step, bisection otherwise.  Over a bracket wider than a
        # factor 2 bisection is over exponents, and Newton must do better:
        # far above a root it shrinks y by (k - 1) / k, k the dominant degree.
        wide = (lo > 0.0) & (hi > 2.0 * lo)
        take = (newton > lo) & (newton < hi) & (newton_step <= np.where(wide, 0.4, 0.5) * last_step)
        middle = np.where(wide, np.sqrt(lo) * np.sqrt(hi), 0.5 * lo + 0.5 * hi)
        step_to = np.where(take, newton, middle)
        last_step = np.abs(step_to - y)
        # Converged once the Newton step is below 2^-30 |y| (quadratic
        # convergence leaves an error far below one ulp after it) or the
        # bracket has closed on y.
        close = newton_step <= 2.0 ** -30 * np.abs(y)
        converged = close | (step_to == y)
        # Finished rows stay frozen, so no row depends on the others.
        y = np.where(done, y, np.where(close, newton, step_to))
        done |= converged
        if done.all():
            break
    x = np.maximum(np.ldexp(y, s), _ABOVE_MINUS_ONE)
    f, failed = _misses_contract(d, x)
    if failed.any():
        k = int(np.argmax(failed))
        raise ConvergenceError(f"root residual {abs(f[k]):.3e} exceeds {ROOT_RESIDUAL_TOL} at "
                               f"lambda={float(x[k])!r} (densities sum to {float(d[k].sum())})")
    return x


def solve_lambda_batch(densities) -> np.ndarray:
    """Solve ``lambda + 1 = prod(1 + lambda * m_i)`` for every row of a (P, n) array.

    Per row, returns the unique root greater than -1 and distinct from the
    trivial root 0, except that a row whose density sum, rounded left to
    right, lies within ``ADDITIVE_TOL`` of 1 gives exactly 0.0 (additive
    measure), for every n.  The root lies on the side dictated by the
    density sum (positive when the sum is below 1, inside (-1, 0) when
    above).  One flow solves every width.  It forms the root of the
    quadratic c + e2*lambda + e3*lambda^2 (c = sum(m_i) - 1 summed
    compensated, e_k the elementary symmetric sums), which for n <= 3 is
    the root in closed form.  For n > 3, and for the rare n <= 3 rows whose
    closed form misses the residual contract, Newton steps on the
    polynomial c + e2*lambda + ... + e_n*lambda^(n-1) by Horner's rule,
    safeguarded by bisection of its bracket, start at that quadratic root;
    they run in plain floats on lambda / 2^s, with one power of two per row
    that keeps tiny densities and huge roots in range.  Only +, -, *, /,
    sqrt and exact scalings by powers of two are used, so the bits do not
    depend on the CPU.  Numpy's summation order still decides them in one
    place: e2 and e3 of the Newton start for n >= 4, which numpy's axis-1
    reductions sum pairwise from 9 and 10 densities on.  A row's root does
    not depend on the others.

    Raises ``ValueError`` for rows of fewer than two densities, densities
    outside (0, 1) or densities so small that lambda exceeds the largest
    float, and ``ConvergenceError`` if a root misses the residual contract.
    """
    return _solve(_as_density_matrix(densities))


def solve_lambda(densities: Iterable[float]) -> float:
    """Solve ``lambda + 1 = prod(1 + lambda * m_i)`` for one density vector.

    The one-row case of ``solve_lambda_batch``, with the same contract.
    """
    return float(_solve(_density_row(densities))[0])


def lambda_tables(densities) -> np.ndarray:
    """Power-set tables of the lambda-measures of a (P, n) density array.

    Row p, column ``mask`` holds the measure of the criteria subset
    ``mask``, with lambda from ``solve_lambda_batch``.  The table is built
    by doubling: each subset adds its highest criterion last,
    ``t[A + {i}] = t[A] + m_i + lambda * t[A] * m_i``, so with lambda = 0 an
    entry is the plain left-to-right sum of its densities.  The full set is
    checked against 1 (``ConvergenceError`` beyond ``BOUNDARY_TOL``) and
    snapped to exactly 1; every entry is clipped into [0, 1].
    """
    d = _as_density_matrix(densities)
    return _tables(d, _solve(d))


def _tables(d: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``lambda_tables`` of a validated (P, n) density array and its solved lambdas."""
    p, n = d.shape
    if n > _TABLE_MAX_N:
        raise ValueError(f"power-set tables support at most {_TABLE_MAX_N} criteria, got {n}")
    lam = lam[:, None]
    table = np.empty((p, 1 << n))
    table[:, 0] = 0.0
    for i in range(n):
        below, m = table[:, : 1 << i], d[:, i : i + 1]
        table[:, 1 << i : 2 << i] = below + m + lam * below * m
    full = table[:, -1]
    off = ~(np.abs(full - 1.0) <= BOUNDARY_TOL)  # a NaN lambda fails too
    if off.any():
        raise ConvergenceError(f"full-set measure {float(full[np.argmax(off)])!r} deviates "
                               f"from 1 beyond {BOUNDARY_TOL}")
    # Snap the normalization boundary exactly; everything else is within
    # one rounding of the lambda recursion (never -0.0, so maximum and
    # minimum clip as np.clip does, without its call overhead).
    table[:, -1] = 1.0
    return np.minimum(np.maximum(table, 0.0, out=table), 1.0, out=table)


class _PowerSetTable:
    """Subset queries of a measure held as its read-only table ``_table``."""

    _table: np.ndarray

    @property
    def n(self) -> int:
        return self._table.size.bit_length() - 1

    def dense_table(self) -> np.ndarray:
        """Power-set table indexed by bitmask: 2^n entries, n <= 16."""
        return self._table

    def value_of(self, subset: Iterable[int]) -> float:
        """Measure of the criteria whose indices ``subset`` holds: a table lookup.

        Read a subset by bitmask as ``dense_table()[mask]``.
        """
        mask, n = 0, self.n
        for idx in subset:
            if isinstance(idx, bool):  # operator.index(True) is 1
                raise TypeError(f"criterion index must be an integer, got {idx!r}")
            i = operator.index(idx)
            if not 0 <= i < n:
                raise IndexError(f"criterion index {i} out of range for n={n}")
            mask |= 1 << i
        return float(self._table[mask])


@dataclass(frozen=True)
class LambdaMeasure(_PowerSetTable):
    """A Sugeno lambda-measure: singleton densities plus the solved lambda.

    Instances are immutable and safe to share across threads.  The full
    power-set table is built at construction (``lambda_tables``), so subset
    queries are array lookups and a measure has at most 16 criteria; more
    raise ``ValueError``.
    """

    densities: tuple[float, ...]
    lam: float = field(init=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _density_row(self.densities)
        lam = _solve(d)
        table = _tables(d, lam)[0]
        table.flags.writeable = False
        object.__setattr__(self, "densities", tuple(d[0].tolist()))
        object.__setattr__(self, "lam", float(lam[0]))
        object.__setattr__(self, "_table", table)


@dataclass(frozen=True)
class TableMeasure(_PowerSetTable):
    """A fuzzy measure given by its power-set table, up to 16 criteria.

    ``values`` holds 2^n floats, n >= 1; entry ``mask`` is the measure of the
    criteria in ``mask`` (bit i for criterion i), the layout of
    ``dense_table()`` and ``lambda_tables``.  For 3 criteria that is m({}),
    m({0}), m({1}), m({0, 1}), m({2}), m({0, 2}), m({1, 2}), m({0, 1, 2}):
    ``TableMeasure([0, .35, .25, .63, .3, .69, .58, 1])``.  Construction
    checks the boundary and monotonicity conditions and refuses NaN.
    ``values`` is kept as a tuple of floats, so two measures are equal, and
    hash equal, exactly when their tables are.
    """

    values: tuple[float, ...]
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.array(self.values, dtype=float)
        n = table.size.bit_length() - 1
        if table.ndim != 1 or not 1 <= n <= _TABLE_MAX_N or table.size != 1 << n:
            raise ValueError(f"a measure table holds 2^n values for n >= 1 and at most "
                             f"{_TABLE_MAX_N} criteria, got shape {table.shape}")
        violations = _violations(table)
        if violations:
            raise ValueError("invalid fuzzy measure: " + "; ".join(violations))
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "values", tuple(table.tolist()))


def _subset_name(mask: int) -> str:
    """``{0, 2}`` for the bitmask 0b101, ``{}`` for the empty set."""
    return str({i for i in range(mask.bit_length()) if mask >> i & 1} or "{}")


def _violations(table: np.ndarray) -> list[str]:
    """What breaks the measure conditions of a power-set table, one message each.

    Empty when no entry is NaN, m(empty) = 0, m(full) = 1 (both within
    ``BOUNDARY_TOL``) and m(A) <= m(B) + ``MONOTONE_TOL`` whenever A is a
    subset of B; otherwise one message per NaN entry, violated boundary or
    covering pair.
    """
    n = table.size.bit_length() - 1
    violations = [f"m({_subset_name(int(m))}) is NaN" for m in np.flatnonzero(np.isnan(table))]
    if abs(table[0]) > BOUNDARY_TOL:
        violations.append(f"m(empty set) = {float(table[0])!r}, must be 0")
    full = (1 << n) - 1
    if abs(table[full] - 1.0) > BOUNDARY_TOL:
        violations.append(f"m(full set) = {float(table[full])!r}, must be 1")
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
        violations.append(f"m({_subset_name(mask)}) = {float(table[mask])!r} "
                          f"exceeds m({_subset_name(wider)}) = {float(table[wider])!r}")
    return violations
