"""Exact and empirical CVaR primitives for bounded scalar outcomes.

Outcomes are treated as costs, so all tail functionals look at the
*upper* tail: CVaR at level ``alpha`` is the expected value of the worst
(largest) ``alpha`` fraction of outcomes.  ``alpha -> 1`` recovers the
mean, ``alpha -> 0`` approaches the essential supremum.

Two empirical estimators are provided.  ``cvar_estimate_inf`` evaluates
the variational form ``inf_w { w + mean((X - w)^+) / alpha }`` over the
sample points, where the infimum is attained.  ``cvar_estimate_sorted``
accumulates order-statistic increments and is algebraically identical;
the pair is kept so each can serve as an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------- tolerances
# Every numeric tolerance of the package, with the reason for its value.
#
# PROB_TOL: a probability vector (a law, a belief, a model row) must sum to
# 1 within this; summing a few dozen entries loses only a few ulps.
PROB_TOL = 1e-12
# MERGE_TOL: atoms of a law, and jumps of a gap curve, closer than this are
# one outcome.  Sort-then-cluster: a run keeps its first value.
MERGE_TOL = 1e-12
# _KEY_DECIMALS: the forward walk merges (belief, return) nodes on keys
# rounded to this many decimals, the MERGE_TOL scale.  A dict needs a
# hashable key, so this rounds rather than clusters and can split two
# values that straddle a rounding boundary.
_KEY_DECIMALS = 12
# ATOM_MATCH_TOL: successor beliefs of the two models are identified when
# they agree componentwise within this.  It is looser than MERGE_TOL because
# the two models reach one belief through different Bayes normalisers.
ATOM_MATCH_TOL = 1e-9
# PROB_FLOOR: walk paths (and observations) of smaller probability are
# dropped.  It guards against underflow, not for accuracy: such mass is far
# below anything PROB_TOL or MERGE_TOL can see.
PROB_FLOOR = 1e-300
# _COMPARE_TOL: slack when comparing two separately computed quantities (a
# law's support against declared bounds, a proposal's total mass, bin-grid
# coverage, the sandwich verdicts).  Each side carries rounding from sums
# over up to T steps and from the bound formulas, hence looser than PROB_TOL.
_COMPARE_TOL = 1e-9


def _is_number(x) -> bool:
    """The one number-type test: an int, a float, a NumPy integer or floating; no bool."""
    return type(x) is not bool and isinstance(x, (int, float, np.integer, np.floating))


def _numeric(values, name: str, what: str = "numeric") -> np.ndarray:
    """The one reader of an outside numeric array: rectangular, every entry a number by
    ``_is_number``, else a ValueError naming ``name``. A numeric ndarray passes as it is;
    anything else is scanned and kept entry by entry, so an int beside a float stays exact."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values
    try:
        kind = np.asarray(values).dtype
    except ValueError:  # NumPy's inhomogeneous-shape message names no field
        raise ValueError(f"{name} must be a rectangular array, got ragged rows") from None
    entries = np.array(values, dtype=object)
    if not _numbers_only(entries):  # NumPy reads a bool beside numbers as a number, so:
        shown = "object" if kind.kind in "iuf" else kind
        raise ValueError(f"{name} must be {what}, got {shown} entries")
    return entries


def _numbers_only(entries: np.ndarray) -> bool:
    """``_numeric``'s per-entry scan, a function of its own so that a test can count it."""
    return all(_is_number(x) for x in entries.flat)


def _read_only(values, name: str, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` by ``_numeric``, every entry finite: every array a
    value type stores comes through here, so a later write to the caller's cannot reach it."""
    try:
        arr = np.array(_numeric(values, name), dtype=dtype)
    except OverflowError:  # an int past the float range
        arr = np.array([np.inf])
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    arr.flags.writeable = False
    return arr


def _fold(terms) -> np.ndarray:
    """The one summation rule of every reported contraction: ``terms`` added along
    their first axis in index order, ((t[0] + t[1]) + t[2]) + ..., as an accumulate
    must, so the bits depend on neither the CPU (a BLAS kernel's do) nor the memory
    layout (NumPy's ``sum`` goes pairwise from 8 contiguous entries)."""
    return np.add.accumulate(terms)[-1]


def _check_rows(mat: np.ndarray, what: str) -> None:
    """The one probability-row check of an array ``_read_only`` made: entries >= 0,
    and each row (along the last axis) summing to 1 within ``PROB_TOL``."""
    if (mat < 0.0).any():
        raise ValueError(f"{what} entries must be >= 0")
    if (np.abs(mat.sum(axis=-1) - 1.0) > PROB_TOL).any():
        raise ValueError(f"{what} rows must sum to 1 within {PROB_TOL}")


class DistributionError(ValueError):
    """Atoms and probabilities do not form a valid distribution."""


def _finite_1d(x, name: str = "sample") -> np.ndarray:
    """``x`` by ``_read_only``, one-dimensional and non-empty."""
    arr = _read_only(x, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _check_integral(values, name: str) -> np.ndarray:
    """The one integrality rule for outside integers: values by ``_numeric``, where a
    fractional or non-finite float entry (3.0 passes, 2.5 does not) raises a ValueError."""
    a = _numeric(values, name, "integral")
    # an object array holds its entries as given: ints past uint64, ints beside floats
    floats = (np.array([x for x in a.flat if isinstance(x, (float, np.floating))])
              if a.dtype.kind == "O" else a)
    bad = floats[~(np.isfinite(floats) & (floats == np.trunc(floats)))]
    if bad.size:
        raise ValueError(f"{name} must be integral, got {bad[0]}")
    return a


def _integral_int(value, name: str) -> int:
    """A scalar outside integer as a Python int, integral by ``_check_integral``
    (a Python int is one already)."""
    return value if type(value) is int else int(_check_integral(value, name))


def _count(value, name: str, least: int) -> int:
    """The one count rule, for sizes, bins, seeds and the like: ``value`` as an int
    by ``_integral_int``, >= ``least`` and in the float range (the radii and the
    binomial gate compute with it in floats), else a ValueError naming ``name``."""
    n = _integral_int(value, name)
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    if _number(n, name) == np.inf:
        raise ValueError(f"{name} must lie in the float range, got a {n.bit_length()}-bit int")
    return n


def _integer_array(values, name: str) -> np.ndarray:
    """The one int64 cast of an outside integer: values as a read-only int
    array, by ``_check_integral`` and in the int64 range before the cast."""
    a = _check_integral(values, name)
    if a.dtype.kind != "i":  # a signed int array fits; the rest compare exactly
        bad = a[(a < -2**63) | (a >= 2**63)]
        if bad.size:
            raise ValueError(f"{name} must lie in the int64 range, got {bad[0]}")
    return _read_only(a, name, int)


def _number(value, name: str) -> float:
    """A number by ``_is_number`` as a float, an int past the float range as the
    infinity of its sign, so that each rule refuses it under its own bounds."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _level(value, name: str) -> float:
    """The one open-(0, 1) rule, for a tail level alpha, a confidence delta and
    the like: ``value`` as a float, else a ValueError naming ``name``."""
    x = _number(value, name)
    if not 0.0 < x < 1.0:  # also false for NaN
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {x}")
    return x


def _real(value, name: str, least: float, strict: bool = False) -> float:
    """The one finite-real rule, for a gap eps, an accuracy v, a bound B and the like:
    ``value`` as a finite float >= ``least`` (> if ``strict``), else a ValueError naming it."""
    x = _number(value, name)
    if not (np.isfinite(x) and (x > least if strict else x >= least)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {least}, got {x}")
    return x


def _sort_and_merge(values: np.ndarray, weights: np.ndarray):
    """Sort atoms by value (stably) and merge each run of values within
    ``MERGE_TOL`` of the run's first value, which the run keeps; weights add."""
    order = np.argsort(values, kind="stable")
    out_v, out_w = [], []
    for v, w in zip(values[order], weights[order]):
        if out_v and v - out_v[-1] <= MERGE_TOL:
            out_w[-1] += w
        else:
            out_v.append(v)
            out_w.append(w)
    return np.array(out_v, dtype=float), np.array(out_w, dtype=float)


def _step_at(breakpoints: np.ndarray, values: np.ndarray, x, name: str) -> np.ndarray:
    """Right-continuous step function at each point of ``x``: ``values[i]``
    on ``[breakpoints[i], breakpoints[i+1])``, 0 left of the first breakpoint.

    The one reader of every CDF and CDF-gap envelope in the package; the points
    ``name`` are numbers by ``_numeric``, and may be infinite but not NaN.
    """
    points = np.atleast_1d(np.asarray(_numeric(x, name), dtype=float))
    if np.isnan(points).any():
        raise ValueError(f"{name} must not be NaN")
    idx = np.searchsorted(breakpoints, points, side="right")
    return np.concatenate(([0.0], values))[idx]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution in canonical form.

    Construction sorts atoms by value, merges values within ``MERGE_TOL``
    of their predecessor (probabilities add, the smallest value of the
    run is kept), drops zero-probability atoms, and renormalises.  A
    probability vector whose sum deviates from 1 by more than
    ``PROB_TOL``, or containing a negative entry, is rejected.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        values = _finite_1d(self.values, "values")
        probs = _read_only(self.probs, "probs")
        if probs.shape != values.shape:
            raise DistributionError(
                f"probs shape {probs.shape} does not match values shape {values.shape}"
            )
        if np.any(probs < 0.0):
            raise DistributionError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")

        values, probs = _sort_and_merge(values, probs)
        keep = probs > 0.0
        if not np.any(keep):
            raise DistributionError("distribution has no positive-probability atom")
        object.__setattr__(self, "values", _read_only(values[keep], "values"))
        object.__setattr__(self, "probs", _read_only(probs[keep] / probs[keep].sum(), "probs"))

    def mean(self) -> float:
        return float(_fold(self.values * self.probs))

    def cdf(self) -> np.ndarray:
        """Cumulative probabilities aligned with ``values`` (right-continuous)."""
        c = np.cumsum(self.probs)
        c[-1] = 1.0
        return c

    def cdf_at(self, x) -> np.ndarray:
        """Evaluate P(X <= x) at arbitrary points."""
        return _step_at(self.values, self.cdf(), x, "x")

    @property
    def inf_support(self) -> float:
        return float(self.values[0])

    @property
    def sup_support(self) -> float:
        return float(self.values[-1])


def cvar_exact(dist: DiscreteDistribution, alpha) -> float:
    """CVaR of a discrete distribution: mean of the worst ``alpha`` tail mass.

    Equals ``inf_w { w + E[(X - w)^+] / alpha }``; for atomic laws the
    infimum is attained at an atom, which the test-suite exploits as an
    independent oracle.
    """
    a = _level(alpha, "alpha")
    # Capped cumulative mass from the top; increments are the portion of
    # each atom's probability that falls inside the alpha tail.
    tail = np.minimum(np.cumsum(dist.probs[::-1]), a)
    taken = np.diff(np.concatenate(([0.0], tail)))
    return float(_fold(taken * dist.values[::-1]) / a)


def cvar_estimate_inf(sample, alpha) -> float:
    """Empirical CVaR via the variational form, minimised over sample points."""
    a = _level(alpha, "alpha")
    x = np.sort(_finite_1d(sample))
    n = x.size
    # For w = x[j]: sum_i (x_i - w)^+ = suffix_sum[j] - (n - 1 - j) * w
    suffix = np.concatenate((np.cumsum(x[::-1])[::-1][1:], [0.0]))
    counts = n - 1 - np.arange(n)
    phi = x + (suffix - counts * x) / (n * a)
    return float(phi.min())


def cvar_estimate_sorted(sample, alpha) -> float:
    """Empirical CVaR from order statistics.

    With ascending order statistics ``z_1 <= ... <= z_n``::

        C = z_n - (1/alpha) * sum_i (z_{i+1} - z_i) * (i/n - (1 - alpha))^+

    The increment below ``z_1`` carries coefficient ``(0 - (1-alpha))^+ = 0``
    for every ``alpha < 1``, so the estimator is translation equivariant
    and agrees exactly with ``cvar_estimate_inf``.
    """
    a = _level(alpha, "alpha")
    z = np.sort(_finite_1d(sample))
    n = z.size
    if n == 1:
        return float(z[0])
    coeff = np.maximum(np.arange(1, n) / n - (1.0 - a), 0.0)
    return float(z[-1] - _fold(np.diff(z) * coeff) / a)


@dataclass(frozen=True)
class DeviationRadii:
    """One-sided deviation radii for the sorted-form CVaR estimator.

    For i.i.d. samples supported on an interval of width ``value_range``:

    * ``P(CVaR - estimate > upper) <= delta``  with
      ``upper = value_range * sqrt(5 * ln(3/delta) / (alpha * n))``;
    * ``lower = (value_range / alpha) * sqrt(ln(1/delta) / (2n))`` is the
      companion radius for the opposite deviation.
    """

    upper: float
    lower: float


def deviation_radii(n: int, alpha, delta: float, value_range: float) -> DeviationRadii:
    a = _level(alpha, "alpha")
    delta = _level(delta, "delta")
    n = _count(n, "n", 1)
    value_range = _real(value_range, "value_range", 0)
    upper = value_range * np.sqrt(5.0 * np.log(3.0 / delta) / (a * n))
    lower = (value_range / a) * np.sqrt(np.log(1.0 / delta) / (2.0 * n))
    return DeviationRadii(upper=float(upper), lower=float(lower))
