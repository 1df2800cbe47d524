"""Envelope oracles that only the tests use.

``density_envelope_to_g`` turns a discrete density bound into a CDF-gap
envelope, and the quantile-form bounds ``raw_quantile_lower`` /
``raw_quantile_upper`` integrate the generalised inverse of the raised or
lowered CDF ``F_Y +/- g`` directly.  The lower one must equal the CVaR of
``riskgap.envelopes.dominated_cdf``, which is how the tests cross-check it.
``conservative_grid_envelope`` bounds the exact cumulative gap g from its
values on a coarse grid, for tests that the tight bound survives coarseness.
"""

import numpy as np

from riskgap.envelopes import InvalidEnvelopeError, PointwiseEnvelope
from riskgap.risk import DiscreteDistribution, _finite_1d, _level


class UndefinedBoundError(ValueError):
    """The requested quantile bound does not exist for the given envelope."""


def density_envelope_to_g(points, weights) -> PointwiseEnvelope:
    """Accumulate a non-negative discrete density bound into a CDF-gap
    envelope: ``g(z) = sum of weights at points <= z``."""
    pts = _finite_1d(points, "points")
    w = np.asarray(weights, dtype=float)
    if w.shape != pts.shape:
        raise InvalidEnvelopeError("points and weights must be aligned")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise InvalidEnvelopeError("density weights must be finite and non-negative")
    order = np.argsort(pts, kind="stable")
    pts, w = pts[order], w[order]
    # collapse duplicate points, summing their weights
    uniq, inverse = np.unique(pts, return_inverse=True)
    acc = np.zeros(uniq.size)
    np.add.at(acc, inverse, w)
    return PointwiseEnvelope(uniq, np.cumsum(acc))


def _quantile_tail_integral(grid: np.ndarray, h: np.ndarray, alpha: float) -> float:
    """(1/alpha) * integral over (1-alpha, 1] of tau -> inf{z : h(z) >= tau}.

    ``h`` is a step function on ``grid`` (value held to the right).  The
    generalised inverse depends only on the running maximum of ``h``.
    """
    run = np.maximum.accumulate(h)
    prev = np.concatenate(([0.0], run[:-1]))
    seg = np.minimum(run, 1.0) - np.maximum(prev, 1.0 - alpha)
    seg = np.maximum(seg, 0.0)
    return float(np.dot(grid, seg) / alpha)


def raw_quantile_lower(dist: DiscreteDistribution, env: PointwiseEnvelope, alpha) -> float:
    """Quantile-form lower bound using the raised CDF ``F_Y + g``.

    Always defined (``F_Y + g`` reaches 1); equals
    ``cvar_exact(dominated_cdf(Y, g), alpha)`` for a conforming envelope.
    """
    a = _level(alpha, "alpha")
    grid = np.union1d(dist.values, env.breakpoints)
    return _quantile_tail_integral(grid, dist.cdf_at(grid) + env.at(grid), a)


def raw_quantile_upper(dist: DiscreteDistribution, env: PointwiseEnvelope, alpha) -> float:
    """Quantile-form upper bound using the lowered CDF ``F_Y - g``.

    Raises :class:`UndefinedBoundError` when ``F_Y - g`` never reaches 1,
    because levels ``tau`` near 1 then have an empty quantile set.
    """
    a = _level(alpha, "alpha")
    grid = np.union1d(dist.values, env.breakpoints)
    h = dist.cdf_at(grid) - env.at(grid)
    top = float(np.max(h)) if h.size else 0.0
    if top < 1.0 - 1e-12:
        raise UndefinedBoundError(
            f"lowered CDF peaks at {top}; quantile levels above it are empty"
        )
    h = np.minimum(h, 1.0)
    h[h >= 1.0 - 1e-12] = 1.0
    return _quantile_tail_integral(grid, h, a)


def conservative_grid_envelope(traj, grid_l) -> PointwiseEnvelope:
    """Step envelope >= g everywhere, built from grid evaluations.

    On [grid_j, grid_{j+1}) the exact g is bounded by its value at the
    right endpoint; past the last point by epsilon.  Mass the grid cannot
    locate (below grid_0 or inside an interval) is placed at or below its
    true position — never above — so the dominated law stays
    stochastically smaller and the bound direction survives coarseness.
    """
    grid = np.unique(np.asarray(grid_l, dtype=float))
    if grid.size == 0:
        raise ValueError("grid_l must contain at least one point")
    g_on_grid = traj.g_at(grid)
    first_jump = traj.thresholds[0] if traj.thresholds.size else grid[0]
    anchor = min(grid[0], first_jump) - 1.0
    breakpoints = np.concatenate(([anchor], grid))
    # epsilon and the last cumulative jump agree up to summation order
    tail = max(traj.epsilon, float(g_on_grid[-1]))
    values = np.concatenate((g_on_grid, [tail]))
    return PointwiseEnvelope(breakpoints, values)
