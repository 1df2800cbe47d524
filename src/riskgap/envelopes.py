"""CVaR bounds for a distribution known only through a CDF neighbourhood.

Given a reference law ``Y`` and a bound on how far the unknown CDF of
``X`` may sit from that of ``Y`` — either a uniform gap ``eps`` with
``sup_y |F_X(y) - F_Y(y)| <= eps`` or a pointwise envelope ``g`` with
``|F_X(y) - F_Y(y)| <= g(y)`` — these routines return certified lower
and upper bounds on ``CVaR_alpha(X)`` computed from ``Y`` alone.

The pointwise route builds the dominating CDF ``min(1, F_Y + g)``
explicitly; its CVaR never exceeds that of any ``X`` whose CDF stays
inside the envelope, and it is never looser than the uniform bound with
``eps = sup g``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risk import (_COMPARE_TOL, DiscreteDistribution, _level, _read_only, _real, _step_at,
                   cvar_exact)


class InvalidEnvelopeError(ValueError):
    """Envelope data violates non-negativity or monotonicity."""


@dataclass(frozen=True)
class SupportBounds:
    """Known enclosure of the image of both distributions."""

    inf_img: float
    sup_img: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "inf_img", _real(self.inf_img, "inf_img", -np.inf))
        object.__setattr__(self, "sup_img", _real(self.sup_img, "sup_img", self.inf_img))


@dataclass(frozen=True)
class PointwiseEnvelope:
    """Right-continuous non-decreasing step function, zero left of the
    first breakpoint (so it vanishes at -inf).

    ``values[i]`` is the envelope on ``[breakpoints[i], breakpoints[i+1])``.
    An empty envelope is the zero function.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp = _read_only(self.breakpoints, "breakpoints")
        vals = _read_only(self.values, "values")
        if bp.ndim != 1 or vals.shape != bp.shape:
            raise InvalidEnvelopeError("breakpoints and values must be 1-D and aligned")
        if np.any(np.diff(bp) <= 0.0):
            raise InvalidEnvelopeError("breakpoints must be strictly increasing")
        if np.any(vals < 0.0):
            raise InvalidEnvelopeError("envelope values must be non-negative")
        if np.any(np.diff(vals) < 0.0):
            raise InvalidEnvelopeError("envelope values must be non-decreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls) -> "PointwiseEnvelope":
        return cls(np.empty(0), np.empty(0))

    def at(self, x) -> np.ndarray:
        """Evaluate the step function at each point of ``x``."""
        return _step_at(self.breakpoints, self.values, x, "x")


# ---------------------------------------------------------------- uniform gap


def _check_support(dist: DiscreteDistribution, support: SupportBounds) -> None:
    if (dist.inf_support < support.inf_img - _COMPARE_TOL
            or dist.sup_support > support.sup_img + _COMPARE_TOL):
        raise ValueError(
            "distribution support "
            f"[{dist.inf_support}, {dist.sup_support}] escapes declared bounds "
            f"[{support.inf_img}, {support.sup_img}]"
        )


def _scaled_tail_term(dist: DiscreteDistribution, eps: float, inf_img: float) -> float:
    # eps * CVaR_eps(Y) with the limiting conventions: 0 at eps == 0, the
    # mean at eps == 1, and the quantile-integral extension (levels below
    # probability 0 contribute inf_img) when eps > 1.
    if eps == 0.0:
        return 0.0
    if eps < 1.0:
        return eps * cvar_exact(dist, eps)
    return (eps - 1.0) * inf_img + dist.mean()


def upper_case_tag(alpha, eps) -> str:
    return "shifted_tail" if _real(eps, "eps", 0) < _level(alpha, "alpha") else "support_cap"


def lower_case_tag(alpha, eps) -> str:
    eps = _real(eps, "eps", 0)
    return "shifted_tail" if eps + _level(alpha, "alpha") < 1.0 else "mean_anchor"


def uniform_upper(dist: DiscreteDistribution, alpha, eps, support: SupportBounds) -> float:
    """Upper bound on CVaR_alpha(X) from CVaR levels of Y and a uniform gap.

    ``eps < alpha`` shifts the tail level down to ``alpha - eps`` and pays
    for the displaced mass at the supremum; otherwise only the support cap
    remains.
    """
    a = _level(alpha, "alpha")
    eps = _real(eps, "eps", 0)
    _check_support(dist, support)
    if eps < a:
        return ((a - eps) / a) * cvar_exact(dist, a - eps) + (eps / a) * support.sup_img
    return support.sup_img


def uniform_lower(dist: DiscreteDistribution, alpha, eps, support: SupportBounds) -> float:
    """Lower bound on CVaR_alpha(X), the mirror of :func:`uniform_upper`."""
    a = _level(alpha, "alpha")
    eps = _real(eps, "eps", 0)
    _check_support(dist, support)
    if eps + a < 1.0:
        head = ((a + eps) / a) * cvar_exact(dist, a + eps)
        return head - _scaled_tail_term(dist, eps, support.inf_img) / a
    anchor = (a + eps - 1.0) * support.inf_img + dist.mean()
    return (anchor - _scaled_tail_term(dist, eps, support.inf_img)) / a


# ---------------------------------------------------------------- pointwise gap


def _sorted_union(a, b) -> np.ndarray:
    """``np.union1d(a, b)`` bit for bit on finite values (of 0.0 and -0.0, the
    first in sorted order) without np.unique, which imports numpy.ma (1 MB)."""
    merged = np.concatenate((a, b), axis=None)
    merged.sort()
    keep = np.empty(merged.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = merged[1:] != merged[:-1]
    return merged[keep]


def dominated_cdf(dist: DiscreteDistribution, env: PointwiseEnvelope) -> DiscreteDistribution:
    """Distribution of the dominating CDF ``min(1, F_Y + g)``.

    Its atoms live on the union of ``Y`` atoms and envelope breakpoints;
    monotonicity of ``g`` makes the clipped sum a valid CDF.
    """
    grid = _sorted_union(dist.values, env.breakpoints)
    h = np.minimum(1.0, dist.cdf_at(grid) + env.at(grid))
    masses = np.diff(np.concatenate(([0.0], h)))
    return DiscreteDistribution(grid, masses)


def tight_lower(dist: DiscreteDistribution, env: PointwiseEnvelope, alpha) -> float:
    """Lower bound on CVaR_alpha(X) when |F_X - F_Y| <= g pointwise."""
    return cvar_exact(dominated_cdf(dist, env), _level(alpha, "alpha"))


# ---------------------------------------------------------------- helpers


def cdf_gap_envelope(dist_x: DiscreteDistribution, dist_y: DiscreteDistribution):
    """Pointwise |F_X - F_Y| on the merged grid, monotonised by running max.

    Returns ``(envelope, sup_gap)``; mainly a validation-harness helper for
    manufacturing conforming envelopes from two known laws.
    """
    grid = _sorted_union(dist_x.values, dist_y.values)
    gap = np.abs(dist_x.cdf_at(grid) - dist_y.cdf_at(grid))
    env = PointwiseEnvelope(grid, np.maximum.accumulate(gap))
    return env, float(gap.max())
