"""Exact risk-averse value functions and certified bounds between models.

Everything here is oracle-grade: return distributions are enumerated, so
Q/V values are exact and the model-gap bounds can be checked against the
truth.  Two bound families are exposed — the uniform one driven by the
scalar gap epsilon, and the tighter one that dominates the simplified
return CDF by the cumulative gap function g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelopes import (
    PointwiseEnvelope,
    SupportBounds,
    UniformEnvelope,
    lower_case_tag,
    tight_lower,
    uniform_lower,
    uniform_upper,
    upper_case_tag,
)
from .pomdp import (
    DEFAULT_LEAF_BUDGET,
    Belief,
    Policy,
    SimplifiedPair,
    _return_span,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
)
from .risk import ConfidenceLevel, cvar_exact


@dataclass(frozen=True)
class ValueQuery:
    """A point value to evaluate: V when action is None, else Q."""

    belief: Belief
    alpha: ConfidenceLevel
    action: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, ConfidenceLevel):
            object.__setattr__(self, "alpha", ConfidenceLevel(float(self.alpha)))


@dataclass(frozen=True)
class BoundReport:
    q_true: float
    q_simplified: float
    lower_uniform: float
    upper_uniform: float
    lower_tight: float
    epsilon: float
    case_tags: dict


def q_exact(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
            model: str = "original",
            leaf_budget: int = DEFAULT_LEAF_BUDGET) -> float:
    """CVaR of the exact return distribution under the chosen model."""
    dist = enumerate_return_distribution(
        pair, policy, b_k=query.belief, model=model,
        first_action=query.action, leaf_budget=leaf_budget)
    return cvar_exact(dist, query.alpha)


def _conservative_grid_envelope(traj, grid_l) -> PointwiseEnvelope:
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


def bound_report(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                 grid_l=None,
                 leaf_budget: int = DEFAULT_LEAF_BUDGET) -> BoundReport:
    """All exact values and bounds for one query, sharing the enumerations."""
    dist = enumerate_return_distribution(
        pair, policy, b_k=query.belief, model="original",
        first_action=query.action, leaf_budget=leaf_budget)
    dist_s = enumerate_return_distribution(
        pair, policy, b_k=query.belief, model="simplified",
        first_action=query.action, leaf_budget=leaf_budget)
    traj = enumerate_trajectory_expectations(
        pair, policy, b_k=query.belief, first_action=query.action,
        leaf_budget=leaf_budget)
    alpha = query.alpha
    span = _return_span(pair)
    bounds = SupportBounds(-span, span)
    env = UniformEnvelope(traj.epsilon)
    lo = uniform_lower(dist_s, alpha, env, bounds)
    hi = uniform_upper(dist_s, alpha, env, bounds)
    gap_env = traj.envelope() if grid_l is None else _conservative_grid_envelope(
        traj, grid_l)
    tight = tight_lower(dist_s, gap_env, alpha)
    return BoundReport(
        q_true=cvar_exact(dist, alpha),
        q_simplified=cvar_exact(dist_s, alpha),
        lower_uniform=lo,
        upper_uniform=hi,
        lower_tight=tight,
        epsilon=traj.epsilon,
        case_tags={"upper": upper_case_tag(alpha, env),
                   "lower": lower_case_tag(alpha, env)},
    )
