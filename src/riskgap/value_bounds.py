"""Exact risk-averse value functions and certified bounds between models.

Everything here is oracle-grade: return distributions are enumerated, so
Q/V values are exact and the model-gap bounds can be checked against the
truth.  Two bound families are exposed — the uniform one driven by the
scalar gap epsilon, and the tighter one that dominates the simplified
return CDF by the cumulative gap function g.
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelopes import (
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


def bound_report(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                 leaf_budget: int = DEFAULT_LEAF_BUDGET) -> BoundReport:
    """All exact values and bounds for one query, sharing the enumerations."""
    dist, dist_s = (enumerate_return_distribution(
        pair, policy, b_k=query.belief, model=model, first_action=query.action,
        leaf_budget=leaf_budget) for model in ("original", "simplified"))
    traj = enumerate_trajectory_expectations(
        pair, policy, b_k=query.belief, first_action=query.action,
        leaf_budget=leaf_budget)
    alpha = query.alpha
    span = _return_span(pair)
    bounds = SupportBounds(-span, span)
    env = UniformEnvelope(traj.epsilon)
    lo = uniform_lower(dist_s, alpha, env, bounds)
    hi = uniform_upper(dist_s, alpha, env, bounds)
    tight = tight_lower(dist_s, traj.envelope(), alpha)
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
