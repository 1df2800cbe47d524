"""Tail-risk evaluation of POMDP policies under a simplified belief model.

The package computes CVaR-style tail values of a policy's cost-to-go, exact
by enumeration on small finite problems, and certifies lower/upper bounds on
the true value when only the simplified model can be simulated.  ``risk``
holds the scalar risk measure and its estimator, ``envelopes`` the
CDF-gap sandwich machinery, ``pomdp`` the model pair and exact oracles,
``value_bounds`` the enumeration-backed bounds, ``estimation`` the
Monte-Carlo estimators and certified bounds, ``scenarios`` the built-in test
problems, and ``cli`` the report driver.
"""

from .envelopes import (
    PointwiseEnvelope,
    cdf_gap_envelope,
    dominated_cdf,
    tight_lower,
    uniform_lower,
    uniform_upper,
)
from .estimation import (
    BinGrid,
    CertifiedBound,
    DegenerateWeightsError,
    InapplicableCaseError,
    ParticleBelief,
    ProposalQ0,
    RolloutConfig,
    UnsupportedBeliefError,
    binned_h,
    build_default_proposal,
    certify_tight_lower,
    certify_uniform,
    estimate_epsilon,
    estimate_g,
    lower_cdf_distribution,
    n_delta_for_epsilon,
    n_delta_for_g,
    n_delta_for_h,
    n_delta_for_tight_lower,
    n_delta_for_uniform_bounds,
    rollout_returns,
)
from .pomdp import (
    Belief,
    BudgetExceededError,
    FinitePomdp,
    Policy,
    SimplifiedPair,
    belief_cost,
    belief_mdp_step,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
    load_problem,
    save_problem,
    tv_distance,
)
from .risk import (
    DiscreteDistribution,
    cvar_estimate_inf,
    cvar_estimate_sorted,
    cvar_exact,
    deviation_radii,
)
from .scenarios import ScenarioSpec, builtin, builtin_names, random_instance
from .value_bounds import (
    BoundReport,
    ValueQuery,
    bound_report,
    q_exact,
)

__version__ = "0.1.0"
