"""Built-in benchmark model pairs plus a seeded random-instance generator.

The per-step model gap is a total-variation distance between atomic laws
over successor beliefs, so it saturates at 2 as soon as the two models
place posteriors at different points.  Instances that should exhibit a
*moderate* gap therefore keep part of the sensor deterministic (shared
posterior atoms whose masses shift), while degrade_heavy deliberately
uses fully overlapping noisy sensors to drive the gap into saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pomdp import Belief, FinitePomdp, Policy, SimplifiedPair
from .risk import _count, _real
from .value_bounds import ValueQuery


class UnknownScenarioError(ValueError):
    """Requested a built-in scenario that does not exist."""


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    pair: SimplifiedPair
    policy: Policy
    default_query: ValueQuery
    notes: str


def _spec(name, pair, policy, notes, alpha=0.25) -> ScenarioSpec:
    query = ValueQuery(Belief(pair.original.initial_belief), alpha)
    return ScenarioSpec(name, pair, policy, query, notes)


def _unit_pair(trans, obs, cost, b0, horizon_T: int, trans_s, obs_s) -> SimplifiedPair:
    # every pair here bounds its costs by r_max = 1 and starts at step 0
    return SimplifiedPair(FinitePomdp(trans, obs, cost, 1.0, b0, horizon_T, 0), trans_s, obs_s)


def _two_state_sensor() -> ScenarioSpec:
    # Safe/danger world.  The danger state is unambiguous (its sensor row is
    # deterministic and shared), so the z=0 posterior is the same point mass
    # under both models and only its mass shifts when the safe-state false
    # alarm rate is inflated from 0.1 to 0.25 — a moderate, non-saturated gap.
    advance = np.array([[0.97, 0.03], [0.20, 0.80]])
    retreat = np.array([[1.0, 0.0], [1.0, 0.0]])
    obs = np.array([[0.9, 0.1], [0.0, 1.0]])
    obs_s = np.array([[0.75, 0.25], [0.0, 1.0]])
    cost = np.array([[0.3, 0.0], [0.5, 1.0]])  # columns: retreat, advance
    trans = np.stack([retreat, advance])
    pair = _unit_pair(trans, obs, cost, np.array([1.0, 0.0]), 4, trans, obs_s)
    # advance twice, then retreat; rows are (time, most-likely state)
    policy = Policy(np.array([[1, 1], [1, 1], [0, 0], [0, 0], [0, 0]]),
                    start_k=0)
    return _spec("two_state_sensor", pair, policy,
                 "2-state sensor world; simplified false-alarm rate 0.25 vs 0.1")


def _line_transition(n, slip, direction) -> np.ndarray:
    t = np.zeros((n, n))
    for x in range(n):
        target = min(x + 1, n - 1) if direction > 0 else max(x - 1, 0)
        t[x, target] += 1.0 - slip
        t[x, x] += slip
    return t


def _corridor4() -> ScenarioSpec:
    # 4-state corridor with a perfect position sensor; the simplified model
    # only inflates the right-slip probability, so successor atoms coincide
    # and the gap is the L1 distance between predicted position distributions.
    #
    # An identifying sensor makes particle rollouts fragile: each stochastic
    # step keeps only the particles whose sampled successor matches the
    # reference draw, and a thinned cloud can zero out entirely (the rollout
    # chain never resamples).  Extinction odds per step scale like
    # p_branch * (1 - p_branch)^survivors, so the instance is built to keep
    # survivor counts fat: a point-mass start (the first reweight keeps
    # >= slip fraction of the full cloud), slip rates >= 0.3 under both
    # models, and a deterministic retreat for the remaining steps (lockstep
    # moves cannot thin the cloud at all).
    n = 4
    left = _line_transition(n, 0.0, -1)
    right = _line_transition(n, 0.3, +1)
    right_s = _line_transition(n, 0.55, +1)
    obs = np.eye(n)
    cost = np.tile(np.array([[0.8], [0.5], [0.2], [0.0]]), (1, 2))
    pair = _unit_pair(np.stack([left, right]), obs, cost, np.array([1.0, 0.0, 0.0, 0.0]), 3,
                      np.stack([left, right_s]), obs)
    # advance twice, retreat twice; the shared deterministic retreat rows
    # pin the interior-step gap to the single slip difference: epsilon = 0.5
    policy = Policy(np.array([[1] * n, [1] * n, [0] * n, [0] * n]), start_k=0)
    return _spec("corridor4", pair, policy,
                 "4-state corridor, perfect sensor; simplified slip 0.55 vs 0.3")


def _degrade_heavy() -> ScenarioSpec:
    # Fully overlapping noisy sensors: any interior belief produces disjoint
    # posterior atoms under the two models, so each interior step contributes
    # a saturated gap of 2 and epsilon >= 1 at every confidence level.
    trans = np.array([[[0.6, 0.4], [0.4, 0.6]]])
    obs = np.array([[0.9, 0.1], [0.1, 0.9]])
    obs_s = np.array([[0.75, 0.25], [0.25, 0.75]])
    cost = np.array([[0.2], [0.9]])
    pair = _unit_pair(trans, obs, cost, np.array([0.5, 0.5]), 3, trans, obs_s)
    policy = Policy(np.zeros((4, 2), dtype=int), start_k=0)
    return _spec("degrade_heavy", pair, policy,
                 "saturated-gap pair: epsilon exceeds every alpha", alpha=0.1)


_BUILTINS = {
    "two_state_sensor": _two_state_sensor,
    "corridor4": _corridor4,
    "degrade_heavy": _degrade_heavy,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> ScenarioSpec:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return factory()


def random_instance(seed: int, n_states: int = 3, n_actions: int = 2,
                    n_obs: int = 3, horizon_gap: int = 3,
                    perturbation: float = 0.2) -> ScenarioSpec:
    """Seeded random pair: Dirichlet transitions, deterministic sensor.

    The sensor maps state x to observation x mod n_obs.  A deterministic
    sensor keeps the posterior atoms of the two models aligned, so the
    per-step gap responds smoothly to `perturbation` (the weight of the
    uniform row mixed into the simplified transition) instead of
    saturating at 2 the moment the models differ.
    """
    if not _real(perturbation, "perturbation", 0) <= 1.0:
        raise ValueError(f"perturbation must be in [0, 1], got {perturbation}")
    sizes = dict(n_states=n_states, n_actions=n_actions, n_obs=n_obs, horizon_gap=horizon_gap)
    n_states, n_actions, n_obs, horizon_gap = (_count(n, name, 1) for name, n in sizes.items())
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    obs = np.zeros((n_states, n_obs))
    obs[np.arange(n_states), np.arange(n_states) % n_obs] = 1.0
    cost = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    b0 = rng.dirichlet(np.ones(n_states))
    uniform_rows = np.full_like(trans, 1.0 / n_states)
    trans_s = (1.0 - perturbation) * trans + perturbation * uniform_rows
    pair = _unit_pair(trans, obs, cost, b0, horizon_gap, trans_s, obs)
    policy = Policy(rng.integers(0, n_actions, size=(horizon_gap + 1, n_states)),
                    start_k=0)
    return _spec(f"random_{seed}", pair, policy,
                 f"seeded random instance (perturbation={perturbation})")
