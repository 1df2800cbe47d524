"""Reference exact oracles: depth-first walks of the belief-MDP tree.

The tree forms of ``riskgap.pomdp.enumerate_return_distribution`` and
``riskgap.pomdp.enumerate_trajectory_expectations``, which read the merged
(belief, return) nodes of one forward walk instead; the gaps are that walk's
``GapAtoms`` table, reduced with exact weights.  In the return-law walk
every leaf is one path of the tree with its own return.  In the gap walk
every tree node pays its own ``tv_distance``; its weight prob * TV is added
to the step's m_i, and its indicator threshold joins the jumps of g, which
merge within ``MERGE_TOL`` after sorting.  Tests compare the forward walk
against these on random instances.

``belief_update`` is the one-observation Bayes update that
``riskgap.pomdp.belief_mdp_step`` computes for every observation at once,
and ``observation_mass`` its normaliser; tests check each successor row and
mass against them.  Both add over states one at a time from the left, as
every contraction of the package does.
"""

import numpy as np

from riskgap.pomdp import (
    DEFAULT_LEAF_BUDGET,
    PROB_FLOOR,
    Belief,
    BudgetExceededError,
    Policy,
    SimplifiedPair,
    TrajectoryExpectations,
    _start,
    belief_cost,
    belief_mdp_step,
    tv_distance,
)
from riskgap.risk import MERGE_TOL, DiscreteDistribution


class ImpossibleObservationError(ValueError):
    """Conditioning on an observation of probability (numerically) zero."""


def sum_left_to_right(terms) -> float | np.ndarray:
    """terms[0] + terms[1] + ..., added one term at a time from the left."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _unnormalised(pair: SimplifiedPair, b: Belief, a: int, z: int,
                  model: str) -> np.ndarray:
    t, o = pair.tensors(model)
    return o[:, z] * sum_left_to_right([t[a][x] * b.probs[x] for x in range(b.probs.size)])


def observation_mass(pair: SimplifiedPair, b: Belief, a: int, z: int,
                     model: str = "original") -> float:
    """P(z | b, a): the normaliser of ``belief_update``."""
    return float(sum_left_to_right(_unnormalised(pair, b, a, z, model)))


def belief_update(pair: SimplifiedPair, b: Belief, a: int, z: int,
                  model: str = "original") -> Belief:
    """Posterior over states after acting and observing: b' ∝ O[:, z] * (T' b)."""
    unnorm = _unnormalised(pair, b, a, z, model)
    norm = float(sum_left_to_right(unnorm))
    if norm <= PROB_FLOOR:
        raise ImpossibleObservationError(
            f"observation {z} has probability {norm} under action {a}"
        )
    return Belief(unnorm / norm)


def dfs_return_distribution(pair: SimplifiedPair, policy: Policy,
                            b_k: Belief | None = None,
                            model: str = "original",
                            first_action=None,
                            leaf_budget: int = DEFAULT_LEAF_BUDGET,
                            ) -> DiscreteDistribution:
    """Exact law of the return R_{k:T} = sum_t c(b_t, a_t) under the policy.

    Depth-first expansion of the belief-MDP tree from start_k to horizon_T;
    leaves with equal return merge inside DiscreteDistribution.
    """
    m = pair.original
    b_k, a0 = _start(pair, policy, b_k, first_action)
    values: list[float] = []
    masses: list[float] = []
    # node: (t, belief, action, accumulated probability, accumulated return)
    stack = [(m.start_k, b_k, a0, 1.0, 0.0)]
    leaves = 0
    while stack:
        t, b, a, prob, acc = stack.pop()
        acc += belief_cost(pair, b, a)
        if t == m.horizon_T:
            leaves += 1
            if leaves > leaf_budget:
                raise BudgetExceededError(
                    f"return enumeration exceeds {leaf_budget} leaves"
                )
            values.append(acc)
            masses.append(prob)
            continue
        for row, q in zip(*belief_mdp_step(pair, b, a, model)):
            p = prob * q
            if p < PROB_FLOOR:
                continue
            nb = Belief(row)
            stack.append((t + 1, nb, policy.action(t + 1, nb), p, acc))
    return DiscreteDistribution(np.array(values), np.array(masses))


def dfs_trajectory_expectations(pair: SimplifiedPair, policy: Policy,
                                b_k: Belief | None = None,
                                first_action=None,
                                leaf_budget: int = DEFAULT_LEAF_BUDGET,
                                ) -> TrajectoryExpectations:
    """Exact m_i, epsilon and g(l) by enumerating simplified-model prefixes.

    Steps i run k+1 .. T-1; the indicator threshold for a prefix with
    return R at step i is R + c(b_k, a_k) - (T - i) * r_max, i.e. the
    smallest l making R <= f(l, i) true.
    """
    m = pair.original
    b_k, a0 = _start(pair, policy, b_k, first_action)
    c0 = belief_cost(pair, b_k, a0)
    first_step = m.start_k + 1
    steps = m.horizon_T - 1 - m.start_k  # number of interior steps
    per_step = np.zeros(max(steps, 0))
    raw: list[tuple[float, float]] = []  # (threshold, weight)

    expanded = 0
    if steps > 0:
        stack = [
            (first_step, Belief(row), q, 0.0)
            for row, q in zip(*belief_mdp_step(pair, b_k, a0, "simplified"))
        ]
        while stack:
            t, b, prob, prefix = stack.pop()
            expanded += 1
            if expanded > leaf_budget:
                raise BudgetExceededError(
                    f"trajectory enumeration exceeds {leaf_budget} nodes"
                )
            a = policy.action(t, b)
            prefix = prefix + belief_cost(pair, b, a)
            w = prob * tv_distance(pair, b, a)
            per_step[t - first_step] += w
            if w > 0.0:
                raw.append((prefix + c0 - (m.horizon_T - t) * m.r_max, w))
            if t < m.horizon_T - 1:
                for row, q in zip(*belief_mdp_step(pair, b, a, "simplified")):
                    p = prob * q
                    if p < PROB_FLOOR:
                        continue
                    stack.append((t + 1, Belief(row), p, prefix))

    raw.sort(key=lambda e: e[0])
    thresholds: list[float] = []
    weights: list[float] = []
    for thr, w in raw:
        if thresholds and thr - thresholds[-1] <= MERGE_TOL:
            weights[-1] += w
        else:
            thresholds.append(thr)
            weights.append(w)
    return TrajectoryExpectations(
        per_step_m=per_step,
        epsilon=float(per_step.sum()),
        thresholds=np.array(thresholds, dtype=float),
        threshold_weights=np.array(weights, dtype=float),
    )
