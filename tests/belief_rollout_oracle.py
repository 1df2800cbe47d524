"""Reference rollouts on exact beliefs: the belief-MDP sampled, not filtered.

Each of C rows carries an (S,) belief. At each step a row draws one
observation from the masses of ``riskgap.pomdp.belief_mdp_step`` and moves to
that observation's successor row; the step cost is the belief's expected
cost under the policy's action. No particle filter is involved, so the
returns are iid draws of the exact law that
``riskgap.pomdp.enumerate_return_distribution`` computes for the same model,
and a Dvoretzky–Kiefer–Wolfowitz band bounds their empirical CDF's distance
from it.
"""

import numpy as np

from riskgap.pomdp import Belief, belief_mdp_step


def exact_belief_returns(pair, policy, n_rows, rng, model="simplified"):
    """(n_rows,) returns R_{k:T} of rollouts from the initial belief, each
    step's observation drawn with one uniform per row."""
    m = pair.original
    cost = m.state_cost
    beliefs = np.tile(m.initial_belief, (n_rows, 1))
    rows = np.arange(n_rows)
    returns = np.zeros(n_rows)
    for t in range(m.start_k, m.horizon_T + 1):
        actions = policy.actions[t - policy.start_k, beliefs.argmax(axis=1)]
        returns += (beliefs * cost[:, actions].T).sum(axis=1)
        if t == m.horizon_T:
            break
        u = rng.random(n_rows)
        for i in rows:
            successors, probs = belief_mdp_step(pair, Belief(beliefs[i]),
                                                actions[i], model)
            cum = np.cumsum(probs)
            z = min(int(np.searchsorted(cum, u[i] * cum[-1], side="right")),
                    len(probs) - 1)
            beliefs[i] = successors[z]
    return returns


def dkw_radius(n, delta):
    """sup_l |F_n(l) - F(l)| exceeds this with probability at most delta
    (Dvoretzky, Kiefer & Wolfowitz 1956, with Massart's 1990 constant)."""
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * n)))


def midpoint_gap(dist, sample):
    """sup over the midpoints between consecutive atoms of ``dist`` of the gap
    between its CDF and the empirical CDF of ``sample``. At an atom itself a
    draw that lands a rounding error away would count on the wrong side."""
    values = dist.values
    if values.size < 2:
        return 0.0
    mids = 0.5 * (values[:-1] + values[1:])
    exact = np.cumsum(dist.probs)[:-1]
    empirical = np.searchsorted(np.sort(sample), mids, side="right") / sample.size
    return float(np.max(np.abs(empirical - exact)))
