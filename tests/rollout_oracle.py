"""Reference rollouts: one particle filter at a time, one step at a time.

This is the straightforward form of the rollout pool that the batched kernel
in ``riskgap.estimation`` replaces.  The pool's one generator is built
through NumPy directly, ``default_rng(SeedSequence(seed, spawn_key=(_ROLLOUT,
0)))``, and each step's (C, 3 + N_x) block of uniforms is drawn from it up
front.  Rollout i then runs alone on a reader over row i of every block:
each step reads the reference particle, its successor, the observation and
then the per-particle vector, and the next action comes from a validated
``Belief``.  Tests compare the batched returns against these bit for bit.
``as_belief`` reads a particle set back as the belief it represents.
"""

import numpy as np

from riskgap.estimation import _ROLLOUT, DegenerateWeightsError
from riskgap.pomdp import PROB_FLOOR, Belief


class LoopKernel:
    def __init__(self, pair, model):
        trans, obs = pair.tensors(model)
        self.cum_trans = np.cumsum(trans, axis=2)
        self.obs = obs
        self.cum_obs = np.cumsum(obs, axis=1)
        self.costs = pair.original.state_cost
        self.n_states = trans.shape[1]

    def step(self, states, weights, a, rng):
        cum_w = np.cumsum(weights)
        total = cum_w[-1]
        j = min(int(np.searchsorted(cum_w, rng.random() * total, side="left")),
                states.size - 1)
        row = self.cum_trans[a, states[j]]
        x0p = min(int(np.searchsorted(row, rng.random(), side="left")),
                  self.n_states - 1)
        z = min(int(np.searchsorted(self.cum_obs[x0p], rng.random(), side="left")),
                self.cum_obs.shape[1] - 1)
        u = rng.random(states.size)
        succ = (self.cum_trans[a][states] < u[:, None]).sum(axis=1)
        succ = np.minimum(succ, self.n_states - 1)
        rho = float(weights @ self.costs[states, a] / total)
        new_w = weights * self.obs[succ, z]
        if new_w.sum() <= PROB_FLOOR:
            raise DegenerateWeightsError(
                "all particle weights underflowed on observation reweight")
        return succ, new_w, rho

    def rollout(self, policy, states, weights, a, t, depth, rng):
        total = 0.0
        for step in range(depth):
            states, weights, rho = self.step(states, weights, a, rng)
            total += rho
            if step + 1 < depth:
                probs = np.bincount(states, weights=weights, minlength=self.n_states)
                a = policy.action(t + step + 1, Belief(probs / probs.sum()))
        return total


def as_belief(particles, n_states):
    probs = np.bincount(particles.states, weights=particles.weights,
                        minlength=n_states)
    return Belief(probs / probs.sum())


class RowReader:
    """Hands out one rollout's uniforms in order, like a generator would."""

    def __init__(self, values):
        self.values = values
        self.pos = 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = self.values[self.pos:self.pos + n]
        self.pos += n
        return out[0] if size is None else out


def loop_rollout_returns(pair, policy, b_bar, a, t, depth, config,
                         model="simplified"):
    """Same contract as ``rollout_returns``, one rollout after another."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n_rows = config.num_rollouts_C
    if depth == 0:
        return np.zeros(n_rows)
    kernel = LoopKernel(pair, model)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.rng_seed, spawn_key=(_ROLLOUT, 0)))
    blocks = [rng.random((n_rows, 3 + b_bar.states.size)) for _ in range(depth)]
    vals = [kernel.rollout(policy, b_bar.states, b_bar.weights, a, t, depth,
                           RowReader(np.concatenate([block[i] for block in blocks])))
            for i in range(n_rows)]
    return np.asarray(vals, dtype=float)
