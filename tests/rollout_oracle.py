"""Reference rollouts: one particle filter at a time, one step at a time.

This is the straightforward form of the rollout pool that the batched kernel
in ``riskgap.estimation`` replaces.  Rollout i runs alone on the generator
of its own stream (seed, _ROLLOUT, i); each step draws the reference
particle, its successor, the observation and then the per-particle vector,
and the next action comes from a validated ``Belief``.  Tests compare the
batched returns against these bit for bit.

The streams are built through NumPy's own ``SeedSequence`` (``_stream``) on
purpose: the kernel computes the same streams' seed words in one vectorised
pass, and this oracle checks that pass independently.  ``as_belief`` reads a
particle set back as the belief it represents.
"""

import numpy as np

from riskgap.estimation import _ROLLOUT, DegenerateWeightsError, _stream
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


def loop_rollout_returns(pair, policy, b_bar, a, t, depth, config,
                         model="simplified"):
    """Same contract as ``rollout_returns``, one rollout after another."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    kernel = LoopKernel(pair, model)
    vals = [0.0 if depth == 0 else
            kernel.rollout(policy, b_bar.states, b_bar.weights, a, t, depth,
                           _stream(config.rng_seed, _ROLLOUT, i))
            for i in range(config.num_rollouts_C)]
    return np.asarray(vals, dtype=float)
