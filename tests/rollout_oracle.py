"""Reference rollouts: one particle filter at a time, one step at a time.

This is the straightforward form of the rollout pool that the batched kernel
in ``riskgap.estimation`` replaces; like it, it samples the pair's simplified
model only.  The pool's one generator is built
through NumPy directly, ``default_rng(SeedSequence(seed, spawn_key=(_ROLLOUT,
0)))``, and each transition's (C, 3 + N_x) block of uniforms is drawn from
it up front; a rollout of d step costs makes d - 1 transitions and so takes
d - 1 blocks.  Rollout i then runs alone on a reader over row i of every
block: each transition reads the reference state (searched in the
cumulative ``bincount(states, weights, minlength=S)``), its successor, the
observation and then the per-particle vector, and the next action comes
from a validated ``Belief``.  Each step cost is the kernel's row-wise dot of
those masses with the cost column, over their sum, taken on a one-row
array.  Tests compare the batched returns against these bit for bit.
``as_belief`` reads a particle set back as the belief it represents.
"""

import numpy as np

from riskgap.estimation import _ROLLOUT, DegenerateWeightsError
from riskgap.pomdp import PROB_FLOOR, Belief


class LoopKernel:
    def __init__(self, pair):
        trans, obs = pair.tensors("simplified")
        self.cum_trans = np.cumsum(trans, axis=2)
        self.obs = obs
        self.cum_obs = np.cumsum(obs, axis=1)
        self.costs = pair.original.state_cost
        self.n_states = trans.shape[1]

    def cost(self, masses, a):
        m = masses[None, :]  # the kernel's row-wise dot, on a one-row array
        return float(((m * self.costs[:, a]).sum(axis=1) / m.sum(axis=1))[0])

    def step(self, states, weights, masses, a, rng):
        cum_m = np.cumsum(masses)
        x0 = int(np.searchsorted(cum_m, rng.random() * cum_m[-1], side="left"))
        row = self.cum_trans[a, x0]
        x0p = min(int(np.searchsorted(row, rng.random(), side="left")),
                  self.n_states - 1)
        z = min(int(np.searchsorted(self.cum_obs[x0p], rng.random(), side="left")),
                self.cum_obs.shape[1] - 1)
        u = rng.random(states.size)
        succ = (self.cum_trans[a][states] < u[:, None]).sum(axis=1)
        succ = np.minimum(succ, self.n_states - 1)
        new_w = weights * self.obs[succ, z]
        if new_w.sum() <= PROB_FLOOR:
            raise DegenerateWeightsError(
                "all particle weights underflowed on observation reweight")
        return succ, new_w

    def rollout(self, policy, states, weights, a, t, depth, rng):
        masses = np.bincount(states, weights=weights, minlength=self.n_states)
        total = self.cost(masses, a)
        for step in range(t + 1, t + depth):
            states, weights = self.step(states, weights, masses, a, rng)
            masses = np.bincount(states, weights=weights, minlength=self.n_states)
            a = policy.action(step, Belief(masses / masses.sum()))
            total += self.cost(masses, a)
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


def loop_rollout_returns(pair, policy, b_bar, a, t, depth, config):
    """Same contract as ``rollout_returns``, one rollout after another."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n_rows = config.num_rollouts_C
    if depth == 0:
        return np.zeros(n_rows)
    kernel = LoopKernel(pair)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.rng_seed, spawn_key=(_ROLLOUT, 0)))
    # one block per transition, drawn in the order the kernel fills them
    blocks = rng.random((depth - 1, n_rows, 3 + b_bar.states.size))
    vals = [kernel.rollout(policy, b_bar.states, b_bar.weights, a, t, depth,
                           RowReader(blocks[:, i].ravel()))
            for i in range(n_rows)]
    return np.asarray(vals, dtype=float)
