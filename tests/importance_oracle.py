"""Reference importance estimators that sum their draws directly.

``riskgap.estimation.estimate_epsilon`` and ``estimate_g`` read both
estimates off ``GapAtoms.reduce``, the proposal's gap atoms reduced with
sampled weights, as the exact oracle reduces them with exact ones.  These
oracles sum the same multinomial draws without it:
epsilon as the per-step weighted sums divided by N, g as a cumsum of the
scaled weights over every (atom, step) threshold sorted together, with no
merging of near-equal thresholds.  They draw from ``rng`` exactly as the
library does, so tests compare the two on one seed.
"""

import numpy as np

from riskgap.estimation import ProposalQ0, _draw_counts
from riskgap.pomdp import SimplifiedPair


def oracle_epsilon(q0: ProposalQ0, n_delta: int, rng: np.random.Generator) -> float:
    counts = _draw_counts(q0.proposal_probs, n_delta, rng)
    ratio = q0.target_probs / q0.proposal_probs[:, None]
    m_hat = (counts[:, None] * ratio * q0.gaps).sum(axis=0) / float(n_delta)
    return float(m_hat.sum())


def oracle_g(q0: ProposalQ0, pair: SimplifiedPair, n_delta: int, grid_l,
             rng: np.random.Generator) -> np.ndarray:
    m = pair.original
    grid = np.atleast_1d(np.asarray(grid_l, dtype=float))
    counts = _draw_counts(q0.proposal_probs, n_delta, rng)
    ratio = q0.target_probs / q0.proposal_probs[:, None]
    contrib = (counts[:, None] * ratio * q0.gaps) / float(n_delta)
    # step i = first_step + j counts atom e once l >= prefix + c0 - (T - i) r_max
    t_axis = q0.first_step + np.arange(q0.n_steps)
    thresholds = q0.prefix_returns[:, None] + q0.c0 - (m.horizon_T - t_axis) * m.r_max
    order = np.argsort(thresholds, axis=None)
    cum = np.cumsum(contrib.ravel()[order])
    idx = np.searchsorted(thresholds.ravel()[order], grid, side="right")
    return np.concatenate(([0.0], cum))[idx]
