"""Monte-Carlo estimation: particle-filter rollouts, importance-sampled
gap estimators, sample-size formulas, and certified value bounds.

Randomness contract: every operation takes either an explicit generator or
a RolloutConfig seed. Seeded entry points derive one independent PCG64
stream per logical task (rollout index, draw batch) via SeedSequence spawn
keys, so outputs depend on the seed alone, not on the order in which the
tasks are evaluated. Rollout i of a pool draws from the PCG64 stream of
``SeedSequence(seed, spawn_key=(_ROLLOUT, i))``, whose seed words are
computed for all C rollouts in one vectorised pass (``_spawn_states``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import PointwiseEnvelope, dominated_cdf
from .pomdp import (
    DEFAULT_LEAF_BUDGET,
    Belief,
    Policy,
    SimplifiedPair,
    _first_action,
    _gap_reduction,
    _return_span,
    _walk_simplified,
)
from .risk import _COMPARE_TOL, DiscreteDistribution, cvar_estimate_sorted, cvar_exact
from .value_bounds import ValueQuery

# spawn-key stream kinds; one namespace per source of randomness
_INIT, _ROLLOUT, _EPS, _GDRAW, _GINV = range(5)


class DegenerateWeightsError(RuntimeError):
    """Every particle of a rollout has zero likelihood for its observation."""


class UnsupportedBeliefError(ValueError):
    """A belief with positive target probability has no proposal mass."""


class InapplicableCaseError(RuntimeError):
    """The estimated gap landed in a regime the certified bound does not cover."""


def _stream(seed: int, kind: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(kind, index)))


# NumPy's SeedSequence constants (a pool of four uint32 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _spawn_states(seed: int, kind: int, n: int) -> np.ndarray:
    """(n, 4) uint64 PCG64 seed words of the streams _stream(seed, kind, i).

    Row i equals ``SeedSequence(seed, spawn_key=(kind, i)).generate_state(4,
    np.uint64)`` for kind, i < 2**32: NumPy's entropy mix and output hash on
    (n,) uint32 arrays, one per word. The running hash constant does not
    depend on the data, so one scalar serves every row.
    """
    const = _INIT_A

    def hashmix(v, mult=_MULT_A):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ v >> _SHIFT

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> _SHIFT

    run = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n, w, np.uint32) for w in run + [0] * (4 - len(run)) + [kind]]
    entropy.append(np.arange(n, dtype=np.uint32))
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = _INIT_B
    out = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    # little-endian pairs of uint32 words make one uint64 word
    return np.stack([out[j] | out[j + 1] << np.uint64(32) for j in range(0, 8, 2)],
                    axis=1)


def _spawn_streams(seed: int, kind: int, n: int) -> list:
    """Generators equal to [_stream(seed, kind, i) for i in range(n)]."""
    # a local import keeps numpy.random out of `import riskgap`
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        # hands PCG64 its four precomputed uint64 seed words
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(FixedState(words)))
            for words in _spawn_states(seed, kind, n)]


# ---------------------------------------------------------------------- types


@dataclass(frozen=True)
class RolloutConfig:
    num_rollouts_C: int
    num_particles_Nx: int
    rng_seed: int

    def __post_init__(self) -> None:
        if int(self.num_rollouts_C) < 1 or int(self.num_particles_Nx) < 1:
            raise ValueError("rollout and particle counts must be >= 1")
        if int(self.rng_seed) < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        object.__setattr__(self, "num_rollouts_C", int(self.num_rollouts_C))
        object.__setattr__(self, "num_particles_Nx", int(self.num_particles_Nx))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


@dataclass(frozen=True)
class ParticleBelief:
    """Weighted particle set {(state_i, w_i)}; at least one positive weight."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.states, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.shape != w.shape or s.size == 0:
            raise ValueError("states and weights must be aligned non-empty vectors")
        if np.any(s < 0):
            raise ValueError("state indices must be >= 0")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and >= 0")
        if w.max() <= 0.0:
            raise ValueError("at least one particle weight must be positive")
        s.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_belief(cls, belief: Belief, n_particles: int,
                    rng: np.random.Generator) -> "ParticleBelief":
        """n_particles states sampled iid from the belief, unit weights."""
        cum = np.cumsum(belief.probs)
        states = np.searchsorted(cum, rng.random(int(n_particles)), side="left")
        states = np.minimum(states, belief.probs.size - 1)
        return cls(states, np.ones(int(n_particles)))


@dataclass(frozen=True)
class ProposalQ0:
    """Finite proposal over (successor belief, prefix return) support atoms.

    ``target_probs[e, j]`` is the exact simplified-model probability of atom
    e at interior step ``first_step + j``; prefixes include the step's own
    belief cost. ``c0`` is the step-k belief cost of the queried action, used
    by the event thresholds of g. ``gaps[e, j]`` is the exact TV gap of atom
    e under the policy's action at step ``first_step + j``; the target
    probabilities already tie the proposal to one (pair, policy). The exact
    gap oracle and the estimators are one reduction of these atoms
    (``pomdp._gap_reduction``): the oracle weighs them by
    ``target_probs * gaps``, the estimators by sampled importance weights.
    """

    beliefs: tuple
    prefix_returns: np.ndarray
    proposal_probs: np.ndarray
    target_probs: np.ndarray
    first_step: int
    c0: float
    gaps: np.ndarray

    def __post_init__(self) -> None:
        pref = np.asarray(self.prefix_returns, dtype=float)
        prop = np.asarray(self.proposal_probs, dtype=float)
        targ = np.asarray(self.target_probs, dtype=float)
        gaps = np.asarray(self.gaps, dtype=float)
        n = len(self.beliefs)
        if n == 0:
            raise ValueError("proposal support must be non-empty")
        if pref.shape != (n,) or prop.shape != (n,):
            raise ValueError("prefix_returns and proposal_probs must have one entry per atom")
        if targ.ndim != 2 or targ.shape[0] != n or targ.shape[1] < 1:
            raise ValueError("target_probs must be (n_atoms, n_steps) with n_steps >= 1")
        if np.any(targ < 0.0) or not np.all(np.isfinite(targ)):
            raise ValueError("target probabilities must be finite and >= 0")
        if gaps.shape != targ.shape:
            raise ValueError("gaps must have the shape of target_probs")
        if np.any(gaps < 0.0) or not np.all(np.isfinite(gaps)):
            raise ValueError("gaps must be finite and >= 0")
        if np.any(prop <= 0.0):
            raise UnsupportedBeliefError("every support atom needs positive proposal mass")
        if abs(prop.sum() - 1.0) > _COMPARE_TOL:
            raise ValueError("proposal probabilities must sum to 1")
        for arr in (pref, prop, targ, gaps):
            arr.flags.writeable = False
        object.__setattr__(self, "beliefs", tuple(self.beliefs))
        object.__setattr__(self, "prefix_returns", pref)
        object.__setattr__(self, "proposal_probs", prop)
        object.__setattr__(self, "target_probs", targ)
        object.__setattr__(self, "first_step", int(self.first_step))
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "gaps", gaps)

    @property
    def n_steps(self) -> int:
        return self.target_probs.shape[1]

    @property
    def importance_bound(self) -> float:
        """B = max over steps and atoms of target / proposal (always >= 1)."""
        return float((self.target_probs / self.proposal_probs[:, None]).max())


@dataclass(frozen=True)
class BinGrid:
    """Strictly increasing bin edges k_0 < ... < k_I for the return axis."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.isfinite(e)) or np.any(np.diff(e) <= 0.0):
            raise ValueError("bin edges must be finite and strictly increasing")
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    @classmethod
    def uniform(cls, pair: SimplifiedPair, n_bins: int) -> "BinGrid":
        span = _return_span(pair)
        return cls(np.linspace(-span, span, int(n_bins) + 1))

    def covers_return_range(self, pair: SimplifiedPair) -> bool:
        span = _return_span(pair)
        return (self.edges[0] <= -span + _COMPARE_TOL
                and self.edges[-1] >= span - _COMPARE_TOL)


@dataclass(frozen=True)
class CertifiedBound:
    """One certified bound value with the deviation radii that back it.

    ``v`` is the gap-accuracy parameter for the uniform kinds and the derived
    deviation radius for TightLower; ``radii`` holds the named radius terms.
    The certify_* constructors enforce that n_delta_used meets the matching
    sample-size requirement before building the bound.
    """

    value: float
    kind: str
    delta: float
    v: float
    eta: float
    n_delta_used: int
    c_used: int
    radii: dict

    def __post_init__(self) -> None:
        if self.kind not in ("L1", "L2", "U", "TightLower"):
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("bound value must be finite")


# ------------------------------------------------------------------- rollouts


class _RolloutKernel:
    """Particle-filter steps for a batch of rollouts over one (pair, model) tensor set.

    Row i of the (C, N_x) state and weight arrays is rollout i. A step reads
    its randomness from a (C, 3 + N_x) array of uniforms; row i holds, in
    draw order, rollout i's reference-particle, reference-successor and
    observation draws, then one draw per particle.
    """

    def __init__(self, pair: SimplifiedPair, model: str):
        trans, obs = pair.tensors(model)
        self.n_states = trans.shape[1]
        self.cum_trans = np.cumsum(trans, axis=2)
        self.cum_obs = np.cumsum(obs, axis=1)
        # flat gather tables: entry a * S + x of cum_cols[col] is
        # cum_trans[a, x, col], of flat_costs is cost[x, a]; entry z * S + x
        # of flat_obs is obs[x, z]
        self.cum_cols = np.ascontiguousarray(
            np.moveaxis(self.cum_trans, 2, 0).reshape(self.n_states, -1))
        self.flat_costs = np.ascontiguousarray(pair.original.state_cost.T).ravel()
        self.flat_obs = np.ascontiguousarray(obs.T).ravel()

    def step(self, states, weights, actions, u, t: int | None = None):
        """One transition of every row; returns (successors, new weights, rho).

        rho is each row's mean cost under its *old* weights and *current*
        states. A row whose weight sum falls below 1/2 is scaled up by a
        power of two, which is exact, so rho, the reference draw and the
        belief argmax of later steps are unchanged by it. Each (C, N_x)
        temporary is dropped as soon as it is used, which keeps peak memory
        near that of the state, weight and uniform arrays.
        """
        n_rows, n = states.shape
        cum_w = np.cumsum(weights, axis=1)
        total = cum_w[:, -1].copy()
        # counting entries below the draw is searchsorted(side="left") on a
        # non-decreasing row
        j = np.minimum(np.count_nonzero(cum_w < (u[:, 0] * total)[:, None], axis=1),
                       n - 1)
        del cum_w
        ref_row = self.cum_trans[actions, states[np.arange(n_rows), j]]
        x0p = np.minimum(np.count_nonzero(ref_row < u[:, 1:2], axis=1),
                         self.n_states - 1)
        obs_row = self.cum_obs[x0p]
        z = np.minimum(np.count_nonzero(obs_row < u[:, 2:3], axis=1),
                       obs_row.shape[1] - 1)
        # successor = number of cumulative-transition entries below the draw;
        # counting the first S - 1 columns caps it at S - 1 without a
        # (C, N_x, S) tensor
        flat = actions[:, None] * self.n_states + states
        succ = np.zeros(states.shape, dtype=np.intp)
        for col in range(self.n_states - 1):
            succ += np.take(self.cum_cols[col], flat) < u[:, 3:]
        # a stacked matmul keeps each row's dot product identical to
        # weights[i] @ costs[i]
        costs = np.take(self.flat_costs, flat)
        del flat
        rho = (weights[:, None, :] @ costs[:, :, None])[:, 0, 0] / total
        del costs
        new_w = np.take(self.flat_obs, z[:, None] * self.n_states + succ)
        new_w *= weights
        sums = new_w.sum(axis=1)
        if not np.all(sums > 0.0):
            i = int(np.argmin(sums > 0.0))
            where = "" if t is None else f" at step {t}"
            raise DegenerateWeightsError(
                f"all {n} particle weights of rollout {i} are zero after the "
                f"observation reweight{where}")
        exponent = np.frexp(sums)[1]
        if np.any(exponent < 0):
            np.ldexp(new_w, np.maximum(-exponent, 0)[:, None], out=new_w)
        return succ, new_w, rho

    def rollouts(self, policy: Policy, states, weights, a: int, t: int,
                 depth: int, streams: list) -> np.ndarray:
        """Returns of len(streams) rollouts of `depth` steps from time t.

        Rollout i draws its uniforms from streams[i], each step's block in
        the order a one-rollout loop would draw them.
        """
        table_rows = range(t + 1 - policy.start_k, t + depth - policy.start_k)
        if table_rows and not (0 <= table_rows[0]
                               and table_rows[-1] < policy.actions.shape[0]):
            raise ValueError(f"policy has no row for time steps {t + 1}..{t + depth - 1}")
        n_rows, n_states = len(streams), self.n_states
        states = np.tile(states, (n_rows, 1))
        weights = np.tile(weights, (n_rows, 1))
        actions = np.full(n_rows, int(a), dtype=np.intp)
        u = np.empty((n_rows, 3 + states.shape[1]))
        offsets = np.arange(n_rows)[:, None] * n_states
        returns = np.zeros(n_rows)
        for step in range(depth):
            for rng, row in zip(streams, u):
                rng.random(out=row)
            states, weights, rho = self.step(states, weights, actions, u, t + step)
            returns += rho
            if step + 1 < depth:
                probs = np.bincount((offsets + states).ravel(), weights=weights.ravel(),
                                    minlength=n_rows * n_states).reshape(n_rows, n_states)
                probs /= probs.sum(axis=1, keepdims=True)
                actions = policy.actions[t + step + 1 - policy.start_k,
                                         probs.argmax(axis=1)]
        return returns


def rollout_returns(pair: SimplifiedPair, policy: Policy, b_bar: ParticleBelief,
                    a: int, t: int, depth: int, config: RolloutConfig,
                    model: str = "simplified") -> np.ndarray:
    """C independent rollout returns, one derived rng stream per rollout index.

    All C rollouts advance together as (C, N_x) arrays; rollout i's return
    depends only on the seed and i.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return np.zeros(config.num_rollouts_C)
    return _RolloutKernel(pair, model).rollouts(
        policy, b_bar.states, b_bar.weights, a, t, depth,
        _spawn_streams(config.rng_seed, _ROLLOUT, config.num_rollouts_C))


# ------------------------------------------------------- importance estimators


def build_default_proposal(pair: SimplifiedPair, policy: Policy,
                           b_k: Belief | None = None,
                           first_action=None,
                           leaf_budget: int = DEFAULT_LEAF_BUDGET) -> ProposalQ0:
    """Exact pooled proposal over the simplified walk's (belief, prefix-return)
    atoms of interior steps k+1..T-1: 0.5 * (per-step marginal averaged over
    steps) + 0.5 * uniform over the pooled support, which keeps the importance
    ratio finite and exactly computable."""
    beliefs, prefixes, targets, gaps, first_step, c0 = _walk_simplified(
        pair, policy, b_k, first_action, leaf_budget)
    proposal = 0.5 * targets.mean(axis=1) + 0.5 / len(beliefs)
    return ProposalQ0(beliefs, prefixes, proposal, targets, first_step, c0, gaps)


def _draw_counts(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # n iid draws from a finite law realized as multinomial counts over its
    # atoms; every estimator here depends on the draw multiset only, so
    # this is distribution-identical to drawing one atom at a time.
    return rng.multinomial(int(n), probs / probs.sum())


def _sampled_gaps(q0: ProposalQ0, pair: SimplifiedPair, n_delta: int,
                  rng: np.random.Generator):
    """The gap reduction of q0's atoms under n_delta importance draws: atom e
    at step j weighs count_e * target[e, j] / proposal[e] * gap[e, j] / n_delta."""
    if n_delta < 1:
        raise ValueError("n_delta must be >= 1")
    counts = _draw_counts(q0.proposal_probs, n_delta, rng)
    ratio = q0.target_probs / q0.proposal_probs[:, None]
    return _gap_reduction(pair, q0.prefix_returns, q0.c0, q0.first_step,
                          counts[:, None] * ratio * q0.gaps, float(n_delta))


def estimate_epsilon(q0: ProposalQ0, pair: SimplifiedPair, policy: Policy,
                     n_delta: int, rng: np.random.Generator) -> float:
    """Importance-weighted estimate of the summed per-step expected gap.

    m_hat_i = (1/N) * sum_n [target_i(atom_n) / proposal(atom_n)] * gap(atom_n);
    returns sum_i m_hat_i. The gap is the exact TV distance stored on the
    proposal, so the estimate is unbiased.
    """
    return _sampled_gaps(q0, pair, n_delta, rng).epsilon


def estimate_g(q0: ProposalQ0, pair: SimplifiedPair, policy: Policy,
               n_delta: int, grid_l, rng: np.random.Generator) -> np.ndarray:
    """Estimated CDF-gap curve on a grid of return levels.

    Each support atom carries its simulated prefix return, so the step-i
    indicator 1{prefix <= l - c0 + (T - i) * r_max} is evaluated exactly per
    draw; the result is right-continuous and saturates at the epsilon estimate.
    """
    return _sampled_gaps(q0, pair, n_delta, rng).g_at(grid_l)


# --------------------------------------------------------- sample-size formulas


def _check_rate_args(v: float, delta: float, B: float, gap: int) -> None:
    if v <= 0.0:
        raise ValueError("accuracy parameter must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if B < 1.0:
        raise ValueError("importance bound B must be >= 1")
    if gap < 1:
        raise ValueError("horizon gap must be >= 1")


def n_delta_for_epsilon(v: float, delta: float, B: float, T: int, k: int) -> int:
    """Draws sufficient for |epsilon_hat - epsilon| <= 2v w.p. >= 1 - delta."""
    gap = T - 1 - k
    _check_rate_args(v, delta, B, gap)
    return math.ceil(-8.0 * B * B * math.log(delta / (4.0 * gap)) / (v / gap) ** 2)


def n_delta_for_g(v: float, delta: float, B: float, T: int, k: int) -> int:
    """Draws sufficient for one fixed level: |g_hat(l) - g(l)| <= v w.p. >= 1 - delta."""
    gap = T - 1 - k
    _check_rate_args(v, delta, B, gap)
    return math.ceil(-math.log((delta / gap) / 2.0) * 2.0 * B * B / (v / gap) ** 2)


def n_delta_for_h(v: float, delta: float, B: float, n_bins: int, T: int, k: int) -> int:
    """Draws sufficient for the binned envelopes to trap g uniformly within v."""
    gap = T - 1 - k
    _check_rate_args(v, delta, B, gap)
    if n_bins < 1:
        raise ValueError("need at least one bin")
    return math.ceil(
        -math.log(((delta / n_bins) / gap) / 2.0) * 2.0 * B * B / (v / gap) ** 2)


def n_delta_for_uniform_bounds(v: float, delta: float, B: float, T: int, k: int) -> int:
    """Precondition draw count for certify_uniform (note the T - k horizon term)."""
    gap = T - k
    _check_rate_args(v, delta, B, gap)
    return math.ceil(
        -8.0 * B * B * math.log((delta / 2.0) / (4.0 * gap)) / (v / gap) ** 2)


def n_delta_for_tight_lower(eta: float, delta: float, B: float, n_bins: int,
                            T: int, k: int) -> int:
    """Precondition draw count for certify_tight_lower (envelope rate at delta/4)."""
    return n_delta_for_h(eta, delta / 4.0, B, n_bins, T, k)


# ------------------------------------------------------------- binned envelopes


def binned_h(g_on_edges, grid: BinGrid):
    """Upper/lower step envelopes for g from its values on bin edges.

    h_plus takes the right-edge value on each bin, monotonized by running max
    (which can only raise it, preserving the upper-bound direction). h_minus
    takes g(k_i) on [k_i, k_{i+1}) and 0 left of k_0, monotonized by a running
    min from the right (which can only lower it, preserving the lower-bound
    direction), so it is at most g at every edge.
    """
    g = np.asarray(g_on_edges, dtype=float)
    if g.shape != grid.edges.shape:
        raise ValueError("need exactly one g value per bin edge")
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("g values must be finite and >= 0")
    upper = np.maximum.accumulate(g)[1:]
    h_plus = PointwiseEnvelope(grid.edges[:-1], upper)
    h_minus = PointwiseEnvelope(grid.edges, np.minimum.accumulate(g[::-1])[::-1])
    return h_plus, h_minus


# -------------------------------------------------------------- certified bounds


def _simplified_return_pool(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                            config: RolloutConfig) -> np.ndarray:
    m = pair.original
    b_bar = ParticleBelief.from_belief(
        query.belief, config.num_particles_Nx, _stream(config.rng_seed, _INIT, 0))
    a_k = _first_action(pair, policy, query.belief, query.action)
    depth = m.horizon_T - m.start_k + 1
    return rollout_returns(pair, policy, b_bar, a_k, m.start_k, depth, config,
                           "simplified")


def certify_uniform(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                    config: RolloutConfig, q0: ProposalQ0, n_delta: int,
                    v: float, delta: float) -> list:
    """Certified lower and upper bounds from one pool of simplified rollouts.

    Emits L1 (small estimated gap) or L2 (gap too large for the shifted-tail
    form), plus U when alpha > epsilon_hat; each bound records its deviation
    radii. When alpha <= epsilon_hat the upper bound is omitted and the lower
    bound's radii carry a ``u_omitted`` tag.
    """
    m = pair.original
    T, k = m.horizon_T, m.start_k
    span = _return_span(pair)
    alpha = query.alpha.alpha
    required = n_delta_for_uniform_bounds(v, delta, q0.importance_bound, T, k)
    if n_delta < required:
        raise ValueError(
            f"n_delta {n_delta} is below the certified-rate requirement {required}")

    eps_hat = estimate_epsilon(q0, pair, policy, n_delta,
                               _stream(config.rng_seed, _EPS, 0))
    returns = _simplified_return_pool(pair, policy, query, config)
    C = config.num_rollouts_C

    def q_hat(level: float) -> float:
        return cvar_estimate_sorted(returns, level)

    bounds = []
    if eps_hat + alpha < 1.0:
        second = 0.0
        if eps_hat > 0.0:
            shifted = eps_hat - 4.0 * v
            if not 0.0 < shifted < 1.0:
                raise InapplicableCaseError(
                    f"shifted tail level epsilon_hat - 4v = {shifted:.6g} "
                    "falls outside (0, 1); no certified lower bound applies")
            second = (eps_hat / alpha) * q_hat(shifted)
        value = ((alpha + eps_hat - 4.0 * v) / alpha) * q_hat(alpha + eps_hat) - second
        radii = {
            "epsilon_hat": eps_hat,
            # recorded verbatim; the first radius is negative as specified
            "lambda_1": -(2.0 * span / alpha) * math.sqrt(
                math.log(1.0 / (delta / 4.0)) / (2.0 * C)),
            "lambda_2": (math.sqrt(eps_hat) / alpha) * 2.0 * span * math.sqrt(
                5.0 * math.log(3.0 / (delta / 4.0)) / C),
        }
        lower = CertifiedBound(value, "L1", delta, v, 0.0, n_delta, C, radii)
    else:
        value = (float(returns.mean())
                 - (eps_hat + 4.0 * v) * q_hat(alpha)
                 - (alpha + eps_hat + 4.0 * v - 1.0) * span) / alpha
        radii = {
            "epsilon_hat": eps_hat,
            "eta_1": math.sqrt(-math.log(delta / 4.0) * span / (C * C * alpha * alpha)),
            "eta_2": (2.0 * math.sqrt(eps_hat + 4.0 * v) / alpha) * span * math.sqrt(
                5.0 * math.log(3.0 / (delta / 4.0)) / C),
        }
        lower = CertifiedBound(value, "L2", delta, v, 0.0, n_delta, C, radii)
    bounds.append(lower)

    if alpha > eps_hat:
        value = (((alpha - eps_hat + 4.0 * v) / alpha) * q_hat(alpha - eps_hat)
                 + (eps_hat / alpha) * span)
        radii = {
            "epsilon_hat": eps_hat,
            "lambda": 2.0 * span * (math.sqrt(alpha - eps_hat) / alpha) * math.sqrt(
                5.0 * math.log(3.0 / (delta / 2.0)) / C),
        }
        bounds.append(CertifiedBound(value, "U", delta, v, 0.0, n_delta, C, radii))
    else:
        lower.radii["u_omitted"] = 1.0
    return bounds


def lower_cdf_distribution(returns, h_plus: PointwiseEnvelope, eta: float,
                           edges) -> DiscreteDistribution:
    """Dominated step law min(1, empirical CDF + h_plus + eta) as a distribution.

    It is ``dominated_cdf`` of the empirical law under the step envelope
    h_plus + eta on the bin edges: breakpoints are the union of rollout
    returns and bin edges, and the added mass lands at the first breakpoint at
    or above its true location, so the result is stochastically no larger than
    the law it dominates.
    """
    ret = np.asarray(returns, dtype=float)
    empirical = DiscreteDistribution(ret, np.full(ret.size, 1.0 / ret.size))
    return dominated_cdf(empirical, PointwiseEnvelope(edges, h_plus.at(edges) + eta))


def certify_tight_lower(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                        config: RolloutConfig, q0: ProposalQ0, n_delta: int,
                        eta: float, delta: float, grid: BinGrid) -> CertifiedBound:
    """Certified lower bound via the estimated dominated CDF.

    Builds min(1, empirical simplified-return CDF + h_plus + eta), draws
    n_delta iid values from it as multinomial counts over its atoms, and
    returns the empirical CVaR of those draws with the deviation radius
    recorded in ``v``.
    """
    m = pair.original
    T, k = m.horizon_T, m.start_k
    span = _return_span(pair)
    alpha = query.alpha.alpha
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    if not grid.covers_return_range(pair):
        raise ValueError("bin grid must span the full return range")
    required = n_delta_for_tight_lower(eta, delta, q0.importance_bound,
                                       grid.n_bins, T, k)
    if n_delta < required:
        raise ValueError(
            f"n_delta {n_delta} is below the certified-rate requirement {required}")

    g_hat = estimate_g(q0, pair, policy, n_delta, grid.edges,
                       _stream(config.rng_seed, _GDRAW, 0))
    h_plus, _ = binned_h(g_hat, grid)
    returns = _simplified_return_pool(pair, policy, query, config)
    dist = lower_cdf_distribution(returns, h_plus, eta, grid.edges)

    # the empirical CVaR of iid draws depends on their multiset only
    counts = _draw_counts(dist.probs, n_delta, _stream(config.rng_seed, _GINV, 0))
    value = cvar_exact(DiscreteDistribution(dist.values, counts / n_delta), alpha)
    radius = (2.0 * span / alpha) * math.sqrt(
        math.log(1.0 / (delta / 4.0)) / (2.0 * n_delta))
    return CertifiedBound(value, "TightLower", delta, radius, eta,
                          int(n_delta), config.num_rollouts_C, {"v": radius})
