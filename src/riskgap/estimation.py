"""Monte-Carlo estimation: particle-filter rollouts of the simplified model only,
importance-sampled gap estimators, sample-size formulas, and certified value bounds.

Randomness contract: every operation takes either an explicit generator or
a RolloutConfig seed. Seeded entry points derive one independent PCG64
stream per logical task (initial particles, rollout pool, draw batch) via
SeedSequence spawn keys, so outputs depend on the seed alone, not on the
order in which the tasks are evaluated. A rollout pool draws from the one
stream ``SeedSequence(seed, spawn_key=(_ROLLOUT, 0))``: each transition
takes one (C, 3 + N_x) block of uniforms, row i for rollout i, and a pool of
d step costs makes d - 1 transitions, so the pool's returns are iid and
depend on the seed and C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import PointwiseEnvelope, dominated_cdf
from .pomdp import (
    DEFAULT_LEAF_BUDGET,
    Belief,
    GapAtoms,
    Policy,
    SimplifiedPair,
    _action_index,
    _return_span,
    _start,
    _walk_simplified,
    validate_policy,
)
from .risk import (_COMPARE_TOL, DiscreteDistribution, _count, _fold, _integer_array,
                   _integral_int, _level, _read_only, _ReadOnlyDict, _real, cvar_estimate_sorted,
                   cvar_exact)
from .value_bounds import ValueQuery

# spawn-key stream kinds, one per source of randomness (kind 3 is unused)
_INIT, _ROLLOUT, _EPS, _GINV = 0, 1, 2, 4


class DegenerateWeightsError(RuntimeError):
    """Every particle of a rollout has zero likelihood for its observation."""


class UnsupportedBeliefError(ValueError):
    """A belief with positive target probability has no proposal mass."""


class InapplicableCaseError(RuntimeError):
    """The estimated gap landed in a regime the certified bound does not cover."""


def _stream(seed: int, kind: int) -> np.random.Generator:
    # the constant 0 is part of every stream's key; without it every report changes
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(kind, 0)))


# ---------------------------------------------------------------------- types


@dataclass(frozen=True)
class RolloutConfig:
    num_rollouts_C: int
    num_particles_Nx: int
    rng_seed: int

    def __post_init__(self) -> None:
        for name, least in (("num_rollouts_C", 1), ("num_particles_Nx", 1), ("rng_seed", 0)):
            # Python ints, not int64: a derived seed can reach 2**64 - 1
            object.__setattr__(self, name, _count(getattr(self, name), name, least))


@dataclass(frozen=True)
class ParticleBelief:
    """Weighted particle set {(state_i, w_i)}; at least one positive weight."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        s = _integer_array(self.states, "states")
        w = _read_only(self.weights, "weights")
        if s.ndim != 1 or s.shape != w.shape or s.size == 0:
            raise ValueError("states and weights must be aligned non-empty vectors")
        if np.any(s < 0):
            raise ValueError("state indices must be >= 0")
        if np.any(w < 0.0):
            raise ValueError("weights must be >= 0")
        if w.max() <= 0.0:
            raise ValueError("at least one particle weight must be > 0")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_belief(cls, belief: Belief, n_particles: int,
                    rng: np.random.Generator) -> "ParticleBelief":
        """n_particles states sampled iid from the belief, unit weights."""
        n_particles = _count(n_particles, "n_particles", 1)
        cum = np.cumsum(belief.probs)
        states = np.searchsorted(cum, rng.random(n_particles), side="left")
        states = np.minimum(states, belief.probs.size - 1)
        return cls(states, np.ones(n_particles))


@dataclass(frozen=True, kw_only=True)
class ProposalQ0(GapAtoms):
    """A finite importance proposal: ``proposal_probs[e]`` > 0 is the mass of
    gap atom e. The exact ``target_probs`` tie it to one (pair, policy) and
    ``b_k``/``a_k`` to one query; the estimators reduce its atoms
    (``GapAtoms.reduce``) with sampled importance weights."""

    proposal_probs: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        prop = _read_only(self.proposal_probs, "proposal_probs")
        if prop.shape != (len(self.beliefs),):
            raise ValueError("proposal_probs must have one entry per atom")
        if np.any(prop <= 0.0):
            raise UnsupportedBeliefError("every support atom needs positive proposal mass")
        if abs(prop.sum() - 1.0) > _COMPARE_TOL:
            raise ValueError("proposal probabilities must sum to 1")
        object.__setattr__(self, "proposal_probs", prop)

    @property
    def importance_bound(self) -> float:
        """B = max over steps and atoms of target / proposal (always >= 1)."""
        return float((self.target_probs / self.proposal_probs[:, None]).max())


@dataclass(frozen=True)
class BinGrid:
    """Strictly increasing bin edges k_0 < ... < k_I for the return axis."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        e = _read_only(self.edges, "edges")
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two bin edges")
        if np.any(np.diff(e) <= 0.0):
            raise ValueError("bin edges must be strictly increasing")
        object.__setattr__(self, "edges", e)

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    @classmethod
    def uniform(cls, pair: SimplifiedPair, n_bins: int) -> "BinGrid":
        span = _return_span(pair)
        return cls(np.linspace(-span, span, _count(n_bins, "n_bins", 1) + 1))

    def covers_return_range(self, pair: SimplifiedPair) -> bool:
        span = _return_span(pair)
        return (self.edges[0] <= -span + _COMPARE_TOL
                and self.edges[-1] >= span - _COMPARE_TOL)


# the radius terms of each bound kind; TightLower's one term is its v
_RADIUS_TERMS = {"L1": ("lambda_1", "lambda_2"), "L2": ("eta_1", "eta_2"), "U": ("lambda",),
                 "TightLower": ("v",)}


@dataclass(frozen=True)
class CertifiedBound:
    """One certified bound value with the deviation radii that back it.

    ``v`` is the gap accuracy for the uniform kinds and the derived
    deviation radius for TightLower; ``radii`` holds the named radius terms, a
    read-only copy. ``_certify_levels`` checks that n_delta_used meets the
    matching sample-size requirement before it builds a bound.
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
        object.__setattr__(self, "radii", _ReadOnlyDict(self.radii))
        if self.kind not in _RADIUS_TERMS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("bound value must be finite")

    @property
    def radius(self) -> float:
        """How far past the truth the bound may sit before its delta-guarantee is
        violated: its kind's radius terms, added in ``_RADIUS_TERMS`` order."""
        return sum(self.radii[name] for name in _RADIUS_TERMS[self.kind])


# ------------------------------------------------------------------- rollouts


class _RolloutKernel:
    """Particle-filter steps for a batch of rollouts over the pair's simplified tensors.

    A step advances a block of rollouts: row j of its (rows, N_x) state and
    weight arrays and (rows, S) masses (m_x = summed weight of the particles in
    state x) stores state x as j * S + x, its entry in the flattened masses, so
    the masses are one bincount and each step's per-row tables are gathered
    without index arithmetic. Its (rows, 3 + N_x) uniforms hold per row, in
    draw order, the reference-state draw (from the masses, which has the law of
    a particle drawn by weight), reference-successor and observation draws, then
    one draw per particle.
    """

    block_rows = 64  # rollouts run this many at a time; the returns do not depend on it

    def __init__(self, pair: SimplifiedPair):
        trans, obs = pair.simplified_transition, pair.simplified_observation
        self.n_states = trans.shape[1]
        # a last entry of 1 is never below a draw in [0, 1), which caps counts
        self.cum_trans = np.cumsum(trans, axis=2)
        self.cum_trans[..., -1] = 1.0
        self.cum_obs = np.cumsum(obs, axis=1)
        self.cum_obs[:, -1] = 1.0
        # cum_cols[col, a, x] is cum_trans[a, x, col]; obs_rows[z, x] is obs[x, z]
        self.cum_cols = np.ascontiguousarray(np.moveaxis(self.cum_trans, 2, 0))
        self.obs_rows = np.ascontiguousarray(obs.T)
        self.cost_rows = np.ascontiguousarray(pair.original.state_cost.T)

    def masses(self, states, weights):
        """(rows, S) per-state weight sums of (rows, N_x) state and weight rows."""
        n_rows = states.shape[0]
        return np.bincount(states.ravel(), weights=weights.ravel(),
                           minlength=n_rows * self.n_states).reshape(n_rows, -1)

    def mean_cost(self, masses, actions):
        """Each row's mean cost of its action under its belief."""
        return _fold((masses * self.cost_rows[actions]).T) / _fold(masses.T)

    def step(self, states, weights, masses, actions, u, first_row: int = 0,
             t: int | None = None) -> None:
        """One transition of a block of rows, in place; an error names rollout
        ``first_row`` + the row.

        A row whose weight sum falls below 1/2 is scaled up by a power of
        two, which is exact, so the mean cost, the reference draw and the
        belief argmax of later steps are unchanged by it.
        """
        n_rows, n_states = masses.shape
        cum_m = np.cumsum(masses, axis=1)
        x0 = np.count_nonzero(cum_m < (u[:, 0] * cum_m[:, -1])[:, None], axis=1)
        x0p = np.count_nonzero(self.cum_trans[actions, x0] < u[:, 1:2], axis=1)
        z = np.count_nonzero(self.cum_obs[x0p] < u[:, 2:3], axis=1)
        # successor = row offset + count of cumulative-transition entries
        # below the draw, one column at a time, with no (rows, N_x, S) tensor
        cols = self.cum_cols[:, actions]
        succ = np.arange(n_rows)[:, None] * n_states + (np.take(cols[0], states) < u[:, 3:])
        for col in range(1, n_states - 1):
            succ += np.take(cols[col], states) < u[:, 3:]
        states[...] = succ
        weights *= np.take(self.obs_rows[z], states)
        masses[...] = self.masses(states, weights)
        sums = _fold(masses.T)
        if not np.all(sums > 0.0):
            i = first_row + int(np.argmin(sums > 0.0))
            where = "" if t is None else f" at step {t}"
            raise DegenerateWeightsError(
                f"all {states.shape[1]} particle weights of rollout {i} are zero "
                f"after the observation reweight{where}")
        exponent = np.frexp(sums)[1]
        if np.any(exponent < 0):
            scale = np.maximum(-exponent, 0)[:, None]
            np.ldexp(weights, scale, out=weights)
            np.ldexp(masses, scale, out=masses)

    def rollouts(self, policy: Policy, states, weights, a: int, t: int,
                 depth: int, n_rows: int, rng: np.random.Generator) -> np.ndarray:
        """Returns of n_rows rollouts of `depth` step costs (depth - 1 transitions)
        from time t. Each transition reads one (n_rows, 3 + N_x) fill of
        ``rng``'s PCG64 stream, row i for rollout i; ``block_rows`` rollouts at
        a time step through every transition in place, each block filling its
        rows of each fill and advancing the stream past the others."""
        block, width = min(n_rows, self.block_rows), 3 + states.size
        returns = np.empty(n_rows)
        for r0 in range(0, n_rows, block):
            rows = min(block, n_rows - r0)
            block_states = np.arange(rows)[:, None] * self.n_states + states
            block_weights = np.tile(weights, (rows, 1))
            masses = self.masses(block_states, block_weights)
            actions = np.full(rows, a, dtype=np.intp)
            u = np.empty((rows, width))
            returns[r0:r0 + rows] = self.mean_cost(masses, actions)
            for step in range(t + 1, t + depth):
                self.step(block_states, block_weights, masses, actions,
                          rng.random(out=u), r0, step - 1)
                rng.bit_generator.advance((n_rows - rows) * width)
                actions = policy._at(step, masses / _fold(masses.T)[:, None])
                returns[r0:r0 + rows] += self.mean_cost(masses, actions)
            # back to the next block's rows of the first fill, modulo the period
            rng.bit_generator.advance((rows - (depth - 1) * n_rows) * width % 2**128)
        return returns


def rollout_returns(pair: SimplifiedPair, policy: Policy, b_bar: ParticleBelief,
                    a: int, t: int, depth: int, config: RolloutConfig) -> np.ndarray:
    """C iid returns of the simplified model from one derived rng stream per pool.

    The C rollouts read one stream, one (C, 3 + N_x) fill per transition, so
    the returns depend on the seed and C. ``a`` is the step-t action, resolved.
    """
    m = pair.original
    if not isinstance(b_bar, ParticleBelief):
        raise ValueError(f"b_bar must be a ParticleBelief, got {type(b_bar).__name__}")
    validate_policy(pair, policy)
    a = _action_index(pair, a)
    t, depth = _integral_int(t, "t"), _count(depth, "depth", 0)
    if b_bar.states.max() >= m.n_states:
        raise ValueError(f"states must lie in [0, {m.n_states}), got {b_bar.states.max()}")
    if not (m.start_k <= t and t + depth - 1 <= m.horizon_T):
        raise ValueError(f"policy has no row for time steps {t}..{t + depth - 1}")
    if depth == 0:
        return np.zeros(config.num_rollouts_C)
    return _RolloutKernel(pair).rollouts(
        policy, b_bar.states, b_bar.weights, a, t, depth, config.num_rollouts_C,
        _stream(config.rng_seed, _ROLLOUT))


# ------------------------------------------------------- importance estimators


def build_default_proposal(pair: SimplifiedPair, policy: Policy,
                           b_k: Belief | None = None,
                           first_action=None,
                           leaf_budget: int = DEFAULT_LEAF_BUDGET) -> ProposalQ0:
    """Exact pooled proposal over the simplified walk's (belief, prefix-return)
    atoms of interior steps k+1..T-1: 0.5 * (per-step marginal averaged over
    steps) + 0.5 * uniform over the pooled support, which keeps the importance
    ratio finite and exactly computable."""
    atoms = _walk_simplified(pair, policy, b_k, first_action, leaf_budget)
    proposal = 0.5 * atoms.target_probs.mean(axis=1) + 0.5 / len(atoms.beliefs)
    return ProposalQ0(**vars(atoms), proposal_probs=proposal)


_DRAW_LIMIT = "n_delta {} is outside [1, 2**63 - 1], the limit of one draw"


def _draw_counts(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # n iid draws from a finite law realized as multinomial counts over its
    # atoms; every estimator here depends on the draw multiset only, so
    # this is distribution-identical to drawing one atom at a time.
    n = _count(n, "n_delta", 1)
    if n > 2**63 - 1:  # numpy's multinomial takes n as a C long
        raise ValueError(_DRAW_LIMIT.format(n))
    return rng.multinomial(n, probs / probs.sum())


def _sampled_gaps(q0: ProposalQ0, n_delta: int, rng: np.random.Generator):
    """q0's gap reduction under n_delta importance draws from its proposal."""
    counts = _draw_counts(q0.proposal_probs, n_delta, rng)
    ratio = q0.target_probs / q0.proposal_probs[:, None]
    return q0.reduce(counts[:, None] * ratio, float(n_delta))


def estimate_epsilon(q0: ProposalQ0, pair: SimplifiedPair, policy: Policy,
                     n_delta: int, rng: np.random.Generator) -> float:
    """Unbiased estimate of the summed per-step expected gap: ``_sampled_gaps``
    reweights q0's exact TV gaps. Reads q0 only, not ``pair`` or ``policy``."""
    return _sampled_gaps(q0, n_delta, rng).epsilon


def estimate_g(q0: ProposalQ0, pair: SimplifiedPair, policy: Policy,
               n_delta: int, grid_l, rng: np.random.Generator) -> np.ndarray:
    """Estimated CDF-gap curve on a grid of return levels: each atom's step-i
    indicator 1{l >= its threshold} is exact per draw, and the curve saturates
    at the epsilon estimate. Reads q0 only, as ``estimate_epsilon`` does."""
    return _sampled_gaps(q0, n_delta, rng).g_at(grid_l)


# --------------------------------------------------------- sample-size formulas


def _rate_args(v, delta, B, T: int, k: int, last: int) -> tuple:
    """A formula's v, delta, B and horizon gap T - last - k, each by its rule."""
    gap = _integral_int(T, "T") - last - _integral_int(k, "k")
    return (_real(v, "v", 0, strict=True), _level(delta, "delta"), _real(B, "B", 1),
            _count(gap, "horizon gap", 1))


def _draws(top: float, v: float, gap: int) -> int:
    """A formula's draw count ceil(top / (v / gap) ** 2): 1 where the square is past
    the float range, as top > 0, and refused where the count is, as when the square
    underflows to 0 at a tiny v."""
    try:
        width = (v / gap) ** 2
    except OverflowError:
        return 1
    n = top / width if width else math.inf
    if n == math.inf:
        raise ValueError(_DRAW_LIMIT.format(n))
    return math.ceil(n)


def n_delta_for_epsilon(v: float, delta: float, B: float, T: int, k: int) -> int:
    """Draws sufficient for |epsilon_hat - epsilon| <= 2v w.p. >= 1 - delta."""
    v, delta, B, gap = _rate_args(v, delta, B, T, k, 1)
    return _draws(-8.0 * B * B * math.log(delta / (4.0 * gap)), v, gap)


def n_delta_for_g(v: float, delta: float, B: float, T: int, k: int) -> int:
    """Draws sufficient for one fixed level: |g_hat(l) - g(l)| <= v w.p. >= 1 - delta."""
    return n_delta_for_h(v, delta, B, 1, T, k)


def n_delta_for_h(v: float, delta: float, B: float, n_bins: int, T: int, k: int) -> int:
    """Draws sufficient for the binned envelopes to trap g uniformly within v."""
    v, delta, B, gap = _rate_args(v, delta, B, T, k, 1)
    n_bins = _count(n_bins, "n_bins", 1)
    return _draws(-math.log(((delta / n_bins) / gap) / 2.0) * 2.0 * B * B, v, gap)


def n_delta_for_uniform_bounds(v: float, delta: float, B: float, T: int, k: int) -> int:
    """Precondition draw count for certify_uniform (note the T - k horizon term)."""
    v, delta, B, gap = _rate_args(v, delta, B, T, k, 0)
    return _draws(-8.0 * B * B * math.log((delta / 2.0) / (4.0 * gap)), v, gap)


def n_delta_for_tight_lower(eta: float, delta: float, B: float, n_bins: int,
                            T: int, k: int) -> int:
    """Precondition draw count for certify_tight_lower (envelope rate at delta/4)."""
    return n_delta_for_h(_real(eta, "eta", 0, strict=True), _level(delta, "delta") / 4.0,
                         B, n_bins, T, k)


# ------------------------------------------------------------- binned envelopes


def binned_h(g_on_edges, grid: BinGrid):
    """Upper/lower step envelopes for g from its values on bin edges.

    h_plus takes the right-edge value on each bin, monotonized by running max
    (which can only raise it, preserving the upper-bound direction). h_minus
    takes g(k_i) on [k_i, k_{i+1}) and 0 left of k_0, monotonized by a running
    min from the right (which can only lower it, preserving the lower-bound
    direction), so it is at most g at every edge.
    """
    g = _read_only(g_on_edges, "g_on_edges")
    if g.shape != grid.edges.shape:
        raise ValueError("need exactly one g value per bin edge")
    if np.any(g < 0.0):
        raise ValueError("g values must be >= 0")
    upper = np.maximum.accumulate(g)[1:]
    h_plus = PointwiseEnvelope(grid.edges[:-1], upper)
    h_minus = PointwiseEnvelope(grid.edges, np.minimum.accumulate(g[::-1])[::-1])
    return h_plus, h_minus


# -------------------------------------------------------------- certified bounds


def _simplified_return_pool(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                            config: RolloutConfig) -> np.ndarray:
    m = pair.original
    b_k, a_k = _start(pair, policy, query.belief, query.action)
    b_bar = ParticleBelief.from_belief(b_k, config.num_particles_Nx,
                                       _stream(config.rng_seed, _INIT))
    depth = m.horizon_T - m.start_k + 1
    return rollout_returns(pair, policy, b_bar, a_k, m.start_k, depth, config)


def _certified_n_delta(pair: SimplifiedPair, q0: ProposalQ0, n_delta: int | None,
                       delta: float, v=None, eta=None, grid: BinGrid | None = None) -> int:
    """Draws the uniform bounds (given v) and TightLower (given eta and grid)
    need together; raises ValueError if an explicit n_delta falls short."""
    m, b = pair.original, q0.importance_bound
    required = []
    if v is not None:
        required.append(n_delta_for_uniform_bounds(v, delta, b, m.horizon_T, m.start_k))
    if grid is not None:
        if not grid.covers_return_range(pair):
            raise ValueError("bin grid must span the full return range")
        required.append(n_delta_for_tight_lower(eta, delta, b, grid.n_bins,
                                                m.horizon_T, m.start_k))
    need = max(required)
    if n_delta is not None and _count(n_delta, "n_delta", 1) < need:
        raise ValueError(
            f"n_delta {n_delta} is below the certified-rate requirement {need}")
    return need


def _uniform_bounds(returns: np.ndarray, eps_hat: float, alpha: float, v: float,
                    delta: float, span: float, n_delta: int) -> list | InapplicableCaseError:
    """L1 (small estimated gap) or L2 (gap too large for the shifted-tail
    form), plus U when alpha > eps_hat, from one pool of simplified returns;
    each bound records its deviation radii. When alpha <= eps_hat the upper
    bound is omitted and the lower bound's radii carry a ``u_omitted`` tag.
    Where no lower bound applies, it returns (not raises) InapplicableCaseError.
    """
    C = returns.size

    def q_hat(level: float) -> float:
        return cvar_estimate_sorted(returns, level)

    if eps_hat + alpha < 1.0:
        second = 0.0
        if eps_hat > 0.0:
            try:
                shifted = _level(eps_hat - 4.0 * v, "shifted tail level epsilon_hat - 4v")
            except ValueError as exc:
                return InapplicableCaseError(f"{exc}; no certified lower bound applies")
            second = (eps_hat / alpha) * q_hat(shifted)
        kind = "L1"
        value = ((alpha + eps_hat - 4.0 * v) / alpha) * q_hat(alpha + eps_hat) - second
        radii = {
            "epsilon_hat": eps_hat,
            # recorded verbatim; the first radius is negative as specified
            "lambda_1": -(2.0 * span / alpha) * math.sqrt(
                math.log(1.0 / (delta / 4.0)) / (2.0 * C)),
            "lambda_2": (math.sqrt(eps_hat) / alpha) * 2.0 * span * math.sqrt(
                5.0 * math.log(3.0 / (delta / 4.0)) / C),
        }
    else:
        kind = "L2"
        value = (float(returns.mean())
                 - (eps_hat + 4.0 * v) * q_hat(alpha)
                 - (alpha + eps_hat + 4.0 * v - 1.0) * span) / alpha
        radii = {
            "epsilon_hat": eps_hat,
            "eta_1": math.sqrt(-math.log(delta / 4.0) * span / (C * C * alpha * alpha)),
            "eta_2": (2.0 * math.sqrt(eps_hat + 4.0 * v) / alpha) * span * math.sqrt(
                5.0 * math.log(3.0 / (delta / 4.0)) / C),
        }
    if alpha <= eps_hat:
        radii["u_omitted"] = 1.0
        return [CertifiedBound(value, kind, delta, v, 0.0, n_delta, C, radii)]
    upper = (((alpha - eps_hat + 4.0 * v) / alpha) * q_hat(alpha - eps_hat)
             + (eps_hat / alpha) * span)
    lam = 2.0 * span * (math.sqrt(alpha - eps_hat) / alpha) * math.sqrt(
        5.0 * math.log(3.0 / (delta / 2.0)) / C)
    return [CertifiedBound(value, kind, delta, v, 0.0, n_delta, C, radii),
            CertifiedBound(upper, "U", delta, v, 0.0, n_delta, C,
                           {"epsilon_hat": eps_hat, "lambda": lam})]


def lower_cdf_distribution(returns, h_plus: PointwiseEnvelope, eta: float,
                           edges) -> DiscreteDistribution:
    """Dominated step law min(1, empirical CDF + h_plus + eta) as a distribution.

    It is ``dominated_cdf`` of the empirical law under the step envelope
    h_plus + eta on the bin edges: breakpoints are the union of rollout
    returns and bin edges, and the added mass lands at the first breakpoint at
    or above its true location, so the result is stochastically no larger than
    the law it dominates.
    """
    ret, eta = _read_only(returns, "returns"), _real(eta, "eta", 0)
    empirical = DiscreteDistribution(ret, np.full(ret.size, 1.0 / ret.size))
    return dominated_cdf(empirical, PointwiseEnvelope(edges, h_plus.at(edges) + eta))


def _tight_bound(law: DiscreteDistribution, alpha: float, delta: float, eta: float,
                 n_delta: int, c_used: int, span: float) -> CertifiedBound:
    """TightLower: the CVaR of the dominated draws, its radius in ``v``."""
    radius = (2.0 * span / alpha) * math.sqrt(
        math.log(1.0 / (delta / 4.0)) / (2.0 * n_delta))
    return CertifiedBound(cvar_exact(law, alpha), "TightLower", delta, radius, eta,
                          int(n_delta), c_used, {"v": radius})


def _certify_levels(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                    returns: np.ndarray, draw_seed: int, q0: ProposalQ0, n_delta: int,
                    delta: float, alphas, v: float | None = None,
                    eta: float | None = None, grid: BinGrid | None = None) -> list:
    """The one path from a query's pool of ``returns`` to its certificates: per
    level in ``alphas``, (uniform, tight) read from that pool, one importance
    draw on ``draw_seed``'s ``_EPS`` stream (its epsilon_hat and g_hat; n_delta
    meets every rate asked for) and one dominated law on its ``_GINV`` stream.
    ``uniform`` is the ``_uniform_bounds`` result (given v), so a level they do
    not cover gets its InapplicableCaseError and leaves the other levels
    standing; ``tight`` is TightLower (given eta and grid). Each bound keeps
    its marginal law, so each delta-guarantee holds; a call's bounds are
    dependent. A q0 walked from another belief or first action than the
    query's raises ValueError."""
    b_k, a_k = _start(pair, policy, query.belief, query.action)
    if a_k != q0.a_k or not np.array_equal(b_k.probs, q0.b_k.probs):
        raise ValueError(f"the proposal was walked from (belief {q0.b_k.probs.tolist()}, "
                         f"action {q0.a_k}), but the query is (belief "
                         f"{b_k.probs.tolist()}, action {a_k})")
    _certified_n_delta(pair, q0, n_delta, delta, v, eta, grid)
    gaps = _sampled_gaps(q0, n_delta, _stream(draw_seed, _EPS))
    span = _return_span(pair)
    if grid is not None:
        # the counts of n_delta iid draws from min(1, empirical CDF + h_plus + eta)
        h_plus, _ = binned_h(gaps.g_at(grid.edges), grid)
        dist = lower_cdf_distribution(returns, h_plus, eta, grid.edges)
        counts = _draw_counts(dist.probs, n_delta, _stream(draw_seed, _GINV))
        law = DiscreteDistribution(dist.values, counts / n_delta)
    return [(None if v is None else _uniform_bounds(returns, gaps.epsilon, a, v,
                                                    delta, span, n_delta),
             None if grid is None else _tight_bound(law, a, delta, eta, n_delta,
                                                    returns.size, span))
            for a in alphas]


def certify_uniform(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                    config: RolloutConfig, q0: ProposalQ0, n_delta: int,
                    v: float, delta: float) -> list:
    """Certified lower and upper bounds (``_uniform_bounds``) at the query's
    level: ``_certify_levels`` at that one level, on the config's pool and seed."""
    returns = _simplified_return_pool(pair, policy, query, config)
    [(bounds, _)] = _certify_levels(pair, policy, query, returns, config.rng_seed, q0,
                                    n_delta, delta, [query.alpha], v=v)
    if isinstance(bounds, InapplicableCaseError):
        raise bounds
    return bounds


def certify_tight_lower(pair: SimplifiedPair, policy: Policy, query: ValueQuery,
                        config: RolloutConfig, q0: ProposalQ0, n_delta: int,
                        eta: float, delta: float, grid: BinGrid) -> CertifiedBound:
    """Certified lower bound: the empirical CVaR of n_delta iid draws from the
    dominated law, its deviation radius in ``v``: ``_certify_levels`` at the
    query's level, on the config's pool and seed."""
    returns = _simplified_return_pool(pair, policy, query, config)
    [(_, tight)] = _certify_levels(pair, policy, query, returns, config.rng_seed, q0,
                                   n_delta, delta, [query.alpha], eta=eta,
                                   grid=grid)
    return tight
