import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskgap import scenarios
from riskgap.envelopes import PointwiseEnvelope
from riskgap.estimation import (
    BinGrid,
    CertifiedBound,
    DegenerateWeightsError,
    InapplicableCaseError,
    ParticleBelief,
    ProposalQ0,
    RolloutConfig,
    UnsupportedBeliefError,
    _EPS,
    _GINV,
    _ROLLOUT,
    _RolloutKernel,
    _draw_counts,
    _sampled_gaps,
    _simplified_return_pool,
    _stream,
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
from riskgap.pomdp import (
    Belief,
    Policy,
    SimplifiedPair,
    belief_cost,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
    tv_distance,
)
from riskgap.risk import (
    DiscreteDistribution,
    cvar_estimate_sorted,
    cvar_exact,
    deviation_radii,
)
from riskgap.value_bounds import ValueQuery, q_exact

from importance_oracle import oracle_epsilon, oracle_g
from rollout_oracle import as_belief, loop_rollout_returns
from trajectory_oracle import dfs_trajectory_expectations
from test_pomdp import make_model, random_pair, random_policy


def sensor_setup():
    spec = scenarios.builtin("two_state_sensor")
    return spec.pair, spec.policy, spec.default_query


def full_depth(pair):
    m = pair.original
    return m.horizon_T - m.start_k + 1


# ------------------------------------------------------------------- types


def test_rollout_config_validation():
    with pytest.raises(ValueError):
        RolloutConfig(0, 10, 1)
    with pytest.raises(ValueError):
        RolloutConfig(10, 0, 1)
    with pytest.raises(ValueError):
        RolloutConfig(10, 10, -1)


def test_rollout_config_rejects_fractional_values_naming_the_field():
    for args, field in (((2.9, 3, 1), "num_rollouts_C"),
                        ((2, 3.5, 1), "num_particles_Nx"),
                        ((2, 3, 1.5), "rng_seed")):
        with pytest.raises(ValueError, match=f"^{field} must be integral"):
            RolloutConfig(*args)
    # integral floats are accepted as the integers they hold
    cfg = RolloutConfig(3.0, 4.0, 2.0)
    assert (cfg.num_rollouts_C, cfg.num_particles_Nx, cfg.rng_seed) == (3, 4, 2)


def test_particle_belief_validation():
    with pytest.raises(ValueError):
        ParticleBelief(np.array([], dtype=int), np.array([]))
    with pytest.raises(ValueError):
        ParticleBelief(np.array([0, 1]), np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        ParticleBelief(np.array([0, 1]), np.array([0.0, 0.0]))


def test_particle_belief_rejects_fractional_states_naming_the_field():
    for bad in ([0.5, 1.7], [0.0, np.inf]):
        with pytest.raises(ValueError, match="^states must be integral"):
            ParticleBelief(np.array(bad), np.ones(2))
    assert ParticleBelief(np.array([0.0, 1.0]), np.ones(2)).states.tolist() == [0, 1]


def test_particle_belief_from_point_mass():
    pb = ParticleBelief.from_belief(Belief(np.array([0.0, 1.0, 0.0])), 64,
                                    np.random.default_rng(0))
    assert np.all(pb.states == 1)
    b = as_belief(pb, 3)
    assert np.allclose(b.probs, [0.0, 1.0, 0.0])


def test_bin_grid_validation_and_uniform():
    with pytest.raises(ValueError):
        BinGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        BinGrid(np.array([0.0, 0.0, 1.0]))
    pair, _, _ = sensor_setup()
    grid = BinGrid.uniform(pair, 4)
    assert grid.n_bins == 4
    assert grid.covers_return_range(pair)
    assert not BinGrid(np.array([-1.0, 1.0])).covers_return_range(pair)


def test_proposal_rejects_zero_mass_support():
    b = Belief(np.array([1.0, 0.0]))
    with pytest.raises(UnsupportedBeliefError):
        ProposalQ0((b, b), np.zeros((2, 1)), np.array([[0.5], [0.5]]), np.zeros((2, 1)),
                   b_k=b, a_k=0, proposal_probs=np.array([1.0, 0.0]))


def test_proposal_rejects_misshapen_gaps():
    b = Belief(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="gaps"):
        ProposalQ0((b,), np.zeros((1, 1)), np.array([[1.0]]), np.zeros((1, 2)),
                   b_k=b, a_k=0, proposal_probs=np.array([1.0]))


# --------------------------------------------------- one particle-filter step


def kernel_step(pair, pb, a, rng):
    """One original-model step of a single rollout: (states, weights, rho)."""
    kernel = _RolloutKernel(pair, "original")
    states, weights = pb.states[None, :].copy(), pb.weights[None, :].copy()
    actions = np.array([a])
    masses = kernel.masses(states, weights)
    rho = kernel.mean_cost(masses, actions)
    u = rng.random((1, 3 + pb.states.size))
    kernel.step(states, weights, masses, actions, u)
    return states[0], weights[0], float(rho[0])


def deterministic_pair():
    # cycle 0 -> 1 -> 0 with perfect observations; costs depend on state
    trans = [[[0.0, 1.0], [1.0, 0.0]]]
    obs = [[1.0, 0.0], [0.0, 1.0]]
    cost = [[0.25], [0.75]]
    model = make_model(trans, obs, cost, [1.0, 0.0], horizon_T=3)
    return SimplifiedPair.identical(model)


def test_genpf_deterministic_point_mass():
    pair = deterministic_pair()
    pb = ParticleBelief(np.zeros(8, dtype=int), np.ones(8))
    states, weights, rho = kernel_step(pair, pb, 0, np.random.default_rng(0))
    assert np.all(states == 1)
    assert rho == 0.25
    assert np.allclose(weights, 1.0)


def test_genpf_equal_costs_ignore_weights():
    trans = [[[0.3, 0.7], [0.6, 0.4]]]
    obs = [[0.8, 0.2], [0.4, 0.6]]
    model = make_model(trans, obs, [[0.5], [0.5]], [0.5, 0.5], horizon_T=2)
    pair = SimplifiedPair.identical(model)
    pb = ParticleBelief(np.array([0, 1, 1]), np.array([0.2, 1.5, 0.05]))
    _, _, rho = kernel_step(pair, pb, 0, np.random.default_rng(5))
    assert rho == pytest.approx(0.5, abs=1e-12)


def test_genpf_mean_rho_matches_belief_cost():
    rng = np.random.default_rng(11)
    pair = random_pair(rng, n_states=2, n_obs=2, mix=0.0)
    b = Belief(np.array([0.3, 0.7]))
    exact = belief_cost(pair, b, 0)
    draw = np.random.default_rng(12)
    rhos = []
    for _ in range(10_000):
        pb = ParticleBelief.from_belief(b, 500, draw)
        _, _, rho = kernel_step(pair, pb, 0, draw)
        rhos.append(rho)
    rhos = np.asarray(rhos)
    se = rhos.std(ddof=1) / math.sqrt(rhos.size)
    assert abs(rhos.mean() - exact) <= 3 * se


def test_genpf_degenerate_weights_raises():
    # single particle: reference chain and the particle transition disagree
    # half the time, and the two states emit disjoint observations
    trans = [[[0.5, 0.5], [0.5, 0.5]]]
    obs = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model(trans, obs, [[0.0], [0.0]], [1.0, 0.0], horizon_T=2)
    pair = SimplifiedPair.identical(model)
    pb = ParticleBelief(np.array([0]), np.ones(1))
    with pytest.raises(DegenerateWeightsError):
        for seed in range(32):
            kernel_step(pair, pb, 0, np.random.default_rng(seed))


def test_reference_draw_samples_the_particle_belief():
    # identity transition and sensor: the observation names the reference
    # state, which draw 0 picks from the masses 0.2 (state 0) and 1.55
    eye = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model([eye], eye, [[0.0], [0.0]], [0.5, 0.5], horizon_T=2)
    kernel = _RolloutKernel(SimplifiedPair.identical(model), "original")
    rows = 20_000
    states = np.arange(rows)[:, None] * 2 + [0, 1, 1]  # row i keeps x as 2i + x
    weights = np.tile([0.2, 1.5, 0.05], (rows, 1))
    u = np.random.default_rng(4).random((rows, 3 + 3))
    masses = kernel.masses(states, weights)
    kernel.step(states, weights, masses, np.zeros(rows, dtype=np.intp), u)
    p = 0.2 / 1.75
    freq = np.count_nonzero(masses[:, 0] > 0.0) / rows
    assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / rows)


# --------------------------------------------------------- rollout returns
# A sampled return is one entry of rollout_returns; the CVaR estimate q_hat
# is cvar_estimate_sorted over that pool.


def test_sample_return_depth_zero():
    pair = deterministic_pair()
    pb = ParticleBelief(np.zeros(4, dtype=int), np.ones(4))
    policy = scenarios.builtin("two_state_sensor").policy  # unused at depth 0
    returns = rollout_returns(pair, policy, pb, 0, 0, 0, RolloutConfig(3, 4, 0),
                              "original")
    assert np.array_equal(returns, np.zeros(3))


def test_sample_return_deterministic_chain():
    pair = deterministic_pair()
    policy = Policy(np.zeros((4, 2), dtype=int), start_k=0)
    pb = ParticleBelief(np.zeros(4, dtype=int), np.ones(4))
    # states visit 0, 1, 0 -> costs 0.25, 0.75, 0.25
    returns = rollout_returns(pair, policy, pb, 0, 0, 3, RolloutConfig(5, 4, 1),
                              "original")
    assert returns == pytest.approx(np.full(5, 1.25), abs=1e-12)


def test_sample_return_moment_matching():
    rng = np.random.default_rng(21)
    pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=2, mix=0.0)
    # constant action per step: keeps the rollout law aligned with the exact
    # belief-MDP law (a belief-dependent action can flip under particle noise
    # near argmax ties, which is a property of the estimator, not a bug)
    rows = rng.integers(0, pair.original.n_actions, size=(3, 1))
    policy = Policy(np.repeat(rows, 2, axis=1), start_k=0)
    dist = enumerate_return_distribution(pair, policy)
    b0 = Belief(pair.original.initial_belief)
    pb_rng = np.random.default_rng(22)
    # a fresh particle cloud every 10 rollouts, so the cloud's own sampling
    # error averages out like the rollouts' does
    vals = np.concatenate([
        rollout_returns(pair, policy, ParticleBelief.from_belief(b0, 400, pb_rng),
                        policy.action(0, b0), 0, full_depth(pair),
                        RolloutConfig(10, 400, seed), "original")
        for seed in range(1000)
    ])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    # finite-particle bias is O(1/Nx); allow it on top of the MC band
    assert abs(vals.mean() - dist.mean()) <= 4 * se + 0.01


def test_rollout_returns_deterministic_and_equal_to_loop_oracle():
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 100, np.random.default_rng(0))
    cfg = RolloutConfig(64, 100, 123)
    a0 = policy.action(0, query.belief)
    r1 = rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg)
    r2 = rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg)
    r3 = loop_rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg)
    assert np.array_equal(r1, r2)
    assert np.array_equal(r1, r3)


def test_estimate_q_alpha_near_one_is_sample_mean():
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 50, np.random.default_rng(3))
    cfg = RolloutConfig(200, 50, 9)
    a0 = policy.action(0, query.belief)
    pool = rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg)
    q = cvar_estimate_sorted(
        rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg), 1.0 - 1e-12)
    assert q == pytest.approx(pool.mean(), abs=1e-9)


def test_estimate_q_brown_concentration():
    pair, policy, query = sensor_setup()
    dist = enumerate_return_distribution(pair, policy, model="simplified")
    exact = cvar_exact(dist, 0.25)
    radii = deviation_radii(500, 0.25, 0.1, dist.sup_support - dist.inf_support)
    pb = ParticleBelief.from_belief(query.belief, 200, np.random.default_rng(0))
    a0 = policy.action(0, query.belief)
    hi = lo = 0
    for trial in range(40):
        cfg = RolloutConfig(500, 200, 5_000 + trial)
        q = cvar_estimate_sorted(
            rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg), 0.25)
        if exact - q > radii.upper:
            hi += 1
        if q - exact > radii.lower:
            lo += 1
    # each side violates w.p. <= 0.1 per trial; 12/40 is far outside that
    assert hi <= 12 and lo <= 12


def _returns_or_error(fn, pair, policy, belief, config, model):
    m = pair.original
    pb = ParticleBelief.from_belief(belief, config.num_particles_Nx,
                                    np.random.default_rng(config.rng_seed))
    try:
        return fn(pair, policy, pb, policy.action(m.start_k, belief), m.start_k,
                  full_depth(pair), config, model)
    except (DegenerateWeightsError, ValueError) as exc:
        return type(exc)


def _assert_same_as_loop(pair, policy, belief, config, model):
    batched = _returns_or_error(rollout_returns, pair, policy, belief, config, model)
    looped = _returns_or_error(loop_rollout_returns, pair, policy, belief, config,
                               model)
    if isinstance(looped, type):
        assert batched is looped
    else:
        assert not isinstance(batched, type), batched
        assert np.array_equal(batched, looped)
    return batched


# row counts below, at and around the kernel's block of rows and several blocks
@pytest.mark.parametrize("shape", ((1, 200), (63, 200), (65, 200), (500, 200),
                                   (300, 150)))
@pytest.mark.parametrize("name", scenarios.builtin_names())
def test_batched_rollouts_equal_loop_on_builtins(name, shape):
    spec = scenarios.builtin(name)
    config = RolloutConfig(*shape, 11)
    returns = _assert_same_as_loop(spec.pair, spec.policy, spec.default_query.belief,
                                   config, "simplified")
    assert returns.shape == (shape[0],)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rollout_seed=st.integers(0, 2**64 - 1),
       horizon_gap=st.integers(2, 5),
       n_obs=st.integers(1, 3), n_rollouts=st.integers(1, 24),
       n_particles=st.integers(1, 64), model=st.sampled_from(("simplified", "original")))
def test_batched_rollouts_equal_loop_on_random_instances(seed, rollout_seed, horizon_gap,
                                                         n_obs, n_rollouts, n_particles,
                                                         model):
    # the deterministic sensor (n_obs > 1) lets whole particle clouds die,
    # so this also checks that both raise the same error when one does;
    # the CLI derives uint64 rollout seeds, so seeds span one and two words
    spec = scenarios.random_instance(seed, n_obs=n_obs, horizon_gap=horizon_gap)
    _assert_same_as_loop(spec.pair, spec.policy, spec.default_query.belief,
                         RolloutConfig(n_rollouts, n_particles, rollout_seed), model)


def test_rollout_weights_survive_long_horizons():
    # an uninformative 0.6/0.4 sensor shrinks every weight by at least 0.4
    # per step, so unnormalised weights underflow long before step 1100;
    # the kernel rescales each row by a power of two and keeps going
    horizon = 1100
    trans = [[[0.7, 0.3], [0.4, 0.6]]]
    obs = [[0.6, 0.4], [0.6, 0.4]]
    model = make_model(trans, obs, [[0.2], [0.9]], [0.5, 0.5], horizon_T=horizon)
    pair = SimplifiedPair.identical(model)
    policy = Policy(np.zeros((horizon + 1, 2), dtype=int), start_k=0)
    pb = ParticleBelief.from_belief(Belief(model.initial_belief), 20,
                                    np.random.default_rng(0))
    config = RolloutConfig(2, 20, 5)
    with pytest.raises(DegenerateWeightsError):
        loop_rollout_returns(pair, policy, pb, 0, 0, horizon + 1, config, "original")
    returns = rollout_returns(pair, policy, pb, 0, 0, horizon + 1, config, "original")
    assert np.all(np.isfinite(returns))
    # every step's mean cost lies in the state-cost range
    assert np.all((returns >= 0.2 * (horizon + 1)) & (returns <= 0.9 * (horizon + 1)))


def test_rollout_pool_draws_one_block_per_step():
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 30, np.random.default_rng(0))
    a0 = policy.action(0, query.belief)
    depth = full_depth(pair)
    blocks = []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng, self.bit_generator = rng, rng.bit_generator

        def random(self, **kwargs):
            blocks.append(kwargs["out"].shape)
            return self.rng.random(**kwargs)

    returns = _RolloutKernel(pair, "simplified").rollouts(
        policy, pb.states, pb.weights, a0, 0, depth, 12,
        CountingGenerator(_stream(7, _ROLLOUT)))
    assert blocks == [(12, 3 + 30)] * (depth - 1)
    assert np.array_equal(returns, rollout_returns(pair, policy, pb, a0, 0, depth,
                                                   RolloutConfig(12, 30, 7)))


def test_rollout_pool_steps_one_block_of_rows_at_a_time():
    # a block of rollouts runs through every transition before the next block
    # starts, reading its rows of each transition's fill; the returns are the
    # loop oracle's, which reads the fills whole, one per transition
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 30, np.random.default_rng(0))
    a0 = policy.action(0, query.belief)
    depth, block = full_depth(pair), _RolloutKernel.block_rows
    fills = []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng, self.bit_generator = rng, rng.bit_generator

        def random(self, out):
            fills.append(out.shape)
            return self.rng.random(out=out)

    returns = _RolloutKernel(pair, "simplified").rollouts(
        policy, pb.states, pb.weights, a0, 0, depth, 2 * block + 2,
        CountingGenerator(_stream(7, _ROLLOUT)))
    assert fills == [(block, 33)] * (depth - 1) * 2 + [(2, 33)] * (depth - 1)
    config = RolloutConfig(2 * block + 2, 30, 7)
    assert np.array_equal(returns, loop_rollout_returns(pair, policy, pb, a0, 0, depth,
                                                        config))


def test_rollout_beyond_policy_table_raises():
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 10, np.random.default_rng(0))
    a0 = policy.action(0, query.belief)
    with pytest.raises(ValueError, match="policy has no row"):
        rollout_returns(pair, policy, pb, a0, 0, full_depth(pair) + 1,
                        RolloutConfig(3, 10, 0))


def test_rollout_zero_likelihood_names_the_step():
    # perfect sensor and a coin-flip transition: a lone particle disagrees
    # with the reference chain's observation half the time
    trans = [[[0.5, 0.5], [0.5, 0.5]]]
    obs = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model(trans, obs, [[0.0], [0.0]], [1.0, 0.0], horizon_T=6)
    pair = SimplifiedPair.identical(model)
    policy = Policy(np.zeros((7, 2), dtype=int), start_k=0)
    pb = ParticleBelief(np.array([0]), np.ones(1))
    with pytest.raises(DegenerateWeightsError, match=r"are zero .* at step [0-6]$"):
        rollout_returns(pair, policy, pb, 0, 0, 7, RolloutConfig(16, 1, 3), "original")


def test_rollout_zero_likelihood_names_the_pool_row():
    # the same lone particle, with uniforms under which only rollout 70, in
    # the second block of rows, moves its particle away from the reference
    # chain and so meets an observation that particle cannot emit
    trans = [[[0.5, 0.5], [0.5, 0.5]]]
    obs = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model(trans, obs, [[0.0], [0.0]], [1.0, 0.0], horizon_T=2)
    policy = Policy(np.zeros((3, 2), dtype=int), start_k=0)

    class Stream:
        """0.25 at every position of the stream but rollout 70's particle draw."""

        def __init__(self):
            self.pos, self.bit_generator = 0, self

        def advance(self, n):
            self.pos = (self.pos + n) % 2**128

        def random(self, out):
            out.fill(0.25)
            if 0 <= 70 * 4 + 3 - self.pos < out.size:
                out.flat[70 * 4 + 3 - self.pos] = 0.75
            self.advance(out.size)
            return out

    kernel = _RolloutKernel(SimplifiedPair.identical(model), "original")
    with pytest.raises(DegenerateWeightsError,
                       match=r"rollout 70 are zero .* at step 0$"):
        kernel.rollouts(policy, np.array([0]), np.ones(1), 0, 0, 2, 100, Stream())


def test_rollout_pool_peaks_at_a_few_blocks_of_rows():
    # whole (500, 200) state and weight arrays would take 1.6 MB; a block of
    # 64 rows at a time, stepped in place, needs a few 0.1 MB arrays
    pair, policy, query = sensor_setup()
    config = RolloutConfig(500, 200, 7)
    _simplified_return_pool(pair, policy, query, config)
    tracemalloc.start()
    try:
        _simplified_return_pool(pair, policy, query, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6


def test_depth_one_pool_simulates_no_transition():
    # the same lone particle: a depth-1 pool reads one cost and no successor,
    # so it cannot meet a zero-likelihood observation
    trans = [[[0.5, 0.5], [0.5, 0.5]]]
    obs = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model(trans, obs, [[0.25], [0.75]], [1.0, 0.0], horizon_T=6)
    pair = SimplifiedPair.identical(model)
    policy = Policy(np.zeros((7, 2), dtype=int), start_k=0)
    pb = ParticleBelief(np.array([0]), np.ones(1))
    for seed in range(50):
        returns = rollout_returns(pair, policy, pb, 0, 0, 1, RolloutConfig(16, 1, seed),
                                  "original")
        assert np.array_equal(returns, np.full(16, 0.25))


@pytest.mark.parametrize("seed", range(30))
def test_one_step_gap_pool_runs_on_random_instances(seed):
    # horizon_gap 1: two step costs and one transition; a second transition,
    # past the horizon, would zero a whole particle cloud on 8 of these seeds
    spec = scenarios.random_instance(seed, horizon_gap=1)
    returns = _simplified_return_pool(spec.pair, spec.policy, spec.default_query,
                                      RolloutConfig(500, 200, seed))
    assert returns.shape == (500,) and np.all(np.isfinite(returns))


# ----------------------------------------------------------------- proposal


def test_default_proposal_structure():
    pair, policy, _ = sensor_setup()
    q0 = build_default_proposal(pair, policy)
    assert q0.n_steps == 3
    assert q0.thresholds.shape == q0.target_probs.shape
    assert np.allclose(q0.target_probs.sum(axis=0), 1.0, atol=1e-9)
    assert q0.proposal_probs.sum() == pytest.approx(1.0, abs=1e-12)
    expected = 0.5 * q0.target_probs.mean(axis=1) + 0.5 / len(q0.beliefs)
    assert np.allclose(q0.proposal_probs, expected)
    ratio = q0.target_probs / q0.proposal_probs[:, None]
    assert q0.importance_bound == pytest.approx(ratio.max())
    assert q0.importance_bound >= 1.0


def test_default_proposal_stores_exact_gap_matrix():
    # the estimators read this matrix instead of recomputing TV on each call;
    # an entry where the atom has no mass is weighed by 0, so it is not computed
    pair, policy, _ = sensor_setup()
    q0 = build_default_proposal(pair, policy)
    expected = np.array([[tv_distance(pair, b, policy.action(1 + j, b))
                          if q0.target_probs[e, j] > 0.0 else 0.0
                          for j in range(q0.n_steps)] for e, b in enumerate(q0.beliefs)])
    assert np.array_equal(q0.gaps, expected)
    assert np.any(q0.target_probs == 0.0) and np.all(q0.gaps[q0.target_probs == 0.0] == 0.0)


def test_default_proposal_needs_interior_step():
    trans = [[[1.0, 0.0], [0.0, 1.0]]]
    obs = [[1.0, 0.0], [0.0, 1.0]]
    model = make_model(trans, obs, [[0.1], [0.2]], [1.0, 0.0],
                       horizon_T=2, start_k=1)
    pair = SimplifiedPair.identical(model)
    from riskgap.pomdp import Policy
    policy = Policy(np.zeros((2, 2), dtype=int), start_k=1)
    with pytest.raises(ValueError, match="interior"):
        build_default_proposal(pair, policy)


# ----------------------------------------------------------- epsilon and g


def test_estimate_epsilon_zero_for_identical_models():
    rng = np.random.default_rng(31)
    pair = random_pair(rng, mix=0.0)
    policy = random_policy(rng, pair)
    q0 = build_default_proposal(pair, policy)
    eps = estimate_epsilon(q0, pair, policy, 500, np.random.default_rng(1))
    assert eps == 0.0


def test_estimate_epsilon_unit_weights_is_plain_average():
    pair, policy, _ = sensor_setup()
    full = build_default_proposal(pair, policy)
    # single-step proposal whose proposal equals the step-1 marginal
    keep = full.target_probs[:, 0] > 0
    beliefs = tuple(b for b, k in zip(full.beliefs, keep) if k)
    target = full.target_probs[keep, :1]
    q0 = ProposalQ0(beliefs, full.thresholds[keep, :1], target, full.gaps[keep, :1],
                    b_k=full.b_k, a_k=full.a_k, proposal_probs=target[:, 0])
    tv = np.array([tv_distance(pair, b, policy.action(1, b)) for b in beliefs])
    counts = np.random.default_rng(7).multinomial(400, target[:, 0])
    eps = estimate_epsilon(q0, pair, policy, 400, np.random.default_rng(7))
    assert eps == pytest.approx(counts @ tv / 400.0, abs=1e-12)


def test_estimate_epsilon_unbiased():
    # one interior step, so the estimate is a single m_i
    rng = np.random.default_rng(41)
    pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=2, mix=0.4)
    policy = random_policy(rng, pair)
    exact = enumerate_trajectory_expectations(pair, policy).epsilon
    q0 = build_default_proposal(pair, policy)
    draw = np.random.default_rng(42)
    vals = np.array([estimate_epsilon(q0, pair, policy, 8, draw)
                     for _ in range(10_000)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) <= 4 * se


def test_estimate_epsilon_concentration():
    pair, policy, _ = sensor_setup()
    m = pair.original
    exact = enumerate_trajectory_expectations(pair, policy).epsilon
    q0 = build_default_proposal(pair, policy)
    v, delta = 0.25, 0.1
    nd = n_delta_for_epsilon(v, delta, q0.importance_bound, m.horizon_T, m.start_k)
    bad = 0
    for trial in range(500):
        eps = estimate_epsilon(q0, pair, policy, nd,
                               np.random.default_rng(9_000 + trial))
        if abs(eps - exact) > 2 * v:
            bad += 1
    assert bad <= 75  # binomial(500, 0.1) stays below this w.h.p.


def test_estimate_g_saturates_to_epsilon_and_zero():
    pair, policy, _ = sensor_setup()
    q0 = build_default_proposal(pair, policy)
    span = pair.original.r_max * (pair.original.horizon_T - pair.original.start_k + 1)
    g = estimate_g(q0, pair, policy, 300, [-2 * span, 2 * span],
                   np.random.default_rng(2))
    eps = estimate_epsilon(q0, pair, policy, 300, np.random.default_rng(2))
    assert g[0] == 0.0
    assert g[1] == pytest.approx(eps, abs=1e-12)


def test_estimate_g_concentration_fixed_level():
    pair, policy, _ = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    level = 0.0
    exact = enumerate_trajectory_expectations(pair, policy).g_at(level)[0]
    v, delta = 0.2, 0.1
    nd = n_delta_for_g(v, delta, q0.importance_bound, m.horizon_T, m.start_k)
    bad = 0
    for trial in range(300):
        g = estimate_g(q0, pair, policy, nd, [level],
                       np.random.default_rng(11_000 + trial))
        if abs(g[0] - exact) > v:
            bad += 1
    assert bad <= 50


def noisy_sensor_pair(seed, horizon_T=7):
    """2-state pair with a 0.9-accurate sensor; the simplified model mixes the
    sensor 20 % toward uniform, so no two walk beliefs merge."""
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(2), size=(2, 2))
    obs = np.array([[0.9, 0.1], [0.1, 0.9]])
    model = make_model(trans, obs, rng.uniform(-1.0, 1.0, size=(2, 2)),
                       rng.dirichlet(np.ones(2)), horizon_T)
    pair = SimplifiedPair(model, trans.copy(), 0.8 * obs + 0.2 * 0.5)
    return pair, random_policy(rng, pair)


def _estimators_and_oracle(pair, policy):
    """(library, oracle) epsilon and g pairs over several seeds and draw counts,
    each pair drawn from one seed; g is read on the bin edges and a fine probe."""
    q0 = build_default_proposal(pair, policy)
    edges = BinGrid.uniform(pair, 8).edges
    levels = np.concatenate((edges, np.linspace(edges[0], edges[-1], 97)))
    out = []
    for seed, nd in ((0, 1), (1, 37), (2, 5_000), (3, 2_000_000)):
        rngs = [np.random.default_rng(seed) for _ in range(4)]
        out.append((estimate_epsilon(q0, pair, policy, nd, rngs[0]),
                    oracle_epsilon(q0, nd, rngs[1])))
        out.append((estimate_g(q0, pair, policy, nd, levels, rngs[2]),
                    oracle_g(q0, nd, levels, rngs[3])))
    return out


@pytest.mark.parametrize("name", scenarios.builtin_names())
def test_estimators_equal_inline_sums_on_builtins(name):
    spec = scenarios.builtin(name)
    for got, want in _estimators_and_oracle(spec.pair, spec.policy):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_estimators_equal_inline_sums_on_noisy_sensor_pairs(seed):
    pair, policy = noisy_sensor_pair(seed)
    assert build_default_proposal(pair, policy).proposal_probs.size == 126
    for got, want in _estimators_and_oracle(pair, policy):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("horizon_gap", (2, 3, 4, 5))
@pytest.mark.parametrize("seed", range(8))
def test_estimators_match_inline_sums_on_random_instances(seed, horizon_gap):
    # near-tie thresholds merge in the reduction, which reorders a cumsum
    spec = scenarios.random_instance(seed, horizon_gap=horizon_gap)
    for got, want in _estimators_and_oracle(spec.pair, spec.policy):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def _assert_same_gaps(got, want):
    for name in ("per_step_m", "thresholds", "threshold_weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.epsilon == want.epsilon


@settings(max_examples=40, deadline=None)
@given(instance=st.one_of(st.sampled_from(scenarios.builtin_names()),
                          st.tuples(st.integers(0, 2**31 - 1), st.integers(2, 5))),
       fill_seed=st.integers(0, 2**32 - 1),
       fill_scale=st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))
def test_gaps_without_mass_are_never_read(instance, fill_seed, fill_scale):
    # an atom's gap at a step where it has no mass is weighed by 0 in the
    # exact and the sampled reduction, so any finite value there reduces alike
    spec = (scenarios.builtin(instance) if isinstance(instance, str)
            else scenarios.random_instance(instance[0], horizon_gap=instance[1]))
    q0 = build_default_proposal(spec.pair, spec.policy)
    empty = q0.target_probs == 0.0
    fill = fill_scale * np.random.default_rng(fill_seed).random(q0.gaps.shape)
    filled = dataclasses.replace(q0, gaps=np.where(empty, fill, q0.gaps))
    assert np.all(q0.gaps[empty] == 0.0)
    _assert_same_gaps(filled.reduce(), q0.reduce())
    for n_delta in (1, 5_000):
        _assert_same_gaps(_sampled_gaps(filled, n_delta, np.random.default_rng(fill_seed)),
                          _sampled_gaps(q0, n_delta, np.random.default_rng(fill_seed)))


def test_estimators_read_only_the_proposal():
    # a proposal carries its own horizon and r_max in its thresholds, so the
    # pair passed to the estimators cannot shift g (corridor4 has T = 4,
    # two_state_sensor T = 3)
    spec, other = scenarios.builtin("two_state_sensor"), scenarios.builtin("corridor4")
    q0 = build_default_proposal(spec.pair, spec.policy)
    levels = np.linspace(-5.0, 5.0, 41)
    own = estimate_g(q0, spec.pair, spec.policy, 5_000, levels, np.random.default_rng(3))
    foreign = estimate_g(q0, other.pair, other.policy, 5_000, levels,
                         np.random.default_rng(3))
    assert np.array_equal(foreign, own)


# ------------------------------------------------------- sample-size formulas


def test_n_delta_frozen_value():
    assert n_delta_for_epsilon(0.5, 0.05, 1.0, T=2, k=0) == 141


def test_n_delta_scaling_and_monotonicity():
    base = n_delta_for_epsilon(0.1, 0.05, 2.0, T=4, k=0)
    assert abs(n_delta_for_epsilon(0.2, 0.05, 2.0, T=4, k=0) - base / 4) <= 1
    for fn in (n_delta_for_epsilon, n_delta_for_g):
        assert fn(0.1, 0.05, 2.0, 4, 0) > fn(0.2, 0.05, 2.0, 4, 0)
        assert fn(0.1, 0.05, 3.0, 4, 0) > fn(0.1, 0.05, 2.0, 4, 0)
        assert fn(0.1, 0.01, 2.0, 4, 0) > fn(0.1, 0.05, 2.0, 4, 0)
        assert fn(0.1, 0.05, 2.0, 5, 0) > fn(0.1, 0.05, 2.0, 4, 0)
    assert n_delta_for_h(0.1, 0.05, 2.0, 8, 4, 0) > n_delta_for_h(0.1, 0.05, 2.0, 4, 4, 0)
    assert n_delta_for_h(0.1, 0.01, 2.0, 8, 4, 0) > n_delta_for_h(0.1, 0.05, 2.0, 8, 4, 0)
    assert n_delta_for_tight_lower(0.1, 0.05, 2.0, 8, 4, 0) > \
        n_delta_for_h(0.1, 0.05, 2.0, 8, 4, 0)
    assert n_delta_for_uniform_bounds(0.05, 0.05, 2.0, 4, 0) > \
        n_delta_for_uniform_bounds(0.1, 0.05, 2.0, 4, 0)


def test_n_delta_validation():
    with pytest.raises(ValueError):
        n_delta_for_epsilon(0.0, 0.05, 1.0, 2, 0)
    with pytest.raises(ValueError):
        n_delta_for_epsilon(0.1, 1.5, 1.0, 2, 0)
    with pytest.raises(ValueError):
        n_delta_for_epsilon(0.1, 0.05, 0.5, 2, 0)
    with pytest.raises(ValueError):
        n_delta_for_epsilon(0.1, 0.05, 1.0, 1, 0)  # no interior steps
    with pytest.raises(ValueError):
        n_delta_for_h(0.1, 0.05, 1.0, 0, 4, 0)
    for v in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            n_delta_for_epsilon(v, 0.05, 1.0, 2, 0)


# ---------------------------------------------------------------- binned_h


def test_binned_h_single_bin():
    grid = BinGrid(np.array([-1.0, 1.0]))
    h_plus, h_minus = binned_h([0.1, 0.4], grid)
    assert h_plus.at(0.0) == pytest.approx(0.4)
    assert h_plus.at(5.0) == pytest.approx(0.4)
    assert h_minus.at(0.0) == pytest.approx(0.1)


def test_binned_h_sandwiches_g_on_edges():
    pair, policy, _ = sensor_setup()
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 7)
    g = estimate_g(q0, pair, policy, 400, grid.edges, np.random.default_rng(8))
    h_plus, h_minus = binned_h(g, grid)
    assert np.all(h_minus.at(grid.edges) <= g + 1e-12)
    assert np.all(h_plus.at(grid.edges) >= g - 1e-12)


def test_binned_h_running_max_monotone():
    grid = BinGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    h_plus, _ = binned_h([0.0, 0.5, 0.3, 0.6], grid)  # noisy dip at the middle
    vals = h_plus.at(np.array([0.5, 1.5, 2.5]))
    assert np.all(np.diff(vals) >= 0.0)
    assert h_plus.at(1.5) == pytest.approx(0.5)  # dip raised by the running max


def test_binned_h_minus_is_an_envelope_below_g():
    grid = BinGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    g = np.array([0.0, 0.5, 0.3, 0.6])  # noisy dip at the middle
    _, h_minus = binned_h(g, grid)
    assert isinstance(h_minus, PointwiseEnvelope)
    assert np.all(h_minus.at(grid.edges) <= g)
    assert h_minus.at([-1.0, 1.0, 1.5, 3.5]) == pytest.approx([0.0, 0.3, 0.3, 0.6])


def test_binned_h_envelope_traps_g_uniformly():
    pair, policy, _ = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 6)
    v, delta = 0.25, 0.1
    nd = n_delta_for_h(v, delta, q0.importance_bound, grid.n_bins,
                       m.horizon_T, m.start_k)
    probe = np.linspace(grid.edges[0], grid.edges[-1], 301)
    exact = enumerate_trajectory_expectations(pair, policy).g_at(probe)
    bad = 0
    for trial in range(200):
        g = estimate_g(q0, pair, policy, nd, grid.edges,
                       np.random.default_rng(13_000 + trial))
        h_plus, _ = binned_h(g, grid)
        if np.max(exact - h_plus.at(probe)) > v:
            bad += 1
    assert bad <= 40


# ----------------------------------------------------------- certified bounds


def test_certify_uniform_requires_enough_draws():
    pair, policy, query = sensor_setup()
    q0 = build_default_proposal(pair, policy)
    cfg = RolloutConfig(50, 50, 0)
    with pytest.raises(ValueError, match="below the certified-rate"):
        certify_uniform(pair, policy, query, cfg, q0, 10, 0.1, 0.1)


def test_certify_uniform_inapplicable_when_shift_escapes():
    pair, policy, query = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    v, delta = 0.2, 0.1  # 4v = 0.8 > epsilon_hat ~ 0.58
    nd = n_delta_for_uniform_bounds(v, delta, q0.importance_bound,
                                    m.horizon_T, m.start_k)
    cfg = RolloutConfig(200, 100, 3)
    with pytest.raises(InapplicableCaseError):
        certify_uniform(pair, policy, query, cfg, q0, nd, v, delta)


def test_certify_uniform_case_selection():
    pair, policy, query = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    v, delta = 0.1, 0.1
    nd = n_delta_for_uniform_bounds(v, delta, q0.importance_bound,
                                    m.horizon_T, m.start_k)
    cfg = RolloutConfig(400, 150, 17)
    # alpha=0.25: eps_hat ~ 0.58 -> L1 fires, U omitted with a tag
    low = certify_uniform(pair, policy, query, cfg, q0, nd, v, delta)
    assert [b.kind for b in low] == ["L1"]
    assert low[0].radii["u_omitted"] == 1.0
    assert low[0].radii["lambda_1"] < 0.0  # recorded verbatim
    # alpha=0.9: eps_hat + alpha >= 1 -> L2, and U applies
    high = certify_uniform(pair, policy,
                           ValueQuery(query.belief, 0.9, query.action),
                           cfg, q0, nd, v, delta)
    assert [b.kind for b in high] == ["L2", "U"]
    assert {"eta_1", "eta_2"} <= set(high[0].radii)
    assert high[1].radii["lambda"] > 0.0


def test_certify_uniform_deterministic_and_stream_independent(monkeypatch):
    pair, policy, query = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    v, delta = 0.1, 0.1
    nd = n_delta_for_uniform_bounds(v, delta, q0.importance_bound,
                                    m.horizon_T, m.start_k)
    cfg = RolloutConfig(150, 80, 23)
    a = certify_uniform(pair, policy, query, cfg, q0, nd, v, delta)
    b = certify_uniform(pair, policy, query, cfg, q0, nd, v, delta)
    assert [(x.kind, x.value) for x in a] == [(x.kind, x.value) for x in b]
    with monkeypatch.context() as patch:
        patch.setattr("riskgap.estimation.rollout_returns", loop_rollout_returns)
        looped = certify_uniform(pair, policy, query, cfg, q0, nd, v, delta)
    assert [(x.kind, x.value) for x in a] == [(x.kind, x.value) for x in looped]
    # epsilon draws use their own stream: changing C leaves eps_hat untouched
    c = certify_uniform(pair, policy, query,
                        RolloutConfig(151, 80, 23), q0, nd, v, delta)
    assert c[0].radii["epsilon_hat"] == a[0].radii["epsilon_hat"]


def test_certify_uniform_collapses_for_identical_models():
    rng = np.random.default_rng(51)
    pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=3, mix=0.0)
    from riskgap.pomdp import Policy
    rows = rng.integers(0, pair.original.n_actions, size=(4, 1))
    policy = Policy(np.repeat(rows, 2, axis=1), start_k=0)
    query = ValueQuery(Belief(pair.original.initial_belief), 0.3)
    exact = q_exact(pair, policy, query)
    q0 = build_default_proposal(pair, policy)
    v, delta = 0.01, 0.1
    nd = n_delta_for_uniform_bounds(v, delta, q0.importance_bound,
                                    pair.original.horizon_T, pair.original.start_k)
    cfg = RolloutConfig(4000, 200, 29)
    bounds = certify_uniform(pair, policy, query, cfg, q0, nd, v, delta)
    kinds = {b.kind: b for b in bounds}
    assert set(kinds) == {"L1", "U"}
    assert kinds["L1"].radii["epsilon_hat"] == 0.0
    span = pair.original.r_max * (pair.original.horizon_T - pair.original.start_k + 1)
    # with eps_hat = 0 the first radius is negative verbatim, so compare
    # against magnitudes: both ends hug q_exact within their radii
    l1 = kinds["L1"]
    assert abs(l1.value - exact) <= abs(l1.radii["lambda_1"]) + l1.radii["lambda_2"]
    assert exact - kinds["U"].value <= kinds["U"].radii["lambda"] + 1e-9
    assert abs(l1.value - exact) <= 0.25 * span
    assert abs(kinds["U"].value - exact) <= 0.25 * span


def test_lower_cdf_distribution_reduces_to_empirical():
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 100, np.random.default_rng(1))
    cfg = RolloutConfig(300, 100, 31)
    a0 = policy.action(0, query.belief)
    returns = rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg)
    grid = BinGrid.uniform(pair, 4)
    dist = lower_cdf_distribution(returns, PointwiseEnvelope.zero(), 1e-12,
                                  grid.edges)
    for alpha in (0.2, 0.5, 0.8):
        assert cvar_exact(dist, alpha) == pytest.approx(
            cvar_estimate_sorted(returns, alpha), abs=1e-6)


def test_tight_lower_draws_concentrate_on_step_cdf():
    # counted draws from the dominated law match its exact CVaR
    pair, policy, query = sensor_setup()
    pb = ParticleBelief.from_belief(query.belief, 100, np.random.default_rng(2))
    cfg = RolloutConfig(200, 100, 37)
    a0 = policy.action(0, query.belief)
    returns = rollout_returns(pair, policy, pb, a0, 0, full_depth(pair), cfg)
    grid = BinGrid.uniform(pair, 5)
    q0 = build_default_proposal(pair, policy)
    g = estimate_g(q0, pair, policy, 2_000, grid.edges, np.random.default_rng(3))
    h_plus, _ = binned_h(g, grid)
    dist = lower_cdf_distribution(returns, h_plus, 0.05, grid.edges)
    n = 200_000
    counts = _draw_counts(dist.probs, n, np.random.default_rng(4))
    assert counts.sum() == n
    radii = deviation_radii(n, 0.25, 1e-3, dist.sup_support - dist.inf_support)
    exact = cvar_exact(dist, 0.25)
    est = cvar_exact(DiscreteDistribution(dist.values, counts / n), 0.25)
    assert exact - est <= radii.upper
    assert est - exact <= radii.lower


def test_counted_cvar_equals_sorted_estimate_on_the_same_draws():
    # certify_tight_lower takes the CVaR of its draws from their counts;
    # the order-statistic estimator on the expanded sample must agree
    rng = np.random.default_rng(71)
    for _ in range(200):
        size = int(rng.integers(1, 40))
        law = DiscreteDistribution(rng.normal(size=size) * 3.0,
                                   rng.dirichlet(np.ones(size)))
        n = int(rng.integers(1, 5_000))
        counts = _draw_counts(law.probs, n, rng)
        draws = np.repeat(law.values, counts)
        for alpha in (0.01, 0.25, 0.5, 0.9, float(rng.uniform(0.001, 0.999))):
            counted = cvar_exact(DiscreteDistribution(law.values, counts / n), alpha)
            assert counted == pytest.approx(cvar_estimate_sorted(draws, alpha),
                                            abs=1e-12)

    # and through certify_tight_lower itself, rebuilding its dominated law
    pair, policy, query = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 6)
    eta, delta = 0.25, 0.1
    nd = n_delta_for_tight_lower(eta, delta, q0.importance_bound, grid.n_bins,
                                 m.horizon_T, m.start_k)
    cfg = RolloutConfig(300, 100, 47)
    bound = certify_tight_lower(pair, policy, query, cfg, q0, nd, eta, delta, grid)
    g_hat = estimate_g(q0, pair, policy, nd, grid.edges,
                       _stream(cfg.rng_seed, _EPS))
    h_plus, _ = binned_h(g_hat, grid)
    dist = lower_cdf_distribution(_simplified_return_pool(pair, policy, query, cfg),
                                  h_plus, eta, grid.edges)
    counts = _draw_counts(dist.probs, nd, _stream(cfg.rng_seed, _GINV))
    draws = np.repeat(dist.values, counts)
    assert bound.value == pytest.approx(
        cvar_estimate_sorted(draws, query.alpha.alpha), abs=1e-12)


def test_certify_tight_lower_validation():
    pair, policy, query = sensor_setup()
    q0 = build_default_proposal(pair, policy)
    cfg = RolloutConfig(50, 50, 0)
    grid = BinGrid.uniform(pair, 4)
    with pytest.raises(ValueError, match="eta"):
        certify_tight_lower(pair, policy, query, cfg, q0, 10_000, 0.0, 0.1, grid)
    with pytest.raises(ValueError, match="span"):
        certify_tight_lower(pair, policy, query, cfg, q0, 10_000, 0.2, 0.1,
                            BinGrid(np.array([-1.0, 1.0])))
    with pytest.raises(ValueError, match="below the certified-rate"):
        certify_tight_lower(pair, policy, query, cfg, q0, 10, 0.2, 0.1, grid)


def test_certificates_reject_a_proposal_walked_for_another_query():
    # the default proposal is walked under the policy's first action, 1 on
    # two_state_sensor, so a Q-query for action 0 needs its own proposal
    pair, policy, query = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    assert q0.a_k == 1 and np.array_equal(q0.b_k.probs, query.belief.probs)
    q_query = ValueQuery(query.belief, query.alpha, action=0)
    cfg, grid = RolloutConfig(50, 50, 0), BinGrid.uniform(pair, 4)
    mismatch = (r"\(belief \[1.0, 0.0\], action 1\), "
                r"but the query is \(belief \[1.0, 0.0\], action 0\)")
    with pytest.raises(ValueError, match=mismatch):
        certify_uniform(pair, policy, q_query, cfg, q0, 10**6, 0.1, 0.1)
    with pytest.raises(ValueError, match=mismatch):
        certify_tight_lower(pair, policy, q_query, cfg, q0, 10**6, 0.25, 0.1, grid)
    elsewhere = ValueQuery(Belief(np.array([0.25, 0.75])), query.alpha, action=1)
    with pytest.raises(ValueError, match=r"query is \(belief \[0.25, 0.75\], action 1\)"):
        certify_uniform(pair, policy, elsewhere, cfg, q0, 10**6, 0.1, 0.1)

    matched = build_default_proposal(pair, policy, first_action=0)
    assert matched.a_k == 0
    # its g thresholds add the step-k cost of action 0, as the tree walk's do
    tree = dfs_trajectory_expectations(pair, policy, first_action=0)
    assert np.array_equal(matched.reduce().thresholds, tree.thresholds)
    nd = n_delta_for_uniform_bounds(0.1, 0.1, matched.importance_bound,
                                    m.horizon_T, m.start_k)
    assert certify_uniform(pair, policy, q_query, cfg, matched, nd, 0.1, 0.1)


def test_certify_tight_lower_deterministic_and_bounded(monkeypatch):
    pair, policy, query = sensor_setup()
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 6)
    eta, delta = 0.25, 0.1
    nd = n_delta_for_tight_lower(eta, delta, q0.importance_bound, grid.n_bins,
                                 m.horizon_T, m.start_k)
    cfg = RolloutConfig(400, 150, 43)
    one = certify_tight_lower(pair, policy, query, cfg, q0, nd, eta, delta, grid)
    two = certify_tight_lower(pair, policy, query, cfg, q0, nd, eta, delta, grid)
    assert one.value == two.value
    monkeypatch.setattr("riskgap.estimation.rollout_returns", loop_rollout_returns)
    looped = certify_tight_lower(pair, policy, query, cfg, q0, nd, eta, delta, grid)
    assert one.value == looped.value
    assert one.kind == "TightLower"
    assert one.v == one.radii["v"] > 0.0
    assert one.eta == eta
    # certified value stays below the true value plus its radius
    truth = q_exact(pair, policy, query)
    assert one.value - truth <= one.v


def test_certify_tight_lower_violation_rate():
    pair, policy, query = sensor_setup()
    m = pair.original
    truth = q_exact(pair, policy, query)
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 5)
    eta, delta = 0.3, 0.1
    nd = n_delta_for_tight_lower(eta, delta, q0.importance_bound, grid.n_bins,
                                 m.horizon_T, m.start_k)
    bad = 0
    for trial in range(100):
        cfg = RolloutConfig(250, 120, 60_000 + trial)
        bound = certify_tight_lower(pair, policy, query, cfg, q0, nd, eta,
                                    delta, grid)
        if bound.value - truth > bound.v:
            bad += 1
    assert bad <= 25


def test_certified_bound_kind_checked():
    with pytest.raises(ValueError, match="kind"):
        CertifiedBound(0.0, "L3", 0.1, 0.1, 0.0, 10, 10, {})
