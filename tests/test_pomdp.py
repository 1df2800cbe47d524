import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskgap import scenarios
from riskgap.estimation import build_default_proposal
from riskgap.risk import PROB_FLOOR, cvar_exact
from riskgap.pomdp import (
    Belief,
    BudgetExceededError,
    FinitePomdp,
    Policy,
    SimplifiedPair,
    belief_cost,
    belief_mdp_step,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
    load_problem,
    save_problem,
    tv_distance,
    validate_policy,
)

from belief_rollout_oracle import dkw_radius, exact_belief_returns, midpoint_gap
from trajectory_oracle import (
    ImpossibleObservationError,
    belief_update,
    dfs_return_distribution,
    dfs_trajectory_expectations,
    observation_mass,
)


def make_model(transition, observation, cost, b0, horizon_T, start_k=0, r_max=1.0):
    return FinitePomdp(
        transition=np.array(transition, dtype=float),
        observation=np.array(observation, dtype=float),
        state_cost=np.array(cost, dtype=float),
        r_max=r_max,
        initial_belief=np.array(b0, dtype=float),
        horizon_T=horizon_T,
        start_k=start_k,
    )


def random_pair(rng, n_states=3, n_actions=2, n_obs=3, horizon_T=3, start_k=0,
                mix=0.3):
    """Random model; simplified = (1-mix)*original + mix*(random stochastic)."""
    trans = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    obs = rng.dirichlet(np.ones(n_obs), size=n_states)
    cost = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    b0 = rng.dirichlet(np.ones(n_states))
    model = make_model(trans, obs, cost, b0, horizon_T, start_k)
    trans_s = (1 - mix) * trans + mix * rng.dirichlet(
        np.ones(n_states), size=(n_actions, n_states))
    obs_s = (1 - mix) * obs + mix * rng.dirichlet(np.ones(n_obs), size=n_states)
    return SimplifiedPair(model, trans_s, obs_s)


def random_policy(rng, pair):
    m = pair.original
    table = rng.integers(0, m.n_actions, size=(m.horizon_T - m.start_k + 1,
                                               m.n_states))
    return Policy(table, start_k=m.start_k)


# ---------------------------------------------------------------- validation


def test_rejects_non_stochastic_rows():
    with pytest.raises(ValueError, match="rows must sum"):
        make_model([[[0.5, 0.4], [0.5, 0.5]]], [[1, 0], [0, 1]],
                   [[0.0], [0.0]], [0.5, 0.5], horizon_T=1)


def test_rejects_cost_above_r_max():
    with pytest.raises(ValueError, match="r_max"):
        make_model([[[1, 0], [0, 1]]], [[1, 0], [0, 1]],
                   [[2.0], [0.0]], [0.5, 0.5], horizon_T=1)


def test_rejects_invalid_belief():
    with pytest.raises(ValueError):
        Belief(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Belief(np.array([-0.1, 1.1]))


def test_policy_shape_checked_against_model():
    pair = random_pair(np.random.default_rng(0))
    bad = Policy(np.zeros((2, 3), dtype=int), start_k=0)  # needs 4 rows
    with pytest.raises(ValueError, match="policy table"):
        validate_policy(pair, bad)
    good = random_policy(np.random.default_rng(0), pair)
    validate_policy(pair, good)


def test_policy_rejects_fractional_actions_naming_the_field():
    for bad in ([[0.5, 1.7]], [[0.0, np.nan]]):
        with pytest.raises(ValueError, match="^actions must be integral"):
            Policy(np.array(bad), start_k=0)
    # integral floats are accepted as the integers they hold
    assert Policy(np.array([[0.0, 3.0]]), start_k=0).actions.tolist() == [[0, 3]]


# ---------------------------------------------------------------- belief update


def test_uninformative_observation_keeps_predicted_belief():
    # constant likelihood: posterior equals the propagated prior for any z
    pair = SimplifiedPair.identical(make_model(
        [[[0.7, 0.3], [0.4, 0.6]]], [[0.5, 0.5], [0.5, 0.5]],
        [[0.0], [0.0]], [0.6, 0.4], horizon_T=1))
    predicted = pair.original.transition[0].T @ np.array([0.6, 0.4])
    for z in (0, 1):
        out = belief_update(pair, Belief(np.array([0.6, 0.4])), 0, z)
        np.testing.assert_allclose(out.probs, predicted, atol=1e-15)


def test_perfect_observation_gives_point_mass():
    pair = SimplifiedPair.identical(make_model(
        [[[0.7, 0.3], [0.4, 0.6]]], [[1.0, 0.0], [0.0, 1.0]],
        [[0.0], [0.0]], [0.6, 0.4], horizon_T=1))
    out = belief_update(pair, Belief(np.array([0.6, 0.4])), 0, 1)
    np.testing.assert_allclose(out.probs, [0.0, 1.0], atol=1e-15)


def test_impossible_observation_raises():
    pair = SimplifiedPair.identical(make_model(
        [[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 0.0], [1.0, 0.0]],
        [[0.0], [0.0]], [0.5, 0.5], horizon_T=1))
    with pytest.raises(ImpossibleObservationError):
        belief_update(pair, Belief(np.array([0.5, 0.5])), 0, 1)


def _update_by_loops(trans, obs, b, a, z):
    n = b.size
    out = np.zeros(n)
    for xp in range(n):
        acc = 0.0
        for x in range(n):
            acc += trans[a][x][xp] * b[x]
        out[xp] = obs[xp][z] * acc
    return out / out.sum()


def test_update_matches_independent_loop_implementation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pair = random_pair(rng)
        b = Belief(rng.dirichlet(np.ones(3)))
        a = int(rng.integers(0, 2))
        for model in ("original", "simplified"):
            trans, obs = pair.tensors(model)
            marg = obs.T @ (trans[a].T @ b.probs)
            z = int(np.argmax(marg))  # guaranteed possible
            got = belief_update(pair, b, a, z, model)
            want = _update_by_loops(trans, obs, b.probs, a, z)
            np.testing.assert_allclose(got.probs, want, atol=1e-12)


# ---------------------------------------------------------------- belief-MDP step


def test_deterministic_models_give_single_atom():
    pair = SimplifiedPair.identical(make_model(
        [[[0.0, 1.0], [1.0, 0.0]]], [[1.0, 0.0], [0.0, 1.0]],
        [[0.0], [0.0]], [1.0, 0.0], horizon_T=1))
    successors, probs = belief_mdp_step(pair, Belief(np.array([1.0, 0.0])), 0)
    assert probs.tolist() == pytest.approx([1.0], abs=1e-15)
    np.testing.assert_allclose(successors, [[0.0, 1.0]])


def test_symmetric_model_splits_half_half():
    pair = SimplifiedPair.identical(make_model(
        [[[0.5, 0.5], [0.5, 0.5]]], [[0.8, 0.2], [0.2, 0.8]],
        [[0.0], [0.0]], [0.5, 0.5], horizon_T=1))
    _, probs = belief_mdp_step(pair, Belief(np.array([0.5, 0.5])), 0)
    assert probs.tolist() == pytest.approx([0.5, 0.5])


def test_step_probabilities_sum_to_one_and_match_update():
    # bit for bit: from 8 entries on NumPy sums a vector pairwise, so a law
    # whose normalisers are summed in another order differs in the last bits
    rng = np.random.default_rng(11)
    for n_states in [3] * 200 + [8, 9, 12] * 100:
        pair = random_pair(rng, n_states=n_states)
        b = Belief(rng.dirichlet(np.ones(n_states)))
        a = int(rng.integers(0, 2))
        for model in ("original", "simplified"):
            successors, probs = belief_mdp_step(pair, b, a, model)
            assert not (successors.flags.writeable or probs.flags.writeable)
            assert abs(probs.sum() - 1.0) <= 1e-12
            seen = [z for z in range(pair.original.n_obs)
                    if observation_mass(pair, b, a, z, model) > PROB_FLOOR]
            assert successors.shape == (len(seen), n_states)
            for row, p, z in zip(successors, probs, seen):
                assert p == observation_mass(pair, b, a, z, model)
                assert np.array_equal(row, belief_update(pair, b, a, z, model).probs)


# ---------------------------------------------------------------- TV distance


def test_tv_zero_for_identical_models():
    rng = np.random.default_rng(3)
    pair = SimplifiedPair.identical(random_pair(rng).original)
    b = Belief(rng.dirichlet(np.ones(3)))
    assert tv_distance(pair, b, 0) == pytest.approx(0.0, abs=1e-15)


def test_tv_two_for_disjoint_successor_sets():
    # perfect observations, different deterministic transitions: the two
    # successor laws put all mass on different point-mass beliefs
    model = make_model([[[0.0, 1.0], [0.0, 1.0]]], [[1.0, 0.0], [0.0, 1.0]],
                       [[0.0], [0.0]], [1.0, 0.0], horizon_T=1)
    pair = SimplifiedPair(model, np.array([[[1.0, 0.0], [1.0, 0.0]]]),
                          model.observation.copy())
    assert tv_distance(pair, Belief(np.array([1.0, 0.0])), 0) == pytest.approx(2.0)


def test_tv_partial_overlap_hand_computed():
    # perfect observation makes successors point masses under both models,
    # so the TV reduces to the L1 gap between predicted state distributions
    model = make_model([[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 0.0], [0.0, 1.0]],
                       [[0.0], [0.0]], [0.5, 0.5], horizon_T=1)
    pair = SimplifiedPair(model, np.array([[[0.9, 0.1], [0.2, 0.8]]]),
                          model.observation.copy())
    # predicted: (0.5, 0.5) vs (0.55, 0.45) -> |diff| sums to 0.1
    assert tv_distance(pair, Belief(np.array([0.5, 0.5])), 0) == pytest.approx(0.1)


def test_tv_merges_atoms_within_each_model_first():
    # both observations lead to the same posterior; per-observation matching
    # would report 0.4 but the successor laws are identical point masses
    model = make_model([[[1.0, 0.0], [0.0, 1.0]]], [[0.5, 0.5], [0.5, 0.5]],
                       [[0.0], [0.0]], [1.0, 0.0], horizon_T=1)
    pair = SimplifiedPair(model, model.transition.copy(),
                          np.array([[0.7, 0.3], [0.5, 0.5]]))
    assert tv_distance(pair, Belief(np.array([1.0, 0.0])), 0) == pytest.approx(0.0, abs=1e-15)


def _tv_by_dict(pair, b, a):
    def law(model):
        acc = {}
        for row, p in zip(*belief_mdp_step(pair, b, a, model)):
            key = tuple(np.round(row, 9))
            acc[key] = acc.get(key, 0.0) + p
        return acc

    p, q = law("original"), law("simplified")
    return sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def test_tv_matches_exhaustive_dict_oracle():
    rng = np.random.default_rng(19)
    for _ in range(200):
        pair = random_pair(rng)
        b = Belief(rng.dirichlet(np.ones(3)))
        a = int(rng.integers(0, 2))
        assert tv_distance(pair, b, a) == pytest.approx(_tv_by_dict(pair, b, a),
                                                        abs=1e-9)


# ---------------------------------------------------------------- belief cost


def test_belief_cost_point_mass_and_uniform():
    model = make_model([[[1.0, 0.0], [0.0, 1.0]]], [[1.0, 0.0], [0.0, 1.0]],
                       [[0.3], [0.3]], [0.5, 0.5], horizon_T=1, r_max=0.5)
    pair = SimplifiedPair.identical(model)
    assert belief_cost(pair, Belief(np.array([1.0, 0.0])), 0) == pytest.approx(0.3)
    assert belief_cost(pair, Belief(np.array([0.5, 0.5])), 0) == pytest.approx(0.3)


def test_belief_cost_matches_dot_product():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pair = random_pair(rng)
        b = rng.dirichlet(np.ones(3))
        a = int(rng.integers(0, 2))
        want = float(b @ pair.original.state_cost[:, a])
        assert belief_cost(pair, Belief(b), a) == pytest.approx(want, abs=1e-14)
        assert abs(want) <= pair.original.r_max + 1e-12


# ---------------------------------------------------------------- enumeration


def _dp_value(pair, policy, b, t, model):
    a = policy.action(t, b)
    c = belief_cost(pair, b, a)
    if t == pair.original.horizon_T:
        return c
    total = 0.0
    for row, p in zip(*belief_mdp_step(pair, b, a, model)):
        total += p * _dp_value(pair, policy, Belief(row), t + 1, model)
    return c + total


def test_single_step_episode_is_point_mass():
    model = make_model([[[0.5, 0.5], [0.5, 0.5]]], [[0.5, 0.5], [0.5, 0.5]],
                       [[0.25], [0.75]], [0.5, 0.5], horizon_T=2, start_k=2)
    pair = SimplifiedPair.identical(model)
    policy = Policy(np.zeros((1, 2), dtype=int), start_k=2)
    dist = enumerate_return_distribution(pair, policy)
    assert dist.values.size == 1
    assert dist.values[0] == pytest.approx(0.5)


def test_deterministic_model_gives_point_mass_at_rollout_return():
    model = make_model([[[0.0, 1.0], [1.0, 0.0]]], [[1.0, 0.0], [0.0, 1.0]],
                       [[0.1], [0.4]], [1.0, 0.0], horizon_T=3, r_max=0.5)
    pair = SimplifiedPair.identical(model)
    policy = Policy(np.zeros((4, 2), dtype=int), start_k=0)
    dist = enumerate_return_distribution(pair, policy)
    # alternates 0 -> 1 -> 0 -> 1: costs 0.1, 0.4, 0.1, 0.4
    assert dist.values.size == 1
    assert dist.values[0] == pytest.approx(1.0)
    assert dist.probs[0] == pytest.approx(1.0)


def test_enumeration_mass_and_mean_match_dp():
    rng = np.random.default_rng(31)
    for _ in range(25):
        pair = random_pair(rng, n_states=2, n_actions=2, n_obs=2, horizon_T=3)
        policy = random_policy(rng, pair)
        for model in ("original", "simplified"):
            dist = enumerate_return_distribution(pair, policy, model=model)
            assert dist.values.size <= 8
            assert abs(dist.probs.sum() - 1.0) <= 1e-12
            want = _dp_value(pair, policy, Belief(pair.original.initial_belief),
                             0, model)
            assert dist.mean() == pytest.approx(want, abs=1e-9)


def test_forced_first_action_changes_only_step_k():
    rng = np.random.default_rng(37)
    pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=3)
    policy = random_policy(rng, pair)
    b0 = Belief(pair.original.initial_belief)
    chosen = policy.action(0, b0)
    same = enumerate_return_distribution(pair, policy, first_action=chosen)
    default = enumerate_return_distribution(pair, policy)
    np.testing.assert_allclose(same.values, default.values)
    np.testing.assert_allclose(same.probs, default.probs)


def test_leaf_budget_enforced():
    rng = np.random.default_rng(41)
    pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=4)
    policy = random_policy(rng, pair)
    for enumerate_fn, model in ((enumerate_return_distribution, "original"),
                                (enumerate_trajectory_expectations, "simplified"),
                                (build_default_proposal, "simplified")):
        with pytest.raises(BudgetExceededError, match=f"^{model} .* at step 2$"):
            enumerate_fn(pair, policy, leaf_budget=4)
    with pytest.raises(BudgetExceededError, match="^simplified "):
        enumerate_return_distribution(pair, policy, model="simplified",
                                      leaf_budget=4)


def test_unmerged_paths_with_tied_returns_sum_as_the_tree():
    # costs that depend on the action only tie the returns of many paths
    # whose beliefs differ; their masses must add in the tree's leaf order
    rng = np.random.default_rng(73)
    for _ in range(30):
        pair = random_pair(rng, horizon_T=4)
        m = pair.original
        cost = np.tile(rng.choice([0.1, 0.3, 0.7], size=m.n_actions), (m.n_states, 1))
        model = make_model(m.transition, m.observation, cost, m.initial_belief,
                           m.horizon_T)
        pair = SimplifiedPair(model, pair.simplified_transition,
                              pair.simplified_observation)
        policy = random_policy(rng, pair)
        for model_name in ("original", "simplified"):
            walk = enumerate_return_distribution(pair, policy, model=model_name)
            tree = dfs_return_distribution(pair, policy, model=model_name)
            assert np.array_equal(walk.values, tree.values)
            assert np.array_equal(walk.probs, tree.probs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), horizon_gap=st.integers(1, 5),
       n_obs=st.integers(1, 3), noisy=st.booleans(),
       first_action=st.sampled_from((None, 0, 1)), initial=st.booleans())
# merged paths whose returns differ in the last bits
@example(seed=0, horizon_gap=4, n_obs=3, noisy=False, first_action=None,
         initial=False)
def test_forward_walk_law_equals_tree_dfs_on_random_instances(seed, horizon_gap,
                                                              n_obs, noisy,
                                                              first_action,
                                                              initial):
    # deterministic sensors (random_instance) make paths merge in the walk;
    # noisy ones (random_pair) keep every path its own node
    rng = np.random.default_rng(seed)
    if noisy:
        pair = random_pair(rng, n_obs=n_obs, horizon_T=horizon_gap)
        policy = random_policy(rng, pair)
    else:
        spec = scenarios.random_instance(seed, n_obs=n_obs, horizon_gap=horizon_gap)
        pair, policy = spec.pair, spec.policy
    b_k = None if initial else Belief(rng.dirichlet(np.ones(pair.original.n_states)))
    for model in ("original", "simplified"):
        walk = enumerate_return_distribution(pair, policy, b_k=b_k, model=model,
                                             first_action=first_action)
        tree = dfs_return_distribution(pair, policy, b_k=b_k, model=model,
                                       first_action=first_action)
        if noisy:
            assert np.array_equal(walk.values, tree.values)
            assert np.array_equal(walk.probs, tree.probs)
        # a merged node keeps one path's return, which can sit a few ulps
        # from the smallest one the tree keeps for the same atom, so each
        # law's CDF is read at its own atoms and elsewhere at shared points
        assert walk.values.size == tree.values.size
        np.testing.assert_allclose(walk.values, tree.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(walk.cdf(), tree.cdf(), rtol=0, atol=1e-12)
        probes = np.concatenate((walk.values - 1e-9, tree.values - 1e-9,
                                 0.5 * (walk.values[1:] + walk.values[:-1]),
                                 0.5 * (tree.values[1:] + tree.values[:-1])))
        np.testing.assert_allclose(walk.cdf_at(probes), tree.cdf_at(probes),
                                   rtol=0, atol=1e-12)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            assert abs(cvar_exact(walk, alpha) - cvar_exact(tree, alpha)) <= 1e-12


# exact-belief rollouts per instance, the band's failure probability, and the
# one generator seed every instance starts from; fixed before any outcome
_DKW_ROWS, _DKW_DELTA, _DKW_SEED = 2000, 1e-3, 0


@pytest.mark.parametrize("name", [*scenarios.builtin_names(),
                                  *(f"random_h{h}" for h in range(1, 6))])
def test_exact_belief_rollouts_fall_in_the_dkw_band(name):
    # the simplified law's return draws, sampled along exact beliefs, against
    # the walk's exact law: a referee for the rollout pool's law
    if name.startswith("random_h"):
        spec = scenarios.random_instance(0, horizon_gap=int(name[len("random_h"):]))
    else:
        spec = scenarios.builtin(name)
    returns = exact_belief_returns(spec.pair, spec.policy, _DKW_ROWS,
                                   np.random.default_rng(_DKW_SEED))
    exact = enumerate_return_distribution(spec.pair, spec.policy, model="simplified")
    assert midpoint_gap(exact, returns) <= dkw_radius(_DKW_ROWS, _DKW_DELTA)


# ------------------------------------------------- trajectory expectations


def test_identical_models_have_zero_gap():
    rng = np.random.default_rng(43)
    pair = SimplifiedPair.identical(random_pair(rng, horizon_T=3).original)
    policy = random_policy(rng, pair)
    out = enumerate_trajectory_expectations(pair, policy)
    assert out.epsilon == pytest.approx(0.0, abs=1e-15)
    assert np.all(out.g_at(np.linspace(-5, 5, 50)) == 0.0)


def test_g_saturates_at_epsilon_for_large_l():
    rng = np.random.default_rng(47)
    pair = random_pair(rng, horizon_T=4)
    policy = random_policy(rng, pair)
    hi = pair.original.r_max * (pair.original.horizon_T + 1) + 1.0
    out = enumerate_trajectory_expectations(pair, policy)
    assert out.g_at(hi)[0] == pytest.approx(out.epsilon, abs=1e-12)


def test_g_is_monotone_step_function_below_epsilon():
    rng = np.random.default_rng(53)
    for _ in range(20):
        pair = random_pair(rng, horizon_T=3)
        policy = random_policy(rng, pair)
        grid = np.linspace(-6, 6, 120)
        out = enumerate_trajectory_expectations(pair, policy)
        g = out.g_at(grid)
        assert np.all(np.diff(g) >= -1e-15)
        assert np.all(g <= out.epsilon + 1e-9)
        # right-continuity: value at a jump point includes the jump
        if out.thresholds.size:
            cum = np.cumsum(out.threshold_weights)
            np.testing.assert_allclose(out.g_at(out.thresholds), cum,
                                       atol=1e-15)
            assert out.g_at(out.thresholds[0] - 1e-9)[0] == 0.0


def test_per_step_m_matches_forward_pass():
    rng = np.random.default_rng(59)
    for _ in range(20):
        pair = random_pair(rng, horizon_T=3)
        policy = random_policy(rng, pair)
        b0 = Belief(pair.original.initial_belief)
        out = enumerate_trajectory_expectations(pair, policy)
        # independent forward pass: propagate the simplified belief-state law
        frontier = [(Belief(row), q) for row, q in zip(
            *belief_mdp_step(pair, b0, policy.action(0, b0), "simplified"))]
        for i, m_i in enumerate(out.per_step_m):
            want = sum(p * tv_distance(pair, b, policy.action(i + 1, b))
                       for b, p in frontier)
            assert m_i == pytest.approx(want, abs=1e-12)
            frontier = [(Belief(row), p * q) for b, p in frontier
                        for row, q in zip(*belief_mdp_step(
                            pair, b, policy.action(i + 1, b), "simplified"))]
        assert out.epsilon == pytest.approx(out.per_step_m.sum(), abs=1e-15)


def test_cdf_gap_bounded_by_g_on_grid():
    # the load-bearing envelope property: |F - F_s| <= g pointwise
    rng = np.random.default_rng(61)
    for _ in range(15):
        pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=4, mix=0.4)
        policy = random_policy(rng, pair)
        for first_action in (None, 0, 1):
            dist = enumerate_return_distribution(pair, policy,
                                                 first_action=first_action)
            dist_s = enumerate_return_distribution(pair, policy,
                                                   model="simplified",
                                                   first_action=first_action)
            lo = min(dist.values[0], dist_s.values[0]) - 0.5
            hi = max(dist.values[-1], dist_s.values[-1]) + 0.5
            grid = np.linspace(lo, hi, 200)
            out = enumerate_trajectory_expectations(pair, policy,
                                                    first_action=first_action)
            gap = np.abs(dist.cdf_at(grid) - dist_s.cdf_at(grid))
            assert np.all(gap <= out.g_at(grid) + 1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), horizon_gap=st.integers(2, 5),
       n_obs=st.integers(1, 3), noisy=st.booleans(),
       first_action=st.sampled_from((None, 0, 1)), initial=st.booleans())
# merged paths whose prefixes differ in the last bits
@example(seed=557, horizon_gap=5, n_obs=2, noisy=False, first_action=None,
         initial=True)
def test_atom_oracle_equals_tree_walk_on_random_instances(seed, horizon_gap, n_obs,
                                                          noisy, first_action,
                                                          initial):
    # deterministic sensors (random_instance) make beliefs merge across
    # paths; noisy ones (random_pair) keep every path its own atom
    rng = np.random.default_rng(seed)
    if noisy:
        pair = random_pair(rng, n_obs=n_obs, horizon_T=horizon_gap)
        policy = random_policy(rng, pair)
    else:
        spec = scenarios.random_instance(seed, n_obs=n_obs, horizon_gap=horizon_gap)
        pair, policy = spec.pair, spec.policy
    b_k = None if initial else Belief(rng.dirichlet(np.ones(pair.original.n_states)))
    atoms = enumerate_trajectory_expectations(pair, policy, b_k=b_k,
                                              first_action=first_action)
    tree = dfs_trajectory_expectations(pair, policy, b_k=b_k,
                                       first_action=first_action)
    np.testing.assert_allclose(atoms.per_step_m, tree.per_step_m, rtol=0, atol=1e-12)
    assert abs(atoms.epsilon - tree.epsilon) <= 1e-12
    # a merged atom keeps its first path's prefix, which can sit a few ulps
    # above the smallest one the tree walk keeps for the same jump, so g is
    # compared exactly at the atom oracle's own jumps and just left of both
    jumps, tree_jumps = atoms.thresholds, tree.thresholds
    probes = np.concatenate((jumps, jumps - 1e-9, tree_jumps - 1e-9,
                             0.5 * (jumps[1:] + jumps[:-1]),
                             0.5 * (tree_jumps[1:] + tree_jumps[:-1])))
    np.testing.assert_allclose(atoms.g_at(probes), tree.g_at(probes), rtol=0,
                               atol=1e-12)


# ---------------------------------------------------------------- problem files


def test_problem_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(67)
    pair = random_pair(rng, horizon_T=3)
    policy = random_policy(rng, pair)
    path = tmp_path / "problem.json"
    save_problem(path, pair, policy)
    loaded_pair, loaded_policy = load_problem(path)
    assert np.array_equal(loaded_pair.original.transition,
                          pair.original.transition)
    assert np.array_equal(loaded_pair.simplified_transition,
                          pair.simplified_transition)
    assert np.array_equal(loaded_pair.original.observation,
                          pair.original.observation)
    assert np.array_equal(loaded_pair.simplified_observation,
                          pair.simplified_observation)
    assert np.array_equal(loaded_pair.original.state_cost,
                          pair.original.state_cost)
    assert np.array_equal(loaded_pair.original.initial_belief,
                          pair.original.initial_belief)
    assert loaded_pair.original.r_max == pair.original.r_max
    assert np.array_equal(loaded_policy.actions, policy.actions)
    # saving the loaded problem reproduces the same bytes
    path2 = tmp_path / "again.json"
    save_problem(path2, loaded_pair, loaded_policy)
    assert path.read_bytes() == path2.read_bytes()


def test_problem_file_rejects_inconsistent_declarations(tmp_path):
    rng = np.random.default_rng(71)
    pair = random_pair(rng, horizon_T=3)
    policy = random_policy(rng, pair)
    path = tmp_path / "problem.json"
    save_problem(path, pair, policy)
    doc = json.loads(path.read_text())
    doc["states"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="declared states"):
        load_problem(path)
    path.write_text("not json")
    with pytest.raises(ValueError, match="valid JSON"):
        load_problem(path)
