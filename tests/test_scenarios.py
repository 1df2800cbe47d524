import time

import numpy as np
import pytest

from riskgap.estimation import ParticleBelief, RolloutConfig, rollout_returns
from riskgap.pomdp import (
    SimplifiedPair,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
    load_problem,
    save_problem,
)
from riskgap.scenarios import (
    ScenarioSpec,
    UnknownScenarioError,
    builtin,
    builtin_names,
    random_instance,
)

ALL_BUILTINS = ("two_state_sensor", "corridor4", "degrade_heavy")


def test_builtin_names_listed():
    assert builtin_names() == sorted(ALL_BUILTINS)


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError, match="nope"):
        builtin("nope")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtin_round_trips_through_problem_file(name, tmp_path):
    sc = builtin(name)
    assert isinstance(sc, ScenarioSpec)
    path = tmp_path / f"{name}.json"
    save_problem(path, sc.pair, sc.policy)
    pair, policy = load_problem(path)
    assert np.array_equal(pair.original.transition, sc.pair.original.transition)
    assert np.array_equal(pair.simplified_transition, sc.pair.simplified_transition)
    assert np.array_equal(pair.simplified_observation,
                          sc.pair.simplified_observation)
    assert np.array_equal(policy.actions, sc.policy.actions)
    again = tmp_path / "again.json"
    save_problem(again, pair, policy)
    assert path.read_bytes() == again.read_bytes()


def test_degrade_heavy_gap_saturates():
    sc = builtin("degrade_heavy")
    traj = enumerate_trajectory_expectations(sc.pair, sc.policy)
    assert traj.epsilon >= 0.1  # >= the scenario's default alpha
    # saturated regime: bound cases stay degenerate at every alpha in (0,1)
    assert traj.epsilon >= 1.0


def test_two_state_sensor_gap_is_moderate():
    # keeps all three certified-bound cases reachable across the alpha grid
    sc = builtin("two_state_sensor")
    traj = enumerate_trajectory_expectations(sc.pair, sc.policy)
    assert 0.3 <= traj.epsilon <= 0.75


def test_corridor4_gap_is_moderate():
    # one slipping interior step, shared deterministic retreat: gap = 2*0.25
    sc = builtin("corridor4")
    traj = enumerate_trajectory_expectations(sc.pair, sc.policy)
    assert abs(traj.epsilon - 0.5) < 1e-12


def test_corridor4_atom_count_within_branching_bound():
    sc = builtin("corridor4")
    for model in ("original", "simplified"):
        dist = enumerate_return_distribution(sc.pair, sc.policy, model=model)
        assert dist.values.size <= 4 ** 3


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("model", ("simplified", "original"))
def test_builtin_particle_rollouts_stay_nondegenerate(name, model):
    # the rollout chain never resamples, so an identifying sensor can zero
    # out a thinned particle cloud; builtins must survive default-scale
    # certification runs under both models (the pool samples the simplified
    # tensors, so the original model is pooled with itself)
    sc = builtin(name)
    m = sc.pair.original
    pair = sc.pair if model == "simplified" else SimplifiedPair.identical(m)
    depth = m.horizon_T - m.start_k + 1
    action = sc.policy.action(m.start_k, sc.default_query.belief)
    for seed in (0, 1, 2):
        cloud = ParticleBelief.from_belief(
            sc.default_query.belief, 200, np.random.default_rng(seed))
        cfg = RolloutConfig(num_rollouts_C=700, num_particles_Nx=200,
                            rng_seed=seed)
        returns = rollout_returns(pair, sc.policy, cloud, action, m.start_k, depth, cfg)
        assert np.all(np.isfinite(returns))


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtin_enumeration_is_fast(name):
    sc = builtin(name)
    start = time.perf_counter()
    enumerate_return_distribution(sc.pair, sc.policy)
    enumerate_return_distribution(sc.pair, sc.policy, model="simplified")
    enumerate_trajectory_expectations(sc.pair, sc.policy)
    assert time.perf_counter() - start < 1.0


def test_random_instance_zero_perturbation_has_zero_gap():
    sc = random_instance(7, perturbation=0.0)
    traj = enumerate_trajectory_expectations(sc.pair, sc.policy)
    assert traj.epsilon == 0.0


def test_random_instance_is_seed_deterministic():
    a = random_instance(123, perturbation=0.2)
    b = random_instance(123, perturbation=0.2)
    assert np.array_equal(a.pair.original.transition, b.pair.original.transition)
    assert np.array_equal(a.pair.simplified_transition, b.pair.simplified_transition)
    assert np.array_equal(a.pair.original.state_cost, b.pair.original.state_cost)
    assert np.array_equal(a.policy.actions, b.policy.actions)
    c = random_instance(124, perturbation=0.2)
    assert not np.array_equal(a.pair.original.transition,
                              c.pair.original.transition)


def test_gap_grows_with_perturbation():
    for seed in (1, 5, 42):
        small = random_instance(seed, perturbation=0.1)
        large = random_instance(seed, perturbation=0.3)
        eps_small = enumerate_trajectory_expectations(small.pair,
                                                      small.policy).epsilon
        eps_large = enumerate_trajectory_expectations(large.pair,
                                                      large.policy).epsilon
        assert eps_large > eps_small


def test_random_instance_validates_arguments():
    with pytest.raises(ValueError, match="perturbation"):
        random_instance(1, perturbation=1.5)
    with pytest.raises(ValueError, match=r"^n_states must be >= 1, got 0$"):
        random_instance(1, n_states=0)
    with pytest.raises(ValueError, match=r"^horizon_gap must be integral, got 2.5$"):
        random_instance(1, horizon_gap=2.5)


def test_random_instance_enumerates_under_budget():
    for seed in (0, 9):
        sc = random_instance(seed, n_states=3, n_obs=3, horizon_gap=4)
        start = time.perf_counter()
        enumerate_return_distribution(sc.pair, sc.policy)
        assert time.perf_counter() - start < 1.0
