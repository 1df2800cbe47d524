import numpy as np
import pytest

from riskgap.envelopes import (
    SupportBounds,
    tight_lower,
    uniform_lower,
    uniform_upper,
)
from riskgap.pomdp import (
    Belief,
    Policy,
    SimplifiedPair,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
)
from riskgap.risk import cvar_estimate_sorted, cvar_exact, deviation_radii
from riskgap.scenarios import builtin
from riskgap.value_bounds import (
    BoundReport,
    ValueQuery,
    bound_report,
    q_exact,
)

from envelope_oracles import conservative_grid_envelope
from test_pomdp import make_model, random_pair, random_policy


def _query(pair, alpha, action=None):
    return ValueQuery(Belief(pair.original.initial_belief), alpha, action)


def test_alpha_near_one_recovers_expected_cost():
    rng = np.random.default_rng(5)
    pair = random_pair(rng, horizon_T=3)
    policy = random_policy(rng, pair)
    dist = enumerate_return_distribution(pair, policy)
    got = q_exact(pair, policy, _query(pair, 1.0 - 1e-9))
    assert got == pytest.approx(dist.mean(), abs=1e-6)


def test_deterministic_model_value_ignores_alpha():
    model = make_model([[[0.0, 1.0], [1.0, 0.0]]], [[1.0, 0.0], [0.0, 1.0]],
                       [[0.1], [0.4]], [1.0, 0.0], horizon_T=3, r_max=0.5)
    pair = SimplifiedPair.identical(model)
    policy = Policy(np.zeros((4, 2), dtype=int), start_k=0)
    for alpha in (0.05, 0.5, 0.95):
        assert q_exact(pair, policy, _query(pair, alpha)) == pytest.approx(1.0)


def test_q_exact_cross_checked_by_sampling():
    rng = np.random.default_rng(13)
    pair = random_pair(rng, horizon_T=4)
    policy = random_policy(rng, pair)
    alpha = 0.25
    exact = q_exact(pair, policy, _query(pair, alpha))
    dist = enumerate_return_distribution(pair, policy)
    sample = rng.choice(dist.values, p=dist.probs, size=100_000)
    est = cvar_estimate_sorted(sample, alpha)
    radii = deviation_radii(sample.size, alpha, delta=1e-3,
                            value_range=dist.sup_support - dist.inf_support)
    assert exact - est <= radii.upper
    assert est - exact <= radii.lower


def test_v_equals_q_at_policy_action():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pair = random_pair(rng, horizon_T=3)
        policy = random_policy(rng, pair)
        b = Belief(pair.original.initial_belief)
        chosen = policy.action(pair.original.start_k, b)
        v = q_exact(pair, policy, ValueQuery(b, 0.3))
        q = q_exact(pair, policy, ValueQuery(b, 0.3, action=chosen))
        assert v == q
    # an action is an integer in range and a belief has one entry per state; NumPy
    # would wrap -1 to the last action and truncate 1.7 to 1
    spec = builtin("two_state_sensor")
    b0 = Belief(spec.pair.original.initial_belief)
    for action, says in ((-1, r"must lie in \[0, 2\), got -1"), (2, r"must lie in \[0, 2\), got 2"),
                         (1.7, "must be integral, got 1.7")):
        with pytest.raises(ValueError, match=f"^action {says}$"):
            q_exact(spec.pair, spec.policy, ValueQuery(b0, 0.25, action=action))
    with pytest.raises(ValueError, match="^belief must have 2 entries, got 3$"):
        q_exact(spec.pair, spec.policy, ValueQuery(Belief([0.2, 0.3, 0.5]), 0.25))
    assert type(ValueQuery(b0, 0.25, action=np.int64(1)).action) is int


def test_identical_models_collapse_all_bounds():
    rng = np.random.default_rng(19)
    pair = SimplifiedPair.identical(random_pair(rng, horizon_T=3).original)
    policy = random_policy(rng, pair)
    rep = bound_report(pair, policy, _query(pair, 0.3))
    assert rep.epsilon == pytest.approx(0.0, abs=1e-15)
    assert rep.q_simplified == pytest.approx(rep.q_true, abs=1e-12)
    assert rep.lower_uniform == pytest.approx(rep.q_true, abs=1e-12)
    assert rep.upper_uniform == pytest.approx(rep.q_true, abs=1e-12)
    assert rep.lower_tight == pytest.approx(rep.q_true, abs=1e-12)


def _heavy_gap_pair():
    # disjoint deterministic successors at every interior step: tv = 2
    model = make_model([[[0.0, 1.0], [1.0, 0.0]]], [[1.0, 0.0], [0.0, 1.0]],
                       [[0.2], [0.6]], [1.0, 0.0], horizon_T=3, r_max=1.0)
    return SimplifiedPair(model, np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                          model.observation.copy())


def test_saturated_upper_is_worst_case_return():
    pair = _heavy_gap_pair()
    policy = Policy(np.zeros((4, 2), dtype=int), start_k=0)
    rep = bound_report(pair, policy, _query(pair, 0.5))
    assert rep.epsilon >= 0.5
    span = pair.original.r_max * (pair.original.horizon_T + 1)
    assert rep.upper_uniform == pytest.approx(span)
    assert rep.lower_uniform <= rep.q_true <= rep.upper_uniform
    assert rep.q_true == q_exact(pair, policy, _query(pair, 0.5))


def test_sandwich_and_tightness_on_random_instances():
    rng = np.random.default_rng(23)
    alphas = [0.05, 0.1, 0.25, 0.5, 0.9]
    for _ in range(20):
        pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=3, mix=0.3)
        policy = random_policy(rng, pair)
        for alpha in alphas:
            rep = bound_report(pair, policy, _query(pair, alpha))
            assert rep.lower_uniform <= rep.q_true + 1e-9
            assert rep.q_true <= rep.upper_uniform + 1e-9
            assert rep.lower_tight <= rep.q_true + 1e-9
            # the dominated-CDF bound never loses to the scalar-gap bound
            assert rep.lower_tight >= rep.lower_uniform - 1e-9


def test_case_tags_follow_the_stated_inequalities():
    rng = np.random.default_rng(29)
    for _ in range(40):
        pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=3,
                           mix=float(rng.uniform(0.0, 0.9)))
        policy = random_policy(rng, pair)
        alpha = float(rng.uniform(0.05, 0.95))
        rep = bound_report(pair, policy, _query(pair, alpha))
        eps = rep.epsilon
        want_upper = "shifted_tail" if eps < alpha else "support_cap"
        want_lower = "shifted_tail" if eps + alpha < 1.0 else "mean_anchor"
        assert rep.case_tags == {"upper": want_upper, "lower": want_lower}


def test_inflating_epsilon_never_tightens():
    rng = np.random.default_rng(31)
    pair = random_pair(rng, horizon_T=3)
    policy = random_policy(rng, pair)
    q = _query(pair, 0.4)
    rep = bound_report(pair, policy, q)
    dist_s = enumerate_return_distribution(pair, policy, model="simplified")
    span = pair.original.r_max * (pair.original.horizon_T + 1)
    support = SupportBounds(-span, span)
    prev_lo, prev_hi = rep.lower_uniform, rep.upper_uniform
    for slack in (0.05, 0.2, 0.6):
        lo = uniform_lower(dist_s, q.alpha, rep.epsilon + slack, support)
        hi = uniform_upper(dist_s, q.alpha, rep.epsilon + slack, support)
        assert lo <= prev_lo + 1e-12
        assert hi >= prev_hi - 1e-12
        prev_lo, prev_hi = lo, hi


def test_grid_evaluation_is_conservative():
    rng = np.random.default_rng(37)
    for _ in range(10):
        pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=4, mix=0.4)
        policy = random_policy(rng, pair)
        q = _query(pair, 0.3)
        rep = bound_report(pair, policy, q)
        exact_env, q_true = rep.lower_tight, rep.q_true
        dist_s = enumerate_return_distribution(pair, policy,
                                               model="simplified")
        dist = enumerate_return_distribution(pair, policy)
        traj = enumerate_trajectory_expectations(pair, policy)
        # atoms of both laws plus their midpoints, and a blind uniform grid
        atoms = np.unique(np.concatenate((dist_s.values, dist.values)))
        for grid in (np.concatenate((atoms, (atoms[:-1] + atoms[1:]) / 2.0)),
                     np.linspace(-5.0, 5.0, 40)):
            coarse = tight_lower(dist_s, conservative_grid_envelope(traj, grid),
                                 q.alpha)
            assert coarse <= exact_env + 1e-12
            assert coarse <= q_true + 1e-9


def test_enumerated_support_tightens_but_stays_valid():
    rng = np.random.default_rng(41)
    for _ in range(10):
        pair = random_pair(rng, n_states=2, n_obs=2, horizon_T=3, mix=0.5)
        policy = random_policy(rng, pair)
        q = _query(pair, 0.25)
        rep = bound_report(pair, policy, q)
        dist = enumerate_return_distribution(pair, policy)
        dist_s = enumerate_return_distribution(pair, policy, model="simplified")
        # the union of the two enumerated supports instead of +-r_max*(T-k+1)
        support = SupportBounds(min(dist.inf_support, dist_s.inf_support),
                                max(dist.sup_support, dist_s.sup_support))
        lo_e = uniform_lower(dist_s, q.alpha, rep.epsilon, support)
        hi_e = uniform_upper(dist_s, q.alpha, rep.epsilon, support)
        assert lo_e <= rep.q_true + 1e-9 <= hi_e + 2e-9
        assert hi_e <= rep.upper_uniform + 1e-12
        assert lo_e >= rep.lower_uniform - 1e-12


def test_report_fields_are_consistent():
    rng = np.random.default_rng(47)
    pair = random_pair(rng, horizon_T=3)
    policy = random_policy(rng, pair)
    rep = bound_report(pair, policy, _query(pair, 0.5))
    assert isinstance(rep, BoundReport)
    dist_s = enumerate_return_distribution(pair, policy, model="simplified")
    assert rep.q_simplified == pytest.approx(cvar_exact(dist_s, 0.5), abs=1e-12)
