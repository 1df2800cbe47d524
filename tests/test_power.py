"""Power tests: a delta-gate of ``concentration`` refuses an invalid certifier.

Each test offers an invalid certifier, counts its violations with the rule
``concentration`` uses (``cli._guarantee_record``: deviation > radius) and
requires the unchanged binomial gate to fail. The invalid certifiers are:

- the simplified pool's own CVaR estimate with radius 0, offered as a bound on
  the original model's CVaR, which it misses by the exact gap q_simplified - q_true;
- TightLower with its envelope zeroed (h_plus = 0, eta = 0), which leaves the
  pool's own law, at a fixed N_delta = 10**7 and the radius that count gives it;
- the epsilon, g and h estimators with the importance ratio dropped, each draw
  weighing 1, run through ``cmd_concentration`` itself.

The parameters were fixed before the first run: C = 500 rollouts of
N_x = 200 particles and delta = 0.1 (the CLI's defaults), 20 trials, and trial
t's pool seeded as a ``concentration`` trial's, ``_derived_seed(0, _SLOT_POOL, t)``,
its TightLower draw as ``_derived_seed(0, _SLOT_TIGHT, t)``.
"""

import numpy as np
import pytest

from riskgap.cli import (_SLOT_POOL, _SLOT_TIGHT, RunManifest, _derived_seed,
                         _guarantee_record, _initial_query, cmd_concentration)
from riskgap.envelopes import PointwiseEnvelope
from riskgap.estimation import (BinGrid, RolloutConfig, _certify_levels, _draw_counts,
                                _simplified_return_pool, build_default_proposal,
                                lower_cdf_distribution, n_delta_for_tight_lower)
from riskgap.risk import cvar_estimate_sorted
from riskgap.scenarios import builtin
from riskgap.value_bounds import bound_report

C, N_X, DELTA, TRIALS, SEED = 500, 200, 0.1, 20, 0


# (scenario, alpha, the side it is offered as, q_simplified - q_true by bound_report)
@pytest.mark.parametrize("scenario, alpha, side, gap", [
    ("corridor4", 0.25, "lower", 0.192),
    ("degrade_heavy", 0.1, "upper", -0.298)])
def test_simplified_cvar_with_zero_radius_fails_the_gate(scenario, alpha, side, gap):
    spec = builtin(scenario)
    query = _initial_query(spec.pair, alpha)
    exact = bound_report(spec.pair, spec.policy, query)
    # the offered bound sits past the truth on the side that violates it
    assert exact.q_simplified - exact.q_true == pytest.approx(gap, abs=5e-4)
    outcomes = []
    for t in range(TRIALS):
        pool = _simplified_return_pool(spec.pair, spec.policy, query, RolloutConfig(
            C, N_X, _derived_seed(SEED, _SLOT_POOL, t)))
        q_hat = cvar_estimate_sorted(pool, alpha)
        # a lower bound deviates by bound - truth, an upper bound by truth - bound
        deviation = q_hat - exact.q_true if side == "lower" else exact.q_true - q_hat
        outcomes.append((deviation, 0.0))
    record = _guarantee_record(f"simplified_cvar_{side}", alpha, DELTA, None, outcomes)
    assert record["evaluated"] == TRIALS
    assert not record["passed"], record


def test_tight_lower_with_its_envelope_zeroed_fails_the_gate(monkeypatch):
    # h_plus = 0 and eta = 0 leave the pool's own law, whose CVaR sits about
    # q_simplified - q_true = +0.192 above the truth, against a radius of 0.014
    spec, alpha, n_delta = builtin("corridor4"), 0.25, 10**7
    query = _initial_query(spec.pair, alpha)
    truth = bound_report(spec.pair, spec.policy, query).q_true
    q0 = build_default_proposal(spec.pair, spec.policy)
    grid = BinGrid.uniform(spec.pair, 8)
    m = spec.pair.original
    assert n_delta_for_tight_lower(0.25, DELTA, q0.importance_bound, grid.n_bins,
                                   m.horizon_T, m.start_k) == 5681
    monkeypatch.setattr("riskgap.estimation.lower_cdf_distribution",
                        lambda returns, h_plus, eta, edges, _fn=lower_cdf_distribution:
                        _fn(returns, PointwiseEnvelope.zero(), 0.0, edges))
    outcomes = []
    for t in range(TRIALS):
        pool = _simplified_return_pool(spec.pair, spec.policy, query, RolloutConfig(
            C, N_X, _derived_seed(SEED, _SLOT_POOL, t)))
        [(_, tight)] = _certify_levels(spec.pair, spec.policy, query, pool,
                                       _derived_seed(SEED, _SLOT_TIGHT, t), q0, n_delta,
                                       DELTA, [alpha], eta=0.25, grid=grid)
        assert tight.radius == pytest.approx(0.014, abs=5e-4)
        outcomes.append((tight.value - truth, tight.radius))
    record = _guarantee_record("tight_lower_zero_envelope", alpha, DELTA, n_delta, outcomes)
    assert record["evaluated"] == TRIALS
    assert not record["passed"], record


def _counts_only(q0, n_delta, rng):
    """q0's gap reduction under n_delta draws from its proposal, each draw weighing
    1 at every step: the importance ratio target / proposal is dropped."""
    counts = _draw_counts(q0.proposal_probs, n_delta, rng)
    return q0.reduce(counts[:, None] * np.ones(q0.n_steps), float(n_delta))


# (scenario, the counts-only epsilon's exact bias, computed from q0)
@pytest.mark.parametrize("scenario, bias", [
    ("corridor4", -0.292), ("two_state_sensor", -0.422), ("degrade_heavy", -2.0)])
def test_gap_estimators_without_the_importance_ratio_fail_the_gate(monkeypatch, scenario,
                                                                   bias):
    # the radii are 2v = 0.2 for epsilon and v = 0.1 for g and h, at v = 0.1
    spec = builtin(scenario)
    q0 = build_default_proposal(spec.pair, spec.policy)
    expected = q0.reduce(q0.proposal_probs[:, None] * np.ones(q0.n_steps))
    assert expected.epsilon - q0.reduce().epsilon == pytest.approx(bias, abs=5e-4)
    monkeypatch.setattr("riskgap.cli.estimate_epsilon", lambda q0, pair, policy, n, rng:
                        _counts_only(q0, n, rng).epsilon)
    monkeypatch.setattr("riskgap.cli.estimate_g", lambda q0, pair, policy, n, levels, rng:
                        _counts_only(q0, n, rng).g_at(levels))
    report = cmd_concentration(RunManifest(
        command="concentration", scenario=scenario, rollouts=C, particles=N_X, delta=DELTA,
        trials=TRIALS, seed=SEED))
    records = {r["name"]: r for r in report["records"]}
    for name in ("epsilon_within_2v", "g_pointwise", "h_envelope_uniform"):
        assert records[name]["evaluated"] == TRIALS
        assert not records[name]["passed"], records[name]
