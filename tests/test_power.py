"""Power tests: a delta-gate of ``concentration`` refuses an invalid certifier.

Each test offers an invalid certifier, counts its violations with the rule
``concentration`` uses (``cli._guarantee_record``: deviation > radius) and
requires the unchanged binomial gate to fail. The invalid certifier is the
simplified pool's own CVaR estimate with radius 0, offered as a bound on the
original model's CVaR, which it misses by the exact gap q_simplified - q_true.

The parameters were fixed before the first run: C = 500 rollouts of
N_x = 200 particles and delta = 0.1 (the CLI's defaults), 20 trials, and trial
t's pool seeded as a ``concentration`` trial's, ``_derived_seed(0, _SLOT_POOL, t)``.
"""

import pytest

from riskgap.cli import _SLOT_POOL, _derived_seed, _guarantee_record, _initial_query
from riskgap.estimation import RolloutConfig, _simplified_return_pool
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
