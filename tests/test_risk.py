import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskgap import risk
from riskgap.cli import binomial_pass_threshold
from riskgap.envelopes import (PointwiseEnvelope, SupportBounds, lower_case_tag, tight_lower,
                               uniform_lower, uniform_upper, upper_case_tag)
from riskgap.estimation import (BinGrid, ParticleBelief, ProposalQ0, RolloutConfig,
                                _certified_n_delta, binned_h, build_default_proposal,
                                estimate_epsilon, lower_cdf_distribution, n_delta_for_epsilon,
                                n_delta_for_g, n_delta_for_h, n_delta_for_tight_lower,
                                n_delta_for_uniform_bounds)
from riskgap.pomdp import (Belief, FinitePomdp, GapAtoms, Policy, SimplifiedPair,
                           enumerate_return_distribution)
from riskgap.risk import (
    DeviationRadii,
    DiscreteDistribution,
    DistributionError,
    _fold,
    _level,
    cvar_estimate_inf,
    cvar_estimate_sorted,
    cvar_exact,
    deviation_radii,
)
from riskgap.scenarios import builtin, random_instance
from riskgap.value_bounds import ValueQuery

from trajectory_oracle import sum_left_to_right


def var_exact(dist, alpha):
    """Value-at-risk: largest atom whose CDF value does not exceed 1 - alpha.

    When even the smallest atom overshoots (e.g. a point mass), that
    smallest atom is returned.
    """
    a = _level(alpha, "alpha")
    ok = np.nonzero(dist.cdf() <= 1.0 - a)[0]
    if ok.size == 0:
        return float(dist.values[0])
    return float(dist.values[ok[-1]])


def _random_dist(rng, max_atoms=8, spread=5.0):
    m = int(rng.integers(1, max_atoms + 1))
    vals = rng.uniform(-spread, spread, size=m)
    probs = rng.dirichlet(np.ones(m))
    return DiscreteDistribution(vals, probs)


def _cvar_scan(dist, alpha):
    # Independent oracle: variational form minimised by brute scan over atoms.
    best = np.inf
    for w in dist.values:
        best = min(
            best,
            w + float(np.dot(dist.probs, np.maximum(dist.values - w, 0.0))) / alpha,
        )
    return best


# ---------------------------------------------------------------- scalar rules

_DIST = DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
_SUPPORT = SupportBounds(0.0, 1.0)
_SENSOR = builtin("two_state_sensor")
_Q0 = build_default_proposal(_SENSOR.pair, _SENSOR.policy)
_GRID = BinGrid.uniform(_SENSOR.pair, 4)


def _model(r_max=1.0, horizon_T=3, start_k=0):
    return FinitePomdp(np.ones((1, 1, 1)), np.ones((1, 1)), np.zeros((1, 1)), r_max,
                       np.ones(1), horizon_T, start_k)


_ONE_STATE = SimplifiedPair.identical(_model())  # a walk of one node per step
_ONE_STATE_POLICY = Policy(np.zeros((4, 1)), 0)


# (parameter, entry point): a call passing its one argument there, the rest valid
_RULE_ENTRIES = {
    ("alpha", "cvar_exact"): lambda a: cvar_exact(_DIST, a),
    ("alpha", "cvar_estimate_sorted"): lambda a: cvar_estimate_sorted([0.0, 1.0], a),
    ("alpha", "cvar_estimate_inf"): lambda a: cvar_estimate_inf([0.0, 1.0], a),
    ("alpha", "deviation_radii"): lambda a: deviation_radii(10, a, 0.1, 1.0),
    ("alpha", "uniform_lower"): lambda a: uniform_lower(_DIST, a, 0.1, _SUPPORT),
    ("alpha", "uniform_upper"): lambda a: uniform_upper(_DIST, a, 0.1, _SUPPORT),
    ("alpha", "tight_lower"): lambda a: tight_lower(_DIST, PointwiseEnvelope.zero(), a),
    ("alpha", "upper_case_tag"): lambda a: upper_case_tag(a, 0.1),
    ("alpha", "lower_case_tag"): lambda a: lower_case_tag(a, 0.1),
    ("alpha", "ValueQuery"): lambda a: ValueQuery(Belief([1.0]), a).alpha,
    ("eps", "uniform_lower"): lambda e: uniform_lower(_DIST, 0.25, e, _SUPPORT),
    ("eps", "uniform_upper"): lambda e: uniform_upper(_DIST, 0.25, e, _SUPPORT),
    ("eps", "upper_case_tag"): lambda e: upper_case_tag(0.25, e),
    ("eps", "lower_case_tag"): lambda e: lower_case_tag(0.25, e),
    ("delta", "deviation_radii"): lambda d: deviation_radii(10, 0.25, d, 1.0),
    ("delta", "n_delta_for_epsilon"): lambda d: n_delta_for_epsilon(0.1, d, 1.0, 3, 0),
    ("delta", "n_delta_for_g"): lambda d: n_delta_for_g(0.1, d, 1.0, 3, 0),
    ("delta", "n_delta_for_h"): lambda d: n_delta_for_h(0.1, d, 1.0, 4, 3, 0),
    ("delta", "n_delta_for_uniform_bounds"):
        lambda d: n_delta_for_uniform_bounds(0.1, d, 1.0, 3, 0),
    ("delta", "n_delta_for_tight_lower"):
        lambda d: n_delta_for_tight_lower(0.1, d, 1.0, 4, 3, 0),
    ("p", "binomial_pass_threshold"): lambda p: binomial_pass_threshold(10, p),
    ("v", "n_delta_for_epsilon"): lambda v: n_delta_for_epsilon(v, 0.1, 1.0, 3, 0),
    ("v", "n_delta_for_g"): lambda v: n_delta_for_g(v, 0.1, 1.0, 3, 0),
    ("v", "n_delta_for_h"): lambda v: n_delta_for_h(v, 0.1, 1.0, 4, 3, 0),
    ("v", "n_delta_for_uniform_bounds"): lambda v: n_delta_for_uniform_bounds(v, 0.1, 1.0, 3, 0),
    ("eta", "n_delta_for_tight_lower"): lambda e: n_delta_for_tight_lower(e, 0.1, 1.0, 4, 3, 0),
    ("eta", "_certified_n_delta"):
        lambda e: _certified_n_delta(_SENSOR.pair, _Q0, None, 0.1, eta=e, grid=_GRID),
    ("eta", "lower_cdf_distribution"): lambda e: lower_cdf_distribution(
        [0.0, 1.0], PointwiseEnvelope.zero(), e, [-1.0, 2.0]).probs.tolist(),
    ("B", "n_delta_for_epsilon"): lambda b: n_delta_for_epsilon(0.1, 0.1, b, 3, 0),
    ("B", "n_delta_for_g"): lambda b: n_delta_for_g(0.1, 0.1, b, 3, 0),
    ("B", "n_delta_for_h"): lambda b: n_delta_for_h(0.1, 0.1, b, 4, 3, 0),
    ("B", "n_delta_for_uniform_bounds"): lambda b: n_delta_for_uniform_bounds(0.1, 0.1, b, 3, 0),
    ("B", "n_delta_for_tight_lower"): lambda b: n_delta_for_tight_lower(0.1, 0.1, b, 4, 3, 0),
    ("r_max", "FinitePomdp"): lambda r: _model(r_max=r).r_max,
    ("value_range", "deviation_radii"): lambda w: deviation_radii(10, 0.25, 0.1, w),
    ("inf_img", "SupportBounds"): lambda x: SupportBounds(x, 10.0),
    ("sup_img", "SupportBounds"): lambda x: SupportBounds(0.0, x),
    ("perturbation", "random_instance"):
        lambda p: random_instance(0, perturbation=p).pair.simplified_transition.tolist(),
    # counts, each with its least value in _COUNT_LEAST
    ("n", "deviation_radii"): lambda n: deviation_radii(n, 0.25, 0.1, 1.0),
    ("n", "binomial_pass_threshold"): lambda n: binomial_pass_threshold(n, 0.1),
    ("num_rollouts_C", "RolloutConfig"): lambda n: RolloutConfig(n, 2, 0),
    ("num_particles_Nx", "RolloutConfig"): lambda n: RolloutConfig(2, n, 0),
    ("rng_seed", "RolloutConfig"): lambda n: RolloutConfig(2, 2, n),
    ("n_particles", "ParticleBelief.from_belief"): lambda n: ParticleBelief.from_belief(
        Belief([0.5, 0.5]), n, np.random.default_rng(0)).states.tolist(),
    ("n_bins", "BinGrid.uniform"): lambda n: BinGrid.uniform(_SENSOR.pair, n).edges.tolist(),
    ("n_bins", "n_delta_for_h"): lambda n: n_delta_for_h(0.1, 0.1, 1.0, n, 3, 0),
    ("n_bins", "n_delta_for_tight_lower"):
        lambda n: n_delta_for_tight_lower(0.1, 0.1, 1.0, n, 3, 0),
    ("n_delta", "estimate_epsilon"): lambda n: estimate_epsilon(
        _Q0, _SENSOR.pair, _SENSOR.policy, n, np.random.default_rng(0)),
    ("start_k", "FinitePomdp"): lambda k: _model(horizon_T=5, start_k=k).start_k,
    ("horizon_T", "FinitePomdp"): lambda t: _model(horizon_T=t, start_k=2).horizon_T,
    ("leaf_budget", "enumerate_return_distribution"): lambda n: enumerate_return_distribution(
        _ONE_STATE, _ONE_STATE_POLICY, leaf_budget=n).values.tolist(),
    ("leaf_budget", "build_default_proposal"): lambda n: build_default_proposal(
        _ONE_STATE, _ONE_STATE_POLICY, leaf_budget=n).proposal_probs.tolist(),
}
_COUNT_LEAST = {("n", "deviation_radii"): 1, ("n", "binomial_pass_threshold"): 0,
                ("num_rollouts_C", "RolloutConfig"): 1, ("num_particles_Nx", "RolloutConfig"): 1,
                ("rng_seed", "RolloutConfig"): 0, ("n_particles", "ParticleBelief.from_belief"): 1,
                ("n_bins", "BinGrid.uniform"): 1, ("n_bins", "n_delta_for_h"): 1,
                ("n_bins", "n_delta_for_tight_lower"): 1, ("n_delta", "estimate_epsilon"): 1,
                ("start_k", "FinitePomdp"): 0, ("horizon_T", "FinitePomdp"): 2,
                ("leaf_budget", "enumerate_return_distribution"): 1,
                ("leaf_budget", "build_default_proposal"): 1}
_LEVEL_REJECTED = (0.0, 1.0, -0.1, 1.5, np.nan)
_POSITIVE = ((0.0, -0.1, np.nan, np.inf), (0.25, 3, 1e150))
# per finite real: (values out of its range, values it takes)
_REAL_RANGES = {
    "eps": ((-0.1, np.nan, np.inf), (0.0, 0.25, 1.5)),  # a gap above 1 is vacuous but legal
    "v": _POSITIVE,
    "eta": _POSITIVE,
    "r_max": ((0.0, -1.0, np.nan, np.inf), (0.25, 2)),
    "B": ((0.5, -1.0, np.nan, np.inf), (1.0, 2.5)),
    "value_range": ((-0.1, np.nan, np.inf), (0.0, 1.5)),
    "inf_img": ((np.nan, np.inf, -np.inf), (-3.0, 0.0, 10.0)),
    "sup_img": ((-1.0, np.nan, np.inf), (0.0, 2.5)),
    "perturbation": ((-0.1, 1.5, np.nan, np.inf), (0.0, 0.2, 1.0)),
    # a dominated law's slack may be 0: it is then the empirical law itself
    ("eta", "lower_cdf_distribution"): ((-0.5, np.nan, np.inf), (0.0, 0.1, 3)),
}
# the type column: numbers only, as the integer rule takes them, so numeric text,
# booleans (True would run as a gap of 1) and None are refused at every level and real
_TYPE_REJECTED = ("0.25", b"0.25", True, np.True_, None)
# a count is refused, naming it, by the integer rule before its least value is read
_COUNT_REJECTED = ((True, "bool entries"), ("0.1", "<U3 entries"), (np.nan, "nan"),
                   (np.inf, "inf"), (None, "object entries"))
# an int past the float range reads as the infinity of its sign, which no level or real takes
_PAST_FLOAT = ((10**400, "inf"), (-10**400, "-inf"))


@pytest.mark.parametrize("param, entry", list(_RULE_ENTRIES),
                         ids=[f"{p}-{e}" for p, e in _RULE_ENTRIES])
def test_level_and_gap_rules(param, entry):
    call = _RULE_ENTRIES[param, entry]
    if (param, entry) in _COUNT_LEAST:
        least = _COUNT_LEAST[param, entry]
        for bad, got in _COUNT_REJECTED:
            with pytest.raises(ValueError, match=rf"^{param} must be integral, got {got}$"):
                call(bad)
        with pytest.raises(ValueError, match=rf"^{param} must be >= {least}, got {least - 1}$"):
            call(least - 1)
        # past the float range, where the radii and the binomial gate would overflow
        with pytest.raises(ValueError, match=rf"^{param} must lie in the float range, "
                                             rf"got a 1329-bit int$"):
            call(10**400)
        n = least + 3  # a NumPy or float integer counts as the int it holds
        assert call(np.int64(n)) == call(float(n)) == call(n)
        return
    rejected, accepted = _REAL_RANGES.get(
        (param, entry), _REAL_RANGES.get(param, (_LEVEL_REJECTED, (0.25,))))
    for bad, got in (*((bad, float(bad)) for bad in rejected), *_PAST_FLOAT):
        with pytest.raises(ValueError, match=rf"^{param} must .*, got {got}$"):
            call(bad)
    for bad in _TYPE_REJECTED:
        says = rf"^{param} must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=says):
            call(bad)
    for good in accepted:  # a NumPy float goes the way of the float it holds
        assert call(np.float64(good)) == call(good)


@pytest.mark.parametrize("formula", [
    lambda t: n_delta_for_epsilon(0.1, 0.1, 1.0, t, 0),
    lambda t: n_delta_for_g(0.1, 0.1, 1.0, t, 0),
    lambda t: n_delta_for_h(0.1, 0.1, 1.0, 4, t, 0),
    lambda t: n_delta_for_uniform_bounds(0.1, 0.1, 1.0, t - 1, 0),
    lambda t: n_delta_for_tight_lower(0.25, 0.1, 1.0, 4, t, 0)])
def test_horizon_gap_rule(formula):
    # the horizon gap is T - 1 - k (T - k for the uniform bounds), a count >= 1
    for t, gap in ((1, 0), (0, -1)):
        with pytest.raises(ValueError, match=rf"^horizon gap must be >= 1, got {gap}$"):
            formula(t)
    assert formula(2) >= 1


# ---------------------------------------------------------------- array rule

_EYE = [[1, 0], [0, 1]]  # integral tables, so that ints and floats read alike
_B = Belief([0.5, 0.5])


def _pomdp(**arrays):
    tensors = dict(transition=[_EYE], observation=_EYE, state_cost=[[0], [1]],
                   initial_belief=[1, 0])
    return FinitePomdp(**{**tensors, **arrays}, r_max=1.0, horizon_T=2, start_k=0)


def _atoms(kind=GapAtoms, **arrays):
    fields = dict(beliefs=[[1, 0]], thresholds=[[0]], target_probs=[[1]], gaps=[[1]])
    return kind(b_k=_B, a_k=0, **{**fields, **arrays})


# every outside numeric array, by (parameter, entry point): a valid integral value and
# a call on it that returns plain data; each stored array field, then each function
# that reads an outside array, then the evaluation points, which may be infinite
_ARRAY_ENTRIES = {
    ("belief", "Belief"): ([1, 0], lambda p: Belief(p).probs.tolist()),
    ("transition", "FinitePomdp"): ([_EYE], lambda t: _pomdp(transition=t).transition.tolist()),
    ("observation", "FinitePomdp"): (_EYE, lambda o: _pomdp(observation=o).observation.tolist()),
    ("state_cost", "FinitePomdp"): ([[0], [1]], lambda c: _pomdp(state_cost=c).state_cost.tolist()),
    ("initial_belief", "FinitePomdp"):
        ([0, 1], lambda b: _pomdp(initial_belief=b).initial_belief.tolist()),
    ("simplified_transition", "SimplifiedPair"):
        ([_EYE], lambda t: SimplifiedPair(_pomdp(), t, _EYE).simplified_transition.tolist()),
    ("simplified_observation", "SimplifiedPair"):
        (_EYE, lambda o: SimplifiedPair(_pomdp(), [_EYE], o).simplified_observation.tolist()),
    ("beliefs", "GapAtoms"): ([[0, 1]], lambda b: _atoms(beliefs=b).beliefs.tolist()),
    ("thresholds", "GapAtoms"): ([[2]], lambda t: _atoms(thresholds=t).thresholds.tolist()),
    ("target_probs", "GapAtoms"): ([[1]], lambda p: _atoms(target_probs=p).target_probs.tolist()),
    ("gaps", "GapAtoms"): ([[1]], lambda g: _atoms(gaps=g).gaps.tolist()),
    ("proposal_probs", "ProposalQ0"):
        ([1], lambda q: _atoms(ProposalQ0, proposal_probs=q).proposal_probs.tolist()),
    ("values", "DiscreteDistribution"):
        ([1, 0], lambda v: DiscreteDistribution(v, [0.5, 0.5]).values.tolist()),
    ("probs", "DiscreteDistribution"):
        ([0, 1], lambda p: DiscreteDistribution([0.0, 1.0], p).probs.tolist()),
    ("breakpoints", "PointwiseEnvelope"):
        ([0, 1], lambda x: PointwiseEnvelope(x, [0.25, 0.5]).breakpoints.tolist()),
    ("values", "PointwiseEnvelope"):
        ([0, 1], lambda v: PointwiseEnvelope([0.0, 1.0], v).values.tolist()),
    ("edges", "BinGrid"): ([0, 1], lambda e: BinGrid(e).edges.tolist()),
    ("weights", "ParticleBelief"): ([1, 0], lambda w: ParticleBelief([0, 1], w).weights.tolist()),
    ("g_on_edges", "binned_h"):
        ([0, 1], lambda g: [h.values.tolist() for h in binned_h(g, BinGrid([0.0, 1.0]))]),
    ("returns", "lower_cdf_distribution"): ([1, 0], lambda r: lower_cdf_distribution(
        r, PointwiseEnvelope.zero(), 0.0, [-1.0, 2.0]).values.tolist()),
    ("sample", "cvar_estimate_sorted"): ([1, 0], lambda x: cvar_estimate_sorted(x, 0.5)),
    ("sample", "cvar_estimate_inf"): ([1, 0], lambda x: cvar_estimate_inf(x, 0.5)),
    ("x", "DiscreteDistribution.cdf_at"): ([1, 0], lambda x: _DIST.cdf_at(x).tolist()),
    ("x", "PointwiseEnvelope.at"):
        ([1, 0], lambda x: PointwiseEnvelope([0.0], [0.5]).at(x).tolist()),
    ("l", "TrajectoryExpectations.g_at"): ([1, 0], lambda x: _Q0.reduce().g_at(x).tolist()),
}
_POINTS = {"x", "l"}


def _with_first(value, entry):
    """``value``, nested lists, with its first number replaced by ``entry``."""
    return [_with_first(value[0], entry), *value[1:]] if isinstance(value, list) else entry


def _as_floats(value):
    return [_as_floats(v) for v in value] if isinstance(value, list) else float(value)


@pytest.mark.parametrize("param, entry", list(_ARRAY_ENTRIES),
                         ids=[f"{p}-{e}" for p, e in _ARRAY_ENTRIES])
def test_array_rule(param, entry):
    valid, call = _ARRAY_ENTRIES[param, entry]
    # numbers only: numeric text, a bool (NumPy would read True as 1) and None are
    # refused by name, as is a ragged row, where NumPy's message names nothing
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError, match=f"^{param} must be numeric, got .* entries$"):
            call(_with_first(valid, bad))
    with pytest.raises(ValueError, match=f"^{param} must be a rectangular array, got ragged"):
        call([valid[0], valid])  # its first row beside the whole
    # ints, floats and a NumPy array of either read alike
    floats = _as_floats(valid)
    assert call(valid) == call(floats) == call(np.array(valid)) == call(np.array(floats))
    if param in _POINTS:  # a CDF or envelope is defined at +-inf, but not at NaN
        assert call(_with_first(valid, -np.inf)) != call(_with_first(valid, np.inf))
        for big, inf in _PAST_FLOAT:  # an int past the float range is its sign's infinity
            assert call(_with_first(valid, big)) == call(_with_first(valid, float(inf)))
        with pytest.raises(ValueError, match=f"^{param} must not be NaN$"):
            call(_with_first(valid, np.nan))
        return
    for bad in (np.nan, np.inf, -np.inf, 10**400):
        with pytest.raises(ValueError, match=f"^{param} must be finite, got "):
            call(_with_first(valid, bad))


def test_walks_build_beliefs_without_the_per_entry_scan(monkeypatch):
    # the walks build a Belief per node from a fresh float array: the rule's fast path
    # takes each, so the scan of each entry, meant for lists and text, never runs there
    scans = []
    scan = risk._numbers_only
    monkeypatch.setattr(risk, "_numbers_only", lambda entries: scans.append(1) or scan(entries))
    spec = random_instance(5, horizon_gap=5)
    assert Belief([0.5, 0.5]) and len(scans) == 1  # the count sees a scan where one runs
    scans.clear()
    law = enumerate_return_distribution(spec.pair, spec.policy)
    q0 = build_default_proposal(spec.pair, spec.policy)
    assert law.values.size > 1 and len(q0.beliefs) > 1 and len(scans) == 0


# ---------------------------------------------------------------- summation rule


@pytest.mark.parametrize("length", [3, 8, 9, 12, 600])
def test_fold_adds_in_index_order_in_every_layout(length):
    rng = np.random.default_rng(length)
    # magnitudes over 16 decades, so that another order of the adds moves the bits
    base = rng.standard_normal((length, 40)) * 10.0 ** rng.uniform(-8, 8, (length, 40))
    layouts = {"C": np.ascontiguousarray(base), "F": np.asfortranarray(base),
               "reversed": np.ascontiguousarray(base[::-1, ::-1])[::-1, ::-1]}
    first = sum_left_to_right(base[:, 0])
    for name, terms in layouts.items():
        assert np.array_equal(_fold(terms), sum_left_to_right(base)), name
        # a strided or contiguous column, and an (n, 1) block, where NumPy's sum goes pairwise
        assert _fold(terms[:, 0]) == first and _fold(terms[:, :1]).tolist() == [first], name
    if length > 8:  # the check has power: NumPy's own sum of a contiguous column differs
        assert any(base[:, j].copy().sum() != sum_left_to_right(base[:, j]) for j in range(40))


# ---------------------------------------------------------------- types


def test_distribution_canonical_form():
    d = DiscreteDistribution(np.array([3.0, 1.0, 1.0 + 1e-13, 2.0]),
                             np.array([0.25, 0.25, 0.25, 0.25]))
    assert list(d.values) == [1.0, 2.0, 3.0]
    assert np.allclose(d.probs, [0.5, 0.25, 0.25])
    assert d.inf_support == 1.0 and d.sup_support == 3.0


def test_distribution_drops_zero_mass_atoms():
    d = DiscreteDistribution(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.5]))
    assert list(d.values) == [1.0, 3.0]


def test_distribution_rejects_bad_probs():
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([1.0, 2.0]), np.array([0.6, 0.6]))
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([1.0, 2.0]), np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([np.nan]), np.array([1.0]))


# ---------------------------------------------------------------- exact cvar / var


def test_cvar_exact_uniform_four_points():
    d = DiscreteDistribution(np.arange(1.0, 5.0), np.full(4, 0.25))
    assert cvar_exact(d, 0.5) == pytest.approx(3.5, abs=1e-12)


def test_var_exact_uniform_four_points():
    d = DiscreteDistribution(np.arange(1.0, 5.0), np.full(4, 0.25))
    assert var_exact(d, 0.5) == 2.0
    assert var_exact(d, 0.25) == 3.0


def test_point_mass_every_level():
    d = DiscreteDistribution(np.array([-2.5]), np.array([1.0]))
    for a in (0.01, 0.3, 0.99):
        assert cvar_exact(d, a) == -2.5
        assert var_exact(d, a) == -2.5


def test_cvar_limits():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = _random_dist(rng)
        assert cvar_exact(d, 1.0 - 1e-12) == pytest.approx(d.mean(), abs=1e-9)
        # tiny alpha isolates the largest atom
        assert cvar_exact(d, 1e-13) == pytest.approx(d.sup_support, abs=1e-9)


def test_cvar_exact_matches_variational_scan():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d = _random_dist(rng)
        a = float(rng.uniform(0.01, 0.99))
        assert cvar_exact(d, a) == pytest.approx(_cvar_scan(d, a), abs=1e-9)


def test_var_never_exceeds_cvar():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = _random_dist(rng)
        a = float(rng.uniform(0.01, 0.99))
        assert var_exact(d, a) <= cvar_exact(d, a) + 1e-9


def test_cvar_monotone_in_alpha():
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = _random_dist(rng)
        a1, a2 = sorted(rng.uniform(0.01, 0.99, size=2))
        if a1 == a2:
            continue
        assert cvar_exact(d, a1) >= cvar_exact(d, a2) - 1e-9


# ---------------------------------------------------------------- coherence axioms


def test_translation_equivariance():
    rng = np.random.default_rng(21)
    for _ in range(300):
        d = _random_dist(rng)
        c = float(rng.uniform(-10, 10))
        a = float(rng.uniform(0.01, 0.99))
        shifted = DiscreteDistribution(d.values + c, d.probs)
        assert cvar_exact(shifted, a) == pytest.approx(cvar_exact(d, a) + c, abs=1e-9)


def test_positive_homogeneity():
    rng = np.random.default_rng(22)
    for _ in range(300):
        d = _random_dist(rng)
        lam = float(rng.uniform(0.01, 10.0))
        a = float(rng.uniform(0.01, 0.99))
        scaled = DiscreteDistribution(d.values * lam, d.probs)
        assert cvar_exact(scaled, a) == pytest.approx(lam * cvar_exact(d, a), abs=1e-9)


def test_monotonicity_under_pointwise_increase():
    rng = np.random.default_rng(23)
    for _ in range(300):
        d = _random_dist(rng)
        bump = rng.uniform(0.0, 3.0, size=d.values.size)
        worse = DiscreteDistribution(d.values + bump, d.probs)
        a = float(rng.uniform(0.01, 0.99))
        assert cvar_exact(worse, a) >= cvar_exact(d, a) - 1e-9


def test_convexity_for_independent_combination():
    # rho(lam*X + (1-lam)*Y) <= lam*rho(X) + (1-lam)*rho(Y), X and Y independent.
    rng = np.random.default_rng(24)
    for _ in range(300):
        dx = _random_dist(rng, max_atoms=5)
        dy = _random_dist(rng, max_atoms=5)
        lam = float(rng.uniform(0.0, 1.0))
        a = float(rng.uniform(0.01, 0.99))
        vals = (lam * dx.values[:, None] + (1.0 - lam) * dy.values[None, :]).ravel()
        probs = (dx.probs[:, None] * dy.probs[None, :]).ravel()
        combined = DiscreteDistribution(vals, probs)
        bound = lam * cvar_exact(dx, a) + (1.0 - lam) * cvar_exact(dy, a)
        assert cvar_exact(combined, a) <= bound + 1e-9


# ---------------------------------------------------------------- estimators


def test_sorted_estimator_frozen_examples():
    assert cvar_estimate_sorted([1, 2, 3, 4], 0.5) == pytest.approx(3.5, abs=1e-12)
    assert cvar_estimate_inf([1, 2, 3, 4], 0.5) == pytest.approx(3.5, abs=1e-12)
    assert cvar_estimate_sorted([0, 10], 0.5) == pytest.approx(10.0, abs=1e-12)
    assert cvar_estimate_sorted([7.0], 0.3) == 7.0
    assert cvar_estimate_sorted([2.0, 2.0, 2.0], 0.6) == pytest.approx(2.0, abs=1e-12)


def test_estimators_agree_and_match_empirical_cvar():
    rng = np.random.default_rng(42)
    for _ in range(1500):
        n = int(rng.integers(1, 60))
        x = rng.uniform(-1e3, 1e3, size=n)
        a = float(rng.uniform(0.01, 0.99))
        s = cvar_estimate_sorted(x, a)
        assert s == pytest.approx(cvar_estimate_inf(x, a), abs=1e-9)
        emp = DiscreteDistribution(x, np.full(n, 1.0 / n))
        assert s == pytest.approx(cvar_exact(emp, a), abs=1e-9)


@given(
    xs=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    alpha=st.floats(min_value=0.02, max_value=0.98),
    shift=st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_sorted_estimator_translation_equivariance(xs, alpha, shift):
    x = np.asarray(xs, dtype=float)
    base = cvar_estimate_sorted(x, alpha)
    moved = cvar_estimate_sorted(x + shift, alpha)
    assert moved == pytest.approx(base + shift, abs=1e-8)


@given(
    xs=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    alpha=st.floats(min_value=0.02, max_value=0.98),
)
@settings(max_examples=300, deadline=None)
def test_dual_forms_agree(xs, alpha):
    x = np.asarray(xs, dtype=float)
    assert cvar_estimate_sorted(x, alpha) == pytest.approx(
        cvar_estimate_inf(x, alpha), abs=1e-8
    )


def test_estimator_monotone_in_alpha():
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = rng.normal(size=int(rng.integers(2, 50)))
        a1, a2 = np.sort(rng.uniform(0.02, 0.98, size=2))
        if a1 == a2:
            continue
        assert cvar_estimate_sorted(x, a1) >= cvar_estimate_sorted(x, a2) - 1e-9


# ---------------------------------------------------------------- deviation radii


def test_radii_frozen_example():
    r = deviation_radii(1000, 0.1, 0.05, 1.0)
    assert r.upper == pytest.approx(0.45245687983619504, abs=1e-12)
    assert r.lower == pytest.approx(0.38702275602049496, abs=1e-12)


def test_radii_scaling():
    r1 = deviation_radii(100, 0.2, 0.1, 1.0)
    r2 = deviation_radii(400, 0.2, 0.1, 1.0)
    assert r2.upper == pytest.approx(r1.upper / 2.0, rel=1e-12)
    assert r2.lower == pytest.approx(r1.lower / 2.0, rel=1e-12)
    wide = deviation_radii(100, 0.2, 0.1, 3.0)
    assert wide.upper == pytest.approx(3.0 * r1.upper, rel=1e-12)
    tighter_delta = deviation_radii(100, 0.2, 0.01, 1.0)
    assert tighter_delta.upper > r1.upper


def test_radii_validation():
    with pytest.raises(ValueError):
        deviation_radii(0, 0.1, 0.05, 1.0)
    with pytest.raises(ValueError):
        deviation_radii(10, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        deviation_radii(10, 0.1, 0.05, -1.0)
    assert isinstance(deviation_radii(10, 0.1, 0.05, 0.0), DeviationRadii)
