import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskgap.envelopes import (
    InvalidEnvelopeError,
    PointwiseEnvelope,
    SupportBounds,
    _sorted_union,
    cdf_gap_envelope,
    dominated_cdf,
    lower_case_tag,
    tight_lower,
    uniform_lower,
    uniform_upper,
    upper_case_tag,
)
from riskgap.risk import DiscreteDistribution, cvar_exact

from envelope_oracles import (
    UndefinedBoundError,
    density_envelope_to_g,
    raw_quantile_lower,
    raw_quantile_upper,
)


def _random_dist(rng, max_atoms=6, spread=4.0):
    m = int(rng.integers(1, max_atoms + 1))
    return DiscreteDistribution(rng.uniform(-spread, spread, m), rng.dirichlet(np.ones(m)))


@pytest.fixture
def uniform_four():
    return DiscreteDistribution(np.arange(1.0, 5.0), np.full(4, 0.25))


# ---------------------------------------------------------------- types


def test_support_bounds_validation():
    with pytest.raises(ValueError):
        SupportBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        SupportBounds(np.inf, 0.0)
    assert SupportBounds(1.0, 1.0).sup_img == 1.0


def test_pointwise_envelope_validation():
    with pytest.raises(InvalidEnvelopeError):
        PointwiseEnvelope(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
    with pytest.raises(InvalidEnvelopeError):
        PointwiseEnvelope(np.array([0.0, 1.0]), np.array([0.2, 0.1]))
    with pytest.raises(InvalidEnvelopeError):
        PointwiseEnvelope(np.array([0.0]), np.array([-0.1]))
    env = PointwiseEnvelope(np.array([0.0, 2.0]), np.array([0.1, 0.4]))
    assert env.at([-1.0, 0.0, 1.9, 2.0, 5.0]) == pytest.approx([0.0, 0.1, 0.1, 0.4, 0.4])
    assert env.values[-1] == 0.4
    assert PointwiseEnvelope.zero().at([0.0, 3.0]) == pytest.approx([0.0, 0.0])


def test_density_envelope_accumulates():
    env = density_envelope_to_g([1.0, -1.0, 1.0], [0.2, 0.1, 0.3])
    assert env.breakpoints == pytest.approx([-1.0, 1.0])
    assert env.values == pytest.approx([0.1, 0.6])
    with pytest.raises(InvalidEnvelopeError):
        density_envelope_to_g([0.0], [-0.5])


# ---------------------------------------------------------------- uniform-gap bounds


def test_uniform_bounds_frozen_example(uniform_four):
    sb = SupportBounds(1.0, 4.0)
    assert uniform_upper(uniform_four, 0.5, 0.1, sb) == pytest.approx(3.7, abs=1e-12)
    assert uniform_lower(uniform_four, 0.5, 0.1, sb) == pytest.approx(3.1, abs=1e-12)


def test_uniform_bounds_collapse_at_zero_gap(uniform_four):
    sb = SupportBounds(1.0, 4.0)
    for a in (0.1, 0.5, 0.9):
        c = cvar_exact(uniform_four, a)
        assert uniform_upper(uniform_four, a, 0.0, sb) == pytest.approx(c, abs=1e-12)
        assert uniform_lower(uniform_four, a, 0.0, sb) == pytest.approx(c, abs=1e-12)


def test_uniform_upper_saturates(uniform_four):
    sb = SupportBounds(1.0, 4.0)
    assert uniform_upper(uniform_four, 0.5, 0.6, sb) == 4.0
    assert uniform_upper(uniform_four, 0.5, 0.5, sb) == 4.0  # boundary eps == alpha


def test_uniform_lower_mean_anchor(uniform_four):
    sb = SupportBounds(1.0, 4.0)
    # eps + alpha == 1 exactly takes the mean-anchored branch
    v = uniform_lower(uniform_four, 0.5, 0.5, sb)
    expected = (0.0 * 1.0 + 2.5 - 0.5 * cvar_exact(uniform_four, 0.5)) / 0.5
    assert v == pytest.approx(expected, abs=1e-12)
    # heavy gaps degrade gracefully to the support floor
    assert uniform_lower(uniform_four, 0.5, 1.3, sb) == pytest.approx(1.0, abs=1e-12)


def test_case_tags():
    assert upper_case_tag(0.5, 0.1) == "shifted_tail"
    assert upper_case_tag(0.5, 0.5) == "support_cap"
    assert lower_case_tag(0.5, 0.1) == "shifted_tail"
    assert lower_case_tag(0.5, 0.5) == "mean_anchor"


def test_support_mismatch_rejected(uniform_four):
    with pytest.raises(ValueError):
        uniform_upper(uniform_four, 0.5, 0.1, SupportBounds(2.0, 4.0))


# ---------------------------------------------------------------- pointwise bounds


def test_dominated_cdf_point_mass():
    pm = DiscreteDistribution(np.array([1.0]), np.array([1.0]))
    env = PointwiseEnvelope(np.array([0.0]), np.array([0.3]))
    d = dominated_cdf(pm, env)
    assert list(d.values) == [0.0, 1.0]
    assert d.probs == pytest.approx([0.3, 0.7], abs=1e-12)


def test_dominated_cdf_full_collapse(uniform_four):
    env = PointwiseEnvelope(np.array([1.0]), np.array([1.0]))
    d = dominated_cdf(uniform_four, env)
    assert list(d.values) == [1.0]
    assert d.probs == pytest.approx([1.0])


def test_tight_lower_zero_envelope(uniform_four):
    for a in (0.2, 0.5, 0.8):
        assert tight_lower(uniform_four, PointwiseEnvelope.zero(), a) == pytest.approx(
            cvar_exact(uniform_four, a), abs=1e-12
        )


def test_raw_quantile_frozen_examples():
    y01 = DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    env = PointwiseEnvelope(np.array([0.0]), np.array([0.5]))
    assert raw_quantile_lower(y01, env, 0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(UndefinedBoundError):
        raw_quantile_upper(y01, env, 0.5)


def test_raw_quantile_upper_zero_envelope(uniform_four):
    for a in (0.25, 0.5, 0.75):
        assert raw_quantile_upper(uniform_four, PointwiseEnvelope.zero(), a) == pytest.approx(
            cvar_exact(uniform_four, a), abs=1e-12
        )


def test_raw_lower_equals_tight_lower():
    rng = np.random.default_rng(17)
    for _ in range(400):
        y = _random_dist(rng)
        x = _random_dist(rng)
        env, _ = cdf_gap_envelope(x, y)
        a = float(rng.uniform(0.02, 0.98))
        assert raw_quantile_lower(y, env, a) == pytest.approx(
            tight_lower(y, env, a), abs=1e-9
        )


# ---------------------------------------------------------------- sandwich properties


def test_bounds_sandwich_true_cvar():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        x = _random_dist(rng)
        y = _random_dist(rng)
        a = float(rng.uniform(0.02, 0.98))
        env, eps = cdf_gap_envelope(x, y)
        lo = min(x.inf_support, y.inf_support)
        hi = max(x.sup_support, y.sup_support)
        sb = SupportBounds(lo, hi)
        cx = cvar_exact(x, a)
        assert uniform_lower(y, a, eps, sb) <= cx + 1e-9
        assert cx <= uniform_upper(y, a, eps, sb) + 1e-9
        tl = tight_lower(y, env, a)
        assert tl <= cx + 1e-9
        # pointwise information is never worse than the uniform collapse
        assert tl >= uniform_lower(y, a, eps, sb) - 1e-9


def test_raw_upper_defined_only_when_envelope_clears_the_top():
    # A monotone envelope that is positive anywhere at or below Y's top atom
    # keeps F_Y - g below 1 forever; the bound only exists when g stays zero
    # through the point where F_Y reaches 1.
    rng = np.random.default_rng(55)
    dominated_checked = 0
    for _ in range(300):
        y = _random_dist(rng)
        a = float(rng.uniform(0.05, 0.95))
        env = PointwiseEnvelope(
            np.array([y.sup_support + 1.0]), np.array([float(rng.uniform(0.1, 1.0))])
        )
        up = raw_quantile_upper(y, env, a)
        assert up == pytest.approx(cvar_exact(y, a), abs=1e-9)
        # any X with F_X >= F_Y - g (here: Y pushed down) sits below the bound
        x = DiscreteDistribution(y.values - rng.uniform(0.0, 2.0, y.values.size), y.probs)
        assert cvar_exact(x, a) <= up + 1e-9
        dominated_checked += 1
        env_on_support = PointwiseEnvelope(
            np.array([y.inf_support - 1.0]), np.array([0.25])
        )
        with pytest.raises(UndefinedBoundError):
            raw_quantile_upper(y, env_on_support, a)
    assert dominated_checked == 300


# small pools of values force repeats, and both signed zeros appear in any order
_union_input = st.lists(
    st.sampled_from([0.0, -0.0, 1.5, -2.0])
    | st.floats(allow_nan=False, allow_infinity=False),
    max_size=12).map(lambda values: np.array(values, dtype=float))


@settings(max_examples=300, deadline=None)
@given(a=_union_input, b=_union_input)
def test_sorted_union_equals_union1d_bit_for_bit(a, b):
    assert _sorted_union(a, b).tobytes() == np.union1d(a, b).tobytes()
