"""The first outputs of every NumPy ``Generator`` method the package draws from,
pinned at fixed seeds as NumPy 2.4.6 gives them.

NEP 19 ("Random number generator policy") fixes a BitGenerator's stream, but
not the algorithms of the ``Generator`` methods, which a NumPy release may
change. Every seeded report depends on those algorithms: ``multinomial`` (the
importance draws of ``_draw_counts``), ``random`` (the rollout pool's
``_ROLLOUT`` fill and the ``_INIT`` particle cloud), and ``dirichlet``,
``uniform`` and ``integers`` (``random_instance`` and the tests' random
models). So a pinned report digest that moves with NumPy fails here first,
by the method's name.
"""

import numpy as np
import pytest

from riskgap.estimation import _EPS, _INIT, _ROLLOUT, _stream

_PROBS = np.array([0.1, 0.2, 0.3, 0.4])

# (method, where the package calls it, the draw, its outputs on NumPy 2.4.6)
_PINS = [
    ("multinomial", "_draw_counts, small n",
     lambda: _stream(7, _EPS).multinomial(50, _PROBS), [2, 9, 14, 25]),
    ("multinomial", "_draw_counts, N_delta-sized n",
     lambda: _stream(7, _EPS).multinomial(31_172_531, _PROBS),
     [3116865, 6231266, 9353334, 12471066]),
    ("random", "the rollout pool's _ROLLOUT fill",
     lambda: _stream(7, _ROLLOUT).random(4),
     [0.5898074907472937, 0.5065164278777952, 0.7669367642185954, 0.18657961300278902]),
    ("random", "the _INIT particle cloud",
     lambda: _stream(7, _INIT).random(4),
     [0.3921071947199256, 0.1529223166417788, 0.5096692892248912, 0.042259353031778524]),
    ("dirichlet", "random_instance and random_pair",
     lambda: np.random.default_rng(7).dirichlet(np.ones(3), size=2),
     [[0.30745014424701217, 0.4454924156641316, 0.24705744008885633],
      [0.19956610730481678, 0.04604679204904698, 0.7543871006461362]]),
    ("uniform", "random_instance and random_pair",
     lambda: np.random.default_rng(7).uniform(-1.0, 1.0, size=4),
     [0.25019093320933394, 0.794427601939151, 0.551371380490387, -0.5495856200188163]),
    ("integers", "random_instance and random_policy",
     lambda: np.random.default_rng(7).integers(0, 2, size=8), [1, 1, 1, 1, 1, 1, 1, 0]),
]


@pytest.mark.parametrize("method, where, draw, pinned", _PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in _PINS])
def test_generator_methods_draw_as_pinned(method, where, draw, pinned):
    got = draw().tolist()
    assert got == pinned, (
        f"Generator.{method} ({where}) gave {got} on NumPy {np.__version__}, where "
        f"NumPy 2.4.6 gave {pinned}: NEP 19 fixes the bit stream, not the algorithm of "
        f"a Generator method, so every report digest that depends on {method} moves too")
