"""Every value type stores read-only copies of the arrays and mappings it is
built from: the caller's stay writable and unchanged, and a later write to
them cannot reach a validated value."""

from collections.abc import Mapping

import numpy as np
import pytest

from riskgap.envelopes import PointwiseEnvelope
from riskgap.estimation import BinGrid, CertifiedBound, ParticleBelief, ProposalQ0
from riskgap.pomdp import (Belief, FinitePomdp, GapAtoms, Policy, SimplifiedPair,
                           TrajectoryExpectations)
from riskgap.risk import DiscreteDistribution
from riskgap.value_bounds import BoundReport

MODEL = {"transition": [[[0.9, 0.1], [0.2, 0.8]]],
         "observation": [[0.7, 0.3], [0.4, 0.6]],
         "state_cost": [[0.1], [0.4]],
         "initial_belief": [0.5, 0.5]}
ATOMS = {"beliefs": [[0.5, 0.5]], "thresholds": [[0.0]], "target_probs": [[1.0]],
         "gaps": [[0.5]]}


def _model(arrays):
    return FinitePomdp(**arrays, r_max=1.0, horizon_T=2, start_k=0)


def _atoms(kind, arrays):
    return kind(b_k=Belief(np.array([0.5, 0.5])), a_k=0, **arrays)


# (case, the caller's arrays or mappings by field name, build the value from them)
CASES = [
    ("DiscreteDistribution", {"values": [1.0, 0.0], "probs": [0.5, 0.5]},
     lambda a: DiscreteDistribution(**a)),
    ("PointwiseEnvelope", {"breakpoints": [0.0, 1.0], "values": [0.1, 0.2]},
     lambda a: PointwiseEnvelope(**a)),
    ("Belief", {"probs": [0.25, 0.75]}, lambda a: Belief(**a)),
    # a view of a longer array: writing the base must not reach the belief
    ("Belief(base[:2])", {"probs": [0.5, 0.5, 0.0]},
     lambda a: Belief(a["probs"][:2])),
    ("FinitePomdp", MODEL, _model),
    ("SimplifiedPair", {"simplified_transition": [[[0.8, 0.2], [0.3, 0.7]]],
                        "simplified_observation": [[0.6, 0.4], [0.4, 0.6]]},
     lambda a: SimplifiedPair(_model(MODEL), **a)),
    ("Policy", {"actions": [[0, 1]]}, lambda a: Policy(**a, start_k=0)),
    ("GapAtoms", ATOMS, lambda a: _atoms(GapAtoms, a)),
    ("ProposalQ0", {**ATOMS, "proposal_probs": [1.0]}, lambda a: _atoms(ProposalQ0, a)),
    ("TrajectoryExpectations", {"per_step_m": [0.1, 0.2]},
     lambda a: TrajectoryExpectations(**a, epsilon=0.3, g=PointwiseEnvelope.zero())),
    ("BinGrid", {"edges": [-1.0, 0.0, 1.0]}, lambda a: BinGrid(**a)),
    ("ParticleBelief", {"states": [0, 1], "weights": [1.0, 1.0]},
     lambda a: ParticleBelief(**a)),
    ("CertifiedBound", {"radii": {"v": 0.1}},
     lambda a: CertifiedBound(1.0, "TightLower", 0.1, 0.1, 0.25, 10, 10, **a)),
    ("BoundReport", {"case_tags": {"upper": "support_cap", "lower": "mean_anchor"}},
     lambda a: BoundReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.5, **a)),
]


def _caller(values):
    return dict(values) if isinstance(values, Mapping) else np.array(values)


def _write_first(x) -> None:
    """Write to the first entry of an array or a mapping, as a caller might."""
    if isinstance(x, np.ndarray):
        x.flat[0] += 1
    else:
        x[next(iter(x))] = 9.0


def _same(x, y) -> bool:
    return np.array_equal(x, y) if isinstance(y, np.ndarray) else dict(x) == dict(y)


@pytest.mark.parametrize("fields, build", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_value_types_keep_read_only_copies(fields, build):
    callers = {name: _caller(values) for name, values in fields.items()}
    value = build(callers)
    for name, caller in callers.items():
        stored = getattr(value, name)
        assert _same(caller, _caller(fields[name])), name
        kept = _caller(stored)
        # NumPy refuses a write to a read-only array with a ValueError, a read-only
        # mapping with a TypeError
        with pytest.raises((ValueError, TypeError)):
            _write_first(stored)
        if isinstance(caller, np.ndarray):
            assert not np.shares_memory(stored, caller), name
        _write_first(caller)  # the caller's stays writable
        assert _same(stored, kept), name
