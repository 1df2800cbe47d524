"""Every value type stores read-only copies of the arrays it is built from:
the caller's arrays stay writable and unchanged, and a later write to them
cannot reach a validated value."""

import numpy as np
import pytest

from riskgap.envelopes import PointwiseEnvelope
from riskgap.estimation import BinGrid, ParticleBelief, ProposalQ0
from riskgap.pomdp import Belief, FinitePomdp, GapAtoms, Policy, SimplifiedPair
from riskgap.risk import DiscreteDistribution

MODEL = {"transition": [[[0.9, 0.1], [0.2, 0.8]]],
         "observation": [[0.7, 0.3], [0.4, 0.6]],
         "state_cost": [[0.1], [0.4]],
         "initial_belief": [0.5, 0.5]}
ATOMS = {"thresholds": [[0.0]], "target_probs": [[1.0]], "gaps": [[0.5]]}


def _model(arrays):
    return FinitePomdp(**arrays, r_max=1.0, horizon_T=2, start_k=0)


def _atoms(kind, arrays):
    b = Belief(np.array([0.5, 0.5]))
    return kind(beliefs=(b,), b_k=b, a_k=0, **arrays)


# (case, the caller's arrays by field name, build the value from them)
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
    ("BinGrid", {"edges": [-1.0, 0.0, 1.0]}, lambda a: BinGrid(**a)),
    ("ParticleBelief", {"states": [0, 1], "weights": [1.0, 1.0]},
     lambda a: ParticleBelief(**a)),
]


@pytest.mark.parametrize("fields, build", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_value_types_keep_read_only_copies(fields, build):
    callers = {name: np.array(values) for name, values in fields.items()}
    value = build(callers)
    for name, caller in callers.items():
        stored = getattr(value, name)
        assert caller.flags.writeable, name
        assert np.array_equal(caller, np.array(fields[name])), name
        assert not stored.flags.writeable, name
        assert not np.shares_memory(stored, caller), name
        kept = stored.copy()
        caller.flat[0] += 1
        assert np.array_equal(stored, kept), name
