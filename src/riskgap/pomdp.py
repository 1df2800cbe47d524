"""Finite tabular POMDPs paired with a simplified variant.

A model pair shares states, actions, observations, costs, horizon and
initial belief; only the transition/observation tensors differ.  Both
induce a belief-MDP whose transition kernel has one atom per observation,
so everything here — belief updates, successor-law TV distance, and the
full return distribution under a policy — is computed exactly by finite
enumeration.  These exact quantities are the ground truth the bound and
estimator modules are validated against.

One forward walk over merged (belief, return) nodes gives every exact
quantity, in three runs per query: the original and simplified return laws
(each a step-T frontier) and, from the simplified interior frontiers, the
``GapAtoms`` table of (belief, prefix) atoms with exact step probabilities and
TV gaps, which the estimators' proposal extends.  The simplified law and the
atoms stay two walks: the law's returns include the step-k cost and the
prefixes do not, so one shared walk's rounded keys would merge some nodes
differently (6 of 40 random instances at horizon gap 8) and move exact
TightLower bits; and a law that takes its step-k transition from the
original model shares no walk with the atoms.  The table's one reduction
gives the gaps: exactly weighed for the exact oracle, by sampling for the
importance estimators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .envelopes import PointwiseEnvelope
from .risk import (
    _KEY_DECIMALS,
    ATOM_MATCH_TOL,
    PROB_FLOOR,
    DiscreteDistribution,
    _check_rows,
    _count,
    _finite_1d,
    _fold,
    _integer_array,
    _integral_int,
    _read_only,
    _real,
    _sort_and_merge,
    _step_at,
)

DEFAULT_LEAF_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An exact belief-MDP walk would expand more nodes than allowed."""


@dataclass(frozen=True)
class Belief:
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = _finite_1d(self.probs, "belief")
        _check_rows(p, "belief")
        object.__setattr__(self, "probs", p)


def _check_belief(b, n_states: int | None = None) -> None:
    """The one belief-fit rule: a Belief, of ``n_states`` entries if given, else a ValueError."""
    if not isinstance(b, Belief):
        raise ValueError(f"belief must be a Belief, got {type(b).__name__}")
    if n_states is not None and b.probs.size != n_states:
        raise ValueError(f"belief must have {n_states} entries, got {b.probs.size}")


@dataclass(frozen=True)
class FinitePomdp:
    """Tabular POMDP: transition[a][x][x'], observation[x][z], state_cost[x][a]."""

    transition: np.ndarray
    observation: np.ndarray
    state_cost: np.ndarray
    r_max: float
    initial_belief: np.ndarray
    horizon_T: int
    start_k: int

    def __post_init__(self) -> None:
        for name in ("transition", "observation", "state_cost", "initial_belief"):
            object.__setattr__(self, name, _read_only(getattr(self, name), name))
        # start_k == horizon_T is the degenerate single-decision episode;
        # ops that require k < T check it themselves
        object.__setattr__(self, "start_k", _count(self.start_k, "start_k", 0))
        object.__setattr__(self, "horizon_T", _count(self.horizon_T, "horizon_T", self.start_k))
        object.__setattr__(self, "r_max", _real(self.r_max, "r_max", 0, strict=True))
        if not np.isfinite(2.0 * self.r_max * (self.horizon_T - self.start_k + 1)):
            raise ValueError(f"'r_max' {self.r_max} is too large: the return range "
                             "2 * r_max * (horizon_T - start_k + 1) must be finite")
        t, o, c = self.transition, self.observation, self.state_cost
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"transition must have shape (A, X, X), got {t.shape}")
        n_actions, n_states = t.shape[0], t.shape[1]
        if o.ndim != 2 or o.shape[0] != n_states:
            raise ValueError(f"observation must have shape (X, Z), got {o.shape}")
        if c.shape != (n_states, n_actions):
            raise ValueError(f"state_cost must have shape (X, A), got {c.shape}")
        _check_rows(t, "transition")
        _check_rows(o, "observation")
        if np.any(np.abs(c) > self.r_max):
            raise ValueError("state costs must satisfy |c| <= r_max")
        if self.initial_belief.shape != (n_states,):
            raise ValueError("initial_belief length must equal the state count")
        _check_rows(self.initial_belief, "initial_belief")

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]

    @property
    def n_obs(self) -> int:
        return self.observation.shape[1]


@dataclass(frozen=True)
class SimplifiedPair:
    """Original model plus the simplified transition/observation tensors."""

    original: FinitePomdp
    simplified_transition: np.ndarray
    simplified_observation: np.ndarray

    def __post_init__(self) -> None:
        for name in ("transition", "observation"):
            arr = _read_only(getattr(self, f"simplified_{name}"), f"simplified_{name}")
            if arr.shape != getattr(self.original, name).shape:
                raise ValueError(f"simplified {name} shape mismatch")
            _check_rows(arr, f"simplified {name}")
            object.__setattr__(self, f"simplified_{name}", arr)

    @classmethod
    def identical(cls, model: FinitePomdp) -> "SimplifiedPair":
        return cls(model, model.transition, model.observation)

    def tensors(self, model: str):
        if model == "original":
            return self.original.transition, self.original.observation
        if model == "simplified":
            return self.simplified_transition, self.simplified_observation
        raise ValueError(f"model must be 'original' or 'simplified', got {model!r}")


@dataclass(frozen=True)
class Policy:
    """Action table indexed by (time step, most-likely state).

    Row ``t - start_k`` covers time ``t``; ``_at`` is the table's one reader, so the
    exact walks and the rollout pool apply the same policy to a belief.
    """

    actions: np.ndarray
    start_k: int

    def __post_init__(self) -> None:
        a = _integer_array(self.actions, "actions")
        if a.ndim != 2 or a.size == 0:
            raise ValueError("policy table must be 2-D (steps x states)")
        object.__setattr__(self, "actions", a)
        object.__setattr__(self, "start_k", _integral_int(self.start_k, "start_k"))

    def _at(self, t, rows: np.ndarray) -> np.ndarray:
        """The step-``t`` action at the most likely state of each belief row (the last
        axis of ``rows``), ties to the lowest state index; ``t`` by ``_integral_int``."""
        row = _integral_int(t, "t") - self.start_k
        if not (0 <= row < self.actions.shape[0]):
            raise ValueError(f"policy has no row for time step {t}")
        return self.actions[row, rows.argmax(axis=-1)]

    def action(self, t: int, belief: Belief) -> int:
        _check_belief(belief, self.actions.shape[1])
        return int(self._at(t, belief.probs))


def validate_policy(pair: SimplifiedPair, policy: Policy) -> None:
    """The one policy-fit rule, of every walk, proposal, pool and problem file: one
    row per step in [start_k, horizon_T], one entry per state, actions in [0, A)."""
    m = pair.original
    steps = m.horizon_T - m.start_k + 1
    if policy.start_k != m.start_k:
        raise ValueError("policy start_k does not match the model")
    if policy.actions.shape != (steps, m.n_states):
        raise ValueError(f"policy table must be {steps} x {m.n_states}, got {policy.actions.shape}")
    if np.any((policy.actions < 0) | (policy.actions >= m.n_actions)):
        raise ValueError("policy references an action out of range")


# ---------------------------------------------------------------- kernels


def _action_index(pair: SimplifiedPair, a, b: Belief | None = None) -> int:
    """The one action and belief rule of the public kernels: ``a`` as an int in
    [0, n_actions) and ``b`` with one entry per state, else a ValueError naming it."""
    n_states, n_actions = pair.original.state_cost.shape
    if b is not None:
        _check_belief(b, n_states)
    a = _integral_int(a, "action")
    if not 0 <= a < n_actions:
        raise ValueError(f"action must lie in [0, {n_actions}), got {a}")
    return a


def belief_mdp_step(pair: SimplifiedPair, b: Belief, a: int,
                    model: str = "original") -> tuple[np.ndarray, np.ndarray]:
    """Successor-belief law as read-only arrays ``(successors, probs)``: one
    normalised (S,) row per observation whose mass exceeds ``PROB_FLOOR``, in
    observation order, and the (n,) masses of those observations."""
    t, o = pair.tensors(model)
    unnorm = o.T * _fold(t[_action_index(pair, a, b)] * b.probs[:, None])
    probs = _fold(unnorm.T)
    keep = probs > PROB_FLOOR
    successors, probs = unnorm[keep] / probs[keep, None], probs[keep]
    successors.flags.writeable = probs.flags.writeable = False
    return successors, probs


def belief_cost(pair: SimplifiedPair, b: Belief, a: int) -> float:
    a = _action_index(pair, a, b)
    return float(_fold(b.probs * pair.original.state_cost[:, a]))


def tv_distance(pair: SimplifiedPair, b: Belief, a: int) -> float:
    """Total variation between original and simplified successor-belief laws.

    Different observations can induce the same successor belief, so atoms
    are first merged within each law, then identified across laws when
    their beliefs match within ``ATOM_MATCH_TOL`` componentwise.
    """
    rows = [(s, col, p) for col, which in enumerate(("original", "simplified"))
            for s, p in zip(*belief_mdp_step(pair, b, a, which))]
    # sort lexicographically, then cluster adjacent rows with matching beliefs
    rows.sort(key=lambda r: r[0].tolist())
    totals = []  # per cluster: [p_original, p_simplified]
    for row, col, p in rows:
        if not totals or np.max(np.abs(row - rep)) > ATOM_MATCH_TOL:
            rep = row
            totals.append([0.0, 0.0])
        totals[-1][col] += p
    return float(sum(abs(po - ps) for po, ps in totals))


# ---------------------------------------------------------------- enumeration


def _start(pair: SimplifiedPair, policy: Policy, b_k: Belief | None,
           first_action) -> tuple[Belief, int]:
    """The one start of every walk, proposal and pool: ``(b_k, a_k)``, where a None
    ``b_k`` is the initial belief and ``a_k`` is ``first_action``, or the policy's
    action at ``b_k`` when it is None, once ``validate_policy`` and ``_action_index``
    pass."""
    validate_policy(pair, policy)
    b_k = Belief(pair.original.initial_belief) if b_k is None else b_k
    a = _action_index(pair, 0 if first_action is None else first_action, b_k)
    return b_k, policy.action(pair.original.start_k, b_k) if first_action is None else a


def _return_span(pair: SimplifiedPair) -> float:
    # the horizon return is a sum of T-k+1 belief costs, each in [-r_max, r_max]
    m = pair.original
    return m.r_max * (m.horizon_T - m.start_k + 1)


def _walk(pair: SimplifiedPair, policy: Policy, model: str, b_k: Belief, a0: int,
          r0: float, last_step: int, leaf_budget: int) -> list[dict]:
    """Merged frontiers of the belief-MDP under ``model``, one per step
    k+1..last_step, from belief ``b_k`` and action ``a0`` at step k.

    A frontier maps a (belief, return) key rounded to ``_KEY_DECIMALS`` to
    ``(belief, action, return, probability)``: the action is the policy's at
    step t, the return is ``r0`` plus the belief costs of steps k+1..t under
    the policy's actions, and paths that reach the same key add their
    probabilities and keep the latest belief, its action and return in the
    first one's slot. Successors whose path probability is below
    ``PROB_FLOOR`` are dropped. Expanding more than ``leaf_budget`` frontier
    nodes in total raises BudgetExceededError.
    """
    k, leaf_budget = pair.original.start_k, _count(leaf_budget, "leaf_budget", 1)
    frontiers: list[dict] = []
    nodes = [(b_k, a0, r0, 1.0)]
    expanded = 0
    for t in range(k + 1, last_step + 1):
        if frontiers:
            expanded += len(frontiers[-1])
            if expanded > leaf_budget:
                raise BudgetExceededError(
                    f"{model} belief-MDP walk exceeds {leaf_budget} nodes "
                    f"at step {t - 1}")
            nodes = frontiers[-1].values()
        nxt: dict = {}
        for b, a, r, p in nodes:
            for row, q in zip(*belief_mdp_step(pair, b, a, model)):
                p2 = p * q
                if p2 < PROB_FLOOR:
                    continue
                b2 = Belief(row)
                a2 = policy.action(t, b2)
                r2 = r + belief_cost(pair, b2, a2)
                key = (tuple(np.round(b2.probs, _KEY_DECIMALS)), round(r2, _KEY_DECIMALS))
                prev = nxt.get(key)
                nxt[key] = (b2, a2, r2, p2 + (prev[3] if prev else 0.0))
        frontiers.append(nxt)
    return frontiers


def enumerate_return_distribution(pair: SimplifiedPair, policy: Policy,
                                  b_k: Belief | None = None,
                                  model: str = "original",
                                  first_action=None,
                                  leaf_budget: int = DEFAULT_LEAF_BUDGET,
                                  ) -> DiscreteDistribution:
    """Exact law of the return R_{k:T} = sum_t c(b_t, a_t) under the policy.

    The step-T frontier of the forward walk from step k, whose returns start
    at the step-k cost; equal returns then merge inside DiscreteDistribution.
    Its nodes are read in reverse, which is the leaf order of the belief-MDP
    tree's depth-first expansion, so a law whose paths never merge is summed
    exactly as that expansion sums it.
    """
    m = pair.original
    b_k, a0 = _start(pair, policy, b_k, first_action)
    r0 = belief_cost(pair, b_k, a0)
    frontiers = _walk(pair, policy, model, b_k, a0, r0, m.horizon_T, leaf_budget)
    leaves = list(frontiers[-1].values()) if frontiers else [(b_k, a0, r0, 1.0)]
    _, _, values, masses = zip(*reversed(leaves))
    return DiscreteDistribution(np.array(values), np.array(masses))


@dataclass(frozen=True)
class TrajectoryExpectations:
    """Per-step expected model gaps along simplified trajectories, exact or
    importance-sampled (``GapAtoms.reduce``): ``per_step_m[i - (k+1)]`` is E
    over simplified trajectories of the successor-law TV distance at step i,
    ``epsilon`` their sum, and ``g`` the right-continuous step function of the
    threshold l, built once as a ``PointwiseEnvelope`` (a CDF-gap envelope)."""

    per_step_m: np.ndarray
    epsilon: float
    g: PointwiseEnvelope

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_step_m", _read_only(self.per_step_m, "per_step_m"))

    def g_at(self, l) -> np.ndarray:
        """Evaluate g at each level of ``l``."""
        return _step_at(self.g.breakpoints, self.g.values, l, "l")


@dataclass(frozen=True)
class GapAtoms:
    """The simplified walk's (belief, prefix-return) atoms of interior steps
    k+1..T-1, walked from belief ``b_k`` under the resolved first action ``a_k``.

    ``beliefs[e]`` is atom e's belief, one (n_atoms, S) array of rows.
    ``target_probs[e, j]`` is the exact probability of atom e at step
    i = k+1+j. Where it is positive, ``gaps[e, j]`` is the atom's TV gap under
    the policy's action there; elsewhere 0, as every reduction weighs it by 0.
    ``thresholds[e, j]`` = prefix + c0 - (T - i) * r_max is the least level l
    at which the atom counts toward g(l) at step i; a prefix includes its
    step's own belief cost but not c0, the cost of ``a_k`` at ``b_k``."""

    beliefs: np.ndarray
    thresholds: np.ndarray
    target_probs: np.ndarray
    gaps: np.ndarray
    b_k: Belief
    a_k: int

    def __post_init__(self) -> None:
        for name in ("beliefs", "target_probs", "thresholds", "gaps"):
            object.__setattr__(self, name, _read_only(getattr(self, name), name))
        shape = self.target_probs.shape
        if self.beliefs.ndim != 2 or len(shape) != 2 or shape[0] != len(self.beliefs) or 0 in shape:
            raise ValueError("beliefs must be (n_atoms, S) and target_probs (n_atoms, n_steps), "
                             "n_atoms, n_steps >= 1")
        _check_rows(self.beliefs, "beliefs")
        for name in ("thresholds", "target_probs", "gaps"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have the shape of target_probs")
            if name != "thresholds" and np.any(getattr(self, name) < 0.0):
                raise ValueError(f"{name} must be >= 0")
        _check_belief(self.b_k, self.beliefs.shape[1])
        object.__setattr__(self, "a_k", _integral_int(self.a_k, "a_k"))

    @property
    def n_steps(self) -> int:
        return self.target_probs.shape[1]

    def reduce(self, weights: np.ndarray | None = None,
               scale: float = 1.0) -> TrajectoryExpectations:
        """m_i, epsilon and g(l), atom e at step k+1+j weighing
        ``weights[e, j] * gaps[e, j] / scale``: the exact ``target_probs`` by
        default, draw count times importance ratio with ``scale = n_delta`` for
        the estimators. g jumps by an atom's weight at its threshold; jumps
        within ``MERGE_TOL`` of a cluster's first one merge into it."""
        w = (self.target_probs if weights is None else weights) * self.gaps
        hit = w > 0.0
        per_step = w.sum(axis=0) / scale
        jumps, sizes = _sort_and_merge(self.thresholds[hit], w[hit] / scale)
        return TrajectoryExpectations(per_step, float(per_step.sum()),
                                      PointwiseEnvelope(jumps, np.cumsum(sizes)))


def _walk_simplified(pair: SimplifiedPair, policy: Policy, b_k: Belief | None,
                     first_action, leaf_budget: int) -> GapAtoms:
    """The simplified model's gap atoms from ``b_k`` (default: the initial
    belief): the walk's frontiers pooled over steps, an atom met at several
    steps keeping its first belief and prefix. One ``Policy._at`` per interior step
    over the belief rows gives the atoms' actions; the walk's ``Belief`` of an atom
    pays one ``tv_distance`` per distinct action where it has mass."""
    m = pair.original
    n_steps = m.horizon_T - 1 - m.start_k
    if n_steps <= 0:
        raise ValueError(
            "the simplified walk needs an interior step (start_k + 1 <= horizon_T - 1), "
            f"got horizon_T={m.horizon_T}, start_k={m.start_k}")
    b_k, a0 = _start(pair, policy, b_k, first_action)
    first_step = m.start_k + 1

    pool: dict = {}  # key -> (belief, prefix, per-step probability row)
    frontiers = _walk(pair, policy, "simplified", b_k, a0, 0.0, m.horizon_T - 1,
                      leaf_budget)
    for j, frontier in enumerate(frontiers):
        for key, (b, _, r, p) in frontier.items():
            pool.setdefault(key, (b, r, np.zeros(n_steps)))[2][j] += p

    beliefs, prefixes, rows = zip(*(pool[key] for key in sorted(pool)))
    targets = np.vstack(rows)
    thresholds = (np.array(prefixes)[:, None] + belief_cost(pair, b_k, a0)
                  - (m.horizon_T - (first_step + np.arange(n_steps))) * m.r_max)
    probs = np.array([b.probs for b in beliefs])
    table = np.column_stack([policy._at(first_step + j, probs) for j in range(n_steps)])
    gaps = np.zeros_like(targets)
    for e, b in enumerate(beliefs):
        steps = np.flatnonzero(targets[e])
        actions = table[e, steps].tolist()
        tv = {a: tv_distance(pair, b, a) for a in set(actions)}
        gaps[e, steps] = [tv[a] for a in actions]
    return GapAtoms(probs, thresholds, targets, gaps, b_k, a0)


def enumerate_trajectory_expectations(pair: SimplifiedPair, policy: Policy,
                                      b_k: Belief | None = None,
                                      first_action=None,
                                      leaf_budget: int = DEFAULT_LEAF_BUDGET,
                                      ) -> TrajectoryExpectations:
    """Exact m_i, epsilon and g(l): the simplified walk's gap atoms reduced under
    their exact weights; with no interior step, all zero once ``_start`` passes."""
    m = pair.original
    if m.horizon_T - 1 - m.start_k > 0:
        return _walk_simplified(pair, policy, b_k, first_action, leaf_budget).reduce()
    _start(pair, policy, b_k, first_action)
    return TrajectoryExpectations(np.zeros(0), 0.0, PointwiseEnvelope.zero())


# ---------------------------------------------------------------- problem files


def to_problem_dict(pair: SimplifiedPair, policy: Policy) -> dict:
    m = pair.original
    return {
        "states": m.n_states,
        "actions": m.n_actions,
        "observations": m.n_obs,
        "transition": m.transition.tolist(),
        "simplified_transition": pair.simplified_transition.tolist(),
        "observation": m.observation.tolist(),
        "simplified_observation": pair.simplified_observation.tolist(),
        "cost": m.state_cost.tolist(),
        "r_max": m.r_max,
        "b0": m.initial_belief.tolist(),
        "horizon_T": m.horizon_T,
        "start_k": m.start_k,
        "policy": policy.actions.tolist(),
    }


def _problem_field(doc: dict, name: str, scalar: bool = False):
    """doc[name] as given, so ints stay exact, once ``_read_only`` takes it: a finite
    JSON number or a rectangular array of them; a string, boolean, null, ragged or
    non-finite entry raises a ValueError naming the field."""
    if name not in doc:
        raise ValueError(f"problem file is missing field {name!r}")
    try:
        if _read_only(doc[name], name).ndim == 0 or not scalar:
            return doc[name]
    except ValueError:
        pass
    raise ValueError(f"problem field {name!r} must be a finite number{'' if scalar else ' array'}")


def from_problem_dict(doc: dict) -> tuple[SimplifiedPair, Policy]:
    def integer(name: str, scalar: bool = False) -> np.ndarray:
        return _integer_array(_problem_field(doc, name, scalar), f"problem field {name!r}")
    model = FinitePomdp(
        transition=_problem_field(doc, "transition"),
        observation=_problem_field(doc, "observation"),
        state_cost=_problem_field(doc, "cost"),
        r_max=_problem_field(doc, "r_max", scalar=True),
        initial_belief=_problem_field(doc, "b0"),
        horizon_T=integer("horizon_T", scalar=True),
        start_k=integer("start_k", scalar=True),
    )
    pair = SimplifiedPair(
        original=model,
        simplified_transition=_problem_field(doc, "simplified_transition"),
        simplified_observation=_problem_field(doc, "simplified_observation"),
    )
    policy = Policy(integer("policy"), start_k=model.start_k)
    for name, actual in (("states", model.n_states), ("actions", model.n_actions),
                         ("observations", model.n_obs)):
        declared = int(integer(name, scalar=True))
        if declared != actual:
            raise ValueError(f"declared {name}={declared} but tensors imply {actual}")
    validate_policy(pair, policy)
    return pair, policy


def save_problem(path, pair: SimplifiedPair, policy: Policy) -> None:
    doc = to_problem_dict(pair, policy)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_problem(path) -> tuple[SimplifiedPair, Policy]:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested, say
        raise ValueError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("problem file must contain a JSON object")
    return from_problem_dict(doc)
