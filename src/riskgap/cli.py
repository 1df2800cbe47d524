"""Batch driver: exact enumeration reports, certified bounds, and
concentration-rate validation, emitted as JSON or CSV.

Every report shares one envelope::

    {"schema_version": ..., "manifest": {...}, "records": [...]}

Records are flat dicts of scalars, so a CSV export carries the same rows
one-to-one.  All randomness is derived from the manifest seed through named
(slot, trial) streams, which makes a report a deterministic function
of the manifest.  Every certificate is read through
``estimation._certify_levels``, which takes a rollout pool and a draw seed,
makes one importance draw per call and reads every level from them:
``certify`` makes one call per query, and a ``concentration`` trial one per
certificate kind, each on the trial's one pool.
Each command takes only the flags it reads.  Runs are single-threaded;
``--workers`` is checked to be >= 1 but has no effect.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .estimation import (
    BinGrid,
    DegenerateWeightsError,
    InapplicableCaseError,
    RolloutConfig,
    _certified_n_delta,
    _certify_levels,
    _simplified_return_pool,
    binned_h,
    build_default_proposal,
    estimate_epsilon,
    estimate_g,
    n_delta_for_epsilon,
    n_delta_for_g,
    n_delta_for_h,
)
from .pomdp import (
    Belief,
    BudgetExceededError,
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
    load_problem,
)
from .risk import (
    _COMPARE_TOL,
    cvar_estimate_sorted,
    cvar_exact,
    deviation_radii,
)
from .scenarios import builtin, builtin_names
from .value_bounds import ValueQuery, bound_report

SCHEMA_VERSION = 1

# Embedded schema document; validate_report enforces it before anything is
# written, so an emitted report is schema-valid by construction.
SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "envelope": {
        "schema_version": "int, must equal the library's SCHEMA_VERSION",
        "manifest": "echo of the resolved run parameters (RunManifest.to_dict)",
        "records": "list of flat records; every field value is a scalar",
    },
    "record_kinds": {
        "return_atom": "one atom of an exact return law (model, value, prob)",
        "q_exact": "exact tail value of a return law (alpha, model, value)",
        "epsilon": "exact summed per-step expected model gap (value)",
        "g_value": "exact cumulative-gap curve at one level (level, value)",
        "bound": "enumeration-backed bound (alpha, name, value, case_tag)",
        "sandwich": "per-alpha ordering verdict around the exact value",
        "proposal": "importance-proposal summary (importance_bound, ...)",
        "certified_bound": "Monte-Carlo bound with its radius_* terms",
        "guarantee": "violation-rate check for one probabilistic guarantee",
    },
}

_SCALAR_TYPES = (str, int, float, bool, type(None))

# Stream slots, combined with trial indices so reports never depend on
# evaluation order. _SLOT_POOL seeds certify's pool and draws (trial 0) and
# each concentration trial's one pool; _SLOT_UNIF and _SLOT_TIGHT seed that
# trial's uniform and TightLower importance draws.
_SLOT_POOL, _SLOT_EPS, _SLOT_G, _SLOT_H, _SLOT_UNIF, _SLOT_TIGHT = range(6)


@dataclass(frozen=True, kw_only=True)
class RunManifest:
    """Resolved run parameters, echoed into every report. A field is named after
    its parser dest and its manifest key, and holds the flag's only default."""

    command: str
    scenario: str | None = None
    problem: str | None = None
    alpha: tuple = (0.25,)
    delta: float = 0.1
    v: float = 0.1
    eta: float = 0.25
    rollouts: int = 500
    particles: int = 200
    ndelta: int | None = None
    ndelta_derived: bool = False
    ndelta_formula: str = ""
    bins: int = 8
    seed: int = 0
    trials: int = 100
    out: str | None = None
    fmt: str = "json"

    def to_dict(self) -> dict:
        # trials and fmt are execution plumbing, not run identity: leaving
        # them out keeps reports byte-identical across their values
        fields = asdict(self)
        del fields["trials"], fields["fmt"]
        return {**fields, "alpha": list(self.alpha)}


def validate_report(report: dict) -> None:
    """Check the shared envelope and the flat-scalar record contract."""
    if set(report) != {"schema_version", "manifest", "records"}:
        raise ValueError(
            "report envelope must have exactly schema_version, manifest, records")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {report['schema_version']!r}")
    if not isinstance(report["manifest"], dict):
        raise ValueError("manifest must be a mapping")
    if not isinstance(report["records"], list):
        raise ValueError("records must be a list")
    for rec in report["records"]:
        if not isinstance(rec, dict):
            raise ValueError("each record must be a mapping")
        if rec.get("kind") not in SCHEMA["record_kinds"]:
            raise ValueError(f"unknown record kind {rec.get('kind')!r}")
        for key, val in rec.items():
            if not isinstance(val, _SCALAR_TYPES):
                raise ValueError(
                    f"record field {key!r} must be a scalar, got {type(val).__name__}")


def render_report(report: dict, fmt: str) -> str:
    validate_report(report)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        records = report["records"]
        fields = sorted({key for rec in records for key in rec})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, restval="",
                                lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _csv_cell(v) for k, v in rec.items()})
        return buf.getvalue()
    raise ValueError(f"unknown output format {fmt!r}")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr round-trips the exact double, matching the JSON emission
        return repr(value)
    return str(value)


def binomial_pass_threshold(n: int, p: float, level: float = 0.99) -> int:
    """Largest k with P(Binomial(n, p) >= k) >= 1 - level.

    A violation count at or below this threshold is consistent with a true
    violation rate of p at the one-sided ``level`` significance.
    """
    if n <= 0:
        return 0
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    log_n_fact = math.lgamma(n + 1)
    tail = 0.0
    for k in range(n, -1, -1):
        log_pmf = (log_n_fact - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                   + k * math.log(p) + (n - k) * math.log1p(-p))
        tail += math.exp(log_pmf)
        if tail >= 1.0 - level:
            return k
    return 0


# ------------------------------------------------------------------ plumbing


def _resolve_problem(manifest: RunManifest):
    if manifest.problem is not None:
        return load_problem(manifest.problem)
    return_spec = builtin(manifest.scenario)
    return return_spec.pair, return_spec.policy


def _initial_query(pair, alpha) -> ValueQuery:
    return ValueQuery(Belief(pair.original.initial_belief), alpha)


def _derived_seed(base: int, slot: int, trial: int = 0) -> int:
    # the constant 0 is part of every seed's entropy; without it every report changes
    ss = np.random.SeedSequence((int(base), int(slot), int(trial), 0))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _bound_record(alpha: float, bound) -> dict:
    rec = {
        "kind": "certified_bound",
        "alpha": float(alpha),
        "bound_kind": bound.kind,
        "value": float(bound.value),
        "delta": float(bound.delta),
        "v": float(bound.v),
        "eta": float(bound.eta),
        "n_delta_used": int(bound.n_delta_used),
        "c_used": int(bound.c_used),
    }
    for name in sorted(bound.radii):
        rec[f"radius_{name}"] = float(bound.radii[name])
    return rec


def _report(manifest: RunManifest, records: list) -> dict:
    return {"schema_version": SCHEMA_VERSION, "manifest": manifest.to_dict(),
            "records": records}


# ------------------------------------------------------------------ commands


def cmd_enumerate(manifest: RunManifest) -> dict:
    """Exact oracle run: return laws, gaps, bounds, and sandwich verdicts."""
    pair, policy = _resolve_problem(manifest)
    grid = BinGrid.uniform(pair, manifest.bins)
    records = []

    for model in ("original", "simplified"):
        dist = enumerate_return_distribution(pair, policy, model=model)
        for value, prob in zip(dist.values, dist.probs):
            records.append({"kind": "return_atom", "model": model,
                            "value": float(value), "prob": float(prob)})

    traj = enumerate_trajectory_expectations(pair, policy)
    records.append({"kind": "epsilon", "value": float(traj.epsilon)})
    for level, g_val in zip(grid.edges, traj.g_at(grid.edges)):
        records.append({"kind": "g_value", "level": float(level),
                        "value": float(g_val)})

    for alpha in manifest.alpha:
        rep = bound_report(pair, policy, _initial_query(pair, alpha))
        records.append({"kind": "q_exact", "alpha": float(alpha),
                        "model": "original", "value": float(rep.q_true)})
        records.append({"kind": "q_exact", "alpha": float(alpha),
                        "model": "simplified", "value": float(rep.q_simplified)})
        for name, value, tag in (
                ("lower_uniform", rep.lower_uniform, rep.case_tags["lower"]),
                ("upper_uniform", rep.upper_uniform, rep.case_tags["upper"]),
                ("lower_tight", rep.lower_tight, "")):
            records.append({"kind": "bound", "alpha": float(alpha), "name": name,
                            "value": float(value), "case_tag": tag})
        ok = (rep.lower_uniform <= rep.q_true + _COMPARE_TOL
              and rep.q_true <= rep.upper_uniform + _COMPARE_TOL
              and rep.lower_tight <= rep.q_true + _COMPARE_TOL)
        records.append({"kind": "sandwich", "alpha": float(alpha), "sandwich_ok": bool(ok),
                        **{name: float(getattr(rep, name)) for name in
                           ("q_true", "lower_uniform", "upper_uniform", "lower_tight")}})

    return _report(manifest, records)


def cmd_certify(manifest: RunManifest) -> dict:
    """Monte-Carlo certified bounds from one rollout pool and one importance
    draw for all levels, plus the exact values when enumerable."""
    pair, policy = _resolve_problem(manifest)
    grid = BinGrid.uniform(pair, manifest.bins)
    q0 = build_default_proposal(pair, policy)
    if manifest.ndelta is None:
        manifest = replace(
            manifest, ndelta_derived=True,
            ndelta=_certified_n_delta(pair, q0, None, manifest.delta, manifest.v,
                                      manifest.eta, grid),
            ndelta_formula="max(n_delta_for_uniform_bounds, n_delta_for_tight_lower)")

    records = [{"kind": "proposal", "importance_bound": float(q0.importance_bound),
                "n_atoms": int(q0.proposal_probs.size),
                "n_steps": int(q0.n_steps)}]
    # exact laws for the q_exact records, enumerated once for every alpha;
    # the bounds stand on their own when exact enumeration is infeasible
    laws = []
    try:
        for model in ("original", "simplified"):
            laws.append((model, enumerate_return_distribution(pair, policy,
                                                              model=model)))
    except BudgetExceededError:
        pass

    seed = _derived_seed(manifest.seed, _SLOT_POOL)
    query = _initial_query(pair, manifest.alpha[0])
    pool = _simplified_return_pool(
        pair, policy, query, RolloutConfig(manifest.rollouts, manifest.particles, seed))
    per_alpha = _certify_levels(pair, policy, query, pool, seed, q0, manifest.ndelta,
                                manifest.delta, manifest.alpha, v=manifest.v,
                                eta=manifest.eta, grid=grid)
    for alpha, (uniform, tight) in zip(manifest.alpha, per_alpha):
        if isinstance(uniform, InapplicableCaseError):
            raise uniform
        records.extend(_bound_record(alpha, b) for b in uniform + [tight])
        records.extend({"kind": "q_exact", "alpha": float(alpha), "model": model,
                        "value": float(cvar_exact(dist, alpha))}
                       for model, dist in laws)

    return _report(manifest, records)


def cmd_concentration(manifest: RunManifest) -> dict:
    """Repeat each estimator/certifier and report violation rates against delta.

    Every guarantee gets one record per query level it depends on, with the
    empirical violation frequency and a pass/fail at the one-sided binomial
    99% level.  Trials where a bound is not emitted (inapplicable case, or an
    upper bound omitted) are excluded from that record's evaluated count.
    """
    trials = manifest.trials
    pair, policy = _resolve_problem(manifest)
    if trials == 0:
        return _report(manifest, [])
    m = pair.original
    alphas = manifest.alpha
    delta, v, eta = manifest.delta, manifest.v, manifest.eta
    grid = BinGrid.uniform(pair, manifest.bins)
    q0 = build_default_proposal(pair, policy)

    # exact ground truth (the precondition: enumeration must be feasible)
    dist_s = enumerate_return_distribution(pair, policy, model="simplified")
    dist_p = enumerate_return_distribution(pair, policy, model="original")
    # the exact gaps are q0's own atoms, exactly weighted
    traj = q0.reduce()
    exact_s = {a: cvar_exact(dist_s, a) for a in alphas}
    exact_p = {a: cvar_exact(dist_p, a) for a in alphas}
    # worst-case width of a rollout return: per-step mean costs stay inside
    # the global state-cost range
    value_range = float(np.ptp(m.state_cost) * (m.horizon_T - m.start_k + 1))
    # probe level of the pointwise gap estimate, where the curve is active: the grid
    # edge nearest the middle of the simplified law's distinct atom values, unweighted
    values = dist_s.values  # sorted and distinct; np.median would import numpy.ma
    middle = values[(values.size - 1) // 2:values.size // 2 + 1].mean()
    level = float(grid.edges[np.argmin(np.abs(grid.edges - middle))])
    g_exact_level = float(traj.g_at(level)[0])
    probe = np.linspace(grid.edges[0], grid.edges[-1], 241)
    g_exact_probe = traj.g_at(probe)

    # (name, one record per level?, N_delta) of every guarantee, in record
    # order; a fixed --ndelta replaces every formula
    fixed, b, T, k = manifest.ndelta, q0.importance_bound, m.horizon_T, m.start_k
    guarantees = (
        ("cvar_estimate_upper", True, None),
        ("cvar_estimate_lower", True, None),
        ("epsilon_within_2v", False, fixed or n_delta_for_epsilon(v, delta, b, T, k)),
        ("g_pointwise", False, fixed or n_delta_for_g(v, delta, b, T, k)),
        ("h_envelope_uniform", False,
         fixed or n_delta_for_h(v, delta, b, grid.n_bins, T, k)),
        ("uniform_lower", True, fixed or _certified_n_delta(pair, q0, None, delta, v=v)),
        ("uniform_upper", True, fixed or _certified_n_delta(pair, q0, None, delta, v=v)),
        ("tight_lower", True,
         fixed or _certified_n_delta(pair, q0, None, delta, eta=eta, grid=grid)),
    )
    n_delta = {name: nd for name, _, nd in guarantees}

    # each trial's pool starts from the initial belief; the query's level plays no part
    query = _initial_query(pair, alphas[0])

    def one_trial(t: int) -> dict:
        events = {}
        # one pool per trial, read by the CVaR estimates and both certificate kinds
        config = RolloutConfig(manifest.rollouts, manifest.particles,
                               _derived_seed(manifest.seed, _SLOT_POOL, t))
        pool = _simplified_return_pool(pair, policy, query, config)
        for alpha in alphas:
            radii = deviation_radii(pool.size, alpha, delta, value_range)
            q_hat = cvar_estimate_sorted(pool, alpha)
            events[("cvar_estimate_upper", alpha)] = \
                exact_s[alpha] - q_hat > radii.upper
            events[("cvar_estimate_lower", alpha)] = \
                q_hat - exact_s[alpha] > radii.lower

        rng = np.random.default_rng(_derived_seed(manifest.seed, _SLOT_EPS, t))
        eps_hat = estimate_epsilon(q0, pair, policy, n_delta["epsilon_within_2v"], rng)
        events[("epsilon_within_2v", None)] = abs(eps_hat - traj.epsilon) > 2.0 * v

        rng = np.random.default_rng(_derived_seed(manifest.seed, _SLOT_G, t))
        g_hat = estimate_g(q0, pair, policy, n_delta["g_pointwise"], [level], rng)
        events[("g_pointwise", None)] = abs(float(g_hat[0]) - g_exact_level) > v

        rng = np.random.default_rng(_derived_seed(manifest.seed, _SLOT_H, t))
        g_edges = estimate_g(q0, pair, policy, n_delta["h_envelope_uniform"],
                             grid.edges, rng)
        h_plus, _ = binned_h(g_edges, grid)
        events[("h_envelope_uniform", None)] = \
            bool(np.any(g_exact_probe - h_plus.at(probe) > v))

        # one importance draw per certificate kind, each at its own formula N_delta
        uniform_levels = _certify_levels(pair, policy, query, pool,
                                         _derived_seed(manifest.seed, _SLOT_UNIF, t), q0,
                                         n_delta["uniform_lower"], delta, alphas, v=v)
        for alpha, (uniform, _) in zip(alphas, uniform_levels):
            if isinstance(uniform, InapplicableCaseError):
                events[("uniform_lower", alpha)] = events[("uniform_upper", alpha)] = None
                continue
            lower, *upper = uniform
            slack = (lower.radii["lambda_1"] + lower.radii["lambda_2"]
                     if lower.kind == "L1"
                     else lower.radii["eta_1"] + lower.radii["eta_2"])
            events[("uniform_lower", alpha)] = lower.value - exact_p[alpha] > slack
            events[("uniform_upper", alpha)] = (
                exact_p[alpha] - upper[0].value > upper[0].radii["lambda"]
                if upper else None)
        tight_levels = _certify_levels(pair, policy, query, pool,
                                       _derived_seed(manifest.seed, _SLOT_TIGHT, t), q0,
                                       n_delta["tight_lower"], delta, alphas,
                                       eta=eta, grid=grid)
        for alpha, (_, tight) in zip(alphas, tight_levels):
            events[("tight_lower", alpha)] = tight.value - exact_p[alpha] > tight.v
        return events

    results = [one_trial(t) for t in range(trials)]

    records = []
    for name, per_level, nd in guarantees:
        for alpha in alphas if per_level else [None]:
            outcomes = [res[(name, alpha)] for res in results]
            evaluated = sum(o is not None for o in outcomes)
            violations = sum(bool(o) for o in outcomes if o is not None)
            threshold = binomial_pass_threshold(evaluated, delta)
            records.append({
                "kind": "guarantee",
                "name": name,
                "alpha": alpha,
                "delta": delta,
                "n_delta": nd,
                "trials": trials,
                "evaluated": evaluated,
                "violations": violations,
                "frequency": (violations / evaluated) if evaluated else 0.0,
                "threshold": threshold,
                "passed": violations <= threshold,
            })

    return _report(manifest, records)


# ----------------------------------------------------------------- interface


def levels(text: str) -> tuple:
    # an argparse type: argparse names the flag, and this type, when one fails
    return tuple(float(p) for p in text.split(",") if p.strip())


def count_or_auto(text: str) -> int | None:
    return None if text == "auto" else int(text)


# the range of each flag that has one, as (statement, test); NaN fails every test
_RANGES = {
    "alpha": ("levels in (0, 1)", lambda a: a and all(0.0 < x < 1.0 for x in a)),
    "delta": ("in (0, 1)", lambda x: 0.0 < x < 1.0),
    "v": ("finite and > 0", lambda x: 0.0 < x < math.inf),
    "eta": ("finite and > 0", lambda x: 0.0 < x < math.inf),
    "ndelta": (">= 1 or 'auto'", lambda n: n is None or n >= 1),
    **dict.fromkeys(("rollouts", "particles", "bins", "workers"), (">= 1", lambda n: n >= 1)),
    **dict.fromkeys(("seed", "trials"), (">= 0", lambda n: n >= 0)),
}


class _DefaultsHelp(argparse.HelpFormatter):
    def _get_help_string(self, action):
        # a flag's help ends with its RunManifest default; the source has none
        defaults = {f.name: f.default for f in fields(RunManifest)}
        if action.dest not in defaults or action.dest in ("problem", "scenario"):
            return action.help
        value = defaults[action.dest]
        if value is None:  # ndelta derives its count, out writes to stdout
            value = "auto" if action.dest == "ndelta" else "stdout"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        return f"{action.help} (default: {value})"


class _CommandParser(argparse.ArgumentParser):
    # reports a flag its command does not take with the command's usage line,
    # where argparse would hand the flag back to the top-level parser
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    # each flag is declared once; a flag not given is left to RunManifest's default
    common, sampling, trials = (argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS) for _ in range(3))
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", metavar="PATH", help="JSON problem file")
    source.add_argument("--scenario", metavar="NAME",
                        help=f"built-in scenario: {', '.join(builtin_names())}")
    common.add_argument("--alpha", type=levels, metavar="LIST",
                        help="comma-separated tail levels in (0, 1)")
    common.add_argument("--bins", type=int, metavar="I", help="bins of the gap-envelope grid")
    common.add_argument("--out", metavar="PATH", help="where the report is written")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), help="report format")
    sampling.add_argument("--delta", type=float, metavar="F",
                          help="per-guarantee failure probability")
    sampling.add_argument("--v", type=float, metavar="F", help="gap-accuracy parameter")
    sampling.add_argument("--eta", type=float, metavar="F",
                          help="envelope slack for the tight lower bound")
    sampling.add_argument("--rollouts", type=int, metavar="C", help="rollouts per pool")
    sampling.add_argument("--particles", type=int, metavar="NX", help="particles per rollout")
    sampling.add_argument("--ndelta", type=count_or_auto, metavar="N|auto",
                          help="importance-sampling draws; 'auto' derives the "
                               "count from the certified-rate formulas")
    sampling.add_argument("--seed", type=int, metavar="S", help="base of every random stream")
    sampling.add_argument("--workers", type=int, metavar="N",
                          help="accepted and ignored: runs are single-threaded")
    trials.add_argument("--trials", type=int, metavar="N", help="trials per guarantee")
    parser = argparse.ArgumentParser(
        prog="riskgap",
        description="Tail-risk value reports for a POMDP policy evaluated "
                    "under a simplified model: exact enumeration, certified "
                    "bounds, and concentration-rate validation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, parents, summary in (
            ("enumerate", [common], "exact return laws, gaps, bounds, sandwich verdicts"),
            ("certify", [common, sampling], "Monte-Carlo certified bounds with deviation radii"),
            ("concentration", [common, sampling, trials],
             "violation-rate validation of each guarantee")):
        sub.add_parser(name, parents=parents, help=summary, formatter_class=_DefaultsHelp)
    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    params = vars(args).copy()
    for flag, (stated, ok) in _RANGES.items():
        if flag in params and not ok(params[flag]):
            raise ValueError(f"--{flag} must be {stated}, got {params[flag]}")
    alphas = params.get("alpha", ())
    for i, alpha in enumerate(alphas):
        if alpha in alphas[:i]:
            raise ValueError(f"--alpha lists level {alpha} twice")
    params.pop("workers", None)  # checked, but runs are single-threaded
    return RunManifest(**params)


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "certify": cmd_certify,
    "concentration": cmd_concentration,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return 0 if exc.code in (0, None) else 2
    try:
        manifest = _manifest_from_args(args)
        report = _COMMANDS[manifest.command](manifest)
        text = render_report(report, manifest.fmt)
        if manifest.out is not None:
            Path(manifest.out).write_text(text)
        else:
            sys.stdout.write(text)
    except DegenerateWeightsError as exc:
        # the problem/particle configuration cannot be simulated as given
        print(f"error: rollout pool: {exc} (every particle is inconsistent "
              "with the sampled observation; increase --particles or smooth "
              "the observation model)", file=sys.stderr)
        return 2
    except (InapplicableCaseError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # no certified bound applies: 4; enumeration budget exceeded: 3; bad input: 2
        return {InapplicableCaseError: 4, BudgetExceededError: 3}.get(type(exc), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
