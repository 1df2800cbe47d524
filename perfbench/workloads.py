"""Workload inputs, operations and output checks for the riskgap benchmark.

Every workload is a closed loop with one client: an op is one CLI command
function call (argument parsing, the ``cmd_*`` function, ``render_report``),
issued only after the previous op returned.  Inputs derive from the
benchmark seed alone; the package receives only the generated inputs.

The fixed sample sizes below (C, N_x, bins, trials, formula-derived N_Δ)
are part of each op's output check, so a speed-up cannot come from
shrinking them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import riskgap as rg
from riskgap import cli

ALPHAS = "0.25,0.9"
ROLLOUTS_C = 500
PARTICLES_NX = 200
BINS = 8
DELTA, V, ETA = 0.1, 0.1, 0.25
CONCENTRATION_TRIALS = 2     # fixed trial block per concentration op
CONCENTRATION_WORKERS = 2    # the only path through the CLI trial scheduler
DEEP_HORIZON_T = 7           # certify_deep: 126 proposal atoms, N_Δ ≈ 30 M
EXACT_HORIZON = 8            # exact_deep: 3^8-leaf return trees
INPUT_BLOCK = 16             # generated problems per run; ops cycle through them
DIGEST_OPS = 2               # every run performs at least this many ops

_CERTIFY_ARGS = ["--alpha", ALPHAS, "--rollouts", str(ROLLOUTS_C),
                 "--particles", str(PARTICLES_NX), "--bins", str(BINS),
                 "--delta", str(DELTA), "--v", str(V), "--eta", str(ETA),
                 "--ndelta", "auto"]


def derive_seed(*parts) -> int:
    """Stable 31-bit seed from the workload name, run seed and op index."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def deep_pair(seed: int):
    """2-state, 2-observation pair whose beliefs never merge.

    Seeded Dirichlet transitions and costs, a 0.9-accurate sensor, and a
    simplified model that mixes the sensor 20 % toward uniform.
    """
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(2), size=(2, 2))
    obs = np.array([[0.9, 0.1], [0.1, 0.9]])
    model = rg.FinitePomdp(
        transition=trans,
        observation=obs,
        state_cost=rng.uniform(-1.0, 1.0, size=(2, 2)),
        r_max=1.0,
        initial_belief=rng.dirichlet(np.ones(2)),
        horizon_T=DEEP_HORIZON_T,
        start_k=0,
    )
    pair = rg.SimplifiedPair(model, trans.copy(), 0.8 * obs + 0.2 * 0.5)
    policy = rg.Policy(rng.integers(0, 2, size=(DEEP_HORIZON_T + 1, 2)), start_k=0)
    return pair, policy


@dataclass
class Workload:
    """The argv of every op of one run, plus what its outputs must echo."""

    name: str
    command: str
    argvs: list

    def argv(self, i: int) -> list:
        return self.argvs[i % len(self.argvs)]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate one run's inputs; problem files are written to ``workdir``."""
    if name == "certify_deep":
        argvs = []
        for i in range(INPUT_BLOCK):
            path = workdir / f"deep_{i}.json"
            rg.save_problem(path, *deep_pair(derive_seed(name, seed, "pair", i)))
            argvs.append(["certify", "--problem", str(path), *_CERTIFY_ARGS,
                          "--seed", str(derive_seed(name, seed, i))])
        return Workload(name, "certify", argvs)
    if name == "exact_deep":
        argvs = []
        for i in range(INPUT_BLOCK):
            spec = rg.random_instance(derive_seed(name, seed, i),
                                      horizon_gap=EXACT_HORIZON)
            path = workdir / f"exact_{i}.json"
            rg.save_problem(path, spec.pair, spec.policy)
            argvs.append(["enumerate", "--problem", str(path), "--alpha", ALPHAS,
                          "--bins", str(BINS)])
        return Workload(name, "enumerate", argvs)
    if name == "concentration":
        argvs = [["concentration", "--scenario", "two_state_sensor",
                  "--alpha", ALPHAS, "--trials", str(CONCENTRATION_TRIALS),
                  "--workers", str(CONCENTRATION_WORKERS),
                  "--seed", str(derive_seed(name, seed, i))]
                 for i in range(INPUT_BLOCK)]
        return Workload(name, "concentration", argvs)
    raise ValueError(f"unknown workload {name!r}")


_COMMANDS = {"certify": "cmd_certify", "enumerate": "cmd_enumerate",
             "concentration": "cmd_concentration"}


def run_op(argv: list):
    """One op: what ``riskgap <argv>`` does, minus process start and output."""
    args = cli.build_parser().parse_args(argv)
    manifest = cli._manifest_from_args(args)
    # looked up at call time so a traced run sees the rebound function
    report = getattr(cli, _COMMANDS[manifest.command])(manifest)
    return report, cli.render_report(report, "json")


# ---------------------------------------------------------------- checks


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _records(report, kind):
    return [r for r in report["records"] if r["kind"] == kind]


def check_report(work: Workload, argv: list, report: dict) -> list:
    """Problems with one op's report; an empty list means the op passed."""
    try:
        cli.validate_report(report)
    except ValueError as exc:
        return [f"validate_report: {exc}"]
    problems = []
    man = report["manifest"]
    alphas = [float(a) for a in ALPHAS.split(",")]
    if man.get("alpha") != alphas:
        problems.append(f"alpha echo {man.get('alpha')}")
    if man.get("bins") != BINS:
        problems.append(f"bins echo {man.get('bins')}")

    if work.command == "enumerate":
        sandwiches = _records(report, "sandwich")
        if len(sandwiches) != len(alphas):
            problems.append(f"{len(sandwiches)} sandwich records")
        problems += [f"sandwich_ok false at alpha {r['alpha']}"
                     for r in sandwiches if r["sandwich_ok"] is not True]
        bounds = _records(report, "bound") + _records(report, "q_exact")
        if len(bounds) != 5 * len(alphas):
            problems.append(f"{len(bounds)} bound/q_exact records")
        problems += [f"non-finite {r['kind']} {r.get('name', '')}"
                     for r in bounds if not _finite(r["value"])]
        return problems

    if (man.get("rollouts"), man.get("particles")) != (ROLLOUTS_C, PARTICLES_NX):
        problems.append(f"C/N_x echo {man.get('rollouts')}/{man.get('particles')}")

    if work.command == "certify":
        if man.get("ndelta_derived") is not True:
            problems.append("ndelta not formula-derived")
        proposal = _records(report, "proposal")
        if len(proposal) != 1:
            return problems + [f"{len(proposal)} proposal records"]
        pair, _ = _problem_of(argv)
        m = pair.original
        b = proposal[0]["importance_bound"]
        expected = max(
            rg.n_delta_for_uniform_bounds(V, DELTA, b, m.horizon_T, m.start_k),
            rg.n_delta_for_tight_lower(ETA, DELTA, b, BINS, m.horizon_T, m.start_k))
        if man.get("ndelta") != expected:
            problems.append(f"ndelta {man.get('ndelta')} != formula {expected}")
        bounds = _records(report, "certified_bound")
        kinds = {(r["alpha"], r["bound_kind"]) for r in bounds}
        for a in alphas:
            if not {(a, "TightLower")} <= kinds or not (
                    (a, "L1") in kinds or (a, "L2") in kinds):
                problems.append(f"missing certified bounds at alpha {a}")
        for r in bounds:
            if not _finite(r["value"]):
                problems.append(f"non-finite {r['bound_kind']} at alpha {r['alpha']}")
            if (r["n_delta_used"], r["c_used"]) != (expected, ROLLOUTS_C):
                problems.append(f"{r['bound_kind']} used N_Δ={r['n_delta_used']} "
                                f"C={r['c_used']}")
        return problems

    guarantees = _records(report, "guarantee")
    if len(guarantees) != 5 * len(alphas) + 3:
        problems.append(f"{len(guarantees)} guarantee records")
    expected = _concentration_n_delta(argv)
    for r in guarantees:
        if r["trials"] != CONCENTRATION_TRIALS:
            problems.append(f"{r['name']} ran {r['trials']} trials")
        if not 0 <= r["violations"] <= r["evaluated"] <= r["trials"]:
            problems.append(f"{r['name']} counts out of range")
        if r["n_delta"] != expected.get(r["name"]):
            problems.append(f"{r['name']} N_Δ={r['n_delta']} != formula "
                            f"{expected.get(r['name'])}")
    return problems


def _concentration_n_delta(argv: list) -> dict:
    pair, policy = _problem_of(argv)
    m = pair.original
    b = rg.build_default_proposal(pair, policy).importance_bound
    t, k = m.horizon_T, m.start_k
    uniform = rg.n_delta_for_uniform_bounds(V, DELTA, b, t, k)
    return {
        "cvar_estimate_upper": None,
        "cvar_estimate_lower": None,
        "epsilon_within_2v": rg.n_delta_for_epsilon(V, DELTA, b, t, k),
        "g_pointwise": rg.n_delta_for_g(V, DELTA, b, t, k),
        "h_envelope_uniform": rg.n_delta_for_h(V, DELTA, b, BINS, t, k),
        "uniform_lower": uniform,
        "uniform_upper": uniform,
        "tight_lower": rg.n_delta_for_tight_lower(ETA, DELTA, b, BINS, t, k),
    }


def _problem_of(argv: list):
    if "--problem" in argv:
        return rg.load_problem(argv[argv.index("--problem") + 1])
    spec = rg.builtin(argv[argv.index("--scenario") + 1])
    return spec.pair, spec.policy
