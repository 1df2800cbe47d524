import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskgap import estimation, pomdp
from riskgap.cli import (
    _SLOT_POOL,
    _SLOT_TIGHT,
    _SLOT_UNIF,
    SCHEMA_VERSION,
    RunManifest,
    _bound_record,
    _derived_seed,
    _initial_query,
    _manifest_from_args,
    binomial_pass_threshold,
    build_parser,
    levels,
    main,
    validate_report,
)
from riskgap.estimation import (
    _EPS,
    _GINV,
    BinGrid,
    DegenerateWeightsError,
    RolloutConfig,
    _certify_levels,
    _draw_counts,
    _simplified_return_pool,
    _tight_bound,
    binned_h,
    build_default_proposal,
    certify_tight_lower,
    certify_uniform,
    estimate_g,
    lower_cdf_distribution,
    n_delta_for_tight_lower,
    n_delta_for_uniform_bounds,
)
from riskgap.pomdp import (
    Belief,
    BudgetExceededError,
    _return_span,
    enumerate_trajectory_expectations,
    save_problem,
)
from riskgap.risk import DiscreteDistribution
from riskgap.scenarios import builtin, builtin_names, random_instance
from riskgap.value_bounds import ValueQuery, bound_report, q_exact

from test_pomdp import random_pair, random_policy


def run_cli(args, out_path):
    rc = main([*args, "--out", str(out_path)])
    text = out_path.read_text() if out_path.exists() else ""
    return rc, text


def records_of(text, kind=None):
    report = json.loads(text)
    validate_report(report)
    recs = report["records"]
    return recs if kind is None else [r for r in recs if r["kind"] == kind]


def test_enumerate_two_state_sensor_sandwich_ok(tmp_path):
    rc, text = run_cli(["enumerate", "--scenario", "two_state_sensor",
                        "--alpha", "0.25,0.9"], tmp_path / "r.json")
    assert rc == 0
    report = json.loads(text)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["manifest"]["command"] == "enumerate"
    sandwiches = records_of(text, "sandwich")
    assert [r["alpha"] for r in sandwiches] == [0.25, 0.9]
    assert all(r["sandwich_ok"] for r in sandwiches)
    eps = records_of(text, "epsilon")
    assert len(eps) == 1 and eps[0]["value"] == pytest.approx(0.57965)
    # both models enumerated, atoms carry probability mass one each
    for model in ("original", "simplified"):
        atoms = [r for r in records_of(text, "return_atom") if r["model"] == model]
        assert sum(a["prob"] for a in atoms) == pytest.approx(1.0)


def test_enumerate_perturbation_zero_has_zero_epsilon(tmp_path):
    spec = random_instance(3, perturbation=0.0)
    problem = tmp_path / "p.json"
    save_problem(problem, spec.pair, spec.policy)
    rc, text = run_cli(["enumerate", "--problem", str(problem)],
                       tmp_path / "r.json")
    assert rc == 0
    assert records_of(text, "epsilon")[0]["value"] == 0.0
    for r in records_of(text, "g_value"):
        assert r["value"] == 0.0


@pytest.mark.parametrize("horizon_T", (1, 2))
def test_no_interior_step_has_zero_gap_and_finite_bounds(tmp_path, horizon_T):
    # start_k = 1: T = k and T = k + 1 leave no step k+1..T-1 to carry a gap
    rng = np.random.default_rng(83)
    pair = random_pair(rng, horizon_T=horizon_T, start_k=1)
    policy = random_policy(rng, pair)
    traj = enumerate_trajectory_expectations(pair, policy)
    assert traj.epsilon == 0.0
    assert traj.per_step_m.size == 0 and traj.thresholds.size == 0
    rep = bound_report(pair, policy,
                       ValueQuery(Belief(pair.original.initial_belief), 0.25))
    assert all(math.isfinite(x) for x in (rep.lower_uniform, rep.upper_uniform,
                                          rep.lower_tight, rep.q_true))
    problem = tmp_path / "p.json"
    save_problem(problem, pair, policy)
    rc, text = run_cli(["enumerate", "--problem", str(problem),
                        "--alpha", "0.25,0.9"], tmp_path / "r.json")
    assert rc == 0
    assert [r["value"] for r in records_of(text, "epsilon")] == [0.0]


def test_enumerate_malformed_problem_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"transition": [[1.0]]}')
    rc, _ = run_cli(["enumerate", "--problem", str(bad)], tmp_path / "r.json")
    assert rc == 2
    assert "missing field" in capsys.readouterr().err
    rc = main(["enumerate", "--problem", str(tmp_path / "absent.json")])
    assert rc == 2


@pytest.mark.parametrize("field, edit, says", [
    ("states", lambda doc: doc.pop("states"), "missing field"),
    ("actions", lambda doc: doc.pop("actions"), "missing field"),
    ("observations", lambda doc: doc.pop("observations"), "missing field"),
    ("states", lambda doc: doc.update(states=None), "finite number"),
    ("horizon_T", lambda doc: doc.update(horizon_T=None), "finite number"),
    ("start_k", lambda doc: doc.update(start_k=None), "finite number"),
    ("policy", lambda doc: doc["policy"][0].__setitem__(0, 0.5), "must be integral"),
    # past the int64 range: no wrapped cast, no NumPy RuntimeWarning
    ("horizon_T", lambda doc: doc.update(horizon_T=1e20), "int64 range"),
    ("start_k", lambda doc: doc.update(start_k=-1e19), "int64 range"),
    ("states", lambda doc: doc.update(states=1e19), "int64 range"),
    ("policy", lambda doc: doc["policy"][0].__setitem__(0, 2**64), "int64 range"),
    ("policy", lambda doc: doc.update(policy=[[2**70, 1.0]]), "int64 range"),
    # JSON numbers only: numeric text and booleans are not read as numbers
    ("horizon_T", lambda doc: doc.update(horizon_T="2"), "finite number"),
    ("r_max", lambda doc: doc.update(r_max="1.0"), "finite number"),
    ("transition", lambda doc: doc["transition"][0].__setitem__(
        0, [str(p) for p in doc["transition"][0][0]]), "finite number array"),
    ("horizon_T", lambda doc: doc.update(horizon_T=True), "finite number"),
    # finite, but 2 * r_max * (T - k + 1) with T - k + 1 = 5 is not: no NumPy warning
    ("r_max", lambda doc: doc.update(r_max=1e308), "return range"),
    ("r_max", lambda doc: doc.update(r_max=3e307), "return range"),
], ids=["no-states", "no-actions", "no-observations", "null-states",
        "null-horizon_T", "null-start_k", "fractional-policy", "huge-horizon_T",
        "huge-negative-start_k", "huge-states", "huge-policy", "huge-policy-beside-float",
        "string-horizon_T", "string-r_max", "string-transition", "boolean-horizon_T",
        "r_max-1e308", "r_max-3e307"])
def test_invalid_problem_field_exits_2_naming_it(tmp_path, capsys, field, edit, says):
    spec = builtin("two_state_sensor")
    doc = pomdp.to_problem_dict(spec.pair, spec.policy)
    edit(doc)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(doc))
    rc, _ = run_cli(["enumerate", "--problem", str(problem)], tmp_path / "r.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err and says in err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_deeply_nested_problem_file_exits_2_as_invalid_json(tmp_path, capsys):
    # the JSON decoder recurses once per level; past the recursion limit the
    # file is reported as invalid JSON, not with a RecursionError traceback
    problem = tmp_path / "p.json"
    problem.write_text("[" * 100_000)
    rc, _ = run_cli(["enumerate", "--problem", str(problem)], tmp_path / "r.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem file is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_problem_policy_int_beside_a_float_is_read_exactly(tmp_path, capsys):
    # 2**63 - 1 fits int64 but is no action; through float64 it would be 2**63
    spec = builtin("two_state_sensor")
    doc = pomdp.to_problem_dict(spec.pair, spec.policy)
    doc["policy"][0] = [2**63 - 1, 1.0]
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(doc))
    rc, _ = run_cli(["enumerate", "--problem", str(problem)], tmp_path / "r.json")
    assert rc == 2
    assert capsys.readouterr().err == "error: policy references an action out of range\n"


@pytest.mark.parametrize("command", ["certify", "concentration", "concentration --trials 0"])
@pytest.mark.parametrize("horizon_T, start_k", [(4, 3), (4, 4), (1, 0)])
def test_no_interior_step_exits_2_naming_the_horizon(tmp_path, capsys, command,
                                                     horizon_T, start_k):
    # enumerate reports zero gaps here, but the proposal needs interior atoms;
    # zero trials check the problem all the same
    rng = np.random.default_rng(5)
    pair = random_pair(rng, horizon_T=horizon_T, start_k=start_k)
    problem = tmp_path / "p.json"
    save_problem(problem, pair, random_policy(rng, pair))
    rc, _ = run_cli([*command.split(), "--problem", str(problem)], tmp_path / "r.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert "interior step (start_k + 1 <= horizon_T - 1)" in err
    assert f"horizon_T={horizon_T}, start_k={start_k}" in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "absent" / "r.json"
    rc = main(["enumerate", "--scenario", "corridor4", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_enumerate_budget_exceeded_exits_3(tmp_path, monkeypatch):
    def blow_up(*args, **kwargs):
        raise BudgetExceededError("enumeration frontier exceeds leaf budget")

    monkeypatch.setattr("riskgap.cli.enumerate_return_distribution", blow_up)
    rc, _ = run_cli(["enumerate", "--scenario", "two_state_sensor"],
                    tmp_path / "r.json")
    assert rc == 3


def test_degenerate_rollout_weights_exit_2_with_hint(tmp_path, monkeypatch, capsys):
    def zero_likelihood(*args, **kwargs):
        raise DegenerateWeightsError(
            "all 200 particle weights of rollout 7 are zero after the "
            "observation reweight at step 2")

    monkeypatch.setattr("riskgap.cli._simplified_return_pool", zero_likelihood)
    rc, _ = run_cli(["concentration", "--scenario", "two_state_sensor",
                     "--trials", "1", "--v", "0.3"],
                    tmp_path / "r.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert "rollout pool:" in err and "at step 2" in err
    assert "are zero" in err and "--particles" in err


def test_certify_report_lists_ndelta_bounds_and_radii(tmp_path):
    rc, text = run_cli(
        ["certify", "--scenario", "two_state_sensor", "--alpha", "0.25,0.9",
         "--rollouts", "120", "--particles", "80", "--seed", "7"],
        tmp_path / "r.json")
    assert rc == 0
    manifest = json.loads(text)["manifest"]
    assert manifest["ndelta_derived"] is True
    assert manifest["ndelta"] >= 1
    assert "n_delta_for_uniform_bounds" in manifest["ndelta_formula"]
    assert "n_delta_for_tight_lower" in manifest["ndelta_formula"]

    proposal = records_of(text, "proposal")
    assert len(proposal) == 1 and proposal[0]["importance_bound"] >= 1.0

    bounds = records_of(text, "certified_bound")
    by_alpha = {}
    for b in bounds:
        by_alpha.setdefault(b["alpha"], []).append(b["bound_kind"])
        assert b["n_delta_used"] == manifest["ndelta"]
        assert b["c_used"] == 120
        assert "radius_epsilon_hat" in b or b["bound_kind"] == "TightLower"
    # epsilon_hat ~ 0.58 sits above alpha=0.25 (upper omitted) and below 0.9
    assert by_alpha[0.25] == ["L1", "TightLower"]
    assert by_alpha[0.9] == ["L2", "U", "TightLower"]

    # exact values are enumerate's records, not certify's
    assert records_of(text, "q_exact") == []
    # certified bounds must sit on the correct side of the exact value
    spec = builtin("two_state_sensor")
    for b in bounds:
        if b["bound_kind"] == "U":
            query = _initial_query(spec.pair, b["alpha"])
            assert b["value"] >= q_exact(spec.pair, spec.policy, query) - 1e-9


def test_certify_ndelta_grows_when_delta_halves(tmp_path):
    sizes = {}
    for delta in ("0.1", "0.05"):
        _, text = run_cli(
            ["certify", "--scenario", "two_state_sensor", "--delta", delta,
             "--rollouts", "40", "--particles", "40"],
            tmp_path / f"r{delta}.json")
        sizes[delta] = json.loads(text)["manifest"]["ndelta"]
    assert sizes["0.05"] > sizes["0.1"]


def test_certify_byte_identical_across_runs_and_workers(tmp_path):
    # the output path is part of the manifest echo, so reuse one path
    out = tmp_path / "r.json"
    outputs = []
    for workers in ("1", "4", "1"):
        rc, text = run_cli(
            ["certify", "--scenario", "two_state_sensor", "--alpha", "0.25,0.9",
             "--rollouts", "150", "--particles", "100", "--seed", "11",
             "--workers", workers], out)
        assert rc == 0
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]


def test_certify_explicit_ndelta_below_rate_exits_2(tmp_path, capsys):
    rc, _ = run_cli(["certify", "--scenario", "two_state_sensor",
                     "--ndelta", "50"], tmp_path / "r.json")
    assert rc == 2
    assert "certified-rate requirement" in capsys.readouterr().err


def test_certify_ndelta_one_below_the_binding_rate_exits_2(tmp_path, capsys):
    # the binding requirement is the larger of the two certificates' rates
    # at the CLI defaults: v = 0.1, delta = 0.1, eta = 0.25, 8 bins
    spec = builtin("two_state_sensor")
    m = spec.pair.original
    b = build_default_proposal(spec.pair, spec.policy).importance_bound
    need = max(n_delta_for_uniform_bounds(0.1, 0.1, b, m.horizon_T, m.start_k),
               n_delta_for_tight_lower(0.25, 0.1, b, 8, m.horizon_T, m.start_k))
    args = ["certify", "--scenario", "two_state_sensor", "--rollouts", "60",
            "--particles", "50"]
    rc, _ = run_cli([*args, "--ndelta", str(need - 1)], tmp_path / "r.json")
    assert rc == 2
    assert f"certified-rate requirement {need}" in capsys.readouterr().err
    rc, text = run_cli([*args, "--ndelta", str(need)], tmp_path / "r.json")
    assert rc == 0
    assert json.loads(text)["manifest"]["ndelta"] == need


def test_certify_draws_one_pool_and_one_importance_draw(tmp_path, monkeypatch):
    calls = dict.fromkeys(("rollout_returns", "_sampled_gaps", "_draw_counts"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(estimation, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(estimation, name, counted)
    rc, text = run_cli(["certify", "--scenario", "two_state_sensor",
                        "--alpha", "0.25,0.9", "--rollouts", "60",
                        "--particles", "50", "--seed", "5"], tmp_path / "r.json")
    assert rc == 0
    assert {r["alpha"] for r in records_of(text, "certified_bound")} == {0.25, 0.9}
    # the importance draw from the proposal and the dominated law's count draw
    assert calls == {"rollout_returns": 1, "_sampled_gaps": 1, "_draw_counts": 2}


@pytest.mark.parametrize("scenario", builtin_names())
def test_certify_reads_the_original_model_only_for_the_proposal_gaps(
        tmp_path, monkeypatch, scenario):
    # the original model is read offline, once per TV gap of the proposal
    # build; the online pass (the rollout pool and the levels) reads the
    # simplified model and q0 alone. Under ROADMAP item 1's fix B, a step-k
    # transition from the original model, it would read one step at b_k per pool.
    phase = ["setup"]
    reads = dict.fromkeys(("setup", "proposal", "online"), 0)
    tv_calls = dict.fromkeys(reads, 0)
    enumerations = []

    def tensors(self, model, _fn=pomdp.SimplifiedPair.tensors):
        reads[phase[0]] += model == "original"
        return _fn(self, model)

    def tv_distance(*args, _fn=pomdp.tv_distance):
        tv_calls[phase[0]] += 1
        return _fn(*args)

    def proposal(*args, _fn=build_default_proposal, **kwargs):
        phase[0] = "proposal"
        q0 = _fn(*args, **kwargs)
        phase[0] = "online"
        return q0

    monkeypatch.setattr(pomdp.SimplifiedPair, "tensors", tensors)
    monkeypatch.setattr(pomdp, "tv_distance", tv_distance)
    monkeypatch.setattr("riskgap.cli.build_default_proposal", proposal)
    for module in ("pomdp", "value_bounds", "cli"):
        monkeypatch.setattr(f"riskgap.{module}.enumerate_return_distribution",
                            lambda *args, **kwargs: enumerations.append(args))
    rc, _ = run_cli(["certify", "--scenario", scenario, "--alpha", "0.25,0.9",
                     "--rollouts", "60", "--particles", "50", "--seed", "5"],
                    tmp_path / "r.json")
    assert rc == 0 and phase == ["online"]
    assert tv_calls["proposal"] > 0
    assert reads == {"setup": 0, "proposal": tv_calls["proposal"], "online": 0}
    assert enumerations == []


@pytest.mark.parametrize("scenario", builtin_names())
def test_certify_bounds_equal_the_single_certificate_paths(scenario, capsys):
    # certify's bounds are the single-level wrappers' bounds: with the query's
    # config both read the same pool, the same _EPS draw and the same _GINV
    # draw, and certify's n_delta meets both rates; TightLower is also the
    # CVaR of the dominated law composed by hand from that draw's g estimate
    capsys.readouterr()
    assert main(["certify", "--scenario", scenario, "--alpha", "0.25,0.9",
                 "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    n_delta = report["manifest"]["ndelta"]
    spec = builtin(scenario)
    pair, policy = spec.pair, spec.policy
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 8)
    cfg = RolloutConfig(500, 200, _derived_seed(3, _SLOT_POOL))
    g_hat = estimate_g(q0, pair, policy, n_delta, grid.edges,
                       estimation._stream(cfg.rng_seed, _EPS))
    h_plus, _ = binned_h(g_hat, grid)
    returns = _simplified_return_pool(pair, policy, _initial_query(pair, 0.25), cfg)
    dist = lower_cdf_distribution(returns, h_plus, 0.25, grid.edges)
    counts = _draw_counts(dist.probs, n_delta,
                          estimation._stream(cfg.rng_seed, _GINV))
    law = DiscreteDistribution(dist.values, counts / n_delta)
    for alpha in (0.25, 0.9):
        query = _initial_query(pair, alpha)
        tight = certify_tight_lower(pair, policy, query, cfg, q0, n_delta, 0.25, 0.1,
                                    grid)
        assert tight == _tight_bound(law, alpha, 0.1, 0.25, n_delta, 500,
                                     _return_span(pair))
        expected = certify_uniform(pair, policy, query, cfg, q0, n_delta, 0.1, 0.1)
        expected.append(tight)
        got = [r for r in report["records"]
               if r["kind"] == "certified_bound" and r["alpha"] == alpha]
        assert got == [_bound_record(alpha, b) for b in expected]


def test_certify_inapplicable_case_exits_4(tmp_path, capsys):
    # v = 0.2 pushes epsilon_hat - 4v below zero on two_state_sensor
    rc, _ = run_cli(["certify", "--scenario", "two_state_sensor",
                     "--alpha", "0.25", "--v", "0.2", "--rollouts", "60",
                     "--particles", "50"], tmp_path / "r.json")
    assert rc == 4
    assert "no certified lower bound applies" in capsys.readouterr().err


def test_inapplicable_uniform_level_stays_local(tmp_path, capsys):
    # at v = 0.2, epsilon_hat - 4v leaves (0, 1) on the L1 branch (alpha 0.25)
    # but not on the L2 branch (alpha 0.9): only the 0.25 uniform outcomes
    # go unevaluated in concentration, while certify still refuses the run
    args = ["--scenario", "two_state_sensor", "--alpha", "0.25,0.9", "--v", "0.2"]
    rc, text = run_cli(["concentration", *args, "--trials", "3"], tmp_path / "r.json")
    assert rc == 0
    evaluated = {(r["name"], r["alpha"]): r["evaluated"] for r in records_of(text)
                 if r["name"] in ("uniform_lower", "uniform_upper", "tight_lower")}
    assert evaluated == {("uniform_lower", 0.25): 0, ("uniform_upper", 0.25): 0,
                         ("uniform_lower", 0.9): 3, ("uniform_upper", 0.9): 3,
                         ("tight_lower", 0.25): 3, ("tight_lower", 0.9): 3}
    rc, _ = run_cli(["certify", *args], tmp_path / "c.json")
    assert rc == 4
    assert "no certified lower bound applies" in capsys.readouterr().err


def test_pools_per_query_and_per_trial(tmp_path, monkeypatch):
    # certify draws one pool per query at any number of levels; a
    # concentration trial draws one, read by the CVaR estimates and both
    # certificate kinds
    pools = []
    draw = estimation._simplified_return_pool

    def counted(*args, **kwargs):
        pools.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(estimation, "_simplified_return_pool", counted)
    monkeypatch.setattr("riskgap.cli._simplified_return_pool", counted)
    common = ["--scenario", "two_state_sensor", "--rollouts", "60", "--particles", "50"]
    for alphas in ("0.25", "0.1,0.25,0.5,0.9"):
        pools.clear()
        assert run_cli(["certify", *common, "--alpha", alphas],
                       tmp_path / "c.json")[0] == 0
        assert len(pools) == 1
    pools.clear()
    assert run_cli(["concentration", *common, "--alpha", "0.25,0.9", "--trials", "4"],
                   tmp_path / "r.json")[0] == 0
    assert len(pools) == 4


def test_concentration_certificates_read_the_trial_pool(tmp_path, monkeypatch):
    # trial t's uniform and TightLower certificates are _certify_levels on
    # the trial's one _SLOT_POOL pool, with the _SLOT_UNIF and _SLOT_TIGHT
    # draw seeds, each at its own formula N_delta
    calls = []

    def recorded(pair, policy, query, returns, draw_seed, *args, **kwargs):
        levels = _certify_levels(pair, policy, query, returns, draw_seed, *args,
                                 **kwargs)
        calls.append((returns.copy(), draw_seed, repr(levels)))
        return levels

    monkeypatch.setattr("riskgap.cli._certify_levels", recorded)
    seed, alphas = 9, (0.25, 0.9)
    assert run_cli(["concentration", "--scenario", "two_state_sensor", "--alpha",
                    "0.25,0.9", "--rollouts", "60", "--particles", "50",
                    "--trials", "2", "--seed", str(seed)], tmp_path / "r.json")[0] == 0
    spec = builtin("two_state_sensor")
    pair, policy, m = spec.pair, spec.policy, spec.pair.original
    q0 = build_default_proposal(pair, policy)
    b, grid = q0.importance_bound, BinGrid.uniform(pair, 8)
    query = _initial_query(pair, 0.25)
    n_uniform = n_delta_for_uniform_bounds(0.1, 0.1, b, m.horizon_T, m.start_k)
    n_tight = n_delta_for_tight_lower(0.25, 0.1, b, 8, m.horizon_T, m.start_k)
    expected = []
    for t in range(2):
        pool = _simplified_return_pool(pair, policy, query, RolloutConfig(
            60, 50, _derived_seed(seed, _SLOT_POOL, t)))
        uniform = _derived_seed(seed, _SLOT_UNIF, t)
        tight = _derived_seed(seed, _SLOT_TIGHT, t)
        expected += [(pool, uniform, _certify_levels(pair, policy, query, pool, uniform,
                                                     q0, n_uniform, 0.1, alphas, v=0.1)),
                     (pool, tight, _certify_levels(pair, policy, query, pool, tight, q0,
                                                   n_tight, 0.1, alphas, eta=0.25,
                                                   grid=grid))]
    assert len(calls) == len(expected)
    for (returns, draw_seed, levels), (pool, want_seed, want) in zip(calls, expected):
        assert np.array_equal(returns, pool)
        assert draw_seed == want_seed
        assert levels == repr(want)


@pytest.mark.parametrize("argv", (
    ["enumerate"],
    ["certify", "--rollouts", "60", "--particles", "50"],
    ["concentration", "--trials", "1", "--rollouts", "60", "--particles", "50"],
), ids=lambda argv: argv[0])
def test_one_op_leaves_numpy_ma_unimported(argv):
    # numpy.ma costs a process about 1 MB of resident memory, and np.unique
    # (so np.union1d) and np.median import it; a fresh interpreter shows it
    script = ("import contextlib, io, sys\n"
              "from riskgap.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = main(sys.argv[1:])\n"
              "print(rc, 'numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, "--scenario", "two_state_sensor"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120)
    assert done.stdout == "0 False\n", done.stderr


@pytest.mark.parametrize("argv, kind, field, alpha", [
    pytest.param(["certify", "--scenario", "corridor4", "--alpha", "1e-308"],
                 "certified_bound", "radius_lambda_1", "1e-308", id="certify-1e-308"),
    pytest.param(["enumerate", "--scenario", "two_state_sensor", "--alpha", "1e-320"],
                 "bound", "value", "1e-320", id="enumerate-1e-320")])
def test_non_finite_report_exits_2_naming_kind_field_and_alpha(capsys, argv, kind, field,
                                                              alpha):
    # a level this small makes a radius or a bound infinite or NaN, which no
    # JSON document can hold: nothing is written, and the message names where
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind} record field {field!r} is ")
    assert f"at alpha {alpha};" in captured.err and captured.err.count("\n") == 1


def test_manifest_fields_are_the_parser_dests():
    # a manifest holds the flags and the command, nothing a command derives;
    # certify echoes its derived ndelta formula, every other report false and ""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
    assert ({f.name for f in dataclasses.fields(RunManifest)}
            == dests - {"help", "workers"} | {"command"})
    echo = RunManifest(command="certify", scenario="corridor4").to_dict()
    assert (echo["ndelta_derived"], echo["ndelta_formula"]) == (False, "")


def test_concentration_zero_trials_empty_report(tmp_path):
    rc, text = run_cli(["concentration", "--scenario", "two_state_sensor",
                        "--trials", "0"], tmp_path / "r.json")
    assert rc == 0
    assert records_of(text) == []


def test_concentration_small_run_schema(tmp_path):
    rc, text = run_cli(
        ["concentration", "--scenario", "two_state_sensor", "--alpha", "0.25",
         "--trials", "3", "--rollouts", "80", "--particles", "60",
         "--v", "0.25", "--seed", "4"],
        tmp_path / "r.json")
    assert rc == 0
    recs = records_of(text)
    assert recs and all(r["kind"] == "guarantee" for r in recs)
    names = {r["name"] for r in recs}
    assert names == {"cvar_estimate_upper", "cvar_estimate_lower",
                     "epsilon_within_2v", "g_pointwise", "h_envelope_uniform",
                     "uniform_lower", "uniform_upper", "tight_lower"}
    for r in recs:
        assert r["trials"] == 3
        assert 0 <= r["violations"] <= r["evaluated"] <= 3
        assert isinstance(r["passed"], bool)
    # at v=0.25 the shifted tail level is negative, so the uniform bounds
    # are never emitted: their records count zero evaluated trials
    uniform = [r for r in recs if r["name"].startswith("uniform_")]
    assert all(r["evaluated"] == 0 for r in uniform)
    tight = [r for r in recs if r["name"] == "tight_lower"]
    assert all(r["evaluated"] == 3 for r in tight)


def test_concentration_walks_the_simplified_model_once(tmp_path, monkeypatch):
    # the exact gaps are the proposal's own atoms, exactly weighted
    walks = []
    walk = pomdp._walk_simplified

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr("riskgap.pomdp._walk_simplified", counted)
    monkeypatch.setattr("riskgap.estimation._walk_simplified", counted)
    rc, _ = run_cli(["concentration", "--scenario", "two_state_sensor",
                     "--trials", "2", "--rollouts", "60", "--particles", "50",
                     "--v", "0.3", "--seed", "9"], tmp_path / "r.json")
    assert rc == 0
    assert len(walks) == 1


def test_concentration_deterministic_across_workers(tmp_path):
    out = tmp_path / "r.json"
    texts = []
    for workers in ("1", "4"):
        rc, text = run_cli(
            ["concentration", "--scenario", "two_state_sensor", "--trials", "4",
             "--rollouts", "60", "--particles", "50", "--v", "0.3",
             "--seed", "9", "--workers", workers], out)
        assert rc == 0
        texts.append(text)
    assert texts[0] == texts[1]


# sha256 of stdout reports (the manifest echoes --out, so none is given).
# A change that moves any report byte on purpose re-pins these and lists
# the fields that changed.
PINNED_REPORTS = {
    "certify-corridor4":
        "85de91e6ae61e7023666a9355bab8135262e22a4add9eaee5e6294a49b22f4b9",
    "certify-degrade_heavy":
        "6bcb85df1674501949bf97d9e79a83dab6cfdb2ba685ad5900476281ab61156c",
    "certify-two_state_sensor":
        "cd66f5e15af920b5f3cd6218ef0e5ffc0f11ac6bd292df9e9714875559aa3fae",
    "concentration-two_state_sensor":
        "e73a348249bbb75b7e42bb2f3e493d1f6bd4c353b3bae485a55369ecf644c1b5",
    "enumerate-corridor4":
        "367e9532d73e46a6a6bf95daeaef417c4cddd11dd904bc4212e59bf77a358da0",
    "enumerate-degrade_heavy":
        "c5a9d3abc32ee622e3618f494bceca2277395c105da087a1a2ca8b8fff7cc010",
    "enumerate-two_state_sensor":
        "45513ad206d8abfd577f6c6b904c3f9c603906654356dc1a53d9edb78839fb21",
}
PINNED_ARGS = {"certify": ["--seed", "3"], "concentration": ["--trials", "2", "--seed", "11"],
               "enumerate": []}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_match_pinned_digests(name, capsys):
    command, scenario = name.split("-")
    capsys.readouterr()
    assert main([command, "--scenario", scenario, "--alpha", "0.25,0.9",
                 *PINNED_ARGS[command]]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[name]


# sha256 of `enumerate` reports on noisy 9-state random pairs, keyed by seed:
# 9 states is past the 8 entries from which NumPy's own sum would go pairwise.
PINNED_NINE_STATE_REPORTS = {
    1: "749882267b576f49e381908bbda4cc2a09e987a0ed2defb2b8f239a172a26e55",
    2: "7f74f129040d5236616ee4b501200cd0084a341926a8913a51d2efbf2958d02c",
    3: "8bedf58067fcd31226278b90d4068d5a533d1151f87a2d81714f29aa61bb4a5b",
}


def _save_nine_state_problem(seed: int, directory: Path) -> None:
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, n_states=9, horizon_T=4)
    save_problem(directory / "p.json", pair, random_policy(rng, pair))


@pytest.mark.parametrize("seed", sorted(PINNED_NINE_STATE_REPORTS))
def test_nine_state_reports_match_pinned_digests(seed, tmp_path, monkeypatch, capsys):
    _save_nine_state_problem(seed, tmp_path)
    monkeypatch.chdir(tmp_path)  # the manifest echoes the relative path
    capsys.readouterr()
    assert main(["enumerate", "--problem", "p.json", "--alpha", "0.25,0.9"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_NINE_STATE_REPORTS[seed]


# prints the sha256 of each (directory, argv) report in a fresh interpreter
_DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, os, sys
from riskgap.cli import main
for cwd, argv in json.loads(sys.argv[1]):
    os.chdir(cwd)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.parametrize("setting", [
    {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "AVX512F AVX512CD AVX512_SKX"}],
    ids=lambda setting: "-".join(setting.values()).replace(" ", "-"))
def test_pinned_reports_match_under_other_cpu_kernels(setting, tmp_path):
    # OpenBLAS picks its kernel from the CPU, and NumPy its SIMD loops; each
    # setting makes this process's choice another CPU's, which moved six pins
    # while a BLAS call computed reported numbers
    runs = [(str(tmp_path), [name.split("-")[0], "--scenario", name.split("-")[1],
                             "--alpha", "0.25,0.9", *PINNED_ARGS[name.split("-")[0]]])
            for name in sorted(PINNED_REPORTS)]
    for seed in sorted(PINNED_NINE_STATE_REPORTS):
        (tmp_path / str(seed)).mkdir()
        _save_nine_state_problem(seed, tmp_path / str(seed))
        runs.append((str(tmp_path / str(seed)),
                     ["enumerate", "--problem", "p.json", "--alpha", "0.25,0.9"]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, json.dumps(runs)],
                          env={**os.environ, **setting, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    want = [PINNED_REPORTS[name] for name in sorted(PINNED_REPORTS)]
    want += [PINNED_NINE_STATE_REPORTS[seed] for seed in sorted(PINNED_NINE_STATE_REPORTS)]
    assert done.stdout.split() == want


def test_csv_rows_match_json_records(tmp_path):
    args = ["enumerate", "--scenario", "corridor4", "--alpha", "0.1,0.5"]
    _, json_text = run_cli(args, tmp_path / "r.json")
    _, csv_text = run_cli([*args, "--format", "csv"], tmp_path / "r.csv")
    records = json.loads(json_text)["records"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        for key, value in rec.items():
            cell = row[key]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)
        # fields absent from the record are blank in its row
        for key in set(row) - set(rec):
            assert row[key] == ""


def test_validate_report_rejects_bad_shapes():
    good = {"schema_version": SCHEMA_VERSION, "manifest": {},
            "records": [{"kind": "epsilon", "value": 0.0}]}
    validate_report(good)
    with pytest.raises(ValueError, match="record kind"):
        validate_report({**good, "records": [{"kind": "mystery"}]})
    with pytest.raises(ValueError, match="scalar"):
        validate_report({**good,
                         "records": [{"kind": "epsilon", "value": [1.0]}]})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^q_exact record field 'value' is {bad} "
                                             "at alpha 0.25; "):
            validate_report({**good, "records": [
                {"kind": "q_exact", "alpha": 0.25, "model": "original", "value": bad}]})
    with pytest.raises(ValueError, match="envelope"):
        validate_report({"manifest": {}, "records": []})
    with pytest.raises(ValueError, match="schema_version"):
        validate_report({**good, "schema_version": 99})


def test_binomial_pass_threshold_matches_exact_tail():
    n, p = 20, 0.25

    def tail(k):
        return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j)
                   for j in range(k, n + 1))

    threshold = binomial_pass_threshold(n, p)
    assert tail(threshold) >= 0.01 > tail(threshold + 1)
    assert binomial_pass_threshold(0, p) == 0
    # more trials permit proportionally more violations
    assert binomial_pass_threshold(1000, 0.1) > binomial_pass_threshold(100, 0.1)


def test_alpha_parsing_rejects_bad_levels(tmp_path):
    for bad in ("0", "1", "1.0", "1.5", "", "a,b"):
        rc = main(["enumerate", "--scenario", "two_state_sensor",
                   "--alpha", bad, "--out", str(tmp_path / "r.json")])
        assert rc == 2


def test_repeated_alpha_level_exits_2_naming_it(tmp_path, capsys):
    for command in ("enumerate", "certify", "concentration"):
        rc = main([command, "--scenario", "two_state_sensor",
                   "--alpha", "0.25,0.9,0.250", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --alpha must list one level or more, each once, got (0.25, 0.9, 0.25)\n")
    assert not (tmp_path / "r.json").exists()


# the flags of each command; enumerate runs the exact oracle, which reads
# none of the Monte-Carlo flags
COMMAND_FLAGS = {"enumerate": {"--problem", "--scenario", "--alpha", "--bins",
                               "--out", "--format"}}
COMMAND_FLAGS["certify"] = COMMAND_FLAGS["enumerate"] | {
    "--delta", "--v", "--eta", "--rollouts", "--particles", "--ndelta", "--seed",
    "--workers"}
COMMAND_FLAGS["concentration"] = COMMAND_FLAGS["certify"] | {"--trials"}


def test_each_command_takes_only_the_flags_it_reads(monkeypatch):
    declared = []
    add_argument = argparse._ActionsContainer.add_argument

    def recording(self, *names, **kwargs):
        declared.extend(names)
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMAND_FLAGS)
    for name, sub in commands.choices.items():
        taken = {s for a in sub._actions for s in a.option_strings}
        assert taken - {"-h", "--help"} == COMMAND_FLAGS[name], name
    # each flag is declared once, not once per command that takes it
    flags = [n for n in declared if n not in ("-h", "--help")]
    assert sorted(flags) == sorted(COMMAND_FLAGS["concentration"])


@pytest.mark.parametrize("command, flag", [
    *(("enumerate", flag) for flag in sorted(COMMAND_FLAGS["concentration"]
                                             - COMMAND_FLAGS["enumerate"])),
    ("certify", "--trials")])
def test_flag_a_command_does_not_read_exits_2(capsys, command, flag):
    rc = main([command, "--scenario", "two_state_sensor", flag, "1"])
    assert rc == 2
    # the command's parser reports it, with the command's usage
    err = capsys.readouterr().err
    assert err.startswith(f"usage: riskgap {command} [-h] ")
    assert err.endswith(f"riskgap {command}: error: unrecognized arguments: {flag} 1\n")


def test_parse_args_reports_an_unknown_flag_with_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["enumerate", "--scenario", "corridor4", "--seed", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: riskgap enumerate [-h] (--problem PATH | --scenario NAME)")
    assert "{enumerate,certify,concentration}" not in err
    assert err.endswith("riskgap enumerate: error: unrecognized arguments: --seed 7\n")


def stated_defaults(command) -> dict:
    """flag -> the default that ``riskgap <command> --help`` states for it."""
    out = io.StringIO()
    with pytest.raises(SystemExit), contextlib.redirect_stdout(out):
        build_parser().parse_args([command, "--help"])
    entries = re.split(r"\n  (?=--)", out.getvalue().split("options:\n", 1)[1])
    return {entry.split()[0]: found.group(1) for entry in entries
            if (found := re.search(r"\(default: (.*)\)$", " ".join(entry.split())))}


def assert_manifest_default(command, flag, text):
    """Parsing ``flag text`` gives the manifest that omitting the flag gives."""
    if flag == "--out":  # no path: the report goes to stdout
        assert text == "stdout" and RunManifest(command=command).out is None
        return
    args = build_parser().parse_args([command, "--scenario", "corridor4", flag, text])
    assert _manifest_from_args(args) == RunManifest(command=command, scenario="corridor4")


# the source pair is required, and --workers is no manifest field
NO_DEFAULT = {"--problem", "--scenario", "--workers"}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_states_each_flags_manifest_default(command):
    stated = stated_defaults(command)
    assert set(stated) == COMMAND_FLAGS[command] - NO_DEFAULT
    for flag, text in stated.items():
        assert_manifest_default(command, flag, text)


_PAST_FLOAT = "1" + "0" * 400  # 10**400, a count no float holds
_PAST_MEMORY = str(10**18)  # 10**18 rollouts, particles or bins: 6.94 EiB of float64


@pytest.mark.parametrize("flag, value, command", [
    (flag, value, command)
    for flag, value, commands in (
        ("--seed", "-1", ("certify", "concentration")),
        ("--bins", "0", ("enumerate", "certify", "concentration")),
        ("--bins", "-3", ("enumerate", "certify", "concentration")),
        ("--rollouts", "0", ("certify", "concentration")),
        ("--particles", "0", ("certify", "concentration")),
        ("--workers", "0", ("certify", "concentration")),
        ("--trials", "-1", ("concentration",)),
        ("--seed", _PAST_FLOAT, ("certify", "concentration")),
        ("--trials", _PAST_FLOAT, ("concentration",)),
        ("--rollouts", _PAST_MEMORY, ("certify",)),
        ("--particles", _PAST_MEMORY, ("certify",)),
        ("--bins", _PAST_MEMORY, ("enumerate",)))
    for command in commands], ids=lambda x: {_PAST_FLOAT: "10**400", _PAST_MEMORY: "10**18"}.get(x))
def test_out_of_range_count_flag_exits_2_naming_it(tmp_path, capsys, command,
                                                   flag, value):
    rc = main([command, "--scenario", "two_state_sensor", flag, value,
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    if value == _PAST_MEMORY:  # a valid count whose one array NumPy refuses at once
        assert err.startswith("error: Unable to allocate ")
        assert err.endswith("(a size flag asked for more memory than this machine has)\n")
        return
    message = (f"{flag} must lie in the float range, got a 1329-bit int"
               if value == _PAST_FLOAT else
               f"{flag} must be >= {0 if flag in ('--seed', '--trials') else 1}, got {value}")
    assert err == f"error: {message}\n"
    if flag != "--workers":  # runs are single-threaded, so no manifest field holds it
        # a manifest built in code passes the same rule, which names the flag
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunManifest(command=command, **{flag[2:]: int(value)})


_FLOAT_FLAG_CASES = [
    ("certify", "--v", "nan", "--v must be finite and > 0, got nan"),
    ("certify", "--v", "inf", "--v must be finite and > 0, got inf"),
    ("certify", "--eta", "inf", "--eta must be finite and > 0, got inf"),
    ("concentration", "--eta", "inf", "--eta must be finite and > 0, got inf"),
    ("concentration", "--v", "0", "--v must be finite and > 0, got 0.0"),
    ("certify", "--delta", "nan", "--delta must lie strictly inside (0, 1), got nan"),
    ("concentration", "--delta", "1", "--delta must lie strictly inside (0, 1), got 1.0"),
    ("enumerate", "--alpha", "0.5,nan", "--alpha must lie strictly inside (0, 1), got nan")]


@pytest.mark.parametrize("command, flag, value, message", _FLOAT_FLAG_CASES,
                         ids=[f"{c}-{f}-{v}" for c, f, v, _ in _FLOAT_FLAG_CASES])
def test_out_of_range_float_flag_exits_2_naming_it(tmp_path, capsys, command, flag,
                                                   value, message):
    rc = main([command, "--scenario", "two_state_sensor", flag, value,
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()
    parsed = levels(value) if flag == "--alpha" else float(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunManifest(command=command, **{flag[2:]: parsed})


@pytest.mark.parametrize("field, value, message", [
    ("v", True, "--v must be a number, got True"),
    ("eta", "0.25", "--eta must be a number, got '0.25'"),
    ("delta", None, "--delta must be a number, got None"),
    ("alpha", (0.25, "0.5"), "--alpha must be a number, got '0.5'"),
    ("alpha", (), "--alpha must list one level or more, each once, got ()"),
    ("alpha", [0.25, np.float64(0.25)],
     "--alpha must list one level or more, each once, got (0.25, 0.25)"),
    ("rollouts", True, "--rollouts must be integral, got bool entries"),
    ("particles", 2.5, "--particles must be integral, got 2.5"),
    ("bins", "8", "--bins must be integral, got <U1 entries"),
    ("seed", -1, "--seed must be >= 0, got -1"),
    ("trials", np.nan, "--trials must be integral, got nan"),
    ("ndelta", 0, "--ndelta must be >= 1, got 0"),
    pytest.param("v", 10**400, "--v must be finite and > 0, got inf", id="v-10**400"),
    pytest.param("seed", 10**400, "--seed must lie in the float range, got a 1329-bit int",
                 id="seed-10**400"),
    ("alpha", 0.25, "--alpha must list one level or more, each once, got 0.25")])
def test_manifest_built_in_code_is_checked_as_argv_is(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunManifest(command="certify", **{field: value})


def test_manifest_stores_what_its_rules_return():
    # the first field in declaration order that fails is the one named
    with pytest.raises(ValueError, match=r"^--alpha must list .*, got \(0.25, 0.25\)$"):
        RunManifest(command="certify", rollouts=0, v=True, alpha=(0.25, 0.25))
    # fields are stored as the rules return them: floats, ints and a tuple of floats
    m = RunManifest(command="certify", alpha=[np.float64(0.5)], v=1, rollouts=np.int64(3),
                    ndelta=10.0)
    assert (m.alpha, m.v, m.rollouts, m.ndelta) == ((0.5,), 1.0, 3, 10)
    assert [type(x) for x in (m.alpha[0], m.v, m.rollouts, m.ndelta)] == [float, float, int, int]


@pytest.mark.parametrize("command, flag, value", [
    ("enumerate", "--alpha", "a,b"), ("certify", "--ndelta", "1e9")])
def test_unparsable_flag_value_exits_2_naming_it(capsys, command, flag, value):
    rc = main([command, "--scenario", "two_state_sensor", flag, value])
    assert rc == 2
    assert f"error: argument {flag}: invalid " in capsys.readouterr().err


# a huge accuracy, whose (v / gap) ** 2 is past the float range, needs one draw: with
# --v 1e200 no certified lower bound applies (exit 4), and --eta 1e200 certifies
_ONE_DRAW = {("certify", "--v", "1e200"): 4, ("certify", "--eta", "1e200"): 0}


@pytest.mark.parametrize("args", [
    ["certify", "--v", "1e-9"],
    ["concentration", "--v", "1e-9", "--trials", "1"],
    ["certify", "--ndelta", "99999999999999999999999"],
    # a formula's count past the float range: (v / gap) ** 2 underflows to 0 at 1e-300,
    # and the quotient overflows to inf at 1e-155 and 1e-160
    *([command, flag, tiny] + (["--trials", "1"] if command == "concentration" else [])
      for command in ("certify", "concentration") for flag in ("--v", "--eta")
      for tiny in ("1e-300", "1e-155", "1e-160")),
    *map(list, _ONE_DRAW),
])
def test_draw_count_past_the_multinomial_limit_exits_2(tmp_path, capsys, args):
    # numpy's multinomial takes its count as a C long
    rc = main([*args, "--scenario", "two_state_sensor", "--rollouts", "20",
               "--particles", "20", "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    if tuple(args) in _ONE_DRAW:
        assert (rc, err.count("n_delta")) == (_ONE_DRAW[tuple(args)], 0)
        return
    assert rc == 2
    assert err.startswith("error: n_delta ") and "outside [1, 2**63 - 1]" in err
    assert not (tmp_path / "r.json").exists()


def test_scenario_and_problem_are_exclusive(tmp_path):
    rc = main(["enumerate", "--scenario", "two_state_sensor",
               "--problem", "x.json"])
    assert rc == 2
    rc = main(["enumerate"])
    assert rc == 2
