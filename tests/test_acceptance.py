"""Acceptance gate: one test per release criterion, at the stated scales.

Each test prints a single summary line and enforces its runtime budget, so
`pytest -v tests/test_acceptance.py` reads as a pass/fail checklist.
"""

import json
import time

import numpy as np

from riskgap.cli import main as cli_main
from riskgap.envelopes import (
    PointwiseEnvelope,
    SupportBounds,
    cdf_gap_envelope,
    dominated_cdf,
    lower_case_tag,
    tight_lower,
    uniform_lower,
    uniform_upper,
    upper_case_tag,
)
from riskgap.estimation import (
    BinGrid,
    RolloutConfig,
    _simplified_return_pool,
    binned_h,
    build_default_proposal,
    certify_tight_lower,
    certify_uniform,
    estimate_epsilon,
    estimate_g,
    lower_cdf_distribution,
    n_delta_for_epsilon,
    n_delta_for_g,
    n_delta_for_h,
    n_delta_for_tight_lower,
    n_delta_for_uniform_bounds,
)
from riskgap.pomdp import (
    enumerate_return_distribution,
    enumerate_trajectory_expectations,
)
from riskgap.risk import (
    DiscreteDistribution,
    cvar_estimate_inf,
    cvar_estimate_sorted,
    cvar_exact,
    deviation_radii,
)
from riskgap.scenarios import builtin, builtin_names
from riskgap.value_bounds import ValueQuery, bound_report, q_exact

ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.9)
SANDWICH_ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
TOL = 1e-9


def _report(label, elapsed, budget, detail):
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS {label}: {detail} [{elapsed:.1f}s < {budget}s]")


def _random_dist(rng, max_atoms=12, lo=-3.0, hi=3.0):
    k = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.uniform(lo, hi, k))
    return DiscreteDistribution(values, rng.dirichlet(np.ones(k)))


def test_acceptance_01_dual_form_estimator_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        sample = rng.normal(0.0, 1.0, int(rng.integers(1, 201)))
        for alpha in ALPHAS:
            diff = abs(cvar_estimate_inf(sample, alpha)
                       - cvar_estimate_sorted(sample, alpha))
            worst = max(worst, diff)
            assert diff <= TOL
    _report("acceptance-01 dual-form estimator agreement",
            time.perf_counter() - start, 5.0, f"max |diff| {worst:.2e}")


def test_acceptance_02_coherence_of_exact_tail_value():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(1000):
        x = _random_dist(rng)
        shift = float(rng.uniform(-2.0, 2.0))
        scale = float(rng.uniform(0.1, 3.0))
        dominating = DiscreteDistribution(
            x.values + rng.uniform(0.0, 1.0, x.values.size), x.probs)
        for alpha in ALPHAS:
            base = cvar_exact(x, alpha)
            translated = cvar_exact(
                DiscreteDistribution(x.values + shift, x.probs), alpha)
            assert abs(translated - (base + shift)) <= TOL
            scaled = cvar_exact(
                DiscreteDistribution(x.values * scale, x.probs), alpha)
            assert abs(scaled - scale * base) <= TOL
            assert base <= cvar_exact(dominating, alpha) + TOL
    _report("acceptance-02 coherence of exact tail value",
            time.perf_counter() - start, 5.0,
            "translation, homogeneity, dominance-monotonicity x1000")


def test_acceptance_03_estimator_upper_deviation_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    n, alpha, delta, trials = 1000, 0.1, 0.05, 2000
    values = np.linspace(0.0, 1.0, 101)
    dist = DiscreteDistribution(values, np.full(101, 1.0 / 101.0))
    exact = cvar_exact(dist, alpha)
    radius = deviation_radii(n, alpha, delta, 1.0).upper
    violations = 0
    for _ in range(trials):
        sample = values[rng.integers(0, 101, n)]
        violations += exact - cvar_estimate_sorted(sample, alpha) > radius
    freq = violations / trials
    assert freq <= delta
    _report("acceptance-03 estimator upper-deviation rate",
            time.perf_counter() - start, 60.0,
            f"violation frequency {freq:.4f} <= {delta}")


def test_acceptance_04_uniform_gap_sandwich_all_cases():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    tag_counts = {}
    for _ in range(1000):
        x = _random_dist(rng, max_atoms=20, lo=-5.0, hi=5.0)
        if rng.random() < 0.5:
            jitter = x.values + rng.normal(0.0, 0.05, x.values.size)
            order = np.argsort(jitter)
            y = DiscreteDistribution(jitter[order], x.probs[order])
        else:
            y = _random_dist(rng, max_atoms=20, lo=-5.0, hi=5.0)
        eps = cdf_gap_envelope(x, y)[1]
        lo = min(x.values.min(), y.values.min())
        hi = max(x.values.max(), y.values.max())
        support = SupportBounds(lo, hi)
        target = {a: cvar_exact(x, a) for a in SANDWICH_ALPHAS}
        for alpha in SANDWICH_ALPHAS:
            lower = uniform_lower(y, alpha, eps, support)
            upper = uniform_upper(y, alpha, eps, support)
            assert lower <= target[alpha] + TOL
            assert target[alpha] <= upper + TOL
            for side, tag in (("upper", upper_case_tag(alpha, eps)),
                              ("lower", lower_case_tag(alpha, eps))):
                tag_counts[(side, tag)] = tag_counts.get((side, tag), 0) + 1
    assert len(tag_counts) == 4
    assert min(tag_counts.values()) >= 50, tag_counts
    _report("acceptance-04 uniform-gap sandwich",
            time.perf_counter() - start, 10.0,
            f"case counts {sorted(tag_counts.values())}")


def test_acceptance_05_dominated_cdf_lower_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(1000):
        x = _random_dist(rng)
        y = _random_dist(rng)
        env, _ = cdf_gap_envelope(x, y)
        slack = float(rng.uniform(0.0, 0.1))
        env = PointwiseEnvelope(env.breakpoints,
                                np.minimum(env.values + slack, 1.0))
        dominated = dominated_cdf(y, env)
        assert np.all(dominated.probs >= -1e-12)
        assert abs(dominated.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(dominated.values) > 0.0)
        for alpha in SANDWICH_ALPHAS:
            assert tight_lower(y, env, alpha) <= cvar_exact(x, alpha) + TOL
    _report("acceptance-05 dominated-CDF lower bound",
            time.perf_counter() - start, 10.0,
            "valid CDF and bound on 1000 conforming triples")


def test_acceptance_06_cumulative_gap_dominates_cdf_difference():
    start = time.perf_counter()
    for name in builtin_names():
        spec = builtin(name)
        pair, policy = spec.pair, spec.policy
        dist_p = enumerate_return_distribution(pair, policy, model="original")
        dist_s = enumerate_return_distribution(pair, policy, model="simplified")
        traj = enumerate_trajectory_expectations(pair, policy)
        m = pair.original
        span = m.r_max * (m.horizon_T - m.start_k + 1)
        grid = np.linspace(-span, span, 200)
        cdf_gap = np.abs(dist_p.cdf_at(grid) - dist_s.cdf_at(grid))
        g_vals = traj.g_at(grid)
        assert np.all(cdf_gap <= g_vals + TOL), name
        assert np.all(g_vals <= traj.epsilon + TOL), name
    _report("acceptance-06 cumulative gap dominates CDF difference",
            time.perf_counter() - start, 10.0,
            f"200-point grid on {len(builtin_names())} scenarios")


def test_acceptance_07_exact_value_sandwich_on_scenarios():
    start = time.perf_counter()
    degrade_tags = set()
    for name in builtin_names():
        spec = builtin(name)
        for alpha in ALPHAS:
            rep = bound_report(spec.pair, spec.policy,
                               ValueQuery(spec.default_query.belief, alpha))
            assert rep.lower_uniform <= rep.q_true + TOL, (name, alpha)
            assert rep.q_true <= rep.upper_uniform + TOL, (name, alpha)
            assert rep.lower_tight <= rep.q_true + TOL, (name, alpha)
            if name == "degrade_heavy":
                degrade_tags.add(("upper", rep.case_tags["upper"]))
                degrade_tags.add(("lower", rep.case_tags["lower"]))
    # the heavy-gap scenario must hit the large-gap regimes of both bounds
    assert ("upper", "support_cap") in degrade_tags
    assert ("lower", "mean_anchor") in degrade_tags
    _report("acceptance-07 exact-value sandwich on scenarios",
            time.perf_counter() - start, 15.0,
            f"{len(builtin_names())} scenarios x {len(ALPHAS)} levels")


def test_acceptance_08_gap_sum_estimator_rate():
    start = time.perf_counter()
    spec = builtin("two_state_sensor")
    pair, policy = spec.pair, spec.policy
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    traj = enumerate_trajectory_expectations(pair, policy)
    v, delta, trials = 0.1, 0.1, 500
    n_delta = n_delta_for_epsilon(v, delta, q0.importance_bound,
                                  m.horizon_T, m.start_k)
    violations = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((108, t)))
        eps_hat = estimate_epsilon(q0, pair, policy, n_delta, rng)
        violations += abs(eps_hat - traj.epsilon) > 2.0 * v
    freq = violations / trials
    assert freq <= delta
    _report("acceptance-08 gap-sum estimator rate",
            time.perf_counter() - start, 120.0,
            f"N={n_delta}, violation frequency {freq:.4f} <= {delta}")


def test_acceptance_09_gap_curve_and_envelope_rates():
    start = time.perf_counter()
    spec = builtin("two_state_sensor")
    pair, policy = spec.pair, spec.policy
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    traj = enumerate_trajectory_expectations(pair, policy)
    grid = BinGrid.uniform(pair, 8)
    v, delta, trials = 0.1, 0.1, 300
    nd_g = n_delta_for_g(v, delta, q0.importance_bound,
                         m.horizon_T, m.start_k)
    nd_h = n_delta_for_h(v, delta, q0.importance_bound, grid.n_bins,
                         m.horizon_T, m.start_k)
    g_exact_edges = traj.g_at(grid.edges)
    probe = np.linspace(grid.edges[0], grid.edges[-1], 200)
    g_exact_probe = traj.g_at(probe)
    g_violations = np.zeros(grid.edges.size, dtype=int)
    h_violations = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((109, t, 0)))
        g_hat = estimate_g(q0, pair, policy, nd_g, grid.edges, rng)
        g_violations += np.abs(g_hat - g_exact_edges) > v

        rng = np.random.default_rng(np.random.SeedSequence((109, t, 1)))
        g_for_h = estimate_g(q0, pair, policy, nd_h, grid.edges, rng)
        h_plus, h_minus = binned_h(g_for_h, grid)
        h_violations += bool(np.any(g_exact_probe - h_plus.at(probe) > v))
        # the binned envelopes bracket the estimated curve by construction
        assert np.all(h_minus.at(grid.edges) <= g_for_h + 1e-12)
        assert np.all(g_for_h <= h_plus.at(grid.edges) + 1e-12)
    assert np.all(g_violations / trials <= delta), g_violations
    assert h_violations / trials <= delta
    _report("acceptance-09 gap-curve and envelope rates",
            time.perf_counter() - start, 180.0,
            f"per-level worst {g_violations.max()}/{trials}, "
            f"envelope {h_violations}/{trials}")


def test_acceptance_10_certified_bound_rates():
    start = time.perf_counter()
    spec = builtin("two_state_sensor")
    pair, policy = spec.pair, spec.policy
    m = pair.original
    q0 = build_default_proposal(pair, policy)
    grid = BinGrid.uniform(pair, 8)
    v, eta, delta, trials = 0.1, 0.25, 0.1, 300
    nd_unif = n_delta_for_uniform_bounds(v, delta, q0.importance_bound,
                                         m.horizon_T, m.start_k)
    nd_tight = n_delta_for_tight_lower(eta, delta, q0.importance_bound,
                                       grid.n_bins, m.horizon_T, m.start_k)
    queries = {a: ValueQuery(spec.default_query.belief, a) for a in (0.25, 0.9)}
    truth = {a: q_exact(pair, policy, q) for a, q in queries.items()}
    counts = {key: 0 for key in
              ("L1@0.25", "L2@0.9", "U@0.9", "tight@0.25", "tight@0.9")}
    for t in range(trials):
        for alpha, query in queries.items():
            cfg = RolloutConfig(300, 150, int(np.random.SeedSequence(
                (110, t, int(alpha * 100), 0)).generate_state(1)[0]))
            bounds = certify_uniform(pair, policy, query, cfg, q0, nd_unif,
                                     v, delta)
            lower = next(b for b in bounds if b.kind in ("L1", "L2"))
            uppers = [b for b in bounds if b.kind == "U"]
            if alpha == 0.25:
                # estimated gap ~0.58 sits above this level: shifted-tail
                # lower bound applies and the upper bound is omitted
                assert lower.kind == "L1" and not uppers
                assert "u_omitted" in lower.radii
                slack = lower.radii["lambda_1"] + lower.radii["lambda_2"]
                counts["L1@0.25"] += lower.value - truth[alpha] > slack
            else:
                assert lower.kind == "L2" and uppers
                slack = lower.radii["eta_1"] + lower.radii["eta_2"]
                counts["L2@0.9"] += lower.value - truth[alpha] > slack
                counts["U@0.9"] += \
                    truth[alpha] - uppers[0].value > uppers[0].radii["lambda"]

            cfg_t = RolloutConfig(300, 150, int(np.random.SeedSequence(
                (110, t, int(alpha * 100), 1)).generate_state(1)[0]))
            tight = certify_tight_lower(pair, policy, query, cfg_t, q0,
                                        nd_tight, eta, delta, grid)
            counts[f"tight@{alpha}"] += tight.value - truth[alpha] > tight.v

            # the estimated dominated CDF must be a valid distribution
            rng = np.random.default_rng(np.random.SeedSequence(
                (110, t, int(alpha * 100), 2)))
            g_hat = estimate_g(q0, pair, policy, nd_tight, grid.edges, rng)
            h_plus, _ = binned_h(g_hat, grid)
            pool = _simplified_return_pool(pair, policy, query, cfg_t)
            dist = lower_cdf_distribution(pool, h_plus, eta, grid.edges)
            assert np.all(dist.probs >= -1e-12)
            assert abs(dist.probs.sum() - 1.0) <= 1e-9
            assert np.all(np.diff(dist.values) > 0.0)
    freqs = {key: val / trials for key, val in counts.items()}
    assert all(f <= delta for f in freqs.values()), freqs
    _report("acceptance-10 certified bound rates",
            time.perf_counter() - start, 300.0,
            "violations " + str({k: counts[k] for k in sorted(counts)}))


def test_acceptance_11_estimator_monotone_in_level():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    levels = np.linspace(0.02, 0.98, 25)
    for _ in range(1000):
        sample = rng.normal(0.0, 1.0, int(rng.integers(1, 201)))
        estimates = [cvar_estimate_sorted(sample, a) for a in levels]
        assert np.all(np.diff(estimates) <= 1e-12)
    _report("acceptance-11 estimator monotone in level",
            time.perf_counter() - start, 5.0,
            f"non-increasing across {levels.size} levels x1000 samples")


def test_acceptance_12_certify_reports_are_deterministic(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "report.json"
    texts = []
    for workers in ("1", "4", "1"):
        rc = cli_main(["certify", "--scenario", "two_state_sensor",
                       "--alpha", "0.25,0.9", "--rollouts", "250",
                       "--particles", "120", "--seed", "42",
                       "--workers", workers, "--out", str(out)])
        assert rc == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    manifest = json.loads(texts[0])["manifest"]
    assert manifest["seed"] == 42 and manifest["ndelta_derived"] is True
    _report("acceptance-12 certify reports are deterministic",
            time.perf_counter() - start, 30.0,
            "byte-identical across runs and worker counts {1,4}")
