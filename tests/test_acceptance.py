"""Full-size acceptance checks for the bundled synthetic experiment.

The heart of the module is a session fixture that runs the three bundled
configs end to end (20 repetitions, horizon 50000 each), which the censoring,
regret-ordering, decomposition, and information-dominance tests then read.
Expected censoring proportions and their tolerances are the reference values
the bundled configs are meant to reproduce. The slow marker sits on the
tests that carry multi-minute cost.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from rcbandit.cli import load_config, main
from rcbandit.core import admits, mix64
from rcbandit.envs import GaussianArm
from rcbandit.estimators import CensoredMomentEstimator
from rcbandit.oracle import nu_table, regret_upper_bound, true_mixed_moment
from rcbandit.policies import PolicySpec, make_policy
from rcbandit.sim import concentration_audit, decomposition_check, run_episode, run_experiment

from conftest import BYTE_IDENTITY_CONFIG, analytic_instance, gaussian_instance

CONFIG_NAMES = ("paper_synthetic_m10", "paper_synthetic_m50", "paper_synthetic_m100")

# reference mean proportion of censored rounds per (config, policy), with the
# tolerance each cell is held to
CENSORING = {
    ("paper_synthetic_m10", "rcucb"): (0.4108, 0.05),
    ("paper_synthetic_m10", "ucb"): (0.6099, 0.06),
    ("paper_synthetic_m10", "ts"): (0.6711, 0.06),
    ("paper_synthetic_m50", "rcucb"): (0.3769, 0.05),
    ("paper_synthetic_m50", "ucb"): (0.6490, 0.06),
    ("paper_synthetic_m50", "ts"): (0.6449, 0.06),
    ("paper_synthetic_m100", "rcucb"): (0.3723, 0.05),
    ("paper_synthetic_m100", "ucb"): (0.6592, 0.06),
    ("paper_synthetic_m100", "ts"): (0.6393, 0.06),
}

# tail deviation bound at t=1000, alpha=2: (1 + ln t / ln 1.5) * t**(-4/3)
TAIL_BOUND_T1000 = 1.80357e-3


@pytest.fixture(scope="session")
def synthetic_runs():
    """Aggregates of the three bundled configs, run in memory at full size."""
    runs = {}
    for name in CONFIG_NAMES:
        config = dataclasses.replace(
            load_config(name), output_dir=None, dump_state=True
        )
        runs[name] = run_experiment(config)
    return runs


@pytest.mark.slow
@pytest.mark.parametrize(("name", "label"), sorted(CENSORING))
def test_censoring_proportion(name, label, synthetic_runs):
    """Mean censored share at horizon 50000 matches the reference table."""
    agg = synthetic_runs[name]
    target, tol = CENSORING[(name, label)]
    share = float(agg.censored_share[agg.labels.index(label)])
    assert abs(share - target) <= tol


@pytest.mark.slow
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_regret_ordering(name, synthetic_runs):
    """The shared-estimator policy beats both baselines by a pooled SE."""
    agg = synthetic_runs[name]
    mean_rc, se_rc = agg.final_regret("rcucb")
    for label in ("ucb", "ts"):
        mean_b, se_b = agg.final_regret(label)
        assert mean_rc < mean_b - math.hypot(se_rc, se_b)


@pytest.mark.slow
def test_mean_regret_under_finite_time_bound():
    """50-rep mean cumulative regret stays below the gap bound at every round."""
    instance = analytic_instance()
    table = nu_table(instance)
    horizon = 100_000
    reps = 50
    total = np.zeros(horizon)
    for rep in range(reps):
        trace = run_episode(
            instance, PolicySpec(kind="rcucb", alpha=2.0), horizon, table,
            mix64(4242, 0, rep),
        )
        assert decomposition_check(trace, table) <= horizon * 1e-9
        total += trace.cum_regret
    rounds = np.arange(1, horizon + 1)
    bound = regret_upper_bound(table, rounds, alpha=2.0)
    assert np.all(total / reps <= bound)


def test_tail_rates_within_deviation_bound():
    """Both empirical tail rates respect the t=1000 deviation bound."""
    arm = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
    runs = 10_000
    upper, lower, bound = concentration_audit(
        arm, 0.5, alpha=2.0, t_check=1000, runs=runs, base_seed=7
    )
    assert bound == pytest.approx(TAIL_BOUND_T1000, abs=1e-6)
    slack = 3.0 * math.sqrt(TAIL_BOUND_T1000 * (1.0 - TAIL_BOUND_T1000) / runs)
    assert upper <= TAIL_BOUND_T1000 + slack
    assert lower <= TAIL_BOUND_T1000 + slack


@pytest.mark.slow
def test_decomposition_identity_at_scale(synthetic_runs):
    """|R_T - sum of gap * plays| stays at accumulation-noise level."""
    for agg in synthetic_runs.values():
        assert np.all(agg.max_residual <= agg.horizon * 1e-9)


@pytest.mark.slow
def test_information_dominance(synthetic_runs):
    """The censored estimator banks at least one pair update per round."""
    for agg in synthetic_runs.values():
        state = agg.final_states["rcucb"]
        assert sum(cell["n"] for cell in state) >= agg.horizon


def test_estimator_matches_oracle_under_full_limit():
    """Always playing tau_max reproduces every oracle moment within 3 SE."""
    instance = gaussian_instance()
    grid = instance.grid.as_array()
    m = instance.grid.m
    draws = 100_000
    estimator = CensoredMomentEstimator(instance.n, instance.grid)
    for i, arm in enumerate(instance.arms):
        rng = np.random.default_rng(mix64(606, i))
        rewards, costs = arm.sample(rng, draws)
        for r, c in zip(rewards.tolist(), costs.tolist()):
            estimator.update_by_index(i, m, instance.grid.first_admitting(c), r)
        realized = rewards[None, :] * admits(costs[None, :], grid[:, None])
        se = realized.std(axis=1, ddof=1) / math.sqrt(draws)
        for j, tau in enumerate(grid):
            mu = true_mixed_moment(arm, float(tau))
            mu_hat = estimator.mean_matrix()[i, j]
            assert estimator.counts[i, j] == draws
            assert abs(mu_hat - mu) <= 3.0 * se[j]


@pytest.mark.parametrize(("kind", "salt"), [("rcucb", 0), ("klrcucb", 1)])
def test_update_touch_budget(kind, salt):
    """Every update touches between 1 and m pairs, and they add up to the counts."""
    instance = gaussian_instance()
    m = instance.grid.m
    env = np.random.default_rng(mix64(77, salt, 0))
    policy = make_policy(PolicySpec(kind=kind), instance)
    total = 0
    rounds = 2000
    for _ in range(rounds):
        arm0, j = policy.select()
        r, c = instance.arms[arm0].sample(env, 1)
        lo = instance.grid.first_admitting(float(c[0]))
        before = policy.estimator.counts.sum()
        policy.update(lo, float(r[0]) if lo <= j else 0.0)
        touched = policy.estimator.counts.sum() - before
        assert 1 <= touched <= m
        total += touched
    assert policy.estimator.counts.sum() == total
    assert total >= rounds


@pytest.mark.slow
def test_oracle_methods_agree_on_synthetic_grid():
    """Monte Carlo and quadrature moments agree on every synthetic pair."""
    instance = gaussian_instance()
    quad = nu_table(instance, "quadrature", nodes=200, seed=0)
    mc = nu_table(instance, "monte_carlo", samples=1_000_000, seed=0)
    assert np.all(mc.se > 0)
    assert np.all(np.abs(mc.mu - quad.mu) <= 4.0 * mc.se)


def test_oracle_exact_for_analytic_arms():
    """Both oracle methods return closed-form moments for analytic arms."""
    instance = analytic_instance()
    exact = [[arm.mixed_moment(tau) for tau in instance.grid.points]
             for arm in instance.arms]
    for method in ("quadrature", "monte_carlo"):
        table = nu_table(instance, method)
        assert table.mu.tolist() == exact
        assert np.all(table.se == 0.0)


def test_outputs_byte_identical_across_runs(tmp_path):
    """Fixed config and seed give byte-identical files, serial or parallel."""
    serial = tmp_path / "config.json"
    serial.write_text(json.dumps(BYTE_IDENTITY_CONFIG), encoding="utf-8")
    parallel = tmp_path / "parallel.json"
    parallel.write_text(
        json.dumps(dict(BYTE_IDENTITY_CONFIG, workers=2)), encoding="utf-8"
    )

    outs = [tmp_path / name for name in ("first", "second", "fanned")]
    for path, out in zip((serial, serial, parallel), outs):
        assert main(["run", str(path), "--out-dir", str(out)]) == 0

    names = sorted(p.name for p in outs[0].iterdir())
    traces = [n for n in names if n.startswith("trace_")]
    assert len(traces) == len(BYTE_IDENTITY_CONFIG["policies"])
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    summary = json.loads((outs[0] / "summary.json").read_text(encoding="utf-8"))
    horizon = BYTE_IDENTITY_CONFIG["horizon"]
    for entry in summary["policies"]:
        assert entry["max_decomposition_residual"] <= horizon * 1e-9
