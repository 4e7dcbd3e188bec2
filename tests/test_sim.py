"""Episode runner, experiment aggregation, and tail-audit behavior."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from rcbandit import sim
from rcbandit.core import (
    ConfigError,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    admits,
    build_grid,
    mix64,
)
from rcbandit.envs import DegenerateArm, GaussianArm, UniformCostArm
from rcbandit.oracle import concentration_bound, nu_table, true_mixed_moment
from rcbandit.policies import PolicySpec
from rcbandit.sim import (
    Aggregate,
    ExperimentConfig,
    RunTrace,
    concentration_audit,
    decomposition_check,
    run_episode,
    run_experiment,
)

from conftest import analytic_instance, two_degenerate_instance

UNIFORM_MEAN_GAP = 0.50625
UNIFORM_TOL = 0.00736  # 3 * std(gap) / sqrt(10^4)


def _traces_equal(a: RunTrace, b: RunTrace) -> bool:
    return (
        np.array_equal(a.arms, b.arms)
        and np.array_equal(a.taus, b.taus)
        and np.array_equal(a.censored, b.censored)
        and np.array_equal(a.rewards, b.rewards)
        and np.array_equal(a.cum_regret, b.cum_regret)
    )


def test_identical_seeds_identical_traces():
    inst = analytic_instance()
    tab = nu_table(inst)
    spec = PolicySpec("rcucb")
    a = run_episode(inst, spec, 500, tab, seed=42)
    b = run_episode(inst, spec, 500, tab, seed=42)
    c = run_episode(inst, spec, 500, tab, seed=43)
    assert _traces_equal(a, b)
    assert not _traces_equal(a, c)


def test_single_pair_instance_has_zero_regret():
    inst = InstanceSpec(
        arms=(DegenerateArm(r0=0.7, c0=0.1),),
        grid=build_grid(1, 1.0),
        discount=DiscountSpec("linear"),
    )
    tab = nu_table(inst)
    trace = run_episode(inst, PolicySpec("rcucb"), 200, tab, seed=1)
    assert np.all(trace.cum_regret == 0.0)
    assert np.all(trace.inst_regret == 0.0)


def test_fixed_oracle_has_zero_regret():
    inst = analytic_instance()
    tab = nu_table(inst)
    trace = run_episode(inst, PolicySpec("fixed_oracle"), 300, tab, seed=9)
    assert np.all(trace.cum_regret == 0.0)
    assert np.all(trace.arms == tab.optimal_arm)
    assert np.all(trace.taus == tab.optimal_tau)


def test_uniform_random_mean_regret_matches_gap_average():
    inst = two_degenerate_instance()
    tab = nu_table(inst)
    trace = run_episode(inst, PolicySpec("uniform_random"), 10_000, tab, seed=12)
    per_round = trace.cum_regret[-1] / trace.horizon
    assert abs(per_round - UNIFORM_MEAN_GAP) <= UNIFORM_TOL


def test_trace_invariants():
    inst = analytic_instance()
    tab = nu_table(inst)
    for kind in ("rcucb", "klrcucb", "ucb", "ts", "uniform_random"):
        trace = run_episode(inst, PolicySpec(kind), 400, tab, seed=77)
        assert trace.horizon == 400
        assert np.all(np.diff(trace.cum_regret) >= 0)
        assert np.all(trace.inst_regret >= 0)
        assert trace.play_counts.sum() == 400
        assert 0.0 <= trace.censored_share <= 1.0
        assert trace.realized_total == pytest.approx(trace.rewards.sum())
        assert decomposition_check(trace, tab) <= 400 * 1e-9


def test_decomposition_empty_and_all_optimal():
    inst = two_degenerate_instance()
    tab = nu_table(inst)
    empty = run_episode(inst, PolicySpec("uniform_random"), 0, tab, seed=3)
    assert empty.horizon == 0
    assert decomposition_check(empty, tab) == 0.0
    optimal = run_episode(inst, PolicySpec("fixed_oracle"), 250, tab, seed=3)
    assert decomposition_check(optimal, tab) == 0.0
    assert optimal.cum_regret[-1] == 0.0


def test_run_episode_horizon_validation():
    inst = analytic_instance()
    tab = nu_table(inst)
    with pytest.raises(ConfigError, match="initialization"):
        run_episode(inst, PolicySpec("ucb"), 5, tab, seed=0)


def test_run_episode_table_mismatch():
    inst = analytic_instance()
    other = nu_table(two_degenerate_instance())
    with pytest.raises(ConfigError, match="nu table does not match the instance"):
        run_episode(inst, PolicySpec("rcucb"), 100, other, seed=0)


def test_cost_at_a_grid_point_is_censored_only_below_it():
    grid = build_grid(4, 1.0)
    inst = InstanceSpec(arms=(DegenerateArm(r0=0.8, c0=grid.points[1]),), grid=grid,
                        discount=DiscountSpec("linear"))
    tab = nu_table(inst)
    played = run_episode(inst, PolicySpec("uniform_random"), 400, tab, seed=2)
    at_or_above = played.taus >= grid.points[1]
    assert at_or_above.any() and not at_or_above.all()
    np.testing.assert_array_equal(played.censored, ~at_or_above)
    np.testing.assert_array_equal(played.rewards, np.where(at_or_above, 0.8, 0.0))
    # the estimator credits the reward to the cells that admit the cost, which
    # the oracle's closed form agrees with
    rcucb = run_episode(inst, PolicySpec("rcucb"), 50, tab, seed=2, keep_state=True)
    for cell, mu in zip(rcucb.final_state, tab.mu[0]):
        if cell["tau"] >= grid.points[1]:
            assert cell["sum"] == pytest.approx(0.8 * cell["n"]) and cell["n"] > 0
        else:
            assert cell["sum"] == 0.0 and cell["n"] > 0
        assert mu == (0.8 if cell["tau"] >= grid.points[1] else 0.0)


def _small_config(**overrides):
    inst = analytic_instance()
    base = dict(
        instance=inst,
        policies=(PolicySpec("rcucb"), PolicySpec("ucb"), PolicySpec("ts")),
        horizon=150,
        repetitions=3,
        base_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    inst = analytic_instance()
    with pytest.raises(ConfigError, match="unique"):
        ExperimentConfig(
            instance=inst,
            policies=(PolicySpec("rcucb"), PolicySpec("rcucb")),
            horizon=100,
        )
    with pytest.raises(ConfigError, match="initialization"):
        _small_config(horizon=4)
    with pytest.raises(ConfigError, match="repetitions"):
        _small_config(repetitions=0)
    with pytest.raises(ConfigError, match="policy"):
        _small_config(policies=())


def test_single_repetition_aggregate():
    cfg = _small_config(repetitions=1, policies=(PolicySpec("rcucb"),))
    agg = run_experiment(cfg)
    trace = run_episode(cfg.instance, cfg.policies[0], cfg.horizon, agg.table,
                        seed=mix64(5, 0, 0))
    assert np.array_equal(agg.mean_cum_regret[0], trace.cum_regret)
    assert np.all(agg.stderr_cum_regret == 0.0)


def test_parallel_matches_serial():
    serial = run_experiment(_small_config(workers=1))
    parallel = run_experiment(_small_config(workers=2))
    assert np.array_equal(serial.mean_cum_regret, parallel.mean_cum_regret)
    assert np.array_equal(serial.stderr_cum_regret, parallel.stderr_cum_regret)
    assert np.array_equal(serial.censored_share, parallel.censored_share)
    assert serial.labels == parallel.labels


def test_aggregate_shapes_and_accessor():
    agg = run_experiment(_small_config())
    assert agg.labels == ("rcucb", "ucb", "ts")
    assert agg.mean_cum_regret.shape == (3, 150)
    assert np.all(agg.stderr_cum_regret >= 0)
    assert np.all(agg.max_residual <= 150 * 1e-9)
    mean, se = agg.final_regret("rcucb")
    assert mean == pytest.approx(float(agg.mean_cum_regret[0, -1]))
    assert se >= 0


def test_failed_repetition_names_its_seed():
    from rcbandit.core import mix64

    bad = InstanceSpec(
        arms=(GaussianArm(mean=(50.0, 50.0), x=0.0, sigma=1e-6),),
        grid=build_grid(2, 1.0),
        discount=DiscountSpec("linear"),
    )
    tab = nu_table(InstanceSpec(
        arms=(DegenerateArm(r0=0.5, c0=0.5),),
        grid=build_grid(2, 1.0),
        discount=DiscountSpec("linear"),
    ))
    cfg = ExperimentConfig(instance=bad, policies=(PolicySpec("uniform_random"),),
                           horizon=10, repetitions=1, base_seed=99)
    seed = mix64(99, 0, 0)
    with pytest.raises(RuntimeError, match=str(seed)):
        run_experiment(cfg, table=tab)


def test_persistence_round_trip(tmp_path):
    out = tmp_path / "exp"
    cfg = _small_config(output_dir=out, dump_state=True,
                        policies=(PolicySpec("rcucb"), PolicySpec("ucb")))
    agg = run_experiment(cfg)

    table_doc = json.loads((out / "nu_table.json").read_text())
    assert len(table_doc["pairs"]) == 12

    for label in agg.labels:
        lines = (out / f"trace_{label}.csv").read_text().splitlines()
        assert lines[0] == "rep,round,arm,tau,censored,reward,inst_regret,cum_regret"
        assert len(lines) == 1 + cfg.repetitions * cfg.horizon
        state = json.loads((out / f"state_{label}.json").read_text())
        assert len(state) == 12

    agg_lines = (out / "aggregate.csv").read_text().splitlines()
    assert agg_lines[0] == "round,policy,mean_cum_regret,stderr"
    assert len(agg_lines) == 1 + 2 * cfg.horizon

    summary = json.loads((out / "summary.json").read_text())
    assert summary["horizon"] == 150
    assert {p["label"] for p in summary["policies"]} == {"rcucb", "ucb"}
    assert all(p["max_decomposition_residual"] <= 150 * 1e-9
               for p in summary["policies"])

    before = {f.name: f.read_bytes() for f in out.iterdir()}
    run_experiment(cfg)
    after = {f.name: f.read_bytes() for f in out.iterdir()}
    assert before == after


def _changed_arm(cfg):
    # arm 1 of analytic_instance() goes from (0.9, 0.2) to (0.1, 0.9), which
    # moves the optimum; the old table would report the wrong regret
    arms = (DegenerateArm(r0=0.1, c0=0.9),) + cfg.instance.arms[1:]
    return {"instance": dataclasses.replace(cfg.instance, arms=arms)}


def _run_changed(change):
    """Prepare the directory with a run of the config changed by change(cfg)."""
    return lambda cfg: run_experiment(dataclasses.replace(cfg, **change(cfg)))


def _edit_gaps(cfg):
    # the file written by this very config, with arm 2's gaps edited and every
    # other key, the optimum included, left as it was
    run_experiment(cfg)
    path = cfg.output_dir / "nu_table.json"
    doc = json.loads(path.read_text())
    for pair in doc["pairs"]:
        if pair["arm"] == 2:
            pair["gap"] /= 2
    path.write_text(json.dumps(doc, indent=1))


@pytest.mark.parametrize("prepare", [
    pytest.param(lambda cfg: nu_table(two_degenerate_instance()).save(
        cfg.output_dir / "nu_table.json"), id="other_instance"),
    pytest.param(_run_changed(_changed_arm), id="arms0"),
    pytest.param(_run_changed(lambda cfg: {"instance": dataclasses.replace(
        cfg.instance, discount=DiscountSpec("polynomial", k=2.0))}), id="discount"),
    pytest.param(_run_changed(lambda cfg: {"oracle_method": "monte_carlo"}),
                 id="oracle_method"),
    pytest.param(_run_changed(lambda cfg: {"oracle_nodes": 100}), id="oracle_nodes"),
    pytest.param(lambda cfg: nu_table(cfg.instance).save(cfg.output_dir / "nu_table.json"),
                 id="no_fingerprint"),
    pytest.param(_edit_gaps, id="edited_gaps"),
])
def test_rerun_ignores_existing_table(tmp_path, prepare):
    """A run computes its own table whatever nu_table.json the directory holds,
    and writes the same bytes as a run into a fresh directory."""
    out = tmp_path / "exp"
    out.mkdir()
    cfg = _small_config(output_dir=out, policies=(PolicySpec("rcucb"),))
    prepare(cfg)
    run_experiment(cfg)
    fresh = tmp_path / "fresh"
    run_experiment(dataclasses.replace(cfg, output_dir=fresh))
    names = sorted(f.name for f in fresh.iterdir())
    assert {"nu_table.json", "summary.json", "aggregate.csv"} <= set(names)
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_caller_table_is_written(tmp_path):
    cfg = _small_config(output_dir=tmp_path, policies=(PolicySpec("rcucb"),))
    tab = nu_table(cfg.instance, nodes=64)
    run_experiment(cfg, table=tab)
    assert json.loads((tmp_path / "nu_table.json").read_text()) == tab.to_dict()


def _csv_trace_reference(rep, trace):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (rep, t + 1, int(trace.arms[t]), float(trace.taus[t]), int(trace.censored[t]),
         float(trace.rewards[t]), float(trace.inst_regret[t]), float(trace.cum_regret[t]))
        for t in range(trace.horizon)
    )
    return buf.getvalue()


def test_trace_writer_matches_csv_writer(monkeypatch):
    monkeypatch.setattr(sim, "_WRITE_CHUNK", 64)
    inst = analytic_instance()
    tab = nu_table(inst)
    trace = run_episode(inst, PolicySpec("uniform_random"), 64 * 3 + 5, tab, seed=8)
    assert 0 < trace.censored.sum() < trace.horizon
    signed = trace.inst_regret.copy()
    signed[:4] = (0.0, -0.0, 0.0, -0.0)
    for rep, case in ((0, trace), (11, dataclasses.replace(trace, inst_regret=signed))):
        buf = io.StringIO()
        sim._write_trace(buf, rep, case)
        assert buf.getvalue() == _csv_trace_reference(rep, case)


def test_aggregate_writer_matches_csv_writer(monkeypatch, tmp_path):
    monkeypatch.setattr(sim, "_WRITE_CHUNK", 64)
    horizon = 64 * 2 + 9
    labels = ("plain", 'needs "quoting", twice', "")
    rng = np.random.default_rng(3)
    mean = np.cumsum(rng.random((3, horizon)), axis=1)
    mean[0, :3] = (0.0, -0.0, 1e-300)
    agg = Aggregate(labels=labels, horizon=horizon, repetitions=2,
                    mean_cum_regret=mean, stderr_cum_regret=rng.random((3, horizon)),
                    censored_share=np.zeros(3), mean_realized_total=np.zeros(3),
                    max_residual=np.zeros(3), table=nu_table(analytic_instance()))
    sim._write_aggregate(tmp_path / "aggregate.csv", agg)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "policy", "mean_cum_regret", "stderr"])
    for p, label in enumerate(labels):
        writer.writerows((t + 1, label, float(mean[p, t]), float(agg.stderr_cum_regret[p, t]))
                         for t in range(horizon))
    assert (tmp_path / "aggregate.csv").read_bytes() == buf.getvalue().encode("utf-8")


def test_audit_degenerate_arm_is_exact():
    [(upper, lower, bound)] = concentration_audit(
        DegenerateArm(r0=0.6, c0=0.3), [0.5], alpha=2.0, t_check=50, runs=40
    )
    assert upper == 0.0
    assert lower == 0.0
    assert bound == concentration_bound(50, 2.0)


def test_audit_gaussian_small_run_passes():
    arm = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
    runs = 300
    [(upper, lower, bound)] = concentration_audit(arm, [0.5], alpha=2.0,
                                                  t_check=200, runs=runs)
    slack = 3.0 * np.sqrt(bound * (1.0 - bound) / runs)
    assert upper <= bound + slack
    assert lower <= bound + slack


def test_audit_doubling_alpha_weakly_decreases_rates():
    # Values are 0.95 * Bernoulli(0.1): two hits in two draws beat the
    # alpha=1.01 radius (0.837) but not the doubled one (1.18).
    arm = UniformCostArm(reward_mean=0.95)
    [(u1, l1, _)] = concentration_audit(arm, [0.1], alpha=1.01, t_check=2,
                                        runs=2000, base_seed=7)
    [(u2, l2, _)] = concentration_audit(arm, [0.1], alpha=2.02, t_check=2,
                                        runs=2000, base_seed=7)
    assert u1 > 0
    assert u2 <= u1
    assert l2 <= l1


@pytest.mark.parametrize("value", [1.0, 0.5, float("inf"), float("nan")])
def test_audit_rejects_alpha_not_finite_above_one(value):
    with pytest.raises(DomainError, match="alpha"):
        concentration_audit(DegenerateArm(r0=0.5, c0=0.5), [0.5], alpha=value)


def test_audit_validation():
    arm = DegenerateArm(r0=0.5, c0=0.5)
    with pytest.raises(DomainError):
        concentration_audit(arm, [0.5], t_check=1)
    with pytest.raises(DomainError):
        concentration_audit(arm, [0.5], runs=0)
    with pytest.raises(DomainError, match="taus"):
        concentration_audit(arm, [])


def _reference_audit(arm, tau, alpha, t_check, runs, base_seed):
    """The audit of one limit as a loop of its own draws: (upper, lower) rates."""
    mu = true_mixed_moment(arm, tau)
    radius = math.sqrt(2.0 * alpha * math.log(t_check) / t_check)
    upper = lower = 0
    for r in range(runs):
        rew, cost = arm.sample(np.random.default_rng(mix64(base_seed, r)), t_check)
        dev = float(np.mean(rew * admits(cost, tau))) - mu
        if dev > radius:
            upper += 1
        elif dev < -radius:
            lower += 1
    return upper / runs, lower / runs


AUDIT_ARMS = {
    # wide enough that two draws at tau' = 0.1 can clear the alpha = 1.01 radius
    "gaussian": GaussianArm(mean=(0.9, 0.3), x=0.0, sigma=0.5),
    "uniform_cost": UniformCostArm(reward_mean=0.95),
    "degenerate": DegenerateArm(r0=0.6, c0=0.35),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("t_check", [2, 5, 50])
@pytest.mark.parametrize("kind", sorted(AUDIT_ARMS))
def test_audit_matches_per_limit_reference(kind, t_check, seed):
    arm = AUDIT_ARMS[kind]
    taus = build_grid(10, 1.0).points
    runs = 400
    got = concentration_audit(arm, taus, alpha=1.01, t_check=t_check, runs=runs,
                              base_seed=seed)
    assert len(got) == len(taus)
    for tau, (upper, lower, bound) in zip(taus, got):
        assert (upper, lower) == _reference_audit(arm, tau, 1.01, t_check, runs, seed)
        assert bound == concentration_bound(t_check, 1.01)


def test_audit_block_rows_match_reference(monkeypatch):
    # blocks of 3 limits leave a short last block on a 10-point grid
    monkeypatch.setattr(sim, "_AUDIT_BLOCK", 3 * 2)
    arm = AUDIT_ARMS["uniform_cost"]
    taus = build_grid(10, 1.0).points
    got = concentration_audit(arm, taus, alpha=1.01, t_check=2, runs=2000, base_seed=7)
    assert any(upper > 0 for upper, _, _ in got)
    assert any(lower > 0 for _, lower, _ in got)
    for tau, (upper, lower, _) in zip(taus, got):
        assert (upper, lower) == _reference_audit(arm, tau, 1.01, 2, 2000, 7)


def test_audit_draws_once_per_run_for_all_limits():
    calls = []

    class CountingArm(UniformCostArm):
        def sample(self, rng, size):
            calls.append((size, rng.bit_generator.state))
            return super().sample(rng, size)

    runs = 30
    got = concentration_audit(CountingArm(reward_mean=0.5), build_grid(10, 1.0).points,
                              t_check=20, runs=runs, base_seed=3)
    assert len(got) == 10
    # run r draws t_check pairs from a fresh stream seeded mix64(base_seed, r)
    assert calls == [(20, np.random.default_rng(mix64(3, r)).bit_generator.state)
                     for r in range(runs)]
