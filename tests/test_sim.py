"""Episode runner, experiment aggregation, and tail-audit behavior."""

import concurrent.futures
import csv
import dataclasses
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rcbandit import policies, sim
from rcbandit.core import (
    ConfigError,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    UsageError,
    admits,
    build_grid,
    mix64,
)
from rcbandit.cli import load_config
from rcbandit.envs import DegenerateArm, GaussianArm, UniformCostArm, sample_episode
from rcbandit.oracle import concentration_bound, nu_table, true_mixed_moments
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

from conftest import analytic_instance, gaussian_instance, two_degenerate_instance

UNIFORM_MEAN_GAP = 0.50625
UNIFORM_TOL = 0.00736  # 3 * std(gap) / sqrt(10^4)


def _episode(spec, horizon, table, seed, keep_state=False) -> RunTrace:
    """The trace of run_episode on a block of one repetition."""
    (trace,) = run_episode(spec, horizon, table, [seed], keep_state)
    return trace


def _traces_equal(a: RunTrace, b: RunTrace) -> bool:
    return (
        np.array_equal(a.arm0, b.arm0)
        and np.array_equal(a.tau_idx, b.tau_idx)
        and np.array_equal(a.censored, b.censored)
        and np.array_equal(a.rewards, b.rewards)
        and np.array_equal(a.cum_regret, b.cum_regret)
    )


def test_identical_seeds_identical_traces():
    inst = analytic_instance()
    tab = nu_table(inst)
    spec = PolicySpec("rcucb")
    a = _episode(spec, 500, tab, seed=42)
    b = _episode(spec, 500, tab, seed=42)
    c = _episode(spec, 500, tab, seed=43)
    assert _traces_equal(a, b)
    assert not _traces_equal(a, c)


def test_single_pair_instance_has_zero_regret():
    inst = InstanceSpec(
        arms=(DegenerateArm(reward=0.7, cost=0.1),),
        grid=build_grid(1, 1.0),
        discount=DiscountSpec("linear"),
    )
    tab = nu_table(inst)
    trace = _episode(PolicySpec("rcucb"), 200, tab, seed=1)
    assert np.all(trace.cum_regret == 0.0)
    assert np.all(tab.gap[trace.arm0, trace.tau_idx] == 0.0)


def test_fixed_oracle_has_zero_regret():
    inst = analytic_instance()
    tab = nu_table(inst)
    trace = _episode(PolicySpec("fixed_oracle"), 300, tab, seed=9)
    assert np.all(trace.cum_regret == 0.0)
    assert np.all(trace.arm0 == tab.optimal[0])
    assert np.all(trace.tau_idx == tab.optimal[1])


def test_uniform_random_mean_regret_matches_gap_average():
    inst = two_degenerate_instance()
    tab = nu_table(inst)
    trace = _episode(PolicySpec("uniform_random"), 10_000, tab, seed=12)
    per_round = trace.cum_regret[-1] / trace.horizon
    assert abs(per_round - UNIFORM_MEAN_GAP) <= UNIFORM_TOL


def test_trace_invariants():
    inst = analytic_instance()
    tab = nu_table(inst)
    for kind in ("rcucb", "klrcucb", "ucb", "ts", "uniform_random"):
        trace = _episode(PolicySpec(kind), 400, tab, seed=77)
        assert trace.horizon == 400
        assert np.all(np.diff(trace.cum_regret) >= 0)
        assert np.all(tab.gap[trace.arm0, trace.tau_idx] >= 0)
        assert trace.play_counts.sum() == 400
        assert 0.0 <= trace.censored_share <= 1.0
        assert trace.realized_total == pytest.approx(trace.rewards.sum())
        assert decomposition_check(trace, tab) <= 400 * 1e-9


def test_decomposition_empty_and_all_optimal():
    inst = two_degenerate_instance()
    tab = nu_table(inst)
    empty = _episode(PolicySpec("uniform_random"), 0, tab, seed=3)
    assert empty.horizon == 0
    assert decomposition_check(empty, tab) == 0.0
    optimal = _episode(PolicySpec("fixed_oracle"), 250, tab, seed=3)
    assert decomposition_check(optimal, tab) == 0.0
    assert optimal.cum_regret[-1] == 0.0


def test_run_episode_horizon_validation():
    inst = analytic_instance()
    tab = nu_table(inst)
    with pytest.raises(ConfigError, match="initialization"):
        _episode(PolicySpec("ucb"), 5, tab, seed=0)


def test_a_table_must_have_its_instance_shape():
    """Each measured matrix of a table has one row per arm and one column per
    limit of the instance it holds, so an episode on it prices every play."""
    tab = nu_table(analytic_instance())
    other = nu_table(two_degenerate_instance())
    for field in ("mu", "se"):
        with pytest.raises(ConfigError, match=rf"^nu table: {field} has shape \(2, 4\), "
                           r"its instance's \(n, m\) is \(3, 4\)$"):
            dataclasses.replace(tab, **{field: getattr(other, field)})


def test_cost_at_a_grid_point_is_censored_only_below_it():
    grid = build_grid(4, 1.0)
    inst = InstanceSpec(arms=(DegenerateArm(reward=0.8, cost=grid.points[1]),), grid=grid,
                        discount=DiscountSpec("linear"))
    tab = nu_table(inst)
    played = _episode(PolicySpec("uniform_random"), 400, tab, seed=2)
    at_or_above = played.tau_idx >= 1
    assert at_or_above.any() and not at_or_above.all()
    np.testing.assert_array_equal(played.censored, ~at_or_above)
    np.testing.assert_array_equal(played.rewards, np.where(at_or_above, 0.8, 0.0))
    # the estimator credits the reward to the cells that admit the cost, which
    # the oracle's closed form agrees with
    rcucb = _episode(PolicySpec("rcucb"), 50, tab, seed=2, keep_state=True)
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


def test_equal_configs_compare_equal_and_hash_alike():
    """The policies are held as a tuple, whatever sequence built the config."""
    config = _small_config(policies=[PolicySpec("ucb")])
    assert config == _small_config(policies=(PolicySpec("ucb"),))
    assert hash(config) == hash(_small_config(policies=(PolicySpec("ucb"),)))
    assert config.policies == (PolicySpec("ucb"),)


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
    # a library config is refused like the same JSON, on a closed-form instance too
    with pytest.raises(ConfigError, match="oracle.method"):
        _small_config(oracle_method="midpoint")
    with pytest.raises(ConfigError, match="oracle.nodes"):
        _small_config(oracle_nodes=8)
    with pytest.raises(ConfigError, match="oracle.samples"):
        _small_config(oracle_method="monte_carlo", oracle_samples=5000)
    for field, value in (("nodes", 200.5), ("nodes", True), ("samples", 1e6)):
        with pytest.raises(ConfigError, match=f"^oracle.{field}: expected an integer"):
            _small_config(**{f"oracle_{field}": value})
    # "no" would be truthy, and write the state files
    with pytest.raises(ConfigError, match="^dump_state: expected true or false"):
        _small_config(dump_state="no")
    with pytest.raises(ConfigError, match="^output_dir: expected a path"):
        _small_config(output_dir=5)
    # a float would fail deep in the run, or, as a seed, be truncated silently
    for field, value in (("horizon", 150.5), ("horizon", True), ("repetitions", 2.0),
                         ("workers", False), ("base_seed", 1.5), ("base_seed", "5")):
        with pytest.raises(ConfigError, match=f"^{field}: expected an integer"):
            _small_config(**{field: value})


def test_single_repetition_aggregate():
    cfg = _small_config(repetitions=1, policies=(PolicySpec("rcucb"),))
    agg = run_experiment(cfg)
    trace = _episode(cfg.policies[0], cfg.horizon, agg.table,
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


class _FarGaussianArm(GaussianArm):
    """A Gaussian arm whose sampler fails, with a closed-form mixed moment,
    so that its oracle table builds without the quadrature (which would refuse
    the arm's degenerate density first)."""

    def mixed_moment(self, tau_prime: float) -> float:
        return 0.0


def test_failed_repetition_names_its_seed():
    from rcbandit.core import mix64

    bad = InstanceSpec(
        arms=(_FarGaussianArm(mean=(50.0, 50.0), x=0.0, sigma=1e-6),),
        grid=build_grid(2, 1.0),
        discount=DiscountSpec("linear"),
    )
    cfg = ExperimentConfig(instance=bad, policies=(PolicySpec("uniform_random"),),
                           horizon=10, repetitions=1, base_seed=99)
    seed = mix64(99, 0, 0)
    with pytest.raises(RuntimeError, match=str(seed)):
        run_experiment(cfg)


class _NanCostOnStream:
    """A point mass whose draw from one given stream has a NaN cost."""

    def __init__(self, stream_seed: int):
        self.state = np.random.default_rng(stream_seed).bit_generator.state

    def sample(self, rng, size):
        cost = np.nan if rng.bit_generator.state == self.state else 0.5
        return np.full(size, 0.5), np.full(size, cost)

    def mixed_moment(self, tau_prime: float) -> float:
        return 0.5 if 0.5 <= tau_prime else 0.0


def test_failed_repetition_in_a_block_names_its_seed():
    grid = build_grid(2, 1.0)
    seed = mix64(99, 0, 1)
    # repetition 1's environment stream is mix64(seed, 0)
    bad = InstanceSpec(arms=(_NanCostOnStream(mix64(seed, 0)),), grid=grid,
                       discount=DiscountSpec("linear"))
    cfg = ExperimentConfig(instance=bad, policies=(PolicySpec("uniform_random"),),
                           horizon=10, repetitions=2, base_seed=99)
    assert sim._blocks(cfg) == [range(2)]
    with pytest.raises(RuntimeError,
                       match=rf"repetition 1 of policy 'uniform_random' failed \(seed {seed}\)"):
        run_experiment(cfg)
    # run_episode raises the draw's own error, marked with its seed's index
    with pytest.raises(DomainError, match="NaN cost") as failed:
        run_episode(PolicySpec("uniform_random"), 10, cfg.table(), [mix64(99, 0, 0), seed])
    assert failed.value.seed_index == 1


def test_failed_round_loop_names_the_whole_block(monkeypatch):
    """A failure in the round loop is the block's: the run names all its
    repetitions and seeds."""
    def fail(index):
        raise UsageError("no pair to play")

    monkeypatch.setattr(policies, "argmax_pair", fail)
    cfg = _small_config(repetitions=2, policies=(PolicySpec("rcucb"),))
    assert sim._blocks(cfg) == [range(2)]
    seeds = ", ".join(str(mix64(5, 0, rep)) for rep in range(2))
    with pytest.raises(RuntimeError,
                       match=rf"repetitions 0-1 of policy 'rcucb' failed \(seeds {seeds}\)"):
        run_experiment(cfg)


BLOCK_SPECS = [PolicySpec(kind) for kind in
               ("rcucb", "klrcucb", "ucb", "uniform_random", "fixed_oracle")] + [
    PolicySpec("ts", indicator=indicator) for indicator in ("per_pair", "chosen_limit")]


@pytest.mark.parametrize("spec", BLOCK_SPECS,
                         ids=[f"{s.kind}-{s.indicator}" if s.kind == "ts" else s.kind
                              for s in BLOCK_SPECS])
def test_block_matches_blocks_of_one(spec):
    """A block of five repetitions plays each exactly as a block of one does."""
    inst = gaussian_instance(4)
    tab = nu_table(inst)
    seeds = [mix64(31, rep) for rep in range(5)]
    block = run_episode(spec, 300, tab, seeds, keep_state=True)
    assert len(block) == len(seeds)
    for trace, seed in zip(block, seeds):
        alone = _episode(spec, 300, tab, seed, keep_state=True)
        assert _traces_equal(trace, alone)
        assert trace.final_state == alone.final_state
    assert not _traces_equal(block[0], block[1])


def _artifacts(out):
    return {f.name: f.read_bytes() for f in out.iterdir()}


@pytest.mark.parametrize("workers", [1, 2])
def test_uneven_blocks_match_blocks_of_one(monkeypatch, tmp_path, workers):
    cfg = _small_config(repetitions=5, workers=workers, dump_state=True)
    per_rep = sim._rep_bytes(cfg)
    runs = {}
    for name, budget in (("single", per_rep), ("uneven", 2 * per_rep)):
        monkeypatch.setattr(sim, "_BLOCK_BYTES", budget)
        blocks = sim._blocks(cfg)
        runs[name] = (blocks, run_experiment(dataclasses.replace(
            cfg, output_dir=tmp_path / name)), _artifacts(tmp_path / name))
    assert runs["single"][0] == [range(rep, rep + 1) for rep in range(5)]
    assert runs["uneven"][0] == [range(0, 1), range(1, 3), range(3, 5)]
    (_, one, one_files), (_, uneven, uneven_files) = runs["single"], runs["uneven"]
    for field in ("mean_cum_regret", "stderr_cum_regret", "censored_share",
                  "mean_realized_total", "max_residual"):
        assert np.array_equal(getattr(one, field), getattr(uneven, field)), field
    assert one.final_states == uneven.final_states
    assert one_files == uneven_files


@pytest.mark.parametrize("n, m", [(2, 10), (2, 300), (300, 10)])
def test_rep_bytes_is_what_one_repetition_holds(n, m):
    """_rep_bytes is the bytes of sample_episode's two matrices and of every
    RunTrace array of a one-seed run_episode, whose index type widens with
    300 arms or 300 limits."""
    arms = (DegenerateArm(reward=0.9, cost=0.2), DegenerateArm(reward=1.0, cost=0.4)) * (n // 2)
    inst = InstanceSpec(arms=arms, grid=build_grid(m, 1.0),
                        discount=DiscountSpec("linear"))
    spec = PolicySpec("uniform_random")
    rewards, lo = sample_episode(inst, np.random.default_rng(0), 40)
    trace = _episode(spec, 40, nu_table(inst), seed=0)
    held = rewards.nbytes + lo.nbytes + sum(
        value.nbytes for value in vars(trace).values() if isinstance(value, np.ndarray))
    cfg = ExperimentConfig(instance=inst, policies=(spec,), horizon=40)
    assert sim._rep_bytes(cfg) == held


@pytest.mark.parametrize("name", ["paper_synthetic_m10", "paper_synthetic_m50",
                                  "paper_synthetic_m100"])
def test_bundled_configs_run_in_four_blocks_of_five(name):
    cfg = load_config(name)
    for workers in range(1, 5):
        blocks = sim._blocks(dataclasses.replace(cfg, workers=workers))
        assert [len(block) for block in blocks] == [5, 5, 5, 5]


def test_blocks_leave_every_worker_busy(monkeypatch):
    cfg = _small_config(repetitions=5, workers=2)
    assert sim._blocks(cfg) == [range(0, 2), range(2, 5)]
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 1)
    assert sim._blocks(cfg) == [range(rep, rep + 1) for rep in range(5)]


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    """Under fork every worker starts at the first submit, so a pool larger
    than the jobs only holds idle processes. A stand-in pool records its size
    and maps serially, so no process starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        map = staticmethod(map)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = _small_config(repetitions=2, workers=64, policies=(PolicySpec("rcucb"),))
    pooled = run_experiment(cfg)
    assert sizes == [2]
    serial = run_experiment(dataclasses.replace(cfg, workers=1))
    assert np.array_equal(pooled.mean_cum_regret, serial.mean_cum_regret)


def test_pool_failures_name_their_seeds(monkeypatch):
    """With workers > 1 a block's failure keeps both messages: one repetition's
    seed, or the whole block's seeds. A thread pool stands in for the process
    pool, so the patched functions reach the workers."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    cfg = _small_config(repetitions=4, workers=2, policies=(PolicySpec("rcucb"),))
    assert sim._blocks(cfg) == [range(0, 2), range(2, 4)]
    seeds = [mix64(5, 0, rep) for rep in range(4)]

    def fail_rep_3(spec, horizon, table, block_seeds, keep_state=False):
        if block_seeds == seeds[2:]:
            exc = DomainError("NaN cost")
            exc.seed_index = 1
            raise exc
        return run_episode(spec, horizon, table, block_seeds, keep_state)

    monkeypatch.setattr(sim, "run_episode", fail_rep_3)
    with pytest.raises(RuntimeError,
                       match=rf"repetition 3 of policy 'rcucb' failed \(seed {seeds[3]}\)"):
        run_experiment(cfg)

    def fail(index):
        raise UsageError("no pair to play")

    monkeypatch.setattr(sim, "run_episode", run_episode)
    monkeypatch.setattr(policies, "argmax_pair", fail)
    block = ", ".join(map(str, seeds[:2]))
    with pytest.raises(RuntimeError,
                       match=rf"repetitions 0-1 of policy 'rcucb' failed \(seeds {block}\)"):
        run_experiment(cfg)


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
    arms = (DegenerateArm(reward=0.1, cost=0.9),) + cfg.instance.arms[1:]
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


def test_the_run_writes_the_config_table(tmp_path):
    """nu_table.json is config.table(), under the config's oracle settings."""
    cfg = _small_config(output_dir=tmp_path, policies=(PolicySpec("rcucb"),),
                        oracle_nodes=64)
    run_experiment(cfg)
    written = (tmp_path / "nu_table.json").read_text(encoding="utf-8")
    assert written == json.dumps(cfg.table().to_dict(), indent=1)
    assert json.loads(written)["samples_or_nodes"] == 64


def _csv_trace_reference(rep, trace, grid, gap):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (rep, t + 1, int(arm0) + 1, float(grid[j]), int(trace.censored[t]),
         float(trace.rewards[t]), float(gap[arm0, j]), float(trace.cum_regret[t]))
        for t, (arm0, j) in enumerate(zip(trace.arm0, trace.tau_idx))
    )
    return buf.getvalue()


def _trace_of_every_play(inst, gap, rng, extra=5) -> RunTrace:
    """A trace that plays every (arm, limit) pair once censored and once not,
    then `extra` random plays, in a shuffled order."""
    n, m = gap.shape
    cells = np.concatenate([np.arange(n * m).repeat(2), rng.integers(n * m, size=extra)])
    censored = np.concatenate([np.tile([False, True], n * m), rng.random(extra) < 0.5])
    order = rng.permutation(cells.size)
    cells, censored = cells[order], censored[order]
    arm0 = (cells // m).astype(inst.index_dtype)
    tau_idx = (cells % m).astype(inst.index_dtype)
    rewards = np.where(censored, 0.0, rng.random(cells.size))
    counts = np.zeros((n, m), dtype=np.int64)
    np.add.at(counts, (arm0, tau_idx), 1)
    return RunTrace(arm0=arm0, tau_idx=tau_idx, censored=censored, rewards=rewards,
                    cum_regret=np.cumsum(gap[arm0, tau_idx]), play_counts=counts)


def test_trace_writer_matches_csv_writer(monkeypatch):
    """Every (arm, limit) pair censored and uncensored, in rows across the
    writer's chunk boundaries; also with both signed zeros in the gap table,
    and with 10 arms x 100 limits, where arm0 * m overflows the traces' uint8
    indices."""
    chunk = 7
    monkeypatch.setattr(sim, "_WRITE_CHUNK", chunk)
    rng = np.random.default_rng(8)
    for inst in (analytic_instance(), gaussian_instance(100)):
        tab = nu_table(inst)
        trace = _trace_of_every_play(inst, tab.gap, rng)
        grid = inst.grid.as_array()
        n, m = tab.gap.shape
        plays = set(zip(trace.arm0.tolist(), trace.tau_idx.tolist(),
                        trace.censored.tolist()))
        assert len(plays) == 2 * n * m
        assert trace.horizon > 4 * chunk and trace.horizon % chunk
        signed = tab.gap.copy()
        signed[:, : m // 2] = 0.0
        signed[:, m // 2:] = -0.0
        played = signed[trace.arm0, trace.tau_idx]
        assert np.signbit(played).any() and not np.signbit(played).all()
        for rep, gap in ((0, tab.gap), (11, signed)):
            buf = io.StringIO()
            sim._write_trace(buf, rep, trace, *sim._trace_text(inst.grid, gap))
            assert buf.getvalue() == _csv_trace_reference(rep, trace, grid, gap)
    assert int(trace.arm0.max()) * m > np.iinfo(trace.arm0.dtype).max


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
        DegenerateArm(reward=0.6, cost=0.3), [0.5], alpha=2.0, t_check=50, runs=40
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
        concentration_audit(DegenerateArm(reward=0.5, cost=0.5), [0.5], alpha=value)


def test_audit_validation():
    arm = DegenerateArm(reward=0.5, cost=0.5)
    with pytest.raises(DomainError):
        concentration_audit(arm, [0.5], t_check=1)
    with pytest.raises(DomainError):
        concentration_audit(arm, [0.5], runs=0)
    # the message leads with the parameter, which the CLI maps to its flag
    for kwargs in (dict(t_check=50.0), dict(t_check=True), dict(runs=10.0), dict(runs=True)):
        [(name, _)] = kwargs.items()
        with pytest.raises(DomainError, match=f"^{name}: expected an integer"):
            concentration_audit(arm, [0.5], **kwargs)
    with pytest.raises(DomainError, match="taus"):
        concentration_audit(arm, [])
    # a NaN limit made every deviation test false, so the audit read PASS
    with pytest.raises(DomainError, match="taus"):
        concentration_audit(arm, [float("nan")])
    with pytest.raises(DomainError, match="taus"):
        concentration_audit(arm, [-0.5])
    with pytest.raises(DomainError, match="taus"):
        concentration_audit(arm, [0.5, float("inf")])


def _reference_audit(arm, tau, alpha, t_check, runs, base_seed):
    """The audit of one limit as a loop of its own draws: (upper, lower) rates."""
    [mu] = true_mixed_moments(arm, [tau])
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
    "degenerate": DegenerateArm(reward=0.6, cost=0.35),
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


class CoinCostArm(UniformCostArm):
    """Reward 0.95 with all of a run's costs 0 or all 1, by one fair coin per
    run, audited against the uniform-cost moment 0.95 * tau'. At alpha = 1.01
    and t_check = 2 every run then leaves the radius exactly once: above it at
    tau' = 0.1 (costs 0) or below it at tau' = 0.9 (costs 1)."""

    def sample(self, rng, size):
        return np.full(size, self.reward_mean), np.full(size, float(rng.random() < 0.5))


# _AUDIT_BLOCK at t_check = 2 on a 10-point grid
@pytest.mark.parametrize("block, arm", [
    # blocks of 3 limits of one run leave a short last block
    (3 * 2, AUDIT_ARMS["uniform_cost"]),
    # passes of 9 runs leave a short last pass of 2000 % 9 = 2 runs; as every
    # run counts once, a run drawn past the end or a stale row of the previous
    # pass changes a rate
    (10 * 9 * 2, CoinCostArm(reward_mean=0.95)),
], ids=["limit_blocks", "run_passes"])
def test_audit_block_rows_match_reference(monkeypatch, block, arm):
    monkeypatch.setattr(sim, "_AUDIT_BLOCK", block)
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
