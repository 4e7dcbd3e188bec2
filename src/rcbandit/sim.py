"""Episode runner, regret accounting, aggregation, and empirical tail audits.

Episodes are independent: each gets an environment stream and a policy
stream derived from its seed, so repetitions can run in blocks and in worker
processes and still aggregate exactly as in serial execution. run_episode
plays a block of repetitions of one policy in one loop over rounds, with one
index and one argmax per round for the whole block; a single episode is a
block of one. The fold over repetitions always happens in repetition-index
order. An episode plays on the instance its oracle table holds, and every
run computes its own table (ExperimentConfig.table), so regret is always
priced by the gaps of the instance that is played.

A round is censored by the one statement of the censoring rule in core:
sample_episode computes lo = ResourceGrid.first_admitting(cost) for every
round and arm once per episode, the block loop reads each repetition's
played lo, and the play at grid index j is censored iff lo > j (the audit
calls core.admits). policies.check_horizon holds a horizon to the
initialization schedule. Plays stay grid indices from the round loop to
the trace file: a RunTrace records each round's (arm0, tau_idx), and the
trace writer looks each row's "arm,tau,censored" text and its gap text up by
them, in two tables built once per run. The per-round hook contract is
stated once, in the policies module.

The concentration audit draws each run once and evaluates every limit on
those draws, as the oracle's Monte Carlo method does with its per-arm batch.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import (ConfigError, DomainError, InstanceSpec, ResourceGrid, admits, check_integer,
                   mix64)
from .envs import sample_episode
from .oracle import (DEFAULT_METHOD, DEFAULT_NODES, DEFAULT_SAMPLES, NuTable, check_alpha,
                     concentration_bound, nu_table, oracle_budget, true_mixed_moments)
from .policies import PolicySpec, check_horizon, make_policy


@dataclass(frozen=True, eq=False)
class RunTrace:
    """One episode: per-round plays as the 0-based arm and the grid index of
    the limit, the outcome and regret of each round, per-run tallies."""

    arm0: np.ndarray
    tau_idx: np.ndarray
    censored: np.ndarray
    rewards: np.ndarray
    cum_regret: np.ndarray
    play_counts: np.ndarray
    final_state: list | None = None

    @property
    def horizon(self) -> int:
        return self.arm0.shape[0]

    @property
    def censored_share(self) -> float:
        return float(self.censored.mean()) if self.horizon else 0.0

    @property
    def realized_total(self) -> float:
        return float(self.rewards.sum())


@dataclass(frozen=True, eq=False)
class Aggregate:
    """Per-policy mean regret curves with standard errors over repetitions."""

    labels: tuple[str, ...]
    horizon: int
    repetitions: int
    mean_cum_regret: np.ndarray
    stderr_cum_regret: np.ndarray
    censored_share: np.ndarray
    mean_realized_total: np.ndarray
    max_residual: np.ndarray
    table: NuTable
    final_states: dict | None = None

    def final_regret(self, label: str) -> tuple[float, float]:
        p = self.labels.index(label)
        return (
            float(self.mean_cum_regret[p, -1]),
            float(self.stderr_cum_regret[p, -1]),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs; the CLI builds this from JSON, passing
    only the fields the JSON sets, so these defaults are the config's."""

    instance: InstanceSpec
    policies: tuple[PolicySpec, ...]
    horizon: int
    repetitions: int = 20
    base_seed: int = 0
    oracle_method: str = DEFAULT_METHOD
    oracle_nodes: int = DEFAULT_NODES
    oracle_samples: int = DEFAULT_SAMPLES
    workers: int = 1
    output_dir: Path | None = None
    dump_state: bool = False

    def __post_init__(self):
        # a tuple, so equal configs compare equal and hash whatever sequence built them
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ConfigError("at least one policy is required")
        # a float would fail deep in a run, or, as a seed, be truncated silently
        # (a numpy integer seed would pass, but json.dumps cannot write it)
        for name in ("horizon", "repetitions", "workers", "base_seed"):
            value = getattr(self, name)
            check_integer(name, value, ConfigError)
            if value < 1 and name != "base_seed":
                raise ConfigError(f"{name} must be at least 1")
        # a string such as "no" would be truthy, and write the state files
        if not isinstance(self.dump_state, bool):
            raise ConfigError(f"dump_state: expected true or false, got {self.dump_state!r}")
        if not (self.output_dir is None or isinstance(self.output_dir, (str, os.PathLike))):
            raise ConfigError(f"output_dir: expected a path or None, got {self.output_dir!r}")
        # the messages name the oracle.* fields of a JSON config
        try:
            oracle_budget(self.oracle_method, self.oracle_nodes, self.oracle_samples)
        except DomainError as exc:
            raise ConfigError(f"oracle.{exc}") from None
        labels = [spec.label for spec in self.policies]
        if len(set(labels)) != len(labels):
            raise ConfigError("policy labels must be unique; set label explicitly")
        check_horizon(self.horizon, [spec.kind for spec in self.policies], self.instance)

    def table(self) -> NuTable:
        """The oracle table of the instance under the config's oracle settings."""
        return nu_table(self.instance, self.oracle_method, nodes=self.oracle_nodes,
                        samples=self.oracle_samples, seed=self.base_seed)


def run_episode(spec: PolicySpec, horizon: int, table: NuTable, seeds: list[int],
                keep_state: bool = False) -> list[RunTrace]:
    """Play one policy for `horizon` rounds on a block of repetitions, one per
    seed, in lockstep, on the instance of the table, whose gaps price the
    regret; return their traces in seed order.

    Each repetition is fully deterministic given its seed, whatever block it
    is played in: its environment stream and its policy stream are split off
    its seed, so two policies on the same seed face identical outcome
    matrices, and a block of one is a single episode. A failed draw raises
    its own exception, with attribute seed_index set to its seed's index in
    seeds (an instance attribute, so it pickles with the exception).

    Each round calls policy.select() and policy.update() once for the whole
    block; the per-round hook contract is stated in the policies module.
    """
    instance = table.instance
    check_horizon(horizon, [spec.kind], instance)
    draws = []
    for index, seed in enumerate(seeds):
        try:
            draws.append(sample_episode(instance, np.random.default_rng(mix64(seed, 0)),
                                        horizon))
        except Exception as exc:
            exc.seed_index = index
            raise
    rewards = [r for r, _ in draws]
    lo_matrices = [lo for _, lo in draws]
    del draws
    reps = len(seeds)
    policy = make_policy(spec, instance,
                         [np.random.default_rng(mix64(seed, 1)) for seed in seeds],
                         table.optimal)

    # round after round, the arm and limit indices of every repetition
    code = instance.index_dtype.char
    arms_played, limits_played = array(code), array(code)
    for t in range(horizon):
        arms, js = policy.select()
        lo, reward = [], []
        for lo_rep, rewards_rep, arm0, j in zip(lo_matrices, rewards, arms, js):
            lo_r = lo_rep.item(t, arm0)
            lo.append(lo_r)
            reward.append(rewards_rep.item(t, arm0) if lo_r <= j else 0.0)
        policy.update(lo, reward)
        arms_played.extend(arms)
        limits_played.extend(js)
    arms0 = np.frombuffer(arms_played, dtype=code).reshape(horizon, reps)
    tau_idx = np.frombuffer(limits_played, dtype=code).reshape(horizon, reps)

    # one pass per repetition: what its trace needs of its draws, which are
    # freed before its trace arrays are made
    rounds = np.arange(horizon)
    traces = []
    for r in range(reps):
        played, limit = arms0[:, r], tau_idx[:, r]
        censored = lo_matrices[r][rounds, played] > limit
        observed = rewards[r][rounds, played]
        observed[censored] = 0.0
        rewards[r] = lo_matrices[r] = None
        counts = np.zeros((instance.n, instance.grid.m), dtype=np.int64)
        np.add.at(counts, (played, limit), 1)
        traces.append(RunTrace(
            arm0=played,
            tau_idx=limit,
            censored=censored,
            rewards=observed,
            cum_regret=np.cumsum(table.gap[played, limit]),
            play_counts=counts,
            final_state=policy.snapshot(r) if keep_state else None,
        ))
    return traces


def decomposition_check(trace: RunTrace, table: NuTable) -> float:
    """|R_T - sum over pairs of gap * play count|; exact up to accumulation."""
    total = float(trace.cum_regret[-1]) if trace.horizon else 0.0
    played = float(np.sum(trace.play_counts * table.gap))
    return abs(total - played)


_TRACE_HEADER = "rep,round,arm,tau,censored,reward,inst_regret,cum_regret\n"
AGGREGATE_HEADER = "round,policy,mean_cum_regret,stderr\n"

# draws and traces of the repetitions a block holds at once, at most: bounds
# run_episode's memory (a block is never smaller than one repetition). 6 of
# the bundled configs' repetitions (10 arms, horizon 50 000) fit, so their 20
# are split evenly into 4 blocks of 5, where the speed-up of a larger block has
# levelled off and each repetition adds about 4.3 MB of peak RSS
_BLOCK_BYTES = 32 << 20
# rows converted to Python objects at a time: bounds the writers' memory
_WRITE_CHUNK = 4096
# draws the audit evaluates at once, over limits x runs x t_check: bounds its
# memory (a block is never smaller than one limit of one run)
_AUDIT_BLOCK = 1 << 17


def _csv_field(text: str) -> str:
    """text as csv.writer renders it among other fields, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def _write_lines(handle, columns) -> None:
    """Write rows given as columns of field text, comma-separated, "\n"-ended."""
    handle.write("\n".join(map(",".join, zip(*columns))))
    handle.write("\n")


def _write_trace(handle, rep: int, trace: RunTrace, play_text: list[str],
                 gap_text: list[str]) -> None:
    """Append one repetition's _TRACE_HEADER rows, in bytes equal to csv.writer's.

    Numbers are written as str/repr, like csv.writer does. Both tables are
    built once per run (see _trace_text) and looked up by a round's indices:
    play_text holds the "arm,tau,censored" text of every play at key
    2 * (arm0 * m + j) + censored, and gap_text the repr of every gap-table
    entry at arm0 * m + j.
    """
    rep_text = str(rep)
    m = trace.play_counts.shape[1]
    for start in range(0, trace.horizon, _WRITE_CHUNK):
        part = slice(start, min(start + _WRITE_CHUNK, trace.horizon))
        # intp first: arm0 * m overflows a narrow unsigned type
        cell = trace.arm0[part].astype(np.intp)
        cell *= m
        cell += trace.tau_idx[part]
        key = cell * 2
        key += trace.censored[part]
        _write_lines(handle, (
            repeat(rep_text),
            map(str, range(part.start + 1, part.stop + 1)),
            map(play_text.__getitem__, key.tolist()),
            map(repr, trace.rewards[part].tolist()),
            map(gap_text.__getitem__, cell.tolist()),
            map(repr, trace.cum_regret[part].tolist()),
        ))


def _trace_text(grid: ResourceGrid, gap: np.ndarray) -> tuple[list[str], list[str]]:
    """The (play_text, gap_text) tables _write_trace looks a round's text up
    in, for the n x m table of gaps on grid: 2 * n * m plays and n * m gaps."""
    tau_text = [repr(t) for t in grid.as_array().tolist()]
    play_text = [f"{arm0 + 1},{tau},{flag}" for arm0 in range(gap.shape[0])
                 for tau in tau_text for flag in "01"]
    return play_text, [repr(g) for g in gap.ravel().tolist()]


def _rep_bytes(config: ExperimentConfig) -> int:
    """Bytes one repetition of a block holds: its draws (a reward and an lo a
    round and arm) and its RunTrace arrays (rewards and cum_regret at 8 B a
    round, censored at 1 B, arm0 and tau_idx at an index, int64 play counts)."""
    inst = config.instance
    index = inst.index_dtype.itemsize
    return (config.horizon * ((8 + index) * inst.n + 17 + 2 * index)
            + 8 * inst.n * inst.grid.m)


def _blocks(config: ExperimentConfig) -> list[range]:
    """The repetitions of each policy split evenly into blocks, in rep order.

    The fewest blocks that hold at most as many repetitions as fit _rep_bytes
    each into _BLOCK_BYTES, and at least one per worker (reps allowing), so
    the pool keeps every worker busy.
    """
    reps = config.repetitions
    size = max(1, _BLOCK_BYTES // _rep_bytes(config))
    count = max(-(-reps // size), min(config.workers, reps))
    return [range(reps * k // count, reps * (k + 1) // count) for k in range(count)]


def run_experiment(config: ExperimentConfig) -> Aggregate:
    """Run reps x policies episodes and fold them into mean/SE curves.

    Episode seeds are mix64(base_seed, policy index, repetition index). Each
    policy's repetitions are played in blocks (see _blocks), one run_episode
    call per block; with workers > 1 the blocks run in a process pool of at
    most as many workers as there are blocks to run.
    Traces are folded in job order (policy, then repetition), so the
    aggregate matches serial execution exactly, whatever the blocks.
    A failed repetition aborts the experiment with its seed in the message.

    Every run computes its own table, config.table(), on the config's
    instance. With an output directory, a finished run writes it to
    nu_table.json beside the other artifacts; no run reads it back, so a rerun
    overwrites every file it writes.
    """
    table = config.table()
    out = Path(config.output_dir) if config.output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        # the text of every play and gap, looked up by the traces' indices
        play_text, gap_text = _trace_text(config.instance.grid, table.gap)

    horizon, reps = config.horizon, config.repetitions
    n_pol = len(config.policies)
    rep_blocks = _blocks(config)
    jobs = [(p, spec, block, [mix64(config.base_seed, p, rep) for rep in block])
            for p, spec in enumerate(config.policies) for block in rep_blocks]
    _, specs, blocks, seeds = zip(*jobs)
    # run_episode's arguments, one column each
    columns = (specs, repeat(horizon), repeat(table), seeds,
               [config.dump_state and block[0] == 0 for block in blocks])

    sums = np.zeros((n_pol, horizon))
    sumsq = np.zeros((n_pol, horizon))
    censor = np.zeros(n_pol)
    realized = np.zeros(n_pol)
    residual = np.zeros(n_pol)
    states: dict = {}

    executor = None
    if config.workers > 1:
        # imported here, so a serial run does not pay for the pool's import
        from concurrent.futures import ProcessPoolExecutor

        # under fork every worker starts at the first submit, so a worker
        # beyond the number of jobs would only sit idle
        executor = ProcessPoolExecutor(max_workers=min(config.workers, len(jobs)))
    handle = None
    try:
        # run_episode is looked up at each call, so a wrapper on sim.run_episode runs
        results = (executor.map if executor else map)(run_episode, *columns)
        for p, spec, block, block_seeds in jobs:
            try:
                traces = next(results)
            except Exception as exc:
                # a failure with no seed_index is the whole block's
                i = getattr(exc, "seed_index", 0 if len(block) == 1 else None)
                if i is None:
                    which = (f"repetitions {block[0]}-{block[-1]}",
                             f"seeds {', '.join(map(str, block_seeds))}")
                else:
                    which = f"repetition {block[i]}", f"seed {block_seeds[i]}"
                raise RuntimeError(
                    f"{which[0]} of policy {spec.label!r} failed ({which[1]})"
                ) from exc
            for rep in block:
                trace = traces.pop(0)
                sums[p] += trace.cum_regret
                sumsq[p] += trace.cum_regret**2
                censor[p] += trace.censored_share
                realized[p] += trace.realized_total
                residual[p] = max(residual[p], decomposition_check(trace, table))
                if rep == 0 and trace.final_state is not None:
                    states[spec.label] = trace.final_state
                if out is not None:
                    if rep == 0:
                        if handle is not None:
                            handle.close()
                        handle = open(out / f"trace_{spec.label}.csv", "w",
                                      encoding="utf-8", newline="")
                        handle.write(_TRACE_HEADER)
                    _write_trace(handle, rep, trace, play_text, gap_text)
            # the next block runs inside next(results): hold no trace across it
            del traces, trace
    finally:
        if handle is not None:
            handle.close()
        if executor is not None:
            executor.shutdown()

    mean = sums / reps
    if reps > 1:
        var = np.maximum(sumsq - reps * mean**2, 0.0) / (reps - 1)
        stderr = np.sqrt(var / reps)
    else:
        stderr = np.zeros_like(mean)
    agg = Aggregate(
        labels=tuple(s.label for s in config.policies),
        horizon=horizon,
        repetitions=reps,
        mean_cum_regret=mean,
        stderr_cum_regret=stderr,
        censored_share=censor / reps,
        mean_realized_total=realized / reps,
        max_residual=residual,
        table=table,
        final_states=states if config.dump_state else None,
    )
    if out is not None:
        table.save(out / "nu_table.json")
        _write_aggregate(out / "aggregate.csv", agg)
        _write_summary(out / "summary.json", config, agg)
        if config.dump_state:
            for label, state in states.items():
                (out / f"state_{label}.json").write_text(
                    json.dumps(state, indent=1), encoding="utf-8"
                )
    return agg


def _write_aggregate(path: Path, agg: Aggregate) -> None:
    """AGGREGATE_HEADER rows, policy-major, in bytes equal to csv.writer's."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(AGGREGATE_HEADER)
        for p, label in enumerate(agg.labels):
            label_text = _csv_field(label)
            for start in range(0, agg.horizon, _WRITE_CHUNK):
                part = slice(start, min(start + _WRITE_CHUNK, agg.horizon))
                _write_lines(handle, (
                    map(str, range(part.start + 1, part.stop + 1)),
                    repeat(label_text),
                    map(repr, agg.mean_cum_regret[p, part].tolist()),
                    map(repr, agg.stderr_cum_regret[p, part].tolist()),
                ))


def _write_summary(path: Path, config: ExperimentConfig, agg: Aggregate) -> None:
    doc = {
        "horizon": agg.horizon,
        "repetitions": agg.repetitions,
        "base_seed": config.base_seed,
        "optimal": agg.table.optimum(),
        "policies": [
            {
                "label": label,
                "final_regret_mean": float(agg.mean_cum_regret[p, -1]),
                "final_regret_stderr": float(agg.stderr_cum_regret[p, -1]),
                "mean_censored_share": float(agg.censored_share[p]),
                "mean_realized_total": float(agg.mean_realized_total[p]),
                "max_decomposition_residual": float(agg.max_residual[p]),
            }
            for p, label in enumerate(agg.labels)
        ],
    }
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def concentration_audit(arm_spec, taus, alpha: float = 2.0, t_check: int = 1000,
                        runs: int = 10_000,
                        base_seed: int = 0) -> list[tuple[float, float, float]]:
    """Empirical tail rates of the confidence radius against its bound, per limit.

    Each run forces t_check plays of the arm, forms the estimate at every limit
    in taus from the same t_check draws, and flags deviations beyond
    sqrt(2 alpha ln t / t) in either direction. Run r draws once, from
    mix64(base_seed, r), whatever the limits. Under any positive discount weight
    the weight cancels from both sides, so the check runs on the mixed-moment
    scale. Returns one (upper rate, lower rate, bound at (t_check, alpha))
    triple per limit, in the order of taus.

    Runs are evaluated in passes: a pass draws its runs in run order into one
    buffer and takes each block of limits' estimates as one mean over
    (limits, runs, t_check), which gives every run's own mean bit for bit. A
    block holds at most _AUDIT_BLOCK draws (one limit of one run at least), so
    memory stays bounded whatever runs and t_check are.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DomainError("taus must be a non-empty sequence of limits")
    # a NaN limit would fail every deviation test, and both rates would read 0
    if not (np.isfinite(taus).all() and (taus > 0.0).all()):
        raise DomainError("taus must be finite and positive")
    check_alpha(alpha)
    for name, value, least in (("t_check", t_check, 2), ("runs", runs, 1)):
        check_integer(name, value)
        if value < least:
            raise DomainError(f"{name} must be at least {least}")
    mu = true_mixed_moments(arm_spec, taus)[:, None]
    radius = math.sqrt(2.0 * alpha * math.log(t_check) / t_check)
    # runs per pass, then limits per block of a pass: a block holds at most
    # _AUDIT_BLOCK draws, and with more than one run a pass is one block
    per_pass = min(runs, max(1, _AUDIT_BLOCK // (taus.size * t_check)))
    rows = max(1, _AUDIT_BLOCK // (per_pass * t_check))
    chunks = [slice(start, start + rows) for start in range(0, taus.size, rows)]
    limits = taus[:, None, None]
    rewards = np.empty((per_pass, t_check))
    costs = np.empty((per_pass, t_check))
    upper = np.zeros(taus.size, dtype=np.int64)
    lower = np.zeros(taus.size, dtype=np.int64)
    for first in range(0, runs, per_pass):
        size = min(per_pass, runs - first)
        for k in range(size):
            rng = np.random.default_rng(mix64(base_seed, first + k))
            rewards[k], costs[k] = arm_spec.sample(rng, t_check)
        rew, cost = rewards[:size], costs[:size]
        for part in chunks:
            dev = np.mean(rew * admits(cost, limits[part]), axis=-1) - mu[part]
            # radius > 0, so at most one of the two holds
            upper[part] += np.count_nonzero(dev > radius, axis=1)
            lower[part] += np.count_nonzero(dev < -radius, axis=1)
    bound = concentration_bound(t_check, alpha)
    return [(u / runs, l / runs, bound) for u, l in zip(upper.tolist(), lower.tolist())]
