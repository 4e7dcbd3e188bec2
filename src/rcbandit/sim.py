"""Episode runner, regret accounting, aggregation, and empirical tail audits.

Episodes are independent: each gets an environment stream and a policy
stream derived from its seed, so repetitions can run in worker processes
and still aggregate exactly as in serial execution. The fold over
repetitions always happens in repetition-index order.

A round is censored by the one statement of the censoring rule in core:
sample_episode computes lo = ResourceGrid.first_admitting(cost) for every
round and arm once per episode, the episode loop reads the played arm's lo,
and the play at grid index j is censored iff lo > j (the audit calls
core.admits). The initialization schedule a horizon must cover comes from
policies.init_length. run_episode states the per-round hook contract.

The concentration audit draws each run once and evaluates every limit on
those draws, as nu_table(..., "monte_carlo") does with its per-arm batch.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import ConfigError, DomainError, InstanceSpec, admits, mix64
from .envs import sample_episode
from .oracle import NuTable, _exact_moments, concentration_bound, nu_table
from .policies import PolicySpec, init_length, make_policy


@dataclass(frozen=True, eq=False)
class RunTrace:
    """One episode: per-round choices and regret, per-run tallies."""

    arms: np.ndarray
    taus: np.ndarray
    censored: np.ndarray
    rewards: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    play_counts: np.ndarray
    censored_share: float
    realized_total: float
    final_state: list | None = None

    @property
    def horizon(self) -> int:
        return self.arms.shape[0]


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
    """Everything run_experiment needs; the CLI builds this from JSON."""

    instance: InstanceSpec
    policies: tuple[PolicySpec, ...]
    horizon: int
    repetitions: int = 20
    base_seed: int = 0
    oracle_method: str = "quadrature"
    oracle_nodes: int = 200
    oracle_samples: int = 1_000_000
    workers: int = 1
    output_dir: Path | None = None
    dump_state: bool = False

    def __post_init__(self):
        if not self.policies:
            raise ConfigError("at least one policy is required")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        labels = [spec.label for spec in self.policies]
        if len(set(labels)) != len(labels):
            raise ConfigError("policy labels must be unique; set label explicitly")
        need = max(init_length(s.kind, self.instance) for s in self.policies)
        if self.horizon < need:
            raise ConfigError(
                f"horizon {self.horizon} shorter than the {need}-round "
                "initialization of the configured policies"
            )


def _check_table(table: NuTable, instance: InstanceSpec) -> None:
    """Raise ConfigError unless the table has one row per arm and one column
    per grid point, at the same limits."""
    if table.mu.shape != (instance.n, instance.grid.m) or not np.allclose(
        table.taus, instance.grid.as_array()
    ):
        raise ConfigError("nu table does not match the instance")


def run_episode(instance: InstanceSpec, spec: PolicySpec, horizon: int,
                table: NuTable, seed: int, keep_state: bool = False) -> RunTrace:
    """Play one policy for `horizon` rounds; fully deterministic given seed.

    The environment stream and the policy stream are split off the seed, so
    two policies on the same seed face identical outcome matrices.

    Per-round hook contract: every round calls policy.select() -> (arm0, j)
    and policy.update(lo, reward) through the policy object, with lo the
    played arm's grid.first_admitting(cost) from sample_episode and reward
    0.0 on a censored round (lo > j), so no estimator can read a censored
    reward. The policy reaches its index_matrix, the module-global
    policies.argmax_pair and its estimator's update_by_index through their
    owners; the draws come from each arm's sample(), called by the
    module-level sample_episode. The benchmark trace (perfbench/tracer.py)
    wraps exactly these callables to split a round's cost by layer, so
    inlining one of them silently zeroes that layer's metrics.
    """
    _check_table(table, instance)
    need = init_length(spec.kind, instance)
    if horizon < need:
        raise ConfigError(
            f"horizon {horizon} shorter than the {need}-round initialization "
            f"of {spec.kind}"
        )
    env_rng = np.random.default_rng(mix64(seed, 0))
    policy_rng = np.random.default_rng(mix64(seed, 1))
    rewards, lo_matrix = sample_episode(instance, env_rng, horizon)
    policy = make_policy(spec, instance, rng=policy_rng,
                         optimal_pair=(table.optimal_arm, table.optimal_tau))

    arms0 = np.empty(horizon, dtype=np.int64)
    tau_idx = np.empty(horizon, dtype=np.int64)
    censored = np.zeros(horizon, dtype=bool)
    observed = np.zeros(horizon, dtype=float)
    for t in range(horizon):
        arm0, j = policy.select()
        lo = lo_matrix.item(t, arm0)
        if lo <= j:
            r = rewards.item(t, arm0)
            observed[t] = r
        else:
            r = 0.0
            censored[t] = True
        policy.update(lo, r)
        arms0[t] = arm0
        tau_idx[t] = j
    del rewards, lo_matrix

    counts = np.zeros((instance.n, instance.grid.m), dtype=np.int64)
    np.add.at(counts, (arms0, tau_idx), 1)
    inst_regret = table.gap[arms0, tau_idx]
    grid = instance.grid.as_array()
    return RunTrace(
        arms=arms0 + 1,
        taus=grid[tau_idx],
        censored=censored,
        rewards=observed,
        inst_regret=inst_regret,
        cum_regret=np.cumsum(inst_regret),
        play_counts=counts,
        censored_share=float(censored.mean()) if horizon else 0.0,
        realized_total=float(observed.sum()),
        final_state=policy.snapshot() if keep_state else None,
    )


def decomposition_check(trace: RunTrace, table: NuTable) -> float:
    """|R_T - sum over pairs of gap * play count|; exact up to accumulation."""
    total = float(trace.cum_regret[-1]) if trace.horizon else 0.0
    played = float(np.sum(trace.play_counts * table.gap))
    return abs(total - played)


def _episode_task(payload):
    instance, spec, horizon, table, seed, keep_state = payload
    return run_episode(instance, spec, horizon, table, seed, keep_state)


_TRACE_HEADER = "rep,round,arm,tau,censored,reward,inst_regret,cum_regret\n"
_AGGREGATE_HEADER = "round,policy,mean_cum_regret,stderr\n"

# rows converted to Python objects at a time: bounds the writers' memory
_WRITE_CHUNK = 4096
# draws the audit evaluates at once, over limits x t_check: bounds its memory
_AUDIT_BLOCK = 1 << 21


def _csv_field(text: str) -> str:
    """text as csv.writer renders it among other fields, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def _distinct_text(values: np.ndarray):
    """repr of each float, formatting every distinct bit pattern once.

    Keyed on the bits rather than the value, so 0.0 and -0.0 keep their text.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    return map(text.__getitem__, inverse.tolist())


def _write_lines(handle, columns) -> None:
    """Write rows given as columns of field text, comma-separated, "\n"-ended."""
    handle.write("\n".join(map(",".join, zip(*columns))))
    handle.write("\n")


def _write_trace(handle, rep: int, trace: RunTrace) -> None:
    """Append one repetition's _TRACE_HEADER rows, in bytes equal to csv.writer's.

    Numbers are written as str/repr, like csv.writer does; the few distinct
    limits and gaps are formatted once per chunk.
    """
    rep_text = str(rep)
    for start in range(0, trace.horizon, _WRITE_CHUNK):
        part = slice(start, min(start + _WRITE_CHUNK, trace.horizon))
        _write_lines(handle, (
            repeat(rep_text),
            map(str, range(part.start + 1, part.stop + 1)),
            map(str, trace.arms[part].tolist()),
            _distinct_text(trace.taus[part]),
            map("01".__getitem__, trace.censored[part].tolist()),
            map(repr, trace.rewards[part].tolist()),
            _distinct_text(trace.inst_regret[part]),
            map(repr, trace.cum_regret[part].tolist()),
        ))


def run_experiment(config: ExperimentConfig, table: NuTable | None = None) -> Aggregate:
    """Run reps x policies episodes and fold them into mean/SE curves.

    Episode seeds are mix64(base_seed, policy index, repetition index).
    With workers > 1 the episodes run in a process pool; results are folded
    in submission order, so the aggregate matches serial execution exactly.
    A failed repetition aborts the experiment with its seed in the message.

    The table is the caller's, or computed here from the config's oracle
    settings. With an output directory, a finished run writes the table it
    used to nu_table.json beside the other artifacts; no run reads it back,
    so a rerun overwrites every file it writes.
    """
    if table is None:
        table = nu_table(
            config.instance, config.oracle_method,
            nodes=config.oracle_nodes, samples=config.oracle_samples,
            seed=config.base_seed,
        )
    out = Path(config.output_dir) if config.output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    horizon, reps = config.horizon, config.repetitions
    n_pol = len(config.policies)
    payloads = []
    seeds = []
    for p, spec in enumerate(config.policies):
        for rep in range(reps):
            seed = mix64(config.base_seed, p, rep)
            keep = config.dump_state and rep == 0
            payloads.append((config.instance, spec, horizon, table, seed, keep))
            seeds.append((spec.label, rep, seed))

    sums = np.zeros((n_pol, horizon))
    sumsq = np.zeros((n_pol, horizon))
    censor = np.zeros(n_pol)
    realized = np.zeros(n_pol)
    residual = np.zeros(n_pol)
    states: dict = {}

    executor = ProcessPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    handle = None
    try:
        results = executor.map(_episode_task, payloads) if executor else map(_episode_task, payloads)
        it = iter(results)
        for idx in range(len(payloads)):
            label, rep, seed = seeds[idx]
            try:
                trace = next(it)
            except Exception as exc:
                raise RuntimeError(
                    f"repetition {rep} of policy {label!r} failed (seed {seed})"
                ) from exc
            p = idx // reps
            sums[p] += trace.cum_regret
            sumsq[p] += trace.cum_regret**2
            censor[p] += trace.censored_share
            realized[p] += trace.realized_total
            residual[p] = max(residual[p], decomposition_check(trace, table))
            if trace.final_state is not None:
                states[label] = trace.final_state
            if out is not None:
                if rep == 0:
                    if handle is not None:
                        handle.close()
                    handle = open(out / f"trace_{label}.csv", "w",
                                  encoding="utf-8", newline="")
                    handle.write(_TRACE_HEADER)
                _write_trace(handle, rep, trace)
            # the next episode runs inside next(it): hold no trace across it
            del trace
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
    """_AGGREGATE_HEADER rows, policy-major, in bytes equal to csv.writer's."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_AGGREGATE_HEADER)
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
        "optimal": {
            "arm": agg.table.optimal_arm,
            "tau": agg.table.optimal_tau,
            "nu_star": agg.table.nu_star,
        },
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
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DomainError("taus must be a non-empty sequence of limits")
    if not (math.isfinite(alpha) and alpha > 1):
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    if t_check < 2:
        raise DomainError("t_check must be at least 2")
    if runs < 1:
        raise DomainError("runs must be at least 1")
    mu = _exact_moments(arm_spec, taus, 200)
    radius = math.sqrt(2.0 * alpha * math.log(t_check) / t_check)
    # limits per (limits x t_check) block: at most _AUDIT_BLOCK elements, or one row
    rows = max(1, _AUDIT_BLOCK // t_check)
    chunks = [slice(start, start + rows) for start in range(0, taus.size, rows)]
    upper = np.zeros(taus.size, dtype=np.int64)
    lower = np.zeros(taus.size, dtype=np.int64)
    for r in range(runs):
        rng = np.random.default_rng(mix64(base_seed, r))
        rew, cost = arm_spec.sample(rng, t_check)
        for part in chunks:
            dev = np.mean(rew * admits(cost, taus[part, None]), axis=1) - mu[part]
            # radius > 0, so at most one of the two holds
            upper[part] += dev > radius
            lower[part] += dev < -radius
    bound = concentration_bound(t_check, alpha)
    return [(u / runs, l / runs, bound) for u, l in zip(upper.tolist(), lower.tolist())]
