"""Arm models and environments.

Three families of arms: bivariate Gaussians truncated to the unit square
(sampled by rejection), analytic arms with closed-form mixed moments for
oracle cross-checks, and replay of recorded (reward, cost) traces.

Arms only draw (reward, cost) pairs; whether a draw is censored is decided by
the censoring rule in core: ResourceGrid.first_admitting in sample_episode,
admits in the closed-form moments here. An episode keeps no cost: the limit
only matters through whether the cost stays below it, so sample_episode
turns each arm's costs into lo = first_admitting(cost), once per episode,
and the rounds read lo. DegenerateArm, TraceArm and trace_env_load reject a
NaN or negative cost, and sample_episode checks every arm's draws, which
covers user-defined arms too.

Per-round hook contract: GaussianArm.sample stays in the class body and is
called through the arm, because the per-layer benchmark trace wraps it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigError, DomainError, InstanceSpec, SamplingError, admits

# rejection sampling budget: attempts allowed per requested draw
MAX_ATTEMPTS_PER_DRAW = 10**6
_BATCH_CAP = 1 << 21


def make_cov(x: float, sigma: float) -> np.ndarray:
    """Covariance sigma * [[1, r], [r, 1]] with r = 2x * sqrt(1 - x^2).

    x in [0, 1] steers the reward/cost correlation; the matrix becomes
    singular when r reaches 1 (at x = 1/sqrt(2)), which is rejected.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError("sigma must be positive and finite")
    r = 2.0 * x * np.sqrt(1.0 - x * x)
    if r >= 1.0 - 1e-12:
        raise DomainError(f"correlation parameter x={x} makes the covariance singular")
    return sigma * np.array([[1.0, r], [r, 1.0]])


@dataclass(frozen=True)
class GaussianArm:
    """Bivariate Gaussian (reward, cost) truncated to [0, 1]^2.

    mean is the pre-truncation mean vector; ground-truth moments on the
    truncated law come from the oracle, not from these parameters.
    """

    mean: tuple[float, float]
    x: float
    sigma: float

    def __post_init__(self) -> None:
        if len(self.mean) != 2:
            raise ConfigError("mean must have exactly two components")
        # a NaN mean would only show as a rejection sampler that never accepts
        if not all(math.isfinite(v) for v in self.mean):
            raise ConfigError("mean must be finite")
        make_cov(self.x, self.sigma)  # validates

    def cov(self) -> np.ndarray:
        return make_cov(self.x, self.sigma)

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        return _truncated_batch(np.asarray(self.mean, dtype=float), self.cov(), rng, size)


def _truncated_batch(mean, cov, rng, size):
    chol = np.linalg.cholesky(cov)
    rewards = np.empty(size)
    costs = np.empty(size)
    filled = 0
    budget = MAX_ATTEMPTS_PER_DRAW * size
    while filled < size:
        need = size - filled
        batch = min(max(2 * need, 256), _BATCH_CAP, budget)
        if batch <= 0:
            raise SamplingError(
                f"rejection sampling exceeded {MAX_ATTEMPTS_PER_DRAW} attempts per draw"
            )
        z = rng.standard_normal((batch, 2)) @ chol.T
        z += mean
        ok = (z[:, 0] >= 0.0) & (z[:, 0] <= 1.0) & (z[:, 1] >= 0.0) & (z[:, 1] <= 1.0)
        rows = np.flatnonzero(ok)[:need]
        part = slice(filled, filled + rows.size)
        # rows are in range, so "clip" moves nothing; "raise" would buffer out
        np.take(z[:, 0], rows, out=rewards[part], mode="clip")
        np.take(z[:, 1], rows, out=costs[part], mode="clip")
        filled += rows.size
        budget -= batch
    return rewards, costs


@dataclass(frozen=True)
class DegenerateArm:
    """Point mass at (r0, c0); handy because every moment is exact."""

    r0: float
    c0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r0 <= 1.0:
            raise ConfigError("r0 must lie in [0, 1]")
        if not self.c0 >= 0.0:
            raise ConfigError("c0 must be non-negative")

    def sample(self, rng, size):
        return np.full(size, self.r0), np.full(size, self.c0)

    def mixed_moment(self, tau_prime: float) -> float:
        return self.r0 if admits(self.c0, tau_prime) else 0.0


@dataclass(frozen=True)
class UniformCostArm:
    """Constant reward with cost ~ Uniform[0, 1], independent of the reward."""

    reward_mean: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.reward_mean <= 1.0:
            raise ConfigError("reward_mean must lie in [0, 1]")

    def sample(self, rng, size):
        return np.full(size, self.reward_mean), rng.random(size)

    def mixed_moment(self, tau_prime: float) -> float:
        return self.reward_mean * min(tau_prime, 1.0)


REPLAY_MODES = ("sample", "cyclic")


@dataclass(frozen=True)
class TraceArm:
    """Replays recorded (reward, cost) rows.

    "sample" draws rows with replacement (keeps rounds i.i.d.); "cyclic"
    replays rows in order within one sampling batch, for deterministic tests.
    """

    rewards: tuple[float, ...]
    costs: tuple[float, ...]
    replay: str = "sample"

    def __post_init__(self) -> None:
        if len(self.rewards) == 0:
            raise ConfigError("trace arm needs at least one row")
        if len(self.rewards) != len(self.costs):
            raise ConfigError("rewards and costs must have equal length")
        if any(not 0.0 <= r <= 1.0 for r in self.rewards):
            raise ConfigError("trace rewards must lie in [0, 1]")
        if any(not c >= 0.0 for c in self.costs):
            raise ConfigError("trace costs must be non-negative")
        if self.replay not in REPLAY_MODES:
            raise ConfigError(f"unknown replay mode {self.replay!r}")

    def sample(self, rng, size):
        if self.replay == "cyclic":
            idx = np.arange(size) % len(self.rewards)
        else:
            idx = rng.integers(0, len(self.rewards), size=size)
        return np.asarray(self.rewards)[idx], np.asarray(self.costs)[idx]

    def mixed_moment(self, tau_prime: float) -> float:
        r = np.asarray(self.rewards)
        c = np.asarray(self.costs)
        return float(np.mean(r * admits(c, tau_prime)))


def sample_episode(instance: InstanceSpec, rng: np.random.Generator,
                   horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw a whole episode as (horizon, n) matrices (rewards, lo).

    lo[t, i] = grid.first_admitting(cost of arm i in round t), in the
    narrowest unsigned dtype that holds grid.m; a round played at limit j is
    censored iff lo > j. Arms are drawn one after the other (arm-major), so
    the stream is reproducible regardless of how rounds are consumed later,
    and each arm's costs become lo before the next arm draws, so no cost
    matrix is held. Raises DomainError naming the first arm that drew a
    reward outside [0, 1] or a cost that is negative or NaN.
    """
    grid = instance.grid
    rewards = np.empty((horizon, instance.n))
    lo = np.empty((horizon, instance.n), dtype=np.min_scalar_type(grid.m))
    for i, arm in enumerate(instance.arms):
        r, c = arm.sample(rng, horizon)
        rewards[:, i] = r
        c = np.asarray(c, dtype=float)
        # written so that NaN fails every comparison
        r = rewards[:, i]
        if not ((r >= 0.0) & (r <= 1.0) & (c >= 0.0)).all():
            raise DomainError(
                f"arm {i + 1} ({type(arm).__name__}) drew a reward outside "
                "[0, 1] or a negative or NaN cost"
            )
        lo[:, i] = grid.first_admitting(c)
    return rewards, lo


def trace_env_load(path, n_arms: int | None = None, replay: str = "sample") -> tuple[TraceArm, ...]:
    """Load per-arm traces from a CSV with header ``arm,reward,cost``.

    Arm indices are 1-based. When n_arms is given, every arm 1..n_arms must
    have at least one row. Malformed rows raise ConfigError naming the line.
    """
    path = Path(path)
    rows: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["arm", "reward", "cost"]:
            raise ConfigError(f"{path}: expected header arm,reward,cost")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                arm = int(row[0])
                reward = float(row[1])
                cost = float(row[2])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if arm < 1:
                raise ConfigError(f"{path}:{lineno}: arm index must be >= 1")
            if not 0.0 <= reward <= 1.0:
                raise ConfigError(f"{path}:{lineno}: reward {reward} outside [0, 1]")
            if not cost >= 0.0:
                raise ConfigError(f"{path}:{lineno}: cost {cost} must be non-negative")
            rows.setdefault(arm, []).append((reward, cost))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    count = n_arms if n_arms is not None else max(rows)
    arms = []
    for i in range(1, count + 1):
        if i not in rows:
            raise ConfigError(f"{path}: no rows for arm {i}")
        rewards, costs = zip(*rows[i])
        arms.append(TraceArm(rewards=rewards, costs=costs, replay=replay))
    if n_arms is not None and max(rows) > n_arms:
        raise ConfigError(f"{path}: arm index {max(rows)} exceeds instance size {n_arms}")
    return tuple(arms)
