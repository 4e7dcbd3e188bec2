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

GaussianArm.sample is a hook of the benchmark trace; the contract is stated
in the policies module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigError, DomainError, InstanceSpec, SamplingError, admits, check_reals

# rejection sampling budget: attempts allowed per requested draw
MAX_ATTEMPTS_PER_DRAW = 10**6
_BATCH_CAP = 1 << 21
# normal pairs a rejection batch draws and tests at a time: bounds its memory
_ROW_BLOCK = 4096


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
        check_reals(self)  # mean as a tuple, so the arm hashes: nu_table keys its rows by it
        # a NaN mean would only show as a rejection sampler that never accepts
        if not all(math.isfinite(v) for v in self.mean):
            raise ConfigError("mean must be finite")
        # the Cholesky factor, computed once (make_cov validates); not a
        # field, so eq, hash and repr ignore it, and pickle copies it
        chol = np.linalg.cholesky(make_cov(self.x, self.sigma))
        chol.flags.writeable = False
        object.__setattr__(self, "_chol", chol)

    def cov(self) -> np.ndarray:
        return make_cov(self.x, self.sigma)

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        return _truncated_batch(self.mean, self._chol, rng, size)


def _truncated_batch(mean, chol, rng, size):
    """size draws of N(mean, chol @ chol.T) that fall in the unit square, by
    rejection; chol is the lower Cholesky factor L of the covariance.

    Each batch of 2 x need normal pairs (within the caps) is drawn and
    accepted _ROW_BLOCK rows at a time into reused buffers, which draws the
    same normal stream as one (batch, 2) draw; rows of a batch beyond the one
    that fills the request are still drawn, so the stream after it is kept.
    A pair (n0, n1) becomes (n0 L00 + m_reward, n0 L10 + n1 L11 + m_cost) in
    place by elementwise ufuncs, so no BLAS kernel (fused multiply-add or not)
    decides a bit, and is accepted when both columns pass 0 <= z <= 1.
    """
    m_reward, m_cost = mean
    rewards = np.empty(size)
    costs = np.empty(size)
    normals = np.empty((min(max(2 * size, 256), _ROW_BLOCK), 2))
    filled = 0
    budget = MAX_ATTEMPTS_PER_DRAW * size
    while filled < size:
        batch = min(max(2 * (size - filled), 256), _BATCH_CAP, budget)
        if batch <= 0:
            raise SamplingError(
                f"rejection sampling exceeded {MAX_ATTEMPTS_PER_DRAW} attempts per draw"
            )
        for start in range(0, batch, normals.shape[0]):
            block = normals[:min(normals.shape[0], batch - start)]
            rng.standard_normal(out=block)
            if filled == size:
                continue
            reward, cost = block[:, 0], block[:, 1]
            cost *= chol[1, 1]
            cost += reward * chol[1, 0]
            cost += m_cost
            reward *= chol[0, 0]
            reward += m_reward
            inside = block >= 0.0
            inside &= block <= 1.0
            ok = inside[:, 0] & inside[:, 1]
            rows = np.flatnonzero(ok)[:size - filled]
            part = slice(filled, filled + rows.size)
            # rows are in range, so "clip" moves nothing; "raise" would buffer out
            np.take(reward, rows, out=rewards[part], mode="clip")
            np.take(cost, rows, out=costs[part], mode="clip")
            filled += rows.size
        budget -= batch
    return rewards, costs


@dataclass(frozen=True)
class DegenerateArm:
    """Point mass at (reward, cost); handy because every moment is exact."""

    reward: float
    cost: float

    def __post_init__(self) -> None:
        check_reals(self)
        if not 0.0 <= self.reward <= 1.0:
            raise ConfigError("reward must lie in [0, 1]")
        if not self.cost >= 0.0:
            raise ConfigError("cost must be non-negative")

    def sample(self, rng, size):
        return np.full(size, self.reward), np.full(size, self.cost)

    def mixed_moment(self, tau_prime: float) -> float:
        return self.reward if admits(self.cost, tau_prime) else 0.0


@dataclass(frozen=True)
class UniformCostArm:
    """Constant reward with cost ~ Uniform[0, 1], independent of the reward."""

    reward_mean: float

    def __post_init__(self) -> None:
        check_reals(self)
        if not 0.0 <= self.reward_mean <= 1.0:
            raise ConfigError("reward_mean must lie in [0, 1]")

    def sample(self, rng, size):
        return np.full(size, self.reward_mean), rng.random(size)

    def mixed_moment(self, tau_prime: float) -> float:
        return self.reward_mean * min(tau_prime, 1.0)


@dataclass(frozen=True)
class TraceArm:
    """Replays recorded (reward, cost) rows, drawn with replacement, so its
    rounds are i.i.d."""

    rewards: tuple[float, ...]
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        check_reals(self)  # rows as tuples, so the arm hashes: nu_table keys its rows by it
        if len(self.rewards) == 0:
            raise ConfigError("trace arm needs at least one row")
        if len(self.rewards) != len(self.costs):
            raise ConfigError("rewards and costs must have equal length")
        if any(not 0.0 <= r <= 1.0 for r in self.rewards):
            raise ConfigError("trace rewards must lie in [0, 1]")
        if any(not c >= 0.0 for c in self.costs):
            raise ConfigError("trace costs must be non-negative")

    def sample(self, rng, size):
        idx = rng.integers(0, len(self.rewards), size=size)
        return np.asarray(self.rewards)[idx], np.asarray(self.costs)[idx]

    def mixed_moment(self, tau_prime: float) -> float:
        r = np.asarray(self.rewards)
        c = np.asarray(self.costs)
        return float(np.mean(r * admits(c, tau_prime)))


def sample_episode(instance: InstanceSpec, rng: np.random.Generator,
                   horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw a whole episode as (horizon, n) matrices (rewards, lo).

    lo[t, i] = grid.first_admitting(cost of arm i in round t), in
    instance.index_dtype, which holds grid.m; a round played at limit j is
    censored iff lo > j. Arms are drawn one after the other (arm-major), so
    the stream is reproducible regardless of how rounds are consumed later,
    and each arm's costs become lo before the next arm draws, so no cost
    matrix is held. Raises DomainError naming the first arm that drew a
    reward outside [0, 1] or a cost that is negative or NaN.
    """
    rewards = np.empty((horizon, instance.n))
    lo = np.empty((horizon, instance.n), dtype=instance.index_dtype)
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
        lo[:, i] = instance.grid.first_admitting(c)
    return rewards, lo


def trace_env_load(path) -> tuple[TraceArm, ...]:
    """Load per-arm traces from a CSV with header ``arm,reward,cost``.

    Arm indices are 1-based, and every arm up to the largest index must have
    at least one row. Malformed rows raise ConfigError naming the line.
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
    arms = []
    for i in range(1, max(rows) + 1):
        if i not in rows:
            raise ConfigError(f"{path}: no rows for arm {i}")
        rewards, costs = zip(*rows[i])
        arms.append(TraceArm(rewards=rewards, costs=costs))
    return tuple(arms)
