"""Online sufficient statistics fed by (possibly censored) round feedback.

All three estimators keep (n_arms, m) arrays indexed [arm, grid point] and
store counts and sums rather than running means, so queries are exact.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .core import ConfigError, DomainError, Feedback, ResourceGrid


class CensoredMomentEstimator:
    """Mixed-moment estimate that updates every grid point at or below the play.

    Playing (arm, tau_chosen) increments N for every tau' <= tau_chosen and
    adds reward * 1{cost <= tau'} to the sums; a censored round contributes
    count but zero reward everywhere. This is what lets a single round feed
    up to m cells instead of one.
    """

    def __init__(self, n: int, grid: ResourceGrid):
        self.grid = grid
        self.counts = np.zeros((n, grid.m))
        self.sums = np.zeros((n, grid.m))
        self.last_update_touched = 0
        self.total_touched = 0

    @property
    def n_arms(self) -> int:
        return self.counts.shape[0]

    def update(self, arm: int, tau_chosen: float, feedback: Feedback) -> None:
        if not 1 <= arm <= self.n_arms:
            raise DomainError(f"arm {arm} outside 1..{self.n_arms}")
        k = self.grid.index_of(tau_chosen) + 1
        self.update_by_index(arm - 1, k, feedback)

    def update_by_index(self, arm0: int, k: int, feedback: Feedback) -> None:
        """Fast path for policies: arm0 is 0-based, k = grid index of the play + 1.

        The grid points with cost <= tau' form the suffix that starts at
        bisect_left(points, cost), so the reward is added to that slice alone.
        """
        touched = self.counts[arm0, :k]
        touched += 1.0
        if not feedback.censored:
            lo = bisect_left(self.grid.points, feedback.cost)
            paid = self.sums[arm0, lo:k]
            paid += feedback.reward
        self.last_update_touched = k
        self.total_touched += k

    def query(self, arm: int, tau_prime: float) -> tuple[float, int]:
        """(mu_hat, N) for one pair; (0, 0) before the pair has any count."""
        j = self.grid.index_of(tau_prime)
        n = self.counts[arm - 1, j]
        if n == 0:
            return 0.0, 0
        return float(self.sums[arm - 1, j] / n), int(n)

    def mean_matrix(self) -> np.ndarray:
        """Elementwise mu_hat with zeros where N = 0."""
        return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1.0), 0.0)

    def snapshot(self) -> list[dict]:
        return [
            {"arm": i + 1, "tau": float(tau), "n": int(self.counts[i, j]),
             "sum": float(self.sums[i, j])}
            for i in range(self.n_arms)
            for j, tau in enumerate(self.grid.points)
        ]


class NaiveEstimator:
    """Per-pair sample mean using only rounds where exactly that pair was played."""

    def __init__(self, n: int, grid: ResourceGrid):
        self.grid = grid
        self.counts = np.zeros((n, grid.m))
        self.sums = np.zeros((n, grid.m))

    @property
    def n_arms(self) -> int:
        return self.counts.shape[0]

    def update(self, arm: int, tau_chosen: float, feedback: Feedback) -> None:
        if not 1 <= arm <= self.n_arms:
            raise DomainError(f"arm {arm} outside 1..{self.n_arms}")
        self.update_by_index(arm - 1, self.grid.index_of(tau_chosen), feedback)

    def update_by_index(self, arm0: int, j: int, feedback: Feedback) -> None:
        self.counts[arm0, j] += 1.0
        if not feedback.censored:
            self.sums[arm0, j] += feedback.reward

    def query(self, arm: int, tau_prime: float) -> tuple[float, int]:
        j = self.grid.index_of(tau_prime)
        t = self.counts[arm - 1, j]
        if t == 0:
            return 0.0, 0
        return float(self.sums[arm - 1, j] / t), int(t)

    def mean_matrix(self) -> np.ndarray:
        return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1.0), 0.0)

    def snapshot(self) -> list[dict]:
        return [
            {"arm": i + 1, "tau": float(tau), "t": int(self.counts[i, j]),
             "sum": float(self.sums[i, j])}
            for i in range(self.n_arms)
            for j, tau in enumerate(self.grid.points)
        ]


TS_INDICATORS = ("per_pair", "chosen_limit")


class BetaPosterior:
    """Beta(a0 + S, b0 + F) posterior per pair, grown by Bernoulli trials.

    An update touches every tau' <= tau_chosen. The trial success probability
    is reward * 1{cost <= tau'} under the default "per_pair" indicator (each
    cell is credited only for completions under its own limit), or
    reward * 1{cost <= tau_chosen} under "chosen_limit" (every touched cell
    shares the played limit's indicator). Censored rounds have success
    probability zero either way. Trials are independent uniform draws
    compared against the probabilities, in ascending tau' order.
    """

    def __init__(self, n: int, grid: ResourceGrid, prior: tuple[float, float] = (1.0, 1.0),
                 indicator: str = "per_pair"):
        if not (prior[0] > 0 and prior[1] > 0):
            raise ConfigError("Beta prior parameters must be positive")
        if indicator not in TS_INDICATORS:
            raise ConfigError(f"unknown TS indicator {indicator!r}")
        self.grid = grid
        self.prior = (float(prior[0]), float(prior[1]))
        self.indicator = indicator
        self.successes = np.zeros((n, grid.m))
        self.failures = np.zeros((n, grid.m))
        self._taus = grid.as_array()

    @property
    def n_arms(self) -> int:
        return self.successes.shape[0]

    def update(self, arm: int, tau_chosen: float, feedback: Feedback,
               rng: np.random.Generator) -> None:
        if not 1 <= arm <= self.n_arms:
            raise DomainError(f"arm {arm} outside 1..{self.n_arms}")
        k = self.grid.index_of(tau_chosen) + 1
        self.update_by_index(arm - 1, k, feedback, rng)

    def update_by_index(self, arm0: int, k: int, feedback: Feedback,
                        rng: np.random.Generator) -> None:
        if feedback.censored:
            prob = np.zeros(k)
        elif self.indicator == "per_pair":
            prob = feedback.reward * (feedback.cost <= self._taus[:k])
        else:
            prob = np.full(k, feedback.reward)
        hit = rng.random(k) < prob
        self.successes[arm0, :k] += hit
        self.failures[arm0, :k] += ~hit

    def query(self, arm: int, tau_prime: float) -> tuple[int, int]:
        j = self.grid.index_of(tau_prime)
        return int(self.successes[arm - 1, j]), int(self.failures[arm - 1, j])

    def posterior_params(self) -> tuple[np.ndarray, np.ndarray]:
        return self.prior[0] + self.successes, self.prior[1] + self.failures

    def snapshot(self) -> list[dict]:
        return [
            {"arm": i + 1, "tau": float(tau), "s": int(self.successes[i, j]),
             "f": int(self.failures[i, j])}
            for i in range(self.n_arms)
            for j, tau in enumerate(self.grid.points)
        ]
