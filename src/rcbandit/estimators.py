"""Online sufficient statistics fed by (possibly censored) rounds.

All three estimators keep (n_arms, m) arrays indexed [arm, grid point] and
store counts and sums rather than running means, so reads are exact. Callers
read the arrays (counts, sums, successes, failures) or mean_matrix() directly.

A round reaches an estimator as grid indices only: the arm, the played limit
and lo = core.ResourceGrid.first_admitting(cost), the grid form of the
censoring rule core.admits, computed for the whole episode by
envs.sample_episode. The cells whose limit admits the cost are those from lo
on, and the round is censored iff lo lies beyond the played limit; its
reward is then passed as 0.0 and no estimator reads it. No comparison of a
cost with a limit is written here.

Per-round hook contract: each estimator's update_by_index stays in its own
class body, called as update_by_index(arm0, k, lo, reward[, rng]) with the
0-based arm first and, for the censored and Beta estimators, the
touched-cell count k third; the per-layer benchmark trace wraps it there and
reads k as the number of cells a round touches.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, ResourceGrid


def _snapshot(grid: ResourceGrid, columns) -> list[dict]:
    """One JSON-ready dict per [arm, grid point], arm-major, with the arm
    (1-based), the limit, then key: cast(array[arm, point]) per column."""
    n = columns[0][2].shape[0]
    return [
        {"arm": i + 1, "tau": float(tau),
         **{key: cast(values[i, j]) for key, cast, values in columns}}
        for i in range(n)
        for j, tau in enumerate(grid.points)
    ]


class _CountSumEstimator:
    """Counts N and reward sums per cell; mu_hat = sums / N."""

    count_key = "n"

    def __init__(self, n: int, grid: ResourceGrid):
        self.grid = grid
        self.counts = np.zeros((n, grid.m))
        self.sums = np.zeros((n, grid.m))

    def mean_matrix(self) -> np.ndarray:
        """Elementwise mu_hat with zeros where N = 0."""
        return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1.0), 0.0)

    def snapshot(self) -> list[dict]:
        return _snapshot(self.grid, ((self.count_key, int, self.counts),
                                     ("sum", float, self.sums)))


class CensoredMomentEstimator(_CountSumEstimator):
    """Mixed-moment estimate that updates every grid point at or below the play.

    Playing (arm, tau_chosen) increments N for every tau' <= tau_chosen and
    adds the reward to the sums of the tau' that admit the cost; a censored
    round contributes count but zero reward everywhere. This is what lets a
    single round feed up to m cells instead of one.
    """

    def update_by_index(self, arm0: int, k: int, lo: int, reward: float) -> None:
        """Count the round in cells [0, k) of arm0, k = grid index of the play + 1,
        and add the reward to the admitting cells [lo, k).

        A censored round has lo >= k: the slice is empty, and adding to no
        cells leaves every bit as it was, so no branch is needed.
        """
        touched = self.counts[arm0, :k]
        touched += 1.0
        paid = self.sums[arm0, lo:k]
        paid += reward


class NaiveEstimator(_CountSumEstimator):
    """Per-pair sample mean using only rounds where exactly that pair was played."""

    count_key = "t"

    def update_by_index(self, arm0: int, j: int, lo: int, reward: float) -> None:
        self.counts[arm0, j] += 1.0
        if lo <= j:
            self.sums[arm0, j] += reward


TS_INDICATORS = ("per_pair", "chosen_limit")


class BetaPosterior:
    """Beta(a0 + S, b0 + F) posterior per pair, grown by Bernoulli trials.

    An update touches every tau' <= tau_chosen. The trial success probability
    is reward * 1{tau' admits cost} under the default "per_pair" indicator
    (each cell is credited only for completions under its own limit), or
    reward under "chosen_limit" (every touched cell shares the played limit's
    indicator, which admitted the cost). Censored rounds have success
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

    def update_by_index(self, arm0: int, k: int, lo: int, reward: float,
                        rng: np.random.Generator) -> None:
        """One trial in each of the cells [0, k) of arm0, k = grid index of the play + 1;
        the round is uncensored iff lo < k."""
        prob = np.zeros(k)
        if lo < k:
            prob[lo if self.indicator == "per_pair" else 0:] = reward
        hit = rng.random(k) < prob
        self.successes[arm0, :k] += hit
        self.failures[arm0, :k] += ~hit

    def posterior_params(self) -> tuple[np.ndarray, np.ndarray]:
        return self.prior[0] + self.successes, self.prior[1] + self.failures

    def snapshot(self) -> list[dict]:
        return _snapshot(self.grid, (("s", int, self.successes),
                                     ("f", int, self.failures)))
