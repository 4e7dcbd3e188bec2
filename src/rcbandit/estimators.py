"""Online sufficient statistics fed by (possibly censored) rounds.

All three estimators keep the statistics of a block of repetitions played in
lockstep: (reps * n_arms, m) arrays indexed [rep * n_arms + arm, grid point],
the same memory as [rep, arm, grid point], so a block of one is the plain
(n_arms, m) matrix. They store counts and sums rather than running means, so
reads are exact: the Beta posterior's counts are its trials and its sums its
successes. Callers read the arrays (counts, sums) directly, and reshape them
to (reps, n_arms, m) as needed.

A round reaches every estimator as update_by_index(row, k, lo, reward), in
grid indices only: the row of the played (rep, arm), k = j + 1 for the played
grid index j (the naive estimator counts cell k - 1 only), and
lo = core.ResourceGrid.first_admitting(cost), the grid form of core.admits,
computed for the whole episode by envs.sample_episode. The cells from lo on
admit the cost; the round is censored iff lo >= k, and its reward is then
passed as 0.0, unread. No cost is compared with a limit here.

update_by_index is a per-round hook of the benchmark trace; the contract is
stated in the policies module.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, ResourceGrid, check_real


def _snapshot(grid: ResourceGrid, n: int, rep: int, columns) -> list[dict]:
    """One JSON-ready dict per [arm, grid point] of repetition rep, arm-major,
    with the arm (1-based), the limit, then key: cast(array[row, point]) per
    column, row = rep * n + arm."""
    base = rep * n
    return [
        {"arm": i + 1, "tau": float(tau),
         **{key: cast(values[base + i, j]) for key, cast, values in columns}}
        for i in range(n)
        for j, tau in enumerate(grid.points)
    ]


class _CountSumEstimator:
    """Counts N and reward sums per cell; mu_hat = sums / N."""

    count_key = "n"

    def __init__(self, n: int, grid: ResourceGrid, reps: int = 1):
        self.grid = grid
        self.n = n
        self.counts = np.zeros((reps * n, grid.m))
        self.sums = np.zeros((reps * n, grid.m))

    def snapshot(self, rep: int = 0) -> list[dict]:
        return _snapshot(self.grid, self.n, rep, ((self.count_key, int, self.counts),
                                                  ("sum", float, self.sums)))


class CensoredMomentEstimator(_CountSumEstimator):
    """Mixed-moment estimate that updates every grid point at or below the play.

    Playing (arm, tau_chosen) increments N for every tau' <= tau_chosen and
    adds the reward to the sums of the tau' that admit the cost; a censored
    round contributes count but zero reward everywhere. This is what lets a
    single round feed up to m cells instead of one.
    """

    def update_by_index(self, row: int, k: int, lo: int, reward: float) -> None:
        """Count the round in cells [0, k) of row, k = grid index of the play + 1,
        and add the reward to the admitting cells [lo, k).

        A censored round has lo >= k: the slice is empty, and adding to no
        cells leaves every bit as it was, so no branch is needed.
        """
        touched = self.counts[row, :k]
        touched += 1.0
        paid = self.sums[row, lo:k]
        paid += reward


class NaiveEstimator(_CountSumEstimator):
    """Per-pair sample mean using only rounds where exactly that pair was played."""

    count_key = "t"

    def update_by_index(self, row: int, k: int, lo: int, reward: float) -> None:
        j = k - 1
        self.counts[row, j] += 1.0
        if lo <= j:
            self.sums[row, j] += reward


TS_INDICATORS = ("per_pair", "chosen_limit")


def check_beta(prior, indicator: str) -> tuple[float, float]:
    """The prior as two floats, the one check of PolicySpec and BetaPosterior:
    ConfigError unless it is two positive finite numbers (not bools; NaN fails,
    a third would be ignored) and indicator is one of TS_INDICATORS."""
    if not (np.asarray(prior, dtype=object).shape == (2,)
            and all(0 < check_real("prior", p) < np.inf for p in prior)):
        raise ConfigError(f"Beta prior must be two positive finite numbers, got {prior!r}")
    if indicator not in TS_INDICATORS:
        raise ConfigError(f"unknown TS indicator {indicator!r}")
    return float(prior[0]), float(prior[1])


class BetaPosterior(_CountSumEstimator):
    """Beta(a0 + S, b0 + N - S) posterior per pair, grown by Bernoulli trials:
    counts holds each cell's trials N and sums its successes S, so the
    failures N - S are computed only where they are read.

    An update touches every tau' <= tau_chosen. The trial success probability
    is reward * 1{tau' admits cost} under the "per_pair" indicator
    (each cell is credited only for completions under its own limit), or
    reward under "chosen_limit" (every touched cell shares the played limit's
    indicator, which admitted the cost). Censored rounds have success
    probability zero either way. Trials are independent uniform draws
    compared against the probabilities, in ascending tau' order, drawn from
    rngs[rep], one Generator per repetition of the block, in rep order. The
    prior and indicator come from the policy, at PolicySpec's defaults.
    """

    def __init__(self, n: int, grid: ResourceGrid, rngs: list[np.random.Generator],
                 prior: tuple[float, float], indicator: str):
        super().__init__(n, grid, len(rngs))
        self.rngs = rngs
        self.prior = check_beta(prior, indicator)
        self.indicator = indicator

    def update_by_index(self, row: int, k: int, lo: int, reward: float) -> None:
        """One trial in each of the cells [0, k) of row, k = grid index of the play + 1;
        the round is uncensored iff lo < k.

        A uniform u < 1 never falls below a success probability of 0, so the
        cells below lo under "per_pair", and every cell of a censored round,
        fail whatever their draw; the k uniforms are drawn all the same.
        """
        u = self.rngs[row // self.n].random(k)
        touched = self.counts[row, :k]
        touched += 1.0
        if lo < k:
            first = lo if self.indicator == "per_pair" else 0
            self.sums[row, first:k] += u[first:] < reward

    def posterior_params(self) -> tuple[np.ndarray, np.ndarray]:
        return self.prior[0] + self.sums, self.prior[1] + (self.counts - self.sums)

    def snapshot(self, rep: int = 0) -> list[dict]:
        return _snapshot(self.grid, self.n, rep, (("s", int, self.sums),
                                                  ("f", int, self.counts - self.sums)))
