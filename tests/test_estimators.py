import numpy as np
import pytest

from rcbandit.core import ConfigError, build_grid
from rcbandit.estimators import BetaPosterior, CensoredMomentEstimator, NaiveEstimator
from rcbandit.policies import PolicySpec

from conftest import mean_matrix

GRID2 = build_grid(2, 1.0)  # {0.5, 1.0}; a play at 0.5 touches k = 1 cell, at 1.0 k = 2


def admitted(cost, reward, grid=GRID2):
    """(lo, reward) of a round whose cost the played limit admits."""
    return grid.first_admitting(cost), reward


CENSORED = (GRID2.m, 0.0)  # a cost above every limit: censored at any k


def cell(est, arm0, j):
    """(mu_hat, N) of one cell of a count/sum estimator."""
    return float(mean_matrix(est)[arm0, j]), int(est.counts[arm0, j])


TS = PolicySpec("ts")


def posterior(n, grid, seed, prior=TS.prior, indicator=TS.indicator):
    """A BetaPosterior of n arms and one repetition, at the ts policy's
    defaults unless prior or indicator is given."""
    return BetaPosterior(n, grid, [np.random.default_rng(seed)], prior, indicator)


def trials(post, arm0, j):
    """(successes S, failures N - S) of one cell of the Beta posterior."""
    s, n = int(post.sums[arm0, j]), int(post.counts[arm0, j])
    return s, n - s


def test_censored_update_running_mean():
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 1, *admitted(0.4, 0.5))
    est.update_by_index(0, 1, *admitted(0.4, 0.5))
    assert cell(est, 0, 0) == (0.5, 2)

    est.update_by_index(0, 1, *admitted(0.4, 0.8))
    mu, n = cell(est, 0, 0)
    assert n == 3 and mu == pytest.approx((2 * 0.5 + 0.8) / 3)


def test_censored_update_censored_branch():
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 1, *admitted(0.4, 0.5))
    est.update_by_index(0, 1, *admitted(0.4, 0.5))
    est.update_by_index(0, 1, *CENSORED)
    mu, n = cell(est, 0, 0)
    assert n == 3 and mu == pytest.approx(1.0 / 3.0)


def test_censored_update_per_point_indicator():
    # play at 1.0 with cost 0.6: the 1.0 cell gets the reward, the 0.5 cell
    # gets the count but no reward
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 2, *admitted(0.6, 0.9))
    assert cell(est, 0, 1) == (0.9, 1)
    assert cell(est, 0, 0) == (0.0, 1)


def test_censored_query_fresh_and_censored_history():
    est = CensoredMomentEstimator(1, GRID2)
    assert cell(est, 0, 0) == (0.0, 0)
    est.update_by_index(0, 2, *admitted(0.2, 0.7))
    assert cell(est, 0, 1) == (0.7, 1)

    est2 = CensoredMomentEstimator(1, GRID2)
    for _ in range(5):
        est2.update_by_index(0, 2, *CENSORED)
    assert cell(est2, 0, 1) == (0.0, 5)


def test_censored_update_only_below_chosen():
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 1, *admitted(0.1, 1.0))
    assert cell(est, 0, 1) == (0.0, 0)


def test_touch_counter():
    grid = build_grid(4, 1.0)
    est = CensoredMomentEstimator(2, grid)
    est.update_by_index(0, 3, grid.m, 0.0)  # censored
    assert est.counts.sum() == 3
    est.update_by_index(1, 1, *admitted(0.2, 1.0, grid))
    assert est.counts[1].sum() == 1
    assert est.counts.sum() == 4
    assert est.counts[1].sum() <= grid.m


def test_naive_update_touches_one_pair():
    est = NaiveEstimator(1, GRID2)
    est.update_by_index(0, 2, *admitted(0.6, 0.9))
    assert cell(est, 0, 0) == (0.0, 0)
    assert cell(est, 0, 1) == (0.9, 1)


def test_naive_running_mean_and_censored():
    est = NaiveEstimator(1, GRID2)
    est.update_by_index(0, 1, *admitted(0.3, 0.4))
    assert cell(est, 0, 0) == (0.4, 1)
    est.update_by_index(0, 1, *admitted(0.3, 0.8))
    mu, t = cell(est, 0, 0)
    assert t == 2 and mu == pytest.approx(0.6)
    est.update_by_index(0, 1, *CENSORED)
    mu, t = cell(est, 0, 0)
    assert t == 3 and mu == pytest.approx(1.2 / 3)


def test_beta_update_certainties():
    post = posterior(1, GRID2, 0)
    post.update_by_index(0, 2, *CENSORED)
    assert trials(post, 0, 0) == (0, 1)
    assert trials(post, 0, 1) == (0, 1)

    post.update_by_index(0, 1, *admitted(0.4, 1.0))
    assert trials(post, 0, 0) == (1, 1)


def test_beta_update_monte_carlo_rate():
    post = posterior(1, GRID2, 123)
    trials_run = 100_000
    for _ in range(trials_run):
        post.update_by_index(0, 1, *admitted(0.4, 0.5))
    s, f = trials(post, 0, 0)
    assert s + f == trials_run
    assert s / trials_run == pytest.approx(0.5, abs=3 * np.sqrt(0.25 / trials_run))


def test_beta_indicator_variants():
    grid = build_grid(2, 1.0)
    fb = admitted(0.6, 1.0, grid)  # cost above the 0.5 cell, reward 1

    per_pair = posterior(1, grid, 1, indicator="per_pair")
    for _ in range(50):
        per_pair.update_by_index(0, 2, *fb)
    # cell 0.5 never completes under its own limit: all failures
    assert trials(per_pair, 0, 0) == (0, 50)
    assert trials(per_pair, 0, 1) == (50, 0)

    shared = posterior(1, grid, 2, indicator="chosen_limit")
    for _ in range(50):
        shared.update_by_index(0, 2, *fb)
    # the played limit's indicator is shared: certain success everywhere
    assert trials(shared, 0, 0) == (50, 0)
    assert trials(shared, 0, 1) == (50, 0)


def test_beta_validation():
    with pytest.raises(ConfigError):
        posterior(1, GRID2, 0, prior=(0.0, 1.0))
    with pytest.raises(ConfigError):
        posterior(1, GRID2, 0, indicator="other")
    # the rule PolicySpec applies too: one value would fail, a third be ignored,
    # and an infinite one give a degenerate posterior
    for prior in ((1.0,), (float("inf"), 1.0), (1.0, 2.0, 3.0)):
        with pytest.raises(ConfigError, match="prior"):
            posterior(1, GRID2, 0, prior=prior)


def _random_round(rng, grid, j):
    """(lo, reward) of a random play at limit j; a reward is drawn only if admitted."""
    cost = float(rng.uniform(0, 1.2))
    lo = grid.first_admitting(cost)
    if lo > j:
        return lo, 0.0
    return lo, float(rng.uniform(0, 1))


def test_invariants_under_random_play():
    rng = np.random.default_rng(777)
    grid = build_grid(5, 1.0)
    cen = CensoredMomentEstimator(3, grid)
    nai = NaiveEstimator(3, grid)
    beta = BetaPosterior(3, grid, [rng], TS.prior, TS.indicator)
    for _ in range(2000):
        arm0 = int(rng.integers(1, 4)) - 1
        j = int(rng.integers(0, grid.m))
        lo, reward = _random_round(rng, grid, j)
        before = cen.counts.sum()
        cen.update_by_index(arm0, j + 1, lo, reward)
        nai.update_by_index(arm0, j + 1, lo, reward)
        beta.update_by_index(arm0, j + 1, lo, reward)

        assert cen.counts.sum() - before <= grid.m

    # bounds: 0 <= sum <= N and mu in [0, 1]
    assert np.all(cen.sums >= 0) and np.all(cen.sums <= cen.counts)
    mu = mean_matrix(cen)
    assert np.all((mu >= 0) & (mu <= 1))

    # counts are non-increasing in tau' for each arm
    assert np.all(np.diff(cen.counts, axis=1) <= 0)

    # the censored estimator never holds fewer observations than the naive one
    assert cen.counts.sum() >= nai.counts.sum()

    # beta trial totals equal the censored counts (same touch rule), and a
    # cell's successes lie between 0 and its trials
    assert np.array_equal(beta.counts, cen.counts)
    assert np.all(beta.sums >= 0) and np.all(beta.sums <= beta.counts)


def test_snapshots():
    grid = build_grid(2, 1.0)
    cen = CensoredMomentEstimator(1, grid)
    cen.update_by_index(0, 2, *admitted(0.6, 0.9))
    snap = cen.snapshot()
    assert snap == [
        {"arm": 1, "tau": 0.5, "n": 1, "sum": 0.0},
        {"arm": 1, "tau": 1.0, "n": 1, "sum": 0.9},
    ]

    nai = NaiveEstimator(1, grid)
    nai.update_by_index(0, 2, *admitted(0.6, 0.9))
    assert nai.snapshot() == [
        {"arm": 1, "tau": 0.5, "t": 0, "sum": 0.0},
        {"arm": 1, "tau": 1.0, "t": 1, "sum": 0.9},
    ]

    beta = posterior(1, grid, 0)
    beta.update_by_index(0, 1, *admitted(0.4, 1.0))
    assert beta.snapshot() == [
        {"arm": 1, "tau": 0.5, "s": 1, "f": 0},
        {"arm": 1, "tau": 1.0, "s": 0, "f": 0},
    ]


def test_posterior_params_include_prior():
    beta = posterior(1, GRID2, 0, prior=(2.0, 3.0))
    a, b = beta.posterior_params()
    np.testing.assert_allclose(a, 2.0)
    np.testing.assert_allclose(b, 3.0)
