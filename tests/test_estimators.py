import numpy as np
import pytest

from rcbandit.core import ConfigError, Feedback, admits, build_grid
from rcbandit.estimators import BetaPosterior, CensoredMomentEstimator, NaiveEstimator

GRID2 = build_grid(2, 1.0)  # {0.5, 1.0}; a play at 0.5 touches k = 1 cell, at 1.0 k = 2


def uncensored(cost, reward):
    return Feedback(censored=False, cost=cost, reward=reward)


CENSORED = Feedback(censored=True)


def cell(est, arm0, j):
    """(mu_hat, N) of one cell of a count/sum estimator."""
    return float(est.mean_matrix()[arm0, j]), int(est.counts[arm0, j])


def trials(post, arm0, j):
    """(successes, failures) of one cell of the Beta posterior."""
    return int(post.successes[arm0, j]), int(post.failures[arm0, j])


def test_censored_update_running_mean():
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 1, uncensored(0.4, 0.5))
    est.update_by_index(0, 1, uncensored(0.4, 0.5))
    assert cell(est, 0, 0) == (0.5, 2)

    est.update_by_index(0, 1, uncensored(0.4, 0.8))
    mu, n = cell(est, 0, 0)
    assert n == 3 and mu == pytest.approx((2 * 0.5 + 0.8) / 3)


def test_censored_update_censored_branch():
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 1, uncensored(0.4, 0.5))
    est.update_by_index(0, 1, uncensored(0.4, 0.5))
    est.update_by_index(0, 1, CENSORED)
    mu, n = cell(est, 0, 0)
    assert n == 3 and mu == pytest.approx(1.0 / 3.0)


def test_censored_update_per_point_indicator():
    # play at 1.0 with cost 0.6: the 1.0 cell gets the reward, the 0.5 cell
    # gets the count but no reward
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 2, uncensored(0.6, 0.9))
    assert cell(est, 0, 1) == (0.9, 1)
    assert cell(est, 0, 0) == (0.0, 1)


def test_censored_query_fresh_and_censored_history():
    est = CensoredMomentEstimator(1, GRID2)
    assert cell(est, 0, 0) == (0.0, 0)
    est.update_by_index(0, 2, uncensored(0.2, 0.7))
    assert cell(est, 0, 1) == (0.7, 1)

    est2 = CensoredMomentEstimator(1, GRID2)
    for _ in range(5):
        est2.update_by_index(0, 2, CENSORED)
    assert cell(est2, 0, 1) == (0.0, 5)


def test_censored_update_only_below_chosen():
    est = CensoredMomentEstimator(1, GRID2)
    est.update_by_index(0, 1, uncensored(0.1, 1.0))
    assert cell(est, 0, 1) == (0.0, 0)


def test_touch_counter():
    grid = build_grid(4, 1.0)
    est = CensoredMomentEstimator(2, grid)
    est.update_by_index(0, 3, CENSORED)
    assert est.counts.sum() == 3
    est.update_by_index(1, 1, uncensored(0.2, 1.0))
    assert est.counts[1].sum() == 1
    assert est.counts.sum() == 4
    assert est.counts[1].sum() <= grid.m


def test_naive_update_touches_one_pair():
    est = NaiveEstimator(1, GRID2)
    est.update_by_index(0, 1, uncensored(0.6, 0.9))
    assert cell(est, 0, 0) == (0.0, 0)
    assert cell(est, 0, 1) == (0.9, 1)


def test_naive_running_mean_and_censored():
    est = NaiveEstimator(1, GRID2)
    est.update_by_index(0, 0, uncensored(0.3, 0.4))
    assert cell(est, 0, 0) == (0.4, 1)
    est.update_by_index(0, 0, uncensored(0.3, 0.8))
    mu, t = cell(est, 0, 0)
    assert t == 2 and mu == pytest.approx(0.6)
    est.update_by_index(0, 0, CENSORED)
    mu, t = cell(est, 0, 0)
    assert t == 3 and mu == pytest.approx(1.2 / 3)


def test_beta_update_certainties():
    rng = np.random.default_rng(0)
    post = BetaPosterior(1, GRID2)
    post.update_by_index(0, 2, CENSORED, rng)
    assert trials(post, 0, 0) == (0, 1)
    assert trials(post, 0, 1) == (0, 1)

    post.update_by_index(0, 1, uncensored(0.4, 1.0), rng)
    assert trials(post, 0, 0) == (1, 1)


def test_beta_update_monte_carlo_rate():
    rng = np.random.default_rng(123)
    post = BetaPosterior(1, GRID2)
    trials_run = 100_000
    for _ in range(trials_run):
        post.update_by_index(0, 1, uncensored(0.4, 0.5), rng)
    s, f = trials(post, 0, 0)
    assert s + f == trials_run
    assert s / trials_run == pytest.approx(0.5, abs=3 * np.sqrt(0.25 / trials_run))


def test_beta_indicator_variants():
    grid = build_grid(2, 1.0)
    fb = uncensored(0.6, 1.0)  # cost above the 0.5 cell, reward 1

    per_pair = BetaPosterior(1, grid, indicator="per_pair")
    rng = np.random.default_rng(1)
    for _ in range(50):
        per_pair.update_by_index(0, 2, fb, rng)
    # cell 0.5 never completes under its own limit: all failures
    assert trials(per_pair, 0, 0) == (0, 50)
    assert trials(per_pair, 0, 1) == (50, 0)

    shared = BetaPosterior(1, grid, indicator="chosen_limit")
    for _ in range(50):
        shared.update_by_index(0, 2, fb, np.random.default_rng(2))
    # the played limit's indicator is shared: certain success everywhere
    assert trials(shared, 0, 0) == (50, 0)
    assert trials(shared, 0, 1) == (50, 0)


def test_beta_validation():
    with pytest.raises(ConfigError):
        BetaPosterior(1, GRID2, prior=(0.0, 1.0))
    with pytest.raises(ConfigError):
        BetaPosterior(1, GRID2, indicator="other")


def _random_feedback(rng, tau_chosen):
    cost = float(rng.uniform(0, 1.2))
    if not admits(cost, tau_chosen):
        return CENSORED
    return uncensored(cost, float(rng.uniform(0, 1)))


def test_invariants_under_random_play():
    rng = np.random.default_rng(777)
    grid = build_grid(5, 1.0)
    cen = CensoredMomentEstimator(3, grid)
    nai = NaiveEstimator(3, grid)
    beta = BetaPosterior(3, grid)
    for _ in range(2000):
        arm0 = int(rng.integers(1, 4)) - 1
        j = int(rng.integers(0, grid.m))
        fb = _random_feedback(rng, grid.points[j])
        before = cen.counts.sum()
        cen.update_by_index(arm0, j + 1, fb)
        nai.update_by_index(arm0, j, fb)
        beta.update_by_index(arm0, j + 1, fb, rng)

        assert cen.counts.sum() - before <= grid.m

    # bounds: 0 <= sum <= N and mu in [0, 1]
    assert np.all(cen.sums >= 0) and np.all(cen.sums <= cen.counts)
    mu = cen.mean_matrix()
    assert np.all((mu >= 0) & (mu <= 1))

    # counts are non-increasing in tau' for each arm
    assert np.all(np.diff(cen.counts, axis=1) <= 0)

    # the censored estimator never holds fewer observations than the naive one
    assert cen.counts.sum() >= nai.counts.sum()

    # beta trial totals equal the censored counts (same touch rule)
    np.testing.assert_array_equal(beta.successes + beta.failures, cen.counts)


def test_snapshots():
    grid = build_grid(2, 1.0)
    cen = CensoredMomentEstimator(1, grid)
    cen.update_by_index(0, 2, uncensored(0.6, 0.9))
    snap = cen.snapshot()
    assert snap == [
        {"arm": 1, "tau": 0.5, "n": 1, "sum": 0.0},
        {"arm": 1, "tau": 1.0, "n": 1, "sum": 0.9},
    ]

    nai = NaiveEstimator(1, grid)
    nai.update_by_index(0, 1, uncensored(0.6, 0.9))
    assert nai.snapshot() == [
        {"arm": 1, "tau": 0.5, "t": 0, "sum": 0.0},
        {"arm": 1, "tau": 1.0, "t": 1, "sum": 0.9},
    ]

    beta = BetaPosterior(1, grid)
    beta.update_by_index(0, 1, uncensored(0.4, 1.0), np.random.default_rng(0))
    assert beta.snapshot() == [
        {"arm": 1, "tau": 0.5, "s": 1, "f": 0},
        {"arm": 1, "tau": 1.0, "s": 0, "f": 0},
    ]


def test_posterior_params_include_prior():
    beta = BetaPosterior(1, GRID2, prior=(2.0, 3.0))
    a, b = beta.posterior_params()
    np.testing.assert_allclose(a, 2.0)
    np.testing.assert_allclose(b, 3.0)
