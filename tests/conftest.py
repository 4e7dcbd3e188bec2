"""Shared instance builders for the test suite, a policy builder and the
block-of-one forms of the policy round calls, and the mean matrix of a
count/sum estimator."""

import numpy as np

from rcbandit.core import DiscountSpec, InstanceSpec, build_grid
from rcbandit.envs import DegenerateArm, GaussianArm, UniformCostArm
from rcbandit.policies import PolicySpec, make_policy

# correlation parameters of the bundled synthetic 10-arm Gaussian instance
SYNTHETIC_X = (0.2, 0.3, 0.4, 0.4, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6)


def gaussian_instance(m: int = 10) -> InstanceSpec:
    """The bundled synthetic instance: 10 truncated Gaussian arms, linear discount."""
    means = [(0.6, 0.45)] + [(0.5, 0.5)] * 9
    arms = tuple(
        GaussianArm(mean=mu, x=x, sigma=0.1) for mu, x in zip(means, SYNTHETIC_X)
    )
    return InstanceSpec(
        arms=arms,
        grid=build_grid(m, 1.0),
        discount=DiscountSpec("linear", tau_max=1.0),
    )


def analytic_instance() -> InstanceSpec:
    """Three analytic arms with exactly known gaps on a 4-point grid."""
    arms = (
        DegenerateArm(reward=0.9, cost=0.2),
        DegenerateArm(reward=0.7, cost=0.45),
        UniformCostArm(reward_mean=0.8),
    )
    return InstanceSpec(
        arms=arms,
        grid=build_grid(4, 1.0),
        discount=DiscountSpec("linear", tau_max=1.0),
    )


def two_degenerate_instance() -> InstanceSpec:
    """Two point-mass arms; the optimum is arm 1 at the smallest grid point."""
    arms = (DegenerateArm(reward=0.9, cost=0.2), DegenerateArm(reward=1.0, cost=0.9))
    return InstanceSpec(
        arms=arms,
        grid=build_grid(4, 1.0),
        discount=DiscountSpec("linear", tau_max=1.0),
    )


# a small config run through every policy kind; the determinism test and the
# golden pins both use it
BYTE_IDENTITY_CONFIG = {
    "instance": {
        "tau_max": 1.0,
        "grid_m": 4,
        "discount": {"kind": "linear"},
        "objective": {"kind": "multiplicative"},
        "arms": [
            {"kind": "degenerate", "reward": 0.9, "cost": 0.2},
            {"kind": "degenerate", "reward": 0.7, "cost": 0.45},
            {"kind": "uniform_cost", "reward_mean": 0.8},
        ],
    },
    "policies": [
        {"kind": "rcucb", "alpha": 2.0},
        {"kind": "klrcucb", "c": 3.0},
        {"kind": "ucb", "alpha": 2.0},
        {"kind": "ts", "prior": [1.0, 1.0], "indicator": "per_pair"},
        {"kind": "uniform_random"},
        {"kind": "fixed_oracle"},
    ],
    "horizon": 400,
    "repetitions": 3,
    "base_seed": 99,
    "workers": 1,
}


def build_policy(kind, instance, reps=1, rngs=None, pair=(0, 0), **params):
    """make_policy of PolicySpec(kind, **params) for a block of reps
    repetitions, with Generators seeded 0, 1, ... unless rngs gives them;
    fixed_oracle plays pair."""
    if rngs is None:
        rngs = [np.random.default_rng(rep) for rep in range(reps)]
    return make_policy(PolicySpec(kind, **params), instance, rngs, pair)


def select1(policy):
    """(arm0, j) of a policy playing a block of one repetition."""
    (arm0,), (j,) = policy.select()
    return arm0, j


def update1(policy, lo, reward):
    """Policy.update of a block of one repetition."""
    policy.update([lo], [reward])


def mean_matrix(estimator):
    """mu_hat = sums / N of every cell of a count/sum estimator, 0 where N = 0."""
    counts = estimator.counts
    return np.where(counts > 0, estimator.sums / np.maximum(counts, 1.0), 0.0)
