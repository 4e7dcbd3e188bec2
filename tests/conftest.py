"""Shared instance builders for the test suite."""

from rcbandit.core import DiscountSpec, InstanceSpec, build_grid
from rcbandit.envs import DegenerateArm, GaussianArm, UniformCostArm

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
        DegenerateArm(r0=0.9, c0=0.2),
        DegenerateArm(r0=0.7, c0=0.45),
        UniformCostArm(reward_mean=0.8),
    )
    return InstanceSpec(
        arms=arms,
        grid=build_grid(4, 1.0),
        discount=DiscountSpec("linear", tau_max=1.0),
    )


def two_degenerate_instance() -> InstanceSpec:
    """Two point-mass arms; the optimum is arm 1 at the smallest grid point."""
    arms = (DegenerateArm(r0=0.9, c0=0.2), DegenerateArm(r0=1.0, c0=0.9))
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
