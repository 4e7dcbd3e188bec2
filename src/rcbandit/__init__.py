"""Bandits with censored resource consumption: policies, oracles, experiments."""

from .core import (
    AdditiveCost,
    ConfigError,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    MultiplicativeDiscount,
    ResourceGrid,
    SamplingError,
    UsageError,
    build_grid,
    discount_eval,
    mix64,
)
from .envs import (
    DegenerateArm,
    GaussianArm,
    TraceArm,
    UniformCostArm,
    sample_episode,
    trace_env_load,
)
from .estimators import BetaPosterior, CensoredMomentEstimator, NaiveEstimator
from .oracle import (
    NuTable,
    concentration_bound,
    nu_table,
    regret_upper_bound,
    true_mixed_moments,
)
from .policies import (
    KLRCUCBPolicy,
    ModifiedTSPolicy,
    ModifiedUCBPolicy,
    PolicySpec,
    RCUCBPolicy,
    make_policy,
)
from .sim import (
    Aggregate,
    ExperimentConfig,
    RunTrace,
    concentration_audit,
    decomposition_check,
    run_episode,
    run_experiment,
)

# the public API is what is imported above, so it is listed once
__all__ = sorted(name for name, value in globals().items()
                 if callable(value) and not name.startswith("_"))

__version__ = "0.1.0"
