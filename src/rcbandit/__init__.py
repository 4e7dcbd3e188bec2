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

__all__ = [
    "AdditiveCost",
    "Aggregate",
    "BetaPosterior",
    "CensoredMomentEstimator",
    "ConfigError",
    "DegenerateArm",
    "DiscountSpec",
    "DomainError",
    "ExperimentConfig",
    "GaussianArm",
    "InstanceSpec",
    "KLRCUCBPolicy",
    "ModifiedTSPolicy",
    "ModifiedUCBPolicy",
    "MultiplicativeDiscount",
    "NaiveEstimator",
    "NuTable",
    "PolicySpec",
    "RCUCBPolicy",
    "ResourceGrid",
    "RunTrace",
    "SamplingError",
    "TraceArm",
    "UniformCostArm",
    "UsageError",
    "build_grid",
    "concentration_audit",
    "concentration_bound",
    "decomposition_check",
    "discount_eval",
    "make_policy",
    "mix64",
    "nu_table",
    "regret_upper_bound",
    "run_episode",
    "run_experiment",
    "sample_episode",
    "trace_env_load",
    "true_mixed_moments",
]

__version__ = "0.1.0"
