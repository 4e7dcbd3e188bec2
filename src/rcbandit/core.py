"""Shared domain types: discounts, resource grids, objectives, instances.

Everything here is an immutable value object, safe to share across worker
processes without synchronization. The censoring rule lives here too, once:
admits() for one limit and ResourceGrid.first_admitting() for a whole grid,
each for a scalar cost or an array of them. So does the tie-break between
pairs, argmax_pair(), which the policies (over a stack of one index matrix
per repetition) and the oracle's optimum (over one matrix) share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Union

import numpy as np


class DomainError(ValueError):
    """An argument violates a documented mathematical precondition."""


class ConfigError(ValueError):
    """A configuration value is structurally or semantically invalid."""


class SamplingError(RuntimeError):
    """A sampler could not produce a draw within its attempt budget."""


class UsageError(RuntimeError):
    """An API protocol was violated, e.g. update without a preceding select."""


def check_integer(name: str, value, error: type[ValueError] = DomainError) -> None:
    """error, led by name, unless value is an int (not 2.0, True or np.int64)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name}: expected an integer, got {value!r}")


def check_tau_max(name: str, value) -> None:
    """ConfigError, led by name, unless value is a positive finite real number
    (not a bool or a string): the rule of the cap on the resource limits."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigError(f"{name}: expected a positive finite number, got {value!r}")


_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Mix integer words into one 64-bit seed (splitmix64 finalizer chain).

    Used everywhere a reproducible stream must be derived from a base seed
    plus structural indices (policy index, repetition index, ...), so that
    streams are disjoint and independent of scheduling order.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & _MASK64)) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = h ^ (h >> 31)
    return h


def admits(cost, tau):
    """The censoring rule: a limit tau admits a cost, and the round's reward is
    observed, iff cost <= tau. Takes scalars or numpy arrays (elementwise).

    ResourceGrid.first_admitting is the same rule over a sorted grid, by
    np.searchsorted: side="left" pairs with <=, side="right" would pair
    with <. A change to the rule changes both.
    """
    return cost <= tau


def argmax_pair(index: np.ndarray):
    """(arm0, tau_idx) of the largest entry of each matrix in an (R, n, m)
    stack, as two lists in stack order, or of one (n, m) matrix, as two ints.

    Scanning each matrix's transpose row-major makes ties resolve to the
    smallest resource limit first and the smallest arm second.
    """
    if index.ndim == 2:
        (arm0,), (tau_idx,) = argmax_pair(index[None])
        return arm0, tau_idx
    reps, n, m = index.shape
    flat = index.transpose(0, 2, 1).reshape(reps, m * n).argmax(axis=1).tolist()
    return [f % n for f in flat], [f // n for f in flat]


DISCOUNT_KINDS = ("linear", "polynomial", "sublinear", "geometric", "exponential")


@dataclass(frozen=True)
class DiscountSpec:
    """A monotone non-increasing reward discount gamma over [0, tau_max], the
    cap that the grid holds (ResourceGrid.tau_max) and discount_eval takes.

    Closed forms (t denotes the evaluated resource amount):

    - linear:      (tau_max - t) / tau_max
    - polynomial:  ((tau_max - t) / tau_max) ** k      with k > 1
    - sublinear:   ((tau_max - t) / tau_max) ** k      with 0 < k < 1
    - geometric:   (1 + rho) ** (-t / tau_max)         with 0 < rho < 1
    - exponential: exp(-1 / (tau_max - t)**k) / exp(-1 / tau_max**k), k > 0;
      the value at t == tau_max is 0, the continuous limit of the formula.
    """

    kind: str
    k: float | None = None
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DISCOUNT_KINDS:
            raise ConfigError(f"unknown discount kind {self.kind!r}")
        # NaN fails every check; an infinite k would zero every gap (polynomial)
        if self.kind == "polynomial":
            if self.k is None or not 1 < self.k < math.inf:
                raise ConfigError("polynomial discount needs a finite k > 1")
        elif self.kind == "sublinear":
            if self.k is None or not 0 < self.k < 1:
                raise ConfigError("sublinear discount needs k in (0, 1)")
        elif self.kind == "geometric":
            if self.rho is None or not 0 < self.rho < 1:
                raise ConfigError("geometric discount needs rho in (0, 1)")
        elif self.kind == "exponential":
            if self.k is None or not 0 < self.k < math.inf:
                raise ConfigError("exponential discount needs a finite k > 0")


def discount_eval(spec: DiscountSpec, tau_max: float, tau_tilde):
    """Evaluate gamma(tau_tilde) for a scalar or array of resource amounts.

    Raises DomainError if any value lies outside [0, tau_max].
    """
    check_tau_max("tau_max", tau_max)
    t = np.asarray(tau_tilde, dtype=float)
    if np.any(t < 0.0) or np.any(t > tau_max):
        raise DomainError(f"tau_tilde must lie in [0, {tau_max}]")
    if spec.kind == "linear":
        out = (tau_max - t) / tau_max
    elif spec.kind in ("polynomial", "sublinear"):
        out = ((tau_max - t) / tau_max) ** spec.k
    elif spec.kind == "geometric":
        out = (1.0 + spec.rho) ** (-t / tau_max)
    else:
        # exponential: at t == tau_max the second term is inf and exp gives 0
        with np.errstate(divide="ignore"):
            out = np.exp(tau_max ** (-spec.k) - (tau_max - t) ** (-spec.k))
    if isinstance(tau_tilde, np.ndarray):
        return out
    return float(out)


@dataclass(frozen=True)
class ResourceGrid:
    """Finite set of playable resource limits, strictly increasing in (0, tau_max],
    where tau_max is the instance's one cap, which bounds the discount and cost too."""

    points: tuple[float, ...]
    tau_max: float = 1.0

    def __post_init__(self) -> None:
        # a tuple, so equal grids compare equal and hash whatever sequence built them
        object.__setattr__(self, "points", tuple(self.points))
        check_tau_max("tau_max", self.tau_max)
        if len(self.points) == 0:
            raise ConfigError("grid needs at least one point")
        if any(isinstance(p, bool) or not isinstance(p, numbers.Real) for p in self.points):
            raise ConfigError(f"grid points must be real numbers, got {self.points!r}")
        # NaN fails every comparison below, so finiteness is checked first
        if not all(math.isfinite(p) for p in self.points):
            raise ConfigError("grid points must be finite")
        if self.points[0] <= 0.0:
            raise ConfigError("grid points must be positive")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ConfigError("grid points must be strictly increasing")
        if self.points[-1] > self.tau_max:
            raise ConfigError("grid points must not exceed tau_max")

    @property
    def m(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def first_admitting(self, cost):
        """Index of the smallest grid point that admits cost, m if none does:
        limit j admits cost iff first_admitting(cost) <= j (see admits), so a
        round played at limit j is censored iff first_admitting(cost) > j.

        Takes a scalar or an array of costs (elementwise). A NaN cost gives m,
        censored at every limit, as admits() has it."""
        return np.searchsorted(self.points, cost, side="left")


def build_grid(m: int, tau_max: float) -> ResourceGrid:
    """Equidistant grid {j * tau_max / m : j = 1..m}; includes tau_max, excludes 0."""
    check_integer("grid size m", m)
    if m < 1:
        raise DomainError("grid size m must be >= 1")
    check_tau_max("tau_max", tau_max)
    points = tuple((j / m) * tau_max for j in range(1, m + 1))
    return ResourceGrid(points=points, tau_max=float(tau_max))


@dataclass(frozen=True)
class MultiplicativeDiscount:
    """Objective nu = gamma(tau') * mu."""


@dataclass(frozen=True)
class AdditiveCost:
    """Objective nu = mu - c(tau') with c(t) = scale * (t / tau_max) ** power.

    scale in [0, 1] keeps c mapping [0, tau_max] into [0, 1]; a finite
    power > 0 keeps it monotone non-decreasing and continuous.
    """

    scale: float = 1.0
    power: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.scale <= 1.0:
            raise ConfigError("additive cost scale must lie in [0, 1]")
        if not 0 < self.power < math.inf:
            raise ConfigError("additive cost power must be positive and finite")


Objective = Union[MultiplicativeDiscount, AdditiveCost]


def cost_eval(objective: AdditiveCost, tau_max: float, tau_tilde):
    """Evaluate the additive resource cost c(tau_tilde)."""
    check_tau_max("tau_max", tau_max)
    t = np.asarray(tau_tilde, dtype=float)
    if np.any(t < 0.0) or np.any(t > tau_max):
        raise DomainError(f"tau_tilde must lie in [0, {tau_max}]")
    out = objective.scale * (t / tau_max) ** objective.power
    if isinstance(tau_tilde, np.ndarray):
        return out
    return float(out)


def objective_vectors(objective: Objective, discount: DiscountSpec,
                      grid: ResourceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-grid-point (scale, offset) such that nu = scale * mu + offset.

    Multiplicative discounting gives (gamma(tau'), 0); additive cost gives
    (1, -c(tau')). Confidence radii on the mu scale map to the nu scale by
    the same `scale` factor.
    """
    taus = grid.as_array()
    if isinstance(objective, MultiplicativeDiscount):
        return discount_eval(discount, grid.tau_max, taus), np.zeros(grid.m)
    return np.ones(grid.m), -cost_eval(objective, grid.tau_max, taus)


@dataclass(frozen=True)
class InstanceSpec:
    """A full bandit instance: arms, grid, discount and objective."""

    arms: tuple[Any, ...]  # each has sample(rng, size) -> (rewards, costs)
    grid: ResourceGrid
    discount: DiscountSpec
    objective: Objective = MultiplicativeDiscount()

    def __post_init__(self) -> None:
        # a tuple, so equal instances compare equal and hash whatever sequence built them
        object.__setattr__(self, "arms", tuple(self.arms))
        if len(self.arms) == 0:
            raise ConfigError("instance needs at least one arm")

    @property
    def n(self) -> int:
        return len(self.arms)

    @property
    def index_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds 0..max(n, m): lo's and the plays'."""
        return np.min_scalar_type(max(self.n, self.grid.m))
