"""Ground truth: mixed moments, objective tables, gaps, and theoretical bounds.

Gaussian arms are integrated either by tensor Gauss-Legendre quadrature of
the untruncated density over [0,1] x [0,tau'] divided by the [0,1]^2
normalizer (tau' is a cell boundary, so the censoring indicator never cuts
through a quadrature cell), or by plain Monte Carlo on the truncated law.
Arms with closed-form moments are evaluated exactly under either method.
The quadrature builds each arm's reward-axis terms of the exponent once, with
the exponent's -0.5 folded into them exactly, and reuses them for the
normalizer and every limit, so every integral keeps the bits of the plain
expression (see true_mixed_moments).

Every run computes its own table, whose gaps and optimum follow from its mu;
a saved table (NuTable.save) is never read back, so none can be stale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import (ConfigError, DomainError, InstanceSpec, admits, argmax_pair, check_integer,
                   mix64, objective_vectors)

ORACLE_METHODS = ("quadrature", "monte_carlo")
DEFAULT_METHOD = "quadrature"
# the default and the smallest budget of each method: quadrature nodes per
# axis, Monte Carlo draws
DEFAULT_NODES, MIN_NODES = 200, 32
DEFAULT_SAMPLES, MIN_SAMPLES = 1_000_000, 10_000


def oracle_budget(method: str = DEFAULT_METHOD, nodes: int = DEFAULT_NODES,
                  samples: int = DEFAULT_SAMPLES) -> int:
    """The budget method spends, nodes or samples. The oracle settings' one
    rule: DomainError, led by the field at fault, for an unknown method, or a
    budget not an integer or below its method's smallest, even one no arm spends."""
    if method not in ORACLE_METHODS:
        raise DomainError(f"method: unknown method {method!r}")
    check_integer("nodes", nodes)
    check_integer("samples", samples)
    if method == "quadrature" and nodes < MIN_NODES:
        raise DomainError(f"nodes: quadrature needs at least {MIN_NODES}, got {nodes}")
    if method == "monte_carlo" and samples < MIN_SAMPLES:
        raise DomainError(f"samples: Monte Carlo needs at least {MIN_SAMPLES}, "
                          f"got {samples}")
    return nodes if method == "quadrature" else samples


@lru_cache(maxsize=8)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _gl_on(a: float, b: float, nodes: int):
    x, w = _leggauss(nodes)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def true_mixed_moments(arm, taus, *, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Exact E[R * 1{C <= tau'}] for each tau' in taus, the path nu_table and the
    audit share: the arm's closed form (``mixed_moment``) if it has one, else
    quadrature with `nodes` points per axis (see oracle_budget) and the
    normalizer integrated once.

    Each quadrature integral is einsum("i,j,ij->", [r *] reward weights, cost
    weights on [0, tau'], norm * exp(-0.5 q)) over the nodes x nodes grid, with
    q = (inv00 dr^2 + 2 inv01 dr dc) + inv11 dc^2. The reward-axis terms,
    -inv01 dr and (-0.5 inv00) dr^2, are built once per arm as contiguous
    matrices, and one pdf buffer serves the normalizer and every limit.
    Folding the -0.5 into each term is exact (scaling by a power of two
    commutes with rounding), so each sum has the bits of -0.5 q; exp, the norm
    product and the einsum keep their operands and order, so every integral
    keeps the bits of the plain expression.
    """
    if hasattr(arm, "mixed_moment"):
        return np.array([float(arm.mixed_moment(float(tau))) for tau in taus])
    oracle_budget(nodes=nodes)
    cov = arm.cov()
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv00 = cov[1, 1] / det
    inv01 = -cov[0, 1] / det
    inv11 = cov[0, 0] / det
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    rn, rw = _gl_on(0.0, 1.0, nodes)
    dr = (rn - arm.mean[0])[:, None]
    shape = (nodes, nodes)
    cross = np.broadcast_to(-inv01 * dr, shape).copy()
    square = np.broadcast_to((-0.5 * inv00) * dr**2, shape).copy()
    pdf = np.empty(shape)

    def integral(c_hi: float, r_weight: np.ndarray) -> float:
        """Integral of r_weight-weighted pdf over [0, 1] x [0, c_hi]."""
        cn, cw = _gl_on(0.0, c_hi, nodes)
        dc = cn - arm.mean[1]
        np.multiply(cross, dc, out=pdf)
        np.add(square, pdf, out=pdf)
        np.add(pdf, (-0.5 * inv11) * dc**2, out=pdf)
        np.exp(pdf, out=pdf)
        np.multiply(pdf, norm, out=pdf)
        return float(np.einsum("i,j,ij->", r_weight, cw, pdf))

    z = integral(1.0, rw)
    if z < 1e-12:
        raise DomainError(
            "truncation normalizer below 1e-12; the density is degenerate on [0,1]^2"
        )
    r_weight = rw * rn
    return np.array([integral(min(float(tau), 1.0), r_weight) / z for tau in taus])


@dataclass(frozen=True, eq=False)
class NuTable:
    """Per-pair ground truth of one instance. Its fields are what was measured
    and how: mu and its standard error se (0 where exact), each held as a
    read-only (instance.n, instance.grid.m) copy, and the method and budget.
    The rest is derived once from instance and mu, and is not a field, so
    dataclasses.replace derives it again: nu = scale * mu + offset
    (core.objective_vectors); optimal = (arm0, j), the 0-based arm and grid
    index, by the policies' tie-break core.argmax_pair (smallest tau', then
    smallest arm); nu_star = nu[optimal]; gap = nu_star - nu; nu and gap are
    read-only too.

    to_dict/save write it as JSON (nu_table.json); the package has no reader.
    """

    instance: InstanceSpec
    mu: np.ndarray
    se: np.ndarray
    method: str
    budget: int

    def __post_init__(self) -> None:
        instance = self.instance
        shape = (instance.n, instance.grid.m)
        for name in ("mu", "se"):
            # read-only copies, so no in-place write can leave nu, gap and optimal stale
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ConfigError(f"nu table: {name} has shape {value.shape}, "
                                  f"its instance's (n, m) is {shape}")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        scale, offset = objective_vectors(instance.objective, instance.discount, instance.grid)
        nu = scale * self.mu + offset
        optimal = argmax_pair(nu)
        nu_star = float(nu[optimal])
        gap = nu_star - nu
        nu.flags.writeable = gap.flags.writeable = False
        # not fields, so set past the frozen __setattr__
        vars(self).update(nu=nu, optimal=optimal, nu_star=nu_star, gap=gap)

    def __reduce__(self):
        # rebuilt by __post_init__, so a pool worker's copy is read-only too
        return NuTable, (self.instance, self.mu, self.se, self.method, self.budget)

    def min_positive_gap(self) -> float:
        pos = self.gap[self.gap > 0]
        return float(pos.min()) if pos.size else 0.0

    def optimum(self) -> dict:
        """The optimum as written out: its 1-based arm, its limit and nu_star."""
        arm0, j = self.optimal
        return {"arm": arm0 + 1, "tau": float(self.instance.grid.as_array()[j]),
                "nu_star": self.nu_star}

    def to_dict(self) -> dict:
        taus = self.instance.grid.as_array().tolist()
        pairs = [
            {
                "arm": i + 1,
                "tau": tau,
                "mu": float(self.mu[i, j]),
                "se": float(self.se[i, j]),
                "nu": float(self.nu[i, j]),
                "gap": float(self.gap[i, j]),
            }
            for i in range(self.instance.n)
            for j, tau in enumerate(taus)
        ]
        return {
            "method": self.method,
            "samples_or_nodes": self.budget,
            "pairs": pairs,
            "optimal": self.optimum(),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1), encoding="utf-8")


def nu_table(instance: InstanceSpec, method: str = DEFAULT_METHOD, *,
             nodes: int = DEFAULT_NODES, samples: int = DEFAULT_SAMPLES,
             seed: int = 0) -> NuTable:
    """Measure every pair of the instance; the table derives the rest.

    Closed-form and quadrature rows depend on the arm alone, so each distinct
    arm (arms are frozen dataclasses, equal when their fields are) is evaluated
    once and its row copied to the arms equal to it. Monte Carlo draws one
    sample batch per arm from its own stream mix64(seed, i) and reuses it
    across all grid points, so the same draws produce monotone mu estimates in
    tau'; equal arms get different streams and different rows, so Monte Carlo
    rows are not shared. The settings pass oracle_budget first, whatever the
    arms.
    """
    budget = oracle_budget(method, nodes, samples)
    taus = instance.grid.as_array()
    n, m = instance.n, instance.grid.m
    mu = np.empty((n, m))
    se = np.zeros((n, m))
    exact_rows: dict = {}
    for i, arm in enumerate(instance.arms):
        if method == "monte_carlo" and not hasattr(arm, "mixed_moment"):
            rng = np.random.default_rng(mix64(seed, i))
            r, c = arm.sample(rng, samples)
            for j, tau in enumerate(taus):
                vals = r * admits(c, tau)
                mu[i, j] = vals.mean()
                se[i, j] = vals.std(ddof=1) / math.sqrt(samples)
        else:
            if arm not in exact_rows:
                exact_rows[arm] = true_mixed_moments(arm, taus, nodes=nodes)
            mu[i] = exact_rows[arm]
    return NuTable(instance=instance, mu=mu, se=se, method=method, budget=budget)


def check_alpha(alpha: float) -> None:
    """DomainError unless alpha is finite and exceeds 1, as the bounds need."""
    if not (math.isfinite(alpha) and alpha > 1):
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")


def regret_upper_bound(table: NuTable, horizon, alpha: float):
    """Gap-dependent upper bound on expected cumulative regret at the horizon.

    Sum over suboptimal pairs of
    4 alpha ln(T) / gap + gap * (1 + (4 / ln((a+1)/2)) * ((a+1)/(a-1))^2).
    Accepts a scalar horizon or an array of horizons.
    """
    check_alpha(alpha)
    t = np.asarray(horizon, dtype=float)
    if np.any(t < 1):
        raise DomainError("horizon must be >= 1")
    gaps = table.gap[table.gap > 0]
    if gaps.size == 0:
        out = np.zeros_like(t)
    else:
        const = float(
            np.sum(gaps) * (1.0 + (4.0 / math.log((alpha + 1.0) / 2.0))
                            * ((alpha + 1.0) / (alpha - 1.0)) ** 2)
        )
        out = 4.0 * alpha * float(np.sum(1.0 / gaps)) * np.log(t) + const
    return out if isinstance(horizon, np.ndarray) else float(out)


def concentration_bound(t, alpha: float):
    """Two-sided tail bound for the optimistic index deviation at round t:
    (1 + ln t / ln((a+1)/2)) * t^(-2a/(a+1)). Scalar or array t."""
    check_alpha(alpha)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 2):
        raise DomainError("t must be >= 2")
    out = (1.0 + np.log(tt) / math.log((alpha + 1.0) / 2.0)) * tt ** (
        -2.0 * alpha / (alpha + 1.0)
    )
    return out if isinstance(t, np.ndarray) else float(out)
