"""Ground truth: mixed moments, objective tables, gaps, and theoretical bounds.

Gaussian arms are integrated either by tensor Gauss-Legendre quadrature of
the untruncated density over [0,1] x [0,tau'] divided by the [0,1]^2
normalizer (tau' is a cell boundary, so the censoring indicator never cuts
through a quadrature cell), or by plain Monte Carlo on the truncated law.
Arms with closed-form moments are evaluated exactly under either method.

Every run computes its own table; a saved table (NuTable.save) is never read
back, so the ground truth a run uses cannot be stale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import DomainError, InstanceSpec, admits, argmax_pair, mix64, objective_vectors

ORACLE_METHODS = ("quadrature", "monte_carlo")
# smallest budgets the oracle accepts: quadrature nodes per axis, Monte Carlo draws
MIN_NODES = 32
MIN_SAMPLES = 10_000


@lru_cache(maxsize=8)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _gl_on(a: float, b: float, nodes: int):
    x, w = _leggauss(nodes)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _density_integral(arm, c_hi: float, nodes: int, weight_reward: bool) -> float:
    """Integral of [r *] pdf over [0,1] x [0, c_hi] for the untruncated Gaussian."""
    cov = arm.cov()
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv00 = cov[1, 1] / det
    inv01 = -cov[0, 1] / det
    inv11 = cov[0, 0] / det
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    rn, rw = _gl_on(0.0, 1.0, nodes)
    cn, cw = _gl_on(0.0, c_hi, nodes)
    dr = rn - arm.mean[0]
    dc = cn - arm.mean[1]
    # norm * exp(-0.5 * quadratic form), evaluated in place on one nodes x nodes
    # buffer in the operand order of the plain expression
    pdf = np.multiply(2.0 * inv01 * dr[:, None], dc[None, :])
    np.add(inv00 * dr[:, None] ** 2, pdf, out=pdf)
    pdf += inv11 * dc[None, :] ** 2
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf *= norm
    r_weight = rw * rn if weight_reward else rw
    return float(np.einsum("i,j,ij->", r_weight, cw, pdf))


def _exact_moments(arm, taus, nodes: int) -> np.ndarray:
    """E[R * 1{C <= tau'}] for each tau' in taus, by the arm's closed form if it
    has one and by quadrature otherwise; the normalizer is integrated once."""
    if hasattr(arm, "mixed_moment"):
        return np.array([float(arm.mixed_moment(float(tau))) for tau in taus])
    if nodes < MIN_NODES:
        raise DomainError(f"quadrature needs at least {MIN_NODES} nodes per axis")
    z = _density_integral(arm, 1.0, nodes, weight_reward=False)
    if z < 1e-12:
        raise DomainError(
            "truncation normalizer below 1e-12; the density is degenerate on [0,1]^2"
        )
    return np.array([
        _density_integral(arm, min(float(tau), 1.0), nodes, weight_reward=True) / z
        for tau in taus
    ])


def true_mixed_moment(arm, tau_prime: float, *, nodes: int = 200) -> float:
    """Ground-truth E[R * 1{C <= tau'}]: the arm's closed form (``mixed_moment``)
    if it has one, quadrature with `nodes` points per axis otherwise.

    nu_table(..., "monte_carlo") is the Monte Carlo oracle.
    """
    return float(_exact_moments(arm, (tau_prime,), nodes)[0])


@dataclass(frozen=True, eq=False)
class NuTable:
    """Per-pair ground truth: mu, objective value nu, and sub-optimality gap.

    to_dict/save write it as JSON (nu_table.json); the package has no reader.
    """

    taus: tuple[float, ...]
    mu: np.ndarray
    se: np.ndarray
    nu: np.ndarray
    gap: np.ndarray
    optimal_arm: int
    optimal_tau: float
    nu_star: float
    method: str
    budget: int

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def m(self) -> int:
        return self.mu.shape[1]

    def min_positive_gap(self) -> float:
        pos = self.gap[self.gap > 0]
        return float(pos.min()) if pos.size else 0.0

    def to_dict(self) -> dict:
        pairs = [
            {
                "arm": i + 1,
                "tau": float(self.taus[j]),
                "mu": float(self.mu[i, j]),
                "se": float(self.se[i, j]),
                "nu": float(self.nu[i, j]),
                "gap": float(self.gap[i, j]),
            }
            for i in range(self.n)
            for j in range(self.m)
        ]
        return {
            "method": self.method,
            "samples_or_nodes": self.budget,
            "pairs": pairs,
            "optimal": {
                "arm": self.optimal_arm,
                "tau": self.optimal_tau,
                "nu_star": self.nu_star,
            },
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1), encoding="utf-8")


def nu_table(instance: InstanceSpec, method: str = "quadrature", *,
             nodes: int = 200, samples: int = 1_000_000, seed: int = 0) -> NuTable:
    """Evaluate every pair of the instance and locate the optimum.

    Closed-form and quadrature rows depend on the arm alone, so each distinct
    arm (arms are frozen dataclasses, equal when their fields are) is evaluated
    once and its row copied to the arms equal to it. Monte Carlo draws one
    sample batch per arm from its own stream mix64(seed, i) and reuses it
    across all grid points, so the same draws produce monotone mu estimates in
    tau'; equal arms get different streams and different rows, so Monte Carlo
    rows are not shared. The optimum uses the policies' tie-break,
    core.argmax_pair (smallest tau', then smallest arm).
    """
    if method not in ORACLE_METHODS:
        raise DomainError(f"unknown oracle method {method!r}")
    if method == "monte_carlo" and samples < MIN_SAMPLES:
        raise DomainError(f"Monte Carlo needs at least {MIN_SAMPLES} samples")
    grid = instance.grid
    taus = grid.as_array()
    n, m = instance.n, grid.m
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
                exact_rows[arm] = _exact_moments(arm, taus, nodes)
            mu[i] = exact_rows[arm]
    scale, offset = objective_vectors(instance.objective, instance.discount, grid)
    nu = scale * mu + offset
    arm0, j_opt = argmax_pair(nu)
    nu_star = float(nu[arm0, j_opt])
    gap = nu_star - nu
    return NuTable(
        taus=tuple(float(t) for t in taus),
        mu=mu, se=se, nu=nu, gap=gap,
        optimal_arm=arm0 + 1, optimal_tau=float(taus[j_opt]), nu_star=nu_star,
        method=method, budget=nodes if method == "quadrature" else samples,
    )


def regret_upper_bound(table: NuTable, horizon, alpha: float):
    """Gap-dependent upper bound on expected cumulative regret at the horizon.

    Sum over suboptimal pairs of
    4 alpha ln(T) / gap + gap * (1 + (4 / ln((a+1)/2)) * ((a+1)/(a-1))^2).
    Accepts a scalar horizon or an array of horizons.
    """
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
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
    if isinstance(horizon, np.ndarray):
        return out
    return float(out)


def concentration_bound(t, alpha: float):
    """Two-sided tail bound for the optimistic index deviation at round t:
    (1 + ln t / ln((a+1)/2)) * t^(-2a/(a+1)). Scalar or array t."""
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 2):
        raise DomainError("t must be >= 2")
    out = (1.0 + np.log(tt) / math.log((alpha + 1.0) / 2.0)) * tt ** (
        -2.0 * alpha / (alpha + 1.0)
    )
    if isinstance(t, np.ndarray):
        return out
    return float(out)
