"""Action-selection policies over (arm, resource limit) pairs.

The optimism-based policies keep an index matrix of shape (n_arms, m) and
pick its argmax; ties break to the smallest resource limit, then the
smallest arm index, which keeps runs reproducible.

A round is one pair of plain values in each direction: Policy.select()
returns (arm0, j), the 0-based arm and the grid index of the played limit,
and Policy.update(lo, reward) takes lo = grid.first_admitting(cost) and the
reward (0.0 when censored). The round is censored iff lo > j, the bisect
form of the censoring rule in core; the episode loop computes lo and the
estimators read it, so no cost is compared with a limit here.

Every policy starts with the schedule of init_limits, written once here:
Policy.select plays it, and init_length (which the runners check the horizon
against) counts it.

Per-round hook contract: the per-layer benchmark trace (perfbench/tracer.py)
wraps these callables from outside the package, so each must stay a separate
call, looked up where the tracer patches it, once per round that uses it:

- Policy.select() and Policy.update(lo, reward), in Policy's class body,
  called by the episode loop; the trace reads the policy kind from self;
- index_matrix in the class bodies of RCUCBPolicy, KLRCUCBPolicy and
  ModifiedUCBPolicy, called through self;
- the module-global argmax_pair, looked up in this module at call time;
- each estimator's own update_by_index(arm0, k, lo, reward[, rng]), called
  through the estimator, with the touched-cell count k third;
- GaussianArm.sample (in envs), called through the arm.

Inlining one of them silently zeroes its per-layer metric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, InstanceSpec, UsageError, objective_vectors
from .estimators import (
    TS_INDICATORS,
    BetaPosterior,
    CensoredMomentEstimator,
    NaiveEstimator,
)

POLICY_KINDS = ("rcucb", "klrcucb", "ucb", "ts", "uniform_random", "fixed_oracle")


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy choice used by experiment configs.

    alpha drives the confidence radii of rcucb/ucb, c the exploration budget
    of klrcucb, prior and ts_indicator the Thompson sampling posterior.
    """

    kind: str
    label: str | None = None
    alpha: float = 2.0
    c: float = 3.0
    prior: tuple[float, float] = (1.0, 1.0)
    ts_indicator: str = "per_pair"

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)
        if self.kind in ("rcucb", "ucb"):
            if not self.alpha > 0:
                raise ConfigError("alpha must be positive")
            if self.alpha <= 1:
                warnings.warn(
                    f"{self.kind}: alpha={self.alpha} is outside the regime alpha > 1 "
                    "assumed by the regret and concentration guarantees",
                    UserWarning,
                    stacklevel=2,
                )
        if self.kind == "klrcucb" and self.c < 0:
            raise ConfigError("c must be non-negative")
        if self.kind == "ts":
            if not (self.prior[0] > 0 and self.prior[1] > 0):
                raise ConfigError("Beta prior parameters must be positive")
            if self.ts_indicator not in TS_INDICATORS:
                raise ConfigError(f"unknown TS indicator {self.ts_indicator!r}")


def init_limits(kind: str, m: int) -> range:
    """Grid indices that each arm plays in turn before the policy's own rule.

    rcucb and klrcucb play every arm once at the largest limit, which gives
    every cell of the censored estimator a count; ucb and ts sweep every
    limit, because their per-pair statistics learn only from the pair played.
    Round t (0-based) of the schedule plays arm t // len, limit [t % len].
    """
    if kind in ("rcucb", "klrcucb"):
        return range(m - 1, m)
    if kind in ("ucb", "ts"):
        return range(m)
    return range(0)


def init_length(kind: str, instance: InstanceSpec) -> int:
    """Number of prescribed initialization rounds before the index takes over."""
    return instance.n * len(init_limits(kind, instance.grid.m))


def argmax_pair(index: np.ndarray) -> tuple[int, int]:
    """(arm0, tau_idx) of the largest entry of an (n, m) index matrix.

    Scanning the transpose row-major makes ties resolve to the smallest
    resource limit first and the smallest arm second.
    """
    flat = int(index.T.argmax())
    n = index.shape[0]
    return flat % n, flat // n


def _kl_bernoulli_arr(w: np.ndarray, v: np.ndarray, zero: np.ndarray | None) -> np.ndarray:
    """d(p, q) = p log(p / q) + (1 - p) log((1 - p) / (1 - q)), elementwise.

    w stacks (p, 1 - p) and v stacks (q, 1 - q) on a leading axis of length 2.
    A term with weight 0 counts as 0 (0 log 0 := 0); zero is the mask w == 0
    from _zero_weights, None when no weight is 0. The caller opens
    np.errstate(divide="ignore", invalid="ignore"), since the weightless terms
    evaluate to nan before the mask clears them.
    """
    terms = np.divide(w, v)
    np.log(terms, out=terms)
    terms *= w
    if zero is not None:
        np.putmask(terms, zero, 0.0)
    return terms[0] + terms[1]


def _zero_weights(w: np.ndarray) -> np.ndarray | None:
    zero = w == 0.0
    return zero if zero.any() else None


def _exploration_budget(t: int, c: float) -> float:
    # ln ln t is negative for t < e; the budget is clamped at zero so the
    # index degenerates to mu_eff instead of going undefined
    return max(0.0, math.log(t) + c * math.log(math.log(t)))


def _klucb_index_matrix(mu_eff: np.ndarray, counts: np.ndarray, t: int, c: float) -> np.ndarray:
    """The KL-UCB index (largest q in [mu_eff, 1] with N d(mu_eff, q) <= ln t +
    c ln ln t) of every pair that can attain the maximum; -inf elsewhere.

    Each cell runs 40 halvings of [mu_eff, 1] (width below 1e-9) with the
    operands and operation order of an unpruned bisection over all cells, so
    every finite value returned has that bisection's bits. After each halving,
    a cell whose hi lies below the largest lo is dropped and reads -inf: its
    final value is at most its hi and the final maximum at least that lo, so
    it can be neither the argmax nor a tie. The live cells are compacted once
    at most half of them remain. Cells with N = 0 read +inf; if there is one,
    no finite cell can attain the maximum and nothing is bisected.
    """
    played = counts > 0
    if not played.all():
        return np.where(played, -np.inf, np.inf)
    p = mu_eff.ravel()
    budget = _exploration_budget(t, c)
    # one column per live cell; rows p, 1 - p, lo, hi, target
    state = np.stack((p, 1.0 - p, p, np.ones_like(p),
                      (budget / np.maximum(counts, 1.0)).ravel()))
    cells = np.arange(p.size)
    compacted = True
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(40):
            if compacted:
                w, (lo, hi, target) = state[:2], state[2:]
                zero = _zero_weights(w)
                v = np.empty_like(w)
                mid, mid_bar = v
                compacted = False
            np.add(lo, hi, out=mid)
            np.multiply(mid, 0.5, out=mid)
            np.subtract(1.0, mid, out=mid_bar)
            too_far = _kl_bernoulli_arr(w, v, zero) > target
            np.putmask(hi, too_far, mid)
            np.logical_not(too_far, out=too_far)
            np.putmask(lo, too_far, mid)
            if cells.size > 1:
                keep = hi >= lo.max()
                if 2 * np.count_nonzero(keep) <= keep.size:
                    keep = np.flatnonzero(keep)
                    state = state.take(keep, axis=1)
                    cells = cells[keep]
                    compacted = True
    lo, hi = state[2:4]
    keep = hi >= lo.max()
    out = np.full(counts.size, -np.inf)
    out[cells[keep]] = 0.5 * (lo[keep] + hi[keep])
    return out.reshape(counts.shape)


def _optimistic_index(estimator, width: float, count_scale: float,
                      scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """scale * (mu_hat + sqrt(width / (count_scale * N))) + offset per pair,
    with an infinite index where N = 0.

    When every N >= 1, which holds in every round after initialization, the
    expression runs as a few in-place ufuncs on one fresh array, without the
    masks and error-state switches that N = 0 needs. The operations and their
    operands are those of the general expression, so both give the same bits;
    N >= 1 rather than N > 0 keeps mu_hat = sums / N equal to mean_matrix(),
    which divides by max(N, 1).
    """
    counts = estimator.counts
    if counts.min() >= 1.0:
        out = np.multiply(counts, count_scale)
        np.divide(width, out, out=out)
        np.sqrt(out, out=out)
        out += estimator.sums / counts
        out *= scale
        out += offset
        return out
    mu = estimator.mean_matrix()
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.sqrt(width / (count_scale * counts))
        vals = scale * (mu + radius) + offset
    return np.where(counts > 0, vals, np.inf)


class Policy:
    """Base class: strict select/update alternation, round counting, the
    initialization schedule, and the argmax of index_matrix afterwards."""

    kind = "base"

    def __init__(self, instance: InstanceSpec):
        self.instance = instance
        self.grid = instance.grid
        self.t = 0
        self.estimator = None
        self._arm0 = 0
        self._j = -1  # grid index of the selection awaiting its update; -1 if none
        self._init = init_limits(self.kind, instance.grid.m)
        self._init_rounds = init_length(self.kind, instance)
        scale, offset = objective_vectors(instance.objective, instance.discount,
                                          instance.grid)
        self.scale = scale
        self.offset = offset

    def select(self) -> tuple[int, int]:
        """(arm0, j): the 0-based arm and the grid index of the limit to play."""
        if self._j >= 0:
            raise UsageError("select called twice without an update in between")
        if self.t < self._init_rounds:
            arm0, step = divmod(self.t, len(self._init))
            j = self._init[step]
        else:
            arm0, j = self._choose()
        self._arm0 = arm0
        self._j = j
        return arm0, j

    def update(self, lo: int, reward: float) -> None:
        """Absorb the selected round: lo = grid.first_admitting(cost), so the
        round was censored iff lo > j, and then reward is 0.0."""
        j = self._j
        if j < 0:
            raise UsageError("update called before select")
        self._absorb(self._arm0, j, lo, reward)
        self._j = -1
        self.t += 1

    def _choose(self) -> tuple[int, int]:
        return argmax_pair(self.index_matrix())

    def _absorb(self, arm0: int, j: int, lo: int, reward: float) -> None:
        pass

    def snapshot(self) -> list[dict]:
        """JSON-ready estimator state; empty for estimator-free policies."""
        return [] if self.estimator is None else self.estimator.snapshot()


class _CensoredPolicy(Policy):
    """What rcucb and klrcucb share: the censored moment estimator, fed every
    cell at or below the played limit."""

    def __init__(self, instance: InstanceSpec):
        super().__init__(instance)
        self.estimator = CensoredMomentEstimator(instance.n, instance.grid)

    def _absorb(self, arm0, j, lo, reward):
        self.estimator.update_by_index(arm0, j + 1, lo, reward)


class RCUCBPolicy(_CensoredPolicy):
    """Optimistic index over all pairs, fed by the censored moment estimator.

    Index: scale * (mu_hat + sqrt(2 alpha ln t / N)) + offset, which under
    multiplicative discounting is gamma(tau') * mu_hat plus the equally
    discounted confidence radius. Rounds 1..n play (arm t, largest grid
    point), after which every cell has N >= 1. Cells with N = 0 get an
    infinite index.
    """

    kind = "rcucb"

    def __init__(self, instance: InstanceSpec, alpha: float = 2.0):
        super().__init__(instance)
        self.alpha = alpha

    def index_matrix(self) -> np.ndarray:
        t = self.t + 1
        return _optimistic_index(self.estimator, 2.0 * self.alpha * math.log(t), 1.0,
                                 self.scale, self.offset)


class KLRCUCBPolicy(_CensoredPolicy):
    """Divergence-based variant of the censored-estimator policy.

    Each pair's index is the largest q with N * d(mu_eff, q) below the
    exploration budget ln t + c ln ln t, where mu_eff is the pair's objective
    value of mu_hat clipped to [0, 1] (for multiplicative discounting this is
    exactly gamma(tau') * mu_hat). Same initialization as the plain policy.
    """

    kind = "klrcucb"

    def __init__(self, instance: InstanceSpec, c: float = 3.0):
        super().__init__(instance)
        self.c = c

    def index_matrix(self) -> np.ndarray:
        """The KL index of every pair that can attain the maximum.

        Those cells carry the exact bits of the full bisection; a cell shown to
        lie strictly below the maximum reads -inf, and an unplayed cell +inf,
        so argmax_pair picks the pair the full matrix would, ties included.
        See _klucb_index_matrix.
        """
        t = self.t + 1
        mu_eff = np.clip(self.scale * self.estimator.mean_matrix() + self.offset, 0.0, 1.0)
        return _klucb_index_matrix(mu_eff, self.estimator.counts, t, self.c)


class ModifiedUCBPolicy(Policy):
    """Pairwise UCB on the naive estimator.

    The first n*m rounds sweep every pair once (arm-major, ascending tau');
    afterwards the index is scale * (mu_tilde + sqrt(alpha ln t / (2 T)))
    + offset, with infinite index for unplayed pairs.
    """

    kind = "ucb"

    def __init__(self, instance: InstanceSpec, alpha: float = 2.0):
        super().__init__(instance)
        self.alpha = alpha
        self.estimator = NaiveEstimator(instance.n, instance.grid)

    def index_matrix(self) -> np.ndarray:
        t = self.t + 1
        return _optimistic_index(self.estimator, self.alpha * math.log(t), 2.0,
                                 self.scale, self.offset)

    def _absorb(self, arm0, j, lo, reward):
        self.estimator.update_by_index(arm0, j, lo, reward)


class ModifiedTSPolicy(Policy):
    """Thompson sampling over pairs with the shared-information posterior.

    After the same full sweep as the UCB baseline, each round draws
    theta ~ Beta(a0 + S, b0 + F) for every pair (arm-major order from the
    policy RNG) and plays the argmax of scale * theta + offset.
    """

    kind = "ts"

    def __init__(self, instance: InstanceSpec, rng: np.random.Generator,
                 prior: tuple[float, float] = (1.0, 1.0), indicator: str = "per_pair"):
        super().__init__(instance)
        self.rng = rng
        self.estimator = BetaPosterior(instance.n, instance.grid, prior=prior,
                                       indicator=indicator)

    def _choose(self) -> tuple[int, int]:
        a, b = self.estimator.posterior_params()
        theta = self.rng.beta(a, b)
        return argmax_pair(self.scale * theta + self.offset)

    def _absorb(self, arm0, j, lo, reward):
        self.estimator.update_by_index(arm0, j + 1, lo, reward, self.rng)


class UniformRandomPolicy(Policy):
    """Plays a uniformly random pair every round; a regret-curve anchor."""

    kind = "uniform_random"

    def __init__(self, instance: InstanceSpec, rng: np.random.Generator):
        super().__init__(instance)
        self.rng = rng

    def _choose(self) -> tuple[int, int]:
        flat = int(self.rng.integers(self.instance.n * self.grid.m))
        return flat // self.grid.m, flat % self.grid.m


class FixedOraclePolicy(Policy):
    """Always plays one fixed pair (normally the oracle optimum)."""

    kind = "fixed_oracle"

    def __init__(self, instance: InstanceSpec, arm: int, tau_prime: float):
        super().__init__(instance)
        self._pair = (arm - 1, instance.grid.index_of(tau_prime))
        if not 1 <= arm <= instance.n:
            raise ConfigError(f"arm {arm} outside 1..{instance.n}")

    def _choose(self) -> tuple[int, int]:
        return self._pair


def make_policy(spec: PolicySpec, instance: InstanceSpec,
                rng: np.random.Generator | None = None,
                optimal_pair: tuple[int, float] | None = None) -> Policy:
    """Instantiate the policy described by spec.

    rng is required by the stochastic policies (ts, uniform_random);
    optimal_pair = (arm, tau') is required by fixed_oracle.
    """
    if spec.kind == "rcucb":
        return RCUCBPolicy(instance, alpha=spec.alpha)
    if spec.kind == "klrcucb":
        return KLRCUCBPolicy(instance, c=spec.c)
    if spec.kind == "ucb":
        return ModifiedUCBPolicy(instance, alpha=spec.alpha)
    if spec.kind == "ts":
        if rng is None:
            raise ConfigError("ts policy needs an RNG")
        return ModifiedTSPolicy(instance, rng, prior=spec.prior,
                                indicator=spec.ts_indicator)
    if spec.kind == "uniform_random":
        if rng is None:
            raise ConfigError("uniform_random policy needs an RNG")
        return UniformRandomPolicy(instance, rng)
    if spec.kind == "fixed_oracle":
        if optimal_pair is None:
            raise ConfigError("fixed_oracle policy needs the oracle's optimal pair")
        return FixedOraclePolicy(instance, arm=optimal_pair[0], tau_prime=optimal_pair[1])
    raise ConfigError(f"unknown policy kind {spec.kind!r}")
