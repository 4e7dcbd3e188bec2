"""Action-selection policies over (arm, resource limit) pairs.

A policy object plays a block of reps repetitions in lockstep: they share the
round counter t, and each keeps its own statistics (estimator rows
rep * n + arm, see estimators) and, for the stochastic kinds, its own
Generator, drawn in rep order. A single episode is a block of one.

The optimism-based policies compute one (reps, n_arms, m) stack of index
matrices per round and pick each repetition's argmax with core.argmax_pair,
the one statement of the tie-break: the smallest resource limit, then the
smallest arm index, which keeps runs reproducible. The oracle's optimum uses
the same function.

A round is one list of plain values per repetition in each direction:
Policy.select() returns (arm0, j), the 0-based arms and the grid indices of
the played limits, and Policy.update(lo, reward) takes each repetition's
lo = grid.first_admitting(cost) and reward (0.0 when censored), all in rep
order. A repetition's round is censored iff its lo > j, the grid form of the
censoring rule in core; envs.sample_episode computes lo once per episode and
the estimators read it, so no cost is compared with a limit here.

Every policy starts with the schedule of init_limits, written once here:
Policy.select plays it, and init_length (which the runners check the horizon
against) counts it. The schedule gives every pair a count N >= 1 of the
estimator its index reads, and the index functions require that: an index
matrix holds no +inf cell, and an unplayed pair raises UsageError.

Per-round hook contract: the per-layer benchmark trace (perfbench/tracer.py)
wraps these callables from outside the package, so each must stay a separate
call, looked up where the tracer patches it:

- Policy.select() and Policy.update(lo, reward), in Policy's class body,
  called by the block loop once per block-round; the trace reads the policy
  kind from self;
- index_matrix in the class bodies of RCUCBPolicy, KLRCUCBPolicy and
  ModifiedUCBPolicy, called through self once per block-round, over the
  whole block's stack;
- argmax_pair, defined in core and imported here as a module global, looked
  up in this module at call time, once per block-round (the oracle's own
  import stays untraced);
- each estimator's own update_by_index(row, k, lo, reward[, rng]), called
  through the estimator once per repetition per round, with the
  touched-cell count k, a plain int, third;
- GaussianArm.sample (in envs), called through the arm.

Inlining one of them silently zeroes its per-layer metric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, InstanceSpec, UsageError, argmax_pair, objective_vectors
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
        # the label names the run's trace_<label>.csv and goes into the SVG
        # legend as text, where a control character (NUL included) is invalid
        if not (isinstance(self.label, str) and self.label
                and self.label.isprintable()) or any(ch in self.label for ch in "/\\"):
            raise ConfigError(f"label {self.label!r} must be a non-empty file name "
                              "part of printable characters, without / or \\")
        # written so that NaN fails every check; inf would give a degenerate index
        if self.kind in ("rcucb", "ucb"):
            if not (self.alpha > 0 and math.isfinite(self.alpha)):
                raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
            if self.alpha <= 1:
                warnings.warn(
                    f"{self.kind}: alpha={self.alpha} is outside the regime alpha > 1 "
                    "assumed by the regret and concentration guarantees",
                    UserWarning,
                    stacklevel=2,
                )
        if self.kind == "klrcucb" and not (self.c >= 0 and math.isfinite(self.c)):
            raise ConfigError(f"c must be non-negative and finite, got {self.c}")
        if self.kind == "ts":
            if not all(p > 0 and math.isfinite(p) for p in self.prior):
                raise ConfigError(f"Beta prior parameters must be positive and finite, "
                                  f"got {list(self.prior)}")
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


def _require_played(counts: np.ndarray) -> None:
    """The index precondition: every pair has N >= 1, which the init_limits
    schedule guarantees before Policy.select first asks for an index."""
    if counts.min() < 1.0:
        raise UsageError("index asked for before every pair has a count (N >= 1)")


# halvings between two pruning tests of _klucb_index_matrix: of 1-4, swept on
# recorded blocks at m = 10, 50 and 100 with 1-5 repetitions, 3 and 4 were the
# fastest, within the runs' spread of each other
_PRUNE_EVERY = 3


def _klucb_index_matrix(mu_eff: np.ndarray, counts: np.ndarray, t: int, c: float) -> np.ndarray:
    """The KL-UCB index (largest q in [mu_eff, 1] with N d(mu_eff, q) <= ln t +
    c ln ln t) of every pair that can attain its repetition's maximum; -inf
    elsewhere.

    mu_eff and counts are a block's (reps, n, m) stacks, and one bisection runs
    over the cells of every repetition at once, in rep order. Each cell runs 40
    halvings of [mu_eff, 1] (width below 1e-9) with the operands and operation
    order of an unpruned bisection over all cells, so every finite value
    returned has that bisection's bits. After every _PRUNE_EVERY-th halving, a
    cell whose hi lies below the largest lo of its own repetition is dropped
    and reads -inf: its final value is at most its hi and its repetition's
    final maximum at least that lo, so it can be neither that repetition's
    argmax nor a tie. The cell holding a repetition's largest lo is never
    dropped, so every repetition keeps a cell. The live cells are compacted
    once at most 3/4 of them remain; that changes array lengths, not values.
    hi only falls and lo only rises, so the final hi >= max lo test returns
    -inf for every cell an earlier test could have dropped: the interval
    decides which columns get computed, never a returned value. Every N
    must be >= 1 (see _require_played).
    """
    _require_played(counts)
    reps, per_rep = counts.shape[0], counts[0].size
    p = mu_eff.ravel()
    budget = _exploration_budget(t, c)
    # one column per live cell; rows p, 1 - p, lo, hi, target
    state = np.stack((p, 1.0 - p, p, np.ones_like(p),
                      (budget / counts).ravel()))
    cells = np.arange(p.size)
    # each live cell's repetition, and where each repetition's cells start
    rep = cells // per_rep
    starts = np.arange(0, p.size, per_rep)
    compacted = True
    with np.errstate(divide="ignore", invalid="ignore"):
        for halving in range(40):
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
            if halving % _PRUNE_EVERY == _PRUNE_EVERY - 1 and cells.size > reps:
                keep = hi >= np.maximum.reduceat(lo, starts)[rep]
                if 4 * np.count_nonzero(keep) <= 3 * keep.size:
                    keep = np.flatnonzero(keep)
                    state = state.take(keep, axis=1)
                    cells = cells[keep]
                    rep = rep[keep]
                    starts = np.searchsorted(rep, np.arange(reps))
                    compacted = True
    lo, hi = state[2:4]
    keep = hi >= np.maximum.reduceat(lo, starts)[rep]
    out = np.full(counts.size, -np.inf)
    out[cells[keep]] = 0.5 * (lo[keep] + hi[keep])
    return out.reshape(counts.shape)


def _optimistic_index(estimator, width: float, scale: np.ndarray,
                      offset: np.ndarray) -> np.ndarray:
    """scale * (mu_hat + sqrt(width / N)) + offset per pair.

    Every N must be >= 1 (see _require_played), so mu_hat = sums / N equals
    mean_matrix(), which divides by max(N, 1). The expression runs as a few
    in-place ufuncs on one fresh array.
    """
    counts = estimator.counts
    _require_played(counts)
    out = np.divide(width, counts)
    np.sqrt(out, out=out)
    out += estimator.sums / counts
    out *= scale
    out += offset
    return out


class Policy:
    """Base class for a block of reps repetitions played in lockstep: strict
    select/update alternation, round counting, the initialization schedule,
    and the argmax of index_matrix afterwards, one per repetition."""

    kind = "base"

    def __init__(self, instance: InstanceSpec, reps: int = 1):
        self.grid = instance.grid
        self.n = instance.n
        self.reps = reps
        self._first_rows = range(0, reps * self.n, self.n)
        self.t = 0
        self.estimator = None
        self._arms0: list[int] | None = None  # the selection awaiting its update
        self._js: list[int] = []
        self._init = init_limits(self.kind, instance.grid.m)
        self._init_rounds = init_length(self.kind, instance)
        scale, offset = objective_vectors(instance.objective, instance.discount,
                                          instance.grid)
        self.scale = scale
        self.offset = offset

    def select(self) -> tuple[list[int], list[int]]:
        """(arm0, j) per repetition, in rep order: the 0-based arms and the grid
        indices of the limits to play."""
        if self._arms0 is not None:
            raise UsageError("select called twice without an update in between")
        if self.t < self._init_rounds:
            arm0, step = divmod(self.t, len(self._init))
            arms0, js = [arm0] * self.reps, [self._init[step]] * self.reps
        else:
            arms0, js = self._choose()
        self._arms0 = arms0
        self._js = js
        return arms0, js

    def update(self, lo: list[int], reward: list[float]) -> None:
        """Absorb the selected round, one entry per repetition in rep order:
        lo = grid.first_admitting(cost), so a repetition's round was censored
        iff its lo > j, and then its reward is 0.0."""
        if self._arms0 is None:
            raise UsageError("update called before select")
        self._absorb(lo, reward)
        self._arms0 = None
        self.t += 1

    def _rounds(self, lo, reward):
        """(first row, arm0, j, lo, reward) of each repetition's round; the
        played arm's estimator row is first row + arm0 = rep * n + arm0."""
        return zip(self._first_rows, self._arms0, self._js, lo, reward)

    def _choose(self) -> tuple[list[int], list[int]]:
        return argmax_pair(self.index_matrix())

    def _absorb(self, lo: list[int], reward: list[float]) -> None:
        pass

    def snapshot(self, rep: int = 0) -> list[dict]:
        """JSON-ready estimator state of one repetition; empty for
        estimator-free policies."""
        return [] if self.estimator is None else self.estimator.snapshot(rep)


class _CensoredPolicy(Policy):
    """What rcucb and klrcucb share: the censored moment estimator, fed every
    cell at or below the played limit."""

    def __init__(self, instance: InstanceSpec, reps: int = 1):
        super().__init__(instance, reps)
        self.estimator = CensoredMomentEstimator(instance.n, instance.grid, reps)

    def _absorb(self, lo, reward):
        update = self.estimator.update_by_index
        for first_row, arm0, j, lo_r, reward_r in self._rounds(lo, reward):
            update(first_row + arm0, j + 1, lo_r, reward_r)


class RCUCBPolicy(_CensoredPolicy):
    """Optimistic index over all pairs, fed by the censored moment estimator.

    Index: scale * (mu_hat + sqrt(2 alpha ln t / N)) + offset, which under
    multiplicative discounting is gamma(tau') * mu_hat plus the equally
    discounted confidence radius. Rounds 1..n play (arm t, largest grid
    point), after which every cell has N >= 1.
    """

    kind = "rcucb"

    def __init__(self, instance: InstanceSpec, alpha: float = 2.0, reps: int = 1):
        super().__init__(instance, reps)
        self.alpha = alpha

    def index_matrix(self) -> np.ndarray:
        """The (reps, n, m) stack of every repetition's index matrix."""
        t = self.t + 1
        return _optimistic_index(self.estimator, 2.0 * self.alpha * math.log(t),
                                 self.scale, self.offset).reshape(self.reps, self.n, -1)


class KLRCUCBPolicy(_CensoredPolicy):
    """Divergence-based variant of the censored-estimator policy.

    Each pair's index is the largest q with N * d(mu_eff, q) below the
    exploration budget ln t + c ln ln t, where mu_eff is the pair's objective
    value of mu_hat clipped to [0, 1] (for multiplicative discounting this is
    exactly gamma(tau') * mu_hat). Same initialization as the plain policy.
    """

    kind = "klrcucb"

    def __init__(self, instance: InstanceSpec, c: float = 3.0, reps: int = 1):
        super().__init__(instance, reps)
        self.c = c

    def index_matrix(self) -> np.ndarray:
        """The (reps, n, m) stack of the KL index of every pair that can attain
        its repetition's maximum.

        Those cells carry the exact bits of the full bisection and a cell shown
        to lie strictly below its repetition's maximum reads -inf, so
        argmax_pair picks the pair the full matrix would, ties included. See
        _klucb_index_matrix, which bisects the whole block's stack in one pass.
        """
        t = self.t + 1
        shape = (self.reps, self.n, -1)
        mu_eff = np.clip(self.scale * self.estimator.mean_matrix() + self.offset, 0.0, 1.0)
        return _klucb_index_matrix(mu_eff.reshape(shape),
                                   self.estimator.counts.reshape(shape), t, self.c)


class ModifiedUCBPolicy(Policy):
    """Pairwise UCB on the naive estimator.

    The first n*m rounds sweep every pair once (arm-major, ascending tau');
    afterwards the index is scale * (mu_tilde + sqrt(alpha ln t / (2 T)))
    + offset.
    """

    kind = "ucb"

    def __init__(self, instance: InstanceSpec, alpha: float = 2.0, reps: int = 1):
        super().__init__(instance, reps)
        self.alpha = alpha
        self.estimator = NaiveEstimator(instance.n, instance.grid, reps)

    def index_matrix(self) -> np.ndarray:
        """The (reps, n, m) stack of every repetition's index matrix."""
        t = self.t + 1
        # alpha ln t / (2 T) as (alpha ln t / 2) / T: halving is exact, so the
        # quotient, and every bit of the index, is the same
        return _optimistic_index(self.estimator, self.alpha * math.log(t) / 2.0,
                                 self.scale, self.offset).reshape(self.reps, self.n, -1)

    def _absorb(self, lo, reward):
        update = self.estimator.update_by_index
        for first_row, arm0, j, lo_r, reward_r in self._rounds(lo, reward):
            update(first_row + arm0, j, lo_r, reward_r)


class ModifiedTSPolicy(Policy):
    """Thompson sampling over pairs with the shared-information posterior.

    After the same full sweep as the UCB baseline, each round draws
    theta ~ Beta(a0 + S, b0 + F) for every pair (arm-major order from the
    repetition's own RNG, one per repetition in rngs) and plays the argmax of
    scale * theta + offset.
    """

    kind = "ts"

    def __init__(self, instance: InstanceSpec, rngs: list[np.random.Generator],
                 prior: tuple[float, float] = (1.0, 1.0), indicator: str = "per_pair"):
        super().__init__(instance, len(rngs))
        self.rngs = rngs
        self.estimator = BetaPosterior(instance.n, instance.grid, prior=prior,
                                       indicator=indicator, reps=self.reps)

    def _choose(self) -> tuple[list[int], list[int]]:
        a, b = self.estimator.posterior_params()
        n = self.n
        theta = np.concatenate([rng.beta(a[row:row + n], b[row:row + n])
                                for rng, row in zip(self.rngs, self._first_rows)])
        theta *= self.scale
        theta += self.offset
        return argmax_pair(theta.reshape(self.reps, n, -1))

    def _absorb(self, lo, reward):
        update = self.estimator.update_by_index
        rounds = zip(self.rngs, self._rounds(lo, reward))
        for rng, (first_row, arm0, j, lo_r, reward_r) in rounds:
            update(first_row + arm0, j + 1, lo_r, reward_r, rng)


class UniformRandomPolicy(Policy):
    """Plays a uniformly random pair every round, drawn from each repetition's
    own RNG; a regret-curve anchor."""

    kind = "uniform_random"

    def __init__(self, instance: InstanceSpec, rngs: list[np.random.Generator]):
        super().__init__(instance, len(rngs))
        self.rngs = rngs

    def _choose(self) -> tuple[list[int], list[int]]:
        m = self.grid.m
        flat = [int(rng.integers(self.n * m)) for rng in self.rngs]
        return [f // m for f in flat], [f % m for f in flat]


class FixedOraclePolicy(Policy):
    """Always plays one fixed pair (normally the oracle optimum)."""

    kind = "fixed_oracle"

    def __init__(self, instance: InstanceSpec, arm: int, tau_prime: float, reps: int = 1):
        super().__init__(instance, reps)
        self._pair = (arm - 1, instance.grid.index_of(tau_prime))
        if not 1 <= arm <= instance.n:
            raise ConfigError(f"arm {arm} outside 1..{instance.n}")

    def _choose(self) -> tuple[list[int], list[int]]:
        return [self._pair[0]] * self.reps, [self._pair[1]] * self.reps


def make_policy(spec: PolicySpec, instance: InstanceSpec, reps: int = 1,
                rngs: list[np.random.Generator] | None = None,
                optimal_pair: tuple[int, float] | None = None) -> Policy:
    """Instantiate the policy described by spec for a block of reps repetitions.

    rngs, one Generator per repetition, is required by the stochastic
    policies (ts, uniform_random); optimal_pair = (arm, tau') is required by
    fixed_oracle.
    """
    if rngs is not None and len(rngs) != reps:
        raise ConfigError(f"{len(rngs)} RNGs for a block of {reps} repetitions")
    if spec.kind == "rcucb":
        return RCUCBPolicy(instance, alpha=spec.alpha, reps=reps)
    if spec.kind == "klrcucb":
        return KLRCUCBPolicy(instance, c=spec.c, reps=reps)
    if spec.kind == "ucb":
        return ModifiedUCBPolicy(instance, alpha=spec.alpha, reps=reps)
    if spec.kind == "ts":
        if rngs is None:
            raise ConfigError("ts policy needs an RNG")
        return ModifiedTSPolicy(instance, rngs, prior=spec.prior,
                                indicator=spec.ts_indicator)
    if spec.kind == "uniform_random":
        if rngs is None:
            raise ConfigError("uniform_random policy needs an RNG")
        return UniformRandomPolicy(instance, rngs)
    if spec.kind == "fixed_oracle":
        if optimal_pair is None:
            raise ConfigError("fixed_oracle policy needs the oracle's optimal pair")
        return FixedOraclePolicy(instance, arm=optimal_pair[0], tau_prime=optimal_pair[1],
                                 reps=reps)
    raise ConfigError(f"unknown policy kind {spec.kind!r}")
