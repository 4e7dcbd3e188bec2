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

POLICY_CLASSES, built from the classes, is the one table of kinds: each
class states its kind, the PolicySpec fields it reads (PolicySpec refuses
any other set) and its initialization schedule, init_limits. make_policy
builds a policy from its spec and one Generator per repetition, one lookup
there; a class refuses another kind's spec.

Every policy starts with its class's init_limits: Policy.select plays it,
init_length counts it, and check_horizon, which the runners call, holds a
horizon to it. The schedule gives every pair a count N >= 1 of the
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
- update_by_index(row, k, lo, reward), the one estimator signature, in each
  estimator's class body, called through the estimator by the one loop in
  Policy.update, once per repetition per round, with the row (rep * n + arm0)
  first and k = j + 1, a plain int, third, which the trace reads as the cells
  a round touches;
- sample_episode, defined in envs and imported by sim as a module global,
  called once per repetition before the rounds; GaussianArm.sample (in
  envs), called through the arm.

Inlining one of them silently zeroes its per-layer metric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import ConfigError, InstanceSpec, UsageError, argmax_pair, objective_vectors
from .estimators import BetaPosterior, CensoredMomentEstimator, NaiveEstimator, check_beta

@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy choice used by experiment configs.

    alpha drives the confidence radii of rcucb/ucb, c the exploration budget
    of klrcucb, prior and indicator the Thompson sampling posterior; each
    policy class reads the ones named in its reads from here.
    """

    kind: str
    label: str | None = None
    alpha: float = 2.0
    c: float = 3.0
    prior: tuple[float, float] = (1.0, 1.0)
    indicator: str = "per_pair"

    def __post_init__(self) -> None:
        if self.kind not in POLICY_CLASSES:
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)
        # the label names the run's trace_<label>.csv and goes into the SVG
        # legend as text, where a control character (NUL included) is invalid
        if not (isinstance(self.label, str) and self.label
                and self.label.isprintable()) or any(ch in self.label for ch in "/\\"):
            raise ConfigError(f"label {self.label!r} must be a non-empty file name "
                              "part of printable characters, without / or \\")
        reads = POLICY_CLASSES[self.kind].reads
        # the parameters follow kind and label; a prior may be any sequence, and
        # one the kind does not read is held as the default, so the spec hashes
        for field in fields(self)[2:]:
            if field.name not in reads:
                if not np.array_equal(getattr(self, field.name), field.default):
                    raise ConfigError(f"{field.name}: {self.kind} has no such parameter")
                object.__setattr__(self, field.name, field.default)
        # written so that NaN fails every check; inf would give a degenerate index
        if "alpha" in reads:
            if not (self.alpha > 0 and math.isfinite(self.alpha)):
                raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
            if self.alpha <= 1:
                warnings.warn(
                    f"{self.kind}: alpha={self.alpha} is outside the regime alpha > 1 "
                    "assumed by the regret and concentration guarantees",
                    UserWarning,
                    stacklevel=2,
                )
        if "c" in reads and not (self.c >= 0 and math.isfinite(self.c)):
            raise ConfigError(f"c must be non-negative and finite, got {self.c}")
        if "prior" in reads:  # a tuple, so the spec hashes
            object.__setattr__(self, "prior", check_beta(self.prior, self.indicator))


def init_length(kind: str, instance: InstanceSpec) -> int:
    """Number of prescribed initialization rounds of kind's policy before its
    own rule takes over: every arm plays its class's init_limits of the grid."""
    return instance.n * len(range(instance.grid.m)[POLICY_CLASSES[kind].init_limits])


def check_horizon(horizon: int, kinds, instance: InstanceSpec) -> None:
    """ConfigError unless horizon covers the init_length of every kind in
    kinds, for the policies of a config and for a single episode's alike."""
    kind = max(kinds, key=lambda k: init_length(k, instance))
    need = init_length(kind, instance)
    if horizon < need:
        raise ConfigError(f"horizon {horizon} shorter than the {need}-round "
                          f"initialization of {kind}")


def _exploration_budget(t: int, c: float) -> float:
    # ln ln t is negative for t < e; the budget is clamped at zero so the
    # index degenerates to mu_eff instead of going undefined
    return max(0.0, math.log(t) + c * math.log(math.log(t)))


def _require_played(counts: np.ndarray) -> None:
    """The index precondition: every pair has N >= 1, which each index class's
    init_limits guarantees before Policy.select first asks for an index."""
    if counts.min() < 1.0:
        raise UsageError("index asked for before every pair has a count (N >= 1)")


def _klucb_index_matrix(mu_eff: np.ndarray, counts: np.ndarray, t: int, c: float) -> np.ndarray:
    """The KL-UCB index of every pair: the largest q in [p, 1] with
    N d(p, q) <= ln t + c ln ln t, where p = mu_eff, elementwise.

    Four Newton steps in u = log((1 - p) / (1 - q)) >= 0, in which
    d(p, q) = (1 - p) u - p log(q / p) is convex and increasing with slope
    (q - p) / q, so Newton started above the root falls monotonically onto
    it. u is -log(1 - q) shifted to vanish at q = p, so q = p - (1 - p)
    expm1(-u) is exactly p at u = 0. The start is the smallest of three upper
    bounds: q - p <= sqrt(2 v target) with v = max x(1 - x) over [p, 1], from
    d >= (q - p)^2 / (2 v); q - p <= target + sqrt(target (target + 2p)), from
    d >= (q - p)^2 / (2q); and u <= (target - p log p) / (1 - p). A step that
    is not positive (or is NaN, as at p = 0 or p = 1) is dropped and u is
    clamped at 0, so q lies in [p, 1], a zero budget returns p exactly and
    p = 1 returns 1. Every N must be >= 1 (see _require_played).
    """
    p = mu_eff
    pbar = 1.0 - p
    neg_pbar = p - 1.0
    target = _exploration_budget(t, c) / counts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # q - p <= sqrt(2 v target), v = max(p, 1/2) (1 - max(p, 1/2))
        v = np.maximum(p, 0.5)
        gap = np.subtract(1.0, v)
        gap *= v
        gap *= target
        gap *= 2.0
        np.sqrt(gap, out=gap)
        # q - p <= target + sqrt(target (target + 2p))
        other = np.add(p, p)
        other += target
        other *= target
        np.sqrt(other, out=other)
        other += target
        np.minimum(gap, other, out=gap)
        # u = -log(1 - (q - p) / (1 - p)), infinite where the bound passes q = 1
        np.minimum(gap, pbar, out=gap)
        gap /= neg_pbar
        u = np.log1p(gap)
        np.negative(u, out=u)
        # u <= (target - p log p) / (1 - p), with 0 log 0 := 0: p log p is NaN
        # at p = 0 and at most 0 elsewhere
        bound = np.log(p)
        bound *= p
        np.fmin(bound, 0.0, out=bound)
        np.subtract(target, bound, out=bound)
        bound /= pbar
        np.fmin(u, bound, out=u)
        # three steps still leave up to 4e-9 (p near 0.9, N near 50); four
        # stay within 2**-40 of the root
        for _ in range(4):
            above = np.negative(u)
            np.expm1(above, out=above)
            above *= neg_pbar  # q - p
            # (d - target) q / (q - p), d = (1 - p) u - p log1p((q - p) / p)
            step = np.divide(above, p)
            np.log1p(step, out=step)
            step *= p
            np.subtract(pbar * u, step, out=step)
            step -= target
            step *= p + above
            step /= above
            np.fmax(step, 0.0, out=step)
            u -= step
            np.fmax(u, 0.0, out=u)
        q = np.negative(u)
        np.expm1(q, out=q)
        q *= neg_pbar
        q += p
    return q


def _optimistic_index(estimator, width: float, scale: np.ndarray,
                      offset: np.ndarray) -> np.ndarray:
    """scale * (mu_hat + sqrt(width / N)) + offset per pair.

    Every N must be >= 1 (see _require_played), so mu_hat = sums / N is
    defined in every cell. The expression runs as a few in-place ufuncs on one
    fresh array.
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
    and the argmax of index_matrix afterwards, one per repetition.

    scale and offset, the objective map nu = scale * mu + offset of
    core.objective_vectors, are held tiled to the block's (reps * n, m) shape,
    so the index policies map a block's values with two contiguous in-place
    ufuncs; each cell gets the same product and sum as from the (m,) vectors.
    """

    kind = "base"
    reads: tuple[str, ...] = ()  # the PolicySpec fields the class reads
    # a slice of range(m): the grid indices every arm plays in turn before the
    # policy's own rule, so round t (0-based) plays arm t // len, limit [t % len]
    init_limits = slice(0)
    estimator_type = None  # built as estimator_type(n, grid, reps) if set

    def __init__(self, instance: InstanceSpec, spec: PolicySpec, rngs: list[np.random.Generator]):
        if spec.kind != self.kind:
            raise ConfigError(f"{type(self).__name__} plays kind {self.kind}, "
                              f"but the spec is of kind {spec.kind}")
        self.spec = spec
        self.rngs = rngs
        self.grid = instance.grid
        self.n = instance.n
        self.reps = reps = len(rngs)
        self._first_rows = range(0, reps * self.n, self.n)
        self.t = 0
        self.estimator = (None if self.estimator_type is None
                          else self.estimator_type(self.n, self.grid, reps))
        self._arms0: list[int] | None = None  # the selection awaiting its update
        self._js: list[int] = []
        self._init = range(self.grid.m)[self.init_limits]
        self._init_rounds = init_length(self.kind, instance)
        tiles = (reps * self.n, 1)
        scale, offset = objective_vectors(instance.objective, instance.discount,
                                          instance.grid)
        self.scale = np.tile(scale, tiles)
        self.offset = np.tile(offset, tiles)

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
        if self.estimator is not None:
            rounds = zip(self._first_rows, self._arms0, self._js, lo, reward)
            for first_row, arm0, j, lo_r, reward_r in rounds:
                self.estimator.update_by_index(first_row + arm0, j + 1, lo_r, reward_r)
        self._arms0 = None
        self.t += 1

    def _choose(self) -> tuple[list[int], list[int]]:
        return argmax_pair(self.index_matrix())

    def snapshot(self, rep: int = 0) -> list[dict]:
        """JSON-ready estimator state of one repetition; empty for
        estimator-free policies."""
        return [] if self.estimator is None else self.estimator.snapshot(rep)


class RCUCBPolicy(Policy):
    """Optimistic index over all pairs, fed by the censored moment estimator.

    Index: scale * (mu_hat + sqrt(2 alpha ln t / N)) + offset, which under
    multiplicative discounting is gamma(tau') * mu_hat plus the equally
    discounted confidence radius. Rounds 1..n play (arm t, largest grid
    point), which gives every cell of the censored estimator N >= 1.
    """

    kind = "rcucb"
    reads = ("alpha",)
    init_limits = slice(-1, None)  # every arm at the largest limit
    estimator_type = CensoredMomentEstimator

    def index_matrix(self) -> np.ndarray:
        """The (reps, n, m) stack of every repetition's index matrix."""
        t = self.t + 1
        return _optimistic_index(self.estimator, 2.0 * self.spec.alpha * math.log(t),
                                 self.scale, self.offset).reshape(self.reps, self.n, -1)


class KLRCUCBPolicy(Policy):
    """Divergence-based variant of the censored-estimator policy.

    Each pair's index is the largest q with N * d(mu_eff, q) below the
    exploration budget ln t + c ln ln t, where mu_eff is the pair's objective
    value of mu_hat clipped to [0, 1] (for multiplicative discounting this is
    exactly gamma(tau') * mu_hat). Same initialization as the plain policy.
    """

    kind = "klrcucb"
    reads = ("c",)
    init_limits = slice(-1, None)  # every arm at the largest limit
    estimator_type = CensoredMomentEstimator

    def index_matrix(self) -> np.ndarray:
        """The (reps, n, m) stack of every repetition's KL index matrix, which
        _klucb_index_matrix computes over the whole stack at once. Every N is
        checked to be >= 1, so mu_hat = sums / N is defined in every cell."""
        t = self.t + 1
        shape = (self.reps, self.n, -1)
        counts = self.estimator.counts
        _require_played(counts)
        mu_eff = self.estimator.sums / counts
        mu_eff *= self.scale
        mu_eff += self.offset
        np.clip(mu_eff, 0.0, 1.0, out=mu_eff)
        return _klucb_index_matrix(mu_eff.reshape(shape), counts.reshape(shape), t,
                                   self.spec.c)


class ModifiedUCBPolicy(Policy):
    """Pairwise UCB on the naive estimator.

    The first n*m rounds sweep every pair once (arm-major, ascending tau'),
    because the per-pair statistics learn only from the pair played;
    afterwards the index is scale * (mu_tilde + sqrt(alpha ln t / (2 T)))
    + offset.
    """

    kind = "ucb"
    reads = ("alpha",)
    init_limits = slice(None)  # every arm at every limit
    estimator_type = NaiveEstimator

    def index_matrix(self) -> np.ndarray:
        """The (reps, n, m) stack of every repetition's index matrix."""
        t = self.t + 1
        # alpha ln t / (2 T) as (alpha ln t / 2) / T: halving is exact, so the
        # quotient, and every bit of the index, is the same
        return _optimistic_index(self.estimator, self.spec.alpha * math.log(t) / 2.0,
                                 self.scale, self.offset).reshape(self.reps, self.n, -1)


class ModifiedTSPolicy(Policy):
    """Thompson sampling over pairs with the shared-information posterior.

    After the same full sweep as the UCB baseline, each round draws
    theta ~ Beta(a0 + S, b0 + F) for every pair (arm-major order from the
    repetition's own RNG, which the posterior also draws its trials from) and
    plays the argmax of scale * theta + offset.
    """

    kind = "ts"
    reads = ("prior", "indicator")
    init_limits = slice(None)  # every arm at every limit

    def __init__(self, instance: InstanceSpec, spec: PolicySpec, rngs: list[np.random.Generator]):
        super().__init__(instance, spec, rngs)
        self.estimator = BetaPosterior(instance.n, instance.grid, rngs, prior=spec.prior,
                                       indicator=spec.indicator)

    def _choose(self) -> tuple[list[int], list[int]]:
        a, b = self.estimator.posterior_params()
        n = self.n
        theta = np.concatenate([rng.beta(a[row:row + n], b[row:row + n]) for rng, row
                                in zip(self.rngs, self._first_rows)])
        theta *= self.scale
        theta += self.offset
        return argmax_pair(theta.reshape(self.reps, n, -1))


class UniformRandomPolicy(Policy):
    """Plays a uniformly random pair every round, drawn from each repetition's
    own RNG; a regret-curve anchor."""

    kind = "uniform_random"

    def _choose(self) -> tuple[list[int], list[int]]:
        m = self.grid.m
        flat = [int(rng.integers(self.n * m)) for rng in self.rngs]
        return [f // m for f in flat], [f % m for f in flat]


class FixedOraclePolicy(Policy):
    """Always plays one fixed pair (normally the oracle optimum): the 0-based
    arm arm0 at grid index j."""

    kind = "fixed_oracle"

    def __init__(self, instance: InstanceSpec, spec: PolicySpec,
                 rngs: list[np.random.Generator], arm0: int, j: int):
        super().__init__(instance, spec, rngs)
        if not (0 <= arm0 < instance.n and 0 <= j < instance.grid.m):
            raise ConfigError(f"pair ({arm0}, {j}) outside arms 0..{instance.n - 1} "
                              f"and grid indices 0..{instance.grid.m - 1}")
        self._pair = (arm0, j)

    def _choose(self) -> tuple[list[int], list[int]]:
        return [self._pair[0]] * self.reps, [self._pair[1]] * self.reps


# the one table of kinds, a class each, in definition order: PolicySpec,
# make_policy, init_length and check_horizon look a kind up here
POLICY_CLASSES = {cls.kind: cls for cls in Policy.__subclasses__()}


def make_policy(spec: PolicySpec, instance: InstanceSpec, rngs: list[np.random.Generator],
                optimal_pair: tuple[int, int]) -> Policy:
    """spec's policy, one repetition per Generator in rngs; fixed_oracle plays
    optimal_pair = (arm0, j), the oracle optimum's 0-based arm and grid index."""
    cls = POLICY_CLASSES[spec.kind]
    if cls is FixedOraclePolicy:
        return cls(instance, spec, rngs, *optimal_pair)
    return cls(instance, spec, rngs)
