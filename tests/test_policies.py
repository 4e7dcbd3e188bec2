import dataclasses
import math
import warnings

import numpy as np
import pytest

from rcbandit.core import (
    AdditiveCost,
    ConfigError,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    MultiplicativeDiscount,
    ResourceGrid,
    UsageError,
    argmax_pair,
    build_grid,
)
from rcbandit.envs import DegenerateArm
from rcbandit.policies import (
    FixedOraclePolicy,
    KLRCUCBPolicy,
    ModifiedTSPolicy,
    ModifiedUCBPolicy,
    PolicySpec,
    RCUCBPolicy,
    UniformRandomPolicy,
    _exploration_budget,
    _kl_bernoulli_arr,
    _zero_weights,
    init_length,
    make_policy,
)

from conftest import gaussian_instance

# independently evaluated index values at t=10, mu_hat=0.9, N=4, alpha=2,
# linear discount with tau_max=1 on grid points 0.25 / 0.5
RCUCB_IDX_A = 1.81307034703886
RCUCB_IDX_B = 1.2087135646925733
# same setting for the naive-estimator index with T=4
UCB_IDX = 1.24403517351943
# d(0.5, 0.75) and d(0, 0.5)
KL_05_075 = 0.14384103622589042
KL_0_05 = 0.6931471805599453
# largest q with 10 * d(0.5, q) <= ln 100 (dense-scan cross-check)
KLUCB_IDX = 0.887908699795822

# update(lo, reward) of a round censored at every limit: lo lies beyond every grid index
CENSORED = (10**6, 0.0)


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), with 0*log 0 := 0.

    Endpoint q in {0, 1} gives +inf unless p sits on the same endpoint. The
    scalar reference for the matrix index, on the package's one divergence
    formula.
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise DomainError("p and q must lie in [0, 1]")
    w = np.array([p, 1.0 - p])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_kl_bernoulli_arr(w, np.array([q, 1.0 - q]), _zero_weights(w)))


def klucb_index(mu_eff: float, n: int, t: int, c: float) -> float:
    """Largest q in [mu_eff, 1] with n * d(mu_eff, q) <= ln t + c ln ln t.

    Scalar bisection to absolute tolerance 1e-9: the reference the matrix
    index of KLRCUCBPolicy is compared against.
    """
    if not 0.0 <= mu_eff <= 1.0:
        raise DomainError("mu_eff must lie in [0, 1]")
    if n < 1:
        raise DomainError("n must be >= 1")
    if t < 2:
        raise DomainError("t must be >= 2")
    if c < 0:
        raise DomainError("c must be non-negative")
    target = _exploration_budget(t, c) / n
    lo, hi = mu_eff, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if kl_bernoulli(mu_eff, mid) > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _inst(n_arms=1, points=(0.25, 0.5), objective=MultiplicativeDiscount(),
          tau_max=1.0):
    arms = tuple(DegenerateArm(r0=0.5, c0=0.1) for _ in range(n_arms))
    return InstanceSpec(
        arms=arms,
        grid=ResourceGrid(points=points, tau_max=tau_max),
        discount=DiscountSpec("linear", tau_max=tau_max),
        objective=objective,
    )


def _inject(policy, counts, mu, t):
    est = policy.estimator
    est.counts[:] = counts
    est.sums[:] = est.counts * mu
    policy.t = t - 1  # so the upcoming round is t


def test_rcucb_initialization_order():
    inst = _inst(n_arms=3)
    pol = RCUCBPolicy(inst)
    seen = []
    for _ in range(3):
        seen.append(pol.select())
        pol.update(*CENSORED)
    assert seen == [(0, 1), (1, 1), (2, 1)]
    # every cell was fed by the maximal-limit plays
    assert np.all(pol.estimator.counts >= 1)


def test_rcucb_index_values():
    pol = RCUCBPolicy(_inst(), alpha=2.0)
    _inject(pol, counts=4.0, mu=0.9, t=10)
    idx = pol.index_matrix()
    assert idx[0, 0] == pytest.approx(RCUCB_IDX_A, abs=1e-12)
    assert idx[0, 1] == pytest.approx(RCUCB_IDX_B, abs=1e-12)
    assert pol.select() == (0, 0)


def test_rcucb_unplayed_pair_raises():
    # the initialization gives every pair a count; an index without one is misuse
    pol = RCUCBPolicy(_inst(n_arms=2))
    _inject(pol, counts=4.0, mu=0.9, t=10)
    pol.estimator.counts[1, 1] = 0.0
    with pytest.raises(UsageError, match="N >= 1"):
        pol.index_matrix()
    with pytest.raises(UsageError, match="N >= 1"):
        pol.select()


def test_rcucb_tie_break_smallest_tau_then_arm():
    # a zero-scale additive objective makes every pair's index identical
    inst = _inst(n_arms=2, objective=AdditiveCost(scale=0.0))
    pol = RCUCBPolicy(inst)
    _inject(pol, counts=4.0, mu=0.5, t=10)
    assert pol.select() == (0, 0)


def test_argmax_pair_scan_order_and_scale_invariance():
    m = np.array([[1.0, 3.0], [3.0, 2.0]])  # tie between (1, tau2) and (2, tau1)
    assert argmax_pair(m) == (1, 0)  # smaller tau' wins
    rng = np.random.default_rng(0)
    for _ in range(200):
        mat = rng.integers(0, 4, size=(5, 4)).astype(float)
        assert argmax_pair(mat) == argmax_pair(3.7 * mat)
        assert argmax_pair(mat) == argmax_pair(0.01 * mat)


def _reference_index(pol):
    """The general expression, written out as before the fast path existed."""
    t = pol.t + 1
    counts = pol.estimator.counts
    mu = np.where(counts > 0, pol.estimator.sums / np.maximum(counts, 1.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if pol.kind == "rcucb":
            radius = np.sqrt(2.0 * pol.alpha * math.log(t) / counts)
        else:
            radius = np.sqrt(pol.alpha * math.log(t) / (2.0 * counts))
        vals = pol.scale * (mu + radius) + pol.offset
    return np.where(counts > 0, vals, np.inf)


@pytest.mark.parametrize("cls", [RCUCBPolicy, ModifiedUCBPolicy])
@pytest.mark.parametrize("m", [10, 100])
@pytest.mark.parametrize("objective", [MultiplicativeDiscount(),
                                       AdditiveCost(scale=0.5, power=2.0)])
def test_index_fast_path_is_bit_identical(cls, m, objective):
    inst = dataclasses.replace(gaussian_instance(m), objective=objective)
    pol = cls(inst, alpha=1.5 if cls is RCUCBPolicy else 2.5)
    est = pol.estimator
    rng = np.random.default_rng(m)
    for trial in range(25):
        est.counts[:] = rng.integers(1, 10**4, size=est.counts.shape)
        est.sums[:] = est.counts * rng.random(est.counts.shape)
        pol.t = int(rng.integers(inst.n * m, 10**6))
        if trial % 5 == 4:
            # one unplayed cell, which the index refuses
            cell = (int(rng.integers(inst.n)), int(rng.integers(m)))
            est.counts[cell] = 0.0
            est.sums[cell] = 0.0
            with pytest.raises(UsageError):
                pol.index_matrix()
            continue
        idx = pol.index_matrix()
        assert np.array_equal(idx, _reference_index(pol))
        assert np.isfinite(idx).all()


def test_ucb_sweep_order():
    inst = _inst(n_arms=2, points=(0.5, 1.0))
    pol = ModifiedUCBPolicy(inst)
    seen = []
    for _ in range(4):
        seen.append(pol.select())
        pol.update(*CENSORED)
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_ucb_index_value():
    pol = ModifiedUCBPolicy(_inst(), alpha=2.0)
    _inject(pol, counts=4.0, mu=0.9, t=10)
    assert pol.index_matrix()[0, 0] == pytest.approx(UCB_IDX, abs=1e-12)


def test_ucb_tie_break():
    inst = _inst(n_arms=3, objective=AdditiveCost(scale=0.0))
    pol = ModifiedUCBPolicy(inst)
    _inject(pol, counts=2.0, mu=0.3, t=20)
    assert pol.select() == (0, 0)


def test_kl_bernoulli_values():
    assert kl_bernoulli(0.5, 0.5) == 0.0
    assert kl_bernoulli(0.5, 0.75) == pytest.approx(KL_05_075, abs=1e-14)
    assert kl_bernoulli(0.0, 0.5) == pytest.approx(KL_0_05, abs=1e-14)
    assert kl_bernoulli(0.5, 1.0) == np.inf
    assert kl_bernoulli(0.5, 0.0) == np.inf
    assert kl_bernoulli(1.0, 1.0) == 0.0
    assert kl_bernoulli(0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        kl_bernoulli(-0.1, 0.5)
    with pytest.raises(DomainError):
        kl_bernoulli(0.5, 1.1)


def test_klucb_index_frozen_value():
    assert klucb_index(0.5, 10, 100, 0.0) == pytest.approx(KLUCB_IDX, abs=5e-7)


def test_klucb_index_boundaries():
    # t=2 with c=3 clamps the budget to zero: the index collapses to mu_eff
    assert klucb_index(0.4, 5, 2, 3.0) == pytest.approx(0.4, abs=2e-9)
    assert klucb_index(1.0, 3, 100, 0.0) == 1.0
    assert klucb_index(0.0, 1, 100, 0.0) < 1.0


def test_klucb_index_properties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = float(rng.uniform(0, 1))
        n = int(rng.integers(1, 50))
        t = int(rng.integers(2, 10_000))
        q = klucb_index(p, n, t, 1.0)
        assert q >= p - 1e-12
        assert q <= 1.0
    # strictly decreasing in n for interior p
    assert klucb_index(0.5, 5, 100, 0.0) > klucb_index(0.5, 10, 100, 0.0) + 1e-6


def test_klucb_index_domain():
    with pytest.raises(DomainError):
        klucb_index(0.5, 0, 100, 0.0)
    with pytest.raises(DomainError):
        klucb_index(0.5, 10, 1, 0.0)
    with pytest.raises(DomainError):
        klucb_index(1.5, 10, 100, 0.0)


def test_klrcucb_select_and_init():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = KLRCUCBPolicy(inst)
    assert pol.select() == (0, 0)
    pol.update(*CENSORED)
    assert pol.select() == (1, 0)
    pol.update(*CENSORED)

    # equal statistics: tie-break to arm 1
    _inject(pol, counts=3.0, mu=0.4, t=10)
    assert pol.select() == (0, 0)


def test_klrcucb_smaller_count_larger_index():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = KLRCUCBPolicy(inst)
    _inject(pol, counts=5.0, mu=0.4, t=50)
    pol.estimator.counts[1, 0] = 2.0
    pol.estimator.sums[1, 0] = 0.8  # same mu_hat = 0.4, so mu_eff = 0.2 for both
    idx = pol.index_matrix()
    # compared with the scalar index of the larger count, not with idx[0, 0],
    # which the pruned bisection may leave at -inf
    assert idx[1, 0] == pytest.approx(klucb_index(0.2, 2, 50, 3.0), abs=1e-9)
    assert idx[1, 0] > klucb_index(0.2, 5, 50, 3.0) + 1e-6
    assert pol.select() == (1, 0)


def _reference_klucb_matrix(mu_eff, counts, t, c):
    """The unpruned vectorized bisection, written out as before pruning existed."""
    target = _exploration_budget(t, c) / np.maximum(counts, 1.0)
    lo = mu_eff.copy()
    hi = np.ones_like(mu_eff)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(mu_eff > 0.0, mu_eff * np.log(mu_eff / mid), 0.0)
            right = np.where(mu_eff < 1.0,
                             (1.0 - mu_eff) * np.log((1.0 - mu_eff) / (1.0 - mid)), 0.0)
        too_far = left + right > target
        hi = np.where(too_far, mid, hi)
        lo = np.where(too_far, lo, mid)
    return np.where(counts > 0, 0.5 * (lo + hi), np.inf)


@pytest.mark.parametrize("m", [10, 100])
def test_klucb_pruning_is_bit_identical(m):
    pol = KLRCUCBPolicy(gaussian_instance(m))
    est = pol.estimator
    n = est.counts.shape[0]
    rng = np.random.default_rng(100 + m)
    covered = set()
    for trial in range(30):
        case = trial % 6
        # small counts, as early in an episode, leave many cells near 1
        est.counts[:] = rng.integers(1, 3 if case == 5 else 60, size=est.counts.shape)
        est.sums[:] = est.counts * rng.random(est.counts.shape)
        pol.t = 1 if case == 4 else int(rng.integers(n, 2000))  # t = 2: budget 0
        if case == 1:
            est.counts[rng.integers(n), rng.integers(m)] = 0.0
        elif case == 2:
            # mu_hat above 1 / gamma(tau') clips mu_eff to exactly 1
            i = rng.integers(n)
            est.sums[i, 0] = 2.0 * est.counts[i, 0]
        mu_eff = np.clip(pol.scale * est.mean_matrix() + pol.offset, 0.0, 1.0)
        if case == 3:
            # copy the top cell to another arm: the same (p, N) gives an exact tie
            a, j = argmax_pair(_reference_klucb_matrix(mu_eff, est.counts, pol.t + 1, pol.c))
            other = (a + 1 + int(rng.integers(n - 1))) % n
            est.counts[other, j] = est.counts[a, j]
            est.sums[other, j] = est.sums[a, j]
            mu_eff = np.clip(pol.scale * est.mean_matrix() + pol.offset, 0.0, 1.0)

        if case == 1:
            # an unplayed cell, which the index refuses
            with pytest.raises(UsageError):
                pol.index_matrix()
            continue
        ref = _reference_klucb_matrix(mu_eff, est.counts, pol.t + 1, pol.c)
        idx = pol.index_matrix()
        assert argmax_pair(idx) == argmax_pair(ref)
        finite = np.isfinite(idx)
        assert np.array_equal(idx[finite], ref[finite])
        assert np.all(ref[np.isneginf(idx)] < ref.max())
        assert not np.isposinf(idx).any()
        for i, j in zip(*np.nonzero(finite)):
            scalar = klucb_index(float(mu_eff[i, j]), int(est.counts[i, j]), pol.t + 1, pol.c)
            assert idx[i, j] == pytest.approx(scalar, abs=1e-9)
        if case == 3:
            assert idx[a, j] == idx[other, j] == ref.max()
        covered.update(name for name, hit in (
            ("p = 0", np.any(mu_eff == 0.0)),
            ("p = 1", np.any(mu_eff == 1.0)),
            ("pruned", np.any(np.isneginf(idx))),
        ) if hit)
    assert covered == {"p = 0", "p = 1", "pruned"}


def test_klrcucb_matches_scalar_index():
    inst = _inst(n_arms=1, points=(0.5,))
    pol = KLRCUCBPolicy(inst, c=0.0)
    _inject(pol, counts=10.0, mu=1.0, t=100)
    # mu_eff = gamma(0.5) * 1.0 = 0.5, N=10, t=100
    assert pol.index_matrix()[0, 0] == pytest.approx(KLUCB_IDX, abs=1e-6)


def test_ts_single_pair_always_selected():
    inst = _inst(n_arms=1, points=(0.5,))
    pol = ModifiedTSPolicy(inst, np.random.default_rng(0))
    for _ in range(10):
        assert pol.select() == (0, 0)
        pol.update(*CENSORED)


def test_ts_zero_discount_pair_never_selected():
    inst = _inst(n_arms=1, points=(0.5, 1.0))  # linear discount: gamma(1.0) = 0
    pol = ModifiedTSPolicy(inst, np.random.default_rng(1))
    limits = []
    for t in range(200):
        _, j = pol.select()
        if t >= 2:  # past the sweep
            limits.append(j)
        pol.update(inst.grid.first_admitting(0.1), 1.0)  # cost 0.1, reward 1
    assert set(limits) == {0}  # the limit 0.5


def test_ts_posterior_concentration():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = ModifiedTSPolicy(inst, np.random.default_rng(2))
    pol.t = 2  # past the sweep
    pol.estimator.successes[0, 0] = 1_000_000
    pol.estimator.failures[1, 0] = 1_000_000
    wins = 0
    rounds = 10_000
    for _ in range(rounds):
        arm0, _ = pol.select()
        wins += arm0 == 0
        pol.update(*CENSORED)
    assert wins / rounds >= 0.999


def test_ts_sweep_matches_ucb_sweep():
    inst = _inst(n_arms=2, points=(0.5, 1.0))
    pol = ModifiedTSPolicy(inst, np.random.default_rng(3))
    seen = []
    for _ in range(4):
        seen.append(pol.select())
        pol.update(*CENSORED)
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_alternation_enforced():
    pol = RCUCBPolicy(_inst())
    with pytest.raises(UsageError):
        pol.update(*CENSORED)
    pol.select()
    with pytest.raises(UsageError):
        pol.select()
    pol.update(*CENSORED)
    assert pol.t == 1
    with pytest.raises(UsageError):
        pol.update(*CENSORED)
    assert pol.t == 1


def test_t_counts_cycles():
    pol = ModifiedUCBPolicy(_inst(n_arms=2))
    for k in range(6):
        assert pol.t == k
        pol.select()
        pol.update(*CENSORED)


def test_uniform_random_covers_pairs():
    inst = _inst(n_arms=2, points=(0.25, 0.5, 0.75, 1.0))
    pol = UniformRandomPolicy(inst, np.random.default_rng(4))
    counts = {}
    rounds = 4000
    for _ in range(rounds):
        pair = pol.select()
        counts[pair] = counts.get(pair, 0) + 1
        pol.update(*CENSORED)
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c / rounds - 0.125) < 0.021


def test_fixed_oracle_policy():
    inst = _inst(n_arms=2)
    pol = FixedOraclePolicy(inst, arm=2, tau_prime=0.25)
    for _ in range(5):
        assert pol.select() == (1, 0)
        pol.update(*CENSORED)
    with pytest.raises(ConfigError):
        FixedOraclePolicy(inst, arm=3, tau_prime=0.25)


def test_policy_spec_validation_and_warning():
    with pytest.raises(ConfigError):
        PolicySpec(kind="nope")
    with pytest.raises(ConfigError):
        PolicySpec(kind="rcucb", alpha=0.0)
    with pytest.raises(ConfigError):
        PolicySpec(kind="ts", prior=(0.0, 1.0))
    with pytest.raises(ConfigError):
        PolicySpec(kind="ts", ts_indicator="sometimes")
    with pytest.warns(UserWarning):
        PolicySpec(kind="rcucb", alpha=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PolicySpec(kind="rcucb", alpha=2.0)  # no warning
    assert PolicySpec(kind="ucb").label == "ucb"
    assert PolicySpec(kind="ucb", label="base").label == "base"
    # the label names a file, so run_experiment callers get the config's check
    for label in ("a/b", "a\\b", "", 5):
        with pytest.raises(ConfigError, match="label"):
            PolicySpec(kind="ucb", label=label)


def test_init_length():
    inst = _inst(n_arms=3, points=(0.25, 0.5))
    assert init_length("rcucb", inst) == 3
    assert init_length("klrcucb", inst) == 3
    assert init_length("ucb", inst) == 6
    assert init_length("ts", inst) == 6
    assert init_length("uniform_random", inst) == 0
    assert init_length("fixed_oracle", inst) == 0


def test_make_policy_dispatch():
    inst = _inst(n_arms=2)
    rng = np.random.default_rng(0)
    assert isinstance(make_policy(PolicySpec("rcucb"), inst), RCUCBPolicy)
    assert isinstance(make_policy(PolicySpec("klrcucb"), inst), KLRCUCBPolicy)
    assert isinstance(make_policy(PolicySpec("ucb"), inst), ModifiedUCBPolicy)
    assert isinstance(make_policy(PolicySpec("ts"), inst, rng=rng), ModifiedTSPolicy)
    assert isinstance(
        make_policy(PolicySpec("uniform_random"), inst, rng=rng), UniformRandomPolicy
    )
    assert isinstance(
        make_policy(PolicySpec("fixed_oracle"), inst, optimal_pair=(1, 0.25)),
        FixedOraclePolicy,
    )
    with pytest.raises(ConfigError):
        make_policy(PolicySpec("ts"), inst)
    with pytest.raises(ConfigError):
        make_policy(PolicySpec("fixed_oracle"), inst)


def test_snapshot_shapes():
    inst = _inst(n_arms=1)
    pol = RCUCBPolicy(inst)
    pol.select()
    pol.update(*CENSORED)
    snap = pol.snapshot()
    assert len(snap) == 2 and {"arm", "tau", "n", "sum"} == set(snap[0])
    assert UniformRandomPolicy(inst, np.random.default_rng(0)).snapshot() == []
