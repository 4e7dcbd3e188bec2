import dataclasses
import math
import warnings

import numpy as np
import pytest

from rcbandit.core import (
    ActionPair,
    AdditiveCost,
    ConfigError,
    DiscountSpec,
    DomainError,
    Feedback,
    InstanceSpec,
    MultiplicativeDiscount,
    ResourceGrid,
    UsageError,
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
    argmax_pair,
    init_length,
    kl_bernoulli,
    klucb_index,
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

CENSORED = Feedback(censored=True)


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
        a = pol.select()
        seen.append((a.arm, a.tau_prime))
        pol.update(a, CENSORED)
    assert seen == [(1, 0.5), (2, 0.5), (3, 0.5)]
    # every cell was fed by the maximal-limit plays
    assert np.all(pol.estimator.counts >= 1)


def test_rcucb_index_values():
    pol = RCUCBPolicy(_inst(), alpha=2.0)
    _inject(pol, counts=4.0, mu=0.9, t=10)
    idx = pol.index_matrix()
    assert idx[0, 0] == pytest.approx(RCUCB_IDX_A, abs=1e-12)
    assert idx[0, 1] == pytest.approx(RCUCB_IDX_B, abs=1e-12)
    a = pol.select()
    assert (a.arm, a.tau_prime) == (1, 0.25)


def test_rcucb_unplayed_pair_wins():
    pol = RCUCBPolicy(_inst(n_arms=2))
    _inject(pol, counts=4.0, mu=0.9, t=10)
    pol.estimator.counts[1, 1] = 0.0
    assert pol.index_matrix()[1, 1] == np.inf
    a = pol.select()
    assert (a.arm, a.tau_prime) == (2, 0.5)


def test_rcucb_tie_break_smallest_tau_then_arm():
    # a zero-scale additive objective makes every pair's index identical
    inst = _inst(n_arms=2, objective=AdditiveCost(scale=0.0))
    pol = RCUCBPolicy(inst)
    _inject(pol, counts=4.0, mu=0.5, t=10)
    a = pol.select()
    assert (a.arm, a.tau_prime) == (1, 0.25)


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
            # one unplayed cell: only the general path gives it an infinite index
            cell = (int(rng.integers(inst.n)), int(rng.integers(m)))
            est.counts[cell] = 0.0
            est.sums[cell] = 0.0
        idx = pol.index_matrix()
        assert np.array_equal(idx, _reference_index(pol))
        assert np.isfinite(idx).sum() == est.counts.size - (trial % 5 == 4)


def test_ucb_sweep_order():
    inst = _inst(n_arms=2, points=(0.5, 1.0))
    pol = ModifiedUCBPolicy(inst)
    seen = []
    for _ in range(4):
        a = pol.select()
        seen.append((a.arm, a.tau_prime))
        pol.update(a, CENSORED)
    assert seen == [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)]


def test_ucb_index_value():
    pol = ModifiedUCBPolicy(_inst(), alpha=2.0)
    _inject(pol, counts=4.0, mu=0.9, t=10)
    assert pol.index_matrix()[0, 0] == pytest.approx(UCB_IDX, abs=1e-12)


def test_ucb_tie_break():
    inst = _inst(n_arms=3, objective=AdditiveCost(scale=0.0))
    pol = ModifiedUCBPolicy(inst)
    _inject(pol, counts=2.0, mu=0.3, t=20)
    a = pol.select()
    assert (a.arm, a.tau_prime) == (1, 0.25)


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
    a = pol.select()
    assert (a.arm, a.tau_prime) == (1, 0.5)
    pol.update(a, CENSORED)
    a = pol.select()
    assert (a.arm, a.tau_prime) == (2, 0.5)
    pol.update(a, CENSORED)

    # equal statistics: tie-break to arm 1
    _inject(pol, counts=3.0, mu=0.4, t=10)
    a = pol.select()
    assert (a.arm, a.tau_prime) == (1, 0.5)


def test_klrcucb_smaller_count_larger_index():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = KLRCUCBPolicy(inst)
    _inject(pol, counts=5.0, mu=0.4, t=50)
    pol.estimator.counts[1, 0] = 2.0
    pol.estimator.sums[1, 0] = 0.8  # same mu_hat = 0.4
    idx = pol.index_matrix()
    assert idx[1, 0] > idx[0, 0] + 1e-6


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
        a = pol.select()
        assert (a.arm, a.tau_prime) == (1, 0.5)
        pol.update(a, CENSORED)


def test_ts_zero_discount_pair_never_selected():
    inst = _inst(n_arms=1, points=(0.5, 1.0))  # linear discount: gamma(1.0) = 0
    pol = ModifiedTSPolicy(inst, np.random.default_rng(1))
    taus = []
    for t in range(200):
        a = pol.select()
        if t >= 2:  # past the sweep
            taus.append(a.tau_prime)
        pol.update(a, Feedback(censored=False, cost=0.1, reward=1.0))
    assert set(taus) == {0.5}


def test_ts_posterior_concentration():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = ModifiedTSPolicy(inst, np.random.default_rng(2))
    pol.t = 2  # past the sweep
    pol.estimator.successes[0, 0] = 1_000_000
    pol.estimator.failures[1, 0] = 1_000_000
    wins = 0
    rounds = 10_000
    for _ in range(rounds):
        a = pol.select()
        wins += a.arm == 1
        pol.update(a, CENSORED)
    assert wins / rounds >= 0.999


def test_ts_sweep_matches_ucb_sweep():
    inst = _inst(n_arms=2, points=(0.5, 1.0))
    pol = ModifiedTSPolicy(inst, np.random.default_rng(3))
    seen = []
    for _ in range(4):
        a = pol.select()
        seen.append((a.arm, a.tau_prime))
        pol.update(a, CENSORED)
    assert seen == [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)]


def test_alternation_enforced():
    pol = RCUCBPolicy(_inst())
    with pytest.raises(UsageError):
        pol.update(ActionPair(1, 0.25), CENSORED)
    a = pol.select()
    with pytest.raises(UsageError):
        pol.select()
    with pytest.raises(UsageError):
        pol.update(ActionPair(arm=a.arm, tau_prime=0.25 if a.tau_prime != 0.25 else 0.5),
                   CENSORED)
    pol.update(a, CENSORED)
    assert pol.t == 1


def test_t_counts_cycles():
    pol = ModifiedUCBPolicy(_inst(n_arms=2))
    for k in range(6):
        assert pol.t == k
        a = pol.select()
        pol.update(a, CENSORED)


def test_uniform_random_covers_pairs():
    inst = _inst(n_arms=2, points=(0.25, 0.5, 0.75, 1.0))
    pol = UniformRandomPolicy(inst, np.random.default_rng(4))
    counts = {}
    rounds = 4000
    for _ in range(rounds):
        a = pol.select()
        counts[(a.arm, a.tau_prime)] = counts.get((a.arm, a.tau_prime), 0) + 1
        pol.update(a, CENSORED)
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c / rounds - 0.125) < 0.021


def test_fixed_oracle_policy():
    inst = _inst(n_arms=2)
    pol = FixedOraclePolicy(inst, arm=2, tau_prime=0.25)
    for _ in range(5):
        a = pol.select()
        assert (a.arm, a.tau_prime) == (2, 0.25)
        pol.update(a, CENSORED)
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
    a = pol.select()
    pol.update(a, CENSORED)
    snap = pol.snapshot()
    assert len(snap) == 2 and {"arm", "tau", "n", "sum"} == set(snap[0])
    assert UniformRandomPolicy(inst, np.random.default_rng(0)).snapshot() == []
