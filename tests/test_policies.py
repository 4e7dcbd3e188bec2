import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from rcbandit import policies
from rcbandit.cli import load_config
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
    mix64,
    objective_vectors,
)
from rcbandit.envs import DegenerateArm
from rcbandit.oracle import nu_table
from rcbandit.policies import (
    FixedOraclePolicy,
    KLRCUCBPolicy,
    ModifiedTSPolicy,
    ModifiedUCBPolicy,
    PolicySpec,
    RCUCBPolicy,
    UniformRandomPolicy,
    _exploration_budget,
    init_length,
    make_policy,
)
from rcbandit.sim import run_episode

from conftest import build_policy, gaussian_instance, mean_matrix, select1, update1

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
    scalar reference for the matrix index.
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise DomainError("p and q must lie in [0, 1]")
    total = 0.0
    for w, v in ((p, q), (1.0 - p, 1.0 - q)):
        if w > 0.0:
            total += w * math.log(w / v) if v > 0.0 else math.inf
    return total


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
    arms = tuple(DegenerateArm(reward=0.5, cost=0.1) for _ in range(n_arms))
    return InstanceSpec(
        arms=arms,
        grid=ResourceGrid(points=points, tau_max=tau_max),
        discount=DiscountSpec("linear"),
        objective=objective,
    )


def _inject(policy, counts, mu, t):
    est = policy.estimator
    est.counts[:] = counts
    est.sums[:] = est.counts * mu
    policy.t = t - 1  # so the upcoming round is t


def test_rcucb_initialization_order():
    inst = _inst(n_arms=3)
    pol = build_policy("rcucb", inst)
    seen = []
    for _ in range(3):
        seen.append(select1(pol))
        update1(pol, *CENSORED)
    assert seen == [(0, 1), (1, 1), (2, 1)]
    # every cell was fed by the maximal-limit plays
    assert np.all(pol.estimator.counts >= 1)


def test_rcucb_index_values():
    pol = build_policy("rcucb", _inst(), alpha=2.0)
    _inject(pol, counts=4.0, mu=0.9, t=10)
    idx = pol.index_matrix()[0]
    assert idx[0, 0] == pytest.approx(RCUCB_IDX_A, abs=1e-12)
    assert idx[0, 1] == pytest.approx(RCUCB_IDX_B, abs=1e-12)
    assert select1(pol) == (0, 0)


def test_rcucb_unplayed_pair_raises():
    # the initialization gives every pair a count; an index without one is misuse
    pol = build_policy("rcucb", _inst(n_arms=2))
    _inject(pol, counts=4.0, mu=0.9, t=10)
    pol.estimator.counts[1, 1] = 0.0
    with pytest.raises(UsageError, match="N >= 1"):
        pol.index_matrix()
    with pytest.raises(UsageError, match="N >= 1"):
        select1(pol)


def test_rcucb_tie_break_smallest_tau_then_arm():
    # a zero-scale additive objective makes every pair's index identical
    inst = _inst(n_arms=2, objective=AdditiveCost(scale=0.0))
    pol = build_policy("rcucb", inst)
    _inject(pol, counts=4.0, mu=0.5, t=10)
    assert select1(pol) == (0, 0)


def test_argmax_pair_scan_order_and_scale_invariance():
    m = np.array([[1.0, 3.0], [3.0, 2.0]])  # tie between (1, tau2) and (2, tau1)
    assert argmax_pair(m) == (1, 0)  # smaller tau' wins
    rng = np.random.default_rng(0)
    for _ in range(200):
        mat = rng.integers(0, 4, size=(5, 4)).astype(float)
        assert argmax_pair(mat) == argmax_pair(3.7 * mat)
        assert argmax_pair(mat) == argmax_pair(0.01 * mat)


# the two objective maps every index is checked under
OBJECTIVES = [MultiplicativeDiscount(), AdditiveCost(scale=0.5, power=2.0)]


def _vectors(inst):
    """The (m,) objective vectors, which the policies hold tiled to the block."""
    return objective_vectors(inst.objective, inst.discount, inst.grid)


def _reference_index(pol, inst, r):
    """Repetition r's index, the general expression written out as before the
    fast path existed, on the (m,) objective vectors."""
    t = pol.t + 1
    rows = slice(r * pol.n, (r + 1) * pol.n)
    counts = pol.estimator.counts[rows]
    mu = np.where(counts > 0, pol.estimator.sums[rows] / np.maximum(counts, 1.0), 0.0)
    scale, offset = _vectors(inst)
    with np.errstate(divide="ignore", invalid="ignore"):
        if pol.kind == "rcucb":
            radius = np.sqrt(2.0 * pol.spec.alpha * math.log(t) / counts)
        else:
            radius = np.sqrt(pol.spec.alpha * math.log(t) / (2.0 * counts))
        vals = scale * (mu + radius) + offset
    return np.where(counts > 0, vals, np.inf)


@pytest.mark.parametrize("cls", [RCUCBPolicy, ModifiedUCBPolicy])
@pytest.mark.parametrize("m", [10, 100])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_index_fast_path_is_bit_identical(cls, m, objective):
    # a single repetition and a block of 3, each checked per repetition
    for reps in (1, 3):
        _check_index_fast_path(cls, m, objective, reps)


def _check_index_fast_path(cls, m, objective, reps):
    inst = dataclasses.replace(gaussian_instance(m), objective=objective)
    pol = build_policy(cls.kind, inst, reps=reps, alpha=1.5 if cls is RCUCBPolicy else 2.5)
    est = pol.estimator
    rng = np.random.default_rng(m)
    for trial in range(25):
        est.counts[:] = rng.integers(1, 10**4, size=est.counts.shape)
        est.sums[:] = est.counts * rng.random(est.counts.shape)
        pol.t = int(rng.integers(inst.n * m, 10**6))
        if trial % 5 == 4:
            # one unplayed cell, which the index refuses
            cell = (int(rng.integers(reps * inst.n)), int(rng.integers(m)))
            est.counts[cell] = 0.0
            est.sums[cell] = 0.0
            with pytest.raises(UsageError):
                pol.index_matrix()
            continue
        block = pol.index_matrix()
        assert block.shape == (reps, inst.n, m)
        for r, idx in enumerate(block):
            assert np.array_equal(idx, _reference_index(pol, inst, r))
        assert np.isfinite(block).all()


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("reps", [1, 3])
def test_ts_index_is_bit_identical(objective, reps, monkeypatch):
    """The block ts hands argmax_pair is each repetition's theta * scale + offset
    on the (m,) objective vectors, with theta drawn from twin Generators."""
    inst = dataclasses.replace(gaussian_instance(10), objective=objective)
    scale, offset = _vectors(inst)
    blocks = []

    def recorded(block):
        blocks.append(block.copy())
        return argmax_pair(block)

    monkeypatch.setattr(policies, "argmax_pair", recorded)
    rng = np.random.default_rng(reps)
    for trial in range(5):
        seeds = [mix64(trial, r) for r in range(reps)]
        pol = build_policy("ts", inst, rngs=[np.random.default_rng(s) for s in seeds])
        est = pol.estimator
        est.sums[:] = rng.integers(0, 50, size=est.sums.shape)
        est.counts[:] = est.sums + rng.integers(0, 50, size=est.counts.shape)
        pol.t = init_length("ts", inst)
        pol.select()
        a, b = est.posterior_params()
        for r, seed in enumerate(seeds):
            rows = slice(r * inst.n, (r + 1) * inst.n)
            theta = np.random.default_rng(seed).beta(a[rows], b[rows])
            assert np.array_equal(blocks[-1][r], theta * scale + offset)
    assert len(blocks) == 5


def test_ucb_sweep_order():
    inst = _inst(n_arms=2, points=(0.5, 1.0))
    pol = build_policy("ucb", inst)
    seen = []
    for _ in range(4):
        seen.append(select1(pol))
        update1(pol, *CENSORED)
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_ucb_index_value():
    pol = build_policy("ucb", _inst(), alpha=2.0)
    _inject(pol, counts=4.0, mu=0.9, t=10)
    assert pol.index_matrix()[0][0, 0] == pytest.approx(UCB_IDX, abs=1e-12)


def test_ucb_tie_break():
    inst = _inst(n_arms=3, objective=AdditiveCost(scale=0.0))
    pol = build_policy("ucb", inst)
    _inject(pol, counts=2.0, mu=0.3, t=20)
    assert select1(pol) == (0, 0)


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
    pol = build_policy("klrcucb", inst)
    assert select1(pol) == (0, 0)
    update1(pol, *CENSORED)
    assert select1(pol) == (1, 0)
    update1(pol, *CENSORED)

    # equal statistics: tie-break to arm 1
    _inject(pol, counts=3.0, mu=0.4, t=10)
    assert select1(pol) == (0, 0)


def test_klrcucb_smaller_count_larger_index():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = build_policy("klrcucb", inst)
    _inject(pol, counts=5.0, mu=0.4, t=50)
    pol.estimator.counts[1, 0] = 2.0
    pol.estimator.sums[1, 0] = 0.8  # same mu_hat = 0.4, so mu_eff = 0.2 for both
    idx = pol.index_matrix()[0]
    assert idx[1, 0] == pytest.approx(klucb_index(0.2, 2, 50, 3.0), abs=1e-9)
    assert idx[0, 0] == pytest.approx(klucb_index(0.2, 5, 50, 3.0), abs=1e-9)
    assert idx[1, 0] > idx[0, 0] + 1e-6
    assert select1(pol) == (1, 0)


def _reference_klucb_matrix(mu_eff, counts, t, c, halvings=40):
    """A vectorized bisection of [mu_eff, 1], the reference for the Newton
    index; 40 halvings leave an interval at most 2**-40 wide."""
    target = _exploration_budget(t, c) / np.maximum(counts, 1.0)
    lo = mu_eff.copy()
    hi = np.ones_like(mu_eff)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(mu_eff > 0.0, mu_eff * np.log(mu_eff / mid), 0.0)
            right = np.where(mu_eff < 1.0,
                             (1.0 - mu_eff) * np.log((1.0 - mu_eff) / (1.0 - mid)), 0.0)
        too_far = left + right > target
        hi = np.where(too_far, mid, hi)
        lo = np.where(too_far, lo, mid)
    return np.where(counts > 0, 0.5 * (lo + hi), np.inf)


# the width of the bisection's last interval, and the Newton index's tolerance
BISECTION_WIDTH = 2.0**-40


def _assert_bisection_argmax(idx, ref):
    """idx has the bisection's argmax wherever the bisection resolves it.

    Cells whose reference lies within two widths of the reference maximum
    can order either way: each index is within a width of its reference.
    Such near-ties arise where many indices round to 1 within 2**-40, as with
    counts of 1 or 2; idx then picks one of them.
    """
    near = ref >= ref.max() - 2 * BISECTION_WIDTH
    if np.count_nonzero(near) == 1:
        assert argmax_pair(idx) == argmax_pair(ref)
    else:
        assert near[argmax_pair(idx)]


@pytest.mark.parametrize("m, blocks, objective", [
    pytest.param(m, blocks, objective, id=f"{m}{suffix}")
    for objective, suffix in zip(OBJECTIVES, ("", "-additive"))
    for m, blocks in ((10, (1, 3)), (100, (1, 3)), (50, (5,)))])
def test_klucb_index_matches_the_bisection(m, blocks, objective):
    # a single repetition, and blocks of 3 and 5 with their own counts and sums
    # at one t
    for reps in blocks:
        _check_klucb_index(m, reps, objective)


def test_klucb_index_of_a_played_block_matches_the_bisection(monkeypatch):
    """Every block-round of klrcucb on the bundled m = 100 instance, R = 3:
    per repetition the index has the bisection's argmax and lies within the
    bisection's width of it on every cell."""
    instance = load_config("paper_synthetic_m100").instance
    newton = policies._klucb_index_matrix
    rounds = []

    def checked(mu_eff, counts, t, c):
        block = newton(mu_eff, counts, t, c)
        for idx, mu, n in zip(block, mu_eff, counts):
            ref = _reference_klucb_matrix(mu, n, t, c)
            assert argmax_pair(idx) == argmax_pair(ref)
            assert np.all(np.isfinite(idx))
            assert np.all(np.abs(idx - ref) <= BISECTION_WIDTH)
        rounds.append(t)
        return block

    monkeypatch.setattr(policies, "_klucb_index_matrix", checked)
    horizon = init_length("klrcucb", instance) + 60
    run_episode(PolicySpec("klrcucb"), horizon, nu_table(instance),
                [mix64(7, rep) for rep in range(3)])
    assert len(rounds) == 60


def _check_klucb_index(m, reps, objective):
    inst = dataclasses.replace(gaussian_instance(m), objective=objective)
    pol = build_policy("klrcucb", inst, reps=reps)
    est = pol.estimator
    n = pol.n
    rows = [slice(r * n, (r + 1) * n) for r in range(reps)]
    scale, offset = _vectors(inst)

    def mu_eff():
        return np.clip(scale * mean_matrix(est) + offset, 0.0, 1.0)

    def reference(r):
        return _reference_klucb_matrix(mu_eff()[rows[r]], est.counts[rows[r]],
                                       pol.t + 1, pol.spec.c)

    rng = np.random.default_rng(100 + m)
    covered = set()
    for trial in range(40):
        case = trial % (8 if reps > 1 else 6)
        # small counts, as early in an episode, leave many cells near 1
        est.counts[:] = rng.integers(1, 3 if case == 5 else 60, size=est.counts.shape)
        est.sums[:] = est.counts * rng.random(est.counts.shape)
        pol.t = 1 if case == 4 else int(rng.integers(n, 2000))  # t = 2: budget 0
        if case == 1:
            est.counts[rng.integers(reps * n), rng.integers(m)] = 0.0
        elif case == 2:
            # mu_hat above 1 / gamma(tau') clips mu_eff to exactly 1
            i = rng.integers(reps * n)
            est.sums[i, 0] = 2.0 * est.counts[i, 0]
        elif case == 6:
            # the last repetition's maximum lies far below the others': its
            # argmax is still its own
            low = rows[-1]
            est.counts[low] = 5000.0
            est.sums[low] = est.counts[low] * 0.05 * rng.random((n, m))
        elif case == 7:
            # the first repetition's statistics copied into the last
            est.counts[rows[-1]] = est.counts[rows[0]]
            est.sums[rows[-1]] = est.sums[rows[0]]

        if case in (3, 7):
            # copy each repetition's top cell to another arm: the same (p, N)
            # gives an exact tie, in case 7 the same one in two repetitions
            ties = []
            for r in range(reps):
                a, j = argmax_pair(reference(r))
                other = (a + 1 + int(rng.integers(n - 1))) % n
                if case == 7 and r == reps - 1:
                    a, j, other = ties[0]
                est.counts[r * n + other, j] = est.counts[r * n + a, j]
                est.sums[r * n + other, j] = est.sums[r * n + a, j]
                ties.append((a, j, other))

        if case == 1:
            # an unplayed cell, which the index refuses
            with pytest.raises(UsageError):
                pol.index_matrix()
            continue
        block = pol.index_matrix()
        assert block.shape == (reps, n, m)
        refs = [reference(r) for r in range(reps)]
        for r, (idx, ref) in enumerate(zip(block, refs)):
            mu = mu_eff()[rows[r]]
            _assert_bisection_argmax(idx, ref)
            assert np.all(np.isfinite(idx))
            if case == 4:
                # the true index at budget 0 is mu_eff; the bisections drift
                # up to about 1e-8 above it, where d(p, mid) rounds to <= 0
                assert np.array_equal(idx, mu)
            else:
                assert np.all(np.abs(idx - ref) <= BISECTION_WIDTH)
                for i, j in np.ndindex(idx.shape):
                    scalar = klucb_index(float(mu[i, j]), int(est.counts[r * n + i, j]),
                                         pol.t + 1, pol.spec.c)
                    assert idx[i, j] == pytest.approx(scalar, abs=1e-9)
            if case in (3, 7):
                a, j, other = ties[r]
                assert idx[a, j] == idx[other, j]
                assert abs(idx[a, j] - ref.max()) <= BISECTION_WIDTH
        if case == 6:
            assert refs[-1].max() < max(ref.max() for ref in refs[:-1]) - 0.1
        if case == 7:
            assert np.array_equal(block[0], block[-1])
        covered.update(name for name, hit in (
            ("p = 0", np.any(mu_eff() == 0.0)),
            ("p = 1", np.any(mu_eff() == 1.0)),
            ("budget 0", case == 4),
        ) if hit)
    assert covered == {"p = 0", "p = 1", "budget 0"}


def test_klucb_index_over_its_domain():
    """2e4 cells: p uniform, log-spaced toward 0 and toward 1, and exactly 0
    and 1; N in [1, 1e6]; t with a zero, a small and two large budgets.
    Within the bisection's width of a 70-halving bisection, and exactly p
    where the budget is 0."""
    rng = np.random.default_rng(2011)
    k = 5000
    p = np.concatenate([rng.random(k), 10.0 ** -rng.uniform(1, 17, k),
                        1.0 - 10.0 ** -rng.uniform(1, 16, k),
                        np.repeat([0.0, 1.0], k // 2)])
    counts = np.floor(10.0 ** rng.uniform(0, 6, p.size))
    counts[:50] = 1.0
    counts[-50:] = 1e6
    for t in (2, 3, 400, 10**7):
        idx = policies._klucb_index_matrix(p, counts, t, 3.0)
        assert np.all(np.isfinite(idx))
        if _exploration_budget(t, 3.0) == 0.0:
            assert np.array_equal(idx, p)
            continue
        ref = _reference_klucb_matrix(p, counts, t, 3.0, halvings=70)
        assert np.all(np.abs(idx - ref) <= BISECTION_WIDTH)
        assert np.all(p <= idx) and np.all(idx <= 1.0)


@pytest.mark.parametrize("t", [3, 400, 10**7])
def test_klucb_index_exact_values(t):
    counts = np.array([1.0, 7.0, 1e6])
    target = _exploration_budget(t, 3.0) / counts
    # p = 0: d(0, q) = -log(1 - q), so the index is -expm1(-target)
    at_zero = policies._klucb_index_matrix(np.zeros(3), counts, t, 3.0)
    assert np.all(np.abs(at_zero - -np.expm1(-target)) <= np.spacing(at_zero))
    assert np.all(policies._klucb_index_matrix(np.ones(3), counts, t, 3.0) == 1.0)
    # one observation just below 1: the bound far above the root
    near_one = 1.0 - np.array([2.0**-53, 1e-12, 1e-4])
    idx = policies._klucb_index_matrix(near_one, np.ones(3), t, 3.0)
    assert np.all(np.isfinite(idx)) and np.all(idx <= 1.0)
    assert np.all(near_one <= idx)


def test_klrcucb_matches_scalar_index():
    inst = _inst(n_arms=1, points=(0.5,))
    pol = build_policy("klrcucb", inst, c=0.0)
    _inject(pol, counts=10.0, mu=1.0, t=100)
    # mu_eff = gamma(0.5) * 1.0 = 0.5, N=10, t=100
    assert pol.index_matrix()[0][0, 0] == pytest.approx(KLUCB_IDX, abs=1e-6)


def test_ts_single_pair_always_selected():
    inst = _inst(n_arms=1, points=(0.5,))
    pol = build_policy("ts", inst)
    for _ in range(10):
        assert select1(pol) == (0, 0)
        update1(pol, *CENSORED)


def test_ts_zero_discount_pair_never_selected():
    inst = _inst(n_arms=1, points=(0.5, 1.0))  # linear discount: gamma(1.0) = 0
    pol = build_policy("ts", inst, rngs=[np.random.default_rng(1)])
    limits = []
    for t in range(200):
        _, j = select1(pol)
        if t >= 2:  # past the sweep
            limits.append(j)
        update1(pol, inst.grid.first_admitting(0.1), 1.0)  # cost 0.1, reward 1
    assert set(limits) == {0}  # the limit 0.5


def test_ts_posterior_concentration():
    inst = _inst(n_arms=2, points=(0.5,))
    pol = build_policy("ts", inst, rngs=[np.random.default_rng(2)])
    pol.t = 2  # past the sweep
    pol.estimator.sums[0, 0] = pol.estimator.counts[0, 0] = 1_000_000
    pol.estimator.counts[1, 0] = 1_000_000  # all failures
    wins = 0
    rounds = 10_000
    for _ in range(rounds):
        arm0, _ = select1(pol)
        wins += arm0 == 0
        update1(pol, *CENSORED)
    assert wins / rounds >= 0.999


def test_ts_sweep_matches_ucb_sweep():
    inst = _inst(n_arms=2, points=(0.5, 1.0))
    pol = build_policy("ts", inst, rngs=[np.random.default_rng(3)])
    seen = []
    for _ in range(4):
        seen.append(select1(pol))
        update1(pol, *CENSORED)
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_alternation_enforced():
    pol = build_policy("rcucb", _inst())
    with pytest.raises(UsageError):
        update1(pol, *CENSORED)
    select1(pol)
    with pytest.raises(UsageError):
        select1(pol)
    update1(pol, *CENSORED)
    assert pol.t == 1
    with pytest.raises(UsageError):
        update1(pol, *CENSORED)
    assert pol.t == 1


def test_t_counts_cycles():
    pol = build_policy("ucb", _inst(n_arms=2))
    for k in range(6):
        assert pol.t == k
        select1(pol)
        update1(pol, *CENSORED)


def test_uniform_random_covers_pairs():
    inst = _inst(n_arms=2, points=(0.25, 0.5, 0.75, 1.0))
    pol = build_policy("uniform_random", inst, rngs=[np.random.default_rng(4)])
    counts = {}
    rounds = 4000
    for _ in range(rounds):
        pair = select1(pol)
        counts[pair] = counts.get(pair, 0) + 1
        update1(pol, *CENSORED)
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c / rounds - 0.125) < 0.021


def test_fixed_oracle_policy():
    inst = _inst(n_arms=2)
    pol = build_policy("fixed_oracle", inst, pair=(1, 0))
    for _ in range(5):
        assert select1(pol) == (1, 0)
        update1(pol, *CENSORED)
    with pytest.raises(ConfigError):
        build_policy("fixed_oracle", inst, pair=(inst.n, 0))
    with pytest.raises(ConfigError):
        build_policy("fixed_oracle", inst, pair=(1, inst.grid.m))


def test_policy_spec_validation_and_warning():
    with pytest.raises(ConfigError):
        PolicySpec(kind="nope")
    with pytest.raises(ConfigError):
        PolicySpec(kind="rcucb", alpha=0.0)
    with pytest.raises(ConfigError):
        PolicySpec(kind="ts", prior=(0.0, 1.0))
    # BetaPosterior reads two values: one would fail there, a third be ignored
    for prior in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ConfigError, match="prior"):
            PolicySpec(kind="ts", prior=prior)
    with pytest.raises(ConfigError):
        PolicySpec(kind="ts", indicator="sometimes")
    # a parameter its kind does not read is refused by name, not ignored
    for field, spec in (("c", dict(kind="rcucb", c=5.0)),
                        ("alpha", dict(kind="klrcucb", alpha=3.0)),
                        ("prior", dict(kind="ucb", prior=(2.0, 3.0))),
                        ("indicator", dict(kind="uniform_random", indicator="chosen_limit"))):
        with pytest.raises(ConfigError, match=f"^{field}: {spec['kind']} has no such"):
            PolicySpec(**spec)
    # one set at its default is no mistake, whatever sequence holds a prior
    PolicySpec(kind="ucb", c=3, prior=np.array([1.0, 1.0]), indicator="per_pair")
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


def test_equal_specs_compare_equal_and_hash_alike():
    """A prior is held as a tuple of floats, whatever sequence set it; one that
    the kind does not read is held as the default."""
    spec = PolicySpec("ts", prior=[2.0, 3.0])
    assert spec == PolicySpec("ts", prior=(2.0, 3.0))
    assert hash(spec) == hash(PolicySpec("ts", prior=(2.0, 3.0)))
    assert spec.prior == (2.0, 3.0)
    assert PolicySpec("ts", prior=np.array([2, 3])) == spec
    unread = PolicySpec("ucb", prior=np.array([1.0, 1.0]))
    assert unread == PolicySpec("ucb")
    assert hash(unread) == hash(PolicySpec("ucb"))


def test_policies_hold_the_spec_defaults():
    """Each kind, built by make_policy from a spec that sets every parameter
    its class reads away from the default, runs with that spec; no policy
    class has a parameter default of its own."""
    inst = _inst(n_arms=2)
    changed = {"alpha": 3.0, "c": 1.0, "prior": (2.0, 3.0), "indicator": "chosen_limit"}
    rngs = [np.random.default_rng(0)]
    for kind, cls in policies.POLICY_CLASSES.items():
        spec = PolicySpec(kind, **{field: changed[field] for field in cls.reads})
        pol = make_policy(spec, inst, rngs, (0, 0))
        assert type(pol) is cls and pol.spec is spec
        if kind == "ts":
            assert pol.estimator.prior == spec.prior
            assert pol.estimator.indicator == spec.indicator
        if hasattr(pol, "index_matrix"):
            # the index moves with the parameter the spec sets
            default = make_policy(PolicySpec(kind), inst, rngs, (0, 0))
            for built in (pol, default):
                _inject(built, counts=4.0, mu=0.3, t=10)
            assert not np.array_equal(pol.index_matrix(), default.index_matrix())
        params = inspect.signature(cls).parameters.values()
        assert all(param.default is param.empty for param in params), kind


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
    rngs = [np.random.default_rng(0)]
    for kind, cls in (("rcucb", RCUCBPolicy), ("klrcucb", KLRCUCBPolicy),
                      ("ucb", ModifiedUCBPolicy), ("ts", ModifiedTSPolicy),
                      ("uniform_random", UniformRandomPolicy),
                      ("fixed_oracle", FixedOraclePolicy)):
        assert type(make_policy(PolicySpec(kind), inst, rngs, (1, 0))) is cls
    assert select1(make_policy(PolicySpec("fixed_oracle"), inst, rngs, (1, 0))) == (1, 0)
    # a block of reps repetitions is one Generator each
    assert make_policy(PolicySpec("rcucb"), inst, rngs * 3, (1, 0)).reps == 3


def test_a_policy_class_refuses_another_kinds_spec():
    """Built directly, each class takes only a spec of its own kind; another
    kind's spec, whose parameters the class would not read, is refused with a
    message naming both kinds."""
    inst = _inst(n_arms=2)
    rngs = [np.random.default_rng(0)]
    for kind, cls in policies.POLICY_CLASSES.items():
        pair = (1, 0) if cls is FixedOraclePolicy else ()
        assert cls(inst, PolicySpec(kind), rngs, *pair).spec.kind == kind
        for other in policies.POLICY_CLASSES:
            if other != kind:
                message = f"{cls.__name__} plays kind {kind}, but the spec is of kind {other}$"
                with pytest.raises(ConfigError, match=message):
                    cls(inst, PolicySpec(other), rngs, *pair)


def test_snapshot_shapes():
    inst = _inst(n_arms=1)
    pol = build_policy("rcucb", inst)
    select1(pol)
    update1(pol, *CENSORED)
    snap = pol.snapshot()
    assert len(snap) == 2 and {"arm", "tau", "n", "sum"} == set(snap[0])
    assert build_policy("uniform_random", inst).snapshot() == []
