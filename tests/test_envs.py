import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import gaussian_instance
from rcbandit.core import (
    ConfigError,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    SamplingError,
    admits,
    build_grid,
)
from rcbandit.envs import (
    DegenerateArm,
    GaussianArm,
    TraceArm,
    UniformCostArm,
    make_cov,
    sample_episode,
    trace_env_load,
)

# hand-evaluated 0.1 * 2 * 0.2 * sqrt(0.96)
COV_OFFDIAG_X02 = 0.03919183588453085


def test_make_cov_diagonal_at_x0():
    np.testing.assert_allclose(make_cov(0.0, 0.1), [[0.1, 0.0], [0.0, 0.1]])


def test_make_cov_offdiagonal_value():
    cov = make_cov(0.2, 0.1)
    assert cov[0, 1] == pytest.approx(COV_OFFDIAG_X02, abs=1e-15)
    assert cov[0, 1] == cov[1, 0]
    assert cov[0, 0] == cov[1, 1] == 0.1


def test_make_cov_singularity():
    with pytest.raises(DomainError):
        make_cov(1.0 / np.sqrt(2.0), 0.1)
    # x=1 gives zero correlation again, which is fine
    assert make_cov(1.0, 0.1)[0, 1] == 0.0


def test_make_cov_domain():
    with pytest.raises(DomainError):
        make_cov(-0.1, 0.1)
    with pytest.raises(DomainError):
        make_cov(1.1, 0.1)
    with pytest.raises(DomainError):
        make_cov(0.2, 0.0)


def test_truncated_support():
    arm = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
    r, c = arm.sample(np.random.default_rng(1), 100_000)
    assert np.all((r >= 0) & (r <= 1))
    assert np.all((c >= 0) & (c <= 1))


def test_truncated_vanishing_variance():
    arm = GaussianArm(mean=(0.5, 0.5), x=0.0, sigma=1e-8)
    r, c = arm.sample(np.random.default_rng(2), 1000)
    assert np.all(np.abs(r - 0.5) < 1e-3)
    assert np.all(np.abs(c - 0.5) < 1e-3)


def test_truncated_attempt_cap():
    # mean far outside the unit square: acceptance is essentially zero
    arm = GaussianArm(mean=(50.0, 50.0), x=0.0, sigma=1e-4)
    with pytest.raises(SamplingError):
        arm.sample(np.random.default_rng(3), 1)


def test_correlation_uncorrelated_arm():
    arm = GaussianArm(mean=(0.5, 0.5), x=0.0, sigma=0.1)
    r, c = arm.sample(np.random.default_rng(5), 1_000_000)
    corr = np.corrcoef(r, c)[0, 1]
    assert abs(corr) <= 3.5e-3


def test_correlation_positive_arm():
    arm = GaussianArm(mean=(0.5, 0.5), x=0.6, sigma=0.1)
    r, c = arm.sample(np.random.default_rng(6), 1_000_000)
    corr = np.corrcoef(r, c)[0, 1]
    assert corr > 0.5


def test_sampling_determinism():
    arm = GaussianArm(mean=(0.6, 0.45), x=0.3, sigma=0.1)
    r1, c1 = arm.sample(np.random.default_rng(42), 5000)
    r2, c2 = arm.sample(np.random.default_rng(42), 5000)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(c1, c2)


# sha256 of the costs of 5000 draws of arm 1 of the bundled instance
COST_DIGEST = (
    "import hashlib, numpy as np\n"
    "from rcbandit.envs import GaussianArm\n"
    "arm = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)\n"
    "digest = hashlib.sha256(arm.sample(np.random.default_rng(0), 5000)[1]).hexdigest()\n"
)


def test_sampler_bits_do_not_depend_on_the_blas_kernel():
    """The costs hash the same under OpenBLAS's SandyBridge kernel, which has
    no fused multiply-add, as in this process: the sampler rounds each product
    and sum on its own, so no BLAS kernel decides a bit."""
    here = {}
    exec(COST_DIGEST, here)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_CORETYPE="SandyBridge", PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", COST_DIGEST + "print(digest)"], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == here["digest"]


def test_gaussian_arm_cached_factor_keeps_identity_and_pickles():
    """The arm's cached Cholesky factor is not part of its value: after
    sampling it still equals and hashes as a fresh equal arm (nu_table shares
    rows by arm), and a pickled copy, as shipped to a worker, draws the same
    bits."""
    arm = GaussianArm(mean=(0.6, 0.45), x=0.3, sigma=0.1)
    first = arm.sample(np.random.default_rng(7), 500)
    fresh = GaussianArm(mean=(0.6, 0.45), x=0.3, sigma=0.1)
    assert arm == fresh
    assert hash(arm) == hash(fresh)
    assert {arm: 1}[fresh] == 1
    copy = pickle.loads(pickle.dumps(arm))
    assert copy == arm
    assert hash(copy) == hash(arm)
    for got, want in zip(copy.sample(np.random.default_rng(7), 500), first):
        assert got.tobytes() == want.tobytes()


def test_degenerate_instance_rounds():
    arms = (DegenerateArm(reward=1.0, cost=0.3), DegenerateArm(reward=1.0, cost=0.3))
    inst = InstanceSpec(arms=arms, grid=build_grid(2, 1.0),
                        discount=DiscountSpec("linear"))
    rewards, lo = sample_episode(inst, np.random.default_rng(0), 1)
    np.testing.assert_array_equal(rewards, [[1.0, 1.0]])
    # cost 0.3 is admitted by the first limit, 0.5
    np.testing.assert_array_equal(lo, [[0, 0]])


def test_sample_episode_deterministic_and_shaped():
    inst = gaussian_instance(10)
    r1, lo1 = sample_episode(inst, np.random.default_rng(9), 200)
    r2, lo2 = sample_episode(inst, np.random.default_rng(9), 200)
    assert r1.shape == lo1.shape == (200, 10)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(lo1, lo2)


def test_sample_episode_lo_is_first_admitting_of_the_arms_draws():
    inst = gaussian_instance(10)
    rewards, lo = sample_episode(inst, np.random.default_rng(9), 300)
    rng = np.random.default_rng(9)
    points = inst.grid.as_array()
    for i, arm in enumerate(inst.arms):
        r, c = arm.sample(rng, 300)
        np.testing.assert_array_equal(rewards[:, i], r)
        np.testing.assert_array_equal(lo[:, i], inst.grid.first_admitting(c))
        # limit j admits the cost iff lo <= j
        np.testing.assert_array_equal(admits(c[:, None], points),
                                      np.arange(inst.grid.m) >= lo[:, i, None])


@pytest.mark.parametrize("n, m, dtype", [
    (2, 10, np.uint8), (2, 255, np.uint8), (2, 256, np.uint16), (2, 300, np.uint16),
    (300, 10, np.uint16),
], ids=["10-uint8", "255-uint8", "256-uint16", "300-uint16", "300_arms-10-uint16"])
def test_sample_episode_lo_dtype_holds_m(n, m, dtype):
    """lo is in the instance's index type, which holds 0..max(n, m)."""
    arms = (DegenerateArm(reward=0.5, cost=0.3), DegenerateArm(reward=0.5, cost=2.0)) * (n // 2)
    inst = InstanceSpec(arms=arms, grid=build_grid(m, 1.0),
                        discount=DiscountSpec("linear"))
    _, lo = sample_episode(inst, np.random.default_rng(0), 3)
    assert lo.dtype == dtype == inst.index_dtype
    # a cost above every limit keeps the full value m
    np.testing.assert_array_equal(lo[:, 1], [m] * 3)
    assert (lo[:, 0] == inst.grid.first_admitting(0.3)).all()


def test_sample_episode_holds_no_cost_matrix():
    """Peak traced memory stays below 12 B per (round, arm): 8 B of reward and
    1 B of lo, plus one arm's draws at a time. Float costs beside the rewards
    would take 16 B."""
    base = gaussian_instance(10)
    inst = InstanceSpec(arms=base.arms * 5, grid=base.grid, discount=base.discount)
    horizon = 20_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        episode = sample_episode(inst, np.random.default_rng(0), horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del episode
    assert peak / (horizon * inst.n) < 12.0


def test_gaussian_sample_holds_row_blocks():
    """Peak traced memory of 50 000 truncated draws stays below 24 B per draw:
    16 B of reward and cost, plus row-block buffers. One (2 x size, 2) normal
    block and its product would add 64 B per draw."""
    arm = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
    size = 50_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        draws = arm.sample(np.random.default_rng(0), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del draws
    assert peak / size < 24.0


@pytest.mark.parametrize("make", [
    lambda: DegenerateArm(reward=0.5, cost=float("nan")),
    lambda: DegenerateArm(reward=0.5, cost=-0.1),
    lambda: GaussianArm(mean=(float("nan"), 0.5), x=0.2, sigma=0.1),
    lambda: GaussianArm(mean=(0.5, float("inf")), x=0.2, sigma=0.1),
    lambda: GaussianArm(mean=(0.5, 0.5), x=0.2, sigma=float("inf")),
], ids=["degenerate-nan-cost", "degenerate-negative-cost", "gaussian-nan-mean",
        "gaussian-inf-mean", "gaussian-inf-sigma"])
def test_arms_reject_non_finite_inputs(make):
    with pytest.raises((ConfigError, DomainError)):
        make()


def test_uniform_cost_arm():
    arm = UniformCostArm(reward_mean=0.6)
    r, c = arm.sample(np.random.default_rng(1), 10000)
    assert np.all(r == 0.6)
    assert np.all((c >= 0) & (c <= 1))
    assert arm.mixed_moment(0.25) == pytest.approx(0.15)


def test_trace_arm_sample_mode():
    arm = TraceArm(rewards=(0.1, 0.9), costs=(0.5, 0.6))
    r1, _ = arm.sample(np.random.default_rng(3), 1000)
    r2, _ = arm.sample(np.random.default_rng(3), 1000)
    np.testing.assert_array_equal(r1, r2)
    assert set(np.unique(r1)) <= {0.1, 0.9}


def test_trace_arm_mixed_moment():
    arm = TraceArm(rewards=(1.0, 0.5, 0.0), costs=(0.1, 0.9, 0.2))
    assert arm.mixed_moment(0.5) == pytest.approx(1.0 / 3.0)
    assert arm.mixed_moment(1.0) == pytest.approx(0.5)


def test_trace_arm_validation():
    with pytest.raises(ConfigError):
        TraceArm(rewards=(), costs=())
    with pytest.raises(ConfigError):
        TraceArm(rewards=(1.2,), costs=(0.5,))
    with pytest.raises(ConfigError):
        TraceArm(rewards=(0.5,), costs=(-0.1,))
    with pytest.raises(ConfigError):
        TraceArm(rewards=(0.5, 0.5), costs=(0.1, float("nan")))


def _write(tmp_path, text):
    p = tmp_path / "trace.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_trace_env_load_roundtrip(tmp_path):
    p = _write(tmp_path, "arm,reward,cost\n1,0.1,0.5\n1,0.2,0.6\n2,0.9,0.1\n")
    arms = trace_env_load(p)
    assert len(arms) == 2
    assert arms[0].rewards == (0.1, 0.2)
    assert arms[1].costs == (0.1,)


def test_trace_env_load_reward_range(tmp_path):
    # an out-of-range reward, and a cost no limit can be compared with
    for row in ("1,1.2,0.6", "1,0.2,nan", "1,0.2,-0.1"):
        p = _write(tmp_path, f"arm,reward,cost\n1,0.1,0.5\n{row}\n")
        with pytest.raises(ConfigError, match=":3:"):
            trace_env_load(p)


def test_trace_env_load_missing_arm(tmp_path):
    p = _write(tmp_path, "arm,reward,cost\n1,0.1,0.5\n3,0.2,0.6\n")
    with pytest.raises(ConfigError, match="arm 2"):
        trace_env_load(p)


def test_trace_env_load_malformed(tmp_path):
    with pytest.raises(ConfigError, match="header"):
        trace_env_load(_write(tmp_path, "arm,reward\n1,0.5\n"))
    with pytest.raises(ConfigError, match=":2:"):
        trace_env_load(_write(tmp_path, "arm,reward,cost\n1,0.5\n"))
    with pytest.raises(ConfigError, match=":2:"):
        trace_env_load(_write(tmp_path, "arm,reward,cost\nx,0.5,0.5\n"))
    with pytest.raises(ConfigError, match="no data rows"):
        trace_env_load(_write(tmp_path, "arm,reward,cost\n"))
