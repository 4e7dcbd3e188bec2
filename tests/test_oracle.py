"""Oracle values, nu tables, their JSON form, and bound evaluators."""

import json

import numpy as np
import pytest

from rcbandit.core import (
    AdditiveCost,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    ResourceGrid,
    build_grid,
    objective_vectors,
)
from rcbandit.envs import DegenerateArm, GaussianArm, TraceArm, UniformCostArm
from rcbandit.oracle import (
    MIN_NODES,
    MIN_SAMPLES,
    NuTable,
    concentration_bound,
    nu_table,
    regret_upper_bound,
    true_mixed_moments,
)

from conftest import analytic_instance, gaussian_instance, two_degenerate_instance

# Arm 1 of the synthetic instance: mean (0.6, 0.45), x = 0.2, sigma = 0.1.
# Quadrature reference values were produced by an independent implementation
# of the same tensor rule and agree with a 10^7-draw Monte Carlo run
# (seed 987654321) within one standard error at every point below.
ARM1 = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
ARM1_QUAD = {0.3: 0.14015062338367473, 0.5: 0.29824578401285035, 1.0: 0.5657993377151933}
ARM1_MC = {0.3: (0.140197, 8.09e-5), 0.5: (0.298318, 9.96e-5), 1.0: (0.565920, 7.49e-5)}

NU_STAR_SYNTH = 0.1513530340393473

BOUND_GAP01_T1000 = 561.5991147831261
CONC_T1000_A2 = 0.0018036620761802725


def test_quadrature_frozen_values():
    got = true_mixed_moments(ARM1, list(ARM1_QUAD))
    for value, want in zip(got, ARM1_QUAD.values()):
        assert value == pytest.approx(want, abs=1e-9)


def test_quadrature_agrees_with_frozen_monte_carlo():
    got = true_mixed_moments(ARM1, list(ARM1_MC))
    for value, (mc, se) in zip(got, ARM1_MC.values()):
        assert abs(value - mc) <= 4 * se


def test_quadrature_node_convergence():
    [coarse] = true_mixed_moments(ARM1, [0.5], nodes=64)
    [fine] = true_mixed_moments(ARM1, [0.5], nodes=200)
    assert coarse == pytest.approx(fine, abs=1e-12)


def _reference_density_integral(arm, c_hi, nodes, weight_reward):
    """Integral of [r *] pdf over [0,1] x [0, c_hi] for the untruncated
    Gaussian, written as the plain expression, before the quadrature built its
    reward-axis terms once per arm."""
    cov = arm.cov()
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv00 = cov[1, 1] / det
    inv01 = -cov[0, 1] / det
    inv11 = cov[0, 0] / det
    norm = 1.0 / (2.0 * np.pi * np.sqrt(det))
    x, w = np.polynomial.legendre.leggauss(nodes)
    rn, rw = 0.5 * x + 0.5, 0.5 * w
    cn, cw = 0.5 * c_hi * x + 0.5 * c_hi, 0.5 * c_hi * w
    dr = rn - arm.mean[0]
    dc = cn - arm.mean[1]
    quad = (inv00 * dr[:, None] ** 2 + 2.0 * inv01 * dr[:, None] * dc[None, :]
            + inv11 * dc[None, :] ** 2)
    pdf = norm * np.exp(-0.5 * quad)
    r_weight = rw * rn if weight_reward else rw
    return float(np.einsum("i,j,ij->", r_weight, cw, pdf))


@pytest.mark.parametrize("nodes", [32, 200])
def test_quadrature_keeps_the_plain_expression_bits(nodes):
    taus = [1e-3, 0.5, 1.0, 1.5]
    arms = [GaussianArm(mean=(0.6, 0.45), x=x, sigma=sigma)
            for x in (0.0, 0.3, 0.6) for sigma in (0.05, 0.1, 0.4)]
    arms.append(GaussianArm(mean=(1.3, -0.2), x=0.3, sigma=0.4))
    for arm in arms:
        z = _reference_density_integral(arm, 1.0, nodes, False)
        want = [_reference_density_integral(arm, min(tau, 1.0), nodes, True) / z
                for tau in taus]
        assert np.array_equal(true_mixed_moments(arm, taus, nodes=nodes), want), arm


def test_analytic_arms_are_exact_under_both_methods():
    inst = InstanceSpec(
        arms=(DegenerateArm(reward=0.8, cost=0.3), UniformCostArm(reward_mean=0.6)),
        grid=ResourceGrid((0.2, 0.25, 0.5), 1.0),
        discount=DiscountSpec("linear"),
    )
    for method in ("quadrature", "monte_carlo"):
        tab = nu_table(inst, method)
        assert tab.mu[0].tolist() == [0.0, 0.0, 0.8]
        assert tab.mu[1, 1] == 0.15
        assert np.all(tab.se == 0.0)


def test_budget_validation():
    with pytest.raises(DomainError, match=f"at least {MIN_NODES}"):
        true_mixed_moments(ARM1, [0.5], nodes=MIN_NODES - 1)
    inst = gaussian_instance()
    with pytest.raises(DomainError, match=f"at least {MIN_SAMPLES}"):
        nu_table(inst, "monte_carlo", samples=MIN_SAMPLES - 1)
    with pytest.raises(DomainError):
        nu_table(inst, "midpoint")
    # the rule holds whatever the arms, as for an ExperimentConfig: a closed-form
    # instance would spend no node, yet too few are refused
    with pytest.raises(DomainError, match=f"nodes: quadrature needs at least {MIN_NODES}"):
        nu_table(analytic_instance(), nodes=8)
    # a budget that is not an integer is refused by name, not by numpy
    with pytest.raises(DomainError, match="^nodes: expected an integer"):
        nu_table(inst, nodes=200.5)
    with pytest.raises(DomainError, match="^samples: expected an integer"):
        nu_table(inst, "monte_carlo", samples=True)
    with pytest.raises(DomainError, match="^nodes: expected an integer"):
        true_mixed_moments(ARM1, [0.5], nodes=64.0)


def test_degenerate_density_rejected():
    far = GaussianArm(mean=(50.0, 50.0), x=0.0, sigma=1e-4)
    with pytest.raises(DomainError, match="degenerate"):
        true_mixed_moments(far, [0.5])


def test_single_arm_table():
    inst = InstanceSpec(
        arms=(DegenerateArm(reward=1.0, cost=0.0),),
        grid=build_grid(2, 1.0),
        discount=DiscountSpec("linear"),
    )
    tab = nu_table(inst)
    assert tab.taus == (0.5, 1.0)
    assert tab.nu[0, 0] == 0.5
    assert tab.nu[0, 1] == 0.0
    assert (tab.optimal_arm, tab.optimal_tau) == (1, 0.5)
    assert tab.nu_star == 0.5
    assert tab.gap[0, 0] == 0.0
    assert tab.gap[0, 1] == 0.5


def test_two_degenerate_table():
    tab = nu_table(two_degenerate_instance())
    assert (tab.optimal_arm, tab.optimal_tau) == (1, 0.25)
    assert tab.nu_star == pytest.approx(0.675, abs=1e-15)
    want_gap = np.array([[0.0, 0.225, 0.45, 0.675], [0.675] * 4])
    assert np.allclose(tab.gap, want_gap, atol=1e-15)
    assert tab.min_positive_gap() == pytest.approx(0.225, abs=1e-15)


def test_analytic_instance_table():
    tab = nu_table(analytic_instance())
    # Degenerate(0.9, 0.2): mu = 0.9 from the first grid point on.
    assert np.allclose(tab.mu[0], [0.9, 0.9, 0.9, 0.9], atol=1e-15)
    # Degenerate(0.7, 0.45): cost clears tau' = 0.5 but not 0.25.
    assert np.allclose(tab.mu[1], [0.0, 0.7, 0.7, 0.7], atol=1e-15)
    # UniformCostArm(0.8): mu = 0.8 tau'.
    assert np.allclose(tab.mu[2], [0.2, 0.4, 0.6, 0.8], atol=1e-15)
    assert (tab.optimal_arm, tab.optimal_tau) == (1, 0.25)
    assert tab.nu_star == pytest.approx(0.675, abs=1e-15)
    assert np.all(tab.gap >= 0)


def test_synthetic_instance_optimum():
    tab = nu_table(gaussian_instance())
    assert (tab.optimal_arm, tab.optimal_tau) == (1, 0.6)
    assert tab.nu_star == pytest.approx(NU_STAR_SYNTH, abs=1e-9)
    assert float(tab.gap[tab.optimal_arm - 1, tab.taus.index(tab.optimal_tau)]) == 0.0
    # Mixed moments are nondecreasing in tau' and stay inside [0, 1].
    assert np.all(np.diff(tab.mu, axis=1) >= -1e-12)
    assert np.all(tab.mu >= -1e-12)
    assert np.all(tab.mu <= 1 + 1e-12)


def test_monte_carlo_table_is_seed_deterministic():
    inst = gaussian_instance()
    a = nu_table(inst, "monte_carlo", samples=20_000, seed=7)
    b = nu_table(inst, "monte_carlo", samples=20_000, seed=7)
    c = nu_table(inst, "monte_carlo", samples=20_000, seed=8)
    assert np.array_equal(a.mu, b.mu)
    assert not np.array_equal(a.mu, c.mu)
    # Shared draws per arm keep the estimates monotone in tau'.
    assert np.all(np.diff(a.mu, axis=1) >= 0)
    assert np.all(a.se > 0)


def _repeated_arms_instance() -> InstanceSpec:
    a = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
    b = GaussianArm(mean=(0.5, 0.5), x=0.6, sigma=0.1)
    d = DegenerateArm(reward=0.7, cost=0.45)
    return InstanceSpec(
        # equal by value, not only by identity
        arms=(a, b, GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1), d, b, a,
              DegenerateArm(reward=0.7, cost=0.45)),
        grid=build_grid(7, 1.0),
        discount=DiscountSpec("linear"),
    )


def test_table_of_repeated_arms_matches_per_cell_moments():
    inst = _repeated_arms_instance()
    tab = nu_table(inst, nodes=64)
    mu = np.array([[true_mixed_moments(arm, [tau], nodes=64)[0]
                    for tau in inst.grid.points] for arm in inst.arms])
    scale, offset = objective_vectors(inst.objective, inst.discount, inst.grid)
    nu = scale * mu + offset
    assert np.array_equal(tab.mu, mu)
    assert np.array_equal(tab.nu, nu)
    assert np.array_equal(tab.gap, nu.max() - nu)
    assert np.all(tab.se == 0.0)
    assert np.array_equal(tab.mu[0], tab.mu[2])
    assert np.array_equal(tab.mu[3], tab.mu[6])


def test_monte_carlo_rows_of_repeated_arms_differ():
    # each arm index draws from its own stream, so equal arms get their own rows
    tab = nu_table(_repeated_arms_instance(), "monte_carlo", samples=10_000, seed=3)
    for i, k in ((0, 2), (0, 5), (1, 4)):
        assert not np.array_equal(tab.mu[i], tab.mu[k])
        assert not np.array_equal(tab.se[i], tab.se[k])
    # closed-form arms are exact under either method
    assert np.array_equal(tab.mu[3], tab.mu[6])


def test_arms_built_from_lists_give_the_tuple_built_table():
    # nu_table keys its rows by the arm, which hashes only with tuple fields
    def instance(seq):
        arms = (GaussianArm(mean=seq((0.6, 0.45)), x=0.2, sigma=0.1),
                TraceArm(rewards=seq((0.5, 0.9)), costs=seq((0.2, 0.8))))
        return InstanceSpec(arms=arms, grid=build_grid(4, 1.0),
                            discount=DiscountSpec("linear"))

    assert instance(list).arms == instance(tuple).arms
    listed, tupled = nu_table(instance(list)), nu_table(instance(tuple))
    for name in ("mu", "nu", "gap"):
        assert getattr(listed, name).tobytes() == getattr(tupled, name).tobytes()


def test_monte_carlo_table_near_truth():
    inst = gaussian_instance()
    mc = nu_table(inst, "monte_carlo", samples=50_000, seed=11)
    quad = nu_table(inst)
    assert np.all(np.abs(mc.mu - quad.mu) <= 5 * mc.se + 1e-12)


def test_json_round_trip(tmp_path):
    tab = nu_table(analytic_instance())
    data = tab.to_dict()
    assert sorted(data) == ["method", "optimal", "pairs", "samples_or_nodes"]
    assert data["method"] == "quadrature"
    assert data["samples_or_nodes"] == 200
    assert len(data["pairs"]) == 12
    assert data["pairs"][0] == {
        "arm": 1, "tau": 0.25, "mu": 0.9, "se": 0.0,
        "nu": pytest.approx(0.675), "gap": 0.0,
    }
    assert data["optimal"] == {"arm": 1, "tau": 0.25, "nu_star": pytest.approx(0.675)}

    path = tmp_path / "nu_table.json"
    tab.save(path)
    assert json.loads(path.read_text(encoding="utf-8")) == tab.to_dict()


def _table_with_gaps(gaps):
    g = np.asarray(gaps, dtype=float)
    zeros = np.zeros_like(g)
    return NuTable(
        taus=tuple(range(1, g.shape[1] + 1)),
        mu=zeros, se=zeros, nu=-g, gap=g,
        optimal_arm=1, optimal_tau=1.0, nu_star=0.0,
        method="quadrature", budget=200,
    )


def test_regret_bound_frozen_value():
    tab = _table_with_gaps([[0.0, 0.1]])
    got = regret_upper_bound(tab, 1000, alpha=2.0)
    assert got == pytest.approx(BOUND_GAP01_T1000, rel=1e-12)
    assert abs(got - 561.598) <= 2e-3


def test_regret_bound_sums_pairs():
    one = regret_upper_bound(_table_with_gaps([[0.0, 0.1]]), 1000, 2.0)
    two = regret_upper_bound(_table_with_gaps([[0.0, 0.1, 0.1]]), 1000, 2.0)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_regret_bound_no_suboptimal_pairs():
    tab = _table_with_gaps([[0.0, 0.0]])
    assert regret_upper_bound(tab, 1000, 2.0) == 0.0


def test_regret_bound_increasing_in_horizon():
    tab = _table_with_gaps([[0.0, 0.3, 0.5]])
    ts = np.array([10.0, 100.0, 1000.0, 100000.0])
    vals = regret_upper_bound(tab, ts, 2.0)
    assert vals.shape == ts.shape
    assert np.all(np.diff(vals) > 0)
    assert vals[2] == pytest.approx(regret_upper_bound(tab, 1000, 2.0), rel=1e-15)


def test_regret_bound_validation():
    tab = _table_with_gaps([[0.0, 0.1]])
    for alpha in (1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="finite and exceed 1"):
            regret_upper_bound(tab, 1000, alpha=alpha)
    with pytest.raises(DomainError):
        regret_upper_bound(tab, 0, alpha=2.0)


def test_concentration_bound_validation():
    for alpha in (1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="finite and exceed 1"):
            concentration_bound(1000, alpha)
    with pytest.raises(DomainError):
        concentration_bound(1, 2.0)


def test_concentration_bound_frozen_value():
    assert concentration_bound(1000, 2.0) == pytest.approx(CONC_T1000_A2, rel=1e-12)


def test_concentration_bound_decreasing_in_t():
    ts = np.unique(np.geomspace(10, 1_000_000, 500).astype(int)).astype(float)
    vals = concentration_bound(ts, 2.0)
    assert np.all(np.diff(vals) < 0)


def test_concentration_bound_alpha_near_one_blows_up():
    assert concentration_bound(1000, 1.0 + 1e-6) > 1e3
    with pytest.raises(DomainError):
        concentration_bound(1000, 1.0)
    with pytest.raises(DomainError):
        concentration_bound(1, 2.0)


def test_additive_objective_table():
    inst = InstanceSpec(
        arms=(DegenerateArm(reward=0.9, cost=0.2), DegenerateArm(reward=0.7, cost=0.45)),
        grid=build_grid(4, 1.0),
        discount=DiscountSpec("linear"),
        objective=AdditiveCost(scale=0.5),
    )
    tab = nu_table(inst)
    # nu = mu - 0.5 tau'; arm 1 at tau' = 0.25 gives 0.9 - 0.125.
    assert tab.nu[0, 0] == pytest.approx(0.775, abs=1e-15)
    assert (tab.optimal_arm, tab.optimal_tau) == (1, 0.25)
