import dataclasses
import math
import re

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
    admits,
    build_grid,
    cost_eval,
    discount_eval,
    mix64,
    objective_vectors,
)
from rcbandit.envs import DegenerateArm, GaussianArm, TraceArm, UniformCostArm, sample_episode
from rcbandit.estimators import BetaPosterior
from rcbandit.policies import PolicySpec


def test_linear_discount_boundaries():
    spec = DiscountSpec("linear")
    assert discount_eval(spec, 1.0, 0.0) == 1.0
    assert discount_eval(spec, 1.0, 0.3) == pytest.approx(0.7)
    assert discount_eval(spec, 1.0, 1.0) == 0.0


def test_geometric_discount_example():
    spec = DiscountSpec("geometric", rho=0.5)
    assert discount_eval(spec, 1.0, 1.0) == pytest.approx(1.0 / 1.5)
    assert discount_eval(spec, 1.0, 0.0) == 1.0


def test_polynomial_and_sublinear():
    poly = DiscountSpec("polynomial", k=2.0)
    assert discount_eval(poly, 1.0, 0.5) == pytest.approx(0.25)
    sub = DiscountSpec("sublinear", k=0.5)
    assert discount_eval(sub, 1.0, 0.75) == pytest.approx(0.5)


def test_exponential_discount_endpoints():
    spec = DiscountSpec("exponential", k=1.0)
    assert discount_eval(spec, 1.0, 0.0) == 1.0
    # value at tau_max is the continuous limit, exactly zero
    assert discount_eval(spec, 1.0, 1.0) == 0.0
    mid = discount_eval(spec, 1.0, 0.5)
    assert 0.0 < mid < 1.0


def _random_spec(rng):
    """A random discount and the cap it is evaluated under."""
    kind = rng.choice(["linear", "polynomial", "sublinear", "geometric", "exponential"])
    tau_max = float(rng.uniform(0.1, 5.0))
    if kind == "polynomial":
        return DiscountSpec(kind, k=float(rng.uniform(1.01, 6.0))), tau_max
    if kind == "sublinear":
        return DiscountSpec(kind, k=float(rng.uniform(0.05, 0.95))), tau_max
    if kind == "geometric":
        return DiscountSpec(kind, rho=float(rng.uniform(0.01, 0.99))), tau_max
    if kind == "exponential":
        return DiscountSpec(kind, k=float(rng.uniform(0.1, 4.0))), tau_max
    return DiscountSpec(kind), tau_max


def test_discount_monotone_and_bounded():
    rng = np.random.default_rng(20240901)
    for _ in range(1000):
        spec, tau_max = _random_spec(rng)
        a, b = np.sort(rng.uniform(0.0, tau_max, size=2))
        ga = discount_eval(spec, tau_max, float(a))
        gb = discount_eval(spec, tau_max, float(b))
        assert 0.0 <= gb <= ga <= 1.0
        assert discount_eval(spec, tau_max, 0.0) == pytest.approx(1.0)


def test_discount_eval_vectorized_matches_scalar():
    spec = DiscountSpec("geometric", rho=0.3)
    ts = np.linspace(0.0, 2.0, 7)
    vec = discount_eval(spec, 2.0, ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert v == pytest.approx(discount_eval(spec, 2.0, float(t)))


def test_discount_domain_errors():
    spec = DiscountSpec("linear")
    with pytest.raises(DomainError):
        discount_eval(spec, 1.0, -0.01)
    with pytest.raises(DomainError):
        discount_eval(spec, 1.0, 1.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="nope"),
        dict(kind="polynomial", k=1.0),
        dict(kind="sublinear", k=1.2),
        dict(kind="geometric", rho=0.0),
        dict(kind="geometric", rho=1.0),
        dict(kind="exponential", k=0.0),
        dict(kind="polynomial"),
        # an infinite k makes gamma 0 at every grid point, and every gap 0
        dict(kind="polynomial", k=math.inf),
        dict(kind="exponential", k=math.inf),
        dict(kind="polynomial", k=math.nan),
    ],
)
def test_discount_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        DiscountSpec(**kwargs)


@pytest.mark.parametrize("kind, params, field", [
    ("linear", dict(k=2.0), "k"),
    ("linear", dict(rho=0.5), "rho"),
    ("geometric", dict(k=5.0, rho=0.5), "k"),
    ("polynomial", dict(k=2.0, rho=0.5), "rho"),
    ("exponential", dict(k=1.0, rho=0.5), "rho"),
])
def test_discount_refuses_a_parameter_its_kind_does_not_read(kind, params, field):
    """A parameter the kind would ignore is refused by name, as a policy's is."""
    with pytest.raises(ConfigError, match=f"^{field}: {kind} has no such parameter$"):
        DiscountSpec(kind, **params)


# a valid build of each config type
_VALID = [
    (PolicySpec, dict(kind="rcucb")),
    (DiscountSpec, dict(kind="linear")),
    (AdditiveCost, {}),
    (ResourceGrid, dict(points=(0.5, 1.0))),
    (GaussianArm, dict(mean=(0.5, 0.5), x=0.2, sigma=0.1)),
    (DegenerateArm, dict(reward=0.5, cost=0.2)),
    (UniformCostArm, dict(reward_mean=0.5)),
    (TraceArm, dict(rewards=(0.5,), costs=(0.2,))),
]
# a kind that reads each policy and discount parameter
_READER = {"alpha": "rcucb", "c": "klrcucb", "prior": "ts", "k": "polynomial", "rho": "geometric"}
# the values that each real annotation refuses
_NOT_REAL = {
    "float": (True, "0.5"),
    "tuple[float, float]": (0.5, (0.5, 0.5, 0.5), (True, 1.0)),
    "tuple[float, ...]": ((True,),),
}


def _real_field_cases():
    """Each refused value of each real field, by its annotation, of each config
    type, set on a build that is valid otherwise."""
    for cls, valid in _VALID:
        for f in dataclasses.fields(cls):
            for value in _NOT_REAL.get(f.type.removesuffix(" | None"), ()):
                kwargs = dict(valid, **{f.name: value})
                if f.name in _READER:
                    kwargs["kind"] = _READER[f.name]
                yield pytest.param(cls, kwargs, f.name, id=f"{cls.__name__}-{f.name}={value!r}")
    yield pytest.param(
        BetaPosterior, dict(n=1, grid=build_grid(2, 1.0), rngs=[], prior=(True, 1.0),
                            indicator="per_pair"),
        "prior", id="BetaPosterior-prior=(True, 1.0)")


@pytest.mark.parametrize("cls, kwargs, field", _real_field_cases())
def test_a_real_field_refuses_what_is_not_a_number(cls, kwargs, field):
    """Every real field of every config type is checked by core.check_real, for a
    config and a Python caller alike: a bool, a string, a bare number where a
    pair belongs or a pair of the wrong length is refused, led by the field."""
    with pytest.raises(ConfigError, match=f"^{field}: expected "):
        cls(**kwargs)


def test_a_real_field_holds_an_int_as_a_float():
    """A Python int is held as the float that a JSON config gives."""
    arm = GaussianArm(mean=(1, 0), x=0, sigma=1)
    assert arm.mean == (1.0, 0.0)
    assert all(type(v) is float for v in (*arm.mean, arm.x, arm.sigma))
    assert type(PolicySpec("klrcucb", c=3).c) is float
    assert type(DiscountSpec("polynomial", k=2).k) is float


def test_build_grid_examples():
    g = build_grid(10, 1.0)
    assert g.m == 10
    np.testing.assert_allclose(g.as_array(), np.arange(1, 11) / 10.0)
    assert g.points[-1] == 1.0

    assert build_grid(1, 1.0).points == (1.0,)
    np.testing.assert_allclose(build_grid(4, 2.0).as_array(), [0.5, 1.0, 1.5, 2.0])


def test_build_grid_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 200))
        tau_max = float(rng.uniform(0.05, 10.0))
        g = build_grid(m, tau_max)
        arr = g.as_array()
        assert g.m == m == len(arr)
        assert np.all(np.diff(arr) > 0)
        assert arr[0] > 0
        assert g.points[-1] == tau_max


def test_build_grid_errors():
    with pytest.raises(DomainError):
        build_grid(0, 1.0)
    with pytest.raises(ConfigError):
        build_grid(5, 0.0)
    # an integral float, a bool or a numpy integer is not a grid size
    for m in (4.0, True, np.int64(4)):
        with pytest.raises(DomainError, match="^grid size m: expected an integer"):
            build_grid(m, 1.0)


@pytest.mark.parametrize("grid", [build_grid(10, 1.0), build_grid(7, 2.0),
                                  ResourceGrid((0.1, 0.15, 0.6), 1.0)])
def test_admits_agrees_with_first_admitting(grid):
    points = grid.as_array()
    rng = np.random.default_rng(grid.m)
    costs = [*rng.uniform(0.0, 1.2 * grid.tau_max, 200).tolist(), *grid.points,
             0.0, grid.tau_max * 1.5, math.inf, math.nan]
    for cost in costs:
        lo = grid.first_admitting(cost)
        assert 0 <= lo <= grid.m
        for j, tau in enumerate(grid.points):
            assert admits(cost, tau) == (lo <= j)
        # the array form gives the same answer for every limit at once
        np.testing.assert_array_equal(admits(cost, points), np.arange(grid.m) >= lo)
    # so does first_admitting over an array of costs
    np.testing.assert_array_equal(grid.first_admitting(np.array(costs)),
                                  [grid.first_admitting(c) for c in costs])
    # a cost equal to a limit is admitted by it, not by the one below
    for j, tau in enumerate(grid.points):
        assert grid.first_admitting(tau) == j
    assert grid.first_admitting(math.inf) == grid.m
    # a NaN cost is censored at every limit, as admits() has it
    assert grid.first_admitting(math.nan) == grid.m


def test_grid_validation():
    with pytest.raises(ConfigError):
        ResourceGrid(points=(0.5, 0.5), tau_max=1.0)
    with pytest.raises(ConfigError):
        ResourceGrid(points=(0.0, 0.5), tau_max=1.0)
    with pytest.raises(ConfigError):
        ResourceGrid(points=(0.5, 1.5), tau_max=1.0)
    with pytest.raises(ConfigError):
        ResourceGrid(points=(), tau_max=1.0)


@pytest.mark.parametrize("points, tau_max", [
    ((math.nan,), 1.0),
    ((0.25, math.nan, 0.75), 1.0),
    ((0.5, math.inf), math.inf),
    ((0.5,), math.nan),
    ((0.5,), math.inf),
])
def test_grid_rejects_non_finite(points, tau_max):
    # each ordering check is a comparison that NaN fails
    with pytest.raises(ConfigError, match="finite"):
        ResourceGrid(points=points, tau_max=tau_max)


@pytest.mark.parametrize("tau_max", [
    "2", True, 0.0, -1.0,
    # an infinite tau_max makes every discount value nan
    math.inf, math.nan,
])
def test_grid_and_build_grid_reject_a_bad_cap(tau_max):
    """The cap's one rule, checked before any limit is compared with it, and
    by the discount and the cost, which divide by the cap they are given."""
    message = f"^tau_max: expected a positive finite number, got {re.escape(repr(tau_max))}$"
    with pytest.raises(ConfigError, match=message):
        ResourceGrid((0.5,), tau_max)
    with pytest.raises(ConfigError, match=message):
        build_grid(3, tau_max)
    with pytest.raises(ConfigError, match=message):
        discount_eval(DiscountSpec("linear"), tau_max, 0.0)
    with pytest.raises(ConfigError, match=message):
        cost_eval(AdditiveCost(), tau_max, 0.0)


@pytest.mark.parametrize("points", [
    ("0.5",), (True,), (0.25, False), (None,), (0.5j,),
    # the type is checked before finiteness, which math.isfinite cannot take
    (math.nan, "0.75"),
])
def test_grid_rejects_points_that_are_not_real_numbers(points):
    # each case's last point is its first that is not a real number
    message = f"^points: expected a number, got {re.escape(repr(points[-1]))}$"
    with pytest.raises(ConfigError, match=message):
        ResourceGrid(points, 1.0)


def test_grid_takes_any_real_points():
    grid = ResourceGrid((1, np.float32(1.5), np.float64(2.0)), 2.0)
    assert grid.as_array().tolist() == [1.0, 1.5, 2.0]


def test_equal_grids_compare_equal_and_hash_alike():
    """The points are held as a tuple, whatever sequence built the grid."""
    grid = ResourceGrid([0.5, 1.0])
    assert grid == ResourceGrid((0.5, 1.0))
    assert hash(grid) == hash(ResourceGrid((0.5, 1.0)))
    assert grid.points == (0.5, 1.0)


def test_equal_instances_compare_equal_and_hash_alike():
    """The arms are held as a tuple, whatever sequence built the instance."""
    arm = DegenerateArm(reward=0.9, cost=0.2)
    grid, disc = build_grid(4, 1.0), DiscountSpec("linear")
    instance = InstanceSpec([arm], grid, disc)
    assert instance == InstanceSpec((arm,), grid, disc)
    assert hash(instance) == hash(InstanceSpec((arm,), grid, disc))
    assert instance.arms == (arm,)


def _objective_value(objective, discount, mu, j, grid):
    """nu of (mu, grid point j) by way of objective_vectors."""
    scale, offset = objective_vectors(objective, discount, grid)
    return scale[j] * mu + offset[j]


def test_objective_value_examples():
    disc = DiscountSpec("linear")
    grid = ResourceGrid((0.5, 0.7), 1.0)
    mult = MultiplicativeDiscount()
    assert _objective_value(mult, disc, 0.5, 0, grid) == pytest.approx(0.25)
    assert _objective_value(mult, disc, 0.0, 1, grid) == 0.0
    add = AdditiveCost(scale=0.5, power=1.0)
    assert _objective_value(add, disc, 0.5, 0, grid) == pytest.approx(0.25)


def test_objective_value_monotone_in_mu():
    rng = np.random.default_rng(11)
    disc = DiscountSpec("linear")
    grid = build_grid(5, 1.0)
    for obj in (MultiplicativeDiscount(), AdditiveCost(scale=0.3, power=2.0)):
        for _ in range(200):
            m1, m2 = np.sort(rng.uniform(0, 1, size=2))
            j = int(rng.integers(grid.m))
            assert _objective_value(obj, disc, m1, j, grid) <= _objective_value(
                obj, disc, m2, j, grid
            )


def test_objective_vectors_consistency():
    disc = DiscountSpec("linear")
    grid = build_grid(6, 1.0)
    rng = np.random.default_rng(3)
    for obj in (MultiplicativeDiscount(), AdditiveCost(scale=0.8, power=1.5)):
        scale, offset = objective_vectors(obj, disc, grid)
        assert scale.shape == offset.shape == (6,)
        for j, tau in enumerate(grid.points):
            mu = float(rng.uniform(0, 1))
            if isinstance(obj, MultiplicativeDiscount):
                want = discount_eval(disc, grid.tau_max, tau) * mu
            else:
                want = mu - cost_eval(obj, grid.tau_max, tau)
            assert scale[j] * mu + offset[j] == pytest.approx(want)


def test_additive_cost_eval_and_validation():
    add = AdditiveCost(scale=1.0, power=2.0)
    assert cost_eval(add, 2.0, 1.0) == pytest.approx(0.25)
    assert cost_eval(add, 2.0, 0.0) == 0.0
    with pytest.raises(ConfigError):
        AdditiveCost(scale=1.5)
    with pytest.raises(ConfigError):
        AdditiveCost(power=0.0)
    for power in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            AdditiveCost(power=power)


class _FixedDrawArm:
    """A user-defined arm that draws one fixed (reward, cost) pair."""

    def __init__(self, reward, cost):
        self.reward, self.cost = reward, cost

    def sample(self, rng, size):
        return np.full(size, self.reward), np.full(size, self.cost)


def test_sample_episode_rejects_bad_draws():
    """Draws outside the model are refused before any round runs, NaN costs
    too, although first_admitting() censors them at every limit as admits()
    does."""
    grid = build_grid(4, 1.0)
    disc = DiscountSpec("linear")
    rng = np.random.default_rng(0)

    def episode(*arms):
        return sample_episode(InstanceSpec(arms=arms, grid=grid, discount=disc), rng, 5)

    rewards, lo = episode(_FixedDrawArm(0.0, 0.0), _FixedDrawArm(1.0, 3.0))
    # cost 3.0 lies above every limit: lo = m = 4
    assert rewards[:, 1].tolist() == [1.0] * 5 and lo[:, 1].tolist() == [4] * 5
    assert grid.first_admitting(float("nan")) == grid.m
    for reward, cost in ((0.9, float("nan")), (1.5, 0.3), (-0.1, 0.3),
                         (float("nan"), 0.3), (0.5, -0.1)):
        with pytest.raises(DomainError, match=r"arm 2 \(_FixedDrawArm\)"):
            episode(_FixedDrawArm(0.5, 0.5), _FixedDrawArm(reward, cost))


def test_instance_spec_checks():
    grid = build_grid(4, 1.0)
    disc = DiscountSpec("linear")
    inst = InstanceSpec(arms=(object(),), grid=grid, discount=disc)
    assert inst.n == 1
    with pytest.raises(ConfigError):
        InstanceSpec(arms=(), grid=grid, discount=disc)


def test_mix64_is_stable_and_spreads():
    assert mix64(0) == mix64(0)
    assert mix64(1, 2, 3) != mix64(1, 3, 2)
    assert mix64(0) != mix64(1)
    vals = {mix64(i) for i in range(1000)}
    assert len(vals) == 1000
    assert all(0 <= v < 2**64 for v in vals)


def test_math_sanity_of_exponential_formula():
    # exp(1/tau^k - 1/(tau-t)^k) stays below 1 for t in (0, tau)
    spec = DiscountSpec("exponential", k=0.7)
    ts = np.linspace(1e-6, 2.0 - 1e-6, 50)
    vals = discount_eval(spec, 2.0, ts)
    # near tau_max the value may underflow to exactly 0, matching the limit
    assert np.all(vals < 1.0) and np.all(vals >= 0.0)
    assert np.all(vals[ts <= 1.0] > 0.0)
    assert math.isclose(discount_eval(spec, 2.0, 1e-12), 1.0, rel_tol=1e-6)
