"""Golden pins: committed sha256 digests of what each policy kind plays.

A pin hashes the (arms, taus, censored) sequence of an episode. The byte
identity test in the acceptance module compares two runs of the same
checkout, so it cannot catch a refactor that changes behaviour; these
constants can. A change that means to alter behaviour updates them and says
why; a performance change leaves them as they are.
"""

import hashlib

import numpy as np
import pytest

from rcbandit.cli import config_from_dict
from rcbandit.core import mix64
from rcbandit.oracle import nu_table
from rcbandit.policies import PolicySpec
from rcbandit.sim import run_episode

from conftest import BYTE_IDENTITY_CONFIG, gaussian_instance

# every kind on BYTE_IDENTITY_CONFIG, all repetitions hashed in order
SMALL_PINS = {
    "rcucb": "dd2d92d0a17810be055a8efeb003682765bb67f469a6093d631e8402075d971a",
    "klrcucb": "4791f1bde427ce153fc909704f88ff6053dba30be0bfe77d5b5356caaed88d05",
    "ucb": "15e1574493c03983540d12a7620bbe15924032cc5b399733a4b1fdda2e473353",
    "ts": "5776da024464737b594af34e5913bd72fa6adb393dc2efc41e586cdd4c416906",
    "uniform_random": "565d03adc23fef1997ceeebea523dba3fdac33632356acf6542633d31809330b",
    "fixed_oracle": "60772ad1164c4469f6ef56d149b8a2e64b3f4ce8c39d8ef5b0d21ba59769a4e8",
}

# one episode per kind on the m = 10 Gaussian instance: (horizon, digest);
# klrcucb costs about 1 ms per round, so its episode is shorter
GAUSSIAN_SEED = 20201102
GAUSSIAN_PINS = {
    "rcucb": (50_000,
              "e6c023139200303a186c967e55cdcef4bc80cfa9a871cf077987bbc7cfb20ffb"),
    "ucb": (50_000,
            "a706ab0dd3757d3dac70966bbbc4a19f46273b97deb675a49e192996b6bff1ae"),
    "ts": (50_000,
           "a1bcb6f00ac12d124b6becee1fefb85713daf3425ab935c6b90b601b4a2d926f"),
    "uniform_random": (50_000,
                       "a62c1d791c716d768f3d26950aed37514dbf5c84a8426f620439f9cf13fc0099"),
    "klrcucb": (5_000,
                "3a904f07953c5ade968cf2c8e44db20dabd6ac73bbe5e55df283808e50fcaa63"),
}


def _update(h, trace) -> None:
    h.update(np.ascontiguousarray(trace.arms, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trace.taus, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(trace.censored, dtype=np.bool_).tobytes())


@pytest.fixture(scope="module")
def small_setup():
    config = config_from_dict(BYTE_IDENTITY_CONFIG)
    table = nu_table(config.instance, config.oracle_method,
                     nodes=config.oracle_nodes, samples=config.oracle_samples,
                     seed=config.base_seed)
    return config, table


@pytest.fixture(scope="module")
def gaussian_setup():
    instance = gaussian_instance()
    return instance, nu_table(instance)


@pytest.mark.parametrize("kind", sorted(SMALL_PINS))
def test_small_config_pin(kind, small_setup):
    config, table = small_setup
    p = [spec.kind for spec in config.policies].index(kind)
    h = hashlib.sha256()
    for rep in range(config.repetitions):
        _update(h, run_episode(config.instance, config.policies[p], config.horizon,
                               table, mix64(config.base_seed, p, rep)))
    assert h.hexdigest() == SMALL_PINS[kind]


@pytest.mark.parametrize("kind", sorted(GAUSSIAN_PINS))
def test_gaussian_episode_pin(kind, gaussian_setup):
    instance, table = gaussian_setup
    horizon, digest = GAUSSIAN_PINS[kind]
    h = hashlib.sha256()
    _update(h, run_episode(instance, PolicySpec(kind), horizon, table, GAUSSIAN_SEED))
    assert h.hexdigest() == digest
