"""Golden pins: committed sha256 digests of what each policy kind plays.

A pin hashes the (arm, limit, censored) sequence of an episode: the 1-based
arms as int64 and the limits as float64, the bytes these digests were taken
on. A state pin hashes the estimator state each repetition ends with, in the
form state_<label>.json is written. The byte identity test in the acceptance
module compares two runs of the same checkout, so it cannot catch a refactor
that changes behaviour; these constants can. A change that means to alter
behaviour updates them and says why; a performance change leaves them as
they are.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from rcbandit.cli import config_from_dict, load_config
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

# the estimator state each repetition ends with, as json.dumps(state, indent=1),
# of every estimator kind on BYTE_IDENTITY_CONFIG, all repetitions hashed in
# order; "ts-chosen_limit" is the config's ts under the other indicator
STATE_PINS = {
    "rcucb": "fedd682d9165684fea8d2fd8ed8efc71e4ba1460bcb2a8144a0592ca66e2ba3e",
    "klrcucb": "e3037ce77beb5fba6fd72a479dce78881a3ba58f025f7082a891711bd875ffb7",
    "ucb": "c655afa8354cad94b79dad83d7f14ef133defec56622b54efad04782a24933c3",
    "ts": "8f88300eca07cc136c85c9a8291ab6d028fc42f583ee30b8df7600b771aba408",
    "ts-chosen_limit": "de82a2795f10f287afb5e260860c06a7ab55ada73805d4d50a740f371dfd0776",
}

# one episode per kind on the m = 10 Gaussian instance: (horizon, digest);
# the klrcucb index runs Newton steps over every pair each round, at many times
# the per-round cost of the other kinds, so its episode is shorter
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

# klrcucb on the bundled m = 100 instance, where many cells of the KL index
# saturate near 1 and the argmax depends on the last bits of the index;
# GAUSSIAN_SEED is played as the middle repetition of a block of 3
M100_KL_PIN = (400, "6e83936c33ef05c2cd846f7481b933ba6c1a6a146bd7b7e984927fa9e21d2acc")

# the mu, nu and gap bytes of the oracle table of each bundled config
TABLE_PINS = {
    "paper_synthetic_m10":
        "ccb83f34e092e41ba92fdb4d1a6d4fbb33a901db67ec5ae975192ba716badd25",
    "paper_synthetic_m100":
        "306091ebf341b8b67dfd02832b136f461e8baea733d1e40d9f22f67211934a28",
}

# the bytes of nu_table.json, as NuTable.save writes it, for each bundled config
TABLE_FILE_PINS = {
    "paper_synthetic_m10":
        "2bbdbbbabe78f9cf04c96e65b59d966483f6f8551b345785a970320f6b82dcf7",
    "paper_synthetic_m50":
        "b5f12f9e32a85145c7a8eff1466a52e4444d797cf3eb481fe661d4c407380200",
    "paper_synthetic_m100":
        "ccce1fc8cec6001f3e1324347e1d5e59b9b9988f46fd2bfd5ef948b801dbc167",
}


def _update(h, trace, instance) -> None:
    h.update(np.add(trace.arm0, 1, dtype=np.int64).tobytes())
    h.update(instance.grid.as_array()[trace.tau_idx].tobytes())
    h.update(np.ascontiguousarray(trace.censored, dtype=np.bool_).tobytes())


@pytest.fixture(scope="module")
def small_setup():
    config = config_from_dict(BYTE_IDENTITY_CONFIG)
    return config, config.table()


@pytest.fixture(scope="module")
def gaussian_setup():
    instance = gaussian_instance()
    return instance, nu_table(instance)


@pytest.mark.parametrize("kind", sorted(SMALL_PINS))
def test_small_config_pin(kind, small_setup):
    config, table = small_setup
    p = [spec.kind for spec in config.policies].index(kind)
    h = hashlib.sha256()
    # every repetition in one block, as run_experiment plays them
    seeds = [mix64(config.base_seed, p, rep) for rep in range(config.repetitions)]
    for trace in run_episode(config.policies[p], config.horizon, table, seeds):
        _update(h, trace, config.instance)
    assert h.hexdigest() == SMALL_PINS[kind]


@pytest.mark.parametrize("name", sorted(STATE_PINS))
def test_small_config_state_pin(name, small_setup):
    config, table = small_setup
    kind, _, indicator = name.partition("-")
    p = [spec.kind for spec in config.policies].index(kind)
    spec = config.policies[p]
    if indicator:
        spec = dataclasses.replace(spec, indicator=indicator)
    h = hashlib.sha256()
    seeds = [mix64(config.base_seed, p, rep) for rep in range(config.repetitions)]
    for trace in run_episode(spec, config.horizon, table, seeds, keep_state=True):
        h.update(json.dumps(trace.final_state, indent=1).encode())
    assert h.hexdigest() == STATE_PINS[name]


@pytest.mark.parametrize("kind", sorted(GAUSSIAN_PINS))
def test_gaussian_episode_pin(kind, gaussian_setup):
    instance, table = gaussian_setup
    horizon, digest = GAUSSIAN_PINS[kind]
    h = hashlib.sha256()
    (trace,) = run_episode(PolicySpec(kind), horizon, table, [GAUSSIAN_SEED])
    _update(h, trace, instance)
    assert h.hexdigest() == digest


def test_m100_klrcucb_pin():
    config = load_config("paper_synthetic_m100")
    horizon, digest = M100_KL_PIN
    h = hashlib.sha256()
    # one index call covers the block; each repetition takes its own argmax
    seeds = [GAUSSIAN_SEED + 1, GAUSSIAN_SEED, GAUSSIAN_SEED + 2]
    _, trace, _ = run_episode(PolicySpec("klrcucb"), horizon, config.table(), seeds)
    _update(h, trace, config.instance)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name", sorted(TABLE_PINS))
def test_bundled_table_pin(name):
    table = load_config(name).table()
    h = hashlib.sha256()
    for values in (table.mu, table.nu, table.gap):
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    assert h.hexdigest() == TABLE_PINS[name]


@pytest.mark.parametrize("name", sorted(TABLE_FILE_PINS))
def test_bundled_table_file_pin(name, tmp_path):
    load_config(name).table().save(tmp_path / "nu_table.json")
    digest = hashlib.sha256((tmp_path / "nu_table.json").read_bytes()).hexdigest()
    assert digest == TABLE_FILE_PINS[name]
