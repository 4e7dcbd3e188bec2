"""README's Quickstart runs as written, and its Config schema gives a config
the reader takes, the library's defaults and each policy kind's parameters,
so none of them can drift from the package unnoticed."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import rcbandit
from rcbandit.cli import config_from_dict
from rcbandit.policies import POLICY_CLASSES

ROOT = Path(__file__).resolve().parent.parent


def test_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    seeds = re.search(r"seeds=\[([^\]]*)\]", code).group(1).split(",")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the optimum, then one line per seed: final regret and censored share
    optimum, *per_seed = done.stdout.splitlines()
    assert len(optimum.split()) == 3
    assert len(per_seed) == len(seeds)
    for line in per_seed:
        regret, share = map(float, line.split())
        assert regret >= 0.0 and 0.0 <= share <= 1.0


def test_config_schema_example_is_read_as_written(tmp_path):
    """The Config schema's JSON example passes the config reader, which refuses
    any key that no type holds, so README shows no key a config cannot set."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    (tmp_path / "rows.csv").write_text("arm,reward,cost\n1,0.5,0.2\n", encoding="utf-8")
    cfg = config_from_dict(doc, tmp_path)
    assert len(cfg.instance.arms) == len(doc["instance"]["arms"])
    assert [spec.kind for spec in cfg.policies] == [p["kind"] for p in doc["policies"]]


def test_config_schema_defaults_match_the_types():
    """Each default the Config schema table gives in JSON is the value of the
    library field it names, so the README cannot drift from the types."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    checked = 0
    for row in re.findall(r"^\|(.*)\|$", section, re.M):
        cells = [cell.strip() for cell in row.split("|")]
        owners = re.findall(r"`([A-Z]\w*)\.(\w+)`", cells[2])
        default = re.match(r"`([^`]*)`", cells[1])
        if len(owners) != 1 or default is None:
            continue
        try:
            want = json.loads(default.group(1))
        except json.JSONDecodeError:
            continue  # a default that is not JSON, such as an objective kind
        cls, field = owners[0]
        got = getattr(getattr(rcbandit, cls), field)
        assert (list(got) if isinstance(got, tuple) else got) == want, cells[0]
        checked += 1
    assert checked >= 15


# the README's initialization text of each schedule, as grid indices of m = 3
INIT_TEXT = {(2,): "every arm at the largest limit", (0, 1, 2): "every arm at every limit",
             (): "none"}


def test_policy_parameter_table_matches_the_classes():
    """The Config schema's table of policy kinds gives each kind's class, the
    parameters it reads and its initialization, as the class declares them in
    reads and init_limits."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    table = {}
    for kind, cells in re.findall(r"^\| `(\w+)` \|(.*)\|$", section, re.M):
        if kind in POLICY_CLASSES:
            reads, init, cls = cells.split("|")
            table[kind] = (tuple(re.findall(r"`(\w+)`", reads)), init.strip(),
                           cls.strip().strip("`"))
    assert table == {kind: (cls.reads, INIT_TEXT[tuple(range(3)[cls.init_limits])],
                            cls.__name__) for kind, cls in POLICY_CLASSES.items()}
