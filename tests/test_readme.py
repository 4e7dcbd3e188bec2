"""README's Quickstart runs as written, so a public name it uses cannot drift
from the package unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
