"""Golden pins of `rcbandit audit`: sha256 of its stdout, and its exit code.

The uniform-cost run draws rewards 0.95 * 1{C <= tau'} two at a time, so at
alpha = 1.01 both tails are hit at some limits and the printed rates are not
all zero; a draw taken from the wrong stream or a limit evaluated against the
wrong draws changes them. The bundled m = 10 run covers the Gaussian sampler
and the quadrature ground truth. A change that means to alter the audit
updates these constants and says why; a performance change leaves them.
"""

import hashlib
import json
import re

from rcbandit.cli import main

UNIFORM_CONFIG = {
    "instance": {
        "tau_max": 1.0,
        "grid_m": 10,
        "discount": {"kind": "linear"},
        "arms": [{"kind": "uniform_cost", "reward_mean": 0.95}],
    },
    "policies": [{"kind": "rcucb"}],
    "horizon": 100,
}

# argv after the config name: (exit code, sha256 of stdout)
UNIFORM_PIN = (
    ["--alpha", "1.01", "--t", "2", "--runs", "2000"],
    0, "e9f7eadaa27fe78ef89eef2c37e80acc9bb0b1d70fc491df74eda9ea15adf3f6",
)
BUNDLED_M10_PIN = (
    ["--alpha", "2", "--t", "50", "--runs", "100", "--seed", "5"],
    0, "26df7fd1a73c3637fd74d76b6d96903e90885c07c607f7942e09815adf2241aa",
)


def _audit(config, pin, capsys):
    argv, code, digest = pin
    assert main(["audit", config, *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    return out


def test_uniform_cost_audit_pin(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(UNIFORM_CONFIG), encoding="utf-8")
    out = _audit(str(path), UNIFORM_PIN, capsys)
    assert len(out.splitlines()) == 10
    # the pin covers non-zero rates in both tails
    assert re.search(r"upper=0\.0*[1-9]", out)
    assert re.search(r"lower=0\.0*[1-9]", out)


def test_bundled_m10_audit_pin(capsys):
    out = _audit("paper_synthetic_m10", BUNDLED_M10_PIN, capsys)
    assert len(out.splitlines()) == 10
