"""The per-layer benchmark trace still finds every hook it wraps.

perfbench/tracer.py patches the package's callables by name from outside. A
refactor that renames, inlines or re-homes one of them silently zeroes that
layer's metrics, or breaks the traced run; this test finds that in the unit
step, on a run of a few hundred rounds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from rcbandit import sim
from rcbandit.envs import GaussianArm
from rcbandit.oracle import nu_table
from rcbandit.policies import PolicySpec

from conftest import gaussian_instance

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
KINDS = ("rcucb", "klrcucb", "ucb", "ts")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_hits_every_policy_hook():
    tracer = _load_tracer().Tracer()
    config = sim.ExperimentConfig(instance=gaussian_instance(4),
                                  policies=tuple(PolicySpec(kind) for kind in KINDS),
                                  horizon=60, repetitions=2, base_seed=1)
    tracer.install()
    try:
        # looked up on the module at call time, where the tracer wraps it
        sim.run_experiment(config)
    finally:
        tracer.uninstall()
    spans = {name for name, (calls, _, _) in tracer.stats.items() if calls}
    for kind in KINDS:
        hooks = ("select", "update", "argmax") + (() if kind == "ts" else ("index",))
        for hook in hooks:
            assert f"policies.{kind}.{hook}" in spans
        assert f"estimators.{kind}.update" in spans
        assert tracer.counts[f"estimators.{kind}.cells"] > 0
    assert {"sim.run_episode", "sim.run_experiment", "envs.sample_episode",
            "envs.sample", "oracle.nu_table"} <= spans
    metrics = tracer.metrics()
    json.dumps(metrics)
    for kind in KINDS:
        assert metrics[f"policies.{kind}.select_us"] > 0


@pytest.mark.parametrize("kind", KINDS)
def test_traced_cells_count_what_each_update_touches(kind):
    """estimators.<kind>.cells is the sum of tau_idx + 1 over the plays for the
    estimators that touch every limit at or below the play, and one per play
    for the naive one: the touched-cell count k = j + 1 is the hook's third
    argument."""
    tracer = _load_tracer().Tracer()
    instance = gaussian_instance(4)
    table = nu_table(instance)
    tracer.install()
    try:
        traces = sim.run_episode(PolicySpec(kind), 60, table, seeds=[3, 4])
    finally:
        tracer.uninstall()
    plays = sum(int(trace.tau_idx.size) for trace in traces)
    touched = sum(int(trace.tau_idx.sum()) for trace in traces) + plays
    assert tracer.counts[f"estimators.{kind}.cells"] == (plays if kind == "ucb" else touched)
    assert tracer.calls(f"estimators.{kind}.update") == plays


def test_traced_audit_counts_every_run_draw():
    """The audit's passes still draw each run through GaussianArm.sample, so
    the envs metrics of the audit workload count every run."""
    tracer = _load_tracer().Tracer()
    runs, t_check = 25, 40
    arm = GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1)
    tracer.install()
    try:
        sim.concentration_audit(arm, [0.3, 0.5, 1.0], t_check=t_check, runs=runs)
    finally:
        tracer.uninstall()
    assert tracer.calls("envs.sample") == runs
    assert tracer.counts["envs.draws"] == runs * t_check
    assert tracer.counts["envs.normal_pairs"] >= runs * t_check
    assert tracer.calls("sim.concentration_audit") == 1
