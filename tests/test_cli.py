"""Config parsing, CLI exit codes, emitted files, and SVG structure."""

import inspect
import json
import re
from xml.etree import ElementTree

import pytest

from rcbandit import cli, sim
from rcbandit.cli import (
    build_parser,
    config_from_dict,
    load_config,
    main,
    render_svg,
)
from rcbandit.core import (
    AdditiveCost,
    ConfigError,
    DiscountSpec,
    InstanceSpec,
    ResourceGrid,
    build_grid,
)
from rcbandit.envs import DegenerateArm, GaussianArm, TraceArm, UniformCostArm, trace_env_load
from rcbandit.policies import POLICY_CLASSES, PolicySpec
from rcbandit.sim import AGGREGATE_HEADER, ExperimentConfig, concentration_audit

SMALL_CONFIG = {
    "instance": {
        "tau_max": 1.0,
        "grid_m": 4,
        "discount": {"kind": "linear"},
        "objective": {"kind": "multiplicative"},
        "arms": [
            {"kind": "degenerate", "reward": 0.9, "cost": 0.2},
            {"kind": "degenerate", "reward": 0.7, "cost": 0.45},
            {"kind": "uniform_cost", "reward_mean": 0.8},
        ],
    },
    "policies": [
        {"kind": "rcucb", "alpha": 2.0},
        {"kind": "ucb", "alpha": 2.0},
        {"kind": "ts", "prior": [1.0, 1.0], "indicator": "chosen_limit"},
    ],
    "horizon": 60,
    "repetitions": 2,
    "base_seed": 11,
    "oracle": {"method": "quadrature", "nodes": 200},
    "workers": 1,
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_config_parse_all_arm_kinds(tmp_path):
    trace = tmp_path / "rows.csv"
    trace.write_text(
        "arm,reward,cost\n1,0.5,0.2\n1,0.9,0.8\n2,0.1,0.1\n", encoding="utf-8"
    )
    doc = {
        "instance": {
            "tau_max": 2.0,
            "grid_points": [0.5, 1.0, 2.0],
            "discount": {"kind": "geometric", "rho": 0.5},
            "objective": {"kind": "additive_cost", "scale": 0.5, "power": 2.0},
            "arms": [
                {"kind": "gaussian", "mean": [0.6, 0.45], "x": 0.2, "sigma": 0.1},
                {"kind": "degenerate", "reward": 0.9, "cost": 0.2},
                {"kind": "uniform_cost", "reward_mean": 0.8},
                {"kind": "trace", "path": str(trace), "replay": "cyclic", "arm": 2},
            ],
        },
        "policies": [
            {"kind": "rcucb", "alpha": 2.5},
            {"kind": "klrcucb", "c": 4.0},
            {"kind": "ts", "prior": [2.0, 3.0], "indicator": "per_pair"},
            {"kind": "uniform_random"},
        ],
        "horizon": 100,
        "repetitions": 5,
        "base_seed": 123,
        "oracle": {"method": "monte_carlo", "samples": 50000},
        "workers": 2,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = config_from_dict(doc, tmp_path)
    inst = cfg.instance
    assert inst.grid == ResourceGrid((0.5, 1.0, 2.0), 2.0)
    assert (inst.discount.kind, inst.grid.tau_max, inst.discount.rho) == (
        "geometric", 2.0, 0.5)
    assert inst.objective == AdditiveCost(scale=0.5, power=2.0)
    assert inst.arms == (
        GaussianArm(mean=(0.6, 0.45), x=0.2, sigma=0.1),
        DegenerateArm(reward=0.9, cost=0.2),
        UniformCostArm(reward_mean=0.8),
        TraceArm(rewards=(0.1,), costs=(0.1,), replay="cyclic"),
    )
    rcucb, klrcucb, ts, uniform = cfg.policies
    assert (rcucb.kind, rcucb.label, rcucb.alpha) == ("rcucb", "rcucb", 2.5)
    assert (klrcucb.kind, klrcucb.c) == ("klrcucb", 4.0)
    assert (ts.prior, ts.indicator) == ((2.0, 3.0), "per_pair")
    assert (uniform.kind, uniform.label) == ("uniform_random", "uniform_random")
    assert (cfg.horizon, cfg.repetitions, cfg.base_seed) == (100, 5, 123)
    assert (cfg.oracle_method, cfg.oracle_samples) == ("monte_carlo", 50000)
    assert cfg.workers == 2
    assert cfg.output_dir == tmp_path / "out"
    assert not cfg.dump_state


def test_config_field_errors(tmp_path):
    with pytest.raises(ConfigError, match="horizon"):
        config_from_dict({"instance": SMALL_CONFIG["instance"],
                          "policies": SMALL_CONFIG["policies"]})
    with pytest.raises(ConfigError, match="grid_m"):
        config_from_dict({"instance": {"discount": {"kind": "linear"},
                                       "arms": []},
                          "policies": [{"kind": "rcucb"}], "horizon": 10})
    bad = json.loads(json.dumps(SMALL_CONFIG))
    bad["policies"][0]["kind"] = "epsilon_greedy"
    with pytest.raises(ConfigError, match="policies\\[0\\]"):
        config_from_dict(bad)
    bad = json.loads(json.dumps(SMALL_CONFIG))
    bad["instance"]["grid_points"] = [0.5, 1.0]
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict(bad)
    bad = json.loads(json.dumps(SMALL_CONFIG))
    bad["oracle"] = {"method": "midpoint"}
    with pytest.raises(ConfigError, match="oracle.method"):
        config_from_dict(bad)


def test_unset_fields_take_the_library_defaults(tmp_path):
    """A config of only its required fields gives the config the library types
    build with no optional argument: the CLI restates no default."""
    (tmp_path / "rows.csv").write_text("arm,reward,cost\n1,0.5,0.2\n", encoding="utf-8")
    doc = {"instance": {"grid_m": 4, "discount": {"kind": "linear"},
                        "arms": [{"kind": "degenerate", "reward": 0.9, "cost": 0.2},
                                 {"kind": "trace", "path": "rows.csv"}]},
           "policies": [{"kind": kind} for kind in POLICY_CLASSES],
           "horizon": 60}
    discount = DiscountSpec("linear")
    instance = InstanceSpec(
        arms=(DegenerateArm(reward=0.9, cost=0.2), *trace_env_load(tmp_path / "rows.csv")),
        grid=build_grid(4, ResourceGrid.tau_max), discount=discount)
    expected = ExperimentConfig(instance=instance,
                                policies=tuple(PolicySpec(kind) for kind in POLICY_CLASSES),
                                horizon=60)
    assert config_from_dict(doc, tmp_path) == expected
    doc["instance"]["discount"] = {"kind": "polynomial", "k": 2.0}
    doc["instance"]["objective"] = {"kind": "additive_cost"}
    parsed = config_from_dict(doc, tmp_path).instance
    assert parsed.discount == DiscountSpec("polynomial", k=2.0)
    assert parsed.objective == AdditiveCost()


def test_trace_arm_selection_errors(tmp_path):
    trace = tmp_path / "rows.csv"
    trace.write_text("arm,reward,cost\n1,0.5,0.2\n", encoding="utf-8")
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["instance"]["arms"] = [{"kind": "trace", "path": "rows.csv", "arm": 3}]
    with pytest.raises(ConfigError, match="arms 1..1"):
        config_from_dict(doc, tmp_path)


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config not found" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_short_horizon_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["horizon"] = 5
    doc["output_dir"] = str(tmp_path / "out")
    path = _write_config(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert "initialization" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("grid_points", [float("nan")]),
    ("grid_points", [0.5, float("inf")]),
    ("tau_max", float("nan")),
    ("tau_max", float("inf")),
])
def test_non_finite_grid_exits_2(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    if field == "grid_points":
        del doc["instance"]["grid_m"]
    doc["instance"][field] = value
    doc["output_dir"] = str(tmp_path / "out")
    path = _write_config(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert f"instance.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _one_arm(arm):
    doc = dict(SMALL_CONFIG, instance=dict(SMALL_CONFIG["instance"], arms=[arm]))
    return json.loads(json.dumps(doc))


def _set(path, value, arm=None):
    """A one-arm SMALL_CONFIG with the field at path (keys and indices) set."""
    doc = _one_arm(arm or {"kind": "degenerate", "reward": 0.9, "cost": 0.2})
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def _grid_points(points):
    """A one-arm SMALL_CONFIG on the grid points given instead of grid_m."""
    doc = _set(["instance", "grid_points"], points)
    del doc["instance"]["grid_m"]
    return doc


GAUSSIAN = {"kind": "gaussian", "mean": [0.6, 0.45], "x": 0.2, "sigma": 0.1}


@pytest.mark.parametrize("doc, field", [
    (_set(["horizon"], float("inf")), "horizon"),
    (_set(["horizon"], "abc"), "horizon"),
    (_set(["horizon"], None), "horizon"),
    (_set(["repetitions"], "x"), "repetitions"),
    (_set(["base_seed"], float("nan")), "base_seed"),
    (_set(["oracle"], 5), "oracle"),
    (_set(["oracle", "nodes"], "many"), "oracle.nodes"),
    (_set(["instance", "grid_m"], "x"), "instance.grid_m"),
    (_set(["instance", "grid_m"], 0), "instance.grid_m"),
    (_set(["instance", "discount"], {"kind": "polynomial", "k": 0.5}), "instance.discount"),
    (_set(["instance", "discount"], {"kind": "geometric", "rho": "x"}),
     "instance.discount.rho"),
    (_set(["instance", "objective"], {"kind": "additive_cost", "scale": 2.0}),
     "instance.objective"),
    (_set(["policies", 0, "alpha"], "x"), "policies[0].alpha"),
    (_set(["policies", 0, "alpha"], -1.0), "policies[0]"),
    (_set(["policies", 0], 7), "policies[0]"),
    (_set(["instance", "arms", 0], 3), "instance.arms[0]"),
    (_set(["instance", "arms", 0, "cost"], float("nan")), "instance.arms[0]"),
    (_set(["instance", "arms", 0, "reward"], "x"), "instance.arms[0].reward"),
    (_set(["instance", "arms", 0, "sigma"], -1.0, GAUSSIAN), "instance.arms[0]"),
    (_set(["instance", "arms", 0, "mean"], [float("nan"), 0.5], GAUSSIAN),
     "instance.arms[0]"),
    (_set(["instance", "arms", 0, "mean"], ["x", 0.5], GAUSSIAN), "instance.arms[0].mean"),
    (_set(["instance", "grid_m"], 2.7), "instance.grid_m"),
    # uniform_random has no initialization that a one-round horizon would fail
    (dict(_set(["horizon"], True), policies=[{"kind": "uniform_random"}]), "horizon"),
    (_set(["repetitions"], 2.5), "repetitions"),
    (_set(["dump_state"], "no"), "dump_state"),
    (_one_arm({"kind": "trace", "path": "missing.csv"}), "instance.arms[0].path"),
    # a label names the trace file trace_<label>.csv
    (_set(["policies", 0, "label"], "a/b"), "policies[0]"),
    (_set(["policies", 0, "label"], ""), "policies[0]"),
    (_set(["policies", 0, "label"], "a\0b"), "policies[0]"),
    (_set(["policies", 0, "label"], None), "policies[0].label"),
    (_set(["policies", 0, "label"], [1, 2]), "policies[0].label"),
    # the budgets are checked even where every arm has a closed form
    (_set(["oracle", "nodes"], 8), "oracle.nodes"),
    (_set(["oracle", "nodes"], 8, GAUSSIAN), "oracle.nodes"),
    (_set(["oracle"], {"method": "monte_carlo", "samples": 5000}, GAUSSIAN),
     "oracle.samples"),
    (_set(["policies", 2, "indicator"], None), "policies[2].indicator"),
    # a non-finite parameter would give a degenerate index
    (_set(["policies", 0], {"kind": "klrcucb", "c": float("nan")}), "policies[0]"),
    (_set(["policies", 0], {"kind": "klrcucb", "c": float("inf")}), "policies[0]"),
    (_set(["policies", 0, "alpha"], float("inf")), "policies[0]"),
    (_set(["policies", 0], {"kind": "ts", "label": "ts0", "prior": [float("inf"), 1.0]}),
     "policies[0]"),
    (_set(["policies", 0, "label"], "a\x01b"), "policies[0]"),
    (_set(["policies", 0, "label"], "a\tb"), "policies[0]"),
    # a float field takes a JSON number, not a string or a bool
    (_set(["instance", "arms", 0, "sigma"], "0.1", GAUSSIAN), "instance.arms[0].sigma"),
    (_set(["instance", "arms", 0, "x"], True, GAUSSIAN), "instance.arms[0].x"),
    (_set(["instance", "arms", 0, "mean"], [0.6, False], GAUSSIAN), "instance.arms[0].mean"),
    (_set(["instance", "arms", 0, "cost"], "0.2"), "instance.arms[0].cost"),
    (_set(["policies", 0, "alpha"], "3"), "policies[0].alpha"),
    (_set(["policies", 0], {"kind": "klrcucb", "c": True}), "policies[0].c"),
    (_set(["policies", 0], {"kind": "ts", "label": "ts0", "prior": [True, 1.0]}),
     "policies[0].prior"),
    (_set(["instance", "tau_max"], "1.0"), "instance.tau_max"),
    (_grid_points([0.5, "1.0"]), "instance.grid_points"),
    (_set(["instance", "discount"], {"kind": "geometric", "rho": True}),
     "instance.discount.rho"),
    (_set(["instance", "objective"], {"kind": "additive_cost", "scale": "2", "power": 1.0}),
     "instance.objective.scale"),
    # the kind and the replay mode are checked by the types that hold them
    (_set(["instance", "discount"], {"kind": "cosine"}), "instance.discount"),
    (_one_arm({"kind": "trace", "path": "rows.csv", "replay": "shuffle"}),
     "instance.arms[0]"),
    # an infinite exponent makes every gap 0, and every policy's regret with it
    (_set(["instance", "discount"], {"kind": "polynomial", "k": float("inf")}),
     "instance.discount"),
    (_set(["instance", "discount"], {"kind": "exponential", "k": float("inf")}),
     "instance.discount"),
    (_set(["instance", "objective"], {"kind": "additive_cost", "power": float("inf")}),
     "instance.objective"),
    # a parameter the kind does not read would otherwise be ignored
    (_set(["policies", 0], {"kind": "rcucb", "c": -5}), "policies[0]"),
    # so would a key that no type holds, in every kind of object
    (_set(["repetiton"], 3), "repetiton"),
    (_set(["oracle", "node"], 8), "oracle.node"),
    (_set(["instance", "grid"], 8), "instance.grid"),
    (_set(["instance", "discount", "kk"], 2.0), "instance.discount.kk"),
    (_set(["instance", "discount", "tau_max"], 2.0), "instance.discount.tau_max"),
    (_set(["instance", "objective"], {"kind": "additive_cost", "scal": 0.5}),
     "instance.objective.scal"),
    (_set(["instance", "objective", "scale"], 0.5), "instance.objective.scale"),
    (_set(["instance", "arms", 0, "sigmaa"], 0.1, GAUSSIAN), "instance.arms[0].sigmaa"),
    (_set(["instance", "arms", 0, "c0"], 0.5), "instance.arms[0].c0"),
    (_set(["instance", "arms", 0, "reward"], 0.5, {"kind": "uniform_cost", "reward_mean": 0.8}),
     "instance.arms[0].reward"),
    (_one_arm({"kind": "trace", "path": "rows.csv", "rpelay": "cyclic"}),
     "instance.arms[0].rpelay"),
    (_set(["policies", 0, "alhpa"], 9), "policies[0].alhpa"),
    # an integer field takes a JSON integer; an integral float is refused too
    (_set(["horizon"], 60.0), "horizon"),
    (_set(["repetitions"], 2.0), "repetitions"),
    (_set(["base_seed"], 11.0), "base_seed"),
    (_set(["workers"], 1.0), "workers"),
    (_set(["instance", "grid_m"], 4.0), "instance.grid_m"),
    (_set(["oracle", "nodes"], 200.0), "oracle.nodes"),
    (_set(["oracle", "samples"], 1e6), "oracle.samples"),
    (_one_arm({"kind": "trace", "path": "rows.csv", "arm": 1.0}), "instance.arms[0].arm"),
])
def test_bad_config_value_exits_2_naming_the_field(tmp_path, capsys, doc, field):
    # an existing trace file, for the cases whose error is not a missing file
    (tmp_path / "rows.csv").write_text("arm,reward,cost\n1,0.5,0.2\n", encoding="utf-8")
    path = _write_config(tmp_path, doc)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}:" in err
    assert not (tmp_path / "out").exists()


def test_run_requires_output_dir(tmp_path, capsys):
    path = _write_config(tmp_path, SMALL_CONFIG)
    assert main(["run", str(path)]) == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("via", ["config", "flag"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_output_dir_through_a_file_exits_2(tmp_path, capsys, command, via, below):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    target = str(afile / below)
    if via == "config":
        argv = [command, str(_write_config(tmp_path, dict(SMALL_CONFIG, output_dir=target)))]
    else:
        argv = [command, str(_write_config(tmp_path, SMALL_CONFIG)), "--out-dir", target]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: output_dir: {str(afile)!r}")
    assert afile.read_text(encoding="utf-8") == ""


def _run_small(tmp_path, out_name="out", extra=()):
    path = _write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / out_name
    code = main(["run", str(path), "--out-dir", str(out), *extra])
    return code, out


def test_run_emits_expected_files(tmp_path, capsys):
    code, out = _run_small(tmp_path)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "rcucb" in stdout and str(out) in stdout

    agg_lines = (out / "aggregate.csv").read_text().splitlines()
    assert agg_lines[0] == "round,policy,mean_cum_regret,stderr"
    assert len(agg_lines) == 1 + 3 * SMALL_CONFIG["horizon"]
    for label in ("rcucb", "ucb", "ts"):
        lines = (out / f"trace_{label}.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * SMALL_CONFIG["horizon"]
    assert (out / "nu_table.json").is_file()
    assert (out / "summary.json").is_file()


def test_rerun_is_byte_identical(tmp_path):
    _, out1 = _run_small(tmp_path, "out1")
    _, out2 = _run_small(tmp_path, "out2")
    files1 = sorted(f.name for f in out1.iterdir())
    files2 = sorted(f.name for f in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_overrides(tmp_path):
    code, out = _run_small(tmp_path, "out", ("--reps", "3", "--dump-state"))
    assert code == 0
    lines = (out / "trace_rcucb.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * SMALL_CONFIG["horizon"]
    state = json.loads((out / "state_rcucb.json").read_text())
    assert len(state) == 3 * 4
    assert {"arm", "tau", "n", "sum"} == set(state[0])


def test_seed_override_changes_traces(tmp_path):
    _, out1 = _run_small(tmp_path, "out1", ("--seed", "1"))
    _, out2 = _run_small(tmp_path, "out2", ("--seed", "2"))
    assert (out1 / "trace_rcucb.csv").read_bytes() != (out2 / "trace_rcucb.csv").read_bytes()


def test_oracle_command(tmp_path, capsys):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["instance"]["arms"] = [
        {"kind": "degenerate", "reward": 0.9, "cost": 0.2},
        {"kind": "degenerate", "reward": 1.0, "cost": 0.9},
    ]
    path = _write_config(tmp_path, doc)
    out = tmp_path / "oracle_out"
    assert main(["oracle", str(path), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "arm 1" in stdout and "0.25" in stdout
    assert "0.675" in stdout
    table = json.loads((out / "nu_table.json").read_text())
    assert table["optimal"] == {"arm": 1, "tau": 0.25, "nu_star": 0.675}
    assert len(table["pairs"]) == 8


def test_audit_command_passes_on_degenerate(tmp_path, capsys):
    path = _write_config(tmp_path, SMALL_CONFIG)
    code = main(["audit", str(path), "--alpha", "2.0", "--t", "50",
                 "--runs", "20", "--seed", "4"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 4
    assert "FAIL" not in stdout


def test_audit_rejects_alpha_at_most_one(tmp_path, capsys):
    path = _write_config(tmp_path, SMALL_CONFIG)
    assert main(["audit", str(path), "--alpha", "1.0"]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_audit_rejects_non_finite_alpha(tmp_path, capsys, value):
    path = _write_config(tmp_path, SMALL_CONFIG)
    assert main(["audit", str(path), "--alpha", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --alpha")
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--t", "1", "--t must be at least 2"),
    ("--runs", "0", "--runs must be at least 1"),
])
def test_audit_flag_errors_name_the_flag(tmp_path, capsys, flag, value, message):
    """concentration_audit checks the flags; its message names the flag, not
    its own parameter (t_check, runs)."""
    path = _write_config(tmp_path, SMALL_CONFIG)
    assert main(["audit", str(path), flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_audit_gaussian_small(tmp_path, capsys):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["instance"]["arms"] = [
        {"kind": "gaussian", "mean": [0.6, 0.45], "x": 0.2, "sigma": 0.1}
    ]
    path = _write_config(tmp_path, doc)
    code = main(["audit", str(path), "--t", "100", "--runs", "50"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_audit_fails_on_mis_specified_moments(monkeypatch, capsys):
    """Moments shifted by 0.2, beyond the radius of 0.166 at t = 1000 and
    alpha = 2, put the estimates outside the radius in most runs: every limit
    prints FAIL, and the audit exits 1."""
    true_moments = sim.true_mixed_moments
    monkeypatch.setattr(sim, "true_mixed_moments",
                        lambda arm, taus: true_moments(arm, taus) + 0.2)
    assert main(["audit", "paper_synthetic_m10", "--t", "1000", "--runs", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line.endswith(" FAIL") for line in lines)


def test_audit_flags_take_the_library_defaults(monkeypatch):
    """--alpha, --t and --runs default to concentration_audit's own alpha,
    t_check and runs; the CLI restates none of them, so a default moved there
    moves the flag's."""
    def moved(arm_spec, taus, alpha=3.5, t_check=77, runs=5, base_seed=0):
        raise AssertionError("the parser only reads the defaults")

    for audit in (concentration_audit, moved):
        monkeypatch.setattr(cli, "concentration_audit", audit)
        own = inspect.signature(audit).parameters
        args = build_parser().parse_args(["audit", "config.json"])
        assert (args.alpha, args.t, args.runs) == tuple(
            own[name].default for name in ("alpha", "t_check", "runs"))


def _solid_polyline_ys(svg: str):
    out = []
    for match in re.finditer(r'<polyline[^>]*stroke-width="2"[^>]*points="([^"]+)"', svg):
        pts = match.group(1).split()
        out.append([float(p.split(",")[1]) for p in pts])
    return out


def test_plot_structure_and_monotonicity(tmp_path, capsys):
    _, out = _run_small(tmp_path)
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", str(out / "aggregate.csv"), str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 9
    assert svg.count('stroke-dasharray') == 6
    assert "mean cumulative regret" in svg and ">round<" in svg
    for label in ("rcucb", "ucb", "ts"):
        assert f">{label}</text>" in svg
    solids = _solid_polyline_ys(svg)
    assert len(solids) == 3
    for ys in solids:
        # Regret means are nondecreasing, so flipped pixel y never rises
        # beyond the 2-decimal rounding of the coordinates.
        assert all(b - a <= 0.011 for a, b in zip(ys, ys[1:]))


def test_plot_escapes_labels(tmp_path, capsys):
    label = "a&b<c"
    doc = dict(SMALL_CONFIG, policies=[{"kind": "rcucb", "label": label}])
    out = tmp_path / "out"
    assert main(["run", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 0
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", str(out / "aggregate.csv"), str(svg_path)]) == 0
    root = ElementTree.parse(svg_path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert label in texts


def test_plot_downsamples_long_curves(tmp_path):
    rows = ["round,policy,mean_cum_regret,stderr"]
    for t in range(1, 5001):
        rows.append(f"{t},only,{0.1 * t},{0.01}")
    agg = tmp_path / "aggregate.csv"
    agg.write_text("\n".join(rows) + "\n", encoding="utf-8")
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", str(agg), str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 3
    longest = max(len(m.group(1).split())
                  for m in re.finditer(r'points="([^"]+)"', svg))
    assert longest <= 1000


def test_plot_single_round(tmp_path):
    agg = tmp_path / "aggregate.csv"
    agg.write_text(
        "round,policy,mean_cum_regret,stderr\n1,solo,0.5,0.1\n", encoding="utf-8"
    )
    svg_path = tmp_path / "one.svg"
    assert main(["plot", str(agg), str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 3
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_plot_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
    assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
    bad.write_text(
        "round,policy,mean_cum_regret,stderr\n1,only,abc,0\n", encoding="utf-8"
    )
    assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
    bad.write_text(
        "round,policy,mean_cum_regret,stderr\n1,only,0.5\n", encoding="utf-8"
    )
    assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
    bad.write_text(
        "round,policy,mean_cum_regret,stderr\n1,a\x01b,0.5,0.1\n", encoding="utf-8"
    )
    assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
    assert main(["plot", str(tmp_path / "missing.csv"),
                 str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("out", ["missing/x.svg", "."], ids=["missing-dir", "a-dir"])
def test_plot_unwritable_out_exits_2(tmp_path, capsys, out):
    agg = tmp_path / "aggregate.csv"
    agg.write_text(AGGREGATE_HEADER + "1,only,0.25,0.05\n", encoding="utf-8")
    assert main(["plot", str(agg), str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("error: out: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["mean_cum_regret", "stderr"])
def test_plot_rejects_non_finite(tmp_path, capsys, column, value):
    fields = dict(mean_cum_regret="0.5", stderr="0.1")
    fields[column] = value
    agg = tmp_path / "aggregate.csv"
    agg.write_text(
        AGGREGATE_HEADER + "1,only,0.25,0.05\n"
        f"2,only,{fields['mean_cum_regret']},{fields['stderr']}\n",
        encoding="utf-8",
    )
    svg_path = tmp_path / "x.svg"
    assert main(["plot", str(agg), str(svg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{agg}:3: {column}" in err and "not finite" in err
    assert not svg_path.exists()


def test_render_svg_direct():
    curves = {"a": ([1, 2, 3], [0.0, 1.0, 2.0], [0.0, 0.1, 0.2])}
    svg = render_svg(curves)
    assert svg.count("<polyline") == 3


@pytest.mark.parametrize("m", [10, 50, 100])
def test_bundled_configs_encode_the_synthetic_setup(m):
    cfg = load_config(f"paper_synthetic_m{m}")
    inst = cfg.instance
    assert inst.n == 10
    assert inst.grid.m == m
    assert inst.grid.tau_max == 1.0
    assert inst.discount.kind == "linear"
    assert cfg.horizon == 50000
    assert cfg.repetitions == 20
    first = inst.arms[0]
    assert isinstance(first, GaussianArm)
    assert first.mean == (0.6, 0.45)
    assert first.sigma == 0.1
    xs = [arm.x for arm in inst.arms]
    assert xs == [0.2, 0.3, 0.4, 0.4] + [0.6] * 6
    for arm in inst.arms[1:]:
        assert arm.mean == (0.5, 0.5)
        assert arm.sigma == 0.1
    labels = [s.label for s in cfg.policies]
    assert labels == ["rcucb", "ucb", "ts"]
    assert cfg.policies[2].indicator == "chosen_limit"


def test_bundled_config_with_suffix_also_resolves():
    cfg = load_config("paper_synthetic_m10.json")
    assert cfg.instance.grid.m == 10
