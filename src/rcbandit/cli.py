"""Command line: config ingestion, runs, oracle tables, audits, SVG plots.

Configs are JSON. Bundled instance files (``paper_synthetic_m10.json``,
``paper_synthetic_m50.json``, ``paper_synthetic_m100.json``) resolve by
name when no file of that name exists on disk.

Exit codes: 0 success, 1 runtime failure (including audit FAIL), 2 invalid
input. `audit` checks the first arm at every grid point in one
sim.concentration_audit call, so each run's draws serve all points.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .core import (
    AdditiveCost,
    ConfigError,
    DiscountSpec,
    DomainError,
    InstanceSpec,
    MultiplicativeDiscount,
    ResourceGrid,
    build_grid,
    check_integer,
    check_tau_max,
)
from .envs import DegenerateArm, GaussianArm, TraceArm, UniformCostArm, trace_env_load
from .policies import PolicySpec
from .sim import AGGREGATE_HEADER, ExperimentConfig, concentration_audit, run_experiment

_REQUIRED, _ABSENT = object(), object()


def _read(obj, key: str, where: str, cast=None, default=_REQUIRED):
    """obj[key] converted by cast, or default when the key is absent. Every
    config value is read here, so a missing field, a container that is not an
    object, or a value cast rejects (ValueError or TypeError) becomes a
    ConfigError naming the field path."""
    path = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'}: expected an object")
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: required field is missing")
        return default
    if cast is None:
        return obj[key]
    try:
        return cast(obj[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _object(obj, where: str, casts: dict, required=()) -> dict:
    """{key: obj[key] cast by casts[key]} for each key of casts that obj sets (all
    of required); any other key is refused, so a misspelt one cannot go unread."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in casts:
            raise ConfigError(f"{where + '.' if where else ''}{key}: unknown key; "
                              f"{where or 'the config'} holds {', '.join(casts)}")
    values = {key: _read(obj, key, where, cast, _REQUIRED if key in required else _ABSENT)
              for key, cast in casts.items()}
    return {key: value for key, value in values.items() if value is not _ABSENT}


def _build(where: str, ctor, *args, **kwargs):
    """ctor(*args, **kwargs), with its validation errors prefixed by the field
    path: where.key for an error led by the key of a keyword argument."""
    try:
        return ctor(*args, **kwargs)
    except (ConfigError, DomainError) as exc:
        sep = "." if str(exc).partition(":")[0] in kwargs else ": "
        raise ConfigError(f"{where}{sep}{exc}") from None


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _typed(obj, where: str, cls):
    """cls built from obj, whose keys are kind (a field of cls, or the key that
    chose cls) and the fields of cls, each required if it has no default; a str
    field takes a JSON string, and cls checks every other value (check_reals)."""
    fields = dataclasses.fields(cls)
    casts = {f.name: _str if f.type.startswith("str") else None for f in fields}
    values = _object(obj, where, {"kind": _str} | casts,
                     [f.name for f in fields if f.default is dataclasses.MISSING])
    return _build(where, cls, **{f.name: values[f.name] for f in fields if f.name in values})


def _kind(obj, where: str, types: dict):
    """The type that obj's kind names in types."""
    kind = _read(obj, "kind", where, _str)
    if kind not in types:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}; expected {', '.join(types)}")
    return types[kind]


# the type that each arm kind and each objective kind builds
_ARM_TYPES = {"gaussian": GaussianArm, "degenerate": DegenerateArm,
              "uniform_cost": UniformCostArm, "trace": TraceArm}
_OBJECTIVE_TYPES = {"multiplicative": MultiplicativeDiscount, "additive_cost": AdditiveCost}


def _parse_arm(obj: dict, where: str, base_dir: Path):
    cls = _kind(obj, where, _ARM_TYPES)
    if cls is not TraceArm:
        return _typed(obj, where, cls)
    # a trace arm picks one arm of a trace file, so its keys are its own
    values = _object(obj, where, {"kind": _str, "path": Path, "arm": None}, ("path",))
    try:  # an absolute path replaces base_dir
        arms = _build(where, trace_env_load, base_dir / values["path"])
    except OSError as exc:
        raise ConfigError(f"{where}.path: {exc}") from None
    idx = values.get("arm", 1)
    check_integer(f"{where}.arm", idx, ConfigError)
    if not 1 <= idx <= len(arms):
        raise ConfigError(f"{where}.arm: trace file holds arms 1..{len(arms)}, got {idx}")
    return arms[idx - 1]


def _parse_instance(obj: dict, base_dir: Path) -> InstanceSpec:
    values = _object(obj, "instance", {"tau_max": None, "grid_m": None, "grid_points": None,
                                       "discount": None, "objective": None, "arms": None},
                     ("discount", "arms"))
    tau_max = values.get("tau_max", ResourceGrid.tau_max)
    check_tau_max("instance.tau_max", tau_max)  # the grid's error would name its own field
    discount = _typed(values["discount"], "instance.discount", DiscountSpec)
    if "grid_m" in values and "grid_points" in values:
        raise ConfigError("instance: give grid_m or grid_points, not both")
    if "grid_points" in values:
        grid = _build("instance.grid_points", ResourceGrid, values["grid_points"], tau_max)
    else:
        grid_m = _read(obj, "grid_m", "instance")
        check_integer("instance.grid_m", grid_m, ConfigError)  # build_grid's error would name m
        grid = _build("instance.grid_m", build_grid, grid_m, tau_max)

    objective = {}  # InstanceSpec's default objective, unless the config sets one
    if "objective" in values:
        objective["objective"] = _typed(
            values["objective"], "instance.objective",
            _kind(values["objective"], "instance.objective", _OBJECTIVE_TYPES))

    arms_obj = values["arms"]
    if not isinstance(arms_obj, list) or not arms_obj:
        raise ConfigError("instance.arms: expected a non-empty list")
    arms = tuple(_parse_arm(a, f"instance.arms[{i}]", base_dir) for i, a in enumerate(arms_obj))
    return InstanceSpec(arms=arms, grid=grid, discount=discount, **objective)


def config_from_dict(doc: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """A validated ExperimentConfig from a decoded JSON document. Only the
    fields the document sets are passed on (see _object), so each default is
    the one of the library type that holds the field."""
    if base_dir is None:
        base_dir = Path.cwd()
    values = _object(doc, "", {
        "instance": None, "policies": None, "horizon": None, "repetitions": None,
        "base_seed": None, "oracle": None, "workers": None, "dump_state": None,
        "output_dir": lambda v: v if v is None else Path(v)}, ("instance", "policies", "horizon"))
    instance = _parse_instance(values.pop("instance"), base_dir)
    pol_obj = values.pop("policies")
    if not isinstance(pol_obj, list) or not pol_obj:
        raise ConfigError("policies: expected a non-empty list")
    policies = tuple(_typed(p, f"policies[{i}]", PolicySpec) for i, p in enumerate(pol_obj))
    oracle = _object(values.pop("oracle", {}), "oracle",
                     {"method": _str, "nodes": None, "samples": None})
    return ExperimentConfig(instance=instance, policies=policies, **values,
                            **{f"oracle_{key}": value for key, value in oracle.items()})


def _locate_config(name: str) -> tuple[str, Path]:
    """Return (json text, base dir). Falls back to packaged configs."""
    path = Path(name)
    if path.is_file():
        return path.read_text(encoding="utf-8"), path.parent
    packaged = resources.files("rcbandit").joinpath("configs")
    for candidate in (name, f"{name}.json"):
        entry = packaged.joinpath(candidate)
        if entry.is_file():
            return entry.read_text(encoding="utf-8"), Path.cwd()
    raise ConfigError(f"config not found: {name}")


def load_config(name: str) -> ExperimentConfig:
    text, base_dir = _locate_config(name)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: invalid JSON ({exc})") from exc
    return config_from_dict(doc, base_dir)


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if getattr(args, "reps", None) is not None:
        changes["repetitions"] = args.reps
    if getattr(args, "seed", None) is not None:
        changes["base_seed"] = args.seed
    if getattr(args, "out_dir", None) is not None:
        changes["output_dir"] = Path(args.out_dir)
    if getattr(args, "dump_state", False):
        changes["dump_state"] = True
    if changes:
        config = dataclasses.replace(config, **changes)
    return config


def _require_output_dir(config: ExperimentConfig) -> ExperimentConfig:
    if config.output_dir is None:
        raise ConfigError(
            "no output directory: set output_dir in the config or pass --out-dir"
        )
    # mkdir fails later unless the nearest existing path on the way is a directory
    out = config.output_dir
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir: {str(existing)!r} exists and is not a directory")
    return config


def cmd_run(args) -> int:
    config = _require_output_dir(_apply_overrides(load_config(args.config), args))
    agg = run_experiment(config)
    for p, label in enumerate(agg.labels):
        mean, se = agg.final_regret(label)
        print(
            f"{label}: final regret {mean:.4f} +/- {se:.4f}, "
            f"censored share {agg.censored_share[p]:.4f}"
        )
    print(f"wrote {config.output_dir}")
    return 0


def cmd_oracle(args) -> int:
    config = _require_output_dir(_apply_overrides(load_config(args.config), args))
    table = config.table()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.save(out / "nu_table.json")
    optimum = table.optimum()
    print(f"optimal pair: arm {optimum['arm']}, tau {optimum['tau']:g}")
    print(f"nu_star: {table.nu_star:.10g}")
    print(f"min positive gap: {table.min_positive_gap():.10g}")
    print(f"wrote {out / 'nu_table.json'}")
    return 0


def cmd_audit(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    points = config.instance.grid.points
    try:
        results = concentration_audit(
            config.instance.arms[0], points, alpha=args.alpha, t_check=args.t,
            runs=args.runs, base_seed=config.base_seed,
        )
    except DomainError as exc:  # led by the parameter at fault: name its flag
        param = str(exc).partition(" ")[0].rstrip(":")
        flag = {"alpha": "--alpha", "t_check": "--t", "runs": "--runs"}.get(param, param)
        raise ConfigError(flag + str(exc)[len(param):]) from None
    all_pass = True
    for tau, (upper, lower, bound) in zip(points, results):
        if bound >= 1.0:
            ok = True
        else:
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / args.runs)
            ok = upper <= bound + slack and lower <= bound + slack
        all_pass = all_pass and ok
        print(
            f"tau={tau:g} upper={upper:.6g} lower={lower:.6g} "
            f"bound={bound:.6g} {'PASS' if ok else 'FAIL'}"
        )
    return 0 if all_pass else 1


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 160, 20, 50


def _read_aggregate(path: str) -> dict[str, tuple[list, list, list]]:
    """aggregate.csv -> {policy: (rounds, means, stderrs)} in file order."""
    curves: dict[str, tuple[list, list, list]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != AGGREGATE_HEADER.rstrip("\n").split(","):
                raise ConfigError(f"{path}: unexpected header {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise ConfigError(f"{path}:{lineno}: expected 4 columns")
                # the label goes into the SVG as text, where a control character
                # is invalid; a run's labels pass the same check (PolicySpec)
                if not row[1].isprintable():
                    raise ConfigError(f"{path}:{lineno}: policy {row[1]!r} is not printable")
                try:
                    t = int(row[0])
                    mean = float(row[2])
                    se = float(row[3])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                # a non-finite value would put nan into every SVG coordinate
                for name, value in (("mean_cum_regret", mean), ("stderr", se)):
                    if not math.isfinite(value):
                        raise ConfigError(f"{path}:{lineno}: {name} {value} is not finite")
                rounds, means, ses = curves.setdefault(row[1], ([], [], []))
                rounds.append(t)
                means.append(mean)
                ses.append(se)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not curves:
        raise ConfigError(f"{path}: no data rows")
    return curves


def _downsample(xs: np.ndarray, ys: np.ndarray, limit: int = 1000):
    if xs.size <= limit:
        return xs, ys
    idx = np.unique(np.linspace(0, xs.size - 1, limit).round().astype(int))
    return xs[idx], ys[idx]


def _polyline(xs, ys, color: str, dashed: bool) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="5 4"' if dashed else ""
    width = "1" if dashed else "2"
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
        f'{dash} points="{pts}"/>'
    )


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        return [lo]
    return list(np.linspace(lo, hi, count))


def render_svg(curves: dict[str, tuple[list, list, list]]) -> str:
    """Mean curves (solid) with mean +/- SE bands (dashed), axes, legend."""
    x_lo = min(min(r) for r, _, _ in curves.values())
    x_hi = max(max(r) for r, _, _ in curves.values())
    y_lo = min(
        min(m - s for m, s in zip(means, ses))
        for _, means, ses in curves.values()
    )
    y_hi = max(
        max(m + s for m, s in zip(means, ses))
        for _, means, ses in curves.values()
    )
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo -= pad
    y_hi += pad
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + (np.asarray(x, dtype=float) - x_lo) / x_span * plot_w

    def sy(y):
        return _MT + (y_hi - np.asarray(y, dtype=float)) / y_span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" '
        f'y2="{_MT + plot_h}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" '
        f'stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = float(sx(tx))
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + plot_h}" x2="{px:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = float(sy(ty))
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_H - 10}" font-size="14" '
        f'text-anchor="middle">round</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h / 2:.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 18 {_MT + plot_h / 2:.2f})">'
        "mean cumulative regret</text>"
    )

    for i, (label, (rounds, means, ses)) in enumerate(curves.items()):
        color = PALETTE[i % len(PALETTE)]
        r = np.asarray(rounds, dtype=float)
        mean = np.asarray(means, dtype=float)
        se = np.asarray(ses, dtype=float)
        for ys, dashed in ((mean, False), (mean + se, True), (mean - se, True)):
            dx, dy = _downsample(r, ys)
            parts.append(_polyline(sx(dx), sy(dy), color, dashed))
        ly = _MT + 20 + 22 * i
        lx = _ML + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        # a label is free text: escape it as XML character data, "&" first
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{lx + 32}" y="{ly + 4}" font-size="13">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args) -> int:
    curves = _read_aggregate(args.aggregate)
    svg = render_svg(curves)
    try:
        Path(args.out).write_text(svg, encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ConfigError(f"out: {exc}") from None  # no file can be written there
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcbandit",
        description="Bandit simulations with censored resource consumption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config")
    run.add_argument("--reps", type=int, help="override repetitions")
    run.add_argument("--seed", type=int, help="override base seed")
    run.add_argument("--out-dir", help="override output directory")
    run.add_argument("--dump-state", action="store_true",
                     help="write final estimator state of repetition 0")
    run.set_defaults(func=cmd_run)

    oracle = sub.add_parser("oracle", help="compute the ground-truth table")
    oracle.add_argument("config")
    oracle.add_argument("--seed", type=int, help="override base seed")
    oracle.add_argument("--out-dir", help="override output directory")
    oracle.set_defaults(func=cmd_oracle)

    audit = sub.add_parser("audit", help="empirical concentration audit")
    audit.add_argument("config")
    # the flags default to concentration_audit's own parameters
    own = inspect.signature(concentration_audit).parameters
    audit.add_argument("--alpha", type=float, default=own["alpha"].default)
    audit.add_argument("--t", type=int, default=own["t_check"].default)
    audit.add_argument("--runs", type=int, default=own["runs"].default)
    audit.add_argument("--seed", type=int, help="override base seed")
    audit.set_defaults(func=cmd_audit)

    plot = sub.add_parser("plot", help="render an aggregate CSV to SVG")
    plot.add_argument("aggregate")
    plot.add_argument("out")
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
