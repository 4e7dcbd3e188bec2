"""One workload run in a fresh process; the harness (run.py) starts this file.

Usage: child.py WORKLOAD SIZE SEED MODE OUT_DIR RECORD
MODE is "run", "traced" (run with per-module spans) or "setup" (stop at the
first environment draw). The record, a JSON file outside OUT_DIR, carries
time.monotonic() at the first environment draw, peak RSS, the rounds or
draws of the run, the outputs the harness checks and, when traced, the
per-module metrics. No wall-clock data goes into OUT_DIR.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


class SetupDone(BaseException):
    """Raised at the first environment draw of a setup-only run.

    A BaseException, so the CLI's exit-code boundary does not swallow it.
    """


def probe_first_draw(envs, record: dict, stop: bool) -> None:
    """Stamp the first GaussianArm.sample call, then restore the method."""
    current = envs.GaussianArm.__dict__["sample"]

    def first_sample(arm, rng, size):
        record["first_draw"] = time.monotonic()
        envs.GaussianArm.sample = current
        if stop:
            raise SetupDone
        return current(arm, rng, size)

    envs.GaussianArm.sample = first_sample


def write_config(name: str, horizon: int, work_dir: Path) -> str:
    """Write the bundled config with a shorter horizon; return its path."""
    from importlib import resources

    doc = json.loads(resources.files("rcbandit").joinpath("configs", f"{name}.json")
                     .read_text(encoding="utf-8"))
    doc["horizon"] = horizon
    path = work_dir / f"{name}_h{horizon}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(workload, seed: int, out_dir: Path, record: dict) -> None:
    from rcbandit import cli
    from workloads import audit_digest

    if workload.kind == "cli_run":
        config = workload.config
        if workload.horizon:
            config = write_config(config, workload.horizon, out_dir.parent)
        argv = ["run", config, "--reps", str(workload.reps), "--seed", str(seed),
                "--out-dir", str(out_dir)]
    elif workload.kind == "cli_audit":
        config = workload.config
        argv = ["audit", config, "--alpha", "2", "--t", str(workload.audit_t),
                "--runs", str(workload.audit_runs), "--seed", str(seed)]
    else:
        run_in_memory(workload, seed, record)
        return
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    record["exit_code"] = code
    record["config"] = config
    if workload.kind == "cli_audit":
        record["digest"] = audit_digest(captured.getvalue(), code)
        record["stdout"] = captured.getvalue()


def cli_work(workload, config: str) -> int:
    """Rounds (run) or draws (audit) of one CLI run, from the config it ran."""
    from rcbandit import cli

    loaded = cli.load_config(config)
    if workload.kind == "cli_audit":
        return len(loaded.instance.grid.points) * workload.audit_runs * workload.audit_t
    return len(loaded.policies) * workload.reps * loaded.horizon


def run_in_memory(workload, seed: int, record: dict) -> None:
    import dataclasses

    from rcbandit import cli, sim
    from rcbandit.policies import PolicySpec
    from workloads import aggregate_digest, invariant_problems

    config = dataclasses.replace(
        cli.load_config(workload.config),
        policies=tuple(PolicySpec(kind) for kind in workload.policies),
        horizon=workload.horizon, repetitions=workload.reps, base_seed=seed,
        output_dir=None, workers=1,
    )
    agg = sim.run_experiment(config)
    record["exit_code"] = 0
    record["work"] = len(config.policies) * config.repetitions * config.horizon
    record["digest"] = aggregate_digest(agg.mean_cum_regret, agg.stderr_cum_regret,
                                        agg.censored_share)
    record["problems"] = invariant_problems(
        dict(zip(agg.labels, agg.mean_cum_regret)),
        dict(zip(agg.labels, agg.censored_share.tolist())),
        dict(zip(agg.labels, agg.max_residual.tolist())),
    )


def main(argv) -> int:
    name, size, seed, mode, out_dir, record_path = argv
    record: dict = {"mode": mode}
    start = time.perf_counter()
    import rcbandit.cli  # noqa: F401 - the import, numpy's too, is part of set-up
    from rcbandit import envs
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    workload = WORKLOADS[size][name]

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.add("import.rcbandit", import_s)
        tracer.install()
    probe_first_draw(envs, record, stop=mode == "setup")
    try:
        run(workload, int(seed), Path(out_dir), record)
    except SetupDone:
        pass
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.metrics()
    if "config" in record:  # after the tracer is gone, so this load is not traced
        record["work"] = cli_work(workload, record.pop("config"))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
