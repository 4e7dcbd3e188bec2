"""Workload definitions and the output checks shared by the harness and its children.

This module imports only the standard library and numpy, so the harness can
load it before it knows whether the rcbandit sources are present.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# a decomposition residual above this breaks the regret accounting invariant
MAX_RESIDUAL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one size.

    kind is "cli_run" (rcbandit run through cli.main, artifacts on disk),
    "memory_run" (run_experiment with output_dir=None) or "cli_audit".
    policies and horizon override the config's for memory_run; for cli_run a
    horizon other than 0 writes the bundled config with that horizon to a file
    and runs that instead of the bundled name. The child works out the
    rounds or draws of a run from the config it loads.
    """

    name: str
    kind: str
    config: str
    policies: tuple[str, ...] = ()
    horizon: int = 0
    reps: int = 0
    audit_t: int = 0
    audit_runs: int = 0

    @property
    def work_unit(self) -> str:
        return "draws_per_s" if self.kind == "cli_audit" else "rounds_per_s"


WORKLOADS = {
    "full": {
        "m10_paper": Workload("m10_paper", "cli_run", "paper_synthetic_m10", reps=2),
        "m100_kl": Workload("m100_kl", "memory_run", "paper_synthetic_m100",
                            ("rcucb", "klrcucb"), horizon=400, reps=3),
        "audit_m10": Workload("audit_m10", "cli_audit", "paper_synthetic_m10",
                              audit_t=1000, audit_runs=1200),
    },
    # sizes for the harness self-test only; no golden digests exist for them
    "tiny": {
        "m10_paper": Workload("m10_paper", "cli_run", "paper_synthetic_m10",
                              horizon=300, reps=2),
        "m100_kl": Workload("m100_kl", "memory_run", "paper_synthetic_m100",
                            ("rcucb", "klrcucb"), horizon=30, reps=2),
        "audit_m10": Workload("audit_m10", "cli_audit", "paper_synthetic_m10",
                              audit_t=100, audit_runs=20),
    },
}


def invariant_problems(curves, shares, residuals) -> list[str]:
    """Broken output invariants: curves {label: mean cumulative regret},
    shares {label: censored share}, residuals {label: max decomposition residual}."""
    problems = []
    for label, curve in curves.items():
        curve = np.asarray(curve, dtype=float)
        if not np.all(np.isfinite(curve)):
            problems.append(f"{label}: regret curve is not finite")
        elif np.any(np.diff(curve) < 0.0):
            problems.append(f"{label}: regret curve decreases")
    for label, share in shares.items():
        if not 0.0 <= share <= 1.0:
            problems.append(f"{label}: censored share {share} outside [0, 1]")
    for label, res in residuals.items():
        if not res <= MAX_RESIDUAL:
            problems.append(f"{label}: decomposition residual {res} > {MAX_RESIDUAL}")
    return problems


def run_dir_digest(out_dir: Path) -> str:
    """sha256 over summary.json, aggregate.csv and every trace CSV, by name."""
    names = ["summary.json", "aggregate.csv"] + sorted(
        p.name for p in out_dir.glob("trace_*.csv")
    )
    h = hashlib.sha256()
    for name in names:
        data = (out_dir / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_run_dir(out_dir: Path) -> tuple[str | None, list[str]]:
    """(digest, problems) for the artifacts of one `rcbandit run`."""
    try:
        digest = run_dir_digest(out_dir)
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        curves: dict[str, list[float]] = {}
        with open(out_dir / "aggregate.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for row in reader:
                curves.setdefault(row[1], []).append(float(row[2]))
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return None, [f"unreadable artifacts: {exc!r}"]
    pols = summary["policies"]
    problems = invariant_problems(
        curves,
        {p["label"]: p["mean_censored_share"] for p in pols},
        {p["label"]: p["max_decomposition_residual"] for p in pols},
    )
    if sorted(curves) != sorted(p["label"] for p in pols):
        problems.append("aggregate.csv and summary.json list different policies")
    return digest, problems


def audit_digest(stdout: str, exit_code: int) -> str:
    return hashlib.sha256(f"{stdout}\0exit={exit_code}".encode()).hexdigest()


def aggregate_digest(mean, stderr, censored) -> str:
    """sha256 over the bytes of an Aggregate's mean/SE curves and censored shares."""
    h = hashlib.sha256()
    for arr in (mean, stderr, censored):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest of the usual percentiles with at least ten
    samples beyond it, or None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(n * p / 100.0)  # samples at or below the percentile
        if k >= 1 and n - k >= 10:
            return p, xs[k - 1]
    return None
