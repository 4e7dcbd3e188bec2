"""Self-test of the benchmark harness at the tiny workload sizes.

    python3 perfbench/selftest.py

It checks that:
1. every end-to-end metric of BENCHMARK.json is printed, with its unit, for
   every workload;
2. a copied trace CSV with one flipped byte counts as a failed run;
3. the traced run reports each per-module metric wherever its module runs,
   and 0 for policy kinds the workload does not run;
4. without the rcbandit sources the harness exits non-zero and prints no result.

Exits 0 when every check holds. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import POLICY_KINDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
POLICY_METRICS = ("policies.{}.select_us", "policies.{}.index_us", "policies.{}.argmax_us",
                  "policies.{}.update_us", "estimators.{}.update_us",
                  "estimators.{}.cells_per_round")
COMMON = ("cli.load_config_s", "envs.sample_s", "envs.draws", "envs.accept_ratio",
          "self.import_s", "self.cli_s", "self.envs_s", "self.sim_s", "trace.wall_s",
          "trace.coverage_pct", "trace.overhead_est_s", "trace.overhead_est_pct")
SIMULATION = ("oracle.nu_table_s", "oracle.cells", "self.oracle_s", "self.policies_s",
              "self.estimators_s", "sim.episode_s", "sim.loop_self_us", "sim.fold_write_s")
# policy kinds each workload plays: the bundled m10 config's, or the memory run's own
KINDS = {"m10_paper": ("rcucb", "ucb", "ts"), "m100_kl": ("rcucb", "klrcucb"), "audit_m10": ()}
# per-module metrics that must be non-zero on each workload
RUNS_HERE = {
    "m10_paper": COMMON + SIMULATION + ("sim.artifact_bytes",),
    "m100_kl": COMMON + SIMULATION,
    "audit_m10": COMMON + ("sim.audit_point_s", "sim.audit_self_s"),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def harness(name: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_end_to_end(name: str) -> None:
    code, lines = harness(name, 0)
    result = json.loads(lines[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{name}: tiny --trace 0 run is correct")
    for m in SPEC["end_to_end"]:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and got.get("value", 0) > 0,
              f"{name}: {m['name']} in the result with unit {m['unit']}")
        check(any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                  for line in lines[:-1]),
              f"{name}: {m['name']} printed with unit {m['unit']}")
    check(set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]},
          f"{name}: the result holds exactly the end-to-end metrics")


def check_flipped_byte() -> None:
    w = WORKLOADS["tiny"]["m10_paper"]
    tally = run.Tally(w, "tiny", 1, None)
    rec = run.spawn(w, "tiny", 1, "run", "selftest-ref")
    copy_dir = run.WORK / "selftest-flipped"
    try:
        tally.check("run", rec)
        check(not tally.failures, "m10_paper: the untouched run passes")
        shutil.rmtree(copy_dir, ignore_errors=True)
        shutil.copytree(rec["out_dir"], copy_dir)
        trace_csv = copy_dir / "trace_rcucb.csv"
        data = bytearray(trace_csv.read_bytes())
        data[len(data) // 2] ^= 1
        trace_csv.write_bytes(bytes(data))
        tally.check("run", dict(rec, out_dir=copy_dir))
        check(tally.attempted == 2 and len(tally.failures) == 1,
              "m10_paper: a trace CSV with one flipped byte counts as a failed run")
    finally:
        shutil.rmtree(rec["out_dir"], ignore_errors=True)
        shutil.rmtree(copy_dir, ignore_errors=True)


def check_traced(name: str) -> None:
    code, lines = harness(name, 1)
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    check(code == 0 and result["correct"], f"{name}: tiny --trace 1 run is correct")
    check(set(metrics) == {m["name"] for m in SPEC["per_layer"]},
          f"{name}: the result holds exactly the per-module metrics")
    kinds = KINDS[name]
    nonzero = set(RUNS_HERE[name]) | {p.format(k) for k in kinds for p in POLICY_METRICS}
    zero = {p.format(k) for k in POLICY_KINDS if k not in kinds for p in POLICY_METRICS}
    missing = sorted(k for k in nonzero if not metrics.get(k, 0) > 0)
    check(not missing, f"{name}: per-module metrics of the modules that run are > 0"
          + (f" (not: {missing})" if missing else ""))
    stray = sorted(k for k in zero if metrics.get(k) != 0)
    check(not stray, f"{name}: policy kinds that do not run report 0"
          + (f" (not: {stray})" if stray else ""))


def check_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = harness("m10_paper", 0, cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              "without rcbandit sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS["tiny"]:
        check_end_to_end(name)
    check_flipped_byte()
    for name in WORKLOADS["tiny"]:
        check_traced(name)
    check_without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
