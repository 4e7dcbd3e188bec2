"""rcbandit benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload run happens in a fresh child process (child.py) with
workers = 1, one at a time, on the same CPU as the harness. While a child
runs, the harness's speed probe times a fixed kernel on that CPU, and the
reported times are scaled by it to the reference speed, so that the CPU's
own swings in speed cancel out. With --trace 0 the harness times untraced
runs for about S seconds and reports medians of the end-to-end metrics; with
--trace 1 it makes one untraced and one traced run and reports the
per-module metrics of the traced one plus the tracing overhead. Every run's
outputs are checked against the golden digests (at the golden seed) or
against the first run of this invocation (at any other seed), and against
the output invariants; a run that fails any check counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Temporary output directories and
results files live under perfbench/.work/, which is git-ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_run_dir, tail_percentile  # noqa: E402

# set-up samples per --trace 0 run: every timed run gives one; set-up-only
# runs make up the rest
MIN_SETUP_SAMPLES = 5
# children still running this long after the harness started are killed and
# count as failed, so the harness ends well within three minutes
BUDGET_S = 165
# the speed probe: a 2 ms kernel every 40 ms takes ~5 % of the CPU from the
# child; PROBE_NOMINAL_S is the kernel's CPU time at the reference speed
PROBE_PERIOD_S = 0.04
PROBE_NOMINAL_S = 0.002
PROBE_ARRAY = np.arange(1.0, 101.0).reshape(10, 10)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process on one core: no BLAS thread pool competing for the second core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class SpeedProbe(threading.Thread):
    """Samples the speed of the harness's CPU while a child runs on it.

    Every PROBE_PERIOD_S it times a fixed kernel in its own CPU time. The
    harness and its children share one CPU, so a child that ran slower
    because the CPU did shows the same slowdown in the probe.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (monotonic, kernel CPU s)
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(PROBE_PERIOD_S):
            self.samples.append((time.monotonic(), probe_kernel()))

    def scale(self, until: float = math.inf) -> float:
        """PROBE_NOMINAL_S over the mean kernel time of samples up to `until`."""
        times = [s for t, s in self.samples if t <= until] or [s for _, s in self.samples]
        return PROBE_NOMINAL_S / statistics.fmean(times) if times else float("nan")


def probe_kernel() -> float:
    """CPU seconds of a fixed mix of Python calls on small arrays, like a bandit round."""
    start = time.thread_time()
    for i in range(400):
        int(np.argmax(np.sqrt(2.0 * math.log(i + 2) / PROBE_ARRAY).T))
    return time.thread_time() - start


def spawn(workload, size: str, seed: int, mode: str, tag: str,
          timeout: float = BUDGET_S) -> dict:
    """Run one child; return its record plus its times and the out dir.

    wall_s and setup_s are scaled to the reference speed; raw_wall_s is as
    measured.
    """
    out_dir = WORK / f"{tag}-out"
    record_path = WORK / f"{tag}.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload.name, size, str(seed),
           mode, str(out_dir), str(record_path)]
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    speed = SpeedProbe()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    speed.start()
    try:
        _, stderr = proc.communicate(timeout=timeout)
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        returncode, stderr = None, f"killed after {timeout:.0f} s"
    wall = time.monotonic() - start
    speed.done.set()
    speed.join()
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (cpu_after.ru_utime - cpu_before.ru_utime) + (cpu_after.ru_stime - cpu_before.ru_stime)
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
    record.update(raw_wall_s=wall, cpu_s=cpu, returncode=returncode, stderr=stderr[-2000:],
                  out_dir=out_dir, scale=speed.scale())
    record["wall_s"] = wall * record["scale"]
    if "first_draw" in record:
        setup = record["first_draw"] - start
        record["setup_s"] = setup * speed.scale(until=record["first_draw"])
    return record


def verify(workload, record: dict, expected: str | None) -> tuple[str | None, list[str]]:
    """(digest, problems) of one finished run; expected None accepts any digest."""
    if record["returncode"] != 0:
        return None, [f"child exited {record['returncode']}: {record['stderr']}"]
    problems = []
    if "setup_s" not in record:
        problems.append("no environment draw was made")
    if record.get("exit_code") != 0:
        problems.append(f"rcbandit exited {record.get('exit_code')}")
    if workload.kind == "cli_run":
        digest, found = check_run_dir(record["out_dir"])
        problems += found
    else:
        digest = record.get("digest")
        problems += record.get("problems", [])
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} differs from {expected}")
    return digest, problems


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


class Tally:
    """The runs of one harness invocation and their correctness tally."""

    def __init__(self, workload, size: str, seed: int, golden: str | None):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.expected = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.deadline = time.monotonic() + BUDGET_S

    def run(self, mode: str) -> dict:
        """Spawn one run, check it and delete its output directory."""
        tag = f"{os.getpid()}-{self.attempted}"
        rec = spawn(self.workload, self.size, self.seed, mode, tag,
                    timeout=max(1.0, self.deadline - time.monotonic()))
        self.check(mode, rec)
        shutil.rmtree(rec["out_dir"], ignore_errors=True)
        return rec

    def check(self, mode: str, rec: dict) -> None:
        """Count one finished run as attempted and, if any check fails, as failed."""
        self.attempted += 1
        if mode == "setup":
            problems = [] if rec["returncode"] == 0 and "setup_s" in rec else [
                f"set-up run exited {rec['returncode']}: {rec['stderr']}"]
        else:
            digest, problems = verify(self.workload, rec, self.expected)
            if self.expected is None and digest is not None and not problems:
                self.expected = digest  # later runs must agree with the first
            self.digest = self.digest or digest
            rec["artifact_bytes"] = dir_bytes(rec["out_dir"])
        if problems:
            self.failures.append(f"{mode} run {self.attempted}: " + "; ".join(problems))


def finite(x) -> float:
    return float(x) if x is not None and math.isfinite(x) else 0.0


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure(tally: Tally, seconds: float) -> tuple[dict, dict]:
    """--trace 0: (end-to-end metrics, raw samples)."""
    w = tally.workload
    tally.run("setup")  # warm-up: byte-code and file caches, discarded
    runs, start = [], time.monotonic()
    while True:
        runs.append(tally.run("run"))
        if time.monotonic() - start + runs[-1]["raw_wall_s"] > seconds:
            break
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES:
        rec = tally.run("setup")
        if "setup_s" not in rec:
            break
        setups.append(rec["setup_s"])
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setups,
        "work_per_s": [r.get("work", math.nan) / r["wall_s"] for r in runs],
        "peak_rss_mb": [r.get("peak_rss_mb", float("nan")) for r in runs],
        "raw_wall_s": [r["raw_wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "artifact_mb": [r["artifact_bytes"] / 1e6 for r in runs],
    }
    return {k: median(v) for k, v in samples.items()}, samples


def trace(tally: Tally) -> dict:
    """--trace 1: per-module metrics of a traced run against an untraced one."""
    tally.run("setup")  # warm-up, discarded
    plain = tally.run("run")
    traced = tally.run("traced")
    # times from the traced child are scaled to the reference speed like wall_s
    metrics = {k: v * traced["scale"] if k.endswith(("_s", "_us")) else v
               for k, v in traced.get("trace", {}).items()}
    own = sum(v for k, v in metrics.items() if k.startswith("self."))
    metrics.update({
        "sim.artifact_bytes": float(traced["artifact_bytes"]),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.overhead_pct": 100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"],
        "trace.coverage_pct": 100.0 * own / traced["wall_s"],
        "trace.overhead_est_pct": 100.0 * metrics.get("trace.overhead_est_s", 0.0)
        / traced["wall_s"],
    })
    return metrics


def machine_note() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit()}


def commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(w, spec: dict, metrics: dict, samples: dict | None) -> None:
    """Human-readable lines: every metric by name and unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(artifact_mb="MB", cpu_s="s", raw_wall_s="s")
    if samples is None:
        for name, value in metrics.items():
            print(f"  {name:36s} {value:14.6g} {units[name]}")
        return
    for name, values in samples.items():
        if name == "artifact_mb" and w.kind != "cli_run":
            continue
        label = f"{name} ({w.work_unit})" if name == "work_per_s" else name
        tail = tail_percentile(values)
        tail_txt = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "tail n/a (<20 samples)"
        print(f"  {label:28s} {units[name]:6s} median {metrics[name]:<12.6g} "
              f"{tail_txt:24s} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="full",
                        help="tiny is for the harness self-test")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS[args.size]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "rcbandit" / "__init__.py").is_file():
        print(f"error: no rcbandit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    expected = None
    if args.size == "full" and args.seed == golden["seed"]:
        expected = golden["digests"].get(args.workload)

    WORK.mkdir(parents=True, exist_ok=True)
    # children inherit this affinity, so each shares one CPU with the speed probe
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = WORKLOADS[args.size][args.workload]
    tally = Tally(w, args.size, args.seed, expected)
    if args.trace:
        metrics, samples = trace(tally), None
        wanted = spec["per_layer"]
    else:
        metrics, samples = measure(tally, args.seconds)
        wanted = spec["end_to_end"]
    failed = len(tally.failures)
    print(f"workload {w.name} ({args.size}) seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} runs, {failed} failed, error_rate "
          f"{failed / max(tally.attempted, 1):.4g}")
    for line in tally.failures:
        print(f"  FAILED {line}")
    report(w, spec, metrics, samples)
    check = "golden match" if expected else "runs agree"
    print(f"  digest {tally.digest} ({check if not failed else 'see failures'})")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-{args.size}-seed{args.seed}-trace{args.trace}-"
               f"{time.time_ns()}.json").write_text(json.dumps({
                   "workload": w.name, "size": args.size, "seed": args.seed,
                   "trace": args.trace, "attempted": tally.attempted,
                   "failed": failed, "failures": tally.failures,
                   "digest": tally.digest, "metrics": metrics,
                   "samples": samples, "machine": machine_note(),
               }, indent=1), encoding="utf-8")

    # a failed run can leave a metric unmeasured; the result still parses
    out = {m["name"]: {"value": finite(metrics.get(m["name"])), "unit": m["unit"]}
           for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
