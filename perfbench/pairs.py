"""Parent-vs-change pairs in alternating order.

    python3 perfbench/pairs.py PARENT CHANGE --workload NAME

PARENT and CHANGE are two checkouts that hold identical copies of
BENCHMARK.json and perfbench/ (copy them into the parent checkout first).
Ten pairs run at seeds 100-109, each run as long as run_seconds in
BENCHMARK.json; even pairs run the parent first, odd pairs the change first.
For every end-to-end metric it prints each side's median and quartiles and
the change's wins, then two verdicts:

- gain: the change wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- within bound: the change's median is no worse than the parent's by more
  than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 100


def bench_files(root: Path) -> dict[str, bytes]:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and ".work" not in rel.parts and "__pycache__" not in rel.parts:
            files[str(rel)] = path.read_bytes()
    return files


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{root} seed {seed}: benchmark failed\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    if bench_files(args.parent) != bench_files(args.change):
        print("error: the two checkouts hold different benchmark files", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))

    parent, change = [], []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = [(args.parent, parent), (args.change, change)]
        for root, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run_side(root, args.workload, seed, spec["run_seconds"]))
        print(f"pair {i + 1}/{PAIRS} (seed {seed}) done", file=sys.stderr)

    print(f"workload {args.workload}, {PAIRS} pairs")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        spread = pq[2] - pq[0]
        gain = wins >= 0.9 * PAIRS and abs(cq[1] - pq[1]) > spread
        worse = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
        print(f"  {name:12s} {m['unit']:4s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
              f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
              f"  wins {wins}/{PAIRS}  gain {'yes' if gain else 'no'}"
              f"  within bound {'yes' if worse <= m['bound'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
