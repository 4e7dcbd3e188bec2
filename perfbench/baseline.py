"""Fold the harness's results files into one baseline record with a machine note.

    python3 perfbench/baseline.py [OUT]

Reads perfbench/.work/results/*.json of the full-size workloads and writes
OUT (default: print to stdout). For every workload and end-to-end metric it
records the median and quartiles of the per-run medians (one per seed), and
the median, highest percentile with at least ten samples beyond it and count
of all pooled samples. For every per-module metric it records the median
over the traced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK  # noqa: E402
from workloads import tail_percentile  # noqa: E402


def main(argv) -> int:
    docs = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((WORK / "results").glob("*.json"))]
    docs = [d for d in docs if d["size"] == "full"]
    if not docs:
        print("error: no full-size results files", file=sys.stderr)
        return 2
    machines = {json.dumps(d["machine"], sort_keys=True) for d in docs}
    if len(machines) != 1:
        print("error: results come from different machines or commits", file=sys.stderr)
        return 2
    out = {"machine": docs[0]["machine"], "workloads": {}}
    for name in sorted({d["workload"] for d in docs}):
        plain = [d for d in docs if d["workload"] == name and d["trace"] == 0]
        traced = [d for d in docs if d["workload"] == name and d["trace"] == 1]
        entry = {
            "seeds": sorted({d["seed"] for d in plain}),
            "runs": len(plain),
            "failed": sum(d["failed"] for d in plain + traced),
            "attempted": sum(d["attempted"] for d in plain + traced),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in plain[0]["metrics"] if plain else ():
            per_run = [d["metrics"][metric] for d in plain]
            pooled = [x for d in plain for x in d["samples"][metric]]
            q1, q2, q3 = (statistics.quantiles(per_run, n=4) if len(per_run) > 1
                          else (per_run[0],) * 3)
            tail = tail_percentile(pooled)
            entry["end_to_end"][metric] = {
                "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
                "pooled_median": statistics.median(pooled),
                "pooled_tail": {"p": tail[0], "value": tail[1]} if tail else None,
                "pooled_n": len(pooled),
            }
        for metric in traced[0]["metrics"] if traced else ():
            entry["per_layer"][metric] = statistics.median(
                d["metrics"][metric] for d in traced)
        out["workloads"][name] = entry
    text = json.dumps(out, indent=1) + "\n"
    if argv:
        Path(argv[0]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
