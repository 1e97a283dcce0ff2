"""Steadiness check: run each workload repeatedly, one seed per run, and
print the median and quartiles of every end-to-end metric.

    python3 benchmarks/steady.py [--first-seed 1]

Every workload of BENCHMARK.json runs RUNS times, with the seeds
first-seed, first-seed + 1, ...

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is compared with the
metric's bound in BENCHMARK.json. The last line is every value as JSON, so
two invocations with the same seeds can be compared median by median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def _run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in metrics}
        for seed in seeds:
            result = _run(spec, workload, seed)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{n}={values[n][-1]:.6g}" for n in metrics),
                  file=sys.stderr, flush=True)
        summary[workload] = {name: _stats(v) | {"values": v} for name, v in values.items()}
        for name, m in metrics.items():
            st = summary[workload][name]
            print(f"{workload:8s} {name:14s} {m['unit']:6s} median {st['median']:.6g}"
                  f"  Q1 {st['q1']:.6g}  Q3 {st['q3']:.6g}  spread {st['spread']:.4f}"
                  f"  (bound {m['bound']}, bound/3 {m['bound'] / 3:.4f})", flush=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
