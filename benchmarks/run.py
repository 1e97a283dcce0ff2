"""povmlab benchmark runner.

    python3 benchmarks/run.py --workload {oracle,scan,decide} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout. The runner starts fresh client
processes, one at a time (OpenBLAS and OpenMP pinned to one thread, ``src``
on ``PYTHONPATH``): set-up probes that only import povmlab and build the
inputs, half before and half after one client that runs the workload as a
closed loop. The client builds every case from the seed, then runs the
case list in cycles (at least two) for about S seconds. ``cases_per_s`` is
the case runs completed divided by the time they took; a case's latency is
the mean of its runs, and ``case_p50_ms`` and ``case_tail_ms`` are the
median and the eleventh slowest of those. Every time is taken at the
reference speed of ``calibrate.py``: the client samples the host's speed
before each case run, and the runner before and after each set-up probe.
With ``--trace 0`` the runner reports the end-to-end metrics; with
``--trace 1`` the client runs one untraced cycle and then the same cycle
with every public povmlab function traced, and the runner reports the
per-layer metrics and the tracing overhead.

The last line of stdout is the result object; the line before it is a
report with the environment, provenance, tail percentile, diagnostics,
CLI ``checks`` blocks and every failed check. Both are also written under
``.bench_out/``, with the spans of a traced run. Exit code 2 means the run
could not be made; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("oracle", "scan", "decide")
SETUP_PROBES = 10
PROBE_KERNEL_SAMPLES = 5  # host-speed samples before and after each probe
RUN_TIMEOUT_S = 170.0    # the whole run, all client processes included
PROBE_TIMEOUT_S = 20.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before calibrate imports numpy
sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402


def _fail(message: str):
    sys.stderr.write(f"benchmarks/run.py: {message}\n")
    raise SystemExit(2)


def _child(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        _fail(f"client timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        _fail(f"client exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = Path(result["setup"]["povmlab_file"]).resolve()
    if ROOT / "src" not in src.parents:
        _fail(f"imported povmlab from {src}, not from this checkout")
    return result


def _provenance() -> dict:
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "povmlab").glob("*.py")))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_povmlab_lines": lines}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "povmlab" / "__init__.py").is_file():
        _fail(f"no povmlab sources under {ROOT / 'src'}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def probe():
        kernel = [calibrate.sample() for _ in range(PROBE_KERNEL_SAMPLES)]
        setup = _child(args, ["--setup-only"],
                       min(PROBE_TIMEOUT_S, deadline - time.monotonic()))["setup"]
        kernel += [calibrate.sample() for _ in range(PROBE_KERNEL_SAMPLES)]
        setup["speed_factor"] = calibrate.REFERENCE_S[False] / statistics.median(kernel)
        return setup

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    result = _child(args, [], deadline - time.monotonic() - 15.0)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setup = {key: statistics.median(s[key] * s["speed_factor"] for s in probes)
             for key in ("import_s", "inputs_s")}
    setup_s = statistics.median((s["import_s"] + s["inputs_s"]) * s["speed_factor"]
                                for s in probes)

    loop = result["loop"]
    if args.trace:
        metrics = {"setup.import_s": setup["import_s"],
                   "setup.inputs_s": setup["inputs_s"],
                   **result["layers"]}
        metrics["trace.overhead"] = loop["busy_s"] / result["untraced_busy_s"]
        from layers import metric_units
        units = metric_units()
    else:
        metrics = {
            "setup_s": setup_s,
            "cases_per_s": loop["cases_per_s"],
            "case_p50_ms": loop["case_p50_ms"],
            "case_tail_ms": loop["case_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_share": (loop["attempted"] - loop["failed"]) / loop["attempted"],
        }
        units = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_ms": "ms",
                 "case_tail_ms": "ms", "peak_rss_mb": "MB", "pass_share": "share"}
    if set(metrics) != set(units):
        _fail(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": result["environment"], "provenance": _provenance(),
        "setup_samples_s": [s["import_s"] + s["inputs_s"] for s in probes],
        "setup_speed_factors": [s["speed_factor"] for s in probes],
        "raw": {"setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in probes),
                **loop["raw"]},
        "kernel_ms": loop["kernel_ms"],
        "cycles": loop["cycles"],
        "tail": {"percentile": loop["tail_percentile"],
                 "cases_beyond": loop["tail_cases_beyond"],
                 "cases": loop["cases"]},
        "fail_share": loop["failed"] / loop["attempted"],
        "failures": loop["failures"],
        "diagnostics": loop["diagnostics"],
        "cli_checks": result["cli_checks"],
    }
    if args.trace:
        report["case_self_residual_s"] = result["case_self_check"]
        report["spans_file"] = result["spans_file"]
    final = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"report": report, "result": final},
                                                    indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
