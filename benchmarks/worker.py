"""One benchmark client: a fresh interpreter that imports povmlab, builds
all of the workload's cases from the seed and runs the closed loop.

Started by ``run.py`` (never imported): it prints one JSON object on
stdout. ``--setup-only`` stops where the first case would start. The clock
for set-up starts before ``import povmlab``, so nothing above that import
may load numpy.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    return p.parse_args()


def _make_workload(name: str, workdir: str):
    if name == "oracle":
        from oracle import Oracle
        return Oracle()
    if name == "scan":
        from scan import Scan
        return Scan(workdir)
    if name == "decide":
        from decide import Decide
        return Decide()
    raise SystemExit(f"unknown workload {name!r}")


def main() -> None:
    args = _args()
    import povmlab
    t_import = time.perf_counter()

    import random
    import resource
    import shutil
    import tempfile

    import harness

    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        workload = _make_workload(args.workload, workdir)
        cases = [case for k in range(workload.SETS)
                 for case in workload.build_round(args.seed, k)]
        # Spread the cases of one kind over the cycle, so that their mean
        # latencies sample the host's fast and slow phases at many instants.
        random.Random(args.seed).shuffle(cases)
        t_inputs = time.perf_counter()
        setup = {"import_s": t_import - T0, "inputs_s": t_inputs - t_import,
                 "povmlab_file": povmlab.__file__}
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return
        if args.trace:
            result = _traced(args, workload, cases)
        else:
            result = {"loop": _loop_summary(harness.run_cycles(
                cases, seconds=args.seconds, dense_kernel=workload.DENSE_KERNEL))}
        result["setup"] = setup
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["cli_checks"] = getattr(workload, "checks", [])
        result["environment"] = _environment()
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop_summary(loop) -> dict:
    import numpy as np

    import harness

    latencies = loop.latencies()
    pct, value, beyond = harness.tail(latencies)
    raw = loop.latencies(scaled=False)
    kernel = [k for _, _, k in loop.runs]
    return {
        "cycles": loop.cycles,
        "cases": len(latencies),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": [{"cycle": c, "kind": k, "note": n} for c, k, n in loop.failures],
        "busy_s": loop.busy_s(),
        "cases_per_s": loop.attempted / loop.busy_s(),
        "case_p50_ms": float(np.median(latencies)) * 1e3,
        "case_tail_ms": value * 1e3,
        "tail_percentile": pct,
        "tail_cases_beyond": beyond,
        "raw": {"cases_per_s": loop.attempted / loop.busy_s(scaled=False),
                "case_p50_ms": float(np.median(raw)) * 1e3,
                "case_tail_ms": harness.tail(raw)[1] * 1e3},
        "kernel_ms": {"min": min(kernel) * 1e3, "median": float(np.median(kernel)) * 1e3,
                      "max": max(kernel) * 1e3},
        "diagnostics": loop.diagnostics.values,
    }


def _traced(args, workload, cases) -> dict:
    """One untraced cycle over the cases, then the same cycle traced."""
    import harness
    import layers
    import tracing

    base = harness.run_cycles(cases, cycles=1, dense_kernel=workload.DENSE_KERNEL)
    bytes_before = getattr(workload, "output_bytes", 0)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = harness.run_cycles(cases, cycles=1, tracer=tracer,
                                    dense_kernel=workload.DENSE_KERNEL)
    finally:
        uninstall()
    counters = {"cli.output_bytes": getattr(workload, "output_bytes", 0) - bytes_before}
    spans_path = os.path.join(args.out_dir,
                              f"spans-{args.workload}-seed{args.seed}.npz")
    tracer.save(spans_path)
    return {
        "loop": _loop_summary(traced),
        "untraced_busy_s": base.busy_s(),
        "layers": layers.per_layer(tracer, workload.SETS, counters),
        "case_self_check": layers.case_self_residual(tracer),
        "spans_file": spans_path,
    }


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
