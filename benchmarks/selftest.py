"""Self-test of the benchmark (kept out of the pytest collection path by
its name).

    python3 benchmarks/selftest.py

Checks, on the smallest inputs the benchmark takes:

1. ``run.py`` emits every metric named in BENCHMARK.json, with its unit,
   for every workload and both ``--trace`` settings (the fewest cycles
   a run makes);
2. in a traced run, the self times of the spans of each case add up to the
   case's traced time, and no program call happens outside a case;
3. an oracle case whose closed-form effect is perturbed by 1e-6 is counted
   as failed, while the unperturbed case passes.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "benchmarks/run.py"
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "0.001", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=170, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            print(f"ok   metrics emitted: {workload} --trace {trace}")


def _tiny_cases():
    import decide
    import oracle
    import scan

    cases = [oracle._joint_case(0.5, 0.3, 0.7, 0.6, 1.1),
             oracle._mzi_scheme_case(1, 0.3, 0.4, 0.6, 1.1, 0.7)]
    cases += [c for c in decide.Decide().build_round(7, 0)
              if c.kind in ("prob_complementary.k2", "joint.unit_trace")][:4]
    cases.append(scan.Scan._tradeoff_case(0.8, [0.3, 0.7], "coherent"))
    return cases


def check_self_times_add_up() -> None:
    import numpy as np

    import harness
    import layers
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        cases = _tiny_cases()
        loop = harness.run_cycles(cases, cycles=1, tracer=tracer)
    finally:
        uninstall()
    assert not loop.failures, loop.failures
    spans = tracer.arrays()
    assert np.all(spans["case"] >= 0), "program call outside a case"
    residual = layers.case_self_residual(tracer)
    assert residual <= 1e-9, residual
    root = spans["name"] == tracer.names.index(harness.CASE_SPAN)
    assert abs(spans["self"].sum() - spans["dur"][root].sum()) <= 1e-9
    print(f"ok   self times add up to case time ({len(spans['name'])} spans, "
          f"largest residual {residual:.1e} s)")


def check_perturbed_oracle_fails() -> None:
    from povmlab import kerrqnd, linalg, povm

    import harness
    import oracle

    case = oracle._joint_case(1.0, 0.3, 0.7, 0.6, 1.1)
    clean = harness.run_cycles([case], cycles=1)
    assert not clean.failures, clean.failures
    original = kerrqnd.joint_path_interference_povm

    def perturbed(*args, **kwargs):
        obs = original(*args, **kwargs)
        mats = [e.op.mat for e in obs.effects]
        # move a 1e-6 share of the first effect to the second: still a POVM
        mats[1] = mats[1] + 1e-6 * mats[0]
        mats[0] = (1 - 1e-6) * mats[0]
        return povm.DiscreteObservable(obs.outcomes, [linalg.Operator(m) for m in mats])

    kerrqnd.joint_path_interference_povm = perturbed
    try:
        bad = harness.run_cycles([case], cycles=1)
    finally:
        kerrqnd.joint_path_interference_povm = original
    assert len(bad.failures) == 1 and "oracle gap" in bad.failures[0][2], bad.failures
    print(f"ok   perturbed oracle effect counted as failed ({bad.failures[0][2]})")


def main() -> None:
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    check_self_times_add_up()
    check_perturbed_oracle_fails()
    check_emitted_metrics()
    print("selftest passed")


if __name__ == "__main__":
    main()
