"""Per-layer metrics of a traced run, aggregated from the span store.

A traced run covers each case set once. Counts, self times and bytes are
divided by the number of sets, so they read per set of cases (one
"round"); ``linalg.max_dim``, error counts and ``trace.overhead`` are not.
The output diagnostics are not per-layer metrics: a workload computes only
some of them, so they are in the report line, with the keys it computed.
"""

from __future__ import annotations

import numpy as np

from harness import CASE_SPAN
from tracing import MODULES

# (metric, span name, statistic) for single spans
SPAN_METRICS = [
    ("linalg.tensor.self_s", "linalg.tensor", "self_s"),
    ("linalg.partial_trace.self_s", "linalg.partial_trace", "self_s"),
    ("linalg.Operator.calls", "linalg.Operator", "calls"),
    ("povm.induced_observable.self_s", "povm.induced_observable", "self_s"),
    ("kerrqnd.three_mode_unitary.calls", "kerrqnd.three_mode_unitary", "calls"),
    ("kerrqnd.three_mode_unitary.self_s", "kerrqnd.three_mode_unitary", "self_s"),
    ("kerrqnd.induced_a_mode_observable.unitary.self_s",
     "kerrqnd.induced_a_mode_observable.unitary", "self_s"),
    ("kerrqnd.joint_povm_compressed.self_s", "kerrqnd.joint_povm_compressed", "self_s"),
    ("kerrqnd.kerr_measurement_scheme.self_s", "kerrqnd.kerr_measurement_scheme", "self_s"),
    ("mzi.mzi_measurement_scheme.self_s", "mzi.mzi_measurement_scheme", "self_s"),
    ("models.position_measurement_scheme.self_s",
     "models.position_measurement_scheme", "self_s"),
    ("povm.Effect.calls", "povm.Effect", "calls"),
    ("povm.Effect.self_s", "povm.Effect", "self_s"),
    ("povm.DiscreteObservable.self_s", "povm.DiscreteObservable", "self_s"),
    ("povm.State.calls", "povm.State", "calls"),
    ("povm.marginal.self_s", "povm.marginal", "self_s"),
    ("spin.spin_phase_effect.self_s", "spin.spin_phase_effect", "self_s"),
    ("spin.phase_kernel.calls", "spin.phase_kernel", "calls"),
    ("kerrqnd.truncated_phase_povm.self_s", "kerrqnd.truncated_phase_povm", "self_s"),
    ("kerrqnd.joint_path_interference_povm.self_s",
     "kerrqnd.joint_path_interference_povm", "self_s"),
    ("kerrqnd.induced_a_mode_observable.closed_form.self_s",
     "kerrqnd.induced_a_mode_observable.closed_form", "self_s"),
    ("mzi.beam_splitter.calls", "mzi.beam_splitter", "calls"),
    ("mzi.mzi_unitary.self_s", "mzi.mzi_unitary", "self_s"),
    ("mzi.mzi_output_state.self_s", "mzi.mzi_output_state", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("povm.are_complementary.self_s", "povm.are_complementary", "self_s"),
    ("povm.are_prob_complementary.self_s", "povm.are_prob_complementary", "self_s"),
    ("povm.meet_projections.calls", "povm.meet_projections", "calls"),
    ("povm.eigenspace_one.calls", "povm.eigenspace_one", "calls"),
    ("povm.joint_observable_feasible.self_s", "povm.joint_observable_feasible", "self_s"),
    ("spin.coexist_oracle.self_s", "spin.coexist_oracle", "self_s"),
]

UNITS = {"calls": "count/round", "self_s": "s/round", "errors": "count"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {"setup.import_s": "s", "setup.inputs_s": "s"}
    for m in MODULES:
        for stat in ("calls", "self_s", "errors"):
            units[f"{m}.{stat}"] = UNITS[stat]
    for name, _, stat in SPAN_METRICS:
        units[name] = UNITS[stat]
    units.update({
        "linalg.operator_bytes": "B/round",
        "linalg.max_dim": "count",
        "cli.output_bytes": "B/round",
        "povm.meets_per_decision": "count/decision",
    })
    units["trace.overhead"] = "ratio"
    return units


def per_layer(tracer, rounds: int, counters: dict) -> dict:
    """Span-derived metrics of a traced loop; the set-up and overhead
    figures are added by the caller."""
    spans = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    calls = np.bincount(spans["name"], minlength=n_names)
    self_s = np.bincount(spans["name"], weights=spans["self"], minlength=n_names)
    errors = np.bincount(spans["name"], weights=spans["error"], minlength=n_names)
    by_name = {name: (int(calls[i]), float(self_s[i]), int(errors[i]))
               for i, name in enumerate(names)}
    out = {}
    for m in MODULES:
        rows = [v for name, v in by_name.items() if name.split(".")[0] == m]
        out[f"{m}.calls"] = sum(r[0] for r in rows) / rounds
        out[f"{m}.self_s"] = sum(r[1] for r in rows) / rounds
        out[f"{m}.errors"] = sum(r[2] for r in rows)
    for metric, span, stat in SPAN_METRICS:
        c, s, _ = by_name.get(span, (0, 0.0, 0))
        out[metric] = (c if stat == "calls" else s) / rounds
    out["linalg.operator_bytes"] = tracer.operator_bytes / rounds
    out["linalg.max_dim"] = tracer.max_dim
    out["cli.output_bytes"] = counters["cli.output_bytes"] / rounds
    decisions = (by_name.get("povm.are_complementary", (0,))[0]
                 + by_name.get("povm.are_prob_complementary", (0,))[0])
    meets = by_name.get("povm.meet_projections", (0,))[0]
    out["povm.meets_per_decision"] = meets / decisions if decisions else 0.0
    return out


def case_self_residual(tracer) -> float:
    """Largest |sum of self times in a case - the case span's duration|, in
    seconds: zero up to rounding when every span nests inside its case."""
    spans = tracer.arrays()
    in_case = spans["case"] >= 0
    case_ids = spans["case"][in_case]
    is_root = spans["name"][in_case] == tracer.names.index(CASE_SPAN)
    n_cases = int(case_ids.max()) + 1
    self_sum = np.bincount(case_ids, weights=spans["self"][in_case], minlength=n_cases)
    root_dur = np.zeros(n_cases)
    root_dur[case_ids[is_root]] = spans["dur"][in_case][is_root]
    return float(np.max(np.abs(self_sum - root_dur)))
