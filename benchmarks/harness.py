"""Closed-loop case runner and the metrics computed from its samples.

A workload builds its cases in sets from ``(seed, set index)``; every set
has the same structure (kinds, sizes and count of cases) and only the
continuous parameters change, so the cost of a set barely depends on the
seed. A case's ``run`` calls the program and is timed; its ``check`` reads
the output afterwards, untimed, and returns a :class:`Verdict`. The loop
runs the whole case list in cycles, so every case runs equally often and
the case mix never depends on where the clock stopped; a case's latency is
the mean of its runs, so every run counts, including a first run that
fills caches and runs that pay for garbage collection. Before each run the
loop samples the host's speed (:mod:`calibrate`), and the metrics use each
run's time at the reference speed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import calibrate

# The tail latency has this many cases above it.
TAIL_BEYOND = 10
CASE_SPAN = "bench.case"
# Every case runs at least this often per run.
MIN_CYCLES = 2


@dataclass
class Verdict:
    """Outcome of one case's output check, with the diagnostics it read."""

    ok: bool
    diag: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class Case:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


class Diagnostics:
    """Running extremes of the numerical-health figures read from outputs."""

    MAX_KEYS = ("max_oracle_gap", "max_completeness_residual",
                "max_truncation_leakage", "max_englert_excess")
    MIN_KEYS = ("min_effect_eig",)

    def __init__(self):
        self.values: dict[str, float] = {}

    def add(self, diag: dict):
        for key, value in diag.items():
            value = float(value)
            if key in self.MAX_KEYS:
                self.values[key] = max(self.values.get(key, -math.inf), value)
            elif key in self.MIN_KEYS:
                self.values[key] = min(self.values.get(key, math.inf), value)
            else:
                raise KeyError(f"unknown diagnostic {key!r}")


@dataclass
class LoopResult:
    n_cases: int
    dense_kernel: bool = False                      # see calibrate.py
    runs: list = field(default_factory=list)        # (case index, seconds, kernel seconds)
    failures: list = field(default_factory=list)    # (cycle, kind, note)
    cycles: int = 0
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def attempted(self) -> int:
        return len(self.runs)

    def run_seconds(self, scaled: bool = True) -> list:
        """Each run's time, at the reference speed unless ``scaled`` is false."""
        if not scaled:
            return [dt for _, dt, _ in self.runs]
        factors = calibrate.speed_factors([k for _, _, k in self.runs], self.dense_kernel)
        return [dt * f for (_, dt, _), f in zip(self.runs, factors)]

    def busy_s(self, scaled: bool = True) -> float:
        return float(sum(self.run_seconds(scaled)))

    def latencies(self, scaled: bool = True) -> list:
        """Each case's mean latency over its runs, in seconds."""
        total = [0.0] * self.n_cases
        for (i, _, _), dt in zip(self.runs, self.run_seconds(scaled)):
            total[i] += dt
        return [t / self.cycles for t in total]


def run_case(case: Case, tracer=None, index: int = -1) -> tuple[float, Verdict]:
    """Time one case's program call and check its output. With a tracer the
    call runs inside a root span that carries the case index. A case that
    raises counts as failed."""
    if tracer is not None:
        tracer.case_id = index
        span = tracer.open(tracer.intern(CASE_SPAN))
    t0 = time.perf_counter()
    try:
        output = case.run()
        error = None
    except Exception as exc:
        error = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span, error is None)
        tracer.case_id = -1
    if error is not None:
        return dt, Verdict(False, note=f"{type(error).__name__}: {error}")
    try:
        return dt, case.check(output)
    except Exception as exc:
        return dt, Verdict(False, note=f"check {type(exc).__name__}: {exc}")


def run_cycles(cases: list, *, seconds: float | None = None, cycles: int | None = None,
               tracer=None, dense_kernel: bool = False) -> LoopResult:
    """Run the whole case list again and again: exactly ``cycles`` times, or
    at least MIN_CYCLES times and then while another cycle, as long as the
    last one, still ends within ``seconds``. ``dense_kernel`` picks the
    host-speed kernel (see calibrate.py)."""
    out = LoopResult(len(cases), dense_kernel)
    t_start = time.perf_counter()
    while True:
        if cycles is not None and out.cycles >= cycles:
            break
        t_cycle = time.perf_counter()
        for i, case in enumerate(cases):
            kernel_s = calibrate.sample(dense_kernel)
            dt, verdict = run_case(case, tracer, out.attempted)
            out.runs.append((i, dt, kernel_s))
            out.diagnostics.add(verdict.diag)
            if not verdict.ok:
                out.failures.append((out.cycles, case.kind, verdict.note))
        out.cycles += 1
        now = time.perf_counter()
        if (cycles is None and out.cycles >= MIN_CYCLES
                and now - t_start + (now - t_cycle) > seconds):
            break
    return out


def tail(latencies) -> tuple[float, float, int]:
    """(percentile, value, cases beyond it) at the highest percentile with
    TAIL_BEYOND cases above it: the latency of the (TAIL_BEYOND + 1)-th
    slowest case, which ``numpy.percentile`` returns at that percentile."""
    lat = np.sort(np.asarray(latencies, dtype=float))
    n = lat.size
    rank = max(n - 1 - TAIL_BEYOND, 0)
    value = float(lat[rank])
    return 100.0 * rank / max(n - 1, 1), value, int(np.sum(lat > value))


# --- output checks shared by the workloads ---------------------------------

def observable_health(obs) -> dict:
    """Completeness residual and smallest effect eigenvalue of an observable
    returned by the program."""
    mats = np.array([e.op.mat for e in obs.effects])
    dim = mats.shape[1]
    residual = float(np.max(np.abs(mats.sum(axis=0) - np.eye(dim))))
    min_eig = float(np.linalg.eigvalsh(mats).min())
    return {"max_completeness_residual": residual, "min_effect_eig": min_eig}


def effect_gap(a, b) -> float:
    """Largest entrywise difference between two observables, matched by
    outcome label; infinite when the label sets differ."""
    if set(a.outcomes) != set(b.outcomes):
        return math.inf
    return max(
        float(np.max(np.abs(e.op.mat - b.effect_for(x).op.mat))) for x, e in a
    )


def coherent_leakage(amp: float, dim: int) -> float:
    """Poisson mass of |amp|^2 beyond Fock level dim - 1: the truncation
    leakage of a coherent probe, from its amplitude and dimension."""
    mean = abs(amp) ** 2
    if mean == 0.0:
        return 0.0
    n = np.arange(dim)
    log_p = -mean + n * math.log(mean) - np.array([math.lgamma(k + 1.0) for k in n])
    return max(0.0, 1.0 - float(np.exp(log_p).sum()))
