"""Workload ``oracle``: every case builds a full-unitary (or full
coupling-scheme) oracle and its closed form and checks that they agree.

Nearly all of the time goes to dense D x D matrices, U^dagger (I x E) U
products and partial traces; this is where a faster compression kernel
shows. Amplitudes, Fock cutoffs and grid sizes are fixed per round so the
cost of a round does not depend on the seed; the seed draws the phases,
couplings and transparencies.
"""

from __future__ import annotations

import math

import numpy as np
from povmlab import kerrqnd, models, mzi, povm

from harness import Case, Verdict, coherent_leakage, effect_gap, observable_health

INDUCED_TOL = 1e-8  # induced effects against their oracle
JOINT_TOL = 1e-9    # compressed joint POVM against its closed form

A_MODE = [(amp, nmax) for amp in (0.5, 1.0, 2.0, 3.0) for nmax in (1, 2)]
A_MODE_BINS = 8
JOINT_AMPS = (0.5, 1.0, 2.0, 3.0, 4.0)
JOINT_BINS = 8
KERR_SCHEME = [(amp, nmax) for amp in (0.5, 1.0) for nmax in (1, 2)]
KERR_SCHEME_BINS = 4
MZI_NMAX = (1, 2, 3, 4)
GRID_SITES = (4, 6, 8, 12, 16)


def _canonical(delta: float):
    half = mzi.BSParams(0.5, math.pi / 2)
    return mzi.MZIParams(half, half, delta)


def _probe(amp: float, phase: float, lam: float, bins: int):
    dim = kerrqnd.coherent_dim(amp)
    return kerrqnd.ProbeConfig(
        kerrqnd.coherent_state(amp * np.exp(1j * phase), dim), lam,
        kerrqnd.truncated_phase_povm(dim, bins),
    )


def _agreement(tol: float, amp: float | None = None):
    """Check for a (closed form, oracle, probe) triple; ``probe`` is the
    coherent probe of amplitude ``amp``, or None."""

    def check(output) -> Verdict:
        got, oracle, probe = output
        gap = effect_gap(got, oracle)
        health = [observable_health(got), observable_health(oracle)]
        diag = {
            "max_completeness_residual": max(h["max_completeness_residual"] for h in health),
            "min_effect_eig": min(h["min_effect_eig"] for h in health),
        }
        if probe is not None:
            diag["max_truncation_leakage"] = coherent_leakage(amp, probe.probe_state.dim)
        if math.isfinite(gap):
            diag["max_oracle_gap"] = gap
        ok = gap <= tol
        return Verdict(ok, diag, "" if ok else f"oracle gap {gap:.3e} > {tol:.0e}")

    return check


def _a_mode_case(amp, nmax, phase, lam, delta) -> Case:
    def run():
        probe = _probe(amp, phase, lam, A_MODE_BINS)
        circuit = kerrqnd.KerrCircuit(_canonical(delta), probe, mzi.FockSpace(nmax))
        return (kerrqnd.induced_a_mode_observable(circuit, method="closed_form"),
                kerrqnd.induced_a_mode_observable(circuit, method="unitary"), probe)

    return Case(f"a_mode_unitary.amp{amp:g}.nmax{nmax}", run, _agreement(INDUCED_TOL, amp))


def _joint_case(amp, phase, lam, eps2, theta2) -> Case:
    def run():
        probe = _probe(amp, phase, lam, JOINT_BINS)
        return (kerrqnd.joint_path_interference_povm(eps2, theta2, probe),
                kerrqnd.joint_povm_compressed(eps2, theta2, probe), probe)

    return Case(f"joint_compressed.amp{amp:g}", run, _agreement(JOINT_TOL, amp))


def _kerr_scheme_case(amp, nmax, phase, lam, delta) -> Case:
    def run():
        probe = _probe(amp, phase, lam, KERR_SCHEME_BINS)
        circuit = kerrqnd.KerrCircuit(_canonical(delta), probe, mzi.FockSpace(nmax))
        return (kerrqnd.induced_a_mode_observable(circuit, method="closed_form"),
                povm.induced_observable(kerrqnd.kerr_measurement_scheme(circuit)), probe)

    return Case(f"kerr_scheme.amp{amp:g}.nmax{nmax}", run, _agreement(INDUCED_TOL, amp))


def _mzi_scheme_case(nmax, eps1, theta1, eps2, theta2, delta) -> Case:
    def run():
        params = mzi.MZIParams(mzi.BSParams(eps1, theta1), mzi.BSParams(eps2, theta2), delta)
        space = mzi.FockSpace(nmax)
        return (mzi.induced_mzi_observable(params, space),
                povm.induced_observable(mzi.mzi_measurement_scheme(params, space)), None)

    return Case(f"mzi_scheme.nmax{nmax}", run, _agreement(INDUCED_TOL))


def _position_case(sites, phi) -> Case:
    def run():
        grid = models.CyclicGrid(sites)
        f = models.ConfidenceFunction(np.abs(phi) ** 2)
        return (models.unsharp_position_observable(f, grid),
                povm.induced_observable(models.position_measurement_scheme(phi, grid)), None)

    return Case(f"position_scheme.d{sites}", run, _agreement(INDUCED_TOL))


class Oracle:
    SETS = 2
    DENSE_KERNEL = True  # host-speed kernel, see calibrate.py

    def build_round(self, seed: int, r: int) -> list[Case]:
        rng = np.random.default_rng([seed, r])

        def angle():
            return float(rng.uniform(0.0, 2 * math.pi))

        def coupling():
            return float(rng.uniform(0.2, 2.5))

        def eps():
            return float(rng.uniform(0.1, 0.9))

        cases = [_a_mode_case(amp, nmax, angle(), coupling(), angle())
                 for amp, nmax in A_MODE]
        cases += [_joint_case(amp, angle(), coupling(), eps(), angle())
                  for amp in JOINT_AMPS for _ in range(2)]
        cases += [_kerr_scheme_case(amp, nmax, angle(), coupling(), angle())
                  for amp, nmax in KERR_SCHEME]
        cases += [_mzi_scheme_case(nmax, eps(), angle(), eps(), angle(), angle())
                  for nmax in MZI_NMAX]
        for sites in GRID_SITES:
            z = rng.standard_normal(sites) + 1j * rng.standard_normal(sites)
            cases.append(_position_case(sites, z / np.linalg.norm(z)))
        return cases
