"""Nondemolition path monitoring of an interferometer with a cross-Kerr
probe: three-mode evolution, probe phase readout, the induced single-mode
observable, and the joint unsharp path/interference POVM with its marginals
and the visibility/confidence tradeoff.

Mode layout is (a, b, c): the two interferometer arms and the probe. The
cross-Kerr element advances the probe phase by lambda per photon in arm b
and commutes with both photon numbers, so it reads the path without
changing the arm photon numbers between the splitters. The detector counts
after the recombiner do change: their interference visibility drops by the
factor |tr[T' e^{i lambda N}]| of the probe state T'. Splitter and
composition conventions are shared with :mod:`povmlab.mzi`; all closed
forms below are locked to the full three-mode unitary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Operator, partial_trace, tensor
from .mzi import (
    BSParams,
    FockSpace,
    MZIParams,
    _interferometer_blocks,
    number_observable,
)
from .povm import (
    DiscreteObservable,
    MeasurementScheme,
    State,
    _compressed_effects,
    _count_register_scheme,
    _product_state,
    basis_state,
    marginal,
    product_observable,
    vector_state,
)
from .spin import _phase_kernels

__all__ = [
    "ProbeConfig",
    "KerrCircuit",
    "kerr_unitary",
    "kerr_phase",
    "coherent_dim",
    "coherent_state",
    "truncated_phase_povm",
    "three_mode_unitary",
    "three_mode_output",
    "detection_statistics",
    "induced_a_mode_observable",
    "joint_path_interference_povm",
    "joint_povm_compressed",
    "interference_visibility",
    "marginal_over_bins",
    "marginal_over_counts",
    "path_confidence",
    "tradeoff_scan",
    "kerr_measurement_scheme",
]

COHERENT_LEAKAGE_BOUND = 1e-8


@dataclass(frozen=True, eq=False)
class ProbeConfig:
    """Probe mode configuration: initial state, Kerr coupling strength
    (radians per photon pair) and readout observable on the probe."""

    probe_state: State
    lam: float
    readout: DiscreteObservable

    def __post_init__(self):
        if self.readout.dim != self.probe_state.dim:
            raise ValueError("readout and probe state dimensions differ")


@dataclass(frozen=True, eq=False)
class KerrCircuit:
    """Interferometer parameters plus probe configuration.

    The closed forms require the canonical setting (both splitters
    semitransparent with theta = pi/2); the full-unitary path works for any
    parameters.
    """

    mzi: MZIParams
    probe: ProbeConfig
    arm_space: FockSpace = field(default_factory=lambda: FockSpace(1))

    @property
    def dims(self) -> tuple[int, int, int]:
        d = self.arm_space.dim
        return (d, d, self.probe.probe_state.dim)

    def is_canonical(self) -> bool:
        p = self.mzi
        return (
            abs(p.bs1.eps - 0.5) <= 1e-12
            and abs(p.bs2.eps - 0.5) <= 1e-12
            and abs(p.bs1.theta - math.pi / 2) <= 1e-12
            and abs(p.bs2.theta - math.pi / 2) <= 1e-12
        )


def kerr_phase(dim: int, lam: float) -> np.ndarray:
    """Entrywise probe phases exp(-i lam (m - n)); multiplying a probe
    matrix by this implements conjugation by e^{-i lam N} exactly on the
    diagonal (number states pick up no spurious roundoff)."""
    n = np.arange(dim)
    return np.exp(-1j * lam * (n[:, None] - n[None, :]))


def kerr_unitary(lam: float, dims: tuple[int, int, int]) -> Operator:
    """Cross-Kerr unitary: diagonal phase e^{-i lam n_b n_c}, identity on
    the first mode; commutes with every mode's photon number."""
    da, db, dc = dims
    nb = np.arange(db)
    nc = np.arange(dc)
    phases = np.exp(-1j * lam * np.outer(nb, nc)).reshape(-1)
    diag = np.kron(np.ones(da), phases)
    return Operator(np.diag(diag), dims)


def coherent_dim(amp: float) -> int:
    """Truncation level meeting the coherent leakage bound for |z| <= 6;
    raises ValueError outside that range and for NaN."""
    r = abs(amp)
    if not r <= 6.0:
        raise ValueError(f"coherent amplitude {amp} outside |z| <= 6")
    return max(16, math.ceil(r**2 + 9 * r + 6))


def coherent_state(z: complex, dim: int | None = None) -> State:
    """Truncated coherent state; raises when the truncation keeps less than
    1 - 1e-8 of the amplitude mass, and for a non-finite z or one whose
    Fock moduli e^(-|z|^2/2) |z|^n overflow."""
    try:
        r = abs(z)
    except OverflowError:  # a finite complex z whose modulus overflows
        r = math.inf
    if dim is None:
        dim = coherent_dim(r)
    if not cmath.isfinite(z):
        raise ValueError(f"coherent amplitude {z} is not finite")
    if not math.isfinite(r * r):
        raise ValueError(f"coherent amplitude {z} overflows the Fock moduli")
    if r == 0.0:
        return basis_state(0, dim)
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    moduli = np.exp(-r**2 / 2 + n * math.log(r) - log_fact / 2)
    amps = moduli * np.exp(1j * np.angle(z) * n)
    kept = float(np.sum(moduli**2))
    if 1.0 - kept > COHERENT_LEAKAGE_BOUND:
        raise ValueError(
            f"coherent truncation leakage {1 - kept:.2e} exceeds "
            f"{COHERENT_LEAKAGE_BOUND:.0e}; increase dim (got {dim})"
        )
    return vector_state(amps / math.sqrt(kept))


def truncated_phase_povm(dim: int, bins) -> DiscreteObservable:
    """Covariant phase observable on Fock levels 0..dim-1, coarse-grained
    over a partition of [0, 2pi].

    ``bins`` is either a bin count (uniform partition) or an explicit list
    of (u, v) intervals, each with 0 <= u <= v <= 2pi, covering [0, 2pi].
    Shift covariance under e^{i a N} holds only approximately near the
    truncation edge; the residual is reported by the tests, not asserted.
    """
    kernels = _phase_kernels(dim, bins)
    return DiscreteObservable(range(len(kernels)), kernels)


def three_mode_unitary(circuit: KerrCircuit) -> Operator:
    """Full circuit unitary on (a, b, c): splitter, phase shift, Kerr
    element, reversed recombiner. Every factor commutes with the probe
    number, so it is the direct sum over probe levels c of the interferometer
    with the Kerr phases e^{-i lam n_b c}."""
    d = circuit.arm_space.dim
    dc = circuit.probe.probe_state.dim
    levels = np.arange(dc)
    n_b = np.arange(d * d) % d  # arm b photon number of each (a, b) index
    kerr = np.exp(-1j * circuit.probe.lam * np.outer(levels, n_b))
    m = np.zeros((d * d, dc, d * d, dc), dtype=complex)
    m[:, levels, :, levels] = _interferometer_blocks(circuit.mzi, circuit.arm_space, kerr)
    return Operator(m.reshape(d * d * dc, d * d * dc), (d, d, dc))


def three_mode_output(t: State, circuit: KerrCircuit) -> State:
    """Output state for input t on mode a, vacuum on b, configured probe.

    The state is taken at the detectors, after the reversed recombiner;
    the arm populations inside the interferometer need the recombiner
    undone (conjugate by the bs2 splitter tensored with the probe
    identity)."""
    d = circuit.arm_space.dim
    if t.dim != d:
        raise ValueError("input state does not match the arm dimension")
    joint = tensor(t.op, basis_state(0, d).op, circuit.probe.probe_state.op)
    m = three_mode_unitary(circuit)
    out = m.mat @ joint.mat @ m.mat.conj().T
    return State(Operator((out + out.conj().T) / 2, circuit.dims))


def detection_statistics(w: State, readout: DiscreteObservable) -> dict:
    """Joint distribution of the a-mode count and the probe readout bin:
    tr[W |n><n| x I x E(bin)]."""
    if w.op.dims is None or len(w.op.dims) != 3:
        raise ValueError("expected a three-mode state with dims metadata")
    da, db, dc = w.op.dims
    out = {}
    for n in range(da):
        block = w.op.mat.reshape(da, db * dc, da, db * dc)[n, :, n, :]
        reduced = Operator(block, (db, dc))
        probe_block = partial_trace(reduced, keep=[1])
        for x, e in readout:
            p = float(np.trace(probe_block.mat @ e.op.mat).real)
            out[(n, x)] = 0.0 if -1e-10 <= p < 0.0 else p
    return out


def _circuit_effects(circuit: KerrCircuit, inputs) -> DiscreteObservable:
    """Observable of the (n, bin) statistics on the span of the arm inputs
    ``inputs`` (flattened (a, b) indices): Tr_bc[(I x T') M+ (P_n x I x E) M]
    on those columns of the full unitary M, with the count n kept as output."""
    da, db, dc = circuit.dims
    u4 = three_mode_unitary(circuit).mat.reshape(da, db * dc, da * db, dc)[:, :, inputs, :]
    readout = circuit.probe.readout
    pointer = np.kron(np.eye(db), readout.mats)  # I_b x E(x), one row per bin
    f = _compressed_effects(u4, circuit.probe.probe_state, pointer)
    outcomes = [(n, x) for n in range(da) for x in readout.outcomes]
    return DiscreteObservable(outcomes, f.reshape(-1, len(inputs), len(inputs)))


def induced_a_mode_observable(circuit: KerrCircuit,
                              method: str = "closed_form") -> DiscreteObservable:
    """Observable of the a-mode input carrying both the count label n and
    the probe readout bin.

    ``method="closed_form"`` evaluates the diagonal operator form (valid in
    the canonical semitransparent setting only): the weight of |N><N| in the
    (n, bin) effect is C(N, n) tr[T' D+ E(bin) D] with
    D = e^{-i N lam N_c / 2} cos^n(Theta) sin^(N-n)(Theta) and
    Theta = (delta I + lam N_c)/2. ``method="unitary"`` computes the same
    effects from the full three-mode unitary and works for any parameters.
    """
    da, db, _ = circuit.dims
    if method == "unitary":
        # b enters in vacuum: the input columns are |a>|0>, a < da
        return _circuit_effects(circuit, [a * db for a in range(da)])
    if method != "closed_form":
        raise ValueError(f"unknown method {method!r}")
    if not circuit.is_canonical():
        raise ValueError(
            "closed form is only asserted in the canonical semitransparent "
            "setting; use method='unitary'"
        )
    lam = circuit.probe.lam
    delta = circuit.mzi.delta
    dc = circuit.probe.probe_state.dim
    tprime = circuit.probe.probe_state.op.mat
    readout = circuit.probe.readout
    k = np.arange(dc)
    theta = (delta + lam * k) / 2.0
    mats = np.zeros((da, len(readout), da, da), dtype=complex)
    for n in range(da):
        for total in range(n, da):
            d_diag = (
                np.exp(-1j * total * lam * k / 2)
                * np.cos(theta) ** n
                * np.sin(theta) ** (total - n)
            )
            # tr[T' D+ E D] for every bin at once
            weighted = tprime * d_diag[:, None] * d_diag.conj()[None, :]
            traces = np.einsum("ij,xji->x", weighted, readout.mats).real
            mats[n, :, total, total] = math.comb(total, n) * traces
    outcomes = [(n, x) for n in range(da) for x in readout.outcomes]
    return DiscreteObservable(outcomes, mats.reshape(-1, da, da))


def joint_path_interference_povm(eps2: float, theta2: float,
                                 probe: ProbeConfig) -> DiscreteObservable:
    """Joint unsharp path/interference POVM on the single-photon two-path
    subspace, basis {|10>, |01>}, outcome labels (n, bin) with n the count
    at the monitored detector.

    Closed form per effect (t = sqrt(eps2 (1-eps2))):

        F(n, X) = [ c_n t0        +/- t e^{i theta2} t0m ]
                  [ +/- t e^{-i theta2} tp0    c'_n t1   ]

    with c_1 = eps2, c'_1 = 1-eps2 (swapped for n = 0), the sign +1 for
    n = 1 and -1 for n = 0, and probe traces t0 = tr[T'E(X)],
    t1 = tr[T' e^{i lam N} E(X) e^{-i lam N}], t0m = tr[T' E(X) e^{-i lam N}],
    tp0 = tr[T' e^{i lam N} E(X)]. Marginalizing the bins yields the smeared
    interference observable; marginalizing n yields the smeared path
    observable, diagonal in the path basis.
    """
    if not 0.0 <= eps2 <= 1.0:
        raise ValueError("transparency outside [0, 1]")
    lam = probe.lam
    dc = probe.probe_state.dim
    tp = probe.probe_state.op.mat
    conj_phase = kerr_phase(dc, lam)  # entry (m, n): e^{-i lam (m - n)}
    minus = np.exp(-1j * lam * np.arange(dc))  # e^{-i lam N} diagonal
    cross = math.sqrt(eps2 * (1 - eps2))
    # tr[W E(X)] = sum_ij W[i, j] E(X)[j, i] for the four weightings W of T'
    weights = np.stack([tp, tp * conj_phase.conj().T, tp * minus[:, None],
                        tp * minus.conj()[None, :]])
    t0, t1, t0m, tp0 = np.einsum("wij,xji->wx", weights, probe.readout.mats)
    upper = cross * np.exp(1j * theta2) * t0m
    lower = cross * np.exp(-1j * theta2) * tp0
    # row-major entries of F(1, X) and F(0, X)
    n1 = np.stack([eps2 * t0.real, upper, lower, (1 - eps2) * t1.real], axis=-1)
    n0 = np.stack([(1 - eps2) * t0.real, -upper, -lower, eps2 * t1.real], axis=-1)
    outcomes = [(n, x) for x in probe.readout.outcomes for n in (1, 0)]
    return DiscreteObservable(outcomes, np.stack([n1, n0], axis=1).reshape(-1, 2, 2))


def joint_povm_compressed(eps2: float, theta2: float,
                          probe: ProbeConfig) -> DiscreteObservable:
    """The same joint POVM computed from the full three-mode measurement
    part (Kerr element then reversed recombiner), compressed to the
    single-photon subspace. Serves as the oracle for the closed form."""
    # a transparent first splitter is exactly the identity; the inputs |10>
    # and |01> are the flattened (a, b) indices 2 and 1
    circuit = KerrCircuit(MZIParams(BSParams(1.0), BSParams(eps2, theta2)), probe)
    return _circuit_effects(circuit, [2, 1])


def interference_visibility(povm: DiscreteObservable) -> float:
    """Peak-to-trough modulation of the monitored-detector probability over
    the preparation phase: twice the off-diagonal magnitude of the n = 1
    marginal effect."""
    m1 = marginal_over_bins(povm).effect_for(1).op.mat
    return 2.0 * float(abs(m1[0, 1]))


def marginal_over_bins(povm: DiscreteObservable) -> DiscreteObservable:
    return marginal(povm, keep=0)


def marginal_over_counts(povm: DiscreteObservable) -> DiscreteObservable:
    return marginal(povm, keep=1)


def path_confidence(povm: DiscreteObservable) -> float:
    """Equal-prior maximum-a-posteriori success probability of identifying
    the traversed arm from the probe readout, 1/2 + 1/4 sum_bins |p_a - p_b|
    over the two conditional bin distributions of the path marginal.

    The total-variation form keeps the no-information cases exact: equal
    conditional distributions give exactly 0.5."""
    path = marginal_over_counts(povm)
    tv = 0.0
    for _, e in path:
        m = e.op.mat
        tv += abs(m[0, 0].real - m[1, 1].real)
    return 0.5 + 0.25 * tv


def tradeoff_scan(amplitudes, lam: float, eps2_values,
                  probe_kind: str = "coherent") -> list[dict]:
    """Visibility/confidence table over coherent amplitudes and recombiner
    transparencies, with an 8-bin phase readout and theta2 = pi/2 (neither
    column depends on theta2). ``probe_kind="number"`` replaces each coherent
    probe by the number state nearest its mean photon number."""
    rows = []
    for amp in amplitudes:
        dim = coherent_dim(amp)
        if probe_kind == "coherent":
            probe_state = coherent_state(amp, dim)
        elif probe_kind == "number":
            probe_state = basis_state(round(abs(amp) ** 2), dim)
        else:
            raise ValueError(f"unknown probe kind {probe_kind!r}")
        readout = truncated_phase_povm(dim, 8)
        probe = ProbeConfig(probe_state, lam, readout)
        for eps2 in eps2_values:
            povm = joint_path_interference_povm(eps2, math.pi / 2, probe)
            rows.append(
                {
                    "amp": float(amp),
                    "lam": float(lam),
                    "eps2": float(eps2),
                    "visibility": interference_visibility(povm),
                    "path_confidence": path_confidence(povm),
                }
            )
    return rows


def kerr_measurement_scheme(circuit: KerrCircuit) -> MeasurementScheme:
    """The Kerr circuit as a coupling scheme: the apparatus is (b, c) plus a
    count register fed by the a-mode number, and the pointer reads (register,
    readout bin). Its induced observable reproduces the (n, bin) effects."""
    da, db, dc = circuit.dims
    dr = da
    probe_state = _product_state(basis_state(0, db), circuit.probe.probe_state,
                                 basis_state(0, dr))
    trivial_b = DiscreteObservable([0], np.eye(db)[None])
    pointer = product_observable(
        product_observable(trivial_b, circuit.probe.readout), number_observable(dr)
    )
    pointer_function = {
        (0, x, k): (k, x) for x in circuit.probe.readout.outcomes for k in range(dr)
    }
    return _count_register_scheme(three_mode_unitary(circuit), dr, probe_state, pointer,
                                  pointer_function)
