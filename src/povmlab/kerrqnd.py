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
composition conventions are shared with :mod:`povmlab.mzi`.

Every element of the circuit commutes with the probe photon number, so the
three-mode unitary is the direct sum over probe levels c of the
interferometer with the Kerr phases e^{-i lambda n_b c}. The unitary oracles
compress those level blocks (:mod:`povmlab.povm`) and never form the dense
unitary; :func:`three_mode_unitary` is their dense direct sum. All closed
forms below are locked to these oracles.

The Kerr coupling enters every formula through e^{-i lam n} at integer n
only, so it is reduced mod 2 pi where it enters (:class:`ProbeConfig`,
:func:`kerr_phase`, :func:`tradeoff_scan`), as the splitter phase and the
phase shift are in :mod:`povmlab.mzi`: lam n is then formed from a reduced
coupling, and no coupling overflows it.

The probe traces of the joint POVM are bilinear in the probe record. For a
probe state T' = sum_l q_l |chi_l><chi_l| and phi_l = e^{-i lam N} chi_l,
tr[T' E] = sum_l q_l chi_l† E chi_l, and the other three traces pair chi_l
and phi_l likewise, so all four are read from the Gram blocks V† (E V) of
V = [chi, phi] (:func:`_bilinear_traces`); no weighting of a dense T' is
formed. A pure probe's record is its unit vector, q = [1] and chi = u.

The 8-bin phase readout and e^{-i lam N} on d levels are the leading
d x d sections of those on W >= d levels, so a tradeoff scan builds and
certifies them once, at its widest probe dimension W
(:func:`tradeoff_scan`). A section's entries are the same floats, as the
Toeplitz entries depend on n - m only; its Hermiticity and completeness
residuals are maxima over a subset of the wider readout's lags; and its
enclosure, [0, 1] within d (delta + 64 eps), lies inside the wider one at
every d <= W (Cauchy interlacing bounds its spectrum by the wider one's).
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import (Operator, _check_positive_int, _check_real, _check_type,
                     _hermitian_residual, partial_trace, tensor)
from .mzi import (
    BSParams,
    FockSpace,
    MZIParams,
    _interferometer_blocks,
)
from .povm import (
    DiscreteObservable,
    MeasurementScheme,
    State,
    _basis_vector,
    _check_observables,
    _check_unit_vector,
    _clamped,
    _compress_isometries,
    _count_register_scheme,
    _diagonal_observable,
    _direct_sum,
    _grouped,
    _probe_isometries,
    _recorded_state,
    basis_state,
    marginal,
)
from .spin import _phase_readout, _toeplitz

__all__ = [
    "ProbeConfig",
    "KerrCircuit",
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
    (radians per photon pair, reduced mod 2 pi) and readout observable on
    the probe."""

    probe_state: State
    lam: float
    readout: DiscreteObservable

    def __post_init__(self):
        _check_type(self.probe_state, State, "probe_state")
        _check_type(self.readout, DiscreteObservable, "readout")
        object.__setattr__(self, "lam", _check_real(self.lam, "Kerr coupling") % (2 * math.pi))
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

    def __post_init__(self):
        _check_type(self.mzi, MZIParams, "mzi")
        _check_type(self.probe, ProbeConfig, "probe")
        _check_type(self.arm_space, FockSpace, "arm_space")

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
    diagonal (number states pick up no spurious roundoff). The matrix is
    Toeplitz: its symbol holds the 2 dim - 1 exponentials, one per m - n,
    at lag n - m. ``dim`` must be a positive integer and ``lam`` finite; it
    is reduced mod 2 pi. No part of the library calls it: the probe traces
    are read in bilinear form (:func:`_bilinear_traces`), and it stays as
    the dense reference for them."""
    _check_positive_int(dim, "probe dimension")
    lam = _check_real(lam, "Kerr coupling") % (2 * math.pi)
    return _toeplitz(np.exp(-1j * lam * np.arange(dim - 1, -dim, -1))[None])[0]


def _modulus(z) -> float:
    """|z| of a number z (a bool is not one), inf where it overflows."""
    if not isinstance(z, numbers.Complex) or isinstance(z, (bool, np.bool_)):
        raise ValueError(f"coherent amplitude {z!r} is not a number")
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def coherent_dim(amp: float) -> int:
    """Truncation level meeting the coherent leakage bound for |z| <= 6;
    raises ValueError outside that range, for NaN and for a non-number."""
    r = _modulus(amp)
    if not r <= 6.0:
        raise ValueError(f"coherent amplitude {amp} outside |z| <= 6")
    return max(16, math.ceil(r**2 + 9 * r + 6))


def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n = 0..dim-1, as one cumulative sum of logarithms."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))


# log n! up to the largest coherent_dim, built once and read-only; a
# cumulative sum adds in order, so each prefix is the shorter sum bit for bit
_LOG_FACTORIALS = _log_factorials(coherent_dim(6.0))
_LOG_FACTORIALS.flags.writeable = False


def coherent_state(z: complex, dim: int | None = None) -> State:
    """Truncated coherent state; raises when the truncation keeps less than
    1 - 1e-8 of the amplitude mass, for a z that is not a finite number or
    whose Fock moduli e^(-|z|^2/2) |z|^n overflow, and for a ``dim`` that
    is not a positive integer.

    Its unit vector u is that of :func:`_coherent_vector`, bit for bit, and
    is recorded as the state's eigenvector of eigenvalue 1 (q = [1],
    chi = u): a tradeoff scan reads the probe from u alone, and its traces
    are those of this state's record."""
    u = _coherent_vector(z, dim)
    op = Operator(np.outer(u, u.conj()))
    return _recorded_state(op, u, _hermitian_residual(op.mat[None]))


def _coherent_vector(z: complex, dim: int | None = None) -> np.ndarray:
    """The unit vector of the truncated coherent state, checked as
    :func:`coherent_state` states: its Fock amplitudes divided by the square
    root of the mass the truncation keeps, or e_0 at z = 0."""
    r = _modulus(z)
    if dim is None:
        dim = coherent_dim(r)
    _check_positive_int(dim, "coherent dimension")
    if not cmath.isfinite(z):
        raise ValueError(f"coherent amplitude {z} is not finite")
    if not math.isfinite(r * r):
        raise ValueError(f"coherent amplitude {z} overflows the Fock moduli")
    if r == 0.0:
        return _basis_vector(0, dim)
    n = np.arange(dim)
    log_fact = _LOG_FACTORIALS[:dim] if dim <= len(_LOG_FACTORIALS) else _log_factorials(dim)
    moduli = np.exp(-r**2 / 2 + n * math.log(r) - log_fact / 2)
    if z.imag:
        phases = np.exp(1j * np.angle(z) * n)
    else:  # e^{i pi n} is the exact sign (-1)^n; np.exp is off by up to 1e-14
        phases = (-1.0 if z.real < 0 else 1.0) ** n + 0j
    amps = moduli * phases
    kept = float(np.sum(moduli**2))
    if 1.0 - kept > COHERENT_LEAKAGE_BOUND:
        raise ValueError(
            f"coherent truncation leakage {1 - kept:.2e} exceeds "
            f"{COHERENT_LEAKAGE_BOUND:.0e}; increase dim (got {dim})"
        )
    return amps / math.sqrt(kept)


def truncated_phase_povm(dim: int, bins) -> DiscreteObservable:
    """Covariant phase observable on Fock levels 0..dim-1, coarse-grained
    over a partition of [0, 2pi].

    ``bins`` is either a positive bin count (uniform partition) or an
    explicit list of (u, v) intervals, each with 0 <= u <= v <= 2pi, whose
    effects must sum to the identity; ``dim`` is a positive integer. Each
    effect is the section of the Toeplitz matrix of its interval's
    indicator on those levels, so its spectrum lies in [0, 1] by
    construction and no eigensolver checks it (:mod:`povmlab.povm`). The
    entries depend on level differences only, so at every truncation
    conjugation by e^{-i a N} translates each interval by a (mod 2pi),
    exactly up to rounding. The 2 dim - 1 symbol entries of each interval
    are computed once; the Hermiticity and completeness residuals are read
    from them and recorded, and the dense stack is gathered from them.

    A uniform partition is built once per checked (dim, bins), and at most
    16 readouts of at most 1 MiB each are kept, shared with
    :func:`povmlab.spin.spin_phase_observable`; every call returns a fresh
    observable (:func:`povmlab.spin._phase_readout`).
    """
    return _phase_readout(dim, bins)


def _circuit_blocks(circuit: KerrCircuit) -> np.ndarray:
    """The circuit on the arms (a, b) at each probe level c, shape
    (dc, d**2, d**2): splitter, phase shift, the Kerr phases e^{-i lam n_b c},
    reversed recombiner. Every factor commutes with the probe number, so the
    three-mode unitary is the direct sum of these blocks."""
    d = circuit.arm_space.dim
    levels = np.arange(circuit.probe.probe_state.dim)
    n_b = np.arange(d * d) % d  # arm b photon number of each (a, b) index
    kerr = np.exp(-1j * circuit.probe.lam * np.outer(levels, n_b))
    return _interferometer_blocks(circuit.mzi, circuit.arm_space, kerr)


def three_mode_unitary(circuit: KerrCircuit) -> Operator:
    """Full circuit unitary on (a, b, c): splitter, phase shift, Kerr
    element, reversed recombiner, as the dense direct sum over probe levels c
    of the interferometer with the Kerr phases e^{-i lam n_b c}."""
    return Operator(_direct_sum(_circuit_blocks(circuit)), circuit.dims)


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
    tr[W |n><n| x I x E(bin)], clamped as :func:`povmlab.povm.probability`
    clamps."""
    if w.op.dims is None or len(w.op.dims) != 3:
        raise ValueError("expected a three-mode state with dims metadata")
    da, db, dc = w.op.dims
    out = {}
    for n in range(da):
        block = w.op.mat.reshape(da, db * dc, da, db * dc)[n, :, n, :]
        reduced = Operator(block, (db, dc))
        probe_block = partial_trace(reduced, keep=[1])
        for x, e in readout:
            out[(n, x)] = _clamped(float(np.trace(probe_block.mat @ e.op.mat).real))
    return out


def _circuit_effects(circuit: KerrCircuit, inputs) -> DiscreteObservable:
    """Observable of the (n, bin) statistics on the span of the arm inputs
    ``inputs`` (flattened (a, b) indices): Tr_bc[(I x T') M+ (P_n x I x E) M]
    on those columns of the three-mode unitary M, compressed from its probe
    level blocks, with the count n kept as output."""
    da, db, _ = circuit.dims
    # the output arm b joins the kept index, so the pointer I_b x E(x) is read
    # as E(x) per (n, b) and summed over b; no I_b x E(x) is formed. The probe
    # level c is the only probe factor, so the blocks have no other factor m
    blocks = _circuit_blocks(circuit)[:, :, inputs]
    readout = circuit.probe.readout
    iso = _probe_isometries(blocks[:, :, None, :, None],
                            *circuit.probe.probe_state._spectrum[:2])
    f = _compress_isometries(iso, readout.mats, db)
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
    effects from the three-mode unitary, held as its probe-level blocks, and
    works for any parameters.
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
    n, total = np.triu_indices(da)  # every pair n <= N
    d_diag = (np.exp(-1j * total[:, None] * lam * k / 2) * np.cos(theta) ** n[:, None]
              * np.sin(theta) ** (total - n)[:, None])
    # tr[T' D+ E D] for every pair and bin, with the weights formed transposed
    traces = _readout_traces(tprime.T * d_diag[:, None, :] * d_diag.conj()[:, :, None],
                             readout.mats)
    combs = np.array([math.comb(t, m) for m, t in zip(n.tolist(), total.tolist())])
    diagonals = np.zeros((da, len(readout), da))
    diagonals[n, :, total] = combs[:, None] * traces.real
    outcomes = [(n, x) for n in range(da) for x in readout.outcomes]
    return _diagonal_observable(outcomes, diagonals.reshape(-1, da))


def _readout_traces(weights_t: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """tr[W E(X)] = sum_ji W[i, j] E(X)[j, i] for every weight W and readout
    effect E(X) of the (bins, dc, dc) stack ``mats``, shape (weights, bins),
    given the (k, dc, dc) stack of the transposed weights W^T. That is one
    product of the weights with the readout rows, which are read as a
    (bins, dc**2) matrix."""
    return weights_t.reshape(len(weights_t), -1) @ mats.reshape(len(mats), -1).T


def _probe_traces(probe: ProbeConfig) -> np.ndarray:
    """The probe traces t0, t1, t0m and tp0 of
    :func:`joint_path_interference_povm`, shape (4, bins), read from the
    probe state's spectral record (q, chi) by :func:`_bilinear_traces`. A
    pure state's record is its unit vector, q = [1] and chi = u, so no
    eigensolver runs; any other state's is the one eigh that
    :func:`joint_povm_compressed` runs too."""
    q, chi, _ = probe.probe_state._spectrum
    return _bilinear_traces(q, chi, np.exp(-1j * probe.lam * np.arange(len(chi))),
                            probe.readout.mats)


def _bilinear_traces(q: np.ndarray, chi: np.ndarray, minus: np.ndarray,
                     mats: np.ndarray) -> np.ndarray:
    """The probe traces t0, t1, t0m and tp0, shape (4, bins), of the probe
    T' = sum_l q_l |chi_l><chi_l| (columns chi_l of the (dc, l) ``chi``) with
    phi_l = e^{-i lam N} chi_l, given ``minus``, the diagonal of
    e^{-i lam N}, and the readout stack ``mats``, which may be the leading
    section of a wider one:

        t0 = sum_l q_l chi_l† E(X) chi_l,   t1 = sum_l q_l phi_l† E(X) phi_l,
        t0m = sum_l q_l chi_l† E(X) phi_l,  tp0 = sum_l q_l phi_l† E(X) chi_l,

    the diagonals of the four blocks of the Gram stack V† (E(X) V),
    V = [chi, phi]: two products. For q = [1] every trace is the Gram entry
    itself."""
    bins, r = len(mats), len(q)
    v = np.concatenate([chi, minus[:, None] * chi], axis=1)
    gram = (v.conj().T @ (mats @ v)).reshape(bins, 2, r, 2, r)
    # the diagonals of the (chi, phi) blocks, weighted by q and summed over l
    blocks = gram.diagonal(0, 2, 4) @ q
    return blocks.reshape(bins, 4).T[[0, 3, 1, 2]]


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
    BSParams(eps2, theta2)  # names a bad parameter
    f = _joint_effects(np.array([eps2], dtype=float), theta2, _probe_traces(probe))
    outcomes = [(n, x) for x in probe.readout.outcomes for n in (1, 0)]
    return DiscreteObservable(outcomes, f.reshape(-1, 2, 2))


def _joint_effects(eps2: np.ndarray, theta2: float, traces: np.ndarray) -> np.ndarray:
    """The effects F(n, X) of :func:`joint_path_interference_povm` for every
    transparency in ``eps2``, from the probe traces of :func:`_probe_traces`,
    one (4, bins) set or a (..., 4, bins) stack of them: shape
    (..., len(eps2), bins, 2, 2, 2), with n = 1 before n = 0 in each bin.
    Every step is elementwise, so each entry is the same float for a stack
    as for its sets one at a time."""
    t0, t1, t0m, tp0 = (traces[..., None, k, :] for k in range(4))  # (..., 1, bins) each
    e = eps2[:, None]
    cross = np.sqrt(e * (1 - e))
    upper = cross * np.exp(1j * theta2) * t0m
    lower = cross * np.exp(-1j * theta2) * tp0
    # row-major entries of F(1, X) and F(0, X)
    n1 = np.stack([e * t0.real, upper, lower, (1 - e) * t1.real], axis=-1)
    n0 = np.stack([(1 - e) * t0.real, -upper, -lower, e * t1.real], axis=-1)
    return np.stack([n1, n0], axis=-2).reshape(n1.shape[:-1] + (2, 2, 2))


def joint_povm_compressed(eps2: float, theta2: float,
                          probe: ProbeConfig) -> DiscreteObservable:
    """The same joint POVM computed from the three-mode measurement part
    (Kerr element then reversed recombiner), held as its probe-level blocks
    and compressed to the single-photon subspace. Serves as the oracle for
    the closed form."""
    # a transparent first splitter is exactly the identity; the inputs |10>
    # and |01> are the flattened (a, b) indices 2 and 1
    circuit = KerrCircuit(MZIParams(BSParams(1.0), BSParams(eps2, theta2)), probe)
    return _circuit_effects(circuit, [2, 1])


def interference_visibility(povm: DiscreteObservable) -> float:
    """Peak-to-trough modulation of the monitored-detector probability over
    the preparation phase: twice the off-diagonal magnitude of the n = 1
    marginal effect."""
    return _visibility(marginal_over_bins(povm).effect_for(1).op.mat)


def _visibility(m1: np.ndarray) -> float:
    """Twice the off-diagonal magnitude of the n = 1 marginal effect m1."""
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
    return float(_path_confidences(marginal_over_counts(povm).mats))


def _path_confidences(path: np.ndarray) -> np.ndarray:
    """:func:`path_confidence` of each path marginal in a (..., bins, 2, 2)
    stack, its bins in outcome order, summed one after another."""
    gaps = np.abs(path[..., 0, 0].real - path[..., 1, 1].real)
    return 0.5 + 0.25 * np.cumsum(gaps, axis=-1)[..., -1]


def tradeoff_scan(amplitudes, lam: float, eps2_values,
                  probe_kind: str = "coherent") -> list[dict]:
    """Visibility/confidence table over coherent amplitudes and recombiner
    transparencies, with an 8-bin phase readout and theta2 = pi/2 (neither
    column depends on theta2). ``probe_kind="number"`` replaces each coherent
    probe by the number state nearest its mean photon number.

    The probe kind, lam, each eps2 and each (real) amplitude are checked before
    any probe is built. The rows record lam as given; the probes read it
    reduced mod 2 pi, as :class:`ProbeConfig` holds it. The rows depend on
    |amp| only: the coherent probe at -a is e^{i pi N} applied to the one at
    a, which maps the eight bins onto one another. So each probe is built at
    |amp|, and the rows at -a and a are the same floats.

    One 8-bin readout and the diagonal of e^{-i lam N} are read per call,
    at the widest probe dimension W; the readout is built and certified
    there once per W (:func:`truncated_phase_povm`). Each amplitude's probe
    reads their leading dim x dim sections, and the one certification
    covers every section:

    - entries: each entry of the two depends on n - m, or on the level,
      alone (Holevo 1982; :func:`povmlab.spin._phase_symbols`), so a section
      is its dim-level form bit for bit, :func:`truncated_phase_povm`
      (dim, 8) included;
    - residuals: a section's Hermiticity and completeness residuals are
      maxima over its lags |n - m| < dim, a subset of the widest readout's;
    - enclosure: a section's, [0, 1] within dim (delta + 64 eps), lies
      inside the widest readout's at every dim <= W (``povm`` module
      docstring), and by Cauchy interlacing so does its spectrum.

    Each amplitude's probe is its unit vector u: the one
    :func:`coherent_state` records (:func:`_coherent_vector`), or e_k for a
    number probe. No State is built. Its traces t0, t1, t0m and tp0
    (:func:`joint_path_interference_povm`) are u† E(X) u, phi† E(X) phi,
    u† E(X) phi and phi† E(X) u with phi = e^{-i lam N} u, read by the
    kernel that reads them for the joint POVM (:func:`_bilinear_traces`,
    on the record q = [1], chi = u, one amplitude at a time and on the same
    shapes), and one :func:`_joint_effects` call forms every amplitude's
    eps2 rows. No check is lost: the state check of u u† is made on u,
    which must be finite with |u|^2 = 1 within the trace bound 1e-10, as
    u u† is Hermitian and positive by construction
    (:func:`povmlab.povm._check_unit_vector`), and the leakage bound is
    checked where u is built. In closed form
    D = 2 path_confidence - 1 = 1/2 sum_X |t0(X) - t1(X)| and
    V = 2 sqrt(eps2 (1 - eps2)) |sum_X t0m(X)|; both are summed in the order
    of :func:`path_confidence` and :func:`interference_visibility`, so each
    row is theirs on the joint POVM bit for bit. Every eps2 row is an
    observable: tp0 is the conjugate of t0m, so
    det F(n, X) = eps2 (1 - eps2) (t0 t1 - |t0m|^2) >= 0 by Cauchy-Schwarz
    (E(X) >= 0), and sum_X E(X) = I with tr T' = 1 gives completeness. The
    rows are still checked, by the same checks the joint POVM and its two
    marginals run, each batched over every amplitude and eps2 of the call
    (:func:`povmlab.povm._check_observables`); their 2 x 2 spectra are
    enclosed in closed form, and only a slice that the enclosure does not
    clear is diagonalised."""
    if probe_kind not in ("coherent", "number"):
        raise ValueError(f"unknown probe kind {probe_kind!r}")
    lam = _check_real(lam, "Kerr coupling")
    eps2_values = list(eps2_values)
    for e in eps2_values:
        BSParams(e)  # names a bad transparency
    amplitudes = list(amplitudes)
    dims = [coherent_dim(_check_real(a, "coherent amplitude", finite=False)) for a in amplitudes]
    if not (eps2_values and amplitudes):
        return []
    widest = max(dims)
    readout = truncated_phase_povm(widest, 8)
    minus = np.exp(-1j * (lam % (2 * math.pi)) * np.arange(widest))
    pure = np.ones(1)
    traces = []
    for amp, dim in zip(amplitudes, dims):
        r = abs(amp)
        u = _coherent_vector(r, dim) if probe_kind == "coherent" else _basis_vector(round(r**2), dim)
        _check_unit_vector(u)
        traces.append(_bilinear_traces(pure, u[:, None], minus[:dim], readout.mats[:, :dim, :dim]))
    eps2 = np.array(eps2_values, dtype=float)
    joint = _joint_effects(eps2, math.pi / 2, np.stack(traces))
    joint = joint.reshape(len(amplitudes) * len(eps2), -1, 2, 2)
    # the marginals summed by marginal()'s rule, for every amplitude and eps2 at once
    outcomes = [(n, x) for x in readout.outcomes for n in (1, 0)]
    _, by_count = _grouped([n for n, _ in outcomes], joint)
    _, by_bin = _grouped([x for _, x in outcomes], joint)
    for stack in (joint, by_count, by_bin):
        _check_observables(stack)
    return [{"amp": float(amp), "lam": lam, "eps2": float(e), "visibility": _visibility(m1),
             "path_confidence": confidence}
            for (amp, e), m1, confidence in zip(itertools.product(amplitudes, eps2_values),
                                                by_count[:, 1], _path_confidences(by_bin).tolist())]


def kerr_measurement_scheme(circuit: KerrCircuit) -> MeasurementScheme:
    """The Kerr circuit as a coupling scheme: the apparatus is (b, c) plus a
    count register fed by the a-mode number, and the pointer reads (register,
    readout bin). Its induced observable reproduces the (n, bin) effects.

    Arm b starts in vacuum and is not read, so the pointer reads it by the
    trivial observable, outcome 0: the scheme keeps b and the probe as
    separate factors, and the induction forms neither I_b x E nor
    |0><0|_b x T' (:mod:`povmlab.povm`)."""
    da, db, _ = circuit.dims
    readout = circuit.probe.readout
    pointer_function = {(0, x, k): (k, x) for x in readout.outcomes for k in range(da)}
    return _count_register_scheme(_circuit_blocks(circuit), circuit.dims, da,
                                  (basis_state(0, db), circuit.probe.probe_state),
                                  basis_state(0, da), (None, readout), pointer_function)
