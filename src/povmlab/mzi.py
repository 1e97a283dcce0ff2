"""Two-mode interferometry on truncated Fock space: beam splitters, phase
shifters, Mach-Zehnder detection statistics, the induced single-mode
observables, single-photon path/interference observables, and the expanded
four-detector interferometer.

Conventions
-----------
A beam splitter with transparency eps and phase theta is the unitary
exp(conj(alpha) a x b+ - alpha a+ x b) with alpha = arccos(sqrt(eps))
e^{i theta}; on the single-photon sector it maps |10> to
sqrt(eps)|10> + e^{-i theta} sqrt(1-eps)|01>, which pins the reflected-
amplitude phase. In the composed interferometer the recombining splitter is
traversed in the reverse orientation (its adjoint); with that orientation
the single-photon detection probability obeys the interference law

    eps = e1 e2 + (1-e1)(1-e2) + 2 sqrt(e1(1-e1)e2(1-e2)) cos(t2 - t1 - delta),

which the full-unitary simulation reproduces to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Operator, Vector, _check_positive_int, _exp_minus_i, tensor
from .povm import (
    DiscreteObservable,
    Effect,
    MeasurementScheme,
    State,
    _clamped,
    _count_register_scheme,
    _diagonal_observable,
    _number_observable,
    basis_state,
)

__all__ = [
    "FockSpace",
    "BSParams",
    "MZIParams",
    "annihilation",
    "number",
    "number_observable",
    "beam_splitter",
    "phase_shifter",
    "mzi_unitary",
    "mzi_output_state",
    "detection_probabilities",
    "effective_transparency",
    "induced_mzi_observable",
    "mzi_measurement_scheme",
    "prepared_single_photon",
    "single_photon_observable",
    "fit_single_splitter",
    "expanded_mzi_observable",
    "default_expanded_circuit",
    "hermitian_span_rank",
]


@dataclass(frozen=True)
class FockSpace:
    """Per-mode truncated Fock space; total-photon sectors with N <= nmax
    evolve without truncation error under number-conserving couplings."""

    nmax: int

    def __post_init__(self):
        if not math.isfinite(self.nmax):
            raise ValueError(f"nmax {self.nmax} is not finite")
        _check_positive_int(self.nmax, "nmax")

    @property
    def dim(self) -> int:
        return self.nmax + 1


@dataclass(frozen=True)
class BSParams:
    """Beam-splitter transparency eps in [0, 1] and phase theta."""

    eps: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"transparency {self.eps} outside [0, 1]")
        if not math.isfinite(self.theta):
            raise ValueError(f"splitter phase {self.theta} is not finite")
        object.__setattr__(self, "theta", float(self.theta) % (2 * math.pi))

    @property
    def alpha(self) -> complex:
        """Generator parameter |alpha| e^{i theta}, |alpha| = arccos(sqrt(eps))."""
        return math.acos(math.sqrt(self.eps)) * np.exp(1j * self.theta)


def _check_phase_shift(delta: float):
    if not math.isfinite(delta):
        raise ValueError(f"phase shift {delta} is not finite")


@dataclass(frozen=True)
class MZIParams:
    bs1: BSParams
    bs2: BSParams
    delta: float = 0.0

    def __post_init__(self):
        _check_phase_shift(self.delta)
        object.__setattr__(self, "delta", float(self.delta) % (2 * math.pi))


def annihilation(dim: int) -> Operator:
    """Truncated ladder matrix a|n> = sqrt(n)|n-1>."""
    _check_positive_int(dim, "dim")
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        mat[n - 1, n] = math.sqrt(n)
    return Operator(mat)


def number(dim: int) -> Operator:
    _check_positive_int(dim, "dim")
    return Operator(np.diag(np.arange(dim, dtype=complex)))


def number_observable(dim: int) -> DiscreteObservable:
    """Spectral measure of the number operator."""
    return _number_observable(dim)


def beam_splitter(params: BSParams, space: FockSpace) -> Operator:
    """Two-mode beam-splitter unitary; block diagonal over total photon
    number.

    The generator conj(alpha) a x a+ - alpha a+ x a is filled directly: the
    nonzero entries of a x a+ are sqrt(n1) sqrt(n2 + 1), at row
    (n1 - 1, n2 + 1) and column (n1, n2), and a+ x a is its transpose. The
    entries, and so the unitary, are bit for bit those of the Kronecker
    products and :func:`expm`.

    Each splitter is built once and kept in a memo of the last 16 settings,
    keyed on the pair (``params``, ``space``); a repeated call returns the
    same Operator. The memo is exact: both keys are frozen and checked when
    they are made, the splitter is a pure function of them, and the Operator
    and its matrix are read-only. It holds at most 16 times the largest
    splitter, that is 16 (nmax + 1)^4 complex entries: 27 MB at nmax = 17,
    the CLI's bound at 33 sweep steps."""
    return _beam_splitter(params, space)


@functools.lru_cache(maxsize=16)
def _beam_splitter(params: BSParams, space: FockSpace) -> Operator:
    """The splitter of :func:`beam_splitter`, built from its generator."""
    d = space.dim
    n1, n2 = np.meshgrid(np.arange(1, d), np.arange(d - 1), indexing="ij")
    a_adag = np.zeros((d * d, d * d), dtype=complex)
    a_adag[(n1 - 1) * d + n2 + 1, n1 * d + n2] = np.sqrt(n1) * np.sqrt(n2 + 1)
    alpha = params.alpha
    return Operator(_exp_minus_i(1j * (np.conj(alpha) * a_adag - alpha * a_adag.T)), (d, d))


def phase_shifter(delta: float, space: FockSpace) -> Operator:
    """e^{i delta N} on the first mode, identity on the second: the diagonal
    e^{i delta n1} at index (n1, n2), filled directly."""
    _check_phase_shift(delta)
    d = space.dim
    mat = np.zeros((d * d, d * d), dtype=complex)
    np.fill_diagonal(mat, np.repeat(np.exp(1j * delta * np.arange(d)), d))
    return Operator(mat, (d, d))


def _interferometer_blocks(params: MZIParams, space: FockSpace,
                           phases: np.ndarray) -> np.ndarray:
    """(B2^dagger diag(phases[c]) V) B1, shape (k, dim**2, dim**2), for each
    row c of the (k, dim**2) phase array ``phases``: splitter, phase shift, the
    row's phases (Kerr phases, or a sweep's phase shifts at delta = 0),
    reversed recombiner. All-ones is B2^dagger @ V @ B1 bit for bit."""
    b1 = beam_splitter(params.bs1, space).mat
    b2h = beam_splitter(params.bs2, space).mat.conj().T
    v = phase_shifter(params.delta, space).mat
    return (b2h @ (phases[:, :, None] * v)) @ b1


def mzi_unitary(params: MZIParams, space: FockSpace) -> Operator:
    """Composed interferometer unitary: splitter, phase shift, reversed
    recombiner (see the module conventions)."""
    blocks = _interferometer_blocks(params, space, np.ones((1, space.dim**2)))
    return Operator(blocks[0], (space.dim, space.dim))


def _sweep_columns(bs1: BSParams, bs2: BSParams, deltas, space: FockSpace,
                   column: int) -> np.ndarray:
    """Column ``column`` of the interferometer unitary for each phase shift in
    the sequence ``deltas`` (reduced mod 2 pi, as in :class:`MZIParams`),
    shape (steps, dim**2). Each splitter is built once for the whole sweep.
    The chain is associated as B2^dagger (e^{i delta n1} (B1 e_column)), not
    as the (B2^dagger V) B1 of :func:`_interferometer_blocks`: the splitters
    act on vectors, so no dim**2 x dim**2 product is formed per step."""
    b1 = beam_splitter(bs1, space).mat
    b2h = beam_splitter(bs2, space).mat.conj().T
    reduced = np.mod(np.asarray(deltas, dtype=float), 2 * math.pi)
    phases = np.repeat(np.exp(1j * reduced[:, None] * np.arange(space.dim)), space.dim, axis=1)
    return (phases * b1[:, column]) @ b2h.T


def mzi_output_state(t: State, t_idle: State, params: MZIParams,
                     space: FockSpace) -> State:
    """Two-mode state U (t x t_idle) U^dagger emerging from the interferometer:
    the Schroedinger-picture reference of the one-column sweep in `mzi-scan`."""
    if t.dim != space.dim or t_idle.dim != space.dim:
        raise ValueError("input states do not match the mode dimension")
    u = mzi_unitary(params, space).mat
    out = u @ tensor(t.op, t_idle.op).mat @ u.conj().T
    return State(Operator((out + out.conj().T) / 2, (space.dim, space.dim)))


def detection_probabilities(w: State) -> dict:
    """Photon-count distribution <n1, n2| W |n1, n2> over both detectors,
    clamped as :func:`povmlab.povm.probability` clamps."""
    if w.op.dims is None or len(w.op.dims) != 2:
        raise ValueError("expected a two-mode state with dims metadata")
    diag = np.real(np.diag(w.op.mat)).reshape(w.op.dims).tolist()
    return {(n1, n2): _clamped(p) for n1, row in enumerate(diag) for n2, p in enumerate(row)}


def effective_transparency(params: MZIParams) -> float:
    """Single-splitter transparency equivalent to the whole interferometer."""
    e1, t1 = params.bs1.eps, params.bs1.theta
    e2, t2 = params.bs2.eps, params.bs2.theta
    eps = (
        e1 * e2
        + (1 - e1) * (1 - e2)
        + 2 * math.sqrt(e1 * (1 - e1) * e2 * (1 - e2))
        * math.cos(t2 - t1 - params.delta)
    )
    return min(1.0, max(0.0, eps))


def induced_mzi_observable(params: MZIParams, space: FockSpace) -> DiscreteObservable:
    """Closed-form observable of the single input mode with the idle mode in
    vacuum: the effect of a count pair (n1, n2) is the binomial weight
    C(n1+n2, n1) eps^n1 (1-eps)^n2 on the number state |n1+n2>."""
    eps = effective_transparency(params)
    dim = space.dim
    outcomes = [(n1, n2) for n1 in range(dim) for n2 in range(dim)]
    diagonals = np.zeros((len(outcomes), dim))
    for i, (n1, n2) in enumerate(outcomes):
        total = n1 + n2
        if total < dim:
            diagonals[i, total] = math.comb(total, n1) * eps**n1 * (1 - eps) ** n2
    return _diagonal_observable(outcomes, diagonals)


def mzi_measurement_scheme(params: MZIParams, space: FockSpace) -> MeasurementScheme:
    """The interferometer as a coupling scheme whose induced observable is
    the two-index count observable.

    The apparatus is the idle mode plus a count register; the coupling runs
    the interferometer and then copies the first mode's photon number into
    the register, so a probe-side pointer (idle-mode number x register
    position) reads both counts.
    """
    d = space.dim
    vac = basis_state(0, d)
    pointer_function = {(n2, k): (k, n2) for n2 in range(d) for k in range(d)}
    u = mzi_unitary(params, space)
    return _count_register_scheme(u.mat[None], u.dims, d, (vac,), vac, (number_observable(d),),
                                  pointer_function)


def prepared_single_photon(eps1: float, theta1: float, delta: float) -> Vector:
    """The prepared single-photon two-path state in the {|10>, |01>} basis."""
    MZIParams(BSParams(eps1, theta1), BSParams(1.0), delta)  # names a bad eps1, theta1 or delta
    return Vector(
        [
            math.sqrt(eps1),
            np.exp(-1j * (theta1 + delta)) * math.sqrt(1 - eps1),
        ]
    )


def single_photon_observable(eps2: float, theta2: float = 0.0) -> DiscreteObservable:
    """Sharp observable on the single-photon two-path subspace, basis
    {|10>, |01>}: the (1,0) effect projects onto
    sqrt(eps2)|10> + e^{-i theta2} sqrt(1-eps2)|01>, the (0,1) effect is its
    orthocomplement; all other count pairs carry the zero effect."""
    BSParams(eps2, theta2)  # names a bad parameter
    w = np.array([math.sqrt(eps2), np.exp(-1j * theta2) * math.sqrt(1 - eps2)])
    f10 = np.outer(w, w.conj())
    return DiscreteObservable([(1, 0), (0, 1)], [f10, np.eye(2) - f10])


def fit_single_splitter(params: MZIParams, space: FockSpace) -> tuple[BSParams, Operator]:
    """Recover the single beam splitter equivalent to the interferometer.

    The composed unitary equals a diagonal number phase times one beam
    splitter; the splitter parameters are read off the single-photon block
    and the returned Operator is that splitter's full unitary.
    """
    m = mzi_unitary(params, space).mat
    idx10 = 1 * space.dim + 0
    idx01 = 0 * space.dim + 1
    m00 = m[idx10, idx10]
    m10 = m[idx01, idx10]
    m11 = m[idx01, idx01]
    eps = min(1.0, max(0.0, abs(m00) ** 2))
    theta = float(np.angle(m11) - np.angle(m10)) if abs(m10) > 1e-14 else 0.0
    fitted = BSParams(eps, theta)
    return fitted, beam_splitter(fitted, space)


# --- expanded four-detector interferometer ---------------------------------

# Circuit elements: ("bs", BSParams, (i, j)) for a splitter in the standard
# orientation, ("bsr", BSParams, (i, j)) for the reverse traversal, and
# ("ps", angle, i) for a phase shifter. The observable lives on the
# single-photon sector, so elements compose as 4 x 4 matrices; every mode
# ends at a detector.

_EXPANDED_MODES = 4


def _single_photon_block(params: BSParams) -> np.ndarray:
    eps, theta = params.eps, params.theta
    t = math.sqrt(eps)
    r = math.sqrt(1 - eps)
    return np.array(
        [[t, -r * np.exp(1j * theta)], [r * np.exp(-1j * theta), t]], dtype=complex
    )


def _embed(block: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    i, j = pair
    if i == j or i not in range(_EXPANDED_MODES) or j not in range(_EXPANDED_MODES):
        raise ValueError(f"mode pair {pair!r} is not two distinct modes in "
                         f"0..{_EXPANDED_MODES - 1}")
    u = np.eye(_EXPANDED_MODES, dtype=complex)
    u[i, i], u[i, j] = block[0, 0], block[0, 1]
    u[j, i], u[j, j] = block[1, 0], block[1, 1]
    return u


def default_expanded_circuit(eps2=0.5, theta2=0.0, eps3=0.7, eps4=0.4,
                             gamma=math.pi / 2, tap_recombiner_eps=0.5):
    """Default wiring of the four-detector interferometer on 4 modes.

    Modes 0 and 1 are the interferometer arms (the prepared single-photon
    subspace); modes 2 and 3 are vacuum tap ports. BS(eps4) splits arm 0
    into mode 2 and BS(eps3) splits arm 1 into mode 3; BS(eps2) recombines
    the arms (reverse traversal, as in the plain interferometer) feeding
    detectors 0 and 1, while the tapped beams pick up the relative phase
    gamma and recombine at a second splitter feeding detectors 2 and 3.

    Two recombiners are what makes four detectors informative about two
    different interference quadratures; with ``tap_recombiner_eps=1.0`` the
    tapped beams instead run straight to their detectors and the statistics
    reduce to populations plus a single quadrature.
    """
    return [
        ("bs", BSParams(eps4, 0.0), (0, 2)),
        ("bs", BSParams(eps3, 0.0), (1, 3)),
        ("ps", gamma, 3),
        ("bsr", BSParams(eps2, theta2), (0, 1)),
        ("bsr", BSParams(tap_recombiner_eps, 0.0), (2, 3)),
    ]


def expanded_mzi_observable(circuit=None) -> DiscreteObservable:
    """Four-outcome observable of the expanded interferometer, compressed to
    the prepared single-photon subspace span{mode 0, mode 1}.

    ``circuit`` is a list of elements as produced by
    :func:`default_expanded_circuit`; detector k's effect, k = 0..3, is the
    compression of the composed unitary's mode-k detection projection.
    """
    if circuit is None:
        circuit = default_expanded_circuit()
    u = np.eye(_EXPANDED_MODES, dtype=complex)
    for element in circuit:
        if not isinstance(element, (tuple, list)) or len(element) != 3:
            raise ValueError(f"circuit element {element!r} is not a "
                             "(kind, parameter, modes) triple")
        kind, param, modes = element
        if kind == "bs":
            u = _embed(_single_photon_block(param), modes) @ u
        elif kind == "bsr":
            u = _embed(_single_photon_block(param).conj().T, modes) @ u
        elif kind == "ps":
            if modes not in range(_EXPANDED_MODES):
                raise ValueError(f"phase-shifter mode {modes!r} is not in "
                                 f"0..{_EXPANDED_MODES - 1}")
            if not math.isfinite(param):
                raise ValueError(f"phase-shifter angle {param} is not finite")
            d = np.ones(_EXPANDED_MODES, dtype=complex)
            d[modes] = np.exp(1j * param)
            u = np.diag(d) @ u
        else:
            raise ValueError(f"unknown circuit element kind {kind!r}")
    rows = u[:, :2]
    return DiscreteObservable(range(_EXPANDED_MODES), np.einsum("xi,xj->xij", rows.conj(), rows))


def hermitian_span_rank(effects) -> tuple[int, float]:
    """Rank and smallest singular value of a family of 2x2 effects viewed as
    real vectors in the 4-dimensional space of Hermitian matrices."""
    rows = []
    for e in effects:
        m = e.op.mat if isinstance(e, Effect) else np.asarray(e)
        rows.append(
            [
                m[0, 0].real,
                m[1, 1].real,
                math.sqrt(2) * m[0, 1].real,
                math.sqrt(2) * m[0, 1].imag,
            ]
        )
    svals = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(svals > 1e-10)), float(svals.min())
