"""Finite-grid measurement models: the discrete-readout toy scheme, unsharp
position as a convolution, its state transformer, and the covariant discrete
phase-space observable whose marginals are smeared position and momentum.

The apparatus lives on a cyclic grid (periodic boundary), so the discrete
Fourier pair is exactly unitary and shift covariance is exact; wraparound
artifacts are accepted because no continuum claim is made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Operator, _check_positive_int, _is_int, eigh
from .mzi import number_observable
from .povm import (
    DiscreteObservable,
    MeasurementScheme,
    State,
    StateTransformer,
    _controlled_shift,
    _count_register_scheme,
    _diagonal_observable,
    vector_state,
)

__all__ = [
    "CyclicGrid",
    "ConfidenceFunction",
    "position_observable",
    "toy_discrete_measurement",
    "unsharp_position_observable",
    "position_measurement_scheme",
    "unsharp_position_transformer",
    "weyl_operator",
    "parity_operator",
    "phase_space_observable",
]


def _check_steps(steps):
    if not _is_int(steps):
        raise ValueError(f"steps {steps!r} is not an integer")


@dataclass(frozen=True)
class CyclicGrid:
    """d sites with periodic shifts; the momentum basis is the discrete
    Fourier transform of the position basis."""

    d: int

    def __post_init__(self):
        if not math.isfinite(self.d):
            raise ValueError(f"grid size {self.d} is not finite")
        _check_positive_int(self.d, "grid size")
        if self.d < 2:
            raise ValueError("grid needs at least 2 sites")

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi / self.d)

    def shift(self, steps: int = 1) -> Operator:
        """Cyclic shift |q> -> |q + steps>."""
        _check_steps(steps)
        mat = np.zeros((self.d, self.d), dtype=complex)
        for q in range(self.d):
            mat[(q + steps) % self.d, q] = 1.0
        return Operator(mat)

    def boost(self, steps: int = 1) -> Operator:
        """Diagonal phase |q> -> omega^{q steps} |q>."""
        _check_steps(steps)
        phases = self.omega ** (steps * np.arange(self.d))
        return Operator(np.diag(phases))

    def dft(self) -> Operator:
        """Unitary DFT; its columns are the momentum basis."""
        q = np.arange(self.d)
        return Operator(self.omega ** np.outer(q, q) / np.sqrt(self.d))


@dataclass(frozen=True, eq=False)
class ConfidenceFunction:
    """Nonnegative response weights over grid sites, summing to one: the
    probability of reading site offset y away from the true position."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"confidence weights must be one-dimensional, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"confidence weight {w[~np.isfinite(w)][0]} is not finite")
        if np.any(w < -1e-15):
            raise ValueError("confidence weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"confidence weights sum to {w.sum()}, expected 1")
        w = np.clip(w, 0.0, None)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.weights.size


def position_observable(grid: CyclicGrid) -> DiscreteObservable:
    """Sharp position: the spectral measure of the site number."""
    return number_observable(grid.d)


def toy_discrete_measurement(a: Operator, grid: CyclicGrid,
                             pointer_width: int = 1) -> MeasurementScheme:
    """Readout scheme for an operator with integer eigenvalues: the coupling
    shifts the grid pointer by the eigenvalue, the pointer position is read,
    and sites map back to eigenvalues.

    Requires the shifted pointer supports to be disjoint modulo the grid
    size; the induced observable is then exactly the spectral measure.
    """
    _check_positive_int(pointer_width, "pointer width")
    w, v = eigh(a)
    rounded = np.round(w).astype(int)
    if np.max(np.abs(w - rounded)) > 1e-8:
        raise ValueError("operator eigenvalues are not integers within tolerance")
    d = grid.d
    offsets = [j - (pointer_width - 1) // 2 for j in range(pointer_width)]
    readings = {((val + off) % d, val) for val in rounded.tolist() for off in offsets}
    owner = dict(sorted(readings))  # pointer site -> eigenvalue
    if len(owner) != len(readings):
        raise ValueError(
            "pointer supports overlap on the grid; eigenvalue spacing is too "
            "tight for this pointer width"
        )
    # sum over eigenvalues of P_val (x) X^val: the shift permutation of the
    # rounded eigenvalues, conjugated by the eigenbasis
    basis = np.kron(v, np.eye(d))
    coupling = basis @ basis.conj().T[_controlled_shift(rounded, 1, d)]
    phi = np.zeros(d, dtype=complex)
    for off in offsets:
        phi[off % d] = 1.0 / np.sqrt(pointer_width)
    # a reachable site reads its own eigenvalue; the others carry zero
    # probability and read the nearest reachable site's, to keep the pointer
    # function total
    pointer_function = {
        x: owner[min(owner, key=lambda s: min((x - s) % d, (s - x) % d))] for x in range(d)
    }
    return MeasurementScheme(
        Operator(coupling, (a.dim, d)),
        vector_state(phi),
        position_observable(grid),
        pointer_function,
    )


def unsharp_position_observable(f: ConfidenceFunction,
                                grid: CyclicGrid) -> DiscreteObservable:
    """Smeared position: the effect of reading site x is diagonal with
    weight f((x - q) mod d) at position q."""
    if f.d != grid.d:
        raise ValueError("confidence function does not match the grid")
    d = grid.d
    sites = np.arange(d)
    # row x, diagonal entry q: f((x - q) mod d)
    return _diagonal_observable(range(d), f.weights[(sites[:, None] - sites[None, :]) % d])


def _pointer_amplitudes(phi, grid: CyclicGrid) -> np.ndarray:
    """``phi`` as a normalized, finite amplitude per grid site."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (grid.d,):
        raise ValueError(f"pointer amplitudes of shape {phi.shape} do not match "
                         f"the {grid.d}-site grid")
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"pointer amplitude {phi[~np.isfinite(phi)][0]} is not finite")
    if abs(np.sum(np.abs(phi) ** 2) - 1.0) > 1e-12:
        raise ValueError("pointer amplitudes must be normalized")
    return phi


def position_measurement_scheme(phi, grid: CyclicGrid) -> MeasurementScheme:
    """Position monitoring through a shift coupling: site q shifts the
    pointer by q, the pointer position is read directly.

    The induced observable equals :func:`unsharp_position_observable` with
    f = |phi|^2 exactly (the convolution convention used there absorbs the
    reflection ambiguity).
    """
    d = grid.d
    phi = _pointer_amplitudes(phi, grid)
    return _count_register_scheme(np.eye(d, dtype=complex)[None], (d,), d, (),
                                  vector_state(phi), (), None)


def unsharp_position_transformer(phi, grid: CyclicGrid) -> StateTransformer:
    """State transformer of the shift-coupling position monitoring: one
    operation element per readout site, A_x = diag_q phi((x - q) mod d).

    Compatible with the unsharp position observable built from f = |phi|^2;
    a delta profile reduces to the projective position transformer.
    """
    d = grid.d
    phi = _pointer_amplitudes(phi, grid)
    sites = np.arange(d)
    kraus = np.einsum("xq,qr->xqr", phi[(sites[:, None] - sites[None, :]) % d], np.eye(d))
    return StateTransformer(range(d), kraus[:, None])


def weyl_operator(grid: CyclicGrid, q: int, p: int) -> Operator:
    """Discrete shift-and-boost operator X^q Z^p."""
    return grid.shift(q) @ grid.boost(p)


def parity_operator(grid: CyclicGrid) -> Operator:
    """Site reflection |m> -> |-m mod d>."""
    d = grid.d
    mat = np.zeros((d, d), dtype=complex)
    for m in range(d):
        mat[(-m) % d, m] = 1.0
    return Operator(mat)


def phase_space_observable(t0: State, grid: CyclicGrid) -> DiscreteObservable:
    """Covariant phase-space observable G(q, p) = W(q,p) Pi T0 Pi W(q,p)† / d.

    The parity conjugation fixes the marginal convention: the position
    marginal is the smeared position with confidence f(y) = <y|T0|y>, the
    momentum marginal the smeared momentum with the DFT-diagonal weights
    g(y) = <y~|T0|y~>, both centered on the true value.
    """
    d = grid.d
    if t0.dim != d:
        raise ValueError("seed state does not match the grid")
    pi = parity_operator(grid).mat
    seed = pi @ t0.op.mat @ pi.conj().T
    outcomes = [(q, p) for q in range(d) for p in range(d)]
    weyl = [weyl_operator(grid, q, p).mat for q, p in outcomes]
    return DiscreteObservable(outcomes, [w @ seed @ w.conj().T / d for w in weyl])
