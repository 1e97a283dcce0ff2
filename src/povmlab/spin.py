"""Unsharp spin-1/2 effects, the geometric coexistence criterion with its
ball-intersection oracle, the explicit joint observable for coexistent
pairs, and the covariant spin-phase POVM for arbitrary spin.

A spin space has at most 2s + 1 <= 1024 levels: a phase effect there is a
16 MiB dense matrix, and the enclosure that certifies it (``povm`` module
docstring) still clears the effect bounds by a factor of six.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .linalg import Operator, _check_positive_int, _check_real, _is_int, _is_real
from .povm import (
    _CHECK_SLICE_BYTES,
    _EIG_ROUNDING,
    DiscreteObservable,
    Effect,
    _enclosed_observable,
    effect,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "spin_effect",
    "spin_observable",
    "coexist_criterion",
    "criterion_value",
    "coexist_oracle",
    "joint_spin_observable",
    "SpinPhaseSpace",
    "s3_operator",
    "spin_phase_effect",
    "spin_phase_observable",
    "spin_phase_covariance_residual",
    "spin_phase_first_moment",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

# Positivity of the joint observable degenerates exactly on the boundary of
# the coexistence region, so the <= 2 comparison gets a strict 1e-12 slack.
BOUNDARY_TOL = 1e-12

# The largest spin dimension 2s + 1 (module docstring).
_MAX_SPIN_DIM = 1024

# Bound on the rounding error of each entry that _phase_symbols computes. An
# off-diagonal entry rounds k v, two complex exponentials, their difference,
# 2 pi k and the quotient, about 4 eps in all for |u|, |v| <= 2 pi; this is
# twice that. The largest error measured against 200-bit arithmetic, up to
# dim 401, was 0.64 eps.
_TOEPLITZ_ENTRY_ERROR = 8 * np.finfo(float).eps


def _bloch(a) -> np.ndarray:
    """``a`` as an array of three finite floats of norm at most 1, within
    ``BOUNDARY_TOL``; raise ``ValueError`` naming the vector otherwise. The
    array of ``a`` must have a real numeric dtype: a complex, bool or string
    array is rejected before any conversion, and so is an object array, as
    numpy makes of an int too large for a float. An ``a`` that is not an
    array must hold no bool or numpy bool, which numpy would read as 0 or 1
    among numbers; an array is read as it is."""
    try:
        arr = np.asarray(a)
    except ValueError:  # a ragged nesting, which numpy cannot shape
        arr = np.empty(0)
    if (arr.dtype.kind not in "fiu" or arr.size != 3
            or arr is not a and any(np.asarray(x).dtype.kind == "b"
                                    for x in np.asarray(a, dtype=object).flat)):
        raise ValueError(f"Bloch vector {a!r} is not three real numbers in float range")
    a = arr.astype(float, copy=False).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"Bloch vector {a} has non-finite components")
    if np.linalg.norm(a) > 1.0 + BOUNDARY_TOL:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(a)} exceeds 1")
    return a


def _qubit_matrices(t, b) -> np.ndarray:
    """The (k, 2, 2) stack of (t_i I + b_i·sigma)/2 over the k weights t and
    the rows b_i of the (k, 3) array b."""
    t, b = np.asarray(t, dtype=float), np.asarray(b, dtype=float)
    return (t[:, None, None] * np.eye(2, dtype=complex)
            + sum(b[:, i, None, None] * s for i, s in enumerate(_PAULI))) / 2


def spin_effect(a) -> Effect:
    """The unsharp spin property (I + a·sigma)/2; a projection iff |a| = 1."""
    return effect(_qubit_matrices([1.0], [_bloch(a)])[0])


def spin_observable(a) -> DiscreteObservable:
    """Two-valued observable {+1: F(a), -1: F(-a)}, checked once as a stack."""
    a = _bloch(a)
    return DiscreteObservable([+1, -1], _qubit_matrices([1.0, 1.0], [a, -a]))


def criterion_value(a1, a2) -> float:
    a1, a2 = _bloch(a1), _bloch(a2)
    return float(np.linalg.norm(a1 + a2) + np.linalg.norm(a1 - a2))


def coexist_criterion(a1, a2) -> bool:
    """Exact coexistence criterion: |a1+a2| + |a1-a2| <= 2."""
    return criterion_value(a1, a2) <= 2.0 + BOUNDARY_TOL


def coexist_oracle(a1, a2) -> bool:
    """Ball-intersection coexistence oracle, independent of the algebraic
    criterion: the pair coexists iff some point c lies in
    S(a1, 1-gamma) ∩ S(a2, 1-gamma) ∩ S(a1+a2, gamma) ∩ S(0, gamma)
    for some gamma in [0, 1], that is iff the largest ball violation
    g(c, gamma) = max(|c-a1| - (1-gamma), |c-a2| - (1-gamma),
    |c-a1-a2| - gamma, |c| - gamma) is <= 0 somewhere.

    g is convex in (c, gamma), a maximum of norms minus affine radii, and
    the reflection c -> a1 + a2 - c swaps the balls in pairs and leaves it
    unchanged. So the midpoint c0 = (a1+a2)/2 minimises it at every gamma:
    g(c0, gamma) <= (g(c, gamma) + g(a1 + a2 - c, gamma)) / 2 = g(c, gamma).
    At c0 the violation is the larger of |a1-a2|/2 - (1-gamma) and
    |c0| - gamma; they meet at gamma0 = (1 + |c0| - |a1-a2|/2)/2, which lies
    in [0, 1], with the common value (criterion - 2)/4. So the witness
    w = g(c0, gamma0) decides alone, with the criterion's slack on the
    criterion's scale: 2 + 4w <= 2 + BOUNDARY_TOL. The two verdicts can
    differ only where rounding moves 2 + 4w across that threshold by one
    unit in the last place.
    """
    a1, a2 = _bloch(a1), _bloch(a2)
    c0 = (a1 + a2) / 2.0
    gamma0 = (1.0 + float(np.linalg.norm(c0)) - float(np.linalg.norm(a1 - a2)) / 2.0) / 2.0
    witness = max(
        np.linalg.norm(c0 - a1) - (1.0 - gamma0),
        np.linalg.norm(c0 - a2) - (1.0 - gamma0),
        np.linalg.norm(c0 - (a1 + a2)) - gamma0,
        np.linalg.norm(c0) - gamma0,
    )
    return bool(2.0 + 4.0 * witness <= 2.0 + BOUNDARY_TOL)


def joint_spin_observable(a1, a2) -> DiscreteObservable:
    """Joint observable for a coexistent pair of unsharp spin properties.

    The four effects are G(i,k) = alpha_ik F((a_i + a_k) / (2 alpha_ik))
    with alpha_ik = (1 + a_i·a_k)/2 over a_i in {a1, -a1}, a_k in {a2, -a2};
    marginals reproduce the two spin observables exactly, and the zero
    operator stands in when alpha_ik vanishes (antipodal sharp vectors).
    """
    a1, a2 = _bloch(a1), _bloch(a2)
    if not coexist_criterion(a1, a2):
        raise ValueError("pair fails the coexistence criterion; no joint observable")
    outcomes, alphas, centres = [], [], []
    for s1, ai in ((+1, a1), (-1, -a1)):
        for s2, ak in ((+1, a2), (-1, -a2)):
            outcomes.append((s1, s2))
            alphas.append((1.0 + float(ai @ ak)) / 2.0)
            centres.append((ai + ak) / 2.0)
    return DiscreteObservable(outcomes, _qubit_matrices(alphas, centres))


@dataclass(frozen=True)
class SpinPhaseSpace:
    """Spin-s Hilbert space C^(2s+1), basis ordered by m ascending (-s first)."""

    s: float

    def __post_init__(self):
        if not _is_int(self.s):  # an integer spin of any size meets the ceiling test
            _check_real(self.s, "spin")
        if not 2 * self.s + 1 <= _MAX_SPIN_DIM:
            raise ValueError(f"spin {self.s} exceeds the ceiling 2s + 1 <= {_MAX_SPIN_DIM}")
        two_s = round(2 * self.s) if self.s > 0 else 0  # round(-inf) overflows
        if abs(2 * self.s - two_s) > 1e-12 or two_s < 1:
            raise ValueError(f"spin must be a positive half-integer, got {self.s}")

    @property
    def dim(self) -> int:
        return round(2 * self.s) + 1

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim) - self.s


def s3_operator(space: SpinPhaseSpace) -> Operator:
    return Operator(np.diag(space.m_values.astype(complex)))


def _interval(item) -> tuple[float, float]:
    """The (u, v) of one item of an interval list; raise ``ValueError``
    naming the item unless it is a pair of real numbers."""
    pair = tuple(item) if isinstance(item, Iterable) and not isinstance(item, (str, bytes)) else ()
    if len(pair) != 2 or not all(_is_real(x) for x in pair):
        raise ValueError(f"interval {item!r} is not a (u, v) pair of real numbers")
    return tuple(_check_real(x, "interval bound", finite=False) for x in pair)


def _bin_count(bins) -> int | None:
    """The checked bin count of ``bins``, or None for an interval list: a
    bin count must be a positive integer, and a string is neither. A 0-d
    array cannot be iterated, so it is read as a bin count."""
    if isinstance(bins, (str, bytes)):
        raise ValueError(f"bins {bins!r} is neither a bin count nor a list of (u, v) intervals")
    if not isinstance(bins, Iterable) or getattr(bins, "ndim", None) == 0:
        return _check_positive_int(bins, "bin count")
    return None


def _phase_intervals(bins) -> list[tuple[float, float]] | np.ndarray:
    """The intervals of ``bins``: a bin count (:func:`_bin_count`) is the
    uniform partition of [0, 2pi], and a list of (u, v) pairs of real
    numbers must have 0 <= u <= v <= 2pi each. A (k, 2) float64 array is
    checked by one vectorized test and returned as it is."""
    count = _bin_count(bins)
    if count is not None:
        edges = np.linspace(0.0, 2 * np.pi, count + 1).tolist()
        return list(zip(edges[:-1], edges[1:]))
    if isinstance(bins, np.ndarray) and bins.dtype == float and bins.shape[1:] == (2,):
        u, v = bins.T
        ok = (0.0 <= u) & (u <= v) & (v <= 2 * np.pi + 1e-12)  # False at a NaN
        intervals, checked = bins, ([] if ok.all() else [bins[np.argmin(ok)].tolist()])
    else:
        intervals = checked = [_interval(item) for item in bins]
    for u, v in checked:
        if not 0.0 <= u <= v <= 2 * np.pi + 1e-12:
            raise ValueError(f"malformed interval [{u}, {v}]; need 0 <= u <= v <= 2pi")
    return intervals


def _phase_symbols(dim: int, bins) -> np.ndarray:
    """The (k, 2 dim - 1) symbols of the phase effects of the intervals of
    ``bins`` on the levels 0..dim-1: column j + dim - 1 is c(j), j = n - m.

    Entry (m, n) of the effect of [u, v] is the integral of
    e^{i(n-m)alpha}/2pi over [u, v]; it depends on n - m only, so each effect
    is a Toeplitz matrix with 2 dim - 1 distinct entries (Holevo 1982), all
    evaluated here in one array expression; a full circle is the exact
    identity. The exponentials are taken once per distinct edge, so an edge
    that two intervals share, as in a partition, is evaluated once.
    ``dim`` must be a positive integer."""
    _check_positive_int(dim, "phase dimension")
    intervals = np.asarray(_phase_intervals(bins), dtype=float).reshape(-1, 2)
    k = np.arange(1 - dim, dim, dtype=float)  # n - m
    edges, at = np.unique(intervals, return_inverse=True)
    ends = np.exp(1j * k * edges[:, None])[at.reshape(-1)]  # rows u_0, v_0, u_1, ...
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = (ends[1::2] - ends[0::2]) / (2j * np.pi * k)
    width = intervals[:, 1] - intervals[:, 0]
    entries[:, dim - 1] = width / (2 * np.pi)
    entries[width >= 2 * np.pi * (1 - 1e-15)] = k == 0
    return entries


def _toeplitz_view(symbols: np.ndarray) -> np.ndarray:
    """The (k, dim, dim) stack [c(n - m)] of (k, 2 dim - 1) symbols as a
    read-only strided view: row m is the window of symbols at lags
    -m..dim-1-m, which starts at index dim - 1 - m, one entry before row
    m - 1's."""
    k, width = symbols.shape
    dim = (width + 1) // 2
    step, lag = symbols.strides
    return as_strided(symbols[:, dim - 1:], (k, dim, dim), (step, -lag, lag), writeable=False)


def _toeplitz(symbols: np.ndarray) -> np.ndarray:
    """A fresh copy of :func:`_toeplitz_view`."""
    return _toeplitz_view(symbols).copy()


def _prolate_enclosure(symbols: np.ndarray, intervals: np.ndarray):
    """The enclosure of the phase effects of the (k, 2 dim - 1) ``symbols``
    of the checked (k, 2) float ``intervals``, as ``povm._check_effects``
    takes it: the (k, 2) computed eigenvalue ranges of the real prolate
    matrices K_w (``povm`` module docstring), the margin within which they
    enclose each effect's spectrum, and the (k,) Hermiticity residuals read
    from the symbols.

    One stacked real eigvalsh runs per slice of ``povm._CHECK_SLICE_BYTES``
    of the K_w of the distinct float widths w = v - u; a full circle is the
    exact identity, as in :func:`_phase_symbols`. The margin is
    (2 dim - 1) (r + 8 eps) + 2 * 64 dim eps, with r the largest lag residual
    |c(j) - e^{ij phi} k_w(j)|, phi = (u + v)/2. Computing r rounds by about
    4 eps per lag, and the 8 eps of ``_TOEPLITZ_ENTRY_ERROR`` cover it: the
    error of j phi grows with |j|, but |k_w(j)| <= 1/(pi |j|) cancels it.
    The residuals are read a slice of ``povm._CHECK_SLICE_BYTES`` of symbols
    at a time."""
    k, width = symbols.shape
    dim = (width + 1) // 2
    intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
    lags = np.arange(1 - dim, dim)
    widths, at = np.unique(intervals[:, 1] - intervals[:, 0], return_inverse=True)
    at = at.reshape(-1)
    taps = np.empty((len(widths), width))  # row i is k_w at lags 1-dim..dim-1, w = widths[i]
    taps[:, dim:] = np.sin(np.outer(widths / 2, lags[dim:])) / (np.pi * lags[dim:])
    taps[:, :dim - 1] = taps[:, dim:][:, ::-1]  # k_w is even
    taps[:, dim - 1] = widths / (2 * np.pi)
    taps[widths >= 2 * np.pi * (1 - 1e-15)] = lags == 0
    step = max(1, _CHECK_SLICE_BYTES // (taps.itemsize * dim * dim))
    ranges = np.concatenate([np.linalg.eigvalsh(_toeplitz(taps[start:start + step]))[:, [0, -1]]
                             for start in range(0, len(taps), step)])[at]
    step = max(1, _CHECK_SLICE_BYTES // (symbols.itemsize * width))
    residual, hermitian = 0.0, np.empty(k)
    for start in range(0, k, step):
        rows = symbols[start:start + step]
        phi = intervals[start:start + step].sum(axis=1) / 2
        modulated = np.exp(1j * np.outer(phi, lags)) * taps[at[start:start + step]]
        residual = max(residual, float(np.abs(rows - modulated).max()))
        hermitian[start:start + step] = np.abs(rows - rows[:, ::-1].conj()).max(axis=1)
    margin = width * (residual + _TOEPLITZ_ENTRY_ERROR) + 2 * dim * _EIG_ROUNDING
    return ranges, margin, hermitian


def _phase_kernels(dim: int, bins) -> np.ndarray:
    """Unchecked (k, dim, dim) stack of the phase effects of the intervals of
    ``bins`` on the levels 0..dim-1, gathered from their symbols
    (:func:`_phase_symbols`). As the entries read only level differences,
    the stack is bit for bit the one on the spin levels -s..s."""
    return _toeplitz(_phase_symbols(dim, bins))


def _phase_observable(symbols: np.ndarray) -> DiscreteObservable:
    """The phase effects of the (k, 2 dim - 1) symbols of
    :func:`_phase_symbols` as an observable on the levels 0..dim-1,
    certified by the enclosure [0, 1] of Toeplitz sections, widened by
    dim (delta + 64 eps) (``povm`` module docstring): no eigvalsh runs
    unless that misses the effect bounds.

    Both entrywise checks are read from the symbols: entry (m, n) of X - X†
    is c(j) - conj(c(-j)) and entry (m, n) of sum_x X_x - I is
    sum_x c_x(j) - [j = 0], for j = n - m, and every j in (-dim, dim) occurs,
    so the largest entries over 2 dim - 1 lags are those over dim^2
    entries."""
    dim = (symbols.shape[1] + 1) // 2
    hermitian = np.max(np.abs(symbols - symbols[:, ::-1].conj()), axis=1)
    completeness = np.max(np.abs(symbols.sum(axis=0) - (np.arange(1 - dim, dim) == 0)))
    enclosure = np.tile([0.0, 1.0], (len(symbols), 1))
    return _enclosed_observable(range(len(symbols)), _toeplitz(symbols), enclosure,
                                dim * (_TOEPLITZ_ENTRY_ERROR + _EIG_ROUNDING),
                                hermitian, completeness)


# The most complex entries, bins * dim^2, of a readout that _phase_readout
# keeps: 1 MiB, an 8-bin readout up to dim 90.
_READOUT_MEMO_ENTRIES = 1 << 16


def _phase_readout(dim, bins) -> DiscreteObservable:
    """The observable of :func:`_phase_observable` for the intervals of
    ``bins`` on the levels 0..dim-1. ``dim`` and ``bins`` are checked on
    every call, before the memo is read, so 16.0 is rejected even where 16
    is kept. A uniform partition of at most ``_READOUT_MEMO_ENTRIES`` is
    built once per checked (dim, bins) and the last 16 are kept: at most
    16 MiB. Each call returns a fresh observable over the kept read-only
    arrays, so rebinding an attribute of one result changes no other.
    Interval lists and larger partitions are built on every call."""
    dim = _check_positive_int(dim, "phase dimension")
    count = _bin_count(bins)
    if count is None or count * dim * dim > _READOUT_MEMO_ENTRIES:
        return _built_readout.__wrapped__(dim, bins)
    kept = _built_readout(dim, count)
    obs = object.__new__(DiscreteObservable)
    vars(obs).update(vars(kept), _index=dict(kept._index))
    return obs


@functools.lru_cache(maxsize=16)
def _built_readout(dim: int, bins) -> DiscreteObservable:
    """The readout of :func:`_phase_readout`, built from its symbols and
    certified as :func:`_phase_observable` certifies."""
    return _phase_observable(_phase_symbols(dim, bins))


def spin_phase_effect(space: SpinPhaseSpace, interval) -> Effect:
    """Covariant spin-phase effect of an interval [u, v] in [0, 2pi]."""
    return effect(_phase_kernels(space.dim, [interval])[0])


def spin_phase_observable(space: SpinPhaseSpace, bins: int = 8) -> DiscreteObservable:
    """Spin phase coarse-grained over a uniform partition of [0, 2pi] into
    ``bins`` intervals, certified as :func:`_phase_observable` certifies.
    The readouts are kept, at most 16 of at most 1 MiB each, and shared
    with :func:`povmlab.kerrqnd.truncated_phase_povm` (:func:`_phase_readout`)."""
    return _phase_readout(space.dim, bins)


def _covariance_residuals(symbols: np.ndarray, intervals, alphas: np.ndarray) -> np.ndarray:
    """The covariance residual of each row of the (k, 2 dim - 1) symbols
    of the phase effects S(X_i): the largest |c_X(j) e^{i a_i j} - c(j)|
    over the 2 dim - 1 lags j, where c is the symbol of S(X_i + a_i mod 2pi)
    and each a_i lies in [0, 2pi). Entry (m, n) of
    e^{-i a s3} S(X) e^{i a s3} is e^{-i a m} c_X(n - m) e^{i a n} (Holevo
    1982), so this is the largest entry of the dense residual. For
    X_i = [u, v], X_i + a_i starts at u + a_i mod 2pi, is v - u wide and is
    split at 2pi when it wraps. A slice of rows holds at most
    ``povm._CHECK_SLICE_BYTES`` of symbols, and the pieces of its intervals
    come from one :func:`_phase_symbols` call."""
    k, width = symbols.shape
    dim = (width + 1) // 2
    intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
    lags = np.arange(1 - dim, dim)
    two_pi = 2 * np.pi
    step = max(1, _CHECK_SLICE_BYTES // (symbols.itemsize * width))
    residuals = np.empty(k)
    for start in range(0, k, step):
        u, v = intervals[start:start + step].T
        alpha = alphas[start:start + step]
        a = (u + alpha) % two_pi
        b = a + (v - u)
        wraps = b > two_pi + 1e-15
        pieces = np.concatenate([np.stack([a, np.minimum(b, two_pi)], axis=1),
                                 np.stack([np.zeros(wraps.sum()), b[wraps] - two_pi], axis=1)])
        shifted = _phase_symbols(dim, pieces)
        moved = shifted[:len(a)]
        moved[wraps] += shifted[len(a):]
        rotated = symbols[start:start + step] * np.exp(1j * alpha[:, None] * lags)
        residuals[start:start + step] = np.abs(rotated - moved).max(axis=1)
    return residuals


def spin_phase_covariance_residual(space: SpinPhaseSpace, interval, alpha: float) -> float:
    """The largest entry of e^{-i a s3} S(X) e^{i a s3} - S(X + a mod 2pi),
    read on the 2 dim - 1 lags of the Toeplitz symbols
    (:func:`_covariance_residuals`), with a reduced modulo 2pi once."""
    u, v = _interval(interval)
    alpha = _check_real(alpha, "alpha") % (2 * np.pi)
    symbols = _phase_symbols(space.dim, [(u, v)])
    return float(_covariance_residuals(symbols, [(u, v)], np.array([alpha]))[0])


def spin_phase_first_moment(space: SpinPhaseSpace) -> Operator:
    """The first phase moment: the ladder partial isometry sum |m+1><m|."""
    d = space.dim
    mat = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        mat[i + 1, i] = 1.0
    return Operator(mat)
