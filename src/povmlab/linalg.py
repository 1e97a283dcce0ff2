"""Dense complex linear algebra over finite-dimensional Hilbert spaces.

Everything in this package is built on two small immutable value types:
:class:`Operator` (a dense square complex matrix with optional tensor-factor
metadata) and :class:`Vector`. The free functions implement the handful of
structural operations the rest of the library needs: tensor products,
partial traces, exponentials of anti-Hermitian generators and Hermitian
eigendecompositions.

All values are immutable after construction and all operations are pure,
so everything here is safe to use from any number of threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ATOL_HERMITIAN",
    "ATOL_POSITIVE",
    "ATOL_COMPLETENESS",
    "ATOL_UNITARY",
    "Operator",
    "Vector",
    "identity",
    "zero",
    "tensor",
    "partial_trace",
    "expm",
    "eigh",
    "haar_vector",
]

# Library-wide tolerances (absolute, entrywise max unless stated otherwise).
ATOL_HERMITIAN = 1e-10
ATOL_POSITIVE = 1e-10      # minimum eigenvalue >= -ATOL_POSITIVE
ATOL_COMPLETENESS = 1e-9   # POVM elements sum to identity within this
ATOL_UNITARY = 1e-10


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one (a float skips the ABC test)."""
    return ((type(value) is float or isinstance(value, numbers.Real))
            and not isinstance(value, (bool, np.bool_)))


def _check_real(value, name: str, finite: bool = True) -> float:
    """``value`` as a float, an int too large for one as an infinity. Raise
    ``ValueError`` naming it unless it is a real number (a bool is not one)
    and, with ``finite``, unless it is finite; else a range test names it."""
    if not _is_real(value):
        raise ValueError(f"{name} {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(x):
        raise ValueError(f"{name} {value} is not finite")
    return x


def _check_type(value, cls: type, name: str):
    """Return ``value``; raise ``ValueError`` naming it unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} {value!r} is not a {cls.__name__}")
    return value


def _check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """Return ``value`` as an int. Raise ``ValueError`` naming it unless it is
    an integer (a bool is not one) in [low, high): with no bounds, ``low`` = 1
    alone (a positive integer), or both."""
    if _is_int(value) and (low is None or low <= value) and (high is None or value < high):
        return int(value)
    kind = ("an integer" if low is None else "a positive integer" if high is None
            else f"an integer in [{low}, {high})")
    raise ValueError(f"{name} {value!r} is not {kind}")


def _check_positive_int(value, name: str) -> int:
    """A size: a positive integer that is a finite float (:func:`_check_real`;
    an int below 1e308 is one)."""
    if not (_is_int(value) and value < 1e308) and _is_real(value):
        _check_real(value, name)
    return _check_int(value, name, 1)


def _hermitian_residual(mats: np.ndarray) -> float:
    """Largest entry of X - X† over the matrix X, or over the rows X of a
    (k, d, d) stack."""
    return np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)))


def _checked_dims(dims, dim: int) -> tuple[int, ...]:
    """``dims`` as a tuple of positive integers whose product is ``dim``."""
    dims = tuple(_check_positive_int(d, "factor dimension") for d in dims)
    if math.prod(dims) != dim:
        raise ValueError(f"factor dims {dims} do not multiply to dim {dim}")
    return dims


def _as_complex_matrix(mat) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense operator on a finite-dimensional Hilbert space.

    Parameters
    ----------
    mat:
        Square complex matrix.
    dims:
        Optional tensor-factor dimensions (d1, ..., dk) with prod(dims)
        equal to the matrix dimension. Required by :func:`partial_trace`.
    """

    mat: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_complex_matrix(self.mat))
        if self.dims is not None:
            object.__setattr__(self, "dims", _checked_dims(self.dims, self.mat.shape[0]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self, atol: float = ATOL_HERMITIAN) -> bool:
        return bool(_hermitian_residual(self.mat) <= atol)

    def is_unitary(self) -> bool:
        delta = self.mat @ self.mat.conj().T - np.eye(self.dim)
        return bool(np.max(np.abs(delta)) <= ATOL_UNITARY)

    def is_projection(self) -> bool:
        if not self.is_hermitian(1e-8):
            return False
        return bool(np.max(np.abs(self.mat @ self.mat - self.mat)) <= 1e-8)

    # Small operator algebra; dims metadata survives when unambiguous.
    def _merge_dims(self, other: "Operator") -> tuple[int, ...] | None:
        if self.dims is not None:
            return self.dims
        return other.dims

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.mat @ other.mat, self._merge_dims(other))

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.mat + other.mat, self._merge_dims(other))

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.mat - other.mat, self._merge_dims(other))

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.mat * scalar, self.dims)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.mat, self.dims)

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, dims={self.dims})"


@dataclass(frozen=True, eq=False)
class Vector:
    """A vector in a finite-dimensional Hilbert space."""

    vec: np.ndarray
    dims: tuple[int, ...] | None = field(default=None)

    def __post_init__(self):
        arr = np.array(self.vec, dtype=complex).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)
        if self.dims is not None:
            object.__setattr__(self, "dims", _checked_dims(self.dims, arr.size))

    @property
    def dim(self) -> int:
        return self.vec.size

    def norm(self) -> float:
        """The Euclidean norm, inf where it exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.vec))

    def normalized(self) -> "Vector":
        """The unit vector along this one. A finite vector whose norm
        overflows or underflows is first divided by its largest real or
        imaginary part; a zero or non-finite vector raises ``ValueError``."""
        n = self.norm()
        if 0.0 < n < math.inf:
            return Vector(self.vec / n, self.dims)
        if not np.isfinite(self.vec).all():
            raise ValueError("cannot normalize the non-finite vector")
        parts = self.vec.view(float)  # a complex division by a subnormal overflows
        scale = np.abs(parts).max()
        if scale == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vector((parts / scale).view(complex), self.dims).normalized()

    def projector(self) -> Operator:
        """Rank-one projector onto the (normalized) vector."""
        v = self.normalized().vec
        return Operator(np.outer(v, v.conj()), self.dims)


def identity(dim: int, dims: tuple[int, ...] | None = None) -> Operator:
    return Operator(np.eye(dim, dtype=complex), dims)


def zero(dim: int, dims: tuple[int, ...] | None = None) -> Operator:
    return Operator(np.zeros((dim, dim), dtype=complex), dims)


def _dims_of(op: Operator) -> tuple[int, ...]:
    return op.dims if op.dims is not None else (op.dim,)


def tensor(*ops: Operator) -> Operator:
    """Kronecker product; dims metadata is the concatenated factor list."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    mat = ops[0].mat
    dims = _dims_of(ops[0])
    for op in ops[1:]:
        mat = np.kron(mat, op.mat)
        dims = dims + _dims_of(op)
    return Operator(mat, dims)


def partial_trace(op: Operator, keep) -> Operator:
    """Trace out all tensor factors not listed in ``keep``.

    ``op`` must carry dims metadata. ``keep`` is an iterable of factor
    indices to retain, in their original order. The trace of the result
    equals the trace of the input.
    """
    if op.dims is None:
        raise ValueError("partial_trace requires an Operator with dims metadata")
    dims = op.dims
    k = len(dims)
    keep = sorted({_check_int(i, "keep index", 0, k) for i in keep})
    arr = op.mat.reshape(dims + dims)
    # einsum: keep row/col legs of retained factors, contract the rest.
    row = list(range(k))
    col = [k + i if i in keep else i for i in range(k)]
    out_idx = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(arr, row + col, out_idx)
    new_dims = tuple(dims[i] for i in keep)
    d = math.prod(new_dims)
    return Operator(reduced.reshape(d, d), new_dims if len(new_dims) > 1 else None)


def expm(op: Operator) -> Operator:
    """Exponential of an anti-Hermitian generator K, which is unitary:
    exp(K) = V diag(e^{-iw}) V† from the eigendecomposition V diag(w) V† of
    the Hermitian iK.

    Raises ``ValueError`` for input that is not anti-Hermitian within
    ``ATOL_HERMITIAN``; general matrices are not supported.
    """
    gen = Operator(1j * op.mat)
    if not gen.is_hermitian():
        raise ValueError("expm: generator is not anti-Hermitian within tolerance")
    return Operator(_exp_minus_i(gen.mat), op.dims)


def _exp_minus_i(h: np.ndarray) -> np.ndarray:
    """exp(-iH) = V diag(e^{-iw}) V† for a Hermitian matrix H = V diag(w) V†."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def eigh(op: Operator):
    """Eigendecomposition of a Hermitian operator.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvector
    matrix ``v`` (columns) unitary, so ``op.mat == v @ diag(w) @ v.conj().T``
    up to roundoff.

    Raises
    ------
    ValueError
        If the input is not Hermitian within ``ATOL_HERMITIAN``.
    """
    if not op.is_hermitian():
        raise ValueError("eigh: input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(op.mat)
    return w, v


def haar_vector(dim: int, rng: np.random.Generator) -> Vector:
    """A Haar-random unit vector (Gaussian method)."""
    _check_positive_int(dim, "dimension")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Vector(z / np.linalg.norm(z))
