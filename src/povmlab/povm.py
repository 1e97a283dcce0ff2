"""Effects, states, discrete observables, state transformers and the
coexistence / complementarity decision procedures.

An observable is a finite outcome-labeled family of effects summing to the
identity. Complementarity intersects ranges of outcome-set effects of
projection-valued observables; probabilistic complementarity intersects
eigenvalue-1 eigenspaces and so applies to unsharp observables as well. A
projection's range is its eigenvalue-1 eigenspace, so both are one decision
(Busch, Lahti & Mittelstaedt 1996), exact on the k1*k2 pairs of maximal
nontrivial outcome sets Omega minus {x}, not on all 2^k1*2^k2 pairs of sets:
the complement of a nontrivial set is nontrivial, eigenvalue-1 eigenspaces
only grow with the set (E(X)v = v and E(X) <= E(X') <= I give E(X')v = v),
and every nontrivial set lies inside some Omega minus {x} with E(x) not O or
I. The eigenvalue-1 eigenspace of I - E(x) is ker E(x): one batched eigh
reads it (eigenvalues <= 1e-8), and two kernels P, Q meet nontrivially when
(I - P) + (I - Q) has an eigenvalue below 1e-8.
Joint measurability of two-valued qubit observables is decided exactly by
the closed-form criterion of Yu, Liu, Li & Oh for biased qubit effects.

A state transformer I is decided in the Heisenberg picture, with
I_x*(A) = sum M† A M over the operation elements M of outcome x and
E(x) = I_x*(I) (Busch, Lahti & Mittelstaedt, The Quantum Theory of
Measurement, 2nd ed. 1996). It is repeatable iff I_x*(E(x)) = E(x) for each
outcome x: then I_x*(E(x)) + I_x*(E(Omega minus {x})) <= E(x) makes every
cross term 0 <= I_x*(E(y)), y != x, vanish, so outcome sets follow. It is
of the first kind for F iff I_Omega*(F(x)) = F(x) for each x, and sets
follow by linearity. Repeatable implies first kind for F = E, since then
I_y*(E(x)) = 0 for y != x. Both are operator identities: no state sample.

Effects are certified from the structure that built them where it is
known. ``eigvalsh`` reads a d x d row X through the Hermitian matrix L(X)
that shares X's lower triangle, whose entries differ from X's by at most the
Hermiticity residual h_X = max|X - X†|, and returns spec L(X) within
64 d eps for an effect (backward stability, with room). Each observable
keeps a private enclosure record: per row an interval [lo, hi], and one
error e such that spec L(X) and the spectrum eigvalsh returns for X both lie
in [lo - e, hi + e]. A row that eigvalsh checked records its computed
extremes with e = 64 d eps. A row whose enclosure clears
[-ATOL_POSITIVE, 1 + ATOL_POSITIVE] by e passes the check that eigvalsh
would give it; any other slice is diagonalised, so every rejection reports
a computed spectrum. Hermiticity and completeness are checked entry by
entry, except for a Toeplitz section, whose residuals are read from its
symbol (below). The Hermiticity residual h_X of effects and states, which
``Operator.is_hermitian`` also reads, is ``linalg._hermitian_residual``.
The public ``extremes`` are always eigenvalues: computed by the check,
exact, or, where an enclosure passed, computed by one eigvalsh on first
read; no bound is presented as an eigenvalue.

A diagonal row with real entries is its own L(X), and its spectrum is
exactly its diagonal. Its record is the diagonal's min and max, which are
its exact extremes, with e = 64 d eps for eigvalsh's rounding, and no
eigensolver runs.

A row of a covariant phase readout is the d x d section [c(n - m)] of the
Toeplitz matrix whose symbol is the indicator of an arc [u, v],
c(k) = (e^{ikv} - e^{iku}) / (2 pi i k) and c(0) = (v - u) / 2pi
(Grenander & Szegő, Toeplitz Forms and Their Applications, 1958). It is
the compression, to the span of d Fourier modes, of multiplication by that
indicator, a projection on L^2 of the circle, so its spectrum lies in
[0, 1]. Every computed entry is within delta of the exact one (the rounding
count is in ``spin``), so L(X) is the exact section plus a Hermitian error
whose entries are at most delta and whose spectral norm is at most d delta.
By Weyl's inequality the record is [0, 1] with e = d (delta + 64 eps). A
full circle is the exact identity. The bound does not say where in [0, 1]
the spectrum lies: the largest eigenvalue is 1 - 2.6e-9 at d = 58, so only
an enclosure, not a derived extreme, can skip this check. The 2d - 1
symbol entries fix every matrix entry, so the residuals are read from
them: entry (m, n) of X - X† is c(j) - conj(c(-j)), and entry (m, n) of
sum_x X_x - I is sum_x c_x(j) - [j = 0], with j = n - m. Every lag occurs
in the section, so the largest entries over the 2d - 1 lags are those over
the d^2 entries, and the Hermiticity residual is the same floating-point
number.

A state T records its spectral decomposition: eigenvalues q on orthonormal
columns chi, zero on their complement, within e of spec L(T). A pure state
is T = fl(u u†) for its unit vector u, so the record is q = [1], chi = u,
and no eigensolver runs. Each entry of T is within 3 eps |u_i| |u_j| of
u u†, whose spectrum is {|u|^2, 0, ...}, and the computed trace is within
(D + 1) eps |u|^2 of |u|^2; by Weyl's inequality the record lies within
D (h_T + 16 eps) + |tr T - 1| of spec L(T). (h_T is 0 when the mirrored
entries u_i u_j* and u_j u_i* round alike, as they do without fused
multiply-adds, but it is measured.) Positivity is read from the record
when its smallest eigenvalue clears -ATOL_POSITIVE by e; otherwise eigvalsh
decides. Any other state is checked by eigvalsh and diagonalised by eigh
once, when its decomposition is first needed. Products of observables and
of states are checked like any input.

A coupling that conserves the level c of its last probe factor, as the
cross-Kerr circuit conserves the probe photon number (Imoto, Haus &
Yamamoto, PRA 32, 2287, 1985), is the direct sum U = sum_c B_c x |c><c| of
its level blocks, and is held as the (d_c, n_out, n_in) stack of the B_c; a
dense coupling is the one-level stack. U U† - I = sum_c (B_c B_c† - I) x
|c><c|, so U is unitary iff every block is, and the largest entry of
U U† - I is the largest over the blocks: unitarity is checked per block,
at d_c n^3 work instead of (d_c n)^3. With the other probe factors m and
the probe state T' = sum_l q_l |chi_l><chi_l| on (m, c), the isometry
blocks of the compression below are

    K[l, a', (m', c), a] = sum_m B_c[(a', m'), (a, m)] chi_l[(m, c)] sqrt(q_l),

because <a', m', c'| U |a, m, c> vanishes for c' != c: one product per
level, and no work on the zero blocks between levels.

A count-register scheme couples the system to probe factors o and a count
register r of d_r levels through P (u x I_r): u acts on system (x) o, and
the permutation P adds the output system index a to the register,
|a, m, r> -> |a, m, r + a mod d_r>. Its unitarity residual
P (u x I_r) (P (u x I_r))† - I = P ((u u† - I) x I_r) P^T has the largest
entry of u u† - I: checking u's blocks is checking the coupling. P is block
diagonal in a, so P† (I x Z' x |k><k|) P = sum_a |a><a| x Z' x |k - a><k - a|:
the pointer Z' x |k><k| reads the register before the shift at k - a. For a
probe T_o x rho_r, with p_r the diagonal of rho_r, the induced effects are

    F(z', k) = sum_a p_r(k - a mod d_r) f_a(z'),
    f_a(z') = tr_o[(I x T_o) u† (|a><a| x Z'(z')) u],

the per-output-index compression of u alone: the register's coherences
drop out, and neither the coupling nor the pointer Z' x N_r is formed.
The other probe factors are kept apart, each with its state and, if it is
read, its pointer. T_o is the kron of their states, so its spectral record
is the kron of their records. A factor that is not read is read by its
identity, and K† (I x Z'') K is the sum over that factor's output index o'
of K_(a, o')† Z'' K_(a, o'): so the output index of each unread factor
joins the kept index a, Z'' is the kron of the read factors' pointers
alone, and the compressions are summed over those indices. Neither
I x Z'' nor the dense T_o is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    ATOL_COMPLETENESS,
    ATOL_HERMITIAN,
    ATOL_POSITIVE,
    ATOL_UNITARY,
    Operator,
    Vector,
    _check_int,
    _check_positive_int,
    _hermitian_residual,
    eigh,
    identity,
    tensor,
    zero,
)

__all__ = [
    "Effect",
    "State",
    "DiscreteObservable",
    "StateTransformer",
    "MeasurementScheme",
    "effect",
    "vector_state",
    "basis_state",
    "maximally_mixed",
    "probability",
    "product_observable",
    "induced_observable",
    "marginal",
    "apply_transformer",
    "scheme_transformer",
    "luders_transformer",
    "is_repeatable",
    "is_first_kind",
    "eigenspace_one",
    "meet_projections",
    "are_complementary",
    "are_prob_complementary",
    "joint_observable_feasible",
    "effect_bloch",
]


# Bytes of effect rows per batched check. Checked in one eigvalsh call, a
# 24-row stack of 144x144 effects raised the peak RSS of an oracle benchmark
# run from 58.4 to 63.1 MB; in slices of this size it stayed at 58.4. A row
# larger than a slice is checked alone.
_CHECK_SLICE_BYTES = 1 << 18

# eigvalsh error per unit of dimension for a matrix of norm about one
# (module docstring).
_EIG_ROUNDING = 64 * np.finfo(float).eps


def _check_effects(mats: np.ndarray, enclosure=None, margin: float = 0.0,
                   hermitian=None) -> np.ndarray:
    """Raise ``ValueError`` unless every row of the (k, d, d) stack ``mats``
    is an effect: Hermitian within ``ATOL_HERMITIAN`` with spectrum inside
    [0, 1] within ``ATOL_POSITIVE``. Slices of rows are checked in order, each
    for Hermiticity before spectra, so a non-Hermitian row is reported before
    an earlier bad spectrum in the same slice. Returns each row's [lo, hi] as
    a read-only (k, 2) array: the computed (lambda_min, lambda_max) of every
    slice it diagonalised, and ``enclosure`` on every other slice.

    ``enclosure`` is None or per-row intervals that, widened by ``margin``,
    contain spec L(X) and the spectrum eigvalsh would return. A slice whose
    intervals clear the bounds by ``margin`` passes without an eigvalsh
    (module docstring). ``hermitian`` is None or the rows' Hermiticity
    residuals, read from the structure that built them; the check then
    forms no X - X†."""
    d = mats.shape[1]
    step = max(1, _CHECK_SLICE_BYTES // max(mats.itemsize * d * d, 1))
    parts = []
    for start in range(0, mats.shape[0], step):
        s = mats[start:start + step]
        h = _hermitian_residual(s) if hermitian is None else hermitian[start:start + step].max()
        if not h <= ATOL_HERMITIAN:
            raise ValueError("effect must be Hermitian within 1e-10")
        if enclosure is not None:
            ext = enclosure[start:start + step]
            if ext.min() >= margin - ATOL_POSITIVE and ext.max() <= 1.0 + ATOL_POSITIVE - margin:
                parts.append(ext)
                continue
        w = np.linalg.eigvalsh(s)
        # eigvalsh sorts each row ascending; for d > 1 columns 0 and d - 1 are a view
        ends = w[:, ::d - 1] if d > 1 else w[:, [0, 0]]
        if ends.min() < -ATOL_POSITIVE or ends.max() > 1.0 + ATOL_POSITIVE:
            lo, hi = w[:, 0], w[:, -1]
            i = np.argmax((lo < -ATOL_POSITIVE) | (hi > 1.0 + ATOL_POSITIVE))
            raise ValueError(f"effect spectrum [{lo[i]:.3e}, {hi[i]:.6f}] outside [0, 1]")
        parts.append(ends)
    checked = parts[0] if len(parts) == 1 else np.concatenate(parts)
    checked.setflags(write=False)
    return checked


def _completeness_residual(mats: np.ndarray) -> np.ndarray:
    """max |sum_x E(x) - I| entrywise of each (k, d, d) observable in a
    (..., k, d, d) stack."""
    return np.abs(mats.sum(axis=-3) - np.eye(mats.shape[-1])).max(axis=(-2, -1))


def _check_observables(stacks: np.ndarray):
    """The checks of a :class:`DiscreteObservable` built from each (k, d, d)
    row of the non-empty (n, k, d, d) stack ``stacks``, run on all n at once:
    one :func:`_check_effects` call on every effect, then each observable's
    completeness bound. Raises the same ``ValueError``s."""
    _check_effects(stacks.reshape((-1,) + stacks.shape[2:]))
    if _completeness_residual(stacks).max() > ATOL_COMPLETENESS:
        raise ValueError("effects do not sum to the identity within tolerance")


@dataclass(frozen=True, eq=False)
class Effect:
    """A POVM element: Hermitian with spectrum inside [0, 1] (within the
    library tolerances)."""

    op: Operator

    def __post_init__(self):
        _check_effects(self.op.mat[None])

    @property
    def dim(self) -> int:
        return self.op.dim

    def complement(self) -> "Effect":
        return Effect(identity(self.dim, self.op.dims) - self.op)


@dataclass(frozen=True, eq=False)
class State:
    """A density operator: Hermitian, positive, trace one.

    Its spectral decomposition is ``_spectrum`` = (q, chi, e): eigenvalues q
    on the orthonormal columns of chi, zero on their complement, within e of
    spec L(T) (module docstring). Pure states record it when they are built;
    any other state runs one eigh for it, on first use."""

    op: Operator

    def __post_init__(self):
        _check_state(self.op, _hermitian_residual(self.op.mat))

    @property
    def dim(self) -> int:
        return self.op.dim

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, float]:
        q, chi = np.linalg.eigh(self.op.mat)
        return q, chi, self.dim * _EIG_ROUNDING


def _check_state(op: Operator, h: float, recorded: bool = False) -> float:
    """Raise ``ValueError`` unless ``op``, with Hermiticity residual h, is a
    state: Hermitian within ``ATOL_HERMITIAN``, then positive within
    ``ATOL_POSITIVE``, then of trace one within 1e-10. Returns
    e = D (h + 16 eps) + |tr T - 1|, the error of the record of a pure
    state fl(u u†) (module docstring). When ``recorded``, positivity is read
    from that record if its smallest eigenvalue, 0 on the complement of u,
    clears -ATOL_POSITIVE by e; otherwise eigvalsh decides."""
    if not h <= ATOL_HERMITIAN:
        raise ValueError("state must be Hermitian within 1e-10")
    tr = op.trace().real
    e = op.dim * (h + 16 * np.finfo(float).eps) + abs(tr - 1.0)
    if not (recorded and (1.0 if op.dim == 1 else 0.0) - e >= -ATOL_POSITIVE):
        w = np.linalg.eigvalsh(op.mat)
        if w.min() < -ATOL_POSITIVE:
            raise ValueError(f"state not positive (min eig {w.min():.3e})")
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state trace {tr} != 1")
    return e


def _recorded_state(op: Operator, u: np.ndarray, h: float) -> State:
    """The pure State over ``op`` = fl(u u†) for the unit vector ``u``, given
    the Hermiticity residual h of ``op``, checked by :func:`_check_state`
    from its record q = [1], chi = u."""
    e = _check_state(op, h, recorded=True)
    st = object.__new__(State)
    object.__setattr__(st, "op", op)
    st.__dict__["_spectrum"] = (np.ones(1), u[:, None], e)
    return st


def effect(mat, dims=None) -> Effect:
    return Effect(Operator(mat, dims))


def vector_state(vec, dims=None) -> State:
    """Rank-one state from a (not necessarily normalized) vector; its unit
    vector is recorded as the eigenvector of eigenvalue 1."""
    v = vec if isinstance(vec, Vector) else Vector(vec, dims)
    if not np.isfinite(v.vec).all():
        # rejected as the state check would, before numpy divides by its norm
        raise ValueError("state must be Hermitian within 1e-10")
    u = v.normalized().vec
    op = Operator(np.outer(u, u.conj()), v.dims)
    return _recorded_state(op, u, _hermitian_residual(op.mat[None]))


def basis_state(k: int, dim: int) -> State:
    """The basis state |k><k| of a ``dim``-dimensional space; ``dim`` must be
    a positive integer and ``k`` an integer in [0, dim). Its entries are
    exact, so its Hermiticity residual is 0, and it is recorded as
    :func:`vector_state` records e_k."""
    dim = _check_positive_int(dim, "dimension")
    k = _check_int(k, "basis index", 0, dim)
    u = np.zeros(dim, dtype=complex)
    u[k] = 1.0
    return _recorded_state(Operator(np.outer(u, u)), u, 0.0)


def maximally_mixed(dim: int) -> State:
    _check_positive_int(dim, "dimension")
    return State(Operator(np.eye(dim, dtype=complex) / dim))


class DiscreteObservable:
    """A finite outcome-labeled family of effects summing to the identity.

    The effects are held as one read-only complex stack ``mats`` of shape
    (k, d, d), row i belonging to ``outcomes[i]``. They may be given as such
    a stack or as a sequence of Effects, Operators or matrices; the input is
    copied, and the copy is checked by one :func:`_check_effects` call, whose
    per-row (lambda_min, lambda_max) are kept as the read-only (k, 2) array
    ``extremes``. Private builders certify stacks whose spectra are known by
    construction and skip that eigvalsh (module docstring).

    Outcome labels may be integers, strings or tuples (tuples mark product
    outcome spaces and enable :func:`marginal`).
    """

    def __init__(self, outcomes, effects):
        self._init(outcomes, np.array(
            [e.op.mat if isinstance(e, Effect) else e.mat if isinstance(e, Operator) else e
             for e in effects],
            dtype=complex,
        ))

    def _init(self, outcomes, mats: np.ndarray, enclosure=None, error: float = 0.0,
              hermitian=None, completeness=None):
        """Check and keep a fresh (k, d, d) stack. With no ``enclosure``
        every row is diagonalised and its computed extremes are its record.
        An ``enclosure`` with its ``error`` is what the check starts from, and
        the extremes are then computed on first read (module docstring).
        ``hermitian`` (per row) and ``completeness`` are residuals a builder
        read from the structure of the stack, used in place of the entrywise
        ones."""
        outcomes = tuple(outcomes)
        if len(outcomes) != len(mats):
            raise ValueError("outcomes and effects must have equal length")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        if not outcomes:
            raise ValueError("an observable needs at least one outcome")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a (k, d, d) stack of square matrices, got {mats.shape}")
        checked = _check_effects(mats, enclosure, error, hermitian)
        if completeness is None:
            completeness = _completeness_residual(mats)
        if completeness > ATOL_COMPLETENESS:
            raise ValueError("effects do not sum to the identity within tolerance")
        mats.setflags(write=False)
        self.outcomes = outcomes
        self.mats = mats
        if enclosure is None:
            self.extremes = checked
            error = mats.shape[1] * _EIG_ROUNDING
        self._enclosure = checked
        self._enclosure_error = error
        self._index = {x: i for i, x in enumerate(outcomes)}

    @cached_property
    def extremes(self) -> np.ndarray:
        """Each row's (lambda_min, lambda_max) as a read-only (k, 2) array:
        those the check computed, or, for a stack certified by its enclosure,
        those of one computed check on first read."""
        return _check_effects(self.mats)

    @cached_property
    def effects(self) -> tuple[Effect, ...]:
        """Effect views over the checked rows of ``mats``."""
        return tuple(_effect_view(m) for m in self.mats)

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(zip(self.outcomes, self.effects))

    def effect_for(self, outcome) -> Effect:
        return self.effects[self._index[outcome]]

    def probabilities(self, st: State) -> dict:
        """Outcome probabilities tr[T E(x)], clamped as :func:`probability` clamps."""
        if st.dim != self.dim:
            raise ValueError(f"dimension mismatch: state {st.dim}, effects {self.dim}")
        ps = np.einsum("ij,xji->x", st.op.mat, self.mats).real
        return {x: _clamped(p) for x, p in zip(self.outcomes, ps.tolist())}

    def is_projection_valued(self, atol: float = 1e-8) -> bool:
        m = self.mats
        return bool(_hermitian_residual(m) <= atol and np.max(np.abs(m @ m - m)) <= atol)


def _effect_view(mat: np.ndarray) -> Effect:
    """An Effect over a read-only row of a checked stack, built without
    copying or checking it again."""
    op = object.__new__(Operator)
    object.__setattr__(op, "mat", mat)
    object.__setattr__(op, "dims", None)
    e = object.__new__(Effect)
    object.__setattr__(e, "op", op)
    return e


def _grouped(labels, mats: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct labels, sorted, and for each the sum, from zero in stack
    order, of the rows of the (..., k, d, d) stack ``mats`` that carry it."""
    outcomes = sorted(set(labels))
    index = {x: i for i, x in enumerate(outcomes)}
    summed = np.zeros(mats.shape[:-3] + (len(outcomes),) + mats.shape[-2:], dtype=complex)
    np.add.at(summed.swapaxes(0, -3), [index[x] for x in labels], mats.swapaxes(0, -3))
    return outcomes, summed


class StateTransformer:
    """Outcome-indexed family of completely positive maps I_x(T) = sum M T M†
    over the operation (Kraus) elements M of outcome x, given per outcome as
    a sequence of Operators or square matrices. The total map is trace
    nonincreasing; observable-complete transformers have sum M†M = I.

    The elements are held as one read-only (m, d, d) stack ``kraus``; row i
    belongs to ``outcomes[owner[i]]``.
    """

    def __init__(self, outcomes, kraus_sets):
        outcomes = tuple(outcomes)
        sets = [[m.mat if isinstance(m, Operator) else m for m in ms] for ms in kraus_sets]
        if len(outcomes) != len(sets):
            raise ValueError("outcomes and kraus_sets must have equal length")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        rows = [m for ms in sets for m in ms]
        if not rows:
            raise ValueError("transformer has no operation elements")
        shapes = sorted({np.shape(m) for m in rows})
        if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
            raise ValueError(
                f"operation elements must be square matrices of one size, got {shapes}")
        kraus = np.array(rows, dtype=complex)
        if not np.all(np.isfinite(kraus)):
            raise ValueError("operation elements must be finite")
        total = np.einsum("mji,mjk->ik", kraus.conj(), kraus)
        if np.linalg.eigvalsh(total).max() > 1.0 + ATOL_COMPLETENESS:
            raise ValueError("transformer is not trace nonincreasing")
        owner = np.repeat(np.arange(len(sets)), [len(ms) for ms in sets])
        kraus.setflags(write=False)
        owner.setflags(write=False)
        self.outcomes, self.kraus, self.owner = outcomes, kraus, owner
        self._index = {x: i for i, x in enumerate(outcomes)}

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """A measurement coupling: unitary on system (x) probe, an initial probe
    state, a pointer observable on the probe, and a pointer function mapping
    pointer outcomes to observable outcomes.

    The coupling must carry dims metadata whose first factor is the system;
    the remaining factors form the probe.
    """

    coupling: Operator
    probe_state: State
    pointer: DiscreteObservable
    pointer_function: dict | None = None  # None means identity

    def __post_init__(self):
        if self.coupling.dims is None or len(self.coupling.dims) < 2:
            raise ValueError("coupling needs dims metadata (system, probe...)")
        _check_unitary(self.coupling.mat[None])
        dp = math.prod(self.coupling.dims[1:])
        if self.probe_state.dim != dp or self.pointer.dim != dp:
            raise ValueError("probe state / pointer dims inconsistent with coupling")

    @property
    def system_dim(self) -> int:
        return self.coupling.dims[0]

    @property
    def probe_dim(self) -> int:
        return math.prod(self.coupling.dims[1:])

    def map_outcome(self, pointer_outcome):
        if self.pointer_function is None:
            return pointer_outcome
        return self.pointer_function[pointer_outcome]

    def _pointer_effects(self) -> tuple[tuple, np.ndarray]:
        """The pointer outcomes and, for each, the system effect F(z) with
        tr[T F(z)] = tr[U (T x T') U† (I x Z(z))] for every system state T."""
        ds, dp = self.system_dim, self.probe_dim
        u5 = self.coupling.mat.reshape(1, ds, dp, ds, dp)
        iso = _probe_isometries(u5, *self.probe_state._spectrum[:2])
        return self.pointer.outcomes, _compress_isometries(iso, self.pointer.mats).sum(axis=0)


def probability(st: State, e: Effect) -> float:
    """Outcome probability tr[T E], clamped to [0, 1] when within tolerance
    of the boundary."""
    if st.dim != e.dim:
        raise ValueError(f"dimension mismatch: state {st.dim}, effect {e.dim}")
    return _clamped(float(np.trace(st.op.mat @ e.op.mat).real))


def _clamped(p: float) -> float:
    if -ATOL_POSITIVE <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + ATOL_POSITIVE:
        return 1.0
    return p


def _product_labels(first, second) -> list[tuple]:
    """Outcome labels of a product, with tuple components flattened."""
    return [
        (xa if isinstance(xa, tuple) else (xa,)) + (xb if isinstance(xb, tuple) else (xb,))
        for xa in first for xb in second
    ]


def product_observable(a: DiscreteObservable, b: DiscreteObservable) -> DiscreteObservable:
    """Observable on the tensor product with tuple outcome labels.

    Components that already carry tuple labels are flattened, so products of
    products keep a flat label arity. The product stack is checked like any
    input stack, and its ``extremes`` are the eigenvalues that check computes.
    """
    return DiscreteObservable(_product_labels(a.outcomes, b.outcomes),
                              _kron_stacks(a.mats, b.mats))


def _kron_stacks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (k_a k_b, d_a d_b, d_a d_b) stack of every A x B, row-major in
    (row of a, row of b)."""
    d = a.shape[1] * b.shape[1]
    return np.kron(a[:, None], b[None]).reshape(-1, d, d)


def _enclosed_observable(outcomes, mats: np.ndarray, enclosure: np.ndarray, error: float,
                         hermitian=None, completeness=None) -> DiscreteObservable:
    """The observable over a fresh (k, d, d) stack whose rows' spectra are
    enclosed, within ``error``, by the (k, 2) intervals ``enclosure``
    (module docstring), with the residuals its builder read from its
    structure, if any."""
    obs = object.__new__(DiscreteObservable)
    obs._init(outcomes, mats, enclosure, error, hermitian, completeness)
    return obs


def _diagonal_observable(outcomes, diagonals) -> DiscreteObservable:
    """The observable whose effects are diagonal with the real rows of the
    (k, d) array ``diagonals``. Their spectra are their diagonals, so the
    extremes are exact and no eigvalsh runs unless a row misses the effect
    bounds by the margin (module docstring)."""
    diagonals = np.asarray(diagonals, dtype=float)
    d = diagonals.shape[1]
    mats = np.zeros(diagonals.shape + (d,), dtype=complex)
    levels = np.arange(d)
    mats[:, levels, levels] = diagonals
    ends = np.stack((diagonals.min(axis=1), diagonals.max(axis=1)), axis=1)
    obs = _enclosed_observable(outcomes, mats, ends, d * _EIG_ROUNDING)
    obs.extremes = obs._enclosure
    return obs


def _check_unitary(blocks: np.ndarray):
    """Raise unless the direct sum of the (dc, n, n) level-block stack
    ``blocks`` is unitary: its largest entry of U U† - I is the largest over
    the blocks (module docstring)."""
    residual = blocks @ blocks.conj().swapaxes(1, 2) - np.eye(blocks.shape[1])
    if not np.max(np.abs(residual)) <= ATOL_UNITARY:
        raise ValueError("coupling is not unitary within 1e-10")


def _direct_sum(blocks: np.ndarray) -> np.ndarray:
    """The dense matrix sum_c B_c x |c><c| of a (dc, n_out, n_in) level-block
    stack, the level c being the last tensor factor."""
    dc, n_out, n_in = blocks.shape
    m = np.zeros((n_out, dc, n_in, dc), dtype=complex)
    levels = np.arange(dc)
    m[:, levels, :, levels] = blocks
    return m.reshape(n_out * dc, n_in * dc)


def _number_observable(dim: int) -> DiscreteObservable:
    """Spectral measure of the number operator of a ``dim``-level mode."""
    return _diagonal_observable(range(dim), np.eye(dim))


class _CountRegisterScheme(MeasurementScheme):
    """A count-register scheme kept as its factors: u as its level blocks
    ``_blocks`` with dims ``_dims`` on system (x) other probe factors, the
    register size ``_dim_reg``, the states ``_states`` and pointers
    ``_pointers`` of the other factors (a pointer of None marks a factor
    that is not read) and the register state. ``coupling``, ``probe_state``
    and ``pointer`` are built on first read; :func:`induced_observable` needs
    none of them (module docstring)."""

    @cached_property
    def coupling(self) -> Operator:
        u, dr, ds = _direct_sum(self._blocks), self._dim_reg, self.system_dim
        # u x I_r is the direct sum of d_r copies of u
        u_reg = _direct_sum(np.broadcast_to(u, (dr,) + u.shape))
        perm = _controlled_shift(np.arange(ds), len(u) // ds, dr)
        return Operator(u_reg[perm], self._dims + (dr,))

    @cached_property
    def probe_state(self) -> State:
        if not self._states:
            return self._register_state
        return State(tensor(*(st.op for st in self._states), self._register_state.op))

    @cached_property
    def pointer(self) -> DiscreteObservable:
        """The other factors' pointers, an unread factor read by its trivial
        observable, and the register's number observable as one product."""
        pointers = [DiscreteObservable([0], np.eye(st.dim)[None]) if z is None else z
                    for st, z in zip(self._states, self._pointers)]
        return functools.reduce(product_observable,
                                pointers + [_number_observable(self._dim_reg)])

    @property
    def system_dim(self) -> int:
        return self._dims[0]

    @property
    def probe_dim(self) -> int:
        return math.prod(self._dims[1:]) * self._dim_reg

    def _pointer_effects(self) -> tuple[list, np.ndarray]:
        """F(z', k) = sum_a p_r(k - a mod d_r) f_a(z'), from the krons of the
        factors' records and of the read pointers, with the output index of
        every unread factor summed out of the kept index (module
        docstring)."""
        blocks, dr, ds = self._blocks, self._dim_reg, self.system_dim
        q, chi = np.ones(1), np.ones((1, 1))
        for st in self._states:
            qs, chis = st._spectrum[:2]
            q = np.multiply.outer(q, qs).reshape(-1)
            chi = np.multiply.outer(chi, chis).transpose(0, 2, 1, 3).reshape(
                len(chi) * len(chis), -1)
        read = [z.mats for z in self._pointers if z is not None]
        zmats = functools.reduce(_kron_stacks, read) if read else np.ones((1, 1, 1))
        labels = list(functools.reduce(_product_labels, [
            (0,) if z is None else z.outcomes for z in self._pointers] + [range(dr)]))
        dm = blocks.shape[1] // ds
        iso = _probe_isometries(blocks.reshape(-1, ds, dm, ds, dm), q, chi)
        # K[l, a', (o_1, ..., o_n), a]: the unread factors' outputs join a'
        dims = [st.dim for st in self._states]
        unread = [i for i, z in enumerate(self._pointers) if z is None]
        order = unread + [i for i, z in enumerate(self._pointers) if z is not None]
        iso = iso.reshape(len(iso), ds, *dims, ds).transpose(
            0, 1, *(2 + i for i in order), len(dims) + 2)
        nu = math.prod(dims[i] for i in unread)
        f = _compress_isometries(iso.reshape(len(iso), ds * nu, -1, ds), zmats, nu)
        k, a = np.indices((dr, ds))
        weights = np.diagonal(self._register_state.op.mat).real[(k - a) % dr]
        return labels, np.einsum("ka,axij->xkij", weights, f).reshape(-1, ds, ds)


def _count_register_scheme(blocks: np.ndarray, dims: tuple[int, ...], dim_reg: int,
                           states: tuple[State, ...], register_state: State,
                           pointers: tuple[DiscreteObservable | None, ...],
                           pointer_function: dict | None) -> MeasurementScheme:
    """The scheme whose coupling runs u on system (x) other probe factors and
    then adds the system's basis index, mod ``dim_reg``, to a count register
    appended as the last probe factor: P (u x I_r) with P the row permutation
    of :func:`_controlled_shift`. u is given as its level blocks: ``blocks``
    is a (dc, n, n) stack and ``dims`` are u's tensor factors, the system
    first and, when dc > 1, the conserved level last; a dense u is the
    one-level stack u[None]. The other probe factors start in ``states``, in
    order, and are read by ``pointers``, one per factor, None for a factor
    that is not read; the register starts in ``register_state`` and is read
    by its number observable. Both tuples are empty when u acts on the
    system alone. Each block is checked for unitarity; that checks the
    coupling (module docstring)."""
    _check_unitary(blocks)
    if (len(states) != len(pointers) or register_state.dim != dim_reg
            or math.prod(st.dim for st in states) != math.prod(dims[1:])
            or any(z is not None and z.dim != st.dim for st, z in zip(states, pointers))):
        raise ValueError("probe state / pointer dims inconsistent with coupling")
    scheme = object.__new__(_CountRegisterScheme)
    for name, value in (("_blocks", blocks), ("_dims", dims), ("_dim_reg", dim_reg),
                        ("_states", states), ("_register_state", register_state),
                        ("_pointers", pointers), ("pointer_function", pointer_function)):
        object.__setattr__(scheme, name, value)
    return scheme


def _controlled_shift(shifts, dim_other: int, dim_reg: int) -> np.ndarray:
    """Controlled cyclic shift of a register appended as the last factor,
    by ``shifts[n]`` on system basis state n, as a row permutation: row
    (n, m, k) of the result is row (n, m, k - shifts[n] mod dim_reg) of the
    operator it acts on, so ``u[perm]`` equals the permutation matrix times u."""
    shifts = np.asarray(shifts)
    n, m, k = np.indices((shifts.size, dim_other, dim_reg))
    return ((n * dim_other + m) * dim_reg + (k - shifts[n]) % dim_reg).reshape(-1)


def _probe_isometries(u5: np.ndarray, qs: np.ndarray, chis: np.ndarray) -> np.ndarray:
    """Weighted isometry stack of a level-block coupling and a probe state.

    ``u5`` holds the coupling's blocks B_c as (d_c, d_out, d_m, d_in, d_m):
    B_c[(a, m'), (b, m)] couples system and the other probe factors m at
    probe level c, the last probe factor, which it conserves (d_c = 1 for a
    dense coupling). ``qs`` and the columns of ``chis`` are the probe state's
    recorded spectral decomposition sum_l q_l |chi_l><chi_l|. Returns
    K[l, a, (m', c), b] =
    sum_m B_c[(a, m'), (b, m)] chi_l[(m, c)] sqrt(q_l), which is
    sqrt(q_l) (<a| x <m', c|) U (|b> x |chi_l>), keeping only the weights
    q_l > 1e-14.
    """
    dc, d_out, dm, d_in, _ = u5.shape
    keep = qs > 1e-14
    # chi_l[(m, c)] as (c, m, l): block c meets the probe at level c only
    chi = (chis[:, keep] * np.sqrt(qs[keep])).reshape(dm, dc, -1).transpose(1, 0, 2)
    k = u5.reshape(dc, d_out * dm * d_in, dm) @ chi
    return k.reshape(dc, d_out, dm, d_in, -1).transpose(4, 1, 2, 0, 3).reshape(
        -1, d_out, dm * dc, d_in)


def _compress_isometries(k: np.ndarray, pointer_effects: np.ndarray,
                         fold: int = 1) -> np.ndarray:
    """Heisenberg-picture compression of stacked pointer effects Z_x.

    The probe state is T' = sum_l q_l |chi_l><chi_l|, and ``k`` holds the
    weighted isometry blocks sqrt(q_l) K_la, K_la[i, b] =
    (<a| x <i|) U (|b> x |chi_l>), of :func:`_probe_isometries`, shape
    (l, d_out, d_p, d_in); weights q_l <= 1e-14 are dropped there. Returns
    the Hermitian-symmetrised
    F[a, x] = sum_l q_l K_la^dagger Z_x K_la for every output-system index a
    and outcome x, shape (d_out, k, d_in, d_in). Summed over a this is
    tr_probe[(I x T') U^dagger (I x Z_x) U]; no dense U^dagger (I x Z_x) U is
    formed. With ``fold`` > 1 the output index is (a, o'), o' the output of
    the probe factors that are not read, of size ``fold``, and F is summed
    over o' (module docstring), shape (d_out / fold, k, d_in, d_in).
    """
    nl, d_out, dp, d_in = k.shape
    nx = len(pointer_effects)
    # Z_x K_la for every x, l, a: one (nx dp, dp) @ (dp, nl d_out d_in) product
    zk = pointer_effects.reshape(-1, dp) @ k.transpose(2, 0, 1, 3).reshape(dp, -1)
    zk = zk.reshape(nx, dp, nl, d_out, d_in).transpose(3, 2, 1, 0, 4)
    # then K_la^dagger (Z_x K_la) summed over (l, i), one product per a
    ka = k.transpose(1, 0, 2, 3).reshape(d_out, nl * dp, d_in)
    f = ka.conj().swapaxes(1, 2) @ zk.reshape(d_out, nl * dp, nx * d_in)
    f = f.reshape(d_out, d_in, nx, d_in).transpose(0, 2, 1, 3)
    f = (f + f.conj().swapaxes(-1, -2)) / 2
    return f.reshape(d_out // fold, fold, nx, d_in, d_in).sum(axis=1)


def induced_observable(scheme: MeasurementScheme) -> DiscreteObservable:
    """The observable actually measured by a coupling scheme.

    The effect of an outcome set X satisfies
    tr[T F(X)] = tr[U (T x T') U† (I x Z(f^-1(X)))] for every system state T;
    effects are grouped over pointer-function preimages. A count-register
    scheme is compressed through its factors (module docstring).
    """
    labels, fs = scheme._pointer_effects()
    return DiscreteObservable(*_grouped([scheme.map_outcome(zx) for zx in labels], fs))


def marginal(obs: DiscreteObservable, keep: int) -> DiscreteObservable:
    """Marginal observable over one component of tuple-labeled outcomes.

    ``keep`` is the 0-based index of the label component to retain, an
    integer in [0, label arity); effects are summed over the discarded
    components.
    """
    if not all(isinstance(x, tuple) for x in obs.outcomes):
        raise ValueError("marginal requires tuple outcome labels")
    keep = _check_int(keep, "keep", 0, min(map(len, obs.outcomes)))
    return DiscreteObservable(*_grouped([x[keep] for x in obs.outcomes], obs.mats))


def apply_transformer(tf: StateTransformer, outcomes, st: State) -> Operator:
    """Non-normalized post-measurement state for an outcome set.

    The trace of the result is the probability of the outcome set under the
    transformer's compatible observable.
    """
    # a tuple that is itself an outcome label counts as a single outcome
    if outcomes in tf.outcomes:
        outcomes = (outcomes,)
    elif not isinstance(outcomes, (list, tuple, set, frozenset)):
        outcomes = (outcomes,)
    for x in outcomes:
        if x not in tf._index:
            raise KeyError(f"unknown outcome label {x!r}")
    if st.dim != tf.dim:
        raise ValueError(f"dimension mismatch: state {st.dim}, transformer {tf.dim}")
    ms = tf.kraus[np.isin(tf.owner, [tf._index[x] for x in outcomes])]
    return Operator(np.einsum("mij,jk,mlk->il", ms, st.op.mat, ms.conj()))


def scheme_transformer(scheme: MeasurementScheme) -> StateTransformer:
    """The state transformer implemented by a measurement scheme.

    Operation elements are M = sqrt(q_l z) (I x <zeta|) U (I x |chi_l>) over
    the probe-state spectral decomposition chi_l and the eigenpairs
    (z, zeta) of each pointer effect with z >= 1e-12, grouped by the pointer
    function.
    """
    ds, dp = scheme.system_dim, scheme.probe_dim
    k = _probe_isometries(scheme.coupling.mat.reshape(1, ds, dp, ds, dp),
                          *scheme.probe_state._spectrum[:2])
    wz, vz = np.linalg.eigh(scheme.pointer.mats)
    # sqrt(z) <zeta| K_l per pointer outcome x, eigenvector j and probe weight l
    roots = vz * np.sqrt(np.clip(wz, 0.0, None))[:, None, :]
    ms = np.einsum("xij,laib->xjlab", roots.conj(), k)
    labels = [scheme.map_outcome(zx) for zx in scheme.pointer.outcomes]
    outcomes = sorted(set(labels))
    keep = wz >= 1e-12
    return StateTransformer(outcomes, [
        ms[keep & np.array([label == x for label in labels])[:, None]].reshape(-1, ds, ds)
        for x in outcomes
    ])


def luders_transformer(obs: DiscreteObservable) -> StateTransformer:
    """Square-root (generalized projective) transformer of an observable:
    one element E(x)^(1/2) per outcome."""
    w, v = np.linalg.eigh(obs.mats)
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(1, 2)
    return StateTransformer(obs.outcomes, roots[:, None])


def _heisenberg(tf: StateTransformer, ops: np.ndarray) -> np.ndarray:
    """I_x*(ops[x]) = sum of M† ops[x] M over the elements M of outcome x,
    for every outcome x, as an (outcomes, d, d) stack."""
    out = np.zeros((len(tf.outcomes), tf.dim, tf.dim), dtype=complex)
    np.add.at(out, tf.owner,
              np.einsum("mji,mjk,mkl->mil", tf.kraus.conj(), ops[tf.owner], tf.kraus))
    return out


def is_repeatable(tf: StateTransformer) -> bool:
    """Whether a second application of the transformer reproduces the first
    outcome with certainty: I_x*(E(x)) = E(x) for every outcome x, with
    E(x) = I_x*(I), as a max-entry residual within 1e-8.

    Exact (module docstring), and single outcomes suffice for outcome sets.
    """
    effects = _heisenberg(tf, np.tile(np.eye(tf.dim), (len(tf.outcomes), 1, 1)))
    return bool(np.max(np.abs(_heisenberg(tf, effects) - effects)) <= 1e-8)


def is_first_kind(tf: StateTransformer, obs: DiscreteObservable) -> bool:
    """Whether the measurement leaves the statistics of ``obs`` unchanged:
    I_Omega*(F) = F for every effect F of ``obs``, as a max-entry residual
    within 1e-9. Exact, and by linearity it holds for the effects of all
    outcome sets once it holds for those of single outcomes."""
    if obs.dim != tf.dim:
        raise ValueError(f"dimension mismatch: transformer {tf.dim}, observable {obs.dim}")
    after = np.einsum("mji,fjk,mkl->fil", tf.kraus.conj(), obs.mats, tf.kraus)
    return bool(np.max(np.abs(after - obs.mats)) <= 1e-9)


def eigenspace_one(e: Effect) -> Operator:
    """Orthogonal projection onto the eigenvalue-1 eigenspace (zero operator
    when there is none). The 1e-8 threshold separates genuine unit
    eigenvalues from unsharp maxima."""
    w, v = eigh(e.op)
    cols = v[:, np.abs(w - 1.0) <= 1e-8]
    if cols.shape[1] == 0:
        return zero(e.dim)
    return Operator(cols @ cols.conj().T)


def meet_projections(p: Operator, q: Operator) -> Operator:
    """Projection onto range(P) ∩ range(Q), via the eigenvectors of
    (I-P) + (I-Q) with eigenvalue below 1e-8."""
    for name, r in (("first", p), ("second", q)):
        if not r.is_projection():
            raise ValueError(f"meet_projections: {name} operand is not a projection")
    dim = p.dim
    gap = (np.eye(dim) - p.mat) + (np.eye(dim) - q.mat)
    w, v = np.linalg.eigh((gap + gap.conj().T) / 2)
    cols = v[:, w < 1e-8]
    if cols.shape[1] == 0:
        return zero(dim)
    return Operator(cols @ cols.conj().T)


def _kernel_projections(obs: DiscreteObservable) -> list[Operator]:
    """Projections onto ker E(x), the eigenvalues at most 1e-8 of one
    batched eigh, for each outcome whose effect is neither O nor I within
    1e-8."""
    m = obs.mats
    nontrivial = ((np.max(np.abs(m), axis=(1, 2)) > 1e-8)
                  & (np.max(np.abs(m - np.eye(obs.dim)), axis=(1, 2)) > 1e-8))
    w, v = np.linalg.eigh(m[nontrivial])
    return [Operator(b[:, k] @ b[:, k].conj().T) for b, k in zip(v, w <= 1e-8)]


def _maximal_sets_disjoint(e1: DiscreteObservable, e2: DiscreteObservable) -> bool:
    """Whether ker E1(x) and ker E2(y) meet only in {0} for every pair of
    outcomes whose effects are neither O nor I; False when either side has
    none."""
    if e1.dim != e2.dim:
        raise ValueError("observables act on different spaces")
    firsts, seconds = _kernel_projections(e1), _kernel_projections(e2)
    if not firsts or not seconds:
        return False
    return all(
        np.max(np.abs(meet_projections(p, q).mat)) <= 1e-8
        for p in firsts for q in seconds
    )


def are_complementary(e1: DiscreteObservable, e2: DiscreteObservable) -> bool:
    """Complementarity of two projection-valued observables: every pair of
    nontrivial outcome-set effects has trivially intersecting ranges, and
    likewise against the complement sets. Returns False when every pair is
    trivial (complementarity is a nontrivial relation).

    For projections the range of I - E(x) is ker E(x), so past the
    projection-valued guard this is the decision of
    :func:`are_prob_complementary` (module docstring).

    Raises for observables that are not projection valued; use
    :func:`are_prob_complementary` for general effects.
    """
    for obs in (e1, e2):
        if not obs.is_projection_valued():
            raise ValueError(
                "are_complementary is defined for projection-valued observables"
            )
    return _maximal_sets_disjoint(e1, e2)


def are_prob_complementary(e1: DiscreteObservable, e2: DiscreteObservable) -> bool:
    """Probabilistic complementarity: certainty of a nontrivial outcome set
    of one observable excludes certainty or impossibility of any nontrivial
    outcome set of the other. Exact on the maximal sets (module docstring):
    the relation holds iff ker E1(x) ∩ ker E2(y) = {0} for all outcomes x, y
    whose effects are neither O nor I. False when either side has no such
    outcome."""
    return _maximal_sets_disjoint(e1, e2)


def effect_bloch(e: Effect) -> tuple[float, np.ndarray]:
    """Decompose a qubit effect as (t, b) with E = (t I + b·sigma) / 2."""
    if e.dim != 2:
        raise ValueError("effect_bloch requires a qubit effect")
    m = e.op.mat
    t = float(np.trace(m).real)
    bx = float((m[0, 1] + m[1, 0]).real)
    by = float((1j * (m[0, 1] - m[1, 0])).real)
    bz = float((m[0, 0] - m[1, 1]).real)
    return t, np.array([bx, by, bz])


def _qubit_coexistence_gap(t1: float, b1, t2: float, b2) -> float:
    """lhs - rhs of the joint-measurability criterion of Yu, Liu, Li & Oh
    (PRA 81, 062116, 2010) for the effects E = (t1 I + b1·sigma)/2 and
    F = (t2 I + b2·sigma)/2; the pair is jointly measurable iff it is <= 0.

    With biases x = t1 - 1, y = t2 - 1 and
    F_E = sqrt(det E) + sqrt(det(I - E)), the criterion reads
    (1 - F_E^2 - F_F^2)(1 - x^2/F_E^2 - y^2/F_F^2) <= (b1·b2 - x y)^2.
    F_E vanishes only for a rank-one projection, whose bias is 0; its term
    is then 0. For unit traces it is |b1 + b2| + |b1 - b2| <= 2 squared.
    """
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)

    def root_det_sum(t, b):
        bb = float(b @ b)
        return (math.sqrt(max(t * t - bb, 0.0)) + math.sqrt(max((2.0 - t) ** 2 - bb, 0.0))) / 2.0

    def bias_term(t, f):
        return (t - 1.0) ** 2 / f ** 2 if f > 0.0 else 0.0

    f1, f2 = root_det_sum(t1, b1), root_det_sum(t2, b2)
    lhs = (1.0 - f1 ** 2 - f2 ** 2) * (1.0 - bias_term(t1, f1) - bias_term(t2, f2))
    return lhs - (float(b1 @ b2) - (t1 - 1.0) * (t2 - 1.0)) ** 2


def joint_observable_feasible(e1: DiscreteObservable, e2: DiscreteObservable) -> bool:
    """Whether two two-valued qubit observables admit a joint observable.

    Four effects G(i,k) >= 0 with row/column sums equal to the given
    observables must exist. Decided exactly, for biased and unbiased
    effects alike, by the closed-form criterion of Yu, Liu, Li & Oh on the
    Bloch forms of the first effects (:func:`_qubit_coexistence_gap`), with
    the same 1e-12 slack as ``spin.coexist_criterion``: positivity of the
    joint observable degenerates on the boundary. Only qubit observables
    are supported.
    """
    if e1.dim != 2 or e2.dim != 2:
        raise ValueError("joint_observable_feasible supports qubit observables only")
    if len(e1) != 2 or len(e2) != 2:
        raise ValueError("joint_observable_feasible supports two-valued observables")
    t1, b1 = effect_bloch(e1.effects[0])
    t2, b2 = effect_bloch(e2.effects[0])
    return _qubit_coexistence_gap(t1, b1, t2, b2) <= 1e-12
