"""Effects, states, discrete observables, state transformers and the
coexistence / complementarity decision procedures.

An observable is a finite outcome-labeled family of effects summing to the
identity. Complementarity intersects ranges of outcome-set effects of
projection-valued observables; probabilistic complementarity intersects
eigenvalue-1 eigenspaces and so applies to unsharp observables as well.
Both are decided exactly on the k1*k2 pairs of maximal nontrivial outcome
sets Omega minus {x}, not on all 2^k1*2^k2 pairs of sets: the complement of
a nontrivial set is nontrivial, ranges and eigenvalue-1 eigenspaces only
grow with the set (E(X)v = v and E(X) <= E(X') <= I give E(X')v = v), and
every nontrivial set lies inside some Omega minus {x} with E(x) not O or I.
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

Products and count-register couplings are certified from their checked
factors. ``eigvalsh`` reads a d x d row X through the Hermitian matrix L(X)
that shares X's lower triangle, whose entries differ from X's by at most the
Hermiticity residual h_X = max|X - X†|, and returns spec L(X) within
64 d eps for an effect (backward stability, with room). Each observable
records its rows' extremes with a bound e on their distance from those of
spec L(X): 64 d eps where they were computed, the margin below where they
were derived. The spectrum of L(A) x L(B) is exactly {lambda mu}, so the
extremes of a product row are the min and max of the four products of the
factors' extremes; from the recorded ones they are within 2 (e_A + e_B), as
every entry and eigenvalue of a factor has modulus below 2. Entrywise,
A x B - L(A) x L(B) = (A - L(A)) x B + L(A) x (B - L(B)) is at most
2 (h_A + h_B), and so is the Hermiticity residual of A x B, which bounds
L(A x B) - A x B. A D x D matrix has spectral norm at most D times its
largest entry, so by Weyl's inequality the extremes that eigvalsh would
return for A x B lie within the margin 2 (e_A + e_B) + D (4 (h_A + h_B)
+ 64 eps) of the derived ones. Derived extremes that clear
[-ATOL_POSITIVE, 1 + ATOL_POSITIVE] by that margin pass the check that the
product would otherwise get; any other slice is diagonalised, so every
rejection reports a computed spectrum. The product's own Hermiticity is
still checked entry by entry.

A state T records its spectral decomposition: eigenvalues q on orthonormal
columns chi, zero on their complement, within e of spec L(T). A pure state
is T = fl(u u†) for its unit vector u, so the record is q = [1], chi = u,
and no eigensolver runs. Each entry of T is within 3 eps |u_i| |u_j| of
u u†, whose spectrum is {|u|^2, 0, ...}, and the computed trace is within
(D + 1) eps |u|^2 of |u|^2; by Weyl's inequality the record lies within
D (h_T + 16 eps) + |tr T - 1| of spec L(T). (h_T is 0 when the mirrored
entries u_i u_j* and u_j u_i* round alike, as they do without fused
multiply-adds, but it is measured.) The spectrum of L(A) x L(B) is exactly
{lambda mu} on the eigenvectors chi_A x chi_B, so a product of states takes
(q_A x q_B, chi_A x chi_B) from its factors' records, within the margin
above with e_A, e_B the factors' errors; the margin bounds every eigenvalue,
not only the extremes. Positivity is read from the record when its smallest
eigenvalue clears -ATOL_POSITIVE by e; otherwise eigvalsh decides. Any
other state is checked by eigvalsh and diagonalised by eigh once, when its
decomposition is first needed.

A coupling P (u x I_r), with P the row permutation of the register shift,
has P (u x I_r) (P (u x I_r))† - I = P ((u u† - I) x I_r) P^T, whose largest
entry is that of u u† - I: checking u is checking the coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    ATOL_COMPLETENESS,
    ATOL_HERMITIAN,
    ATOL_POSITIVE,
    Operator,
    Vector,
    eigh,
    identity,
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


def _hermitian_residual(mats: np.ndarray) -> float:
    """Largest entry of X - X† over the rows X of a (k, d, d) stack."""
    return np.max(np.abs(mats - mats.conj().swapaxes(1, 2)))


def _product_margin(e_a: float, e_b: float, h_a: float, h_b: float, d: int) -> float:
    """Bound on the distance between the spectrum of a d x d product A x B
    derived from its factors' recorded spectra (errors e, Hermiticity
    residuals h) and the one eigvalsh would return (module docstring)."""
    return 2 * (e_a + e_b) + d * (4 * (h_a + h_b) + _EIG_ROUNDING)


def _check_effects(mats: np.ndarray, derived=None, margin: float = 0.0) -> np.ndarray:
    """Raise ``ValueError`` unless every row of the (k, d, d) stack ``mats``
    is an effect: Hermitian within ``ATOL_HERMITIAN`` with spectrum inside
    [0, 1] within ``ATOL_POSITIVE``. Slices of rows are checked in order, each
    for Hermiticity before spectra, so a non-Hermitian row is reported before
    an earlier bad spectrum in the same slice. Returns each row's
    (lambda_min, lambda_max) as a read-only (k, 2) array.

    ``derived`` is None or per-row extremes that :func:`product_observable`
    derived within ``margin`` of those eigvalsh would return. A slice whose
    derived extremes clear the bounds by ``margin`` keeps them without an
    eigvalsh (module docstring)."""
    d = mats.shape[1]
    step = max(1, _CHECK_SLICE_BYTES // max(mats.itemsize * d * d, 1))
    parts = []
    for start in range(0, mats.shape[0], step):
        s = mats[start:start + step]
        if not _hermitian_residual(s) <= ATOL_HERMITIAN:
            raise ValueError("effect must be Hermitian within 1e-10")
        if derived is not None:
            ext = derived[start:start + step]
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
    extremes = parts[0] if len(parts) == 1 else np.concatenate(parts)
    extremes.setflags(write=False)
    return extremes


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
    spec L(T) (module docstring). Pure and product states record it when they
    are built; any other state runs one eigh for it, on first use."""

    op: Operator

    def __post_init__(self):
        if not self.op.is_hermitian():
            raise ValueError("state must be Hermitian within 1e-10")
        w = np.linalg.eigvalsh(self.op.mat)
        if w.min() < -ATOL_POSITIVE:
            raise ValueError(f"state not positive (min eig {w.min():.3e})")
        tr = self.op.trace().real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"state trace {tr} != 1")

    @property
    def dim(self) -> int:
        return self.op.dim

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, float]:
        q, chi = np.linalg.eigh(self.op.mat)
        return q, chi, self.dim * _EIG_ROUNDING


def _recorded_state(op: Operator, spectrum, h: float) -> State:
    """A State over ``op`` with the recorded ``spectrum`` (q, chi, e), given
    the Hermiticity residual h of ``op``. It has the checks and messages of
    :class:`State`, but positivity is read from the record when its smallest
    eigenvalue clears -ATOL_POSITIVE by e; otherwise eigvalsh decides."""
    if not h <= ATOL_HERMITIAN:
        raise ValueError("state must be Hermitian within 1e-10")
    q, chi, e = spectrum
    lo = min(q.min(), 0.0) if chi.shape[1] < op.dim else q.min()
    if not lo - e >= -ATOL_POSITIVE:
        w = np.linalg.eigvalsh(op.mat)
        if w.min() < -ATOL_POSITIVE:
            raise ValueError(f"state not positive (min eig {w.min():.3e})")
    tr = op.trace().real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state trace {tr} != 1")
    st = object.__new__(State)
    object.__setattr__(st, "op", op)
    st.__dict__["_spectrum"] = spectrum
    return st


def _product_state(*factors: State) -> State:
    """The tensor product of states, with its spectral decomposition taken
    from the factors' records by ``kron`` and its error bound from the
    product margin of the module docstring."""
    mat, (q, chi, e) = factors[0].op.mat, factors[0]._spectrum
    h = _hermitian_residual(mat[None])
    for f in factors[1:]:
        qf, chif, ef = f._spectrum
        hf = _hermitian_residual(f.op.mat[None])
        mat = np.kron(mat, f.op.mat)
        q, chi, e = np.kron(q, qf), np.kron(chi, chif), _product_margin(e, ef, h, hf, len(mat))
        h = _hermitian_residual(mat[None])
    dims = tuple(d for f in factors for d in (f.op.dims or (f.dim,)))
    return _recorded_state(Operator(mat, dims), (q, chi, e), h)


def effect(mat, dims=None) -> Effect:
    return Effect(Operator(mat, dims))


def vector_state(vec, dims=None) -> State:
    """Rank-one state from a (not necessarily normalized) vector; its unit
    vector is recorded as the eigenvector of eigenvalue 1."""
    v = vec if isinstance(vec, Vector) else Vector(vec, dims)
    u = v.normalized().vec
    op = Operator(np.outer(u, u.conj()), v.dims)
    h = _hermitian_residual(op.mat[None])
    e = op.dim * (h + 16 * np.finfo(float).eps) + abs(op.trace().real - 1.0)
    return _recorded_state(op, (np.ones(1), u[:, None], e), h)


def basis_state(k: int, dim: int) -> State:
    """The basis state |k><k| of a ``dim``-dimensional space."""
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return vector_state(v)


def maximally_mixed(dim: int) -> State:
    return State(Operator(np.eye(dim, dtype=complex) / dim))


class DiscreteObservable:
    """A finite outcome-labeled family of effects summing to the identity.

    The effects are held as one read-only complex stack ``mats`` of shape
    (k, d, d), row i belonging to ``outcomes[i]``. They may be given as such
    a stack or as a sequence of Effects, Operators or matrices; the input is
    copied, and the copy is checked by one :func:`_check_effects` call. The
    check's per-row (lambda_min, lambda_max) are kept as the read-only (k, 2)
    array ``extremes``, with the bound on their error (module docstring).

    Outcome labels may be integers, strings or tuples (tuples mark product
    outcome spaces and enable :func:`marginal`).
    """

    def __init__(self, outcomes, effects):
        self._init(outcomes, np.array(
            [e.op.mat if isinstance(e, Effect) else e.mat if isinstance(e, Operator) else e
             for e in effects],
            dtype=complex,
        ))

    def _init(self, outcomes, mats: np.ndarray, *derived):
        """Check and keep a fresh (k, d, d) stack; ``derived`` is empty or
        the (extremes, margin) of :func:`_check_effects`, and the margin then
        bounds the error of the kept extremes."""
        outcomes = tuple(outcomes)
        if len(outcomes) != len(mats):
            raise ValueError("outcomes and effects must have equal length")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        if not outcomes:
            raise ValueError("an observable needs at least one outcome")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a (k, d, d) stack of square matrices, got {mats.shape}")
        extremes = _check_effects(mats, *derived)
        if np.max(np.abs(mats.sum(axis=0) - np.eye(mats.shape[1]))) > ATOL_COMPLETENESS:
            raise ValueError("effects do not sum to the identity within tolerance")
        mats.setflags(write=False)
        self.outcomes = outcomes
        self.mats = mats
        self.extremes = extremes
        self._extremes_error = derived[1] if derived else mats.shape[1] * _EIG_ROUNDING
        self._index = {x: i for i, x in enumerate(outcomes)}

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


def _grouped(labels, mats: np.ndarray) -> DiscreteObservable:
    """Observable whose effect for each distinct label is the sum of the
    stack rows carrying that label, with the outcomes sorted."""
    outcomes = sorted(set(labels))
    index = {x: i for i, x in enumerate(outcomes)}
    summed = np.zeros((len(outcomes),) + mats.shape[1:], dtype=complex)
    np.add.at(summed, [index[x] for x in labels], mats)
    return DiscreteObservable(outcomes, summed)


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
        _check_unitary(self.coupling)
        self._check_probe_dims()

    def _check_probe_dims(self):
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


def product_observable(a: DiscreteObservable, b: DiscreteObservable) -> DiscreteObservable:
    """Observable on the tensor product with tuple outcome labels.

    Components that already carry tuple labels are flattened, so products of
    products keep a flat label arity. Each row's extremes are derived from the
    factors' ``extremes`` and an eigvalsh runs only where they do not clear
    the effect bounds by the margin of the module docstring.
    """
    outcomes = [
        (xa if isinstance(xa, tuple) else (xa,)) + (xb if isinstance(xb, tuple) else (xb,))
        for xa in a.outcomes for xb in b.outcomes
    ]
    d = a.dim * b.dim
    corners = (a.extremes[:, None, :, None] * b.extremes[None, :, None, :]).reshape(-1, 4)
    derived = np.stack((corners.min(axis=1), corners.max(axis=1)), axis=1)
    margin = _product_margin(a._extremes_error, b._extremes_error,
                             _hermitian_residual(a.mats), _hermitian_residual(b.mats), d)
    obs = object.__new__(DiscreteObservable)
    obs._init(outcomes, np.kron(a.mats[:, None], b.mats[None]).reshape(-1, d, d),
              derived, margin)
    return obs


def _check_unitary(op: Operator):
    if not op.is_unitary():
        raise ValueError("coupling is not unitary within 1e-10")


def _count_register_scheme(u: Operator, dim_reg: int, probe_state: State,
                           pointer: DiscreteObservable,
                           pointer_function: dict) -> MeasurementScheme:
    """The scheme whose coupling runs ``u`` on system (x) probe factors and
    then adds the system's basis index, mod ``dim_reg``, to a count register
    appended as the last probe factor: P (u x I_r) with P the row
    permutation of :func:`_controlled_shift`. ``u`` must carry dims metadata
    whose first factor is the system. Only ``u`` is checked for unitarity;
    that checks the coupling (module docstring)."""
    _check_unitary(u)
    du, ds = u.dim, u.dims[0]
    blocks = np.zeros((du, dim_reg, du, dim_reg), dtype=complex)
    levels = np.arange(dim_reg)
    blocks[:, levels, :, levels] = u.mat  # u x I_r, without np.kron's temporaries
    perm = _controlled_shift(np.arange(ds), du // ds, dim_reg)
    coupling = Operator(blocks.reshape(du * dim_reg, -1)[perm], u.dims + (dim_reg,))
    scheme = object.__new__(MeasurementScheme)
    for name, value in (("coupling", coupling), ("probe_state", probe_state),
                        ("pointer", pointer), ("pointer_function", pointer_function)):
        object.__setattr__(scheme, name, value)
    scheme._check_probe_dims()
    return scheme


def _controlled_shift(shifts, dim_other: int, dim_reg: int) -> np.ndarray:
    """Controlled cyclic shift of a register appended as the last factor,
    by ``shifts[n]`` on system basis state n, as a row permutation: row
    (n, m, k) of the result is row (n, m, k - shifts[n] mod dim_reg) of the
    operator it acts on, so ``u[perm]`` equals the permutation matrix times u."""
    shifts = np.asarray(shifts)
    n, m, k = np.indices((shifts.size, dim_other, dim_reg))
    return ((n * dim_other + m) * dim_reg + (k - shifts[n]) % dim_reg).reshape(-1)


def _probe_isometries(u4: np.ndarray, probe: State) -> np.ndarray:
    """Weighted isometry stack of a coupling and a probe state.

    ``u4`` is the coupling reshaped to (d_out, d_probe_out, d_in, d_probe_in)
    and ``probe`` the probe state, whose recorded spectral decomposition is
    sum_l q_l |chi_l><chi_l|. Returns K[l, a, i, b] =
    sqrt(q_l) (<a| x <i|) U (|b> x |chi_l>), keeping only the weights
    q_l > 1e-14.
    """
    qs, chis, _ = probe._spectrum
    keep = qs > 1e-14
    return np.einsum("aibc,cl->laib", u4, chis[:, keep] * np.sqrt(qs[keep]), optimize=True)


def _compressed_effects(u4: np.ndarray, probe: State,
                        pointer_effects: np.ndarray) -> np.ndarray:
    """Heisenberg-picture compression of stacked pointer effects Z_x.

    The probe state is T' = sum_l q_l |chi_l><chi_l|, and K_la is the
    isometry block K_la[i, b] = (<a| x <i|) U (|b> x |chi_l>), taken from
    :func:`_probe_isometries` (weights q_l <= 1e-14 are dropped). Returns the
    Hermitian-symmetrised F[a, x] = sum_l q_l K_la^dagger Z_x K_la for every
    output-system index a and outcome x, shape (d_out, k, d_in, d_in).
    Summed over a this is tr_probe[(I x T') U^dagger (I x Z_x) U]; no dense
    U^dagger (I x Z_x) U is formed.
    """
    k = _probe_isometries(u4, probe)
    # Z_x K first: the default greedy path refuses that intermediate for
    # mixed probes and falls back to an unblocked loop, ~100x slower
    f = np.einsum("laib,xij,lajc->axbc", k.conj(), pointer_effects, k,
                  optimize=["einsum_path", (1, 2), (0, 1)])
    return (f + f.conj().swapaxes(-1, -2)) / 2


def induced_observable(scheme: MeasurementScheme) -> DiscreteObservable:
    """The observable actually measured by a coupling scheme.

    The effect of an outcome set X satisfies
    tr[T F(X)] = tr[U (T x T') U† (I x Z(f^-1(X)))] for every system state T;
    effects are grouped over pointer-function preimages.
    """
    ds, dp = scheme.system_dim, scheme.probe_dim
    u4 = scheme.coupling.mat.reshape(ds, dp, ds, dp)
    fs = _compressed_effects(u4, scheme.probe_state, scheme.pointer.mats).sum(axis=0)
    return _grouped([scheme.map_outcome(zx) for zx in scheme.pointer.outcomes], fs)


def marginal(obs: DiscreteObservable, keep: int) -> DiscreteObservable:
    """Marginal observable over one component of tuple-labeled outcomes.

    ``keep`` is the 0-based index of the label component to retain; effects
    are summed over the discarded components.
    """
    if not all(isinstance(x, tuple) for x in obs.outcomes):
        raise ValueError("marginal requires tuple outcome labels")
    return _grouped([x[keep] for x in obs.outcomes], obs.mats)


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
    u4 = scheme.coupling.mat.reshape(ds, dp, ds, dp)
    k = _probe_isometries(u4, scheme.probe_state)
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


def _maximal_set_effects(obs: DiscreteObservable) -> list[Effect]:
    """Effects I - E(x) of the maximal nontrivial outcome sets Omega minus
    {x}, one per outcome whose effect is neither O nor I within 1e-8."""
    eye = np.eye(obs.dim)
    return [
        e.complement() for e in obs.effects
        if np.max(np.abs(e.op.mat)) > 1e-8 and np.max(np.abs(e.op.mat - eye)) > 1e-8
    ]


def _maximal_sets_disjoint(e1: DiscreteObservable, e2: DiscreteObservable,
                           subspace) -> bool:
    """Whether the projections ``subspace(I - E1(x))`` and
    ``subspace(I - E2(y))`` meet only in {0} for every pair of maximal
    nontrivial sets; False when either side has none."""
    if e1.dim != e2.dim:
        raise ValueError("observables act on different spaces")
    firsts = [subspace(f) for f in _maximal_set_effects(e1)]
    seconds = [subspace(f) for f in _maximal_set_effects(e2)]
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

    Exact on the maximal sets (module docstring): the relation holds iff
    range(I - E1(x)) ∩ range(I - E2(y)) = {0} for all outcomes x, y whose
    effects are neither O nor I.

    Raises for observables that are not projection valued; use
    :func:`are_prob_complementary` for general effects.
    """
    for obs in (e1, e2):
        if not obs.is_projection_valued():
            raise ValueError(
                "are_complementary is defined for projection-valued observables"
            )
    return _maximal_sets_disjoint(e1, e2, lambda f: f.op)


def are_prob_complementary(e1: DiscreteObservable, e2: DiscreteObservable) -> bool:
    """Probabilistic complementarity: certainty of a nontrivial outcome set
    of one observable excludes certainty or impossibility of any nontrivial
    outcome set of the other. Decided through eigenvalue-1 eigenspaces,
    exactly on the maximal sets (module docstring): the relation holds iff
    eigenspace_one(I - E1(x)) ∩ eigenspace_one(I - E2(y)) = {0} for all
    outcomes x, y whose effects are neither O nor I. False when either side
    has no such outcome."""
    return _maximal_sets_disjoint(e1, e2, eigenspace_one)


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
