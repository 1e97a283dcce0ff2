import itertools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from povmlab import kerrqnd, models, mzi, povm, spin
from povmlab.linalg import (ATOL_COMPLETENESS, ATOL_HERMITIAN, ATOL_POSITIVE, Operator,
                            haar_vector, identity, tensor)
from povmlab.povm import (
    _CHECK_SLICE_BYTES,
    _EIG_ROUNDING,
    DiscreteObservable,
    Effect,
    MeasurementScheme,
    State,
    StateTransformer,
    apply_transformer,
    are_complementary,
    are_prob_complementary,
    basis_state,
    effect,
    effect_bloch,
    eigenspace_one,
    induced_observable,
    is_first_kind,
    is_repeatable,
    joint_observable_feasible,
    luders_transformer,
    marginal,
    maximally_mixed,
    meet_projections,
    probability,
    product_observable,
    scheme_transformer,
    vector_state,
)


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim, rng, rank=None):
    rank = rank or dim
    m = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = m @ m.conj().T
    return State(Operator(rho / np.trace(rho).real))


def random_scheme(ds, dp, rng, probe_rank=None):
    u = Operator(random_unitary(ds * dp, rng), (ds, dp))
    probe = random_state(dp, rng, rank=probe_rank)
    basis = random_unitary(dp, rng)
    pointer = DiscreteObservable(
        list(range(dp)),
        [Effect(Operator(np.outer(basis[:, j], basis[:, j].conj()))) for j in range(dp)],
    )
    return MeasurementScheme(u, probe, pointer, None)


def basis_projector(dim, i):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, i] = 1.0
    return Operator(m)


class TestEffectState:
    def test_effect_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            effect(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_effect_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            effect(np.diag([1.5, 0.0]))
        with pytest.raises(ValueError):
            effect(np.diag([-0.2, 0.0]))

    def test_state_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            State(identity(2))

    def test_complement(self):
        e = effect(np.diag([0.25, 0.75]))
        assert_allclose(e.complement().op.mat, np.diag([0.75, 0.25]))

    def test_observable_rejects_empty_outcome_set(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            DiscreteObservable([], [])


def trine_stack():
    """Three unsharp qubit effects (I + 0.8 n_k.sigma)/3 summing to I."""
    angles = 2 * np.pi * np.arange(3) / 3
    return np.array([
        (np.eye(2) + 0.8 * (np.cos(a) * spin.PAULI_X + np.sin(a) * spin.PAULI_Z)) / 3
        for a in angles
    ])


def _qubit_scheme(coupling, probe_dim=2, pointer_dim=2):
    return MeasurementScheme(
        coupling,
        maximally_mixed(probe_dim),
        DiscreteObservable(range(pointer_dim), [np.diag(r) for r in np.eye(pointer_dim)]),
    )


class TestValidationErrors:
    def test_observable(self):
        stack = trine_stack()
        with pytest.raises(ValueError, match="outcomes and effects must have equal length"):
            DiscreteObservable("abc", stack[:2])
        with pytest.raises(ValueError, match="outcome labels must be unique"):
            DiscreteObservable("aab", stack)
        with pytest.raises(ValueError, match="effects do not sum to the identity"):
            DiscreteObservable("ab", stack[:2])

    def test_state(self):
        with pytest.raises(ValueError, match="state must be Hermitian"):
            State(Operator(np.array([[0.5, 0.3], [0.0, 0.5]])))
        with pytest.raises(ValueError, match="state not positive"):
            State(Operator(np.diag([1.5, -0.5])))
        with pytest.raises(ValueError, match="state trace"):
            State(Operator(np.diag([0.5, 0.25])))

    def test_measurement_scheme(self):
        with pytest.raises(ValueError, match="coupling needs dims metadata"):
            _qubit_scheme(Operator(np.eye(4)))
        with pytest.raises(ValueError, match="coupling is not unitary"):
            _qubit_scheme(Operator(2 * np.eye(4), (2, 2)))
        for probe_dim, pointer_dim in ((3, 2), (2, 3)):
            with pytest.raises(ValueError, match="probe state / pointer dims inconsistent"):
                _qubit_scheme(Operator(np.eye(4), (2, 2)), probe_dim, pointer_dim)
        scheme = _qubit_scheme(Operator(np.eye(4), (2, 2)))
        for function, message in (
                ({0: "a"}, "pointer_function does not map pointer outcome 1"),
                (["a", "b"], "pointer_function ['a', 'b'] is neither None nor a dict"),
                ({0: "a", 1: 1}, "pointer_function labels cannot be sorted together"),
                ({0: ["a"], 1: ["b"]}, "pointer_function labels cannot be sorted together")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MeasurementScheme(scheme.coupling, scheme.probe_state, scheme.pointer, function)
        mixed = DiscreteObservable([0, "b"], scheme.pointer.mats)
        with pytest.raises(ValueError, match="cannot be sorted together$"):
            MeasurementScheme(scheme.coupling, scheme.probe_state, mixed)

    def test_pointer_function_is_kept_as_a_copy(self):
        # a CNOT onto a probe in |0> reads the system's basis state
        cnot = Operator(np.eye(4)[[0, 1, 3, 2]], (2, 2))
        pointer = DiscreteObservable([0, 1], np.eye(2)[:, None] * np.eye(2))
        function = {0: "a", 1: "b"}
        scheme = MeasurementScheme(cnot, basis_state(0, 2), pointer, function)
        before = induced_observable(scheme)
        del function[1]
        function[0] = "z"
        after = induced_observable(scheme)
        assert after.outcomes == before.outcomes == ("a", "b")
        assert after.mats.tobytes() == before.mats.tobytes()
        assert np.array_equal(after.mats, np.eye(2)[:, None] * np.eye(2))
        assert scheme.map_outcome(1) == "b"

    def test_transformer_trace_increasing(self):
        with pytest.raises(ValueError, match="transformer is not trace nonincreasing"):
            StateTransformer((0,), [(Operator(np.sqrt(2) * np.eye(2)),)])

    def test_transformer_nan_element(self):
        with pytest.raises(ValueError, match="operation elements must be finite"):
            StateTransformer((0,), [(np.diag([np.nan, 0.5]),)])

    def test_transformer_duplicate_outcomes(self):
        half = np.sqrt(0.5) * np.eye(2)
        with pytest.raises(ValueError, match="outcome labels must be unique"):
            StateTransformer((0, 0), [(half,), (half,)])

    def test_transformer_dimension_mismatch(self):
        tf = luders_transformer(spin.spin_observable([0, 0, 1.0]))
        with pytest.raises(ValueError, match="dimension mismatch: state 3, transformer 2"):
            apply_transformer(tf, tf.outcomes, maximally_mixed(3))
        with pytest.raises(ValueError, match="dimension mismatch: transformer 2, observable 3"):
            is_first_kind(tf, DiscreteObservable([0], [np.eye(3)]))

    def test_transformer_mismatched_sizes(self):
        with pytest.raises(ValueError, match="square matrices of one size"):
            StateTransformer((0, 1), [(0.5 * np.eye(2),), (0.5 * np.eye(3),)])
        with pytest.raises(ValueError, match="square matrices of one size"):
            StateTransformer((0,), [(np.ones((2, 3)) / 3,)])


class TestObservableStack:
    def test_stack_and_effects_agree(self):
        stack = trine_stack()
        from_stack = DiscreteObservable("abc", stack)
        from_effects = DiscreteObservable("abc", [effect(m) for m in stack])
        assert from_stack.mats.shape == (3, 2, 2)
        assert np.array_equal(from_stack.mats, from_effects.mats)
        for i, (x, e) in enumerate(from_stack):
            assert np.array_equal(e.op.mat, stack[i])
            assert from_stack.effect_for(x).op.mat is e.op.mat

    def test_mats_and_views_are_read_only(self):
        obs = DiscreteObservable("abc", trine_stack())
        with pytest.raises(ValueError):
            obs.mats[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            obs.effects[0].op.mat[0, 0] = 1.0

    def test_caller_writes_do_not_reach_the_observable(self):
        stack = trine_stack()
        obs = DiscreteObservable("abc", stack)
        listed = [m.copy() for m in stack]
        from_list = DiscreteObservable("abc", listed)
        stack[0] += 0.5
        listed[0] += 0.5
        assert np.array_equal(obs.mats, trine_stack())
        assert np.array_equal(from_list.mats, trine_stack())

    def test_stack_rows_are_not_rebuilt_as_effects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Effect.__post_init__ called")

        monkeypatch.setattr(Effect, "__post_init__", refuse)
        obs = DiscreteObservable("abc", trine_stack())
        assert len(obs.effects) == 3
        assert marginal(product_observable(obs, obs), keep=1).outcomes == tuple("abc")

    def test_stack_rows_are_checked(self):
        stack = trine_stack()
        skew = stack.copy()
        # rows no longer Hermitian, sums still I: only the row check can reject
        skew[0, 0, 1] += 0.1
        skew[1, 0, 1] -= 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DiscreteObservable("abc", skew)
        outside = np.array([np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])])
        with pytest.raises(ValueError, match="outside"):
            DiscreteObservable("ab", outside)
        with pytest.raises(ValueError, match="square"):
            DiscreteObservable("ab", np.zeros((2, 2, 3)))


def reference_check_effect(mat):
    """The per-row effect check that ``_check_effects`` batches."""
    if not np.max(np.abs(mat - mat.conj().T)) <= 1e-10:
        raise ValueError("effect must be Hermitian within 1e-10")
    w = np.linalg.eigvalsh(mat)
    if w.min() < -1e-10 or w.max() > 1.0 + 1e-10:
        raise ValueError(
            f"effect spectrum [{w.min():.3e}, {w.max():.6f}] outside [0, 1]"
        )


def reference_error(mats):
    """The message of the first row the per-row check rejects, else None."""
    for m in mats:
        try:
            reference_check_effect(m)
        except ValueError as exc:
            return str(exc)
    return None


def rows_per_slice(d):
    return max(1, _CHECK_SLICE_BYTES // (16 * d * d))


class TestBatchedEffectCheck:
    @staticmethod
    def valid_stack(d, k, rng):
        """k effects U diag(p) U+ with a random unitary U and p in [0.05, 0.95]."""
        u = random_unitary(d, rng)
        p = rng.uniform(0.05, 0.95, size=(k, d))
        return np.einsum("ij,kj,lj->kil", u, p, u.conj()), u

    @pytest.mark.parametrize("d,slices", [(2, 3), (41, 3), (144, 3)])
    def test_one_bad_row_first_and_last_in_a_slice(self, d, slices):
        step = rows_per_slice(d)
        k = slices * step + (1 if step > 1 else 0)  # a short last slice
        rng = np.random.default_rng(d)
        stack, u = self.valid_stack(d, k, rng)
        assert reference_error(stack) is None
        povm._check_effects(stack)
        top = np.outer(u[:, 0], u[:, 0].conj())
        skew = np.zeros((d, d), dtype=complex)
        skew[0, d - 1] = 1e-6
        bad_rows = {"non-Hermitian": skew, "above one": 1.2 * top, "below zero": -1.2 * top}
        positions = sorted({0, step - 1, step, 2 * step - 1, (slices - 1) * step, k - 1})
        for kind, delta in bad_rows.items():
            for i in positions:
                bad = stack.copy()
                bad[i] += delta
                # the other rows pass the reference, so its verdict on the
                # stack is its verdict on row i
                expected = reference_error(bad[i:i + 1])
                assert expected is not None, (kind, i)
                with pytest.raises(ValueError) as err:
                    povm._check_effects(bad)
                assert str(err.value) == expected, (kind, i)

    def test_rows_larger_than_a_slice_form_an_observable(self):
        d = 144
        assert 16 * d * d > _CHECK_SLICE_BYTES
        rng = np.random.default_rng(7)
        u = random_unitary(d, rng)
        p = rng.dirichlet(np.ones(3), size=d).T
        stack = np.einsum("ij,kj,lj->kil", u, p, u.conj())
        stack = (stack + stack.conj().swapaxes(1, 2)) / 2
        obs = DiscreteObservable(range(3), stack)
        assert np.array_equal(obs.mats, stack)

    def test_each_construction_checks_once(self, monkeypatch):
        effects = [effect(m) for m in trine_stack()]
        calls = []
        check = povm._check_effects

        def counted(mats, *args):
            calls.append(mats.shape)
            check(mats)

        monkeypatch.setattr(povm, "_check_effects", counted)
        DiscreteObservable("abc", effects)
        assert calls == [(3, 2, 2)]
        effects[0].complement()
        assert calls[1:] == [(1, 2, 2)]
        spin.spin_observable([0.6, 0.0, 0.0])
        assert calls[2:] == [(2, 2, 2)]


class TestBasisState:
    def test_is_the_projector_onto_basis_vector_k(self):
        for dim, k in ((2, 0), (5, 3), (16, 15)):
            expected = np.diag([1.0 if i == k else 0.0 for i in range(dim)])
            assert np.array_equal(basis_state(k, dim).op.mat, expected)
        assert np.array_equal(basis_state(np.int64(1), np.int32(3)).op.mat, np.diag([0, 1, 0]))

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_index_is_rejected(self, k):
        with pytest.raises(ValueError, match=rf"^basis index {k} is not an integer in \[0, 3\)$"):
            basis_state(k, 3)

    @pytest.mark.parametrize("k", [3, 4])
    def test_index_past_the_dimension_is_rejected(self, k):
        with pytest.raises(ValueError, match=rf"^basis index {k} is not an integer in \[0, 3\)$"):
            basis_state(k, 3)

    @pytest.mark.parametrize("k", [1.0, 0.5, True])
    def test_non_integer_index_is_rejected(self, k):
        with pytest.raises(ValueError, match=rf"^basis index {k!r} is not an integer in \[0, 3\)$"):
            basis_state(k, 3)

    @pytest.mark.parametrize("dim", [0, -2, 2.5, 3.0, True])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match=rf"^dimension {dim!r} is not a positive integer$"):
            basis_state(0, dim)

    @pytest.mark.parametrize("dim", [0, -2, 2.5, True])
    def test_maximally_mixed_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match=rf"^dimension {dim!r} is not a positive integer$"):
            maximally_mixed(dim)


class TestProbability:
    def test_normalization(self):
        phi = vector_state([1.0, 1.0j])
        assert abs(probability(phi, Effect(identity(2))) - 1.0) < 1e-12

    def test_boundary_clamp(self):
        # slightly out-of-range traces clamp onto [0, 1]
        up = vector_state([1.0, 0.0])
        e = effect(np.diag([1.0 + 5e-11, 0.0]))
        assert probability(up, e) == 1.0
        e0 = effect(np.diag([-5e-11, 1.0]))
        assert probability(up, e0) == 0.0

    def test_scaled_projection(self):
        # one-photon state against a scaled one-photon projection reads the scale
        eps = 0.37
        one = vector_state([0.0, 1.0])
        e = effect(np.diag([0.0, eps]))
        assert abs(probability(one, e) - eps) < 1e-14

    def test_mixed_state_half_trace(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (m + m.conj().T) / 2
        h = h / (2 * np.max(np.abs(np.linalg.eigvalsh(h)))) + np.eye(2) / 2
        e = effect(h)
        assert abs(probability(maximally_mixed(2), e)
                   - np.trace(e.op.mat).real / 2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            probability(maximally_mixed(2), Effect(identity(3)))

    @given(st.integers(0, 10**6))
    def test_outcome_distribution(self, seed):
        rng = np.random.default_rng(seed)
        obs = induced_observable(random_scheme(3, 4, rng))
        st_ = random_state(3, rng)
        probs = list(obs.probabilities(st_).values())
        assert all(-1e-10 <= p <= 1 + 1e-10 for p in probs)
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_probabilities_match_per_effect_loop(self):
        rng = np.random.default_rng(7)
        for pair in _reference_instances(rng):
            for mats in pair:
                obs = DiscreteObservable(range(len(mats)), [Operator(m) for m in mats])
                for st_ in (random_state(obs.dim, rng), random_state(obs.dim, rng, rank=1)):
                    probs = obs.probabilities(st_)
                    assert list(probs) == list(obs.outcomes)
                    for x, e in obs:
                        assert abs(probs[x] - probability(st_, e)) <= 1e-15
        with pytest.raises(ValueError, match="dimension mismatch"):
            obs.probabilities(maximally_mixed(obs.dim + 1))


class TestInducedObservable:
    def test_decoupled_probe_is_trivial(self):
        rng = np.random.default_rng(1)
        probe = random_state(3, rng)
        pointer = DiscreteObservable(
            [0, 1, 2], [Effect(basis_projector(3, i)) for i in range(3)]
        )
        scheme = MeasurementScheme(identity(6, (2, 3)), probe, pointer, None)
        obs = induced_observable(scheme)
        for x, e in obs:
            weight = probability(probe, pointer.effect_for(x))
            assert_allclose(e.op.mat, weight * np.eye(2), atol=1e-12)

    @given(st.integers(0, 10**6))
    def test_probability_reproducibility(self, seed):
        # system-side statistics equal pointer-side statistics on the
        # evolved joint state
        rng = np.random.default_rng(seed)
        for probe_rank in (None, 1):  # full-rank and rank-deficient probes
            scheme = random_scheme(2, 3, rng, probe_rank)
            obs = induced_observable(scheme)
            t = random_state(2, rng)
            joint = tensor(t.op, scheme.probe_state.op)
            evolved = scheme.coupling.mat @ joint.mat @ scheme.coupling.mat.conj().T
            for x, e in obs:
                lhs = probability(t, e)
                pointer_proj = np.kron(np.eye(2), scheme.pointer.effect_for(x).op.mat)
                rhs = np.trace(evolved @ pointer_proj).real
                assert abs(lhs - rhs) < 1e-10

    def test_output_is_valid_observable(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            obs = induced_observable(random_scheme(3, 3, rng))
            total = sum(e.op.mat for _, e in obs)
            assert np.max(np.abs(total - np.eye(3))) < 1e-9


class TestMarginal:
    def test_product_case(self):
        # the kept marginal of a product observable is the factor observable
        # embedded on the product space
        e1 = spin.spin_observable([0.0, 0.0, 0.9])
        e2 = spin.spin_observable([0.4, 0.0, 0.0])
        prod = product_observable(e1, e2)
        m0 = marginal(prod, keep=0)
        for x, e in e1:
            assert_allclose(
                m0.effect_for(x).op.mat, tensor(e.op, identity(2)).mat, atol=1e-12
            )

    def test_marginals_complete(self):
        rng = np.random.default_rng(3)
        obs = induced_observable(random_scheme(2, 4, rng))
        relabeled = DiscreteObservable(
            [(x // 2, x % 2) for x, _ in obs], [e for _, e in obs]
        )
        for keep in (0, 1):
            total = sum(e.op.mat for _, e in marginal(relabeled, keep))
            assert np.max(np.abs(total - np.eye(2))) < 1e-9

    def test_requires_tuple_labels(self):
        obs = spin.spin_observable([0, 0, 1.0])
        with pytest.raises(ValueError):
            marginal(obs, 0)

    @pytest.mark.parametrize("keep", [2, -1, 1.0, True, None])
    def test_keep_is_an_index_into_the_labels(self, keep):
        prod = product_observable(spin.spin_observable([0, 0, 1.0]), mzi.number_observable(2))
        with pytest.raises(ValueError, match=rf"^keep {keep!r} is not an integer in \[0, 2\)$"):
            marginal(prod, keep)
        assert marginal(prod, np.int64(1)).outcomes == (0, 1)


class TestTransformers:
    def test_luders_eigenstate_fixed_point(self):
        obs = DiscreteObservable(
            [0, 1], [Effect(basis_projector(2, 0)), Effect(basis_projector(2, 1))]
        )
        tf = luders_transformer(obs)
        up = vector_state([1.0, 0.0])
        out = apply_transformer(tf, 0, up)
        assert_allclose(out.mat, up.op.mat, atol=1e-12)

    def test_trace_matches_probability(self):
        rng = np.random.default_rng(4)
        scheme = random_scheme(3, 3, rng)
        tf = scheme_transformer(scheme)
        obs = induced_observable(scheme)
        for _ in range(5):
            t = random_state(3, rng)
            for x in tf.outcomes:
                p = probability(t, obs.effect_for(x))
                assert abs(apply_transformer(tf, x, t).trace().real - p) < 1e-10

    def test_unknown_outcome(self):
        obs = DiscreteObservable(
            [0, 1], [Effect(basis_projector(2, 0)), Effect(basis_projector(2, 1))]
        )
        tf = luders_transformer(obs)
        with pytest.raises(KeyError):
            apply_transformer(tf, "missing", maximally_mixed(2))

    def test_luders_repeatable(self):
        obs = DiscreteObservable(
            [0, 1], [Effect(basis_projector(2, 0)), Effect(basis_projector(2, 1))]
        )
        assert is_repeatable(luders_transformer(obs))

    def test_zero_kraus_outcome_trivially_repeatable(self):
        tf = StateTransformer(
            ("a", "b"),
            ((Operator(np.zeros((2, 2))),), (identity(2),)),
        )
        assert is_repeatable(tf)

    def test_luders_elements_square_to_effects(self):
        rng = np.random.default_rng(7)
        for full_rank in (True, False):
            obs = DiscreteObservable(range(3), _unsharp(rng, 5, 3, full_rank))
            tf = luders_transformer(obs)
            assert np.array_equal(tf.owner, np.arange(3))
            for root, e in zip(tf.kraus, obs.mats):
                assert_allclose(root, root.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(root).min() >= -1e-12
                assert_allclose(root @ root, e, atol=1e-12)

    def test_first_kind_for_luders(self):
        obs = DiscreteObservable(
            [0, 1], [Effect(basis_projector(2, 0)), Effect(basis_projector(2, 1))]
        )
        assert is_first_kind(luders_transformer(obs), obs)


class TestEigenspaceMeet:
    def test_eigenspace_identity(self):
        assert_allclose(eigenspace_one(Effect(identity(3))).mat, np.eye(3))

    def test_eigenspace_scaled_projection(self):
        e = effect(0.9 * basis_projector(2, 0).mat)
        assert np.max(np.abs(eigenspace_one(e).mat)) == 0.0

    def test_eigenspace_projection(self):
        p = basis_projector(3, 1)
        assert_allclose(eigenspace_one(Effect(p)).mat, p.mat, atol=1e-12)

    def test_meet_idempotent(self):
        p = basis_projector(3, 0)
        assert_allclose(meet_projections(p, p).mat, p.mat, atol=1e-10)

    def test_meet_complementary(self):
        p = basis_projector(2, 0)
        q = Operator(np.eye(2) - p.mat)
        assert np.max(np.abs(meet_projections(p, q).mat)) < 1e-10

    def test_meet_rejects_non_projection(self):
        with pytest.raises(ValueError):
            meet_projections(Operator(np.diag([0.5, 0.0])), basis_projector(2, 0))

    def _random_rank2_projection(self, dim, rng):
        m = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        q, _ = np.linalg.qr(m)
        return Operator(q @ q.conj().T), q

    def test_rank2_meet_against_stacking_oracle(self):
        # rank(P ^ Q) = rank(P) + rank(Q) - rank([basis_P basis_Q])
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, bp = self._random_rank2_projection(3, rng)
            q, bq = self._random_rank2_projection(3, rng)
            meet = meet_projections(p, q)
            stacked_rank = np.linalg.matrix_rank(np.hstack([bp, bq]), tol=1e-8)
            expectedingredient = 2 + 2 - stacked_rank
            got = int(round(np.trace(meet.mat).real))
            assert got == expectedingredient
            assert got >= 1

    def test_meet_is_largest_lower_bound(self):
        rng = np.random.default_rng(6)
        for dim in (4, 6):
            for _ in range(10):
                p, bp = self._random_rank2_projection(dim, rng)
                q, bq = self._random_rank2_projection(dim, rng)
                meet = meet_projections(p, q)
                # below both in the effect ordering
                for r in (p, q):
                    w = np.linalg.eigvalsh(r.mat - meet.mat)
                    assert w.min() > -1e-9
                # and as large as the brute-force intersection projector
                stacked_rank = np.linalg.matrix_rank(np.hstack([bp, bq]), tol=1e-8)
                assert int(round(np.trace(meet.mat).real)) == 4 - stacked_rank


class TestComplementarity:
    def test_path_vs_interference(self):
        path = mzi.single_photon_observable(1.0, 0.0)
        interference = mzi.single_photon_observable(0.5, 0.3)
        assert are_complementary(path, interference)
        assert are_prob_complementary(path, interference)

    def test_self_is_not_complementary(self):
        path = mzi.single_photon_observable(1.0, 0.0)
        assert not are_complementary(path, path)

    def test_commuting_sharp_pair(self):
        obs = DiscreteObservable(
            [0, 1], [Effect(basis_projector(2, 0)), Effect(basis_projector(2, 1))]
        )
        assert not are_complementary(obs, obs)

    def test_rejects_unsharp(self):
        smeared = spin.spin_observable([0.5, 0.0, 0.0])
        sharp = spin.spin_observable([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            are_complementary(smeared, sharp)

    def test_unsharp_pair_probabilistically_complementary(self):
        a = spin.spin_observable([0.6, 0.0, 0.0])
        b = spin.spin_observable([0.0, 0.6, 0.0])
        assert are_prob_complementary(a, b)
        # coexistent nevertheless
        assert joint_observable_feasible(a, b)

    def test_trivial_observable_guard(self):
        # all outcome sets trivial: the predicate reports no complementarity
        trivial = DiscreteObservable(
            [0, 1], [Effect(identity(2)), Effect(Operator(np.zeros((2, 2))))]
        )
        sharp = spin.spin_observable([0.0, 0.0, 1.0])
        assert not are_prob_complementary(trivial, sharp)


def _nontrivial_outcome_subsets(obs, atol=1e-8):
    """Effects of all unions of outcomes that are neither O nor I: the
    exact enumeration over the 2^k outcome sets."""
    eye = np.eye(obs.dim)
    found = []
    for r in range(1, len(obs)):  # full set gives I, empty gives O
        for subset in itertools.combinations(obs.effects, r):
            e = sum(f.op.mat for f in subset)
            if np.max(np.abs(e)) > atol and np.max(np.abs(e - eye)) > atol:
                found.append(e)
    return found


def brute_force_complementarity(e1, e2, subspace):
    """Reference decision over all pairs of nontrivial outcome sets (X, Y)
    and the complement pairs (X, Y'), (X', Y): ``subspace`` maps a set's
    effect to the projection whose meets are tested (its range, or its
    eigenvalue-1 eigenspace). False when either side has no such set."""
    eye = np.eye(e1.dim)
    subs2 = [(subspace(b), subspace(eye - b)) for b in _nontrivial_outcome_subsets(e2)]
    pairs = 0
    for a in _nontrivial_outcome_subsets(e1):
        pa, pa_c = subspace(a), subspace(eye - a)
        for pb, pb_c in subs2:
            pairs += 1
            for x, y in ((pa, pb), (pa, pb_c), (pa_c, pb)):
                if np.max(np.abs(meet_projections(x, y).mat)) > 1e-8:
                    return False
    return pairs > 0


def _range(m):
    return Operator(m)


def _certainty(m):
    return eigenspace_one(Effect(Operator(m)))


def _blocks(basis, labels, k):
    """PVM with one effect per label: the projection onto the basis columns
    carrying it (zero for a label no column carries)."""
    return [basis[:, labels == x] @ basis[:, labels == x].conj().T for x in range(k)]


def _normalized(parts):
    """S^-1/2 A_x S^-1/2 with S = sum A_x, inverted on the support of S: a
    POVM on that support."""
    w, v = np.linalg.eigh(sum(parts))
    keep = w > 1e-9 * w.max()
    inv_root = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    out = [inv_root @ a @ inv_root for a in parts]
    return [(m + m.conj().T) / 2 for m in out]


def _wishart(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def _unsharp(rng, dim, k, full_rank):
    """k Wishart effects normalized to a POVM; their ranks sum to at least
    dim, so the sum is invertible."""
    ranks = np.full(k, dim) if full_rank else rng.integers(1, dim + 1, k)
    ranks[0] = max(ranks[0], dim - ranks[1:].sum())
    return _normalized([_wishart(rng, dim, r) for r in ranks])


def _reference_instances(rng):
    """Pairs of effect lists on C^d, d <= 5, k <= 4 outcomes per side."""
    for _ in range(12):
        # coarse-grained PVMs; some labels carry no column (effect O)
        d, k1, k2 = rng.integers(2, 6), rng.integers(2, 5), rng.integers(2, 5)
        yield (_blocks(random_unitary(d, rng), rng.integers(0, k1, d), k1),
               _blocks(random_unitary(d, rng), rng.integers(0, k2, d), k2))
    for _ in range(10):
        # PVMs sharing a coarse-grained block: the second basis rotates
        # within the span of the first block and within its complement
        d, k = rng.integers(3, 6), rng.integers(2, 5)
        u = random_unitary(d, rng)
        labels = np.concatenate([[0], rng.integers(0, k, d - 1)])
        shared = labels == 0
        v = u.copy()
        v[:, ~shared] = u[:, ~shared] @ random_unitary(int((~shared).sum()), rng)
        v[:, shared] = u[:, shared] @ random_unitary(int(shared.sum()), rng)
        second = np.where(shared, 0, rng.integers(1, k, d))
        yield _blocks(u, labels, k), _blocks(v, second, k)
    for _ in range(6):
        # two outcomes of rank d/2 in d = 2, 4: complementary for generic bases
        d = int(rng.choice([2, 4]))
        labels = np.arange(d) % 2
        yield (_blocks(random_unitary(d, rng), labels, 2),
               _blocks(random_unitary(d, rng), labels, 2))
    for _ in range(4):
        # an outcome whose effect is I makes every outcome set trivial
        d, k = rng.integers(2, 6), rng.integers(2, 5)
        trivial = [np.eye(d)] + [np.zeros((d, d))] * (k - 1)
        other = _blocks(random_unitary(d, rng), rng.integers(0, k, d), k)
        yield (trivial, other) if rng.integers(2) else (other, trivial)
    for full_rank in (True, False):
        # unsharp pairs; with rank-deficient effects some I - E(x) reach
        # eigenvalue 1
        for _ in range(10):
            d = rng.integers(2, 6)
            yield tuple(_unsharp(rng, d, k, full_rank) for k in rng.integers(2, 5, 2))
    for _ in range(10):
        # pairs whose first effects share an eigenvalue-1 vector psi
        d = rng.integers(2, 6)
        psi = haar_vector(d, rng).vec
        proj = np.outer(psi, psi.conj())
        comp = np.eye(d) - proj
        pair = []
        for k in rng.integers(2, 5, 2):
            parts = _normalized([comp @ _wishart(rng, d, d) @ comp for _ in range(k)])
            parts[0] = parts[0] + proj
            pair.append(parts)
        yield tuple(pair)


def _reference_observables():
    rng = np.random.default_rng(20261018)
    return [tuple(DiscreteObservable(range(len(ms)), np.array(ms)) for ms in pair)
            for pair in _reference_instances(rng)]


class TestComplementarityReference:
    def test_maximal_sets_agree_with_subset_enumeration(self):
        rng = np.random.default_rng(20261018)
        verdicts = {"sharp": set(), "prob": set()}
        for first, second in _reference_instances(rng):
            e1 = DiscreteObservable(range(len(first)), [Operator(m) for m in first])
            e2 = DiscreteObservable(range(len(second)), [Operator(m) for m in second])
            prob = are_prob_complementary(e1, e2)
            assert prob == brute_force_complementarity(e1, e2, _certainty)
            verdicts["prob"].add(prob)
            if e1.is_projection_valued() and e2.is_projection_valued():
                sharp = are_complementary(e1, e2)
                assert sharp == brute_force_complementarity(e1, e2, _range)
                verdicts["sharp"].add(sharp)
        assert verdicts == {"sharp": {True, False}, "prob": {True, False}}

    def test_decisions_build_no_effect_and_no_complement(self, monkeypatch):
        pairs = _reference_observables()
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(povm, "_check_effects", counted("check", povm._check_effects))
        monkeypatch.setattr(Effect, "__post_init__", counted("Effect", Effect.__post_init__))
        monkeypatch.setattr(povm, "eigenspace_one", counted("eigenspace", povm.eigenspace_one))
        for e1, e2 in pairs:
            povm.are_prob_complementary(e1, e2)
            if e1.is_projection_valued() and e2.is_projection_valued():
                povm.are_complementary(e1, e2)
        assert calls == []

    def test_compared_eigenvalues_clear_the_threshold(self):
        # every eigenvalue the decision compares with 1e-8, of E(x) and of
        # (I - P) + (I - Q), is far from it, so no verdict rests on rounding
        compared = []
        for e1, e2 in _reference_observables():
            for obs in (e1, e2):
                m = obs.mats
                nontrivial = ((np.max(np.abs(m), axis=(1, 2)) > 1e-8)
                              & (np.max(np.abs(m - np.eye(obs.dim)), axis=(1, 2)) > 1e-8))
                compared.append(np.linalg.eigvalsh(m[nontrivial]).ravel())
            eye = np.eye(e1.dim)
            for p in povm._kernel_projections(e1):
                for q in povm._kernel_projections(e2):
                    gap = (eye - p.mat) + (eye - q.mat)
                    compared.append(np.linalg.eigvalsh((gap + gap.conj().T) / 2))
        values = np.concatenate(compared)
        near = np.abs(values) <= 1e-8
        assert near.any() and (~near).any()
        assert np.max(np.abs(values[near])) < 1e-12
        assert np.min(values[~near]) > 1e-6

    def test_sharp_and_probabilistic_agree_on_projection_valued_pairs(self):
        sharp_pairs = 0
        for e1, e2 in _reference_observables():
            if e1.is_projection_valued() and e2.is_projection_valued():
                sharp_pairs += 1
                assert are_complementary(e1, e2) == are_prob_complementary(e1, e2)
        assert sharp_pairs >= 30


def _two_valued(first):
    return DiscreteObservable(
        [0, 1], [Effect(Operator(first)), Effect(Operator(np.eye(2) - first))]
    )


def _bloch_effect(t, b):
    """(t I + b·sigma)/2."""
    return (t * np.eye(2) + sum(c * s for c, s in
                                zip(b, (spin.PAULI_X, spin.PAULI_Y, spin.PAULI_Z)))) / 2


def _grid_max_slack(t1, b1, t2, b2, n0=41, n=81):
    """Best slack min_i (r_i - |g - c_i|) over a (g0, g) grid, and the grid's
    allowance. G(+,+) = (g0 I + g·sigma)/2 completes to a joint observable
    iff |g| <= g0, |g - b1| <= t1 - g0, |g - b2| <= t2 - g0 and
    |g - b1 - b2| <= 2 - t1 - t2 + g0. The centres span a plane, and
    projecting g onto it shortens every distance, so g runs over the plane,
    on the square around the unit disc that holds every feasible g. Each
    slack is 1-Lipschitz in g0 and in g, so a feasible point leaves a grid
    point with slack >= -allowance."""
    basis, _ = np.linalg.qr(np.column_stack([b1, b2, [0.3, 0.5, 0.7]]))
    centres = [np.zeros(2), basis[:, :2].T @ b1, basis[:, :2].T @ b2,
               basis[:, :2].T @ (b1 + b2)]
    lo, hi = max(0.0, t1 + t2 - 2.0), min(t1, t2)
    g0 = np.linspace(lo, hi, n0)[:, None, None]
    x, y = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n), indexing="ij")
    radii = [g0, t1 - g0, t2 - g0, 2.0 - t1 - t2 + g0]
    slack = np.minimum.reduce([r - np.hypot(x - c[0], y - c[1])
                               for r, c in zip(radii, centres)])
    allowance = (hi - lo) / (n0 - 1) / 2 + np.hypot(2 / (n - 1), 2 / (n - 1)) / 2
    return float(slack.max()), allowance


class TestEffectBloch:
    def test_random_effects_rebuild_from_their_bloch_form(self):
        rng = np.random.default_rng(43)
        paulis = (spin.PAULI_X, spin.PAULI_Y, spin.PAULI_Z)
        for _ in range(50):
            u = random_unitary(2, rng)
            e = effect(u @ np.diag(rng.uniform(0, 1, 2)) @ u.conj().T)
            t, b = effect_bloch(e)
            rebuilt = (t * np.eye(2) + sum(bi * p for bi, p in zip(b, paulis))) / 2
            assert np.max(np.abs(rebuilt - e.op.mat)) <= 1e-15

    def test_requires_a_qubit_effect(self):
        with pytest.raises(ValueError, match="^effect_bloch requires a qubit effect$"):
            effect_bloch(effect(np.eye(3) / 2))


class TestJointFeasibility:
    def test_commuting_pair(self):
        e1 = DiscreteObservable(
            ["+", "-"], [effect(np.diag([0.9, 0.2])), effect(np.diag([0.1, 0.8]))]
        )
        e2 = DiscreteObservable(
            ["+", "-"], [effect(np.diag([0.7, 0.4])), effect(np.diag([0.3, 0.6]))]
        )
        assert joint_observable_feasible(e1, e2)

    def test_sharp_orthogonal_pair(self):
        x = spin.spin_observable([1.0, 0.0, 0.0])
        y = spin.spin_observable([0.0, 1.0, 0.0])
        assert not joint_observable_feasible(x, y)

    def test_smeared_pair_feasible(self):
        a = spin.spin_observable([0.6, 0.0, 0.0])
        b = spin.spin_observable([0.0, 0.6, 0.0])
        assert joint_observable_feasible(a, b)

    def test_rejects_higher_dimension(self):
        obs = DiscreteObservable(
            [0, 1],
            [Effect(basis_projector(3, 0)),
             Effect(Operator(np.eye(3) - basis_projector(3, 0).mat))],
        )
        with pytest.raises(ValueError):
            joint_observable_feasible(obs, obs)

    def test_complementary_implies_infeasible(self):
        # sharp qubit pairs: complementarity excludes a joint observable
        rng = np.random.default_rng(7)
        for _ in range(20):
            v1 = haar_vector(2, rng)
            v2 = haar_vector(2, rng)
            obs = []
            for v in (v1, v2):
                p = v.projector()
                obs.append(
                    DiscreteObservable(
                        [0, 1], [Effect(p), Effect(Operator(np.eye(2) - p.mat))]
                    )
                )
            if are_complementary(obs[0], obs[1]):
                assert not joint_observable_feasible(obs[0], obs[1])

    def test_no_repeatable_joint_measurement(self):
        # coexistent probabilistically complementary pair: the square-root
        # transformer of the constructed joint observable is not repeatable
        joint = spin.joint_spin_observable([0.6, 0, 0], [0, 0.6, 0])
        assert are_prob_complementary(
            spin.spin_observable([0.6, 0, 0]), spin.spin_observable([0, 0.6, 0])
        )
        assert not is_repeatable(luders_transformer(joint))

    def test_marginals_of_a_joint_observable_are_feasible(self):
        # rank-one joint effects put the pair on or near the boundary
        rng = np.random.default_rng(4)
        for i in range(150):
            ranks = ((1, 1, 1, 1), (1, 2, 2, 2), (2, 2, 2, 2))[i % 3]
            g = _normalized([_wishart(rng, 2, r) for r in ranks])
            assert joint_observable_feasible(_two_valued(g[0] + g[1]),
                                             _two_valued(g[0] + g[2]))

    @pytest.mark.parametrize("rel", [1e-3, 1e-4])
    def test_unit_trace_pairs_near_the_boundary(self, rel):
        # exact |a1 + a2| + |a1 - a2| <= 2, scaled just inside and outside
        rng = np.random.default_rng(11)
        for _ in range(100):
            a1, a2 = rng.standard_normal(3), rng.standard_normal(3)
            a1 *= rng.uniform(0.2, 1.0) / np.linalg.norm(a1)
            a2 *= rng.uniform(0.2, 1.0) / np.linalg.norm(a2)
            for side in (1.0 - rel, 1.0 + rel):
                scale = 2.0 * side / spin.criterion_value(a1, a2)
                if max(np.linalg.norm(a1), np.linalg.norm(a2)) * scale > 1.0:
                    continue
                b1, b2 = a1 * scale, a2 * scale
                got = joint_observable_feasible(spin.spin_observable(b1),
                                                spin.spin_observable(b2))
                assert got == spin.coexist_criterion(b1, b2) == (side < 1.0)

    def test_biased_pairs_match_a_certified_grid(self):
        # half the pairs nearly sharp, nearly unbiased and orthogonal, so
        # that both verdicts occur; a verdict is certified when the grid
        # holds a feasible point or none within its allowance
        rng = np.random.default_rng(2010)
        certified = {True: 0, False: 0}
        for i in range(60):
            sharp = i % 2 == 1
            v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
            if sharp:
                v2 -= (v2 @ v1) / (v1 @ v1) * v1
            pair = []
            for v in (v1, v2):
                t = rng.uniform(0.8, 1.2) if sharp else rng.uniform(0.05, 1.95)
                length = rng.uniform(0.9, 1.0) if sharp else rng.uniform(0.0, 1.0)
                pair.append((t, v / np.linalg.norm(v) * length * min(t, 2.0 - t)))
            (t1, b1), (t2, b2) = pair
            best, allowance = _grid_max_slack(t1, b1, t2, b2)
            if best >= 0.0:
                expected = True
            elif best < -allowance:
                expected = False
            else:
                continue
            certified[expected] += 1
            got = joint_observable_feasible(_two_valued(_bloch_effect(t1, b1)),
                                            _two_valued(_bloch_effect(t2, b2)))
            assert got == expected
        assert min(certified.values()) >= 5, certified


def reference_state_sample(dim, n_random=32, seed=20240917):
    """Computational basis plus seeded Haar-random pure states."""
    rng = np.random.default_rng(seed)
    return ([basis_state(i, dim) for i in range(dim)]
            + [State(haar_vector(dim, rng).projector()) for _ in range(n_random)])


def reference_is_repeatable(tf, states):
    """Repeatability on a state sample: after outcome x and renormalisation,
    outcome x again with probability 1 within 1e-8."""
    for st in states:
        for x in tf.outcomes:
            once = apply_transformer(tf, x, st)
            p1 = once.trace().real
            if p1 < 1e-14:
                continue  # zero map on this state: trivially repeatable
            renorm = State(Operator((once.mat + once.mat.conj().T) / 2 / p1))
            p2 = apply_transformer(tf, x, renorm).trace().real
            if abs(p2 - 1.0) > 1e-8:
                return False
    return True


def reference_is_first_kind(tf, obs, states):
    """First kind on a state sample: tr[T F] = tr[I(Omega)(T) F] within 1e-9."""
    for st in states:
        after = apply_transformer(tf, tf.outcomes, st)
        for _, e in obs:
            if abs(probability(st, e) - float(np.trace(after.mat @ e.op.mat).real)) > 1e-9:
                return False
    return True


def own_observable(tf):
    """The observable E(x) = sum M†M of a complete transformer."""
    effects = np.zeros((len(tf.outcomes), tf.dim, tf.dim), dtype=complex)
    np.add.at(effects, tf.owner, np.einsum("mji,mjk->mik", tf.kraus.conj(), tf.kraus))
    return DiscreteObservable(tf.outcomes, effects)


def _instruments(rng):
    """Complete instruments on C^d, d = 2..5, 40 of each kind."""
    for i in range(240):
        d, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        kind = i % 6
        if kind == 0:
            # Lüders transformer of a coarse-grained PVM
            pvm = _blocks(random_unitary(d, rng), rng.integers(0, k, d), k)
            yield "luders_pvm", luders_transformer(DiscreteObservable(range(k), pvm))
        elif kind == 1:
            # Lüders transformer of an unsharp observable
            obs = DiscreteObservable(range(k), _unsharp(rng, d, k, bool(rng.integers(2))))
            yield "luders_unsharp", luders_transformer(obs)
        elif kind == 2:
            # Lüders transformer of commuting unsharp effects U diag(p_x) U†
            u = random_unitary(d, rng)
            weights = rng.dirichlet(np.ones(k), size=d).T
            obs = DiscreteObservable(range(k), [(u * w) @ u.conj().T for w in weights])
            yield "luders_commuting", luders_transformer(obs)
        elif kind == 3:
            yield "scheme", scheme_transformer(random_scheme(d, int(rng.integers(2, 4)), rng))
        elif kind == 4:
            # V_x P_x: V_x keeps range(P_x) when block-diagonal in the PVM's basis
            u = random_unitary(d, rng)
            labels = rng.integers(0, k, d)
            pvm = _blocks(u, labels, k)
            kept = bool(rng.integers(2))
            kraus = []
            for x in range(k):
                if kept:
                    v = np.eye(d, dtype=complex)
                    cols = np.flatnonzero(labels == x)
                    if cols.size:
                        v[np.ix_(cols, cols)] = random_unitary(cols.size, rng)
                    kraus.append([u @ v @ u.conj().T @ pvm[x]])
                else:
                    kraus.append([random_unitary(d, rng) @ pvm[x]])
            yield "rotated_pvm", StateTransformer(range(k), kraus)
        else:
            # measure and prepare: |b_j><e_j| for each basis column e_j of
            # P_x, with b_j a unit vector in range(P_x) or anywhere. The map
            # is not unital, so I_Omega(P_x) differs from I_Omega*(P_x).
            u = random_unitary(d, rng)
            labels = rng.integers(0, k, d)
            inside = bool(rng.integers(2))
            kraus = [[] for _ in range(k)]
            for j, x in enumerate(labels):
                cols = u[:, labels == x] if inside else u
                b = cols @ haar_vector(cols.shape[1], rng).vec
                kraus[x].append(np.outer(b, u[:, j].conj()))
            yield "prepare", StateTransformer(range(k), kraus)


class TestTransformerReference:
    def test_exact_deciders_agree_with_the_sampled_checks(self):
        verdicts = {}
        for kind, tf in _instruments(np.random.default_rng(20240917)):
            obs = own_observable(tf)
            states = reference_state_sample(tf.dim)
            repeatable, first_kind = is_repeatable(tf), is_first_kind(tf, obs)
            assert repeatable == reference_is_repeatable(tf, states), kind
            assert first_kind == reference_is_first_kind(tf, obs, states), kind
            assert first_kind or not repeatable, kind
            verdicts.setdefault(kind, set()).add((repeatable, first_kind))
        assert {v for vs in verdicts.values() for v in vs} == {
            (True, True), (False, True), (False, False)}
        assert verdicts["luders_pvm"] == {(True, True)}
        assert verdicts["luders_commuting"] == {(False, True)}
        for kind in ("rotated_pvm", "prepare"):
            assert verdicts[kind] == {(True, True), (False, False)}, kind

    def test_first_kind_depends_on_the_observable(self):
        z = DiscreteObservable([0, 1], [basis_projector(2, 0), basis_projector(2, 1)])
        x = DiscreteObservable([0, 1], [np.full((2, 2), 0.5), [[0.5, -0.5], [-0.5, 0.5]]])
        tf = luders_transformer(z)
        states = reference_state_sample(2)
        assert is_first_kind(tf, z) and reference_is_first_kind(tf, z, states)
        assert not is_first_kind(tf, x) and not reference_is_first_kind(tf, x, states)

    def test_deciders_build_no_state(self, monkeypatch):
        built = []
        check = State.__post_init__
        monkeypatch.setattr(State, "__post_init__", lambda st: built.append(st) or check(st))
        joint = spin.joint_spin_observable([0.6, 0, 0], [0, 0.6, 0])
        tf = luders_transformer(joint)
        assert not is_repeatable(tf)
        assert not is_first_kind(tf, joint)
        assert built == []
        # the counter sees the states the sampled reference builds
        assert not reference_is_repeatable(tf, [maximally_mixed(2)])
        assert len(built) > 0

    def test_scheme_elements_match_the_per_vector_loop(self):
        rng = np.random.default_rng(12)
        scheme = random_scheme(3, 4, rng, probe_rank=2)
        # coarse-grain the pointer into two labels of rank-two effects
        pointer = scheme.pointer
        coarse = DiscreteObservable(["a", "b"], [pointer.mats[0] + pointer.mats[2],
                                                 pointer.mats[1] + pointer.mats[3]])
        for sch in (scheme, MeasurementScheme(scheme.coupling, scheme.probe_state, pointer,
                                              {0: "b", 1: "a", 2: "b", 3: "b"}),
                    MeasurementScheme(scheme.coupling, scheme.probe_state, coarse, None)):
            tf = scheme_transformer(sch)
            ds, dp = sch.system_dim, sch.probe_dim
            u4 = sch.coupling.mat.reshape(ds, dp, ds, dp)
            qs, chis = np.linalg.eigh(sch.probe_state.op.mat)
            grouped = {}
            for zx, zmat in zip(sch.pointer.outcomes, sch.pointer.mats):
                wz, vz = np.linalg.eigh(zmat)
                ms = grouped.setdefault(sch.map_outcome(zx), [])
                for zval, zeta in zip(wz, vz.T):
                    if zval < 1e-12:
                        continue
                    for q, chi in zip(qs, chis.T):
                        if q > 1e-14:
                            ms.append(np.sqrt(zval * q)
                                      * np.einsum("i,aibc,c->ab", zeta.conj(), u4, chi))
            assert list(tf.outcomes) == sorted(grouped)
            for i, x in enumerate(tf.outcomes):
                assert_allclose(tf.kraus[tf.owner == i], np.array(grouped[x]), atol=1e-12)


def fresh_extremes(obs):
    w = np.linalg.eigvalsh(obs.mats)
    return w[:, [0, -1]]


MZI_PARAMS = mzi.MZIParams(mzi.BSParams(0.3, 0.7), mzi.BSParams(0.6, 2.1), 1.3)


def kerr_circuit(amp, nmax, bins=4):
    dim = kerrqnd.coherent_dim(amp)
    probe = kerrqnd.ProbeConfig(kerrqnd.coherent_state(amp * np.exp(0.4j), dim), 0.9,
                                kerrqnd.truncated_phase_povm(dim, bins))
    return kerrqnd.KerrCircuit(MZI_PARAMS, probe, mzi.FockSpace(nmax))


def kerr_scheme(amp, nmax):
    return kerrqnd.kerr_measurement_scheme(kerr_circuit(amp, nmax))


def mzi_scheme(nmax):
    return mzi.mzi_measurement_scheme(MZI_PARAMS, mzi.FockSpace(nmax))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the stacks np.linalg.eigvalsh is called on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def edge_observable(delta):
    """Two diagonal qubit effects with eigenvalues 1 + delta and -delta."""
    return DiscreteObservable("ab", [np.diag([1.0 + delta, 0.0]), np.diag([-delta, 1.0])])


class TestDerivedExtremes:
    def test_observables_keep_their_extremes(self):
        rng = np.random.default_rng(41)
        for pair in itertools.islice(_reference_instances(rng), 30):
            obs = DiscreteObservable(range(len(pair[0])), pair[0])
            assert obs.extremes.shape == (len(obs), 2)
            assert not obs.extremes.flags.writeable
            assert np.max(np.abs(obs.extremes - fresh_extremes(obs))) <= 1e-12

    def test_products_of_reference_instances(self):
        rng = np.random.default_rng(42)
        nested = 0
        for first, second in _reference_instances(rng):
            a = DiscreteObservable(range(len(first)), first)
            b = DiscreteObservable(range(len(second)), second)
            prod = product_observable(a, b)
            assert np.max(np.abs(prod.extremes - fresh_extremes(prod))) <= 1e-12
            if nested < 5 and a.dim <= 3:
                nested += 1
                twice = product_observable(prod, a)
                assert np.max(np.abs(twice.extremes - fresh_extremes(twice))) <= 1e-12
        assert nested == 5

    @staticmethod
    def check_pointer(pointer):
        assert np.max(np.abs(pointer.extremes - fresh_extremes(pointer))) <= 1e-12

    @pytest.mark.parametrize("amp,nmax", [(0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2)])
    def test_kerr_pointers(self, amp, nmax):
        self.check_pointer(kerr_scheme(amp, nmax).pointer)

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    def test_mzi_pointers(self, nmax):
        self.check_pointer(mzi_scheme(nmax).pointer)

    def test_edge_factors_are_rejected_from_a_computed_spectrum(self, eigvalsh_calls):
        a = edge_observable(0.9e-10)
        stack = np.kron(a.mats[:, None], a.mats[None]).reshape(4, 4, 4)
        assert np.linalg.eigvalsh(stack[0]).max() > 1.0 + 1.8e-10 - 1e-15
        expected = reference_error(stack)
        assert expected is not None and "outside [0, 1]" in expected
        eigvalsh_calls.clear()
        with pytest.raises(ValueError) as err:
            product_observable(a, a)
        assert str(err.value) == expected
        assert eigvalsh_calls

    def test_product_just_inside_the_bounds_is_diagonalised_and_passes(self, eigvalsh_calls):
        # the product's top eigenvalue lies 2e-15 inside the bound: its
        # stack is diagonalised like any input, and it passes
        a = edge_observable(np.sqrt(1.0 + 1e-10) - 1.0 - 1e-15)
        eigvalsh_calls.clear()
        prod = product_observable(a, a)
        assert eigvalsh_calls
        assert np.max(np.abs(prod.extremes - fresh_extremes(prod))) <= 1e-12

    def test_product_of_a_nearly_non_hermitian_factor_is_diagonalised(self, eigvalsh_calls):
        # a factor whose Hermiticity residual lies just inside the tolerance:
        # the product is diagonalised like any input, and its extremes are
        # those of a fresh eigvalsh
        x = np.array([[0.5, 0.25 + 0.9e-10], [0.25, 0.5]])
        a = DiscreteObservable("xy", [x, np.eye(2) - x])
        assert 0.8e-10 < povm._hermitian_residual(a.mats) <= 1e-10
        number = mzi.number_observable(2)
        eigvalsh_calls.clear()
        prod = product_observable(a, number)
        assert eigvalsh_calls
        assert np.max(np.abs(prod.extremes - fresh_extremes(prod))) <= 1e-12

    @pytest.mark.parametrize("skew", [0.0, 1e-14, 1e-12, 1e-11, 1e-10])
    def test_product_records_lie_within_their_error_bound(self, skew):
        # factors whose upper triangles carry a residual of up to ``skew``;
        # the product's record is the extremes its check computed, which lie
        # within the recorded error of a fresh eigvalsh of the same rows
        rng = np.random.default_rng(int(skew * 1e14) + 5)
        for _ in range(10):
            pair = []
            for d in rng.integers(2, 5, 2):
                mats = np.array(_unsharp(rng, d, int(rng.integers(2, 4)), True))
                upper = np.triu(np.ones((d, d)), 1)
                mats[0] += skew * upper * rng.uniform(0, 0.5, (d, d))
                mats[1] -= skew * upper * rng.uniform(0, 0.5, (d, d))
                pair.append(DiscreteObservable(range(len(mats)), mats))
            prod = product_observable(*pair)
            assert np.max(np.abs(prod._enclosure - fresh_extremes(prod))) <= prod._enclosure_error


def assert_enclosed(obs):
    """Every row's fresh eigvalsh spectrum lies in its recorded interval
    widened by the recorded error, with no extra slack."""
    w = np.linalg.eigvalsh(obs.mats)
    lo, hi = obs._enclosure[:, 0], obs._enclosure[:, 1]
    err = obs._enclosure_error
    assert np.all(w[:, 0] >= lo - err), np.min(w[:, 0] - lo + err)
    assert np.all(w[:, -1] <= hi + err), np.max(w[:, -1] - hi - err)


def random_partition(rng, k):
    """k intervals covering [0, 2pi] at sorted random cuts."""
    edges = np.concatenate(([0.0], np.sort(rng.uniform(0, 2 * np.pi, k - 1)), [2 * np.pi]))
    return list(zip(edges[:-1], edges[1:]))


def diagonal_stacks():
    """The diagonal producers: number, the MZI closed form, the a-mode
    closed form and unsharp position."""
    rng = np.random.default_rng(61)
    out = [mzi.number_observable(d) for d in (1, 2, 5, 16)]
    for nmax in (1, 2, 4):
        params = mzi.MZIParams(mzi.BSParams(rng.uniform(), rng.uniform(0, 7)),
                               mzi.BSParams(rng.uniform(), rng.uniform(0, 7)), rng.uniform(0, 7))
        out.append(mzi.induced_mzi_observable(params, mzi.FockSpace(nmax)))
    canonical = mzi.MZIParams(mzi.BSParams(0.5, np.pi / 2), mzi.BSParams(0.5, np.pi / 2), 0.8)
    for amp, nmax in ((0.5, 1), (1.0, 2), (3.0, 2)):
        dim = kerrqnd.coherent_dim(amp)
        probe = kerrqnd.ProbeConfig(kerrqnd.coherent_state(amp * np.exp(0.3j), dim), 1.1,
                                    kerrqnd.truncated_phase_povm(dim, 8))
        circuit = kerrqnd.KerrCircuit(canonical, probe, mzi.FockSpace(nmax))
        out.append(kerrqnd.induced_a_mode_observable(circuit, method="closed_form"))
    for d in (2, 7, 16):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f = models.ConfidenceFunction(np.abs(z / np.linalg.norm(z)) ** 2)
        out.append(models.unsharp_position_observable(f, models.CyclicGrid(d)))
    return out


@pytest.fixture
def eigvalsh_arrays(monkeypatch):
    """The arrays np.linalg.eigvalsh is called on."""
    arrays = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        arrays.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return arrays


class TestStructuralEnclosures:
    @pytest.mark.parametrize("dim", range(1, 65))
    def test_phase_readouts(self, dim, eigvalsh_calls):
        for bins in (1, 2, 3, 5, 8, 13, 21, 32, dim % 32 + 1):
            eigvalsh_calls.clear()
            readout = kerrqnd.truncated_phase_povm(dim, bins)
            assert eigvalsh_calls == []
            assert_enclosed(readout)

    def test_every_bin_count_at_large_dims(self):
        for bins in range(1, 33):
            for dim in (40, 58, 64):
                assert_enclosed(kerrqnd.truncated_phase_povm(dim, bins))

    def test_interval_lists(self, eigvalsh_calls):
        rng = np.random.default_rng(62)
        lists = [[(0.0, 2 * np.pi)], [(0.0, 2 * np.pi), (1.0, 1.0)],
                 [(0.0, 0.0), (0.0, 2 * np.pi), (2 * np.pi, 2 * np.pi)]]
        lists += [random_partition(rng, int(k)) for k in rng.integers(1, 33, 40)]
        for intervals in lists:
            for dim in (1, 2, 9, 33, 64):
                eigvalsh_calls.clear()
                readout = kerrqnd.truncated_phase_povm(dim, intervals)
                assert eigvalsh_calls == []
                assert_enclosed(readout)

    def test_spin_phase_stacks(self, eigvalsh_calls):
        for s in (0.5, 1.0, 2.5, 7.0, 20.5, 100.0):
            for bins in (1, 4, 8, 32):
                eigvalsh_calls.clear()
                obs = spin.spin_phase_observable(spin.SpinPhaseSpace(s), bins)
                assert eigvalsh_calls == []
                assert_enclosed(obs)

    def test_readout_records_the_toeplitz_enclosure(self):
        for dim in (1, 16, 58):
            readout = kerrqnd.truncated_phase_povm(dim, 8)
            assert np.array_equal(readout._enclosure, np.tile([0.0, 1.0], (8, 1)))
            assert readout._enclosure_error == dim * (spin._TOEPLITZ_ENTRY_ERROR
                                                      + povm._EIG_ROUNDING)

    def test_products_of_certified_factors(self):
        rng = np.random.default_rng(63)
        for dim, bins in ((16, 4), (17, 8), (3, 2)):
            readout = kerrqnd.truncated_phase_povm(dim, bins)
            trivial = DiscreteObservable([0], np.eye(2)[None])
            first = product_observable(trivial, readout)
            assert_enclosed(first)
            assert_enclosed(product_observable(readout, mzi.number_observable(3)))
            unsharp = DiscreteObservable(range(3), _unsharp(rng, 2, 3, True))
            assert_enclosed(product_observable(product_observable(unsharp, first), trivial))

    def test_diagonal_extremes_are_the_exact_diagonal_ends(self, eigvalsh_calls):
        stacks = diagonal_stacks()
        eigvalsh_calls.clear()
        for obs in stacks:
            diag = np.diagonal(obs.mats, axis1=1, axis2=2).real
            assert np.array_equal(obs.extremes, np.stack((diag.min(1), diag.max(1)), 1))
            assert not obs.extremes.flags.writeable
            assert_enclosed(obs)
        assert len(eigvalsh_calls) == len(stacks)  # assert_enclosed's own

    def test_diagonal_rows_near_the_bounds_fall_back(self, eigvalsh_calls):
        # within the margin of 1 + ATOL_POSITIVE: diagonalised, and it passes
        top = 1.0 + 1e-10 - 1e-15
        eigvalsh_calls.clear()
        obs = povm._diagonal_observable("ab", [[top, 0.0], [1.0 - top, 1.0]])
        assert eigvalsh_calls
        assert np.array_equal(obs.extremes, [[0.0, top], [1.0 - top, 1.0]])
        # beyond it: rejected from a computed spectrum, with its message
        bad = [[1.0 + 2e-10, 0.0], [-2e-10, 1.0]]
        expected = reference_error(np.array([np.diag(row) for row in bad], dtype=complex))
        eigvalsh_calls.clear()
        with pytest.raises(ValueError) as err:
            povm._diagonal_observable("ab", bad)
        assert str(err.value) == expected and eigvalsh_calls

    def test_lazy_extremes_are_computed_eigenvalues(self, eigvalsh_calls):
        rng = np.random.default_rng(64)
        readout = kerrqnd.truncated_phase_povm(58, 8)
        stacks = [readout, spin.spin_phase_observable(spin.SpinPhaseSpace(20.5), 32),
                  kerrqnd.truncated_phase_povm(9, random_partition(rng, 5))]
        for obs in stacks:
            eigvalsh_calls.clear()
            extremes = obs.extremes
            assert eigvalsh_calls  # computed on first read
            assert not extremes.flags.writeable
            assert np.max(np.abs(extremes - fresh_extremes(obs))) <= 1e-12
            eigvalsh_calls.clear()
            assert obs.extremes is extremes and eigvalsh_calls == []
        # the bound is not an eigenvalue: the top of a 58-level bin is below 1
        assert readout.extremes[:, 1].max() < 1.0 - 1e-9

    def test_oracle_round_diagonalises_no_readout_or_diagonal_stack(self, eigvalsh_arrays):
        rng = np.random.default_rng(65)
        canonical = mzi.MZIParams(mzi.BSParams(0.5, np.pi / 2), mzi.BSParams(0.5, np.pi / 2),
                                  rng.uniform(0, 7))

        def probe(amp, bins):
            dim = kerrqnd.coherent_dim(amp)
            return kerrqnd.ProbeConfig(kerrqnd.coherent_state(amp * np.exp(0.7j), dim),
                                       rng.uniform(0.2, 2.5), kerrqnd.truncated_phase_povm(dim, bins))

        structured, computed = [], []
        for amp, nmax in ((0.5, 1), (1.0, 2), (3.0, 2)):
            circuit = kerrqnd.KerrCircuit(canonical, probe(amp, 8), mzi.FockSpace(nmax))
            structured += [circuit.probe.readout,
                           kerrqnd.induced_a_mode_observable(circuit, method="closed_form")]
            computed.append(kerrqnd.induced_a_mode_observable(circuit, method="unitary"))
        for amp in (0.5, 4.0):
            p = probe(amp, 8)
            structured.append(p.readout)
            computed.append(kerrqnd.joint_path_interference_povm(0.4, 1.3, p))
            kerrqnd.joint_povm_compressed(0.4, 1.3, p)
        for amp, nmax in ((0.5, 1), (1.0, 2)):
            circuit = kerrqnd.KerrCircuit(canonical, probe(amp, 4), mzi.FockSpace(nmax))
            scheme = kerrqnd.kerr_measurement_scheme(circuit)
            structured.append(circuit.probe.readout)
            povm.induced_observable(scheme)
        for nmax in (1, 2, 4):
            params = mzi.MZIParams(mzi.BSParams(0.3, 1.0), mzi.BSParams(0.6, 2.0), 0.5)
            structured.append(mzi.induced_mzi_observable(params, mzi.FockSpace(nmax)))
            povm.induced_observable(mzi.mzi_measurement_scheme(params, mzi.FockSpace(nmax)))
        for d in (4, 16):
            phi = np.exp(1j * rng.uniform(0, 7, d)) / np.sqrt(d)
            grid = models.CyclicGrid(d)
            structured.append(models.unsharp_position_observable(
                models.ConfidenceFunction(np.abs(phi) ** 2), grid))
            povm.induced_observable(models.position_measurement_scheme(phi, grid))
        for obs in structured:
            assert not [a for a in eigvalsh_arrays if np.shares_memory(a, obs.mats)]
        # the counter sees the stacks that have no structure
        for obs in computed:
            assert [a for a in eigvalsh_arrays if np.shares_memory(a, obs.mats)]

    @pytest.mark.parametrize("dim", list(range(1, 65)) + [101, 200, 401])
    def test_residuals_read_from_the_symbols_are_the_entrywise_ones(self, dim, monkeypatch,
                                                                    fresh_phase_memo):
        rng = np.random.default_rng(dim)
        wide = dim > 64  # fewer and smaller stacks where a row is large
        lists = [1, 2, 8] + ([] if wide else [3, 13, dim % 32 + 1])
        cuts = np.sort(rng.uniform(0, 2 * np.pi, 2))
        lists += [random_partition(rng, int(k)) for k in rng.integers(1, 5 if wide else 17, 3)]
        lists += [[(0.0, 2 * np.pi)], [(0.0, 0.0), (0.0, 2 * np.pi), (2 * np.pi, 2 * np.pi)],
                  # a repeated cut, and edges out of order (no shared edges)
                  [(0.0, cuts[0]), (cuts[0], cuts[0]), (cuts[0], cuts[1]), (cuts[1], 2 * np.pi)],
                  [(cuts[0], cuts[1]), (0.0, cuts[0]), (cuts[1], 2 * np.pi)]]
        residual, init = povm._hermitian_residual, DiscreteObservable._init
        for bins in lists:
            fresh_phase_memo.cache_clear()  # a bin count that repeats is built again
            calls, passed = [], []
            monkeypatch.setattr(povm, "_hermitian_residual",
                                lambda m: calls.append(m) or residual(m))
            # _init(outcomes, mats, enclosure, error, hermitian, completeness)
            monkeypatch.setattr(DiscreteObservable, "_init",
                                lambda obs, *args: passed.append(args) or init(obs, *args))
            readout = kerrqnd.truncated_phase_povm(dim, bins)
            monkeypatch.undo()
            assert calls == []  # no entrywise X - X†
            (mats, _, _, hermitian, completeness), = [args[1:] for args in passed]
            assert mats is readout.mats
            assert hermitian.tolist() == [residual(m[None]) for m in readout.mats], bins
            dense = np.max(np.abs(readout.mats.sum(axis=0) - np.eye(dim)))
            assert abs(completeness - dense) <= 1e-15, bins

    @pytest.mark.parametrize("intervals,message", [
        ([(0.0, 1.0), (1.0, 3.0)], "effects do not sum to the identity within tolerance"),
        ([(0.0, 4.0), (3.0, 2 * np.pi)], "effects do not sum to the identity within tolerance"),
        ([(0.0, 2 * np.pi), (0.0, 2 * np.pi)],
         "effects do not sum to the identity within tolerance"),
        ([(2.0, 1.0)], "malformed interval [2.0, 1.0]; need 0 <= u <= v <= 2pi"),
        ([], "an observable needs at least one outcome"),
    ])
    def test_bad_partitions_keep_their_messages(self, intervals, message):
        for dim in (1, 5, 30):
            with pytest.raises(ValueError) as err:
                kerrqnd.truncated_phase_povm(dim, intervals)
            assert str(err.value) == message
            if intervals and message.startswith("effects"):
                # the generic constructor reports the same
                with pytest.raises(ValueError, match="^effects do not sum"):
                    DiscreteObservable(range(len(intervals)), spin._phase_kernels(dim, intervals))


def unitary_residual(mat):
    return np.max(np.abs(mat @ mat.conj().T - np.eye(len(mat))))


def assembled_coupling(u, dim_reg):
    """P (u x I_r) as the schemes assembled it before: np.kron, then the
    register-shift row permutation."""
    perm = povm._controlled_shift(np.arange(u.dims[0]), u.dim // u.dims[0], dim_reg)
    return tensor(u, identity(dim_reg)).mat[perm]


class TestCountRegisterScheme:
    def test_block_residual_is_the_coupling_residual(self):
        rng = np.random.default_rng(11)
        cases = [(mzi.mzi_unitary(MZI_PARAMS, mzi.FockSpace(n)), mzi_scheme(n))
                 for n in (1, 2, 3, 4)]
        cases += [(kerrqnd.three_mode_unitary(kerr_circuit(amp, n)), kerr_scheme(amp, n))
                  for amp, n in ((0.5, 1), (1.0, 2))]
        for scale in (1.0, 1 + 3e-11):  # a residual of about 6e-11 is still accepted
            u = Operator(random_unitary(32, rng) * scale, (8, 4))
            cases.append((u, povm._count_register_scheme(
                u.mat[None], u.dims, 5, (random_state(4, rng),), random_state(5, rng),
                (DiscreteObservable([0], np.eye(4)[None]),), None)))
        for u, scheme in cases:
            old = assembled_coupling(u, scheme.coupling.dims[-1])
            assert np.array_equal(scheme.coupling.mat, old)
            assert abs(unitary_residual(u.mat) - unitary_residual(old)) <= 1e-15

    def test_repr_reads_only_the_factors(self):
        scheme = kerr_scheme(1.0, 2)
        text = repr(scheme)
        assert text.startswith("_CountRegisterScheme(dims=(3, 3, 16), dim_reg=3, states=(")
        assert "pointer_function={(0, 0, 0): (0, 0), " in text
        assert not {"coupling", "probe_state", "pointer"} & set(vars(scheme))

    def test_non_unitary_u_is_rejected(self, monkeypatch):
        probe = maximally_mixed(2)
        pointer = DiscreteObservable([0], np.eye(2)[None])
        with pytest.raises(ValueError, match="^coupling is not unitary within 1e-10$"):
            povm._count_register_scheme(1.001 * np.eye(4)[None], (2, 2), 2, (probe,),
                                        basis_state(0, 2), (pointer,), None)
        unitary = mzi.mzi_unitary
        monkeypatch.setattr(mzi, "mzi_unitary",
                            lambda *args: unitary(*args) * (1 + 1e-9))
        with pytest.raises(ValueError, match="^coupling is not unitary within 1e-10$"):
            mzi_scheme(2)

    def test_probe_dims_are_checked(self):
        # (other state, other pointer, register state, register size) for a u
        # on system (x) one 2-level probe factor; None is no other factor
        for other, pointer, reg, dim_reg in [(3, 3, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2),
                                             (2, 2, 2, 3), (None, None, 2, 2),
                                             (2, None, 2, 2), (None, 2, 2, 2)]:
            with pytest.raises(ValueError, match="probe state / pointer dims inconsistent"):
                povm._count_register_scheme(
                    np.eye(4)[None], (2, 2), dim_reg,
                    () if other is None else (maximally_mixed(other),), maximally_mixed(reg),
                    () if pointer is None else (DiscreteObservable([0], np.eye(pointer)[None]),),
                    None)


def dense_induced(scheme):
    """Reference: the induced effects through the dense coupling and the full
    pointer, F(z) = tr_probe[(I x T') U† (I x Z(z)) U], summed over each
    pointer-function preimage; returns (sorted labels, effect stack)."""
    ds, dp = scheme.system_dim, scheme.probe_dim
    u4 = scheme.coupling.mat.reshape(ds, dp, ds, dp)
    fs = np.einsum("amib,xmn,anjc,cb->xij", u4.conj(), scheme.pointer.mats, u4,
                   scheme.probe_state.op.mat, optimize=True)
    grouped = {}
    for z, f in zip(scheme.pointer.outcomes, fs):
        x = scheme.map_outcome(z)
        grouped[x] = grouped.get(x, 0) + f
    labels = sorted(grouped)
    return tuple(labels), np.array([grouped[x] for x in labels])


def assert_matches_dense(scheme, tol=1e-12):
    obs = induced_observable(scheme)
    labels, mats = dense_induced(scheme)
    assert obs.outcomes == labels
    assert np.max(np.abs(obs.mats - mats)) <= tol
    return obs


def random_register_scheme(rng, ds, do, dim_reg, register_state):
    other = random_state(do, rng, rank=2)
    pointer = random_scheme(1, do, rng).pointer
    u = Operator(random_unitary(ds * do, rng), (ds, do))
    return povm._count_register_scheme(u.mat[None], u.dims, dim_reg, (other,), register_state,
                                       (pointer,), None)


def random_level_block_scheme(rng, ds, dm, dc, dim_reg):
    """A count-register scheme whose u is dc random unitary blocks on
    system (x) m, one per level of a last probe factor c, with a probe state
    that is not a product over (m, c)."""
    blocks = np.array([random_unitary(ds * dm, rng) for _ in range(dc)])
    other = random_state(dm * dc, rng, rank=2)
    pointer = random_scheme(1, dm * dc, rng).pointer
    return povm._count_register_scheme(blocks, (ds, dm, dc), dim_reg, (other,),
                                       random_state(dim_reg, rng), (pointer,), None)


def position_scheme(d, rng):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return models.position_measurement_scheme(z / np.linalg.norm(z), models.CyclicGrid(d))


def kerr_probe_pointer(circuit):
    """The probe state and pointer the Kerr scheme was assembled from as
    one (b, c, register) product each."""
    da, db, _ = circuit.dims
    trivial_b = DiscreteObservable([0], np.eye(db)[None])
    return (State(tensor(basis_state(0, db).op, circuit.probe.probe_state.op,
                         basis_state(0, da).op)),
            product_observable(product_observable(trivial_b, circuit.probe.readout),
                               mzi.number_observable(da)))


class TestStructuredInduction:
    @pytest.mark.parametrize("amp,nmax", [(0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2)])
    def test_kerr_schemes(self, amp, nmax):
        assert_matches_dense(kerr_scheme(amp, nmax))

    @pytest.mark.parametrize("nmax", [1, 2])
    def test_kerr_scheme_with_a_mixed_probe(self, nmax):
        assert_matches_dense(kerrqnd.kerr_measurement_scheme(mixed_kerr_circuit(nmax)))

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    def test_mzi_schemes(self, nmax):
        rng = np.random.default_rng(nmax)
        for _ in range(3):
            eps1, eps2 = rng.uniform(0.05, 0.95, 2)
            theta1, theta2, delta = rng.uniform(0, 2 * np.pi, 3)
            params = mzi.MZIParams(mzi.BSParams(eps1, theta1), mzi.BSParams(eps2, theta2), delta)
            space = mzi.FockSpace(nmax)
            obs = assert_matches_dense(mzi.mzi_measurement_scheme(params, space))
            assert np.max(np.abs(obs.mats - mzi.induced_mzi_observable(params, space).mats)) <= 1e-12

    @pytest.mark.parametrize("ds,dm,dc,dim_reg", [(2, 1, 3, 2), (3, 2, 4, 3), (2, 3, 2, 4),
                                                  (3, 2, 1, 2)])
    def test_level_block_schemes(self, ds, dm, dc, dim_reg):
        scheme = random_level_block_scheme(np.random.default_rng([ds, dm, dc, dim_reg]),
                                           ds, dm, dc, dim_reg)
        assert_matches_dense(scheme)
        # the coupling is the direct sum of the blocks, then the register shift
        assert np.array_equal(scheme.coupling.mat, assembled_coupling(
            Operator(povm._direct_sum(scheme._blocks), scheme._dims), dim_reg))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_position_schemes(self, d):
        assert_matches_dense(position_scheme(d, np.random.default_rng(d)))

    @pytest.mark.parametrize("ds,do,dim_reg", [(3, 2, 5), (3, 4, 3), (4, 2, 2), (2, 3, 4)])
    def test_only_the_register_populations_enter(self, ds, do, dim_reg):
        rng = np.random.default_rng(ds * 100 + do * 10 + dim_reg)
        register = random_state(dim_reg, rng, rank=1)
        assert np.max(np.abs(register.op.mat - np.diag(np.diag(register.op.mat)))) > 0.05
        dephased = State(Operator(np.diag(np.diag(register.op.mat))))
        rng_state = rng.bit_generator.state
        scheme = random_register_scheme(rng, ds, do, dim_reg, register)
        rng.bit_generator.state = rng_state
        diagonal = random_register_scheme(rng, ds, do, dim_reg, dephased)
        obs = assert_matches_dense(scheme)
        assert np.array_equal(obs.mats, induced_observable(diagonal).mats)
        assert_matches_dense(diagonal)

    @pytest.mark.parametrize("kind", ["kerr", "mzi", "position", "random"])
    def test_induction_builds_no_coupling_probe_or_pointer(self, kind):
        rng = np.random.default_rng(5)
        scheme = {"kerr": lambda: kerr_scheme(1.0, 2), "mzi": lambda: mzi_scheme(3),
                  "position": lambda: position_scheme(6, rng),
                  "random": lambda: random_register_scheme(rng, 3, 2, 4, random_state(4, rng)),
                  }[kind]()
        induced_observable(scheme)
        scheme_transformer(scheme)
        assert not {"coupling", "probe_state", "pointer"} & set(vars(scheme))
        assert_matches_dense(scheme)  # builds them on first read
        assert {"coupling", "probe_state", "pointer"} <= set(vars(scheme))

    @pytest.mark.parametrize("amp,nmax", [(0.5, 1), (1.0, 2)])
    def test_kerr_parts_are_built_as_one_product_each(self, amp, nmax):
        circuit = kerr_circuit(amp, nmax)
        scheme = kerrqnd.kerr_measurement_scheme(circuit)
        probe, pointer = kerr_probe_pointer(circuit)
        assert np.array_equal(scheme.probe_state.op.mat, probe.op.mat)
        assert scheme.probe_state.op.dims == probe.op.dims
        for got, ref in zip(scheme.probe_state._spectrum, probe._spectrum):
            assert np.array_equal(got, ref)
        assert scheme.pointer.outcomes == pointer.outcomes
        assert np.array_equal(scheme.pointer.mats, pointer.mats)
        assert np.array_equal(scheme.pointer.extremes, pointer.extremes)

    @pytest.mark.parametrize("read", [(True, False, True), (False, True, False),
                                      (True, True, False), (False, False, False)])
    def test_unread_factors_are_folded_into_the_kept_index(self, read):
        # u on system (x) three probe factors, the last the conserved level
        rng = np.random.default_rng([19, *read])
        ds, dims, dim_reg = 2, (2, 3, 2), 3
        blocks = np.array([random_unitary(ds * 6, rng) for _ in range(dims[-1])])
        states = tuple(random_state(d, rng, rank=2) for d in dims)
        pointers = tuple(random_scheme(1, d, rng).pointer if r else None
                         for d, r in zip(dims, read))
        scheme = povm._count_register_scheme(blocks, (ds, *dims), dim_reg, states,
                                             random_state(dim_reg, rng), pointers, None)
        obs = assert_matches_dense(scheme)
        assert len(obs) == dim_reg * math.prod(d for d, r in zip(dims, read) if r)

    @pytest.mark.parametrize("amp,nmax", [(0.5, 1), (1.0, 2)])
    def test_kerr_induction_forms_no_product_of_b_and_the_probe(self, amp, nmax, monkeypatch):
        circuit = kerr_circuit(amp, nmax)

        def refused(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(povm, "product_observable", refused)
        monkeypatch.setattr(povm, "tensor", refused)
        scheme = kerrqnd.kerr_measurement_scheme(circuit)
        induced_observable(scheme)
        monkeypatch.undo()
        assert_matches_dense(scheme)

    @pytest.mark.parametrize("kind", ["kerr", "mzi", "position", "random", "level_block"])
    def test_scheme_transformer_reads_the_built_parts(self, kind):
        rng = np.random.default_rng(8)
        scheme = {"kerr": lambda: kerr_scheme(0.5, 1), "mzi": lambda: mzi_scheme(2),
                  "position": lambda: position_scheme(5, rng),
                  "random": lambda: random_register_scheme(rng, 3, 2, 4, random_state(4, rng)),
                  "level_block": lambda: random_level_block_scheme(rng, 3, 2, 4, 3),
                  }[kind]()
        dense = MeasurementScheme(scheme.coupling, scheme.probe_state, scheme.pointer,
                                  scheme.pointer_function)
        got, ref = scheme_transformer(scheme), scheme_transformer(dense)
        assert got.outcomes == ref.outcomes
        assert np.array_equal(np.bincount(got.owner), np.bincount(ref.owner))
        # a Kraus decomposition is not unique; each outcome's Choi matrix is
        assert np.max(np.abs(outcome_chois(got) - outcome_chois(ref))) <= 1e-14
        # and the transformer's effects are the induced ones
        effects = povm._heisenberg(got, np.tile(np.eye(got.dim), (len(got.outcomes), 1, 1)))
        assert np.max(np.abs(effects - induced_observable(scheme).mats)) <= 1e-12


def outcome_chois(tf):
    """The Choi matrix sum vec(M) vec(M)† over the elements M of each
    outcome of ``tf``."""
    vecs = tf.kraus.reshape(len(tf.kraus), -1)
    return np.array([vecs[tf.owner == i].T @ vecs[tf.owner == i].conj()
                     for i in range(len(tf.outcomes))])


def assert_spectrum_matches_eigh(st, tol=1e-12):
    """The recorded (q, chi, e) against a fresh eigh: the spectrum (q padded
    with zeros) within tol and within e, orthonormal eigenvectors that
    rebuild the state, and the same eigenprojection for every eigenvalue
    above 1e-6."""
    q, chi, e = st._spectrum
    w, v = np.linalg.eigh(st.op.mat)
    full = np.sort(np.concatenate([q, np.zeros(st.dim - len(q))]))
    assert np.max(np.abs(full - w)) <= min(tol, e)
    assert np.max(np.abs(chi.conj().T @ chi - np.eye(len(q)))) <= tol
    assert np.max(np.abs((chi * q) @ chi.conj().T - st.op.mat)) <= tol
    for lam in q[q > 1e-6]:
        rec, ref = chi[:, np.abs(q - lam) < 1e-6], v[:, np.abs(w - lam) < 1e-6]
        assert np.max(np.abs(rec @ rec.conj().T - ref @ ref.conj().T)) <= tol


@pytest.fixture
def diagonalisations(monkeypatch):
    """Shapes of the matrices np.linalg.eigvalsh and np.linalg.eigh are
    called on."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, *args, _f=getattr(np.linalg, name), **kwargs):
            calls.append(np.shape(a))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def mixed_kerr_circuit(nmax=1, dim=16):
    """A Kerr circuit whose probe is an equal mixture of |z> and |-z>."""
    rho = sum(kerrqnd.coherent_state(z, dim).op.mat for z in (0.8, -0.8)) / 2
    probe = kerrqnd.ProbeConfig(State(Operator(rho)), 0.9, kerrqnd.truncated_phase_povm(dim, 4))
    return kerrqnd.KerrCircuit(MZI_PARAMS, probe, mzi.FockSpace(nmax))


ORACLE_SCHEMES = ([("kerr", amp, nmax) for amp in (0.5, 1.0) for nmax in (1, 2)]
                  + [("mzi", nmax) for nmax in (1, 2, 3, 4)]
                  + [("position", sites) for sites in (4, 6, 8, 12, 16)])


def oracle_scheme(kind, *args):
    if kind == "kerr":
        return kerr_scheme(*args)
    if kind == "mzi":
        return mzi_scheme(*args)
    rng = np.random.default_rng(args[0])
    z = rng.standard_normal(args[0]) + 1j * rng.standard_normal(args[0])
    return models.position_measurement_scheme(z / np.linalg.norm(z), models.CyclicGrid(args[0]))


class TestRecordedSpectra:
    def test_basis_states(self):
        for d in range(1, 9):
            for k in range(d):
                assert_spectrum_matches_eigh(basis_state(k, d))

    @pytest.mark.parametrize("amp", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    def test_coherent_probes(self, amp):
        dim = kerrqnd.coherent_dim(amp)
        assert_spectrum_matches_eigh(kerrqnd.coherent_state(amp * np.exp(0.7j), dim))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 17, 64, 200])
    def test_haar_vectors(self, d):
        rng = np.random.default_rng(d)
        for _ in range(3):
            v = haar_vector(d, rng)
            assert_spectrum_matches_eigh(vector_state(v))
            assert_spectrum_matches_eigh(vector_state(v.vec * 3.7))  # not normalized

    @pytest.mark.parametrize("amp,nmax", [(0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2)])
    def test_kerr_probe_products(self, amp, nmax):
        st = kerr_scheme(amp, nmax).probe_state
        assert st.dim == (nmax + 1) ** 2 * kerrqnd.coherent_dim(amp)
        assert_spectrum_matches_eigh(st)

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    def test_mzi_probe_products(self, nmax):
        assert_spectrum_matches_eigh(mzi_scheme(nmax).probe_state)

    def test_product_with_a_mixed_factor(self, diagonalisations):
        circuit = mixed_kerr_circuit()
        assert_spectrum_matches_eigh(kerrqnd.kerr_measurement_scheme(circuit).probe_state)
        diagonalisations.clear()
        kerrqnd.kerr_measurement_scheme(circuit)
        assert not [s for s in diagonalisations if s[-1] >= 16]

    def test_general_state_runs_one_eigh_on_first_use(self, diagonalisations):
        st = random_state(5, np.random.default_rng(3))
        diagonalisations.clear()
        assert_spectrum_matches_eigh(st)
        st._spectrum
        # the record's one eigh and the reference eigh; the second access runs none
        assert diagonalisations.count((5, 5)) == 2

    def test_products_of_products(self):
        rng = np.random.default_rng(6)
        a, b = random_state(3, rng), vector_state(haar_vector(4, rng))
        prod = State(tensor(State(tensor(a.op, b.op)).op, basis_state(1, 2).op, a.op))
        assert prod.op.dims == (3, 4, 2, 3)
        assert np.array_equal(prod.op.mat, tensor(a.op, b.op, basis_state(1, 2).op, a.op).mat)
        assert_spectrum_matches_eigh(prod)

    @pytest.mark.parametrize("spec", ORACLE_SCHEMES, ids=lambda s: "-".join(map(str, s)))
    def test_oracle_schemes_compress_as_the_eigh_path(self, spec):
        scheme = oracle_scheme(*spec)
        ds, dp = scheme.system_dim, scheme.probe_dim
        u5 = scheme.coupling.mat.reshape(1, ds, dp, ds, dp)
        got, ref = (povm._compress_isometries(povm._probe_isometries(u5, *st._spectrum[:2]),
                                              scheme.pointer.mats)
                    for st in (scheme.probe_state, State(scheme.probe_state.op)))
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("amp,nmax", [(0.5, 1), (1.0, 2)])
    def test_pure_kerr_scheme_diagonalises_nothing_of_its_size(self, amp, nmax,
                                                               diagonalisations):
        circuit = kerr_circuit(amp, nmax)
        diagonalisations.clear()
        scheme = kerrqnd.kerr_measurement_scheme(circuit)
        induced_observable(scheme)
        sizes = {scheme.coupling.dim, scheme.probe_dim, circuit.dims[2]}
        assert diagonalisations and not [s for s in diagonalisations if s[-1] in sizes]

    def test_vector_states_make_no_diagonalisation(self, diagonalisations):
        vector_state(haar_vector(100, np.random.default_rng(1)))
        kerrqnd.coherent_state(2.0)
        kerrqnd.coherent_state(0.0)
        basis_state(37, 100)
        assert diagonalisations == []

    def test_basis_states_are_recorded_as_vector_states(self):
        # exact entries and the record vector_state makes of e_k, bit for bit
        for d in range(1, 9):
            for k in range(d):
                st, ref = basis_state(k, d), vector_state(np.eye(d)[k])
                assert np.array_equal(st.op.mat, ref.op.mat)
                assert st.op.dims == ref.op.dims
                for got, expected in zip(st._spectrum, ref._spectrum):
                    assert np.array_equal(got, expected)
                    assert np.asarray(got).dtype == np.asarray(expected).dtype

    def test_product_state_of_a_nearly_non_hermitian_factor_is_diagonalised(
            self, diagonalisations):
        # a product of states is checked like any state: its 6 x 6 matrix is
        # diagonalised, and it is the kron of its factors
        x = np.array([[0.5, 0.25 + 0.9e-10], [0.25, 0.5]])
        a = State(Operator(x))
        diagonalisations.clear()
        prod = State(tensor(a.op, basis_state(0, 3).op))
        assert (6, 6) in diagonalisations
        assert np.array_equal(prod.op.mat, np.kron(x, basis_state(0, 3).op.mat))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("vec,message", [
        ([0.0, 0.0], "cannot normalize the zero vector"),
        ([np.nan, 1.0], "state must be Hermitian within 1e-10"),
        ([np.inf, 1.0], "state must be Hermitian within 1e-10"),
        ([1.0, -np.inf], "state must be Hermitian within 1e-10"),
        ([1.0, complex(0.0, np.nan)], "state must be Hermitian within 1e-10"),
    ])
    def test_bad_vectors_keep_their_messages(self, vec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            vector_state(np.array(vec))


def exact_pair_spectrum(row):
    """The two eigenvalues of L(row), the Hermitian matrix that shares the
    2 x 2 row's lower triangle, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        p, q = Decimal(row[0, 0].real), Decimal(row[1, 1].real)
        br, bi = Decimal(row[1, 0].real), Decimal(row[1, 0].imag)
        m, t = (p + q) / 2, (p - q) / 2
        r = (t * t + br * br + bi * bi).sqrt()
        return m - r, m + r


def adversarial_pair_rows():
    """2 x 2 rows on which a closed-form spectrum is easy to get wrong."""
    s3 = math.sqrt(1 / 3)
    u = np.array([s3, math.sqrt(2 / 3) * np.exp(1j)])
    w = np.array([math.sqrt(0.5), math.sqrt(0.5) * np.exp(1j * math.pi / 3)])
    tiny = np.finfo(float).tiny
    h = 0.99 * ATOL_HERMITIAN
    rows = [
        # exact projections
        [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]],
        [[0.5, -0.5j], [0.5j, 0.5]], [[0.5, 0.5j], [-0.5j, 0.5]],
        # rank one with irrational entries, and their complements
        np.outer(u, u.conj()), np.eye(2) - np.outer(u, u.conj()), np.outer(w, w.conj()),
        # near-degenerate
        [[0.5, 1e-17], [1e-17, 0.5]], [[0.5, 0], [0, 0.5 + 2**-53]], [[0.3, 0], [0, 0.3]],
        [[0.7, 1e-300j], [-1e-300j, 0.7]],
        # |b| >> |t| and |t| >> |b|
        [[0.5 + 1e-16, 0.4j], [-0.4j, 0.5]], [[0.2, 0.3 - 0.4j], [0.3 + 0.4j, 0.2]],
        [[0.9, 1e-20], [1e-20, 0.1]], [[1.0, 1e-9j], [-1e-9j, -1e-10]],
        # subnormals
        [[5e-324, 5e-324j], [-5e-324j, -5e-324]], [[tiny, 1e-310 + 3e-320j], [1e-310 - 3e-320j, 1e-309]],
        [[1e-320, 0], [0, 3e-321]], [[0.5, 4e-323], [4e-323, 0.5]],
        # signed zeros
        [[-0.0, complex(-0.0, 0.0)], [complex(-0.0, -0.0), 0.0]],
        [[1.0, 0.0], [complex(0.0, -0.0), -0.0]], [[-0.0, 0.0], [complex(-0.0, 0.0), -0.0]],
        # X01 != conj X10 within the Hermiticity tolerance: L(X) reads X10
        [[0.5, 0.3 + h], [0.3, 0.5]], [[0.6, 0.2j - h], [-0.2j, 0.4]],
        [[0.5, 0.5 - h * 1j], [0.5, 0.5]], [[1e-3, h], [0.0, 2e-3]],
        # far outside [0, 1]
        [[1e300, 1e300], [1e300, -1e300]], [[-3.0, 2 + 1j], [2 - 1j, 7.0]],
    ]
    rng = np.random.default_rng(34)
    for _ in range(200):
        v = random_unitary(2, rng)
        x = v @ np.diag(rng.uniform(-0.1, 1.1, 2)) @ v.conj().T
        x[0, 1] += complex(*rng.uniform(-h, h, 2)) / 2
        rows.append(x)
    return np.array(rows, dtype=complex)


class TestPairEnclosure:
    """The closed-form spectrum that certifies the 2 x 2 rows of an
    observable check (``povm`` module docstring)."""

    def test_ends_are_the_exact_spectrum_within_the_rounding_bound(self):
        rows = adversarial_pair_rows()
        ends, rounding = povm._pair_enclosure(rows)
        for row, end, bound in zip(rows, ends, rounding):
            for computed, exact in zip(end, exact_pair_spectrum(row)):
                assert abs(Decimal(computed) - exact) <= Decimal(bound), (row, computed, exact)

    def test_eigvalsh_lies_within_the_margin(self):
        rows = adversarial_pair_rows()
        rows = rows[np.abs(rows).max(axis=(1, 2)) <= 1.0]
        ends, rounding = povm._pair_enclosure(rows)
        w = np.linalg.eigvalsh(rows)
        margin = rounding + 2 * _EIG_ROUNDING
        assert np.all(w[:, 0] >= ends[:, 0] - margin)
        assert np.all(w[:, 1] <= ends[:, 1] + margin)

    def test_overflow_clears_nothing(self):
        big = np.finfo(float).max
        rows = np.array([[[big, 0], [0, big]], [[big, big], [big, -big]],
                         [[0.5, complex(big, big)], [complex(big, -big), 0.5]]])
        with np.errstate(all="raise"):
            ends, _ = povm._pair_enclosure(rows)
        assert not np.isfinite(ends).all(axis=1).any()

    @pytest.mark.parametrize("gap, diagonalised", [(1e-14, True), (1e-12, False)])
    def test_rows_within_the_margin_are_diagonalised(self, gap, diagonalised, eigvalsh_calls):
        # ends at gap inside -ATOL_POSITIVE and 1 + ATOL_POSITIVE pass; the
        # margin is about 2.9e-14, so at 1e-14 only eigvalsh can tell
        rng = np.random.default_rng(35)
        v = random_unitary(2, rng)
        lo, hi = -ATOL_POSITIVE + gap, 1 + ATOL_POSITIVE - gap
        for spectrum in ([lo, 0.5], [0.5, hi], [lo, hi]):
            e = v @ np.diag(spectrum) @ v.conj().T
            eigvalsh_calls.clear()
            povm._check_observables(np.array([[e, np.eye(2) - e]]))
            assert eigvalsh_calls == ([(2, 2, 2)] if diagonalised else [])

    @given(stacks=st.lists(
        st.tuples(
            st.tuples(*[st.one_of(
                st.integers(-60, 60).map(lambda j: -ATOL_POSITIVE + j * 1e-15),
                st.integers(-60, 60).map(lambda j: 1 + ATOL_POSITIVE + j * 1e-15),
                st.floats(-2 * ATOL_POSITIVE, 1 + 2 * ATOL_POSITIVE),
                st.sampled_from([0.0, 0.5, 1.0]))] * 2),
            st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi),
            st.sampled_from([0.0, 5e-11, -0.99e-10, 0.99e-10j, 1.1e-10, -3e-10j])),
        min_size=1, max_size=4))
    def test_verdicts_are_those_of_eigvalsh(self, stacks):
        # observables {E, I - E} with E's eigenvalues at or across -ATOL_POSITIVE
        # and 1 + ATOL_POSITIVE, rotated, and with X01 moved off conj X10
        observables = []
        for spectrum, theta, phi, skew in stacks:
            v = np.array([[math.cos(theta), -np.exp(-1j * phi) * math.sin(theta)],
                          [np.exp(1j * phi) * math.sin(theta), math.cos(theta)]])
            e = v @ np.diag(spectrum) @ v.conj().T
            f = np.eye(2) - e
            e[0, 1] += skew
            observables.append([e, f])
        stack = np.array(observables)
        assert (check_message(povm._check_observables, stack)
                == check_message(eigvalsh_observable_check, stack))


def eigvalsh_observable_check(stacks):
    """The observable check with every effect diagonalised."""
    povm._check_effects(stacks.reshape((-1,) + stacks.shape[2:]))
    if povm._completeness_residual(stacks).max() > ATOL_COMPLETENESS:
        raise ValueError("effects do not sum to the identity within tolerance")


def check_message(check, stack):
    """The message ``check`` raises on ``stack``, or None."""
    try:
        check(stack)
    except ValueError as exc:
        return str(exc)
    return None
