"""Rejection branches of the value types, builders and models: each bad
input below raises ``ValueError`` with its message, and a check that can
pass or fail returns the failing verdict."""

import re

import numpy as np
import pytest

from povmlab import kerrqnd, povm
from povmlab.kerrqnd import (
    KerrCircuit,
    ProbeConfig,
    coherent_state,
    detection_statistics,
    induced_a_mode_observable,
    three_mode_output,
    tradeoff_scan,
    truncated_phase_povm,
)
from povmlab.linalg import Operator, Vector, partial_trace, tensor
from povmlab.models import (
    ConfidenceFunction,
    CyclicGrid,
    phase_space_observable,
    position_measurement_scheme,
    toy_discrete_measurement,
    unsharp_position_observable,
)
from povmlab.mzi import (
    BSParams,
    FockSpace,
    MZIParams,
    detection_probabilities,
    mzi_output_state,
)
from povmlab.povm import (
    DiscreteObservable,
    StateTransformer,
    basis_state,
    joint_observable_feasible,
    maximally_mixed,
)

HALF = BSParams(0.5, np.pi / 2)


def _raises(message, build):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _circuit(probe_dim=4):
    probe = ProbeConfig(basis_state(0, probe_dim), 0.5, truncated_phase_povm(probe_dim, 2))
    return KerrCircuit(MZIParams(HALF, HALF, 0.3), probe)


class TestLinalg:
    def test_vector_dims_must_multiply_to_its_length(self):
        _raises("factor dims (2, 2) do not multiply to dim 3", lambda: Vector([1, 0, 0], (2, 2)))

    def test_tensor_needs_an_operand(self):
        _raises("tensor() needs at least one operand", tensor)

    @pytest.mark.parametrize("keep, bad", [([2], "2"), ([-1], "-1"), ([0, 5], "5"),
                                           ([1.5], "1.5"), (["1"], "'1'"), ([True], "True")])
    def test_partial_trace_keep_must_name_a_factor(self, keep, bad):
        op = Operator(np.eye(6) / 6, (2, 3))
        _raises(f"keep index {bad} is not an integer in [0, 2)", lambda: partial_trace(op, keep))
        assert partial_trace(op, [np.int64(1)]).dim == 3

    def test_a_non_hermitian_operator_is_no_projection(self):
        # idempotent but not Hermitian: an oblique projection
        assert not Operator([[1.0, 1.0], [0.0, 0.0]]).is_projection()
        assert Operator([[1.0, 0.0], [0.0, 0.0]]).is_projection()


class TestPovm:
    def test_transformer_needs_one_kraus_set_per_outcome(self):
        _raises("outcomes and kraus_sets must have equal length",
                lambda: StateTransformer([0, 1], [[np.eye(2)]]))

    def test_transformer_needs_an_operation_element(self):
        _raises("transformer has no operation elements", lambda: StateTransformer([0], [[]]))

    @pytest.mark.parametrize("decide", [povm.are_prob_complementary, povm._maximal_sets_disjoint])
    def test_complementarity_needs_one_space(self, decide):
        qubit = DiscreteObservable([0, 1], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        qutrit = DiscreteObservable([0, 1], [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        _raises("observables act on different spaces", lambda: decide(qubit, qutrit))

    def test_joint_feasibility_needs_two_outcomes(self):
        two = DiscreteObservable([0, 1], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        three = DiscreteObservable([0, 1, 2], [np.eye(2) / 3] * 3)
        for e1, e2 in ((two, three), (three, two)):
            _raises("joint_observable_feasible supports two-valued observables",
                    lambda: joint_observable_feasible(e1, e2))


class TestKerr:
    def test_readout_must_match_the_probe(self):
        _raises("readout and probe state dimensions differ",
                lambda: ProbeConfig(basis_state(0, 3), 0.5, truncated_phase_povm(4, 2)))

    def test_a_modulus_that_overflows_is_named(self):
        # each part is finite, their modulus is not: abs() raises OverflowError
        z = complex(1.5e308, 1.5e308)
        with pytest.raises(ValueError, match=r"^coherent amplitude .* overflows the Fock moduli$"):
            coherent_state(z, 16)

    def test_three_mode_output_needs_an_arm_state(self):
        _raises("input state does not match the arm dimension",
                lambda: three_mode_output(maximally_mixed(3), _circuit()))

    def test_detection_statistics_needs_three_modes(self):
        readout = truncated_phase_povm(4, 2)
        _raises("expected a three-mode state with dims metadata",
                lambda: detection_statistics(maximally_mixed(8), readout))
        two_mode = povm.State(Operator(np.eye(4) / 4, (2, 2)))
        _raises("expected a three-mode state with dims metadata",
                lambda: detection_statistics(two_mode, readout))

    def test_unknown_induction_method_is_named(self):
        _raises("unknown method 'x'", lambda: induced_a_mode_observable(_circuit(), method="x"))

    def test_scan_rows_are_checked_for_completeness(self, monkeypatch):
        # t0 scaled by 1.01 keeps every effect positive (det F grows) but the
        # effects no longer sum to the identity
        traces = kerrqnd._probe_traces

        def heavier(probe):
            t0, t1, t0m, tp0 = traces(probe)
            return np.stack([1.01 * t0, t1, t0m, tp0])

        monkeypatch.setattr(kerrqnd, "_probe_traces", heavier)
        _raises("effects do not sum to the identity within tolerance",
                lambda: tradeoff_scan([1.0], 0.5, [0.5]))


class TestModels:
    def test_confidence_weights_must_be_nonnegative(self):
        _raises("confidence weights must be nonnegative",
                lambda: ConfidenceFunction([1.5, -0.5, 0.0, 0.0]))

    def test_confidence_weights_must_sum_to_one(self):
        _raises("confidence weights sum to 0.9, expected 1",
                lambda: ConfidenceFunction([0.5, 0.4, 0.0, 0.0]))

    def test_pointer_supports_must_not_overlap(self):
        a = Operator(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="^pointer supports overlap on the grid"):
            toy_discrete_measurement(a, CyclicGrid(8), 3)

    def test_confidence_function_must_match_the_grid(self):
        _raises("confidence function does not match the grid",
                lambda: unsharp_position_observable(ConfidenceFunction([1.0, 0.0, 0.0]),
                                                    CyclicGrid(4)))

    def test_pointer_amplitudes_must_be_normalized(self):
        _raises("pointer amplitudes must be normalized",
                lambda: position_measurement_scheme([1.0, 1.0, 0.0, 0.0], CyclicGrid(4)))

    def test_seed_state_must_match_the_grid(self):
        _raises("seed state does not match the grid",
                lambda: phase_space_observable(maximally_mixed(3), CyclicGrid(4)))


class TestMzi:
    def test_output_state_needs_mode_states(self):
        space = FockSpace(1)
        params = MZIParams(HALF, HALF)
        for t, idle in ((maximally_mixed(3), basis_state(0, 2)),
                        (basis_state(1, 2), maximally_mixed(3))):
            _raises("input states do not match the mode dimension",
                    lambda: mzi_output_state(t, idle, params, space))

    def test_detection_probabilities_need_two_modes(self):
        _raises("expected a two-mode state with dims metadata",
                lambda: detection_probabilities(maximally_mixed(4)))
        three_mode = povm.State(Operator(np.eye(8) / 8, (2, 2, 2)))
        _raises("expected a two-mode state with dims metadata",
                lambda: detection_probabilities(three_mode))
