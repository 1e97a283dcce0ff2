"""Every public entry rejects a bad scalar where it enters, with a
``ValueError`` whose message starts with the parameter's name. Value-type
fields, Bloch vectors and state vectors are checked where they enter too.

The real and integer rules live in ``povmlab.linalg`` (``_check_real``,
``_check_int`` and ``_check_positive_int``); the cases here reach them, and
the few entry checks they do not cover, through the public API.
"""

import math
import re

import numpy as np
import pytest

from povmlab import linalg
from povmlab.kerrqnd import (
    KerrCircuit,
    ProbeConfig,
    coherent_dim,
    coherent_state,
    joint_path_interference_povm,
    kerr_phase,
    tradeoff_scan,
    truncated_phase_povm,
)
from povmlab.linalg import Operator, Vector
from povmlab.models import CyclicGrid
from povmlab.mzi import (
    BSParams,
    FockSpace,
    MZIParams,
    expanded_mzi_observable,
    number_observable,
    phase_shifter,
    single_photon_observable,
)
from povmlab.povm import vector_state
from povmlab.spin import (
    SpinPhaseSpace,
    coexist_criterion,
    coexist_oracle,
    criterion_value,
    joint_spin_observable,
    spin_effect,
    spin_observable,
    spin_phase_covariance_residual,
    spin_phase_effect,
)

HUGE = 10**400  # an int too large for a float
B = BSParams(0.5)
SPACE = FockSpace(1)


def _probe():
    return ProbeConfig(coherent_state(0.5, 16), 0.5, truncated_phase_povm(16, 8))


CASES = [
    ("FockSpace('3')", lambda: FockSpace("3"), "nmax"),
    ("FockSpace(huge)", lambda: FockSpace(HUGE), "nmax"),
    ("CyclicGrid('4')", lambda: CyclicGrid("4"), "grid size"),
    ("CyclicGrid(huge)", lambda: CyclicGrid(HUGE), "grid size"),
    ("BSParams('x')", lambda: BSParams("x"), "transparency"),
    ("BSParams(0.5, 'x')", lambda: BSParams(0.5, "x"), "splitter phase"),
    ("BSParams(0.5, huge)", lambda: BSParams(0.5, HUGE), "splitter phase"),
    ("MZIParams(B, B, huge)", lambda: MZIParams(B, B, HUGE), "phase shift"),
    ("phase_shifter('x')", lambda: phase_shifter("x", SPACE), "phase shift"),
    ("kerr_phase(4, 'x')", lambda: kerr_phase(4, "x"), "Kerr coupling"),
    ("kerr_phase(4, huge)", lambda: kerr_phase(4, HUGE), "Kerr coupling"),
    ("ProbeConfig(lam='x')",
     lambda: ProbeConfig(_probe().probe_state, "x", _probe().readout), "Kerr coupling"),
    ("single_photon_observable(0.5, 'x')",
     lambda: single_photon_observable(0.5, "x"), "splitter phase"),
    ("joint_path_interference_povm('x')",
     lambda: joint_path_interference_povm("x", 0.0, _probe()), "transparency"),
    ("spin_phase_covariance_residual(alpha=huge)",
     lambda: spin_phase_covariance_residual(SpinPhaseSpace(1.0), (0, 1), HUGE), "alpha"),
    ("truncated_phase_povm(huge bound)",
     lambda: truncated_phase_povm(4, [(0, HUGE)]), "malformed interval"),
    ("spin_phase_effect(huge bound)",
     lambda: spin_phase_effect(SpinPhaseSpace(1.0), (0, HUGE)), "malformed interval"),
    ("ps angle 'x'", lambda: expanded_mzi_observable([("ps", "x", 1)]), "phase-shifter angle"),
    ("ps angle huge", lambda: expanded_mzi_observable([("ps", HUGE, 1)]), "phase-shifter angle"),
    ("ps mode 1.0", lambda: expanded_mzi_observable([("ps", 0.3, 1.0)]), "phase-shifter mode"),
    ("ps mode True", lambda: expanded_mzi_observable([("ps", 0.3, True)]), "phase-shifter mode"),
    ("bs pair (0.0, 1.0)",
     lambda: expanded_mzi_observable([("bs", B, (0.0, 1.0))]), "mode pair"),
    ("bs parameter 0.5",
     lambda: expanded_mzi_observable([("bs", 0.5, (0, 1))]), "splitter parameter"),
    ("bsr parameter None",
     lambda: expanded_mzi_observable([("bsr", None, (0, 1))]), "splitter parameter"),
    ("bs modes 5", lambda: expanded_mzi_observable([("bs", B, 5)]), "mode pair"),
    ("bs modes (0, 1, 2)",
     lambda: expanded_mzi_observable([("bs", B, (0, 1, 2))]), "mode pair"),
    ("tradeoff_scan(eps2 '0.5')", lambda: tradeoff_scan([1.0], 0.5, ["0.5"]), "transparency"),
    ("tradeoff_scan(lam 'x')", lambda: tradeoff_scan([1.0], "x", [0.5]), "Kerr coupling"),
    ("coherent_dim('x')", lambda: coherent_dim("x"), "coherent amplitude"),
    ("coherent_dim(True)", lambda: coherent_dim(True), "coherent amplitude"),
    ("coherent_state('x')", lambda: coherent_state("x"), "coherent amplitude"),
    ("tradeoff_scan(amp 'x')", lambda: tradeoff_scan(["x"], 0.5, [0.5]), "coherent amplitude"),
    ("tradeoff_scan(amp 1j)", lambda: tradeoff_scan([1j], 0.5, [0.5]), "coherent amplitude"),
    ("number_observable('2')", lambda: number_observable("2"), "dim"),
    ("number_observable(1.5)", lambda: number_observable(1.5), "dim"),
    ("Operator dims (2, 2.5)", lambda: Operator(np.eye(4), (2, 2.5)), "factor dimension"),
    ("Operator dims (-2, -2)", lambda: Operator(np.eye(4), (-2, -2)), "factor dimension"),
    ("Vector dims (2, 2.5)", lambda: Vector(np.ones(4), (2, 2.5)), "factor dimension"),
]


@pytest.mark.parametrize("build, name", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_scalar_is_a_value_error_naming_the_parameter(build, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: FockSpace(HUGE), f"nmax {HUGE} is not finite"),
    (lambda: BSParams(0.5, HUGE), f"splitter phase {HUGE} is not finite"),
    (lambda: BSParams(HUGE), f"transparency {HUGE} outside [0, 1]"),
    (lambda: BSParams(0.5, "x"), "splitter phase 'x' is not a real number"),
    (lambda: BSParams(0.5, True), "splitter phase True is not a real number"),
    (lambda: kerr_phase(4, 1j), "Kerr coupling 1j is not a real number"),
    (lambda: CyclicGrid("4"), "grid size '4' is not a positive integer"),
    (lambda: CyclicGrid(3).shift("1"), "steps '1' is not an integer"),
    (lambda: expanded_mzi_observable([("ps", 0.3, 1.0)]),
     "phase-shifter mode 1.0 is not an integer in [0, 4)"),
    (lambda: expanded_mzi_observable([("bs", B, (0, 5))]),
     "mode pair (0, 5): mode 5 is not an integer in [0, 4)"),
    (lambda: expanded_mzi_observable([("bs", 0.5, (0, 1))]),
     "splitter parameter 0.5 is not a BSParams"),
    (lambda: coherent_state("x"), "coherent amplitude 'x' is not a number"),
    (lambda: tradeoff_scan([1j], 0.5, [0.5]), "coherent amplitude 1j is not a real number"),
    (lambda: truncated_phase_povm(4, [(0, HUGE)]),
     "malformed interval [0.0, inf]; need 0 <= u <= v <= 2pi"),
    (lambda: Operator(np.eye(4), (2, 2.5)), "factor dimension 2.5 is not a positive integer"),
    (lambda: Vector(np.ones(4), (2, 3)), "factor dims (2, 3) do not multiply to dim 4"),
], ids=lambda v: v.replace(str(HUGE), "huge") if isinstance(v, str) else "")
def test_entry_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_valid_scalars_are_read_as_their_floats_and_ints():
    assert BSParams(np.float64(0.25), 1).theta == 1.0
    assert FockSpace(np.int64(3)).nmax == 3 and type(FockSpace(np.int64(3)).nmax) is int
    assert type(CyclicGrid(np.int32(4)).d) is int
    assert _probe().lam == 0.5
    assert ProbeConfig(_probe().probe_state, 1, _probe().readout).lam == 1.0
    assert Operator(np.eye(4), (np.int64(2), 2)).dims == (2, 2)
    # complex amplitudes stay allowed
    assert coherent_dim(1j) == coherent_dim(1.0)
    assert np.array_equal(expanded_mzi_observable([("ps", np.int64(2), np.int64(1))]).mats,
                          expanded_mzi_observable([("ps", 2.0, 1)]).mats)


def test_non_finite_vector_is_rejected_before_numpy_divides():
    # warnings are errors in this suite, so a division by a NaN norm would
    # fail here with a RuntimeWarning
    for vec in ([math.nan, 1.0], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="^state must be Hermitian within 1e-10$"):
            vector_state(vec)


class TestRule:
    @pytest.mark.parametrize("value", ["1", None, 1j, True, np.bool_(False), [1.0]])
    def test_real_rejects_what_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match=f"^x {re.escape(repr(value))} is not a real number$"):
            linalg._check_real(value, "x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, HUGE, -HUGE,
                                       np.float64("nan")],
                             ids=["nan", "inf", "-inf", "huge", "-huge", "np.nan"])
    def test_real_rejects_what_is_not_finite(self, value):
        with pytest.raises(ValueError, match=f"^x {re.escape(str(value))} is not finite$"):
            linalg._check_real(value, "x")

    def test_real_without_the_finite_test_leaves_it_to_the_range_test(self):
        assert linalg._check_real(HUGE, "x", finite=False) == math.inf
        assert linalg._check_real(-HUGE, "x", finite=False) == -math.inf
        assert math.isnan(linalg._check_real(math.nan, "x", finite=False))

    def test_real_returns_the_float(self):
        for value in (1, np.int64(-2), np.float32(0.5), 2.0**1023):
            x = linalg._check_real(value, "x")
            assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("low, high, value, kind", [
        (None, None, 1.0, "an integer"),
        (None, None, True, "an integer"),
        (1, None, 0, "a positive integer"),
        (1, None, np.bool_(True), "a positive integer"),
        (0, 3, 3, "an integer in [0, 3)"),
        (0, 3, -1, "an integer in [0, 3)"),
        (0, 3, HUGE, "an integer in [0, 3)"),
    ], ids=["float", "bool", "zero", "np.bool", "past-high", "below-low", "huge"])
    def test_int_names_the_range(self, low, high, value, kind):
        message = f"k {value!r} is not {kind}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linalg._check_int(value, "k", low, high)

    def test_int_returns_the_int(self):
        assert linalg._check_int(np.int64(2), "k", 0, 3) == 2
        assert type(linalg._check_int(np.int64(2), "k")) is int
        assert linalg._check_int(HUGE, "k") == HUGE

    @pytest.mark.parametrize("value, message", [
        (math.nan, "n nan is not finite"),
        (HUGE, f"n {HUGE} is not finite"),
        (2.0, "n 2.0 is not a positive integer"),
        (True, "n True is not a positive integer"),
        ("2", "n '2' is not a positive integer"),
    ], ids=["nan", "huge", "float", "bool", "str"])
    def test_size_is_a_finite_positive_integer(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linalg._check_positive_int(value, "n")


@pytest.mark.parametrize("build, message", [
    (lambda: MZIParams(0.5, B), "bs1 0.5 is not a BSParams"),
    (lambda: MZIParams(B, None), "bs2 None is not a BSParams"),
    (lambda: KerrCircuit(B, _probe()), f"mzi {B!r} is not a MZIParams"),
    (lambda: KerrCircuit(MZIParams(B, B), "p"), "probe 'p' is not a ProbeConfig"),
    (lambda: KerrCircuit(MZIParams(B, B), _probe(), 1), "arm_space 1 is not a FockSpace"),
    (lambda: ProbeConfig("x", 0.5, _probe().readout), "probe_state 'x' is not a State"),
    (lambda: ProbeConfig(_probe().probe_state, 0.5, None),
     "readout None is not a DiscreteObservable"),
], ids=["bs1", "bs2", "mzi", "probe", "arm_space", "probe_state", "readout"])
def test_value_type_fields_are_checked_where_they_enter(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


GOOD_BLOCH = [0.1, 0.2, 0.3]
BLOCH_ENTRIES = {
    "spin_effect": spin_effect,
    "spin_observable": spin_observable,
    "criterion_value(a, good)": lambda a: criterion_value(a, GOOD_BLOCH),
    "criterion_value(good, a)": lambda a: criterion_value(GOOD_BLOCH, a),
    "coexist_criterion": lambda a: coexist_criterion(GOOD_BLOCH, a),
    "coexist_oracle": lambda a: coexist_oracle(a, GOOD_BLOCH),
    "joint_spin_observable": lambda a: joint_spin_observable(a, GOOD_BLOCH),
}


@pytest.mark.parametrize("vector", [
    [HUGE, 0, 0], [0, -HUGE, 0], [1j, 0, 0], np.array([0.5j, 0, 0]), [True, False, False],
    np.array([False, False, True]), ["0.5", 0, 0], [None, 0, 0], [0.5, 0.5], [0.1] * 4,
], ids=["huge", "-huge", "complex", "complex array", "bools", "bool array", "str", "None",
        "two", "four"])
@pytest.mark.parametrize("entry", list(BLOCH_ENTRIES.values()), ids=list(BLOCH_ENTRIES))
def test_bloch_vector_is_three_real_numbers(entry, vector):
    message = f"Bloch vector {vector!r} is not three real numbers in float range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(vector)


def test_bloch_vector_of_ints_and_numpy_scalars_is_read_as_floats():
    ref = spin_effect([1.0, 0.0, 0.0]).op.mat
    for vector in ([1, 0, 0], [np.int64(1), 0, 0], np.array([1, 0, 0], dtype=np.uint8),
                   [np.float32(1.0), 0.0, 0.0], [[1.0, 0.0, 0.0]]):
        assert np.array_equal(spin_effect(vector).op.mat, ref)
    assert criterion_value([1, 0, 0], [0, 1, 0]) == criterion_value([1.0, 0, 0], [0, 1.0, 0])


@pytest.mark.parametrize("vec, unit", [
    ([1e308, 1e308], [0.5**0.5, 0.5**0.5]),  # the norm overflows
    ([1e308 + 1e308j, 0.0], [(1 + 1j) / 2**0.5, 0.0]),
    ([1e-200, -1e-200j], [0.5**0.5, -(0.5**0.5) * 1j]),  # the norm underflows to 0
    ([5e-324, 0.0], [1.0, 0.0]),
])
def test_vector_with_an_unrepresentable_norm_is_normalized(vec, unit):
    # warnings are errors in this suite: an overflow in the norm would fail here
    assert np.allclose(Vector(vec).normalized().vec, unit, rtol=0, atol=1e-15)
    expected = np.outer(unit, np.conj(unit))
    assert np.allclose(Vector(vec).projector().mat, expected, rtol=0, atol=1e-15)
    assert np.allclose(vector_state(vec).op.mat, expected, rtol=0, atol=1e-15)


def test_vector_norm_past_the_float_range_is_inf():
    assert Vector([1e308, 1e308]).norm() == math.inf


@pytest.mark.parametrize("vec", [[math.nan, 1.0], [1.0, -math.inf], [1.0, complex(0.0, math.nan)],
                                 [complex(math.inf, 1.0), 0.0]],
                         ids=["nan", "-inf", "nan imag", "inf real"])
def test_non_finite_vector_is_not_normalized(vec):
    for build in (Vector(vec).normalized, Vector(vec).projector):
        with pytest.raises(ValueError, match="^cannot normalize the non-finite vector$"):
            build()
    with pytest.raises(ValueError, match="^state must be Hermitian within 1e-10$"):
        vector_state(vec)
