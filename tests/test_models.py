import re

import numpy as np
import pytest

from povmlab.linalg import Operator
from povmlab.models import (
    ConfidenceFunction,
    CyclicGrid,
    parity_operator,
    phase_space_observable,
    position_measurement_scheme,
    position_observable,
    toy_discrete_measurement,
    unsharp_position_observable,
    unsharp_position_transformer,
    weyl_operator,
)
from povmlab.mzi import number_observable
from povmlab.povm import State, induced_observable, marginal

TOL = 1e-12


def max_gap(a, b):
    """Largest entrywise difference between two observables with the same
    outcome labels."""
    assert a.outcomes == b.outcomes
    return float(np.max(np.abs(a.mats - b.mats)))


def random_amplitudes(d, rng):
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return phi / np.linalg.norm(phi)


def non_diagonal_operator(seed):
    """V diag(0, 2, 2, 5) V† for a seeded random unitary V, and V."""
    v = np.linalg.qr(random_amplitudes(16, np.random.default_rng(seed)).reshape(4, 4))[0]
    return Operator(v @ np.diag([0.0, 2.0, 2.0, 5.0]) @ v.conj().T), v


def random_state(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return State(Operator(rho / np.trace(rho).real))


@pytest.mark.parametrize("d", [5, 8])
class TestUnsharpPosition:
    def test_shift_coupling_induces_smeared_position(self, d):
        grid = CyclicGrid(d)
        phi = random_amplitudes(d, np.random.default_rng(d))
        induced = induced_observable(position_measurement_scheme(phi, grid))
        smeared = unsharp_position_observable(ConfidenceFunction(np.abs(phi) ** 2), grid)
        assert max_gap(induced, smeared) <= TOL

    def test_transformer_effects_are_smeared_position(self, d):
        grid = CyclicGrid(d)
        phi = random_amplitudes(d, np.random.default_rng(d + 1))
        tf = unsharp_position_transformer(phi, grid)
        smeared = unsharp_position_observable(ConfidenceFunction(np.abs(phi) ** 2), grid)
        for i, x in enumerate(tf.outcomes):
            ms = tf.kraus[tf.owner == i]
            kraus_effect = np.einsum("mji,mjk->ik", ms.conj(), ms)
            assert np.max(np.abs(kraus_effect - smeared.effect_for(x).op.mat)) <= TOL


@pytest.mark.parametrize("d", [5, 8])
class TestPhaseSpace:
    def test_position_marginal(self, d):
        grid = CyclicGrid(d)
        t0 = random_state(d, np.random.default_rng(10 + d))
        q_marginal = marginal(phase_space_observable(t0, grid), keep=0)
        f = ConfidenceFunction(np.diag(t0.op.mat).real)
        assert max_gap(q_marginal, unsharp_position_observable(f, grid)) <= TOL

    def test_momentum_marginal_in_the_fourier_basis(self, d):
        grid = CyclicGrid(d)
        t0 = random_state(d, np.random.default_rng(20 + d))
        f_mat = grid.dft().mat
        assert np.max(np.abs(f_mat.conj().T @ f_mat - np.eye(d))) <= TOL
        p_marginal = marginal(phase_space_observable(t0, grid), keep=1)
        g = ConfidenceFunction(np.diag(f_mat.conj().T @ t0.op.mat @ f_mat).real)
        smeared = unsharp_position_observable(g, grid)
        assert p_marginal.outcomes == smeared.outcomes
        rotated = f_mat.conj().T @ p_marginal.mats @ f_mat
        assert np.max(np.abs(rotated - smeared.mats)) <= TOL


@pytest.mark.parametrize("pointer_width", [1, 2])
def test_toy_measurement_induces_the_spectral_measure(pointer_width):
    a = Operator(np.diag([0.0, 2.0, 2.0, 5.0]))
    scheme = toy_discrete_measurement(a, CyclicGrid(8), pointer_width)
    induced = induced_observable(scheme)
    assert induced.outcomes == (0, 2, 5)
    spectral = np.array([np.diag(p) for p in ([1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1])])
    assert np.max(np.abs(induced.mats - spectral)) <= TOL


@pytest.mark.parametrize("pointer_width", [1, 2])
def test_toy_measurement_of_a_non_diagonal_operator(pointer_width):
    a, v = non_diagonal_operator(3)
    induced = induced_observable(toy_discrete_measurement(a, CyclicGrid(8), pointer_width))
    assert induced.outcomes == (0, 2, 5)
    spectral = np.array([v[:, cols] @ v[:, cols].conj().T for cols in ([0], [1, 2], [3])])
    assert np.max(np.abs(induced.mats - spectral)) <= TOL


def test_toy_measurement_rejects_non_integer_eigenvalues():
    with pytest.raises(ValueError, match="not integers within tolerance"):
        toy_discrete_measurement(Operator(np.diag([0.0, 2.5])), CyclicGrid(8))


def kronecker_coupling(projections, grid):
    """Reference coupling: the sum over eigenvalues of P_val (x) X^val, one
    Kronecker product per eigenspace."""
    return sum(np.kron(p, grid.shift(val).mat) for val, p in projections.items())


def test_position_coupling_equals_the_kronecker_sum():
    grid = CyclicGrid(8)
    phi = random_amplitudes(8, np.random.default_rng(4))
    coupling = position_measurement_scheme(phi, grid).coupling.mat
    sites = {q: np.diag(np.eye(8)[q]).astype(complex) for q in range(8)}
    assert np.array_equal(coupling, kronecker_coupling(sites, grid))


@pytest.mark.parametrize("d", [4, 7, 16])
def test_position_scheme_is_the_shift_permutation(d):
    grid = CyclicGrid(d)
    phi = random_amplitudes(d, np.random.default_rng(d))
    scheme = position_measurement_scheme(phi, grid)
    sites = np.arange(d)
    # row (q, k) of the coupling is row (q, k - q mod d) of the identity
    perm = (sites[:, None] * d + (sites[None, :] - sites[:, None]) % d).reshape(-1)
    assert np.array_equal(scheme.coupling.mat, np.eye(d * d)[perm])
    assert scheme.coupling.dims == (d, d)
    assert scheme.pointer_function is None
    f = ConfidenceFunction(np.abs(phi) ** 2)
    assert np.max(np.abs(induced_observable(scheme).mats
                         - unsharp_position_observable(f, grid).mats)) <= TOL


def test_toy_coupling_equals_the_kronecker_sum():
    grid = CyclicGrid(8)
    a, v = non_diagonal_operator(5)
    coupling = toy_discrete_measurement(a, grid).coupling.mat
    spaces = {val: v[:, cols] @ v[:, cols].conj().T
              for val, cols in ((0, [0]), (2, [1, 2]), (5, [3]))}
    assert np.max(np.abs(coupling - kronecker_coupling(spaces, grid))) <= TOL


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_confidence_weight_is_named(bad):
    with pytest.raises(ValueError, match=f"^confidence weight {bad} is not finite$"):
        ConfidenceFunction([bad, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("d", [float("nan"), float("inf")])
def test_non_finite_grid_size_is_named(d):
    with pytest.raises(ValueError, match=f"^grid size {d} is not finite$"):
        CyclicGrid(d)


@pytest.mark.parametrize("d", [4.5, np.float64(4.0), True, np.bool_(True), 0])
def test_grid_size_is_a_positive_integer(d):
    with pytest.raises(ValueError, match=f"^grid size {re.escape(repr(d))} is not a positive integer$"):
        CyclicGrid(d)


def test_integer_grid_sizes_keep_their_range_check():
    assert CyclicGrid(np.int64(3)).d == 3
    with pytest.raises(ValueError, match="^grid needs at least 2 sites$"):
        CyclicGrid(1)


@pytest.mark.parametrize("phi", [[[1, 0], [0, 0]], [[1], [0], [0], [0]], [1, 0, 0]])
def test_position_scheme_needs_one_amplitude_per_site(phi):
    with pytest.raises(ValueError, match="^pointer amplitudes of shape .* do not match"):
        position_measurement_scheme(phi, CyclicGrid(4))


def test_position_transformer_needs_one_amplitude_per_site():
    # a fifth amplitude on four sites used to be dropped without a word
    with pytest.raises(ValueError, match=r"^pointer amplitudes of shape \(5,\) do not match"):
        unsharp_position_transformer([0.6, 0.8, 0, 0, 0], CyclicGrid(4))


@pytest.mark.parametrize("build", [position_measurement_scheme, unsharp_position_transformer])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_pointer_amplitude_is_named(build, bad):
    with pytest.raises(ValueError, match=r"^pointer amplitude .* is not finite$") as err:
        build([bad, 1.0, 0.0, 0.0], CyclicGrid(4))
    assert str(bad) in str(err.value)


def test_confidence_weights_are_one_dimensional():
    with pytest.raises(ValueError, match=r"^confidence weights must be one-dimensional"):
        ConfidenceFunction([[0.5, 0.5], [0.0, 0.0]])


@pytest.mark.parametrize("width", [0, -1, 1.5, True])
def test_pointer_width_is_a_positive_integer(width):
    a = Operator(np.diag([0.0, 2.0]))
    expected = f"pointer width {width!r} is not a positive integer"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        toy_discrete_measurement(a, CyclicGrid(8), width)


@pytest.mark.parametrize("build", [
    lambda grid, s: grid.shift(s),
    lambda grid, s: grid.boost(s),
    lambda grid, s: weyl_operator(grid, s, 0),
    lambda grid, s: weyl_operator(grid, 0, s),
], ids=["shift", "boost", "weyl-q", "weyl-p"])
@pytest.mark.parametrize("steps", [1.5, float("nan"), np.float64(1.0), True])
def test_steps_are_integers(build, steps):
    expected = f"steps {steps!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        build(CyclicGrid(3), steps)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_weyl_operators(d):
    grid = CyclicGrid(d)
    x, z = grid.shift(1).mat, grid.boost(1).mat
    assert np.max(np.abs(z @ x - grid.omega * x @ z)) <= TOL
    for q in range(-1, d + 1):
        for p in range(-1, d + 1):
            w = weyl_operator(grid, q, p).mat
            assert np.max(np.abs(w @ w.conj().T - np.eye(d))) <= TOL


@pytest.mark.parametrize("d", [2, 3, 8])
def test_parity_reflects_the_sites(d):
    pi = parity_operator(CyclicGrid(d)).mat
    assert np.array_equal(pi @ pi, np.eye(d))
    for m in range(d):
        assert np.array_equal(pi[:, m], np.eye(d)[(-m) % d])


@pytest.mark.parametrize("d", [2, 5, 8])
def test_position_observable_is_the_number_observable(d):
    obs = position_observable(CyclicGrid(d))
    assert obs.is_projection_valued()
    number = number_observable(d)
    assert obs.outcomes == number.outcomes
    assert np.array_equal(obs.mats, number.mats)
