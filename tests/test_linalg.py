import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from povmlab.linalg import (
    Operator,
    Vector,
    eigh,
    expm,
    haar_vector,
    identity,
    partial_trace,
    tensor,
)

SIGMA_Z = np.diag([1.0 + 0j, -1.0])
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((m + m.conj().T) / 2)


def random_anti_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((m - m.conj().T) / 2)


def ladder(dim):
    m = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return Operator(m)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Operator(np.eye(6), dims=(2, 2))

    def test_immutable_entries(self):
        op = identity(3)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_unit_vector_norm(self):
        v = Vector(np.array([1.0, 1.0j]) / np.sqrt(2))
        assert abs(v.norm() - 1.0) < 1e-12


class TestTensor:
    def test_identity_case(self):
        assert_allclose(tensor(identity(2), identity(3)).mat, np.eye(6))

    def test_sigma_z_with_identity_spectrum(self):
        w = np.linalg.eigvalsh(tensor(Operator(SIGMA_Z), identity(2)).mat)
        assert_allclose(np.sort(w), [-1, -1, 1, 1], atol=1e-12)

    def test_ladder_cross_pattern(self):
        # a (x) a-dagger moves (m, n) to (m - 1, n + 1): enumerate indices
        dim = 3
        t = tensor(ladder(dim), ladder(dim).dag()).mat
        for m in range(dim):
            for n in range(dim):
                for mp in range(dim):
                    for np_ in range(dim):
                        entry = t[mp * dim + np_, m * dim + n]
                        expected_nonzero = (mp == m - 1) and (np_ == n + 1)
                        if expected_nonzero:
                            assert abs(entry) > 0
                        else:
                            assert entry == 0

    def test_associativity_exact_on_representable_entries(self):
        rng = np.random.default_rng(1)
        ops = [
            Operator(rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2)))
            for _ in range(3)
        ]
        left = tensor(tensor(ops[0], ops[1]), ops[2])
        right = tensor(ops[0], tensor(ops[1], ops[2]))
        assert np.array_equal(left.mat, right.mat)
        assert left.dims == right.dims

    def test_associativity_generic(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_hermitian(2, rng) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert_allclose(left.mat, right.mat, atol=1e-15)

    def test_dims_concatenate(self):
        assert tensor(identity(2), identity(3), identity(2)).dims == (2, 3, 2)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho = random_hermitian(3, rng)
        sigma = random_hermitian(4, rng)
        joint = tensor(rho, sigma)
        reduced = partial_trace(joint, keep=[0])
        assert_allclose(reduced.mat, rho.mat * np.trace(sigma.mat), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        pos = Operator(m @ m.conj().T, dims=(3, 4))
        for keep in ([0], [1]):
            reduced = partial_trace(pos, keep=keep)
            assert abs(reduced.trace() - pos.trace()) < 1e-12

    def test_bell_like_reduction(self):
        vec = np.zeros(4, dtype=complex)
        vec[1] = vec[2] = 1 / np.sqrt(2)  # (|01> + |10>) / sqrt2
        rho = Operator(np.outer(vec, vec.conj()), dims=(2, 2))
        for keep in ([0], [1]):
            assert_allclose(partial_trace(rho, keep=keep).mat, np.eye(2) / 2,
                            atol=1e-12)

    def test_requires_dims(self):
        with pytest.raises(ValueError):
            partial_trace(identity(4), keep=[0])

    def test_three_factor_keep_two(self):
        rng = np.random.default_rng(4)
        parts = [random_hermitian(2, rng) for _ in range(3)]
        joint = tensor(*parts)
        reduced = partial_trace(joint, keep=[0, 2])
        expected = tensor(parts[0], parts[2]).mat * np.trace(parts[1].mat)
        assert_allclose(reduced.mat, expected, atol=1e-12)


class TestExpm:
    def test_zero_generator(self):
        assert_allclose(expm(Operator(np.zeros((3, 3)))).mat, np.eye(3))

    def test_rotation_closed_form(self):
        theta = 0.7321
        gen = Operator(theta * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert_allclose(expm(gen).mat, expected, atol=1e-12)

    def test_inverse_property(self):
        rng = np.random.default_rng(5)
        k = random_anti_hermitian(6, rng)
        prod = expm(k) @ expm(-k)
        assert np.max(np.abs(prod.mat - np.eye(6))) < 1e-10

    def test_block_structure_preserved(self):
        # number-conserving two-mode generator exponentiates block diagonally
        dim = 4
        a = ladder(dim)
        gen = Operator(
            0.3 * tensor(a, a.dag()).mat - 0.3 * tensor(a.dag(), a).mat,
            (dim, dim),
        )
        u = expm(gen).mat
        total = np.add.outer(np.arange(dim), np.arange(dim)).reshape(-1)
        off_block = u[total[:, None] != total[None, :]]
        assert np.max(np.abs(off_block)) < 1e-12

    def test_rejects_non_anti_hermitian(self):
        rng = np.random.default_rng(6)
        for gen in (random_hermitian(3, rng),
                    Operator(np.array([[0.0, 1.0], [0.0, 0.0]])),
                    Operator(np.array([[0.0, 1.0], [-1.0 + 1e-9, 0.0]]))):
            with pytest.raises(ValueError, match="anti-Hermitian"):
                expm(gen)

    @given(st.integers(0, 10**6))
    def test_anti_hermitian_gives_unitary(self, seed):
        rng = np.random.default_rng(seed)
        u = expm(random_anti_hermitian(5, rng))
        assert u.is_unitary()


class TestEigh:
    def test_identity(self):
        w, _ = eigh(identity(4))
        assert_allclose(w, np.ones(4), atol=1e-12)

    def test_sigma_x(self):
        w, _ = eigh(Operator(SIGMA_X))
        assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(16, rng)
        w, v = eigh(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h.mat)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


@pytest.mark.parametrize("dim", [0, -1, 2.5, True])
def test_haar_vector_dimension_is_a_positive_integer(dim):
    expected = f"dimension {dim!r} is not a positive integer"
    with pytest.raises(ValueError, match=f"^{expected}$"):
        haar_vector(dim, np.random.default_rng(0))
