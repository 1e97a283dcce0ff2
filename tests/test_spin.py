import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmlab import spin
from povmlab.kerrqnd import truncated_phase_povm
from povmlab.linalg import Operator
from povmlab.povm import are_prob_complementary, marginal
from povmlab.spin import (
    SpinPhaseSpace,
    coexist_criterion,
    coexist_oracle,
    criterion_value,
    joint_spin_observable,
    s3_operator,
    spin_effect,
    spin_observable,
    spin_phase_covariance_residual,
    spin_phase_effect,
    spin_phase_first_moment,
    spin_phase_observable,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def random_pair(rng, max_norm=1.0):
    while True:
        a = rng.uniform(-1, 1, 3)
        if np.linalg.norm(a) <= max_norm:
            return a


def boundary_pair(rng, value):
    """Bloch vectors with |a1 + a2| + |a1 - a2| == value and norms <= 0.999."""
    while True:
        a1, a2 = rng.standard_normal(3), rng.standard_normal(3)
        a1 *= rng.uniform(0.2, 1.0) / np.linalg.norm(a1)
        a2 *= rng.uniform(0.2, 1.0) / np.linalg.norm(a2)
        scale = value / (np.linalg.norm(a1 + a2) + np.linalg.norm(a1 - a2))
        if max(np.linalg.norm(a1), np.linalg.norm(a2)) * scale <= 0.999:
            return a1 * scale, a2 * scale


def grid_certifies(a1, a2, n_gamma=101, n_c=21):
    """Whether some point of a (gamma, c) grid over [0, 1] x [-1, 1]^3 lies
    in S(a1, 1-gamma) ∩ S(a2, 1-gamma) ∩ S(a1+a2, gamma) ∩ S(0, gamma)."""
    axis = np.linspace(-1.0, 1.0, n_c)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    d1 = np.linalg.norm(pts - a1, axis=1)
    d2 = np.linalg.norm(pts - a2, axis=1)
    d3 = np.linalg.norm(pts - (a1 + a2), axis=1)
    d0 = np.linalg.norm(pts, axis=1)
    for gamma in np.linspace(0.0, 1.0, n_gamma):
        ok = (d1 <= 1 - gamma + 1e-12) & (d2 <= 1 - gamma + 1e-12)
        ok &= (d3 <= gamma + 1e-12) & (d0 <= gamma + 1e-12)
        if ok.any():
            return True
    return False


class TestSpinEffect:
    def test_zero_vector_maximally_unsharp(self):
        assert_allclose(spin_effect(0 * Z).op.mat, np.eye(2) / 2)

    def test_sharp_z_projection(self):
        assert_allclose(spin_effect(Z).op.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_eigenvalues(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_pair(rng)
            w = np.linalg.eigvalsh(spin_effect(a).op.mat)
            n = np.linalg.norm(a)
            assert_allclose(np.sort(w), [(1 - n) / 2, (1 + n) / 2], atol=1e-12)

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError):
            spin_effect(1.2 * Z)

    def test_rejects_non_finite_components(self):
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
            with pytest.raises(ValueError, match="non-finite"):
                coexist_criterion(bad, [0.0, 0.5, 0.0])
            with pytest.raises(ValueError, match="non-finite"):
                spin_effect(bad)

    def test_idempotency_only_when_sharp(self):
        e = spin_effect(0.7 * X).op.mat
        assert np.linalg.norm(e @ e - e) > 1e-3
        p = spin_effect(X).op.mat
        assert np.max(np.abs(p @ p - p)) < 1e-12


class TestCoexistence:
    def test_equal_sharp_pair_boundary(self):
        assert criterion_value(Z, Z) == pytest.approx(2.0, abs=1e-14)
        assert coexist_criterion(Z, Z)

    def test_orthogonal_sharp_pair(self):
        assert criterion_value(X, Y) == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        assert not coexist_criterion(X, Y)

    def test_smeared_orthogonal_pair(self):
        assert criterion_value(0.6 * X, 0.6 * Y) == pytest.approx(
            1.2 * np.sqrt(2), abs=1e-12
        )
        assert coexist_criterion(0.6 * X, 0.6 * Y)

    def test_sharp_input_forces_commutativity(self):
        # one sharp vector: coexistence holds exactly on (anti)parallel pairs
        assert coexist_criterion(X, 0.4 * X)
        assert coexist_criterion(X, -0.4 * X)
        assert not coexist_criterion(X, 0.4 * Y)
        tilted = 0.4 * np.array([np.cos(0.05), np.sin(0.05), 0.0])
        assert not coexist_criterion(X, tilted)


class TestOracle:
    def test_complement_pair(self):
        assert coexist_oracle(0.8 * X, -0.8 * X)

    def test_orthogonal_sharp(self):
        assert not coexist_oracle(X, Y)

    def test_agrees_with_criterion(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a1, a2 = random_pair(rng), random_pair(rng)
            assert coexist_oracle(a1, a2) == coexist_criterion(a1, a2)

    def test_grid_only_near_the_boundary(self):
        assert coexist_oracle(0.6 * X, 0.6 * Y)
        assert coexist_oracle(0.8 * X, -0.8 * X)
        assert not coexist_oracle(X, Y)

    def test_grid_fallback_agrees(self):
        # one-sided: a grid point inside all four balls proves coexistence,
        # while a coarse grid that misses the intersection proves nothing
        rng = np.random.default_rng(2)
        certified = 0
        for _ in range(30):
            a1, a2 = random_pair(rng), random_pair(rng)
            if grid_certifies(a1, a2):
                certified += 1
                assert coexist_oracle(a1, a2)
        assert certified >= 1

    def test_agrees_with_criterion_at_the_boundary(self):
        # criterion values within 1e-11 of 2, where the 1e-12 slack decides
        rng = np.random.default_rng(3)
        for _ in range(4400):
            a1, a2 = boundary_pair(rng, 2.0 + rng.uniform(-1e-11, 1e-11))
            assert abs(criterion_value(a1, a2) - 2.0) <= 1e-11
            assert coexist_oracle(a1, a2) == coexist_criterion(a1, a2)

    def test_slack_matches_the_criterion(self):
        # criterion 2 + 2.5e-12 exceeds 2 + 1e-12; the witness (criterion - 2)/4
        # = 6.25e-13 does not, so the slack must be scaled with it
        a = 0.7071067811874313
        assert criterion_value(a * X, a * Y) > 2.0 + 1e-12
        assert coexist_oracle(a * X, a * Y) == coexist_criterion(a * X, a * Y)


class TestJointObservable:
    def test_marginals(self):
        joint = joint_spin_observable(0.6 * X, 0.6 * Y)
        m1 = marginal(joint, keep=0)
        m2 = marginal(joint, keep=1)
        assert np.max(np.abs(m1.effect_for(1).op.mat - spin_effect(0.6 * X).op.mat)) < 1e-12
        assert np.max(np.abs(m2.effect_for(1).op.mat - spin_effect(0.6 * Y).op.mat)) < 1e-12

    def test_correlated_sharp_case(self):
        joint = joint_spin_observable(Z, Z)
        assert_allclose(joint.effect_for((1, 1)).op.mat, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.max(np.abs(joint.effect_for((1, -1)).op.mat)) < 1e-14

    def test_positive_effects(self):
        joint = joint_spin_observable(0.6 * X, 0.6 * Y)
        for _, e in joint:
            assert np.linalg.eigvalsh(e.op.mat).min() >= -1e-12

    def test_rejects_noncoexistent(self):
        with pytest.raises(ValueError):
            joint_spin_observable(X, Y)


class TestSpinPhase:
    def test_full_circle_is_identity_exactly(self):
        for s in (0.5, 1.0, 1.5):
            e = spin_phase_effect(SpinPhaseSpace(s), (0.0, 2 * np.pi))
            assert np.array_equal(e.op.mat, np.eye(round(2 * s) + 1))

    def test_half_circle_eigenvalues(self):
        e = spin_phase_effect(SpinPhaseSpace(0.5), (0.0, np.pi))
        w = np.linalg.eigvalsh(e.op.mat)
        assert_allclose(np.sort(w), [0.5 - 1 / np.pi, 0.5 + 1 / np.pi], atol=1e-12)

    def test_uniform_diagonal(self):
        space = SpinPhaseSpace(1.5)
        for alpha in (0.3, 1.0, 5.2):
            e = spin_phase_effect(space, (0.0, alpha))
            assert np.max(np.abs(np.diag(e.op.mat) - alpha / (2 * np.pi))) < 1e-12

    def test_covariance_zero_shift(self):
        assert spin_phase_covariance_residual(SpinPhaseSpace(1.0), (0.2, 1.2), 0.0) == 0.0

    def test_covariance_wraparound(self):
        r = spin_phase_covariance_residual(SpinPhaseSpace(0.5), (0.0, np.pi), np.pi)
        assert r < 1e-10

    def test_covariance_sweep(self):
        rng = np.random.default_rng(3)
        space = SpinPhaseSpace(1.5)
        for _ in range(100):
            u = rng.uniform(0, 2 * np.pi)
            v = rng.uniform(u, 2 * np.pi)
            alpha = rng.uniform(0, 2 * np.pi)
            assert spin_phase_covariance_residual(space, (u, v), alpha) < 1e-10

    def test_additivity(self):
        space = SpinPhaseSpace(1.0)
        u, v, w = 0.3, 1.7, 4.0
        lhs = spin_phase_effect(space, (u, w)).op.mat
        rhs = spin_phase_effect(space, (u, v)).op.mat + spin_phase_effect(
            space, (v, w)
        ).op.mat
        assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_rejects_malformed_interval(self):
        # one interval rule for the effect, the covariance residual, the stack
        # and the truncated readout
        for bad in ((1.0, 0.5), (-0.1, 1.0), (0.0, 7.0), (np.nan, 1.0)):
            for build in (lambda: spin_phase_effect(SpinPhaseSpace(0.5), bad),
                          lambda: spin_phase_covariance_residual(SpinPhaseSpace(1), bad, 0.3),
                          lambda: spin._phase_kernels(3, [(0.0, 1.0), bad]),
                          lambda: truncated_phase_povm(3, [bad])):
                with pytest.raises(ValueError, match="malformed interval"):
                    build()

    def test_first_moment_structure(self):
        b = spin_phase_first_moment(SpinPhaseSpace(0.5)).mat
        assert_allclose(b, [[0, 0], [1, 0]])
        assert np.max(np.abs(b @ b)) == 0.0  # nilpotent for spin 1/2
        assert np.linalg.norm(b, 2) == pytest.approx(1.0)

    def test_first_moment_equals_polar_isometry(self):
        # independent route: polar decomposition of the raising operator
        for s in (0.5, 1.0, 2.5):
            space = SpinPhaseSpace(s)
            m = space.m_values
            raising = np.zeros((space.dim, space.dim), dtype=complex)
            for i in range(space.dim - 1):
                raising[i + 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
            modulus = np.sqrt(raising.conj().T @ raising).real
            b = np.zeros_like(raising)
            for i in range(space.dim - 1):
                b[:, i] = raising[:, i] / modulus[i, i]
            assert np.max(np.abs(spin_phase_first_moment(space).mat - b)) < 1e-12

    def test_first_moment_from_quadrature(self):
        # Riemann sums of e^{i alpha} S(d alpha) converge to the ladder isometry
        space = SpinPhaseSpace(1.0)
        n = 4096
        edges = np.linspace(0.0, 2 * np.pi, n + 1)
        acc = np.zeros((space.dim, space.dim), dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            acc += np.exp(1j * (lo + hi) / 2) * spin_phase_effect(space, (lo, hi)).op.mat
        assert np.max(np.abs(acc - spin_phase_first_moment(space).mat)) < 1e-6

    def test_ladder_commutation(self):
        # s3 B - B s3 = B for the ladder isometry
        for s in (0.5, 1.5):
            space = SpinPhaseSpace(s)
            b = spin_phase_first_moment(space).mat
            s3 = s3_operator(space).mat
            assert np.max(np.abs(s3 @ b - b @ s3 - b)) < 1e-12

    def test_never_projection_inside(self):
        # strict eigenvalue margins at spin 1/2, looser intervals for spin 1
        space = SpinPhaseSpace(0.5)
        for length in np.linspace(0.1, 2 * np.pi - 0.1, 25):
            w = np.linalg.eigvalsh(spin_phase_effect(space, (0.0, length)).op.mat)
            assert w.min() > 1e-6 and w.max() < 1 - 1e-6
        space1 = SpinPhaseSpace(1.0)
        for length in np.linspace(1.0, 2 * np.pi - 1.0, 10):
            w = np.linalg.eigvalsh(spin_phase_effect(space1, (0.0, length)).op.mat)
            assert w.min() > 1e-6 and w.max() < 1 - 1e-6

    def test_prob_complementary_with_s3_but_lower_bounded(self):
        space = SpinPhaseSpace(0.5)
        s3_obs = spin_observable(Z)
        phase = spin_phase_observable(space, bins=8)
        assert are_prob_complementary(s3_obs, phase)
        # every nontrivial interval effect strictly dominates a multiple of
        # any spin eigenstate: its smallest eigenvalue is positive
        for length in (0.5, 2.0, 4.0):
            w = np.linalg.eigvalsh(spin_phase_effect(space, (0.0, length)).op.mat)
            assert w.min() > 0


def phase_kernel(levels, u, v):
    """Per-entry reference for the covariant phase effect on the given ladder
    levels: entry (m, n) is the integral of e^{i(n-m)alpha}/2pi over [u, v],
    and a full circle is the exact identity."""
    levels = np.asarray(levels, dtype=float)
    if v - u >= 2 * np.pi * (1 - 1e-15):
        return np.eye(levels.size, dtype=complex)
    k = levels[None, :] - levels[:, None]  # n - m
    out = np.empty(k.shape, dtype=complex)
    diag = np.abs(k) < 1e-12
    out[diag] = (v - u) / (2 * np.pi)
    kk = k[~diag]
    out[~diag] = (np.exp(1j * kk * v) - np.exp(1j * kk * u)) / (2j * np.pi * kk)
    return out


def reference_kernels(space, intervals):
    """The phase kernels on the spin levels m = -s..s, one call each."""
    return np.array([phase_kernel(space.m_values, u, v) for u, v in intervals])


def reference_covariance_residual(space, interval, alpha):
    """The covariance residual on the spin levels, the shifted interval's
    pieces summed one call at a time."""
    u, v = interval
    phases = np.exp(-1j * alpha * space.m_values)
    rotated = phases[:, None] * phase_kernel(space.m_values, u, v) * phases.conj()[None, :]
    shifted = sum(phase_kernel(space.m_values, a, b)
                  for a, b in spin._shifted_intervals(u, v, alpha))
    return float(np.max(np.abs(rotated - shifted)))


class TestPhaseKernelBuilder:
    SPINS = (0.5, 1.0, 2.5, 7.0, 20.5)

    def test_uniform_partition_equals_the_spin_level_kernels(self):
        for s in self.SPINS:
            space = SpinPhaseSpace(s)
            for bins in (1, 2, 7, 16):
                edges = np.linspace(0.0, 2 * np.pi, bins + 1)
                reference = reference_kernels(space, zip(edges[:-1], edges[1:]))
                observable = spin_phase_observable(space, bins)
                assert np.array_equal(spin._phase_kernels(space.dim, bins), reference)
                assert np.array_equal(observable.mats, reference)
                assert np.array_equal(observable.mats, truncated_phase_povm(space.dim, bins).mats)

    def test_intervals_equal_the_spin_level_kernels(self):
        rng = np.random.default_rng(8)
        for s in self.SPINS:
            space = SpinPhaseSpace(s)
            u = rng.uniform(0, 2 * np.pi, 6)
            intervals = [(a, rng.uniform(a, 2 * np.pi)) for a in u] + [(0.0, 2 * np.pi)]
            reference = reference_kernels(space, intervals)
            assert np.array_equal(spin._phase_kernels(space.dim, intervals), reference)
            for interval, m in zip(intervals, reference):
                assert np.array_equal(spin_phase_effect(space, interval).op.mat, m)

    def test_covariance_residual_equals_the_spin_level_form(self):
        rng = np.random.default_rng(9)
        for s in self.SPINS:
            space = SpinPhaseSpace(s)
            for _ in range(20):
                u = rng.uniform(0, 2 * np.pi)
                interval = (u, rng.uniform(u, 2 * np.pi))
                alpha = rng.uniform(0, 2 * np.pi)
                assert (spin_phase_covariance_residual(space, interval, alpha)
                        == reference_covariance_residual(space, interval, alpha))


class TestSpinPhaseSpace:
    def test_dim(self):
        assert SpinPhaseSpace(0.5).dim == 2
        assert SpinPhaseSpace(2.0).dim == 5

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            SpinPhaseSpace(0.3)

    def test_m_ordering_ascending(self):
        assert_allclose(SpinPhaseSpace(1.0).m_values, [-1.0, 0.0, 1.0])
