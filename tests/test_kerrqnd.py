import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmlab.kerrqnd import (
    KerrCircuit,
    ProbeConfig,
    coherent_dim,
    coherent_state,
    detection_statistics,
    induced_a_mode_observable,
    interference_visibility,
    joint_path_interference_povm,
    joint_povm_compressed,
    kerr_measurement_scheme,
    kerr_phase,
    kerr_unitary,
    marginal_over_bins,
    marginal_over_counts,
    path_confidence,
    three_mode_output,
    three_mode_unitary,
    tradeoff_scan,
    truncated_phase_povm,
)
from povmlab.linalg import Operator, haar_vector, identity, partial_trace, tensor
from povmlab.mzi import (
    BSParams,
    FockSpace,
    MZIParams,
    beam_splitter,
    mzi_output_state,
    phase_shifter,
    single_photon_observable,
)
from povmlab.povm import (
    DiscreteObservable,
    State,
    basis_state,
    induced_observable,
    probability,
    vector_state,
)
from povmlab.spin import _phase_kernels

CANONICAL = MZIParams(BSParams(0.5, math.pi / 2), BSParams(0.5, math.pi / 2), 0.0)


def canonical(delta=0.0):
    return MZIParams(BSParams(0.5, math.pi / 2), BSParams(0.5, math.pi / 2), delta)


def fock(dim, n):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def small_probe(lam=0.5, dim=12, bins=4, amp=0.5):
    return ProbeConfig(coherent_state(amp, dim), lam, truncated_phase_povm(dim, bins))


def mixed_probe(lam=0.5, dim=16, bins=4, amp=1.0):
    """Rank-2 probe 0.6|z><z| + 0.4|-z><-z|, so the compression sums over
    two probe eigenvectors."""
    rho = 0.6 * coherent_state(amp, dim).op.mat + 0.4 * coherent_state(-amp, dim).op.mat
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-14) == 2
    return ProbeConfig(State(Operator(rho)), lam, truncated_phase_povm(dim, bins))


class TestKerrUnitary:
    def test_zero_coupling_is_identity(self):
        u = kerr_unitary(0.0, (2, 2, 4))
        assert np.array_equal(u.mat, np.eye(16))

    def test_diagonal_phase_action(self):
        lam = 0.37
        u = kerr_unitary(lam, (2, 3, 4))
        joint = np.kron(fock(2, 1), np.kron(fock(3, 2), fock(4, 3)))
        assert_allclose(u.mat @ joint, np.exp(-1j * lam * 6) * joint, atol=1e-14)

    def test_commutes_with_arm_number(self):
        u = kerr_unitary(0.8, (2, 3, 4)).mat
        n2 = np.kron(np.eye(2), np.kron(np.diag(np.arange(3.0)), np.eye(4)))
        assert np.max(np.abs(u @ n2 - n2 @ u)) < 1e-12

    def test_qnd_preserves_count_distribution(self):
        # the joint (a, b) photon distribution is untouched for any state
        rng = np.random.default_rng(0)
        dims = (2, 2, 5)
        u = kerr_unitary(1.1, dims).mat
        v = haar_vector(20, rng).vec
        before = np.abs(v.reshape(2, 2, 5)) ** 2
        after = np.abs((u @ v).reshape(2, 2, 5)) ** 2
        assert np.max(np.abs(before.sum(axis=2) - after.sum(axis=2))) < 1e-12


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(0.0, 8)
        assert_allclose(np.diag(st.op.mat).real, np.eye(8)[0], atol=1e-15)

    def test_mean_photon_number(self):
        for amp in (0.5, 1.0, 2.0):
            dim = coherent_dim(amp)
            st = coherent_state(amp, dim)
            mean = np.sum(np.arange(dim) * np.diag(st.op.mat).real)
            assert abs(mean - amp**2) < 1e-7

    def test_kerr_characteristic_function(self):
        amp, lam = 2.0, 0.6
        dim = coherent_dim(amp)
        st = coherent_state(amp, dim)
        got = np.sum(np.diag(st.op.mat) * np.exp(1j * lam * np.arange(dim)))
        expected = np.exp(amp**2 * (np.exp(1j * lam) - 1))
        assert abs(got - expected) < 1e-6
        assert abs(abs(got) - np.exp(-(amp**2) * (1 - np.cos(lam)))) < 1e-6

    def test_leakage_bound_enforced(self):
        with pytest.raises(ValueError):
            coherent_state(3.0, 12)

    def test_coherent_dim_holds_its_stated_range(self):
        for amp in (6.0, -6.0, 6j):
            dim = coherent_dim(amp)
            assert abs(np.trace(coherent_state(abs(amp), dim).op.mat) - 1.0) < 1e-12
        for amp in (6.0 + 1e-9, -7.0, 100.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside"):
                coherent_dim(amp)

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), complex(1.0, float("-inf")),
                                   complex(float("nan"), 0.0)])
    def test_non_finite_amplitude_is_named(self, z):
        with pytest.raises(ValueError, match=r"^coherent amplitude .* is not finite$") as err:
            coherent_state(z, 16)
        assert str(z) in str(err.value)

    @pytest.mark.parametrize("z", [1e200, -2e154, complex(1e308, 1e308)])
    def test_overflowing_moduli_are_named(self, z):
        with pytest.raises(ValueError, match=r"^coherent amplitude .* overflows") as err:
            coherent_state(z, 16)
        assert str(z) in str(err.value)

    def test_phase_convention(self):
        st = coherent_state(1.0j, 20)
        # amplitude arg shows up as e^{i n arg z} on the number amplitudes
        vec_ratio = st.op.mat[1, 0] / st.op.mat[0, 0]
        assert abs(np.angle(vec_ratio) - np.pi / 2) < 1e-12


def dense_three_mode_unitary(circuit):
    """Reference: the circuit as three dense products of the probe-padded
    splitters and phase shifter with the dense Kerr unitary."""
    d = circuit.arm_space.dim
    dc = circuit.probe.probe_state.dim
    ic = identity(dc)
    u1 = tensor(beam_splitter(circuit.mzi.bs1, circuit.arm_space), ic).mat
    u2 = tensor(beam_splitter(circuit.mzi.bs2, circuit.arm_space), ic).mat
    v = tensor(phase_shifter(circuit.mzi.delta, circuit.arm_space), ic).mat
    uk = kerr_unitary(circuit.probe.lam, (d, d, dc)).mat
    return u2.conj().T @ uk @ v @ u1


class TestThreeModeUnitary:
    def test_matches_dense_chain(self):
        rng = np.random.default_rng(20261018)
        for nmax in (1, 2, 3):
            for lam in (0.0, 0.37, 2.5):
                for probe in (small_probe(lam=lam), mixed_probe(lam=lam)):
                    params = MZIParams(
                        BSParams(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)),
                        BSParams(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)),
                        rng.uniform(0, 2 * np.pi),
                    )
                    circuit = KerrCircuit(params, probe, FockSpace(nmax))
                    m = three_mode_unitary(circuit)
                    assert m.dims == circuit.dims
                    assert np.max(np.abs(m.mat - dense_three_mode_unitary(circuit))) < 1e-12
                    # blocks between different probe photon numbers are exactly zero
                    dc = probe.probe_state.dim
                    blocks = m.mat.reshape((nmax + 1) ** 2, dc, (nmax + 1) ** 2, dc)
                    off = ~np.eye(dc, dtype=bool)
                    assert np.all(blocks.transpose(1, 3, 0, 2)[off] == 0)


class TestThreeModeOutput:
    def test_zero_coupling_matches_interferometer(self):
        params = canonical(delta=0.7)
        probe = small_probe(lam=0.0)
        circuit = KerrCircuit(params, probe)
        out = three_mode_output(vector_state(fock(2, 1)), circuit)
        two_mode = mzi_output_state(
            vector_state(fock(2, 1)), vector_state(fock(2, 0)), params, FockSpace(1)
        )
        expected = tensor(two_mode.op, probe.probe_state.op)
        assert np.max(np.abs(out.op.mat - expected.mat)) < 1e-12

    def test_trace_one(self):
        circuit = KerrCircuit(canonical(1.0), small_probe())
        out = three_mode_output(vector_state(fock(2, 1)), circuit)
        assert abs(out.op.trace().real - 1.0) < 1e-10

    def test_kerr_leaves_arm_counts(self):
        # the (a, b) photon-number populations inside the interferometer,
        # between the splitters, agree with and without the Kerr element;
        # three_mode_output is taken at the detectors, so the recombiner is
        # undone first (the detector counts do lose visibility)
        t = vector_state(fock(2, 1))
        split = MZIParams(BSParams(0.3, math.pi / 2), BSParams(0.5, math.pi / 2), 0.4)
        for params in (canonical(0.4), split):
            populations = []
            for lam in (0.9, 0.0):
                circuit = KerrCircuit(params, small_probe(lam=lam))
                dc = circuit.probe.probe_state.dim
                u2 = tensor(beam_splitter(params.bs2, circuit.arm_space), identity(dc))
                out = three_mode_output(t, circuit).op
                inside = Operator(u2.mat @ out.mat @ u2.mat.conj().T, circuit.dims)
                populations.append(np.diag(partial_trace(inside, keep=[0, 1]).mat).real)
            on, off = populations
            # one photon enters arm a: a share eps1 stays in a, the rest is in b
            eps1 = params.bs1.eps
            assert_allclose(off, [0.0, 1.0 - eps1, eps1, 0.0], atol=1e-12)
            assert np.max(np.abs(on - off)) < 1e-12


class TestDetectionStatistics:
    def test_normalized(self):
        circuit = KerrCircuit(canonical(0.9), small_probe())
        w = three_mode_output(vector_state(fock(2, 1)), circuit)
        stats = detection_statistics(w, circuit.probe.readout)
        assert abs(sum(stats.values()) - 1.0) < 1e-9

    def test_zero_coupling_single_photon_counts(self):
        # the count marginal reduces to the plain interference law
        delta = 1.3
        circuit = KerrCircuit(canonical(delta), small_probe(lam=0.0))
        w = three_mode_output(vector_state(fock(2, 1)), circuit)
        stats = detection_statistics(w, circuit.probe.readout)
        p1 = sum(p for (n, _), p in stats.items() if n == 1)
        assert abs(p1 - math.cos(delta / 2) ** 2) < 1e-12

    def test_probe_marginal_equal_weight_mixture(self):
        lam = 0.8
        circuit = KerrCircuit(canonical(0.6), small_probe(lam=lam))
        w = three_mode_output(vector_state(fock(2, 1)), circuit)
        stats = detection_statistics(w, circuit.probe.readout)
        tprime = circuit.probe.probe_state.op.mat
        dim = tprime.shape[0]
        phases = np.exp(-1j * lam * np.arange(dim))
        rotated = (phases[:, None] * tprime) * phases.conj()[None, :]
        for x, e in circuit.probe.readout:
            got = sum(p for (n, b), p in stats.items() if b == x)
            expected = 0.5 * np.trace(tprime @ e.op.mat).real \
                + 0.5 * np.trace(rotated @ e.op.mat).real
            assert abs(got - expected) < 1e-10


class TestInducedAModeObservable:
    def test_closed_form_matches_unitary(self):
        probe = small_probe(lam=0.4, dim=12, bins=4)
        circuit = KerrCircuit(canonical(0.9), probe, FockSpace(3))
        closed = induced_a_mode_observable(circuit, method="closed_form")
        unit = induced_a_mode_observable(circuit, method="unitary")
        for x, e in closed:
            assert np.max(np.abs(e.op.mat - unit.effect_for(x).op.mat)) < 1e-8

    def test_closed_form_matches_unitary_mixed_probe(self):
        circuit = KerrCircuit(canonical(0.9), mixed_probe(lam=0.4), FockSpace(2))
        closed = induced_a_mode_observable(circuit, method="closed_form")
        unit = induced_a_mode_observable(circuit, method="unitary")
        for x, e in closed:
            assert np.max(np.abs(e.op.mat - unit.effect_for(x).op.mat)) < 1e-8

    def test_closed_form_requires_canonical(self):
        params = MZIParams(BSParams(0.6, math.pi / 2), BSParams(0.5, math.pi / 2), 0.0)
        circuit = KerrCircuit(params, small_probe())
        with pytest.raises(ValueError):
            induced_a_mode_observable(circuit, method="closed_form")
        induced_a_mode_observable(circuit, method="unitary")  # still available

    def test_count_marginal_zero_coupling(self):
        delta = 0.8
        circuit = KerrCircuit(canonical(delta), small_probe(lam=0.0))
        obs = induced_a_mode_observable(circuit)
        counts = marginal_over_bins(obs)
        one = vector_state(fock(2, 1))
        assert abs(probability(one, counts.effect_for(1)) - math.cos(delta / 2) ** 2) < 1e-12
        assert abs(probability(one, counts.effect_for(0)) - math.sin(delta / 2) ** 2) < 1e-12

    def test_number_probe_carries_no_path_information(self):
        dim = 8
        probe = ProbeConfig(basis_state(3, dim), 0.7, truncated_phase_povm(dim, 4))
        circuit = KerrCircuit(canonical(0.5), probe)
        obs = induced_a_mode_observable(circuit)
        povm2 = joint_path_interference_povm(0.5, math.pi / 2, probe)
        path = marginal_over_counts(povm2)
        for _, e in path:
            m = e.op.mat
            assert abs(m[0, 0] - m[1, 1]) < 1e-14
        assert path_confidence(povm2) == 0.5
        # readout completeness collapses the bins to the count marginal
        full_bin = sum(e.op.mat for (n, _), e in obs if n == 1)
        counts = marginal_over_bins(obs)
        assert np.max(np.abs(full_bin - counts.effect_for(1).op.mat)) < 1e-12

    def test_matches_measurement_scheme(self):
        probe = small_probe(lam=0.6, dim=8, bins=4, amp=0.3)
        circuit = KerrCircuit(canonical(1.1), probe)
        direct = induced_a_mode_observable(circuit, method="unitary")
        via_scheme = induced_observable(kerr_measurement_scheme(circuit))
        for x, e in direct:
            assert np.max(np.abs(e.op.mat - via_scheme.effect_for(x).op.mat)) < 1e-9

    def test_matches_measurement_scheme_mixed_probe(self):
        params = MZIParams(BSParams(0.3, math.pi / 2), BSParams(0.5, math.pi / 2), 1.1)
        circuit = KerrCircuit(params, mixed_probe(lam=0.6, amp=0.8))
        direct = induced_a_mode_observable(circuit, method="unitary")
        via_scheme = induced_observable(kerr_measurement_scheme(circuit))
        for x, e in direct:
            assert np.max(np.abs(e.op.mat - via_scheme.effect_for(x).op.mat)) < 1e-9


class TestJointPovm:
    def test_closed_form_matches_compression(self):
        for eps2 in (0.5, 0.75):
            for lam in (0.1, 1.0):
                probe = small_probe(lam=lam, dim=16, bins=4, amp=1.0)
                closed = joint_path_interference_povm(eps2, 0.77, probe)
                oracle = joint_povm_compressed(eps2, 0.77, probe)
                for x, e in closed:
                    assert np.max(np.abs(e.op.mat - oracle.effect_for(x).op.mat)) < 1e-8

    def test_closed_form_matches_compression_mixed_probe(self):
        for eps2 in (0.5, 0.75):
            probe = mixed_probe(lam=1.0)
            closed = joint_path_interference_povm(eps2, 0.77, probe)
            oracle = joint_povm_compressed(eps2, 0.77, probe)
            for x, e in closed:
                assert np.max(np.abs(e.op.mat - oracle.effect_for(x).op.mat)) < 1e-9

    def test_compression_matches_dense_measurement_part(self):
        # reference: the reversed recombiner times the dense Kerr unitary on
        # the input columns |10>|k> and |01>|k>, traced over the probe densely
        for eps2 in (0.0, 0.3, 1.0):
            for probe in (small_probe(lam=0.9, dim=16, amp=1.0), mixed_probe(lam=0.9)):
                dc = probe.probe_state.dim
                u2 = tensor(beam_splitter(BSParams(eps2, 0.77), FockSpace(1)), identity(dc))
                m = u2.mat.conj().T @ kerr_unitary(probe.lam, (2, 2, dc)).mat
                u = m.reshape(2, 2, dc, 4, dc)[:, :, :, [2, 1], :]
                expected = np.einsum("nbcik,xcd,nbdjl,lk->nxij", u.conj(), probe.readout.mats,
                                     u, probe.probe_state.op.mat)
                got = joint_povm_compressed(eps2, 0.77, probe)
                labels = [(n, x) for n in range(2) for x in probe.readout.outcomes]
                assert got.outcomes == tuple(labels)
                assert np.max(np.abs(got.mats.reshape(expected.shape) - expected)) < 1e-12

    def test_matches_per_bin_traces(self):
        # reference: the four probe traces as separate matrix products per bin
        probe = mixed_probe(lam=0.8, bins=6)
        eps2, theta2 = 0.3, 0.7
        tp = probe.probe_state.op.mat
        minus = np.exp(-1j * probe.lam * np.arange(tp.shape[0]))
        cross = math.sqrt(eps2 * (1 - eps2))
        povm = joint_path_interference_povm(eps2, theta2, probe)
        for x, e in probe.readout:
            m = e.op.mat
            t0 = np.trace(tp @ m).real
            t1 = np.trace(tp @ (minus.conj()[:, None] * m * minus[None, :])).real
            t0m = np.trace(tp @ (m * minus[None, :]))
            tp0 = np.trace(tp @ (minus.conj()[:, None] * m))
            for n, sign, diag in ((1, 1, (eps2, 1 - eps2)), (0, -1, (1 - eps2, eps2))):
                expected = np.array([
                    [diag[0] * t0, sign * cross * np.exp(1j * theta2) * t0m],
                    [sign * cross * np.exp(-1j * theta2) * tp0, diag[1] * t1],
                ])
                assert np.max(np.abs(povm.effect_for((n, x)).op.mat - expected)) <= 1e-14

    def test_completeness(self):
        povm = joint_path_interference_povm(0.7, 0.2, small_probe())
        total = sum(e.op.mat for _, e in povm)
        assert np.max(np.abs(total - np.eye(2))) < 1e-9

    def test_zero_coupling_collapses_to_sharp(self):
        probe = small_probe(lam=0.0)
        povm = joint_path_interference_povm(0.31, 0.9, probe)
        sharp = single_photon_observable(0.31, 0.9)
        m = marginal_over_bins(povm)
        assert np.max(np.abs(m.effect_for(1).op.mat - sharp.effect_for((1, 0)).op.mat)) < 1e-10
        assert np.max(np.abs(m.effect_for(0).op.mat - sharp.effect_for((0, 1)).op.mat)) < 1e-10

    def test_interference_marginal_off_diagonal(self):
        amp, lam, eps2 = 1.5, 0.7, 0.6
        dim = coherent_dim(amp)
        probe = ProbeConfig(coherent_state(amp, dim), lam, truncated_phase_povm(dim, 8))
        povm = joint_path_interference_povm(eps2, 0.4, probe)
        m1 = marginal_over_bins(povm).effect_for(1).op.mat
        expected = math.sqrt(eps2 * (1 - eps2)) * np.exp(-(amp**2) * (1 - math.cos(lam)))
        assert abs(abs(m1[0, 1]) - expected) < 1e-6

    def test_path_marginal_diagonal_smearing(self):
        # the count-summed marginal decomposes as a stochastic smearing of
        # the sharp path alternatives
        probe = small_probe(lam=0.8)
        povm = joint_path_interference_povm(0.62, 1.0, probe)
        path = marginal_over_counts(povm)
        col_u, col_r = [], []
        for _, e in path:
            m = e.op.mat
            assert abs(m[0, 1]) < 1e-14
            col_u.append(m[0, 0].real)
            col_r.append(m[1, 1].real)
        assert min(col_u) >= -1e-12 and min(col_r) >= -1e-12
        assert abs(sum(col_u) - 1.0) < 1e-9
        assert abs(sum(col_r) - 1.0) < 1e-9

    def test_interference_marginal_smearing_at_half(self):
        # at a semitransparent recombiner the count marginal is a convex
        # combination of the two sharp interference projections
        probe = small_probe(lam=0.6, amp=1.2, dim=22)
        povm = joint_path_interference_povm(0.5, 0.3, probe)
        m1 = marginal_over_bins(povm).effect_for(1).op.mat
        off = m1[0, 1]
        phase = np.angle(off)
        w = np.array([1.0, np.exp(-1j * phase)]) / np.sqrt(2)
        p_plus = np.outer(w, w.conj())
        nu = 0.5 + abs(off)
        recomposed = nu * p_plus + (1 - nu) * (np.eye(2) - p_plus)
        assert np.max(np.abs(recomposed - m1)) < 1e-12
        assert 0.5 <= nu <= 1.0


class TestTradeoff:
    def test_vacuum_probe_no_information(self):
        rows = tradeoff_scan([0.0], 0.9, [0.5])
        assert rows[0]["path_confidence"] == 0.5
        assert abs(rows[0]["visibility"] - 1.0) < 1e-12

    def test_number_probe_no_information(self):
        rows = tradeoff_scan([2.0], 0.9, [0.5], probe_kind="number")
        assert rows[0]["path_confidence"] == 0.5

    def test_large_amplitude_kills_visibility(self):
        # V = 2 sqrt(eps2 (1 - eps2)) exp(-|z|^2 (1 - cos lam)) exactly: 0.01597 here
        amp, lam, eps2 = 3.0, 1.0, 0.5
        rows = tradeoff_scan([amp], lam, [eps2])
        expected = 2 * math.sqrt(eps2 * (1 - eps2)) * math.exp(-(amp**2) * (1 - math.cos(lam)))
        assert abs(rows[0]["visibility"] - expected) <= 1e-12

    def test_monotone_tradeoff(self):
        rows = tradeoff_scan([0.0, 0.5, 1.0, 2.0], 0.8, [0.5])
        vis = [r["visibility"] for r in rows]
        conf = [r["path_confidence"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(vis, vis[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(conf, conf[1:]))


    def test_tradeoff_does_not_depend_on_the_recombiner_phase(self):
        # the scan fixes theta2 = pi/2: the visibility reads the modulus of an
        # off-diagonal entry and the path confidence reads diagonals
        lam, amps, eps2_values = 0.9, (0.5, 2.0), (0.2, 0.5)
        rows = tradeoff_scan(amps, lam, eps2_values)
        for amp in amps:
            dim = coherent_dim(amp)
            probe = ProbeConfig(coherent_state(amp, dim), lam, truncated_phase_povm(dim, 8))
            for eps2 in eps2_values:
                row, = (r for r in rows if r["amp"] == amp and r["eps2"] == eps2)
                for theta2 in (0.0, 1.0, math.pi / 2, 4.0):
                    povm = joint_path_interference_povm(eps2, theta2, probe)
                    assert path_confidence(povm) == row["path_confidence"]
                    assert abs(interference_visibility(povm) - row["visibility"]) <= 1e-15


def helstrom_readout(probe_state, lam):
    """Two-outcome readout that best tells rho0 = T' from
    rho1 = e^{-i lam N} T' e^{i lam N}: the projector onto the positive part
    of rho0 - rho1, and its complement."""
    rho0 = probe_state.op.mat
    rho1 = kerr_phase(probe_state.dim, lam) * rho0
    w, v = np.linalg.eigh(rho0 - rho1)
    cols = v[:, w > 0]
    proj = cols @ cols.conj().T
    return DiscreteObservable([0, 1], [proj, np.eye(probe_state.dim) - proj])


def englert_sum(povm):
    """D^2 + V^2 with the distinguishability D = 2 path_confidence - 1."""
    d = 2 * path_confidence(povm) - 1
    return d**2 + interference_visibility(povm) ** 2


class TestEnglertDuality:
    # Englert, PRL 77, 2154 (1996): D^2 + V^2 <= 1, with equality for a pure
    # probe read out by the Helstrom measurement
    LAMBDAS = (0.3, 0.8, 1.7, 3.0)

    def test_tradeoff_scan_obeys_the_bound(self):
        for lam in self.LAMBDAS:
            for kind in ("coherent", "number"):
                rows = tradeoff_scan([0.0, 0.3, 1.0, 2.0, 3.0], lam, [0.2, 0.5, 0.8],
                                     probe_kind=kind)
                for r in rows:
                    d = 2 * r["path_confidence"] - 1
                    assert d**2 + r["visibility"] ** 2 <= 1 + 1e-12, r

    def test_helstrom_readout_saturates_for_pure_probes(self):
        for amp in (0.3, 1.0, 2.0, 3.0):
            dim = coherent_dim(amp)
            for probe_state in (coherent_state(amp, dim), basis_state(2, dim)):
                for lam in self.LAMBDAS:
                    probe = ProbeConfig(probe_state, lam, helstrom_readout(probe_state, lam))
                    povm = joint_path_interference_povm(0.5, math.pi / 2, probe)
                    assert abs(englert_sum(povm) - 1) <= 1e-12

    def test_helstrom_readout_of_a_mixed_probe_stays_below_one(self):
        for lam in self.LAMBDAS:
            state = mixed_probe().probe_state
            probe = ProbeConfig(state, lam, helstrom_readout(state, lam))
            povm = joint_path_interference_povm(0.5, math.pi / 2, probe)
            assert englert_sum(povm) <= 1 + 1e-12


class TestTruncatedPhasePovm:
    def test_full_circle_is_identity(self):
        povm = truncated_phase_povm(6, [(0.0, 2 * np.pi)])
        assert np.array_equal(povm.effects[0].op.mat, np.eye(6))
        # intervals beyond the circle or reversed are rejected at entry
        for interval in ((0.0, 7.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="malformed interval"):
                truncated_phase_povm(4, [interval])

    def test_uniform_in_number_states(self):
        povm = truncated_phase_povm(10, 8)
        for k in range(10):
            for _, e in povm:
                assert abs(e.op.mat[k, k].real - 1 / 8) < 1e-12

    def test_shift_covariance_residual_reported(self):
        # conjugating by number phases translates the kernel bins exactly;
        # report the residuals over increasing truncation (all at machine
        # precision, no trend to assert)
        residuals = []
        for dim in (4, 8, 16, 32):
            lam = 0.37
            levels = np.arange(dim)
            m, shifted = _phase_kernels(dim, [(0.5, 1.5), (0.5 - lam, 1.5 - lam)])
            phases = np.exp(1j * lam * levels)
            rotated = phases[:, None] * m * phases.conj()[None, :]
            residuals.append(float(np.max(np.abs(rotated - shifted))))
        print("shift-covariance residuals by dim:", residuals)
        assert all(r < 1e-12 for r in residuals)


class TestExclusionLimits:
    def test_unit_characteristic_forces_number_state(self):
        # |tr[T' e^{i lam N}]| reaches one only when the number distribution
        # concentrates on a single level (for lam away from resonances)
        lam = 0.5
        n = np.arange(8)
        for k in range(4):
            p = np.eye(8)[k]
            assert abs(np.sum(p * np.exp(1j * lam * n))) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(8))
            if p.max() < 0.9:
                assert abs(np.sum(p * np.exp(1j * lam * n))) < 1.0 - 1e-3
