import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from povmlab import kerrqnd, linalg, povm, spin
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
    marginal_over_bins,
    marginal_over_counts,
    path_confidence,
    three_mode_output,
    three_mode_unitary,
    tradeoff_scan,
    truncated_phase_povm,
)
from povmlab.linalg import ATOL_POSITIVE, Operator, haar_vector, identity, partial_trace, tensor
from povmlab.mzi import (
    BSParams,
    FockSpace,
    MZIParams,
    _interferometer_blocks,
    beam_splitter,
    mzi_output_state,
    number_observable,
    phase_shifter,
    single_photon_observable,
)
from povmlab.povm import (
    DiscreteObservable,
    State,
    basis_state,
    induced_observable,
    probability,
    product_observable,
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


def kerr_unitary(lam, dims):
    """Dense reference of the cross-Kerr unitary: the diagonal phase
    e^{-i lam n_b n_c}, identity on the first mode."""
    da, db, dc = dims
    phases = np.exp(-1j * lam * np.outer(np.arange(db), np.arange(dc))).reshape(-1)
    return Operator(np.diag(np.kron(np.ones(da), phases)), dims)


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

    def test_negative_amplitude_carries_the_exact_sign(self):
        # |-a> = e^{i pi N}|a>: the entries are those of |a> times (-1)^(m+n)
        for amp in (0.5, 2.0, 6.0):
            dim = coherent_dim(amp)
            sign = (-1.0) ** np.add.outer(np.arange(dim), np.arange(dim))
            minus = coherent_state(-amp, dim).op.mat
            assert np.all(minus.imag == 0)
            assert np.array_equal(minus, sign * coherent_state(amp, dim).op.mat)

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

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_kerr_coupling_is_named(self, lam):
        probe = small_probe()
        with pytest.raises(ValueError, match=f"^Kerr coupling {lam} is not finite$"):
            ProbeConfig(probe.probe_state, lam, probe.readout)

    @pytest.mark.parametrize("z", [1e200, -2e154, complex(1e308, 1e308)])
    def test_overflowing_moduli_are_named(self, z):
        with pytest.raises(ValueError, match=r"^coherent amplitude .* overflows") as err:
            coherent_state(z, 16)
        assert str(z) in str(err.value)

    @pytest.mark.parametrize("z", [0.0, 0.1])
    @pytest.mark.parametrize("dim", [0, -1, 2.5, 16.0, True])
    def test_bad_dim_is_named(self, z, dim):
        with pytest.raises(ValueError, match=rf"^coherent dimension {re.escape(repr(dim))} is not "
                                             "a positive integer$"):
            coherent_state(z, dim)

    def test_records_the_vector_a_scan_reads(self):
        # no second normalization: the record is the builder's vector
        for amp in (0.0, 0.5, -2.0, 2.5j, 6.0):
            dim = coherent_dim(amp)
            u = kerrqnd._coherent_vector(amp, dim)
            st = coherent_state(amp, dim)
            q, chi, _ = st._spectrum
            assert q.tolist() == [1.0] and chi[:, 0].tobytes() == u.tobytes()
            assert st.op.mat.tobytes() == np.outer(u, u.conj()).tobytes()

    def test_log_factorial_table_is_the_per_call_expression(self):
        table = kerrqnd._LOG_FACTORIALS
        assert len(table) == coherent_dim(6.0) == 96 and not table.flags.writeable
        for dim in range(1, 97):
            per_call = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
            assert table[:dim].tobytes() == per_call.tobytes(), dim

    def test_vectors_do_not_depend_on_the_table(self, monkeypatch):
        def vectors():
            return {(amp, dim): list(map(float.hex, coherent_state(amp, dim)._spectrum[1][:, 0]
                                         .view(float).tolist()))
                    for amp in (0.0, 0.5, -2.0, 2.5j, 1 + 1j, 3.3, -6.0)
                    for dim in (coherent_dim(amp), 95, 96, 97, 130)}

        tabled = vectors()
        # an empty table: every dim takes the per-call expression
        monkeypatch.setattr(kerrqnd, "_LOG_FACTORIALS", kerrqnd._LOG_FACTORIALS[:0])
        assert vectors() == tabled

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
    def test_clamped_as_probability_clamps(self):
        # a state within the tolerances whose counts stray past both bounds
        w = State(Operator(np.diag([1 + 5e-11, -5e-11, 0, 0]), (2, 1, 2)))
        stats = detection_statistics(w, number_observable(2))
        assert stats == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}

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


def closed_form_loop(circuit):
    """Reference for the a-mode closed form: the (n x bin, N) diagonals, one
    einsum over the probe levels per pair n <= N."""
    da = circuit.dims[0]
    lam, readout = circuit.probe.lam, circuit.probe.readout
    tprime = circuit.probe.probe_state.op.mat
    k = np.arange(len(tprime))
    theta = (circuit.mzi.delta + lam * k) / 2.0
    diagonals = np.zeros((da, len(readout), da))
    for n in range(da):
        for total in range(n, da):
            d_diag = (np.exp(-1j * total * lam * k / 2) * np.cos(theta) ** n
                      * np.sin(theta) ** (total - n))
            weighted = tprime * d_diag[:, None] * d_diag.conj()[None, :]
            traces = np.einsum("ij,xji->x", weighted, readout.mats).real
            diagonals[n, :, total] = math.comb(total, n) * traces
    return diagonals.reshape(-1, da)


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

    def test_closed_form_equals_the_per_pair_loop(self):
        rng = np.random.default_rng(23)
        for amp in (0.5, 1.0, 2.0, 3.0, 6.0):
            for nmax in (1, 2, 3):
                for bins in (1, 4, 8, 13):
                    dim = coherent_dim(amp)
                    probe = ProbeConfig(coherent_state(amp * np.exp(1j * rng.uniform(0, 7)), dim),
                                        rng.uniform(0.2, 2.5), truncated_phase_povm(dim, bins))
                    circuit = KerrCircuit(canonical(rng.uniform(0, 7)), probe, FockSpace(nmax))
                    got = induced_a_mode_observable(circuit).mats
                    levels = np.arange(nmax + 1)
                    # summation order only: the pair traces sum dim^2 terms
                    assert np.max(np.abs(got[:, levels, levels] - closed_form_loop(circuit))) \
                        <= dim * np.finfo(float).eps

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


def assembled_three_mode_unitary(circuit):
    """Reference: the dense three-mode unitary as it was assembled before
    the Kerr paths kept its blocks, each probe level's interferometer written
    into a zero (d^2, dc, d^2, dc) array."""
    d, dc = circuit.arm_space.dim, circuit.probe.probe_state.dim
    levels = np.arange(dc)
    kerr = np.exp(-1j * circuit.probe.lam * np.outer(levels, np.arange(d * d) % d))
    m = np.zeros((d * d, dc, d * d, dc), dtype=complex)
    m[:, levels, :, levels] = _interferometer_blocks(circuit.mzi, circuit.arm_space, kerr)
    return m.reshape(d * d * dc, d * d * dc)


def dense_compressed_effects(u4, probe, pointer_effects):
    """Reference: the dense compression kernel on the full coupling reshaped
    to (d_out, d_probe, d_in, d_probe), F[a, x] = sum_l K_la† Z_x K_la with
    K from one einsum over the probe's recorded eigenvectors."""
    qs, chis, _ = probe._spectrum
    keep = qs > 1e-14
    k = np.einsum("aibc,cl->laib", u4, chis[:, keep] * np.sqrt(qs[keep]), optimize=True)
    f = np.einsum("laib,xij,lajc->axbc", k.conj(), pointer_effects, k,
                  optimize=["einsum_path", (1, 2), (0, 1)])
    return (f + f.conj().swapaxes(-1, -2)) / 2


def dense_circuit_effects(circuit, inputs):
    """Reference for the (n, bin) effects on the arm inputs ``inputs``: the
    dense three-mode unitary, compressed over the probe with I_b x E(bin)
    read per (n, b) and summed over b."""
    da, db, dc = circuit.dims
    u4 = three_mode_unitary(circuit).mat.reshape(da * db, dc, da * db, dc)[:, :, inputs, :]
    f = dense_compressed_effects(u4, circuit.probe.probe_state, circuit.probe.readout.mats)
    return f.reshape(da, db, *f.shape[1:]).sum(axis=1).reshape(-1, len(inputs), len(inputs))


def dense_kerr_scheme_effects(circuit):
    """Reference for the Kerr scheme's induced effects, outcomes (n, bin) in
    order: the dense three-mode unitary compressed over the probe |0>_b x T'
    with the pointer I_b x E(bin). The register starts in |0>, so the effect
    of count n is the compression at output index a = n."""
    da, db, dc = circuit.dims
    u4 = three_mode_unitary(circuit).mat.reshape(da, db * dc, da, db * dc)
    trivial_b = DiscreteObservable([0], np.eye(db)[None])
    pointer = product_observable(trivial_b, circuit.probe.readout)
    probe = State(tensor(basis_state(0, db).op, circuit.probe.probe_state.op))
    return dense_compressed_effects(u4, probe, pointer.mats).reshape(-1, da, da)


def random_params(rng):
    return MZIParams(BSParams(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)),
                     BSParams(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)),
                     rng.uniform(0, 2 * np.pi))


def level_block_probe(kind, rng):
    """A pure or rank-2 mixed probe with complex amplitudes, so a conjugated
    eigenvector changes the result."""
    lam, amp = rng.uniform(0.2, 2.5), 0.8 * np.exp(1j * rng.uniform(0.3, 1.2))
    return small_probe(lam=lam, amp=amp) if kind == "pure" else mixed_probe(lam=lam, amp=amp)


LEVEL_BLOCK_CIRCUITS = [(probe, splitters, nmax) for probe in ("pure", "mixed")
                        for splitters in ("canonical", "random") for nmax in (1, 2, 3)]


def level_block_circuit(probe, splitters, nmax):
    rng = np.random.default_rng([nmax, probe == "mixed", splitters == "random"])
    config = level_block_probe(probe, rng)
    params = (canonical(rng.uniform(0, 2 * np.pi)) if splitters == "canonical"
              else random_params(rng))
    return KerrCircuit(params, config, FockSpace(nmax))


class TestLevelBlockCircuit:
    """The Kerr oracles compress the circuit's probe-level blocks; the dense
    three-mode unitary through the dense kernel is the reference."""

    @pytest.mark.parametrize("spec", LEVEL_BLOCK_CIRCUITS, ids=lambda s: "-".join(map(str, s)))
    def test_a_mode_observable_matches_the_dense_path(self, spec):
        circuit = level_block_circuit(*spec)
        da, db, _ = circuit.dims
        got = induced_a_mode_observable(circuit, method="unitary").mats
        ref = dense_circuit_effects(circuit, [a * db for a in range(da)])
        assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("spec", LEVEL_BLOCK_CIRCUITS, ids=lambda s: "-".join(map(str, s)))
    def test_kerr_scheme_matches_the_dense_path(self, spec):
        circuit = level_block_circuit(*spec)
        obs = induced_observable(kerr_measurement_scheme(circuit))
        bins = range(len(circuit.probe.readout))
        assert obs.outcomes == tuple((n, x) for n in range(circuit.dims[0]) for x in bins)
        assert np.max(np.abs(obs.mats - dense_kerr_scheme_effects(circuit))) <= 1e-14

    @pytest.mark.parametrize("probe", ["pure", "mixed"])
    def test_joint_povm_matches_the_dense_path(self, probe):
        rng = np.random.default_rng(probe == "mixed")
        for _ in range(4):
            eps2, theta2 = rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)
            config = level_block_probe(probe, rng)
            got = joint_povm_compressed(eps2, theta2, config).mats
            circuit = KerrCircuit(MZIParams(BSParams(1.0), BSParams(eps2, theta2)), config)
            assert np.max(np.abs(got - dense_circuit_effects(circuit, [2, 1]))) <= 1e-14

    @pytest.mark.parametrize("spec", LEVEL_BLOCK_CIRCUITS, ids=lambda s: "-".join(map(str, s)))
    def test_dense_unitary_and_coupling_are_bit_identical(self, spec):
        circuit = level_block_circuit(*spec)
        old = assembled_three_mode_unitary(circuit)
        assert np.array_equal(three_mode_unitary(circuit).mat, old)
        da = circuit.dims[0]
        if da <= 3:  # the coupling as np.kron and the register-shift permutation built it
            perm = povm._controlled_shift(np.arange(da), len(old) // da, da)
            scheme = kerr_measurement_scheme(circuit)
            assert np.array_equal(scheme.coupling.mat, np.kron(old, np.eye(da))[perm])

    @pytest.mark.parametrize("scale,rejected", [(1 + 1e-9, True), (1 + 3e-11, False)])
    def test_one_perturbed_block_is_rejected(self, monkeypatch, scale, rejected):
        circuit = level_block_circuit("pure", "random", 2)
        blocks = kerrqnd._circuit_blocks

        def perturbed(c):
            b = blocks(c)
            b[5] *= scale
            return b

        monkeypatch.setattr(kerrqnd, "_circuit_blocks", perturbed)
        u = three_mode_unitary(circuit).mat  # the dense residual decides as the blocks do
        assert (np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) > 1e-10) == rejected
        if rejected:
            with pytest.raises(ValueError, match="^coupling is not unitary within 1e-10$"):
                kerr_measurement_scheme(circuit)
        else:
            kerr_measurement_scheme(circuit)

    def test_no_oracle_forms_the_dense_unitary(self, monkeypatch):
        def dense(circuit):
            raise AssertionError("the dense three-mode unitary was formed")

        monkeypatch.setattr(kerrqnd, "three_mode_unitary", dense)
        for spec in (("pure", "canonical", 2), ("mixed", "random", 1)):
            circuit = level_block_circuit(*spec)
            induced_a_mode_observable(circuit, method="unitary")
            induced_observable(kerr_measurement_scheme(circuit))
            joint_povm_compressed(0.4, 1.3, circuit.probe)


def exact_traces(probe):
    """The probe traces t0, t1, t0m, tp0 of the joint POVM from their
    definitions, each sum_ij W[i, j] E(X)[j, i] summed exactly (math.fsum)
    over the rounded products."""
    lam, tp = probe.lam, probe.probe_state.op.mat
    u = np.exp(-1j * lam * np.arange(probe.probe_state.dim))  # e^{-i lam N}
    weights = [
        tp,                                   # tr[T' E]
        tp * kerr_phase(len(tp), lam),        # tr[T' U+ E U], (U+ E U)_ji = e^{-i lam (i - j)} E_ji
        tp * u[:, None],                      # tr[T' E U]
        tp * u.conj()[None, :],               # tr[T' U+ E]
    ]
    return np.array([[complex(math.fsum((w * e.T).real.ravel()), math.fsum((w * e.T).imag.ravel()))
                      for e in probe.readout.mats] for w in weights])


class TestJointPovm:
    @pytest.mark.parametrize("amp", [0.5, 2.0, 3.0, 4.0])  # probe dimensions 16, 28, 42, 58
    @pytest.mark.parametrize("kind", ["coherent", "number"])
    def test_probe_traces_are_exact_sums_within_1e_15(self, kind, amp):
        # np.einsum("wij,xji->wx") reads these up to 3.9e-15 from the exact
        # sums at dimension 58; the Gram blocks of the bilinear form read
        # them within 7.9e-16 over 240 such probes
        rng = np.random.default_rng([int(4 * amp), kind == "number"])
        dim = coherent_dim(amp)
        for _ in range(3):
            state = (coherent_state(amp * np.exp(1j * rng.uniform(0, 2 * math.pi)), dim)
                     if kind == "coherent" else basis_state(round(amp**2), dim))
            probe = ProbeConfig(state, rng.uniform(0.2, 2.5), truncated_phase_povm(dim, 8))
            traces = kerrqnd._probe_traces(probe)
            assert traces.shape == (4, 8)
            assert np.max(np.abs(traces - exact_traces(probe))) <= 1e-15

    @pytest.mark.parametrize("theta2", [float("nan"), float("inf")])
    def test_non_finite_phase_is_named(self, theta2):
        with pytest.raises(ValueError, match=f"^splitter phase {theta2} is not finite$"):
            joint_path_interference_povm(0.5, theta2, small_probe())

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


def confidence_bin_by_bin(povm):
    """path_confidence from the path marginal's effects, the bins' gaps added
    one after another."""
    tv = 0.0
    for _, e in marginal_over_counts(povm):
        m = e.op.mat
        tv += abs(m[0, 0].real - m[1, 1].real)
    return 0.5 + 0.25 * tv


class TestTradeoff:
    def test_probe_kind_is_checked_before_the_scan(self):
        with pytest.raises(ValueError, match="^unknown probe kind 'bogus'$"):
            tradeoff_scan([], 0.5, [0.5], probe_kind="bogus")

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
        # off-diagonal entry and the path confidence reads diagonals. At pi/2
        # the scan's rows are those of the joint POVM bit for bit; at another
        # theta2, e^{i theta2} rounds differently
        lam, amps, eps2_values = 0.9, (0.5, 2.0), (0.0, 1e-9, 0.2, 0.5, 1.0)
        for kind in ("coherent", "number"):
            rows = tradeoff_scan(amps, lam, eps2_values, probe_kind=kind)
            for amp in amps:
                dim = coherent_dim(amp)
                state = (coherent_state(amp, dim) if kind == "coherent"
                         else basis_state(round(amp**2), dim))
                probe = ProbeConfig(state, lam, truncated_phase_povm(dim, 8))
                for eps2 in eps2_values:
                    row, = (r for r in rows if r["amp"] == amp and r["eps2"] == eps2)
                    for theta2 in (0.0, 1.0, math.pi / 2, 4.0):
                        povm = joint_path_interference_povm(eps2, theta2, probe)
                        assert path_confidence(povm) == row["path_confidence"]
                        assert path_confidence(povm) == confidence_bin_by_bin(povm)
                        if theta2 == math.pi / 2:
                            assert interference_visibility(povm) == row["visibility"]
                        else:
                            assert abs(interference_visibility(povm) - row["visibility"]) <= 1e-15

    def test_rows_add_the_bins_one_after_another(self):
        # a pairwise sum of the eight gaps differs in the last bit at some of
        # these points
        for lam in (0.2, 0.5, 0.9, 1.7):
            rows = tradeoff_scan((0.5, 1.0, 2.0), lam, [0.5])
            for row in rows:
                dim = coherent_dim(row["amp"])
                probe = ProbeConfig(coherent_state(row["amp"], dim), lam,
                                    truncated_phase_povm(dim, 8))
                povm = joint_path_interference_povm(0.5, math.pi / 2, probe)
                assert row["path_confidence"] == confidence_bin_by_bin(povm), row

    def test_rows_hold_plain_floats(self):
        for kind in ("coherent", "number"):
            for row in tradeoff_scan([0.0, -1.0, 2], 0.5, [0.3, 1], probe_kind=kind):
                assert all(type(v) is float for v in row.values()), row
        povm = joint_path_interference_povm(0.3, 1.0, small_probe())
        assert type(path_confidence(povm)) is float
        assert type(interference_visibility(povm)) is float

    @pytest.mark.parametrize("kind", ["coherent", "number"])
    def test_rows_at_minus_a_are_those_at_a(self, kind):
        lam, amps, eps2_values = 0.5, [0.3, 0.5, 1.0, 2.0, 2.7, 6.0], [0.0, 0.3, 0.5, 1.0]
        rows = tradeoff_scan(amps + [-a for a in amps], lam, eps2_values, probe_kind=kind)
        half = len(rows) // 2
        for r, s in zip(rows[:half], rows[half:]):
            assert s["amp"] == -r["amp"]
            assert (s["visibility"], s["path_confidence"]) == (r["visibility"],
                                                               r["path_confidence"])

    def test_row_at_minus_a_is_that_of_the_probe_at_minus_a(self):
        # the scan builds the probe at |a|; the one at -a reads its bins in
        # another order, so it agrees up to rounding
        lam, eps2 = 0.5, 0.3
        for amp in (-0.5, -2.0, -6.0):
            row, = tradeoff_scan([amp], lam, [eps2])
            dim = coherent_dim(amp)
            probe = ProbeConfig(coherent_state(amp, dim), lam, truncated_phase_povm(dim, 8))
            povm = joint_path_interference_povm(eps2, math.pi / 2, probe)
            assert abs(path_confidence(povm) - row["path_confidence"]) <= 1e-14
            assert abs(interference_visibility(povm) - row["visibility"]) <= 1e-14

    def test_empty_inputs_give_no_rows(self):
        assert tradeoff_scan([], 0.5, [0.5]) == []
        assert tradeoff_scan([1.0], 0.5, []) == []
        assert tradeoff_scan([], 0.5, []) == []
        with pytest.raises(ValueError, match="^coherent amplitude 7.0 outside"):
            tradeoff_scan([7.0], 0.5, [])

    @pytest.mark.parametrize("lam, eps2_values, message", [
        (math.nan, [0.5], "^Kerr coupling nan is not finite$"),
        (math.inf, [], "^Kerr coupling inf is not finite$"),
        (0.5, [0.5, 1.5], r"^transparency 1.5 outside \[0, 1\]$"),
        (0.5, [-0.1], r"^transparency -0.1 outside \[0, 1\]$"),
        (0.5, [math.nan], r"^transparency nan outside \[0, 1\]$"),
    ])
    def test_bad_input_is_rejected_before_any_probe(self, lam, eps2_values, message,
                                                    monkeypatch):
        def built(*args):
            raise AssertionError("a probe was built")
        monkeypatch.setattr(kerrqnd, "truncated_phase_povm", built)
        monkeypatch.setattr(spin, "_phase_symbols", built)
        for amps in ([], [1.0, 2.0]):
            with pytest.raises(ValueError, match=message):
                tradeoff_scan(amps, lam, eps2_values)

    @pytest.mark.parametrize("widest", [coherent_dim(4.0), coherent_dim(6.0)])
    def test_readouts_are_sections_of_the_widest_readout(self, widest, monkeypatch,
                                                         fresh_phase_memo):
        # a scan builds the readout and e^{-i lam N} once, at its widest dim,
        # and reads each amplitude's from their leading sections: the same
        # floats as those built at that dim, bit for bit, and the residuals
        # and enclosure error that certify them are no larger. kerr_phase,
        # their dense reference, has sections of the same kind
        recorded = []

        def recording(*args):
            recorded.append(args)
            return enclosed(*args)

        enclosed = spin._enclosed_observable
        monkeypatch.setattr(spin, "_enclosed_observable", recording)
        wide = truncated_phase_povm(widest, 8)
        (*_, wide_error, wide_hermitian, wide_completeness), = recorded
        lams = (0.05, 0.5, 1.7, 3.0)
        phases = [kerr_phase(widest, lam) for lam in lams]
        minus = [np.exp(-1j * lam * np.arange(widest)) for lam in lams]
        for dim in range(coherent_dim(0.0), widest + 1):
            fresh_phase_memo.cache_clear()  # so each dim's certificate is recorded
            readout = truncated_phase_povm(dim, 8)
            assert wide.mats[:, :dim, :dim].tobytes() == readout.mats.tobytes(), dim
            *_, error, hermitian, completeness = recorded[-1]
            assert error <= wide_error
            assert np.all(hermitian <= wide_hermitian) and completeness <= wide_completeness
            for lam, phase, diagonal in zip(lams, phases, minus):
                assert phase[:dim, :dim].tobytes() == kerr_phase(dim, lam).tobytes(), (dim, lam)
                assert (diagonal[:dim].tobytes()
                        == np.exp(-1j * lam * np.arange(dim)).tobytes()), (dim, lam)

    def test_batched_joint_effects_are_the_single_ones(self):
        rng = np.random.default_rng(5)
        traces = rng.normal(size=(5, 4, 8)) + 1j * rng.normal(size=(5, 4, 8))
        eps2 = np.array([0.0, 1e-9, 0.3, 0.5, 1.0])
        for theta2 in (0.0, math.pi / 2, 2.5):
            batched = kerrqnd._joint_effects(eps2, theta2, traces)
            assert batched.shape == (5, 5, 8, 2, 2, 2)
            for one, t in zip(batched, traces):
                assert one.tobytes() == kerrqnd._joint_effects(eps2, theta2, t).tobytes()

    def test_scan_certifies_one_readout_per_call(self, monkeypatch, fresh_phase_memo):
        # the readout and its symbol set are built once, at the widest dim,
        # the readout once per cold memo; kerr_phase is not called, and the
        # three batched row checks run no eigensolver on rows that clear
        # their closed-form enclosure
        calls = []

        def counted(name, f):
            def call(*args):
                calls.append((name, args))
                return f(*args)
            return call

        monkeypatch.setattr(spin, "_phase_symbols", counted("symbols", spin._phase_symbols))
        monkeypatch.setattr(spin, "_phase_observable",
                            counted("readout", spin._phase_observable))
        monkeypatch.setattr(kerrqnd, "kerr_phase", counted("kerr_phase", kerrqnd.kerr_phase))
        monkeypatch.setattr(kerrqnd, "_check_observables",
                            counted("check", kerrqnd._check_observables))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        for kind in ("coherent", "number"):
            fresh_phase_memo.cache_clear()
            calls.clear()
            tradeoff_scan([0.0, 3.0, -1.0, 2.0], 0.7, [0.2, 0.5, 0.9], probe_kind=kind)
            assert sorted(name for name, _ in calls) == ["check"] * 3 + ["readout", "symbols"]
            sizes = [args for name, args in calls if name == "symbols"]
            assert sizes == [(coherent_dim(3.0), 8)]
            # a warm memo builds no readout, and the rows are still checked
            calls.clear()
            tradeoff_scan([0.0, 3.0, -1.0, 2.0], 0.7, [0.2, 0.5, 0.9], probe_kind=kind)
            assert [name for name, _ in calls] == ["check"] * 3

    @pytest.mark.parametrize("edit, message", [
        (lambda u: u * (1 + 1e-9), r"^state trace 1\.00000000\d* != 1$"),
        (lambda u: np.where(np.arange(len(u)) == 1, np.nan, u),
         r"^state must be Hermitian within 1e-10$"),
    ])
    @pytest.mark.parametrize("kind, builder", [("coherent", "_coherent_vector"),
                                               ("number", "_basis_vector")])
    def test_probe_vectors_are_checked_as_states(self, edit, message, kind, builder,
                                                 monkeypatch):
        # the scan builds no State, and checks each probe's vector u as the
        # state check would check u u+
        build = getattr(kerrqnd, builder)
        monkeypatch.setattr(kerrqnd, builder, lambda *args: edit(build(*args)))
        with pytest.raises(ValueError, match=message):
            tradeoff_scan([0.0, 1.0], 0.5, [0.5], probe_kind=kind)
        u = edit(build(0, 16))
        with pytest.raises(ValueError, match=message):
            povm._recorded_state(Operator(np.outer(u, u.conj())), u,
                                 linalg._hermitian_residual(np.outer(u, u.conj())[None]))

    def test_a_row_that_misses_its_enclosure_is_diagonalised(self, monkeypatch):
        # at amplitude 0 every trace is E(X)[0, 0] = 1/8. Bins 0 and 1 trade
        # off-diagonal weight 2 delta, so the two joint rows of bin 0 reach
        # -delta: inside [-ATOL_POSITIVE, 1], but closer to its end than the
        # closed form's margin. Only the joint stack holds such rows (the
        # marginals' off-diagonals cancel or sum the shifts away), and its
        # one slice is diagonalised, which passes it
        traces = kerrqnd._bilinear_traces
        delta = ATOL_POSITIVE - 1e-14

        def near_boundary(*sections):
            t0, t1, t0m, tp0 = traces(*sections)
            shift = np.zeros(len(t0))
            shift[:2] = 2 * delta, -2 * delta
            return np.stack([t0, t1, t0m + shift, tp0 + shift])

        shapes = []

        def eigvalsh(a):
            shapes.append(a.shape)
            return spectra(a)

        spectra = np.linalg.eigvalsh
        monkeypatch.setattr(kerrqnd, "_bilinear_traces", near_boundary)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for kind in ("coherent", "number"):
            shapes.clear()
            row, = tradeoff_scan([0.0], 0.7, [0.5], probe_kind=kind)
            assert shapes == [(16, 2, 2)]

    def test_rows_are_checked_as_observables(self, monkeypatch):
        # the scan forms its effects from each amplitude's probe traces and
        # checks them batched; a trace edit that breaks positivity must raise there
        traces = kerrqnd._bilinear_traces

        def doubled(*sections):
            t0, t1, t0m, tp0 = traces(*sections)
            return np.stack([t0, t1, 2 * t0m, 2 * tp0])

        def moved(*sections):
            # bins 0 and 1 trade off-diagonal weight: both marginals are those
            # of the true traces, so only the joint effects are not positive
            t0, t1, t0m, tp0 = traces(*sections)
            shift = np.zeros(len(t0))
            shift[:2] = 1.0, -1.0
            return np.stack([t0, t1, t0m + shift, tp0 + shift])

        for edit in (doubled, moved):
            # the edit reaches the probe of one amplitude only, the first or
            # the second, so every amplitude's rows must be checked
            for edited in (0, 1):
                for kind in ("coherent", "number"):
                    calls = iter(range(2))
                    monkeypatch.setattr(kerrqnd, "_bilinear_traces", lambda *sections: (
                        edit if next(calls) == edited else traces)(*sections))
                    with pytest.raises(ValueError,
                                       match=r"^effect spectrum .* outside \[0, 1\]$"):
                        tradeoff_scan([0.0, 1.0], 0.5, [0.5], probe_kind=kind)


@given(amps=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
       lam=st.floats(0.05, 3.0), eps2_values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       kind=st.sampled_from(["coherent", "number"]))
def test_scan_rows_are_those_of_the_joint_povm(amps, lam, eps2_values, kind):
    rows = tradeoff_scan(amps, lam, eps2_values, probe_kind=kind)
    assert len(rows) == len(amps) * len(eps2_values)
    for row, (amp, eps2) in zip(rows, itertools.product(amps, eps2_values)):
        r, dim = abs(amp), coherent_dim(amp)
        state = coherent_state(r, dim) if kind == "coherent" else basis_state(round(r**2), dim)
        probe = ProbeConfig(state, lam, truncated_phase_povm(dim, 8))
        povm = joint_path_interference_povm(eps2, math.pi / 2, probe)
        assert (row["amp"], row["lam"], row["eps2"]) == (amp, lam, eps2)
        assert row["visibility"].hex() == interference_visibility(povm).hex()
        assert row["path_confidence"].hex() == path_confidence(povm).hex()


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


class TestCouplingReduction:
    # the coupling enters as e^{-i lam n} at integer n only, so it is
    # reduced mod 2 pi where it enters; rows keep it as given
    @pytest.mark.parametrize("lam", [1e16, 1e100, 1e308])
    @pytest.mark.parametrize("kind", ["coherent", "number"])
    def test_huge_couplings_give_the_rows_of_their_residue(self, lam, kind):
        amps, eps2_values = [0.0, 0.5, -1.0, 3.0, 6.0], [0.0, 0.3, 0.5, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = tradeoff_scan(amps, lam, eps2_values, probe_kind=kind)
        reduced = tradeoff_scan(amps, math.fmod(lam, 2 * math.pi), eps2_values, probe_kind=kind)
        assert len(rows) == len(reduced) == 20
        for row, ref in zip(rows, reduced):
            assert row["lam"] == lam
            assert row["visibility"].hex() == ref["visibility"].hex()
            assert row["path_confidence"].hex() == ref["path_confidence"].hex()

    @given(lam=st.floats(0.0, 2 * math.pi, exclude_max=True))
    def test_couplings_in_range_are_unchanged(self, lam):
        assert small_probe(lam=lam).lam == lam
        n = np.arange(6)
        assert np.array_equal(kerr_phase(6, lam), np.exp(-1j * lam * (n[:, None] - n[None, :])))
        row, = tradeoff_scan([1.0], lam, [0.5])
        assert row["lam"] == lam

    def test_probe_config_holds_the_residue(self):
        for lam in (-1.0, 2 * math.pi, 7.0, 1e100, 1e308, -1e308):
            assert small_probe(lam=lam).lam == lam % (2 * math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = small_probe(lam=1e308)
            oracle = joint_povm_compressed(0.4, 1.3, huge)
        closed = joint_path_interference_povm(0.4, 1.3, small_probe(lam=math.fmod(1e308, 2 * math.pi)))
        for x, e in closed:
            assert np.max(np.abs(e.op.mat - oracle.effect_for(x).op.mat)) < 1e-9


class TestKerrPhase:
    def test_is_the_dense_exponential(self):
        # of the coupling reduced mod 2 pi, as it enters
        for dim in list(range(1, 65)) + [101, 401]:
            n = np.arange(dim)
            for lam in (0.0, 0.37, -1.3, 2.5, 1e3):
                dense = np.exp(-1j * (lam % (2 * math.pi)) * (n[:, None] - n[None, :]))
                assert np.array_equal(kerr_phase(dim, lam), dense), (dim, lam)

    @pytest.mark.parametrize("dim", [0, -2, 2.5, True])
    def test_bad_dim_is_named(self, dim):
        with pytest.raises(ValueError, match=rf"^probe dimension {re.escape(repr(dim))} is not a "
                                             "positive integer$"):
            kerr_phase(dim, 0.3)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coupling_is_named(self, lam):
        with pytest.raises(ValueError, match=f"^Kerr coupling {lam} is not finite$"):
            kerr_phase(3, lam)


BAD_PHASE_DIMS = [0, -3, 2.5, 16.0, True, np.True_, "8"]
BAD_BIN_COUNTS = [0, -2, 2.5, 8.0, True, np.True_, None]


class TestTruncatedPhasePovm:
    def test_full_circle_is_identity(self):
        povm = truncated_phase_povm(6, [(0.0, 2 * np.pi)])
        assert np.array_equal(povm.effects[0].op.mat, np.eye(6))
        # intervals beyond the circle or reversed are rejected at entry
        for interval in ((0.0, 7.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="malformed interval"):
                truncated_phase_povm(4, [interval])

    @pytest.mark.parametrize("dim", BAD_PHASE_DIMS)
    def test_bad_dim_is_named(self, dim):
        with pytest.raises(ValueError, match=rf"^phase dimension {re.escape(repr(dim))} is not a "
                                             "positive integer$"):
            truncated_phase_povm(dim, 8)

    @pytest.mark.parametrize("bins", BAD_BIN_COUNTS)
    def test_bad_bin_count_is_named(self, bins):
        with pytest.raises(ValueError, match=rf"^bin count {re.escape(repr(bins))} is not a "
                                             "positive integer$"):
            truncated_phase_povm(16, bins)

    def test_integer_types_are_accepted(self):
        for dim, bins in ((np.int64(5), 3), (5, np.int32(3))):
            assert truncated_phase_povm(dim, bins).mats.shape == (3, 5, 5)

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


def _certificate(obs):
    """The arrays and floats that certify a phase readout, as bytes."""
    return (obs.outcomes, obs.mats.tobytes(), obs.extremes.tobytes(), obs._enclosure.tobytes(),
            obs._enclosure_error)


def uniform_phase_reference(dim, bins):
    """The (bins, dim, dim) effects of a uniform partition from their
    integrals, (e^{ikv} - e^{iku}) / (2 pi i k) at k = n - m, in float64."""
    levels = np.arange(dim, dtype=float)
    k = levels[None, None, :] - levels[None, :, None]  # entry (m, n) is at k = n - m
    edges = np.linspace(0.0, 2 * np.pi, bins + 1)
    u, v = edges[:-1, None, None], edges[1:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = (np.exp(1j * k * v) - np.exp(1j * k * u)) / (2j * np.pi * k)
    return np.where(k == 0, (v - u) / (2 * np.pi), ref)


class TestPhaseReadoutMemo:
    """Uniform readouts are built once per checked (dim, bins) and shared by
    truncated_phase_povm and spin_phase_observable."""

    KEYS = [(1, 1), (1, 8), (16, 8), (28, 8), (42, 8), (58, 8), (16, 4), (90, 8), (256, 1)]

    def test_memo_result_is_the_uncached_build(self, monkeypatch, fresh_phase_memo):
        recorded = []

        def recording(*args):
            recorded.append(args)
            return enclosed(*args)

        enclosed = spin._enclosed_observable
        monkeypatch.setattr(spin, "_enclosed_observable", recording)
        for dim, bins in self.KEYS:
            recorded.clear()
            cold = truncated_phase_povm(dim, bins)
            warm = truncated_phase_povm(dim, bins)
            uncached = spin._built_readout.__wrapped__(dim, bins)
            (*_, cold_error, cold_hermitian, cold_completeness), (
                *_, error, hermitian, completeness) = recorded  # no build for the warm call
            assert _certificate(warm) == _certificate(cold) == _certificate(uncached)
            assert warm.mats is cold.mats and warm is not cold
            assert cold_error == error and cold_completeness == completeness
            assert cold_hermitian.tobytes() == hermitian.tobytes()
        assert fresh_phase_memo.cache_info().misses == len(self.KEYS)

    def test_spin_phase_readouts_share_the_memo(self, fresh_phase_memo):
        for s, bins in ((0.5, 2), (7.5, 8), (13.5, 8)):
            space = spin.SpinPhaseSpace(s)
            phase = spin.spin_phase_observable(space, bins)
            assert truncated_phase_povm(space.dim, bins).mats is phase.mats
            assert _certificate(phase) == _certificate(
                spin._built_readout.__wrapped__(space.dim, bins))
        assert fresh_phase_memo.cache_info().misses == 3

    def test_results_are_read_only_and_independent(self, fresh_phase_memo):
        first = truncated_phase_povm(16, 8)
        expected = _certificate(spin._built_readout.__wrapped__(16, 8))
        for array in (first.mats, first.extremes, first._enclosure):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            first.mats[0, 0, 0] = 1.0
        first.mats = np.zeros((8, 16, 16))
        first.outcomes = tuple("abcdefgh")
        first.extremes = np.zeros((8, 2))
        first._enclosure_error = 1.0
        first._index["x"] = 0
        again = truncated_phase_povm(16, 8)
        assert _certificate(again) == expected
        assert "x" not in again._index
        assert again.effect_for(7).op.mat.tobytes() == again.mats[7].tobytes()

    def test_memo_never_exceeds_its_bounds(self, fresh_phase_memo):
        cap = spin._READOUT_MEMO_ENTRIES
        maxsize = fresh_phase_memo.cache_info().maxsize
        assert maxsize * cap * 16 <= 16 << 20  # 16 readouts of 1 MiB
        keys = [(dim, bins) for bins in (1, 4, 8) for dim in (2, 17, 64, 90, 91, 128, 129)]
        keys += [(256, 1), (257, 1)] + [(dim, 3) for dim in range(1, 12)]
        kept = []
        for dim, bins in keys:
            misses = fresh_phase_memo.cache_info().misses
            obs = truncated_phase_povm(dim, bins)
            if fresh_phase_memo.cache_info().misses > misses:
                assert bins * dim * dim <= cap, (dim, bins)
                kept.append(obs.mats.nbytes)
            else:  # over the cap: built on every call, by the same builder
                assert bins * dim * dim > cap, (dim, bins)
                again = truncated_phase_povm(dim, bins)
                assert not np.shares_memory(again.mats, obs.mats)
                assert _certificate(again) == _certificate(obs)
                assert np.max(np.abs(obs.mats - uniform_phase_reference(dim, bins))) <= 1e-15
                assert np.max(np.abs(obs.mats.sum(axis=0) - np.eye(dim))) <= 1e-12
            info = fresh_phase_memo.cache_info()
            assert info.currsize == min(len(kept), maxsize)
            assert sum(kept[-maxsize:]) <= maxsize * cap * 16
        assert len(kept) > maxsize

    @pytest.mark.parametrize("dim", BAD_PHASE_DIMS)
    def test_bad_dim_is_named_with_a_warm_memo(self, dim, fresh_phase_memo):
        for key in ((1, 8), (16, 8), (16, 1)):
            truncated_phase_povm(*key)
        with pytest.raises(ValueError, match=rf"^phase dimension {re.escape(repr(dim))} is not a "
                                             "positive integer$"):
            truncated_phase_povm(dim, 8)
        assert fresh_phase_memo.cache_info().currsize == 3

    @pytest.mark.parametrize("bins", BAD_BIN_COUNTS)
    def test_bad_bin_count_is_named_with_a_warm_memo(self, bins, fresh_phase_memo):
        for key in ((1, 8), (16, 8), (16, 1)):
            truncated_phase_povm(*key)
        message = rf"^bin count {re.escape(repr(bins))} is not a positive integer$"
        with pytest.raises(ValueError, match=message):
            truncated_phase_povm(16, bins)
        with pytest.raises(ValueError, match=message):
            spin.spin_phase_observable(spin.SpinPhaseSpace(7.5), bins)
        with pytest.raises(ValueError, match="^bins '8' is neither a bin count nor a list"):
            truncated_phase_povm(16, "8")
        assert fresh_phase_memo.cache_info().currsize == 3


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
