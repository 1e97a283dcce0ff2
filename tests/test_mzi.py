import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmlab.linalg import Operator, expm, tensor
from povmlab.mzi import (
    _sweep_columns,
    BSParams,
    FockSpace,
    MZIParams,
    annihilation,
    beam_splitter,
    default_expanded_circuit,
    detection_probabilities,
    effective_transparency,
    expanded_mzi_observable,
    fit_single_splitter,
    hermitian_span_rank,
    induced_mzi_observable,
    mzi_measurement_scheme,
    mzi_output_state,
    mzi_unitary,
    number,
    phase_shifter,
    prepared_single_photon,
    single_photon_observable,
)
from povmlab.povm import (
    _controlled_shift,
    are_complementary,
    induced_observable,
    joint_observable_feasible,
    marginal,
    vector_state,
)

SPACE1 = FockSpace(1)
SPACE4 = FockSpace(4)


def fock(dim, n):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def single_photon_probs(params, space=SPACE1):
    w = mzi_output_state(
        vector_state(fock(space.dim, 1)), vector_state(fock(space.dim, 0)),
        params, space,
    )
    return detection_probabilities(w)


class TestLadderOperators:
    def test_commutator_below_truncation(self):
        a = annihilation(6).mat
        comm = a @ a.conj().T - a.conj().T @ a
        assert_allclose(comm[:5, :5], np.eye(5), atol=1e-14)

    def test_number_eigenvalues(self):
        assert_allclose(np.diag(number(5).mat).real, np.arange(5))

    def test_number_acts_on_fock_state(self):
        a = annihilation(5)
        n = a.dag() @ a
        assert_allclose(n.mat @ fock(5, 2), 2 * fock(5, 2), atol=1e-14)


class TestBeamSplitter:
    def test_transparent_is_identity(self):
        u = beam_splitter(BSParams(1.0, 0.9), SPACE4)
        assert np.max(np.abs(u.mat - np.eye(25))) < 1e-12

    def test_single_photon_amplitudes(self):
        eps, theta = 0.37, 1.2
        u = beam_splitter(BSParams(eps, theta), SPACE1)
        col = u.mat @ np.kron(fock(2, 1), fock(2, 0))
        amp10 = col[1 * 2 + 0]
        amp01 = col[0 * 2 + 1]
        assert abs(amp10 - math.sqrt(eps)) < 1e-12
        assert abs(amp01 - np.exp(-1j * theta) * math.sqrt(1 - eps)) < 1e-12

    def test_photon_number_conserved(self):
        u = beam_splitter(BSParams(0.3, 0.4), SPACE4)
        n_total = tensor(number(5), Operator(np.eye(5))) + tensor(
            Operator(np.eye(5)), number(5)
        )
        comm = u.mat @ n_total.mat - n_total.mat @ u.mat
        assert np.max(np.abs(comm)) < 1e-10

    def test_block_structure(self):
        u = beam_splitter(BSParams(0.61, 2.2), SPACE4).mat
        total = np.add.outer(np.arange(5), np.arange(5)).reshape(-1)
        assert np.max(np.abs(u[total[:, None] != total[None, :]])) < 1e-12

    def test_unitary(self):
        assert beam_splitter(BSParams(0.2, 5.1), SPACE4).is_unitary()

    def test_direct_fill_equals_the_kronecker_construction(self):
        # reference: the generator from Kronecker products of the ladder
        # matrices, exponentiated by expm
        rng = np.random.default_rng(17)
        params = [BSParams(1.0), BSParams(0.0, 2.0), BSParams(0.5, math.pi / 2)]
        params += [BSParams(rng.uniform(), rng.uniform(-9, 9)) for _ in range(5)]
        for nmax in range(1, 7):
            space = FockSpace(nmax)
            a = annihilation(space.dim)
            for p in params:
                gen = np.conj(p.alpha) * tensor(a, a.dag()).mat - p.alpha * tensor(a.dag(), a).mat
                reference = expm(Operator(gen, (space.dim, space.dim)))
                u = beam_splitter(p, space)
                assert np.array_equal(u.mat, reference.mat)
                assert u.dims == reference.dims


class TestPhaseShifter:
    def test_zero_is_identity(self):
        assert np.array_equal(phase_shifter(0.0, SPACE4).mat, np.eye(25))

    def test_diagonal_action(self):
        delta = 0.83
        v = phase_shifter(delta, SPACE4).mat
        joint = np.kron(fock(5, 3), fock(5, 1))
        assert_allclose(v @ joint, np.exp(3j * delta) * joint, atol=1e-14)

    def test_intertwining_with_splitter(self):
        # pushing the phase through the splitter multiplies its parameter
        # by the phase factor
        delta, eps, theta = 0.7, 0.42, 1.9
        v = phase_shifter(delta, SPACE4)
        u = beam_splitter(BSParams(eps, theta), SPACE4)
        u_rot = beam_splitter(BSParams(eps, theta + delta), SPACE4)
        lhs = v.mat @ u.mat
        rhs = u_rot.mat @ v.mat
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestOutputState:
    def test_vacuum_invariant(self):
        vac = vector_state(fock(5, 0))
        params = MZIParams(BSParams(0.3, 0.1), BSParams(0.8, 0.5), 1.1)
        w = mzi_output_state(vac, vac, params, SPACE4)
        expected = np.zeros((25, 25), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(w.op.mat - expected)) < 1e-12

    def test_single_photon_sector_support(self):
        params = MZIParams(BSParams(0.3, 0.1), BSParams(0.8, 0.5), 1.1)
        w = mzi_output_state(
            vector_state(fock(5, 1)), vector_state(fock(5, 0)), params, SPACE4
        )
        probs = detection_probabilities(w)
        assert sum(p for (n1, n2), p in probs.items() if n1 + n2 != 1) < 1e-12

    def test_trace_preserved(self):
        params = MZIParams(BSParams(0.55, 0.3), BSParams(0.2, 0.9), 2.0)
        w = mzi_output_state(
            vector_state(fock(5, 2)), vector_state(fock(5, 1)), params, SPACE4
        )
        assert abs(w.op.trace().real - 1.0) < 1e-12

    def test_sweep_matches_per_delta_composition(self):
        # reference: the splitters and the phase shifter rebuilt for every
        # delta (reduced by MZIParams) and composed as dense products; the
        # sweep applies the same factors to one column at a time
        bs1 = BSParams(0.35, 1.2)
        bs2 = BSParams(0.6, 4.0)
        deltas = np.linspace(-7.0, 9.0, 9)
        for nmax in (1, 2, 4):
            space = FockSpace(nmax)
            chains = [(beam_splitter(bs2, space).dag()
                       @ phase_shifter(MZIParams(bs1, bs2, delta).delta, space)
                       @ beam_splitter(bs1, space)).mat for delta in deltas]
            for column in range(space.dim**2):
                cols = _sweep_columns(bs1, bs2, deltas, space, column)
                assert cols.shape == (len(deltas), space.dim**2)
                for u, col in zip(chains, cols):
                    assert np.max(np.abs(col - u[:, column])) <= 1e-15


class TestInterferenceLaw:
    def test_balanced_constructive(self):
        params = MZIParams(BSParams(0.5, 0.4), BSParams(0.5, 0.4), 0.0)
        probs = single_photon_probs(params)
        assert abs(probs[(1, 0)] - 1.0) < 1e-12

    def test_balanced_destructive(self):
        params = MZIParams(BSParams(0.5, 0.4), BSParams(0.5, 0.4), math.pi)
        probs = single_photon_probs(params)
        assert probs[(1, 0)] < 1e-12
        assert abs(probs[(0, 1)] - 1.0) < 1e-12

    def test_path_calibration(self):
        # fully transparent recombiner: detection reads the first transparency
        for eps1 in (0.0, 0.3, 0.77, 1.0):
            params = MZIParams(BSParams(eps1, 0.2), BSParams(1.0, 0.0), 1.3)
            assert abs(effective_transparency(params) - eps1) < 1e-12
            assert abs(single_photon_probs(params)[(1, 0)] - eps1) < 1e-12

    def test_unitary_is_the_composed_chain(self):
        rng = np.random.default_rng(21)
        for nmax in (1, 2, 3, 4):
            space = FockSpace(nmax)
            for _ in range(5):
                params = MZIParams(
                    BSParams(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)),
                    BSParams(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)),
                    rng.uniform(0, 2 * np.pi),
                )
                chain = (beam_splitter(params.bs2, space).dag()
                         @ phase_shifter(params.delta, space)
                         @ beam_splitter(params.bs1, space))
                m = mzi_unitary(params, space)
                assert np.array_equal(m.mat, chain.mat)
                assert m.dims == chain.dims

    def test_against_full_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            params = MZIParams(
                BSParams(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)),
                BSParams(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)),
                rng.uniform(0, 2 * np.pi),
            )
            p10 = single_photon_probs(params)[(1, 0)]
            assert abs(p10 - effective_transparency(params)) < 1e-9

    def test_realized_regime_modulation(self):
        # eps2 close to one: small residual interference on a half offset
        deltas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        params = [MZIParams(BSParams(0.5, 0.3), BSParams(0.994, 0.3), d) for d in deltas]
        ps = [single_photon_probs(p)[(1, 0)] for p in params]
        design = np.stack([np.ones_like(deltas), np.cos(deltas)], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.array(ps), rcond=None)
        assert abs(coef[1] - 0.154 / 2) < 5e-4

    def test_visibility_law(self):
        eps1, eps2 = 0.3, 0.8
        deltas = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        ps = [
            single_photon_probs(MZIParams(BSParams(eps1, 0.0), BSParams(eps2, 0.0), d))[(1, 0)]
            for d in deltas
        ]
        expected = 4 * math.sqrt(eps1 * (1 - eps1) * eps2 * (1 - eps2))
        assert abs((max(ps) - min(ps)) - expected) < 1e-9


class TestInducedObservable:
    def test_two_photon_effect(self):
        params = MZIParams(BSParams(0.7, 0.2), BSParams(0.4, 1.0), 0.6)
        eps = effective_transparency(params)
        obs = induced_mzi_observable(params, SPACE4)
        expected = np.zeros((5, 5), dtype=complex)
        expected[2, 2] = 2 * eps * (1 - eps)
        assert_allclose(obs.effect_for((1, 1)).op.mat, expected, atol=1e-12)

    def test_marginal_is_binomial_smeared_number(self):
        params = MZIParams(BSParams(0.7, 0.2), BSParams(0.4, 1.0), 0.6)
        eps = effective_transparency(params)
        m1 = marginal(induced_mzi_observable(params, SPACE4), keep=0)
        for n in range(5):
            diag = np.zeros(5)
            for m in range(n, 5):
                diag[m] = math.comb(m, n) * eps**n * (1 - eps) ** (m - n)
            assert_allclose(np.diag(m1.effect_for(n).op.mat).real, diag, atol=1e-12)

    def test_projection_valued_at_extremes(self):
        for delta, eps2 in ((0.0, 1.0), (math.pi, 1.0)):
            params = MZIParams(BSParams(1.0, 0.0), BSParams(eps2, 0.0), delta)
            obs = induced_mzi_observable(params, SPACE4)
            assert obs.is_projection_valued(1e-10)

    def test_matches_measurement_scheme(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            params = MZIParams(
                BSParams(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)),
                BSParams(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)),
                rng.uniform(0, 2 * np.pi),
            )
            closed = induced_mzi_observable(params, SPACE4)
            induced = induced_observable(mzi_measurement_scheme(params, SPACE4))
            for x, e in closed:
                assert np.max(np.abs(e.op.mat - induced.effect_for(x).op.mat)) < 1e-9

    def test_count_register_permutation_matches_matrix(self):
        # reference: the controlled cyclic add written as a 0/1 matrix
        dims = (3, 2, 4)
        d = math.prod(dims)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for shifts in (np.arange(dims[0]), np.array([2, -1, 5])):
            copy = np.zeros((d, d))
            for n in range(dims[0]):
                for m in range(dims[1]):
                    for k in range(dims[2]):
                        src = (n * dims[1] + m) * dims[2] + k
                        dst = (n * dims[1] + m) * dims[2] + (k + shifts[n]) % dims[2]
                        copy[dst, src] = 1.0
            assert np.array_equal(u[_controlled_shift(shifts, *dims[1:])], copy @ u)


class TestSinglePhotonObservable:
    def test_sharp_path(self):
        obs = single_photon_observable(1.0, 0.7)
        assert_allclose(obs.effect_for((1, 0)).op.mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_interference_projection(self):
        theta = 0.9
        obs = single_photon_observable(0.5, theta)
        w = np.array([1.0, np.exp(-1j * theta)]) / np.sqrt(2)
        assert_allclose(obs.effect_for((1, 0)).op.mat, np.outer(w, w.conj()), atol=1e-12)

    def test_expectation_is_effective_transparency(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            e1, e2 = rng.uniform(0, 1, 2)
            t1, t2, d = rng.uniform(0, 2 * np.pi, 3)
            psi = prepared_single_photon(e1, t1, d).vec
            obs = single_photon_observable(e2, t2)
            got = np.real(psi.conj() @ obs.effect_for((1, 0)).op.mat @ psi)
            params = MZIParams(BSParams(e1, t1), BSParams(e2, t2), d)
            assert abs(got - effective_transparency(params)) < 1e-10

    def test_compression_preserves_prepared_expectations(self):
        # the full two-mode effect and its two-path compression agree on
        # every prepared single-photon state
        eps2, theta2 = 0.3, 1.4
        u2 = beam_splitter(BSParams(eps2, theta2), SPACE1)
        p10 = np.zeros((4, 4), dtype=complex)
        p10[2, 2] = 1.0
        full_effect = u2.mat @ p10 @ u2.mat.conj().T
        obs = single_photon_observable(eps2, theta2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            e1, t1, d = rng.uniform(0, 1), rng.uniform(0, 7), rng.uniform(0, 7)
            psi2 = prepared_single_photon(e1, t1, d).vec
            embedded = np.zeros(4, dtype=complex)
            embedded[2], embedded[1] = psi2[0], psi2[1]
            lhs = np.real(embedded.conj() @ full_effect @ embedded)
            rhs = np.real(psi2.conj() @ obs.effect_for((1, 0)).op.mat @ psi2)
            assert abs(lhs - rhs) < 1e-12

    def test_path_interference_pair_complementary(self):
        path = single_photon_observable(1.0, 0.0)
        interference = single_photon_observable(0.5, 0.0)
        assert are_complementary(path, interference)
        assert not joint_observable_feasible(path, interference)


class TestSingleSplitterEquivalence:
    def test_effects_match_on_untruncated_sectors(self):
        # the interferometer equals one splitter up to a number phase; the
        # identity is exact on total-photon sectors below the truncation
        rng = np.random.default_rng(12)
        totals = np.add.outer(np.arange(5), np.arange(5)).reshape(-1)
        good = totals <= 4
        for _ in range(5):
            params = MZIParams(
                BSParams(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)),
                BSParams(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi)),
                rng.uniform(0, 2 * np.pi),
            )
            m = mzi_unitary(params, SPACE4).mat
            _, u_fit = fit_single_splitter(params, SPACE4)
            for n1 in range(5):
                for n2 in range(5):
                    if n1 + n2 > 4:
                        continue
                    proj = np.zeros((25, 25), dtype=complex)
                    proj[n1 * 5 + n2, n1 * 5 + n2] = 1.0
                    lhs = (m.conj().T @ proj @ m)[np.ix_(good, good)]
                    rhs = (u_fit.mat.conj().T @ proj @ u_fit.mat)[np.ix_(good, good)]
                    assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestExpandedInterferometer:
    def test_default_wiring_complete(self):
        obs = expanded_mzi_observable()
        total = sum(e.op.mat for _, e in obs)
        assert np.max(np.abs(total - np.eye(2))) < 1e-9

    def test_degenerate_reduces_to_plain(self):
        circ = default_expanded_circuit(eps2=0.3, theta2=0.2, eps3=1.0, eps4=1.0)
        obs = expanded_mzi_observable(circ)
        plain = single_photon_observable(0.3, 0.2)
        assert np.max(np.abs(obs.effect_for(0).op.mat - plain.effect_for((1, 0)).op.mat)) < 1e-12
        assert np.max(np.abs(obs.effect_for(1).op.mat - plain.effect_for((0, 1)).op.mat)) < 1e-12
        assert np.max(np.abs(obs.effect_for(2).op.mat)) < 1e-14
        assert np.max(np.abs(obs.effect_for(3).op.mat)) < 1e-14

    def test_path_and_interference_coarse_grainings(self):
        # straight taps, all splitters semitransparent: detector 2 halves the
        # sharp path effect and detector 0 halves a sharp interference effect
        theta2, gamma = 0.4, 0.9
        circ = default_expanded_circuit(
            eps2=0.5, theta2=theta2, eps3=0.5, eps4=0.5, gamma=gamma,
            tap_recombiner_eps=1.0,
        )
        obs = expanded_mzi_observable(circ)
        path_effect = single_photon_observable(1.0, 0.0).effect_for((1, 0)).op.mat
        assert np.max(np.abs(obs.effect_for(2).op.mat - 0.5 * path_effect)) < 1e-12
        interference = single_photon_observable(0.5, theta2)
        assert np.max(
            np.abs(obs.effect_for(0).op.mat - 0.5 * interference.effect_for((1, 0)).op.mat)
        ) < 1e-12
        # the complements make both two-valued coarse-grainings observables
        rest_path = sum(obs.effect_for(k).op.mat for k in (0, 1, 3))
        assert np.max(np.abs(rest_path + obs.effect_for(2).op.mat - np.eye(2))) < 1e-12

    def test_generic_parameters_informationally_complete(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            circ = default_expanded_circuit(
                eps2=rng.uniform(0.2, 0.8),
                theta2=rng.uniform(0, 2 * np.pi),
                eps3=rng.uniform(0.2, 0.8),
                eps4=rng.uniform(0.2, 0.8),
                gamma=rng.uniform(0.3, 2.8),
                tap_recombiner_eps=rng.uniform(0.3, 0.7),
            )
            rank, smin = hermitian_span_rank(expanded_mzi_observable(circ).effects)
            assert rank == 4
            assert smin > 1e-6

    def test_rejects_unknown_element(self):
        with pytest.raises(ValueError):
            expanded_mzi_observable([("mirror", None, (0, 1))])

    @pytest.mark.parametrize("kind", ["bs", "bsr"])
    @pytest.mark.parametrize("pair", [(0, -1), (0, 5), (1, 1)])
    def test_rejects_bad_mode_pair(self, kind, pair):
        with pytest.raises(ValueError, match=re.escape(f"mode pair {pair!r}")):
            expanded_mzi_observable([(kind, BSParams(0.3), pair)])

    def test_rejects_bad_phase_shifter_mode(self):
        with pytest.raises(ValueError, match="phase-shifter mode -1"):
            expanded_mzi_observable([("ps", 0.3, -1)])


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_splitter_phase(self, theta):
        with pytest.raises(ValueError, match=f"^splitter phase {theta} is not finite$"):
            BSParams(0.5, theta)

    @pytest.mark.parametrize("delta", NON_FINITE)
    def test_phase_shift(self, delta):
        half = BSParams(0.5)
        with pytest.raises(ValueError, match=f"^phase shift {delta} is not finite$"):
            MZIParams(half, half, delta=delta)

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_single_photon_observable_phase(self, theta):
        with pytest.raises(ValueError, match=f"^splitter phase {theta} is not finite$"):
            single_photon_observable(0.5, theta)

    @pytest.mark.parametrize("args, message", [
        ((float("nan"), 0.0, 0.0), "transparency nan outside"),
        ((0.5, float("inf"), 0.0), "splitter phase inf is not finite"),
        ((0.5, 0.0, float("nan")), "phase shift nan is not finite"),
    ])
    def test_prepared_single_photon(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            prepared_single_photon(*args)

    @pytest.mark.parametrize("gamma", NON_FINITE)
    def test_expanded_phase_shifter_angle(self, gamma):
        with pytest.raises(ValueError, match=f"^phase-shifter angle {gamma} is not finite$"):
            expanded_mzi_observable([("ps", gamma, 3)])

    @pytest.mark.parametrize("nmax", NON_FINITE)
    def test_fock_cutoff(self, nmax):
        with pytest.raises(ValueError, match=f"^nmax {nmax} is not finite$"):
            FockSpace(nmax)


NOT_SIZES = [2.5, np.float64(4.0), True, np.bool_(True), 0, -3]


@pytest.mark.parametrize("nmax", NOT_SIZES)
def test_fock_cutoff_is_a_positive_integer(nmax):
    with pytest.raises(ValueError, match=f"^nmax {re.escape(repr(nmax))} is not a positive integer$"):
        FockSpace(nmax)


@pytest.mark.parametrize("dim", NOT_SIZES)
def test_ladder_dimension_is_a_positive_integer(dim):
    with pytest.raises(ValueError, match=f"^dim {re.escape(repr(dim))} is not a positive integer$"):
        annihilation(dim)
