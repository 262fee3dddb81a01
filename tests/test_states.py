"""Tests for two-qubit states and explicit collective operators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from collective_oracle import (
    build_collective_operator,
    explicit_commutator_deviation,
    mode_basis,
    normalized_mode_operator,
    union_basis,
    vacuum_pair_expectation,
    vacuum_populations,
)
from dlczsim.angular import HalfInt, LevelScheme, branching_table
from dlczsim.states import (
    EnsembleModel,
    TwoQubitState,
    WaveVectors,
    add_white_noise,
    concurrence,
    excited_commutator_deviation,
    ideal_state,
    mode_vacuum_overlap,
    phase_match,
)

SCHEME = LevelScheme.of(3, 2, 3)


def make_model(n_atoms, seed=1):
    return EnsembleModel.with_random_positions(
        n_atoms, f_a=3, f_b=2, delta_k=(0.3, -1.1, 0.7), seed=seed
    )


class TestTwoQubitState:
    def test_ideal_state_is_valid_density_matrix(self):
        for eta in np.linspace(0.0, math.pi / 2, 21):
            state = ideal_state(eta)
            state.validate()  # Hermitian, unit trace, PSD
            np.testing.assert_allclose(np.trace(state.rho).real, 1.0, atol=1e-15)

    def test_ideal_state_amplitudes(self):
        eta = 0.3
        rho = ideal_state(eta).rho
        np.testing.assert_allclose(rho[0, 0].real, math.cos(eta) ** 2, rtol=1e-14)
        np.testing.assert_allclose(rho[3, 3].real, math.sin(eta) ** 2, rtol=1e-14)
        np.testing.assert_allclose(rho[0, 3].real, math.cos(eta) * math.sin(eta), rtol=1e-14)
        assert rho[1, 1] == 0 and rho[2, 2] == 0

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            ideal_state(-0.1)
        with pytest.raises(ValueError):
            ideal_state(math.pi / 2 + 0.1)

    def test_white_noise_keeps_state_valid(self):
        state = ideal_state(0.5)
        for v in (0.0, 0.3, 0.9, 1.0):
            noisy = add_white_noise(state, v)
            noisy.validate()
        with pytest.raises(ValueError):
            add_white_noise(state, 1.2)

    def test_white_noise_limits(self):
        state = ideal_state(0.7)
        np.testing.assert_allclose(add_white_noise(state, 1.0).rho, state.rho)
        np.testing.assert_allclose(add_white_noise(state, 0.0).rho, np.eye(4) / 4)

    def test_validate_rejects_bad_matrices(self):
        bad = TwoQubitState(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            bad.validate()
        non_hermitian = np.eye(4) / 4 + 0j
        non_hermitian[0, 1] = 0.1
        with pytest.raises(ValueError):
            TwoQubitState(non_hermitian).validate()


class TestConcurrence:
    def test_pure_state_concurrence_is_sin_two_eta(self):
        for eta in np.linspace(0.0, math.pi / 2, 50):
            np.testing.assert_allclose(
                concurrence(ideal_state(eta)), math.sin(2 * eta), atol=1e-12
            )

    def test_partially_mixed_bell_state(self):
        # isotropic two-qubit state: C = max(0, (3V - 1)/2)
        bell = ideal_state(math.pi / 4)
        for v in (0.0, 0.2, 1 / 3, 0.6, 0.9, 1.0):
            expected = max(0.0, (3 * v - 1) / 2)
            np.testing.assert_allclose(
                concurrence(add_white_noise(bell, v)), expected, atol=1e-12
            )

    def test_noise_never_increases_concurrence(self):
        state = ideal_state(0.81 * math.pi / 4)
        values = [concurrence(add_white_noise(state, v)) for v in (1.0, 0.8, 0.6, 0.4)]
        assert values == sorted(values, reverse=True)


class TestPhaseMatch:
    def test_counterpropagating_read_retrieves_backwards(self):
        k = 2 * math.pi / 795e-9
        tilt = math.radians(2.0)
        k_w = np.array([0.0, 0.0, k])
        k_s = k * np.array([math.sin(tilt), 0.0, math.cos(tilt)])
        vectors = WaveVectors(write=k_w, read=-k_w, signal=k_s)
        k_i = phase_match(vectors)
        np.testing.assert_allclose(k_i, -k_s, rtol=1e-12)
        # idler leaves at the same 2 degrees from the read direction
        cos_angle = (k_i @ -k_w) / (np.linalg.norm(k_i) * k)
        np.testing.assert_allclose(math.degrees(math.acos(cos_angle)), 2.0, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            WaveVectors(write=np.zeros(2), read=np.zeros(3), signal=np.zeros(3))


class TestCollectiveOperator:
    def test_single_atom_matrix_elements(self):
        model = EnsembleModel(
            1, HalfInt.of(3), HalfInt.of(2), np.array([[0.2, -0.4, 1.0]]), np.array([1.0, 2.0, 3.0])
        )
        op = build_collective_operator(model, alpha=-1, m=0).toarray()
        phase = np.exp(-1j * model.positions[0] @ model.delta_k)
        # basis is (a, b, other); raising maps a -> b with sqrt(7) weight
        np.testing.assert_allclose(op[1, 0], math.sqrt(7) * phase, rtol=1e-12)
        assert np.count_nonzero(op) == 1

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_vacuum_norm_is_one(self, n_atoms):
        model = make_model(n_atoms)
        value = vacuum_pair_expectation(model, -1, 0, -1, 0)
        np.testing.assert_allclose(value, 1.0, atol=1e-12)

    def test_vacuum_cross_expectations_vanish(self):
        model = make_model(4)
        pairs = [(-1, HalfInt.of(-1)), (-1, HalfInt.of(0)), (+1, HalfInt.of(-2)), (+1, HalfInt.of(0))]
        for a1, m1 in pairs:
            for a2, m2 in pairs:
                expected = 1.0 if (a1, m1) == (a2, m2) else 0.0
                value = vacuum_pair_expectation(model, a1, m1, a2, m2)
                np.testing.assert_allclose(
                    value, expected, atol=1e-12,
                    err_msg=f"({a1},{m1}) vs ({a2},{m2})",
                )

    def test_shared_final_sublevel_still_orthogonal(self):
        # (m=0, alpha=-1) and (m=-2, alpha=+1) both store into b-projection 0
        model = make_model(5)
        value = vacuum_pair_expectation(model, -1, 0, +1, -2)
        np.testing.assert_allclose(value, 0.0, atol=1e-12)

    def test_rejects_out_of_range_sublevels(self):
        model = make_model(3)
        with pytest.raises(ValueError):
            build_collective_operator(model, +1, HalfInt.of(4))  # |m| > f_a
        with pytest.raises(ValueError):
            build_collective_operator(model, +1, HalfInt.of(2))  # b-projection 4 > f_b
        with pytest.raises(ValueError):
            build_collective_operator(model, 2, HalfInt.of(0))  # bad helicity

    def test_vacuum_populations_unit_trace(self):
        model = make_model(6)
        basis = union_basis(model, [(-1, HalfInt.of(0)), (+1, HalfInt.of(-2))])
        pops = vacuum_populations(model, basis)
        np.testing.assert_allclose(pops.sum(), 1.0, atol=1e-12)
        assert (pops >= 0).all()


@pytest.fixture(scope="module")
def table():
    return branching_table(SCHEME)


class TestNormalizedMode:

    @pytest.mark.parametrize("alpha", [-1, +1])
    @pytest.mark.parametrize("n_atoms", [2, 4])
    def test_vacuum_norm(self, table, alpha, n_atoms):
        model = make_model(n_atoms)
        op = normalized_mode_operator(model, table, alpha)
        basis = mode_basis(model, table, [alpha])
        pops = vacuum_populations(model, basis)
        norm = pops @ (op.getH() @ op).diagonal()
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)

    def test_cross_helicity_overlap_vanishes_explicitly(self, table):
        model = make_model(4)
        basis = mode_basis(model, table, [-1, +1])
        s_minus = normalized_mode_operator(model, table, -1, basis)
        s_plus = normalized_mode_operator(model, table, +1, basis)
        pops = vacuum_populations(model, basis)
        overlap = pops @ (s_minus.getH() @ s_plus).diagonal()
        np.testing.assert_allclose(overlap, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n_atoms", [2, 3, 4, 5])
    def test_factorized_trace_matches_explicit_construction(self, table, n_atoms):
        """The per-atom factorized overlap must equal the kron-product one."""
        model = make_model(n_atoms, seed=7)
        basis = mode_basis(model, table, [-1, +1])
        pops = vacuum_populations(model, basis)
        ops = {
            alpha: normalized_mode_operator(model, table, alpha, basis)
            for alpha in (-1, +1)
        }
        for a1 in (-1, +1):
            for a2 in (-1, +1):
                explicit = pops @ (ops[a1].getH() @ ops[a2]).diagonal()
                factorized = mode_vacuum_overlap(model, table, a1, a2)
                np.testing.assert_allclose(
                    factorized, explicit, atol=1e-12,
                    err_msg=f"alpha pair ({a1},{a2}), N={n_atoms}",
                )

    @pytest.mark.parametrize("n_atoms", [3, 6, 9, 12])
    def test_factorized_overlaps_are_kronecker_delta(self, table, n_atoms):
        model = make_model(n_atoms, seed=3)
        for a1 in (-1, +1):
            for a2 in (-1, +1):
                value = mode_vacuum_overlap(model, table, a1, a2)
                np.testing.assert_allclose(value, 1.0 if a1 == a2 else 0.0, atol=1e-12)


class TestCommutator:
    @pytest.mark.parametrize("n_atoms", [2, 4, 6, 8])
    def test_single_excitation_deviation_is_mult_plus_one_over_n(self, n_atoms):
        """With 7 ground sublevels the deviation is exactly 8/N."""
        model = make_model(n_atoms, seed=11)
        deviation = excited_commutator_deviation(model, -1, HalfInt.of(0))
        np.testing.assert_allclose(deviation, 8.0 / n_atoms, rtol=1e-10)

    def test_deviation_decreases_with_n(self):
        values = [
            excited_commutator_deviation(make_model(n), -1, HalfInt.of(1))
            for n in (4, 6, 8, 10)
        ]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_factorized_deviation_matches_explicit_construction(self, n_atoms):
        model = make_model(n_atoms, seed=13)
        valid = [
            (alpha, HalfInt(tm))
            for alpha in (-1, +1)
            for tm in range(-6, 8, 2)
            if abs(tm + 2 + 2 * alpha) <= model.f_b.twice
        ]
        assert len(valid) == 9
        for alpha, m in valid:
            np.testing.assert_allclose(
                excited_commutator_deviation(model, alpha, m),
                explicit_commutator_deviation(model, alpha, m),
                rtol=1e-12,
                err_msg=f"alpha={alpha}, m={m}, N={n_atoms}",
            )

    def test_deviation_is_correctly_rounded_up_to_a_thousand_atoms(self):
        for n in range(1, 1001):
            model = EnsembleModel(n, HalfInt.of(3), HalfInt.of(2), np.zeros((n, 3)), np.ones(3))
            assert excited_commutator_deviation(model, -1, HalfInt.of(0)) == float(Fraction(8, n))

    def test_rejects_out_of_range_sublevels(self):
        model = make_model(3)
        for alpha, m in ((+1, HalfInt.of(4)), (+1, HalfInt.of(2)), (2, HalfInt.of(0))):
            with pytest.raises(ValueError):
                excited_commutator_deviation(model, alpha, m)
