"""Tests for the collective-mode checks against explicit collective operators."""

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
    excited_commutator_deviation,
    mode_vacuum_overlap,
)

SCHEME = LevelScheme.of(3, 2, 3)


def make_model(n_atoms, seed=1):
    return EnsembleModel.with_random_positions(
        n_atoms, f_a=3, f_b=2, delta_k=(0.3, -1.1, 0.7), seed=seed
    )


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

    def test_rejects_an_empty_ensemble(self):
        with pytest.raises(ValueError, match="^n_atoms must be >= 1$"):
            EnsembleModel(0, HalfInt.of(3), HalfInt.of(2), np.zeros((0, 3)), np.ones(3))

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

    @pytest.mark.parametrize("alpha", [-1, +1])
    def test_table_that_indexes_past_the_ensemble_is_refused(self, table, alpha):
        # unchecked, the (3, 2, 3) table on F_a = F_b = 1 atoms indexed past the
        # single-atom space for alpha = +1 and gave 0.675 for alpha = -1
        model = EnsembleModel.with_random_positions(5, f_a=1, f_b=1)
        with pytest.raises(
            ValueError, match=r"^branching table is for \(F_a, F_b\) = \(3, 2\), the ensemble has \(1, 1\)$"
        ):
            mode_vacuum_overlap(model, table, alpha, alpha)

    @pytest.mark.parametrize("f_a, f_b", [(2, 2), (3, 3)])
    def test_table_of_another_scheme_gives_no_number(self, table, f_a, f_b):
        # unchecked, F_a = F_b = 2 gave 0.643 for alpha = +1 where 1 is expected;
        # a table whose F_b alone differs is refused as well
        model = EnsembleModel.with_random_positions(5, f_a=f_a, f_b=f_b)
        for a1 in (-1, +1):
            for a2 in (-1, +1):
                with pytest.raises(ValueError, match=rf"the ensemble has \({f_a}, {f_b}\)$"):
                    mode_vacuum_overlap(model, table, a1, a2)

    def test_a_helicity_without_a_path_is_refused(self):
        # F_a = F_b = 0 through F_c = 1: the right-circular drive reaches m_c = +1,
        # which decays to m_b = 0 by helicity -1 alone
        scheme = LevelScheme.of(0, 0, 1)
        model = EnsembleModel.with_random_positions(3, 0, 0)
        table = branching_table(scheme)
        with pytest.raises(ValueError, match="^no allowed transition for helicity 1$"):
            mode_vacuum_overlap(model, table, 1, 1)
        assert mode_vacuum_overlap(model, table, -1, -1) == 1 + 0j

    @pytest.mark.parametrize("n_atoms", [1, 4, 13])
    def test_positions_drop_out_of_the_overlap(self, table, n_atoms):
        at_origin = EnsembleModel(
            n_atoms, HalfInt.of(3), HalfInt.of(2), np.zeros((n_atoms, 3)), np.zeros(3)
        )
        for seed in range(5):
            model = make_model(n_atoms, seed=seed)
            for a1 in (-1, +1):
                for a2 in (-1, +1):
                    value = mode_vacuum_overlap(model, table, a1, a2)
                    assert value == mode_vacuum_overlap(at_origin, table, a1, a2)


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
