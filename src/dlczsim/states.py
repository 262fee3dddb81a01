"""Collective excitation operators of the stored spin wave.

A write pulse stores its excitation in a collective mode of N atoms.  The
checks here test the bosonic character of that mode (vacuum norms and
commutators) at finite atom number; the photon/spin-wave pair it forms is
modeled in :mod:`dlczsim.predictor`.

The unpolarized initial mixture is a product of identical single-atom
states with no off-diagonal part, so every vacuum expectation of a
collective operator string factorizes into single-atom traces; nothing
here builds an operator on the N-atom space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import BranchingTable, HalfInt

__all__ = [
    "EnsembleModel",
    "mode_vacuum_overlap",
    "excited_commutator_deviation",
]


@dataclass(eq=False)
class EnsembleModel:
    """A cold cloud of N identical atoms with fixed positions.

    `delta_k` is the wave-vector mismatch imprinted on the stored spin wave
    (write minus signal); positions are in the same length units as 1/|k|.
    """

    n_atoms: int
    f_a: HalfInt
    f_b: HalfInt
    positions: np.ndarray
    delta_k: np.ndarray

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        self.f_a = HalfInt.of(self.f_a)
        self.f_b = HalfInt.of(self.f_b)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.shape != (self.n_atoms, 3):
            raise ValueError(
                f"positions must have shape ({self.n_atoms}, 3), got {self.positions.shape}"
            )
        self.delta_k = np.asarray(self.delta_k, dtype=float)
        if self.delta_k.shape != (3,):
            raise ValueError("delta_k must be a 3-vector")

    @classmethod
    def with_random_positions(
        cls, n_atoms, f_a, f_b, delta_k=(1.0, 0.5, 0.0), seed=0
    ) -> "EnsembleModel":
        """Atoms drawn uniformly from the cube [-10, 10]^3."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-10.0, 10.0, size=(n_atoms, 3))
        return cls(n_atoms, HalfInt.of(f_a), HalfInt.of(f_b), pos, np.asarray(delta_k, float))

    def ground_multiplicity(self) -> int:
        return self.f_a.twice + 1


def _check_sublevels(model: EnsembleModel, alpha: int, m: HalfInt) -> tuple:
    if alpha not in (-1, +1):
        raise ValueError(f"alpha must be -1 or +1, got {alpha}")
    tm = HalfInt.of(m).twice
    if abs(tm) > model.f_a.twice:
        raise ValueError(f"m={HalfInt(tm)} outside the f_a={model.f_a} manifold")
    tb = tm + 2 + 2 * alpha
    if abs(tb) > model.f_b.twice:
        raise ValueError(
            f"final projection {HalfInt(tb)} outside the f_b={model.f_b} manifold"
        )
    return ("a", tm), ("b", tb)


def _mode_weights(table: BranchingTable, model: EnsembleModel, alpha: int):
    """Normalized branching weights w_m = X_m(alpha)/sqrt(sum X^2)."""
    scheme = table.scheme
    if (scheme.f_a, scheme.f_b) != (model.f_a, model.f_b):
        raise ValueError(
            f"branching table is for (F_a, F_b) = ({scheme.f_a}, {scheme.f_b}), "
            f"the ensemble has ({model.f_a}, {model.f_b})"
        )
    norm_sq = table.sum_squares(alpha)
    if norm_sq == 0:
        raise ValueError(f"no allowed transition for helicity {alpha}")
    norm = math.sqrt(float(norm_sq))
    weights = {}
    for tm in range(-model.f_a.twice, model.f_a.twice + 2, 2):
        x = table.amplitude(HalfInt(tm), alpha)
        if x != 0.0:
            weights[tm] = x / norm
    return weights


def mode_vacuum_overlap(
    model: EnsembleModel, table: BranchingTable, alpha: int, alpha2: int
) -> complex:
    """<s_alpha s_alpha2^dag> in the vacuum, in closed form.

    With s_alpha^dag = g sum_m w_m(alpha) sum_mu c_mu |b, m+1+alpha><a, m|_mu,
    g^2 = (2f_a+1)/N and |c_mu| = 1, a term survives only if both factors
    move the same atom between the same a and b sublevels: terms on two
    different atoms pick up off-diagonal single-atom traces, which vanish
    in the unpolarized mixture, so the positions drop out.  Equal sublevels
    need alpha = alpha2, and each of the N atoms then gives
    p = tr(rho_1 |a><a|) = 1/(2f_a+1), so the overlap is
    delta_{alpha alpha2} g^2 N p sum_m w_m(alpha) w_m(alpha2).
    """
    w1 = _mode_weights(table, model, alpha)
    w2 = _mode_weights(table, model, alpha2)
    total = 0.0
    if alpha == alpha2:
        g_sq = model.ground_multiplicity() / model.n_atoms
        n_p = model.n_atoms * (1.0 / model.ground_multiplicity())
        # this factor order and the _mode_weights term order fix the rounding
        for tm, w in w1.items():
            total += g_sq * w * w2[tm] * n_p
    return complex(total)


def excited_commutator_deviation(model: EnsembleModel, alpha: int, m) -> float:
    """How far [s, s^dag] sits from the bosonic value on one excitation.

    Evaluates <s [s, s^dag] s^dag> / <s s^dag> in the unpolarized vacuum,
    the commutator's expectation in the normalized single-excitation state;
    for a bosonic mode this is exactly 1.  With s^dag = g sum_mu c_mu
    |b><a|_mu, g^2 = (2f_a+1)/N and |c_mu| = 1, the commutator is
    g^2 sum_mu Z_mu with Z = |a><a| - |b><b|.  Terms that move different
    atoms pick up off-diagonal single-atom traces, which vanish in the
    unpolarized mixture, so the positions drop out and the rest is single-
    atom traces against rho_1 = p = 1/(2f_a+1) on each ground sublevel.
    The norm is g^2 N p = 1; Z reads -1 on the excited atom and tr(rho_1 Z)
    = p on each of the N - 1 others, so the expectation is
    g^2 (-1 + (N-1) p) = 1 - (2f_a+2)/N, and the deviation (2f_a+2)/N,
    which integer true division rounds correctly.
    """
    _check_sublevels(model, alpha, HalfInt.of(m))
    return (model.f_a.twice + 2) / model.n_atoms
