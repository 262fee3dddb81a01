"""Photon/spin-wave two-qubit states and collective excitation operators.

The entangled resource produced by a write pulse is modeled two ways:

* as an abstract two-qubit density matrix on {photon helicity} x {spin-wave
  mode}, with a white-noise channel and concurrence for quantifying it, and
* as collective raising/lowering operators on N atoms, used to check the
  bosonic character (vacuum norms and commutators) of the stored
  excitation at finite atom number.

The unpolarized initial mixture is a product of identical single-atom
states with no off-diagonal part, so every vacuum expectation of a
collective operator string factorizes into single-atom traces; nothing
here builds an operator on the N-atom space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angular import BranchingTable, HalfInt

__all__ = [
    "STATE_BASIS",
    "TwoQubitState",
    "WaveVectors",
    "EnsembleModel",
    "ideal_state",
    "add_white_noise",
    "concurrence",
    "phase_match",
    "mode_vacuum_overlap",
    "excited_commutator_deviation",
]

STATE_BASIS = ("r|S-", "r|S+", "l|S-", "l|S+")

VALIDATION_TOL = 1e-12


@dataclass(eq=False)
class TwoQubitState:
    """Density matrix on the photon-helicity x spin-wave-mode qubit pair."""

    rho: np.ndarray
    basis: tuple = STATE_BASIS

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (4, 4):
            raise ValueError(f"rho must be 4x4, got {self.rho.shape}")

    def validate(self, tol: float = VALIDATION_TOL) -> None:
        """Raise if rho is not Hermitian, trace-one and PSD within tol."""
        if np.max(np.abs(self.rho - self.rho.conj().T)) > tol:
            raise ValueError("rho is not Hermitian")
        if abs(np.trace(self.rho).real - 1.0) > tol or abs(np.trace(self.rho).imag) > tol:
            raise ValueError(f"rho has trace {np.trace(self.rho)}, expected 1")
        lowest = np.linalg.eigvalsh(self.rho)[0]
        if lowest < -tol:
            raise ValueError(f"rho has negative eigenvalue {lowest}")

    def __eq__(self, other):
        return (
            isinstance(other, TwoQubitState)
            and self.basis == other.basis
            and np.array_equal(self.rho, other.rho)
        )


def ideal_state(eta: float) -> TwoQubitState:
    """Pure entangled state cos(eta)|r, S-> + sin(eta)|l, S+>."""
    if not 0.0 <= eta <= math.pi / 2:
        raise ValueError(f"eta must lie in [0, pi/2], got {eta}")
    psi = np.array([math.cos(eta), 0.0, 0.0, math.sin(eta)], dtype=complex)
    rho = np.outer(psi, psi.conj())
    rho /= np.trace(rho).real
    return TwoQubitState(rho)


def add_white_noise(state: TwoQubitState, visibility: float) -> TwoQubitState:
    """Mix the state with the maximally mixed one: V*rho + (1-V)*I/4."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    rho = visibility * state.rho + (1.0 - visibility) * np.eye(4) / 4.0
    return TwoQubitState(rho, state.basis)


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    rho = state.rho
    rho_tilde = flip @ rho.conj() @ flip
    lams = np.linalg.eigvals(rho @ rho_tilde)
    lams = np.sqrt(np.clip(lams.real, 0.0, None))
    lams.sort()
    return float(max(0.0, lams[-1] - lams[-2] - lams[-3] - lams[-4]))


@dataclass(eq=False)
class WaveVectors:
    """Wave vectors of the write, read and detected signal modes (rad/m)."""

    write: np.ndarray
    read: np.ndarray
    signal: np.ndarray

    def __post_init__(self):
        for name in ("write", "read", "signal"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
            setattr(self, name, v)


def phase_match(k: WaveVectors) -> np.ndarray:
    """Wave vector of the retrieved idler mode, k_w + k_r - k_s."""
    return k.write + k.read - k.signal


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
        cls, n_atoms, f_a, f_b, delta_k=(1.0, 0.5, 0.0), seed=0, extent=10.0
    ) -> "EnsembleModel":
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-extent, extent, size=(n_atoms, 3))
        return cls(n_atoms, HalfInt.of(f_a), HalfInt.of(f_b), pos, np.asarray(delta_k, float))

    def ground_multiplicity(self) -> int:
        return self.f_a.twice + 1

    def phases(self) -> np.ndarray:
        """exp(-i delta_k . r_mu) for every atom."""
        return np.exp(-1j * self.positions @ self.delta_k)


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
    """<s_alpha s_alpha2^dag> in the vacuum, by per-atom factorized trace.

    The N-atom trace of a two-atom operator string against a product state
    factorizes into single-atom traces, so this evaluates the same quantity
    as the explicit construction at a cost independent of 2^N, which keeps
    large-N checks exact.  Cross terms between different atoms pick up the
    off-diagonal single-atom traces (identically zero in the unpolarized
    mixture) times the position-phase structure factor.
    """
    w1 = _mode_weights(table, model, alpha)
    w2 = _mode_weights(table, model, alpha2)
    mult = model.ground_multiplicity()
    dim = mult + model.f_b.twice + 1

    def a_slot(tm):
        return (tm + model.f_a.twice) // 2

    def b_slot(tb):
        return mult + (tb + model.f_b.twice) // 2

    rho1 = np.zeros((dim, dim))
    rho1[np.arange(mult), np.arange(mult)] = 1.0 / mult

    phases = model.phases()
    structure = abs(np.sum(phases.conj())) ** 2 - model.n_atoms

    total = 0.0 + 0.0j
    g_sq = mult / model.n_atoms
    for tm, wa in w1.items():
        lower = np.zeros((dim, dim))  # s-side single-atom factor |a,m><b|
        lower[a_slot(tm), b_slot(tm + 2 + 2 * alpha)] = 1.0
        for tm2, wb in w2.items():
            raise_ = np.zeros((dim, dim))  # s^dag-side factor |b'><a,m'|
            raise_[b_slot(tm2 + 2 + 2 * alpha2), a_slot(tm2)] = 1.0
            same_atom = np.trace(rho1 @ lower @ raise_)
            cross_atoms = np.trace(rho1 @ lower) * np.trace(rho1 @ raise_)
            total += g_sq * wa * wb * (
                model.n_atoms * same_atom + structure * cross_atoms
            )
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
    atom traces against rho_1 = 1/(2f_a+1) on each ground sublevel.  The
    arithmetic is exact, so the result is (2f_a+2)/N correctly rounded.
    """
    _check_sublevels(model, alpha, HalfInt.of(m))
    n = model.n_atoms
    p = Fraction(1, model.ground_multiplicity())  # tr(rho_1 |a><a|) = tr(rho_1 Z)
    g_sq = Fraction(model.ground_multiplicity(), n)
    norm = g_sq * n * p  # N terms tr(rho_1 |a><b| |b><a|)
    if norm <= 0:
        raise ValueError("vacuum does not couple to this operator")
    # Z on the excited atom reads -1; on each of the N-1 others it reads tr(rho_1 Z)
    weighted = g_sq**2 * (n * -p + n * (n - 1) * p * p)
    return float(abs(weighted / norm - 1))
