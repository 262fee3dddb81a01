"""The stored photon/spin-wave pair as a 4x4 density matrix, as a test oracle.

The package computes the pair's outcome probabilities and its concurrence
in closed form (``predictor.pair_amplitudes``, ``simulator.joint_outcome_probs``
and ``predictor.concurrence``).  The tests rebuild both from the density
matrix on the basis (r|S-, r|S+, l|S-, l|S+).
"""

from __future__ import annotations

import numpy as np


def noisy_pair(eta: float, visibility: float) -> np.ndarray:
    """V|psi><psi| + (1 - V) I/4 for psi = cos(eta)|r, S-> + sin(eta)|l, S+>."""
    psi = np.array([np.cos(eta), 0.0, 0.0, np.sin(eta)])
    return visibility * np.outer(psi, psi) + (1.0 - visibility) * np.eye(4) / 4.0


def wootters_concurrence(rho: np.ndarray) -> float:
    """Wootters' concurrence (PRL 80, 2245 (1998)) of a two-qubit density matrix.

    max(0, l1 - l2 - l3 - l4) over the square roots l of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), in decreasing order.
    """
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    lams = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lams = np.sort(np.sqrt(np.clip(lams.real, 0.0, None)))
    return float(max(0.0, lams[-1] - lams[-2] - lams[-3] - lams[-4]))
