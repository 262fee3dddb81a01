"""Explicit collective operators on the truncated N-atom space, as a test oracle.

These constructions build d^N sparse matrices (d = 3 to 7 per-atom levels)
and trace them against the explicit product mixture.  Their cost grows
exponentially with N, so the package evaluates the same quantities by
per-atom factorized traces; the tests compare the two for small N.

Atom-level bases are truncated per atom to the sublevels an operator can
touch, plus one aggregate "other" level that carries the remaining ground
population, so the initial unpolarized mixture keeps unit trace.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

from dlczsim.angular import BranchingTable, HalfInt
from dlczsim.states import EnsembleModel, _check_sublevels, _mode_weights

# aggregate per-atom level holding all ground sublevels an operator ignores
OTHER_LEVEL = ("other", 0)

_MAX_DIM = 40_000_000


def single_operator_basis(model: EnsembleModel, alpha: int, m) -> tuple:
    """Minimal per-atom basis for one (alpha, m) operator: a, b, other."""
    a_lvl, b_lvl = _check_sublevels(model, alpha, HalfInt.of(m))
    return (a_lvl, b_lvl, OTHER_LEVEL)


def union_basis(model: EnsembleModel, pairs) -> tuple:
    """Per-atom basis covering several (alpha, m) operators at once."""
    a_levels, b_levels = set(), set()
    for alpha, m in pairs:
        a_lvl, b_lvl = _check_sublevels(model, alpha, HalfInt.of(m))
        a_levels.add(a_lvl)
        b_levels.add(b_lvl)
    ordered = sorted(a_levels, key=lambda lv: lv[1]) + sorted(b_levels, key=lambda lv: lv[1])
    return tuple(ordered) + (OTHER_LEVEL,)


def _guard_dimension(dim_per_atom: int, n_atoms: int) -> int:
    total = dim_per_atom**n_atoms
    if total > _MAX_DIM:
        raise ValueError(
            f"truncated space of dimension {dim_per_atom}^{n_atoms} is too large"
        )
    return total


def build_collective_operator(
    model: EnsembleModel, alpha: int, m, basis: tuple | None = None
) -> sp.csr_matrix:
    """Collective raising operator for helicity alpha out of sublevel m.

    Returns the sparse matrix of
    sqrt((2f_a+1)/N) * sum_mu exp(-i delta_k . r_mu) |b, m+1+alpha><a, m|_mu
    on the product of per-atom truncated bases (atom 0 is the most
    significant factor).
    """
    m = HalfInt.of(m)
    a_lvl, b_lvl = _check_sublevels(model, alpha, m)
    if basis is None:
        basis = single_operator_basis(model, alpha, m)
    if a_lvl not in basis or b_lvl not in basis:
        raise ValueError(f"basis {basis} does not contain {a_lvl} and {b_lvl}")
    d = len(basis)
    n = model.n_atoms
    total = _guard_dimension(d, n)
    a_idx, b_idx = basis.index(a_lvl), basis.index(b_lvl)

    g = math.sqrt(model.ground_multiplicity() / n)
    coeffs = g * model.phases()
    idx = np.arange(total, dtype=np.int64)
    rows, cols, vals = [], [], []
    for mu in range(n):
        place = d ** (n - 1 - mu)
        sel = idx[(idx // place) % d == a_idx]
        rows.append(sel + (b_idx - a_idx) * place)
        cols.append(sel)
        vals.append(np.full(sel.size, coeffs[mu]))
    op = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
        dtype=complex,
    )
    return op.tocsr()


def vacuum_populations(model: EnsembleModel, basis: tuple) -> np.ndarray:
    """Diagonal of the unpolarized initial mixture on the truncated basis.

    Every physical ground sublevel carries population 1/(2f_a+1); the
    aggregate "other" level absorbs whatever ground population the basis
    leaves out, so the product state has exactly unit trace.
    """
    mult = model.ground_multiplicity()
    n_ground = sum(1 for kind, _ in basis if kind == "a")
    if n_ground > mult:
        raise ValueError("basis lists more ground sublevels than the manifold has")
    single = np.zeros(len(basis))
    for k, (kind, _) in enumerate(basis):
        if kind == "a":
            single[k] = 1.0 / mult
        elif kind == "other":
            single[k] = (mult - n_ground) / mult
    _guard_dimension(len(basis), model.n_atoms)
    return reduce(np.kron, [single] * model.n_atoms)


def vacuum_pair_expectation(model: EnsembleModel, alpha: int, m, alpha2: int, m2) -> complex:
    """<s_alpha(m) s_alpha2(m2)^dag> in the unpolarized vacuum, explicitly.

    Both operators are materialized on a common truncated space and traced
    against the explicit product mixture.
    """
    basis = union_basis(model, [(alpha, HalfInt.of(m)), (alpha2, HalfInt.of(m2))])
    s1 = build_collective_operator(model, alpha, m, basis)
    s2 = build_collective_operator(model, alpha2, m2, basis)
    pops = vacuum_populations(model, basis)
    product = s1.getH() @ s2  # s1 built as raising operator; s = s1^dag
    return complex(pops @ product.diagonal())


def mode_basis(model: EnsembleModel, table: BranchingTable, alphas) -> tuple:
    """Union basis covering every sublevel the given helicity modes touch."""
    pairs = []
    for alpha in alphas:
        for tm in _mode_weights(table, model, alpha):
            pairs.append((alpha, HalfInt(tm)))
    return union_basis(model, pairs)


def normalized_mode_operator(
    model: EnsembleModel, table: BranchingTable, alpha: int, basis: tuple | None = None
) -> sp.csr_matrix:
    """Branching-weighted collective raising operator for one helicity.

    The weighted combination sum_m w_m s_alpha(m)^dag with sum w_m^2 = 1;
    its vacuum norm is 1 for any atom number and any positions.
    """
    weights = _mode_weights(table, model, alpha)
    if basis is None:
        basis = mode_basis(model, table, [alpha])
    op = None
    for tm, w in sorted(weights.items()):
        term = w * build_collective_operator(model, alpha, HalfInt(tm), basis)
        op = term if op is None else op + term
    return op.tocsr()


def explicit_commutator_deviation(model: EnsembleModel, alpha: int, m) -> float:
    """How far [s, s^dag] sits from the bosonic value on one excitation, explicitly.

    Builds the commutator on the truncated space and evaluates its
    expectation in the normalized single-excitation state created out of
    the unpolarized vacuum; for a bosonic mode this is exactly 1.
    """
    basis = single_operator_basis(model, alpha, HalfInt.of(m))
    raising = build_collective_operator(model, alpha, m, basis)
    lowering = raising.getH()
    commutator = lowering @ raising - raising @ lowering
    pops = vacuum_populations(model, basis)
    norm = (pops @ (lowering @ raising).diagonal()).real
    if norm <= 0:
        raise ValueError("vacuum does not couple to this operator")
    weighted = (pops @ (lowering @ (commutator @ raising)).diagonal()).real
    return abs(weighted / norm - 1.0)
