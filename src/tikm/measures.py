"""General two-qubit entanglement measures and Pauli-basis correlations.

These routines take an arbitrary 4x4 density matrix and make no symmetry
assumptions, so they double as independent oracles for the closed forms in
:mod:`tikm.werner` and as the analysis backend for simulator output.
"""

from __future__ import annotations

import numpy as np

from . import qmat
from .errors import NotHermitianError

_IMAG_ATOL = 1e-10

# all sixteen sigma_a x sigma_b products, indexed [a, b], built once
_PAULI_KRON = np.array([[np.kron(pa, pb) for pb in qmat.PAULIS] for pa in qmat.PAULIS])


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Correlation matrix r[a, b] = Tr((sigma_a x sigma_b) rho).

    Index order is 0 = identity, then x, y, z.  For a Hermitian input every
    coefficient is real; r[0, 0] equals the trace.  A NaN or infinite entry
    raises DomainError.
    """
    rho = qmat.require_hermitian(rho, name="rho")
    if rho.shape != (4, 4):
        raise qmat.DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    vals = np.einsum("abij,ji->ab", _PAULI_KRON, rho)
    worst = float(np.abs(vals.imag).max())
    if worst > _IMAG_ATOL:
        raise NotHermitianError(f"Pauli coefficients have imaginary part up to {worst:.3e}")
    return vals.real.copy()


def spin_correlation(rho: np.ndarray) -> float:
    """f_s = <S_A . S_B> = (r_xx + r_yy + r_zz) / 4."""
    r = pauli_coefficients(rho)
    return float((r[1, 1] + r[2, 2] + r[3, 3]) / 4.0)


def werner_residual(rho: np.ndarray) -> float:
    """Distance of a state from the rotation-invariant (Werner) form.

    Zero iff the only nonzero coefficients are r_00 and three equal diagonal
    entries r_xx = r_yy = r_zz.  Returns the larger of the largest stray
    coefficient and the largest deviation of a diagonal entry from the
    diagonal mean.
    """
    r = pauli_coefficients(rho)
    stray = 0.0
    for a in range(4):
        for b in range(4):
            if (a, b) != (0, 0) and a != b:
                stray = max(stray, abs(r[a, b]))
    diag = np.array([r[1, 1], r[2, 2], r[3, 3]])
    spread = float(np.abs(diag - diag.mean()).max())
    return float(max(stray, spread))


def concurrence_wootters(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit state via the spin-flip construction.

    With rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y) and l_i the
    descending square roots of the eigenvalues of rho rho~, the concurrence
    is max{0, l1 - l2 - l3 - l4}.  Complex conjugation is taken in the
    computational basis fixed in :mod:`tikm.qmat`.

    The l_i are evaluated as the singular values of X^T (sigma_y x sigma_y) X
    with rho = X X+, which is the same spectrum computed without squaring,
    so rank-deficient (e.g. pure) states lose no precision.
    """
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise qmat.DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    yy = qmat.kron(qmat.SIGMA_Y, qmat.SIGMA_Y).real
    w, v = np.linalg.eigh(rho)
    x = v * np.sqrt(qmat.clamp_spectrum(w))
    vals = np.linalg.svd(x.T @ yy @ x, compute_uv=False)
    return max(0.0, float(vals[0] - vals[1] - vals[2] - vals[3]))


def negativity_general(rho: np.ndarray) -> float:
    """Negativity as trace norm of the partial transpose minus one.

    For two qubits this equals 2 max{0, -min eig(rho^T_B)} and ranges from
    zero (PPT states) to one (maximally entangled states).
    """
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise qmat.DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    w = np.linalg.eigvalsh(qmat.partial_transpose(rho, "B"))
    return max(0.0, float(np.abs(w).sum() - 1.0))
