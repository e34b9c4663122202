"""Dense complex linear algebra for small spin Hilbert spaces.

Everything here acts on plain ``numpy`` arrays.  The Hermitian checks and
eigensolver take any square matrix; the partial trace and partial transpose
are two-qubit only: they take a 4x4 operator and the label "A" or "B" of one
qubit.  The two-qubit product basis is ordered {|up,up>, |up,down>,
|down,up>, |down,down>}; all Bell-state constants and partial operations
follow that convention.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, DomainError, NegativeEigenvalueError, NotHermitianError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

_SQRT_HALF = 1.0 / np.sqrt(2.0)
PSI_MINUS = np.array([0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], dtype=complex)
PSI_PLUS = np.array([0.0, _SQRT_HALF, _SQRT_HALF, 0.0], dtype=complex)
PHI_PLUS = np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=complex)
PHI_MINUS = np.array([_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF], dtype=complex)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
#: Eigenvalues in [PSD_FLOOR, 0) are treated as round-off and clamped to zero;
#: anything below PSD_FLOOR is a genuinely invalid state.
PSD_FLOOR = -1e-10


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with out[i*nb + k, j*mb + l] = a[i, j] * b[k, l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a (not necessarily normalized) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The input as an array, refused with DomainError if an entry is NaN or infinite.

    The tolerance tests that follow read a NaN as passing, since every
    comparison with it is False.
    """
    m = np.asarray(m)
    if not np.isfinite(m).all():
        raise DomainError(f"{name} has a non-finite entry")
    return m


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The input as a square float (if real) or complex array, checked finite (``require_finite``) and Hermitian within HERMITICITY_ATOL."""
    m = require_finite(m, name=name)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITICITY_ATOL:
        raise NotHermitianError(f"{name} deviates from Hermiticity by {defect:.3e} (atol {HERMITICITY_ATOL:.1e})")
    return m


def hermitian_eig(m: np.ndarray, lowest: int) -> Spectrum:
    """The min(``lowest``, n) lowest eigenpairs of a Hermitian matrix.

    Returns eigenvalues in ascending order and orthonormal eigenvector
    columns, from LAPACK's ?syevr/?heevr driver (Dhillon, Parlett & Voemel,
    ACM TOMS 32, 533 (2006)) through ``scipy.linalg.eigh``, which skips the
    rest of the spectrum.  A real symmetric input is solved in real
    arithmetic and gives real vectors.  ``scipy.linalg`` is imported only
    here, so a process that never solves does not load it.
    """
    m = require_hermitian(m)
    from scipy.linalg import eigh

    k = min(index(lowest), len(m))
    w, v = eigh(m, subset_by_index=[0, k - 1], check_finite=False)
    if len(w) < k:
        raise np.linalg.LinAlgError(f"found {len(w)} of the {k} lowest eigenpairs")
    return Spectrum(values=w, vectors=v)


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace and positivity of a density matrix.

    Raises DomainError (a NaN or infinite entry), NotHermitianError,
    ValueError (trace) or NegativeEigenvalueError.  Returns the input as a
    complex array.
    """
    rho = require_hermitian(np.asarray(rho, dtype=complex), name=name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name} has trace {tr}, expected 1 within {TRACE_ATOL:.1e}")
    w = np.linalg.eigvalsh(rho)
    if w[0] < PSD_FLOOR:
        raise NegativeEigenvalueError(f"{name} has eigenvalue {w[0]:.3e} below floor {PSD_FLOOR:.1e}")
    return rho


def _two_qubit(rho: np.ndarray, label: object) -> np.ndarray:
    """A 4x4 operator as the tensor t[a, b, a', b'] = rho[2a + b, 2a' + b'], checked with its label."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 two-qubit operator, got shape {rho.shape}")
    if label not in ("A", "B"):
        raise DimensionMismatchError(f"unknown subsystem label {label!r}")
    return rho.reshape(2, 2, 2, 2)


def partial_trace(rho: np.ndarray, keep: object) -> np.ndarray:
    """The 2x2 marginal of qubit ``keep`` ("A" or "B") of a 4x4 operator."""
    t = _two_qubit(rho, keep)
    return np.einsum("abcb->ac", t) if keep == "A" else np.einsum("abad->bd", t)


def partial_transpose(rho: np.ndarray, subsystem: object = "B") -> np.ndarray:
    """Transpose qubit ``subsystem`` ("A" or "B") of a 4x4 operator."""
    t = _two_qubit(rho, subsystem)
    axes = (2, 1, 0, 3) if subsystem == "A" else (0, 3, 2, 1)
    return t.transpose(axes).reshape(4, 4)


def clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out round-off negatives of a spectrum; reject eigenvalues below PSD_FLOOR."""
    w = np.asarray(w, dtype=float)
    if w.min(initial=0.0) < PSD_FLOOR:
        raise NegativeEigenvalueError(f"rho has eigenvalue {w.min():.3e} below floor {PSD_FLOOR:.1e}")
    return np.where(w < 0.0, 0.0, w)


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits, with 0*log(0) = 0; DomainError for a non-finite entry."""
    rho = require_hermitian(rho, name="rho")
    w = clamp_spectrum(np.linalg.eigvalsh(rho))
    nz = w[w > 0.0]
    return float(-(nz * np.log2(nz)).sum())
