"""Dense complex linear algebra for small spin Hilbert spaces.

Everything here acts on plain ``numpy`` arrays over spaces of dimension 2^n.
The two-qubit product basis is ordered {|up,up>, |up,down>, |down,up>,
|down,down>}; all Bell-state constants and partial operations follow that
convention.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, NegativeEigenvalueError, NotHermitianError

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


def hermiticity_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL, name: str = "matrix") -> np.ndarray:
    """The input as a square float (if real) or complex array, checked Hermitian within ``atol``."""
    m = np.asarray(m)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > atol:
        raise NotHermitianError(f"{name} deviates from Hermiticity by {defect:.3e} (atol {atol:.1e})")
    return m


def hermitian_eig(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and orthonormal eigenvector
    columns satisfying m = V diag(w) V+ to working precision.  A real
    symmetric input is solved in real arithmetic and gives real vectors.
    """
    m = require_hermitian(m, atol=atol)
    w, v = np.linalg.eigh(m)
    return Spectrum(values=w, vectors=v)


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix.

    Raises NotHermitianError, ValueError (trace) or NegativeEigenvalueError.
    Returns the input as a complex array.
    """
    rho = require_hermitian(np.asarray(rho, dtype=complex), name=name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name} has trace {tr}, expected 1 within {TRACE_ATOL:.1e}")
    w = np.linalg.eigvalsh(rho)
    if w[0] < PSD_FLOOR:
        raise NegativeEigenvalueError(f"{name} has eigenvalue {w[0]:.3e} below floor {PSD_FLOOR:.1e}")
    return rho


def _factor_dims(rho: np.ndarray, dims: Sequence[int] | None) -> tuple[int, ...]:
    n = rho.shape[0]
    if dims is None:
        if n == 4:
            return (2, 2)
        k = n.bit_length() - 1
        if 2**k != n:
            raise DimensionMismatchError(f"dimension {n} is not a power of two; pass dims explicitly")
        return (2,) * k
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != n:
        raise DimensionMismatchError(f"dims {dims} do not factor dimension {n}")
    return dims


def _subsystem_indices(which: object, nfactors: int) -> tuple[int, ...]:
    if isinstance(which, str):
        letters = {"A": 0, "B": 1}
        if which not in letters:
            raise DimensionMismatchError(f"unknown subsystem label {which!r}")
        idx: tuple[int, ...] = (letters[which],)
    elif isinstance(which, (int, np.integer)):
        idx = (int(which),)
    else:
        idx = tuple(int(i) for i in which)
    for i in idx:
        if not 0 <= i < nfactors:
            raise DimensionMismatchError(f"subsystem index {i} out of range for {nfactors} factors")
    if len(set(idx)) != len(idx):
        raise DimensionMismatchError("repeated subsystem index")
    return idx


def partial_trace(rho: np.ndarray, keep: object, dims: Sequence[int] | None = None) -> np.ndarray:
    """Trace out all tensor factors except ``keep``.

    ``keep`` is "A"/"B" for the two-qubit case, or an index / sequence of
    factor indices for a general product space described by ``dims``.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = _factor_dims(rho, dims)
    keep_idx = _subsystem_indices(keep, len(dims))
    n = len(dims)
    t = rho.reshape(dims + dims)
    bra = list(range(n))
    ket = [(i if i not in keep_idx else n + i) for i in range(n)]
    out = [i for i in keep_idx] + [n + i for i in keep_idx]
    reduced = np.einsum(t, bra + ket, out)
    d = int(np.prod([dims[i] for i in keep_idx]))
    return reduced.reshape(d, d)


def partial_transpose(rho: np.ndarray, subsystem: object = "B", dims: Sequence[int] | None = None) -> np.ndarray:
    """Transpose one tensor factor of a bipartite (or multipartite) operator."""
    rho = np.asarray(rho, dtype=complex)
    dims = _factor_dims(rho, dims)
    sub = _subsystem_indices(subsystem, len(dims))
    n = len(dims)
    t = rho.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in sub:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return t.transpose(axes).reshape(rho.shape)


def clamp_spectrum(w: np.ndarray, floor: float = PSD_FLOOR, name: str = "rho") -> np.ndarray:
    """Zero out round-off negatives; reject eigenvalues below the floor."""
    w = np.asarray(w, dtype=float)
    if w.min(initial=0.0) < floor:
        raise NegativeEigenvalueError(f"{name} has eigenvalue {w.min():.3e} below floor {floor:.1e}")
    return np.where(w < 0.0, 0.0, w)


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits, with 0*log(0) = 0."""
    rho = require_hermitian(rho, name="rho")
    w = clamp_spectrum(np.linalg.eigvalsh(rho))
    nz = w[w > 0.0]
    return float(-(nz * np.log2(nz)).sum())
