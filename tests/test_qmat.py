import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikm import qmat, werner
from tikm.errors import DimensionMismatchError, DomainError, NegativeEigenvalueError, NotHermitianError

from oracles import random_density_matrix, random_pure_state, random_unitary


def test_kron_identity():
    assert np.array_equal(qmat.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal_product():
    out = qmat.kron(qmat.SIGMA_Z, qmat.SIGMA_Z)
    assert np.array_equal(out, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_kron_index_layout():
    out = qmat.kron(qmat.SIGMA_X, qmat.SIGMA_Y)
    assert out[0, 3] == -1.0j
    assert out[3, 0] == 1.0j
    assert out[0, 0] == 0.0


@pytest.mark.parametrize("m", [qmat.SIGMA_Z, qmat.SIGMA_X])
def test_hermitian_eig_pauli(m):
    spec = qmat.hermitian_eig(m, len(m))
    assert np.allclose(spec.values, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_pure_singlet():
    rho = werner.density_matrix(werner.from_fidelity(1.0))
    spec = qmat.hermitian_eig(rho, len(rho))
    assert np.allclose(spec.values, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        qmat.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)


def test_hermitian_eig_reconstruction_property():
    # reconstruction and orthonormality on random Hermitian inputs
    rng = np.random.default_rng(11)
    for dim in (4, 4, 4, 8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g + g.conj().T
        spec = qmat.hermitian_eig(m, dim)
        rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
        assert np.abs(rebuilt - m).max() <= 1e-10
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(spec.values) >= 0.0)


@st.composite
def _hermitian_matrices(draw):
    """Random real or complex Hermitian n x n matrices, n <= 12, some with repeated eigenvalues, at three scales."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        # V diag(w) V+ with w drawn from three levels, so most levels repeat
        q = np.linalg.qr(g)[0]
        m = (q * rng.integers(-1, 2, n)) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
    else:
        m = g + g.conj().T
    return m * draw(st.sampled_from((1e-3, 1.0, 1e3))), draw(st.integers(1, n + 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_hermitian_matrices())
def test_lowest_eigenpairs_match_the_full_decomposition(case):
    m, k = case
    full = qmat.Spectrum(*np.linalg.eigh(m))
    low = qmat.hermitian_eig(m, lowest=k)
    n = len(m)
    assert low.values.shape == (min(k, n),) and low.vectors.shape == (n, min(k, n))
    assert low.vectors.dtype == full.vectors.dtype
    scale = max(1.0, np.linalg.norm(m, 2))
    assert np.abs(low.values - full.values[:k]).max() <= 1e-12 * scale
    gram = low.vectors.conj().T @ low.vectors
    assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12
    for i, w in enumerate(low.values):
        others = np.delete(full.values, i)
        if len(others) and np.abs(others - w).min() < 1e-4 * scale:
            continue  # a repeated or close level: its vector is not unique
        overlap = np.vdot(full.vectors[:, i], low.vectors[:, i])
        # the two vectors agree up to a phase
        assert np.linalg.norm(low.vectors[:, i] - overlap / abs(overlap) * full.vectors[:, i]) <= 1e-9


def test_lowest_eigenpairs_refuse_a_nan_entry_and_a_bad_count():
    m = np.eye(4)
    m[1, 2] = m[2, 1] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        qmat.hermitian_eig(m, lowest=2)
    with pytest.raises(TypeError):
        qmat.hermitian_eig(np.eye(4), lowest=2.5)
    for k in (0, -1):
        with pytest.raises(ValueError):
            qmat.hermitian_eig(np.eye(4), lowest=k)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("where", [(1, 2), (1, 1)], ids=["off-diagonal", "diagonal"])
def test_hermitian_eig_refuses_a_nan_entry_on_the_full_path(dtype, where):
    # a NaN defect compares False with the tolerance, and numpy's full
    # spectrum of I/4 with a NaN pair came back as [nan, nan, 0.25, 0.25]
    m = np.eye(4, dtype=dtype) / 4
    m[where] = m[where[::-1]] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        qmat.hermitian_eig(m, len(m))
    with pytest.raises(DomainError, match="non-finite"):
        qmat.require_hermitian(m)


def test_hermitian_eig_keeps_real_input_real():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    m = g + g.T
    real, cplx = qmat.hermitian_eig(m, 6), qmat.hermitian_eig(m.astype(complex), 6)
    assert real.vectors.dtype == np.float64 and cplx.vectors.dtype == np.complex128
    assert np.abs(real.values - cplx.values).max() <= 1e-12
    rebuilt = (real.vectors * real.values) @ real.vectors.T
    assert np.abs(rebuilt - m).max() <= 1e-12
    # the Hermiticity check and its tolerance do not depend on the dtype
    m[0, 1] += 1e-11
    for bad in (m, m.astype(complex)):
        with pytest.raises(NotHermitianError):
            qmat.hermitian_eig(bad, 6)
    # a density matrix is still handed back complex
    assert qmat.check_density_matrix(np.eye(4) / 4).dtype == np.complex128


def test_partial_trace_singlet_marginal():
    rho = qmat.projector(qmat.PSI_MINUS)
    assert np.abs(qmat.partial_trace(rho, "A") - np.eye(2) / 2).max() <= 1e-14
    assert np.abs(qmat.partial_trace(rho, "B") - np.eye(2) / 2).max() <= 1e-14


def test_partial_trace_product_state():
    rng = np.random.default_rng(12)
    for _ in range(20):
        rho_a = random_density_matrix(rng, dim=2)
        rho_b = random_density_matrix(rng, dim=2)
        prod = qmat.kron(rho_a, rho_b)
        assert np.abs(qmat.partial_trace(prod, "A") - rho_a).max() <= 1e-12
        assert np.abs(qmat.partial_trace(prod, "B") - rho_b).max() <= 1e-12


def test_partial_trace_werner_marginal():
    rho = werner.density_matrix(werner.from_fidelity(0.7))
    assert np.abs(qmat.partial_trace(rho, "B") - np.eye(2) / 2).max() <= 1e-14


def test_partial_trace_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        qmat.partial_trace(np.eye(4) / 4, "C")
    with pytest.raises(DimensionMismatchError):
        qmat.partial_trace(np.eye(6) / 6, "A")


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(14)
    rho = qmat.kron(random_density_matrix(rng, dim=2), random_density_matrix(rng, dim=2))
    w = np.linalg.eigvalsh(qmat.partial_transpose(rho, "B"))
    assert w.min() >= -1e-10


def test_partial_transpose_singlet_min_eigenvalue():
    # dense eigensolve of the transposed projector
    pt = qmat.partial_transpose(qmat.projector(qmat.PSI_MINUS), "B")
    w = np.linalg.eigvalsh(pt)
    assert abs(w.min() - (-0.5)) <= 1e-14
    assert np.abs(pt - pt.conj().T).max() == 0.0


def test_partial_transpose_ppt_boundary():
    rho = werner.density_matrix(werner.from_fidelity(0.5))
    w = np.linalg.eigvalsh(qmat.partial_transpose(rho, "B"))
    assert abs(w.min()) <= 1e-12


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(15)
    rho = random_density_matrix(rng, dim=4)
    out = qmat.partial_transpose(qmat.partial_transpose(rho, "B"), "B")
    assert np.array_equal(out, rho.astype(complex))
    out_a = qmat.partial_transpose(qmat.partial_transpose(rho, "A"), "A")
    assert np.array_equal(out_a, rho.astype(complex))


def test_vn_entropy_pure_states():
    rng = np.random.default_rng(16)
    for _ in range(10):
        rho = qmat.projector(random_pure_state(rng, dim=4))
        assert qmat.vn_entropy(rho) <= 1e-10


def test_vn_entropy_maximally_mixed():
    assert abs(qmat.vn_entropy(np.eye(4) / 4) - 2.0) <= 1e-12


def test_vn_entropy_werner_maximum():
    rho = werner.density_matrix(werner.from_fidelity(0.25))
    assert abs(qmat.vn_entropy(rho) - 2.0) <= 1e-12


def test_vn_entropy_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density_matrix(rng, dim=4)
        u = random_unitary(rng, dim=4)
        s0 = qmat.vn_entropy(rho)
        s1 = qmat.vn_entropy(u @ rho @ u.conj().T)
        assert abs(s0 - s1) <= 1e-9


def test_vn_entropy_clamps_roundoff_but_rejects_negative():
    rho = np.diag([1.0 - 5e-11 - 0.5, 0.5, 0.0, -5e-11]).astype(complex)
    qmat.vn_entropy(rho)  # within the clamp window
    bad = np.diag([1.0 + 1e-6, 0.0, 0.0, -1e-6]).astype(complex)
    with pytest.raises(NegativeEigenvalueError):
        qmat.vn_entropy(bad)


def test_check_density_matrix_errors():
    with pytest.raises(NotHermitianError):
        qmat.check_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        qmat.check_density_matrix(np.eye(4))  # trace 4
