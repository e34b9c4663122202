import numpy as np
import pytest

from tikm import qmat, werner
from tikm.errors import DimensionMismatchError, NegativeEigenvalueError, NotHermitianError

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
    spec = qmat.hermitian_eig(m)
    assert np.allclose(spec.values, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_pure_singlet():
    rho = werner.density_matrix(werner.from_fidelity(1.0))
    spec = qmat.hermitian_eig(rho)
    assert np.allclose(spec.values, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        qmat.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_reconstruction_property():
    # reconstruction and orthonormality on random Hermitian inputs
    rng = np.random.default_rng(11)
    for dim in (4, 4, 4, 8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g + g.conj().T
        spec = qmat.hermitian_eig(m)
        rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
        assert np.abs(rebuilt - m).max() <= 1e-10
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(spec.values) >= 0.0)


def test_hermitian_eig_keeps_real_input_real():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    m = g + g.T
    real, cplx = qmat.hermitian_eig(m), qmat.hermitian_eig(m.astype(complex))
    assert real.vectors.dtype == np.float64 and cplx.vectors.dtype == np.complex128
    assert np.abs(real.values - cplx.values).max() <= 1e-12
    rebuilt = (real.vectors * real.values) @ real.vectors.T
    assert np.abs(rebuilt - m).max() <= 1e-12
    # the Hermiticity check and its tolerance do not depend on the dtype
    m[0, 1] += 1e-11
    for bad in (m, m.astype(complex)):
        with pytest.raises(NotHermitianError):
            qmat.hermitian_eig(bad)
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
