import numpy as np
import pytest

from tikm import measures, qmat, werner
from tikm.errors import DomainError, NegativeEigenvalueError, NotHermitianError

from oracles import random_density_matrix, random_pure_state, random_unitary


def test_pauli_coefficients_mixed_state():
    r = measures.pauli_coefficients(np.eye(4, dtype=complex) / 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(r - expected).max() <= 1e-15


def test_pauli_coefficients_singlet():
    r = measures.pauli_coefficients(qmat.projector(qmat.PSI_MINUS))
    assert abs(r[0, 0] - 1.0) <= 1e-15
    for a in (1, 2, 3):
        assert abs(r[a, a] - (-1.0)) <= 1e-14
    off = [abs(r[a, b]) for a in range(4) for b in range(4) if a != b]
    assert max(off) <= 1e-14


def test_pauli_coefficients_werner_diagonal():
    for f_s in (-0.7, -0.25, 0.0, 0.2):
        rho = werner.density_matrix(werner.from_correlation(f_s))
        r = measures.pauli_coefficients(rho)
        for a in (1, 2, 3):
            assert abs(r[a, a] - 4.0 * f_s / 3.0) <= 1e-14


def test_pauli_coefficients_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        measures.pauli_coefficients(np.triu(np.ones((4, 4))))


_STATE_FUNCTIONS = {
    "pauli_coefficients": measures.pauli_coefficients,
    "spin_correlation": measures.spin_correlation,
    "werner_residual": measures.werner_residual,
    "concurrence_wootters": measures.concurrence_wootters,
    "negativity_general": measures.negativity_general,
    "vn_entropy": qmat.vn_entropy,
    "check_density_matrix": qmat.check_density_matrix,
}


@pytest.mark.parametrize("name", list(_STATE_FUNCTIONS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entries", [((0, 1), (1, 0)), ((2, 2),), ((0, 1),), "all"], ids=["pair", "diagonal", "one", "all"])
def test_measures_refuse_a_non_finite_entry(name, bad, entries):
    # a NaN defect passed the Hermiticity, trace and PSD tests, since every
    # comparison with NaN is False: werner_residual read I/4 with a NaN pair
    # as 0.0, a perfect Werner state
    rho = np.eye(4, dtype=complex) / 4
    if entries == "all":
        rho[:] = bad
    for entry in entries if entries != "all" else ():
        rho[entry] = bad
    with pytest.raises(DomainError, match="non-finite entry"):
        _STATE_FUNCTIONS[name](rho)


def test_pauli_reconstruction_roundtrip():
    # rho = (1/4) sum_ab r[a, b] sigma_a x sigma_b
    products = np.array([[np.kron(pa, pb) for pb in qmat.PAULIS] for pa in qmat.PAULIS])
    rng = np.random.default_rng(21)
    for _ in range(25):
        rho = random_density_matrix(rng)
        rebuilt = np.einsum("ab,abij->ij", measures.pauli_coefficients(rho), products) / 4.0
        assert np.abs(rebuilt - rho).max() <= 1e-12


def test_pauli_coefficients_bounded():
    rng = np.random.default_rng(28)
    for _ in range(100):
        r = measures.pauli_coefficients(random_density_matrix(rng))
        assert abs(r[0, 0] - 1.0) <= 1e-12
        assert np.abs(r).max() <= 1.0 + 1e-10


def test_spin_correlation_reference_states():
    assert abs(measures.spin_correlation(qmat.projector(qmat.PSI_MINUS)) - (-0.75)) <= 1e-14
    triplets = werner.density_matrix(werner.from_fidelity(0.0))
    assert abs(measures.spin_correlation(triplets) - 0.25) <= 1e-14
    assert abs(measures.spin_correlation(np.eye(4, dtype=complex) / 4)) <= 1e-15


def test_spin_correlation_range_property():
    rng = np.random.default_rng(22)
    for _ in range(200):
        f_s = measures.spin_correlation(random_density_matrix(rng))
        assert -0.75 - 1e-10 <= f_s <= 0.25 + 1e-10


def test_werner_residual_zero_on_family():
    for f_s in np.linspace(-0.75, 0.25, 41):
        rho = werner.density_matrix(werner.from_correlation(float(f_s)))
        assert measures.werner_residual(rho) <= 1e-12


def test_werner_residual_phi_plus():
    # diagonal coefficients (1, -1, 1); the middle one sits 4/3 from the mean
    res = measures.werner_residual(qmat.projector(qmat.PHI_PLUS))
    assert abs(res - 4.0 / 3.0) <= 1e-14


def test_werner_residual_classical_correlations():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    res = measures.werner_residual(rho)
    assert abs(res - 2.0 / 3.0) <= 1e-14
    assert res > 0.1


def test_concurrence_wootters_reference_states():
    assert abs(measures.concurrence_wootters(qmat.projector(qmat.PHI_PLUS)) - 1.0) <= 1e-12
    rng = np.random.default_rng(23)
    for _ in range(10):
        prod = qmat.kron(random_density_matrix(rng, dim=2), random_density_matrix(rng, dim=2))
        assert measures.concurrence_wootters(prod) <= 1e-8


def test_concurrence_wootters_werner_cross_check():
    rho = werner.density_matrix(werner.from_fidelity(0.9))
    assert abs(measures.concurrence_wootters(rho) - 0.8) <= 1e-10
    rho = werner.density_matrix(werner.from_fidelity(0.75))
    assert abs(measures.concurrence_wootters(rho) - 0.5) <= 1e-10


def test_concurrence_wootters_errors():
    with pytest.raises(NotHermitianError):
        measures.concurrence_wootters(np.triu(np.ones((4, 4))))
    bad = np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex)
    with pytest.raises(NegativeEigenvalueError):
        measures.concurrence_wootters(bad)


def test_negativity_general_reference_states():
    rng = np.random.default_rng(24)
    prod = qmat.kron(random_density_matrix(rng, dim=2), random_density_matrix(rng, dim=2))
    assert measures.negativity_general(prod) <= 1e-12
    # transposed singlet spectrum is {1/2, 1/2, 1/2, -1/2}
    pt = qmat.partial_transpose(qmat.projector(qmat.PSI_MINUS), "B")
    assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)
    assert abs(measures.negativity_general(qmat.projector(qmat.PSI_MINUS)) - 1.0) <= 1e-12
    rho = werner.density_matrix(werner.from_fidelity(0.9))
    assert abs(measures.negativity_general(rho) - 0.8) <= 1e-12


def test_oracle_equivalence_on_werner_sample():
    rng = np.random.default_rng(25)
    for p_s in rng.uniform(0.0, 1.0, 100):
        rho = werner.density_matrix(werner.from_fidelity(float(p_s)))
        closed = max(2.0 * p_s - 1.0, 0.0)
        c = measures.concurrence_wootters(rho)
        n = measures.negativity_general(rho)
        assert abs(c - closed) <= 1e-10
        assert abs(n - c) <= 1e-10


def test_pure_state_measures_agree():
    rng = np.random.default_rng(26)
    for _ in range(200):
        rho = qmat.projector(random_pure_state(rng))
        c = measures.concurrence_wootters(rho)
        n = measures.negativity_general(rho)
        assert abs(c - n) <= 1e-9


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(27)
    for _ in range(25):
        rho = random_density_matrix(rng)
        u = qmat.kron(random_unitary(rng), random_unitary(rng))
        before = measures.concurrence_wootters(rho)
        after = measures.concurrence_wootters(u @ rho @ u.conj().T)
        assert abs(before - after) <= 1e-9
