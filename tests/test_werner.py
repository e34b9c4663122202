import math

import numpy as np
import pytest

from tikm import qmat, werner
from tikm.errors import OutOfRangeError


def test_from_correlation_endpoints():
    assert werner.from_correlation(-0.75).p_s == 1.0
    assert werner.from_correlation(0.0).p_s == 0.25
    assert werner.from_correlation(0.25).p_s == 0.0


def test_from_correlation_range():
    with pytest.raises(OutOfRangeError):
        werner.from_correlation(0.3)
    with pytest.raises(OutOfRangeError):
        werner.from_correlation(-0.76)
    # round-off slack: clamped, not rejected
    assert werner.from_correlation(-0.75 - 1e-10).p_s == 1.0
    with pytest.raises(OutOfRangeError):
        werner.from_fidelity(1.0 + 1e-6)


def test_probability_relations():
    for f_s in np.linspace(-0.75, 0.25, 1001):
        w = werner.from_correlation(float(f_s))
        assert abs(w.p_s - (0.25 - f_s)) <= 1e-15
        assert abs(w.p_s + 3.0 * w.p_t - 1.0) <= 1e-12
        assert abs(3.0 * w.p_t - (0.75 + f_s)) <= 1e-12
        assert 0.0 <= w.p_s <= 1.0
        assert 0.0 <= w.p_t <= 1.0 / 3.0 + 1e-15


def test_density_matrix_pure_singlet():
    rho = werner.density_matrix(werner.from_fidelity(1.0))
    assert np.abs(rho - qmat.projector(qmat.PSI_MINUS)).max() <= 1e-15


def test_density_matrix_totally_mixed():
    rho = werner.density_matrix(werner.from_fidelity(0.25))
    assert np.abs(rho - np.eye(4) / 4).max() <= 1e-16


def test_density_matrix_triplet_mixture():
    rho = werner.density_matrix(werner.from_fidelity(0.0))
    for vec, weight in (
        (qmat.PSI_MINUS, 0.0),
        (qmat.PSI_PLUS, 1.0 / 3.0),
        (qmat.PHI_PLUS, 1.0 / 3.0),
        (qmat.PHI_MINUS, 1.0 / 3.0),
    ):
        overlap = float(np.real(vec.conj() @ rho @ vec))
        assert abs(overlap - weight) <= 1e-15


def test_density_matrix_fidelity_and_invariants():
    for p_s in np.linspace(0.0, 1.0, 101):
        rho = werner.density_matrix(werner.from_fidelity(float(p_s)))
        qmat.check_density_matrix(rho)
        fid = float(np.real(qmat.PSI_MINUS.conj() @ rho @ qmat.PSI_MINUS))
        assert abs(fid - p_s) <= 1e-12


def test_concurrence_closed_values():
    assert werner.concurrence_closed(werner.from_fidelity(1.0)) == 1.0
    assert werner.concurrence_closed(werner.from_fidelity(0.5)) == 0.0
    assert werner.concurrence_closed(werner.from_fidelity(0.75)) == 0.5


def test_concurrence_monotone():
    grid = np.linspace(0.0, 1.0, 401)
    vals = [werner.concurrence_closed(werner.from_fidelity(float(p))) for p in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_negativity_closed_values():
    assert werner.classify(werner.from_fidelity(1.0)).negativity == 1.0
    assert abs(werner.classify(werner.from_fidelity(0.9)).negativity - 0.8) <= 1e-15
    assert werner.classify(werner.from_fidelity(0.3)).negativity == 0.0


def test_closed_forms_identical_and_match_general_measures():
    from tikm import measures

    for f_s in np.arange(-0.75, 0.25 + 1e-9, 1e-3):
        w = werner.from_correlation(float(f_s))
        closed = werner.concurrence_closed(w)
        assert closed == werner.classify(w).negativity
        rho = werner.density_matrix(w)
        assert abs(measures.concurrence_wootters(rho) - closed) <= 1e-10
        assert abs(measures.negativity_general(rho) - closed) <= 1e-10


def test_pair_entropy_endpoints():
    assert werner.pair_entropy(werner.from_fidelity(1.0)) == 0.0
    assert werner.pair_entropy(werner.from_fidelity(0.25)) == 2.0
    assert abs(werner.pair_entropy(werner.from_fidelity(0.0)) - math.log2(3.0)) <= 1e-12


def test_pair_entropy_range_and_concavity():
    grid = np.linspace(0.0, 1.0, 501)
    vals = np.array([werner.pair_entropy(werner.from_fidelity(float(p))) for p in grid])
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)
    assert vals.max() == 2.0 and grid[vals.argmax()] == 0.25
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.all(second <= 1e-10)


def test_single_entropy_constant():
    for p_s in (0.0, 0.3, 0.5, 0.75, 1.0):
        rho = werner.density_matrix(werner.from_fidelity(p_s))
        for side in ("A", "B"):
            assert abs(qmat.vn_entropy(qmat.partial_trace(rho, side)) - 1.0) <= 1e-10


def test_classify_table_rows():
    strong = werner.classify(werner.from_correlation(-0.6))
    assert strong.entangled and strong.teleportation_useful and strong.chsh_violating
    mid = werner.classify(werner.from_correlation(-0.3))
    assert mid.entangled and mid.teleportation_useful and not mid.chsh_violating
    mixed = werner.classify(werner.from_correlation(0.0))
    assert not mixed.entangled and not mixed.teleportation_useful and not mixed.chsh_violating


def test_classify_boundaries():
    # separable at exactly p_s = 1/2, yet on the inclusive teleportation side
    edge = werner.classify(werner.from_fidelity(0.5))
    assert not edge.entangled and edge.teleportation_useful
    below = werner.classify(werner.from_fidelity(0.5 - 1e-9))
    assert not below.teleportation_useful
    chsh_edge = werner.classify(werner.from_fidelity(werner.CHSH_FIDELITY))
    assert not chsh_edge.chsh_violating
    chsh_above = werner.classify(werner.from_fidelity(werner.CHSH_FIDELITY + 1e-9))
    assert chsh_above.chsh_violating and chsh_above.entangled
    # threshold ordering: CHSH is the most stringent criterion
    assert werner.CHSH_FIDELITY > werner.TELEPORT_FIDELITY
    assert abs(werner.CHSH_CORRELATION - (-3.0 / (4.0 * math.sqrt(2.0)))) <= 1e-15


def test_classify_report_consistency():
    for f_s in np.linspace(-0.75, 0.25, 101):
        rep = werner.classify(werner.from_correlation(float(f_s)))
        assert rep.concurrence == rep.negativity
        assert abs(rep.prob_singlet + rep.prob_triplet - 1.0) <= 1e-12
        assert rep.single_entropy == 1.0
        # criteria are nested: CHSH violation => entangled => teleportation
        assert not rep.chsh_violating or rep.entangled
        assert not rep.entangled or rep.teleportation_useful


def test_critical_correlation():
    f_c = werner.CRITICAL_CORRELATION
    assert f_c == -0.25
    assert werner.concurrence_closed(werner.from_correlation(f_c)) == 0.0
    assert werner.from_correlation(f_c).p_s == 0.5
    assert werner.concurrence_closed(werner.from_correlation(f_c - 1e-6)) > 0.0
    # a single ulp at f = -1/4 is below the resolution of p_s near 1/2,
    # so the smallest correlation step that can move the measure is two ulps
    just_below = float(np.nextafter(np.nextafter(f_c, -1.0), -1.0))
    assert werner.concurrence_closed(werner.from_correlation(just_below)) > 0.0
    just_above = float(np.nextafter(0.5, 1.0))
    assert werner.concurrence_closed(werner.from_fidelity(just_above)) > 0.0
