import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from tikm import kondo_sim as ks
from tikm import measures, qmat, werner
from tikm.errors import (
    DegenerateGroundError,
    EmptySectorError,
    NoBracketError,
    NonMonotoneError,
    NotConvergedError,
    TikmError,
)

from oracles import (
    enumerate_sector,
    full_space_ground,
    loop_basis_codes,
    loop_hamiltonian,
    reflection_map,
    sdots_expectation,
    tight_binding_energy,
)


# ---------------------------------------------------------------- model


def test_model_defaults_even_chain():
    m = ks.ChainModel(sites=4)
    assert (m.xa, m.xb) == (1, 2)
    assert (m.nup, m.ndn) == (2, 2)
    assert m.xa + m.xb == m.sites - 1


def test_model_defaults_small_chains():
    assert (ks.ChainModel(sites=1, nup=0, ndn=0).xa, ks.ChainModel(sites=1, nup=0, ndn=0).xb) == (0, 0)
    m3 = ks.ChainModel(sites=3)
    assert (m3.xa, m3.xb) == (0, 2)


def test_model_validation():
    with pytest.raises(ValueError):
        ks.ChainModel(sites=0)
    with pytest.raises(ValueError):
        ks.ChainModel(sites=ks.MAX_SITES + 1)
    with pytest.raises(ValueError):
        ks.ChainModel(sites=4, xa=3, xb=1)
    with pytest.raises(ValueError):
        ks.ChainModel(sites=4, xa=1, xb=4)
    with pytest.raises(ValueError):
        ks.ChainModel(sites=4, jk=-0.2)
    with pytest.raises(ValueError):
        ks.ChainModel(sites=2, nup=3, ndn=0)


@pytest.mark.parametrize("field", ["hopping", "jk", "idirect"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_couplings(field, value):
    with pytest.raises(ValueError, match="finite"):
        ks.ChainModel(sites=4, **{field: value})


@pytest.mark.parametrize("field", ["hopping", "jk", "idirect"])
@pytest.mark.parametrize("value", [True, "0.5", 1 + 0j, None])
def test_model_rejects_non_real_couplings(field, value):
    with pytest.raises(ValueError, match="must be a real number"):
        ks.ChainModel(sites=4, **{field: value})


def test_model_accepts_int_and_numpy_couplings():
    m = ks.ChainModel(sites=4, hopping=1, jk=np.float64(0.5), idirect=np.int64(-1))
    assert m.analyze().f_s == ks.ChainModel(sites=4, hopping=1.0, jk=0.5, idirect=-1.0).analyze().f_s


@pytest.mark.parametrize(
    "fields",
    [
        {"sites": 4.0},
        {"sites": True},
        {"xa": 1.0, "xb": 2},
        {"xa": 1, "xb": np.float64(2.0)},
        {"xa": False, "xb": 2},
        {"nup": 2.0},
        {"ndn": True},
    ],
)
def test_model_rejects_non_integer_counts(fields):
    # refused up front: a float count fails later, inside the basis
    # enumeration, with a TypeError that a sweep's per-point capture misses
    with pytest.raises(ValueError, match="must be an integer"):
        ks.ChainModel(**{"sites": 4, **fields})


# ---------------------------------------------------------------- basis


def test_basis_count_small_chain():
    m = ks.ChainModel(sites=2, nup=1, ndn=1)
    assert ks.build_basis(m, 0).dim == 10


def test_basis_count_no_electrons():
    m = ks.ChainModel(sites=1, nup=0, ndn=0)
    basis = ks.build_basis(m, 0)
    assert basis.dim == 2
    # impurity configurations up-down and down-up
    assert sorted(basis.codes >> basis.n_orbitals) == [1, 2]


def test_basis_count_matches_enumeration_oracle():
    m = ks.ChainModel(sites=4)
    assert ks.build_basis(m, 0).dim == enumerate_sector(4, 4, 0)
    assert ks.build_basis(m, 1).dim == enumerate_sector(4, 4, 2)
    m3 = ks.ChainModel(sites=3, nup=2, ndn=1)
    assert ks.build_basis(m3, 0.5).dim == enumerate_sector(3, 3, 1)


def test_basis_sorted_and_unique():
    basis = ks.build_basis(ks.ChainModel(sites=4), 0)
    assert np.all(np.diff(basis.codes) > 0)


def test_basis_empty_sector():
    with pytest.raises(EmptySectorError):
        ks.build_basis(ks.ChainModel(sites=2, nup=1, ndn=0), 0)  # parity mismatch
    with pytest.raises(EmptySectorError):
        ks.build_basis(ks.ChainModel(sites=2, nup=1, ndn=1), 4)  # unreachable S^z


@pytest.mark.parametrize("sites", range(1, 7))
def test_basis_matches_itertools_reference(sites):
    # every electron number and every 2*S^z, including parity mismatches and
    # unreachable values, which must raise instead of returning an empty basis
    for nelec in range(2 * sites + 1):
        m = ks.ChainModel(sites=sites, nup=min(nelec, sites), ndn=nelec - min(nelec, sites))
        for sz2 in range(-nelec - 3, nelec + 4):
            ref = loop_basis_codes(sites, nelec, sz2)
            if not ref:
                with pytest.raises(EmptySectorError):
                    ks.build_basis(m, sz2 / 2)
                continue
            basis = ks.build_basis(m, sz2 / 2)
            assert basis.codes.dtype == np.int64
            assert basis.codes.tolist() == ref
            assert (basis.sites, basis.nelec, basis.sz2) == (sites, nelec, sz2)


def test_basis_sz_validation():
    with pytest.raises(ValueError):
        ks.build_basis(ks.ChainModel(sites=2), 0.3)
    for sz in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="sz_total must be finite"):
            ks.build_basis(ks.ChainModel(sites=2), sz)


# ---------------------------------------------------------------- hamiltonian


def _hermiticity_defect(h):
    return np.abs((h - h.T)).max() if h.nnz else 0.0


@pytest.mark.parametrize(
    "model,sz",
    [
        (ks.ChainModel(sites=2, jk=0.7), 0),
        (ks.ChainModel(sites=3, nup=2, ndn=1, jk=0.5, idirect=0.3), 0.5),
        (ks.ChainModel(sites=4, jk=1.0, idirect=-0.4), 0),
        (ks.ChainModel(sites=4, jk=0.6, xa=0, xb=3), 1),
    ],
)
def test_hamiltonian_exactly_symmetric(model, sz):
    basis = ks.build_basis(model, sz)
    h = ks.build_hamiltonian(model, basis)
    assert _hermiticity_defect(h) == 0.0


#: (hopping, jk, idirect) sets, with every coupling zero in some set.
_EQUIVALENCE_COUPLINGS = (
    (1.0, 0.7, 0.3),
    (1.0, 0.0, -0.4),
    (0.0, 1.3, 0.0),
    (1.0, 0.9, 0.0),
    (0.0, 0.0, 0.8),
    (0.6, 2.1, -1.7),
)


def _equivalence_cases(sites):
    """(model, sz_total) pairs for the builder equivalence test.

    Up to 6 sites: every placement, at half and off-half filling, in the
    natural S^z sector and the one above it.  At 7 sites every placement
    takes one of those four.  At 8 sites the centered, end-to-end and
    shared-site placements.  The coupling set cycles through
    _EQUIVALENCE_COUPLINGS.
    """
    half = sites // 2
    variants = [(nup, ndn, raised) for nup, ndn in ((half, half), (min(half + 1, sites), half)) for raised in (0, 1)]
    if sites <= 7:
        placements = [(xa, xb) for xa in range(sites) for xb in range(xa, sites)]
    else:
        placements = [(half - 1, half), (0, sites - 1), (half, half)]
    cases = []
    for k, (xa, xb) in enumerate(placements):
        chosen = variants if sites <= 6 else [variants[k % len(variants)]]
        for nup, ndn, raised in chosen:
            t, jk, idirect = _EQUIVALENCE_COUPLINGS[len(cases) % len(_EQUIVALENCE_COUPLINGS)]
            m = ks.ChainModel(sites=sites, hopping=t, jk=jk, idirect=idirect, xa=xa, xb=xb, nup=nup, ndn=ndn)
            cases.append((m, m.default_sz2() / 2 + raised))
    return cases


@pytest.mark.parametrize("sites", range(1, 9))
def test_hamiltonian_equals_loop_reference(sites):
    # the vectorized builder must reproduce the state-by-state loop bit for bit,
    # so that every solver output downstream is unchanged
    built = 0
    for m, sz in _equivalence_cases(sites):
        try:
            basis = ks.build_basis(m, sz)
        except EmptySectorError:
            continue
        h = ks.build_hamiltonian(m, basis)
        ref = loop_hamiltonian(m, basis.codes)
        assert h.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            got, want = getattr(h, part), getattr(ref, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, sz, part)
        built += 1
    assert built >= 3


def test_hamiltonian_build_peak_is_bounded():
    import tracemalloc

    m = ks.ChainModel(sites=8, jk=0.5)
    basis = ks.build_basis(m)
    tracemalloc.start()
    try:
        h = ks.build_hamiltonian(m, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (h.data.nbytes + h.indices.nbytes + h.indptr.nbytes)


def test_hamiltonian_term_leaving_sector_raises():
    m = ks.ChainModel(sites=4, jk=0.5, idirect=0.3)
    basis = ks.build_basis(m)
    for k in (0, basis.dim // 2, basis.dim - 1):
        holed = replace(basis, codes=np.delete(basis.codes, k))
        with pytest.raises(TikmError, match="leaves the symmetry sector"):
            ks.build_hamiltonian(m, holed)


def test_free_fermion_ground_energy():
    # decoupled impurities: chain energy is the filled tight-binding sum
    for sites, nup, ndn in ((2, 1, 1), (3, 2, 1), (4, 2, 2), (4, 1, 1)):
        m = ks.ChainModel(sites=sites, jk=0.0, nup=nup, ndn=ndn)
        g = ks.ground_state(ks.build_hamiltonian(m, ks.build_basis(m)))
        assert abs(g.energy - tight_binding_energy(sites, 1.0, nup, ndn)) <= 1e-10
        assert g.degenerate  # free impurity configurations are degenerate


def test_exchange_spectrum_two_spins_via_site():
    # one static electron exchange-coupled to its impurity: pure singlet/triplet split
    m = ks.ChainModel(sites=2, hopping=0.0, jk=0.8, nup=1, ndn=0)
    h = ks.build_hamiltonian(m, ks.build_basis(m, 0.5))
    levels = np.unique(np.round(np.linalg.eigvalsh(h.toarray()), 12))
    assert np.allclose(levels, [-0.75 * 0.8, 0.25 * 0.8], atol=1e-12)


def test_direct_exchange_spectrum():
    m = ks.ChainModel(sites=2, nup=0, ndn=0, idirect=1.3)
    h = ks.build_hamiltonian(m, ks.build_basis(m, 0))
    assert np.allclose(np.linalg.eigvalsh(h.toarray()), [-0.75 * 1.3, 0.25 * 1.3], atol=1e-12)


@pytest.mark.parametrize(
    "sites,jk,idirect,nelec,xa,xb",
    [
        (2, 0.5, 0.0, 2, None, None),
        (2, 1.5, 0.4, 2, None, None),
        (3, 0.8, 0.0, 2, None, None),
        (3, 0.6, -0.2, 4, None, None),
        (3, 0.9, 0.0, 2, 0, 1),  # off-center placement: signs do not cancel by symmetry
        (3, 0.7, 0.3, 4, 1, 2),
        (2, 1.1, 0.2, 1, 0, 0),  # shared conduction site, odd electron count
    ],
)
def test_ground_state_matches_full_space_oracle(sites, jk, idirect, nelec, xa, xb):
    # independent route: Jordan-Wigner operators on the full Fock space with
    # a particle-number penalty, no sector bookkeeping shared with the package
    m = ks.ChainModel(
        sites=sites, jk=jk, idirect=idirect, nup=(nelec + 1) // 2, ndn=nelec // 2, xa=xa, xb=xb
    )
    basis = ks.build_basis(m)
    g = ks.ground_state(ks.build_hamiltonian(m, basis))
    e_ref, fs_ref, rho_ref = full_space_ground(sites, 1.0, jk, idirect, m.xa, m.xb, nelec)
    assert abs(g.energy - e_ref) <= 1e-8
    rho = ks.impurity_rdm(g, basis)
    # f_s is shared by every member of a ground multiplet, so it is
    # comparable even when the oracle picked a different S^z mixture;
    # the matrix itself is only comparable for a unique even-count singlet
    assert abs(measures.spin_correlation(rho) - fs_ref) <= 1e-8
    if nelec % 2 == 0 and ks.singlet_check(m, g.energy):
        assert np.abs(rho - rho_ref / np.trace(rho_ref).real).max() <= 1e-7


def test_reflection_conjugation_exact():
    # mirror-image impurity placements give signed-permutation-identical
    # Hamiltonians, hence identical spectra
    m1 = ks.ChainModel(sites=4, jk=0.9, xa=0, xb=2, nup=2, ndn=2)
    m2 = ks.ChainModel(sites=4, jk=0.9, xa=1, xb=3, nup=2, ndn=2)
    basis = ks.build_basis(m1, 0)
    h1 = ks.build_hamiltonian(m1, basis).tocoo()
    h2 = ks.build_hamiltonian(m2, basis)
    perm, sign = reflection_map(basis.codes, 4)
    data = h1.data * sign[h1.row] * sign[h1.col]
    h1_mapped = type(h2)((data, (perm[h1.row], perm[h1.col])), shape=h2.shape).tocsr()
    diff = h1_mapped - h2
    assert np.abs(diff).max() == 0.0 if diff.nnz else True
    e1 = ks.ground_state(ks.build_hamiltonian(m1, basis)).energy
    e2 = ks.ground_state(h2).energy
    assert abs(e1 - e2) <= 1e-12


@st.composite
def _centred_models(draw):
    """Models whose impurities sit at mirror sites (xa + xb = L - 1), a shared centre site included."""
    sites = draw(st.integers(1, 6))
    xa = draw(st.integers(0, (sites - 1) // 2))
    return ks.ChainModel(
        sites=sites,
        hopping=draw(st.floats(0.0, 2.0)),
        jk=draw(st.floats(0.0, 3.0)),
        idirect=draw(st.floats(-2.0, 2.0)),
        xa=xa,
        xb=sites - 1 - xa,
        nup=draw(st.integers(0, sites)),
        ndn=draw(st.integers(0, sites)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_centred_models(), st.integers(0, 1))
@example(ks.ChainModel(sites=4, jk=0.5), 0)
@example(ks.ChainModel(sites=6, jk=0.7, idirect=0.3), 1)
def test_symmetric_model_commutes_with_reflection(m, sz_raise):
    # in the natural sector and in the one with S^z raised by one
    basis = ks.build_basis(m, m.default_sz2() / 2.0 + sz_raise)
    h = ks.build_hamiltonian(m, basis)
    coo = h.tocoo()
    perm, sign = reflection_map(basis.codes, m.sites)
    data = coo.data * sign[coo.row] * sign[coo.col]
    mapped = type(h)((data, (perm[coo.row], perm[coo.col])), shape=h.shape)
    diff = mapped - h
    assert diff.nnz == 0 or np.abs(diff).max() == 0.0


# ---------------------------------------------------------------- ground_state


def test_lanczos_agrees_with_dense(solve_on):
    m = ks.ChainModel(sites=3, nup=2, ndn=1, jk=0.7)
    basis = ks.build_basis(m)
    h = ks.build_hamiltonian(m, basis)
    dense = solve_on(h, "dense")
    lanczos = solve_on(h, "lanczos")
    assert abs(dense.energy - lanczos.energy) <= 1e-8
    fs_d = measures.spin_correlation(ks.impurity_rdm(dense, basis))
    fs_l = measures.spin_correlation(ks.impurity_rdm(lanczos, basis))
    assert abs(fs_d - fs_l) <= 1e-8


@pytest.mark.parametrize("dim, method", [(ks.DENSE_CUTOFF, "dense"), (ks.DENSE_CUTOFF + 1, "lanczos")])
def test_sector_size_alone_picks_the_solver(dim, method):
    # an isolated lowest level, so both paths converge at once; the Lanczos
    # gap is the second Ritz value's, an upper bound
    h = sparse.diags(np.r_[-1.0, np.linspace(0.0, 1.0, dim - 1)], format="csr")
    g = ks.ground_state(h)
    assert g.method == method
    assert abs(g.energy + 1.0) <= 1e-12 and g.gap >= 1.0 - 1e-12


@pytest.mark.parametrize("sites", [5, 6, 7])
def test_lanczos_gap_bounds_the_true_gap(sites, solve_on):
    # ARPACK at tol=0 stands in for the dense spectrum, which takes 10-16 s at L=7;
    # electron counts are even because at L=5 an odd count can carry an exact
    # in-sector degeneracy, which no single-vector Lanczos sees
    rng = np.random.default_rng(3)
    for jk, idirect, extra in itertools.product((0.3, 0.5, 1.0, 2.0), (-0.5, 0.0, 0.7), (0, 1)):
        n = sites // 2 + extra
        m = ks.ChainModel(sites=sites, jk=jk, idirect=idirect, nup=n, ndn=n)
        h = ks.build_hamiltonian(m, ks.build_basis(m))
        w = np.sort(eigsh(h, k=3, which="SA", tol=0, v0=rng.standard_normal(h.shape[0]))[0])
        g = solve_on(h, "lanczos")
        # the final cycle's second Ritz value lies above E_1, so the gap is never
        # underestimated beyond round-off; the kept Ritz vectors converge too
        assert -1e-12 <= g.gap - (w[1] - w[0]) <= 1e-8, (jk, idirect, n)
        assert g.degenerate == (w[1] - w[0] < ks.DEGENERACY_ATOL)


def _solve_in_block(op, v0):
    """Run the thick-restart routine from v0; return the block and its result."""
    dim = v0.shape[0]
    V = np.empty((min(ks.KRYLOV_DIM, dim) + 1, dim))
    V[0] = v0 / np.linalg.norm(v0)
    return V, ks._thick_restart_lanczos(op, V)


def _orthonormality_error(V, n):
    return np.abs(V[:n] @ V[:n].T - np.eye(n)).max()


@pytest.mark.parametrize(
    "model, sz",
    [
        (ks.ChainModel(sites=2, jk=0.5), None),
        (ks.ChainModel(sites=3, jk=1.0, idirect=0.3), None),
        (ks.ChainModel(sites=3, jk=0.7, nup=2, ndn=1), 1.5),
        (ks.ChainModel(sites=4, jk=0.5), None),
        (ks.ChainModel(sites=4, jk=2.0, idirect=-0.5, xa=0, xb=3), 1),
        (ks.ChainModel(sites=8, jk=0.5), None),
    ],
)
def test_lanczos_block_basis_is_orthonormal(model, sz):
    h = ks.build_hamiltonian(model, ks.build_basis(model, sz))
    V, (_, _, iterations, rows, _) = _solve_in_block(h, np.random.default_rng(1).standard_normal(h.shape[0]))
    assert rows > 1
    assert _orthonormality_error(V, rows) <= 1e-12
    if iterations > rows:
        # the cycle restarted: its first KEEP_RITZ rows are the kept Ritz
        # vectors, which H maps onto themselves and the residual direction
        # V[k] alone (diagonal plus an arrow row)
        k = ks.KEEP_RITZ
        X = V[:k]
        HX = (h @ X.T).T
        M = V[:rows] @ HX.T
        scale = max(1.0, np.abs(M).max())
        assert np.abs(M[:k] - np.diag(np.diag(M[:k]))).max() <= 1e-12 * scale
        assert np.abs(M[k + 1 :]).max() <= 1e-12 * scale
        arrow = HX - np.diag(M[:k])[:, None] * X - M[k][:, None] * V[k]
        assert np.linalg.norm(arrow, axis=1).max() <= 1e-12 * scale


def test_lanczos_block_repasses_when_gram_schmidt_cancels(monkeypatch):
    # only `@` is needed, so a non-symmetric operator whose range is nearly
    # 5-dimensional makes each new vector almost lie in the block already;
    # with no tolerance to meet, one cycle fills the whole block
    monkeypatch.setattr(ks, "RESIDUAL_RTOL", 0.0)
    monkeypatch.setattr(ks, "MAX_RESTARTS", 1)
    n = 200
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    w = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    op = u @ rng.standard_normal((5, 5)) @ w.T + 1e-6 * rng.standard_normal((n, n))
    v0 = rng.standard_normal(n)

    V, (_, _, _, rows, _) = _solve_in_block(op, v0)
    assert rows == ks.KRYLOV_DIM
    assert _orthonormality_error(V, rows) <= 1e-12

    # the operator does exercise the guard: without the re-pass the basis decays
    monkeypatch.setattr(ks, "DGKS_ETA", 0.0)
    V, (_, _, _, rows, _) = _solve_in_block(op, v0)
    assert _orthonormality_error(V, rows) > 1e-9


@pytest.mark.parametrize("sites, iterations", [(6, 69), (8, 93)])
def test_lanczos_iteration_counts_are_pinned(sites, iterations, solve_on):
    # a faster solve must come from cheaper steps, never from fewer or looser
    # ones: these are the thick-restart counts, and the residual still meets
    # RESIDUAL_RTOL
    m = ks.ChainModel(sites=sites, jk=0.5)
    g = solve_on(ks.build_hamiltonian(m, ks.build_basis(m)), "lanczos")
    assert g.iterations == iterations
    assert g.residual_norm <= ks.RESIDUAL_RTOL * max(1.0, abs(g.energy))


def test_lanczos_block_memory_is_bounded(solve_on):
    import tracemalloc

    m = ks.ChainModel(sites=8, jk=0.5)
    h = ks.build_hamiltonian(m, ks.build_basis(m))
    dim = h.shape[0]
    tracemalloc.start()
    try:
        solve_on(h, "lanczos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (ks.KRYLOV_DIM + ks.KEEP_RITZ + 4) * dim * 8


@pytest.mark.parametrize(
    "model",
    [
        ks.ChainModel(sites=5, jk=0.5, nup=3, ndn=3),
        ks.ChainModel(sites=5, jk=2.0, idirect=-0.5, nup=3, ndn=3),
        ks.ChainModel(sites=6, jk=0.5, idirect=0.7),
        ks.ChainModel(sites=6, jk=2.0, idirect=-0.5),
    ],
)
def test_lanczos_restarts_match_dense(monkeypatch, solve_on, model):
    # an 8-vector block keeps 6 Ritz vectors and so adds 2 new ones a cycle
    monkeypatch.setattr(ks, "KRYLOV_DIM", 8)
    h = ks.build_hamiltonian(model, ks.build_basis(model))
    dense = solve_on(h, "dense")
    g = solve_on(h, "lanczos")
    assert g.iterations >= 8 + 4 * (8 - ks.KEEP_RITZ)  # at least 5 cycles
    assert abs(g.energy - dense.energy) <= 1e-10
    assert g.gap >= dense.gap - 1e-12


@pytest.mark.parametrize(
    "model",
    [
        ks.ChainModel(sites=2, jk=0.5),
        ks.ChainModel(sites=2, jk=1.5, idirect=0.3),
        ks.ChainModel(sites=3, jk=0.7, nup=2, ndn=1),
        ks.ChainModel(sites=3, jk=1.0, idirect=-0.4),
    ],
)
def test_lanczos_exhausts_sectors_smaller_than_the_block(solve_on, model):
    basis = ks.build_basis(model)
    h = ks.build_hamiltonian(model, basis)
    assert basis.dim < ks.KRYLOV_DIM
    dense = solve_on(h, "dense")
    g = solve_on(h, "lanczos")
    assert abs(g.energy - dense.energy) <= 1e-10
    assert g.iterations <= basis.dim
    assert g.degenerate == dense.degenerate
    if not dense.degenerate:
        fs_d = measures.spin_correlation(ks.impurity_rdm(dense, basis))
        fs_l = measures.spin_correlation(ks.impurity_rdm(g, basis))
        assert abs(fs_d - fs_l) <= 1e-8


@st.composite
def _small_models(draw):
    L = draw(st.integers(1, 6))
    xa = draw(st.integers(0, L - 1))
    return ks.ChainModel(
        sites=L,
        jk=draw(st.floats(0.0, 3.0)),
        idirect=draw(st.floats(-2.0, 2.0)),
        xa=xa,
        xb=draw(st.integers(xa, L - 1)),
        nup=draw(st.integers(0, L)),
        ndn=draw(st.integers(0, L)),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_small_models())
def test_forced_lanczos_matches_dense_on_random_models(solve_on, model):
    basis = ks.build_basis(model)
    h = ks.build_hamiltonian(model, basis)
    dense = solve_on(h, "dense")
    if dense.degenerate:
        return  # a single start vector cannot resolve an in-sector partner
    g = solve_on(h, "lanczos")
    assert abs(g.energy - dense.energy) <= 1e-10
    fs_d = measures.spin_correlation(ks.impurity_rdm(dense, basis))
    fs_l = measures.spin_correlation(ks.impurity_rdm(g, basis))
    assert abs(fs_d - fs_l) <= 1e-8


def test_ground_state_invariants():
    for model in (
        ks.ChainModel(sites=4, jk=0.5),
        ks.ChainModel(sites=2, jk=2.0, idirect=0.3),
        ks.ChainModel(sites=6, jk=0.5),
    ):
        basis = ks.build_basis(model)
        h = ks.build_hamiltonian(model, basis)
        g = ks.ground_state(h)
        assert abs(np.linalg.norm(g.amplitudes) - 1.0) <= 1e-12
        assert g.residual_norm <= 1e-8 * max(1.0, abs(g.energy))


def test_eq2_only_ground_energy():
    m = ks.ChainModel(sites=2, nup=0, ndn=0, idirect=2.5)
    g = ks.ground_state(ks.build_hamiltonian(m, ks.build_basis(m, 0)))
    assert g.energy == -0.75 * 2.5


def test_lanczos_not_converged_reports_diagnostics(monkeypatch, solve_on):
    m = ks.ChainModel(sites=4, jk=0.5)
    h = ks.build_hamiltonian(m, ks.build_basis(m))
    monkeypatch.setattr(ks, "KRYLOV_DIM", 3)
    monkeypatch.setattr(ks, "MAX_RESTARTS", 1)
    with pytest.raises(NotConvergedError) as info:
        solve_on(h, "lanczos")
    assert info.value.iterations > 0
    assert np.isfinite(info.value.residual)


def test_dense_residual_is_checked_at_the_same_exit(monkeypatch, solve_on):
    # hand the dense branch the highest eigenvector in place of the lowest:
    # the one residual check after both branches refuses it
    m = ks.ChainModel(sites=2, jk=0.5)
    h = ks.build_hamiltonian(m, ks.build_basis(m))
    spec = qmat.hermitian_eig(h.toarray())
    monkeypatch.setattr(qmat, "hermitian_eig", lambda a, lowest=None: qmat.Spectrum(spec.values, spec.vectors[:, ::-1]))
    with pytest.raises(NotConvergedError, match="Dense stalled") as info:
        solve_on(h, "dense")
    assert info.value.iterations == 0
    assert info.value.residual > 1e-8


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [(3, 3), (3, 5)], ids=["diagonal", "off-diagonal"])
def test_dense_solve_of_a_non_finite_entry_exits_not_converged(entry, where):
    # the dense driver runs without scipy's finite check, whose ValueError
    # would exit 2; a NaN leaves it with no eigenvalue, an inf fails the
    # Hermiticity check's subtraction under np.errstate
    m = ks.ChainModel(sites=4, jk=0.5)
    h = ks.build_hamiltonian(m, ks.build_basis(m)).tolil()
    i, j = where
    h[i, j] = h[j, i] = entry
    with pytest.raises(NotConvergedError, match="^Dense "):
        ks.ground_state(h.tocsr())


@st.composite
def _dense_models(draw):
    """Random L <= 5 models, all on the dense path: placements, fillings, and each coupling zero or not."""
    L = draw(st.integers(1, 5))
    xa = draw(st.integers(0, L - 1))

    def coupling(lo, hi):
        return draw(st.one_of(st.just(0.0), st.floats(lo, hi)))

    return ks.ChainModel(
        sites=L,
        hopping=coupling(0.0, 2.0),
        jk=coupling(0.0, 3.0),
        idirect=coupling(-2.0, 2.0),
        xa=xa,
        xb=draw(st.integers(xa, L - 1)),
        nup=draw(st.integers(0, L)),
        ndn=draw(st.integers(0, L)),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_dense_models())
@example(ks.ChainModel(sites=5, jk=0.5))  # dim 300, the default-filling sector at L=5
@example(ks.ChainModel(sites=4, jk=0.0))  # free impurities: a degenerate ground level
def test_two_lowest_eigenpairs_solve_as_the_full_spectrum(model):
    # the dense path solves only the two lowest eigenpairs; a full eigh in its
    # place gives the same verdict, energy, gap and f_s
    basis = ks.build_basis(model)
    h = ks.build_hamiltonian(model, basis)
    full_eig = qmat.hermitian_eig
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmat, "hermitian_eig", lambda a, lowest=None: full_eig(a))
        full = ks.ground_state(h)
    g = ks.ground_state(h)
    assert g.method == full.method == "dense"
    assert g.degenerate == full.degenerate
    assert abs(g.energy - full.energy) <= 1e-12 * max(1.0, abs(full.energy))
    if not full.degenerate:
        assert g.gap == full.gap == math.inf or abs(g.gap - full.gap) <= 1e-12
        fs = [measures.spin_correlation(ks.impurity_rdm(r, basis)) for r in (g, full)]
        assert abs(fs[0] - fs[1]) <= 1e-12


def test_degenerate_ground_detected_and_blocks_rdm():
    m = ks.ChainModel(sites=2, jk=0.0, idirect=0.0)
    basis = ks.build_basis(m)
    g = ks.ground_state(ks.build_hamiltonian(m, basis))
    assert g.degenerate
    with pytest.raises(DegenerateGroundError):
        ks.impurity_rdm(g, basis)


# ---------------------------------------------------------------- rdm and checks


def test_impurity_rdm_pure_singlet_exact():
    m = ks.ChainModel(sites=2, nup=0, ndn=0, idirect=1.0)
    basis = ks.build_basis(m, 0)
    g = ks.ground_state(ks.build_hamiltonian(m, basis))
    rho = ks.impurity_rdm(g, basis)
    # trace normalization makes the entries exact, sharper than the
    # floating-point projector of the 1/sqrt(2) Bell vector
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.array_equal(rho, expected)


def test_impurity_rdm_werner_form_and_oracle():
    for jk in (0.3, 1.0):
        m = ks.ChainModel(sites=4, jk=jk)
        basis = ks.build_basis(m)
        g = ks.ground_state(ks.build_hamiltonian(m, basis))
        rho = ks.impurity_rdm(g, basis)
        assert measures.werner_residual(rho) < 1e-8
        direct = sdots_expectation(basis.codes, g.amplitudes, basis.n_orbitals)
        assert abs(measures.spin_correlation(rho) - direct) <= 1e-10
        for side in ("A", "B"):
            marg = qmat.partial_trace(rho, side)
            assert np.abs(marg - np.eye(2) / 2).max() <= 1e-8
            assert abs(qmat.vn_entropy(marg) - 1.0) <= 1e-7


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_small_models().map(lambda m: replace(m, ndn=m.nup)))
@example(ks.ChainModel(sites=5, jk=0.8, idirect=0.2, xa=0, xb=3, nup=2, ndn=2))  # off-centre
@example(ks.ChainModel(sites=6, jk=1.1, idirect=0.3, xa=0, xb=2))  # off-centre, Lanczos path
def test_singlet_ground_state_gives_the_closed_form_measures(model):
    # an S = 0 ground state is rotation invariant, whatever the placement, so
    # the general two-qubit measures of its impurity RDM are the closed forms
    # at its f_s: the two routes agree on ED output
    try:
        a = model.analyze()
        if not a.singlet():
            return
    except TikmError:
        return
    closed = werner.classify(werner.from_correlation(a.f_s))
    assert abs(measures.concurrence_wootters(a.rho) - closed.concurrence) <= 1e-12
    assert abs(measures.negativity_general(a.rho) - closed.negativity) <= 1e-12
    assert measures.werner_residual(a.rho) <= 1e-10


def test_fs_within_physical_range():
    for model in (
        ks.ChainModel(sites=2, jk=3.0),
        ks.ChainModel(sites=4, jk=0.5, idirect=2.0),
        ks.ChainModel(sites=3, nup=2, ndn=1, jk=0.9),
    ):
        basis = ks.build_basis(model)
        g = ks.ground_state(ks.build_hamiltonian(model, basis))
        f_s = measures.spin_correlation(ks.impurity_rdm(g, basis))
        assert -0.75 - 1e-9 <= f_s <= 0.25 + 1e-9


def test_singlet_check():
    # the second-sector solve and S^2 of the ground vector give one verdict
    for model, singlet in (
        (ks.ChainModel(sites=2, nup=0, ndn=0, idirect=1.0), True),
        (ks.ChainModel(sites=2, nup=0, ndn=0, idirect=-1.0), False),
        (ks.ChainModel(sites=4, jk=0.5), True),
        (ks.ChainModel(sites=2, jk=1.0), True),
    ):
        a = model.analyze()
        assert ks.singlet_check(model, a.ground.energy) == singlet
        assert a.singlet() == singlet


def test_spin_squared_of_two_free_spins():
    # no electrons: the basis is |du>, |ud> (impurity A is the higher bit); the
    # product state |du> is half singlet, half triplet
    basis = ks.build_basis(ks.ChainModel(sites=2, nup=0, ndn=0), 0)
    r = 1 / math.sqrt(2)
    for psi, s2, mixing in (([r, -r], 0.0, 0.0), ([r, r], 2.0, 0.0), ([1.0, 0.0], 1.0, 1.0)):
        got = ks.spin_squared(basis, np.array(psi))
        assert got == pytest.approx((s2, mixing), abs=1e-15)


@pytest.mark.parametrize(
    "sites, jk, verdict",
    [(5, 0.0, "degenerate"), (5, 0.5, False), (6, 0.0, "degenerate"), (6, 0.5, True)],
)
def test_dense_and_lanczos_agree_on_the_spin_verdict(monkeypatch, sites, jk, verdict):
    # at jk = 0 the impurities are free: the dense gap shows the degenerate
    # level, and the Lanczos vector, whose gap may not, fails the S^2 check;
    # 4 electrons on 5 sites at jk = 0.5 have a triplet ground state
    model = ks.ChainModel(sites=sites, jk=jk)
    verdicts = []
    for path, cutoff in (("dense", 10**6), ("lanczos", 0)):
        monkeypatch.setattr(ks, "DENSE_CUTOFF", cutoff)
        try:
            a = model.analyze()
            assert a.ground.method == path
            verdicts.append(a.singlet())
        except DegenerateGroundError:
            verdicts.append("degenerate")
    assert verdicts == [verdict] * 2


def test_singlet_refuses_a_vector_that_mixes_multiplets():
    a = ks.ChainModel(sites=2, nup=0, ndn=0, idirect=1.0).analyze()
    a.ground.amplitudes = np.array([1.0, 0.0])
    with pytest.raises(DegenerateGroundError, match="mixes spin multiplets"):
        a.singlet()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_small_models())
@example(ks.ChainModel(sites=6, jk=0.7, idirect=0.2))  # dim 1250: the Lanczos path
@example(ks.ChainModel(sites=6, jk=1.2, xa=1, xb=4, nup=4, ndn=3))  # dim 990, odd count
def test_spin_squared_verdict_matches_singlet_check(model):
    basis = ks.build_basis(model)
    levels = np.linalg.eigvalsh(ks.build_hamiltonian(model, basis).toarray())
    if len(levels) > 1 and levels[1] - levels[0] < 1e-6:
        return  # degenerate within the sector: neither verdict is defined
    a = model.analyze()
    assert a.singlet() == ks.singlet_check(model, a.ground.energy)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_small_models(), st.sampled_from((1, -1)))
def test_spin_ladder_commutes_with_the_hamiltonian(model, step):
    # H_{S^z+1} S^+ = S^+ H_{S^z} (and the same for S^-) checks the SU(2)
    # invariance of every term the builder emits; S^- is the transpose of S^+
    basis = ks.build_basis(model)
    ladder, target = ks.spin_ladder(basis, step)
    lhs = ks.build_hamiltonian(model, target) @ ladder
    rhs = ladder @ ks.build_hamiltonian(model, basis)
    assert abs(lhs - rhs).max() <= 1e-12 * max(1.0, model.jk, abs(model.idirect))
    back, home = ks.spin_ladder(target, -step)
    assert np.array_equal(home.codes, basis.codes) and (back != ladder.T).nnz == 0


# ---------------------------------------------------------------- coupling line


@st.composite
def _line_points(draw):
    """A random L <= 6 model (placement, filling, couplings, hopping), a coupling, a value on it and a solver path.

    The value is 0 or at least 1e-3 in size, so no scaled entry is subnormal;
    ``idirect`` takes either sign.
    """
    model = replace(draw(_small_models()), hopping=draw(st.sampled_from((1.0, 0.0, 0.6))))
    param = draw(st.sampled_from(("jk", "idirect")))
    size = draw(st.one_of(st.just(0.0), st.floats(1e-3, 3.0)))
    sign = draw(st.sampled_from((1.0, -1.0))) if param == "idirect" else 1.0
    return model, param, sign * size, draw(st.sampled_from(("dense", "lanczos")))


def _outcome(analyze):
    try:
        a = analyze()
    except TikmError as exc:
        return type(exc), str(exc)
    return a.ground.method, a.ground.energy, a.f_s


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_line_points())
@example((ks.ChainModel(sites=6, jk=2.0), "jk", 0.0, "lanczos"))  # dim 1250, p * H_p all zeros
@example((ks.ChainModel(sites=6, jk=1.1, idirect=0.3, xa=0, xb=5), "idirect", -0.8, "lanczos"))
@example((ks.ChainModel(sites=5, jk=0.7, nup=3, ndn=2), "idirect", 0.0, "dense"))
@example((ks.ChainModel(sites=4, jk=0.9, idirect=0.4, xa=1, xb=1), "jk", 1.7, "dense"))  # shared site
@example((ks.ChainModel(sites=6, jk=1.3, idirect=0.6), "idirect", -0.0, "lanczos"))  # -0.0 * H_p
def test_coupling_line_equals_a_rebuild(case):
    # H(p) = H_rest + p * H_p is exact: it is the rebuilt matrix array for
    # array, neither storing a zero, and the solves on both agree to the bit
    model, param, value, path = case
    line = ks.CouplingLine(model, param)
    h = line.hamiltonian(value)
    rebuilt = ks.model_at(model, param, value)
    ref = ks.build_hamiltonian(rebuilt, ks.build_basis(rebuilt))
    for part in ("indptr", "indices", "data"):
        got, want = getattr(h, part), getattr(ref, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks, "DENSE_CUTOFF", line.basis.dim - (path == "lanczos"))
        got = _outcome(lambda: line.analyze(value))
        assert got == _outcome(rebuilt.analyze)
    assert got[0] == path if isinstance(got[0], str) else issubclass(got[0], TikmError)


def test_coupling_line_checks_its_coupling_and_values():
    model = ks.ChainModel(sites=4, jk=0.5)
    for param in ("separation", "hopping"):
        with pytest.raises(ValueError, match="jk or idirect"):
            ks.CouplingLine(model, param)
    line = ks.CouplingLine(model, "jk")
    for value in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="jk must be"):
            line.hamiltonian(value)


@pytest.mark.parametrize("model", [ks.ChainModel(sites=6), ks.ChainModel(sites=6, hopping=0.0, jk=1.0)], ids=["free", "no-hopping"])
def test_coupling_line_refuses_a_mixed_ground_vector(model):
    # at idirect = 0 both models have a degenerate ground level whose Lanczos
    # vector mixes spin multiplets, with no small gap to show it
    line = ks.CouplingLine(model, "idirect")
    assert line.analyze(0.0).ground.method == "lanczos"
    with pytest.raises(DegenerateGroundError, match="mixes spin multiplets"):
        line.correlation(0.0)


# ---------------------------------------------------------------- sweep


def test_sweep_two_spin_afm_values():
    m = ks.ChainModel(sites=2, nup=0, ndn=0)
    points = ks.sweep(m, "idirect", [1.0, 10.0])
    assert [p.value for p in points] == [1.0, 10.0]
    for p in points:
        assert p.error is None
        assert p.f_s == -0.75
        assert p.report.concurrence == 1.0
        assert p.singlet and not p.degenerate


def test_sweep_fm_triplet_manifold_flagged():
    m = ks.ChainModel(sites=2, nup=0, ndn=0)
    (point,) = ks.sweep(m, "idirect", [-1.0])
    assert point.error is None
    assert point.degenerate and not point.singlet
    assert abs(point.f_s - 0.25) <= 1e-12
    assert point.report.concurrence == 0.0


def test_sweep_kondo_screening_direction():
    # stronger screening pulls the correlation up toward zero from below
    m = ks.ChainModel(sites=4)
    points = ks.sweep(m, "jk", [1.0, 2.0, 4.0, 8.0])
    values = [p.f_s for p in points]
    assert all(p.error is None for p in points)
    assert all(v < 0.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_records_errors_without_aborting():
    m = ks.ChainModel(sites=2, jk=0.0)
    points = ks.sweep(m, "idirect", [0.0, 1.0])
    assert points[0].error is not None and "Degenerate" in points[0].error
    assert points[1].error is None and points[1].f_s is not None


def test_sweep_separation_parameter():
    m = ks.ChainModel(sites=4, jk=0.8)
    points = ks.sweep(m, "separation", [1.0, 2.0, 3.0])
    assert points[0].error is None  # centered pair (1, 2)
    assert points[1].error is not None  # cannot center distance 2 on 4 sites
    assert points[2].error is None  # end-to-end pair (0, 3)
    assert abs(points[0].f_s - points[2].f_s) > 1e-6


def test_sweep_runs_points_in_order_on_the_calling_thread(monkeypatch):
    calls = []

    def recording(model, param, value):
        calls.append((threading.get_ident(), value))
        return ks.SweepPoint(value=value)

    monkeypatch.setattr(ks, "_analyze_point", recording)
    grid = [0.5, 1.0, 1.5, 2.0]
    for workers in (None, 1, 4):
        calls.clear()
        points = ks.sweep(ks.ChainModel(sites=2), "jk", grid, max_workers=workers)
        assert [p.value for p in points] == grid
        assert calls == [(threading.get_ident(), v) for v in grid]


def test_sweep_records_non_finite_separation_as_errors():
    points = ks.sweep(ks.ChainModel(sites=4), "separation", [math.inf, math.nan])
    assert len(points) == 2
    assert all(p.error is not None and "finite" in p.error and p.f_s is None for p in points)
    with pytest.raises(ValueError, match="finite"):
        ks.model_at(ks.ChainModel(sites=4), "separation", math.inf)


@pytest.mark.parametrize("model", [ks.ChainModel(sites=6), ks.ChainModel(sites=6, hopping=0.0, jk=1.0)], ids=["free", "no-hopping"])
def test_sweep_refuses_a_mixed_lanczos_vector(model):
    # the S^z + 1 sector verdict alone reported these points, f_s 0.2006 and
    # -3.4e-17 of a mixed vector, with error unset
    (point,) = ks.sweep(model, "idirect", [0.0])
    assert point.error.startswith("DegenerateGroundError") and "mixes spin multiplets" in point.error
    assert point.f_s is None


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        ks.sweep(ks.ChainModel(sites=2), "hopping", [1.0])


# ---------------------------------------------------------------- crossing


def _scan_crossing(line, lo, hi, step=1e-4, target=-0.25):
    """Dense-grid oracle: linear interpolation at the sign change."""
    xs = np.arange(lo, hi + step / 2, step)
    prev_x, prev_f = None, None
    for x in xs:
        f = line.correlation(float(x))
        if prev_f is not None and (prev_f - target) * (f - target) <= 0.0:
            return prev_x + (target - prev_f) * (x - prev_x) / (f - prev_f)
        prev_x, prev_f = float(x), f
    raise AssertionError("scan found no crossing")


def test_find_crossing_matches_dense_scan():
    line = ks.CouplingLine(ks.ChainModel(sites=2), "jk")
    tol = 1e-5
    root = ks.find_crossing(line, 1.0, 2.0, tol=tol)
    scan = _scan_crossing(line, 1.79, 1.84, step=1e-4)
    assert abs(root - scan) <= tol + 1e-4
    assert abs(line.correlation(root) + 0.25) <= 1e-4


def test_find_crossing_reversal_and_tolerance_containment():
    line = ks.CouplingLine(ks.ChainModel(sites=2), "jk")
    a = ks.find_crossing(line, 1.0, 2.0, tol=1e-4)
    b = ks.find_crossing(line, 2.0, 1.0, tol=1e-4)
    assert a == b
    tight = ks.find_crossing(line, 1.0, 2.0, tol=1e-6)
    assert abs(a - tight) <= 1e-4


def test_find_crossing_no_bracket():
    line = ks.CouplingLine(ks.ChainModel(sites=2), "jk")
    with pytest.raises(NoBracketError):
        ks.find_crossing(line, 1.0, 1.0)
    with pytest.raises(NoBracketError):
        ks.find_crossing(line, 0.2, 0.5)  # f_s stays below -1/4 here


def test_find_crossing_rejects_bad_tol(monkeypatch):
    line = ks.CouplingLine(ks.ChainModel(sites=2), "jk")
    for tol in (0.0, -1e-4, math.nan, math.inf, 1e-30):  # 1e-30 needs more than MAX_BISECTIONS halvings
        with pytest.raises(ValueError, match="tol"):
            ks.find_crossing(line, 1.0, 2.0, tol=tol)
    # a tol below the float spacing cannot be reached and is refused before any solve
    calls = []
    monkeypatch.setattr(ks.CouplingLine, "correlation", lambda line, value: calls.append(value) or -0.5)
    with pytest.raises(ValueError, match="float resolution"):
        ks.find_crossing(line, 1.0, 2.0, tol=1e-17)
    assert calls == []


def test_find_crossing_rejects_jump(monkeypatch):
    # f_s steps over the target at 1.3; the pre-grid sees a monotone rise
    monkeypatch.setattr(ks.CouplingLine, "correlation", lambda line, value: -0.5 if value < 1.3 else 0.0)
    with pytest.raises(NonMonotoneError, match="jumps") as info:
        ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), 1.0, 2.0, tol=1e-4)
    ((a, f_a, b, f_b),) = info.value.points
    assert a < 1.3 <= b and b - a < 1e-4
    assert (f_a, f_b) == (-0.5, 0.0)


def test_find_crossing_accepts_steep_continuous_crossing(monkeypatch):
    # slope at the crossing is five times the secant slope over the bracket
    def steep(line, value):
        return -0.25 + 0.5 * math.tanh(10.0 * (value - 1.37))

    monkeypatch.setattr(ks.CouplingLine, "correlation", steep)
    root = ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), 1.0, 2.0, tol=1e-6)
    assert abs(root - 1.37) <= 1e-6


def _smooth_monotone(lo, width, sign, slope, steps):
    """f(lo + u * width) = sign * (slope * u + sum_i w_i * tanh(k_i * (u - c_i))).

    With w_i > 0 its steepest slope over its secant slope on [lo, lo + width]
    is at most max k_i / tanh(k_i), below JUMP_FACTOR = 100 for k_i < 99, and
    the linear term keeps every crossing well conditioned.
    """

    def f(x):
        u = (x - lo) / width
        return sign * (slope * u + sum(w * math.tanh(k * (u - c)) for w, k, c in steps))

    return f


def _count_solves(monkeypatch, f):
    calls = []

    def counting(line, value):
        calls.append(value)
        return f(value)

    monkeypatch.setattr(ks.CouplingLine, "correlation", counting)
    return calls


def _secant_step_bound(lo, hi, tol):
    """Most steps allowed after the pre-grid: 2 * ceil(log2(cell / tol)) + 2, ``cell`` its cell width."""
    cell = (hi - lo) / 2**ks.PRE_GRID_LEVELS
    return 2 * math.ceil(math.log2(cell / tol)) + 2


def test_find_crossing_solves_no_value_twice(monkeypatch):
    # the secant steps start from the pre-grid cell that holds the crossing;
    # on a smooth f_s two of them close the bracket around it
    def f(value):
        return -0.25 + 0.5 * math.tanh(value - 1.37)

    calls = _count_solves(monkeypatch, f)
    root = ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), 1.0, 2.0, tol=1e-4)
    assert len(calls) == len(set(calls)) == 9 + 2
    assert abs(root - 1.37) < 1e-4 / 2


def test_find_crossing_rejects_non_finite_target(monkeypatch):
    calls = _count_solves(monkeypatch, lambda value: 0.0)
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), 1.0, 2.0, target_fs=target, tol=1e-4)
    assert calls == []  # refused before any solve


def test_find_crossing_rejects_non_finite_endpoints(monkeypatch):
    calls = _count_solves(monkeypatch, lambda value: 0.0)
    for lo, hi in ((0.5, math.inf), (0.5, math.nan), (-math.inf, 2.0), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="must be finite"):
            ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), lo, hi, tol=1e-4)
    assert calls == []  # refused before any solve


@st.composite
def _monotone_crossings(draw):
    """A smooth monotone f on [lo, hi], a target inside its range, and a tol."""
    lo = draw(st.floats(-5.0, 5.0))
    width = 10.0 ** draw(st.floats(-2.0, 1.0))
    unit = st.tuples(st.floats(0.05, 1.0), st.floats(0.1, 99.0), st.floats(0.0, 1.0))
    f = _smooth_monotone(
        lo,
        width,
        draw(st.sampled_from((-1.0, 1.0))),
        draw(st.floats(0.05, 1.0)),
        draw(st.lists(unit, min_size=1, max_size=3)),
    )
    target = f(lo) + draw(st.floats(0.01, 0.99)) * (f(lo + width) - f(lo))
    tol = width * 10.0 ** draw(st.floats(-9.0, -1.0))
    return f, lo, lo + width, target, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_monotone_crossings())
def test_find_crossing_properties_on_smooth_monotone_f(case):
    f, lo, hi, target, tol = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_solves(mp, f)
        root = ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), lo, hi, target_fs=target, tol=tol)
    # f is monotone, so the crossing is within tol/2 of root iff f straddles the target there
    assert (f(root - tol / 2) - target) * (f(root + tol / 2) - target) <= 0.0
    assert len(calls) == len(set(calls))
    assert len(calls) - (2**ks.PRE_GRID_LEVELS + 1) <= _secant_step_bound(lo, hi, tol)


def test_find_crossing_bisects_when_secant_stalls(monkeypatch):
    # two steep steps in one cell: plain secant steps creep along one side
    # and take 9 + 54 solves; the halving safeguard takes 9 + 9
    f = _smooth_monotone(0.0, 1.0, 1.0, 0.27, [(0.56, 32.5, 0.0286), (0.51, 94.4, 0.464)])
    target, tol = f(0.0) + 0.488 * (f(1.0) - f(0.0)), 1.7e-6
    calls = _count_solves(monkeypatch, f)
    root = ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), 0.0, 1.0, target_fs=target, tol=tol)
    assert (f(root - tol / 2) - target) * (f(root + tol / 2) - target) <= 0.0
    assert len(calls) - 9 <= _secant_step_bound(0.0, 1.0, tol)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(-5.0, 5.0), st.floats(0.01, 0.99), st.floats(-9.0, -3.0))
def test_find_crossing_step_function_raises_jump(lo, share, log_tol):
    # f_s steps over the target at a random point of [lo, lo + 1]
    edge, tol = lo + share, 10.0**log_tol
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ks.CouplingLine, "correlation", lambda line, value: -0.5 if value < edge else 0.0)
        with pytest.raises(NonMonotoneError, match="jumps") as info:
            ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), lo, lo + 1.0, tol=tol)
    ((a, _, b, _),) = info.value.points
    assert a < edge <= b and b - a < tol


def test_find_crossing_on_the_lanczos_path():
    # dim 1250 at L = 6 is above DENSE_CUTOFF, so every point is a Lanczos solve
    line = ks.CouplingLine(ks.ChainModel(sites=6), "jk")
    tol = 1e-4
    value = ks.find_crossing(line, 0.5, 6.0, tol=tol)
    below, above = (line.correlation(value + d) + 0.25 for d in (-tol, tol))
    assert below * above < 0.0
    assert abs(value - 1.6936836242675781) < tol  # the crossing found by plain bisection


def test_find_crossing_non_monotone(monkeypatch):
    def fake(line, value):
        return float(np.sin(6.0 * value))

    monkeypatch.setattr(ks.CouplingLine, "correlation", fake)
    with pytest.raises(NonMonotoneError) as info:
        ks.find_crossing(ks.CouplingLine(ks.ChainModel(sites=2), "jk"), 0.0, 2.0)
    assert info.value.points
