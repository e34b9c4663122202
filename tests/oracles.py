"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the package: the chain ground states are
built from explicit Jordan-Wigner operator products on the full Fock space
with a particle-number penalty, reduced states come from a reshape-based
partial trace, and the special functions come from adaptive quadrature.
Sector bases and Hamiltonians are also built one state at a time with
Python integers, as the reference for the package's vectorized builders.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

_I2 = sp.identity(2, format="csr")
_SZ = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
_SPLUS = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # index 0 = up


def _chain_kron(ops):
    out = None
    for o in ops:
        out = o if out is None else sp.kron(out, o, format="csr")
    return out


def _jw_annihilators(n_orb):
    """Jordan-Wigner c_p with orbital 0 the leftmost tensor factor."""
    cs = []
    for p in range(n_orb):
        cs.append(_chain_kron([_SZ] * p + [_SPLUS.T] + [_I2] * (n_orb - p - 1)))
    return cs


def full_space_operators(sites, xa, xb):
    """(H pieces, N, S_A.S_B) on the impurity(4) x fermion(4^sites) space."""
    n_orb = 2 * sites
    fdim = 2**n_orb
    cs = _jw_annihilators(n_orb)
    cd = [c.T for c in cs]
    i_fer = sp.identity(fdim, format="csr")
    i_imp = sp.identity(4, format="csr")

    def imp(op, which):
        return sp.kron(_chain_kron([op, _I2] if which == 0 else [_I2, op]), i_fer)

    sza, szb = imp(0.5 * _SZ, 0), imp(0.5 * _SZ, 1)
    spa, spb = imp(_SPLUS, 0), imp(_SPLUS, 1)
    sma, smb = spa.T, spb.T

    hop = sp.csr_matrix((4 * fdim, 4 * fdim))
    for s in range(sites - 1):
        for spin in (0, 1):
            term = cd[2 * s + spin] @ cs[2 * (s + 1) + spin]
            hop += sp.kron(i_imp, term + term.T)

    def site_spin(x):
        s_z = 0.5 * (cd[2 * x] @ cs[2 * x] - cd[2 * x + 1] @ cs[2 * x + 1])
        s_p = cd[2 * x] @ cs[2 * x + 1]
        return sp.kron(i_imp, s_z), sp.kron(i_imp, s_p), sp.kron(i_imp, s_p.T)

    kondo = sp.csr_matrix((4 * fdim, 4 * fdim))
    for (szi, spi, smi), x in (((sza, spa, sma), xa), ((szb, spb, smb), xb)):
        sz_x, sp_x, sm_x = site_spin(x)
        kondo += szi @ sz_x + 0.5 * (spi @ sm_x + smi @ sp_x)

    sdots = sza @ szb + 0.5 * (spa @ smb + sma @ spb)
    num = sp.csr_matrix((4 * fdim, 4 * fdim))
    for p in range(n_orb):
        num += sp.kron(i_imp, cd[p] @ cs[p])
    return hop, kondo, sdots, num


def full_space_ground(sites, hopping, jk, idirect, xa, xb, nelec, penalty=80.0):
    """Global ground state at fixed electron number via a quadratic penalty.

    Returns (energy, f_s, impurity_rdm) with the reduced state obtained by a
    reshape of the ordered impurity x fermion state vector.
    """
    hop, kondo, sdots, num = full_space_operators(sites, xa, xb)
    dim = hop.shape[0]
    h = -hopping * hop + jk * kondo + idirect * sdots
    shift = num - nelec * sp.identity(dim)
    w, v = np.linalg.eigh((h + penalty * (shift @ shift)).toarray())
    energy, psi = float(w[0]), v[:, 0]
    f_s = float(psi @ (sdots @ psi))
    m = psi.reshape(4, -1)
    rho = (m @ m.conj().T).astype(complex)
    return energy, f_s, rho


def tight_binding_energy(sites, hopping, nup, ndn):
    """Filling the open-chain single-particle levels per spin species."""
    levels = sorted(-2.0 * hopping * math.cos(k * math.pi / (sites + 1)) for k in range(1, sites + 1))
    return sum(levels[:nup]) + sum(levels[:ndn])


def enumerate_sector(sites, nelec, sz2):
    """Brute-force state count: all occupations x impurity configurations."""
    n_orb = 2 * sites
    count = 0
    for imp in range(4):
        for occ in range(1 << n_orb):
            if occ.bit_count() != nelec:
                continue
            e_sz2 = sum(1 if p % 2 == 0 else -1 for p in range(n_orb) if (occ >> p) & 1)
            if e_sz2 + 2 * imp.bit_count() - 2 == sz2:
                count += 1
    return count


def loop_basis_codes(sites, nelec, sz2):
    """Sorted sector codes, one state at a time from itertools combinations (empty if none)."""
    n_orb = 2 * sites
    codes = []
    for imp in range(4):
        e_sz2 = sz2 - (2 * imp.bit_count() - 2)
        if (nelec + e_sz2) % 2:
            continue
        nu = (nelec + e_sz2) // 2
        nd = nelec - nu
        if not (0 <= nu <= sites and 0 <= nd <= sites):
            continue
        for up_sites in combinations(range(sites), nu):
            up_occ = sum(1 << (2 * s) for s in up_sites)
            for dn_sites in combinations(range(sites), nd):
                codes.append((imp << n_orb) | up_occ | sum(1 << (2 * s + 1) for s in dn_sites))
    return sorted(codes)


def _sign_below(occ, p):
    return -1.0 if (occ & ((1 << p) - 1)).bit_count() & 1 else 1.0


def _hop(occ, p_to, p_from):
    """Apply c+_{p_to} c_{p_from}; None if blocked by occupation."""
    if not (occ >> p_from) & 1:
        return None
    sign = _sign_below(occ, p_from)
    occ1 = occ ^ (1 << p_from)
    if (occ1 >> p_to) & 1:
        return None
    return occ1 | (1 << p_to), sign * _sign_below(occ1, p_to)


def loop_hamiltonian(model, codes):
    """Sector Hamiltonian built state by state, as a CSR matrix.

    Each basis state is decoded and every term is applied to it with Python
    integers; targets are found through a dict, so a term that leaves the
    sector raises KeyError.  Entries are emitted as (row = target, column =
    source) and the diagonal is accumulated in the order Kondo A, Kondo B,
    direct exchange.
    """
    sites = model.sites
    n_orb = 2 * sites
    occ_mask = (1 << n_orb) - 1
    t, jk, idir = model.hopping, model.jk, model.idirect
    index = {int(c): i for i, c in enumerate(codes)}
    rows, cols, vals = [], [], []

    def emit(i, target_code, value):
        rows.append(index[target_code])
        cols.append(i)
        vals.append(value)

    for i, code in enumerate(codes):
        code = int(code)
        occ = code & occ_mask
        imp = code >> n_orb
        a_up = (imp >> 1) & 1
        b_up = imp & 1
        diag = 0.0

        if t != 0.0:
            for s in range(sites - 1):
                for spin in (0, 1):
                    p = 2 * s + spin
                    q = 2 * (s + 1) + spin
                    for p_to, p_from in ((p, q), (q, p)):
                        res = _hop(occ, p_to, p_from)
                        if res is not None:
                            occ2, sign = res
                            emit(i, (imp << n_orb) | occ2, -t * sign)

        if jk != 0.0:
            for x, up_bit, imp_flip in ((model.xa, a_up, 2), (model.xb, b_up, 1)):
                orb_u, orb_d = 2 * x, 2 * x + 1
                n_u = (occ >> orb_u) & 1
                n_d = (occ >> orb_d) & 1
                s_imp = 0.5 if up_bit else -0.5
                diag += jk * s_imp * 0.5 * (n_u - n_d)
                # S- s+ moves a down electron up; S+ s- moves an up electron down
                res = _hop(occ, orb_u, orb_d) if up_bit else _hop(occ, orb_d, orb_u)
                if res is not None:
                    occ2, sign = res
                    emit(i, ((imp ^ imp_flip) << n_orb) | occ2, 0.5 * jk * sign)

        if idir != 0.0:
            diag += idir * (0.5 if a_up else -0.5) * (0.5 if b_up else -0.5)
            if a_up != b_up:
                emit(i, ((imp ^ 3) << n_orb) | occ, 0.5 * idir)

        if diag != 0.0:
            rows.append(i)
            cols.append(i)
            vals.append(diag)

    h = sp.coo_matrix(
        (np.array(vals, dtype=np.float64), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(len(codes), len(codes)),
    ).tocsr()
    h.sum_duplicates()
    return h


def sdots_expectation(codes, psi, n_orb):
    """<S_A . S_B> evaluated directly on a sector state vector."""
    index = {int(c): i for i, c in enumerate(codes)}
    total = 0.0
    for i, code in enumerate(codes):
        code = int(code)
        imp = code >> n_orb
        a = 1 if (imp >> 1) & 1 else -1
        b = 1 if imp & 1 else -1
        total += 0.25 * a * b * abs(psi[i]) ** 2
        if a != b:
            j = index[((imp ^ 3) << n_orb) | (code & ((1 << n_orb) - 1))]
            total += 0.5 * np.real(np.conj(psi[j]) * psi[i])
    return total


def reflection_map(codes, sites):
    """Signed basis permutation of the site reflection i -> sites-1-i.

    Impurity labels swap along with their sites; the fermion sign is the
    parity of re-sorting the reflected orbital list.
    """
    n_orb = 2 * sites
    index = {int(c): i for i, c in enumerate(codes)}
    perm = np.empty(len(codes), dtype=np.int64)
    sign = np.empty(len(codes))
    for i, code in enumerate(codes):
        code = int(code)
        occ = code & ((1 << n_orb) - 1)
        imp = code >> n_orb
        orbitals = [p for p in range(n_orb) if (occ >> p) & 1]
        mapped = [2 * (sites - 1 - (p // 2)) + (p % 2) for p in orbitals]
        inversions = sum(1 for a, b in combinations(mapped, 2) if a > b)
        occ2 = 0
        for p in mapped:
            occ2 |= 1 << p
        imp2 = ((imp & 1) << 1) | (imp >> 1)
        perm[i] = index[(imp2 << n_orb) | occ2]
        sign[i] = -1.0 if inversions % 2 else 1.0
    return perm, sign


def si_quad(x):
    """Sine integral by adaptive quadrature."""
    val, _ = quad(lambda y: math.sin(y) / y if y != 0.0 else 1.0, 0.0, x, limit=200)
    return val


def f3_quad(x):
    """Range-function integral representation (1/x^2) * int_0^1 t sin(t x) dt."""
    val, _ = quad(lambda t: t * math.sin(t * x), 0.0, 1.0, limit=200)
    return val / x**2


def random_density_matrix(rng, dim=4, rank=None):
    """Mixed state from a Ginibre factor, full rank unless specified."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim=4):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_unitary(rng, dim=2):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
