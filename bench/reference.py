"""Reference computations the benchmark checks the program against.

Nothing here calls into ``tikm``.  The sector Hamiltonian is rebuilt with
numpy bit operations over the whole occupation space (a different algorithm
from the program's per-state loop), ground states come from ARPACK through
``scipy.sparse.linalg.eigsh``, and <S_A . S_B> is the expectation of the
benchmark's own impurity-exchange operator.  The full-Fock-space oracle of
the test suite is loaded by path from ``tests/oracles.py``.

Conventions are the program's documented ones: orbital(site, spin) =
2*site + spin with spin 0 = up, orbital 0 the least significant occupation
bit, and the two impurity bits (set = up, impurity A the higher bit) above
the 2L occupation bits.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import eigsh


def load_oracles(root: Path):
    """Import the test suite's independent oracle module from a checkout."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bit(values: np.ndarray, p: int) -> np.ndarray:
    return (values >> p) & 1


def sector_codes(sites: int, nup: int, ndn: int) -> np.ndarray:
    """Sorted codes of the sector with nup + ndn electrons and 2*S^z = nup - ndn."""
    n_orb = 2 * sites
    occ = np.arange(1 << n_orb, dtype=np.int64)
    even = sum(1 << (2 * s) for s in range(sites))
    n_up = np.bitwise_count(occ & even).astype(np.int64)
    n_dn = np.bitwise_count(occ & (even << 1)).astype(np.int64)
    parts = []
    for imp in range(4):
        imp_sz2 = 2 * imp.bit_count() - 2
        keep = (n_up + n_dn == nup + ndn) & (n_up - n_dn + imp_sz2 == nup - ndn)
        parts.append((imp << n_orb) | occ[keep])
    return np.sort(np.concatenate(parts))


def hamiltonian(codes: np.ndarray, sites: int, hopping: float, jk: float, idirect: float, xa: int, xb: int):
    """-t hops + jk (S_A.s(xa) + S_B.s(xb)) + idirect S_A.S_B on the given sector, as CSR."""
    n_orb = 2 * sites
    occ = codes & ((1 << n_orb) - 1)
    a_up = _bit(codes, n_orb + 1)
    b_up = _bit(codes, n_orb)
    sz_a, sz_b = a_up - 0.5, b_up - 0.5
    rows, cols, vals = [], [], []

    def couple(mask: np.ndarray, flip: int, value) -> None:
        """Add <target|H|source> and its transpose for the sources selected by mask."""
        src = np.flatnonzero(mask)
        dst = np.searchsorted(codes, codes[src] ^ flip)
        if not np.array_equal(codes[np.minimum(dst, len(codes) - 1)], codes[src] ^ flip):
            raise ValueError("a term leaves the sector")
        value = np.broadcast_to(value, mask.shape)[src]
        rows.extend((dst, src))
        cols.extend((src, dst))
        vals.extend((value, value))

    for s in range(sites - 1):
        for spin in (0, 1):
            p, q = 2 * s + spin, 2 * s + 2 + spin
            # c+_p c_q moves an electron from q down to p past orbital p + 1
            mask = (_bit(occ, q) == 1) & (_bit(occ, p) == 0)
            couple(mask, (1 << p) | (1 << q), -hopping * (1.0 - 2.0 * _bit(occ, p + 1)))
    diag = idirect * sz_a * sz_b
    for x, imp_up, imp_bit in ((xa, a_up, n_orb + 1), (xb, b_up, n_orb)):
        up, dn = _bit(occ, 2 * x), _bit(occ, 2 * x + 1)
        diag = diag + jk * (imp_up - 0.5) * 0.5 * (up - dn)
        # S-_imp s+_x: impurity up -> down, electron down -> up (adjacent orbitals, sign +1)
        couple((imp_up == 1) & (dn == 1) & (up == 0), (1 << imp_bit) | (3 << (2 * x)), 0.5 * jk)
    couple((a_up == 1) & (b_up == 0), 3 << n_orb, 0.5 * idirect)
    idx = np.arange(len(codes))
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    dim = len(codes)
    h = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim))
    h = h.tocsr()
    h.sum_duplicates()
    h.eliminate_zeros()
    return h


class Sector:
    """One model's sector with the benchmark's own operators."""

    def __init__(self, sites: int, hopping: float, jk: float, idirect: float, xa: int, xb: int, nup: int, ndn: int):
        self.codes = sector_codes(sites, nup, ndn)
        self.h = hamiltonian(self.codes, sites, hopping, jk, idirect, xa, xb)
        self.sdots = hamiltonian(self.codes, sites, 0.0, 0.0, 1.0, xa, xb)

    def ground(self) -> tuple[float, np.ndarray]:
        """Lowest eigenpair by ARPACK (dense eigh for small sectors)."""
        dim = self.h.shape[0]
        if dim <= 64:
            w, v = np.linalg.eigh(self.h.toarray())
            return float(w[0]), v[:, 0]
        v0 = np.random.default_rng(12345).standard_normal(dim)
        w, v = eigsh(self.h, k=1, which="SA", v0=v0, tol=0.0)
        return float(w[0]), v[:, 0]

    def spin_correlation(self, psi: np.ndarray) -> float:
        """<psi| S_A . S_B |psi> / <psi|psi>."""
        return float(psi @ (self.sdots @ psi) / (psi @ psi))


def centered_pair(sites: int, separation: int) -> tuple[int, int]:
    """Reflection-symmetric impurity sites at the given separation."""
    xa = (sites - 1 - separation) // 2
    return xa, xa + separation
