"""Exact diagonalization of two spin-1/2 impurities exchange-coupled to a finite chain.

Model realized on an open nearest-neighbor chain of ``sites`` orbitals:

    H = -t sum_{i,s} (c+_{i,s} c_{i+1,s} + h.c.)
        + jk * (S_A . s(x_A) + S_B . s(x_B))
        + idirect * S_A . S_B

where s(x) is the on-site conduction-electron spin density and the exchange
terms are expanded as S^z s^z + (S+ s- + S- s+)/2.  ``jk > 0`` is
antiferromagnetic (the physically screening sign).  The Hamiltonian is real
and conserves the electron number and the total S^z (impurities plus
electrons), so all work happens inside one symmetry sector.

Encoding conventions (fixed so tests can be bit-exact):

* fermion orbitals are site-major with spin-up before spin-down,
  orbital(site, spin) = 2*site + spin with spin 0 = up, 1 = down;
* orbital 0 is the least significant bit of the occupation pattern, and
  fermionic signs count occupied lower orbitals;
* impurity spins live outside the fermion space as two extra bits
  (bit set = up, impurity A is the higher bit); a full basis state is
  (impurity_bits << 2L) | occupation, and sector bases are sorted by that
  code for binary-search lookup.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable

import numpy as np
import scipy.sparse as sparse

from . import measures, qmat, werner
from .errors import (
    DegenerateGroundError,
    EmptySectorError,
    NoBracketError,
    NonMonotoneError,
    NotConvergedError,
    TikmError,
)

#: Largest chain the package will diagonalize: the half-filled sector has
#: 215 208 states, so the Lanczos block of KRYLOV_DIM + 1 vectors takes
#: 31 x 1.7 MB, about 53 MB.
MAX_SITES = 10

#: Sector dimension at and below which the dense eigensolver is used; larger
#: sectors run thick-restart Lanczos.
DENSE_CUTOFF = 512

#: Lanczos settings: the start vector's seed (fixed, so reruns are bit
#: identical); each cycle fills a block of KRYLOV_DIM + 1 vectors, and a
#: restart keeps the KEEP_RITZ lowest Ritz vectors plus the residual
#: direction; the solve ends once ||H psi - E psi|| <= RESIDUAL_RTOL *
#: max(1, |E|), and after MAX_RESTARTS cycles it fails.
LANCZOS_SEED = 7
RESIDUAL_RTOL = 1e-12
KRYLOV_DIM = 30
KEEP_RITZ = 6
MAX_RESTARTS = 40

#: DGKS re-pass threshold (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
#: 772 (1976); ARPACK's dsaitr uses the same test): a Lanczos vector gets a
#: second Gram-Schmidt pass only if the first left less than this share of
#: its norm.
DGKS_ETA = 1 / math.sqrt(2)

#: Two Ritz/eigen values closer than this are treated as a degenerate ground state.
DEGENERACY_ATOL = 1e-9

#: Energy margin by which the low-S^z sector must win for a singlet verdict.
SINGLET_MARGIN = 1e-9

#: ``find_crossing`` refuses a ``tol`` below 2**-MAX_BISECTIONS of the bracket
#: and takes at most 2 * MAX_BISECTIONS steps after its pre-grid.
MAX_BISECTIONS = 64

#: ``find_crossing``'s pre-grid: 2**PRE_GRID_LEVELS + 1 evenly spaced points, ends included.
PRE_GRID_LEVELS = 3

#: A final bracket across which f_s changes by more than this many times the
#: pre-grid's secant slope times the bracket width spans a jump.
JUMP_FACTOR = 100.0


@dataclass(frozen=True)
class ChainModel:
    """Two impurities on an open chain, in a fixed electron-number sector.

    ``xa``/``xb`` default to the two central sites (reflection symmetric,
    which is what makes the impurity pair state rotation invariant); they may
    coincide, which couples both impurities to one shared site.  ``nup`` and
    ``ndn`` default to half filling for even chains.
    """

    sites: int
    hopping: float = 1.0
    jk: float = 0.0
    idirect: float = 0.0
    xa: int | None = None
    xb: int | None = None
    nup: int | None = None
    ndn: int | None = None

    def __post_init__(self) -> None:
        for name in ("sites", "xa", "xb", "nup", "ndn"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        L = self.sites
        if not 1 <= L <= MAX_SITES:
            raise ValueError(f"sites must be in [1, {MAX_SITES}], got {L!r}")
        for name in ("hopping", "jk", "idirect"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.hopping < 0.0:
            raise ValueError(f"hopping must be >= 0, got {self.hopping!r}")
        if self.jk < 0.0:
            raise ValueError(f"jk must be >= 0 (antiferromagnetic), got {self.jk!r}")
        if self.xa is None or self.xb is None:
            if self.xa is not None or self.xb is not None:
                raise ValueError("give both xa and xb or neither")
            if L == 1:
                xa, xb = 0, 0
            elif L % 2 == 0:
                xa, xb = L // 2 - 1, L // 2
            else:
                xa, xb = (L - 3) // 2, (L + 1) // 2
            object.__setattr__(self, "xa", xa)
            object.__setattr__(self, "xb", xb)
        if not 0 <= self.xa <= self.xb < L:
            raise ValueError(f"need 0 <= xa <= xb < sites, got xa={self.xa}, xb={self.xb}")
        if self.nup is None:
            object.__setattr__(self, "nup", L // 2)
        if self.ndn is None:
            object.__setattr__(self, "ndn", L // 2)
        if not (0 <= self.nup <= L and 0 <= self.ndn <= L):
            raise ValueError(f"electron counts must be in [0, {L}] per spin, got nup={self.nup}, ndn={self.ndn}")

    @property
    def nelec(self) -> int:
        return self.nup + self.ndn

    def default_sz2(self) -> int:
        """Twice the total S^z of the natural sector: electron polarization, impurities balanced."""
        return self.nup - self.ndn

    def analyze(self) -> Analysis:
        """Solve the natural sector and reduce its ground state to the impurity pair.

        This is the one path from a model to f_s: basis, Hamiltonian, ground
        state, impurity RDM and <S_A . S_B>.  The basis and the Hamiltonian
        are freed on return, before a caller solves a second sector.
        """
        basis = build_basis(self)
        g = ground_state(build_hamiltonian(self, basis))
        rho = impurity_rdm(g, basis)
        return Analysis(dim=basis.dim, ground=g, rho=rho, f_s=measures.spin_correlation(rho))


@dataclass(frozen=True)
class SectorBasis:
    """All basis states of one (electron number, total S^z) sector, sorted by code."""

    sites: int
    nelec: int
    sz2: int
    codes: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.codes)

    @property
    def n_orbitals(self) -> int:
        return 2 * self.sites


def _sz2_of(sz_total: float) -> int:
    sz2 = int(round(2.0 * float(sz_total)))
    if abs(2.0 * float(sz_total) - sz2) > 1e-9:
        raise ValueError(f"sz_total must be integer or half-integer, got {sz_total!r}")
    return sz2


def _spin_occupations(sites: int, count: int, spin: int) -> np.ndarray:
    """Occupation bits of every way to place ``count`` electrons of one spin on the chain."""
    return np.array(
        [sum(1 << (2 * s + spin) for s in chosen) for chosen in combinations(range(sites), count)],
        dtype=np.int64,
    )


def build_basis(model: ChainModel, sz_total: float | None = None) -> SectorBasis:
    """Enumerate the sector with the model's electron number and given total S^z.

    The enumeration is exhaustive and duplicate free: for each impurity
    configuration the electron up/down split is fixed by the S^z balance, and
    every up occupation is joined with every down occupation.
    """
    sz2 = model.default_sz2() if sz_total is None else _sz2_of(sz_total)
    L = model.sites
    ne = model.nelec
    n_orb = 2 * L
    if (ne - sz2) % 2 != 0:
        raise EmptySectorError(f"no states: {ne} electrons plus two impurities cannot reach 2*S^z = {sz2}")
    blocks: list[np.ndarray] = []
    for imp in range(4):
        imp_sz2 = 2 * int(imp).bit_count() - 2
        e_sz2 = sz2 - imp_sz2
        if (ne + e_sz2) % 2:
            continue
        nu = (ne + e_sz2) // 2
        nd = ne - nu
        if not (0 <= nu <= L and 0 <= nd <= L):
            continue
        up = _spin_occupations(L, nu, 0)
        dn = _spin_occupations(L, nd, 1)
        blocks.append(((imp << n_orb) | up[:, None] | dn[None, :]).ravel())
    if not blocks:
        raise EmptySectorError(f"no states with {ne} electrons and 2*S^z = {sz2} on {L} sites")
    return SectorBasis(sites=L, nelec=ne, sz2=sz2, codes=np.sort(np.concatenate(blocks)))


def _bit(codes: np.ndarray, p: int) -> np.ndarray:
    return (codes >> p) & 1


def build_hamiltonian(model: ChainModel, basis: SectorBasis) -> sparse.csr_matrix:
    """Assemble the sector Hamiltonian as a real symmetric CSR matrix.

    Each off-diagonal term is applied to all basis codes at once: a mask
    selects the states it acts on, an XOR flips the bits it changes, and the
    fermionic sign is the parity of the occupied orbitals strictly between
    the two it moves an electron across.  Every target is looked up in the
    sorted sector codes; a missing target would mean a term leaks out of the
    symmetry sector and raises immediately.
    """
    L = model.sites
    n_orb = 2 * L
    t = model.hopping
    jk = model.jk
    idir = model.idirect
    codes = basis.codes
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def emit(src: np.ndarray, flip: int, value) -> None:
        target = codes[src] ^ flip
        j = np.searchsorted(codes, target)
        found = codes[np.minimum(j, len(codes) - 1)] == target
        if not found.all():
            raise TikmError(f"term leaves the symmetry sector (state code {int(target[~found][0])})")
        rows.append(j.astype(np.int32))
        cols.append(src.astype(np.int32))
        vals.append(np.broadcast_to(value, src.shape))

    a_up = _bit(codes, n_orb + 1)
    b_up = _bit(codes, n_orb)
    diag = np.zeros(basis.dim)

    if t != 0.0:
        for s in range(L - 1):
            for spin in (0, 1):
                p, q = 2 * s + spin, 2 * (s + 1) + spin
                between = ((1 << q) - 1) & ~((1 << (p + 1)) - 1)
                src = np.flatnonzero(_bit(codes, p) != _bit(codes, q))
                odd = np.bitwise_count(codes[src] & between) & 1
                emit(src, (1 << p) | (1 << q), np.where(odd == 1, t, -t))

    if jk != 0.0:
        for x, up, imp_flip in ((model.xa, a_up, 2), (model.xb, b_up, 1)):
            n_u = _bit(codes, 2 * x)
            n_d = _bit(codes, 2 * x + 1)
            s_imp = np.where(up, 0.5, -0.5)
            diag += jk * s_imp * 0.5 * (n_u - n_d)
            # S- s+ lowers an up impurity and raises a down electron, S+ s- the
            # reverse; both orbitals sit on one site, so no sign arises
            src = np.flatnonzero((n_u != n_d) & (up == n_d))
            emit(src, (imp_flip << n_orb) | (3 << (2 * x)), 0.5 * jk)

    if idir != 0.0:
        diag += idir * np.where(a_up, 0.5, -0.5) * np.where(b_up, 0.5, -0.5)
        # (S+_A S-_B + S-_A S+_B)/2 swaps the two impurity spins
        emit(np.flatnonzero(a_up != b_up), 3 << n_orb, 0.5 * idir)

    src = np.flatnonzero(diag != 0.0)
    rows.append(src.astype(np.int32))
    cols.append(src.astype(np.int32))
    vals.append(diag[src])

    def joined(parts: list[np.ndarray]) -> np.ndarray:
        # drop the per-term arrays as soon as they are copied, so they are
        # gone before the CSR conversion allocates its own copy
        out = np.concatenate(parts)
        parts.clear()
        return out

    coo = sparse.coo_matrix((joined(vals), (joined(rows), joined(cols))), shape=(basis.dim, basis.dim))
    return coo.tocsr()


@dataclass
class GroundStateResult:
    """Lowest eigenpair of one sector, with solver diagnostics."""

    energy: float
    amplitudes: np.ndarray
    iterations: int
    residual_norm: float
    degenerate: bool
    gap: float
    method: str


@dataclass
class Analysis:
    """A model's natural-sector ground state reduced to the impurity pair."""

    dim: int
    ground: GroundStateResult
    rho: np.ndarray
    f_s: float


def _thick_restart_lanczos(h, V):
    """Lowest eigenpair of ``h`` by thick-restart Lanczos from the unit vector V[0].

    The basis lives in the rows of V, and each cycle extends it to
    ``len(V) - 1`` vectors.  A step subtracts its known local terms, then
    runs one classical Gram-Schmidt pass over the whole basis, and a second
    one only when the first left less than DGKS_ETA of the norm measured after
    the local subtraction.  A cycle ends early once the residual estimate
    |beta * y_last| of the lowest Ritz pair falls below the tolerance (never,
    for a zero tolerance).  Convergence is accepted on the explicit residual
    ||H psi - E psi|| <= RESIDUAL_RTOL * max(1, |E|) alone; otherwise the
    cycle restarts from its KEEP_RITZ lowest Ritz vectors plus the residual
    direction, so the projected matrix becomes diagonal plus an arrow row
    (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)).  Stops after
    MAX_RESTARTS cycles or when the Krylov space is exhausted (invariant).

    Returns (ritz_values, psi, iterations, rows, residual): the final cycle's
    Ritz values in ascending order, the unit Ritz vector of the lowest, the
    number of matrix-vector steps, the number of basis rows of the final
    cycle (orthonormal, left in ``V[:rows]``) and the explicit residual.
    """
    m = V.shape[0] - 1
    T = np.zeros((m, m))
    k = iterations = 0
    for cycle in range(MAX_RESTARTS):
        exhausted = False
        n = m
        for j in range(k, m):
            w = h @ V[j]
            iterations += 1
            alpha = T[j, j] = float(V[j] @ w)
            w -= alpha * V[j]
            if j == k and k > 0:
                w -= T[:k, k] @ V[:k]
            elif j > 0:
                w -= T[j - 1, j] * V[j - 1]
            before = float(np.linalg.norm(w))
            w -= (V[: j + 1] @ w) @ V[: j + 1]
            beta = float(np.linalg.norm(w))
            if beta < DGKS_ETA * before:
                # the pass cancelled most of w, so what is left carries its
                # round-off relative to the old norm: project once more
                w -= (V[: j + 1] @ w) @ V[: j + 1]
                beta = float(np.linalg.norm(w))
            if beta < 1e-13 * max(1.0, abs(alpha)):
                exhausted = True
                n = j + 1
                break
            V[j + 1] = w / beta
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
            # every third step: the small eigh costs at most a seventh of a step at L=8
            if (j + 1) % 3 == 0:
                theta, y = np.linalg.eigh(T[: j + 1, : j + 1])
                if abs(beta * y[j, 0]) < RESIDUAL_RTOL * max(1.0, abs(theta[0])):
                    n = j + 1
                    break
        del w  # before the restart's (KEEP_RITZ, dim) temporary
        theta, Y = np.linalg.eigh(T[:n, :n])
        psi = Y[:, 0] @ V[:n]
        psi /= np.linalg.norm(psi)
        residual = float(np.linalg.norm(h @ psi - theta[0] * psi))
        if exhausted or residual <= RESIDUAL_RTOL * max(1.0, abs(theta[0])) or cycle == MAX_RESTARTS - 1:
            return theta, psi, iterations, n, residual
        # the lowest Ritz vectors and the residual direction V[n] span the next
        # cycle's start; H couples V[k] to each kept vector by beta * y_last
        k = min(KEEP_RITZ, n - 1)
        V[:k] = Y[:, :k].T @ V[:n]
        V[k] = V[n]
        T = np.zeros((m, m))
        T[:k, :k] = np.diag(theta[:k])
        T[:k, k] = T[k, :k] = beta * Y[n - 1, :k]


def ground_state(h: sparse.csr_matrix) -> GroundStateResult:
    """Lowest eigenpair of a sector Hamiltonian.

    The sector size alone picks the path: a dense eigensolve at or below
    DENSE_CUTOFF states, else thick-restart Lanczos from a fixed-seed start
    vector in one block of KRYLOV_DIM + 1 vectors.  Both paths leave through
    one exit: it raises NotConvergedError unless the explicit residual
    ||H psi - E psi|| is at most 1e-8 * max(1, |E|), and ``gap`` is the
    second eigenvalue (on the Lanczos path the final cycle's second Ritz
    value, an upper bound on E_1) minus the energy; a gap below
    DEGENERACY_ATOL marks the result degenerate.  A single start vector does
    not see an exactly degenerate partner within the sector, so the Lanczos
    path can miss such a degeneracy.
    """
    dim = h.shape[0]
    if dim == 0:
        raise EmptySectorError("empty Hamiltonian")
    if dim <= DENSE_CUTOFF:
        method, iterations = "dense", 0
        values, vectors = qmat.hermitian_eig(h.toarray())
        psi = np.ascontiguousarray(vectors[:, 0])
        psi /= np.linalg.norm(psi)
        residual = float(np.linalg.norm(h @ psi - float(values[0]) * psi))
    else:
        method = "lanczos"
        V = np.empty((min(KRYLOV_DIM, dim) + 1, dim))
        V[0] = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
        V[0] /= np.linalg.norm(V[0])
        values, psi, iterations, _, residual = _thick_restart_lanczos(h, V)
    energy = float(values[0])
    if residual > 1e-8 * max(1.0, abs(energy)):
        raise NotConvergedError(
            f"{method.capitalize()} stalled at residual {residual:.3e} after {iterations} iterations",
            iterations=iterations,
            residual=residual,
        )
    gap = float(values[1]) - energy if len(values) > 1 else math.inf
    return GroundStateResult(
        energy=energy,
        amplitudes=psi,
        iterations=iterations,
        residual_norm=residual,
        degenerate=gap < DEGENERACY_ATOL,
        gap=gap,
        method=method,
    )


def singlet_check(model: ChainModel, energy: float) -> bool:
    """True iff the natural-sector ground energy ``energy`` has no partner in the next S^z sector.

    Solves only the sector with S^z raised by one and compares its ground
    energy with ``energy``; a multiplet with S >= 1 (or >= 3/2 for odd
    electron count) appears degenerately in both, a singlet (or Kramers
    doublet) does not.
    """
    h = build_hamiltonian(model, build_basis(model, (model.default_sz2() + 2) / 2.0))
    return energy < ground_state(h).energy - SINGLET_MARGIN


#: Impurity configuration bits -> index in the {uu, ud, du, dd} product basis.
_IMP_TO_BASIS = (3, 2, 1, 0)


def impurity_rdm(g: GroundStateResult, basis: SectorBasis) -> np.ndarray:
    """4x4 reduced density matrix of the impurity pair.

    Sums |amplitude|^2 outer products over electron configurations; no
    fermionic signs arise because the impurity bits sit outside the fermion
    space.  The result is Hermitized, trace normalized and validated.  Raises
    DegenerateGroundError if the solver marked the state non-unique.
    """
    if g.degenerate:
        raise DegenerateGroundError(
            f"ground state is degenerate within the sector (gap {g.gap:.3e}); the reduced state is ill-defined"
        )
    if len(g.amplitudes) != basis.dim:
        raise ValueError("state vector does not match basis dimension")
    n_orb = basis.n_orbitals
    occ = basis.codes & ((1 << n_orb) - 1)
    imp = basis.codes >> n_orb
    uniq, inverse = np.unique(occ, return_inverse=True)
    m = np.zeros((len(uniq), 4), dtype=complex)
    cols = np.array(_IMP_TO_BASIS, dtype=np.int64)[imp]
    m[inverse, cols] = g.amplitudes
    rho = m.T @ m.conj()
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real
    return qmat.check_density_matrix(rho, name="impurity rdm")


@dataclass
class SweepPoint:
    """Analysis record for one grid value of a parameter sweep."""

    value: float
    energy: float | None = None
    f_s: float | None = None
    singlet: bool | None = None
    degenerate: bool = False
    werner_residual: float | None = None
    report: werner.EntanglementReport | None = None
    error: str | None = None


_SWEEP_PARAMS = ("jk", "idirect", "separation")


def model_at(model: ChainModel, param: str, value: float) -> ChainModel:
    """Model with one swept parameter replaced; ``separation`` recenters the impurities."""
    if param in ("jk", "idirect"):
        return replace(model, **{param: float(value)})
    if param == "separation":
        if not math.isfinite(value):
            raise ValueError(f"separation must be finite, got {value!r}")
        d = int(round(value))
        if abs(value - d) > 1e-9 or d < 0:
            raise ValueError(f"separation must be a nonnegative integer, got {value!r}")
        if (model.sites - 1 - d) % 2 or d > model.sites - 1:
            raise ValueError(f"separation {d} cannot be centered on {model.sites} sites")
        xa = (model.sites - 1 - d) // 2
        return replace(model, xa=xa, xb=xa + d)
    raise ValueError(f"param must be one of {_SWEEP_PARAMS}, got {param!r}")


def _analyze_point(model: ChainModel, param: str, value: float) -> SweepPoint:
    try:
        m = model_at(model, param, value)
        a = m.analyze()
        singlet = singlet_check(m, a.ground.energy)
        return SweepPoint(
            value=float(value),
            energy=a.ground.energy,
            f_s=a.f_s,
            singlet=singlet,
            degenerate=not singlet,
            werner_residual=measures.werner_residual(a.rho),
            report=werner.classify(werner.from_correlation(a.f_s)),
        )
    except (TikmError, ValueError) as exc:
        return SweepPoint(value=float(value), error=f"{type(exc).__name__}: {exc}")


def sweep(
    model: ChainModel,
    param: str,
    grid: Iterable[float],
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """Analyze the ground state along a parameter grid.

    Points are evaluated serially, in grid order, on the calling thread.  A
    thread pool made every sweep slower: each point is a short solve, so the
    threads contended for the interpreter lock and the two-thread BLAS.
    ``max_workers`` is accepted for existing callers and ignored.  Points
    whose ground state is degenerate within its sector, or that fail for any
    other reason, come back with ``error`` set instead of aborting the
    sweep.  A ground multiplet that merely extends across S^z
    sectors (e.g. a ferromagnetically locked triplet, where every member
    shares f_s = +1/4) is reported with ``degenerate=True``.
    """
    if param not in _SWEEP_PARAMS:
        raise ValueError(f"param must be one of {_SWEEP_PARAMS}, got {param!r}")
    return [_analyze_point(model, param, float(v)) for v in grid]


def point_correlation(model: ChainModel, param: str, value: float) -> float:
    """f_s of the (unique) sector ground state at one parameter value."""
    return model_at(model, param, value).analyze().f_s


def find_crossing(
    model: ChainModel,
    param: str,
    lo: float,
    hi: float,
    target_fs: float = -0.25,
    tol: float = 1e-6,
) -> float:
    """Find the parameter value where f_s crosses ``target_fs``.

    Monotonicity of f_s is checked on an evenly spaced pre-grid of
    2**PRE_GRID_LEVELS + 1 points (NonMonotoneError lists the offending
    ones) and the endpoints must straddle the target (NoBracketError
    otherwise).  The search then narrows the pre-grid cell
    whose ends straddle the target with a safeguarded secant method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).  Each
    step solves the secant estimate through the two most recently solved
    points, kept at least tol/2 inside the bracket, so that once the
    estimate is close the next point lands on the far side of the crossing
    and closes the bracket.  It falls back to the bracket midpoint when the
    estimate leaves the bracket or when the last two steps did not at least
    halve the bracket, which keeps the worst case within a small multiple of
    bisection's step count.  A solved point within 1e-12 of the target is
    returned as is; otherwise the search stops once the bracket is narrower
    than ``tol`` and returns its midpoint, which is within tol/2 of the
    crossing because the bracket always contains it.  ``tol`` must be
    finite, positive, reachable within MAX_BISECTIONS halvings and above
    twice the float spacing at the bracket ends; then every step lands
    strictly inside the bracket, so no value is solved twice.  A crossing
    must be continuous: if f_s changes across the
    final bracket by more than JUMP_FACTOR (100) times the pre-grid's secant
    slope times the bracket width, f_s jumps over the target there and
    NonMonotoneError is raised.  ``lo``, ``hi`` and ``target_fs`` must be
    finite.  Endpoint order does not matter.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"lo and hi must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        raise NoBracketError(f"empty interval [{lo}, {hi}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if (hi - lo) / tol > 2.0**MAX_BISECTIONS:
        raise ValueError(f"tol {tol!r} needs more than {MAX_BISECTIONS} bisections of [{lo}, {hi}]")
    if tol <= 2.0 * np.spacing(max(abs(lo), abs(hi))):
        raise ValueError(f"tol {tol!r} is below the float resolution of [{lo}, {hi}]")
    if not math.isfinite(target_fs):
        raise ValueError(f"target_fs must be finite, got {target_fs!r}")
    xs = np.linspace(lo, hi, 2**PRE_GRID_LEVELS + 1).tolist()
    fs = [point_correlation(model, param, x) for x in xs]
    direction = np.sign(fs[-1] - fs[0])
    offending = [
        (xs[k], fs[k], xs[k + 1], fs[k + 1])
        for k in range(len(xs) - 1)
        if direction * (fs[k + 1] - fs[k]) < -1e-12
    ]
    if direction == 0.0 or offending:
        raise NonMonotoneError(
            f"f_s is not monotone in {param} on [{lo}, {hi}]",
            points=offending or [(lo, fs[0], hi, fs[-1])],
        )
    gs = [f - target_fs for f in fs]
    if gs[0] * gs[-1] > 0.0:
        raise NoBracketError(
            f"f_s does not cross {target_fs} on [{lo}, {hi}] (endpoints {fs[0]:.6f}, {fs[-1]:.6f})"
        )
    for x, g in zip(xs, gs):
        if abs(g) < 1e-12:
            return x
    k = next(k for k in range(len(xs) - 1) if gs[k] * gs[k + 1] < 0.0)
    a, b, g_a, g_b = xs[k], xs[k + 1], gs[k], gs[k + 1]
    x_old, g_old, x_new, g_new = a, g_a, b, g_b  # the two most recently solved points
    width_before_last = width_last = math.inf
    for _ in range(2 * MAX_BISECTIONS):
        width = b - a
        if width < tol:
            break
        x = 0.5 * (a + b)
        if width <= 0.5 * width_before_last and g_new != g_old:
            estimate = x_new - g_new * (x_new - x_old) / (g_new - g_old)
            if a < estimate < b:
                x = min(max(estimate, a + 0.5 * tol), b - 0.5 * tol)
        width_before_last, width_last = width_last, width
        g_x = point_correlation(model, param, x) - target_fs
        if abs(g_x) < 1e-12:
            return x
        x_old, g_old, x_new, g_new = x_new, g_new, x, g_x
        if (g_x > 0.0) == (g_a > 0.0):
            a, g_a = x, g_x
        else:
            b, g_b = x, g_x
    if b - a >= tol:
        raise ValueError(f"bracket [{a}, {b}] is still wider than tol {tol!r} after {2 * MAX_BISECTIONS} steps")
    slope = abs(fs[-1] - fs[0]) / (hi - lo)
    if abs(g_b - g_a) > JUMP_FACTOR * slope * (b - a):
        raise NonMonotoneError(
            f"f_s jumps over {target_fs} in {param} between {a} and {b} "
            f"(from {g_a + target_fs:.6f} to {g_b + target_fs:.6f})",
            points=[(a, g_a + target_fs, b, g_b + target_fs)],
        )
    return 0.5 * (a + b)
