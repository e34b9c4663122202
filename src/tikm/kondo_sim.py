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
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable

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

#: Energy margin by which the low-S^z sector must win for ``singlet_check``'s verdict.
SINGLET_MARGIN = 1e-9

#: Largest mixing residual ||S^2 psi - <S^2> psi|| of a ground vector that is
#: taken as one spin multiplet (1e-3).  A solve stops at a residual
#: r <= RESIDUAL_RTOL * max(1, |E|), and a vector with residual r holds at most
#: r / delta of a level delta away; a level whose S(S+1) differs by D then
#: adds at most D * r / delta to the mixing residual.  So a singlet split by
#: delta from a triplet (D = 2) passes once delta > 2 * max(1, |E|) *
#: DEGENERACY_ATOL, the scale of the gap test.  The other way round, a
#: mixture of two multiplets with minority weight w has a mixing residual of
#: at least 2 sqrt(w (1 - w)), so every w above 2.5e-7 is caught; and as
#: S_A . S_B couples no two values of S, a mixture that passes moves f_s by at
#: most w.
SPIN_MIXING_ATOL = RESIDUAL_RTOL / DEGENERACY_ATOL

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

    ``xa``/``xb`` default to the two central sites; they may coincide, which
    couples both impurities to one shared site.  ``nup`` and ``ndn`` default
    to half filling for even chains.  The impurity pair state is rotation
    invariant (of the Werner form) whenever the ground state is a spin
    singlet, whatever the placement; the centred default is not what makes
    it so.
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

        This is the path from a model to f_s: basis, Hamiltonian, ground
        state, impurity RDM and <S_A . S_B>; ``CouplingLine.analyze`` shares
        all but the assembly.  The Hamiltonian is freed once solved; the basis
        stays with the result for ``Analysis.singlet``.
        """
        basis = build_basis(self)
        return _reduce(basis, ground_state(build_hamiltonian(self, basis)))


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

    @cached_property
    def s2_ladder(self) -> sparse.csr_matrix:
        """The ladder operator ``spin_squared`` applies: S^+ for S^z >= 0, else S^-; built once per basis."""
        return spin_ladder(self, 1 if self.sz2 >= 0 else -1)[0]

    @cached_property
    def rdm_index(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Where ``impurity_rdm`` puts each amplitude: (electron configuration row, impurity column, rows)."""
        n_orb = self.n_orbitals
        uniq, inverse = np.unique(self.codes & ((1 << n_orb) - 1), return_inverse=True)
        return inverse.astype(np.int32), np.array(_IMP_TO_BASIS, dtype=np.int8)[self.codes >> n_orb], len(uniq)


def _sz2_of(sz_total: float) -> int:
    twice = 2.0 * float(sz_total)
    if not math.isfinite(twice):
        raise ValueError(f"sz_total must be finite, got {sz_total!r}")
    sz2 = int(round(twice))
    if abs(twice - sz2) > 1e-9:
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
    return _sector_basis(model.sites, model.nelec, sz2)


def _sector_basis(L: int, ne: int, sz2: int) -> SectorBasis:
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


def _apply_term(codes: np.ndarray, src: np.ndarray, flip: int, into: np.ndarray) -> np.ndarray:
    """Positions (int32) in the sorted codes ``into`` of the states ``codes[src]`` with the bits ``flip`` flipped.

    Every target must be one of ``into``; a missing one means the term leaves
    the symmetry sector, and TikmError is raised.
    """
    target = codes[src] ^ flip
    j = np.searchsorted(into, target)
    found = into[np.minimum(j, len(into) - 1)] == target
    if not found.all():
        raise TikmError(f"term leaves the symmetry sector (state code {int(target[~found][0])})")
    return j.astype(np.int32)


def _hamiltonian_terms(model: ChainModel, basis: SectorBasis, emit: Callable[..., None]) -> None:
    """Pass every term of the sector Hamiltonian at the model's couplings to ``emit``.

    Calls emit(rows, cols, values): for an off-diagonal term with its
    positions and values (one per entry, or one for all), for a diagonal part
    with rows and cols None and one value per basis state.  A coupling that is
    zero emits nothing.  Each off-diagonal term is applied to all basis codes
    at once: a mask selects the states it acts on, an XOR flips the bits it
    changes, and the fermionic sign is the parity of the occupied orbitals
    strictly between the two it moves an electron across.  Every target is
    looked up in the sorted sector codes by ``_apply_term``, which raises on a
    term that leaks out of the symmetry sector.  No two off-diagonal terms
    reach one entry: each flips its own set of bits.  Each term goes to
    ``emit`` as soon as it is made, and its temporaries are freed before the
    next one is allocated.  The allocation order matters: a generator, which
    holds them across a yield, left the C allocator enough freed heap at L=10
    to raise the peak RSS of a ``simulate`` process by 26 MB.
    """
    L = model.sites
    n_orb = 2 * L
    t = model.hopping
    jk = model.jk
    idir = model.idirect
    codes = basis.codes

    def term(src: np.ndarray, flip: int, value) -> None:
        emit(_apply_term(codes, src, flip, codes), src.astype(np.int32), value)

    a_up = _bit(codes, n_orb + 1)
    b_up = _bit(codes, n_orb)

    if t != 0.0:
        for s in range(L - 1):
            for spin in (0, 1):
                p, q = 2 * s + spin, 2 * (s + 1) + spin
                between = ((1 << q) - 1) & ~((1 << (p + 1)) - 1)
                src = np.flatnonzero(_bit(codes, p) != _bit(codes, q))
                odd = np.bitwise_count(codes[src] & between) & 1
                term(src, (1 << p) | (1 << q), np.where(odd == 1, t, -t))

    if jk != 0.0:
        for x, up, imp_flip in ((model.xa, a_up, 2), (model.xb, b_up, 1)):
            n_u = _bit(codes, 2 * x)
            n_d = _bit(codes, 2 * x + 1)
            s_imp = np.where(up, 0.5, -0.5)
            emit(None, None, jk * s_imp * 0.5 * (n_u - n_d))
            # S- s+ lowers an up impurity and raises a down electron, S+ s- the
            # reverse; both orbitals sit on one site, so no sign arises
            src = np.flatnonzero((n_u != n_d) & (up == n_d))
            term(src, (imp_flip << n_orb) | (3 << (2 * x)), 0.5 * jk)

    if idir != 0.0:
        emit(None, None, idir * np.where(a_up, 0.5, -0.5) * np.where(b_up, 0.5, -0.5))
        # (S+_A S-_B + S-_A S+_B)/2 swaps the two impurity spins
        term(np.flatnonzero(a_up != b_up), 3 << n_orb, 0.5 * idir)


def build_hamiltonian(model: ChainModel, basis: SectorBasis) -> sparse.csr_matrix:
    """The sector Hamiltonian from ``_hamiltonian_terms`` as a real symmetric CSR matrix that stores no zero."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros(basis.dim)

    def emit(row: np.ndarray | None, col: np.ndarray | None, value) -> None:
        if row is None:
            np.add(diag, value, out=diag)
        else:
            rows.append(row)
            cols.append(col)
            vals.append(np.broadcast_to(value, col.shape))

    _hamiltonian_terms(model, basis, emit)
    src = np.flatnonzero(diag != 0.0)
    rows.append(src.astype(np.int32))
    cols.append(src.astype(np.int32))
    vals.append(diag[src])

    coo = sparse.coo_matrix((_joined(vals), (_joined(rows), _joined(cols))), shape=(basis.dim, basis.dim))
    h = coo.tocsr()
    h.eliminate_zeros()  # an exchange term can underflow to 0, as 0.5 * 5e-324 does
    return h


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The arrays of ``parts`` joined; the list is emptied, so they are gone before a CSR conversion copies them."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def spin_ladder(basis: SectorBasis, step: int) -> tuple[sparse.csr_matrix, SectorBasis]:
    """Total S^+ (``step`` = 1) or S^- (``step`` = -1) from ``basis`` into the sector one S^z step away.

    S^+ = S^+_A + S^+_B + sum_i c+_{i,up} c_{i,down}, and S^- is its
    transpose.  An impurity term flips one impurity bit; an electron term
    moves an electron between the two spin orbitals of one site, which are
    adjacent, so no fermion sign arises and every matrix element is 1.
    Returns the CSR matrix, whose rows index the neighbouring sector, and that
    sector's basis.
    """
    if step not in (1, -1):
        raise ValueError(f"step must be 1 or -1, got {step!r}")
    target = _sector_basis(basis.sites, basis.nelec, basis.sz2 + 2 * step)
    n_orb = basis.n_orbitals
    codes = basis.codes
    # (bit that S^+ sets, bit that S^+ clears) per term: impurity A, impurity B,
    # then the up and down orbitals of each site
    terms = [(1 << (n_orb + 1), 0), (1 << n_orb, 0)]
    terms += [(1 << (2 * s), 1 << (2 * s + 1)) for s in range(basis.sites)]
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for sets, clears in terms:
        src = np.flatnonzero((codes & (sets | clears)) == (clears if step > 0 else sets))
        rows.append(_apply_term(codes, src, sets | clears, target.codes))
        cols.append(src.astype(np.int32))
    row = np.concatenate(rows)
    ladder = sparse.coo_matrix((np.ones(len(row)), (row, np.concatenate(cols))), shape=(target.dim, basis.dim))
    return ladder.tocsr(), target


def spin_squared(basis: SectorBasis, psi: np.ndarray) -> tuple[float, float]:
    """<S^2> of the unit vector ``psi`` on ``basis``, and its mixing residual ||S^2 psi - <S^2> psi||.

    With S^s the ladder operator that steps away from S^z = 0 (S^+ for
    S^z >= 0, else S^-) and phi = S^s psi, S^2 = S_z^2 + |S_z| + (S^s)^T S^s
    gives <S^2> = S_z^2 + |S_z| + ||phi||^2 and a residual vector
    (S^s)^T phi - ||phi||^2 psi.  H commutes with S^2, so the vector of a
    non-degenerate level has residual 0; a vector drawn from a degenerate
    level that spans several S does not (Sandvik, AIP Conf. Proc. 1297, 135
    (2010), sec. 4).
    """
    ladder = basis.s2_ladder
    phi = ladder @ psi
    norm2 = float(phi @ phi)
    sz = abs(basis.sz2) / 2
    return sz * (sz + 1) + norm2, float(np.linalg.norm(ladder.T @ phi - norm2 * psi))


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

    basis: SectorBasis
    ground: GroundStateResult
    rho: np.ndarray
    f_s: float

    @property
    def dim(self) -> int:
        return self.basis.dim

    def singlet(self) -> bool:
        """The spin verdict on the ground vector, from ``spin_squared``.

        Raises DegenerateGroundError when the mixing residual exceeds
        SPIN_MIXING_ATOL: the vector mixes the multiplets of a degenerate
        ground level, which a Lanczos solve returns without a small gap.
        Otherwise True iff <S^2> = |S^z|(|S^z| + 1), the least S of the sector:
        a singlet, or a Kramers doublet for an odd electron count.  For one
        multiplet <S^2> - |S^z|(|S^z| + 1) is 0 or at least 2, so the test
        splits at 1.
        """
        s2, mixing = spin_squared(self.basis, self.ground.amplitudes)
        if mixing > SPIN_MIXING_ATOL:
            raise DegenerateGroundError(
                f"ground vector mixes spin multiplets (<S^2> {s2:.6g}, mixing residual {mixing:.3e}); "
                "the ground state is degenerate and the reduced state is ill-defined"
            )
        sz = abs(self.basis.sz2) / 2
        return s2 - sz * (sz + 1) < 1.0


def _reduce(basis: SectorBasis, g: GroundStateResult) -> Analysis:
    """The Analysis of the ground state ``g`` on ``basis``: its impurity RDM and f_s."""
    rho = impurity_rdm(g, basis)
    return Analysis(basis=basis, ground=g, rho=rho, f_s=measures.spin_correlation(rho))


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

    The sector size alone picks the path: a dense eigensolve of only the two
    lowest eigenpairs (``qmat.hermitian_eig(..., lowest=2)``) at or below
    DENSE_CUTOFF states, else thick-restart Lanczos from a fixed-seed start
    vector in one block of KRYLOV_DIM + 1 vectors.  Both paths leave through
    one exit: it raises NotConvergedError unless the energy E is finite and
    the explicit residual ||H psi - E psi|| is at most 1e-8 * max(1, |E|)
    (a NaN residual fails), and ``gap`` is the second eigenvalue (on the
    Lanczos path the final cycle's second Ritz value, an upper bound on E_1)
    minus the energy; a gap below DEGENERACY_ATOL marks the result
    degenerate.  A single start vector does not see an exactly degenerate
    partner within the sector, so the Lanczos path can miss such a
    degeneracy; ``Analysis.singlet`` catches it from S^2 when the partner has
    another S.  Arithmetic that overflows, divides by zero or makes a NaN
    (couplings near the float limit) also raises NotConvergedError, and so
    does a LAPACK failure, among them a NaN entry of H, for which the dense
    driver finds no eigenvalue.
    """
    dim = h.shape[0]
    if dim == 0:
        raise EmptySectorError("empty Hamiltonian")
    method = "dense" if dim <= DENSE_CUTOFF else "lanczos"
    iterations = 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if method == "dense":
                values, vectors = qmat.hermitian_eig(h.toarray(), lowest=2)
                psi = np.ascontiguousarray(vectors[:, 0])
                psi /= np.linalg.norm(psi)
                residual = float(np.linalg.norm(h @ psi - float(values[0]) * psi))
            else:
                V = np.empty((min(KRYLOV_DIM, dim) + 1, dim))
                V[0] = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
                V[0] /= np.linalg.norm(V[0])
                values, psi, iterations, _, residual = _thick_restart_lanczos(h, V)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NotConvergedError(f"{method.capitalize()} solve hit non-finite arithmetic ({exc})") from exc
    energy = float(values[0])
    if not (math.isfinite(energy) and residual <= 1e-8 * max(1.0, abs(energy))):
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

    Solves only the sector one step of S^z further from zero (raised for
    S^z >= 0, lowered below) and compares its ground energy with
    ``energy``; a multiplet with S >= 1 (or >= 3/2 for odd electron count)
    that reaches the natural sector appears degenerately in both, a singlet
    (or Kramers doublet) does not.  Stepping towards zero instead would
    find every multiplet of the natural sector again.
    """
    sz2 = model.default_sz2()
    h = build_hamiltonian(model, build_basis(model, (sz2 + (2 if sz2 >= 0 else -2)) / 2.0))
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
    rows, cols, n_rows = basis.rdm_index
    m = np.zeros((n_rows, 4), dtype=complex)
    m[rows, cols] = g.amplitudes
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
        if a.ground.method == "lanczos":
            # a dense solve's exact gap already refuses an in-sector degeneracy
            a.singlet()
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

    Points are evaluated serially, in grid order, on the calling thread.
    ``max_workers`` is ignored; it stays only because the benchmark's tests
    (``bench/test_bench.py``) still pass it.  Points
    whose ground state is degenerate within its sector (on the Lanczos path
    also a ground vector that mixes spin multiplets, see
    ``Analysis.singlet``), or that fail for any other reason, come back with
    ``error`` set instead of aborting the sweep.  A ground multiplet that
    merely extends across S^z sectors (e.g. a ferromagnetically locked
    triplet, where every member shares f_s = +1/4) is reported with
    ``degenerate=True``.
    """
    if param not in _SWEEP_PARAMS:
        raise ValueError(f"param must be one of {_SWEEP_PARAMS}, got {param!r}")
    return [_analyze_point(model, param, float(v)) for v in grid]


class CouplingLine:
    """A model's sector Hamiltonian along one coupling p: H(p) = H_rest + p * H_p, each part built once.

    ``param`` names p, ``jk`` or ``idirect``; the other couplings keep the
    model's values.  The line holds two matrices from ``build_hamiltonian``:
    H_rest, the model at p = 0, and H_p, that coupling alone at p = 1.  A
    point is their sum, which gives build_hamiltonian(model_at(model, param,
    p)) array for array: every entry of H_p is a power of two, so p * H_p
    rounds nothing (short of subnormal results), a diagonal entry adds one
    H_rest value to it as the builder does, and scipy's sum drops the results
    that are exactly zero, as the builder never stores them.  The basis, with
    the RDM index and the S^2 ladder it caches, serves every point.
    """

    def __init__(self, model: ChainModel, param: str) -> None:
        if param not in ("jk", "idirect"):
            raise ValueError(f"a coupling line runs along jk or idirect, got {param!r}")
        self.model = model
        self.param = param
        self.basis = build_basis(model)
        self._rest = build_hamiltonian(replace(model, **{param: 0.0}), self.basis)
        self._unit = build_hamiltonian(
            replace(model, **{"hopping": 0.0, "jk": 0.0, "idirect": 0.0, param: 1.0}), self.basis
        )

    def hamiltonian(self, value: float) -> sparse.csr_matrix:
        """H at ``param`` = ``value``; ``value`` is checked as ``ChainModel`` checks that coupling."""
        p = getattr(model_at(self.model, self.param, value), self.param)
        return self._rest + p * self._unit

    def analyze(self, value: float) -> Analysis:
        """``model_at(model, param, value).analyze()``, solved on H(value)."""
        return _reduce(self.basis, ground_state(self.hamiltonian(value)))

    def correlation(self, value: float) -> float:
        """f_s at ``value``, once ``Analysis.singlet`` has refused a ground vector that mixes spin multiplets."""
        a = self.analyze(value)
        a.singlet()
        return a.f_s


def find_crossing(
    line: CouplingLine,
    lo: float,
    hi: float,
    target_fs: float = werner.CRITICAL_CORRELATION,
    tol: float = 1e-6,
) -> float:
    """Find the value of ``line.param`` where f_s crosses ``target_fs``.

    Every point is solved on ``line``, so a caller can solve more points on
    it.  A point whose ground vector mixes spin multiplets raises
    DegenerateGroundError (``CouplingLine.correlation``).

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
    fs = [line.correlation(x) for x in xs]
    direction = np.sign(fs[-1] - fs[0])
    offending = [
        (xs[k], fs[k], xs[k + 1], fs[k + 1])
        for k in range(len(xs) - 1)
        if direction * (fs[k + 1] - fs[k]) < -1e-12
    ]
    if direction == 0.0 or offending:
        raise NonMonotoneError(
            f"f_s is not monotone in {line.param} on [{lo}, {hi}]",
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
        g_x = line.correlation(x) - target_fs
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
            f"f_s jumps over {target_fs} in {line.param} between {a} and {b} "
            f"(from {g_a + target_fs:.6f} to {g_b + target_fs:.6f})",
            points=[(a, g_a + target_fs, b, g_b + target_fs)],
        )
    return 0.5 * (a + b)
