import sys
from contextlib import contextmanager

import numpy as np
import pytest

from tikm import kondo_sim as ks


@pytest.fixture(scope="session")
def solve_on():
    """``solve_on(h, path)``: ``ground_state(h)`` forced onto the "dense" or the "lanczos" path.

    The sector size alone picks the solver, so each call moves DENSE_CUTOFF to
    ``h``'s dimension (dense) or one below it (Lanczos) for that one solve.
    Session scoped, and patched per call, so hypothesis tests can use it too.
    """

    def solve(h, path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ks, "DENSE_CUTOFF", h.shape[0] - (path == "lanczos"))
            g = ks.ground_state(h)
        assert g.method == path
        return g

    return solve


@pytest.fixture(scope="session")
def start_points():
    """``with start_points(concurrent):`` a block in which ``find_crossing`` solves its start points at once or not.

    At once (True): on the calling thread and three workers whatever the CPU
    count, with a 1 us switch interval, restored afterwards, so that the
    threads interleave.  One by one (False): numpy's BLAS pool is looked up
    under a symbol no build exports, so it reports that it cannot be
    pinned, as on a BLAS without the symbol.
    """

    @contextmanager
    def mode(concurrent):
        with pytest.MonkeyPatch.context() as mp:
            if not concurrent:
                mp.setattr(ks, "_NUMPY_BLAS", ks._BlasPool("numpy.linalg._umath_linalg", "no_such_symbol_{}"))
                yield
                return
            mp.setattr(ks, "_start_point_workers", lambda: 3)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                yield
            finally:
                sys.setswitchinterval(interval)

    return mode


@pytest.fixture
def excite_solve(monkeypatch):
    """``excite_solve(n)``: the n-th point a ``CouplingLine`` analyzes from then on gets the first excited eigenpair.

    Points are counted as the line takes their ground states
    (``CouplingLine._solve``), on the calling thread and in the order a
    serial search solves them, so the n-th is the same point whether or not
    ``find_crossing`` solved its start points at once.  The pair comes from
    numpy's full dense spectrum, so keep to sectors small enough for one;
    every other point solves as usual.
    """

    def patch(n):
        solve = ks.CouplingLine._solve
        count = 0

        def fake(line, value):
            nonlocal count
            count += 1
            if count != n:
                return solve(line, value)
            h = line.hamiltonian(value)
            values, vectors = np.linalg.eigh(h.toarray())
            psi = vectors[:, 1].copy()
            gap = float(values[2] - values[1])
            return ks.GroundStateResult(
                energy=float(values[1]),
                amplitudes=psi,
                iterations=0,
                residual_norm=float(np.linalg.norm(h @ psi - values[1] * psi)),
                degenerate=gap < ks.DEGENERACY_ATOL,
                gap=gap,
                method="dense",
            )

        monkeypatch.setattr(ks.CouplingLine, "_solve", fake)

    return patch
