import sys
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

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


#: How ``find_crossing`` solves the two chains of its start points, as
#: ``start_points`` sets it up: on the calling thread and a worker, on the
#: calling thread alone with numpy's BLAS pool pinned, or on the calling
#: thread alone with the pool left as it is.
START_POINT_MODES = ("two threads", "one thread", "unpinned")


@pytest.fixture(scope="session")
def start_points():
    """``with start_points(mode):`` a block in which ``find_crossing`` solves its start points as ``mode`` says.

    ``start_points.modes`` lists them (START_POINT_MODES).  "two threads":
    the calling thread and a worker whatever the CPU count, with a 1 us
    switch interval, restored afterwards, so that the threads interleave.
    "one thread": one usable CPU, so the calling thread solves both chains,
    with the pool pinned.  "unpinned": numpy's BLAS pool is looked up under
    a symbol no build exports, so it reports that it cannot be pinned, as on
    a BLAS without the symbol.
    """

    @contextmanager
    def mode(name):
        with pytest.MonkeyPatch.context() as mp:
            if name == "unpinned":
                mp.setattr(ks, "_NUMPY_BLAS", ks._BlasPool("numpy.linalg._umath_linalg", "no_such_symbol_{}"))
                yield
                return
            mp.setattr(ks, "_usable_cpus", lambda: 2 if name == "two threads" else 1)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                yield
            finally:
                sys.setswitchinterval(interval)

    mode.modes = START_POINT_MODES
    return mode


@pytest.fixture
def excite_solve(monkeypatch):
    """``excite_solve(n)``: the n-th point a ``CouplingLine`` analyzes from then on gets the first excited eigenpair.

    Points are counted as the line takes their ground states
    (``CouplingLine._solve``): on the calling thread, the start points in
    grid order and then the steps, whichever thread solved the start points
    ahead and in what order.  So the n-th is the same point in every mode of
    ``start_points``, and while a search runs ``analyze`` records the
    excited ground state like any other, so it can start later solves (the
    warm-start rule in ``CouplingLine``'s docstring).  The pair comes from a
    dense eigensolve of the three lowest levels, so keep to sectors small
    enough for one; every other point solves as usual.
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
            values, vectors = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, 2])
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
