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


@pytest.fixture
def excite_solve(monkeypatch):
    """``excite_solve(n)``: the n-th ``ground_state`` call from then on returns the first excited eigenpair.

    That pair comes from numpy's full dense spectrum, so keep to sectors small
    enough for one; every other call solves as usual.
    """

    def patch(n):
        solve = ks.ground_state
        count = 0

        def fake(h):
            nonlocal count
            count += 1
            if count != n:
                return solve(h)
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

        monkeypatch.setattr(ks, "ground_state", fake)

    return patch
