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
