"""Exception types shared across the package."""


class TikmError(Exception):
    """Base class for all package errors."""


class NotHermitianError(TikmError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class DimensionMismatchError(TikmError):
    """Operand shape incompatible with the declared tensor factorization."""


class NegativeEigenvalueError(TikmError):
    """Eigenvalue below the positive-semidefinite tolerance floor."""


class OutOfRangeError(TikmError):
    """Scalar parameter outside its physical interval."""


class DomainError(TikmError):
    """Argument outside the domain of a special function or formula."""


class EmptySectorError(TikmError):
    """No basis states match the requested quantum numbers."""


class NotConvergedError(TikmError):
    """Iterative eigensolver failed to reach the requested residual."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateGroundError(TikmError):
    """Ground state is (numerically) degenerate, so a reduced state is ill-defined."""


class NoBracketError(TikmError):
    """Search endpoints do not straddle the target value."""


class NonMonotoneError(TikmError):
    """Scanned quantity is not monotone on the bracketing interval."""

    def __init__(self, message: str, points: list | None = None):
        super().__init__(message)
        self.points = points or []
