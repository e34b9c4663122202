"""Indirect-exchange and Kondo energy scales.

Conduction electrons mediate an effective exchange I(R) between two local
moments a distance R apart,

    I(R) = 4 pi J^2 eps_F F_d(2 k_F R),

with the dimension-dependent range functions

    F_3(x) = (sin x - x cos x) / x^4,
    F_1(x) = -(1/4) * integral_x^inf dy sin(y)/y.

The competing scale is the Kondo temperature T_K = D sqrt(g) exp(-1/g) with
g = J * rho_F the dimensionless antiferromagnetic coupling (g > 0 here; the
sign bookkeeping of the bare exchange is the caller's concern).  All
quantities are unit-agnostic: energies come out in whatever consistent units
the inputs use, and k_F * R is dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: Switch point below which F_3 is evaluated by series to avoid the
#: sin x - x cos x cancellation (relative error stays below 1e-10).
_F3_SERIES_CUTOFF = 0.1


def f3(x: float) -> float:
    """Three-dimensional range function (sin x - x cos x) / x^4, x > 0.

    Diverges as 1/(3x) for x -> 0+ and oscillates with decaying envelope at
    large x; the sign changes at the roots of tan x = x.  Where x^4
    overflows (x above about 1.16e77) the value is ((sin x)/x - cos x)/x^3,
    divided one power of x at a time, so it stays finite (about -cos x / x^3).
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"f3 requires x > 0, got {x!r}")
    if x < _F3_SERIES_CUTOFF:
        return 1.0 / (3.0 * x) - x / 30.0 + x**3 / 840.0
    try:
        return (math.sin(x) - x * math.cos(x)) / x**4
    except OverflowError:
        return (math.sin(x) / x - math.cos(x)) / x / x / x


def f1(x: float) -> float:
    """One-dimensional range function -(1/4) * integral_x^inf sin(y)/y dy, x >= 0.

    Evaluated as -(pi/2 - Si(x))/4; equals -pi/8 at x = 0 and decays to zero.
    """
    # imported here, not at module level: scipy.special adds 50-70 ms to
    # the start-up of every command, and only this function needs it
    from scipy.special import sici

    x = float(x)
    if x < 0.0:
        raise DomainError(f"f1 requires x >= 0, got {x!r}")
    si = float(sici(x)[0])
    return -(0.5 * math.pi - si) / 4.0


def kondo_temperature(bandwidth: float, g: float) -> float:
    """T_K = D sqrt(g) exp(-1/g) for dimensionless AFM coupling g > 0."""
    if g <= 0.0:
        raise DomainError(f"kondo_temperature requires g > 0, got {g!r}")
    return float(bandwidth) * math.sqrt(g) * math.exp(-1.0 / g)


@dataclass(frozen=True)
class RkkyParams:
    """Inputs for the coupling calculator, in consistent user-chosen units.

    ``j`` is the magnitude of the antiferromagnetic exchange between a local
    moment and the conduction band, so g = j * dos_fermi must land in (0, 1)
    for the Kondo temperature formula to make sense.
    """

    j: float
    fermi_energy: float
    fermi_wavevector: float
    dos_fermi: float
    bandwidth: float
    dimension: int
    distance: float

    def __post_init__(self) -> None:
        if self.dimension not in (1, 3):
            raise DomainError(f"dimension must be 1 or 3, got {self.dimension!r}")
        for name in ("j", "fermi_energy", "fermi_wavevector", "dos_fermi", "bandwidth", "distance"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("fermi_energy", "fermi_wavevector", "bandwidth", "distance"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)!r}")
        g = self.j * self.dos_fermi
        if not 0.0 < g < 1.0:
            raise DomainError(f"g = j * dos_fermi = {g!r} must lie in (0, 1)")

    @property
    def g(self) -> float:
        return self.j * self.dos_fermi


@dataclass(frozen=True)
class CouplingResult:
    """Exchange coupling, its sign class, and the competing Kondo scale.

    ``x`` = 2 k_F R is the argument of the range function and ``f`` its value
    F_d(x) for the dimension of the inputs.
    """

    x: float
    f: float
    coupling: float
    sign_class: str
    kondo_temperature: float
    ratio: float


def coupling(p: RkkyParams) -> CouplingResult:
    """Evaluate I(R), its sign class (AFM for I > 0, FM for I < 0) and I/T_K.

    Raises DomainError when x = 2 k_F R overflows, T_K underflows to 0 or I
    or I/T_K overflows.
    """
    x = 2.0 * p.fermi_wavevector * p.distance
    if not math.isfinite(x):
        raise DomainError(f"x = 2 k_F R = {x!r} must be finite")
    fval = f3(x) if p.dimension == 3 else f1(x)
    value = 4.0 * math.pi * p.j**2 * p.fermi_energy * fval
    if value > 0.0:
        sign = "AFM"
    elif value < 0.0:
        sign = "FM"
    else:
        sign = "zero"
    tk = kondo_temperature(p.bandwidth, p.g)
    if tk == 0.0:
        raise DomainError(f"T_K = D sqrt(g) exp(-1/g) underflows to 0 at g = {p.g!r}")
    ratio = value / tk
    if not (math.isfinite(value) and math.isfinite(ratio)):
        raise DomainError(f"I = {value!r} and I/T_K = {ratio!r} must be finite")
    return CouplingResult(x=x, f=fval, coupling=value, sign_class=sign, kondo_temperature=tk, ratio=ratio)
