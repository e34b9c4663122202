"""Closed-form algebra of the rotation-invariant singlet-triplet mixture.

A spin-rotationally invariant two-qubit state is fixed by a single number,
either the singlet fidelity p_s or, equivalently, the spin-spin correlation
f_s = <S_A . S_B> = 1/4 - p_s.  This module evaluates the entanglement
measures, entropies and usefulness criteria of that one-parameter family
without touching any 4x4 matrix; the general-purpose routines in
:mod:`tikm.measures` serve as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import OutOfRangeError

#: Physical range of the spin-spin correlation of two spin-1/2's.
F_MIN = -0.75
F_MAX = 0.25

#: Fidelity at and above which the state is useful for teleportation
#: (inclusive threshold; note the state is separable at exactly 1/2).
TELEPORT_FIDELITY = 0.5

#: Fidelity above which the CHSH inequality is violated (strict threshold).
CHSH_FIDELITY = (1.0 + 3.0 / math.sqrt(2.0)) / 4.0

#: Correlation below which the CHSH inequality is violated, -3/(4 sqrt 2).
CHSH_CORRELATION = 0.25 - CHSH_FIDELITY

#: Correlation below which the pair is entangled, f_c = -1/4 (p_s = 1/2).
CRITICAL_CORRELATION = -0.25

#: Slack accepted on interval endpoints before raising OutOfRangeError,
#: so that correlations measured from simulator states (exact up to
#: round-off) remain usable.
RANGE_SLACK = 1e-9


def _clamped(value: float, lo: float, hi: float, name: str) -> float:
    if not (lo - RANGE_SLACK <= value <= hi + RANGE_SLACK):
        raise OutOfRangeError(f"{name} = {value!r} outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


@dataclass(frozen=True)
class WernerState:
    """Singlet-triplet mixture parameterized by the singlet fidelity p_s."""

    p_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_s", _clamped(float(self.p_s), 0.0, 1.0, "p_s"))

    @property
    def f_s(self) -> float:
        """Spin-spin correlation <S_A . S_B>."""
        return 0.25 - self.p_s

    @property
    def p_t(self) -> float:
        """Weight of each of the three triplet states, in [0, 1/3]."""
        return (1.0 - self.p_s) / 3.0


def from_fidelity(p_s: float) -> WernerState:
    return WernerState(p_s)


def from_correlation(f_s: float) -> WernerState:
    """Construct from the spin-spin correlation f_s in [-3/4, 1/4]."""
    f = _clamped(float(f_s), F_MIN, F_MAX, "f_s")
    return WernerState(0.25 - f)


def density_matrix(w: WernerState) -> np.ndarray:
    """4x4 state p_s |psi-><psi-| + p_t (sum of the three triplet projectors)."""
    return w.p_t * np.eye(4, dtype=complex) + (w.p_s - w.p_t) * qmat.projector(qmat.PSI_MINUS)


def concurrence_closed(w: WernerState) -> float:
    """Concurrence max{2 p_s - 1, 0}."""
    return max(2.0 * w.p_s - 1.0, 0.0)


def pair_entropy(w: WernerState) -> float:
    """Entropy (bits) of the pair state: how entangled the pair is with the rest."""
    p = w.p_s
    ent = 0.0
    if p > 0.0:
        ent -= p * math.log2(p)
    if p < 1.0:
        ent -= (1.0 - p) * math.log2((1.0 - p) / 3.0)
    return ent


@dataclass(frozen=True)
class EntanglementReport:
    """Measures, probabilities and usefulness flags at one parameter point."""

    concurrence: float
    negativity: float
    pair_entropy: float
    single_entropy: float
    prob_singlet: float
    prob_triplet: float
    entangled: bool
    teleportation_useful: bool
    chsh_violating: bool


def classify(w: WernerState) -> EntanglementReport:
    """Evaluate all closed forms and threshold criteria for one state.

    Thresholds: entangled for p_s > 1/2 (strict), useful for teleportation
    for p_s >= 1/2 (inclusive), CHSH-violating for p_s > (1 + 3/sqrt(2))/4
    (strict).  At exactly p_s = 1/2 the state is separable yet still sits on
    the inclusive teleportation boundary; both flags report that verbatim.
    """
    c = concurrence_closed(w)
    return EntanglementReport(
        concurrence=c,
        # the negativity coincides with the concurrence for this family
        negativity=c,
        pair_entropy=pair_entropy(w),
        # rotation invariance leaves either single spin maximally mixed: 1 bit
        single_entropy=1.0,
        prob_singlet=w.p_s,
        prob_triplet=3.0 * w.p_t,
        entangled=c > 0.0,
        teleportation_useful=w.p_s >= TELEPORT_FIDELITY,
        chsh_violating=w.p_s > CHSH_FIDELITY,
    )
