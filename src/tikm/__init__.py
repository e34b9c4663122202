"""Entanglement measures and exact diagonalization for two-impurity Kondo systems.

The package has four layers:

* :mod:`tikm.qmat` - dense linear algebra for small spin spaces (tensor
  products, Hermitian eigendecomposition, partial trace/transpose, entropy);
* :mod:`tikm.werner` and :mod:`tikm.measures` - the closed forms of the
  rotation-invariant singlet-triplet mixture and the general two-qubit
  measures that cross-check them;
* :mod:`tikm.rkky` - indirect-exchange range functions and Kondo scales;
* :mod:`tikm.kondo_sim` - microscopic validation by exact diagonalization of
  impurities coupled to a finite chain.

The ``tikm`` command line (see :mod:`tikm.cli`) exposes all of it.
"""

from . import errors, kondo_sim, measures, qmat, rkky, werner
from .errors import TikmError
from .kondo_sim import Analysis, ChainModel, GroundStateResult, SectorBasis, SweepPoint
from .rkky import CouplingResult, RkkyParams
from .werner import EntanglementReport, WernerState

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "ChainModel",
    "CouplingResult",
    "EntanglementReport",
    "GroundStateResult",
    "RkkyParams",
    "SectorBasis",
    "SweepPoint",
    "TikmError",
    "WernerState",
    "errors",
    "kondo_sim",
    "measures",
    "qmat",
    "rkky",
    "werner",
]
