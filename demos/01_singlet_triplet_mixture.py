#!/usr/bin/env python3
"""Walk the one-parameter family of rotation-invariant two-spin states.

Two spin-1/2 impurities embedded in a spin-rotation-invariant singlet
environment are fully described by a single number: the spin-spin
correlation f_s = <S_A . S_B>, or equivalently the singlet fidelity
p_s = 1/4 - f_s.  This script sweeps f_s across its physical range and
prints how the probabilities, entanglement measures and usefulness
criteria respond.
"""

import numpy as np

from tikm import werner

print(__doc__)

print(f"{'f_s':>8} {'p_s':>7} {'P(T)':>7} {'C=N':>7} {'E_pair':>7}  flags")
print("-" * 56)
for f_s in np.linspace(-0.75, 0.25, 21):
    state = werner.from_correlation(float(f_s))
    rep = werner.classify(state)
    flags = "".join(
        ch if on else "."
        for ch, on in (("E", rep.entangled), ("T", rep.teleportation_useful), ("B", rep.chsh_violating))
    )
    print(
        f"{f_s:8.3f} {state.p_s:7.3f} {rep.prob_triplet:7.3f} "
        f"{rep.concurrence:7.4f} {rep.pair_entropy:7.4f}  {flags}"
    )

print(
    """
Reading the table:

* f_s = -3/4 is the pure singlet: maximal concurrence, zero pair entropy
  (the pair is disentangled from everything else).
* Entanglement survives only while f_s < -1/4; the critical correlation
  printed below is where any measure of pair entanglement vanishes.
* The two flags T and B split the entangled region: teleportation works
  for every entangled state here (p_s >= 1/2), while a Bell-CHSH
  violation needs the much stronger correlation f_s < -3/(4 sqrt 2).
* At f_s = 0 the pair state is the maximally mixed "garbage" state, and
  the pair entropy peaks at 2 bits: all the entanglement has been
  absorbed by the environment.
"""
)
print("critical correlation f_c =", werner.CRITICAL_CORRELATION)
print("CHSH threshold        f  =", werner.CHSH_CORRELATION)
single_entropy = werner.classify(werner.from_correlation(0.0)).single_entropy
print("single-spin entropy      =", single_entropy, "bit (for every f_s)")
