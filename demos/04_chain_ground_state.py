#!/usr/bin/env python3
"""Exact diagonalization: the rotation-invariant pair state emerges by itself.

A half-filled open chain with two exchange-coupled impurities conserves
total spin, so its singlet ground state must reduce to the one-parameter
mixture for the impurity pair.  No formula from the closed-form module is
fed in here: we diagonalize, trace out the electrons, and look.
"""

import numpy as np

from tikm import kondo_sim, measures, qmat, werner

print(__doc__)

model = kondo_sim.ChainModel(sites=6, jk=0.5)
basis = kondo_sim.build_basis(model)
h = kondo_sim.build_hamiltonian(model, basis)
print(f"chain of {model.sites} sites, impurities on ({model.xa}, {model.xb}), "
      f"half filling, sector dimension {basis.dim}")

g = kondo_sim.ground_state(h)
print(f"{g.method} ground state: E0 = {g.energy:.10f} "
      f"({g.iterations} iterations, residual {g.residual_norm:.1e})")
# H commutes with the total spin, so a non-degenerate ground vector has one S:
# S^2 psi = S(S+1) psi, and the mixing residual ||S^2 psi - <S^2> psi|| is zero
s2, mixing = kondo_sim.spin_squared(basis, g.amplitudes)
print(f"total spin: <S^2> = {s2:.1e}, so S = {(np.sqrt(1 + 4 * s2) - 1) / 2:.0f}; mixing residual {mixing:.1e}")

rho = kondo_sim.impurity_rdm(g, basis)
print("\nimpurity pair density matrix (real part):")
print(np.round(rho.real, 6))
print("deviation from the rotation-invariant form:", f"{measures.werner_residual(rho):.2e}")
print("single-impurity marginal:")
print(np.round(qmat.partial_trace(rho, "A").real, 9))
print("marginal entropy:", qmat.vn_entropy(qmat.partial_trace(rho, "A")), "bit")

f_s = measures.spin_correlation(rho)
rep = werner.classify(werner.from_correlation(f_s))
print(f"\nf_s = {f_s:+.6f}  ->  concurrence {rep.concurrence:.6f}, "
      f"pair entropy {rep.pair_entropy:.6f} bits")

print("\nscreening competition: crank up the Kondo coupling")
print(f"{'j_k':>6} {'f_s':>10} {'C':>8} {'singlet':>8}")
for point in kondo_sim.sweep(model, "jk", [0.25, 0.5, 1.0, 2.0, 4.0]):
    print(f"{point.value:6.2f} {point.f_s:10.6f} {point.report.concurrence:8.4f} {str(point.singlet):>8}")
print("strong coupling screens each impurity separately: f_s drifts toward 0")

print("\nlocking competition: crank up the direct exchange instead")
for point in kondo_sim.sweep(model, "idirect", [0.0, 0.5, 1.0, 2.0]):
    print(f"{point.value:6.2f} {point.f_s:10.6f} {point.report.concurrence:8.4f} {str(point.singlet):>8}")
print("strong direct exchange locks the impurities into their own singlet: f_s -> -3/4")
