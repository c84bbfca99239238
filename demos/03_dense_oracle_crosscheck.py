#!/usr/bin/env python3
"""Fast path vs brute force: the same evolution two very different ways.

The efficient path evolves an n x n correlation matrix.  The oracle builds
the 2^n-dimensional density matrix, the 4^n x 4^n generator matrix, and
exponentiates it.  They must agree to near machine precision; this is the
library's core consistency loop.
"""

import numpy as np

from quadferm import fock
from quadferm.gaussian import GaussianState, evolve_state
from quadferm.verify import random_correlation_matrix, random_gksl_params

rng = np.random.default_rng(7)
n = 3

params = random_gksl_params(rng, n)
r0 = random_correlation_matrix(rng, n)
print(f"{n}-mode admissible generator, random Gaussian initial state")

rho0 = fock.gaussian_density(GaussianState(r0))
print("dense density matrix:", rho0.shape, " trace:", np.trace(rho0).real)
print("correlation readout matches the label:",
      np.max(np.abs(fock.read_correlations(rho0) - r0)))

print("\n  t    entrywise |R_fast - R_dense|   trace drift   min eig rho")
for t in (0.3, 1.0, 3.0, 10.0):
    rho_t = fock.dense_evolve(params, rho0, t)
    fast = evolve_state(params, GaussianState(r0), t)
    gap = np.max(np.abs(fock.read_correlations(rho_t) - fast.r))
    drift = abs(np.trace(rho_t) - 1.0)
    low = np.min(np.linalg.eigvalsh(rho_t)).real
    print(f"{t:5.1f}   {gap:.3e}                 {drift:.1e}      {low:+.1e}")

print("\nquadratic observables agree with tr(TR):")
from quadferm.gaussian import expectation_quadratic
t_mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
rho_t = fock.dense_evolve(params, rho0, 1.0)
dense_val = np.trace(fock.quadratic_form(t_mat) @ rho_t).real
fast_val = expectation_quadratic(evolve_state(params, GaussianState(r0), 1.0),
                                 t_mat).real
print(f"dense {dense_val:.12f}  vs  fast {fast_val:.12f}")
