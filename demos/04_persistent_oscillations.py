#!/usr/bin/env python3
"""When relaxation is incomplete: a mode the dissipation never touches.

If the drift has eigenvalues on the imaginary axis, admissibility forces the
noise matrix to vanish on those directions, and the long-time state is not
stationary: it keeps rotating inside the persistent subspace on top of a
relaxed background.  The decomposition reads the persistent modes and
their frequencies off one Schur form of the drift, computes the limiting
noise on the damped part, and predicts the late-time correlation matrix in
closed form.  `quadferm steady` prints the same limit and frequencies.
"""

import numpy as np

from quadferm.affine import AffineGenerator
from quadferm.gaussian import (GaussianState, asymptotic_decomposition,
                               evolve_state)
from quadferm.verify import random_correlation_matrix, random_hermitian, random_psd

rng = np.random.default_rng(11)

# mode 1 evolves freely at frequency 0.7; modes 2-3 are damped and driven
h2 = random_hermitian(rng, 2)
d2 = random_psd(rng, 2) + 0.4 * np.eye(2)
e2 = random_psd(rng, 2, scale=0.4)
a = np.zeros((3, 3), dtype=complex)
m = np.zeros((3, 3), dtype=complex)
a[0, 0] = 0.7j
a[1:, 1:] = -1j * h2 - d2 - e2
m[1:, 1:] = 2 * e2
params = AffineGenerator(a, m)
print("admissible:", params.gksl)

r0 = random_correlation_matrix(rng, 3)
dec = asymptotic_decomposition(params, GaussianState(r0))
print("persistent dimension:", dec.frequencies.size)
print("persistent frequencies:", dec.frequencies)
print("limiting noise occupations:", np.round(np.diag(dec.m_inf).real, 6))
print("projected initial occupations:",
      np.round(dec.projected.occupations(), 6))

print("\n  t     |R(t) - prediction|     occ1 (oscillating mode)")
for t in (5.0, 10.0, 20.0, 40.0):
    exact = evolve_state(params, GaussianState(r0), t)
    gap = np.linalg.norm(exact.r - dec.predicted_correlation(t))
    print(f"{t:5.1f}   {gap:.3e}              {exact.occupations()[0]:.6f}")

print("\nthe persistent mode keeps its occupation (no damping touches it):")
print("occ1(0) =", round(r0[0, 0].real, 6),
      " occ1(40) =", round(evolve_state(params, GaussianState(r0), 40.0)
                           .occupations()[0], 6))
