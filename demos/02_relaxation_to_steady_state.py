#!/usr/bin/env python3
"""Relaxation of a driven-dissipative fermion chain, on correlation matrices.

A three-mode chain couples to loss at one end and gain at the other.  The
whole evolution lives on the 3 x 3 correlation matrix: occupations, entropy,
and the approach to the unique steady state all come out of the affine flow
R(t) = e^{tA} R e^{tA'} + int_0^t e^{sA} M e^{sA'} ds.
"""

import numpy as np

from quadferm.gaussian import (GaussianState, entropy, evolve_state,
                               params_from_model, steady_state)

n = 3
hop = 0.4
h = hop * (np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) \
    + np.diag([0.9, 1.0, 1.1])
loss_at_first_site = np.array([0.8, 0.0, 0.0])
gain_at_last_site = np.array([0.0, 0.0, 0.5])
params = params_from_model(h, loss_vectors=(loss_at_first_site,),
                           gain_vectors=(gain_at_last_site,))
print("admissible generator:", params.gksl)

state = GaussianState.vacuum(n)
print("\n   t    occ1      occ2      occ3      entropy")
for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
    evolved = evolve_state(params, state, t)
    occ = evolved.occupations()
    print(f"{t:5.1f}  {occ[0]:.6f}  {occ[1]:.6f}  {occ[2]:.6f}"
          f"  {entropy(evolved):.6f}")

steady = steady_state(params)
print("\nsteady occupations:", np.round(steady.occupations(), 6))
print("steady entropy:    ", round(entropy(steady), 6))
late = evolve_state(params, state, 40.0)
print("||R(40) - R_steady|| =", np.linalg.norm(late.r - steady.r))
moved = evolve_state(params, steady, 3.0)
print("steady state is a fixed point:", np.linalg.norm(moved.r - steady.r))
