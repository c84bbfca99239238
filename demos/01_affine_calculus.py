#!/usr/bin/env python3
"""Affine transformations on square matrices: group, flows, brackets.

The pair (U, M) acts on an n x n matrix as X -> U X U' + M.  These maps
compose like a semidirect product, their generators (A, M) close under a
simple bracket, and the one-parameter semigroup of a generator has a closed
form: e^{t(A,M)} = (e^{tA}, int_0^t e^{sA} M e^{sA'} ds).  This script
walks through all of it numerically.
"""

import numpy as np

from quadferm.affine import (AffineElement, AffineGenerator, act, bracket,
                             compose, flow, inverse)
from quadferm.linalg import lyapunov_solve

rng = np.random.default_rng(1)
n = 3


def cplx(shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


print("== the group law ==")
g = AffineElement(cplx((n, n)) + 2 * np.eye(n), cplx((n, n)))
h = AffineElement(cplx((n, n)) + 2 * np.eye(n), cplx((n, n)))
x = cplx((n, n))
print("act(g.h, x) == act(g, act(h, x)):",
      np.linalg.norm(act(compose(g, h), x) - act(g, act(h, x))))
gg = compose(g, inverse(g))
print("g . g^-1 == identity:", np.linalg.norm(gg.u - np.eye(n)),
      np.linalg.norm(gg.m))

print("\n== the flow of a generator is a semigroup ==")
p = AffineGenerator(cplx((n, n)), cplx((n, n)))
lhs = compose(flow(p, 0.4), flow(p, 1.1))
rhs = flow(p, 1.5)
print("flow(0.4) . flow(1.1) == flow(1.5):",
      np.linalg.norm(lhs.u - rhs.u), np.linalg.norm(lhs.m - rhs.m))

print("\n== the bracket is the infinitesimal group commutator ==")
q = AffineGenerator(cplx((n, n)), cplx((n, n)))
target = bracket(p, q)
eps = 1e-4
k = compose(compose(flow(p, eps), flow(q, eps)),
            compose(inverse(flow(p, eps)), inverse(flow(q, eps))))
print("(K(eps).u - I)/eps^2 vs bracket drift:",
      np.linalg.norm((k.u - np.eye(n)) / eps ** 2 - target.a))
print("K(eps).m/eps^2 vs bracket noise:   ",
      np.linalg.norm(k.m / eps ** 2 - target.m))

print("\n== translating by the Lyapunov solution removes the noise ==")
# with A T + T A' = -M, the flow of (A, M) is conjugate to the pure drift:
# flow(t) = (I, T) . (e^{tA}, O) . (I, T)^-1
a = cplx((n, n)) - 3 * np.eye(n)
m = cplx((n, n))
m = m @ m.conj().T
t_mat = lyapunov_solve(a, m)
print("Lyapunov residual:",
      np.linalg.norm(a @ t_mat + t_mat @ a.conj().T + m))
shift = AffineElement(np.eye(n), t_mat)
drift = flow(AffineGenerator(a, np.zeros((n, n))), 1.7)
three = compose(compose(shift, drift), inverse(shift))
direct = flow(AffineGenerator(a, m), 1.7)
print("flow(1.7) vs (I, T) . (e^{1.7A}, O) . (I, T)^-1:",
      np.linalg.norm(direct.u - three.u), np.linalg.norm(direct.m - three.m))
