"""Operator-space bases built from rank-one noise generators.

Two families of elements span the 4^n-dimensional space of operators on the
Fock space.  The plain family ``pi(xi_1..xi_p; eta_1..eta_q)`` dresses the
vacuum with smeared creators on the left and smeared annihilators on the
right.  The dressed family ``phi`` applies the rank-one generators
``L(O, xi eta†)`` recursively instead:

    phi(xi_1.., eta_1..) = L(O, xi_1 eta_1†) phi(xi_2.., eta_2..),

with pi and phi coinciding when either argument list is empty.  Both are
antisymmetric in each argument list, convert into each other through an
explicit permutation expansion, and phi transforms covariantly under the
noiseless semigroup: ``e^{tL(A,O)} phi(xi; eta) = phi(e^{tA} xi; e^{tA} eta)``.

The phi family diagonalizes long-time behavior: mapping every argument
through the persistent projector implements the projection onto the
subspace of operators that survive the damped part of the evolution.

The element functions take the mode count n, since either argument list
may be empty; the family matrix and the expansion read it from their
bases, which hold n vectors of length n.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

import numpy as np

from .errors import ValidationError
from .fock import (_apply, _check_modes, _generator_terms, density_modes,
                   smeared_annihilation, smeared_creation, unvec,
                   vacuum_projector, vec)
from .linalg import _IDEMPOTENT_TOL, as_square, is_hermitian

__all__ = [
    "phi_element",
    "pi_element",
    "phi_from_pi",
    "pi_from_phi",
    "phi_family_matrix",
    "project_persistent",
]


def _as_vectors(vectors, n: int, name: str) -> list[np.ndarray]:
    out = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if len(out) > n:
        raise ValidationError(f"{name} has {len(out)} vectors, at most {n} allowed")
    for v in out:
        if v.shape != (n,):
            raise ValidationError(f"{name} vectors must have length {n}")
    return out


def pi_element(xis, etas, n: int) -> np.ndarray:
    """(c, xi_1) .. (c, xi_p)  |v><v|  (eta_q, c) .. (eta_1, c)."""
    xis = _as_vectors(xis, n, "creation list")
    etas = _as_vectors(etas, n, "annihilation list")
    out = vacuum_projector(n)
    for xi in reversed(xis):
        out = smeared_creation(xi) @ out
    for eta in reversed(etas):
        out = out @ smeared_annihilation(eta)
    return out


def phi_element(xis, etas, n: int) -> np.ndarray:
    """The dressed basis element, built by the rank-one recursion."""
    xis = _as_vectors(xis, n, "creation list")
    etas = _as_vectors(etas, n, "annihilation list")
    return _Elements(xis, etas, n, dressed=True)(tuple(range(len(xis))),
                                                 tuple(range(len(etas))))


class _Elements:
    """The phi (``dressed``) or pi elements over two lists of checked
    vectors, as a table: ``table(S, T)`` is the element of the sub-lists
    ``xis[S]``, ``etas[T]`` for index tuples S and T.

    Each element is built once and kept until `forget`.  A phi element is
    the rank-one recursion ``L(O, xis[S[0]] etas[T[0]]†)`` applied to
    ``table(S[1:], T[1:])``, the pi element when S or T is empty; the
    term list of each pair (j, k) is built once per table and never
    forgotten.  :func:`pi_element` checks n.
    """

    def __init__(self, xis: list, etas: list, n: int, dressed: bool):
        self.xis, self.etas, self.n, self.dressed = xis, etas, n, dressed
        self._kept, self._rank_one = {}, {}

    def __call__(self, s: tuple, t: tuple) -> np.ndarray:
        if (s, t) not in self._kept:
            self._kept[s, t] = self._build(s, t)
        return self._kept[s, t]

    def _build(self, s: tuple, t: tuple) -> np.ndarray:
        if not (self.dressed and s and t):
            return pi_element([self.xis[j] for j in s],
                              [self.etas[k] for k in t], self.n)
        jk = s[0], t[0]
        if jk not in self._rank_one:
            zero = np.zeros((self.n, self.n), dtype=complex)
            self._rank_one[jk] = _generator_terms(
                zero, np.outer(self.xis[jk[0]], self.etas[jk[1]].conj()))
        return _apply(self._rank_one[jk], self(s[1:], t[1:]))

    def forget(self) -> None:
        self._kept.clear()


def _perm_sign(perm) -> int:
    """(-1) to the number of inversions of ``perm``."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def _pairing_expansion(xis, etas, n, dressed: bool) -> np.ndarray:
    """Shared permutation expansion behind the phi <-> pi conversions, over
    the phi (``dressed``) or pi elements of sub-lists; over pi elements
    the sign alternates with the number p of pairings.  The elements are
    kept for one sigma at a time: the expansion visits each (sigma[p:],
    tau[p:]) p!^2 times, but across sigmas only the short suffixes repeat,
    while keeping every element would hold tens of thousands of 32 x 32
    ones at n = 5."""
    p_len, q_len = len(xis), len(etas)
    dim = 2 ** n
    table = _Elements(xis, etas, n, dressed)
    total = np.zeros((dim, dim), dtype=complex)
    for sigma in permutations(range(p_len)):
        table.forget()
        sign_s = _perm_sign(sigma)
        for tau in permutations(range(q_len)):
            sign_t = _perm_sign(tau)
            for p in range(min(p_len, q_len) + 1):
                coeff = sign_s * sign_t / (
                    factorial(p) * factorial(p_len - p) * factorial(q_len - p)
                )
                if not dressed:
                    coeff *= (-1) ** p
                for j in range(p):
                    coeff *= np.vdot(etas[tau[j]], xis[sigma[j]])
                if coeff == 0:
                    continue
                total += coeff * table(sigma[p:], tau[p:])
    return total


def phi_from_pi(xis, etas, n: int) -> np.ndarray:
    """Evaluate a dressed element through its expansion in plain elements."""
    xis = _as_vectors(xis, n, "creation list")
    etas = _as_vectors(etas, n, "annihilation list")
    return _pairing_expansion(xis, etas, n, dressed=False)


def pi_from_phi(xis, etas, n: int) -> np.ndarray:
    """Evaluate a plain element through its expansion in dressed elements."""
    xis = _as_vectors(xis, n, "creation list")
    etas = _as_vectors(etas, n, "annihilation list")
    return _pairing_expansion(xis, etas, n, dressed=True)


def _subset_labels(n: int):
    """All (S, T) pairs of increasing index tuples, a 4^n enumeration."""
    subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]
    return [(s, t) for s in subsets for t in subsets]


def phi_family_matrix(xi_basis, eta_basis) -> tuple[list, np.ndarray]:
    """Column matrix of every dressed element over two bases of C^n, each
    n vectors of length n.

    Returns (labels, B) where column i of B is the vectorized element for
    labels[i] = (S, T), built from the sub-families xi_basis[S], eta_basis[T].
    When both bases span C^n the columns span the full operator space.
    """
    n = _check_modes(len(xi_basis))
    xi_basis = _as_vectors(xi_basis, n, "creation basis")
    eta_basis = _as_vectors(eta_basis, n, "annihilation basis")
    if len(eta_basis) != n:
        raise ValidationError("both bases must contain exactly n vectors")
    labels = _subset_labels(n)
    dim = 4 ** n
    b = np.empty((dim, len(labels)), dtype=complex)
    table = _Elements(xi_basis, eta_basis, n, dressed=True)
    for i, (s, t) in enumerate(labels):
        b[:, i] = vec(table(s, t))
    return labels, b


def _expand_in_phi(rho: np.ndarray, xi_basis, eta_basis):
    """Coefficients of an operator in the dressed family over given bases."""
    if density_modes(rho) != len(xi_basis):
        raise ValidationError(f"rho is {density_modes(rho)}-mode, "
                              f"the bases hold {len(xi_basis)} vectors")
    labels, b = phi_family_matrix(xi_basis, eta_basis)
    coeffs = np.linalg.solve(b, vec(rho))
    return labels, coeffs, b


def project_persistent(rho: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Project onto the operators that survive the damped evolution.

    Defined on the dressed family by pushing every argument through the
    persistent projector p0; elements with any damped argument vanish by
    multilinearity.  Implemented by expanding in a family adapted to p0
    (persistent basis vectors first) and dropping every coefficient whose
    label touches a damped index.  Raises ValidationError unless p0 is a
    square Hermitian idempotent, ``||p0 p0 - p0|| <= _IDEMPOTENT_TOL ||p0||``.
    """
    p0 = as_square(p0, "persistent projector")
    if not is_hermitian(p0) or np.linalg.norm(p0 @ p0 - p0) \
            > _IDEMPOTENT_TOL * np.linalg.norm(p0):
        raise ValidationError(
            "persistent projector must be Hermitian and idempotent")
    occ, vecs_p = np.linalg.eigh(p0)
    order = np.argsort(-occ)
    basis = [vecs_p[:, i] for i in order]
    dim0 = int(np.sum(occ > 0.5))
    labels, coeffs, b = _expand_in_phi(rho, basis, basis)
    for i, (s, t) in enumerate(labels):
        if any(j >= dim0 for j in s) or any(j >= dim0 for j in t):
            coeffs[i] = 0.0
    return unvec(b @ coeffs)

