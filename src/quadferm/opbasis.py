"""Operator-space bases built from rank-one noise generators.

Two families of elements span the 4^n-dimensional space of operators on the
Fock space.  The plain family ``pi(xi_1..xi_p; eta_1..eta_q)`` dresses the
vacuum with smeared creators on the left and smeared annihilators on the
right.  The dressed family ``phi`` applies the rank-one generators
``L(O, xi eta†)`` recursively instead:

    phi(xi_1.., eta_1..) = L(O, xi_1 eta_1†) phi(xi_2.., eta_2..),

with pi and phi coinciding when either argument list is empty.  Both are
antisymmetric in each argument list, convert into each other through a
pairing expansion over index subsets (Wick's theorem), and phi transforms
covariantly under the noiseless semigroup:
``e^{tL(A,O)} phi(xi; eta) = phi(e^{tA} xi; e^{tA} eta)``.

The phi family diagonalizes long-time behavior: mapping every argument
through the persistent projector implements the projection onto the
subspace of operators that survive the damped part of the evolution.

The element functions take the mode count n, since either argument list
may be empty; the family matrix and the expansion read it from their
bases, which hold n vectors of length n.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ValidationError
from .fock import (_apply, _check_modes, _rank_one_terms, density_modes,
                   smeared_annihilation, smeared_creation, unvec,
                   vacuum_projector, vec)
from .linalg import _IDEMPOTENT_TOL, _relative, as_square, is_hermitian

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

    Each element is built once and kept.  A phi element is the rank-one
    step ``L(O, xis[S[0]] etas[T[0]]†)`` applied to ``table(S[1:],
    T[1:])``, the pi element when S or T is empty; the step's terms
    (`fock._rank_one_terms`) are built once per pair (j, k).
    :func:`pi_element` checks n.
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
            self._rank_one[jk] = _rank_one_terms(self.xis[jk[0]],
                                                 self.etas[jk[1]])
        return _apply(self._rank_one[jk], self(s[1:], t[1:]))


def _shuffle_sign(sub: tuple, size: int) -> int:
    """Sign of the permutation of range(size) that lists the complement of
    the increasing tuple ``sub`` first, then ``sub``: each entry y of sub
    is passed by the size - len(sub) + i - y complement entries above it."""
    return (-1) ** sum(size - len(sub) + i - y for i, y in enumerate(sub))


def _pairing_expansion(xis, etas, n, dressed: bool) -> np.ndarray:
    """Shared expansion behind the phi <-> pi conversions, over the phi
    (``dressed``) or pi elements of sub-lists: with ``G_kj = <eta_k, xi_j>``,

        sum_p (±1)^p sum_{|S| = P-p, |T| = Q-p} e_S e_T det G[T', S'] el(S; T),

    S and T increasing index tuples, S' and T' their complements, e the
    `_shuffle_sign` that lists the complement first; the sign alternates
    over pi elements only.  This is the paper's sum over permutations
    sigma, tau and pairings p with the permutations grouped by their
    unpaired suffixes: antisymmetry turns each suffix into ±el(S; T), and
    the p! pairings of the complements sum to p! det, which cancels the
    normalisation (Wick's theorem in subset form).  It reads C(P+Q, P)
    elements, each built once, where the permutation sum visits
    P! Q! (min(P, Q) + 1) terms."""
    p_len, q_len = len(xis), len(etas)
    gram = np.array([[np.vdot(eta, xi) for xi in xis] for eta in etas],
                    dtype=complex).reshape(q_len, p_len)
    table = _Elements(xis, etas, n, dressed)
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for p in range(min(p_len, q_len) + 1):
        sign = 1 if dressed else (-1) ** p
        for s_pair in combinations(range(p_len), p):
            s = tuple(j for j in range(p_len) if j not in s_pair)
            for t_pair in combinations(range(q_len), p):
                t = tuple(k for k in range(q_len) if k not in t_pair)
                coeff = (sign * _shuffle_sign(s, p_len) * _shuffle_sign(t, q_len)
                         * np.linalg.det(gram[np.ix_(t_pair, s_pair)]))
                total += coeff * table(s, t)
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
    if not (is_hermitian(p0)
            and _relative(p0 @ p0 - p0, p0) <= _IDEMPOTENT_TOL):
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

