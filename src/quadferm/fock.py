"""Brute-force Fock-space oracle.

Everything the efficient correlation-matrix path claims is checked here
against dense matrices: fermionic modes are built explicitly on the
2^n-dimensional Fock space, superoperators on density matrices are stored
as 4^n x 4^n matrices acting on column-stacked operators, and semigroups
are evaluated by exponentiating those matrices.  Exponential cost is the
point: no structure the fast path relies on is assumed.

Operator conventions.  The occupation basis is ordered by the bit string
(nu_1, ..., nu_n) with nu_1 most significant, the all-zeros vector (index 0)
is the vacuum, and the annihilator of mode j carries the parity string over
modes 1..j-1.  Smearing uses the sesquilinear pairing, antilinear in the
first slot: ``(c, xi) = sum_j xi_j c_j†`` creates, ``(eta, c) = sum_j
conj(eta_j) c_j`` annihilates, and ``(c, A c) = sum_jk A_jk c_j† c_k``.

Generator conventions.  The family L(A, M) acting on density matrices is

    loss(-A - A† - M) + gain(M) + left(A + M) + right(A† + M) - tr(M),

with the four basic maps ``loss(B): rho -> sum B_jk c_k rho c_j†``,
``gain(B): rho -> sum B_jk c_j† rho c_k``, ``left(B): rho -> (c, B c) rho``
and ``right(B): rho -> rho (c, B c)``.  A microscopic model with
Hamiltonian H, loss Gram matrix D and gain Gram matrix E corresponds to
``L(-iH - D - E, 2E)``.

Sandwich terms.  Every superoperator here is a short list of pairs
(x_k, y_k), the map ``rho -> sum_k x_k rho y_k`` with None for an identity
factor; loss(B), for one, is the n pairs ``(c_k, sum_j B_jk c_j†)``.
``_generator_terms`` is the one place the L(A, M) coefficients appear.
``_assemble`` turns a list into its 4^n x 4^n matrix (no other code forms
one from operator pairs) and ``_apply`` applies it to one operator.

Charge sectors.  Every superoperator here but the Majorana family keeps
the charge ``q = N_ket - N_bra`` of an operator ``|a><b|``: in each
sandwich term ``x rho y``, x moves the particle number of the ket as far
as y moves that of the bra (loss lowers both by one, gain raises both,
left and right keep both).  So the 4^n x 4^n matrix is block diagonal
over 2n+1 sectors, and since ``_car`` is built from exact 0/1 Kronecker
factors, every entry between two sectors is exactly zero, not roundoff.
``_expm``, the one place a superoperator is exponentiated, tests that
with no tolerance and then exponentiates each sector block (at n = 4,
blocks of 70, 56, 28, 8 and 1 rows instead of one of 256), else the
whole matrix.  The guard assumes no structure: a bug that breaks gauge
invariance takes the full path, so the oracle loses no power.

Sizes.  Every function reads the mode count n from its operands: a
coefficient matrix or generator is n x n, a smearing vector has n entries,
a density matrix is 2^n x 2^n.  n is an argument only where it is the sole
input (``annihilators``, ``vacuum_projector``, ``majorana_operators``).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np
import scipy.linalg

from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState
from .linalg import as_square, hermitize

__all__ = [
    "MAX_MODES",
    "MAX_DENSE_EVOLVE_MODES",
    "annihilators",
    "vacuum_projector",
    "smeared_creation",
    "smeared_annihilation",
    "quadratic_form",
    "vec",
    "unvec",
    "super_basic",
    "super_liouvillian",
    "apply_generator",
    "dense_evolve",
    "gaussian_density",
    "density_modes",
    "read_correlations",
    "majorana_operators",
    "majorana_liouvillian",
]

#: Hard caps: operator construction / superoperator exponentiation.
MAX_MODES = 6
MAX_DENSE_EVOLVE_MODES = 5

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_PARITY = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_modes(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_MODES:
        raise ValidationError(f"mode count must be in [1, {MAX_MODES}], got {n}")
    return n


def _check_coefficients(a) -> tuple[np.ndarray, int]:
    """``a`` as a finite n x n complex array and n as a checked mode count."""
    a = as_square(a, "coefficient matrix")
    return a, _check_modes(a.shape[0])


def _check_vector(v) -> tuple[np.ndarray, int]:
    """``v`` as a 1-D complex array and its length as a checked mode count."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValidationError(f"smearing vector must be 1-D, got shape {v.shape}")
    return v, _check_modes(v.size)


@lru_cache(maxsize=None)
def _car(n: int) -> np.ndarray:
    """Annihilators c_1..c_n as a read-only n x 2^n x 2^n stack (graded
    tensor build)."""
    ops = []
    for j in range(n):
        factors = [_PARITY] * j + [_LOWER] + [np.eye(2, dtype=complex)] * (n - j - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op)
    ops = np.array(ops)
    ops.setflags(write=False)
    return ops


def _dagger(ops: np.ndarray) -> np.ndarray:
    """Adjoint of every operator in a stack."""
    return ops.conj().transpose(0, 2, 1)


def _smear(coeffs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``sum_j coeffs_j ops_j``; for a matrix of coefficients, the stack
    whose k-th operator is ``sum_j coeffs_jk ops_j``.  One product with the
    operators flattened to rows: ``np.tensordot(coeffs, ops, (0, 0))`` in a
    third of its time."""
    flat = coeffs.T @ ops.reshape(ops.shape[0], -1)
    return flat.reshape(coeffs.shape[1:] + ops.shape[1:])


def _bilinear(coeffs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``sum_jk coeffs_jk xs_j ys_k``."""
    return np.sum(xs @ _smear(coeffs.T, ys), axis=0)


def annihilators(n: int) -> list[np.ndarray]:
    """The mode annihilators c_1..c_n; they satisfy the anticommutation
    relations {c_j, c_k} = 0, {c_j, c_k†} = delta_jk exactly."""
    return [op.copy() for op in _car(_check_modes(n))]


def vacuum_projector(n: int) -> np.ndarray:
    """The vacuum density matrix |v><v| (all modes empty)."""
    dim = 2 ** _check_modes(n)
    omega = np.zeros((dim, dim), dtype=complex)
    omega[0, 0] = 1.0
    return omega


def smeared_creation(xi) -> np.ndarray:
    """(c, xi) = sum_j xi_j c_j† on the len(xi) modes of xi."""
    xi, n = _check_vector(xi)
    return _smear(xi, _dagger(_car(n)))


def smeared_annihilation(eta) -> np.ndarray:
    """(eta, c) = sum_j conj(eta_j) c_j on the len(eta) modes of eta."""
    eta, n = _check_vector(eta)
    return _smear(eta.conj(), _car(n))


def quadratic_form(a) -> np.ndarray:
    """(c, A c) = sum_jk A_jk c_j† c_k on the Fock space of n x n A."""
    a, n = _check_coefficients(a)
    c = _car(n)
    return _bilinear(a, _dagger(c), c)


# -- superoperators as 4^n x 4^n matrices (column-stacking vec) -----------

def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValidationError(f"vector length {v.size} is not a perfect square")
    return v.reshape((dim, dim), order="F")


def _assemble(terms, dim: int) -> np.ndarray:
    """The 4^n x 4^n matrix of ``rho -> sum_k x_k rho y_k``.

    On column-stacked operators each term is ``kron(y_k^T, x_k)``, whose
    entry [(b, a), (j, i)] is ``y_k[j, b] x_k[a, i]``.  The sum over k is
    one product of the K x dim^2 stacks of the y_k^T and the x_k, which
    yields the entries in (b, j, a, i) order; one transpose reorders them.
    None stands for the identity.
    """
    eye = np.eye(dim, dtype=complex)
    xs = np.array([eye if x is None else x for x, _ in terms])
    ys = np.array([eye if y is None else y.T for _, y in terms])
    prod = ys.reshape(len(terms), -1).T @ xs.reshape(len(terms), -1)
    return prod.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3) \
        .reshape(dim * dim, dim * dim)


@lru_cache(maxsize=None)
def _sectors(dim: int) -> tuple[np.ndarray, ...]:
    """Column-stacked indices of dim x dim operators, one read-only array
    per charge sector: entry (i, j), index ``i + dim*j``, has charge
    ``popcount(i) - popcount(j)``."""
    pop = np.array([bin(i).count("1") for i in range(dim)])
    charge = (pop[:, None] - pop[None, :]).reshape(-1, order="F")
    sectors = tuple(np.flatnonzero(charge == q) for q in np.unique(charge))
    for idx in sectors:
        idx.setflags(write=False)
    return sectors


def _expm(s: np.ndarray) -> np.ndarray:
    """``e^s`` of a 4^n x 4^n superoperator: ``scipy.linalg.expm`` of each
    charge-sector block when every entry between two sectors is exactly
    zero (the on-sector blocks then hold all nonzeros, a NaN counting as
    one), else of the whole matrix."""
    sectors = _sectors(isqrt(len(s)))
    blocks = [s[np.ix_(idx, idx)] for idx in sectors]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(s):
        return scipy.linalg.expm(s)
    out = np.zeros(s.shape, dtype=complex)
    for idx, block in zip(sectors, blocks):
        out[np.ix_(idx, idx)] = scipy.linalg.expm(block)
    return out


def _apply(terms, rho: np.ndarray) -> np.ndarray:
    """``sum_k x_k rho y_k`` without forming the 4^n matrix; None factors
    are skipped, not multiplied."""
    out = np.zeros(rho.shape, dtype=complex)
    for x, y in terms:
        term = rho if x is None else x @ rho
        out += term if y is None else term @ y
    return out


def _basic_terms(kind: str, a: np.ndarray) -> list:
    """Sandwich terms of :func:`super_basic`, for a checked ``a``."""
    c = _car(a.shape[0])
    if kind == "loss":
        return list(zip(c, _smear(a, _dagger(c))))
    if kind == "gain":
        return list(zip(_dagger(c), _smear(a.T, c)))
    if kind == "left":
        return [(_bilinear(a, _dagger(c), c), None)]
    if kind == "right":
        return [(None, _bilinear(a, _dagger(c), c))]
    raise ValidationError(f"unknown superoperator kind {kind!r}")


def _generator_terms(a: np.ndarray, m: np.ndarray) -> list:
    """Sandwich terms of L(A, M), operands checked; -tr(M) rides on left."""
    n = a.shape[0]
    c = _car(n)
    ah = a.conj().T
    left = _bilinear(a + m, _dagger(c), c) - np.trace(m) * np.eye(2 ** n)
    return [*_basic_terms("loss", -a - ah - m), *_basic_terms("gain", m),
            (left, None), (None, _bilinear(ah + m, _dagger(c), c))]


def super_basic(kind: str, a) -> np.ndarray:
    """One of the four basic superoperators with coefficient matrix ``a``.

    kind: 'loss'  -> sum_jk a_jk c_k rho c_j†
          'gain'  -> sum_jk a_jk c_j† rho c_k
          'left'  -> (c, a c) rho
          'right' -> rho (c, a c)
    """
    a, n = _check_coefficients(a)
    return _assemble(_basic_terms(kind, a), 2 ** n)


def super_liouvillian(params: AffineGenerator) -> np.ndarray:
    """The dense matrix of the generator L(A, M) of any pair (A, M).

    Trace preserving for every (A, M): the vectorized trace functional
    annihilates it.
    """
    n = _check_modes(params.n)
    return _assemble(_generator_terms(params.a, params.m), 2 ** n)


def super_master_equation(h, loss_vectors=(), gain_vectors=()) -> np.ndarray:
    """Dense generator assembled directly from the master equation:

        rho -> -i[(c,Hc), rho]
               + sum_loss (2 D rho D† - {D† D, rho})
               + sum_gain (2 D† rho D - {D D†, rho}),

    with jump operators D = (l, c).  Independent of the L(A, M) terms;
    used to pin the convention A = -iH - D - E, M = 2E.  Not exported: it
    is the reference the tests hold ``params_from_model`` to.
    """
    h = as_square(h, "hamiltonian matrix")
    n = h.shape[0]
    ham = quadratic_form(h)
    if any(np.size(v) != n for v in (*loss_vectors, *gain_vectors)):
        raise ValidationError(f"coupling vectors must have length {n}")
    terms = [(-1j * ham, None), (None, 1j * ham)]
    for v in loss_vectors:
        d_op = smeared_annihilation(v)
        dd = d_op.conj().T @ d_op
        terms += [(2 * d_op, d_op.conj().T), (-dd, None), (None, -dd)]
    for v in gain_vectors:
        d_op = smeared_annihilation(v)
        dd = d_op @ d_op.conj().T
        terms += [(2 * d_op.conj().T, d_op), (-dd, None), (None, -dd)]
    return _assemble(terms, 2 ** n)


def apply_generator(params: AffineGenerator, rho: np.ndarray) -> np.ndarray:
    """Apply L(A, M) to a single operator without building the 4^n matrix."""
    n = density_modes(rho)
    if params.n != n:
        raise ValidationError(f"generator is {params.n}-mode, rho is {n}-mode")
    return _apply(_generator_terms(params.a, params.m), rho)


def dense_evolve(params: AffineGenerator, rho: np.ndarray, t: float) -> np.ndarray:
    """Evolve a density matrix by exponentiating the dense generator L(A, M)."""
    n = params.n
    if n > MAX_DENSE_EVOLVE_MODES:
        raise ValidationError(
            f"dense evolution capped at {MAX_DENSE_EVOLVE_MODES} modes, got {n}"
        )
    rho = as_square(rho, "density matrix")
    if rho.shape[0] != 2 ** n:
        raise ValidationError(
            f"density matrix is {rho.shape[0]}-dimensional, expected {2 ** n}"
        )
    t = float(t)
    if not 0 <= t < np.inf:
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    prop = _expm(t * super_liouvillian(params))
    return unvec(prop @ vec(rho))


def gaussian_density(state: GaussianState) -> np.ndarray:
    """Dense density matrix of a Gaussian state.

    For spectra strictly inside (0, 1) this is the closed form
    ``det(I - R) exp((c, log(R (I - R)^{-1}) c))``; occupations at the
    endpoints switch to the equivalent eigenbasis product of single-mode
    factors, which handles empty and full modes exactly.
    """
    n = _check_modes(state.n)
    occ, vecs = np.linalg.eigh(state.r)
    occ = np.clip(occ, 0.0, 1.0)
    if np.min(occ) > 1e-12 and np.max(occ) < 1 - 1e-12:
        log_ratio = np.log(occ / (1 - occ))
        x_mat = (vecs * log_ratio) @ vecs.conj().T
        rho = float(np.prod(1 - occ)) * scipy.linalg.expm(quadratic_form(x_mat))
    else:
        dim = 2 ** n
        rho = np.eye(dim, dtype=complex)
        for p, col in zip(occ, vecs.T):
            number_op = smeared_creation(col) @ smeared_annihilation(col)
            rho = rho @ ((1 - p) * (np.eye(dim) - number_op) + p * number_op)
    return hermitize(rho)


def density_modes(rho) -> int:
    """Mode count n of a 2^n x 2^n operator, 1 <= n <= MAX_MODES; raises
    ValidationError for any other shape."""
    shape = np.shape(rho)
    dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if dim < 2 or dim & (dim - 1):
        raise ValidationError(f"density matrix must be 2^n x 2^n, got shape {shape}")
    return _check_modes(dim.bit_length() - 1)


def read_correlations(rho: np.ndarray) -> np.ndarray:
    """Correlation matrix of a density matrix: R_jk = Tr[c_k† c_j rho]."""
    rho = as_square(rho, "density matrix")
    ops = _car(density_modes(rho))
    return np.trace(_dagger(ops)[None] @ ops[:, None] @ rho, axis1=2, axis2=3)


# -- Majorana form of the generator family ---------------------------------

def majorana_operators(n: int) -> list[np.ndarray]:
    """Hermitian Majorana operators w_1..w_2n with {w_j, w_k} = 2 delta_jk.

    w_{2m-1} = c_m + c_m†,  w_{2m} = i(c_m - c_m†).
    """
    c = _car(_check_modes(n))
    cd = _dagger(c)
    return [w for pair in zip(c + cd, 1j * (c - cd)) for w in pair]


def majorana_liouvillian(a, n_mat) -> np.ndarray:
    """Dense generator of the general (not gauge-invariant) quadratic family.

    For a real 2n x 2n matrix A and real antisymmetric N of the same shape,

        L(A, N) rho = (1/4) sum_jk ( (A - A^T)_jk / 2 [w_j w_k, rho]
                                     + i N_jk {w_j w_k, rho}
                                     + (-A - A^T + 2iN)_jk w_j rho w_k ).
    """
    a = np.asarray(a, dtype=float)
    n_mat = np.asarray(n_mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 \
            or n_mat.shape != a.shape:
        raise ValidationError("Majorana coefficient matrices must both be "
                              f"2n x 2n, got {a.shape} and {n_mat.shape}")
    n = _check_modes(a.shape[0] // 2)
    if np.linalg.norm(n_mat + n_mat.T) > 1e-12 * max(1.0, np.linalg.norm(n_mat)):
        raise ValidationError("noise coefficient matrix must be antisymmetric")
    w = np.array(majorana_operators(n))
    antisym = (a - a.T) / 8
    terms = [(_bilinear(antisym + 1j * n_mat / 4, w, w), None),
             (None, _bilinear(-antisym + 1j * n_mat / 4, w, w)),
             *zip(_smear((-a - a.T + 2j * n_mat) / 4, w), w)]
    return _assemble(terms, 2 ** n)

