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
``_assemble`` turns a list into its superoperator (no other code forms
one from operator pairs) and ``_apply`` applies it to one operator.

Charge sectors.  Every superoperator here but the Majorana family keeps
the charge ``q = N_ket - N_bra`` of an operator ``|a><b|``: in each
sandwich term ``x rho y``, x moves the particle number of the ket as far
as y moves that of the bra (loss lowers both by one, gain raises both,
left and right keep both).  So the 4^n x 4^n matrix is block diagonal
over 2n+1 sectors (at n = 4, blocks of 70, 56, 28, 8 and 1 rows instead
of one of 256).  ``_assemble`` decides the form of each term list: it
tests every nonzero entry of every term for one common popcount shift,
exactly, with no tolerance, and returns `_Blocks` (the sector blocks,
taken bit for bit from the one product that builds the whole matrix) when
all terms pass, else the whole matrix.  The entries the block form drops
are then exact zeros, not roundoff: each is a sum of products with an
exact zero factor.  A bug that breaks gauge invariance fails the test, so
its superoperators stay whole and the oracle loses no power.  The public
``super_*`` functions always return the whole matrix; `verify` and
``dense_evolve`` compute in the form ``_assemble`` returns.  Below n = 3
the blocks are too small to pay and every form is whole.

Sizes.  Every function reads the mode count n from its operands: a
coefficient matrix or generator is n x n, a smearing vector has n entries,
a density matrix is 2^n x 2^n.  n is an argument only where it is the sole
input (``annihilators``, ``vacuum_projector``, ``majorana_operators``).
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Number

import numpy as np
import scipy.linalg

from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState
from .linalg import _ENDPOINT_TOL, as_square, hermitize

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


#: Sector blocks start at n = 3 (dim 8).  At n <= 2 they hold 1-6 rows,
#: and the per-stack numpy and scipy calls cost more than the 16 x 16
#: whole matrix they would replace.
_MIN_SECTOR_DIM = 8


class _Layout:
    """Where the charge-sector blocks of the 4^n x 4^n superoperators on
    dim x dim operators sit; one per dim, from `_layout`.

    Sector q holds the column-stacked indices ``i + dim*j`` of the entries
    (i, j) of charge ``popcount(i) - popcount(j) = q``.  Sectors q and -q
    have equal size, so the blocks form n+1 stacks, one per |q|, each
    ``(count, m, m)``: ``stacks`` holds the bounds and shape of each in the
    flat block data, ``vstacks`` those of its rows in a vector gathered by
    ``order`` (the sector indices, stack by stack).  ``take`` picks the
    block entries, in data order, out of `_assemble`'s product; ``place``
    puts them into the flat whole matrix.  ``shifts`` maps each float of a
    flattened complex dim x dim operator to the popcount shift
    ``popcount(a) - popcount(i)`` of its entry (a, i), one-hot over -n..n.
    """

    def __init__(self, dim: int):
        n = dim.bit_length() - 1
        pop = np.array([bin(i).count("1") for i in range(dim)])
        shift = (pop[:, None] - pop[None, :]).reshape(-1)
        self.shifts = np.repeat(shift[:, None] == np.arange(-n, n + 1), 2,
                                axis=0).astype(np.float32)
        charge = -shift  # of vec index i + dim*j, at flat index j*dim + i
        sectors, self.stacks, self.vstacks = [], [], []
        lo = vlo = 0
        for q in range(n + 1):
            group = [np.flatnonzero(charge == p) for p in sorted({-q, q})]
            count, m = len(group), len(group[0])
            self.stacks.append((lo, lo + count * m * m, (count, m, m)))
            self.vstacks.append((vlo, vlo + count * m, (count, m)))
            lo, vlo = lo + count * m * m, vlo + count * m
            sectors += group
        # S[r, c], r = a + dim*b, c = i + dim*j, is entry
        # (b*dim + j)*dim^2 + a*dim + i of the flat product
        idx = np.arange(dim * dim)
        row_part = idx // dim * dim ** 3 + idx % dim * dim
        col_part = idx // dim * dim ** 2 + idx % dim
        self.dim = dim
        self.order = np.concatenate(sectors)
        self.take = np.concatenate(
            [(row_part[s][:, None] + col_part[s]).reshape(-1) for s in sectors])
        self.place = np.concatenate(
            [(s[:, None] * dim * dim + s).reshape(-1) for s in sectors])
        self.eye = np.concatenate(
            [np.broadcast_to(np.eye(shape[1], dtype=complex), shape).reshape(-1)
             for _, _, shape in self.stacks])
        for arr in (self.shifts, self.order, self.take, self.place, self.eye):
            arr.setflags(write=False)


_layout = lru_cache(maxsize=None)(_Layout)


class _Blocks:
    """A superoperator that keeps charge, held as its sector blocks.

    ``data`` is one flat complex array, cut by ``layout.stacks`` into
    ``(count, m, m)`` stacks.  Sum, difference, scaling and `_norm` are one
    numpy op on ``data``; a product and `_expm` one batched call per stack;
    a vector (``vec(rho)``, the trace functional) is applied sector by
    sector from either side and gives a whole vector.  A whole matrix never
    meets a block form silently: any other array operand raises TypeError,
    and `_whole` is the explicit conversion.
    """

    __slots__ = ("layout", "data")
    __array_ufunc__ = None  # numpy defers every operator to the methods here

    def __init__(self, layout: _Layout, data: np.ndarray):
        self.layout = layout
        self.data = data

    def _stacks(self, data=None) -> list[np.ndarray]:
        data = self.data if data is None else data
        return [data[lo:hi].reshape(shape) for lo, hi, shape in self.layout.stacks]

    def _refuse(self, other):
        raise TypeError(f"sector blocks of a {self.layout.dim}-dim operator "
                        f"space do not mix with {type(other).__name__}; "
                        "convert with fock._whole")

    def _same(self, other) -> np.ndarray:
        if isinstance(other, _Blocks) and other.layout is self.layout:
            return other.data
        self._refuse(other)

    def __array__(self, *args, **kwargs):
        raise TypeError("sector blocks become an array only through "
                        "fock._whole")

    def __add__(self, other):
        return _Blocks(self.layout, self.data + self._same(other))

    def __sub__(self, other):
        return _Blocks(self.layout, self.data - self._same(other))

    def __neg__(self):
        return _Blocks(self.layout, -self.data)

    def __mul__(self, z):
        if not isinstance(z, Number):
            self._refuse(z)
        return _Blocks(self.layout, z * self.data)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, _Blocks):
            return self._vector(other, column=True)
        out = np.empty_like(self.data)
        for a, b, o in zip(self._stacks(), self._stacks(self._same(other)),
                           self._stacks(out)):
            np.matmul(a, b, out=o)
        return _Blocks(self.layout, out)

    def __rmatmul__(self, other):
        return self._vector(other, column=False)

    def _vector(self, v, column: bool) -> np.ndarray:
        """``self @ v`` for a column, ``v @ self`` for a row: a whole
        vector, from one batched matmul per stack."""
        lay = self.layout
        if not (isinstance(v, np.ndarray) and v.shape == lay.order.shape):
            self._refuse(v)
        gathered = v[lay.order]
        res = np.empty(len(gathered), dtype=np.result_type(v, self.data))
        for block, (lo, hi, shape) in zip(self._stacks(), lay.vstacks):
            part = gathered[lo:hi].reshape(shape)
            prod = block @ part[..., None] if column else part[:, None] @ block
            res[lo:hi] = prod.reshape(-1)
        out = np.empty_like(res)
        out[lay.order] = res
        return out


def _assemble(terms, dim: int, whole: bool = False):
    """The superoperator ``rho -> sum_k x_k rho y_k`` in the form it keeps:
    `_Blocks` when every term keeps charge, else the 4^n x 4^n matrix.

    On column-stacked operators each term is ``kron(y_k^T, x_k)``, whose
    entry [(b, a), (j, i)] is ``y_k[j, b] x_k[a, i]``.  The sum over k is
    one product of the K x dim^2 stacks of the y_k^T and the x_k, which
    yields the entries in (b, j, a, i) order.  The whole matrix is that
    product with one transpose; the block form takes its block entries
    with ``_Layout.take``, bit for bit.  None stands for the identity.

    The form is decided exactly, with no tolerance: a term keeps charge
    when every nonzero entry (a, i) of x_k and (b, j) of y_k^T moves the
    popcount by one common shift d, ``popcount(a) - popcount(i) = d``
    (a NaN counts as nonzero).  Then every entry between two sectors is a
    sum of products with an exact zero factor.  ``whole`` (the public
    ``super_*`` functions), a term that breaks charge, or dim below
    ``_MIN_SECTOR_DIM`` gives the whole matrix.
    """
    eye = np.eye(dim, dtype=complex)
    k = len(terms)
    ops = np.array([eye if x is None else x for x, _ in terms]
                   + [eye if y is None else y.T for _, y in terms], dtype=complex)
    xs, ys = ops[:k], ops[k:]
    prod = ys.reshape(k, -1).T @ xs.reshape(k, -1)
    if not (whole or dim < _MIN_SECTOR_DIM):
        lay = _layout(dim)
        nonzero = ops.reshape(2 * k, -1).view(np.float64) != 0
        hits = nonzero.astype(np.float32) @ lay.shifts
        if np.count_nonzero(hits[:k] + hits[k:], axis=1).max() <= 1:
            return _Blocks(lay, prod.reshape(-1)[lay.take])
    return prod.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3) \
        .reshape(dim * dim, dim * dim)


def _whole(s) -> np.ndarray:
    """The 4^n x 4^n matrix of a superoperator in either form (the explicit
    conversion from `_Blocks`; zeros between sectors)."""
    if not isinstance(s, _Blocks):
        return s
    dim2 = s.layout.dim ** 2
    out = np.zeros(dim2 * dim2, dtype=s.data.dtype)
    out[s.layout.place] = s.data
    return out.reshape(dim2, dim2)


def _norm(s) -> float:
    """Frobenius norm of a superoperator in either form."""
    return float(np.linalg.norm(s.data if isinstance(s, _Blocks) else s))


def _identity(like):
    """The identity superoperator in the form of ``like``."""
    if isinstance(like, _Blocks):
        return _Blocks(like.layout, like.layout.eye)
    return np.eye(len(like), dtype=complex)


def _expm(s):
    """``e^s`` of a superoperator in either form: one ``scipy.linalg.expm``
    call per stack of sector blocks, or one on the whole matrix."""
    if not isinstance(s, _Blocks):
        return scipy.linalg.expm(s)
    out = np.empty_like(s.data)
    for block, (lo, hi, _) in zip(s._stacks(), s.layout.stacks):
        out[lo:hi] = scipy.linalg.expm(block).reshape(-1)
    return _Blocks(s.layout, out)


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


def _basic(kind: str, a, whole: bool = False):
    """:func:`super_basic` in the form `_assemble` decides."""
    a, n = _check_coefficients(a)
    return _assemble(_basic_terms(kind, a), 2 ** n, whole)


def super_basic(kind: str, a) -> np.ndarray:
    """One of the four basic superoperators with coefficient matrix ``a``.

    kind: 'loss'  -> sum_jk a_jk c_k rho c_j†
          'gain'  -> sum_jk a_jk c_j† rho c_k
          'left'  -> (c, a c) rho
          'right' -> rho (c, a c)
    """
    return _basic(kind, a, whole=True)


def _liouvillian(params: AffineGenerator, whole: bool = False):
    """:func:`super_liouvillian` in the form `_assemble` decides."""
    n = _check_modes(params.n)
    return _assemble(_generator_terms(params.a, params.m), 2 ** n, whole)


def super_liouvillian(params: AffineGenerator) -> np.ndarray:
    """The dense matrix of the generator L(A, M) of any pair (A, M).

    Trace preserving for every (A, M): the vectorized trace functional
    annihilates it.
    """
    return _liouvillian(params, whole=True)


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
    return _assemble(terms, 2 ** n, whole=True)


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
    prop = _expm(t * _liouvillian(params))
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
    if np.min(occ) > _ENDPOINT_TOL and np.max(occ) < 1 - _ENDPOINT_TOL:
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
    # floored, not relative: N may be an exact zero computed from a
    # bracket, which is then all roundoff and gives no scale of its own
    if np.linalg.norm(n_mat + n_mat.T) > 1e-12 * max(1.0, np.linalg.norm(n_mat)):
        raise ValidationError("noise coefficient matrix must be antisymmetric")
    w = np.array(majorana_operators(n))
    antisym = (a - a.T) / 8
    terms = [(_bilinear(antisym + 1j * n_mat / 4, w, w), None),
             (None, _bilinear(-antisym + 1j * n_mat / 4, w, w)),
             *zip(_smear((-a - a.T + 2j * n_mat) / 4, w), w)]
    return _assemble(terms, 2 ** n, whole=True)

