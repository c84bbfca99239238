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
``_generator_terms`` is the one place the coefficients of a general
L(A, M) appear; ``_rank_one_terms`` writes the one special case the
dressed basis steps by, L(O, xi eta†), as four sandwiches.
``_assemble`` turns a list into its whole 4^n x 4^n matrix (no other code
forms one from operator pairs) and ``_apply`` applies it to one operator.
Only the public ``super_*`` functions, ``majorana_liouvillian`` and
``super_master_equation`` are whole: the references the blocks are
tested against.

Sector blocks.  Every superoperator here but the Majorana family keeps the
charge ``q = N_ket - N_bra`` of an operator ``|a><b|``: in each sandwich
term ``x rho y``, x moves the particle number of the ket as far as y moves
that of the bra (loss lowers both by one, gain raises both, left and right
keep both).  So its matrix is block diagonal over 2n+1 sectors (at n = 4,
blocks of 70, 56, 28, 8 and 1 rows instead of one of 256), and `_Blocks`
is the one form ``_basic`` and ``_liouvillian`` return, at every n.
`_car_layout` proves the charge on the annihilators when the maps are
built, exactly: every nonzero (or NaN) entry (a, i) of every annihilator
has ``popcount(a) = popcount(i) - 1``.  Where a bug breaks that, the
layout is one sector, the whole matrix as a single stack, so the oracle
loses no power.  A basic map is linear in its coefficient matrix (left and
right in the operator ``(c, B c)``), so for each (n, kind) a `_Gather`,
built from the nonzero annihilator entries on first use and whenever
``_car`` changes, lists where each operand entry lands; a call gathers its
operands into the blocks, with the true annihilators bit for bit the whole
matrix's block entries.  ``_expm``, given the vector it will act on,
exponentiates only the stacks that vector occupies and leaves the others
exact zeros; ``dense_evolve`` exponentiates that way for ``vec(rho)``.

Batches.  ``_basic`` and ``_liouvillian`` also take stacks of coefficient
matrices (any leading axes, one matrix per draw) and return blocks with
the same leading axes; sums, products, norms, exponentials and products
with one vector per draw broadcast over them.  Every draw of a batch gets
the bits it would get alone: the gather offsets each draw's slots in one
``np.bincount``, numpy and scipy run each matrix of a stack through the
same routine (``scipy.linalg.expm`` loops over them), and `_norm` takes
one ``np.linalg.norm`` per draw.  Gaussian densities batch the same way:
``_densities`` builds one per correlation matrix of a stack, from one
``eigh`` and one ``expm`` over the draws whose spectrum lies inside
(0, 1), and ``_correlations`` reads R back from each density of a stack;
``gaussian_density`` and ``read_correlations`` are their one-draw cases.
`verify` draws its instances this way.

Sizes.  Every function reads the mode count n from its operands: a
coefficient matrix or generator is n x n, a smearing vector has n entries,
a density matrix is 2^n x 2^n.  n is an argument only where it is the sole
input (``annihilators``, ``vacuum_projector``, ``majorana_operators``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from numbers import Number

import numpy as np
import scipy.linalg

from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState
from .linalg import _ANTISYM_TOL, _ENDPOINT_TOL, as_square

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
    """``a`` as a finite complex array of n x n matrices, with any leading
    batch axes (one matrix per draw), and n as a checked mode count."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValidationError(
            f"coefficient matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("coefficient matrix contains non-finite entries")
    return a, _check_modes(a.shape[-1])


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
    """Adjoint of every matrix in a stack (of one matrix)."""
    return ops.conj().swapaxes(-1, -2)


def _smear(coeffs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``sum_j coeffs_j ops_j``; for a matrix of coefficients, the stack
    whose k-th operator is ``sum_j coeffs_jk ops_j``.  One product with the
    operators flattened to rows: ``np.tensordot(coeffs, ops, (0, 0))`` in a
    third of its time."""
    flat = coeffs.T @ ops.reshape(ops.shape[0], -1)
    return flat.reshape(coeffs.shape[1:] + ops.shape[1:])


def _bilinear(coeffs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``sum_jk coeffs_jk xs_j ys_k``, for each matrix of a stack of
    coefficients (any leading batch axes)."""
    inner = (coeffs @ ys.reshape(len(ys), -1)).reshape(
        coeffs.shape[:-1] + ys.shape[1:])
    return np.sum(xs @ inner, axis=-3)


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
    a, n = _check_coefficients(as_square(a, "coefficient matrix"))
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


class _Layout:
    """Where the blocks of the 4^n x 4^n superoperators on dim x dim
    operators sit; one per (dim, charged), from `_layout`.

    ``charged``: sector q holds the column-stacked indices ``i + dim*j`` of
    the entries (i, j) of charge ``popcount(i) - popcount(j) = q``.
    Sectors q and -q have equal size, so the blocks form n+1 stacks, one
    per |q|, each ``(count, m, m)``.  Otherwise one sector holds every
    index, and its one stack ``(1, 4^n, 4^n)`` is the whole matrix.
    ``stacks`` holds the bounds and shape of each stack in the flat block
    data, ``vstacks`` those of its rows in a vector gathered by ``order``
    (the sector indices, stack by stack); ``charge`` is the charge of every
    vector index.  ``place`` is where each block entry, in data order, sits
    in the flat whole matrix: the blocks of a whole matrix S that keeps
    the layout's sectors are ``S.reshape(-1)[place]``.
    """

    def __init__(self, dim: int, charged: bool):
        n = dim.bit_length() - 1
        pop = np.array([bin(i).count("1") for i in range(dim)])
        # of vec index i + dim*j, at flat index j*dim + i
        charge = self.charge = (pop[None, :] - pop[:, None]).reshape(-1)
        groups = ([[np.flatnonzero(charge == p) for p in sorted({-q, q})]
                   for q in range(n + 1)] if charged
                  else [[np.arange(dim * dim)]])
        sectors, self.stacks, self.vstacks = [], [], []
        lo = vlo = 0
        for group in groups:
            count, m = len(group), len(group[0])
            self.stacks.append((lo, lo + count * m * m, (count, m, m)))
            self.vstacks.append((vlo, vlo + count * m, (count, m)))
            lo, vlo = lo + count * m * m, vlo + count * m
            sectors += group
        self.dim = dim
        self.order = np.concatenate(sectors)
        self.place = np.concatenate(
            [(s[:, None] * dim * dim + s).reshape(-1) for s in sectors])
        self.eye = np.concatenate(
            [np.broadcast_to(np.eye(shape[1], dtype=complex), shape).reshape(-1)
             for _, _, shape in self.stacks])
        for arr in (self.charge, self.order, self.place, self.eye):
            arr.setflags(write=False)

    @cached_property
    def sorter(self) -> np.ndarray:
        """``argsort(place)``, read-only, for sorted lookups in ``place``;
        sorted once per layout, on first read."""
        order = np.argsort(self.place)
        order.setflags(write=False)
        return order


_layout = lru_cache(maxsize=None)(_Layout)


def _car_layout(n: int) -> _Layout:
    """The layout of the superoperators built from ``_car(n)``: the charge
    sectors if every nonzero (or NaN) entry (a, i) of every annihilator has
    ``popcount(a) = popcount(i) - 1``, tested exactly, and one sector
    otherwise."""
    _, a, i = np.nonzero(_car(n))
    charged = _layout(2 ** n, True)
    keeps = np.all(charged.charge[a + 2 ** n * i] == -1)
    return charged if keeps else _layout(2 ** n, False)


class _Blocks:
    """A superoperator held as its blocks in a `_Layout`, at any n;
    `_Gather` builds them.

    ``data`` is one complex array whose last axis is the flat block data,
    cut by ``layout.stacks`` into ``(count, m, m)`` stacks; any leading
    axes are a batch, one superoperator per draw, and every operation
    broadcasts over them.  Sum, difference and scaling are one numpy op
    on ``data``, `_norm` one ``np.linalg.norm`` per draw; a product and
    `_expm` one batched call per stack for every draw (each slice takes
    numpy's and scipy's per-matrix path, with the bits it has alone); a
    vector, or one per draw, is applied sector by sector from either
    side.  A whole matrix never meets a block form silently: any other
    array operand raises TypeError, and `_whole` is the explicit one.
    """

    __slots__ = ("layout", "data")
    __array_ufunc__ = None  # numpy defers every operator to the methods here

    def __init__(self, layout: _Layout, data: np.ndarray):
        self.layout = layout
        self.data = data

    def _stacks(self, data=None) -> list[np.ndarray]:
        data = self.data if data is None else data
        return [data[..., lo:hi].reshape(data.shape[:-1] + shape)
                for lo, hi, shape in self.layout.stacks]

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
        """Scaling by a number, or by one number per draw (an array of the
        batch shape)."""
        if isinstance(z, np.ndarray) and z.shape == self.data.shape[:-1]:
            z = z[..., None]
        elif not isinstance(z, Number):
            self._refuse(z)
        return _Blocks(self.layout, z * self.data)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, _Blocks):
            return self._vector(other, column=True)
        data = self._same(other)
        out = np.empty(np.broadcast_shapes(self.data.shape, data.shape),
                       dtype=complex)
        for a, b, o in zip(self._stacks(), self._stacks(data),
                           self._stacks(out)):
            np.matmul(a, b, out=o)
        return _Blocks(self.layout, out)

    def __rmatmul__(self, other):
        return self._vector(other, column=False)

    def _vector(self, v, column: bool) -> np.ndarray:
        """``self @ v`` for a column, ``v @ self`` for a row, v one vector
        or one per draw: a whole vector per draw, from one batched matmul
        per stack."""
        lay, batch = self.layout, self.data.shape[:-1]
        res = np.empty(batch + lay.order.shape,
                       dtype=np.result_type(v, self.data))
        for block, part, (lo, hi, _) in zip(self._stacks(), self._parts(v),
                                            lay.vstacks):
            prod = block @ part[..., None] if column \
                else part[..., None, :] @ block
            res[..., lo:hi] = prod.reshape(batch + (-1,))
        out = np.empty_like(res)
        out[..., lay.order] = res
        return out

    def _parts(self, v) -> list[np.ndarray]:
        """v, one vector or one per draw, cut into the rows of each stack
        (``layout.vstacks``); any other operand raises TypeError."""
        lay = self.layout
        if not (isinstance(v, np.ndarray) and v.shape[-1:] == lay.order.shape
                and v.shape[:-1] in ((), self.data.shape[:-1])):
            self._refuse(v)
        gathered = v[..., lay.order]
        return [gathered[..., lo:hi].reshape(v.shape[:-1] + shape)
                for lo, hi, shape in lay.vstacks]


def _assemble(terms, dim: int) -> np.ndarray:
    """The 4^n x 4^n matrix of the superoperator ``rho -> sum_k x_k rho
    y_k``, None standing for the identity.

    On column-stacked operators each term is ``kron(y_k^T, x_k)``, whose
    entry [(b, a), (j, i)] is ``y_k[j, b] x_k[a, i]``.  The sum over k is
    one product of the K x dim^2 stacks of the y_k^T and the x_k, which
    yields the entries in (b, j, a, i) order; one transpose makes it the
    matrix.
    """
    eye = np.eye(dim, dtype=complex)
    k = len(terms)
    ops = np.array([eye if x is None else x for x, _ in terms]
                   + [eye if y is None else y.T for _, y in terms], dtype=complex)
    prod = ops[k:].reshape(k, -1).T @ ops[:k].reshape(k, -1)
    return prod.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3) \
        .reshape(dim * dim, dim * dim)


def _whole(s: _Blocks) -> np.ndarray:
    """The 4^n x 4^n matrix of blocks, per draw (the explicit conversion;
    zeros between sectors)."""
    dim2 = s.layout.dim ** 2
    batch = s.data.shape[:-1]
    out = np.zeros(batch + (dim2 * dim2,), dtype=s.data.dtype)
    out[..., s.layout.place] = s.data
    return out.reshape(batch + (dim2, dim2))


def _norm(s: _Blocks) -> np.ndarray:
    """Frobenius norm of blocks, per draw: one ``np.linalg.norm`` per
    draw, so each draw's norm has the bits it has alone."""
    flat = s.data.reshape(-1, s.data.shape[-1])
    return np.reshape([np.linalg.norm(d) for d in flat], s.data.shape[:-1])


def _identity(like: _Blocks) -> _Blocks:
    """The identity superoperator in the layout and batch of ``like``."""
    eye = np.broadcast_to(like.layout.eye, like.data.shape)
    return _Blocks(like.layout, eye)


def _expm(s: _Blocks, v=None) -> _Blocks:
    """``e^s`` of blocks: one ``scipy.linalg.expm`` call per stack for
    every draw (scipy exponentiates the slices one by one).  Given a vector
    v, or one per draw, only the stacks in which some draw's v has a
    nonzero entry (a NaN counts) are exponentiated, and the others are
    exact zeros: the product with v is still ``e^s v``."""
    out = np.zeros_like(s.data)
    occupied = ([True] * len(s.layout.stacks) if v is None
                else [part.any() for part in s._parts(v)])
    for block, (lo, hi, _), keep in zip(s._stacks(), s.layout.stacks,
                                        occupied):
        if keep:
            exp = scipy.linalg.expm(block)
            out[..., lo:hi] = exp.reshape(s.data.shape[:-1] + (-1,))
    return _Blocks(s.layout, out)


def _apply(terms, rho: np.ndarray) -> np.ndarray:
    """``sum_k x_k rho y_k`` without forming the 4^n matrix; None factors
    are skipped, not multiplied."""
    out = np.zeros(rho.shape, dtype=complex)
    for x, y in terms:
        term = rho if x is None else x @ rho
        out += term if y is None else term @ y
    return out


_KINDS = ("loss", "gain", "left", "right")


def _operand(kind: str, a: np.ndarray) -> np.ndarray:
    """What ``kind(a)`` is linear in, entry by entry: ``a`` itself for
    loss and gain, the operator ``(c, a c)`` for left and right.  The one
    check of ``kind``: any other raises ValidationError."""
    if kind in ("left", "right"):
        c = _car(a.shape[-1])
        return _bilinear(a, _dagger(c), c)
    if kind in ("loss", "gain"):
        return a
    raise ValidationError(f"unknown superoperator kind {kind!r}")


def _operand_terms(kind: str, x: np.ndarray) -> list:
    """Sandwich terms of a basic map of a checked kind given its `_operand`
    ``x``."""
    if kind == "left":
        return [(x, None)]
    if kind == "right":
        return [(None, x)]
    c = _car(x.shape[0])
    if kind == "loss":
        return list(zip(c, _smear(x, _dagger(c))))
    return list(zip(_dagger(c), _smear(x.T, c)))


def _generator_operands(a: np.ndarray, m: np.ndarray) -> tuple:
    """The `_operand` of each basic map in L(A, M), in `_KINDS` order,
    operands checked, for one pair or a stack of them; -tr(M) rides on
    left."""
    n = a.shape[-1]
    c = _car(n)
    ah = _dagger(a)
    trace = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    left = _bilinear(a + m, _dagger(c), c) - trace * np.eye(2 ** n)
    return -a - ah - m, m, left, _bilinear(ah + m, _dagger(c), c)


def _generator_terms(a: np.ndarray, m: np.ndarray) -> list:
    """Sandwich terms of L(A, M), operands checked."""
    return [term for kind, x in zip(_KINDS, _generator_operands(a, m))
            for term in _operand_terms(kind, x)]


def _rank_one_terms(xi: np.ndarray, eta: np.ndarray) -> list:
    """Sandwich terms of L(O, xi eta†), vectors checked: with ``a = (c,
    xi)`` and ``b = (eta, c)`` its left, right, gain and loss maps are one
    sandwich each, ``(ab - (eta†xi) I) rho + rho ab + a rho b - b rho a``,
    the map of ``_generator_terms(O, xi eta†)`` in 4 terms instead of
    2n + 2."""
    c = _car(len(xi))
    a, b = _smear(xi, _dagger(c)), _smear(eta.conj(), c)
    ab = a @ b
    return [(ab - np.vdot(eta, xi) * np.eye(len(ab)), None), (None, ab),
            (a, b), (-b, a)]


class _Gather:
    """A block-form superoperator that is linear in its operands, as the
    block entry that each operand entry lands on.

    Calling it with the operands (each flattened in C order, then joined
    into ``flat``) forms the block data: entry ``pos[e]`` gets ``w[e] *
    flat[src[e]]``, summed in the order of e by one ``np.bincount`` over
    the real and imaginary parts.  Operands with leading batch axes (a
    stack of matrices each) give blocks with those axes: each draw's
    slots are offset past the last draw's, so the one ``np.bincount``
    sums every draw in its own order, to the bits it has alone.
    """

    __slots__ = ("layout", "pos", "src", "w", "_slots")

    def __init__(self, layout: _Layout, pos, src, w):
        self.layout, self.pos, self.src = layout, pos, src
        self.w = np.asarray(w, dtype=complex)
        self._slots = (2 * pos[:, None] + [0, 1]).reshape(-1)

    def __call__(self, *operands) -> _Blocks:
        batch = operands[0].shape[:-2]
        flat = np.concatenate([x.reshape(batch + (-1,)) for x in operands],
                              axis=-1)
        flat = flat.reshape(-1, flat.shape[-1])
        size = 2 * len(self.layout.place)
        parts = (self.w * np.take(flat, self.src, axis=-1)).view(np.float64)
        slots = self._slots + size * np.arange(len(flat))[:, None]
        data = np.bincount(slots.reshape(-1), parts.reshape(-1),
                           size * len(flat))
        return _Blocks(self.layout, data.view(complex).reshape(batch + (-1,)))


def _build_gather(kinds: tuple, n: int) -> _Gather:
    """The `_Gather`, in `_car_layout(n)`, of the sum of the basic maps
    ``kinds`` (checked by `_operand`), each given its `_operand` in order.

    The unit coefficient (j, k) of loss is the term ``x rho y`` with
    ``(x, y) = (c_k, c_j†)``, of gain ``(c_j†, c_k)``, and entry [(a, b),
    (i, l)] of ``x rho y`` is ``x[a, i] y[l, b]``: each nonzero (or NaN)
    entry of an x, paired with each of a y, lands there (a sorted lookup
    in ``layout.place``) with weight ``y[l, b] x[a, i]``.  No product with
    a zero entry is formed; with the true annihilators each block entry is
    one unit coefficient, weight +-1.  Left and right are ``kron(I, X)``
    and ``kron(X^T, I)`` in their operand X, so their entries come from
    the layout.  A sum joins the maps of its kinds in order, so
    `np.bincount` adds the kinds in the order of `_assemble`'s product.
    """
    dim = 2 ** n
    if len(kinds) > 1:
        maps = [_gather_map((kind,), n) for kind in kinds]
        sizes = [n * n if k in ("loss", "gain") else dim * dim for k in kinds]
        offsets = np.cumsum([0] + sizes[:-1])
        return _Gather(maps[0].layout,
                       np.concatenate([g.pos for g in maps]),
                       np.concatenate([g.src + o for g, o in zip(maps, offsets)]),
                       np.concatenate([g.w for g in maps]))
    (kind,) = kinds
    lay = _car_layout(n)
    if kind in ("loss", "gain"):
        c = _car(n)
        xs, ys = (c, _dagger(c)) if kind == "loss" else (_dagger(c), c)
        kx, a, i = (v[:, None] for v in np.nonzero(xs))
        ky, l, b = np.nonzero(ys)
        src = ky * n + kx if kind == "loss" else kx * n + ky
        flat = (a + dim * b) * dim * dim + i + dim * l
        pos = lay.sorter[np.searchsorted(lay.place, flat, sorter=lay.sorter)]
        return _Gather(lay, pos.reshape(-1), src.reshape(-1),
                       (ys[ky, l, b] * xs[kx, a, i]).reshape(-1))
    # block entry (a + dim*b, i + dim*j), at place (a + dim*b)*dim^2 +
    # i + dim*j, is X[a, i] where b = j in kron(I, X), X[j, b] where a = i
    # in kron(X^T, I)
    (b, a), (j, i) = (np.divmod(rc, dim) for rc in np.divmod(lay.place, dim * dim))
    pos = np.flatnonzero(b == j if kind == "left" else a == i)
    src = a * dim + i if kind == "left" else j * dim + b
    return _Gather(lay, pos, src[pos], np.ones(len(pos)))


_GATHERS: dict = {}


def _gather_map(kinds: tuple, n: int):
    """The cached `_build_gather` of ``kinds`` at n modes.  Built on first
    use, and again whenever ``_car(n)`` has changed (a planted bug or a
    test rebinds it), so a map never outlives the annihilators it was
    built from."""
    key, car = (kinds, n), _car(n)
    hit = _GATHERS.get(key)
    if hit is None or hit[0] is not car:
        hit = _GATHERS[key] = (car, _build_gather(kinds, n))
    return hit[1]


def _basic(kind: str, a) -> _Blocks:
    """:func:`super_basic` as blocks gathered from the cached map;
    `_operand` checks ``kind`` before any map is built."""
    a, n = _check_coefficients(a)
    x = _operand(kind, a)
    return _gather_map((kind,), n)(x)


def super_basic(kind: str, a) -> np.ndarray:
    """One of the four basic superoperators with coefficient matrix ``a``.

    kind: 'loss'  -> sum_jk a_jk c_k rho c_j†
          'gain'  -> sum_jk a_jk c_j† rho c_k
          'left'  -> (c, a c) rho
          'right' -> rho (c, a c)
    """
    a, n = _check_coefficients(as_square(a, "coefficient matrix"))
    return _assemble(_operand_terms(kind, _operand(kind, a)), 2 ** n)


def _liouvillian(params) -> _Blocks:
    """:func:`super_liouvillian` as blocks gathered from the cached map, of
    an `AffineGenerator` or of a pair ``(a, m)`` of drift and noise stacks
    whose leading batch axes broadcast together (one generator per
    draw)."""
    a, m = (params.a, params.m) if isinstance(params, AffineGenerator) \
        else params
    a, n = _check_coefficients(a)
    a, m = np.broadcast_arrays(a, _check_coefficients(m)[0])
    return _gather_map(_KINDS, n)(*_generator_operands(a, m))


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
    """Evolve a density matrix by exponentiating the dense generator L(A, M).

    Only the stacks of the generator's blocks in which ``vec(rho)`` has a
    nonzero entry are exponentiated, tested exactly: the other stacks add
    exact zeros (a Gaussian state, of charge 0, takes one ``expm`` of the
    q = 0 block).
    """
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
    gen, v = t * _liouvillian(params), vec(rho)
    return unvec(_expm(gen, v) @ v)


def gaussian_density(state: GaussianState) -> np.ndarray:
    """Dense density matrix of a Gaussian state.

    For spectra strictly inside (0, 1) this is the closed form
    ``det(I - R) exp((c, log(R (I - R)^{-1}) c))``; occupations at the
    endpoints switch to the equivalent eigenbasis product of single-mode
    factors, which handles empty and full modes exactly.  The one-draw
    case of `_densities`.
    """
    return _densities(state.r[None])[0]


def _densities(rs: np.ndarray) -> np.ndarray:
    """`gaussian_density` of each matrix of a (draws, n, n) stack of
    correlation matrices checked as `GaussianState` checks its r, each
    with the bits it has alone: one batched ``eigh``; the draws whose
    spectrum lies inside (0, 1) take the closed form from one `_bilinear`
    and one stacked ``scipy.linalg.expm``, and the others the product form,
    one draw at a time."""
    n = _check_modes(rs.shape[-1])
    dim = 2 ** n
    occ, vecs = np.linalg.eigh(rs)
    occ = np.clip(occ, 0.0, 1.0)
    inside = (occ.min(axis=-1) > _ENDPOINT_TOL) \
        & (occ.max(axis=-1) < 1 - _ENDPOINT_TOL)
    rho = np.empty((len(rs), dim, dim), dtype=complex)
    if inside.any():
        q, u = occ[inside], vecs[inside]
        x_mat = (u * np.log(q / (1 - q))[:, None]) @ _dagger(u)
        c = _car(n)
        rho[inside] = np.prod(1 - q, axis=-1)[:, None, None] \
            * scipy.linalg.expm(_bilinear(x_mat, _dagger(c), c))
    for k in np.flatnonzero(~inside):
        rho[k] = np.eye(dim)
        for p, col in zip(occ[k], vecs[k].T):
            number_op = smeared_creation(col) @ smeared_annihilation(col)
            rho[k] = rho[k] @ ((1 - p) * (np.eye(dim) - number_op)
                               + p * number_op)
    return (rho + _dagger(rho)) / 2


def density_modes(rho) -> int:
    """Mode count n of a 2^n x 2^n operator, 1 <= n <= MAX_MODES; raises
    ValidationError for any other shape."""
    shape = np.shape(rho)
    dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if dim < 2 or dim & (dim - 1):
        raise ValidationError(f"density matrix must be 2^n x 2^n, got shape {shape}")
    return _check_modes(dim.bit_length() - 1)


def read_correlations(rho: np.ndarray) -> np.ndarray:
    """Correlation matrix of a density matrix: R_jk = Tr[c_k† c_j rho].
    The one-draw case of `_correlations`."""
    return _correlations(as_square(rho, "density matrix")[None])[0]


def _correlations(rhos: np.ndarray) -> np.ndarray:
    """`read_correlations` of each matrix of a (draws, 2^n, 2^n) stack,
    each with the bits it has alone: the n² products c_k† c_j are formed
    once for all draws."""
    ops = _car(density_modes(rhos[0]))
    pairs = _dagger(ops)[None] @ ops[:, None]
    return np.trace(pairs @ rhos[:, None, None], axis1=-2, axis2=-1)


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
    if np.linalg.norm(n_mat + n_mat.T) > _ANTISYM_TOL * max(1.0, np.linalg.norm(n_mat)):
        raise ValidationError("noise coefficient matrix must be antisymmetric")
    w = np.array(majorana_operators(n))
    antisym = (a - a.T) / 8
    terms = [(_bilinear(antisym + 1j * n_mat / 4, w, w), None),
             (None, _bilinear(-antisym + 1j * n_mat / 4, w, w)),
             *zip(_smear((-a - a.T + 2j * n_mat) / 4, w), w)]
    return _assemble(terms, 2 ** n)

