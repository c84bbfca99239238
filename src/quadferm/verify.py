"""Identity suite: every algebraic and dynamical claim as a residual.

Each check is a row function ``(rng, n, draws) -> residuals``: it draws
``draws`` seeded random instances, evaluates one identity on each through
the dense Fock-space oracle and returns an array of residuals whose
leading axis is the draw (a second axis when one draw evaluates several
times or sides).  `_worst` runs a row by name and reduces its residuals to
the worst one, propagating NaN, and `run_suite` sets it against the
tolerance it must meet.  The suite is what `quadferm verify` runs and what
the acceptance tests pin down.

Every row has one form: it draws its random inputs one draw at a time
through `_stacked`, in the order a draw-by-draw loop reads them, with any
per-draw side (an n x n flow or rotation, an evolved Gaussian state)
computed beside them, and evaluates the rest once on the stacks.
Superoperators come from `fock`'s private ``_basic`` and ``_liouvillian``
as `fock._Blocks` with a leading batch axis (charge-sector blocks, or one
whole-matrix block where a bug breaks charge); the Gaussian rows check
their correlation draws as states with one ``gaussian._check_states`` and
build and read back their densities with one ``fock._densities`` and one
``fock._correlations``.  Block products, sums, ``fock._expm`` and
``fock._norm``, like `_norms` and the stacked Gaussian functions, give
each draw the bits it has alone, so k draws at once equal k single draws
bit for bit.  ``vacuum_invariance``, ``phi_evolution_covariance``,
``phi_basis_rank`` and ``majorana_commutator`` evaluate within each draw,
for the reason each docstring gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import affine, fock, gaussian, opbasis
from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState, evolve_state
from .linalg import hermitize, mat_exp

__all__ = [
    "run_suite",
    "check_names",
    "random_complex_matrix",
    "random_hermitian",
    "random_psd",
    "random_gksl_params",
    "random_correlation_matrix",
    "random_density_matrix",
]


# -- seeded instance generators --------------------------------------------

def random_complex_matrix(rng, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def random_hermitian(rng, n: int) -> np.ndarray:
    return hermitize(random_complex_matrix(rng, n))


def random_psd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    b = random_complex_matrix(rng, n)
    return scale * hermitize(b @ b.conj().T) / n


def random_gksl_params(rng, n: int, min_damping: float = 0.0) -> AffineGenerator:
    """Admissible pair A = -iH - D - E, M = 2E from random model data."""
    h = random_hermitian(rng, n)
    d = random_psd(rng, n) + min_damping * np.eye(n)
    e = random_psd(rng, n, scale=0.5)
    return AffineGenerator(-1j * h - d - e, 2 * e)


def random_correlation_matrix(rng, n: int, lo: float = 0.05,
                              hi: float = 0.95) -> np.ndarray:
    q, _ = np.linalg.qr(random_complex_matrix(rng, n))
    occ = rng.uniform(lo, hi, size=n)
    return hermitize((q * occ) @ q.conj().T)


def random_density_matrix(rng, dim: int) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_vector(rng, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


# -- rows on superoperator blocks (each returns the residuals of its draws) -

def _comm(x, y):
    return x @ y - y @ x


def _stacked(draws: int, draw) -> list[np.ndarray]:
    """Each array ``draw()`` returns, stacked over ``draws`` calls made in
    order: the leading axis is the draw.  A row draws its random inputs,
    and computes the fast-path side it keeps per draw (a flow, a rotation,
    an evolved state), here one draw at a time, so the stream is the one a
    draw-by-draw loop reads."""
    return [np.array(part) for part in zip(*(draw() for _ in range(draws)))]


def _residual(lhs, rhs) -> np.ndarray:
    """Frobenius norm of ``lhs - rhs`` per draw, of ``lhs`` when rhs is
    None (the zero map), for superoperators as `fock._Blocks`."""
    return fock._norm(lhs if rhs is None else lhs - rhs)


def _norms(x) -> np.ndarray:
    """Frobenius norm per draw of whole arrays, one ``np.linalg.norm`` each."""
    return np.array([np.linalg.norm(d) for d in x])


def _super_lam(a, m):
    return fock._liouvillian((a, m))


def _check_generator_commutator(rng, n, draws):
    def draw():
        p, q = (AffineGenerator(random_complex_matrix(rng, n),
                                random_complex_matrix(rng, n))
                for _ in range(2))
        g = affine.bracket(p, q)
        return p.a, p.m, q.a, q.m, g.a, g.m
    pa, pm, qa, qm, ga, gm = _stacked(draws, draw)
    lhs = _comm(_super_lam(pa, pm), _super_lam(qa, qm))
    return _residual(lhs, _super_lam(ga, gm))


def _check_trace_preservation(rng, n, draws):
    trace_functional = fock.vec(np.eye(2 ** n, dtype=complex)).conj()
    a, m = _stacked(draws, lambda: (random_complex_matrix(rng, n),
                                    random_complex_matrix(rng, n)))
    return _norms(trace_functional @ _super_lam(a, m))


def _check_factorization(rng, n, draws):
    """Both propagators are exponentiated once, at the first time, and
    squared to each later one: scaling and squaring forms e^{2X} as
    (e^X)^2 anyway.  The noise side takes one exponential per time."""
    times = (0.375, 0.75, 1.5, 3.0)

    def draw():
        params = random_gksl_params(rng, n)
        return (params.a, params.m,
                *(affine.flow(params, t).m for t in times))
    a, m, *noises = _stacked(draws, draw)
    zero = np.zeros((n, n), dtype=complex)
    full = fock._expm(times[0] * _super_lam(a, m))
    drift = fock._expm(times[0] * _super_lam(a, zero))
    values = []
    for k, noise in enumerate(noises):
        if k:
            full, drift = full @ full, drift @ drift
        rhs = fock._expm(_super_lam(zero, noise)) @ drift
        values.append(_residual(full, rhs))
    return np.stack(values, axis=-1)


def _check_noise_conjugation(rng, n, draws):
    zero = np.zeros((n, n), dtype=complex)
    t = 0.7

    def draw():
        a = random_complex_matrix(rng, n)
        m = random_complex_matrix(rng, n)
        rot = mat_exp(t * a)
        return a, m, rot @ m @ rot.conj().T
    a, m, rotated = _stacked(draws, draw)
    prop = fock._expm(t * _super_lam(a, zero))
    lhs = prop @ _super_lam(zero, m)
    return _residual(lhs, _super_lam(zero, rotated) @ prop)


def _check_translation_conjugation(rng, n, draws):
    """One-sided, as ``noise_conjugation``: e^G L = L' e^G for G = L(O,T)
    takes one exponential where e^G L e^{-G} = L' takes two.  L' is L(p +
    [(O,T), p]) for p = (A, M), from `affine.bracket`."""
    zero = np.zeros((n, n), dtype=complex)

    def draw():
        a = random_complex_matrix(rng, n)
        m = random_complex_matrix(rng, n)
        t_mat = random_complex_matrix(rng, n)
        g = affine.bracket(AffineGenerator(zero, t_mat), AffineGenerator(a, m))
        return a, m, t_mat, a + g.a, m + g.m
    a, m, t_mat, shifted_a, shifted_m = _stacked(draws, draw)
    shift = fock._expm(_super_lam(zero, t_mat))
    return _residual(shift @ _super_lam(a, m),
                     _super_lam(shifted_a, shifted_m) @ shift)


def _check_gain_intertwining(rng, n, draws):
    t = 0.8

    def draw():
        m = random_hermitian(rng, n)
        t_mat = random_hermitian(rng, n)
        half = mat_exp(t * m / 2)
        return m, t_mat, half @ t_mat @ half
    m, t_mat, conjugated = _stacked(draws, draw)
    prop = fock._expm(t * _super_lam(-m / 2, m))
    lhs = prop @ _gain(t_mat)
    return _residual(lhs, _gain(conjugated) @ prop)


def _check_rank_one_nilpotency(rng, n, draws):
    zero = np.zeros((n, n), dtype=complex)

    def draw():
        xi = _random_vector(rng, n)
        eta = _random_vector(rng, n)
        return (np.outer(xi, eta.conj()),)
    (noise,) = _stacked(draws, draw)
    gen = _super_lam(zero, noise)
    return fock._norm(gen @ gen)


# -- rows on whole arrays ----------------------------------------------------

def _modulus(z) -> np.ndarray:
    """``|z|`` entrywise, with the bits of Python's ``abs`` (not np.abs)."""
    return np.hypot(z.real, z.imag)


def _check_vacuum_invariance(rng, n, draws):
    """Per draw on `fock.apply_generator`, the suite's only row on the
    matrix-free path with A != 0."""
    zero, vacuum = np.zeros((n, n), dtype=complex), fock.vacuum_projector(n)
    return _norms(*_stacked(draws, lambda: (fock.apply_generator(
        AffineGenerator(random_complex_matrix(rng, n), zero), vacuum),)))


def _gaussian(r) -> tuple[np.ndarray, np.ndarray]:
    """The spectra and Fock-space densities of a stack of correlation
    draws, each as `GaussianState` and `fock.gaussian_density` give it: the
    draws are `hermitize` output, which `GaussianState` keeps bit for bit,
    so one `gaussian._check_states` checks them all as states."""
    return gaussian._check_states(r), fock._densities(r)


def _check_quadratic_expectation(rng, n, draws):
    r, t_mat = _stacked(draws, lambda: (random_correlation_matrix(rng, n),
                                        random_hermitian(rng, n)))
    _, rho = _gaussian(r)
    c = fock._car(n)
    form = fock._bilinear(t_mat, fock._dagger(c), c)
    return _modulus(np.trace(form @ rho, axis1=-2, axis2=-1)
                    - np.trace(t_mat @ r, axis1=-2, axis2=-1))


def _check_density_unit_trace(rng, n, draws):
    (r,) = _stacked(draws, lambda: (random_correlation_matrix(rng, n),))
    _, rho = _gaussian(r)
    return _modulus(np.trace(rho, axis1=-2, axis2=-1) - 1.0)


def _check_correlation_roundtrip(rng, n, draws):
    (r,) = _stacked(draws, lambda: (random_correlation_matrix(rng, n),))
    _, rho = _gaussian(r)
    return np.max(np.abs(fock._correlations(rho) - r), axis=(-2, -1))


def _check_gaussian_entropy(rng, n, draws):
    """The fast side is `gaussian.entropy` of each draw's state, from the
    spectra that checked it."""
    (r,) = _stacked(draws, lambda: (random_correlation_matrix(rng, n),))
    occ, rho = _gaussian(r)
    eigs = np.linalg.eigvalsh(rho)
    dense = -np.sum(eigs * np.log(np.clip(eigs, 1e-300, None)), axis=-1)
    return np.abs(dense - gaussian._entropies(occ))


def _check_fast_path_evolution(rng, n, draws):
    """Gaussian states have charge 0, so one sector stack is exponentiated,
    once, at the first time; each later time is reached by products of
    that step with each draw's vector."""
    step, steps, dim = 0.5, (1, 4), 2 ** n  # t = 0.5 and 2

    def draw():
        params = random_gksl_params(rng, n)
        state = GaussianState(random_correlation_matrix(rng, n))
        return (params.a, params.m, state.r,
                *(evolve_state(params, state, k * step).r for k in steps))
    a, m, r0, *fast = _stacked(draws, draw)
    # each draw's fock.vec, and below its fock.unvec
    rho = fock._densities(r0).swapaxes(-1, -2).reshape(draws, -1)
    prop = fock._expm(step * _super_lam(a, m), rho)
    values, done = [], 0
    for k, fast_r in zip(steps, fast):
        for _ in range(k - done):
            rho = prop @ rho
        done = k
        dense_r = fock._correlations(
            rho.reshape(draws, dim, dim).swapaxes(-1, -2))
        values.append(np.max(np.abs(dense_r - fast_r), axis=(-2, -1)))
    return np.stack(values, axis=-1)


def _random_vectors(rng, n, count):
    return [_random_vector(rng, n) for _ in range(count)]


def _random_lists(rng, n, p_min):
    """Lists of random lengths in [p_min, n] and [0, n], lengths first."""
    p_len = int(rng.integers(p_min, n + 1))
    q_len = int(rng.integers(0, n + 1))
    return _random_vectors(rng, n, p_len), _random_vectors(rng, n, q_len)


def _check_phi_antisymmetry(rng, n, draws):
    """The plain and swapped elements come from one table over each draw's
    vectors, so each rank-one term list is built once."""
    def draw():
        table = opbasis._Elements(_random_vectors(rng, n, 2),
                                  _random_vectors(rng, n, 2), n, dressed=True)
        plain = table((0, 1), (0, 1))
        return plain + table((1, 0), (0, 1)), plain + table((0, 1), (1, 0))
    return np.stack([_norms(x) for x in _stacked(draws, draw)], axis=-1)


def _check_phi_pi_roundtrip(rng, n, draws):
    """Each draw's phi element against its subset expansion over pi, and
    back.  The expansion takes antisymmetry as given, so at n = 2 it does
    not see the parity strings of the annihilators dropped: with P, Q <= 2
    commuting modes still satisfy it (8.9e-16 at seed 7), and only
    ``phi_antisymmetry`` fails there; from n = 3 this row fails too."""
    def draw():
        xis, etas = _random_lists(rng, n, 0)
        return (opbasis.phi_element(xis, etas, n)
                - opbasis.phi_from_pi(xis, etas, n),
                opbasis.pi_element(xis, etas, n)
                - opbasis.pi_from_phi(xis, etas, n))
    return np.stack([_norms(x) for x in _stacked(draws, draw)], axis=-1)


def _check_phi_basis_rank(rng, n, draws):
    """Smallest singular value of each draw's normalized 4^n x 4^n family
    matrix, within the draw.  Column (S, T) has charge |S| - |T|, so it
    takes one SVD per charge block; any entry off its column's charge,
    tested exactly, takes the whole SVD, so broken charge is measured."""
    rows = fock._layout(2 ** n, True).charge

    def draw():
        labels, b = opbasis.phi_family_matrix(_random_vectors(rng, n, n),
                                              _random_vectors(rng, n, n))
        b = b / np.linalg.norm(b, axis=0, keepdims=True)
        cols = np.array([len(s) - len(t) for s, t in labels])
        if np.any((b != 0) & (rows[:, None] != cols)):
            return (np.linalg.svd(b, compute_uv=False)[-1],)
        sectors = (b[rows == q][:, cols == q] for q in range(-n, n + 1))
        return (min(np.linalg.svd(x, compute_uv=False)[-1] for x in sectors),)
    return _stacked(draws, draw)[0]


def _check_phi_evolution(rng, n, draws):
    """`fock.dense_evolve` per draw: the elements sit in different charge
    sectors, and a batch would exponentiate their union for every draw."""
    t, zero = 0.9, np.zeros((n, n), dtype=complex)

    def draw():
        a = random_complex_matrix(rng, n)
        xis, etas = _random_lists(rng, n, 1)
        lhs = fock.dense_evolve(AffineGenerator(a, zero),
                                opbasis.phi_element(xis, etas, n), t)
        rot = mat_exp(t * a)
        return (lhs - opbasis.phi_element([rot @ v for v in xis],
                                          [rot @ v for v in etas], n),)
    return _norms(*_stacked(draws, draw))


def _check_majorana_commutator(rng, n, draws):
    """Reduced within each draw: the Majorana family keeps parity but not
    charge, so its superoperators are whole 4^n matrices, not blocks."""
    def draw():
        a, b, n_mat, r_mat = (rng.standard_normal((2 * n, 2 * n))
                              for _ in range(4))
        n_mat, r_mat = (n_mat - n_mat.T) / 2, (r_mat - r_mat.T) / 2
        lhs = _comm(fock.majorana_liouvillian(a, n_mat),
                    fock.majorana_liouvillian(b, r_mat))
        return (np.linalg.norm(lhs - fock.majorana_liouvillian(
            _comm(a, b), a @ r_mat + r_mat @ a.T - b @ n_mat - n_mat @ b.T)),)
    return _stacked(draws, draw)[0]


# -- commutator identities [X(C), Y(D)] = Z(C, D) ---------------------------

def _basic_map(kind):
    """C -> kind(C) in the form `fock._basic` builds; looks `fock._basic`
    up at call time, so that a rebound one (a planted bug, a tracer) is
    the one checked."""
    return lambda c: fock._basic(kind, c)


_left, _right, _loss, _gain = map(_basic_map, ("left", "right", "loss", "gain"))


def _fl(c):
    return _left(c) - _loss(c)


def _bl(c):
    return _right(c) - _loss(c)


def _s(c):
    return _left(c) + _right(c) - _loss(c) + _gain(c)


def _minus_trace(x, c, d):
    """``x - tr(CD)``, the scalar taken as tr(CD) times the identity
    superoperator in the layout of x."""
    return x - np.trace(c @ d, axis1=-2, axis2=-1) * fock._identity(x)


def _zero(c, d):
    return None


# -- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    value: float  # NaN when skipped
    tolerance: float
    comparison: str  # "<=" (residual) or ">=" (rank-style)
    passed: bool  # True when skipped: a skip is not a failure
    skipped: bool = False  # the check cannot run at this n

    @property
    def status(self) -> str:
        return "skip" if self.skipped else "pass" if self.passed else "fail"


@dataclass(frozen=True)
class _Check:
    name: str
    identity: str
    tolerance: float
    comparison: str
    fn: Callable  # (rng, n, draws) -> residuals, leading axis the draw
    draw_cap: int
    min_n: int = 1  # below it the check cannot run and is skipped


def _commutator(name, identity, x, y, z):
    """Row for ``[X(C), Y(D)] = Z(C, D)`` on random complex C, D."""
    def row(rng, n, draws):
        c, d = _stacked(draws, lambda: (random_complex_matrix(rng, n),
                                        random_complex_matrix(rng, n)))
        return _residual(_comm(x(c), y(d)), z(c, d))
    return _Check(name, identity, 1e-11, "<=", row, 50)


_REGISTRY: tuple[_Check, ...] = (
    _commutator("left_left", "[left(C), left(D)] = left([C,D])",
                _left, _left, lambda c, d: _left(_comm(c, d))),
    _commutator("right_right", "[right(C), right(D)] = -right([C,D])",
                _right, _right, lambda c, d: -_right(_comm(c, d))),
    _commutator("left_loss", "[left(C), loss(D)] = -loss(DC)",
                _left, _loss, lambda c, d: -_loss(d @ c)),
    _commutator("right_loss", "[right(C), loss(D)] = -loss(CD)",
                _right, _loss, lambda c, d: -_loss(c @ d)),
    _commutator("left_gain", "[left(C), gain(D)] = gain(CD)",
                _left, _gain, lambda c, d: _gain(c @ d)),
    _commutator("right_gain", "[right(C), gain(D)] = gain(DC)",
                _right, _gain, lambda c, d: _gain(d @ c)),
    _commutator("left_right", "[left(C), right(D)] = 0",
                _left, _right, _zero),
    _commutator("loss_loss", "[loss(C), loss(D)] = 0", _loss, _loss, _zero),
    _commutator("gain_gain", "[gain(C), gain(D)] = 0", _gain, _gain, _zero),
    _commutator("loss_gain",
                "[loss(C), gain(D)] = tr(CD) - left(DC) - right(CD)",
                _loss, _gain,
                lambda c, d: -_minus_trace(_left(d @ c) + _right(c @ d), c, d)),
    _Check("generator_commutator",
           "[L(A,M), L(B,N)] = L([A,B], AN + NA' - BM - MB')",
           1e-10, "<=", _check_generator_commutator, 50),
    _commutator("aux_fl_fl",
                "[(left-loss)(C), (left-loss)(D)] = (left-loss)([C,D])",
                _fl, _fl, lambda c, d: _fl(_comm(c, d))),
    _commutator("aux_bl_bl",
                "[(right-loss)(C), (right-loss)(D)] = -(right-loss)([C,D])",
                _bl, _bl, lambda c, d: -_bl(_comm(c, d))),
    _commutator("aux_fl_bl", "[(left-loss)(C), (right-loss)(D)] = 0",
                _fl, _bl, _zero),
    _commutator("aux_fl_s", "[(left-loss)(C), S(D)] = S(CD) - tr(CD),"
                            " S = left+right-loss+gain",
                _fl, _s,
                lambda c, d: _minus_trace(_s(c @ d), c, d)),
    _commutator("aux_bl_s", "[(right-loss)(C), S(D)] = S(DC) - tr(DC)",
                _bl, _s,
                lambda c, d: _minus_trace(_s(d @ c), d, c)),
    _commutator("aux_s_s", "[S(C), S(D)] = 0", _s, _s, _zero),
    _Check("trace_preservation", "Tr(L(A,M) rho) = 0",
           1e-11, "<=", _check_trace_preservation, 50),
    _Check("vacuum_invariance", "L(A,O) vacuum = 0",
           1e-12, "<=", _check_vacuum_invariance, 50),
    _Check("semigroup_factorization",
           "exp(tL(A,M)) = exp(L(O, int_0^t e^{sA}M e^{sA'} ds)) exp(tL(A,O))",
           1e-9, "<=", _check_factorization, 20),
    _Check("noise_conjugation",
           "exp(tL(A,O)) L(O,M) = L(O, e^{tA}M e^{tA'}) exp(tL(A,O))",
           1e-10, "<=", _check_noise_conjugation, 20),
    _Check("translation_conjugation",
           "exp(L(O,T)) L(A,M) = L(A, M - AT - TA') exp(L(O,T))",
           1e-10, "<=", _check_translation_conjugation, 20),
    _Check("gain_intertwining",
           "exp(tL(-M/2,M)) gain(T) = gain(e^{tM/2} T e^{tM/2}) exp(tL(-M/2,M))",
           1e-10, "<=", _check_gain_intertwining, 20),
    _Check("rank_one_nilpotency", "L(O, xi eta')^2 = 0",
           1e-13, "<=", _check_rank_one_nilpotency, 50),
    _Check("quadratic_expectation",
           "Tr[(c,Tc) rho_R] = tr(TR)",
           1e-10, "<=", _check_quadratic_expectation, 20),
    _Check("density_unit_trace",
           "Tr[det(I-R) exp((c, log(R(I-R)^-1) c))] = 1",
           1e-12, "<=", _check_density_unit_trace, 20),
    _Check("correlation_roundtrip",
           "read_correlations(density(R)) = R",
           1e-11, "<=", _check_correlation_roundtrip, 20),
    _Check("gaussian_entropy",
           "-tr(R log R) - tr((I-R) log(I-R)) = -Tr[rho log rho]",
           1e-9, "<=", _check_gaussian_entropy, 20),
    _Check("fast_path_evolution",
           "corr(exp(tL(A,M)) rho_R) = e^{tA} R e^{tA'} + noise integral",
           1e-9, "<=", _check_fast_path_evolution, 20),
    _Check("phi_antisymmetry",
           "phi is antisymmetric in each argument list",
           1e-12, "<=", _check_phi_antisymmetry, 20, min_n=2),
    _Check("phi_pi_roundtrip",
           "phi <-> pi permutation expansions agree with direct builds",
           1e-11, "<=", _check_phi_pi_roundtrip, 10),
    _Check("phi_basis_rank",
           "the 4^n dressed elements over two bases span the operator space",
           1e-8, ">=", _check_phi_basis_rank, 2),
    _Check("phi_evolution_covariance",
           "exp(tL(A,O)) phi(xi; eta) = phi(e^{tA} xi; e^{tA} eta)",
           1e-10, "<=", _check_phi_evolution, 10),
    _Check("majorana_commutator",
           "[L(A,N), L(B,R)] = L([A,B], AR + RA^T - BN - NB^T)  (Majorana form)",
           1e-10, "<=", _check_majorana_commutator, 20),
)


def check_names() -> list[str]:
    return [c.name for c in _REGISTRY]


def _worst(name: str, rng, n: int, draws: int) -> float:
    """Run check ``name`` for ``draws`` draws from ``rng`` at ``n`` modes.

    Returns the largest residual of a ``<=`` check and the smallest value
    of a ``>=`` check; a NaN from any draw makes the result NaN.
    """
    check = {c.name: c for c in _REGISTRY}[name]
    values = check.fn(rng, n, draws)
    return float(np.max(values) if check.comparison == "<=" else np.min(values))


def run_suite(n: int = 2, seed: int = 7, draws: int = 20,
              tol_overrides: dict | None = None) -> list[CheckResult]:
    """Run every identity check at the given mode count.

    Draw streams are seeded per check from (seed, check index), so results
    are deterministic for a given (n, seed, draws).  Each check runs
    ``draws`` draws, capped per check, and at most 3 when n >= 4.  A
    check that cannot run at n (``n < min_n``) draws nothing and is
    reported skipped, with value NaN; it does not fail.
    ``tol_overrides`` maps check names to replacement tolerances.  Raises
    ValidationError before any draw unless 1 <= n <=
    fock.MAX_DENSE_EVOLVE_MODES, draws >= 1, seed >= 0 and every override
    names a check and is finite and nonnegative.
    """
    cap = fock.MAX_DENSE_EVOLVE_MODES
    if not 1 <= n <= cap:
        raise ValidationError(f"verify supports 1 <= n <= {cap}, got {n}")
    if draws < 1:
        raise ValidationError(f"verify needs draws >= 1, got {draws}")
    if seed < 0:
        raise ValidationError(f"verify needs seed >= 0, got {seed}")
    tol_overrides = {k: float(v) for k, v in (tol_overrides or {}).items()}
    unknown = set(tol_overrides) - set(check_names())
    if unknown:
        raise ValidationError(
            f"unknown check names in tolerance overrides: {sorted(unknown)}"
        )
    bad = {k: v for k, v in tol_overrides.items() if not 0 <= v < np.inf}
    if bad:
        raise ValidationError(f"tolerances must be finite and >= 0: {bad}")
    results = []
    for idx, check in enumerate(_REGISTRY):
        rng = np.random.default_rng([seed, idx])
        effective = min(draws, check.draw_cap, 3 if n >= 4 else draws)
        skipped = n < check.min_n
        value = np.nan if skipped else _worst(check.name, rng, n, effective)
        tol = tol_overrides.get(check.name, check.tolerance)
        passed = value <= tol if check.comparison == "<=" else value >= tol
        results.append(CheckResult(
            name=check.name,
            identity=check.identity,
            value=value,
            tolerance=tol,
            comparison=check.comparison,
            passed=bool(passed or skipped),
            skipped=skipped,
        ))
    return results
