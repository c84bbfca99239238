"""Identity suite: every algebraic and dynamical claim as a residual.

Each check is a per-draw function ``(rng, n) -> residual``: it draws one
seeded random instance, evaluates one identity through the dense
Fock-space oracle and returns the residual (a short list of them when one
draw evaluates several times or sides).  `_worst` runs a check by name for
a number of draws and reduces the residuals to the worst one, propagating
NaN, and `run_suite` sets it against the tolerance it must meet.  The
suite is what `quadferm verify` runs and what the acceptance tests pin
down.

The rows build superoperators through `fock`'s private entry points
(``_basic``, ``_liouvillian``), in the form ``fock._assemble`` decides:
charge-sector blocks from n = 3 on (gathered through ``fock``'s cached
maps), whole matrices below that and for any term list that breaks
charge.  Products, sums, ``fock._expm`` and ``fock._norm`` act on either
form, and the two never mix silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import affine, fock, opbasis
from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState, entropy, evolve_state
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


# -- per-draw checks (each returns the residual of one random instance) -----

def _comm(x, y):
    return x @ y - y @ x


def _residual(lhs, rhs) -> float:
    """Frobenius norm of ``lhs - rhs``, of ``lhs`` when rhs is None (the
    zero map); superoperators may be in either `fock` form."""
    return fock._norm(lhs if rhs is None else lhs - rhs)


def _super_lam(a, m):
    return fock._liouvillian(AffineGenerator(a, m))


def _random_generator(rng, n):
    return AffineGenerator(random_complex_matrix(rng, n),
                           random_complex_matrix(rng, n))


def _check_generator_commutator(rng, n):
    p = _random_generator(rng, n)
    q = _random_generator(rng, n)
    lhs = _comm(fock._liouvillian(p), fock._liouvillian(q))
    return _residual(lhs, fock._liouvillian(affine.bracket(p, q)))


def _check_trace_preservation(rng, n):
    trace_functional = fock.vec(np.eye(2 ** n, dtype=complex)).conj()
    lam = fock._liouvillian(_random_generator(rng, n))
    return float(np.linalg.norm(trace_functional @ lam))


def _check_vacuum_invariance(rng, n):
    zero = np.zeros((n, n), dtype=complex)
    gen = AffineGenerator(random_complex_matrix(rng, n), zero)
    return float(np.linalg.norm(
        fock.apply_generator(gen, fock.vacuum_projector(n))))


def _check_factorization(rng, n):
    zero = np.zeros((n, n), dtype=complex)
    params = random_gksl_params(rng, n)
    full = _super_lam(params.a, params.m)
    drift_only = _super_lam(params.a, zero)
    values = []
    for t in (0.3, 1.0, 3.0):
        noise = affine.flow(params, t).m
        lhs = fock._expm(t * full)
        rhs = fock._expm(_super_lam(zero, noise)) @ fock._expm(t * drift_only)
        values.append(_residual(lhs, rhs))
    return values


def _check_noise_conjugation(rng, n):
    zero = np.zeros((n, n), dtype=complex)
    t = 0.7
    a = random_complex_matrix(rng, n)
    m = random_complex_matrix(rng, n)
    prop = fock._expm(t * _super_lam(a, zero))
    rot = mat_exp(t * a)
    lhs = prop @ _super_lam(zero, m)
    return _residual(lhs, _super_lam(zero, rot @ m @ rot.conj().T) @ prop)


def _check_translation_conjugation(rng, n):
    zero = np.zeros((n, n), dtype=complex)
    a = random_complex_matrix(rng, n)
    m = random_complex_matrix(rng, n)
    t_mat = random_complex_matrix(rng, n)
    gen = _super_lam(zero, t_mat)
    shift, unshift = fock._expm(gen), fock._expm(-gen)
    lhs = shift @ _super_lam(a, m) @ unshift
    return _residual(lhs, _super_lam(a, m - a @ t_mat - t_mat @ a.conj().T))


def _check_gain_intertwining(rng, n):
    t = 0.8
    m = random_hermitian(rng, n)
    t_mat = random_hermitian(rng, n)
    prop = fock._expm(t * _super_lam(-m / 2, m))
    half = mat_exp(t * m / 2)
    lhs = prop @ _gain(t_mat)
    return _residual(lhs, _gain(half @ t_mat @ half) @ prop)


def _check_rank_one_nilpotency(rng, n):
    zero = np.zeros((n, n), dtype=complex)
    xi = _random_vector(rng, n)
    eta = _random_vector(rng, n)
    gen = _super_lam(zero, np.outer(xi, eta.conj()))
    return fock._norm(gen @ gen)


def _random_gaussian(rng, n):
    """A random correlation matrix R and its Fock-space density rho_R."""
    r = random_correlation_matrix(rng, n)
    return r, fock.gaussian_density(GaussianState(r))


def _check_quadratic_expectation(rng, n):
    r, rho = _random_gaussian(rng, n)
    t_mat = random_hermitian(rng, n)
    lhs = np.trace(fock.quadratic_form(t_mat) @ rho)
    return abs(lhs - np.trace(t_mat @ r))


def _check_density_unit_trace(rng, n):
    _, rho = _random_gaussian(rng, n)
    return abs(np.trace(rho) - 1.0)


def _check_correlation_roundtrip(rng, n):
    r, rho = _random_gaussian(rng, n)
    return float(np.max(np.abs(fock.read_correlations(rho) - r)))


def _check_gaussian_entropy(rng, n):
    r, rho = _random_gaussian(rng, n)
    eigs = np.linalg.eigvalsh(rho)
    dense = -float(np.sum(eigs * np.log(np.clip(eigs, 1e-300, None))))
    return abs(dense - entropy(GaussianState(r)))


def _check_fast_path_evolution(rng, n):
    params = random_gksl_params(rng, n)
    r0, rho0 = _random_gaussian(rng, n)
    values = []
    for t in (0.5, 2.0):
        dense_r = fock.read_correlations(fock.dense_evolve(params, rho0, t))
        fast_r = evolve_state(params, GaussianState(r0), t).r
        values.append(float(np.max(np.abs(dense_r - fast_r))))
    return values


def _random_vectors(rng, n, count):
    return [_random_vector(rng, n) for _ in range(count)]


def _check_phi_antisymmetry(rng, n):
    """The plain and swapped elements come from one table over the draw's
    vectors, so each rank-one term list is built once."""
    table = opbasis._Elements(_random_vectors(rng, n, 2),
                              _random_vectors(rng, n, 2), n, dressed=True)
    plain = table((0, 1), (0, 1))
    xi_swapped = table((1, 0), (0, 1))
    eta_swapped = table((0, 1), (1, 0))
    return [float(np.linalg.norm(plain + xi_swapped)),
            float(np.linalg.norm(plain + eta_swapped))]


def _check_phi_pi_roundtrip(rng, n):
    p_len = int(rng.integers(0, n + 1))
    q_len = int(rng.integers(0, n + 1))
    xis = _random_vectors(rng, n, p_len)
    etas = _random_vectors(rng, n, q_len)
    return [_residual(opbasis.phi_element(xis, etas, n),
                      opbasis.phi_from_pi(xis, etas, n)),
            _residual(opbasis.pi_element(xis, etas, n),
                      opbasis.pi_from_phi(xis, etas, n))]


def _check_phi_basis_rank(rng, n):
    """Smallest singular value of the normalized family matrix.  A column
    (S, T) has charge |S| - |T|, so the matrix is block diagonal over
    charge and takes one SVD per sector; any entry off its column's
    charge, tested exactly, takes the whole SVD instead, so a bug that
    breaks charge is still measured."""
    xi_basis = _random_vectors(rng, n, n)
    eta_basis = _random_vectors(rng, n, n)
    labels, b = opbasis.phi_family_matrix(xi_basis, eta_basis)
    b = b / np.linalg.norm(b, axis=0, keepdims=True)
    rows = fock._layout(2 ** n).charge
    cols = np.array([len(s) - len(t) for s, t in labels])
    least = np.inf
    for q in range(-n, n + 1):
        sector = b[:, cols == q]
        if np.any(sector[rows != q]):
            return float(np.linalg.svd(b, compute_uv=False)[-1])
        least = min(least, np.linalg.svd(sector[rows == q], compute_uv=False)[-1])
    return float(least)


def _check_phi_evolution(rng, n):
    a = random_complex_matrix(rng, n)
    p_len = int(rng.integers(1, n + 1))
    q_len = int(rng.integers(0, n + 1))
    xis = _random_vectors(rng, n, p_len)
    etas = _random_vectors(rng, n, q_len)
    t = 0.9
    lhs = fock.dense_evolve(AffineGenerator(a, np.zeros((n, n), dtype=complex)),
                            opbasis.phi_element(xis, etas, n), t)
    rot = mat_exp(t * a)
    return _residual(lhs, opbasis.phi_element([rot @ v for v in xis],
                                              [rot @ v for v in etas], n))


def _check_majorana_commutator(rng, n):
    two_n = 2 * n
    a = rng.standard_normal((two_n, two_n))
    b = rng.standard_normal((two_n, two_n))
    n_mat = rng.standard_normal((two_n, two_n))
    r_mat = rng.standard_normal((two_n, two_n))
    n_mat = (n_mat - n_mat.T) / 2
    r_mat = (r_mat - r_mat.T) / 2
    lhs = _comm(fock.majorana_liouvillian(a, n_mat),
                fock.majorana_liouvillian(b, r_mat))
    return _residual(lhs, fock.majorana_liouvillian(
        _comm(a, b), a @ r_mat + r_mat @ a.T - b @ n_mat - n_mat @ b.T))


# -- commutator identities [X(C), Y(D)] = Z(C, D) ---------------------------

def _basic_map(kind):
    """C -> kind(C) in the form `fock._assemble` decides; looks
    `fock._basic` up at call time, so that a rebound one (a planted bug, a
    tracer) is the one checked."""
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
    superoperator in the form of x."""
    return x - np.trace(c @ d) * fock._identity(x)


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
    fn: Callable  # (rng, n) -> residual of one draw, or a list of them
    draw_cap: int
    min_n: int = 1  # below it the check cannot run and is skipped


def _commutator(name, identity, x, y, z):
    """Row for ``[X(C), Y(D)] = Z(C, D)`` on random complex C, D."""
    def draw(rng, n):
        c = random_complex_matrix(rng, n)
        d = random_complex_matrix(rng, n)
        return _residual(_comm(x(c), y(d)), z(c, d))
    return _Check(name, identity, 1e-11, "<=", draw, 50)


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
           "exp(L(O,T)) L(A,M) exp(-L(O,T)) = L(A, M - AT - TA')",
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
    values = np.hstack([check.fn(rng, n) for _ in range(draws)])
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
