"""Identity suite: every algebraic and dynamical claim as a residual.

Each check draws seeded random instances, evaluates one identity through
the dense Fock-space oracle, and reports the worst residual together with
the tolerance it must meet.  The suite is what `quadferm verify` runs and
what the acceptance tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import fock, opbasis
from .affine import AffineGenerator
from .errors import ValidationError
from .gaussian import GaussianState, LiouvillianParams, entropy, evolve_state
from .linalg import hermitize, mat_exp, van_loan_integral

__all__ = [
    "CheckResult",
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


def random_gksl_params(rng, n: int, min_damping: float = 0.0) -> LiouvillianParams:
    """Admissible pair A = -iH - D - E, M = 2E from random model data."""
    h = random_hermitian(rng, n)
    d = random_psd(rng, n) + min_damping * np.eye(n)
    e = random_psd(rng, n, scale=0.5)
    return LiouvillianParams(-1j * h - d - e, 2 * e)


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


# -- individual checks (each returns the worst residual over draws) --------

def _basic_pair(kind_c, c, kind_d, d, n):
    return fock.super_basic(kind_c, c, n), fock.super_basic(kind_d, d, n)


def _comm(x, y):
    return x @ y - y @ x


def _basic_commutators(rng, n: int, draws: int, which: str) -> float:
    worst = 0.0
    eye = np.eye(4 ** n, dtype=complex)
    for _ in range(draws):
        c = random_complex_matrix(rng, n)
        d = random_complex_matrix(rng, n)
        cd, dc, comm_cd = c @ d, d @ c, c @ d - d @ c
        if which == "left_left":
            lhs = _comm(*_basic_pair("left", c, "left", d, n))
            rhs = fock.super_basic("left", comm_cd, n)
        elif which == "right_right":
            lhs = _comm(*_basic_pair("right", c, "right", d, n))
            rhs = -fock.super_basic("right", comm_cd, n)
        elif which == "left_loss":
            lhs = _comm(*_basic_pair("left", c, "loss", d, n))
            rhs = -fock.super_basic("loss", dc, n)
        elif which == "right_loss":
            lhs = _comm(*_basic_pair("right", c, "loss", d, n))
            rhs = -fock.super_basic("loss", cd, n)
        elif which == "left_gain":
            lhs = _comm(*_basic_pair("left", c, "gain", d, n))
            rhs = fock.super_basic("gain", cd, n)
        elif which == "right_gain":
            lhs = _comm(*_basic_pair("right", c, "gain", d, n))
            rhs = fock.super_basic("gain", dc, n)
        elif which == "left_right":
            lhs = _comm(*_basic_pair("left", c, "right", d, n))
            rhs = 0.0 * eye
        elif which == "loss_loss":
            lhs = _comm(*_basic_pair("loss", c, "loss", d, n))
            rhs = 0.0 * eye
        elif which == "gain_gain":
            lhs = _comm(*_basic_pair("gain", c, "gain", d, n))
            rhs = 0.0 * eye
        elif which == "loss_gain":
            lhs = _comm(*_basic_pair("loss", c, "gain", d, n))
            rhs = np.trace(cd) * eye \
                - fock.super_basic("left", dc, n) \
                - fock.super_basic("right", cd, n)
        else:
            raise ValueError(which)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _super_lam(a, m, n):
    return fock.super_liouvillian(AffineGenerator(a, m), n)


def _check_generator_commutator(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        a, m = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
        b, nn = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
        lhs = _comm(_super_lam(a, m, n), _super_lam(b, nn, n))
        rhs = _super_lam(
            a @ b - b @ a,
            a @ nn + nn @ a.conj().T - b @ m - m @ b.conj().T,
            n,
        )
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _aux_ops(c, n):
    left = fock.super_basic("left", c, n)
    right = fock.super_basic("right", c, n)
    loss = fock.super_basic("loss", c, n)
    gain = fock.super_basic("gain", c, n)
    return left - loss, right - loss, left + right - loss + gain


def _check_aux(rng, n, draws, which):
    worst = 0.0
    eye = np.eye(4 ** n, dtype=complex)
    for _ in range(draws):
        c = random_complex_matrix(rng, n)
        d = random_complex_matrix(rng, n)
        fl_c, bl_c, s_c = _aux_ops(c, n)
        fl_d, bl_d, s_d = _aux_ops(d, n)
        cd, dc, comm_cd = c @ d, d @ c, c @ d - d @ c
        if which == "fl_fl":
            lhs, rhs = _comm(fl_c, fl_d), _aux_ops(comm_cd, n)[0]
        elif which == "bl_bl":
            lhs, rhs = _comm(bl_c, bl_d), -_aux_ops(comm_cd, n)[1]
        elif which == "fl_bl":
            lhs, rhs = _comm(fl_c, bl_d), 0.0 * eye
        elif which == "fl_s":
            lhs, rhs = _comm(fl_c, s_d), _aux_ops(cd, n)[2] - np.trace(cd) * eye
        elif which == "bl_s":
            lhs, rhs = _comm(bl_c, s_d), _aux_ops(dc, n)[2] - np.trace(dc) * eye
        elif which == "s_s":
            lhs, rhs = _comm(s_c, s_d), 0.0 * eye
        else:
            raise ValueError(which)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _check_trace_preservation(rng, n, draws):
    trace_functional = fock.vec(np.eye(2 ** n, dtype=complex)).conj()
    worst = 0.0
    for _ in range(draws):
        a = random_complex_matrix(rng, n)
        m = random_complex_matrix(rng, n)
        worst = max(worst, float(np.linalg.norm(trace_functional @ _super_lam(a, m, n))))
    return worst


def _check_vacuum_invariance(rng, n, draws):
    omega = fock.vacuum_projector(n)
    worst = 0.0
    zero = np.zeros((n, n), dtype=complex)
    for _ in range(draws):
        a = random_complex_matrix(rng, n)
        worst = max(worst, float(np.linalg.norm(fock.apply_generator(a, zero, omega))))
    return worst


def _check_factorization(rng, n, draws):
    worst = 0.0
    zero = np.zeros((n, n), dtype=complex)
    for _ in range(draws):
        params = random_gksl_params(rng, n)
        full = _super_lam(params.a, params.m, n)
        drift_only = _super_lam(params.a, zero, n)
        for t in (0.3, 1.0, 3.0):
            noise = van_loan_integral(params.a, params.m, t)
            lhs = scipy.linalg.expm(t * full)
            rhs = scipy.linalg.expm(_super_lam(zero, noise, n)) \
                @ scipy.linalg.expm(t * drift_only)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _check_noise_conjugation(rng, n, draws):
    worst = 0.0
    zero = np.zeros((n, n), dtype=complex)
    t = 0.7
    for _ in range(draws):
        a = random_complex_matrix(rng, n)
        m = random_complex_matrix(rng, n)
        prop = scipy.linalg.expm(t * _super_lam(a, zero, n))
        rot = mat_exp(t * a)
        lhs = prop @ _super_lam(zero, m, n)
        rhs = _super_lam(zero, rot @ m @ rot.conj().T, n) @ prop
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _check_translation_conjugation(rng, n, draws):
    worst = 0.0
    zero = np.zeros((n, n), dtype=complex)
    for _ in range(draws):
        a = random_complex_matrix(rng, n)
        m = random_complex_matrix(rng, n)
        t_mat = random_complex_matrix(rng, n)
        shift = scipy.linalg.expm(_super_lam(zero, t_mat, n))
        unshift = scipy.linalg.expm(-_super_lam(zero, t_mat, n))
        lhs = shift @ _super_lam(a, m, n) @ unshift
        rhs = _super_lam(a, m - a @ t_mat - t_mat @ a.conj().T, n)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _check_gain_intertwining(rng, n, draws):
    worst = 0.0
    t = 0.8
    for _ in range(draws):
        m = random_hermitian(rng, n)
        t_mat = random_hermitian(rng, n)
        prop = scipy.linalg.expm(t * _super_lam(-m / 2, m, n))
        half = mat_exp(t * m / 2)
        lhs = prop @ fock.super_basic("gain", t_mat, n)
        rhs = fock.super_basic("gain", half @ t_mat @ half, n) @ prop
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _check_rank_one_nilpotency(rng, n, draws):
    worst = 0.0
    zero = np.zeros((n, n), dtype=complex)
    for _ in range(draws):
        xi = _random_vector(rng, n)
        eta = _random_vector(rng, n)
        gen = _super_lam(zero, np.outer(xi, eta.conj()), n)
        worst = max(worst, float(np.linalg.norm(gen @ gen)))
    return worst


def _check_quadratic_expectation(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        r = random_correlation_matrix(rng, n)
        rho = fock.gaussian_density(GaussianState(r))
        t_mat = random_hermitian(rng, n)
        lhs = np.trace(fock.quadratic_form(t_mat, n) @ rho)
        worst = max(worst, abs(lhs - np.trace(t_mat @ r)))
    return worst


def _check_density_unit_trace(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        r = random_correlation_matrix(rng, n)
        rho = fock.gaussian_density(GaussianState(r))
        worst = max(worst, abs(np.trace(rho) - 1.0))
    return worst


def _check_correlation_roundtrip(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        r = random_correlation_matrix(rng, n)
        back = fock.read_correlations(fock.gaussian_density(GaussianState(r)))
        worst = max(worst, float(np.max(np.abs(back - r))))
    return worst


def _check_gaussian_entropy(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        r = random_correlation_matrix(rng, n)
        rho = fock.gaussian_density(GaussianState(r))
        eigs = np.linalg.eigvalsh(rho)
        dense = -float(np.sum(eigs * np.log(np.clip(eigs, 1e-300, None))))
        worst = max(worst, abs(dense - entropy(GaussianState(r))))
    return worst


def _check_fast_path_evolution(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        params = random_gksl_params(rng, n)
        r0 = random_correlation_matrix(rng, n)
        rho0 = fock.gaussian_density(GaussianState(r0))
        for t in (0.5, 2.0):
            rho_t = fock.dense_evolve(params, rho0, t)
            dense_r = fock.read_correlations(rho_t)
            fast_r = evolve_state(params, GaussianState(r0), t).r
            worst = max(worst, float(np.max(np.abs(dense_r - fast_r))))
    return worst


def _check_phi_antisymmetry(rng, n, draws):
    if n < 2:
        return 0.0
    worst = 0.0
    for _ in range(draws):
        xis = [_random_vector(rng, n) for _ in range(2)]
        etas = [_random_vector(rng, n) for _ in range(2)]
        plain = opbasis.phi_element(xis, etas, n)
        xi_swapped = opbasis.phi_element(xis[::-1], etas, n)
        eta_swapped = opbasis.phi_element(xis, etas[::-1], n)
        worst = max(worst,
                    float(np.linalg.norm(plain + xi_swapped)),
                    float(np.linalg.norm(plain + eta_swapped)))
    return worst


def _check_phi_pi_roundtrip(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        p_len = int(rng.integers(0, n + 1))
        q_len = int(rng.integers(0, n + 1))
        xis = [_random_vector(rng, n) for _ in range(p_len)]
        etas = [_random_vector(rng, n) for _ in range(q_len)]
        phi_direct = opbasis.phi_element(xis, etas, n)
        phi_expanded = opbasis.phi_from_pi(xis, etas, n)
        pi_direct = opbasis.pi_element(xis, etas, n)
        pi_expanded = opbasis.pi_from_phi(xis, etas, n)
        worst = max(worst,
                    float(np.linalg.norm(phi_direct - phi_expanded)),
                    float(np.linalg.norm(pi_direct - pi_expanded)))
    return worst


def _check_phi_basis_rank(rng, n, draws):
    best_min = np.inf
    for _ in range(draws):
        xi_basis = [_random_vector(rng, n) for _ in range(n)]
        eta_basis = [_random_vector(rng, n) for _ in range(n)]
        _, b = opbasis.phi_family_matrix(xi_basis, eta_basis, n)
        b = b / np.linalg.norm(b, axis=0, keepdims=True)
        best_min = min(best_min, float(np.linalg.svd(b, compute_uv=False)[-1]))
    return best_min


def _check_phi_evolution(rng, n, draws):
    worst = 0.0
    for _ in range(draws):
        a = random_complex_matrix(rng, n)
        p_len = max(1, int(rng.integers(1, n + 1)))
        q_len = int(rng.integers(0, n + 1))
        xis = [_random_vector(rng, n) for _ in range(p_len)]
        etas = [_random_vector(rng, n) for _ in range(q_len)]
        worst = max(worst, opbasis.phi_evolution_residual(a, xis, etas, 0.9, n))
    return worst


def _check_majorana_commutator(rng, n, draws):
    worst = 0.0
    two_n = 2 * n
    for _ in range(draws):
        a = rng.standard_normal((two_n, two_n))
        b = rng.standard_normal((two_n, two_n))
        n_mat = rng.standard_normal((two_n, two_n))
        r_mat = rng.standard_normal((two_n, two_n))
        n_mat = (n_mat - n_mat.T) / 2
        r_mat = (r_mat - r_mat.T) / 2
        worst = max(worst, fock.majorana_commutator_residual(a, n_mat, b, r_mat, n))
    return worst


# -- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    value: float
    tolerance: float
    comparison: str  # "<=" (residual) or ">=" (rank-style)
    passed: bool


@dataclass(frozen=True)
class _Check:
    name: str
    identity: str
    tolerance: float
    comparison: str
    fn: Callable
    draw_cap: int


def _basic(which, identity):
    return _Check(
        name=which,
        identity=identity,
        tolerance=1e-11,
        comparison="<=",
        fn=lambda rng, n, draws, w=which: _basic_commutators(rng, n, draws, w),
        draw_cap=50,
    )


def _aux(which, identity):
    return _Check(
        name="aux_" + which,
        identity=identity,
        tolerance=1e-11,
        comparison="<=",
        fn=lambda rng, n, draws, w=which: _check_aux(rng, n, draws, w),
        draw_cap=50,
    )


_REGISTRY: tuple[_Check, ...] = (
    _basic("left_left", "[left(C), left(D)] = left([C,D])"),
    _basic("right_right", "[right(C), right(D)] = -right([C,D])"),
    _basic("left_loss", "[left(C), loss(D)] = -loss(DC)"),
    _basic("right_loss", "[right(C), loss(D)] = -loss(CD)"),
    _basic("left_gain", "[left(C), gain(D)] = gain(CD)"),
    _basic("right_gain", "[right(C), gain(D)] = gain(DC)"),
    _basic("left_right", "[left(C), right(D)] = 0"),
    _basic("loss_loss", "[loss(C), loss(D)] = 0"),
    _basic("gain_gain", "[gain(C), gain(D)] = 0"),
    _basic("loss_gain",
           "[loss(C), gain(D)] = tr(CD) - left(DC) - right(CD)"),
    _Check("generator_commutator",
           "[L(A,M), L(B,N)] = L([A,B], AN + NA' - BM - MB')",
           1e-10, "<=", _check_generator_commutator, 50),
    _aux("fl_fl", "[(left-loss)(C), (left-loss)(D)] = (left-loss)([C,D])"),
    _aux("bl_bl", "[(right-loss)(C), (right-loss)(D)] = -(right-loss)([C,D])"),
    _aux("fl_bl", "[(left-loss)(C), (right-loss)(D)] = 0"),
    _aux("fl_s", "[(left-loss)(C), S(D)] = S(CD) - tr(CD),"
                 " S = left+right-loss+gain"),
    _aux("bl_s", "[(right-loss)(C), S(D)] = S(DC) - tr(DC)"),
    _aux("s_s", "[S(C), S(D)] = 0"),
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
           1e-12, "<=", _check_phi_antisymmetry, 20),
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


def run_suite(n: int = 2, seed: int = 7, draws: int = 20,
              tol_overrides: dict | None = None) -> list[CheckResult]:
    """Run every identity check at the given mode count.

    Draw streams are seeded per check from (seed, check index), so results
    are deterministic for a given (n, seed, draws).  ``tol_overrides`` maps
    check names to replacement tolerances.  Raises ValidationError before
    any draw unless 1 <= n <= fock.MAX_DENSE_EVOLVE_MODES.
    """
    cap = fock.MAX_DENSE_EVOLVE_MODES
    if not 1 <= n <= cap:
        raise ValidationError(f"verify supports 1 <= n <= {cap}, got {n}")
    tol_overrides = dict(tol_overrides or {})
    unknown = set(tol_overrides) - set(check_names())
    if unknown:
        raise ValidationError(
            f"unknown check names in tolerance overrides: {sorted(unknown)}"
        )
    results = []
    for idx, check in enumerate(_REGISTRY):
        rng = np.random.default_rng([seed, idx])
        effective = max(1, min(draws, check.draw_cap))
        if n >= 4:
            effective = min(effective, 3)
        value = float(check.fn(rng, n, effective))
        tol = float(tol_overrides.get(check.name, check.tolerance))
        passed = value <= tol if check.comparison == "<=" else value >= tol
        results.append(CheckResult(
            name=check.name,
            identity=check.identity,
            value=value,
            tolerance=tol,
            comparison=check.comparison,
            passed=bool(passed),
        ))
    return results
