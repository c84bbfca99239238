import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec
from scipy.linalg import expm

from quadferm.errors import PhysicsError, ValidationError
from quadferm.affine import AffineGenerator, flow
from quadferm.gaussian import GaussianState, asymptotic_decomposition
from quadferm.linalg import (_relative, hermitize, is_hermitian,
                             lyapunov_solve, mat_exp)
from quadferm.skin import HatanoNelsonParams, build_bath
from quadferm.verify import (random_complex_matrix, random_gksl_params,
                             random_psd)

from conftest import kron_lyapunov, stable_matrix


class TestIsHermitian:
    def test_tiny_nilpotent_is_not_hermitian(self):
        # relative to its own norm, with no floor that would hide it
        assert not is_hermitian(1e-20 * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_and_tiny_hermitian_matrices_are_hermitian(self):
        assert is_hermitian(np.zeros((2, 2)))
        assert is_hermitian(1e-300 * np.array([[1.0, 1j], [-1j, 2.0]]))

    def test_huge_non_hermitian_matrix_is_not_hermitian(self):
        # squaring entries of 1e200 overflows a plain Frobenius norm
        assert not is_hermitian(np.array([[1e200, 1e200j], [0.0, 1.0]]))
        assert is_hermitian(1e200 * np.array([[1.0, 1j], [-1j, 2.0]]))

    def test_matrix_whose_norm_overflows_is_not_hermitian(self):
        # its Frobenius norm, about 2.4e308, exceeds the largest double
        assert not is_hermitian(np.array([[1.5e308, 1e308], [0.0, 1.5e308]]))
        assert is_hermitian(np.array([[1.5e308, 1e308], [1e308, 1.5e308]]))


class TestRelative:
    def test_zero_residual_reads_zero(self):
        assert _relative(np.zeros((2, 2)), np.eye(2)) == 0.0
        assert _relative(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_nonzero_residual_against_zero_reads_inf(self):
        assert _relative(1e-300 * np.eye(2), np.zeros((2, 2))) == np.inf

    def test_nan_stays_nan(self):
        r = np.array([[np.nan, 0.0], [0.0, 0.0]])
        assert np.isnan(_relative(r, np.eye(2)))
        assert np.isnan(_relative(np.zeros((2, 2)), r))

    @pytest.mark.parametrize("where", ["r", "x"])
    def test_an_inf_entry_is_refused(self, where):
        big = np.array([[np.inf, 0.0], [0.0, 1.0]])
        r, x = (big, np.eye(2)) if where == "r" else (np.eye(2), big)
        assert not _relative(r, x) <= 1.0

    def test_matches_the_plain_ratio_bit_for_bit(self, rng):
        r, x = random_complex_matrix(rng, 4), random_complex_matrix(rng, 4)
        assert _relative(r, x) == np.linalg.norm(r) / np.linalg.norm(x)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_ratio_survives_where_plain_norms_do_not(self, scale):
        # squared entries underflow at 1e-300 and overflow at 1e300
        r = scale * np.array([[0.0, 3.0], [4.0, 0.0]])
        assert _relative(r, 2 * r) == 0.5


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_quarter_turn_rotation(self):
        gen = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]])
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.linalg.norm(mat_exp(gen) - expected) < 1e-14

    def test_taylor_series_oracle(self, rng):
        for _ in range(5):
            a = random_complex_matrix(rng, 4)
            a = a / max(1.0, np.linalg.norm(a, 2))
            term = np.eye(4, dtype=complex)
            series = np.eye(4, dtype=complex)
            for k in range(1, 41):
                term = term @ a / k
                series = series + term
            assert np.linalg.norm(mat_exp(a) - series) < 1e-12

    def test_commuting_product_rule(self, rng):
        for _ in range(10):
            a = random_complex_matrix(rng, 3)
            coeffs = rng.standard_normal(3)
            b = coeffs[0] * np.eye(3) + coeffs[1] * a + coeffs[2] * a @ a
            lhs = mat_exp(a + b)
            rhs = mat_exp(a) @ mat_exp(b)
            assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(lhs)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            mat_exp(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            mat_exp(bad)


class TestVanLoanIntegral:
    def test_zero_drift_is_linear_in_time(self, rng):
        m = random_complex_matrix(rng, 3)
        out = flow(AffineGenerator(np.zeros((3, 3)), m), 3.0).m
        assert np.linalg.norm(out - 3.0 * m) < 1e-12

    def test_scalar_closed_form(self):
        gamma, mu, t = 0.8, 1.7, 2.3
        out = flow(AffineGenerator([[-gamma]], [[mu]]), t).m
        expected = mu * (1 - np.exp(-2 * gamma * t)) / (2 * gamma)
        assert abs(out[0, 0] - expected) < 1e-13

    def test_adaptive_quadrature_oracle(self, rng):
        a = stable_matrix(rng, 3)
        m = random_psd(rng, 3)

        def integrand(s):
            e = mat_exp(s * a)
            return e @ m @ e.conj().T

        oracle, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        out = flow(AffineGenerator(a, m), 1.0).m
        assert np.linalg.norm(out - oracle) < 1e-9

    def test_cocycle_identity(self, rng):
        for _ in range(5):
            a = random_complex_matrix(rng, 3)
            m = random_complex_matrix(rng, 3)
            t, s = 0.6, 1.1
            whole = flow(AffineGenerator(a, m), t + s).m
            prop = mat_exp(t * a)
            split = flow(AffineGenerator(a, m), t).m \
                + prop @ flow(AffineGenerator(a, m), s).m @ prop.conj().T
            assert np.linalg.norm(whole - split) < 1e-10

    def test_hermitian_noise_gives_hermitian_result(self, rng):
        a = random_complex_matrix(rng, 3)
        m = hermitize(random_complex_matrix(rng, 3))
        out = flow(AffineGenerator(a, m), 1.4).m
        assert np.linalg.norm(out - out.conj().T) == 0.0

    def test_doubling_matches_the_chunk_loop(self, rng):
        # Reference: the chunk loop doubling replaced, same step and block
        # exponential, cost linear in the chunk count.
        def chunk_loop(a, m, t):
            n = a.shape[0]
            abscissa = float(np.max(np.abs(np.linalg.eigvals(a).real)))
            chunks = max(1, int(np.ceil(t * abscissa / 8.0)))
            block = np.zeros((2 * n, 2 * n), dtype=complex)
            block[:n, :n] = a
            block[:n, n:] = m
            block[n:, n:] = -a.conj().T
            w = expm((t / chunks) * block)
            prop_step = w[:n, :n]
            g_step = w[:n, n:] @ prop_step.conj().T
            out = np.zeros((n, n), dtype=complex)
            prop = np.eye(n, dtype=complex)
            for _ in range(chunks):
                out = out + prop @ g_step @ prop.conj().T
                prop = prop_step @ prop
            return hermitize(out)

        for n in (4, 32):
            p = random_gksl_params(rng, n, min_damping=0.5)
            for t in np.logspace(-8, 4, 13):
                ref = chunk_loop(p.a, p.m, t)
                out = flow(AffineGenerator(p.a, p.m), t).m
                assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            flow(AffineGenerator(np.zeros((2, 2)), np.eye(2)), -0.1)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValidationError):
            flow(AffineGenerator(np.zeros((2, 2)), np.eye(3)), 1.0)


class TestLyapunovKroneckerOracle:
    def test_random_stable_drifts(self, rng):
        for k in range(30):
            n = 1 + k % 12
            a = stable_matrix(rng, n, margin=0.2)
            m = random_psd(rng, n) if k % 2 else random_complex_matrix(rng, n)
            ref = kron_lyapunov(a, m)
            out = lyapunov_solve(a, m)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_graded_skin_generator(self):
        # occupations span kappa^(2-2n) = 4^11 at n = 12
        p = HatanoNelsonParams(n=12, omega=1.0, lam=0.3, gamma=0.5, a=2.5)
        params = build_bath(p)
        ref = kron_lyapunov(params.a, params.m)
        out = lyapunov_solve(params.a, params.m)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("leak", [1e-4, 1e-8])
    def test_noise_localized_on_one_mode(self, rng, leak):
        # diag M spans leak^2 but the solution does not: the diag(M) frame
        # would inflate the drift by ~1/leak and fail the residual check
        for _ in range(5):
            a = random_gksl_params(rng, 6, min_damping=0.3).a
            v = random_complex_matrix(rng, 6)[0]
            v[1:] *= leak
            m = np.outer(v, v.conj())
            ref = kron_lyapunov(a, m)
            out = lyapunov_solve(a, m)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_empty_equation(self):
        empty = np.zeros((0, 0), dtype=complex)
        assert kron_lyapunov(empty, empty).shape == (0, 0)
        assert lyapunov_solve(empty, empty).shape == (0, 0)


class TestLyapunovSolve:
    def test_half_identity_drift(self, rng):
        m = random_complex_matrix(rng, 4)
        t_mat = lyapunov_solve(-np.eye(4) / 2, m)
        assert np.linalg.norm(t_mat - m) < 1e-12

    def test_diagonal_closed_form(self, rng):
        lam = np.array([-0.5 + 0.3j, -1.2 - 0.7j, -0.9 + 1.1j])
        a = np.diag(lam)
        m = random_complex_matrix(rng, 3)
        t_mat = lyapunov_solve(a, m)
        expected = -m / (lam[:, None] + lam[None, :].conj())
        assert np.linalg.norm(t_mat - expected) < 1e-12

    def test_matches_infinite_time_integral(self, rng):
        a = stable_matrix(rng, 3, margin=0.5)
        m = random_psd(rng, 3)
        t_large = 40.0 / abs(np.max(np.linalg.eigvals(a).real))
        t_mat = lyapunov_solve(a, m)
        out = flow(AffineGenerator(a, m), t_large).m
        assert np.linalg.norm(t_mat - out) < 1e-8

    def test_residuals_over_random_stable_instances(self, rng):
        for k in range(100):
            n = 2 + k % 7
            a = stable_matrix(rng, n, margin=0.2)
            m = random_psd(rng, n)
            t_mat = lyapunov_solve(a, m)
            res = np.linalg.norm(a @ t_mat + t_mat @ a.conj().T + m)
            assert res <= 1e-10 * (1 + np.linalg.norm(m))

    def test_near_resonant_pair_is_named(self):
        a = np.diag([1j, -1.0])
        with pytest.raises(PhysicsError, match="lambda_0"):
            lyapunov_solve(a, np.eye(2))

    def test_unstable_drift_without_resonant_pair_is_named(self):
        # no lambda_i + conj(lambda_j) vanishes, but the integral diverges
        with pytest.raises(PhysicsError, match="lambda_0"):
            lyapunov_solve(np.diag([0.5, -1.0]), np.eye(2))

    @pytest.mark.parametrize("m", [
        # M_11 / d_1 / d_1 = 1 keeps the noise frame where d_1 d_1
        # underflows; M_01 / d_0 / d_1 overflows, so M >= 0 fails and the
        # unit frame solves
        [[1.0, 0.0], [0.0, 1e-310]],
        [[1e-300, 1e10], [1e10, 1e-300]]],
        ids=["subnormal-in-noise-frame", "off-diagonal"])
    def test_overflowing_noise_frame_falls_back_to_the_unit_frame(self, m):
        m = np.array(m, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lyapunov_solve(-np.eye(2), m)
        assert np.linalg.norm(out - m / 2) <= 1e-15 * np.linalg.norm(m / 2)

    @pytest.mark.parametrize("solve", ["lyapunov_solve",
                                       "asymptotic_decomposition"])
    def test_subnormal_noise_keeps_its_frame(self, solve):
        # an 8-site skin bath with its noise scaled by c until the smallest
        # M_jj is subnormal: d_i d_k underflows, but M_ik / d_i / d_k does
        # not, so the noise frame grades the solution c X, X = x V(kappa)^-2
        p = HatanoNelsonParams(n=8, omega=1.0, lam=0.45, gamma=0.5, a=2.1)
        params = build_bath(p)
        c = 1e-310 / np.abs(params.m.diagonal()).min()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lyapunov_solve(params.a, c * params.m)
            if solve == "asymptotic_decomposition":
                dec = asymptotic_decomposition(
                    AffineGenerator(params.a, c * params.m),
                    GaussianState.vacuum(8))
                assert np.array_equal(dec.m_inf, out)
        target = c * p.x * np.diag(p.kappa ** (-2.0 * np.arange(8)))
        s = np.sqrt(target.diagonal().real)
        assert np.max(np.abs(out - target) / np.outer(s, s)) <= 1e-13

    def test_solution_scales_with_the_noise(self):
        # (A, 2^k M) solves to 2^k T entry by entry down to k = -1000, where
        # the smallest M_jj is subnormal and d_i d_k underflows
        params = build_bath(HatanoNelsonParams(n=30, omega=1.0, lam=0.3,
                                               gamma=0.5, a=2.5))
        ref = lyapunov_solve(params.a, params.m)
        s = np.sqrt(ref.diagonal().real)
        for k in range(-1000, 101, 100):
            out = lyapunov_solve(params.a, 2.0 ** k * params.m)
            # scaling by 2^-k is exact, so the error is read unrounded
            assert np.all(np.abs(out * 2.0 ** -k - ref)
                          <= 1e-13 * np.outer(s, s)), k

    def test_drift_whose_noise_frame_overflows_is_named(self):
        # D⁻¹ A D overflows at A_00 / d_0; the unit frame then sees the -1
        # mode in the band of the -1e308 one
        with pytest.raises(PhysicsError, match="^no unique steady state"):
            lyapunov_solve(np.diag([-1e308, -1.0]), np.diag([1e-300, 1.0]))

    @pytest.mark.parametrize("solve", ["lyapunov_solve",
                                       "asymptotic_decomposition"])
    @pytest.mark.parametrize("k", [-60, -40, -20, 0, 20, 40])
    def test_planted_solver_error_is_refused_at_every_scale(
            self, monkeypatch, solve, k):
        # trsyl's result off by 1e-6 relative: the entrywise backward error
        # reads that alike at every scale 2^k of (A, M), where a residual
        # floored at 1e-10 (1 + ||M||) hides it once ||M|| is small
        params = random_gksl_params(np.random.default_rng(3), 4,
                                    min_damping=0.2)
        a, m = 2.0 ** k * params.a, 2.0 ** k * params.m

        def run():
            if solve == "lyapunov_solve":
                return lyapunov_solve(a, m)
            return asymptotic_decomposition(AffineGenerator(a, m),
                                            GaussianState.vacuum(4)).m_inf

        run()  # the unplanted solve is accepted
        true_trsyl = scipy.linalg.lapack.ztrsyl

        def planted(*args, **kwargs):
            y, y_scale, info = true_trsyl(*args, **kwargs)
            return y * (1 + 1e-6), y_scale, info

        monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", planted)
        with pytest.raises(PhysicsError, match="^Lyapunov residual "):
            run()

    def test_slow_drift_solves_like_the_unscaled_one(self, rng):
        # the stability margin is relative to max|lambda|, so scaling the
        # whole equation leaves it, and the solution, unchanged
        params = random_gksl_params(rng, 4, min_damping=0.2)
        ref = lyapunov_solve(params.a, params.m)
        out = lyapunov_solve(1e-13 * params.a, 1e-13 * params.m)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def _decompose(a):
    """The long-time decomposition of the noise-free pair (a, O)."""
    a = np.asarray(a, dtype=complex)
    return asymptotic_decomposition(AffineGenerator(a, 0 * a),
                                    GaussianState.vacuum(a.shape[0]))


class TestAsymptoticDecomposition:
    """P0, the persistent drift ``a0 = A P0`` and the damped drift
    ``A - a0`` of a dissipative drift, read off one ordered Schur form."""

    def test_fully_conservative_drift(self, rng):
        h = hermitize(random_complex_matrix(rng, 3))
        a = 1j * h
        dec = _decompose(a)
        a_minus = a - dec.a0_flow.a
        assert np.linalg.norm(dec.p0 - np.eye(3)) < 1e-10
        assert np.linalg.norm(dec.a0_flow.a - a) < 1e-10
        assert np.linalg.norm(a_minus) < 1e-10

    def test_fully_damped_drift(self, rng):
        d = random_psd(rng, 3) + 0.4 * np.eye(3)
        a = -1j * hermitize(random_complex_matrix(rng, 3)) - d
        dec = _decompose(a)
        assert np.linalg.norm(dec.p0) == 0.0
        assert np.linalg.norm(dec.a0_flow.a) == 0.0
        assert np.array_equal(a - dec.a0_flow.a, a)
        assert dec.frequencies.size == 0

    def test_block_diagonal_example(self):
        a = np.diag([1j, -1.0])
        dec = _decompose(a)
        a_minus = a - dec.a0_flow.a
        assert np.linalg.norm(dec.p0 - np.diag([1.0, 0.0])) < 1e-12
        assert np.linalg.norm(dec.a0_flow.a - np.diag([1j, 0.0])) < 1e-12
        assert np.linalg.norm(a_minus - np.diag([0.0, -1.0])) < 1e-12
        assert np.allclose(dec.frequencies, [1.0])

    def test_projector_invariants(self, rng):
        q, _ = np.linalg.qr(random_complex_matrix(rng, 4))
        a = q @ np.diag([0.5j, -1.3j, -0.7 + 0.1j, -0.2 - 0.4j]) @ q.conj().T
        dec = _decompose(a)
        p0, a0 = dec.p0, dec.a0_flow.a
        assert np.linalg.norm(p0 @ p0 - p0) < 1e-12
        assert np.linalg.norm(p0 - p0.conj().T) < 1e-13
        assert np.linalg.norm(a @ p0 - p0 @ a) < 1e-12
        assert np.linalg.norm(a0 @ (a - a0) - (a - a0) @ a0) < 1e-12

    def test_damped_flow_converges_to_projector(self, rng):
        q, _ = np.linalg.qr(random_complex_matrix(rng, 3))
        a = q @ np.diag([0.8j, -0.5, -1.1 + 0.3j]) @ q.conj().T
        dec = _decompose(a)
        a_minus = a - dec.a0_flow.a
        damped = np.linalg.eigvals(a_minus)
        rate = abs(max(z.real for z in damped if z.real < -1e-6))
        t = 50.0 / rate
        assert np.linalg.norm(mat_exp(t * a_minus) - dec.p0) <= 1e-6

    def test_axis_eigenvector_orthogonality(self, rng):
        # Two distinct imaginary-axis eigenvalues plus a non-normal damped
        # block, rotated by a random unitary: dissipativity forces the axis
        # eigenspaces to stay orthogonal to everything else.
        core = np.zeros((4, 4), dtype=complex)
        core[0, 0] = 0.6j
        core[1, 1] = -1.4j
        core[2:, 2:] = np.array([[-0.8 + 0.2j, 0.5], [0.0, -1.0 - 0.3j]])
        q, _ = np.linalg.qr(random_complex_matrix(rng, 4))
        a = q @ core @ q.conj().T
        eigvals, eigvecs = np.linalg.eig(a)
        axis = [eigvecs[:, i] / np.linalg.norm(eigvecs[:, i])
                for i in range(4) if abs(eigvals[i].real) < 1e-9]
        others = [eigvecs[:, i] / np.linalg.norm(eigvecs[:, i])
                  for i in range(4) if abs(eigvals[i].real) >= 1e-9]
        assert len(axis) == 2
        assert abs(np.vdot(axis[0], axis[1])) <= 1e-8
        # the decomposition succeeds and its projector annihilates nothing
        # axial
        dec = _decompose(a)
        for v in axis:
            assert np.linalg.norm(dec.p0 @ v - v) < 1e-9

    def test_rejects_non_dissipative_drift(self):
        # an undamped mode of an inadmissible pair is named
        with pytest.raises(PhysicsError, match="lambda_0"):
            _decompose(np.diag([1.0, -1.0]))

    def test_empty_drift_gives_empty_split(self):
        dec = _decompose(np.zeros((0, 0)))
        for part in (dec.p0, dec.a0_flow.a, dec.m_inf):
            assert part.shape == (0, 0)
        assert dec.frequencies.size == 0

    def test_p0_complements_the_damped_invariant_subspace(self, rng):
        # the Schur form orders the damped modes first; P0 projects onto
        # the orthogonal complement of the subspace they span
        q, _ = np.linalg.qr(random_complex_matrix(rng, 4))
        a = q @ np.diag([0.5j, -1.3j, -0.7 + 0.1j, -0.2 - 0.4j]) @ q.conj().T
        dec = _decompose(a)
        assert abs(np.trace(dec.p0) - 2.0) < 1e-13
        damped = np.eye(4) - dec.p0
        assert np.linalg.norm(a @ damped - damped @ a @ damped) < 1e-12
        assert np.allclose(dec.frequencies, [-1.3, 0.5], rtol=0, atol=1e-13)

    def test_failed_schur_reordering_is_an_error(self, monkeypatch):
        trsen = scipy.linalg.lapack.ztrsen

        def failing(*args, **kwargs):
            return (*trsen(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(scipy.linalg.lapack, "ztrsen", failing)
        with pytest.raises(PhysicsError, match="trsen"):
            _decompose(np.diag([1j, -1.0]))
        with pytest.raises(PhysicsError, match="trsen"):
            lyapunov_solve(-np.eye(2), np.eye(2))


def test_mat_exp_commuting_invariant_at_spec_tolerance(rng):
    # polynomial pairs commute exactly; the product rule must hold to 1e-10
    worst = 0.0
    for _ in range(20):
        a = random_complex_matrix(rng, 4)
        b = 0.3 * np.eye(4) - 0.8 * a + 0.1 * a @ a @ a
        worst = max(worst, np.linalg.norm(
            mat_exp(a + b) - mat_exp(a) @ mat_exp(b)
        ) / max(1.0, np.linalg.norm(mat_exp(a + b))))
    assert worst < 1e-10


def test_lyapunov_equals_van_loan_extrapolation_spec_example(rng):
    a = stable_matrix(rng, 3, margin=0.6)
    m = random_psd(rng, 3)
    t_mat = lyapunov_solve(a, m)
    rate = abs(np.max(np.linalg.eigvals(a).real))
    out = flow(AffineGenerator(a, m), 50.0 / rate).m
    diff = np.linalg.norm(t_mat - out)
    assert diff < 1e-8
