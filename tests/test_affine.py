import numpy as np
import pytest

from quadferm.affine import (AffineElement, AffineGenerator, act, bracket,
                             compose, flow, identity, inverse)
from quadferm.errors import ValidationError
from quadferm.gaussian import GaussianState, evolve_grid
from quadferm.linalg import (_real_abscissa, _van_loan_pair, hermitize,
                             lyapunov_solve, mat_exp)
from quadferm.verify import (random_complex_matrix, random_gksl_params,
                             random_psd)

from conftest import stable_matrix


def random_element(rng, n):
    u = random_complex_matrix(rng, n) + 2 * np.eye(n)
    return AffineElement(u, random_complex_matrix(rng, n))


def random_generator(rng, n):
    return AffineGenerator(random_complex_matrix(rng, n),
                           random_complex_matrix(rng, n))


class TestAdmissibility:
    def test_small_negative_noise_is_not_admissible(self):
        # M < 0 at every scale: the bound is relative to ||A|| + ||M||
        assert not AffineGenerator([[-1e-12]], [[-1e-12]]).gksl
        assert not AffineGenerator([[-1.0]], [[-1.0]]).gksl


class TestAction:
    def test_identity_element(self, rng):
        x = random_complex_matrix(rng, 3)
        assert np.array_equal(act(identity(3), x), x)

    def test_pure_translation(self, rng):
        m = random_complex_matrix(rng, 2)
        g = AffineElement(np.eye(2), m)
        assert np.array_equal(act(g, np.zeros((2, 2))), m)

    def test_scalar_dilation(self):
        g = AffineElement(2 * np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(act(g, np.eye(2)), 4 * np.eye(2))

    def test_hermiticity_preservation(self, rng):
        for _ in range(10):
            u = random_complex_matrix(rng, 3) + 2 * np.eye(3)
            g = AffineElement(u, hermitize(random_complex_matrix(rng, 3)))
            x = hermitize(random_complex_matrix(rng, 3))
            out = act(g, x)
            assert np.linalg.norm(out - out.conj().T) < 1e-13

    def test_size_mismatch(self, rng):
        with pytest.raises(ValidationError):
            act(identity(2), np.zeros((3, 3)))


class TestGroupLaw:
    def test_left_identity(self, rng):
        h = random_element(rng, 3)
        gh = compose(identity(3), h)
        assert np.linalg.norm(gh.u - h.u) == 0.0
        assert np.linalg.norm(gh.m - h.m) == 0.0

    def test_inverse_law(self, rng):
        g = random_element(rng, 3)
        gg = compose(g, inverse(g))
        assert np.linalg.norm(gg.u - np.eye(3)) < 1e-13
        assert np.linalg.norm(gg.m) < 1e-13

    def test_action_homomorphism(self, rng):
        for _ in range(10):
            g, h = random_element(rng, 3), random_element(rng, 3)
            x = random_complex_matrix(rng, 3)
            lhs = act(compose(g, h), x)
            rhs = act(g, act(h, x))
            assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1, np.linalg.norm(lhs))

    def test_associativity(self, rng):
        for _ in range(10):
            g, h, k = (random_element(rng, 3) for _ in range(3))
            left = compose(compose(g, h), k)
            right = compose(g, compose(h, k))
            assert np.linalg.norm(left.u - right.u) < 1e-12 * max(1, np.linalg.norm(left.u))
            assert np.linalg.norm(left.m - right.m) < 1e-12 * max(1, np.linalg.norm(left.m))

    def test_singular_linear_part_rejected(self):
        with pytest.raises(ValidationError):
            inverse(AffineElement(np.zeros((2, 2)), np.zeros((2, 2))))


class TestBracket:
    def test_self_bracket_vanishes(self, rng):
        p = random_generator(rng, 3)
        out = bracket(p, p)
        assert np.linalg.norm(out.a) == 0.0
        assert np.linalg.norm(out.m) < 1e-13

    def test_translations_commute(self, rng):
        zero = np.zeros((3, 3))
        p = AffineGenerator(zero, random_complex_matrix(rng, 3))
        q = AffineGenerator(zero, random_complex_matrix(rng, 3))
        out = bracket(p, q)
        assert np.linalg.norm(out.a) == 0.0
        assert np.linalg.norm(out.m) == 0.0

    def test_jacobi_identity(self, rng):
        for _ in range(10):
            p, q, r = (random_generator(rng, 3) for _ in range(3))
            cyc = [bracket(p, bracket(q, r)),
                   bracket(q, bracket(r, p)),
                   bracket(r, bracket(p, q))]
            total_a = sum(c.a for c in cyc)
            total_m = sum(c.m for c in cyc)
            scale = max(1.0, *(np.linalg.norm(c.m) for c in cyc))
            assert np.linalg.norm(total_a) < 1e-12 * scale
            assert np.linalg.norm(total_m) < 1e-12 * scale

    def test_matches_group_commutator_of_flows(self, rng):
        # [flow(p,eps), flow(q,eps)] = exp(eps^2 bracket(p,q) + O(eps^3));
        # Richardson in eps removes the leading O(eps) of the eps^2-scaled
        # estimate, leaving a relative error well under 1e-4 at eps = 1e-3.
        p, q = random_generator(rng, 3), random_generator(rng, 3)
        target = bracket(p, q)

        def estimate(eps):
            k = compose(compose(flow(p, eps), flow(q, eps)),
                        compose(inverse(flow(p, eps)), inverse(flow(q, eps))))
            return (k.u - np.eye(3)) / eps ** 2, k.m / eps ** 2

        eps = 1e-3
        a1, m1 = estimate(eps)
        a2, m2 = estimate(eps / 2)
        a_r, m_r = 2 * a2 - a1, 2 * m2 - m1
        assert np.linalg.norm(a_r - target.a) <= 1e-4 * np.linalg.norm(target.a)
        assert np.linalg.norm(m_r - target.m) <= 1e-4 * np.linalg.norm(target.m)


class TestFlow:
    def test_time_zero_is_identity(self, rng):
        p = random_generator(rng, 3)
        g = flow(p, 0.0)
        assert np.linalg.norm(g.u - np.eye(3)) == 0.0
        assert np.linalg.norm(g.m) == 0.0

    def test_zero_drift_is_linear_translation(self, rng):
        m = random_complex_matrix(rng, 3)
        p = AffineGenerator(np.zeros((3, 3)), m)
        for t in (1.0, 2.5):
            g = flow(p, t)
            assert np.linalg.norm(g.u - np.eye(3)) < 1e-13
            assert np.linalg.norm(g.m - t * m) < 1e-12

    def test_semigroup_law(self, rng):
        for _ in range(5):
            p = random_generator(rng, 3)
            for t, s in ((0.3, 0.7), (0.7, 0.3)):
                lhs = compose(flow(p, t), flow(p, s))
                rhs = flow(p, t + s)
                assert np.linalg.norm(lhs.u - rhs.u) < 1e-10
                assert np.linalg.norm(lhs.m - rhs.m) < 1e-10

    def test_noise_then_drift_factorization(self, rng):
        # the flow is the translation by the finite-time noise integral
        # composed with the pure drift flow; its linear part comes from the
        # Van Loan block exponential, so it matches mat_exp to roundoff
        p = random_generator(rng, 3)
        t = 1.3
        g = flow(p, t)
        shift = AffineElement(np.eye(3), flow(p, t).m)
        drift = AffineElement(mat_exp(t * p.a), np.zeros((3, 3)))
        h = compose(shift, drift)
        assert np.linalg.norm(g.u - h.u) <= 1e-13 * np.linalg.norm(h.u)
        assert np.array_equal(g.m, h.m)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValidationError):
            flow(random_generator(rng, 2), -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, rng, t):
        with pytest.raises(ValidationError, match="finite"):
            flow(random_generator(rng, 2), t)

    @pytest.mark.parametrize("n", [4, 32])
    def test_linear_part_matches_mat_exp(self, rng, n):
        # the linear part comes from the Van Loan block exponential and its
        # doubling, not from a separate mat_exp call
        p = random_gksl_params(rng, n, min_damping=0.5)
        for t in np.logspace(-8, 2, 11):
            u, expected = flow(p, t).u, mat_exp(t * p.a)
            assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(flow(p, 1e4).u, mat_exp(1e4 * p.a))

    def test_one_spectrum_per_generator(self, rng, monkeypatch):
        # the log grid of a long-time evolve job: 13 flows, each from t = 0
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a) or eigvals(a))
        p = random_gksl_params(rng, 6, min_damping=0.5)
        times = [0.0] + [10.0 ** k for k in range(-8, 5)]
        evolve_grid(p, GaussianState.vacuum(6), times)
        assert len(calls) == 1

    def test_cached_spectrum_changes_no_bit(self, rng):
        # each flow of one generator against a pair whose abscissa is
        # computed afresh
        p = random_gksl_params(rng, 8, min_damping=0.5)
        for t in (0.0, 1e-8, 3.7, 1e4):
            u, m = _van_loan_pair(p.a, p.m, t, _real_abscissa(p.a))
            g = flow(p, t)
            assert np.array_equal(g.u, u) and np.array_equal(g.m, m)

    def test_caller_arrays_do_not_reach_the_caches(self, rng):
        # the generator copies its operands, so a caller that rescales its
        # own drift after a flow leaves the cached spectrum true
        q = random_gksl_params(rng, 4, min_damping=0.5)
        a, m = q.a.copy(), q.m.copy()
        p = AffineGenerator(a, m)
        before = flow(p, 50.0)
        a *= 10.0
        after = flow(p, 50.0)
        assert np.array_equal(before.u, after.u)
        assert np.array_equal(before.m, after.m)
        with pytest.raises(ValueError):
            p.a[0, 0] = 0.0

    def test_long_horizon_of_damped_generator(self, rng):
        # e^{tA} of a damped drift is numerically singular at t = 100 and
        # exactly zero at t = 1e4: a valid flow element with no inverse
        p = random_gksl_params(rng, 4, min_damping=0.5)
        for t in (100.0, 1e4):
            g = flow(p, t)
            assert np.all(np.isfinite(g.u)) and np.all(np.isfinite(g.m))
        assert np.linalg.norm(flow(p, 1e4).u) == 0.0
        with pytest.raises(ValidationError):
            inverse(flow(p, 1e4))


def conjugation_residual(a, m, t):
    """Larger part norm of ``flow(p, t) - (I, T) ∘ (e^{tA}, O) ∘ (I, T)⁻¹``
    for p = (A, M) and T solving ``A T + T A† = -M``."""
    p = AffineGenerator(a, m)
    shift = AffineElement(np.eye(p.n), lyapunov_solve(p.a, p.m))
    linear = flow(AffineGenerator(p.a, np.zeros((p.n, p.n))), t)
    three = compose(compose(shift, linear), inverse(shift))
    direct = flow(p, t)
    return max(np.linalg.norm(direct.u - three.u),
               np.linalg.norm(direct.m - three.m))


class TestConjugationIdentity:
    def test_zero_noise_is_trivial(self, rng):
        a = stable_matrix(rng, 3)
        assert conjugation_residual(a, np.zeros((3, 3)), 1.7) < 1e-12

    def test_scalar_closed_form(self):
        # drift -1, noise 2: the Lyapunov solution is 1 and both sides of
        # the identity equal (e^{-t}, 1 - e^{-2t})
        t = 0.9
        assert conjugation_residual([[-1.0]], [[2.0]], t) < 1e-13
        g = flow(AffineGenerator(np.array([[-1.0]]), np.array([[2.0]])), t)
        assert abs(g.u[0, 0] - np.exp(-t)) < 1e-14
        assert abs(g.m[0, 0] - (1 - np.exp(-2 * t))) < 1e-14

    def test_random_stable_instances(self, rng):
        for _ in range(5):
            a = stable_matrix(rng, 3)
            m = random_psd(rng, 3)
            assert conjugation_residual(a, m, 1.1) <= 1e-10
