import numpy as np
import pytest
import scipy.linalg

import quadferm.gaussian
import quadferm.skin
from quadferm.errors import PhysicsError, ValidationError
from quadferm.gaussian import steady_state
from quadferm.linalg import hermitize
from quadferm.skin import (HatanoNelsonParams, build_bath, build_matrices,
                           featureless_choice, localization_slope,
                           steady_profile)


def default_params(n=6):
    return HatanoNelsonParams(n=n, omega=1.0, lam=0.3, gamma=0.5, a=2.5)


class TestParams:
    def test_kappa_closed_form(self):
        p = HatanoNelsonParams(n=3, omega=1.0, lam=0.3, gamma=0.5, a=2.5)
        assert abs(p.kappa - 0.5) < 1e-15

    def test_default_amplitude_is_quarter_of_bound(self):
        p = default_params(6)
        assert abs(p.x - p.kappa ** 10 / 4) < 1e-18

    def test_symmetric_hopping_rejected(self):
        with pytest.raises(ValidationError, match="gamma"):
            HatanoNelsonParams(n=2, omega=1.0, lam=0.5, gamma=0.5, a=2.5)

    def test_weak_loss_rejected(self):
        with pytest.raises(ValidationError, match="a must exceed 2"):
            HatanoNelsonParams(n=2, omega=1.0, lam=0.3, gamma=0.5, a=2.0)

    def test_amplitude_bound_enforced(self):
        kappa = 0.5
        with pytest.raises(ValidationError, match="amplitude"):
            HatanoNelsonParams(n=3, omega=1.0, lam=0.3, gamma=0.5, a=2.5,
                               x=kappa ** 4 / 2)

    def test_underflowing_amplitude_names_longest_chain(self):
        # kappa = 0.5: the default x = 2^(-2n) is the smallest positive
        # double at n = 537 and underflows to 0 from n = 538 on
        for n in (538, 540):
            with pytest.raises(ValidationError,
                               match=r"underflows.*longest usable chain.*n=537"):
                HatanoNelsonParams(n=n, omega=1.0, lam=0.3, gamma=0.5, a=2.5)
        assert HatanoNelsonParams(n=537, omega=1.0, lam=0.3, gamma=0.5,
                                  a=2.5).x > 0

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValidationError, match="omega"):
            HatanoNelsonParams(n=2, omega=0.0, lam=0.3, gamma=0.5, a=2.5)


class TestBuildMatrices:
    def test_scaling_matrix(self):
        mats = build_matrices(HatanoNelsonParams(n=3, omega=1.0, lam=0.3,
                                                 gamma=0.5, a=2.5))
        assert np.linalg.norm(mats.v_kappa - np.diag([1.0, 0.5, 0.25])) < 1e-15

    def test_hopping_structure(self):
        p = default_params(4)
        mats = build_matrices(p)
        expected = np.zeros((4, 4), dtype=complex)
        for j in range(3):
            expected[j + 1, j] = p.gamma + p.lam
            expected[j, j + 1] = -(p.gamma - p.lam)
        expected += (p.omega - 1j * p.a * p.gamma) * np.eye(4)
        assert np.linalg.norm(mats.h_nh - expected) == 0.0

    def test_similarity_residual(self):
        p = default_params(6)
        mats = build_matrices(p)
        v_inv = np.diag(p.kappa ** -np.arange(6))
        target = (p.omega - 1j * p.a * p.gamma) * np.eye(6) \
            - 1j * np.sqrt(p.gamma ** 2 - p.lam ** 2) * mats.g
        res = np.linalg.norm(mats.v_kappa @ mats.h_nh @ v_inv - target)
        assert res <= 1e-10

    def test_spectrum_sits_below_loss_line(self):
        p = default_params(6)
        mats = build_matrices(p)
        eigs = np.linalg.eigvals(mats.h_nh)
        width = 2 * np.sqrt(p.gamma ** 2 - p.lam ** 2)
        assert np.all(eigs.imag < 0)
        assert np.all(np.abs(eigs.imag + p.a * p.gamma) <= width + 1e-10)


class TestBuildBath:
    def test_target_state_is_geometric_diagonal(self):
        p = default_params(4)
        x_target = p.x * p.kappa ** (2 - 2 * np.arange(1, 5, dtype=float))
        bath = build_bath(p)
        res = bath.a @ np.diag(x_target) + np.diag(x_target) @ bath.a.conj().T \
            + bath.m
        assert np.linalg.norm(res) <= 1e-9

    def test_admissibility_sandwich(self):
        p = default_params(6)
        bath = build_bath(p)
        assert np.min(np.linalg.eigvalsh((bath.m + bath.m.conj().T) / 2)) >= -1e-9
        gap = -(bath.a + bath.a.conj().T) - bath.m
        assert np.min(np.linalg.eigvalsh((gap + gap.conj().T) / 2)) >= -1e-9

    def test_fixed_point_with_spec_amplitude(self):
        kappa = 0.5
        p = HatanoNelsonParams(n=4, omega=1.0, lam=0.3, gamma=0.5, a=2.5,
                               x=kappa ** 6 / 4)
        bath = build_bath(p)
        x_mat = np.diag(p.x * kappa ** (2 - 2 * np.arange(1, 5, dtype=float)))
        res = np.linalg.norm(bath.a @ x_mat + x_mat @ bath.a.conj().T + bath.m)
        assert res <= 1e-9

    def test_relative_error_at_the_small_end_rejected(self, monkeypatch):
        # E off by 1e-6 relative at site 1, where the occupation is
        # smallest: the entrywise check sees it, a normwise one does not
        p = default_params(12)
        gains = []

        def perturbed(mat):
            e = hermitize(mat)
            e[0, 0] *= 1 + 1e-6
            gains.append(e)
            return e

        monkeypatch.setattr(quadferm.skin, "hermitize", perturbed)
        with pytest.raises(PhysicsError, match="fixed-point"):
            build_bath(p)
        m = 2 * gains[0]
        a = -1j * build_matrices(p).h_nh - m
        x_mat = np.diag(p.x * p.kappa ** (-2.0 * np.arange(p.n)))
        res = np.linalg.norm(a @ x_mat + x_mat @ a.conj().T + m)
        assert res <= 1e-9 * (1 + np.linalg.norm(m))


class TestSteadyProfile:
    def test_profile_is_geometric(self):
        p = HatanoNelsonParams(n=3, omega=1.0, lam=0.3, gamma=0.5, a=2.5,
                               x=0.5 ** 4 / 4)
        profile = steady_profile(p)
        assert np.max(np.abs(profile - p.x * np.array([1.0, 4.0, 16.0]))) <= 1e-9

    def test_matches_lyapunov_steady_state(self):
        p = default_params(5)
        state = steady_state(build_bath(p))
        x_target = np.diag(p.x * p.kappa ** (2 - 2 * np.arange(1, 6, dtype=float)))
        assert np.max(np.abs(state.r - x_target)) <= 1e-9

    def test_one_site_has_no_slope(self):
        with pytest.raises(ValidationError, match="at least 2 sites, got 1"):
            localization_slope([0.25])

    def test_log_slope_is_constant(self):
        p = default_params(6)
        profile = steady_profile(p)
        slope, deviation = localization_slope(profile)
        assert abs(slope - (-2 * np.log(p.kappa))) <= 1e-10
        assert deviation <= 1e-12

    @pytest.mark.parametrize("n", [30, 60, 120])
    def test_long_chain_matches_closed_form(self, n):
        # kappa = 0.5: the occupations span 4^(n-1), up to 4e71 at n = 120
        p = default_params(n)
        target = p.x * p.kappa ** (2 - 2 * np.arange(1, n + 1, dtype=float))
        profile = steady_profile(p)
        assert np.max(np.abs(profile - target) / target) <= 1e-12

    def test_unscaled_solve_fails_the_relative_guard(self, monkeypatch):
        # plain Bartels-Stewart loses the small end of the profile;
        # build_bath checks only the target, not the solve
        def unscaled(a, m):
            return scipy.linalg.solve_continuous_lyapunov(a, -m)

        monkeypatch.setattr(quadferm.gaussian, "lyapunov_solve", unscaled)
        with pytest.raises(PhysicsError, match="relative"):
            steady_profile(default_params(30))

    def test_contrast_between_bath_choices(self):
        # localized split: max/min occupation ratio kappa^(2-2n); flat split: 1
        p = default_params(5)
        localized = steady_profile(p)
        ratio = np.max(localized) / np.min(localized)
        assert abs(ratio - p.kappa ** (2 - 2 * p.n)) <= 1e-6 * ratio
        flat = np.diag(featureless_choice(p, 0.3)).real
        assert abs(np.max(flat) / np.min(flat) - 1.0) <= 1e-9


class TestFeaturelessChoice:
    def test_one_third_gives_quarter_identity(self):
        p = default_params(4)
        out = featureless_choice(p, 1.0 / 3.0)
        assert np.linalg.norm(out - 0.25 * np.eye(4)) <= 1e-9

    def test_small_delta_approaches_vacuum(self):
        p = default_params(3)
        out = featureless_choice(p, 1e-6)
        assert np.linalg.norm(out) <= 2e-6

    def test_delta_at_or_above_one_rejected(self):
        p = default_params(3)
        with pytest.raises(ValidationError):
            featureless_choice(p, 1.0)
        with pytest.raises(ValidationError):
            featureless_choice(p, 1.7)
