import numpy as np
import pytest
import scipy.linalg

from quadferm import fock
from quadferm.affine import AffineGenerator, act, flow
from quadferm.errors import PhysicsError, ValidationError
from quadferm.gaussian import (GaussianState, asymptotic_decomposition,
                               entropy, evolve_grid, evolve_state,
                               expectation_quadratic, params_from_model,
                               steady_state)
from quadferm.linalg import hermitize, lyapunov_solve
from quadferm.verify import (random_complex_matrix, random_correlation_matrix,
                             random_gksl_params, random_hermitian, random_psd)

from conftest import kron_lyapunov


class TestParamsFromModel:
    def test_empty_model(self):
        params = params_from_model(np.zeros((2, 2)))
        assert np.linalg.norm(params.a) == 0.0
        assert np.linalg.norm(params.m) == 0.0
        assert params.gksl

    def test_single_decaying_mode(self):
        omega, gamma = 1.3, 0.6
        params = params_from_model([[omega]], loss_vectors=([np.sqrt(gamma)],))
        assert abs(params.a[0, 0] - (-1j * omega - gamma)) < 1e-15
        assert abs(params.m[0, 0]) == 0.0
        assert params.gksl

    def test_single_gain_mode(self):
        omega, gamma = 0.9, 0.4
        params = params_from_model([[omega]], gain_vectors=([np.sqrt(gamma)],))
        assert abs(params.a[0, 0] - (-1j * omega - gamma)) < 1e-15
        assert abs(params.m[0, 0] - 2 * gamma) < 1e-15
        # -A - A† - M = 2D - ... here D = 0, so the sandwich degenerates:
        # 2*gamma - 2*gamma = 0, still admissible at the boundary
        assert params.gksl

    def test_random_models_are_admissible(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 3)
            loss = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)
                         for _ in range(2))
            gain = (rng.standard_normal(3) + 1j * rng.standard_normal(3),)
            params = params_from_model(h, loss, gain)
            assert params.gksl

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            params_from_model(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("channel", ["loss_vectors", "gain_vectors"])
    def test_wrong_length_vector_rejected(self, channel):
        vectors = ([1.0, 0.0], [0.5, 0.5, 0.0])
        with pytest.raises(ValidationError, match="length 3, expected 2"):
            params_from_model(np.eye(2), **{channel: vectors})

    def test_sums_channels_in_order(self, rng):
        # D and E are the running sums of v v† in channel order, so the
        # pair is bit-identical to the one assembled by hand
        h = random_hermitian(rng, 3)
        loss = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for _ in range(3)]
        gain = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for _ in range(2)]
        d, e = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
        for v in loss:
            d += np.outer(v, v.conj())
        for v in gain:
            e += np.outer(v, v.conj())
        params = params_from_model(h, loss, gain)
        assert np.array_equal(params.a, -1j * h - d - e)
        assert np.array_equal(params.m, 2 * e)

    def test_params_are_affine_generators(self):
        params = params_from_model(np.eye(2))
        assert isinstance(params, AffineGenerator)
        assert params.n == 2

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValidationError):
            AffineGenerator(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_admissibility_is_computed_when_read(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        state = GaussianState.vacuum(2)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        params = params_from_model(np.diag([1.0, -0.5]),
                                   loss_vectors=([1.0, 0.5j],),
                                   gain_vectors=([0.2, 0.3],))
        flow(params, 1.5)
        assert len(calls) == 0
        times = [0.0, 0.5, 1.0]
        evolve_grid(params, state, times)
        # one spectrum check per returned state, none for the generator
        assert len(calls) == len(times)
        calls.clear()
        assert params.gksl and params.gksl
        assert len(calls) == 2


class TestEvolveState:
    def test_time_zero_is_identity(self, rng):
        params = random_gksl_params(rng, 3)
        state = GaussianState(random_correlation_matrix(rng, 3))
        out = evolve_state(params, state, 0.0)
        assert np.linalg.norm(out.r - state.r) < 1e-14

    def test_scalar_relaxation_closed_form(self):
        gamma, nbar, r0, t = 0.7, 0.35, 0.9, 1.4
        params = AffineGenerator([[-gamma]], [[2 * gamma * nbar]])
        out = evolve_state(params, GaussianState([[r0]]), t)
        expected = np.exp(-2 * gamma * t) * r0 + nbar * (1 - np.exp(-2 * gamma * t))
        assert abs(out.r[0, 0] - expected) < 1e-13

    def test_matches_dense_oracle(self, rng):
        for _ in range(3):
            params = random_gksl_params(rng, 3)
            r0 = random_correlation_matrix(rng, 3)
            rho0 = fock.gaussian_density(GaussianState(r0))
            rho_t = fock.dense_evolve(params, rho0, 0.7)
            fast = evolve_state(params, GaussianState(r0), 0.7)
            assert np.max(np.abs(fock.read_correlations(rho_t) - fast.r)) <= 1e-9

    def test_is_affine_action_of_the_flow(self, rng):
        from quadferm.affine import AffineGenerator, act, flow
        params = random_gksl_params(rng, 3)
        state = GaussianState(random_correlation_matrix(rng, 3))
        t = 1.3
        via_flow = act(flow(AffineGenerator(params.a, params.m), t), state.r)
        assert np.linalg.norm(evolve_state(params, state, t).r - via_flow) <= 1e-12

    def test_flow_consistency(self, rng):
        for n in (2, 4, 6):
            params = random_gksl_params(rng, n)
            state = GaussianState(random_correlation_matrix(rng, n))
            two_step = evolve_state(params, evolve_state(params, state, 0.8), 1.7)
            one_step = evolve_state(params, state, 2.5)
            assert np.linalg.norm(two_step.r - one_step.r) < 1e-10

    def test_spectrum_stays_physical(self, rng):
        params = random_gksl_params(rng, 4)
        state = GaussianState(random_correlation_matrix(rng, 4, lo=0.01, hi=0.99))
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            occ = np.linalg.eigvalsh(evolve_state(params, state, t).r)
            assert occ[0] >= -1e-10 and occ[-1] <= 1 + 1e-10

    def test_negative_time_rejected(self, rng):
        params = random_gksl_params(rng, 2)
        with pytest.raises(ValidationError):
            evolve_state(params, GaussianState.vacuum(2), -0.5)

    def test_is_exactly_the_flow_action_at_long_horizons(self, rng):
        params = random_gksl_params(rng, 4, min_damping=0.5)
        r = random_correlation_matrix(rng, 4)
        for t in (0.0, 0.5, 100.0, 1e4):
            via_flow = hermitize(act(flow(params, t), r))
            assert np.array_equal(via_flow,
                                  evolve_state(params, GaussianState(r), t).r)

    def test_long_time_limit_is_the_steady_state(self, rng):
        params = random_gksl_params(rng, 4, min_damping=0.5)
        r = random_correlation_matrix(rng, 4)
        late = act(flow(params, 1e4), r)
        assert np.max(np.abs(late - steady_state(params).r)) <= 1e-10


class TestEvolveGrid:
    def test_first_state_is_evolve_state(self, rng):
        params = random_gksl_params(rng, 4)
        state = GaussianState(random_correlation_matrix(rng, 4))
        for times in ([0.0, 1.0], [0.7, 0.9, 3.0]):
            first = evolve_grid(params, state, times)[0]
            assert np.array_equal(first.r,
                                  evolve_state(params, state, times[0]).r)

    @pytest.mark.parametrize("times", [np.arange(0.0, 20.05, 0.1),
                                       np.linspace(0.0, 37.0, 201)])
    def test_matches_per_time_evolution(self, rng, times):
        assert len(times) == 201
        for _ in range(2):
            params = random_gksl_params(rng, 6)
            state = GaussianState(random_correlation_matrix(rng, 6))
            grid = evolve_grid(params, state, times)
            assert len(grid) == len(times)
            for t, stepped in zip(times, grid):
                direct = evolve_state(params, state, t).r
                assert (np.linalg.norm(stepped.r - direct)
                        <= 1e-12 * np.linalg.norm(direct))

    def test_small_state_in_a_fast_mode_stays_hermitian(self, rng):
        # M = 0, all of R in the mode decaying faster by 2: at t = 10, R is
        # e^{-20} below the roundoff scale ||u||^2 ||R|| of u R u†, which
        # no longer rounds to Hermitian relative to its own norm
        q = np.linalg.qr(random_complex_matrix(rng, 2))[0]
        params = AffineGenerator(q @ np.diag([-0.5, -1.5]) @ q.conj().T,
                                 np.zeros((2, 2)))
        state = GaussianState(np.outer(q[:, 1], q[:, 1].conj()))
        for out in evolve_grid(params, state, [10.0, 20.0, 30.0]):
            assert np.array_equal(out.r, out.r.conj().T)
            assert np.linalg.norm(out.r) < 1e-8

    def test_growing_steps_restart_from_the_initial_state(self, rng):
        # each step of a logarithmic grid is at least the elapsed time, so
        # every state is the one-time evolution, bit for bit
        params = random_gksl_params(rng, 4, min_damping=0.5)
        state = GaussianState(random_correlation_matrix(rng, 4))
        times = [0.0] + [10.0 ** k for k in range(-8, 5)]
        for t, stepped in zip(times, evolve_grid(params, state, times)):
            assert np.array_equal(stepped.r, evolve_state(params, state, t).r)

    def test_repeated_times_give_equal_states(self, rng):
        params = random_gksl_params(rng, 3)
        state = GaussianState(random_correlation_matrix(rng, 3))
        grid = evolve_grid(params, state, [0.5, 0.5, 1.5, 1.5, 1.5])
        assert np.array_equal(grid[0].r, grid[1].r)
        assert np.array_equal(grid[2].r, grid[3].r)
        assert np.array_equal(grid[3].r, grid[4].r)

    def test_one_flow_per_distinct_step(self, rng, monkeypatch):
        import quadferm.gaussian
        steps = []

        def counting(p, t):
            steps.append(t)
            return flow(p, t)

        monkeypatch.setattr(quadferm.gaussian, "flow", counting)
        params = random_gksl_params(rng, 3)
        state = GaussianState(random_correlation_matrix(rng, 3))
        # steps: 0, 1, 1, 1, 2, 2, 2, 3, 3; each length is built once
        evolve_grid(params, state, [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0,
                                    12.0, 15.0])
        assert steps == [0.0, 1.0, 2.0, 3.0]
        steps.clear()
        evolve_grid(params, state, np.arange(101.0))
        assert steps == [0.0, 1.0]

    def test_unitary_stepping_error_matches_per_time_error(self, rng):
        # closed system: r(t) = V e^{-i L t} V† r V e^{i L t} V†
        n = 32
        h = random_hermitian(rng, n)
        params = AffineGenerator(-1j * h, np.zeros((n, n)))
        state = GaussianState(random_correlation_matrix(rng, n))
        lam, v = np.linalg.eigh(h)
        t = 1000.0
        u = (v * np.exp(-1j * lam * t)) @ v.conj().T
        exact = u @ state.r @ u.conj().T
        stepped = evolve_grid(params, state, np.arange(1001.0))[-1].r
        direct = evolve_state(params, state, t).r
        err_stepped = np.linalg.norm(stepped - exact)
        err_direct = np.linalg.norm(direct - exact)
        assert err_stepped <= 2 * err_direct


class TestSteadyState:
    def test_scalar_occupation(self):
        gamma, nbar = 0.8, 0.3
        params = AffineGenerator([[-gamma]], [[2 * gamma * nbar]])
        assert abs(steady_state(params).r[0, 0] - nbar) < 1e-13

    def test_zero_noise_gives_vacuum(self, rng):
        a = -random_psd(rng, 3) - 0.3 * np.eye(3)
        params = AffineGenerator(a, np.zeros((3, 3)))
        assert np.linalg.norm(steady_state(params).r) < 1e-12

    def test_fixed_point_under_evolution(self, rng):
        for _ in range(3):
            params = random_gksl_params(rng, 3, min_damping=0.2)
            steady = steady_state(params)
            moved = evolve_state(params, steady, 5.0)
            assert np.linalg.norm(moved.r - steady.r) <= 1e-9

    def test_undamped_drift_is_rejected_with_eigenvalues(self):
        params = AffineGenerator(np.diag([0.7j, -1.0]), np.zeros((2, 2)))
        with pytest.raises(PhysicsError, match=r"lambda_0 = 0\+0\.7j\]"):
            steady_state(params)

    def test_stable_non_dissipative_drift_reaches_the_spectrum_check(self):
        # -A - A† is indefinite (the pair is inadmissible) but the drift is
        # stable, so the Lyapunov solution exists; its spectrum leaves [0, 1]
        a = np.array([[-1.0, 10.0], [0.0, -1.0]])
        params = AffineGenerator(a, 0.1 * np.eye(2))
        ref = kron_lyapunov(params.a, params.m)
        out = lyapunov_solve(params.a, params.m)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        with pytest.raises(PhysicsError, match="escapes"):
            steady_state(params)

    def test_slow_mode_of_non_normal_drift_has_a_steady_state(self):
        # Re = -2e-9 is damped against max|lambda| = 1, though it lies
        # inside 1e-9 ||A||_2 (||A||_2 = 1 + sqrt 2): the band scales with
        # the spectral radius, not the norm, of this non-normal drift
        a = np.zeros((3, 3), dtype=complex)
        a[:2, :2] = [[-1.0, 2.0], [0.0, -1.0]]
        a[2, 2] = -2e-9
        params = AffineGenerator(a, np.diag([0.0, 0.0, 4e-9]))
        assert params.gksl
        r = steady_state(params).r
        assert np.linalg.norm(r - np.diag([0.0, 0.0, 1.0])) < 1e-12

    def test_entropy_stationary_at_steady_state(self, rng):
        params = random_gksl_params(rng, 3, min_damping=0.3)
        steady = steady_state(params)
        drift = abs(entropy(evolve_state(params, steady, 3.0)) - entropy(steady))
        assert drift <= 1e-9

    def test_monotone_approach(self, rng):
        params = random_gksl_params(rng, 3, min_damping=0.5)
        state = GaussianState(random_correlation_matrix(rng, 3))
        m_inf = steady_state(params).r
        rate = abs(np.max(np.linalg.eigvals(params.a).real))
        t = 3.0 / rate
        d1 = np.linalg.norm(evolve_state(params, state, t).r - m_inf)
        d2 = np.linalg.norm(evolve_state(params, state, 2 * t).r - m_inf)
        assert d2 <= d1 / 10 or d2 < 1e-14


def _undamped_block_params(rng, freq=0.7):
    """3-mode admissible pair with a single persistent frequency."""
    h2 = random_hermitian(rng, 2)
    d2 = random_psd(rng, 2) + 0.3 * np.eye(2)
    e2 = random_psd(rng, 2, scale=0.4)
    a = np.zeros((3, 3), dtype=complex)
    m = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 1j * freq
    a[1:, 1:] = -1j * h2 - d2 - e2
    m[1:, 1:] = 2 * e2
    return AffineGenerator(a, m)


class TestAsymptoticDecomposition:
    def test_fully_damped_reduces_to_steady_state(self, rng):
        params = random_gksl_params(rng, 3, min_damping=0.2)
        state = GaussianState(random_correlation_matrix(rng, 3))
        dec = asymptotic_decomposition(params, state)
        assert np.linalg.norm(dec.a0_flow.a) == 0.0
        assert np.linalg.norm(dec.projected.r) < 1e-12
        assert np.linalg.norm(dec.m_inf - steady_state(params).r) < 1e-10

    def test_closed_system_keeps_rotating(self, rng):
        h = random_hermitian(rng, 3)
        params = AffineGenerator(1j * h, np.zeros((3, 3)))
        state = GaussianState(random_correlation_matrix(rng, 3))
        dec = asymptotic_decomposition(params, state)
        assert np.linalg.norm(dec.m_inf) < 1e-12
        assert np.linalg.norm(dec.projected.r - state.r) < 1e-12
        assert np.linalg.norm(dec.a0_flow.a - 1j * h) < 1e-10

    def test_limit_noise_solves_lyapunov_on_damped_part(self, rng):
        params = _undamped_block_params(rng)
        state = GaussianState(random_correlation_matrix(rng, 3))
        dec = asymptotic_decomposition(params, state)
        res = params.a @ dec.m_inf + dec.m_inf @ params.a.conj().T + params.m
        assert np.linalg.norm(res) < 1e-10
        # the noise matrix vanishes on the persistent subspace
        assert np.linalg.norm(dec.p0 @ params.m) < 1e-12

    def test_prediction_matches_dense_oracle_with_persistent_mode(self, rng):
        params = _undamped_block_params(rng)
        r0 = random_correlation_matrix(rng, 3)
        dec = asymptotic_decomposition(params, GaussianState(r0))
        t = 40.0
        rho0 = fock.gaussian_density(GaussianState(r0))
        dense_r = fock.read_correlations(fock.dense_evolve(params, rho0, t))
        assert np.max(np.abs(dense_r - dec.predicted_correlation(t))) <= 1e-7

    def test_slowly_damped_mode_is_solved_on_the_damped_part(self):
        # Re = -3e-9 is outside the band 1e-9 max|lambda|, so the
        # restricted solve must accept the mode as damped too
        params = AffineGenerator(np.diag([1j, -3e-9, -1.0]),
                                 np.diag([0.0, 0.0, 1.0]))
        assert params.gksl
        dec = asymptotic_decomposition(params, GaussianState.vacuum(3))
        assert np.linalg.norm(dec.p0 - np.diag([1.0, 0.0, 0.0])) < 1e-12
        assert np.linalg.norm(dec.m_inf - np.diag([0.0, 0.0, 0.5])) < 1e-12

    def test_slow_mode_of_non_normal_drift_agrees_with_steady_state(self):
        # the pair steady_state solves: no mode is persistent, and the
        # limit noise is its steady state
        a = np.zeros((3, 3), dtype=complex)
        a[:2, :2] = [[-1.0, 2.0], [0.0, -1.0]]
        a[2, 2] = -2e-9
        params = AffineGenerator(a, np.diag([0.0, 0.0, 4e-9]))
        dec = asymptotic_decomposition(params, GaussianState.vacuum(3))
        assert np.array_equal(dec.p0, np.zeros((3, 3)))
        assert np.linalg.norm(dec.m_inf - steady_state(params).r) < 1e-12

    def test_requires_admissible_generator(self, rng):
        params = AffineGenerator(np.diag([1j, -1.0]), np.diag([1.0, 0.0]))
        assert not params.gksl
        with pytest.raises(PhysicsError, match="lambda_0"):
            asymptotic_decomposition(params, GaussianState.vacuum(2))

    def test_noise_on_a_mode_in_the_band_is_an_error(self):
        # Re lambda = -2.6e-10 lies in the band -1e-9 max|lambda|, so the
        # mode counts as undamped, yet M feeds it: its true limit, 0.5, is
        # reached only after ~1e10 time units, and no m_inf with a zero
        # occupation there solves the full equation
        params = AffineGenerator(np.diag([-0.515 - 0.089j, -2.6e-10]),
                                 np.diag([0.209, 2.6e-10]))
        assert params.gksl
        with pytest.raises(PhysicsError, match="lambda_0 = -2.6e-10"):
            asymptotic_decomposition(params, GaussianState.vacuum(2))

    def test_stable_inadmissible_pair_is_solved_like_the_steady_state(self):
        # with no undamped mode, admissibility is not needed
        params = AffineGenerator([[-1.0, 10.0], [0.0, -1.0]],
                                 0.1 * np.eye(2))
        assert not params.gksl
        dec = asymptotic_decomposition(params, GaussianState.vacuum(2))
        assert np.array_equal(dec.m_inf, lyapunov_solve(params.a, params.m))

    def test_scaled_frame_projector_matches_the_raw_split(self, rng):
        # a unitary near I mixes the persistent mode into every site, so
        # the solve runs in the frame D = diag(sqrt|M_jj|) != I, where the
        # undamped Schur vectors are not P0's; P0 must be the raw split's
        params = _undamped_block_params(rng, freq=-1.3)
        u = scipy.linalg.expm(0.3j * random_hermitian(rng, 3))
        a = u @ params.a @ u.conj().T
        m = u @ params.m @ u.conj().T
        params = AffineGenerator(a, m)
        assert params.gksl
        d = np.sqrt(np.abs(m.diagonal()))
        assert np.ptp(d) > 0.5 * np.max(d)
        assert np.linalg.norm(a / d[:, None] * d) <= 2 * np.linalg.norm(a)
        dec = asymptotic_decomposition(params, GaussianState.vacuum(3))
        # with m = 0 the solve frame is D = I, the raw frame
        raw = asymptotic_decomposition(AffineGenerator(a, 0 * a),
                                       GaussianState.vacuum(3))
        assert np.linalg.norm(dec.p0 - raw.p0) <= 1e-12
        assert np.allclose(dec.frequencies, [-1.3], rtol=0, atol=1e-12)
        res = a @ dec.m_inf + dec.m_inf @ a.conj().T + m
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("undamped", [False, True])
    def test_factors_the_drift_once(self, rng, monkeypatch, undamped):
        schur, calls = scipy.linalg.schur, []

        def counting(*args, **kwargs):
            calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        params = (_undamped_block_params(rng) if undamped
                  else random_gksl_params(rng, 3, min_damping=0.2))
        dec = asymptotic_decomposition(params, GaussianState.vacuum(3))
        assert dec.frequencies.size == undamped
        assert len(calls) == 1


    def test_state_orthogonal_to_the_dark_mode_projects_to_zero(self, rng):
        # P0 R P0 is zero in exact arithmetic, so all of it is roundoff
        q = np.linalg.qr(random_complex_matrix(rng, 2))[0]
        params = AffineGenerator(q @ np.diag([0.7j, -1.0]) @ q.conj().T,
                                 np.zeros((2, 2)))
        state = GaussianState(np.outer(q[:, 1], q[:, 1].conj()))
        dec = asymptotic_decomposition(params, state)
        assert np.array_equal(dec.projected.r, dec.projected.r.conj().T)
        assert np.linalg.norm(dec.projected.r) < 1e-12


class TestExpectationAndEntropy:
    def test_identity_gives_total_number(self, rng):
        r = random_correlation_matrix(rng, 3)
        val = expectation_quadratic(GaussianState(r), np.eye(3))
        assert abs(val - np.trace(r).real) < 1e-13

    def test_vacuum_gives_zero(self, rng):
        t_mat = random_hermitian(rng, 3)
        assert expectation_quadratic(GaussianState.vacuum(3), t_mat) == 0.0

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            r = random_correlation_matrix(rng, 2)
            t_mat = random_hermitian(rng, 2)
            rho = fock.gaussian_density(GaussianState(r))
            dense = np.trace(fock.quadratic_form(t_mat) @ rho)
            fast = expectation_quadratic(GaussianState(r), t_mat)
            assert abs(dense - fast) <= 1e-10

    def test_entropy_of_half_filled_mode(self):
        assert abs(entropy(GaussianState([[0.5]])) - np.log(2)) < 1e-14

    def test_entropy_of_vacuum(self):
        assert entropy(GaussianState.vacuum(3)) == 0.0

    def test_state_keeps_the_spectrum_it_checked(self, rng):
        state = GaussianState(random_correlation_matrix(rng, 4))
        assert np.array_equal(state.spectrum, np.linalg.eigvalsh(state.r))
        assert "spectrum" not in repr(state)

    def test_entropy_matches_dense_oracle(self, rng):
        for _ in range(5):
            r = random_correlation_matrix(rng, 2)
            rho = fock.gaussian_density(GaussianState(r))
            eigs = np.linalg.eigvalsh(rho)
            dense = -float(np.sum(eigs * np.log(eigs)))
            assert abs(dense - entropy(GaussianState(r))) <= 1e-9


class TestGaussianStateValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            GaussianState(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_spectrum_escape_rejected(self):
        with pytest.raises(PhysicsError):
            GaussianState(np.diag([1.4, 0.2]))

    def test_boundary_spectrum_accepted(self):
        state = GaussianState(np.diag([0.0, 1.0]))
        assert np.array_equal(state.occupations(), [0.0, 1.0])
