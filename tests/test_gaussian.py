import mpmath
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
from quadferm.skin import HatanoNelsonParams, build_bath
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

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        state = GaussianState.vacuum(2)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        params = params_from_model(np.diag([1.0, -0.5]),
                                   loss_vectors=([1.0, 0.5j],),
                                   gain_vectors=([0.2, 0.3],))
        flow(params, 1.5)
        assert len(calls) == 0
        times = [0.0, 0.5, 1.0]
        evolve_grid(params, state, times)
        # one spectrum check for the grid's stack, none for the generator
        assert calls == [(len(times), 2, 2)]
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


DECADES = [0.0] + [10.0 ** k for k in range(-8, 5)]
DOUBLING = [0.0] + [2.0 ** k for k in range(11)]


def _normal_params(rng, scale: float) -> AffineGenerator:
    """An admissible normal pair, scaled: A has eigenvalues
    ``scale * (-0.5 - i, -2 + 0.5i, -1)``, so max|Re λ| = 2 scale."""
    q = np.linalg.qr(random_complex_matrix(rng, 3))[0]
    a = q @ np.diag([-0.5 - 1j, -2 + 0.5j, -1.0]) @ q.conj().T
    m = hermitize(q @ np.diag([0.5, 1.0, 0.2]) @ q.conj().T)
    return AffineGenerator(scale * a, scale * m)


def _noise_integral_mp(a, m, t: float) -> np.ndarray:
    """``int_0^t e^{sA} M e^{sA†} ds`` in 60-digit mpmath, from the
    eigenvectors V of A: with ``C = V⁻¹ M V⁻†``, entry (i, j) of
    ``V⁻¹ R V⁻†`` is ``C_ij (e^{t(λ_i + conj λ_j)} - 1) / (λ_i + conj λ_j)``.
    No block exponential and no Padé approximant."""
    with mpmath.workdps(60):
        lam, v = mpmath.eig(mpmath.matrix(a.tolist()))
        v_inv = mpmath.inverse(v)
        c = v_inv * mpmath.matrix(m.tolist()) * v_inv.H
        n = len(lam)
        x = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                z = lam[i] + mpmath.conj(lam[j])
                x[i, j] = c[i, j] * mpmath.expm1(t * z) / z
        r = v * x * v.H
        return np.array([[complex(r[i, j]) for j in range(n)]
                         for i in range(n)])


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

    def test_repeated_times_give_equal_states(self, rng):
        params = random_gksl_params(rng, 3)
        state = GaussianState(random_correlation_matrix(rng, 3))
        grid = evolve_grid(params, state, [0.5, 0.5, 1.5, 1.5, 1.5])
        assert np.array_equal(grid[0].r, grid[1].r)
        assert np.array_equal(grid[2].r, grid[3].r)
        assert np.array_equal(grid[3].r, grid[4].r)

    @pytest.mark.parametrize("scale, times, flows", [
        (1.0, np.arange(101.0), [0.0, 1.0]),
        # steps 1, 1, 1, 2, 2, 2, 3, 3: past the gate at τ = 1 the 2 is a
        # square of the 1, and 3 is no multiple of the 2
        (1.0, [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0],
         [0.0, 1.0, 3.0]),
        # below the gate every distinct step is built afresh
        (0.1, [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0],
         [0.0, 1.0, 2.0, 3.0]),
        # 0.4 is 4 fl(0.1) exactly; 0.1 * 3 rounds 2.8e-17 above
        # 3 fl(0.1), so it is no multiple and built afresh
        (10.0, [0.0, 0.1, 0.4], [0.0, 0.1]),
        (10.0, [0.0, 0.1, 0.1 * 3], [0.0, 0.1, 0.1 * 3]),
        # decades: fresh up to t = 1, where t max|Re λ| = 2 passes the
        # gate; 10, 100, 1e3 and 1e4 are tenth powers of the flow before
        (1.0, DECADES, DECADES[:10]),
        # doubling: 2^k restarts from 2^(k-2) (a fourth power) or steps by
        # the last flow
        (1.0, DOUBLING, [0.0, 1.0]),
        # the same grid with max|Re λ| = 0.02: below the gate each restart
        # builds afresh, until t = 256 is a fourth power of t = 64
        (0.01, DOUBLING, [0.0, 1.0, 4.0, 16.0, 64.0]),
    ])
    def test_flows_built_per_grid(self, rng, monkeypatch, scale, times,
                                  flows):
        import quadferm.gaussian
        import quadferm.linalg
        built, exps = [], []

        def counting_flow(p, t):
            built.append(t)
            return flow(p, t)

        def counting_exp(a):
            exps.append(a)
            return scipy.linalg.expm(a)

        monkeypatch.setattr(quadferm.gaussian, "flow", counting_flow)
        monkeypatch.setattr(quadferm.linalg, "mat_exp", counting_exp)
        params = _normal_params(rng, scale)
        assert params._abscissa == pytest.approx(2.0 * scale)
        state = GaussianState(random_correlation_matrix(rng, 3))
        evolve_grid(params, state, times)
        assert built == flows
        assert len(exps) == sum(t > 0 for t in flows)

    @pytest.mark.parametrize("n, min_damping", [(2, 0.0), (5, 0.01),
                                                (9, 0.5), (16, 0.0)])
    @pytest.mark.parametrize("times", [DECADES, DOUBLING])
    def test_powered_flows_match_evolve_state(self, rng, n, min_damping,
                                              times):
        params = random_gksl_params(rng, n, min_damping=min_damping)
        state = GaussianState(random_correlation_matrix(rng, n))
        for t, out in zip(times, evolve_grid(params, state, times)):
            direct = evolve_state(params, state, t).r
            assert (np.linalg.norm(out.r - direct)
                    <= 1e-12 * np.linalg.norm(direct))

    def test_powered_flows_match_evolve_state_on_a_skin_bath(self):
        params = build_bath(HatanoNelsonParams(n=8, omega=1.0, lam=0.3,
                                               gamma=0.5, a=2.5))
        state = GaussianState.vacuum(8)
        for t, out in zip(DECADES, evolve_grid(params, state, DECADES)):
            direct = evolve_state(params, state, t).r
            assert (np.linalg.norm(out.r - direct)
                    <= 1e-12 * np.linalg.norm(direct))

    @pytest.mark.parametrize("times", [
        np.arange(21.0),
        [k / 10 for k in range(101)],
        # steps of fl(1000.1) - 1000 = 0.1 + 2.3e-14 and their neighbours
        [1000 + k / 10 for k in range(101)],
    ])
    def test_grids_without_multiples_equal_per_step_flows(self, rng, times):
        # no step is a multiple of another, so each state is a fresh flow
        # of exactly its step, bit for bit
        params = random_gksl_params(rng, 4)
        state = GaussianState(random_correlation_matrix(rng, 4))
        r, prev = state.r, 0.0
        for t, out in zip(times, evolve_grid(params, state, times)):
            r, prev = hermitize(act(flow(params, t - prev), r)), t
            assert np.array_equal(out.r, r)

    def test_offset_decimal_grid_keeps_its_times(self, rng):
        # reusing the flow of the first step, 0.1 + 2.3e-14, for all 1000
        # steps would put the last state 2.3e-11 late; in modes damped at
        # rate 1e-5 that phase error is 7e-12 relative
        q = np.linalg.qr(random_complex_matrix(rng, 3))[0]
        a = q @ np.diag([-1e-5 - 1j, -2e-5 + 0.5j, -1e-5]) @ q.conj().T
        m = hermitize(1e-5 * q @ np.diag([0.5, 1.0, 0.2]) @ q.conj().T)
        params = AffineGenerator(a, m)
        state = GaussianState(random_correlation_matrix(rng, 3))
        times = [1000 + k / 10 for k in range(1001)]
        grid = evolve_grid(params, state, times)
        for t, out in list(zip(times, grid))[::50]:
            direct = evolve_state(params, state, t).r
            assert (np.linalg.norm(out.r - direct)
                    <= 1e-12 * np.linalg.norm(direct))

    @pytest.mark.parametrize("n, min_damping", [(2, 0.0), (3, 0.0),
                                                (3, 0.01)])
    def test_decade_grid_matches_a_60_digit_closed_form(self, rng, n,
                                                        min_damping):
        # fresh flows at growth up to 8 per chunk lose up to 1e-13 here;
        # powers of a flow of growth about 1 keep about 1e-15
        for _ in range(3):
            params = random_gksl_params(rng, n, min_damping=min_damping)
            grid = evolve_grid(params, GaussianState.vacuum(n), DECADES)
            for t, out in zip(DECADES[1:], grid[1:]):
                exact = _noise_integral_mp(params.a, params.m, t)
                assert (np.linalg.norm(out.r - exact)
                        <= 1e-14 * np.linalg.norm(exact))

    def test_escape_names_the_first_escaping_state(self):
        # mode 1 relaxes towards occupation 2 and leaves [0, 1] at
        # t = ln(2)/2: the third state, with later states further out
        params = AffineGenerator(np.diag([-1.0, -0.5]), np.diag([4.0, 0.3]))
        times = [0.125 * k for k in range(1, 9)]
        step, states = flow(params, 0.125), [GaussianState.vacuum(2)]
        with pytest.raises(PhysicsError) as one_by_one:
            for _ in times:
                r = hermitize(act(step, states[-1].r))
                states.append(GaussianState(r))
        assert len(states) == 3   # the vacuum and the two states that pass
        with pytest.raises(PhysicsError) as grid:
            evolve_grid(params, GaussianState.vacuum(2), times)
        assert str(grid.value) == str(one_by_one.value)

    def test_escape_before_a_failing_step_is_the_error(self):
        # growth: the first state escapes, and a later step overflows
        params = AffineGenerator([[50.0]], [[0.0]])
        state = GaussianState([[0.5]])
        with pytest.raises(PhysicsError) as first:
            GaussianState(act(flow(params, 0.1), state.r))
        with pytest.raises(PhysicsError) as grid:
            evolve_grid(params, state, [0.1, 10.0, 20.0])
        assert str(grid.value) == str(first.value)

    def test_non_hermitian_noise_rejected(self):
        params = AffineGenerator(-np.eye(2), [[0.2, 0.1], [0.0, 0.2]])
        with pytest.raises(ValidationError,
                           match="correlation matrix must be Hermitian"):
            evolve_grid(params, GaussianState.vacuum(2), [0.5, 1.0])

    def test_non_hermitian_noise_rejected_before_any_step(self):
        # at t = 0 every state is the initial one, which is Hermitian
        params = AffineGenerator(-np.eye(2), [[0.2, 0.1], [0.0, 0.2]])
        with pytest.raises(ValidationError,
                           match="correlation matrix must be Hermitian"):
            evolve_grid(params, GaussianState.vacuum(2), [0.0])

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
