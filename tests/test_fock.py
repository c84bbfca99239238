import functools

import numpy as np
import pytest
import scipy.linalg

from quadferm import fock, opbasis, verify
from quadferm.affine import AffineGenerator, flow
from quadferm.errors import ValidationError
from quadferm.gaussian import GaussianState, steady_state
from quadferm.verify import (random_complex_matrix, random_correlation_matrix,
                             random_gksl_params, random_hermitian)


class TestCarConstruction:
    def test_single_mode_lowering_matrix(self):
        (c,) = fock.annihilators(1)
        assert np.array_equal(c, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_mixed_anticommutator_vanishes_exactly(self):
        c1, c2 = fock.annihilators(2)
        assert np.linalg.norm(c1 @ c2.conj().T + c2.conj().T @ c1) == 0.0

    def test_full_relation_sweep_four_modes(self):
        ops = fock.annihilators(4)
        eye = np.eye(16)
        worst = 0.0
        for j in range(4):
            for k in range(4):
                cj, ck = ops[j], ops[k]
                worst = max(worst, np.linalg.norm(cj @ ck + ck @ cj))
                worst = max(worst, np.linalg.norm(
                    cj @ ck.conj().T + ck.conj().T @ cj - (j == k) * eye))
                worst = max(worst, np.linalg.norm(
                    cj.conj().T @ ck.conj().T + ck.conj().T @ cj.conj().T))
        assert worst <= 1e-14

    def test_vacuum_is_annihilated(self):
        omega = fock.vacuum_projector(3)
        for c in fock.annihilators(3):
            assert np.linalg.norm(c @ omega) == 0.0

    def test_mode_count_caps(self):
        with pytest.raises(ValidationError):
            fock.annihilators(0)
        with pytest.raises(ValidationError):
            fock.annihilators(7)


class TestBasicSuperoperators:
    def test_zero_coefficients_give_zero_map(self):
        zero = np.zeros((2, 2))
        assert np.linalg.norm(fock.super_basic("left", zero)) == 0.0

    def test_left_multiplication_kills_vacuum(self):
        omega = fock.vacuum_projector(1)
        op = fock.super_basic("left", np.array([[1.0]]))
        assert np.linalg.norm(fock.unvec(op @ fock.vec(omega))) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            fock.super_basic("twist", np.eye(2))
        with pytest.raises(ValidationError):
            fock._basic("drift", np.eye(2))

    def test_sizes_come_from_the_operand(self):
        assert fock.quadratic_form(np.eye(3)).shape == (8, 8)
        assert fock.super_basic("left", np.eye(3)).shape == (64, 64)

    def test_matrices_agree_with_defining_sums(self, rng):
        # apply each stored 4^n matrix to random operators and compare with
        # the literal double sums over mode indices
        n = 2
        ops = fock.annihilators(n)
        for _ in range(20):
            a = random_complex_matrix(rng, n)
            rho = random_complex_matrix(rng, 2 ** n)
            by_sum = {
                "loss": sum(a[j, k] * ops[k] @ rho @ ops[j].conj().T
                            for j in range(n) for k in range(n)),
                "gain": sum(a[j, k] * ops[j].conj().T @ rho @ ops[k]
                            for j in range(n) for k in range(n)),
                "left": fock.quadratic_form(a) @ rho,
                "right": rho @ fock.quadratic_form(a),
            }
            for kind, expected in by_sum.items():
                out = fock.unvec(fock.super_basic(kind, a) @ fock.vec(rho))
                assert np.linalg.norm(out - expected) <= 1e-12

    def test_loss_gain_commutator_identity(self, rng):
        n = 2
        eye = np.eye(4 ** n)
        for _ in range(5):
            c = random_complex_matrix(rng, n)
            d = random_complex_matrix(rng, n)
            lhs = fock.super_basic("loss", c) @ fock.super_basic("gain", d) \
                - fock.super_basic("gain", d) @ fock.super_basic("loss", c)
            rhs = np.trace(c @ d) * eye \
                - fock.super_basic("left", d @ c) \
                - fock.super_basic("right", c @ d)
            assert np.linalg.norm(lhs - rhs) <= 1e-11


class TestLiouvillianFamily:
    def test_zero_pair_gives_zero_map(self):
        params = AffineGenerator(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.linalg.norm(fock.super_liouvillian(params)) == 0.0

    def test_drift_only_annihilates_vacuum(self, rng):
        omega = fock.vacuum_projector(3)
        zero = np.zeros((3, 3))
        for _ in range(5):
            a = random_complex_matrix(rng, 3)
            out = fock.apply_generator(AffineGenerator(a, zero), omega)
            assert np.linalg.norm(out) <= 1e-12

    def test_family_commutator_closes(self, rng):
        n = 2
        for _ in range(5):
            a, m = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
            b, nn = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
            l1 = fock.super_liouvillian(AffineGenerator(a, m))
            l2 = fock.super_liouvillian(AffineGenerator(b, nn))
            target = fock.super_liouvillian(AffineGenerator(
                a @ b - b @ a,
                a @ nn + nn @ a.conj().T - b @ m - m @ b.conj().T))
            assert np.linalg.norm(l1 @ l2 - l2 @ l1 - target) <= 1e-10

    def test_matches_master_equation_assembly(self, rng):
        n = 2
        h = random_hermitian(rng, n)
        loss = tuple((rng.standard_normal(n) + 1j * rng.standard_normal(n))
                     for _ in range(2))
        gain = ((rng.standard_normal(n) + 1j * rng.standard_normal(n)),)
        d = sum(np.outer(v, v.conj()) for v in loss)
        e = sum(np.outer(v, v.conj()) for v in gain)
        params = AffineGenerator(-1j * h - d - e, 2 * e)
        direct = fock.super_master_equation(h, loss, gain)
        assert np.linalg.norm(direct - fock.super_liouvillian(params)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_apply_generator_matches_matrix(self, rng, n):
        a = random_complex_matrix(rng, n)
        m = random_complex_matrix(rng, n)
        rho = random_complex_matrix(rng, 2 ** n)
        mat = fock.super_liouvillian(AffineGenerator(a, m))
        direct = fock.apply_generator(AffineGenerator(a, m), rho)
        assert np.linalg.norm(direct - fock.unvec(mat @ fock.vec(rho))) <= 1e-12


class TestRankOneTerms:
    """`_rank_one_terms(xi, eta)` is the map of `_generator_terms(O, xi
    eta†)` in four sandwiches."""

    @staticmethod
    def _pair(rng, n, case):
        xi, eta = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        if case == "orthogonal":
            eta = eta - np.vdot(xi, eta) / np.vdot(xi, xi) * xi
            assert abs(np.vdot(eta, xi)) <= 1e-14 * np.linalg.norm(xi) ** 2
        elif case == "zero":
            xi = np.zeros(n, dtype=complex)
        return xi, eta

    @pytest.mark.parametrize("case", ["random", "orthogonal", "zero"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_generic_generator_terms(self, rng, n, case):
        xi, eta = self._pair(rng, n, case)
        dim = 2 ** n
        ref = fock._assemble(fock._generator_terms(
            np.zeros((n, n), dtype=complex), np.outer(xi, eta.conj())), dim)
        terms = fock._rank_one_terms(xi, eta)
        assert len(terms) == 4
        got = fock._assemble(terms, dim)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


class TestDensityMatrixShape:
    @pytest.mark.parametrize("shape", [(6, 6), (4, 2), (1, 1), (4,), (128, 128)])
    def test_rejected_with_validation_error(self, shape):
        rho = np.zeros(shape, dtype=complex)
        zero = AffineGenerator(np.zeros((2, 2)), np.zeros((2, 2)))
        for call in (lambda: fock.density_modes(rho),
                     lambda: fock.apply_generator(zero, rho),
                     lambda: fock.read_correlations(rho)):
            with pytest.raises(ValidationError):
                call()

    def test_mode_count_of_fock_operators(self):
        for n in range(1, fock.MAX_MODES + 1):
            assert fock.density_modes(fock.vacuum_projector(n)) == n

    def test_generator_size_must_match(self, rng):
        a = random_complex_matrix(rng, 3)
        with pytest.raises(ValidationError):
            fock.apply_generator(AffineGenerator(a, a), fock.vacuum_projector(2))


class TestDerivedCommutatorIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_auxiliary_combinations_close(self, n):
        from quadferm import verify
        for idx, which in enumerate(("fl_fl", "bl_bl", "fl_bl",
                                     "fl_s", "bl_s", "s_s")):
            rng = np.random.default_rng([55, n, idx])
            assert verify._worst("aux_" + which, rng, n, 10) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3])
    def test_conjugation_lemmas(self, n):
        from quadferm import verify
        rng = np.random.default_rng([56, n])
        assert verify._worst("noise_conjugation", rng, n, 5) <= 1e-10
        assert verify._worst("translation_conjugation", rng, n, 5) <= 1e-10
        assert verify._worst("gain_intertwining", rng, n, 5) <= 1e-10


class TestDenseEvolve:
    def test_time_zero_is_identity(self, rng):
        params = random_gksl_params(rng, 2)
        rho = fock.gaussian_density(GaussianState(random_correlation_matrix(rng, 2)))
        assert np.linalg.norm(fock.dense_evolve(params, rho, 0.0) - rho) <= 1e-13

    def test_steady_gaussian_state_is_fixed(self, rng):
        params = random_gksl_params(rng, 2, min_damping=0.2)
        rho = fock.gaussian_density(steady_state(params))
        moved = fock.dense_evolve(params, rho, 3.0)
        assert np.linalg.norm(moved - rho) <= 1e-10

    def test_trace_and_positivity_preserved(self, rng):
        params = random_gksl_params(rng, 2)
        rho = fock.gaussian_density(GaussianState(random_correlation_matrix(rng, 2)))
        for t in (0.5, 2.0, 10.0):
            out = fock.dense_evolve(params, rho, t)
            assert abs(np.trace(out) - 1.0) <= 1e-11
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_semigroup_factorization(self, rng):
        import scipy.linalg
        n, t = 2, 1.2
        zero = np.zeros((n, n))
        for _ in range(3):
            params = random_gksl_params(rng, n)
            noise = flow(params, t).m
            lhs = scipy.linalg.expm(t * fock.super_liouvillian(params))
            rhs = scipy.linalg.expm(
                fock.super_liouvillian(AffineGenerator(zero, noise))
            ) @ scipy.linalg.expm(
                t * fock.super_liouvillian(AffineGenerator(params.a, zero))
            )
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_mode_cap(self):
        params = AffineGenerator(np.zeros((6, 6)), np.zeros((6, 6)))
        with pytest.raises(ValidationError):
            fock.dense_evolve(params, np.eye(64), 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        params = AffineGenerator(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="finite"):
            fock.dense_evolve(params, fock.vacuum_projector(1), t)


class TestSmear:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_bits_as_tensordot(self, rng, n):
        c = fock._car(n)
        w = np.array(fock.majorana_operators(n))
        for coeffs, ops in [(random_complex_matrix(rng, n)[0], c),
                            (random_complex_matrix(rng, n), fock._dagger(c)),
                            (random_complex_matrix(rng, n).T, c),
                            (rng.standard_normal(2 * n), w),
                            (rng.standard_normal((2 * n, 2 * n)), w)]:
            ref = np.tensordot(coeffs, ops, axes=(0, 0))
            out = fock._smear(coeffs, ops)
            assert out.shape == ref.shape and np.array_equal(out, ref)


def _expm_shapes(monkeypatch):
    """Record the shape of every array scipy.linalg.expm is handed."""
    shapes, true_expm = [], scipy.linalg.expm

    def spy(a):
        shapes.append(np.shape(a))
        return true_expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", spy)
    return shapes


def _perturbed_car(monkeypatch, at_zero: bool, kick: float = 1e-6):
    """Rebind fock._car to one whose c_1 carries ``kick`` more at the
    structurally zero (0, 0), or at its nonzero entry (0, 2^n / 2); the
    real cache needs no clearing."""
    true_car = fock._car

    @functools.lru_cache(maxsize=None)
    def perturbed_car(m):
        ops = true_car(m).copy()
        ops[0][(0, 0) if at_zero else (0, 2 ** m // 2)] += kick
        ops.setflags(write=False)
        return ops

    monkeypatch.setattr(fock, "_car", perturbed_car)


def _sample_maps(rng, n):
    """(oracle form, whole matrix) of L(A, M), of a drift L(A, O) (its
    gain part is the zero map) and of gain(T)."""
    zero = np.zeros((n, n), dtype=complex)
    p = random_gksl_params(rng, n)
    drift = AffineGenerator(random_complex_matrix(rng, n), zero)
    t = random_complex_matrix(rng, n)
    return [(fock._liouvillian(p), fock.super_liouvillian(p)),
            (fock._liouvillian(drift), fock.super_liouvillian(drift)),
            (fock._basic("gain", t), fock.super_basic("gain", t))]


def _close(x, ref):
    return np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


class TestSectorBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entries_are_the_whole_product_bit_for_bit(self, rng, n):
        for blocks, whole in _sample_maps(rng, n):
            assert blocks.layout is fock._layout(2 ** n, True)
            assert np.array_equal(fock._whole(blocks), whole)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_arithmetic_matches_the_whole_matrices(self, rng, n):
        (x, wx), (y, wy), (z, wz) = _sample_maps(rng, n)
        v = rng.standard_normal(4 ** n) + 1j * rng.standard_normal(4 ** n)
        assert _close(fock._whole(x @ y - 0.5j * z), wx @ wy - 0.5j * wz)
        assert _close(fock._whole(-x + y), -wx + wy)
        assert abs(fock._norm(x) - np.linalg.norm(wx)) \
            <= 1e-13 * np.linalg.norm(wx)
        assert _close(fock._whole(fock._expm(0.5 * x)),
                      scipy.linalg.expm(0.5 * wx))
        assert _close(x @ v, wx @ v) and _close(v @ x, v @ wx)
        eye = fock._identity(x)
        assert np.array_equal(fock._whole(eye), np.eye(4 ** n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_charge_breaking_terms_stay_whole(self, monkeypatch, rng, n):
        # c_1 + 1e-6 at its structurally zero (0, 0): every kind's map has
        # one sector, the whole matrix, equal to the assembled one to
        # rounding (the kicked weights are not +-1)
        _perturbed_car(monkeypatch, at_zero=True)
        one = fock._layout(2 ** n, False)
        assert [fock._gather_map((kind,), n).layout for kind in fock._KINDS] \
            == [one] * 4
        for form, whole in _sample_maps(rng, n):
            assert form.layout is one
            assert _close(fock._whole(form), whole)

    def test_mixing_with_an_array_raises(self, rng):
        x = fock._liouvillian(random_gksl_params(rng, 2))
        other = fock._liouvillian(random_gksl_params(rng, 3))
        whole = fock._whole(x)
        for mix in (lambda: x + whole, lambda: whole + x, lambda: x - whole,
                    lambda: whole - x, lambda: x @ whole, lambda: whole @ x,
                    lambda: x * whole, lambda: whole * x, lambda: x + 1.0,
                    lambda: 1.0 - x, lambda: x @ other, lambda: x - other,
                    lambda: x @ np.ones(15), lambda: np.asarray(x)):
            with pytest.raises(TypeError):
                mix()


class TestSectorExponential:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_whole_exponential(self, rng, n):
        zero = np.zeros((n, n))
        for s in (fock._liouvillian(random_gksl_params(rng, n)),
                  fock._liouvillian(
                      AffineGenerator(zero, random_complex_matrix(rng, n))),
                  fock._basic("gain", random_complex_matrix(rng, n))):
            ref = scipy.linalg.expm(fock._whole(s))
            assert s.layout is fock._layout(2 ** n, True)
            assert _close(fock._whole(fock._expm(s)), ref)

    def test_exponentiates_one_sector_at_a_time(self, rng, monkeypatch):
        # at n = 3 the sectors q = 0, +-1, +-2, +-3 hold 20, 15, 6, 1 rows
        s = fock._liouvillian(random_gksl_params(rng, 3))
        shapes = _expm_shapes(monkeypatch)
        fock._expm(s)
        assert shapes == [(1, 20, 20), (2, 15, 15), (2, 6, 6), (2, 1, 1)]

    def test_any_off_sector_entry_takes_the_whole_exponential(
            self, rng, monkeypatch):
        # c_1 + kick at its structurally zero (0, 0) breaks charge: every
        # map has one sector, the whole matrix.  A NaN kick reaches fewer
        # cells gathered than assembled, which also forms NaN * 0, and
        # every other cell is the assembled one bit for bit
        a, p = random_complex_matrix(rng, 3), random_gksl_params(rng, 3)
        one = fock._layout(8, False)
        for kick in (1e-300, np.nan):
            _perturbed_car(monkeypatch, at_zero=True, kick=kick)
            for kind in fock._KINDS:
                form = fock._basic(kind, a)
                got, whole = fock._whole(form), fock.super_basic(kind, a)
                assert form.layout is one
                assert np.isnan(got).any() == np.isnan(kick)
                assert not (np.isnan(got) & ~np.isnan(whole)).any()
                finite = ~np.isnan(whole)
                assert np.array_equal(got[finite], whole[finite])
            s = fock._liouvillian(p)
            assert s.layout is one
            if kick == 1e-300:
                shapes = _expm_shapes(monkeypatch)
                out = fock._whole(fock._expm(s))
                assert shapes == [(1, 64, 64)]
                assert np.array_equal(out, scipy.linalg.expm(fock._whole(s)))
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("breaks_sectors", [True, False],
                             ids=["zero-entry", "nonzero-entry"])
    def test_perturbed_annihilator_fails_the_suite(self, monkeypatch, n,
                                                   breaks_sectors):
        # c_1 + 1e-6 at a structurally zero diagonal entry mixes charge
        # sectors, so every basic map and generator has one sector, the
        # whole matrix; at its nonzero entry (0, 2^n / 2) the charge
        # sectors hold.  The exponentiating rows fail either way.
        _perturbed_car(monkeypatch, at_zero=breaks_sectors)
        layouts = set()
        for name in ("_basic", "_liouvillian"):
            def spy(*args, _true=getattr(fock, name)):
                out = _true(*args)
                layouts.add(out.layout)
                return out

            monkeypatch.setattr(fock, name, spy)
        failed = {r.name for r in verify.run_suite(n=n, draws=3)
                  if not r.passed}
        assert layouts == {fock._layout(2 ** n, not breaks_sectors)}
        assert {"semigroup_factorization", "noise_conjugation",
                "translation_conjugation", "gain_intertwining",
                "phi_evolution_covariance"} <= failed


def _assert_gathered_match_whole(rng, n):
    """_basic of every kind and _liouvillian come from the cached maps and
    hold the sector entries of the whole matrix, bit for bit."""
    layout = fock._layout(2 ** n, True)
    for kind in fock._KINDS:
        a = random_complex_matrix(rng, n)
        assert fock._gather_map((kind,), n).layout is layout
        whole = fock.super_basic(kind, a).reshape(-1)
        assert np.array_equal(fock._basic(kind, a).data, whole[layout.place])
    p = AffineGenerator(random_complex_matrix(rng, n),
                        random_complex_matrix(rng, n))
    assert fock._gather_map(fock._KINDS, n).layout is layout
    whole = fock.super_liouvillian(p).reshape(-1)
    assert np.array_equal(fock._liouvillian(p).data, whole[layout.place])


class TestGatheredBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equal_the_assembled_blocks_bit_for_bit(self, rng, n):
        _assert_gathered_match_whole(rng, n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_fresh_map_assembles_no_whole_matrix(self, monkeypatch, n):
        calls, true_assemble = [], fock._assemble

        def spy(terms, dim):
            calls.append(dim)
            return true_assemble(terms, dim)

        monkeypatch.setattr(fock, "_GATHERS", {})
        monkeypatch.setattr(fock, "_assemble", spy)
        assert fock._gather_map(fock._KINDS, n).layout \
            is fock._layout(2 ** n, True)
        assert len(fock._GATHERS) == 5 and calls == []

    def test_a_rebound_annihilator_gets_maps_of_its_own(self, rng,
                                                        monkeypatch):
        n, a = 3, random_complex_matrix(rng, n=3)
        true_map = fock._gather_map(("loss",), n)
        # a perturbation that keeps charge: new maps, blocks that agree
        # with the whole matrix to rounding (its weights are not +-1)
        _perturbed_car(monkeypatch, at_zero=False)
        assert fock._gather_map(("loss",), n) not in (None, true_map)
        assert _close(fock._whole(fock._basic("loss", a)),
                      fock.super_basic("loss", a))
        monkeypatch.undo()
        # one that breaks charge: maps of one sector, the whole matrix
        _perturbed_car(monkeypatch, at_zero=True)
        one = fock._layout(2 ** n, False)
        for kind in fock._KINDS:
            form = fock._basic(kind, a)
            assert form.layout is one
            assert _close(fock._whole(form), fock.super_basic(kind, a))
        monkeypatch.undo()
        _assert_gathered_match_whole(rng, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_draw_of_a_batch_keeps_the_bits_it_has_alone(rng, n):
    # blocks built from stacks of three draws, through every operation,
    # against the same operation on each draw's unbatched blocks
    a, m, c = (np.array([random_complex_matrix(rng, n) for _ in range(3)])
               for _ in range(3))
    scale = np.trace(c, axis1=-2, axis2=-1)
    lam, left = fock._liouvillian((a, m)), fock._basic("left", c)
    v = rng.standard_normal(4 ** n) + 1j * rng.standard_normal(4 ** n)
    prod = lam @ left - left @ lam
    exp = fock._expm(0.5 * lam)
    shifted = lam - scale * fock._identity(lam)
    for i in range(3):
        lam_i = fock._liouvillian(AffineGenerator(a[i], m[i]))
        left_i = fock._basic("left", c[i])
        prod_i = lam_i @ left_i - left_i @ lam_i
        assert np.array_equal(lam.data[i], lam_i.data)
        assert np.array_equal(left.data[i], left_i.data)
        assert np.array_equal(prod.data[i], prod_i.data)
        assert np.array_equal(exp.data[i], fock._expm(0.5 * lam_i).data)
        assert np.array_equal(shifted.data[i],
                              (lam_i - scale[i] * fock._identity(lam_i)).data)
        assert fock._norm(prod)[i] == np.linalg.norm(prod_i.data)
        assert np.array_equal((v @ lam)[i], v @ lam_i)
        assert np.array_equal((lam @ v)[i], lam_i @ v)
        assert np.array_equal(fock._whole(lam)[i], fock._whole(lam_i))


class TestDenseEvolveSectors:
    @staticmethod
    def _evolve_spied(monkeypatch, params, rho, t):
        """(dense_evolve's result, the all-sector product e^{tL} vec(rho),
        the shapes dense_evolve hands scipy.linalg.expm)."""
        gen = t * fock._liouvillian(params)
        full = fock.unvec(fock._expm(gen) @ fock.vec(rho))
        shapes = _expm_shapes(monkeypatch)
        return fock.dense_evolve(params, rho, t), full, shapes

    @pytest.mark.parametrize("n", [3, 4])
    def test_gaussian_state_takes_only_the_charge_zero_stack(
            self, rng, monkeypatch, n):
        params = random_gksl_params(rng, n)
        rho = fock.gaussian_density(
            GaussianState(random_correlation_matrix(rng, n)))
        out, full, shapes = self._evolve_spied(monkeypatch, params, rho, 0.7)
        assert shapes == [fock._layout(2 ** n, True).stacks[0][2]]
        assert np.array_equal(out, full)

    @pytest.mark.parametrize("n, p, q", [(3, 2, 1), (3, 0, 2), (4, 1, 3),
                                         (4, 2, 2)])
    def test_phi_element_takes_only_its_own_stack(self, rng, monkeypatch,
                                                  n, p, q):
        phi = opbasis.phi_element(
            [random_complex_matrix(rng, n)[0] for _ in range(p)],
            [random_complex_matrix(rng, n)[0] for _ in range(q)], n)
        params = AffineGenerator(random_complex_matrix(rng, n),
                                 np.zeros((n, n)))
        out, full, shapes = self._evolve_spied(monkeypatch, params, phi, 0.9)
        assert shapes == [fock._layout(2 ** n, True).stacks[abs(p - q)][2]]
        assert np.array_equal(out, full)

    def test_zero_operator_takes_no_exponential(self, rng, monkeypatch):
        params = random_gksl_params(rng, 3)
        out, _, shapes = self._evolve_spied(monkeypatch, params,
                                            np.zeros((8, 8)), 1.0)
        assert shapes == [] and not out.any()


class TestPhiBasisRankSectors:
    def test_family_matrix_builds_each_rank_one_term_list_once(
            self, rng, monkeypatch):
        n, calls, true_terms = 3, [], opbasis._rank_one_terms

        def spy(xi, eta):
            calls.append(1)
            return true_terms(xi, eta)

        monkeypatch.setattr(opbasis, "_rank_one_terms", spy)
        basis = [random_complex_matrix(rng, n)[0] for _ in range(n)]
        opbasis.phi_family_matrix(basis, basis[::-1])
        assert len(calls) == n * n

    @staticmethod
    def _svd_shapes(monkeypatch, n):
        shapes, true_svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return true_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        value = verify._worst("phi_basis_rank", np.random.default_rng(3), n, 1)
        monkeypatch.setattr(np.linalg, "svd", true_svd)
        return value, shapes

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_svd_per_sector(self, monkeypatch, n):
        value, shapes = self._svd_shapes(monkeypatch, n)
        sizes = [len(np.flatnonzero(fock._layout(2 ** n, True).charge == q))
                 for q in range(-n, n + 1)]
        assert shapes == [(m, m) for m in sizes]
        rng = np.random.default_rng(3)
        _, b = opbasis.phi_family_matrix(
            verify._random_vectors(rng, n, n), verify._random_vectors(rng, n, n))
        b = b / np.linalg.norm(b, axis=0, keepdims=True)
        whole = np.linalg.svd(b, compute_uv=False)[-1]
        assert abs(value - whole) <= 1e-12 * whole

    @pytest.mark.parametrize("n", [2, 3])
    def test_charge_breaking_annihilator_takes_the_whole_svd(
            self, monkeypatch, n):
        _perturbed_car(monkeypatch, at_zero=True)
        _, shapes = self._svd_shapes(monkeypatch, n)
        assert shapes == [(4 ** n, 4 ** n)]


class TestGaussianDensity:
    def test_single_mode_diagonal(self):
        r = 0.37
        rho = fock.gaussian_density(GaussianState([[r]]))
        assert np.linalg.norm(rho - np.diag([1 - r, r])) <= 1e-14

    def test_vanishing_occupation_limit_is_vacuum(self):
        rho = fock.gaussian_density(GaussianState(np.zeros((2, 2))))
        assert np.linalg.norm(rho - fock.vacuum_projector(2)) <= 1e-14
        small = fock.gaussian_density(GaussianState(1e-9 * np.eye(2)))
        assert np.linalg.norm(small - fock.vacuum_projector(2)) <= 1e-8

    def test_boundary_spectrum_product_form(self):
        rho = fock.gaussian_density(GaussianState(np.diag([0.0, 1.0])))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # mode 1 empty, mode 2 occupied
        assert np.linalg.norm(rho - expected) <= 1e-14

    def test_closed_form_and_product_form_agree(self, rng):
        r = random_correlation_matrix(rng, 3, lo=0.2, hi=0.8)
        closed = fock.gaussian_density(GaussianState(r))
        occ, vecs = np.linalg.eigh(r)
        product = np.eye(8, dtype=complex)
        for p, col in zip(occ, vecs.T):
            n_op = fock.smeared_creation(col) @ fock.smeared_annihilation(col)
            product = product @ ((1 - p) * (np.eye(8) - n_op) + p * n_op)
        assert np.linalg.norm(closed - product) <= 1e-12

    def test_expectations_reproduce_label(self, rng):
        r = random_correlation_matrix(rng, 3)
        rho = fock.gaussian_density(GaussianState(r))
        for _ in range(10):
            t_mat = random_hermitian(rng, 3)
            dense = np.trace(fock.quadratic_form(t_mat) @ rho)
            assert abs(dense - np.trace(t_mat @ r)) <= 1e-10


def _bit_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestStackedDensities:
    """`_densities` and `_correlations` against their one-draw cases on a
    stack that mixes interior draws with draws at the endpoints."""

    @staticmethod
    def _mixed_stack(rng, n):
        endpoints = [np.zeros((n, n)), 1e-9 * np.eye(n),
                     np.diag([0.0] * (n - 1) + [1.0]),
                     np.diag([1.0] + [0.3] * (n - 1))]
        rs = [m for e in endpoints
              for m in (random_correlation_matrix(rng, n), e)]
        return np.array([GaussianState(r).r for r in rs])

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_draw_has_the_bits_of_gaussian_density(
            self, monkeypatch, rng, n):
        rs = self._mixed_stack(rng, n)
        closed = []
        true_expm = scipy.linalg.expm

        def expm(a):
            closed.append(len(a))
            return true_expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", expm)
        rho = fock._densities(rs)
        # one exponential of the 4 random draws and 1e-9 I; the vacuum
        # and the draws with an occupied mode take the product form
        assert closed == [5]
        monkeypatch.undo()
        for k, r in enumerate(rs):
            alone = fock.gaussian_density(GaussianState(r))
            assert _bit_equal(rho[k], alone)
            assert _bit_equal(fock._densities(rs[k:k + 1])[0], alone)
        assert _bit_equal(rho[1], fock.vacuum_projector(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_draw_has_the_bits_of_read_correlations(self, rng, n):
        rho = fock._densities(self._mixed_stack(rng, n))
        # C-ordered, as densities come, and F-ordered, as unvec views are
        for stack in (rho, rho.swapaxes(-1, -2)):
            back = fock._correlations(stack)
            for k, d in enumerate(stack):
                assert _bit_equal(back[k], fock.read_correlations(d))
                assert _bit_equal(fock._correlations(stack[k:k + 1])[0],
                                  back[k])


class TestReadCorrelations:
    def test_vacuum_reads_zero(self):
        assert np.linalg.norm(fock.read_correlations(fock.vacuum_projector(3))) == 0.0

    def test_roundtrip(self, rng):
        r = random_correlation_matrix(rng, 3)
        back = fock.read_correlations(fock.gaussian_density(GaussianState(r)))
        assert np.max(np.abs(back - r)) <= 1e-11

    def test_fully_occupied_state_reads_identity(self):
        dim = 8
        rho = np.zeros((dim, dim), dtype=complex)
        rho[dim - 1, dim - 1] = 1.0
        assert np.linalg.norm(fock.read_correlations(rho) - np.eye(3)) <= 1e-13


def bracket_residual(a, n_mat, b, r_mat, n):
    """``|| [L(A,N), L(B,R)] - L([A,B], AR + RA^T - BN - NB^T) ||`` for
    the Majorana-form generators."""
    l1 = fock.majorana_liouvillian(a, n_mat)
    l2 = fock.majorana_liouvillian(b, r_mat)
    target = fock.majorana_liouvillian(
        a @ b - b @ a, a @ r_mat + r_mat @ a.T - b @ n_mat - n_mat @ b.T)
    return float(np.linalg.norm(l1 @ l2 - l2 @ l1 - target))


class TestMajorana:
    def test_anticommutation_precheck(self):
        w = fock.majorana_operators(2)
        eye = np.eye(4)
        worst = 0.0
        for j in range(4):
            for k in range(4):
                worst = max(worst, np.linalg.norm(
                    w[j] @ w[k] + w[k] @ w[j] - 2 * (j == k) * eye))
        assert worst <= 1e-14

    def test_hermitian(self):
        for w in fock.majorana_operators(2):
            assert np.linalg.norm(w - w.conj().T) == 0.0

    def test_identical_generators_commute(self, rng):
        a = rng.standard_normal((4, 4))
        n_mat = rng.standard_normal((4, 4))
        n_mat = (n_mat - n_mat.T) / 2
        assert bracket_residual(a, n_mat, a, n_mat, 2) <= 1e-12

    def test_random_quadruples(self, rng):
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            n_mat = rng.standard_normal((4, 4))
            r_mat = rng.standard_normal((4, 4))
            n_mat = (n_mat - n_mat.T) / 2
            r_mat = (r_mat - r_mat.T) / 2
            assert bracket_residual(a, n_mat, b, r_mat, 2) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_defining_triple_sum(self, rng, n):
        # the stored matrix applied to random operators against the literal
        # sum in the docstring, term by term
        w = fock.majorana_operators(n)
        two_n = 2 * n
        for _ in range(5):
            a = rng.standard_normal((two_n, two_n))
            n_mat = rng.standard_normal((two_n, two_n))
            n_mat = (n_mat - n_mat.T) / 2
            rho = random_complex_matrix(rng, 2 ** n)
            expected = sum(
                ((a - a.T)[j, k] / 2 * (w[j] @ w[k] @ rho - rho @ w[j] @ w[k])
                 + 1j * n_mat[j, k] * (w[j] @ w[k] @ rho + rho @ w[j] @ w[k])
                 + (-a - a.T + 2j * n_mat)[j, k] * w[j] @ rho @ w[k]) / 4
                for j in range(two_n) for k in range(two_n))
            mat = fock.majorana_liouvillian(a, n_mat)
            out = fock.unvec(mat @ fock.vec(rho))
            assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_symmetric_noise_rejected(self):
        with pytest.raises(ValidationError):
            fock.majorana_liouvillian(np.eye(4), np.eye(4))

    @pytest.mark.parametrize("a, n_mat", [
        (np.zeros((3, 3)), np.zeros((3, 3))),
        (np.zeros((4, 4)), np.zeros((2, 2))),
        (np.zeros((4, 2)), np.zeros((4, 2))),
    ], ids=["odd", "mismatched", "non-square"])
    def test_shape_rejected(self, a, n_mat):
        with pytest.raises(ValidationError, match="2n x 2n"):
            fock.majorana_liouvillian(a, n_mat)
