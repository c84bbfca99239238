import copy
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
import pytest
import scipy.linalg

from quadferm import fock, opbasis, verify
from quadferm.affine import AffineGenerator
from quadferm.errors import ValidationError
from quadferm.gaussian import GaussianState, asymptotic_decomposition
from quadferm.linalg import mat_exp
from quadferm.verify import (random_complex_matrix, random_density_matrix,
                             random_hermitian, random_psd)


def rand_vec(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


class TestElements:
    def test_empty_lists_give_vacuum(self):
        for n in (1, 2, 3):
            assert np.array_equal(opbasis.phi_element([], [], n),
                                  fock.vacuum_projector(n))
            assert np.array_equal(opbasis.pi_element([], [], n),
                                  fock.vacuum_projector(n))

    def test_one_sided_elements_coincide(self, rng):
        n = 3
        xis = [rand_vec(rng, n) for _ in range(2)]
        etas = [rand_vec(rng, n) for _ in range(2)]
        assert np.array_equal(opbasis.phi_element(xis, [], n),
                              opbasis.pi_element(xis, [], n))
        assert np.array_equal(opbasis.phi_element([], etas, n),
                              opbasis.pi_element([], etas, n))

    def test_antisymmetry_under_swaps(self, rng):
        n = 3
        for _ in range(5):
            xis = [rand_vec(rng, n) for _ in range(2)]
            etas = [rand_vec(rng, n) for _ in range(2)]
            base = opbasis.phi_element(xis, etas, n)
            assert np.linalg.norm(base + opbasis.phi_element(xis[::-1], etas, n)) <= 1e-12
            assert np.linalg.norm(base + opbasis.phi_element(xis, etas[::-1], n)) <= 1e-12

    def test_single_pair_closed_form(self, rng):
        # one creation and one annihilation argument: the dressed element is
        # the plain one minus the pairing times the vacuum
        n = 2
        xi, eta = rand_vec(rng, n), rand_vec(rng, n)
        lhs = opbasis.phi_element([xi], [eta], n)
        rhs = opbasis.pi_element([xi], [eta], n) \
            - np.vdot(eta, xi) * fock.vacuum_projector(n)
        assert np.linalg.norm(lhs - rhs) <= 1e-13

    def test_rank_one_generator_is_nilpotent(self, rng):
        n = 3
        for _ in range(5):
            xi, eta = rand_vec(rng, n), rand_vec(rng, n)
            params = AffineGenerator(np.zeros((n, n)),
                                     np.outer(xi, eta.conj()))
            gen = fock.super_liouvillian(params)
            assert np.linalg.norm(gen @ gen) <= 1e-13

    def test_too_many_vectors_rejected(self, rng):
        with pytest.raises(ValidationError):
            opbasis.phi_element([rand_vec(rng, 2)] * 3, [], 2)


class TestConversions:
    def test_standard_basis_term_by_term(self, rng):
        n = 2
        e = np.eye(n, dtype=complex)
        for xis, etas in (
            ([e[0]], [e[0]]),
            ([e[0], e[1]], [e[0]]),
            ([e[0]], [e[0], e[1]]),
            ([e[0], e[1]], [e[0], e[1]]),
        ):
            direct = opbasis.phi_element(xis, etas, n)
            expanded = opbasis.phi_from_pi(xis, etas, n)
            assert np.linalg.norm(direct - expanded) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_roundtrip_on_random_vectors(self, rng, n):
        for _ in range(5):
            p_len = int(rng.integers(0, n + 1))
            q_len = int(rng.integers(0, n + 1))
            xis = [rand_vec(rng, n) for _ in range(p_len)]
            etas = [rand_vec(rng, n) for _ in range(q_len)]
            assert np.linalg.norm(
                opbasis.phi_element(xis, etas, n)
                - opbasis.phi_from_pi(xis, etas, n)) <= 1e-11
            assert np.linalg.norm(
                opbasis.pi_element(xis, etas, n)
                - opbasis.pi_from_phi(xis, etas, n)) <= 1e-11


def _perm_sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def permutation_expansion(xis, etas, n, dressed):
    """The paper's conversion as written: a sum over permutations sigma,
    tau of the two lists and pairing counts p, each term an element built
    directly.  Over phi elements (``dressed``) it gives pi; over pi
    elements, with the sign alternating in p, it gives phi.  The slow
    reference for `opbasis._pairing_expansion`."""
    element = opbasis.phi_element if dressed else opbasis.pi_element
    p_len, q_len = len(xis), len(etas)
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for sigma in permutations(range(p_len)):
        for tau in permutations(range(q_len)):
            for p in range(min(p_len, q_len) + 1):
                coeff = _perm_sign(sigma) * _perm_sign(tau) / (
                    factorial(p) * factorial(p_len - p) * factorial(q_len - p))
                if not dressed:
                    coeff *= (-1) ** p
                for j in range(p):
                    coeff *= np.vdot(etas[tau[j]], xis[sigma[j]])
                total += coeff * element([xis[j] for j in sigma[p:]],
                                         [etas[k] for k in tau[p:]], n)
    return total


def _lists(rng, n):
    for p_len in range(n + 1):
        for q_len in range(n + 1):
            yield ([rand_vec(rng, n) for _ in range(p_len)],
                   [rand_vec(rng, n) for _ in range(q_len)])


class TestSubsetExpansion:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_permutation_sum(self, rng, n):
        for xis, etas in _lists(rng, n):
            for convert, dressed in ((opbasis.phi_from_pi, False),
                                     (opbasis.pi_from_phi, True)):
                ref = permutation_expansion(xis, etas, n, dressed)
                got = convert(xis, etas, n)
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reads_each_element_once(self, rng, monkeypatch, n):
        """C(P+Q, P) elements, each built once; the permutation walk reads
        P! Q! (min(P, Q) + 1)."""
        reads, builds = [], []
        true_call, true_build = opbasis._Elements.__call__, opbasis._Elements._build

        def call(table, s, t):
            reads.append((s, t))
            return true_call(table, s, t)

        def build(table, s, t):
            builds.append((s, t))
            return true_build(table, s, t)

        monkeypatch.setattr(opbasis._Elements, "__call__", call)
        monkeypatch.setattr(opbasis._Elements, "_build", build)
        for xis, etas in _lists(rng, n):
            expected = comb(len(xis) + len(etas), len(xis))
            for convert in (opbasis.phi_from_pi, opbasis.pi_from_phi):
                reads.clear()
                builds.clear()
                convert(xis, etas, n)
                assert len(builds) == len(set(builds)) == expected
                if convert is opbasis.phi_from_pi:
                    # a pi element reads no other, so each read is one term
                    assert len(reads) == expected

    def test_shuffle_sign(self):
        for size in range(5):
            for r in range(size + 1):
                for sub in combinations(range(size), r):
                    rest = tuple(j for j in range(size) if j not in sub)
                    assert opbasis._shuffle_sign(sub, size) \
                        == _perm_sign(rest + sub)


class TestFamily:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_rank(self, rng, n):
        xi_basis = [rand_vec(rng, n) for _ in range(n)]
        eta_basis = [rand_vec(rng, n) for _ in range(n)]
        _, b = opbasis.phi_family_matrix(xi_basis, eta_basis)
        b = b / np.linalg.norm(b, axis=0, keepdims=True)
        assert np.linalg.svd(b, compute_uv=False)[-1] > 1e-8

    def test_expansion_reconstructs(self, rng):
        n = 2
        basis = [rand_vec(rng, n) for _ in range(n)]
        rho = random_complex_matrix(rng, 4)
        labels, coeffs, b = opbasis._expand_in_phi(rho, basis, basis)
        assert len(labels) == 16
        assert np.linalg.norm(fock.unvec(b @ coeffs) - rho) <= 1e-11

    def test_expansion_of_another_size_rejected(self, rng):
        basis = [rand_vec(rng, 2) for _ in range(2)]
        with pytest.raises(ValidationError, match="3-mode"):
            opbasis._expand_in_phi(np.eye(8), basis, basis)

    def test_bases_of_different_counts_rejected(self, rng):
        xi_basis = [rand_vec(rng, 2) for _ in range(2)]
        with pytest.raises(ValidationError):
            opbasis.phi_family_matrix(xi_basis, xi_basis[:1])
        with pytest.raises(ValidationError):
            opbasis.phi_family_matrix(xi_basis[:1], xi_basis)
        with pytest.raises(ValidationError, match="mode count"):
            opbasis.phi_family_matrix([], [])


def covariance_residual(a, xis, etas, t, n):
    """``|| e^{tL(A,O)} phi(xi; eta) - phi(e^{tA} xi; e^{tA} eta) ||``."""
    lhs = fock.dense_evolve(AffineGenerator(a, np.zeros((n, n))),
                            opbasis.phi_element(xis, etas, n), t)
    rot = mat_exp(t * a)
    rhs = opbasis.phi_element([rot @ v for v in xis],
                              [rot @ v for v in etas], n)
    return float(np.linalg.norm(lhs - rhs))


class TestEvolutionCovariance:
    def test_time_zero(self, rng):
        n = 2
        xis = [rand_vec(rng, n)]
        etas = [rand_vec(rng, n)]
        a = random_complex_matrix(rng, n)
        assert covariance_residual(a, xis, etas, 0.0, n) <= 1e-13

    def test_empty_lists_stay_at_vacuum(self, rng):
        n = 2
        a = random_complex_matrix(rng, n)
        assert covariance_residual(a, [], [], 1.5, n) <= 1e-12

    def test_random_arguments(self, rng):
        n = 3
        for _ in range(3):
            a = random_complex_matrix(rng, n)
            xis = [rand_vec(rng, n) for _ in range(2)]
            etas = [rand_vec(rng, n)]
            assert covariance_residual(a, xis, etas, 0.8, n) <= 1e-10

    def test_same_value_as_exponentiating_the_generator(self, rng):
        # the verify row's left side is fock.dense_evolve; spelled out here
        # as exp(t L(A, O)), by the oracle's one superoperator exponential,
        # on the vectorized element of the same draw, it gives the same bits
        n, t = 2, 0.9
        twin = copy.deepcopy(rng)
        a = random_complex_matrix(twin, n)
        p_len = int(twin.integers(1, n + 1))
        q_len = int(twin.integers(0, n + 1))
        xis = [rand_vec(twin, n) for _ in range(p_len)]
        etas = [rand_vec(twin, n) for _ in range(q_len)]
        prop = fock._expm(
            t * fock._liouvillian(AffineGenerator(a, np.zeros((n, n)))))
        lhs = fock.unvec(prop @ fock.vec(opbasis.phi_element(xis, etas, n)))
        rot = scipy.linalg.expm(t * a)
        rhs = opbasis.phi_element([rot @ v for v in xis], [rot @ v for v in etas], n)
        expected = float(np.linalg.norm(lhs - rhs))
        assert verify._check_phi_evolution(rng, n, 1).tolist() == [expected]


class TestPersistentProjection:
    def _decomposition(self, rng):
        h2 = random_hermitian(rng, 2)
        d2 = random_psd(rng, 2) + 0.4 * np.eye(2)
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 0.9j
        a[1:, 1:] = -1j * h2 - d2
        return a, asymptotic_decomposition(AffineGenerator(a, 0 * a),
                                           GaussianState.vacuum(3))

    def test_matches_damped_semigroup_limit(self, rng):
        a, dec = self._decomposition(rng)
        rho = random_density_matrix(rng, 8)
        projected = opbasis.project_persistent(rho, dec.p0)
        zero = np.zeros((3, 3))
        a_minus = a - dec.a0_flow.a
        prop = scipy.linalg.expm(
            80.0 * fock.super_liouvillian(AffineGenerator(a_minus, zero)))
        limit = fock.unvec(prop @ fock.vec(rho))
        assert np.linalg.norm(projected - limit) <= 1e-10

    def test_idempotent(self, rng):
        _, dec = self._decomposition(rng)
        rho = random_density_matrix(rng, 8)
        once = opbasis.project_persistent(rho, dec.p0)
        twice = opbasis.project_persistent(once, dec.p0)
        assert np.linalg.norm(twice - once) <= 1e-11

    def test_trivial_projector_keeps_only_vacuum(self, rng):
        rho = random_density_matrix(rng, 4)
        out = opbasis.project_persistent(rho, np.zeros((2, 2)))
        assert np.linalg.norm(out - fock.vacuum_projector(2)) <= 1e-12

    def test_non_fock_dimension_rejected(self):
        with pytest.raises(ValidationError):
            opbasis.project_persistent(np.eye(6), np.eye(3))

    def test_projector_of_another_size_rejected(self):
        with pytest.raises(ValidationError):
            opbasis.project_persistent(fock.vacuum_projector(2), np.eye(3))

    @pytest.mark.parametrize("p0", [
        np.zeros((2, 3)), np.array([[1.0, 1.0], [0.0, 0.0]]), 0.5 * np.eye(2),
    ], ids=["non-square", "idempotent-non-hermitian", "hermitian-non-idempotent"])
    def test_non_projector_rejected(self, p0):
        with pytest.raises(ValidationError, match="projector"):
            opbasis.project_persistent(fock.vacuum_projector(2), p0)

    def test_full_projector_is_identity(self, rng):
        rho = random_density_matrix(rng, 4)
        out = opbasis.project_persistent(rho, np.eye(2))
        assert np.linalg.norm(out - rho) <= 1e-11
