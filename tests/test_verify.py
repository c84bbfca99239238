"""The identity suite's row list, its reduction, and planted bugs."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from quadferm import affine, fock, opbasis, verify
from quadferm.cli import main
from quadferm.gaussian import GaussianState, entropy
from quadferm.linalg import mat_exp

# (name, identity, comparison) of every row, in CSV order.
ROWS = [
    ("left_left", "[left(C), left(D)] = left([C,D])", "<="),
    ("right_right", "[right(C), right(D)] = -right([C,D])", "<="),
    ("left_loss", "[left(C), loss(D)] = -loss(DC)", "<="),
    ("right_loss", "[right(C), loss(D)] = -loss(CD)", "<="),
    ("left_gain", "[left(C), gain(D)] = gain(CD)", "<="),
    ("right_gain", "[right(C), gain(D)] = gain(DC)", "<="),
    ("left_right", "[left(C), right(D)] = 0", "<="),
    ("loss_loss", "[loss(C), loss(D)] = 0", "<="),
    ("gain_gain", "[gain(C), gain(D)] = 0", "<="),
    ("loss_gain", "[loss(C), gain(D)] = tr(CD) - left(DC) - right(CD)", "<="),
    ("generator_commutator",
     "[L(A,M), L(B,N)] = L([A,B], AN + NA' - BM - MB')", "<="),
    ("aux_fl_fl",
     "[(left-loss)(C), (left-loss)(D)] = (left-loss)([C,D])", "<="),
    ("aux_bl_bl",
     "[(right-loss)(C), (right-loss)(D)] = -(right-loss)([C,D])", "<="),
    ("aux_fl_bl", "[(left-loss)(C), (right-loss)(D)] = 0", "<="),
    ("aux_fl_s", "[(left-loss)(C), S(D)] = S(CD) - tr(CD),"
                 " S = left+right-loss+gain", "<="),
    ("aux_bl_s", "[(right-loss)(C), S(D)] = S(DC) - tr(DC)", "<="),
    ("aux_s_s", "[S(C), S(D)] = 0", "<="),
    ("trace_preservation", "Tr(L(A,M) rho) = 0", "<="),
    ("vacuum_invariance", "L(A,O) vacuum = 0", "<="),
    ("semigroup_factorization",
     "exp(tL(A,M)) = exp(L(O, int_0^t e^{sA}M e^{sA'} ds)) exp(tL(A,O))",
     "<="),
    ("noise_conjugation",
     "exp(tL(A,O)) L(O,M) = L(O, e^{tA}M e^{tA'}) exp(tL(A,O))", "<="),
    ("translation_conjugation",
     "exp(L(O,T)) L(A,M) = L(A, M - AT - TA') exp(L(O,T))", "<="),
    ("gain_intertwining",
     "exp(tL(-M/2,M)) gain(T) = gain(e^{tM/2} T e^{tM/2}) exp(tL(-M/2,M))",
     "<="),
    ("rank_one_nilpotency", "L(O, xi eta')^2 = 0", "<="),
    ("quadratic_expectation", "Tr[(c,Tc) rho_R] = tr(TR)", "<="),
    ("density_unit_trace",
     "Tr[det(I-R) exp((c, log(R(I-R)^-1) c))] = 1", "<="),
    ("correlation_roundtrip", "read_correlations(density(R)) = R", "<="),
    ("gaussian_entropy",
     "-tr(R log R) - tr((I-R) log(I-R)) = -Tr[rho log rho]", "<="),
    ("fast_path_evolution",
     "corr(exp(tL(A,M)) rho_R) = e^{tA} R e^{tA'} + noise integral", "<="),
    ("phi_antisymmetry", "phi is antisymmetric in each argument list", "<="),
    ("phi_pi_roundtrip",
     "phi <-> pi permutation expansions agree with direct builds", "<="),
    ("phi_basis_rank",
     "the 4^n dressed elements over two bases span the operator space", ">="),
    ("phi_evolution_covariance",
     "exp(tL(A,O)) phi(xi; eta) = phi(e^{tA} xi; e^{tA} eta)", "<="),
    ("majorana_commutator",
     "[L(A,N), L(B,R)] = L([A,B], AR + RA^T - BN - NB^T)  (Majorana form)",
     "<="),
]

NAN_ROWS = ("left_left", "phi_basis_rank")


def test_check_list_is_pinned():
    assert len(ROWS) == 34
    assert verify.check_names() == [name for name, _, _ in ROWS]
    results = verify.run_suite(n=1, draws=1)
    assert [(r.name, r.identity, r.comparison) for r in results] == ROWS


def test_check_below_its_mode_count_is_skipped_without_drawing(monkeypatch):
    def sentinel(rng, n, draws):
        raise AssertionError("a skipped check drew")

    monkeypatch.setattr(verify, "_REGISTRY", tuple(
        dataclasses.replace(c, fn=sentinel) if c.name == "phi_antisymmetry"
        else c for c in verify._REGISTRY))
    res = {r.name: r for r in verify.run_suite(n=1, draws=2)}
    skip = res.pop("phi_antisymmetry")
    assert skip.skipped and skip.passed and math.isnan(skip.value)
    assert skip.status == "skip"
    assert all(r.status == "pass" for r in res.values())
    monkeypatch.undo()
    row = {r.name: r for r in verify.run_suite(n=2, draws=2)}
    phi = row["phi_antisymmetry"]
    assert not phi.skipped and phi.status == "pass" and phi.value < 1e-12


def _phi_antisymmetry_by_three_builds(rng, n):
    """The row's draw as three `phi_element` calls, one table each."""
    xis = verify._random_vectors(rng, n, 2)
    etas = verify._random_vectors(rng, n, 2)
    plain = opbasis.phi_element(xis, etas, n)
    xi_swapped = opbasis.phi_element(xis[::-1], etas, n)
    eta_swapped = opbasis.phi_element(xis, etas[::-1], n)
    return [float(np.linalg.norm(plain + xi_swapped)),
            float(np.linalg.norm(plain + eta_swapped))]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_phi_antisymmetry_from_one_table_is_bit_identical(n, seed):
    # the suite's stream for the row, and its draw count at n >= 4
    idx = verify.check_names().index("phi_antisymmetry")
    one, three = (np.random.default_rng([seed, idx]) for _ in range(2))
    assert verify._check_phi_antisymmetry(one, n, 3).tolist() \
        == [_phi_antisymmetry_by_three_builds(three, n) for _ in range(3)]


def _plant_nan_on_second_draw(monkeypatch, names):
    def plant(fn):
        def row(rng, n, draws):
            values = np.array(fn(rng, n, draws), dtype=float)
            values[1] = math.nan
            return values
        return row

    monkeypatch.setattr(verify, "_REGISTRY", tuple(
        dataclasses.replace(c, fn=plant(c.fn)) if c.name in names else c
        for c in verify._REGISTRY))


class TestNanResidual:
    def test_suite_reports_nan_as_failure(self, monkeypatch):
        _plant_nan_on_second_draw(monkeypatch, NAN_ROWS)
        results = verify.run_suite(n=2, draws=3)
        for res in results:
            if res.name in NAN_ROWS:
                assert math.isnan(res.value) and not res.passed, res
            else:
                assert res.passed, res

    def test_cli_writes_nan_rows_and_exits_three(self, monkeypatch, tmp_path):
        _plant_nan_on_second_draw(monkeypatch, NAN_ROWS)
        out = tmp_path / "verify.csv"
        assert main(["verify", "--n", "2", "--draws", "3",
                     "--out", str(out)]) == 3
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#")]
        rows = {row[0]: row for row in csv.reader(lines[1:])}
        for name in NAN_ROWS:
            assert rows[name][2] == "nan" and rows[name][-1] == "fail"
        assert [r[0] for r in rows.values() if r[-1] == "fail"] \
            == list(NAN_ROWS)


@pytest.mark.parametrize("comparison, expected", [("<=", 3.0), (">=", 0.125)])
def test_worst_reduces_every_value_of_every_draw(monkeypatch, comparison,
                                                 expected):
    calls = []

    def row(rng, n, draws):
        calls.append(draws)
        return np.array([[0.25, 3.0], [1.0, 1.0], [0.5, 0.125]])
    probe = verify._Check("probe", "", 1.0, comparison, row, 50)
    monkeypatch.setattr(verify, "_REGISTRY", (probe,))
    assert verify._worst("probe", None, 1, 3) == expected
    assert calls == [3]


def _bits(values) -> tuple:
    """Shape and bytes of residuals, every NaN read as the one NaN."""
    values = np.asarray(values, dtype=float)
    return values.shape, np.where(np.isnan(values), np.nan, values).tobytes()


@pytest.mark.parametrize("name, n", [
    (c.name, n) for c in verify._REGISTRY for n in (1, 2, 3) if n >= c.min_n])
def test_a_batch_of_draws_equals_its_draws_one_by_one(name, n):
    # the invariant behind bit-identical suites: k draws at once read the
    # stream as k single draws do, and each draw keeps its bits
    check = {c.name: c for c in verify._REGISTRY}[name]
    idx = verify.check_names().index(name)
    for k in range(1, 5):
        batched, single = (np.random.default_rng([5, idx, k]) for _ in range(2))
        values = check.fn(batched, n, k)
        assert len(values) == k
        assert _bits(values) == _bits(
            np.concatenate([check.fn(single, n, 1) for _ in range(k)]))
        assert batched.random() == single.random()


def _gaussian_one_draw(rng, n):
    """One draw's R and its density, from the public one-draw functions."""
    r = verify.random_correlation_matrix(rng, n)
    return r, fock.gaussian_density(GaussianState(r))


def _quadratic_expectation_gap(rng, n):
    r, rho = _gaussian_one_draw(rng, n)
    t_mat = verify.random_hermitian(rng, n)
    return np.trace(fock.quadratic_form(t_mat) @ rho) - np.trace(t_mat @ r)


def _density_unit_trace_gap(rng, n):
    return np.trace(_gaussian_one_draw(rng, n)[1]) - 1.0


@pytest.mark.parametrize("name, gap", [
    ("quadratic_expectation", _quadratic_expectation_gap),
    ("density_unit_trace", _density_unit_trace_gap)])
def test_complex_gap_rows_give_the_bits_of_python_abs(name, gap):
    # numpy's vectorized np.abs of a complex array is not Python's abs bit
    # for bit; each draw's residual is abs of that draw's own complex gap
    idx = verify.check_names().index(name)
    row, one = (np.random.default_rng([7, idx]) for _ in range(2))
    check = {c.name: c for c in verify._REGISTRY}[name]
    assert _bits(check.fn(row, 3, 20)) \
        == _bits([abs(gap(one, 3)) for _ in range(20)])


def _correlation_roundtrip_one_draw(rng, n):
    r, rho = _gaussian_one_draw(rng, n)
    return float(np.max(np.abs(fock.read_correlations(rho) - r)))


def _gaussian_entropy_one_draw(rng, n):
    r, rho = _gaussian_one_draw(rng, n)
    eigs = np.linalg.eigvalsh(rho)
    dense = -np.sum(eigs * np.log(np.clip(eigs, 1e-300, None)))
    return abs(dense - entropy(GaussianState(r)))


@pytest.mark.parametrize("name, one_draw", [
    ("correlation_roundtrip", _correlation_roundtrip_one_draw),
    ("gaussian_entropy", _gaussian_entropy_one_draw)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_gaussian_rows_equal_the_public_one_draw_functions(name, one_draw, n,
                                                           seed):
    # the rows check, build and read back all draws as one stack; each
    # draw keeps the bits of GaussianState, gaussian_density,
    # read_correlations and entropy on that draw alone, as the complex gap
    # rows keep the bits of their one-draw gaps above
    idx = verify.check_names().index(name)
    row, one = (np.random.default_rng([seed, idx]) for _ in range(2))
    check = {c.name: c for c in verify._REGISTRY}[name]
    assert _bits(check.fn(row, n, check.draw_cap)) \
        == _bits([one_draw(one, n) for _ in range(check.draw_cap)])
    assert row.random() == one.random()


def _phi_pi_roundtrip_one_draw(rng, n):
    """The row's draw read as one draw: both list lengths, then vectors."""
    p_len = int(rng.integers(0, n + 1))
    q_len = int(rng.integers(0, n + 1))
    xis = verify._random_vectors(rng, n, p_len)
    etas = verify._random_vectors(rng, n, q_len)
    return [float(np.linalg.norm(opbasis.phi_element(xis, etas, n)
                                 - opbasis.phi_from_pi(xis, etas, n))),
            float(np.linalg.norm(opbasis.pi_element(xis, etas, n)
                                 - opbasis.pi_from_phi(xis, etas, n)))]


def _phi_evolution_one_draw(rng, n):
    """The row's draw read as one draw: the drift, both list lengths, then
    vectors."""
    a = verify.random_complex_matrix(rng, n)
    p_len = int(rng.integers(1, n + 1))
    q_len = int(rng.integers(0, n + 1))
    xis = verify._random_vectors(rng, n, p_len)
    etas = verify._random_vectors(rng, n, q_len)
    t = 0.9
    lhs = fock.dense_evolve(
        affine.AffineGenerator(a, np.zeros((n, n), dtype=complex)),
        opbasis.phi_element(xis, etas, n), t)
    rot = mat_exp(t * a)
    return float(np.linalg.norm(lhs - opbasis.phi_element(
        [rot @ v for v in xis], [rot @ v for v in etas], n)))


@pytest.mark.parametrize("name, one_draw", [
    ("phi_pi_roundtrip", _phi_pi_roundtrip_one_draw),
    ("phi_evolution_covariance", _phi_evolution_one_draw)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_phi_rows_read_their_draws_in_one_draw_order(name, one_draw, n,
                                                     seed):
    # Generator.integers serves small ints from buffered 32-bit halves, so
    # reading a vector before the second length changes the stream
    idx = verify.check_names().index(name)
    row, one = (np.random.default_rng([seed, idx]) for _ in range(2))
    check = {c.name: c for c in verify._REGISTRY}[name]
    assert _bits(check.fn(row, n, check.draw_cap)) \
        == _bits([one_draw(one, n) for _ in range(check.draw_cap)])
    assert row.random() == one.random()


def _flip_bracket_drift(monkeypatch):
    true_bracket = affine.bracket

    def flipped_drift(p, q):
        g = true_bracket(p, q)
        return affine.AffineGenerator(-g.a, g.m)

    monkeypatch.setattr(affine, "bracket", flipped_drift)


def test_planted_bracket_sign_bug_fails_generator_commutator(monkeypatch):
    _flip_bracket_drift(monkeypatch)
    failed = [r.name for r in verify.run_suite(n=2) if not r.passed]
    assert "generator_commutator" in failed


def test_planted_bracket_sign_bug_fails_on_sector_blocks(monkeypatch):
    # the generators are gathered as charge-sector blocks
    _flip_bracket_drift(monkeypatch)
    rng = np.random.default_rng(7)
    tol = {c.name: c.tolerance for c in verify._REGISTRY}["generator_commutator"]
    assert verify._super_lam(np.eye(4), np.eye(4)).layout \
        is fock._layout(16, True)
    assert verify._worst("generator_commutator", rng, 4, 3) > tol


def test_fast_path_evolution_holds_at_five_modes():
    # one draw on 1024 x 1024 superoperators, the largest the oracle takes
    tol = {c.name: c.tolerance for c in verify._REGISTRY}["fast_path_evolution"]
    rng = np.random.default_rng(7)
    assert verify._worst("fast_path_evolution", rng, 5, 1) <= tol


def _suite_without_parity_strings(monkeypatch, n):
    """(whether loss(I) is gathered as charge-sector blocks, run_suite
    rows) with the parity strings of the annihilators dropped."""
    monkeypatch.setattr(fock, "_PARITY", np.eye(2, dtype=complex))
    fock._car.cache_clear()
    try:
        blocks = verify._basic_map("loss")(np.eye(n)).layout \
            is fock._layout(2 ** n, True)
        return blocks, verify.run_suite(n=n, draws=3)
    finally:
        monkeypatch.undo()
        fock._car.cache_clear()


def _phi_rows_failed(results) -> set:
    return {r.name for r in results if not r.passed
            and r.name in ("phi_antisymmetry", "phi_pi_roundtrip")}


def test_dropped_parity_string_fails(monkeypatch):
    # every term still keeps charge, so the suite runs on blocks; at n = 2
    # only phi_antisymmetry of the two phi rows sees it (3.48 at seed 7):
    # phi_pi_roundtrip reads 8.9e-16, since at P, Q <= 2 commuting modes
    # still satisfy the subset expansion
    blocks, results = _suite_without_parity_strings(monkeypatch, 2)
    assert blocks and _phi_rows_failed(results) == {"phi_antisymmetry"}


def test_dropped_parity_string_fails_on_sector_blocks(monkeypatch):
    # from n = 3 both phi rows fail: phi_antisymmetry reads 22.1 and 31.2,
    # phi_pi_roundtrip 12.1 and 196 at n = 3 and 4, seed 7
    for n in (3, 4):
        blocks, results = _suite_without_parity_strings(monkeypatch, n)
        assert blocks and _phi_rows_failed(results) == {"phi_antisymmetry",
                                                        "phi_pi_roundtrip"}


@pytest.mark.parametrize("name, exponentials, on_vector", [
    # both propagators once, then one noise exponential per time (0.375,
    # 0.75, 1.5, 3): the later propagators are squares
    ("semigroup_factorization", 2 + 4, False),
    ("translation_conjugation", 1, False),
    # the charge-0 stack once, at t = 0.5; t = 2 is three more products
    ("fast_path_evolution", 1, True)])
def test_exponentiating_rows_take_each_exponential_once(
        monkeypatch, name, exponentials, on_vector):
    calls = []
    true_expm = fock._expm

    def counting(s, v=None):
        calls.append(v is not None)
        return true_expm(s, v)

    monkeypatch.setattr(fock, "_expm", counting)
    verify._worst(name, np.random.default_rng(7), 2, 3)
    assert calls == [on_vector] * exponentials


def _plant_bracket(monkeypatch, broken):
    true_bracket = affine.bracket
    monkeypatch.setattr(affine, "bracket",
                        lambda p, q: broken(p, q, true_bracket(p, q)))


@pytest.mark.parametrize("broken", [
    # a sign error in one term of the translated noise: M - AT + TA'
    lambda p, q, g: affine.AffineGenerator(g.a, g.m + 2 * p.m @ q.a.conj().T),
    # the bracket's sign: M + AT + TA'.  The drift-only flip above cannot
    # reach this row: the bracket of (O, T) with (A, M) has drift [O, A] = 0
    lambda p, q, g: affine.AffineGenerator(-g.a, -g.m)],
    ids=["translated-noise-sign", "bracket-sign"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_planted_translation_bugs_fail_translation_conjugation(
        monkeypatch, broken, n):
    _plant_bracket(monkeypatch, broken)
    name = "translation_conjugation"
    tol = {c.name: c.tolerance for c in verify._REGISTRY}[name]
    rng = np.random.default_rng([7, verify.check_names().index(name)])
    assert verify._worst(name, rng, n, 3) > tol
