"""The identity suite's row list, its reduction, and planted bugs."""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from quadferm import affine, fock, opbasis, verify
from quadferm.cli import main

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
     "exp(L(O,T)) L(A,M) exp(-L(O,T)) = L(A, M - AT - TA')", "<="),
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
    def sentinel(rng, n):
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
    for _ in range(3):
        assert verify._check_phi_antisymmetry(one, n) \
            == _phi_antisymmetry_by_three_builds(three, n)


def _plant_nan_on_second_draw(monkeypatch, names):
    def plant(fn):
        calls = itertools.count(1)

        def draw(rng, n):
            value = fn(rng, n)
            return math.nan if next(calls) == 2 else value
        return draw

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
    values = iter([[0.25, 3.0], 1.0, [0.5, 0.125]])
    probe = verify._Check("probe", "", 1.0, comparison,
                          lambda rng, n: next(values), 50)
    monkeypatch.setattr(verify, "_REGISTRY", (probe,))
    assert verify._worst("probe", None, 1, 3) == expected


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
    # at n = 4 the generators are assembled as charge-sector blocks
    _flip_bracket_drift(monkeypatch)
    rng = np.random.default_rng(7)
    tol = {c.name: c.tolerance for c in verify._REGISTRY}["generator_commutator"]
    assert isinstance(verify._super_lam(np.eye(4), np.eye(4)), fock._Blocks)
    assert verify._worst("generator_commutator", rng, 4, 3) > tol


def test_fast_path_evolution_holds_at_five_modes():
    # one draw on 1024 x 1024 superoperators, the largest the oracle takes
    tol = {c.name: c.tolerance for c in verify._REGISTRY}["fast_path_evolution"]
    rng = np.random.default_rng(7)
    assert verify._worst("fast_path_evolution", rng, 5, 1) <= tol


def _suite_without_parity_strings(monkeypatch, n):
    """(whether loss(I) is assembled as sector blocks, run_suite rows) with
    the parity strings of the annihilators dropped."""
    monkeypatch.setattr(fock, "_PARITY", np.eye(2, dtype=complex))
    fock._car.cache_clear()
    try:
        blocks = isinstance(verify._basic_map("loss")(np.eye(n)), fock._Blocks)
        return blocks, verify.run_suite(n=n, draws=3)
    finally:
        monkeypatch.undo()
        fock._car.cache_clear()


def test_dropped_parity_string_fails(monkeypatch):
    _, results = _suite_without_parity_strings(monkeypatch, 2)
    assert any(not r.passed for r in results)


def test_dropped_parity_string_fails_on_sector_blocks(monkeypatch):
    # every term still keeps charge, so at n = 4 the suite runs on blocks
    blocks, results = _suite_without_parity_strings(monkeypatch, 4)
    assert blocks and any(not r.passed for r in results)
