"""Acceptance gate: one test per criterion, at the stated tolerance.

Every claim the library rests on is checked against the brute-force dense
oracle at desk scale.  Each test prints a single pass/fail summary line
(visible with `pytest -s`; with `-v` the test name itself is the line).
"""

import subprocess
import sys
import time

import numpy as np
import scipy.linalg

from quadferm import fock, opbasis, verify
from quadferm.affine import AffineGenerator
from quadferm.gaussian import (GaussianState, asymptotic_decomposition,
                               steady_state)
from quadferm.linalg import hermitize
from quadferm.skin import (HatanoNelsonParams, build_bath, featureless_choice,
                           localization_slope, steady_profile)

LEMMA_CHECKS = [
    "left_left", "right_right", "left_loss", "right_loss", "left_gain",
    "right_gain", "left_right", "loss_loss", "gain_gain", "loss_gain",
]


def _report(num, label, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {flag}: {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


def test_criterion_01_basic_commutator_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        for idx, name in enumerate(LEMMA_CHECKS):
            rng = np.random.default_rng([101, n, idx])
            worst = np.maximum(worst, verify._worst(name, rng, n, 50))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 30
    _report(1, "ten basic commutation relations, 50 pairs, n in {1,2,3}",
            ok, f"worst={worst:.3e} <= 1e-11, {elapsed:.1f}s < 30s")


def test_criterion_02_generator_family_commutator():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng([102, n])
        worst = np.maximum(worst,
                           verify._worst("generator_commutator", rng, n, 50))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30
    _report(2, "generator-family commutator closes, 50 pairs, n in {1,2,3}",
            ok, f"worst={worst:.3e} <= 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_03_semigroup_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = verify._worst("semigroup_factorization", rng, 2, 20)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60
    _report(3, "noise/drift factorization of the semigroup, n=2, 20 draws",
            ok, f"worst={worst:.3e} <= 1e-9, {elapsed:.1f}s < 60s")


def test_criterion_04_gaussian_fast_path_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = verify._worst("fast_path_evolution", rng, 3, 20)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60
    _report(4, "correlation flow matches dense evolution, n=3, 20 draws",
            ok, f"worst={worst:.3e} <= 1e-9 entrywise, {elapsed:.1f}s < 60s")


def test_criterion_05_gaussian_state_formulas():
    worst_expect = worst_trace = worst_round = worst_entropy = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng([105, n])
        worst_expect = np.maximum(
            worst_expect, verify._worst("quadratic_expectation", rng, n, 20))
        worst_trace = np.maximum(
            worst_trace, verify._worst("density_unit_trace", rng, n, 20))
        worst_round = np.maximum(
            worst_round, verify._worst("correlation_roundtrip", rng, n, 20))
        worst_entropy = np.maximum(
            worst_entropy, verify._worst("gaussian_entropy", rng, n, 20))
    ok = (worst_expect <= 1e-10 and worst_trace <= 1e-12
          and worst_round <= 1e-11 and worst_entropy <= 1e-9)
    _report(5, "Gaussian density formula: expectation/trace/roundtrip/entropy",
            ok, f"expect={worst_expect:.2e}, trace={worst_trace:.2e}, "
                f"roundtrip={worst_round:.2e}, entropy={worst_entropy:.2e}")


def test_criterion_06_long_time_asymptotics():
    rng = np.random.default_rng(106)
    # strictly damped: dense state converges to the Gaussian steady state
    params = verify.random_gksl_params(rng, 3, min_damping=0.5)
    rho0 = verify.random_density_matrix(rng, 8)
    rate = abs(float(np.max(np.linalg.eigvals(params.a).real)))
    t_relax = 20.0 / rate
    rho_t = fock.dense_evolve(params, rho0, t_relax)
    target = fock.gaussian_density(steady_state(params))
    diff = hermitize(np.asarray(rho_t) - np.asarray(target))
    dist = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))

    # one persistent frequency: dense state approaches the rotated
    # projected prediction built from the decomposition
    h2 = verify.random_hermitian(rng, 2)
    d2 = verify.random_psd(rng, 2) + 0.4 * np.eye(2)
    e2 = verify.random_psd(rng, 2, scale=0.4)
    a = np.zeros((3, 3), dtype=complex)
    m = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 0.7j
    a[1:, 1:] = -1j * h2 - d2 - e2
    m[1:, 1:] = 2 * e2
    params_p = AffineGenerator(a, m)
    dec = asymptotic_decomposition(params_p, GaussianState.vacuum(3))
    assert int(round(dec.p0.trace().real)) == 1
    m_inf = dec.m_inf
    rho0_p = verify.random_density_matrix(rng, 8)
    projected = opbasis.project_persistent(rho0_p, dec.p0)
    damped = [z for z in np.linalg.eigvals(a) if z.real < -1e-6]
    t_late = 30.0 / abs(max(z.real for z in damped))
    zero = np.zeros((3, 3))
    pred = scipy.linalg.expm(
        t_late * fock.super_liouvillian(AffineGenerator(dec.a0_flow.a, zero))
    ) @ scipy.linalg.expm(
        fock.super_liouvillian(AffineGenerator(zero, m_inf))
    ) @ fock.vec(projected)
    dense = scipy.linalg.expm(
        t_late * fock.super_liouvillian(params_p)) @ fock.vec(rho0_p)
    residual = float(np.linalg.norm(dense - pred))

    ok = dist <= 1e-6 and residual <= 1e-5
    _report(6, "long-time convergence: damped and persistent cases",
            ok, f"trace_distance={dist:.3e} <= 1e-6, "
                f"persistent_residual={residual:.3e} <= 1e-5")


def test_criterion_07_operator_basis_suite():
    worst = {"antisymmetry": 0.0, "nilpotency": 0.0, "roundtrip": 0.0,
             "evolution": 0.0}
    min_sv = np.inf
    for n in (2, 3):
        rng = np.random.default_rng([107, n])
        for key, name, draws in (
                ("antisymmetry", "phi_antisymmetry", 10),
                ("nilpotency", "rank_one_nilpotency", 20),
                ("roundtrip", "phi_pi_roundtrip", 10),
                ("evolution", "phi_evolution_covariance", 5)):
            worst[key] = np.maximum(worst[key],
                                   verify._worst(name, rng, n, draws))
        min_sv = np.minimum(min_sv, verify._worst("phi_basis_rank", rng, n, 2))
    ok = (worst["antisymmetry"] <= 1e-12 and worst["nilpotency"] <= 1e-13
          and worst["roundtrip"] <= 1e-11 and worst["evolution"] <= 1e-10
          and min_sv > 1e-8)
    _report(7, "operator-basis suite at n in {2,3}",
            ok, f"antisym={worst['antisymmetry']:.2e}, "
                f"nilpotent={worst['nilpotency']:.2e}, "
                f"roundtrip={worst['roundtrip']:.2e}, "
                f"evolution={worst['evolution']:.2e}, min_sv={min_sv:.2e}")


def test_criterion_08_skin_effect():
    t0 = time.perf_counter()
    p = HatanoNelsonParams(n=6, omega=1.0, lam=0.3, gamma=0.5, a=2.5)
    assert abs(p.x - p.kappa ** 10 / 4) < 1e-18
    bath = build_bath(p)
    min_m = float(np.min(np.linalg.eigvalsh((bath.m + bath.m.conj().T) / 2)))
    gap = -(bath.a + bath.a.conj().T) - bath.m
    min_gap = float(np.min(np.linalg.eigvalsh((gap + gap.conj().T) / 2)))
    profile = steady_profile(p)
    target = p.x * p.kappa ** (2 - 2 * np.arange(1, 7, dtype=float))
    profile_err = float(np.max(np.abs(profile - target)))
    slope, _ = localization_slope(profile)
    slope_err = abs(slope - (-2 * np.log(p.kappa)))
    flat = featureless_choice(p, 1.0 / 3.0)
    flat_err = float(np.max(np.abs(flat - 0.25 * np.eye(6))))

    p3 = HatanoNelsonParams(n=3, omega=1.0, lam=0.3, gamma=0.5, a=2.5)
    rho_late = fock.dense_evolve(build_bath(p3),
                                 fock.vacuum_projector(3), 200.0)
    x3 = np.diag(p3.x * p3.kappa ** (2 - 2 * np.arange(1, 4, dtype=float)))
    dense_err = float(np.max(np.abs(fock.read_correlations(rho_late) - x3)))
    elapsed = time.perf_counter() - t0

    ok = (min_m >= -1e-9 and min_gap >= -1e-9 and profile_err <= 1e-9
          and slope_err <= 1e-10 and flat_err <= 1e-9 and dense_err <= 1e-6
          and elapsed < 60)
    _report(8, "skin-effect bath, localized vs flat steady states",
            ok, f"sandwich=({min_m:.1e},{min_gap:.1e}) >= -1e-9, "
                f"profile={profile_err:.2e}, slope={slope_err:.2e}, "
                f"flat={flat_err:.2e}, dense={dense_err:.2e}, {elapsed:.1f}s")


def test_criterion_09_majorana_family_commutator():
    rng = np.random.default_rng(109)
    worst = verify._worst("majorana_commutator", rng, 2, 20)
    ok = worst <= 1e-10
    _report(9, "Majorana-form commutation relation, 20 quadruples, n=2",
            ok, f"worst={worst:.3e} <= 1e-10")


def test_criterion_10_cli_determinism(tmp_path):
    blobs = []
    codes = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "quadferm", "verify", "--n", "2",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True,
        )
        codes.append(proc.returncode)
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]
    all_pass = codes == [0, 0]
    rows = [ln for ln in blobs[0].decode().splitlines()
            if ln and not ln.startswith("#")]
    ok = identical and all_pass and len(rows) > 30
    _report(10, "CLI verify n=2 seed=7 is byte-identical and all rows pass",
            ok, f"identical={identical}, exit_codes={codes}, rows={len(rows) - 1}")
