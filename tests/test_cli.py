import csv
import dataclasses
import inspect
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quadferm import cli, fock, verify
from quadferm.cli import main
from quadferm.config import parse_config_text
from quadferm.errors import ValidationError

from conftest import csv_writer_render as _csv_writer_render

EXPLICIT = """
[model]
kind = explicit

[model.a]
row1 = -0.5 0.0   0.1 0.05
row2 =  0.1 -0.05  -0.7 0.0

[model.m]
row1 = 0.4 0.0   0.0 0.0
row2 = 0.0 0.0   0.2 0.0
"""

SINGLE_MODE = """
[model]
kind = physical

[model.h]
row1 = 1.0 0.0

[model.loss]
l1 = 1.0 0.0

[model.gain]
g1 = 0.65465367070797709 0.0
"""


def _explicit_ini(a, m):
    """An explicit-model job file holding the pair (a, m) exactly."""
    lines = ["[model]", "kind = explicit"]
    for name, mat in (("a", a), ("m", m)):
        lines.append(f"[model.{name}]")
        lines += [f"row{i} = "
                  + " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row)
                  for i, row in enumerate(mat, start=1)]
    return "\n".join(lines) + "\n"


def read_csv(path):
    comments, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    data = []
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            comments[key] = value
        else:
            data.append(ln)
    reader = csv.reader(data)
    header = next(reader)
    for row in reader:
        rows.append(row)
    return comments, header, rows


class TestConfigParsing:
    def test_explicit_model(self):
        cfg = parse_config_text(EXPLICIT)
        assert cfg.params.n == 2
        assert cfg.params.a[0, 1] == 0.1 + 0.05j
        assert cfg.params.gksl

    def test_physical_model(self):
        cfg = parse_config_text(SINGLE_MODE)
        assert abs(cfg.params.a[0, 0] - (-1j - 1.0 - 3.0 / 7.0)) < 1e-12
        assert abs(cfg.params.m[0, 0] - 6.0 / 7.0) < 1e-12

    def test_non_square_matrix_rejected(self):
        bad = EXPLICIT.replace("row2 =  0.1 -0.05  -0.7 0.0\n", "")
        with pytest.raises(ValidationError, match="square"):
            parse_config_text(bad)

    def test_bad_number_names_location(self):
        bad = EXPLICIT.replace("0.4", "forty")
        with pytest.raises(ValidationError, match=r"model.m"):
            parse_config_text(bad)

    def test_bad_token_mid_row_is_named(self):
        bad = EXPLICIT.replace("row1 = 0.4 0.0   0.0 0.0",
                               "row1 = 0.4 0.0   0.0x 0.0")
        with pytest.raises(ValidationError,
                           match=r"\[model\.m\] row1: cannot parse '0\.0x'"):
            parse_config_text(bad)

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            parse_config_text(EXPLICIT + "\n[times]\nvalues = 1.0 0.5\n")

    def test_negative_times_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            parse_config_text(EXPLICIT + "\n[times]\nvalues = -1.0 0.5\n")

    def test_stray_model_section_rejected(self):
        with pytest.raises(ValidationError, match="exactly one model source"):
            parse_config_text(EXPLICIT + "\n[model.h]\nrow1 = 1.0 0.0\n")

    def test_matrix_beside_vacuum_state_rejected(self):
        with pytest.raises(ValidationError, match=r"\[initial\.r\]"):
            parse_config_text(EXPLICIT + "\n[initial]\nstate = vacuum\n"
                              "[initial.r]\nrow1 = 0.5 0 0 0\n"
                              "row2 = 0 0 0.5 0\n")

    def test_odd_float_count_rejected(self):
        with pytest.raises(ValidationError, match=r"\(re, im\)"):
            parse_config_text("[model]\nkind = explicit\n"
                              "[model.a]\nrow1 = 1.0\n[model.m]\nrow1 = 0 0\n")


class TestCommands:
    def test_evolve_single_mode_closed_form(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(SINGLE_MODE + "\n[times]\nvalues = 0.0 0.5 1.0\n",
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert comments["command"] == "evolve"
        assert header[0] == "t" and "entropy" in header
        # vacuum relaxing toward nbar = 0.3 at total rate 2(D+E) = 20/7
        nbar, rate = 0.3, 2 * (1.0 + 3.0 / 7.0)
        for row in rows:
            t = float(row[0])
            occ = float(row[header.index("occ1")])
            assert abs(occ - nbar * (1 - np.exp(-rate * t))) < 1e-12

    def test_evolve_flags_small_negative_noise_as_inadmissible(
            self, tmp_path):
        # A = -2^-40, M = -1e-3 2^-40: negative noise, whatever the scale
        scale = 2.0 ** -40
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini([[-scale + 0j]], [[-1e-3 * scale + 0j]])
                       + "[times]\nvalues = 0 1\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv(out)[0]["gksl"] == "false"

    def test_evolve_requires_times(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(SINGLE_MODE, encoding="utf-8")
        assert main(["evolve", "--config", str(cfg)]) == 1

    def test_evolve_state_of_another_size_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini(-np.eye(3), np.zeros((3, 3)))
                       + "[initial]\nstate = matrix\n[initial.r]\n"
                         "row1 = 0.5 0 0 0\nrow2 = 0 0 0.5 0\n"
                         "[times]\nvalues = 0 1\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "size mismatch" in capsys.readouterr().err
        assert not out.exists()

    def test_steady_single_mode(self, tmp_path, capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text(SINGLE_MODE, encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        occ = float(rows[0][header.index("occ1")])
        assert abs(occ - 0.3) < 1e-12

    def test_steady_undamped_exits_with_physics_error(self, tmp_path, capsys):
        # a = i, m = 0 is admissible: its long-time limit from the vacuum
        # is the vacuum, with one persistent mode
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = explicit\n"
                       "[model.a]\nrow1 = 0.0 1.0\n"
                       "[model.m]\nrow1 = 0.0 0.0\n", encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert comments["persistent_modes"] == "1"
        assert float(comments["frequency1"]) == 1.0
        assert [float(rows[0][header.index(c)])
                for c in ("minf11_re", "minf11_im")] == [0.0, 0.0]
        # a = i, m = 1 is not: noise feeds the undamped mode
        cfg.write_text("[model]\nkind = explicit\n"
                       "[model.a]\nrow1 = 0.0 1.0\n"
                       "[model.m]\nrow1 = 1.0 0.0\n", encoding="utf-8")
        assert main(["steady", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "imaginary-axis" in err
        import quadferm
        functions = {name for mod in vars(quadferm).values()
                     if inspect.ismodule(mod)
                     for name, obj in vars(mod).items()
                     if inspect.isfunction(obj)}
        assert "asymptotic_decomposition" in functions
        assert not [f for f in functions if re.search(rf"\b{f}\b", err)]

    def test_steady_noise_on_a_mode_in_the_band_exits_2(self, tmp_path,
                                                         capsys):
        # admissible, but M feeds the mode whose Re lambda = -2.6e-10 lies
        # in the undamped band: no limit is written, and the mode is named
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = explicit\n"
                       "[model.a]\nrow1 = -0.515 -0.089 0.0 0.0\n"
                       "row2 = 0.0 0.0 -2.6e-10 0.0\n"
                       "[model.m]\nrow1 = 0.209 0.0 0.0 0.0\n"
                       "row2 = 0.0 0.0 2.6e-10 0.0\n", encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 2
        assert "lambda_0 = -2.6e-10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [0, -40, -20, 20, 40])
    def test_steady_slow_mode_fed_below_the_residual_floor_exits_2(
            self, tmp_path, capsys, k):
        # Re lambda = -2e-12 lies in the undamped band, and M = 2e-12 feeds
        # the mode: its true limit is M / (2 |Re lambda|) = 0.5, not the
        # vacuum.  The noise is judged against ||M||, so every scale 2^k
        # gives the same named error.
        s = 2.0 ** k
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini(np.array([[s * (-2e-12 - 1j)]]),
                                     np.array([[s * 2e-12]])),
                       encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadferm: physics error: ")
        assert "noise reaches the undamped modes [lambda_0 = " in err
        assert not out.exists()

    @pytest.mark.parametrize("body", [None, "[model]\nkind = hatano-nelson\n"
                                      "[model.hatano-nelson]\nn = 4\n"
                                      "omega = 1.0\nlambda = 0.3\n"
                                      "gamma = 0.5\na = 2.5\n"],
                             ids=["explicit-n6", "hatano-nelson-n4"])
    def test_steady_without_persistent_mode_writes_the_lyapunov_state(
            self, tmp_path, body):
        from quadferm.gaussian import GaussianState, entropy
        from quadferm.linalg import lyapunov_solve
        from quadferm.skin import HatanoNelsonParams, build_bath
        if body is None:
            params = verify.random_gksl_params(np.random.default_rng(6), 6,
                                               0.3)
            body = _explicit_ini(params.a, params.m)
        else:
            params = build_bath(HatanoNelsonParams(
                n=4, omega=1.0, lam=0.3, gamma=0.5, a=2.5))
        cfg = tmp_path / "job.ini"
        cfg.write_text(body, encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
        state = GaussianState(lyapunov_solve(params.a, params.m))
        n = params.n
        header = [f"minf{j}{k}_{part}" for j in range(1, n + 1)
                  for k in range(1, n + 1) for part in ("re", "im")]
        header += [f"occ{j}" for j in range(1, n + 1)] + ["entropy"]
        row = [*state.r.reshape(-1).view(float), *state.r.diagonal().real,
               entropy(state)]
        comments = [("command", "steady"), ("n", n), ("gksl", "true")]
        assert out.read_text(encoding="utf-8") \
            == _csv_writer_render(comments, header, [row])

    def test_steady_with_persistent_mode_is_the_dense_long_time_limit(
            self, tmp_path):
        from quadferm import fock
        from quadferm.affine import AffineGenerator
        # demo 04's model: mode 1 rotates freely at frequency 0.7
        rng = np.random.default_rng(11)
        h2 = verify.random_hermitian(rng, 2)
        d2 = verify.random_psd(rng, 2) + 0.4 * np.eye(2)
        e2 = verify.random_psd(rng, 2, scale=0.4)
        a = np.zeros((3, 3), dtype=complex)
        m = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 0.7j
        a[1:, 1:] = -1j * h2 - d2 - e2
        m[1:, 1:] = 2 * e2
        params = AffineGenerator(a, m)
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini(a, m), encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert comments["persistent_modes"] == "1"
        assert abs(float(comments["frequency1"]) - 0.7) <= 1e-12
        cells = np.array([float(v) for v in rows[0][:18]])
        minf = cells.view(complex).reshape(3, 3)
        rate = min(-z.real for z in np.linalg.eigvals(a) if z.real < -1e-6)
        dense = fock.read_correlations(
            fock.dense_evolve(params, fock.vacuum_projector(3), 30.0 / rate))
        assert np.max(np.abs(minf - dense)) <= 1e-5

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_time_exits_with_validation_error(self, tmp_path,
                                                         capsys, bad):
        cfg = tmp_path / "job.ini"
        cfg.write_text(SINGLE_MODE + f"\n[times]\nvalues = 0 {bad}\n",
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("quadferm: validation error")
        assert not out.exists()

    def test_skin_profile_and_slope(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = hatano-nelson\n"
                       "[model.hatano-nelson]\n"
                       "n = 6\nomega = 1.0\nlambda = 0.3\ngamma = 0.5\na = 2.5\n",
                       encoding="utf-8")
        out = tmp_path / "skin.csv"
        assert main(["skin", "--config", str(cfg), "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert abs(float(comments["log_slope"]) - 2 * np.log(2.0)) < 1e-10
        occs = [float(r[header.index("occupation")]) for r in rows]
        assert len(occs) == 6
        for lo, hi in zip(occs, occs[1:]):
            assert abs(hi / lo - 4.0) < 1e-9
        flat = [float(r[header.index("featureless_occupation")]) for r in rows]
        assert np.max(np.abs(np.array(flat) - 0.25)) < 1e-9

    def test_skin_on_one_site_chain_exits_1_without_warnings(
            self, tmp_path, capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = hatano-nelson\n"
                       "[model.hatano-nelson]\nn = 1\n", encoding="utf-8")
        out = tmp_path / "skin.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["skin", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("quadferm: validation error: ")
        assert "at least 2 sites" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", [242, 244])
    def test_skin_with_subnormal_amplitude_exits_2_without_warnings(
            self, tmp_path, capsys, n):
        # the default amplitude kappa^(2n-2)/4 is subnormal at these n, and
        # so is the noise it grades: the solve's frame overflows on it
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = hatano-nelson\n"
                       f"[model.hatano-nelson]\nn = {n}\nomega = 1.0\n"
                       "lambda = 0.45\ngamma = 0.5\na = 2.1\n",
                       encoding="utf-8")
        out = tmp_path / "skin.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["skin", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadferm: physics error: noise frame")
        assert "(i, k) = (0, 0)" in err and err.count("\n") == 1
        assert not out.exists()

    def test_skin_runs_two_lyapunov_solves(self, tmp_path, monkeypatch):
        # one each for the steady state and the featureless split; the
        # bath's diagonal-coefficient equation needs no solver
        import quadferm.gaussian
        import quadferm.skin
        from quadferm.linalg import lyapunov_solve
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lyapunov_solve(*args, **kwargs)

        monkeypatch.setattr(quadferm.skin, "lyapunov_solve", counting)
        monkeypatch.setattr(quadferm.gaussian, "lyapunov_solve", counting)
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = hatano-nelson\n"
                       "[model.hatano-nelson]\n"
                       "n = 6\nomega = 1.0\nlambda = 0.3\ngamma = 0.5\na = 2.5\n",
                       encoding="utf-8")
        out = tmp_path / "skin.csv"
        assert main(["skin", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 2

    def test_steady_factors_the_drift_once(self, tmp_path, monkeypatch):
        # the stability decision is read off the solve's own Schur form
        import scipy.linalg
        schur, calls = scipy.linalg.schur, []

        def counting_schur(*args, **kwargs):
            calls.append("schur")
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
        params = verify.random_gksl_params(np.random.default_rng(6), 6, 0.3)
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini(params.a, params.m), encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == ["schur"]

    def test_steady_on_chain_matches_skin_profile(self, tmp_path):
        body = ("[model]\nkind = hatano-nelson\n"
                "[model.hatano-nelson]\n"
                "n = 4\nomega = 1.0\nlambda = 0.3\ngamma = 0.5\na = 2.5\n")
        cfg = tmp_path / "job.ini"
        cfg.write_text(body, encoding="utf-8")
        steady_out = tmp_path / "steady.csv"
        skin_out = tmp_path / "skin.csv"
        assert main(["steady", "--config", str(cfg), "--out", str(steady_out)]) == 0
        assert main(["skin", "--config", str(cfg), "--out", str(skin_out)]) == 0
        _, h1, r1 = read_csv(steady_out)
        _, h2, r2 = read_csv(skin_out)
        occ_steady = [float(r1[0][h1.index(f"occ{j}")]) for j in range(1, 5)]
        occ_skin = [float(r[h2.index("occupation")]) for r in r2]
        assert np.max(np.abs(np.array(occ_steady) - occ_skin)) < 1e-12

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[job]\ncommand = steady\n" + SINGLE_MODE,
                       encoding="utf-8")
        assert main(["evolve", "--config", str(cfg)]) == 1

    def test_missing_config_file(self):
        assert main(["steady", "--config", "/nonexistent/job.ini"]) == 1


class TestVerifyCommand:
    def test_all_rows_pass_and_exit_zero(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--n", "1", "--seed", "7", "--draws", "5",
                     "--out", str(out)])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert comments["command"] == "verify"
        assert header == ["name", "identity", "value", "tolerance",
                          "comparison", "status"]
        # phi_antisymmetry needs two modes; its skip row is pinned below
        assert rows and all(r[-1] == "pass" for r in rows
                            if r[0] != "phi_antisymmetry")

    def test_check_that_cannot_run_reads_skip_and_exits_zero(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--n", "1", "--seed", "7", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        skipped = [r for r in rows if r[-1] == "skip"]
        assert [r[0] for r in skipped] == ["phi_antisymmetry"]
        assert skipped[0][header.index("value")] == "nan"

    def test_impossible_tolerance_fails_with_exit_three(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--n", "1", "--seed", "7", "--draws", "2",
                     "--tol", "1e-30", "--out", str(out)])
        assert code == 3
        _, _, rows = read_csv(out)
        assert any(r[-1] == "fail" for r in rows)

    def test_config_overrides_one_tolerance(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[job]\nn = 2\nseed = 3\ndraws = 2\n"
                       "[tolerances]\nleft_left = 1e-30\n", encoding="utf-8")
        out = tmp_path / "verify.csv"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        _, header, rows = read_csv(out)
        failed = [r for r in rows if r[-1] == "fail"]
        assert [r[0] for r in failed] == ["left_left"]

    def test_unknown_override_name_rejected(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[job]\nn = 1\n[tolerances]\nno_such_check = 1e-3\n",
                       encoding="utf-8")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1

    def test_mode_count_cap(self):
        assert main(["verify", "--n", "9"]) == 1

    def test_help_states_the_mode_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(fock, "MAX_DENSE_EVOLVE_MODES", 8)
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "mode count (<= 8)" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [0, 6])
    def test_suite_rejects_mode_count_before_any_check(self, monkeypatch, n):
        def sentinel(rng, n, draws):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "_REGISTRY", tuple(
            dataclasses.replace(c, fn=sentinel) for c in verify._REGISTRY))
        with pytest.raises(ValidationError):
            verify.run_suite(n=n)

    @pytest.mark.parametrize("draws", [0, -5])
    def test_suite_rejects_draws_below_one_before_any_check(self, monkeypatch,
                                                            draws):
        def sentinel(rng, n):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "_REGISTRY", tuple(
            dataclasses.replace(c, fn=sentinel) for c in verify._REGISTRY))
        with pytest.raises(ValidationError):
            verify.run_suite(n=1, draws=draws)

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_exits_with_validation_error(self, draws):
        assert main(["verify", "--n", "1", "--draws", draws]) == 1

    def test_config_mode_count_zero_rejected(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[job]\nn = 0\n", encoding="utf-8")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_empty_tolerance_exits_with_validation_error(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[tolerances]\nrank_one_nilpotency =\n",
                       encoding="utf-8")
        assert main(["verify", "--n", "1", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("quadferm: validation error")
        assert "rank_one_nilpotency" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_flag_exits_with_validation_error(self, capsys,
                                                             tol):
        assert main(["verify", "--n", "1", "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("quadferm: validation error")

    @pytest.mark.parametrize("tol", ["nan", "-1e-3", "inf"])
    def test_bad_config_tolerance_exits_with_validation_error(self, tmp_path,
                                                               capsys, tol):
        cfg = tmp_path / "job.ini"
        cfg.write_text(f"[tolerances]\nrank_one_nilpotency = {tol}\n",
                       encoding="utf-8")
        assert main(["verify", "--n", "1", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("quadferm: validation error")
        assert "rank_one_nilpotency" in err

    def test_negative_seed_exits_with_validation_error(self, tmp_path,
                                                       capsys):
        assert main(["verify", "--n", "1", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("quadferm: validation error")
        cfg = tmp_path / "job.ini"
        cfg.write_text("[job]\nseed = -3\n", encoding="utf-8")
        assert main(["verify", "--n", "1", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("quadferm: validation error")

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"tol_overrides": {"left_left": float("nan")}},
        {"tol_overrides": {"left_left": -1.0}},
        {"tol_overrides": {"left_left": float("inf")}},
    ])
    def test_suite_rejects_bad_seed_or_tolerance_before_any_check(
            self, monkeypatch, kwargs):
        def sentinel(rng, n):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "_REGISTRY", tuple(
            dataclasses.replace(c, fn=sentinel) for c in verify._REGISTRY))
        with pytest.raises(ValidationError):
            verify.run_suite(n=1, **kwargs)

    def test_numbers_round_trip_at_17_digits(self, tmp_path):
        out = tmp_path / "verify.csv"
        main(["verify", "--n", "1", "--draws", "2", "--out", str(out)])
        _, header, rows = read_csv(out)
        idx = header.index("tolerance")
        for row in rows:
            assert float(row[idx]) == float(format(float(row[idx]), ".17g"))


def test_verify_byte_identical_across_runs(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "quadferm", "verify", "--n", "2",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [3, 4])
def test_verify_bytes_do_not_depend_on_the_gather_maps(tmp_path, monkeypatch,
                                                       n):
    # with the cached coefficient maps turned off, every block is taken
    # from _assemble's product; the gathered ones must be those bits
    argv = ["verify", "--n", str(n), "--seed", "1", "--draws", "3", "--out"]
    assert main(argv + [str(tmp_path / "maps.csv")]) == 0
    monkeypatch.setattr(fock, "_gather_map", lambda kinds, n: None)
    assert isinstance(verify._super_lam(np.eye(n), np.eye(n)), fock._Blocks)
    assert main(argv + [str(tmp_path / "assembled.csv")]) == 0
    assert (tmp_path / "maps.csv").read_bytes() \
        == (tmp_path / "assembled.csv").read_bytes()


def _per_entry_cells(mat):
    cells = []
    for val in mat.reshape(-1):
        cells.append(val.real)
        cells.append(val.imag)
    return cells


class TestRenderer:
    def test_matches_csv_writer_byte_for_byte(self):
        comments = [("command", "test"), ("n", 3)]
        header = ["label", "x", "y", "note"]
        rows = [
            ["plain", -0.0, 5e-324, 'say "hi", twice'],
            ["a,b", 1e308, float("inf"), '"quoted"'],
            ['x"y', float("nan"), -float("inf"), "line\nbreak"],
            ["7", 3, np.float64(0.1), ""],
            ["", np.int64(-12), True, "tail,"],
        ]
        assert cli._render(comments, header, rows) \
            == _csv_writer_render(comments, header, rows)

    def test_all_numeric_rows(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rows = [np.concatenate(([0.5], cli._matrix_cells(mat))),
                np.concatenate(([1.5], cli._matrix_cells(-mat)))]
        assert cli._matrix_cells(mat).tolist() == _per_entry_cells(mat)
        header = ["t"] + [f"c{j}" for j in range(18)]
        assert cli._render([], header, rows) \
            == _csv_writer_render([], header, rows)

    @pytest.mark.parametrize("argv, body", [
        (["steady"], EXPLICIT),
        (["skin"], "[model]\nkind = hatano-nelson\n[model.hatano-nelson]\n"
                   "n = 6\nomega = 1.0\nlambda = 0.3\ngamma = 0.5\na = 2.5\n"),
        (["verify", "--n", "2"], None),
    ])
    def test_command_output_unchanged(self, tmp_path, monkeypatch, argv, body):
        if body is not None:
            cfg = tmp_path / "job.ini"
            cfg.write_text(body, encoding="utf-8")
            argv = argv + ["--config", str(cfg)]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        code = main(argv + ["--out", str(new)])
        monkeypatch.setattr(cli, "_render", _csv_writer_render)
        monkeypatch.setattr(cli, "_matrix_cells", _per_entry_cells)
        assert main(argv + ["--out", str(old)]) == code
        assert new.read_bytes() == old.read_bytes()

    def test_evolve_output_unchanged(self, tmp_path, monkeypatch):
        # time 0 twice, then a tail of equal steps of 50 long past the
        # mixing time: e^{50 A} is below 1e-9, so each relaxed row repeats
        # the one before it bit for bit
        cfg = tmp_path / "job.ini"
        times = "[times]\nvalues = 0 0 0.5 1 100 150 200 250\n"
        cfg.write_text(EXPLICIT + times, encoding="utf-8")
        argv = ["evolve", "--config", str(cfg)]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        assert main(argv + ["--out", str(new)]) == 0
        _, _, rows = read_csv(new)
        assert rows[0] == rows[1]
        assert rows[-3][1:] == rows[-2][1:] == rows[-1][1:]
        assert rows[2][1:] != rows[3][1:] != rows[4][1:]
        monkeypatch.setattr(cli, "_render", _csv_writer_render)
        monkeypatch.setattr(cli, "_matrix_cells", _per_entry_cells)
        assert main(argv + ["--out", str(old)]) == 0
        assert new.read_bytes() == old.read_bytes()
