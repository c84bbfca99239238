import csv
import dataclasses
import errno
import inspect
import io
import os
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
from quadferm.gaussian import GaussianState, evolve_grid
from quadferm.skin import HatanoNelsonParams

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


#: the skin chain whose default amplitude is subnormal from n = 242 on
_SUBNORMAL_CHAIN = ("[model]\nkind = hatano-nelson\n[model.hatano-nelson]\n"
                    "n = {n}\nomega = 1.0\nlambda = 0.45\ngamma = 0.5\n"
                    "a = 2.1\n")


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

    def test_first_bad_token_of_a_row_is_named_exactly(self):
        bad = EXPLICIT.replace("row1 = 0.4 0.0   0.0 0.0",
                               "row1 = 0.4 0.0   1e 0.0  x 0.0")
        with pytest.raises(ValidationError) as info:
            parse_config_text(bad)
        assert str(info.value) == "[model.m] row1: cannot parse '1e' as a number"
        with pytest.raises(ValidationError) as info:
            parse_config_text(EXPLICIT + "\n[times]\nvalues = 0, 0.5,, 1.o 2\n")
        assert str(info.value) == "[times] values: cannot parse '1.o' as a number"

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            parse_config_text(EXPLICIT + "\n[times]\nvalues = 1.0 0.5\n")

    def test_negative_times_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            parse_config_text(EXPLICIT + "\n[times]\nvalues = -1.0 0.5\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_times_rejected_where_they_are_read(self, bad):
        with pytest.raises(ValidationError,
                           match=rf"^\[times\] .*finite, got {bad}$"):
            parse_config_text(EXPLICIT + f"\n[times]\nvalues = 0 {bad} 1\n")

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

    def test_time_whose_growth_overflows_exits_1_without_traceback(
            self, tmp_path, capsys):
        # one flow of t = 1e308 at max|Re λ| = 10 cannot count its chunks
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = explicit\n[model.a]\nrow1 = -10 0\n"
                       "[model.m]\nrow1 = 5 0\n[times]\nvalues = 0 1e308\n",
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("quadferm: validation error: flow time ")
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
    def test_skin_with_subnormal_amplitude_solves_without_warnings(
            self, tmp_path, n):
        # the default amplitude kappa^(2n-2)/4 is subnormal at these n, and
        # so is the noise it grades: d_i d_k underflows, but M_ik / d_i / d_k
        # does not, so the noise frame grades the solution
        cfg = tmp_path / "job.ini"
        cfg.write_text(_SUBNORMAL_CHAIN.format(n=n), encoding="utf-8")
        out = tmp_path / "skin.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["skin", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        occ = np.array([float(r[header.index("occupation")]) for r in rows])
        p = HatanoNelsonParams(n=n, omega=1.0, lam=0.45, gamma=0.5, a=2.1)
        target = np.exp(np.log(p.x) - 2 * np.log(p.kappa) * np.arange(n))
        assert np.max(np.abs(occ / target - 1)) <= 1e-10

    def test_steady_on_a_chain_with_subnormal_noise_is_the_skin_profile(
            self, tmp_path):
        # the chain above at n = 242 through asymptotic_decomposition,
        # whose output no profile check reads
        cfg = tmp_path / "job.ini"
        cfg.write_text(_SUBNORMAL_CHAIN.format(n=242), encoding="utf-8")
        steady_out, skin_out = tmp_path / "steady.csv", tmp_path / "skin.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["steady", "--config", str(cfg),
                         "--out", str(steady_out)]) == 0
            assert main(["skin", "--config", str(cfg),
                         "--out", str(skin_out)]) == 0
        _, h1, r1 = read_csv(steady_out)
        _, h2, r2 = read_csv(skin_out)
        occ_steady = np.array([float(r1[0][h1.index(f"occ{j}")])
                               for j in range(1, 243)])
        occ_skin = np.array([float(r[h2.index("occupation")]) for r in r2])
        assert np.max(np.abs(occ_steady / occ_skin - 1)) <= 1e-12

    def test_steady_whose_noise_frame_overflows_exits_2_without_traceback(
            self, tmp_path, capsys):
        # an admissible pair whose mode at -1 lies in the band of -1e308
        # and receives noise; gksl reads the pair scaled by 2^-1023, so
        # -A - A† does not overflow
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini(np.diag([-1e308, -1.0]).astype(complex),
                                     np.diag([1e-300, 1.0]).astype(complex)),
                       encoding="utf-8")
        out = tmp_path / "steady.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["steady", "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "quadferm: physics error: noise on the undamped modes ")
        assert not out.exists()

    def test_steady_on_a_growing_drift_exits_2(self, tmp_path, capsys):
        # squaring 1e200 overflows a plain ||A||, and gksl's bound with it
        cfg = tmp_path / "job.ini"
        cfg.write_text(_explicit_ini(np.diag([1e200, -1.0]).astype(complex),
                                     np.zeros((2, 2), dtype=complex)),
                       encoding="utf-8")
        out = tmp_path / "steady.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["steady", "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "quadferm: physics error: no unique steady state: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["skin", "steady", "evolve"])
    def test_chain_whose_gamma_squared_overflows_exits_1(
            self, tmp_path, capsys, command):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = hatano-nelson\n"
                       "[model.hatano-nelson]\nn = 6\ngamma = 1e200\n"
                       "[times]\nvalues = 0 1\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("quadferm: validation error: gamma^2 overflows")
        assert err.count("\n") == 1
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

    def test_config_that_is_not_utf8_exits_with_validation_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_bytes(b"[job]\ncommand = steady\n\xff\xfe\n")
        assert main(["steady", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("quadferm: validation error: ")
        assert str(cfg) in err[0] and "offset 23" in err[0]

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_exits_with_validation_error(
            self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "no" / "v.csv"
        assert main(["verify", "--n", "1", "--draws", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "quadferm: validation error: cannot write output ")
        assert str(out) in err[0]

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_fails_before_the_job_runs(
            self, tmp_path, capsys, monkeypatch, where):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran")

        out = tmp_path if where == "directory" else tmp_path / "no" / "v.csv"
        try:  # the error a write after the job would meet
            open(out, "w")
        except OSError as exc:
            late = f"cannot write output {str(out)!r}: {exc}"
        monkeypatch.setattr(cli, "run_suite", no_suite)
        assert main(["verify", "--n", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err \
            == f"quadferm: validation error: {late}\n"
        assert not (tmp_path / "no").exists()

    def test_empty_out_fails_before_the_job_runs(self, tmp_path, capsys,
                                                 monkeypatch):
        # what `--out "$OUT"` passes when OUT is unset
        def no_grid(*args, **kwargs):
            raise AssertionError("the job ran")

        cfg = tmp_path / "job.ini"
        cfg.write_text(SINGLE_MODE + "\n[times]\nvalues = 0 1\n",
                       encoding="utf-8")
        monkeypatch.setattr(cli, "evolve_grid", no_grid)
        assert main(["evolve", "--config", str(cfg), "--out", ""]) == 1
        assert capsys.readouterr().err == (
            "quadferm: validation error: cannot write output '': "
            "[Errno 2] No such file or directory: ''\n")

    def test_failed_job_leaves_an_existing_output_untouched(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[model]\nkind = hatano-nelson\n"
                       "[model.hatano-nelson]\nn = 1\n", encoding="utf-8")
        out = tmp_path / "skin.csv"
        out.write_text("kept\n", encoding="utf-8")
        assert main(["skin", "--config", str(cfg), "--out", str(out)]) == 1
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_unwritable_output_path_of_a_job_file_exits_1(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[job]\ncommand = steady\n" + SINGLE_MODE
                       + f"\n[output]\npath = {tmp_path}\n", encoding="utf-8")
        assert main(["steady", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "quadferm: validation error: cannot write output ")


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
        def sentinel(rng, n, draws):
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

    def test_percent_sign_is_read_literally(self, tmp_path, capsys):
        # no interpolation: the token reaches the number parser, which names it
        cfg = tmp_path / "job.ini"
        cfg.write_text(EXPLICIT.replace("-0.5 0.0", "-1% 0"), encoding="utf-8")
        assert main(["steady", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("quadferm: validation error: ")
        assert "'-1%'" in err[0]

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
        def sentinel(rng, n, draws):
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
    # maps built afresh on every call give the cached maps' bytes; with
    # every map forced onto one sector verify runs on whole matrices, whose
    # values move at roundoff but whose statuses do not
    argv = ["verify", "--n", str(n), "--seed", "1", "--draws", "3", "--out"]
    assert main(argv + [str(tmp_path / "cached.csv")]) == 0
    monkeypatch.setattr(fock, "_gather_map", fock._build_gather)
    assert verify._super_lam(np.eye(n), np.eye(n)).layout \
        is fock._layout(2 ** n, True)
    assert main(argv + [str(tmp_path / "fresh.csv")]) == 0
    assert (tmp_path / "cached.csv").read_bytes() \
        == (tmp_path / "fresh.csv").read_bytes()
    one = fock._layout(2 ** n, False)
    monkeypatch.setattr(fock, "_car_layout", lambda n: one)
    assert verify._super_lam(np.eye(n), np.eye(n)).layout is one
    assert main(argv + [str(tmp_path / "whole.csv")]) == 0
    _, header, gathered = read_csv(tmp_path / "cached.csv")
    _, _, whole = read_csv(tmp_path / "whole.csv")
    name, status = header.index("name"), header.index("status")
    assert [(r[name], r[status]) for r in gathered] \
        == [(r[name], r[status]) for r in whole]


def _per_entry_cells(mat):
    cells = []
    for val in mat.reshape(-1):
        cells.append(val.real)
        cells.append(val.imag)
    return cells


def _state_names(command, n):
    """The column names of an evolve or steady table, for the reference
    renderer: `cli._state_header` hands `_render` its header pre-rendered."""
    lead, prefix = (["t"], "r") if command == "evolve" else ([], "minf")
    return lead + [f"{prefix}{j}{k}_{part}" for j in range(1, n + 1)
                   for k in range(1, n + 1) for part in ("re", "im")] \
        + [f"occ{j}" for j in range(1, n + 1)] + ["entropy"]


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
        assert "".join(cli._render(comments, header, rows)) \
            == _csv_writer_render(comments, header, rows)

    def test_all_numeric_rows(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rows = [np.concatenate(([0.5], cli._matrix_cells(mat))),
                np.concatenate(([1.5], cli._matrix_cells(-mat)))]
        assert cli._matrix_cells(mat).tolist() == _per_entry_cells(mat)
        header = ["t"] + [f"c{j}" for j in range(18)]
        assert "".join(cli._render([], header, rows)) \
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
        monkeypatch.setattr(cli, "_state_header", _state_names)
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
        monkeypatch.setattr(cli, "_state_header", _state_names)
        monkeypatch.setattr(cli, "_matrix_cells", _per_entry_cells)
        assert main(argv + ["--out", str(old)]) == 0
        assert new.read_bytes() == old.read_bytes()


def _evolved_table(n: int, count: int = 4) -> np.ndarray:
    """The float64 table `evolve` renders for a random admissible pair at
    n modes over ``count`` times from a random state."""
    rng = np.random.default_rng(n)
    params = verify.random_gksl_params(rng, n)
    state = GaussianState(verify.random_correlation_matrix(rng, n))
    times = [0.5 * k for k in range(count)]
    return cli._state_table(evolve_grid(params, state, times), times)


def _cell(n: int, j: int, k: int, part: int) -> int:
    """The column of R's (j, k) cell, part 0 (re) or 1 (im), in an
    `evolve` table at n modes."""
    return 1 + 2 * (j * n + k) + part


class TestStateRenderer:
    """An `evolve` table rendered with `_state_source` against the
    reference renderer, on tables whose mirror cells do and do not repeat
    their sources' magnitudes."""

    def _check(self, table, n):
        comments = [("command", "evolve"), ("n", n)]
        assert "".join(cli._render(comments, cli._state_header("evolve", n),
                                   table)) \
            == _csv_writer_render(comments, _state_names("evolve", n), table)

    def test_source_map_names_each_mirror(self):
        n = 3
        source = cli._state_source(n, 1)
        assert len(source) == len(_state_names("evolve", n))
        assert source[_cell(n, 2, 0, 1)] == _cell(n, 0, 2, 1)
        assert source[_cell(n, 0, 2, 0)] == _cell(n, 0, 2, 0)
        assert source[1 + 2 * n * n + 1] == _cell(n, 1, 1, 0)   # occ2
        assert source[0] == 0 and source[-1] == len(source) - 1
        assert len(set(source.tolist())) == 1 + n * (n + 1) + 1

    @pytest.mark.parametrize("n", [1, 3])
    def test_evolved_table(self, n):
        table = _evolved_table(n)
        # the second row holds R's conjugate, also a state, so that upper
        # and lower imaginary parts are each negative in some row
        table[1, 2:1 + 2 * n * n:2] *= -1
        if n > 1:  # Hermitian: a mirror's imaginary part has the other sign
            assert (np.signbit(table[:, _cell(n, 1, 0, 1)])
                    != np.signbit(table[:, _cell(n, 0, 1, 1)])).all()
            assert len(set(np.signbit(table[:, _cell(n, 1, 0, 1)]))) == 2
        self._check(table, n)

    def test_table_with_no_rows(self):
        self._check(_evolved_table(3)[:0], 3)

    def test_lower_cell_one_ulp_off_its_mirror(self):
        table = _evolved_table(3)
        cell = _cell(3, 2, 1, 0)
        table[2, cell] = np.nextafter(table[2, cell], np.inf)
        self._check(table, 3)

    def test_signed_zero_mirror_pairs(self):
        table = _evolved_table(3)
        table[:, _cell(3, 0, 1, 1)] = 0.0
        table[:, _cell(3, 1, 0, 1)] = -0.0
        table[1, _cell(3, 0, 2, 0)] = -0.0
        table[1, _cell(3, 2, 0, 0)] = 0.0
        table[0, 0] = -0.0
        self._check(table, 3)

    @pytest.mark.parametrize("payloads", [(1, 1), (1, 2)])
    def test_nan_mirror_pairs(self, payloads):
        # equal payloads repeat their source's magnitude, whatever the
        # signs; unequal ones do not, and every cell is deduped
        table = _evolved_table(3)
        upper, lower = (np.uint64(0x7FF8_0000_0000_0000 + p)
                        for p in payloads)
        bits = table.view(np.uint64)
        bits[1, _cell(3, 0, 1, 0)] = upper
        bits[1, _cell(3, 1, 0, 0)] = lower | np.uint64(1 << 63)
        bits[2, [_cell(3, 2, 2, 0), 1 + 2 * 9 + 2]] = upper   # r33_re, occ3
        self._check(table, 3)


class _FullStream(io.StringIO):
    """A text stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_to_stdout_exits_1_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert main(["verify", "--n", "1", "--draws", "1"]) == 1
    assert capsys.readouterr().err == (
        "quadferm: validation error: cannot write output stdout: "
        "[Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_stdout_on_a_full_device_exits_1_without_traceback(unbuffered):
    # buffered, the bytes the failed flush kept are flushed again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "quadferm", "verify", "--n", "1",
             "--draws", "1"], stdout=full, stderr=subprocess.PIPE, text=True,
            env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "quadferm: validation error: cannot write output stdout: "
        "[Errno 28] No space left on device"]
