"""Each public entry rejects a bad raw operand itself, so the private
kernels behind it (`fock._operand_terms`, `fock._generator_terms`,
`linalg._van_loan_pair`) can trust what they are given."""

import os

import numpy as np
import pytest

from quadferm import affine, cli, fock, gaussian, linalg
from quadferm.affine import AffineGenerator, flow
from quadferm.config import parse_config_text
from quadferm.errors import ValidationError
from quadferm.skin import HatanoNelsonParams

_EYE2 = np.eye(2)
_NAN = np.array([[np.nan, 0.0], [0.0, 0.0]])
_INF = np.array([[np.inf, 0.0], [0.0, 0.0]])

CASES = [
    pytest.param(lambda: fock.super_basic("loss", np.zeros((2, 3))),
                 id="super_basic-non-square"),
    pytest.param(lambda: fock.super_basic("gain", _NAN),
                 id="super_basic-nan-entry"),
    pytest.param(lambda: fock.super_basic("right", np.zeros((0, 0))),
                 id="super_basic-n-0"),
    pytest.param(lambda: fock.super_basic("loss", np.eye(7)),
                 id="super_basic-n-7"),
    pytest.param(lambda: fock.super_basic("drift", _EYE2),
                 id="super_basic-unknown-kind"),
    pytest.param(lambda: fock.quadratic_form(np.zeros((0, 0))),
                 id="quadratic_form-n-0"),
    pytest.param(lambda: fock.quadratic_form(np.eye(7)),
                 id="quadratic_form-n-7"),
    pytest.param(lambda: fock.quadratic_form(_INF),
                 id="quadratic_form-inf-entry"),
    pytest.param(lambda: fock.super_liouvillian(
        AffineGenerator(np.eye(7), np.eye(7))), id="super_liouvillian-n-7"),
    pytest.param(lambda: fock.smeared_creation(np.ones(0)),
                 id="smeared_creation-n-0"),
    pytest.param(lambda: fock.smeared_annihilation(np.ones(7)),
                 id="smeared_annihilation-n-7"),
    pytest.param(lambda: fock.smeared_creation(np.eye(2)),
                 id="smeared_creation-matrix"),
    pytest.param(lambda: fock.apply_generator(
        AffineGenerator(np.eye(3), np.eye(3)), fock.vacuum_projector(2)),
        id="apply_generator-size-mismatch"),
    pytest.param(lambda: flow(AffineGenerator(_EYE2, _EYE2), -1.0),
                 id="flow-negative-time"),
]


@pytest.mark.parametrize("call", CASES)
def test_public_entry_rejects_bad_operand(call):
    with pytest.raises(ValidationError):
        call()


def _explicit(a_rows="row1 = -1 0", m_rows="row1 = 0 0"):
    """A one-mode explicit job with the given [model.a] and [model.m]
    bodies; either may be None to leave its section out."""
    text = "[model]\nkind = explicit\n"
    for name, body in (("a", a_rows), ("m", m_rows)):
        if body is not None:
            text += f"[model.{name}]\n{body}\n"
    return text


_GEN2 = AffineGenerator(-_EYE2, _EYE2 / 2)
_GEN3 = AffineGenerator(-np.eye(3), np.eye(3) / 2)
_CHAIN = dict(n=4, omega=1.0, lam=0.3, gamma=0.5, a=2.5)

#: Public refusals: (call, error class, a fragment of its message)
REFUSALS = [
    pytest.param(lambda: fock.unvec(np.zeros(5)), ValidationError,
                 "vector length 5 is not a perfect square", id="unvec"),
    pytest.param(lambda: fock.super_master_equation(
        _EYE2, loss_vectors=[np.ones(3)]), ValidationError,
        "coupling vectors must have length 2",
        id="super_master_equation-vector-length"),
    pytest.param(lambda: fock.dense_evolve(_GEN2, np.eye(8), 1.0),
                 ValidationError, "density matrix is 8-dimensional, "
                 "expected 4", id="dense_evolve-rho-size"),
    pytest.param(lambda: gaussian.asymptotic_decomposition(
        _GEN2, gaussian.GaussianState.vacuum(3)), ValidationError,
        "size mismatch", id="asymptotic_decomposition-size"),
    pytest.param(lambda: gaussian.expectation_quadratic(
        gaussian.GaussianState.vacuum(2), np.eye(3)), ValidationError,
        "size mismatch", id="expectation_quadratic-size"),
    pytest.param(lambda: linalg.lyapunov_solve(-_EYE2, np.eye(3)),
                 ValidationError, "size mismatch", id="lyapunov_solve-size"),
    pytest.param(lambda: affine.compose(affine.identity(2),
                                        affine.identity(3)),
                 ValidationError, "size mismatch", id="compose-size"),
    pytest.param(lambda: affine.bracket(_GEN2, _GEN3), ValidationError,
                 "size mismatch", id="bracket-size"),
    pytest.param(lambda: affine.AffineElement(_EYE2, np.eye(3)),
                 ValidationError, "linear and translation parts differ in "
                 "size", id="AffineElement-size"),
    pytest.param(lambda: HatanoNelsonParams(**{**_CHAIN, "n": 0}),
                 ValidationError, "chain length must be >= 1, got 0",
                 id="HatanoNelsonParams-n-0"),
    pytest.param(lambda: HatanoNelsonParams(**{**_CHAIN, "lam": 0.0}),
                 ValidationError, "lambda must be positive, got 0.0",
                 id="HatanoNelsonParams-lambda-0"),
    pytest.param(lambda: parse_config_text(_explicit(m_rows=None)),
                 ValidationError, "missing matrix section [model.m]",
                 id="config-missing-matrix"),
    pytest.param(lambda: parse_config_text(_explicit("row2 = -1 0")),
                 ValidationError, "[model.a]: expected key 'row1', found "
                 "'row2'", id="config-row2-first"),
    pytest.param(lambda: parse_config_text(_explicit("")), ValidationError,
                 "[model.a] is empty", id="config-empty-matrix"),
    pytest.param(lambda: parse_config_text(_explicit(
        "row1 = -1 0 0 0\nrow2 = 0 0", "row1 = 0 0 0 0\nrow2 = 0 0 0 0")),
        ValidationError, "[model.a] row2: expected 2 entries, got 1",
        id="config-ragged-row"),
    pytest.param(lambda: parse_config_text("[job]\nseed = x\n"),
                 ValidationError, "[job] seed: not an integer",
                 id="config-seed-not-an-integer"),
    pytest.param(lambda: parse_config_text("n = 2\n"), ValidationError,
                 "config parse error", id="config-unparsable"),
    pytest.param(lambda: parse_config_text("[model]\nkind = bogus\n"),
                 ValidationError, "[model] kind must be one of ('explicit', "
                 "'physical', 'hatano-nelson'), got 'bogus'",
                 id="config-kind-bogus"),
    pytest.param(lambda: parse_config_text(
        "[model]\nkind = hatano-nelson\n[model.hatano-nelson]\nlambda = 0.3\n"),
        ValidationError, "[model.hatano-nelson]: chain length n is required",
        id="config-hatano-nelson-without-n"),
    pytest.param(lambda: parse_config_text("[initial]\nstate = thermal\n"),
                 ValidationError, "[initial] state must be 'vacuum' or "
                 "'matrix', got 'thermal'", id="config-state-thermal"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_public_refusal_names_its_reason(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("command, job, fragment", [
    ("evolve", "[times]\nvalues = 0 1\n", "config does not define a model"),
    ("steady", "", "config does not define a model"),
    ("skin", _explicit(), "skin requires a hatano-nelson model section"),
])
def test_command_refuses_a_job_without_its_model(tmp_path, capsys, command,
                                                 job, fragment):
    cfg = tmp_path / "job.ini"
    cfg.write_text(job, encoding="utf-8")
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err \
        == f"quadferm: validation error: {fragment}\n"


def test_initial_matrix_without_initial_section_is_the_state():
    cfg = parse_config_text(_explicit() + "[initial.r]\nrow1 = 0.25 0\n")
    assert np.array_equal(cfg.initial.r, [[0.25]])


def test_non_hermitian_noise_is_not_admissible():
    assert not AffineGenerator(-_EYE2, [[1.0, 0.5], [0.0, 1.0]]).gksl


def test_output_without_out_goes_to_stdout_as_the_file_bytes(tmp_path,
                                                              capsys):
    out = tmp_path / "verify.csv"
    argv = ["verify", "--n", "1", "--draws", "1"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
def test_write_that_fails_after_the_job_exits_1(capsys):
    assert cli.main(["verify", "--n", "1", "--draws", "1",
                     "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err.startswith(
        "quadferm: validation error: cannot write output '/dev/full': ")
