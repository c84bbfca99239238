"""Each public entry rejects a bad raw operand itself, so the private
kernels behind it (`fock._operand_terms`, `fock._generator_terms`,
`linalg._van_loan_pair`) can trust what they are given."""

import numpy as np
import pytest

from quadferm import fock
from quadferm.affine import AffineGenerator, flow
from quadferm.errors import ValidationError

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
