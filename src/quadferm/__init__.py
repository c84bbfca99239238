"""quadferm: Markovian open quadratic fermion systems, exactly.

The efficient path works on n x n correlation matrices through an affine
calculus (:mod:`quadferm.linalg`, :mod:`quadferm.affine`,
:mod:`quadferm.gaussian`, :mod:`quadferm.skin`); the brute-force path checks
it on dense 2^n Fock spaces and 4^n superoperators (:mod:`quadferm.fock`,
:mod:`quadferm.opbasis`, :mod:`quadferm.verify`).
"""

from .affine import (AffineElement, AffineGenerator, act, bracket, compose,
                     flow, identity, inverse)
from .errors import PhysicsError, QuadfermError, ValidationError
from .gaussian import (AsymptoticDecomposition, GaussianState,
                       asymptotic_decomposition, entropy, evolve_grid,
                       evolve_state, expectation_quadratic, params_from_model,
                       steady_state)
from .linalg import lyapunov_solve, mat_exp
from .skin import (HatanoNelsonParams, build_bath, build_matrices,
                   featureless_choice, steady_profile)
from .verify import run_suite

__all__ = [
    "AffineElement", "AffineGenerator", "act", "bracket", "compose",
    "flow", "identity", "inverse",
    "PhysicsError", "QuadfermError", "ValidationError",
    "AsymptoticDecomposition", "GaussianState",
    "asymptotic_decomposition", "entropy", "evolve_grid", "evolve_state",
    "expectation_quadratic", "params_from_model", "steady_state",
    "lyapunov_solve", "mat_exp",
    "HatanoNelsonParams", "build_bath", "build_matrices",
    "featureless_choice", "steady_profile",
    "run_suite",
]

__version__ = "0.1.0"
