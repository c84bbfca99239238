"""Boundary-localized steady states of an asymmetric-hopping chain.

A one-dimensional chain with asymmetric nearest-neighbor hopping has a
non-Hermitian Hamiltonian that a diagonal similarity ``V(kappa)``,
``kappa = sqrt((gamma - lambda)/(gamma + lambda)) < 1``, maps to a Hermitian
one, so its eigenvectors pile up at one edge (the skin effect).
This module embeds that Hamiltonian into the open-system framework: given
the chain parameters it constructs a gain matrix E such that the generator
pair ``A = -i H_nh - 2E, M = 2E`` is admissible and its unique steady state
is the diagonal correlation matrix ``X = x V(kappa)^{-2}``, whose
occupations grow geometrically toward one end.  The contrasting
"featureless" gain choice ``E = delta D`` yields the flat steady state
``X = delta/(1 + delta) I`` for the same non-Hermitian Hamiltonian, showing
that the bath split, not the Hamiltonian alone, decides localization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .affine import AffineGenerator
from .errors import PhysicsError, ValidationError
from .gaussian import steady_state
from .linalg import (_FIXED_POINT_TOL, _FLAT_SPLIT_TOL, _PROFILE_TOL,
                     _SIMILARITY_TOL, hermitize, lyapunov_solve)

__all__ = [
    "HatanoNelsonParams",
    "build_matrices",
    "build_bath",
    "steady_profile",
    "featureless_choice",
    "localization_slope",
]


@dataclass(frozen=True)
class HatanoNelsonParams:
    """Chain parameters: size n, on-site energy omega, hopping asymmetry
    (gamma +/- lam on the two directions), uniform loss rate a*gamma, and
    the steady-state amplitude x.

    Validity requires omega > 0, gamma > lam > 0 and a > 2 (which makes the
    bath construction positive definite), and
    ``0 < x < kappa^(2n-2) / 2`` so every steady occupation stays below 1/2.
    ``x`` defaults to the midpoint-safe ``kappa^(2n-2) / 4``.
    """

    n: int
    omega: float
    lam: float
    gamma: float
    a: float
    x: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"chain length must be >= 1, got {self.n}")
        if not self.omega > 0:
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if not self.lam > 0:
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        if not self.gamma > self.lam:
            raise ValidationError(
                f"gamma must exceed lambda, got gamma={self.gamma}, "
                f"lambda={self.lam}"
            )
        if not self.a > 2:
            raise ValidationError(f"loss parameter a must exceed 2, got {self.a}")
        cap = self.kappa ** (2 * self.n - 2) / 2
        if cap / 2 == 0:
            raise ValidationError(
                f"amplitude bound kappa^(2n-2)/2 underflows to {cap:.3g} at "
                f"n={self.n}, kappa={self.kappa:.6g}, so no amplitude x fits; "
                f"the longest usable chain at this kappa has "
                f"n={_longest_chain(self.kappa)}"
            )
        if self.x is None:
            object.__setattr__(self, "x", cap / 2)
        if not 0 < self.x < cap:
            raise ValidationError(
                f"amplitude x must lie in (0, {cap:.6g}), got {self.x}"
            )

    @property
    def kappa(self) -> float:
        return float(np.sqrt((self.gamma - self.lam) / (self.gamma + self.lam)))


def _longest_chain(kappa: float) -> int:
    """Largest n whose default amplitude kappa^(2n-2)/4 is a positive double."""
    tiny = float(np.finfo(float).smallest_subnormal)
    n = 1 + int(np.log(4 * tiny) / (2 * np.log(kappa)))
    while kappa ** (2 * n) / 4 > 0:
        n += 1
    while n > 1 and kappa ** (2 * n - 2) / 4 == 0:
        n -= 1
    return n


class SkinMatrices(NamedTuple):
    h_nh: np.ndarray     # non-Hermitian Hamiltonian of the open chain
    f: np.ndarray        # symmetric nearest-neighbor hopping pattern
    g: np.ndarray        # Hermitian current pattern i(sub - super)
    v_kappa: np.ndarray  # diagonal similarity diag(kappa^(j-1))


def _hopping_patterns(n: int) -> tuple[np.ndarray, np.ndarray]:
    ones = np.ones(n - 1)
    f = np.diag(ones, -1) + np.diag(ones, 1)
    g = 1j * np.diag(ones, -1) - 1j * np.diag(ones, 1)
    return f.astype(complex), g


def build_matrices(p: HatanoNelsonParams) -> SkinMatrices:
    """Lattice matrices of the open chain.

    The non-Hermitian Hamiltonian is ``(omega - i a gamma) I + K`` with
    (gamma + lam) on the subdiagonal and -(gamma - lam) on the
    superdiagonal; conjugating by V(kappa) turns it into
    ``(omega - i a gamma) I - i sqrt(gamma^2 - lam^2) g``, which is normal;
    PhysicsError unless that holds to ``_SIMILARITY_TOL ||H_nh||``.
    """
    n = p.n
    f, g = _hopping_patterns(n)
    ones = np.ones(n - 1)
    k = (p.gamma + p.lam) * np.diag(ones, -1) - (p.gamma - p.lam) * np.diag(ones, 1)
    h_nh = (p.omega - 1j * p.a * p.gamma) * np.eye(n) + k
    v_kappa = np.diag(p.kappa ** np.arange(n)).astype(complex)
    v_inv = np.diag(p.kappa ** -np.arange(n))
    target = (p.omega - 1j * p.a * p.gamma) * np.eye(n) \
        - 1j * np.sqrt(p.gamma ** 2 - p.lam ** 2) * g
    residual = np.linalg.norm(v_kappa @ h_nh @ v_inv - target)
    if residual > _SIMILARITY_TOL * np.linalg.norm(h_nh):
        raise PhysicsError(
            f"similarity check failed with residual {residual:.3e}; "
            "chain parameters are numerically degenerate"
        )
    return SkinMatrices(h_nh=h_nh, f=f, g=g, v_kappa=v_kappa)


def build_bath(p: HatanoNelsonParams) -> AffineGenerator:
    """Admissible pair ``A = -i H_nh - 2E, M = 2E`` whose steady state is
    ``X = x V(kappa)^{-2}``.

    E solves ``(2X - I) E + E (2X - I) = -Q`` with
    ``Q = x V^{-1} [2 a gamma I + 2 sqrt(gamma^2-lam^2) g] V^{-1} >= 0``;
    the amplitude bound keeps ``2X - I`` negative definite so the solution
    equals the convergent integral of ``e^{(2X-I)s} Q e^{(2X-I)s}``; with
    ``c = diag(2X - I)`` that is ``E_ij = -Q_ij / (c_i + c_j)``.
    Raises PhysicsError unless the pair is admissible (its ``gksl`` flag)
    and ``A X + X A† + M = 0`` holds entrywise to ``_FIXED_POINT_TOL`` of
    ``|A||X| + |X||A†| + |M|``, which scales with the graded X.
    """
    mats = build_matrices(p)
    n = p.n
    v_inv = np.diag(p.kappa ** -np.arange(n)).astype(complex)
    x_mat = p.x * v_inv @ v_inv
    q = p.x * v_inv @ (
        2 * p.a * p.gamma * np.eye(n)
        + 2 * np.sqrt(p.gamma ** 2 - p.lam ** 2) * mats.g
    ) @ v_inv
    c = 2 * x_mat.diagonal() - 1
    m = 2 * hermitize(-q / (c[:, None] + c[None, :]))
    params = AffineGenerator(-1j * mats.h_nh - m, m)
    if not params.gksl:
        raise PhysicsError("bath pair fails O <= M <= -A - A†")
    a = params.a
    res = np.abs(a @ x_mat + x_mat @ a.conj().T + m)
    scale = np.abs(a) @ np.abs(x_mat) + np.abs(x_mat) @ np.abs(a).T + np.abs(m)
    worst = float(np.max(res / np.where(scale > 0, scale, 1.0)))
    if not worst <= _FIXED_POINT_TOL:
        raise PhysicsError(
            f"target steady state violates the fixed-point equation "
            f"(entrywise residual {worst:.3e} of |A||X| + |X||A†| + |M|)"
        )
    return params


def steady_profile(p: HatanoNelsonParams) -> np.ndarray:
    """Steady occupations n_j = x kappa^(2-2j), the real diagonal of the
    Gaussian steady state's correlation matrix.  Raises PhysicsError unless
    each is within ``_PROFILE_TOL`` relative: they span kappa^(2-2n), and
    this checks the solve, where :func:`build_bath` checks its target."""
    occ = steady_state(build_bath(p)).occupations()
    target = p.x * p.kappa ** (-2.0 * np.arange(p.n))
    err = float(np.max(np.abs(occ / target - 1)))
    if not err <= _PROFILE_TOL:
        raise PhysicsError(
            f"steady occupations miss x kappa^(2-2j) by {err:.3e} relative")
    return occ


def localization_slope(profile: np.ndarray) -> tuple[float, float]:
    """Mean and max deviation of the per-site slope of log occupations;
    ValidationError for fewer than two sites, which have no slope."""
    if len(profile) < 2:
        raise ValidationError(
            f"a slope needs a chain of at least 2 sites, got {len(profile)}")
    steps = np.diff(np.log(np.asarray(profile, dtype=float)))
    return float(np.mean(steps)), float(np.max(np.abs(steps - np.mean(steps))))


def featureless_choice(p: HatanoNelsonParams, delta: float) -> np.ndarray:
    """Steady state of the flat gain split ``E = delta D``.

    The same non-Hermitian Hamiltonian, with loss and gain now sharing one
    spatial profile, relaxes to ``X = delta/(1+delta) I``: no localization.
    Requires ``0 < delta < 1`` so both Gram matrices stay positive; raises
    PhysicsError unless the solve meets X to ``_FLAT_SPLIT_TOL ||X||``.
    """
    delta = float(delta)
    if not 0 < delta < 1:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    mats = build_matrices(p)
    n = p.n
    d_mat = p.gamma * (p.a * np.eye(n) + mats.g) / (1 - delta)
    e_mat = delta * d_mat
    h = p.omega * np.eye(n) + p.lam * mats.f
    a_mat = -1j * h - d_mat - e_mat
    x_out = lyapunov_solve(a_mat, 2 * e_mat)
    target = delta / (1 + delta) * np.eye(n)
    err = np.linalg.norm(x_out - target) / np.linalg.norm(target)
    if not err <= _FLAT_SPLIT_TOL:
        raise PhysicsError("flat-split steady state deviates from "
                           f"delta/(1+delta) I by {err:.3e} relative")
    return x_out
