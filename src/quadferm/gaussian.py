"""Gaussian (correlation-matrix) representation of states and dynamics.

A Gaussian state of n fermionic modes is labelled by its one-particle
correlation matrix R, Hermitian with spectrum in [0, 1], where
``R_jk = Tr[c_k† c_j rho]``.  Under a Markovian generator with drift A and
noise M the label evolves by the affine flow

    R(t) = e^{tA} R e^{tA†} + int_0^t e^{sA} M e^{sA†} ds,

which is polynomial in n.  This module is the efficient path; the
exponential-cost ground truth lives in :mod:`quadferm.fock`.

The generator is an :class:`~quadferm.affine.AffineGenerator` (A, M); its
flag ``gksl`` says whether it is admissible, ``O <= M <= -A - A†``, which is
what keeps R's spectrum in [0, 1].  A microscopic model (Hamiltonian matrix
H, loss vectors, gain vectors) maps onto ``A = -iH - D - E, M = 2E`` with D
and E the loss/gain Gram matrices, an admissible pair by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .affine import AffineElement, AffineGenerator, act, flow
from .errors import PhysicsError, ValidationError
from .linalg import (_POWER_GROWTH, _SPECTRUM_TOL, _affine_power,
                     _noise_limit, as_square, hermitize, is_hermitian,
                     lyapunov_solve)

__all__ = [
    "GaussianState",
    "AsymptoticDecomposition",
    "params_from_model",
    "evolve_grid",
    "evolve_state",
    "steady_state",
    "asymptotic_decomposition",
    "expectation_quadratic",
    "entropy",
]


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: correlation matrix ``r``, Hermitian relative to its
    norm, with spectrum in [0, 1] to an absolute ``_SPECTRUM_TOL`` (they are
    probabilities); ``spectrum`` keeps the check's ascending eigenvalues."""

    r: np.ndarray
    spectrum: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        r = as_square(self.r, "correlation matrix")
        if not is_hermitian(r):
            raise ValidationError("correlation matrix must be Hermitian")
        h = hermitize(r)
        (occ,) = _check_states(h[None])
        object.__setattr__(self, "r", h)
        object.__setattr__(self, "spectrum", occ)

    @classmethod
    def _checked(cls, r, spectrum) -> "GaussianState":
        """A state whose r and spectrum :func:`_check_states` has passed."""
        state = object.__new__(cls)
        state.__dict__.update(r=r, spectrum=spectrum)
        return state

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @classmethod
    def vacuum(cls, n: int) -> "GaussianState":
        return cls(np.zeros((n, n), dtype=complex))

    def occupations(self) -> np.ndarray:
        """Mode occupations, the real diagonal of r."""
        return self.r.diagonal().real.copy()


def params_from_model(h, loss_vectors=(), gain_vectors=()) -> AffineGenerator:
    """Generator pair of a microscopic model: A = -iH - D - E, M = 2E.

    ``h`` is the Hermitian n x n Hamiltonian matrix; D and E sum ``v v†``
    over the length-n loss and gain coupling vectors.  Admissibility is
    automatic here: M = 2E >= 0 and -A - A† - M = 2D >= 0 by construction.
    Raises ValidationError for a non-Hermitian h or a vector of another
    length.
    """
    h = as_square(h, "hamiltonian matrix")
    if not is_hermitian(h):
        raise ValidationError("hamiltonian matrix must be Hermitian")
    d = _gram(loss_vectors, h.shape[0])
    e = _gram(gain_vectors, h.shape[0])
    return AffineGenerator(-1j * h - d - e, 2 * e)


def _gram(vectors, n: int) -> np.ndarray:
    """Sum of v v† over coupling vectors of length n."""
    out = np.zeros((n, n), dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape != (n,):
            raise ValidationError(
                f"coupling vector has length {v.shape[0]}, expected {n}"
            )
        out += np.outer(v, v.conj())
    return out


def evolve_grid(params: AffineGenerator, state: GaussianState,
                times) -> list[GaussianState]:
    """Evolve a Gaussian state over sorted times, one state per time.

    Each state comes from the one before it by the semigroup law,
    ``r_k = act(flow(params, s), r_{k-1})`` with the step
    ``s = t_k - t_{k-1}`` and ``t_{-1} = 0``.  Where a step that is not
    reused is at least the time already elapsed, as on logarithmic grids,
    the state is instead ``act(flow(params, s), r)`` from the initial r with
    ``s = t_k``: no rounding compounded over the steps.  One rule says
    when a new flow is needed.  With τ the time of the last flow, ``s = τ``
    (exact float equality) reuses it, so a uniform grid builds at most two
    (t_0 and the step).  Past the growth gate ``τ max|Re λ(A)| >= 1``,
    ``s = jτ`` exactly, as real numbers, with j >= 2 raises it to the j-th
    power (:func:`~quadferm.linalg._affine_power`): O(log j) products and
    no block exponential, so a decade or doubling grid builds fresh flows
    only below the gate.  Any other s builds a fresh :func:`flow`.  Since
    every flow is of exactly its step, the steps add up to each t_k as
    they do with a fresh flow per step.  M is checked Hermitian once,
    before any step; the states are then checked once, as one stack, by
    :func:`_check_states`.

    Raises ValidationError for a size mismatch, a non-Hermitian M (whose
    states would not be), or a negative step (a negative or unsorted
    time), and PhysicsError if a spectrum escapes [0, 1] beyond
    tolerance, which signals an inadmissible generator or numerical
    failure.
    """
    if params.n != state.n:
        raise ValidationError(
            f"size mismatch: params {params.n}, state {state.n}"
        )
    if not is_hermitian(params.m):
        raise ValidationError("correlation matrix must be Hermitian: the "
                              "noise M is not, so no evolved state is")
    times = [float(t) for t in times]
    hs = np.zeros((len(times), state.n, state.n), dtype=complex)
    tau, g = np.nan, None   # g = flow(params, tau), the last flow
    r, prev = state.r, 0.0
    try:
        for k, t in enumerate(times):
            step = t - prev
            base = r
            if step != tau and step >= prev:
                base, step = state.r, t
            if step != tau:
                g, tau = _next_flow(params, g, tau, step), step
            # u r u† + m is Hermitian; rounding can break that in a small r
            hs[k] = r = hermitize(act(g, base))
            prev = t
    except Exception:
        # whatever a step raises, an earlier state's own error comes first;
        # rows not reached are zero, which pass
        _check_states(hs[:k + 1])
        raise
    return [GaussianState._checked(*pair)
            for pair in zip(hs, _check_states(hs))]


def _next_flow(params: AffineGenerator, g: AffineElement, tau: float,
               s: float) -> AffineElement:
    """``flow(params, s)`` given ``g = flow(params, tau)``: g to the j-th
    power where ``s = j tau`` exactly with j >= 2 and tau is past the
    growth gate, which reads the cached abscissa (tau > 0 has built it)
    before dividing by tau; a fresh flow otherwise, also where s / tau
    overflows or s is not a valid time."""
    if tau > 0 and tau * params._abscissa >= _POWER_GROWTH:
        ratio = s / tau
        # Fraction compares the product exactly, not its rounding
        if 1.5 <= ratio < np.inf and round(ratio) * Fraction(tau) == s:
            return AffineElement(*_affine_power(g.u, g.m, round(ratio),
                                                hermitian=True))
    return flow(params, s)


def _check_states(hs: np.ndarray) -> np.ndarray:
    """Check T Hermitian correlation matrices, a (T, n, n) stack, as
    states: each finite, with spectrum in [0, 1] to ``_SPECTRUM_TOL``.
    Returns their (T, n) spectra from one batched ``eigvalsh``, ascending,
    or raises the error of the first state that fails."""
    k = [*np.isfinite(hs).all(axis=(1, 2)), False].index(False)
    occ = np.linalg.eigvalsh(hs[:k])
    escaped = (occ < -_SPECTRUM_TOL) | (occ > 1 + _SPECTRUM_TOL)
    if escaped.any():
        lo, hi = occ[escaped.any(axis=1).argmax()][[0, -1]]
        raise PhysicsError(
            f"correlation spectrum escapes [0, 1]: [{lo:.3e}, {hi:.6f}]"
        )
    if k < len(hs):
        raise ValidationError("correlation matrix contains non-finite entries")
    return occ


def evolve_state(params: AffineGenerator, state: GaussianState,
                 t: float) -> GaussianState:
    """Evolve a Gaussian state to one time t >= 0:
    ``r(t) = act(flow(params, t), r)``, that is
    ``e^{tA} r e^{tA†} + int_0^t e^{sA} M e^{sA†} ds``.

    The one-point case of :func:`evolve_grid`, with its errors.
    """
    return evolve_grid(params, state, [t])[0]


def steady_state(params: AffineGenerator) -> GaussianState:
    """The unique steady state of a drift with every ``Re λ < -1e-9 max|λ|``;
    PhysicsError if its spectrum escapes [0, 1] (an inadmissible pair)."""
    return GaussianState(lyapunov_solve(params.a, params.m))


@dataclass(frozen=True)
class AsymptoticDecomposition:
    """Long-time data: persistent generator, limiting noise, projected state.

    The correlation matrix approaches
    ``m_inf + e^{t a0} (P0 r P0) e^{t a0†}`` as t grows: a stationary part
    plus an undamped oscillation of the projected initial data, at the
    ascending ``frequencies`` ω of the undamped drift eigenvalues ``i ω``.
    ``a0 = a0_flow.a = A P0`` is the persistent drift and ``A - a0`` the
    damped one, with ``e^{t(A - a0)} -> P0``.
    """

    a0_flow: AffineGenerator
    m_inf: np.ndarray
    projected: GaussianState
    p0: np.ndarray
    frequencies: np.ndarray

    def predicted_correlation(self, t: float) -> np.ndarray:
        """The asymptotic correlation matrix at time t >= 0:
        ``m_inf + act(flow(a0_flow, t), P0 r P0)``."""
        return self.m_inf + act(flow(self.a0_flow, t), self.projected.r)


def asymptotic_decomposition(params: AffineGenerator,
                             state: GaussianState) -> AsymptoticDecomposition:
    """Split the long-time behavior into steady and persistent parts.

    ``m_inf = int_0^inf e^{sA} M e^{sA†} ds`` and P0 come from the Schur
    form :func:`lyapunov_solve` reads, so with no undamped mode m_inf is
    :func:`steady_state`'s, bit for bit.  An undamped mode needs an
    admissible pair, else PhysicsError: dissipativity then makes the noise
    vanish on the persistent subspace, so the integral converges.  The
    returned m_inf solves ``A m_inf + m_inf A† + M = 0`` entry by entry,
    to 1e-10 of its scale at any scale of (A, M) (the backward error of
    :func:`~quadferm.linalg._noise_limit`); noise that reaches an undamped
    mode (one in the band but off the axis), ``||P0 M P0|| > 1e-10 ||M||``
    at any scale, is a PhysicsError naming the undamped modes.
    """
    if params.n != state.n:
        raise ValidationError(
            f"size mismatch: params {params.n}, state {state.n}"
        )
    m_inf, eigs, j, p0 = _noise_limit(params.a, params.m, params.gksl)
    return AsymptoticDecomposition(
        a0_flow=AffineGenerator(params.a @ p0, np.zeros_like(p0)),
        m_inf=m_inf,
        projected=GaussianState(hermitize(p0 @ state.r @ p0)),
        p0=p0,
        frequencies=np.sort(eigs[j:].imag),
    )


def expectation_quadratic(state: GaussianState, t_mat) -> complex:
    """Expectation of the quadratic observable with coefficient matrix T.

    Equals ``tr(T R)``; real whenever T is Hermitian.
    """
    t_mat = as_square(t_mat, "coefficient matrix")
    if t_mat.shape != state.r.shape:
        raise ValidationError(
            f"size mismatch: {t_mat.shape} vs {state.r.shape}"
        )
    val = complex(np.trace(t_mat @ state.r))
    if is_hermitian(t_mat):
        return complex(val.real)
    return val


def entropy(state: GaussianState) -> float:
    """Von Neumann entropy ``-tr(R log R) - tr((I-R) log(I-R))``.

    Evaluated on the occupation spectrum with the endpoint convention
    ``0 log 0 = 0``: the one-row case of :func:`_entropies`.
    """
    return float(_entropies(state.spectrum[None])[0])


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """The entropy of each row of a (T, n) stack of spectra: ``-q log q``
    for q = p and 1 - p, p clipped to [0, 1], summed left to right from
    0.0; the terms are <= 0, so ``0.0 - cumsum`` has the bits of
    subtracting them one by one, +0.0 for a pure state."""
    p = np.clip(spectra, 0.0, 1.0)
    q = np.stack((p, 1.0 - p), axis=-1).reshape(len(p), -1)
    terms = np.zeros((len(p), q.shape[1] + 1))
    terms[:, 1:] = q * np.log(np.where(q > 0.0, q, 1.0))
    return 0.0 - np.cumsum(terms, axis=1)[:, -1]
