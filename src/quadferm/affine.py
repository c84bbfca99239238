"""The affine transformation group on square complex matrices.

Pairs (U, M) with U invertible act on n x n matrices by
``X -> U X U† + M``.  They form a semidirect product of the general linear
group with the additive matrix group, with composition
``(U, M) ∘ (V, N) = (UV, U N U† + M)``.  Its Lie algebra consists of pairs
(A, M) with bracket ``([A, B], A N + N A† - B M - M B†)``, and the
one-parameter semigroup generated by (A, M) is
``t -> (e^{tA}, int_0^t e^{sA} M e^{sA†} ds)``.

This calculus reproduces, at the n x n level, the commutator algebra of the
quadratic-fermion Liouvillians assembled in :mod:`quadferm.fock`; it is what
makes the correlation-matrix dynamics in :mod:`quadferm.gaussian` exact.
:func:`flow` is the package's one propagator: every correlation-matrix
evolution is ``act(flow(p, t), r)``.  Since e^{tA} of a damped drift
underflows to zero at long horizons, only :func:`inverse` checks that u is
invertible.

A generator (A, M) is admissible (generates a completely positive
trace-preserving semigroup) iff ``O <= M <= -A - A†``, exactly when its
flow keeps every R with ``O <= R <= I`` in that interval; the flag is
:attr:`AffineGenerator.gksl`, computed when first read.  The spectrum that
sets :func:`flow`'s chunk count is cached the same way, so every flow of
one generator shares one ``eigvals``.  A generator keeps read-only copies
of ``a`` and ``m``, so neither cache can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import (_GKSL_TOL, _real_abscissa, _unit_scale, _van_loan_pair,
                     as_square, hermitize, is_hermitian)

__all__ = [
    "AffineElement",
    "AffineGenerator",
    "identity",
    "act",
    "compose",
    "inverse",
    "bracket",
    "flow",
]

#: :func:`inverse` rejects linear parts with condition number above this.
_CONDITION_CAP = 1e12


@dataclass(frozen=True)
class AffineElement:
    """Element (u, m): the map ``X -> u X u† + m``; u may be singular."""

    u: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        u = as_square(self.u, "linear part")
        m = as_square(self.m, "translation part")
        if u.shape != m.shape:
            raise ValidationError(
                f"linear and translation parts differ in size: "
                f"{u.shape} vs {m.shape}"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class AffineGenerator:
    """Lie-algebra element (a, m), the infinitesimal affine map."""

    a: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        a = as_square(self.a, "drift part")
        m = as_square(self.m, "noise part")
        if a.shape != m.shape:
            raise ValidationError(
                f"drift and noise parts differ in size: {a.shape} vs {m.shape}"
            )
        # own read-only copies, so the cached gksl and _abscissa stay true
        for name, part in (("a", a), ("m", m)):
            part = part.copy()
            part.setflags(write=False)
            object.__setattr__(self, name, part)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def gksl(self) -> bool:
        """Admissibility: True iff m is Hermitian and ``O <= m <= -a - a†``,
        each least eigenvalue (of m and of ``-a - a† - m``) within
        ``linalg._GKSL_TOL (||a|| + ||m||)``, a bound that scales with the
        pair.  The test reads (a, m) times one power of two, their
        ``linalg._unit_scale``, so ``-a - a† - m`` cannot overflow and each
        scale 2^k of the pair that underflows no entry gets the same
        answer.  Computed on first read, then cached."""
        if not is_hermitian(self.m):
            return False
        s = _unit_scale(self.a, self.m)
        a, m = self.a * s, self.m * s
        tol = _GKSL_TOL * float(np.linalg.norm(a) + np.linalg.norm(m))
        lo = float(np.min(np.linalg.eigvalsh(hermitize(m)), initial=0.0))
        gap = -(a + a.conj().T) - m
        hi = float(np.min(np.linalg.eigvalsh(hermitize(gap)), initial=0.0))
        return lo >= -tol and hi >= -tol

    @cached_property
    def _abscissa(self) -> float:
        """``max|Re λ(a)|``, which sets :func:`flow`'s chunk count and
        ``gaussian.evolve_grid``'s growth gate: one ``eigvals`` per
        generator, computed on the first flow with t > 0, then cached."""
        return _real_abscissa(self.a)


def identity(n: int) -> AffineElement:
    """The identity element (I, O)."""
    return AffineElement(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))


def act(g: AffineElement, x) -> np.ndarray:
    """Apply g = (u, m) to a matrix: ``u x u† + m``."""
    x = as_square(x, "argument")
    if x.shape != g.u.shape:
        raise ValidationError(f"size mismatch: {x.shape} vs {g.u.shape}")
    return g.u @ x @ g.u.conj().T + g.m


def compose(g: AffineElement, h: AffineElement) -> AffineElement:
    """Group law: ``g ∘ h = (u_g u_h, u_g m_h u_g† + m_g)``."""
    if g.u.shape != h.u.shape:
        raise ValidationError(f"size mismatch: {g.u.shape} vs {h.u.shape}")
    return AffineElement(g.u @ h.u, g.u @ h.m @ g.u.conj().T + g.m)


def inverse(g: AffineElement) -> AffineElement:
    """Group inverse ``(u⁻¹, -u⁻¹ m u⁻¹†)``; rejects a singular u."""
    if np.linalg.cond(g.u) > _CONDITION_CAP:
        raise ValidationError(
            "linear part is singular or too ill-conditioned "
            f"(cond > {_CONDITION_CAP:.0e})"
        )
    u_inv = np.linalg.inv(g.u)
    return AffineElement(u_inv, -u_inv @ g.m @ u_inv.conj().T)


def bracket(p: AffineGenerator, q: AffineGenerator) -> AffineGenerator:
    """Lie bracket ``([A,B], A N + N A† - B M - M B†)``."""
    if p.a.shape != q.a.shape:
        raise ValidationError(f"size mismatch: {p.a.shape} vs {q.a.shape}")
    a, m = p.a, p.m
    b, n = q.a, q.m
    return AffineGenerator(
        a @ b - b @ a,
        a @ n + n @ a.conj().T - b @ m - m @ b.conj().T,
    )


def flow(p: AffineGenerator, t: float) -> AffineElement:
    """One-parameter semigroup ``(e^{tA}, int_0^t e^{sA} M e^{sA†} ds)``.

    Satisfies ``flow(p, t) ∘ flow(p, s) = flow(p, t + s)`` and
    ``flow(p, 0) = (I, O)`` exactly.  Both parts come from one block
    exponential, cut into chunks by p's cached spectrum; a t whose
    ``t max|Re λ|`` is not finite is refused (ValidationError).
    """
    t = float(t)
    if not 0 <= t < np.inf:
        raise ValidationError(f"flow time must be finite and >= 0, got {t}")
    if t == 0.0:
        return identity(p.n)
    if not np.isfinite(t * p._abscissa):
        raise ValidationError(
            f"flow time t = {t} at max|Re λ| = {p._abscissa}: "
            "t max|Re λ| overflows a double")
    return AffineElement(*_van_loan_pair(p.a, p.m, t, p._abscissa))

