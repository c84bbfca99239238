"""Dense complex linear-algebra kernels.

Everything downstream (affine flows, correlation-matrix dynamics, the
dissipative skin-effect construction) reduces to three operations on square
complex matrices: the matrix exponential, the finite-time noise integral
``int_0^t e^{sA} M e^{sA'} ds`` and the continuous Lyapunov solve
``A T + T A' = -M``.  The solve factors its drift once, by one dense
complex Schur form ordered with its damped eigenvalues first (LAPACK
trsen); that ordering is the one place a mode is classified as undamped.
Bartels-Stewart (LAPACK trsyl) on the damped block is also the long-time
limit of an admissible drift.

Every fast-path postcondition follows one of three rules, which read alike
when (A, M) are rescaled, as the claims they check do (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., ch. 1 and 7); each check's
tolerance is a constant below, with its rule.  One floor stays, with its
reason where it stands: the dense oracle's input check of antisymmetry in
``fock.majorana_liouvillian``.

======================  ====================================================
rule                    error model
======================  ====================================================
normwise relative       ``_relative(r, x) <= tol``, that is ``||r|| <= tol
                        ||x||`` in Frobenius norms with no floor, taken after
                        one common power-of-two scaling so that they do not
                        overflow (:func:`_relative`): forming x errs by
                        about u ||x||, in any units; so noise on
                        the undamped modes of an admissible pair,
                        ``P0 M P0``, zero in exact arithmetic, is about
                        u ||M||
componentwise relative  entry by entry, where a norm misses the small
                        entries of a graded result; a solution T of
                        ``A T + T A† + M = 0`` by its backward error
                        ``|A T + T A† + M| / (|A| B + B |A|ᵀ + |M|)``, B a
                        scale of |T| (:func:`_backward_error`; ch. 16),
                        which also reads alike in every frame ``D⁻¹ T D⁻¹``
absolute                only where the quantity is, as R's spectrum in [0, 1]
growth gate             a flow is powered only past ``τ max|Re λ(A)| >= 1``:
                        a near-identity e^{τA} keeps only about
                        u / (τ ||A||) of A, and its j-th power keeps no more
floored                 ``||r|| <= tol max(1, ||x||)``, only where x may be
                        an exact zero computed as all roundoff
======================  ====================================================
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import PhysicsError, ValidationError

__all__ = [
    "as_square",
    "hermitize",
    "is_hermitian",
    "mat_exp",
    "lyapunov_solve",
]

#: The table's tolerances, one per check, with its rule
_HERMITIAN_TOL = 1e-12      # normwise: is_hermitian
_GKSL_TOL = 1e-10           # normwise: affine.AffineGenerator.gksl
_SIMILARITY_TOL = 1e-10     # normwise: skin.build_matrices
_FLAT_SPLIT_TOL = 1e-9      # normwise: skin.featureless_choice
_IDEMPOTENT_TOL = 1e-10     # normwise: opbasis.project_persistent
_COMMUTE_TOL = 1e-6         # normwise: _noise_limit's P0 against A
_FIXED_POINT_TOL = 1e-12    # componentwise: skin.build_bath
_PROFILE_TOL = 1e-10        # componentwise: skin.steady_profile
_SPECTRUM_TOL = 1e-10       # absolute: gaussian.GaussianState
_ENDPOINT_TOL = 1e-12       # absolute: fock.gaussian_density
_ANTISYM_TOL = 1e-12        # floored: fock.majorana_liouvillian
#: ``_noise_limit``'s residual (componentwise) and, normwise, its noise on
#: the undamped modes; ``Re λ >= -_AXIS_BAND max|λ|`` is undamped
_RESIDUAL_TOL = 1e-10
_AXIS_BAND = 1e-9
#: ``gaussian.evolve_grid``'s growth gate on ``τ max|Re λ(A)|``
_POWER_GROWTH = 1.0


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a square complex ndarray.

    Raises ValidationError for non-square shapes or non-finite entries.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a†)/2."""
    return (a + a.conj().T) / 2


def _unit_scale(*arrays) -> float:
    """The power of two ``2^-e`` that takes the largest entry of ``arrays``
    into [0.5, 1) (into [1, 2) past 2^1023, and 2^1023 at most; 1 if all
    are zero), NaN if an entry is not finite.  Multiplying by it is exact
    wherever no entry underflows, and no Frobenius norm of the result
    overflows."""
    tops = [float(abs(x).max(initial=0.0)) for x in arrays]
    return (math.ldexp(1.0, min(-math.frexp(max(tops))[1], 1023))
            if all(map(math.isfinite, tops)) else math.nan)


def _relative(r: np.ndarray, x: np.ndarray) -> float:
    """``||r||_F / ||x||_F``, the normwise rule's one ratio: both divided
    by one :func:`_unit_scale`, so no norm overflows or underflows
    wholesale, and where neither would the ratio is bit for bit the
    unscaled one.  0 for r = 0, +inf for r != 0 and x = 0, and NaN where
    an entry is NaN or infinite, so ``_relative(r, x) <= tol`` refuses
    it."""
    s = _unit_scale(r, x)
    num, den = np.linalg.norm(r * s), np.linalg.norm(x * s)
    return float(num / den) if den else (0.0 if num == 0 else math.inf)


def is_hermitian(a: np.ndarray) -> bool:
    return bool(_relative(a - a.conj().T, a) <= _HERMITIAN_TOL)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential e^a of a square complex matrix.

    Scaling-and-squaring with a Pade approximant (scipy.linalg.expm), which
    stays accurate for the highly non-normal drifts produced by asymmetric
    hopping models.
    """
    arr = as_square(a, "mat_exp argument")
    return scipy.linalg.expm(arr)


#: Per-chunk growth exponent cap for the block-exponential integral.
_VAN_LOAN_THETA = 8.0


def _real_abscissa(a: np.ndarray) -> float:
    """``max|Re λ(A)|``, the growth rate :func:`_van_loan_pair` counts its
    chunks by (0 for an empty matrix)."""
    return float(np.max(np.abs(np.linalg.eigvals(a).real), initial=0.0))


def _van_loan_pair(a: np.ndarray, m: np.ndarray, t: float, abscissa: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(e^{tA}, int_0^t e^{sA} M e^{sA†} ds)`` for t > 0 and
    operands that :func:`~quadferm.affine.flow` has checked, given A's
    :func:`_real_abscissa`.

    Computed from the exponential of the 2n x 2n block matrix
    ``[[A, M], [0, -A†]]``: with W = expm(s * block), the top-left block is
    e^{sA} and the top-right block times e^{sA†} gives the integral over
    [0, s].  The -A† block grows like e^{s |Re lambda|}, which destroys the
    extraction once ``s * max|Re lambda|`` passes a few dozen, so long
    horizons are split into k equal chunks of bounded growth, and the
    chunk element is raised to the k-th power by :func:`_affine_power`:
    one block exponential and O(log k) matrix products in total, so the
    cost grows as log t.  The integral is Hermitian whenever ``m`` is.
    """
    n = a.shape[0]
    chunks = max(1, int(np.ceil(t * abscissa / _VAN_LOAN_THETA)))
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a
    block[:n, n:] = m
    block[n:, n:] = -a.conj().T
    w = mat_exp(t / chunks * block)
    prop_step = w[:n, :n]
    return _affine_power(prop_step, w[:n, n:] @ prop_step.conj().T, chunks,
                         is_hermitian(m))


def _affine_power(prop_step: np.ndarray, g_step: np.ndarray, k: int,
                  hermitian: bool) -> tuple[np.ndarray, np.ndarray]:
    """The k-th power, k >= 1, of the flow element ``(e^{sA}, G(s))``: the
    pair ``(e^{ksA}, G(ks))``, by binary powering with the cocycle identity
    ``G(t+s) = G(s) + e^{sA} G(t) e^{sA†}`` in O(log k) matrix products.
    G(ks) is hermitized when ``hermitian`` (M Hermitian), as G(s) is."""
    n = prop_step.shape[0]
    prop, out = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    # Invariant: (prop_step, g_step) is the element raised to the current
    # bit's power; (prop, out) accumulates the bits already set.
    while k:
        if k & 1:
            prop = prop_step @ prop
            out = prop_step @ out @ prop_step.conj().T + g_step
        k >>= 1
        if k:
            g_step = g_step + prop_step @ g_step @ prop_step.conj().T
            prop_step = prop_step @ prop_step
    if hermitian:
        out = hermitize(out)
    return prop, out


def _ordered_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Complex Schur form ``a = q r q†``, its j damped eigenvalues first.

    The one rule for which modes are undamped: an eigenvalue is damped iff
    ``Re λ < -1e-9 max|λ|`` (a NaN is undamped), alike in every frame of
    ``a``, whose leading j Schur vectors then span the damped subspace.
    LAPACK trsen reorders the form; with j = n it leaves ``r`` and ``q``.
    """
    r, q = scipy.linalg.schur(a, output="complex")
    if a.shape[0] == 0:
        return r, q, 0
    eigs = r.diagonal()
    damped = eigs.real < -_AXIS_BAND * np.max(np.abs(eigs))
    r, q, _, j, _, _, info = scipy.linalg.lapack.ztrsen(damped, r, q,
                                                        job="N")
    if info != 0:
        raise PhysicsError(f"Schur reordering failed (trsen info={info})")
    return r, q, int(j)


def _backward_error(a: np.ndarray, t: np.ndarray, m: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Entrywise backward error of T as a solution of ``A T + T A† + M =
    0``: ``|A T + T A† + M| / (|A| B + B |A|ᵀ + |M|)``, given a scale
    ``B >= |T|`` of T, and the bare residual where that scale is 0 (Higham,
    BIT 33 (1993) 124).  Multiplying (A, M) by one number, or taking (A,
    T, M) to a diagonal frame ``(D⁻¹ A D, D⁻¹ T D⁻¹, D⁻¹ M D⁻¹)`` with B,
    leaves it; a NaN stays NaN."""
    res = np.abs(a @ t + t @ a.conj().T + m)
    scale = np.abs(a) @ b + b @ np.abs(a).T + np.abs(m)
    return res / np.where(scale > 0, scale, 1.0)


def _noise_limit(a: np.ndarray, m: np.ndarray, admissible: bool
                 ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """``(T, λ, j, P0)`` for checked operands: ``T = int_0^inf e^{sA} M
    e^{sA†} ds``, A's eigenvalues λ, the j damped first, and the orthogonal
    projector P0 onto the undamped modes.

    Bartels-Stewart (CACM 15 (1972) 820): trsyl on the damped block of the
    ordered Schur form ``D⁻¹ A D = q r q†`` gives ``D⁻¹ T D⁻¹``, in the
    frame ``D = diag(sqrt|M_jj|)`` (1 where ``M_jj = 0``) that graded
    solutions need (the skin effect).  ``D⁻¹ M D⁻¹`` is formed as ``M_ik /
    d_i / d_k``, which cannot overflow where ``|M_ik| <= d_i d_k``, as for
    M >= 0, though ``d_i d_k`` may underflow.  D = I where that frame would
    more than double ``||A||_F``, or where ``D⁻¹ A D`` or ``D⁻¹ M D⁻¹`` is
    not finite (M not positive).  For an ``admissible`` pair, M vanishes on
    the undamped modes, which span the complement of the damped ones, D⁻¹
    q_u.

    T must solve the full equation ``A T + T A† + M = 0`` entry by entry:
    its :func:`_backward_error` with ``B = max(|T|, s sᵀ)``, ``s =
    sqrt|diag T|`` (``|T_ik| <= s_i s_k`` for T >= 0, so its small entries,
    zero in exact arithmetic, are judged against the occupations they sit
    between), must be at most 1e-10 at every entry, else PhysicsError.  The
    test reads alike at every scale of (A, M) and in every frame, so it
    holds one T to one standard whichever frame solved it; a graded T
    whose small entries are roundoff fails it.  The error names its cause:
    noise that reaches an undamped mode (one in the band but off the axis
    has no limit here), naming each undamped ``lambda_i``; else an equation
    too ill-conditioned for a direct solve.

    Before solving, with an undamped mode, the noise on the undamped modes
    must pass ``||P0 M P0|| <= 1e-10 ||M||``: an admissible pair has ``P0 M
    P0 = 0`` up to roundoff, so this holds or fails alike at every scale
    (a slowly damped mode in the band that receives noise); and P0 must
    commute with A, ``||A P0 - P0 A|| <= 1e-6 ||A||``.  PhysicsError
    names each undamped ``lambda_i`` of a pair not ``admissible``.
    """
    n = a.shape[0]
    d = np.sqrt(np.where(m.diagonal() == 0, 1.0, np.abs(m.diagonal())))
    with np.errstate(all="ignore"):  # a frame that overflows is not used
        a_scaled = a / d[:, None] * d
        m_scaled = m / d[:, None] / d
    if not (np.isfinite(m_scaled).all() and _relative(a_scaled, a) <= 2):
        # an inflating frame's error grows as the square of the inflation
        d, a_scaled, m_scaled = np.ones_like(d), a, m
    r, q, j = _ordered_schur(a_scaled)
    named = ", ".join(f"lambda_{i} = {z:.6g}"
                      for i, z in enumerate(r.diagonal()[j:]))
    if j < n and not admissible:
        raise PhysicsError(
            "no unique steady state: drift eigenvalues on or right of the "
            f"imaginary-axis band Re lambda >= -{_AXIS_BAND:g} max|lambda| "
            f"[{named}]"
        )
    w = np.linalg.qr(q[:, j:] / d[:, None])[0]
    p0 = hermitize(w @ w.conj().T)
    if j < n:
        noise = _relative(p0 @ m @ p0, m)
        if not noise <= _RESIDUAL_TOL:
            raise PhysicsError(
                f"noise on the undamped modes ||P0 M P0|| = {noise:.3e} "
                f"||M|| exceeds {_RESIDUAL_TOL:g} ||M||; noise reaches the "
                f"undamped modes [{named}]"
            )
        comm = _relative(a @ p0 - p0 @ a, a)
        if not comm <= _COMMUTE_TOL:
            raise PhysicsError(
                f"persistent projector fails to commute with the drift "
                f"(residual {comm:.3e} ||A||); spectrum too close to the "
                "band edge"
            )
    t_mat = np.zeros((n, n), dtype=complex)
    if j:
        qd = q[:, :j]
        rhs = qd.conj().T @ m_scaled @ qd
        y, y_scale, _ = scipy.linalg.lapack.ztrsyl(r[:j, :j], r[:j, :j],
                                                   -rhs, tranb="C")
        t_mat = qd @ (y / y_scale) @ qd.conj().T * d[:, None] * d
    s = np.sqrt(np.abs(t_mat.diagonal()))
    b = np.maximum(np.abs(t_mat), np.outer(s, s))
    ratio = _backward_error(a, t_mat, m, b)
    worst = np.max(ratio, initial=0.0)
    if not worst <= _RESIDUAL_TOL:
        where = (f"{worst:.3e} of |A|B + B|A†| + |M|, B = max(|T|, "
                 f"sqrt|T_ii T_kk|), at (i, k) = {divmod(int(np.argmax(ratio)), n)}")
        raise PhysicsError(
            f"Lyapunov residual {where} exceeds {_RESIDUAL_TOL:g}; " + (
                f"noise reaches the undamped modes [{named}]" if j < n
                else "the equation is too ill-conditioned for a direct solve")
        )
    if is_hermitian(m):
        t_mat = hermitize(t_mat)
    return t_mat, r.diagonal(), j, p0


def lyapunov_solve(a, m) -> np.ndarray:
    """Solve ``A T + T A† = -M`` for a strictly stable drift: T is the
    noise integral ``int_0^inf e^{sA} M e^{sA†} ds``, accurate entry by
    entry where it is graded.

    Raises PhysicsError, naming each undamped ``lambda_i``, unless every
    eigenvalue has ``Re λ < -1e-9 max|λ|`` (the one rule, which
    :func:`~quadferm.gaussian.asymptotic_decomposition` applies too; so
    ``|λ_i + conj λ_j| > 2e-9 max|λ|``), and if T misses the equation
    entry by entry by more than 1e-10 of its scale, at any scale of (A, M)
    (:func:`_noise_limit`).
    """
    a = as_square(a, "drift")
    m = as_square(m, "right-hand side")
    if a.shape != m.shape:
        raise ValidationError(f"size mismatch: {a.shape} vs {m.shape}")
    return _noise_limit(a, m, admissible=False)[0]
