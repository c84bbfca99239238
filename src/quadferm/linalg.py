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
tolerance is a constant below, with its rule.  Two floors stay, each with
its reason where it stands, in ``_noise_limit`` and ``majorana_liouvillian``.

======================  ====================================================
rule                    error model
======================  ====================================================
normwise relative       ``||r|| <= tol ||x||`` with no floor: forming x
                        errs by about u ||x||, in any units; so noise on
                        the undamped modes of an admissible pair,
                        ``P0 M P0``, zero in exact arithmetic, is about
                        u ||M||
componentwise relative  entry by entry, where a norm misses the small
                        entries of a graded result
absolute                only where the quantity is, as R's spectrum in [0, 1]
======================  ====================================================
"""

from __future__ import annotations

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
_HERMITIAN_TOL = 1e-12    # normwise: is_hermitian
_GKSL_TOL = 1e-10         # normwise: affine.AffineGenerator.gksl
_SIMILARITY_TOL = 1e-10   # normwise: skin.build_matrices
_FLAT_SPLIT_TOL = 1e-9    # normwise: skin.featureless_choice
_IDEMPOTENT_TOL = 1e-10   # normwise: opbasis.project_persistent
_FIXED_POINT_TOL = 1e-12  # componentwise: skin.build_bath
_PROFILE_TOL = 1e-10      # componentwise: skin.steady_profile
_SPECTRUM_TOL = 1e-10     # absolute: gaussian.GaussianState
_ENDPOINT_TOL = 1e-12     # absolute: fock.gaussian_density
#: ``_noise_limit``'s residual (floored) and, normwise, its noise on the
#: undamped modes; ``Re λ >= -_AXIS_BAND max|λ|`` is undamped
_RESIDUAL_TOL = 1e-10
_AXIS_BAND = 1e-9


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


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.linalg.norm(a - a.conj().T)
                <= _HERMITIAN_TOL * np.linalg.norm(a))


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
    horizons are split into k equal chunks of bounded growth.  The chunk
    element (U_s, G_s) is raised to the k-th power by binary powering with
    the cocycle identity ``G(t+s) = G(s) + e^{sA} G(t) e^{sA†}``: one block
    exponential and O(log k) matrix products in total, so the cost grows
    as log t.  The integral is Hermitian whenever ``m`` is.
    """
    n = a.shape[0]
    prop, out = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    chunks = max(1, int(np.ceil(t * abscissa / _VAN_LOAN_THETA)))
    step = t / chunks
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a
    block[:n, n:] = m
    block[n:, n:] = -a.conj().T
    w = mat_exp(step * block)
    prop_step = w[:n, :n]
    g_step = w[:n, n:] @ prop_step.conj().T
    # Invariant: (prop_step, g_step) is the chunk element raised to the
    # current bit's power; (prop, out) accumulates the bits already set.
    while chunks:
        if chunks & 1:
            prop = prop_step @ prop
            out = prop_step @ out @ prop_step.conj().T + g_step
        chunks >>= 1
        if chunks:
            g_step = g_step + prop_step @ g_step @ prop_step.conj().T
            prop_step = prop_step @ prop_step
    if is_hermitian(m):
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


# Floored, unlike the table's checks: the residual test keeps ``1 + ||M||``
# and the P0 commutation test an absolute 1e-6; which scale-free forms
# replace them is open (ROADMAP.md, items 7 and 10).  Noise that reaches an
# undamped mode is refused by the table's normwise rule, against ||M||.
def _noise_limit(a: np.ndarray, m: np.ndarray, admissible: bool
                 ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """``(T, λ, j, P0)`` for checked operands: ``T = int_0^inf e^{sA} M
    e^{sA†} ds``, A's eigenvalues λ, the j damped first, and the orthogonal
    projector P0 onto the undamped modes.

    Bartels-Stewart (CACM 15 (1972) 820): trsyl on the damped block of the
    ordered Schur form ``D⁻¹ A D = q r q†`` gives ``D⁻¹ T D⁻¹``, in the
    frame ``D = diag(sqrt|M_jj|)`` (1 where ``M_jj = 0``) that graded
    solutions need (the skin effect), or D = I where that frame would more
    than double ``||A||_F``.  A frame in which ``D⁻¹ M D⁻¹`` is not finite
    (``d_i d_k`` is subnormal once ``|M_jj|`` is) is a PhysicsError naming
    the entry.  For an ``admissible`` pair, M vanishes on the undamped
    modes, which span the complement of the damped ones, D⁻¹ q_u.

    T must solve the full equation ``A T + T A† + M = 0`` to
    ``1e-10 (1 + ||M||)``, else PhysicsError; with an undamped mode that
    means noise reaches it (a mode in the band but off the axis has no
    limit here).  Before solving, the noise on the undamped modes must
    pass ``||P0 M P0|| <= 1e-10 ||M||``: an admissible pair has
    ``P0 M P0 = 0`` up to roundoff, so this holds or fails alike at every
    scale, also where the floored residual test cannot see the noise (a
    slowly damped mode in the band).  PhysicsError names each undamped
    ``lambda_i`` when either test fails, and of a pair not
    ``admissible``, and flags a P0 that fails to commute with A.
    """
    n = a.shape[0]
    d = np.sqrt(np.where(m.diagonal() == 0, 1.0, np.abs(m.diagonal())))
    if np.linalg.norm(a / d[:, None] * d) > 2 * np.linalg.norm(a):
        d = np.ones_like(d)  # error grows as the square of that inflation
    with np.errstate(all="ignore"):  # a non-finite entry is named below
        m_scaled = m / np.outer(d, d)
    if not np.all(np.isfinite(m_scaled)):
        i, k = np.argwhere(~np.isfinite(m_scaled))[0]
        raise PhysicsError(
            f"noise frame diag(sqrt|M_jj|) overflows: M_ik / (d_i d_k) is not "
            f"finite at (i, k) = ({i}, {k}), where |M_ii| = {abs(m[i, i]):.3g} "
            f"and |M_kk| = {abs(m[k, k]):.3g} (smallest normal double "
            f"{np.finfo(float).tiny:.3g})"
        )
    r, q, j = _ordered_schur(a / d[:, None] * d)
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
        noise = np.linalg.norm(p0 @ m @ p0)
        if noise > _RESIDUAL_TOL * np.linalg.norm(m):
            raise PhysicsError(
                f"noise on the undamped modes ||P0 M P0|| = {noise:.3e} "
                f"exceeds {_RESIDUAL_TOL:g} ||M||; noise reaches the "
                f"undamped modes [{named}]"
            )
    t_mat = np.zeros((n, n), dtype=complex)
    if j:
        qd = q[:, :j]
        rhs = qd.conj().T @ m_scaled @ qd
        y, y_scale, _ = scipy.linalg.lapack.ztrsyl(r[:j, :j], r[:j, :j],
                                                   -rhs, tranb="C")
        t_mat = qd @ (y / y_scale) @ qd.conj().T * np.outer(d, d)
    residual = np.linalg.norm(a @ t_mat + t_mat @ a.conj().T + m)
    if not residual <= _RESIDUAL_TOL * (1.0 + np.linalg.norm(m)):
        raise PhysicsError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; " + (
                f"noise reaches the undamped modes [{named}]" if j < n
                else "the equation is too ill-conditioned for a direct solve")
        )
    if is_hermitian(m):
        t_mat = hermitize(t_mat)
    comm = np.linalg.norm(a @ p0 - p0 @ a) if w.size else 0.0
    if comm > 1e-6 and comm > 1e-6 * np.linalg.norm(a, 2):
        raise PhysicsError(
            f"persistent projector fails to commute with the drift "
            f"(residual {comm:.3e}); spectrum too close to the band edge"
        )
    return t_mat, r.diagonal(), j, p0


def lyapunov_solve(a, m) -> np.ndarray:
    """Solve ``A T + T A† = -M`` for a strictly stable drift: T is the
    noise integral ``int_0^inf e^{sA} M e^{sA†} ds``, accurate entry by
    entry where it is graded.

    Raises PhysicsError, naming each undamped ``lambda_i``, unless every
    eigenvalue has ``Re λ < -1e-9 max|λ|`` (the one rule, which
    :func:`~quadferm.gaussian.asymptotic_decomposition` applies too; so
    ``|λ_i + conj λ_j| > 2e-9 max|λ|``), or if the final residual exceeds
    ``1e-10 (1 + ||M||)``.
    """
    a = as_square(a, "drift")
    m = as_square(m, "right-hand side")
    if a.shape != m.shape:
        raise ValidationError(f"size mismatch: {a.shape} vs {m.shape}")
    return _noise_limit(a, m, admissible=False)[0]
