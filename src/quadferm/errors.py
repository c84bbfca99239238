"""Exception hierarchy shared by all quadferm modules."""


class QuadfermError(Exception):
    """Base class for all quadferm-specific errors."""


class ValidationError(QuadfermError, ValueError):
    """Malformed input: wrong shapes, non-finite entries, broken invariants."""


class PhysicsError(QuadfermError, RuntimeError):
    """Mathematically valid input outside the regime an operation supports.

    Raised for dissipativity violations, correlation spectra escaping
    [0, 1], ill-conditioned Lyapunov solves, or drifts without a unique
    steady state: an eigenvalue undamped by the one axis rule of
    ``linalg._ordered_schur``, ``Re λ >= -1e-9 max|λ|``.
    """
