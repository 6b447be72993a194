"""Exception hierarchy shared by all skewtail modules.

The distinction between :class:`DomainError` and :class:`ValidityError`
matters: a domain error means the arguments are nonsensical (negative
matrix order, probability outside [0, 1]); a validity error means the
arguments are legal but the requested formula is not exact there (the
tube-method tail below the critical point).  Callers that fall back to
Monte-Carlo on validity errors must not swallow domain errors.
"""


class SkewtailError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SkewtailError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ValidityError(SkewtailError):
    """The arguments are legal but the formula is not exact there.

    Raised by the standardized upper-tail formula for thresholds below
    the critical point 1/sqrt(2), where the tube expansion no longer
    equals the true probability.
    """


class DataError(SkewtailError, ValueError):
    """An input dataset violates its format or consistency contract."""


class PairingError(SkewtailError, ArithmeticError):
    """A computed spectrum broke an identity of every skew spectrum.

    Singular values of a real skew-symmetric matrix occur in exactly
    equal pairs, and their squares sum to ||A||_F^2 / 2.  The single
    solve raises this when the eigenvalues of A'A do not pair up, the
    batched solve when the sum misses the energy.  Either signals a
    broken solver (or a non-skew input smuggled past validation), never
    bad data.
    """


class MultiplicityError(SkewtailError):
    """The top singular value is not a simple pair, so the invariant
    2-plane (and anything derived from it) is not well defined."""


class ExcludedPointError(SkewtailError):
    """The critical-radius objective was evaluated at (or numerically
    too close to) a rotation matrix, where it is a 0/0 form."""
