"""Exception hierarchy shared by all skewtail modules.

The distinction between :class:`DomainError` and :class:`ValidityError`
matters: a domain error means the arguments are nonsensical (negative
matrix order, probability outside [0, 1]); a validity error means the
arguments are legal but the requested formula is not exact there (the
tube-method tail below the critical point).  Callers that fall back to
Monte-Carlo on validity errors must not swallow domain errors.
"""

import numpy as np


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

    The squares of the singular values of a real skew-symmetric matrix,
    one per pair, sum to ||A||_F^2 / 2.  Both spectral solves raise this
    when the sum misses that energy, which signals a broken solver (or a
    non-skew input smuggled past validation), never bad data.
    """


class MultiplicityError(SkewtailError):
    """The top singular value is not a simple pair, so the invariant
    2-plane (and anything derived from it) is not well defined."""


class ConvergenceError(SkewtailError, ArithmeticError):
    """A special function's expansion did not converge within its
    iteration bound, or cannot start, at legal arguments this large."""


class ExcludedPointError(SkewtailError):
    """The critical-radius objective was evaluated at (or numerically
    too close to) a rotation matrix, where it is a 0/0 form."""


def whole(name: str, value, low: int) -> int:
    """``value`` as an int if it is an integer >= ``low`` and not a bool, else a DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return int(value)
