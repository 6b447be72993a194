"""Special functions backing every distribution formula in the package.

All tail probabilities used here reduce to three primitives: the
log-gamma function, the regularized upper incomplete gamma (chi-square
upper tail), and the regularized upper incomplete beta.  They are kept
in one module so that every other module routes its gamma arithmetic
through :func:`log_gamma` (log domain, no overflow at large order) and
so that the tails can be validated once against slow quadrature
oracles.

The incomplete-gamma evaluation follows the classic split: a power
series for the lower tail when ``x < s + 1`` and a continued fraction
(modified Lentz) for the upper tail otherwise.  Near ``x = s`` the
series needs about 8.3 sqrt(s) terms, so the iteration bound grows with
``s``; both share the front factor x^s e^-x / Gamma(s), formed through
a Stirling remainder so that it does not cancel at large ``s``.  The
incomplete beta uses the standard continued fraction with the symmetry
switch at ``x = (a + 1)/(a + b + 2)``.  Absolute accuracy is ~1e-14 for
chi-square df up to 14878, the most a report of 174 teams reaches
(6e-15 against scipy over the mean +- 8 sd), comfortably inside the
1e-12 contract.

The standardized law needs a whole ladder of beta tails whose
parameters step by one (2t - 1 per value).  ``_beta_upper_rungs`` climbs
it from one scalar evaluation with the contiguous relation of DLMF
8.17, run in the direction where each step adds a nonnegative term
formed in log domain, which keeps it stable (Gil, Segura & Temme,
*Numerical Methods for Special Functions*, SIAM 2007, ch. 4).
"""

from __future__ import annotations

import math

from .errors import DomainError

_EPS = 1e-15
_ITMAX = 600
_FPMIN = 1e-300
_PROBABILITY_TOL = 1e-10
_STIRLING_FROM = 20.0


def probability(value: float) -> float:
    """Clamp a computed probability into [0, 1].

    Values outside ``[-1e-10, 1 + 1e-10]`` indicate a numerical defect in
    the caller, not roundoff, and raise :class:`DomainError` instead of
    being clamped silently.
    """
    if not math.isfinite(value) or value < -_PROBABILITY_TOL or value > 1.0 + _PROBABILITY_TOL:
        raise DomainError(f"value {value!r} is not a probability (tol={_PROBABILITY_TOL})")
    return min(1.0, max(0.0, value))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for positive real x."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _log_gamma_front(s: float, x: float) -> float:
    """ln(x^s e^-x / Gamma(s)), the front factor of both incomplete-gamma
    tails.  From s = 20 on it is s ln(x/s) - (x - s) + ln(s / 2pi) / 2
    minus the Stirling remainder of ln Gamma(s): the direct form's three
    terms each reach s ln s and cancel near x = s (the tail was 5e-12 off
    at s = 4192).
    For x > s/2, ln(x/s) is log1p((x - s) / s), whose x - s is exact near s."""
    if s < _STIRLING_FROM:
        return -x + s * math.log(x) - math.lgamma(s)
    r = 1.0 / (s * s)
    remainder = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / s
    log_ratio = math.log1p((x - s) / s) if x > 0.5 * s else math.log(x) - math.log(s)
    return s * log_ratio - (x - s) + 0.5 * math.log(s / (2.0 * math.pi)) - remainder


def _iterations(s: float) -> int:
    """Terms enough for either expansion near x = s, where the series'
    terms fall like exp(-k^2 / 2s): 1e-15 takes about 8.3 sqrt(s) of them."""
    return _ITMAX + int(9.0 * math.sqrt(s))


def _lower_gamma_series(s: float, x: float) -> float:
    """Sum of the lower-tail power series, sans the x^s e^-x / Gamma(s) front."""
    ap = s
    total = 1.0 / s
    term = total
    for _ in range(_iterations(s)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ArithmeticError(f"incomplete gamma series failed to converge (s={s}, x={x})")


def _upper_gamma_cf(s: float, x: float) -> float:
    """Continued fraction for Q(s, x), valid for x >= s + 1 (modified Lentz)."""
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _iterations(s) + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(_log_gamma_front(s, x)) * h
    raise ArithmeticError(f"incomplete gamma continued fraction failed (s={s}, x={x})")


def regularized_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x)."""
    if s <= 0.0 or x < 0.0 or not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError(f"regularized gamma requires s > 0 and x >= 0, got ({s!r}, {x!r})")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return max(0.0, 1.0 - math.exp(_log_gamma_front(s, x)) * _lower_gamma_series(s, x))
    return min(1.0, _upper_gamma_cf(s, x))


def log_regularized_gamma_lower(s: float, x: float) -> float:
    """ln P(s, x), finite (not underflowed) arbitrarily deep in the left
    tail, where P itself underflows: the series is assembled in log scale.
    """
    if s <= 0.0 or x < 0.0 or not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError(f"regularized gamma requires s > 0 and x >= 0, got ({s!r}, {x!r})")
    if x == 0.0:
        return -math.inf
    if x < s + 1.0:
        return _log_gamma_front(s, x) + math.log(_lower_gamma_series(s, x))
    p = 1.0 - _upper_gamma_cf(s, x)
    return math.log(p) if p > 0.0 else -math.inf


def chi2_upper(nu: float, y: float) -> float:
    """Upper tail P(chi2_nu > y) of the chi-square distribution.

    Args:
        nu: degrees of freedom, > 0 (half-integers welcome).
        y: threshold, >= 0.
    """
    if not math.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"chi2_upper requires nu > 0, got {nu!r}")
    if not math.isfinite(y) or y < 0.0:
        raise DomainError(f"chi2_upper requires y >= 0, got {y!r}")
    return probability(regularized_gamma_upper(nu / 2.0, y / 2.0))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed (a={a}, b={b}, x={x})")


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"regularized beta requires a, b > 0, got ({a!r}, {b!r})")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"regularized beta requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def beta_upper(a: float, b: float, y: float) -> float:
    """Upper tail 1 - I_y(a, b) of the Beta(a, b) distribution.

    Evaluated as I_{1-y}(b, a) so the deep upper tail keeps full
    relative accuracy instead of cancelling against 1.
    """
    if not (0.0 <= y <= 1.0):
        raise DomainError(f"beta_upper requires 0 <= y <= 1, got {y!r}")
    return probability(regularized_beta(b, a, 1.0 - y))


def _beta_upper_rungs(u: float, a: float, b: float, y: float, count: int) -> list[float]:
    """[1 - I_y(a, b), 1 - I_y(a + 1, b - 1), ..., 1 - I_y(a + count - 1,
    b - count + 1)] from u = 1 - I_y(a, b); requires b - count + 1 > 0.

    Steps along a + b fixed, from the smallest tail up, by
    1 - I_y(a + 1, b - 1) = 1 - I_y(a, b)
    + y^a (1 - y)^(b-1) Gamma(a + b) / (Gamma(a + 1) Gamma(b)).
    """
    rungs = [u]
    if y == 0.0 or y == 1.0:
        return rungs * count
    log_y, log_1my, log_sum = math.log(y), math.log1p(-y), math.lgamma(a + b)
    for k in range(count - 1):
        ak, bk = a + k, b - k
        u = min(1.0, u + math.exp(
            ak * log_y + (bk - 1.0) * log_1my + log_sum - math.lgamma(ak + 1.0) - math.lgamma(bk)
        ))
        rungs.append(u)
    return rungs
