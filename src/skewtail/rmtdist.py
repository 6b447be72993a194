"""Analytic laws of the largest singular value of a skew-symmetric
Gaussian matrix.

A p x p real skew-symmetric matrix with i.i.d. standard-normal upper
triangle has t = floor(p/2) paired singular values.  This module
provides, all in closed form:

* the joint density of the ordered singular values and its
  normalizing constants,
* the exact distribution function of the largest singular value
  (a t x t Hankel determinant of lower incomplete-gamma entries, one
  per anti-diagonal),
* the Hankel gram matrix Gamma(p - i - j + 1/2), its inverse, and the
  geometric weights built from the two, each rounded from exact rationals,
* the asymptotic upper tail of sigma_1 (weighted chi-square tails) and
  the exact tube-method upper tail of the standardized statistic
  sigma_1 / sqrt(sum sigma_i^2) on its validity range x >= 1/sqrt(2),
* the 2x2 objective whose supremum (= 1) pins the critical angle pi/4
  that delimits that validity range,
* the Euler characteristic implied by the weights, an exact identity.

Both exact laws, and the tail expansion, stack or sum 2t - 1 tails
whose degrees of freedom step by 2: each law call makes one scalar tail
evaluation at the stable end of that ladder and climbs the other 2t - 2
rungs by the recurrences in :mod:`skewtail.specfun`.

Normalizers and CDF entries are evaluated in log domain.  All is pure
and thread-safe; per-order gram matrices are memoized (read-only arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ExcludedPointError, ValidityError
from .specfun import (
    _beta_upper_rungs,
    _log_lower_gamma_rungs,
    _upper_gamma_rungs,
    beta_upper,
    chi2_upper,
    log_gamma,
    log_regularized_gamma_lower,
    probability,
)

#: Exactness threshold of the standardized upper tail: cos(theta_c) with
#: critical angle theta_c = pi/4.
CRITICAL_POINT = 1.0 / math.sqrt(2.0)

# Slack on the validity boundary so thresholds supplied with ~8 correct
# digits (e.g. 0.70710678 from a table) are not rejected.
_VALIDITY_SLACK = 1e-8


@dataclass(frozen=True)
class SpectrumLaw:
    """Integer constants of the singular-value law at matrix order p.

    t is the number of paired singular values, eps distinguishes odd
    order (one extra zero singular value), n is the dimension of the
    space of skew-symmetric matrices, and d the dimension of the index
    manifold of rank-2 frames that the maximum is taken over.
    """

    p: int
    t: int
    eps: int
    n: int
    d: int


def spectrum_law(p: int) -> SpectrumLaw:
    """Derive (p, t, eps, n, d) for matrix order p >= 2."""
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise DomainError(f"matrix order must be an integer >= 2, got {p!r}")
    p = int(p)
    t = p // 2
    return SpectrumLaw(p=p, t=t, eps=p - 2 * t, n=p * (p - 1) // 2, d=2 * (p - 2))


@dataclass(frozen=True)
class HankelGram:
    """Gram matrix g_ij = Gamma(p - i - j + 1/2), its inverse, and the
    tail weights, rounded to doubles from g / sqrt(pi), sqrt(pi) * ginv
    and the weights, which are rationals computed exactly.

    ``weights[k]`` is the anti-diagonal sum ``sum_{i+j=k+2} ginv[i,j] *
    g[i,j]`` for k = 0 .. 2t-2; the exact weights sum to t and weight k
    multiplies the chi-square/beta tail with 2p - 3 - 2k degrees of
    freedom in the tail expansions.
    """

    p: int
    t: int
    eps: int
    g: np.ndarray
    ginv: np.ndarray
    weights: np.ndarray


def log_volume_U(p: int) -> float:
    """ln Vol(U(p)) of the quotient manifold O(p)/H(p) framing the paired SVD."""
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError(f"volume_U requires integer p >= 1, got {p!r}")
    p = int(p)
    t = p // 2
    logv = t * math.log(2.0) + (p * (p - 1) / 4.0) * math.log(math.pi)
    for i in range(1, t + 1):
        logv -= log_gamma(p / 2.0 - i + 1.0) + log_gamma(p / 2.0 - i + 0.5)
    return logv


def volume_U(p: int) -> float:
    """Volume of U(p); 1 for p=1, 2 for p=2, 4*pi for p=3."""
    return math.exp(log_volume_U(p))


@lru_cache(maxsize=None)
def _log_constants(p: int) -> tuple[float, float]:
    """(ln c_p, ln d_p): joint-density and determinant normalizers."""
    law = spectrum_law(p)
    log_cp = log_volume_U(p) - (p * (p - 1) / 4.0) * math.log(2.0 * math.pi)
    log_dp = log_cp - law.t * math.log(2.0)
    return log_cp, log_dp


def normalizing_constants(p: int) -> tuple[float, float]:
    """(c_p, d_p): the density normalizer and its determinant companion d_p = c_p / 2^t."""
    log_cp, log_dp = _log_constants(int(spectrum_law(p).p))
    return math.exp(log_cp), math.exp(log_dp)


def joint_density(sigma, p: int) -> float:
    """Joint density of the ordered singular values at a point.

    Args:
        sigma: nonincreasing vector of t = floor(p/2) nonnegative reals.
        p: matrix order.

    Returns 0 exactly on the boundary of the ordered cone (tied entries,
    or a zero entry when p is odd).
    """
    law = spectrum_law(p)
    s = np.asarray(sigma, dtype=float)
    if s.shape != (law.t,):
        raise DomainError(f"sigma must have length t={law.t} for p={p}, got shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        raise DomainError("sigma entries must be finite and nonnegative")
    if np.any(np.diff(s) > 0.0):
        raise DomainError("sigma must be nonincreasing")
    if np.any(np.diff(s) == 0.0) or (law.eps == 1 and np.any(s == 0.0)):
        return 0.0
    log_cp, _ = _log_constants(law.p)
    q = s * s
    logv = log_cp - 0.5 * float(q.sum())
    if law.eps == 1:
        logv += 2.0 * float(np.log(s).sum())
    for i in range(law.t):
        for j in range(i + 1, law.t):
            logv += 2.0 * math.log(q[i] - q[j])
    return math.exp(logv)


def _chi2_upper_ladder(p: int, t: int, y: float) -> list[float]:
    """q[k] = P(chi2_nu > y) with nu = 2p - 3 - 2k for k = 0 .. 2t - 2:
    the smallest nu by one evaluation, the rest by the upward recurrence."""
    nu = 2 * p - 3 - 2 * (2 * t - 2)
    return _upper_gamma_rungs(chi2_upper(nu, y), 0.5 * nu, 0.5 * y, 2 * t - 1)[::-1]


def _cdf_complement_det(p: int, t: int, y: float) -> float | None:
    """det(I - C^{-1} K(y)) with K the upper-tail remainder of the CDF's
    integral matrix: an exact complement form of the determinantal CDF.

    Entrywise, (C^{-1} K)_kj = sum_i 2^{k-j} g^{ki} g_ij Q_ij with
    Q_ij the regularized upper gamma tails.  Near saturation every
    Q_ij is small, the matrix is a smooth perturbation of the identity,
    and the determinant carries none of the cancellation the direct
    route suffers there; its trace is the leading tail expansion.
    Returns None where some |entry| >= 0.05, too large to trust; the t
    diagonal entries are built and checked first, the other t^2 - t only
    if all of them pass.
    """
    gram = _hankel_gram_cached(p)
    g, ginv = gram.g, gram.ginv
    q = _chi2_upper_ladder(p, t, y)
    def entry(k: int, j: int) -> float:
        return 2.0 ** (k - j) * sum(ginv[k, i] * g[i, j] * q[i + j] for i in range(t))

    m = np.diag([entry(k, k) for k in range(t)])
    if float(np.max(np.abs(np.diagonal(m)))) >= 0.05:
        return None
    for k in range(t):
        for j in range(t):
            if k != j:
                m[k, j] = entry(k, j)
    if float(np.max(np.abs(m))) >= 0.05:
        return None
    return float(np.linalg.det(np.eye(t) - m))


def _cdf_log_antidiagonals(p: int, t: int, half_y: float) -> np.ndarray:
    """ln of the direct route's Hankel entries, 2^(nu/2) Gamma(nu/2)
    P(nu/2, y/2) with nu = 2p - 3 - 2k, one per anti-diagonal k = i + j
    (0-based) = 0 .. 2t - 2: the largest nu by one evaluation in log
    scale, the rest by the downward recurrence."""
    log_p = _log_lower_gamma_rungs(
        log_regularized_gamma_lower(p - 1.5, half_y), p - 1.5, half_y, 2 * t - 1
    )
    log2 = math.log(2.0)
    return np.array([
        (p - 1.5 - k) * log2 + log_gamma(p - 1.5 - k) + lp for k, lp in enumerate(log_p)
    ])


def largest_sv_cdf(p: int, x: float) -> float:
    """P(sigma_1 < x): exact determinantal distribution function.

    Two regimes: near saturation the complement determinant
    det(I - C^{-1} K) is evaluated (smooth, cancellation-free, and it
    keeps the deep upper tail 1 - CDF accurate to ~1e-15 absolute);
    elsewhere the direct t x t determinant is used.  Its entry (i, j) is
    a lower incomplete gamma with nu = 2p - 2i - 2j + 1 degrees of
    freedom, so the matrix is Hankel: the 2t - 1 distinct entries, one
    per anti-diagonal, are formed once each in log scale, and every row
    is equilibrated by its own largest entry before the normalizer d_p
    recombines in log domain.  The complement's try costs one scalar
    chi-square tail and the t diagonal entries of C^{-1} K; the other
    t^2 - t entries are built only when every diagonal entry is below
    0.05.  The direct route costs one scalar lower gamma; the other
    2t - 2 rungs of each ladder come by recurrence.  The raw
    entries span hundreds of orders of magnitude by p ~ 16, which is what
    the scaling and the log-domain normalizer absorb.  Once x^2
    overflows the value is 1.
    """
    law = spectrum_law(p)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    t = law.t
    y = float(x) * float(x)
    if math.isinf(y):
        return 1.0
    complement = _cdf_complement_det(law.p, t, y)
    if complement is not None:
        return probability(complement, tol=1e-9)
    anti = _cdf_log_antidiagonals(law.p, t, 0.5 * y)
    i = np.arange(t)
    log_entries = anti[i[:, None] + i]  # Hankel: entry (i, j) depends on i + j only
    scales = log_entries.max(axis=1)
    if not np.all(np.isfinite(scales)):
        return 0.0
    det = float(np.linalg.det(np.exp(log_entries - scales[:, None])))
    if det <= 0.0:
        return 0.0
    _, log_dp = _log_constants(law.p)
    value = math.exp(log_dp + float(scales.sum()) + math.log(det))
    return min(1.0, value)


def _exact_hankel(p: int):
    """Yield g / sqrt(pi), sqrt(pi) * ginv and the weights of order p as
    exact rationals; g comes first, so an order whose g overflows fails
    before the O(t^3) integer sums s_ij behind the inverse.

    h(n) = Gamma(n + 1/2) / sqrt(pi) = X(n) / 4^n with X(n) = (2n)!/n!, and
    sqrt(pi) ginv_ij = (-1)^(i+j) 4^(e-i-j) s_ij / (d_i d_j) with e = t + eps
    and s_ij = sum over k <= min(i, j) of a_k (i-1)!/(i-k)! (j-1)!/(j-k)!.
    g_ij = sqrt(pi) h(p-i-j) is constant along each anti-diagonal, so
    w_k is h(p-k-2) times the sum of sqrt(pi) * ginv along i + j = k + 2.
    """
    from fractions import Fraction

    t, e = p // 2, p - p // 2
    f = [math.factorial(n) for n in range(2 * p)]
    x = [f[2 * n] // f[n] for n in range(p)]
    h = [Fraction(x[n], 4**n) for n in range(p - 1)]
    yield [[h[p - i - j] for j in range(1, t + 1)] for i in range(1, t + 1)]
    a = [f[t - k] * x[e - k] * 4**k for k in range(t + 1)]
    falling = [[f[i - 1] // f[i - k] for k in range(i + 1)] for i in range(1, t + 1)]
    d = [f[i - 1] * f[t - i] * x[e - i] for i in range(1, t + 1)]
    inv = [[None] * t for _ in range(t)]
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            s = sum(a[k] * falling[i - 1][k] * falling[j - 1][k] for k in range(1, i + 1))
            entry = Fraction((-1) ** (i + j) * s * 4 ** (2 * e - i - j), d[i - 1] * d[j - 1] * 4**e)
            inv[i - 1][j - 1] = inv[j - 1][i - 1] = entry
    yield inv
    yield [
        h[p - k - 2] * sum(inv[i][k - i] for i in range(max(0, k - t + 1), min(k, t - 1) + 1))
        for k in range(2 * t - 1)
    ]


@lru_cache(maxsize=None)
def _hankel_gram_cached(p: int) -> HankelGram:
    law, root_pi = spectrum_law(p), math.sqrt(math.pi)
    pieces = []
    try:
        with np.errstate(over="raise"):
            for exact, scale in zip(_exact_hankel(law.p), (root_pi, 1.0 / root_pi, 1.0)):
                pieces.append(np.array(exact, dtype=float) * scale)
                pieces[-1].flags.writeable = False
    except (OverflowError, FloatingPointError):
        raise DomainError(f"the Hankel gram of order p={law.p} leaves the double range") from None
    return HankelGram(law.p, law.t, law.eps, *pieces)


def hankel_gram(p: int) -> HankelGram:
    """Gram matrix, inverse and tail weights for 4 <= p <= 173 (g_11 overflows beyond)."""
    law = spectrum_law(p)
    if law.p < 4:
        raise DomainError(f"hankel_gram requires p >= 4 (tube formula range), got {p}")
    return _hankel_gram_cached(law.p)


def largest_sv_tail_asymptotic(p: int, x: float) -> float:
    """Leading tail expansion of P(sigma_1 > x): weighted chi-square upper tails.

    An asymptotic approximation; it may exceed the exact tail slightly
    at moderate x but agrees to a couple of percent once the exact tail
    is below ~1e-3.  It sums to E #{i : sigma_i > x} in [0, t], but its
    weights alternate in sign and cancel as p grows: a sum outside [0, t]
    raises :class:`DomainError`, and one inside can still be far off past
    p ~ 30 (4e11 times the true value at p = 173, x = 30.31) until the
    kernel route in ROADMAP.md replaces it.
    """
    gram = hankel_gram(p)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    q = _chi2_upper_ladder(gram.p, gram.t, x * x)
    value = float(sum(w * qk for w, qk in zip(gram.weights, q)))
    if not 0.0 <= value <= gram.t:
        raise DomainError(f"tail expansion at p={p}, x={x!r} reads {value!r}, outside [0, {gram.t}]")
    return value


def standardized_sv_upper(p: int, x: float) -> float:
    """Exact upper tail of sigma_1 / sqrt(sum sigma_i^2) for x in [1/sqrt(2), 1].

    The weighted beta-tail expansion is exact only at or above the
    critical point 1/sqrt(2); below it a :class:`ValidityError` is
    raised rather than returning a silently wrong number.

    Accuracy for p <= 60, against 600-digit references at p = 24 .. 59:
    1e-10 relative where the value is above 1e-280, else 1e-290 absolute
    (terms near the double floor lose relative accuracy or underflow).
    """
    gram = hankel_gram(p)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x > 1.0 + 1e-12:
        raise DomainError(f"standardized statistic cannot exceed 1, got x={x!r}")
    if x < CRITICAL_POINT - _VALIDITY_SLACK:
        raise ValidityError(
            f"x={x!r} is below the critical point 1/sqrt(2)={CRITICAL_POINT:.12f}; "
            "the tube expansion is not exact there"
        )
    n = gram.p * (gram.p - 1) // 2
    y = min(x * x, 1.0)
    # weight k multiplies 1 - I_y(a_k, b_k), a_k = p - 3/2 - k, a_k + b_k = n/2;
    # the ladder climbs from the smallest tail, k = 2t - 2
    a = gram.p - 1.5 - (2 * gram.t - 2)
    b = 0.5 * n - a
    tails = _beta_upper_rungs(beta_upper(a, b, y), a, b, y, 2 * gram.t - 1)
    raw = sum(w * u for w, u in zip(gram.weights, tails[::-1]))
    return probability(float(raw), tol=1e-10)


def euler_characteristic(p: int) -> int:
    """Euler characteristic of the rank-2 frame manifold, 2 * floor(p/2),
    checked against the exact rational sum of the tube weights."""
    gram = hankel_gram(p)
    *_, weights = _exact_hankel(gram.p)
    if sum(weights) != gram.t:
        raise ArithmeticError(f"Euler characteristic check failed for p={p}: sum(w) != {gram.t}")
    return 2 * gram.t


def critical_radius_objective(R) -> float:
    """The 2x2 objective whose supremum over non-rotations equals cot^2(theta_c).

    Undefined (raises :class:`ExcludedPointError`) when the denominator
    base 1 - r11*r22 + r12*r21 vanishes, i.e. R approaches SO(2).
    """
    M = np.asarray(R, dtype=float)
    if M.shape != (2, 2) or not np.all(np.isfinite(M)):
        raise DomainError(f"R must be a finite 2x2 matrix, got shape {M.shape}")
    den = 1.0 - M[0, 0] * M[1, 1] + M[0, 1] * M[1, 0]
    if abs(den) < 1e-9:
        raise ExcludedPointError(
            f"objective undefined within 1e-9 of SO(2) (denominator {den!r})"
        )
    num = (M[0, 0] - M[1, 1]) ** 2 + (M[0, 1] + M[1, 0]) ** 2
    return 1.0 - num / (den * den)
