"""Analytic laws of the largest singular value of a skew-symmetric
Gaussian matrix.

A p x p real skew-symmetric matrix with i.i.d. standard-normal upper
triangle has t = floor(p/2) paired singular values.  This module
provides:

* the joint density of the ordered singular values and its
  normalizing constants,
* the exact distribution function and upper tail of the largest
  singular value and the expected count above a threshold, from one
  Laguerre kernel (the sigma^2 / 2 form a Laguerre unitary ensemble),
* the Hankel gram matrix Gamma(p - i - j + 1/2), its inverse, and the
  geometric weights built from the two, each rounded from exact rationals,
* the exact tube-method upper tail of the standardized statistic
  sigma_1 / sqrt(sum sigma_i^2) on its validity range x >= 1/sqrt(2),
  a weighted sum of 2t - 1 beta tails whose first parameters step by 1:
  one scalar tail at the stable end of that ladder, the other 2t - 2
  rungs by the recurrence in :mod:`skewtail.specfun`,
* the 2x2 objective whose supremum (= 1) pins the critical angle pi/4
  that delimits that validity range,
* the Euler characteristic implied by the weights, an exact identity.

The kernel's constants (quadrature rules, per-order switch points and
recurrence coefficients) and the rounded tube weights come from cached
readers of two shipped tables, each called on the first query of its law;
the gram matrices (read-only arrays) are cached too; all is pure and
thread-safe.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, DomainError, ExcludedPointError, ValidityError
from .specfun import (
    _beta_upper_rungs,
    beta_upper,
    chi2_upper,
    log_gamma,
    log_regularized_gamma_lower,  # unused here; bench/tracer.py wraps it by name
    probability,
)

#: Exactness threshold of the standardized upper tail: cos(theta_c) with
#: critical angle theta_c = pi/4.
CRITICAL_POINT = 1.0 / math.sqrt(2.0)

#: Largest order of every law's verified envelope (the next one's g_11 overflows).
_MAX_ORDER = 173
_LAW_TABLES = os.path.join(os.path.dirname(__file__), "data", "law_tables.txt")
_TUBE_WEIGHTS = os.path.join(os.path.dirname(__file__), "data", "tube_weights.txt")

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
    """(p, t, eps, n, d) for matrix order 2 <= p <= 173, one object per order;
    every law calls this first, so past p = 173 each raises its DomainError."""
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise DomainError(f"matrix order must be an integer >= 2, got {p!r}")
    p = int(p)
    if p > _MAX_ORDER:
        raise DomainError(f"the laws are verified for matrix orders p <= {_MAX_ORDER}, got p={p}")
    return _spectrum_law(p)


@lru_cache(maxsize=None)
def _spectrum_law(p: int) -> SpectrumLaw:
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
    freedom in the tail expansions; the standardized law reads these
    doubles from a shipped table (:func:`_tube_weights`), not from here.
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
    """Volume of U(p), p <= 60 (past it DomainError: it underflows); 1, 2, 4*pi at p = 1, 2, 3."""
    value = math.exp(log_volume_U(p))
    if value < np.finfo(float).tiny:
        raise DomainError(f"volume_U({p}) underflows the normal doubles; use log_volume_U")
    return value


@lru_cache(maxsize=None)
def _log_constants(p: int) -> tuple[float, float]:
    """(ln c_p, ln d_p): joint-density and determinant normalizers."""
    law = spectrum_law(p)
    log_cp = log_volume_U(p) - (p * (p - 1) / 4.0) * math.log(2.0 * math.pi)
    log_dp = log_cp - law.t * math.log(2.0)
    return log_cp, log_dp


def normalizing_constants(p: int) -> tuple[float, float]:
    """(c_p, d_p = c_p / 2^t): density and determinant normalizers, p <= 36 (then DomainError)."""
    c_p, d_p = (math.exp(v) for v in _log_constants(int(spectrum_law(p).p)))
    if d_p < np.finfo(float).tiny:
        raise DomainError(f"normalizing_constants({p}) underflow the normal doubles")
    return c_p, d_p


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


@lru_cache(maxsize=None)
def _law_tables() -> dict:
    """Every constant of the sigma_1 kernel, read once from exact float.hex
    text that tests/make_law_tables.py writes from the Newton builds in
    tests/oracles.py (a test rebuilds every entry): the ``laguerre nodes``
    and ``weights`` for int_0^inf f(u) e^-u du; the ``legendre nodes`` for
    int_0^1 f(v) dv and, by eps, their ``root weights`` sqrt(2 w v^(2 eps));
    the ``switch points`` x_8(p), the least double x with tr M < 1/8, for
    p = 2 .. 173; and by eps the ``recurrence``, psi_0 and for k < 85
    (2k + 1 + a, sqrt(k (k + a)), sqrt((k + 1) (k + 1 + a))), a = eps - 1/2,
    of which order p, t <= 86, takes the first t - 1."""
    tables = {}
    with open(_LAW_TABLES, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("["):
                column = tables[line.strip()[1:-1]] = []
            elif not line.startswith("#"):
                column.append(float.fromhex(line))
    for name in ("laguerre nodes", "laguerre weights", "legendre nodes"):
        tables[name] = np.array(tables[name])
    v, w = tables["legendre nodes"], np.array(tables.pop("legendre weights"))
    tables["legendre root weights"] = tuple(np.sqrt(2.0 * w * v ** (2.0 * eps)) for eps in (0, 1))
    tables["recurrence"] = tuple((math.exp(-0.5 * math.lgamma(a + 1.0)), [
        (2 * k + 1 + a, math.sqrt(k * (k + a)), math.sqrt((k + 1) * (k + 1 + a)))
        for k in range(_MAX_ORDER // 2 - 1)]) for a in (-0.5, 0.5))
    return tables


def _kernel(law: SpectrumLaw, lam: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sum_i phi(lam_i) phi(lam_i)^T over the t Laguerre functions, phi_k =
    psi_k lam^(a/2) e^(-lam/2) with psi_k orthonormal for lam^a e^-lam,
    a = eps - 1/2; scale_i^2 is the node's weight times what of
    lam^a e^-lam the rule's weight function lacks, each factor rounded on
    its own (one exp of their summed logs would be eps * lam off).  Row k
    takes psi_k in place, in the plain recurrence's order of operations."""
    first, steps = _law_tables()["recurrence"][law.eps]
    b, scratch = np.empty((law.t, lam.size)), np.empty_like(lam)
    b[0] = first
    for k, (shift, back, norm) in enumerate(steps[: law.t - 1]):
        row = np.subtract(shift, lam, out=b[k + 1])
        row *= b[k]
        if k:
            row -= np.multiply(back, b[k - 1], out=scratch)
        row /= norm
    b *= scale
    return b @ b.T


def _upper_kernel(law: SpectrumLaw, x: float) -> np.ndarray:
    """M = int_s^inf phi phi^T, s = x^2 / 2, by Gauss-Laguerre in lam - s."""
    tables = _law_tables()
    u, w = tables["laguerre nodes"], tables["laguerre weights"]
    lam = 0.5 * x * x + u
    return _kernel(law, lam, np.sqrt(w * lam ** (law.eps - 0.5)) * math.exp(-0.25 * x * x))


def _lower_kernel(law: SpectrumLaw, x: float) -> np.ndarray:
    """N = int_0^s phi phi^T = I - M by Gauss-Legendre in v, lam = s v^2,
    where lam^a d lam = 2 s^(1+a) v^(1+2a) dv is free of lam^(-1/2)."""
    tables = _law_tables()
    v = tables["legendre nodes"]
    lam = 0.5 * x * x * v * v
    root_jacobian = tables["legendre root weights"][law.eps] * (x / math.sqrt(2.0)) ** (law.eps + 0.5)
    return _kernel(law, lam, root_jacobian * np.exp(-0.5 * lam))


def _sigma1(p: int, x: float) -> tuple[float, float, float]:
    """(P(sigma_1 < x), P(sigma_1 > x), E #{i : sigma_i > x}).

    The lam = sigma^2 / 2 form a Laguerre unitary ensemble of t particles
    with weight lam^(eps - 1/2) e^-lam, so with M = int_s^inf phi phi^T,
    s = x^2 / 2, the CDF is det(I - M) and the count is tr M (Mehta,
    *Random Matrices*, ch. 13; Bornemann, Math. Comp. 2010).  One kernel
    per call: from x_8(p) (:func:`_law_tables`) on, tr M < 1/8 and the CDF
    is exp(-S), S = -log det(I - M) = sum_j tr(M^j) / j: no term is negative,
    so the tail 1 - exp(-S) keeps its relative accuracy, and as rho(M) <= tr M,
    by the 18th term one is at most 2^-54 tr M and ends the sum.  Below it,
    N = I - M and det N by Cholesky give all three: there the Gauss-Laguerre
    M is off for p = 2, since lam^(-1/2) is singular near the rule's endpoint
    (by 2.4e-10 where tr M = 1/2, 1e-14 at 1/4 and 5e-15 at 1/8).
    """
    law = spectrum_law(p)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    y = float(x) * float(x)
    # sigma_1^2 <= sum sigma_i^2 ~ chi2_n: past twice its mean (where its
    # tail takes the continued fraction) a tail that underflows ends the
    # law before lam^t can overflow
    if math.isinf(y) or (y > 2 * law.n and chi2_upper(law.n, y) == 0.0):
        return 1.0, 0.0, 0.0
    if x >= _law_tables()["switch points"][law.p - 2]:
        m = _upper_kernel(law, x)
        trace = float(m.trace())
        total, term, power, j = trace, trace, m, 1
        while term > 2.0 ** -54 * trace:
            power, j = power @ m, j + 1
            term = float(power.trace()) / j
            total += term
        return math.exp(-total), -math.expm1(-total), trace
    n = _lower_kernel(law, x)
    try:
        cdf = float(np.linalg.cholesky(n).diagonal().prod()) ** 2
    except np.linalg.LinAlgError:
        cdf = 0.0
    # sigma_1 >= max |a_ij|, so the CDF is at most erf(x / sqrt(2))^n
    cdf = min(cdf, math.erf(x / math.sqrt(2.0)) ** law.n)
    return cdf, 1.0 - cdf, law.t - float(n.trace())


def largest_sv_cdf(p: int, x: float) -> float:
    """P(sigma_1 < x), to 1e-14 absolute for 2 <= p <= 100 and 3e-14 up
    to p = 173 against mpmath Hankel determinants."""
    return probability(_sigma1(p, x)[0])


def largest_sv_upper(p: int, x: float) -> float:
    """P(sigma_1 > x) without the CDF's cancellation against 1: to 1e-12
    relative for 2 <= p <= 173 against mpmath Hankel determinants."""
    return probability(_sigma1(p, x)[1])


def _exact_hankel(p: int) -> tuple[list, list, list]:
    """g / sqrt(pi), sqrt(pi) * ginv and the weights of order p as exact
    rationals.

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
    a = [f[t - k] * x[e - k] * 4**k for k in range(t + 1)]
    falling = [[f[i - 1] // f[i - k] for k in range(i + 1)] for i in range(1, t + 1)]
    d = [f[i - 1] * f[t - i] * x[e - i] for i in range(1, t + 1)]
    inv = [[None] * t for _ in range(t)]
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            s = sum(a[k] * falling[i - 1][k] * falling[j - 1][k] for k in range(1, i + 1))
            entry = Fraction((-1) ** (i + j) * s * 4 ** (2 * e - i - j), d[i - 1] * d[j - 1] * 4**e)
            inv[i - 1][j - 1] = inv[j - 1][i - 1] = entry
    g = [[h[p - i - j] for j in range(1, t + 1)] for i in range(1, t + 1)]
    weights = [
        h[p - k - 2] * sum(inv[i][k - i] for i in range(max(0, k - t + 1), min(k, t - 1) + 1))
        for k in range(2 * t - 1)
    ]
    return g, inv, weights


@lru_cache(maxsize=None)
def _hankel_gram_cached(p: int) -> HankelGram:
    law, root_pi = spectrum_law(p), math.sqrt(math.pi)
    g, ginv, weights = _exact_hankel(law.p)
    if sum(weights) != law.t:  # the Euler identity, on the exact weights
        raise ArithmeticError(f"Euler characteristic check failed for p={p}: sum(w) != {law.t}")
    pieces = []
    for exact, scale in zip((g, ginv, weights), (root_pi, 1.0 / root_pi, 1.0)):
        pieces.append(np.array(exact, dtype=float) * scale)
        pieces[-1].flags.writeable = False
    return HankelGram(law.p, law.t, law.eps, *pieces)


def hankel_gram(p: int) -> HankelGram:
    """Gram matrix, inverse and tail weights for p >= 4 (the tube formula's range)."""
    law = spectrum_law(p)
    if law.p < 4:
        raise DomainError(f"hankel_gram requires p >= 4 (tube formula range), got {p}")
    return _hankel_gram_cached(law.p)


def largest_sv_tail_asymptotic(p: int, x: float) -> float:
    """The paper's tail expansion sum_k w_k P(chi2_{2p-3-2k} > x^2), with
    the weights of :func:`hankel_gram`, for p >= 4.

    It is E #{i : sigma_i > x}, the trace of :func:`largest_sv_cdf`'s
    kernel M: an upper bound on the tail (Markov) that tracks it to a
    couple of percent below ~1e-3, and, as a trace of a positive
    semidefinite matrix, accurate to 1e-12 relative.
    """
    if spectrum_law(p).p < 4:
        raise DomainError(f"the tail expansion requires p >= 4, got {p}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    value = _sigma1(p, x)[2]
    if not 0.0 <= value <= p // 2:
        raise DomainError(f"tail expansion at p={p}, x={x!r} reads {value!r}, outside [0, {p // 2}]")
    return value


@lru_cache(maxsize=None)
def _tube_rows() -> list[str]:
    """The tube weight table's rows, read once: row p - 4 holds order p."""
    with open(_TUBE_WEIGHTS, encoding="ascii") as fh:
        return [line for line in fh if not line.startswith("#")]


@lru_cache(maxsize=None)
def _tube_weights(p: int) -> tuple[float, ...]:
    """The 2t - 1 tube weights of order 4 <= p <= 173 from the row
    ``p w_0 .. w_2t-2`` of float.hex text that tests/make_law_tables.py
    writes, each the double nearest :func:`_exact_hankel`'s rational."""
    row = (_tube_rows()[p - 4 : p - 3] or [""])[0].split()
    if row[:1] != [str(p)] or len(row) != 2 * (p // 2):
        raise DataError(f"{_TUBE_WEIGHTS} has no row of 2t - 1 = {2 * (p // 2) - 1} weights for p={p}")
    return tuple(map(float.fromhex, row[1:]))


def standardized_sv_upper(p: int, x: float) -> float:
    """Exact upper tail of sigma_1 / sqrt(sum sigma_i^2) for x in [1/sqrt(2), 1].

    The weighted beta-tail expansion is exact only at or above the
    critical point 1/sqrt(2); below it a :class:`ValidityError` is
    raised rather than returning a silently wrong number.  The weights
    are :func:`hankel_gram`'s doubles, read from :func:`_tube_weights`.

    Accuracy for 4 <= p <= 173, against 600-digit references at
    p = 24 .. 173: 1e-10 relative where the value is above 1e-280, else
    1e-290 absolute (terms near the double floor lose relative accuracy
    or underflow; from p = 79 on the value at 1/sqrt(2) is below 1e-300).
    Below 1e-280 only that absolute bound holds, and the value need not
    fall as x grows.
    """
    law = spectrum_law(p)
    if law.p < 4:
        raise DomainError(f"the standardized law requires p >= 4 (tube formula range), got {p}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x > 1.0 + 1e-12:
        raise DomainError(f"standardized statistic cannot exceed 1, got x={x!r}")
    if x < CRITICAL_POINT - _VALIDITY_SLACK:
        raise ValidityError(
            f"x={x!r} is below the critical point 1/sqrt(2)={CRITICAL_POINT:.12f}; "
            "the tube expansion is not exact there"
        )
    y = min(x * x, 1.0)
    # weight k multiplies 1 - I_y(a_k, b_k), a_k = p - 3/2 - k, a_k + b_k = n/2;
    # the ladder climbs from the smallest tail, k = 2t - 2
    a = law.p - 1.5 - (2 * law.t - 2)
    b = 0.5 * law.n - a
    tails = _beta_upper_rungs(beta_upper(a, b, y), a, b, y, 2 * law.t - 1)
    return probability(sum(map(operator.mul, _tube_weights(law.p), reversed(tails))))


def euler_characteristic(p: int) -> int:
    """Euler characteristic of the rank-2 frame manifold, 2 * floor(p/2),
    checked against the exact rational sum of the tube weights when
    :func:`hankel_gram` builds them."""
    return 2 * hankel_gram(p).t


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
