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
* the exact tube-method upper tail of the standardized statistic
  sigma_1 / sqrt(sum sigma_i^2) on its validity range x >= 1/sqrt(2),
  a weighted sum of 2t - 1 beta tails whose first parameters step by 1:
  one scalar tail at the stable end of that ladder, the other 2t - 2
  rungs by the recurrence in :mod:`skewtail.specfun`,
* the 2x2 objective whose supremum (= 1) pins the critical angle pi/4
  that delimits that validity range,
* the Euler characteristic 2t, twice the sum of the exact tube weights.

The constants of both laws (the kernel's quadrature rules, switch points and
recurrence coefficients, and the rounded tube weights) come from one cached
reader of one shipped table, on the first query of either law; no rational
is built at run time; all is pure and thread-safe.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, DomainError, ExcludedPointError, ValidityError, whole
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

# Slack on the validity boundary so thresholds supplied with ~8 correct
# digits (e.g. 0.70710678 from a table) are not rejected.
_VALIDITY_SLACK = 1e-8

_hankel_gram_cached = None  # unused; bench/tracer.py patches it by name; ROADMAP item 6 deletes it


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
    p = whole("matrix order", p, 2)
    if p > _MAX_ORDER:
        raise DomainError(f"the laws are verified for matrix orders p <= {_MAX_ORDER}, got p={p}")
    return _spectrum_law(p)


@lru_cache(maxsize=None)
def _spectrum_law(p: int) -> SpectrumLaw:
    t = p // 2
    return SpectrumLaw(p=p, t=t, eps=p - 2 * t, n=p * (p - 1) // 2, d=2 * (p - 2))


def log_volume_U(p: int) -> float:
    """ln Vol(U(p)) of the quotient manifold O(p)/H(p) framing the paired SVD."""
    p = whole("matrix order", p, 1)
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
    or a zero entry when p is odd), and where it underflows: from sigma_1 =
    1e150, where e^(-sigma_1^2 / 2) < e^(-5e299), and for squares that tie.
    """
    law = spectrum_law(p)
    s = np.asarray(sigma, dtype=float)
    if s.shape != (law.t,):
        raise DomainError(f"sigma must have length t={law.t} for p={p}, got shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        raise DomainError("sigma entries must be finite and nonnegative")
    if np.any(np.diff(s) > 0.0):
        raise DomainError("sigma must be nonincreasing")
    if s[0] >= 1e150:  # before the squares, which could overflow
        return 0.0
    q = s * s
    if np.any(np.diff(q) == 0.0) or (law.eps == 1 and np.any(s == 0.0)):
        return 0.0
    log_cp, _ = _log_constants(law.p)
    logv = log_cp - 0.5 * float(q.sum())
    if law.eps == 1:
        logv += 2.0 * float(np.log(s).sum())
    for i in range(law.t):
        for j in range(i + 1, law.t):
            logv += 2.0 * math.log(q[i] - q[j])
    return math.exp(logv)


@lru_cache(maxsize=None)
def _law_tables() -> dict:
    """Every constant of both exact laws, read once from the float.hex text
    that tests/make_law_tables.py writes, one ``[name]`` section each after
    the comments.  For the sigma_1 kernel, built by Newton steps in
    tests/oracles.py (a test rebuilds every entry): the ``laguerre nodes``
    and ``weights`` for int_0^inf f(u) e^-u du; the ``legendre nodes`` for
    int_0^1 f(v) dv and, by eps, their ``root weights`` sqrt(2 w v^(2 eps));
    the ``switch points`` x_8(p), the least double x with tr M < 1/8, for
    p = 2 .. 173; and by eps the ``recurrence``, psi_0 and, for k < 85, the
    shifts 2k + 1 + a (an array), backs sqrt(k (k + a)) and norms, the next
    backs, a = eps - 1/2, of which order p, t <= 86, takes the first t - 1.
    For the tube formula, entry p - 4 of ``tube weights`` is section ``tube
    weights p`` (or empty): order p's 2t - 1 doubles nearest
    the exact rationals of ``hankel_closed_form`` in tests/oracles.py."""
    with open(_LAW_TABLES, encoding="ascii") as fh:
        sections = fh.read().split("\n[")[1:]
    tables = {name: tuple(map(float.fromhex, body.split()))
              for name, _, body in (section.partition("]") for section in sections)}
    if len(tables) != len(sections):
        raise DataError(f"{_LAW_TABLES} repeats a section")
    tables["tube weights"] = [tables.pop(f"tube weights {p}", ()) for p in range(4, _MAX_ORDER + 1)]
    for name in ("laguerre nodes", "laguerre weights", "legendre nodes"):
        tables[name] = np.array(tables[name])
    v, w = tables["legendre nodes"], np.array(tables.pop("legendre weights"))
    tables["legendre root weights"] = tuple(np.sqrt(2.0 * w * v ** (2.0 * eps)) for eps in (0, 1))
    roots = {a: [math.sqrt(k * (k + a)) for k in range(_MAX_ORDER // 2)] for a in (-0.5, 0.5)}
    tables["recurrence"] = [(math.exp(-0.5 * math.lgamma(a + 1.0)), 2.0 * np.arange(len(r) - 1) + 1.0 + a,
                             r, r[1:]) for a, r in roots.items()]
    return tables


def _kernel(law: SpectrumLaw, lam: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sum_i phi(lam_i) phi(lam_i)^T over the t Laguerre functions, phi_k =
    psi_k lam^(a/2) e^(-lam/2) with psi_k orthonormal for lam^a e^-lam,
    a = eps - 1/2; scale_i^2 is the node's weight times what of
    lam^a e^-lam the rule's weight function lacks, each factor rounded on
    its own (one exp of their summed logs would be eps * lam off).  Row k
    takes psi_k in place, in the plain recurrence's order of operations,
    from its shift minus lam, which one broadcast gives rows 1 .. t - 1."""
    first, shifts, backs, norms = _law_tables()["recurrence"][law.eps]
    b, scratch = np.empty((law.t, lam.size)), np.empty_like(lam)
    b[0] = first
    np.subtract.outer(shifts[: law.t - 1], lam, out=b[1:])
    rows = list(b)
    previous = current = rows[0]
    for k, row, back, norm in zip(range(law.t - 1), rows[1:], backs, norms):
        np.multiply(row, current, row)
        if k:
            np.subtract(row, np.multiply(back, previous, scratch), row)
        np.divide(row, norm, row)
        previous, current = current, row
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
    so the tail 1 - exp(-S) keeps its relative accuracy.  One product serves
    two terms, tr M^(2h) = <P_h, P_h> and tr M^(2h+1) = <P_h, P_(h+1)>, P_h =
    M^h; as rho(M) <= tr M, by the 18th (8 products) a term is at most
    2^-54 tr M and ends the sum.  An even term, a sum of squares, cannot round
    below its true size; an odd one can, but each later term is at most
    rho(M) <= 1/8 times the one before, so those it leaves out sum to at most
    a seventh of its true size.  Below x_8(p),
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
            j += 1  # <P_h, P_h> at j = 2h, <P_h, P_(h+1)> at j = 2h + 1
            previous, power = power, power @ m if j % 2 else power
            term = float(np.vdot(previous, power)) / j
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


def largest_sv_tail_asymptotic(p: int, x: float) -> float:
    """The paper's tail expansion sum_k w_k P(chi2_{2p-3-2k} > x^2), with
    the tube weights of :func:`standardized_sv_upper`, for p >= 4.

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


def standardized_sv_upper(p: int, x: float) -> float:
    """Exact upper tail of sigma_1 / sqrt(sum sigma_i^2) for x in [1/sqrt(2), 1].

    The weighted beta-tail expansion is exact only at or above the
    critical point 1/sqrt(2); below it a :class:`ValidityError` is
    raised rather than returning a silently wrong number.  Weight w_k is
    the anti-diagonal sum of ginv * g over i + j = k + 2 for the Hankel gram
    g_ij = Gamma(p - i - j + 1/2): the double nearest its exact rational,
    read by :func:`_law_tables`.

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
    weights = _law_tables()["tube weights"][law.p - 4]
    if (rungs := len(weights)) != 2 * law.t - 1:
        raise DataError(f"{_LAW_TABLES} has no section of 2t - 1 = {2 * law.t - 1} tube weights for p={p}")
    y = min(x * x, 1.0)
    # weight k multiplies 1 - I_y(a_k, b_k), a_k = p - 3/2 - k, a_k + b_k = n/2;
    # the ladder climbs from the smallest tail, k = 2t - 2
    a = law.p - 0.5 - rungs
    b = 0.5 * law.n - a
    tails = _beta_upper_rungs(beta_upper(a, b, y), a, b, y, rungs)
    return probability(sum(map(operator.mul, weights, reversed(tails))))


def euler_characteristic(p: int) -> int:
    """Euler characteristic of the rank-2 frame manifold, 2 * floor(p/2),
    for p >= 4, where the exact tube weights sum to t."""
    law = spectrum_law(p)
    if law.p < 4:
        raise DomainError(f"the Euler characteristic requires p >= 4 (tube formula range), got {p}")
    return 2 * law.t


def critical_radius_objective(R) -> float:
    """The 2x2 objective whose supremum over non-rotations equals cot^2(theta_c).

    Undefined (raises :class:`ExcludedPointError`) when the denominator
    base 1 - r11*r22 + r12*r21 vanishes, i.e. R approaches SO(2); raises
    :class:`DomainError` when its numerator or denominator overflows.
    """
    M = np.asarray(R, dtype=float)
    if M.shape != (2, 2) or not np.all(np.isfinite(M)):
        raise DomainError(f"R must be a finite 2x2 matrix, got shape {M.shape}")
    with np.errstate(all="ignore"):  # a part that is not finite raises below
        den = 1.0 - M[0, 0] * M[1, 1] + M[0, 1] * M[1, 0]
        num, den2 = (M[0, 0] - M[1, 1]) ** 2 + (M[0, 1] + M[1, 0]) ** 2, den * den
        value = 1.0 - num / den2
    if abs(den) < 1e-9:
        raise ExcludedPointError(
            f"objective undefined within 1e-9 of SO(2) (denominator {den!r})"
        )
    if not np.all(np.isfinite((num, den2, value))):
        raise DomainError(f"the objective overflows double precision at R = {M.tolist()}")
    return value
