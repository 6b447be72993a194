"""Scheffe paired-comparison analysis: subtractivity tests driven by the
largest singular value of the interaction residual.

Pipeline: a win/loss score sheet is variance-stabilized into an
approximately unit-variance skew-symmetric observation matrix; least
squares splits it into main-effect scores alpha_i and an interaction
residual Gamma-hat; the residual's size is then judged three ways
(chi-square norm, largest singular value, standardized largest singular
value), its most deadlocked triple is located, and the rank-2 structure
is embedded in the plane for plotting.  The spectral tests and the
embedding share the fit's one cached eigen-solve, so a fit's arrays must
not be modified (scheffe_fit's are read-only).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mc
from .errors import DataError, DomainError, MultiplicityError, whole
from .rmtdist import CRITICAL_POINT, largest_sv_upper, standardized_sv_upper
from .rmtdist import largest_sv_cdf  # noqa: F401  unused here; bench/tracer.py wraps it by name
from .specfun import chi2_upper

_SQRT3 = math.sqrt(3.0)

# A residual no larger than this many times m * eps * max|y| is rounding
# noise of the fit itself: subtractive data leave up to about 0.3 times it.
_ROUNDING_RESIDUAL = 4.0


@dataclass(frozen=True)
class ScoreSheet:
    """Round-robin win counts: r[i, j] = wins of object i over j.

    No ties: r[i, j] + r[j, i] must equal the number of games per pair.
    The number of objects m is the number of names.
    """

    names: tuple[str, ...]
    n_games: int
    r: np.ndarray

    @property
    def m(self) -> int:
        return len(self.names)

    def __post_init__(self):
        if self.m < 3:
            raise DataError(f"need at least 3 objects, got {self.m}")
        if self.n_games < 1:
            raise DataError(f"games per pair must be >= 1, got {self.n_games}")
        if self.n_games >= 2**63:
            raise DataError(f"games per pair must be below 2^63, got {self.n_games}")
        r = np.asarray(self.r)
        if r.shape != (self.m, self.m):
            raise DataError(f"score matrix must be {self.m}x{self.m}, got {r.shape}")
        if not np.issubdtype(r.dtype, np.integer):
            raise DataError("score matrix entries must be integers")
        if np.any(np.diag(r) != 0):
            raise DataError("diagonal of a score sheet must be zero")
        if np.any(r < 0) or np.any(r > self.n_games):
            i, j = np.unravel_index(
                int(np.argmax((r < 0) | (r > self.n_games))), r.shape
            )
            raise DataError(
                f"score r[{i + 1},{j + 1}]={r[i, j]} outside 0..{self.n_games}"
            )
        wins = r.astype(np.int64)  # entries in 0..n_games < 2^63: n_games - r.T is exact
        bad = ~np.eye(self.m, dtype=bool) & (wins != self.n_games - wins.T)
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise DataError(
                f"r[{i + 1},{j + 1}] + r[{j + 1},{i + 1}] = {int(r[i, j]) + int(r[j, i])} != "
                f"{self.n_games}: ties or miscounts are not allowed"
            )
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class SkewObservations:
    """Skew-symmetric preference observations y[i, j] = -y[j, i].

    y may miss skew-symmetry by relative 1e-12; its exact skew part
    (y - y') / 2 is stored, which leaves an already skew y of normal-range
    entries unchanged.  m is the order of y.
    """

    y: np.ndarray

    @property
    def m(self) -> int:
        return len(self.y)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1] or y.size == 0:
            raise DataError(f"observations must be a non-empty square matrix, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            i, j = np.unravel_index(int(np.argmin(np.isfinite(y))), y.shape)
            raise DataError(f"observation y[{i + 1},{j + 1}] = {float(y[i, j])} is not finite")
        with np.errstate(over="ignore"):
            resid = float(np.max(np.abs(y + y.T)))
        if resid > 1e-12 * float(np.max(np.abs(y))):
            raise DataError(
                f"observations are not skew-symmetric (max residual {resid:.3e}, "
                "above 1e-12 max |y_ij|)"
            )
        object.__setattr__(self, "y", 0.5 * y - 0.5 * y.T)


@dataclass(frozen=True)
class ScheffeFit:
    """Least-squares split y_ij = (alpha_i - alpha_j) + gamma_ij.

    alpha_hat sums to zero and every row of the skew-symmetric residual
    gamma_hat sums to zero (the model's side conditions); the split
    reconstructs the observations up to rounding.  ``eigen``, the one
    eigen-solve of i gamma_hat, is made on first use and cached, so the
    arrays must not be modified after construction; scheffe_fit returns
    them read-only.  m is the order of gamma_hat, which must be square.
    """

    alpha_hat: np.ndarray
    gamma_hat: np.ndarray

    @property
    def m(self) -> int:
        return len(self.gamma_hat)

    def __post_init__(self):
        shape = np.shape(self.gamma_hat)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError(f"gamma_hat must be a square matrix, got shape {shape}")

    @cached_property
    def eigen(self) -> mc.SkewEigen:
        return mc.SkewEigen(self.gamma_hat)


@dataclass(frozen=True)
class ContrastPair:
    """A pair of contrast vectors (c, d): unit length, zero sum, and
    mutually orthogonal.

    The largest singular value of the interaction residual is the
    maximum of c' gamma_hat d over all such pairs, so any particular
    pair's value is a lower bound for it.
    """

    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if c.shape != d.shape or c.ndim != 1:
            raise DomainError(f"c and d must be vectors of equal length, got {c.shape}, {d.shape}")
        for name, v in (("c", c), ("d", d)):
            if abs(float(v @ v) - 1.0) > 1e-10:
                raise DomainError(f"{name} must have unit length")
            if abs(float(v.sum())) > 1e-10:
                raise DomainError(f"{name} must sum to zero")
        if abs(float(c @ d)) > 1e-10:
            raise DomainError("c and d must be orthogonal")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)


def deadlock_contrast_pair(m: int, i: int, j: int, k: int) -> ContrastPair:
    """The contrast pair whose bilinear form is the three-way deadlock
    (gamma_ij + gamma_jk + gamma_ki)/sqrt(3), for 0-based distinct
    indices."""
    m = whole("m", m, 0)
    if len({i, j, k}) != 3 or not all(0 <= idx < m for idx in (i, j, k)):
        raise DomainError(f"need three distinct indices below {m}, got ({i}, {j}, {k})")
    c = np.zeros(m)
    d = np.zeros(m)
    c[i], c[j] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    d[i] = d[j] = 1.0 / math.sqrt(6.0)
    d[k] = -2.0 / math.sqrt(6.0)
    return ContrastPair(c=c, d=d)


def contrast_value(fit: ScheffeFit, pair: ContrastPair) -> float:
    """The bilinear contrast c' gamma_hat d."""
    if pair.c.shape != (fit.m,):
        raise DomainError(f"contrast length {pair.c.shape[0]} does not match m={fit.m}")
    return float(pair.c @ fit.gamma_hat @ pair.d)


@dataclass(frozen=True)
class TestReport:
    """All subtractivity statistics for one dataset.

    The spectrum is reported in error-standard-deviation units (divided
    by sqrt(sigma2)), so ``sv_stat == spectrum[0]`` and the sum of
    squared spectrum entries equals ``chi2_stat``.  ``std_p`` is None
    when the standardized statistic falls below the critical point
    1/sqrt(2), outside the exact range of the tube formula, and for m < 5,
    where the residual has one singular pair and no exact law.  Perfectly
    subtractive data (a zero interaction residual, see scheffe_fit) leave the
    standardized statistic a 0/0 form and the top plane undefined:
    ``std_stat``, ``std_p`` and ``embedding`` are then all None.  The
    ``embedding`` is None too when the top singular value is not a simple
    pair (``sv_stat > 0``), as in a regular Paley tournament, whose nonzero
    singular values are all equal.  Every field is read from one fit
    through the public tests, which share the fit's one eigen-solve.
    """

    names: tuple[str, ...]
    chi2_stat: float
    chi2_df: int
    chi2_p: float
    sv_stat: float
    sv_p: float
    std_stat: float | None
    std_p: float | None
    spectrum: np.ndarray
    deadlock_triple: tuple[int, int, int]
    deadlock_value: float
    embedding: np.ndarray | None


def variance_stabilize(sheet: ScoreSheet) -> SkewObservations:
    """Map win fractions to approximately N(., 1) scores.

    Applies f(q) = 2 sqrt(n) (asin(sqrt(q)) - pi/4) entrywise, evaluated
    through the half-angle identity asin(sqrt(q)) - pi/4 =
    asin(2q - 1)/2 so an even split lands exactly on zero; since
    f(q) = -f(1-q), the result is made exactly skew-symmetric by
    computing the upper triangle and negating.  Boundary sweeps
    (r = 0 or r = n) stay finite but the normal approximation is poor
    there, so they are accepted with a warning.
    """
    n = sheet.n_games
    iu = np.triu_indices(sheet.m, 1)
    counts, where = np.unique(sheet.r[iu], return_inverse=True)
    if counts[0] == 0 or counts[-1] == n:
        warnings.warn(
            "score sheet contains boundary sweeps (0 or all games won); "
            "the variance-stabilized scores are unreliable for those pairs",
            stacklevel=2,
        )
    # math.asin once per distinct count (np.arcsin rounds differently)
    scale = math.sqrt(n)
    values = np.array([scale * math.asin((2.0 * int(k) - n) / n) for k in counts])
    y = np.zeros((sheet.m, sheet.m))
    y[iu] = values[where]
    y.T[iu] = -y[iu]
    return SkewObservations(y=y)


def scheffe_fit(obs: SkewObservations) -> ScheffeFit:
    """Least-squares estimators: alpha_i = row mean, gamma = what's left.

    A gamma at rounding level (max |gamma| <= 4 m eps max |y|) is set to
    exactly zero, so subtractive data take the exact-zero path.
    """
    if obs.m < 3:
        raise DomainError(f"need m >= 3 objects for an interaction space, got {obs.m}")
    _, k = np.frexp(np.max(np.abs(obs.y)))  # fit y / 2^k, exactly: its row sums cannot overflow
    y = np.ldexp(obs.y, -k)
    alpha = y.sum(axis=1) / obs.m
    gamma = y - (alpha[:, None] - alpha[None, :])
    noise = _ROUNDING_RESIDUAL * obs.m * np.finfo(float).eps * float(np.max(np.abs(y)))
    if float(np.max(np.abs(gamma))) <= noise:
        gamma = np.zeros_like(gamma)
    with np.errstate(over="ignore"):  # an overflowing gamma is chi_square_test's DataError
        alpha, gamma = np.ldexp(alpha, k), np.ldexp(gamma, k)
    alpha.flags.writeable = gamma.flags.writeable = False
    return ScheffeFit(alpha_hat=alpha, gamma_hat=gamma)


def interaction_spectrum(fit: ScheffeFit, sigma2: float = 1.0) -> np.ndarray:
    """Paired singular values of gamma_hat / sqrt(sigma2), descending;
    :class:`DomainError` when the division by sqrt(sigma2) overflows."""
    _check_sigma2(sigma2)
    root = math.sqrt(sigma2)
    if math.isinf(float(fit.eigen.spectrum[0]) / root):
        raise DomainError(f"the spectrum sigma_i / sqrt(sigma2) overflows for sigma2 = {sigma2!r}")
    return fit.eigen.spectrum / root


def _check_sigma2(sigma2: float) -> None:
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise DomainError(f"error variance must be positive, got {sigma2!r}")


def chi_square_test(fit: ScheffeFit, sigma2: float = 1.0) -> tuple[float, int, float]:
    """Scheffe's chi-square test of subtractivity.

    Returns (statistic, degrees of freedom, p-value) where the statistic
    is tr(gamma' gamma) / (2 sigma2) on (m-1)(m-2)/2 degrees of freedom.
    Raises :class:`DataError` when tr(gamma' gamma) / 2 alone overflows and
    :class:`DomainError` when only the division by sigma2 does.
    """
    _check_sigma2(sigma2)
    with np.errstate(over="ignore"):
        half_trace = float(np.sum(np.triu(fit.gamma_hat, 1) ** 2))
    if math.isinf(half_trace):
        raise DataError(
            "the chi-square statistic tr(gamma' gamma) / (2 sigma2) overflows: "
            "the interaction residual is too large for double precision"
        )
    stat = half_trace / sigma2
    if math.isinf(stat):
        raise DomainError(
            "the chi-square statistic tr(gamma' gamma) / (2 sigma2) overflows "
            f"for sigma2 = {sigma2!r}"
        )
    df = (fit.m - 1) * (fit.m - 2) // 2
    return stat, df, chi2_upper(df, stat)


def largest_sv_test(fit: ScheffeFit, sigma2: float = 1.0) -> tuple[float, float]:
    """Largest-singular-value test: sigma_1(gamma_hat)/sigma against the
    exact law at order m - 1.

    Under subtractivity the nonzero singular values of gamma_hat behave
    exactly like those of an (m-1) x (m-1) standard skew-symmetric
    Gaussian matrix, which supplies the null distribution.
    """
    if fit.m < 3:
        raise DomainError(f"need m >= 3, got {fit.m}")
    stat = float(interaction_spectrum(fit, sigma2)[0])
    return stat, largest_sv_upper(fit.m - 1, stat)


def lrt_standardized_test(fit: ScheffeFit) -> tuple[float | None, float | None]:
    """Likelihood-ratio test of a single deadlock plane, variance unknown.

    The statistic sigma_1 / sqrt(sum sigma_i^2) is scale-free.  Its exact
    upper probability needs m >= 5 and a statistic at or above the
    critical point 1/sqrt(2); it is None otherwise, as at m = 3, 4, where
    the residual has one singular pair, a statistic of exactly 1.  On
    perfectly subtractive data the statistic is 0/0 and both values are
    None.  The spectrum is first scaled by a power of two near 1 / sigma_1,
    which is exact, so the sum of squares neither underflows nor overflows.
    """
    sigma = np.ldexp(fit.eigen.spectrum, -math.frexp(float(fit.eigen.spectrum[0]))[1])
    energy = float(np.sum(sigma**2))
    if energy <= 0.0:
        return None, None
    stat = float(sigma[0] / math.sqrt(energy))
    if fit.m < 5 or stat < CRITICAL_POINT - 1e-12:
        return stat, None
    return stat, standardized_sv_upper(fit.m - 1, stat)


def max_deadlock(fit: ScheffeFit) -> tuple[tuple[int, int, int], float]:
    """Largest three-way deadlock contrast over all oriented triples.

    Evaluates (gamma_ij + gamma_jk + gamma_ki)/sqrt(3) for every triple in
    both cyclic orientations, one (a, c) block per middle index b, and returns
    the 1-based triple (as labeled on the score sheet) whose cycle sum is most
    positive.  Ties go to the first triple a < b < c in lexicographic order.
    Raises :class:`DataError` when a residual entry or a cycle sum is not finite.
    """
    if fit.m < 3:
        raise DomainError(f"need m >= 3 for a triple, got {fit.m}")
    g = fit.gamma_hat
    if not np.isfinite(g).all():
        raise DataError("the interaction residual is not finite")
    best_value, best_key, best_triple = -math.inf, None, None
    with np.errstate(over="ignore"):  # an infinite winner is raised below as a DataError
        for b in range(1, fit.m - 1):
            cycle = ((g[:b, b, None] + g[None, b, b + 1:]) + g[b + 1:, :b].T) / _SQRT3
            k = int(np.argmax(np.abs(cycle)))
            a, c = divmod(k, fit.m - b - 1)
            c += b + 1
            cycle_k = float(cycle.flat[k])
            value = cycle_k if cycle_k >= 0.0 else -cycle_k  # not abs(): a -0.0 stays -0.0
            if value > best_value or (value == best_value and (a, b, c) < best_key):
                best_value, best_key = value, (a, b, c)
                best_triple = best_key if cycle_k >= 0.0 else (c, b, a)
    if math.isinf(best_value):
        raise DataError("a deadlock contrast overflows the doubles")
    i, j, k = best_triple
    return (i + 1, j + 1, k + 1), best_value


def residual_embedding(fit: ScheffeFit) -> np.ndarray:
    """Plane embedding (sqrt(sigma1) u_i, sqrt(sigma1) v_i) of the rank-2
    approximation gamma_hat ~ sigma1 (u v' - v u').

    Twice the signed area of triangle (i, j, k), divided by sqrt(3),
    approximates the deadlock contrast of that triple with matching
    sign; the match is exact when gamma_hat has rank 2.
    """
    plane = fit.eigen.top_plane()
    root = math.sqrt(plane.sigma1)
    return np.column_stack((root * plane.u, root * plane.v))


def signed_area(points: np.ndarray, i: int, j: int, k: int) -> float:
    """Signed (counterclockwise-positive) area of triangle (i, j, k).

    Indices are 0-based rows of the embedding array.
    """
    pts = np.asarray(points, dtype=float)
    if len({i, j, k}) != 3 or not all(0 <= idx < len(pts) for idx in (i, j, k)):
        raise DomainError(f"need three distinct indices below {len(pts)}, got ({i}, {j}, {k})")
    (xi, yi), (xj, yj), (xk, yk) = corners = pts[[i, j, k]]
    if not np.isfinite(corners).all():
        raise DomainError(f"triangle ({i}, {j}, {k}) has a non-finite point")
    return 0.5 * ((xj - xi) * (yk - yi) - (xk - xi) * (yj - yi))


def build_report(
    obs: SkewObservations,
    sigma2: float = 1.0,
    names: tuple[str, ...] | None = None,
) -> TestReport:
    """Run the full analysis on skew observations and assemble a report."""
    if names is None:
        names = tuple(str(i + 1) for i in range(obs.m))
    if len(names) != obs.m:
        raise DomainError(f"expected {obs.m} names, got {len(names)}")
    fit = scheffe_fit(obs)
    chi2_stat, chi2_df, chi2_p = chi_square_test(fit, sigma2)
    sv_stat, sv_p = largest_sv_test(fit, sigma2)
    spectrum = interaction_spectrum(fit, sigma2)
    std_stat, std_p = lrt_standardized_test(fit)
    triple, value = max_deadlock(fit)
    try:
        embedding = residual_embedding(fit)
    except MultiplicityError:  # a zero residual, or a tie at the top
        embedding = None
    return TestReport(
        names=names,
        chi2_stat=chi2_stat,
        chi2_df=chi2_df,
        chi2_p=chi2_p,
        sv_stat=sv_stat,
        sv_p=sv_p,
        std_stat=std_stat,
        std_p=std_p,
        spectrum=spectrum,
        deadlock_triple=triple,
        deadlock_value=value,
        embedding=embedding,
    )
