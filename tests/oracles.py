"""Test-only oracles: independent routes to quantities the library
computes in closed form.

* :func:`hankel_inverse_oracle` inverts the Hankel gram matrix by the
  paper's triangular band factorization, a second route to
  :func:`skewtail.rmtdist.hankel_gram`'s inverse;
* :func:`hankel_inverse_exact` inverts g / sqrt(pi) by Gauss-Jordan
  elimination in exact rationals, a third route that also gives the
  exact tube weights;
* :func:`critical_radius_search` is a vectorized random search for the
  supremum of :func:`skewtail.rmtdist.critical_radius_objective`, which
  pins the critical angle pi/4;
* :func:`laguerre_kernel_entrywise` builds every entry of the sigma_1
  laws' kernel sum_i phi(lam_i) phi(lam_i)^T by its own sum over the
  nodes, with the orthonormal Laguerre functions from scipy's generalized
  Laguerre polynomials instead of the library's recurrence;
* :func:`sigma1_kernels_recurrence` builds M and N with
  :func:`laguerre_kernel_recurrence`, the plain three-term recurrence (a
  fresh array per step), and :func:`schur_deficit_log_cdf` takes
  log det(I - M) by the product of the pivots of I - M: the routes the
  library's in-place recurrence and trace series replaced;
  :func:`sigma1_trace_routed` picks the kernel piece by reading tr M on
  every call, the route the library's cached switch point replaced;
* :func:`gauss_laguerre_newton`, :func:`gauss_legendre_newton` and
  :func:`switch_point_newton` build by Newton steps the constants the
  library ships in ``src/skewtail/data/law_tables.txt``;
  ``tests/make_law_tables.py`` writes that file from them;
* :func:`regularized_gamma_lower` and :func:`chi2_lower` are the linear
  lower tails that :func:`skewtail.specfun.log_regularized_gamma_lower`
  and :func:`skewtail.specfun.chi2_upper` are checked against;
* :func:`simulate_null_largest_sv` fits pure-noise Scheffe observations
  and returns the largest singular values of their residuals, whose law
  must be the exact one of order m - 1;
* :func:`uppers_to_full` stacks full skew matrices from upper triangles,
  for the batched solve's checks against the single one;
* :func:`arcsine_score_variance` is the exact variance of one
  variance-stabilized score at n games per pair: passed as sigma2, it
  gives the report's chi-square and sigma_1 tests the score variance
  their laws assume.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from skewtail import mc, rmtdist
from skewtail.errors import DomainError
from skewtail.specfun import (
    _lower_gamma_series,
    _upper_gamma_cf,
    chi2_upper,
    log_gamma,
    probability,
)


def regularized_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x)."""
    if s <= 0.0 or x < 0.0 or not (math.isfinite(s) and math.isfinite(x)):
        raise DomainError(f"regularized gamma requires s > 0 and x >= 0, got ({s!r}, {x!r})")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        front = math.exp(-x + s * math.log(x) - math.lgamma(s))
        return min(1.0, front * _lower_gamma_series(s, x))
    return 1.0 - _upper_gamma_cf(s, x)


def chi2_lower(nu: float, y: float) -> float:
    """Lower tail P(chi2_nu <= y), derived as the complement of the upper tail."""
    return probability(1.0 - chi2_upper(nu, y))


def laguerre_kernel_entrywise(t: int, a: float, lam: np.ndarray, scale: np.ndarray):
    """(entries, magnitudes) of sum_i (scale_i psi_j(lam_i)) (scale_i psi_k(lam_i))
    for j, k < t, with psi_k = L_k^(a) sqrt(k! / Gamma(k + a + 1)) orthonormal
    for lam^a e^-lam; magnitudes sums the absolute values of the same terms."""
    from scipy.special import eval_genlaguerre

    psi = [
        scale * eval_genlaguerre(k, a, lam) * math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(k + a + 1)))
        for k in range(t)
    ]
    entries, magnitudes = np.empty((t, t)), np.empty((t, t))
    for j in range(t):
        for k in range(t):
            terms = psi[j] * psi[k]
            entries[j, k], magnitudes[j, k] = float(terms.sum()), float(np.abs(terms).sum())
    return entries, magnitudes


def laguerre_kernel_recurrence(law, lam: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sum_i phi(lam_i) phi(lam_i)^T as :func:`skewtail.rmtdist._kernel`
    takes it, with psi_k by the three-term recurrence in a fresh array per
    step; the library's in-place recurrence must match it bit for bit."""
    a = law.eps - 0.5
    b = np.empty((law.t, lam.size))
    prev, cur = np.zeros_like(lam), np.full_like(lam, math.exp(-0.5 * math.lgamma(a + 1.0)))
    for k in range(law.t):
        b[k] = cur
        prev, cur = cur, (
            (2 * k + 1 + a - lam) * cur - math.sqrt(k * (k + a)) * prev
        ) / math.sqrt((k + 1) * (k + 1 + a))
    b *= scale
    return b @ b.T


def sigma1_kernels_recurrence(law, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) of :func:`skewtail.rmtdist._upper_kernel` and ``_lower_kernel``
    on the library's quadrature rules, every factor formed per call and
    the kernels by :func:`laguerre_kernel_recurrence`."""
    a = law.eps - 0.5
    u, w = rmtdist._gauss_laguerre(rmtdist._LAGUERRE_NODES)
    lam = 0.5 * x * x + u
    upper = laguerre_kernel_recurrence(law, lam, np.sqrt(w * lam ** a) * math.exp(-0.25 * x * x))
    v, w = rmtdist._gauss_legendre(rmtdist._LEGENDRE_NODES)
    lam = 0.5 * x * x * v * v
    root_jacobian = np.sqrt(2.0 * w * v ** (1.0 + 2.0 * a)) * (x / math.sqrt(2.0)) ** (1.0 + a)
    return upper, laguerre_kernel_recurrence(law, lam, root_jacobian * np.exp(-0.5 * lam))


def sigma1_trace_routed(p: int, x: float) -> tuple[float, float, float]:
    """:func:`skewtail.rmtdist._sigma1` routed by the trace it reads: build
    M and take the trace series where tr M < 1/8, else build N as well and
    take det N by Cholesky.  The library picks the same piece from its
    cached switch point, so it must match this bit for bit."""
    law = rmtdist.spectrum_law(p)
    y = float(x) * float(x)
    if math.isinf(y) or (y > 2 * law.n and chi2_upper(law.n, y) == 0.0):
        return 1.0, 0.0, 0.0
    m = rmtdist._upper_kernel(law, x)
    trace = float(np.trace(m))
    if trace < 0.125:
        total, term, power, j = trace, trace, m, 1
        while term > 2.0 ** -54 * trace:
            power, j = power @ m, j + 1
            term = float(np.trace(power)) / j
            total += term
        return math.exp(-total), -math.expm1(-total), trace
    n = rmtdist._lower_kernel(law, x)
    try:
        cdf = float(np.prod(np.diagonal(np.linalg.cholesky(n)))) ** 2
    except np.linalg.LinAlgError:
        cdf = 0.0
    cdf = min(cdf, math.erf(x / math.sqrt(2.0)) ** law.n)
    return cdf, 1.0 - cdf, law.t - float(np.trace(n))


def newton_roots(x: np.ndarray, poly) -> np.ndarray:
    """Roots of poly, which returns (value, slope), by Newton steps from
    estimates x; the search ends at the step that meets the tolerance."""
    for _ in range(20):
        value, slope = poly(x)
        step = value / slope
        x = x - step
        if np.all(np.abs(step) <= 1e-13 * np.abs(x)):
            return x
    raise ArithmeticError("Newton steps failed to converge")


@functools.lru_cache(maxsize=None)
def gauss_laguerre_newton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule for int_0^inf f(u) e^-u du by
    Newton steps from Tricomi's estimates: the build of the rule that
    :func:`skewtail.rmtdist._gauss_laguerre` ships."""
    def poly(x):  # L_n, L_n' by (j + 1) L_{j+1} = (2j + 1 - x) L_j - j L_{j-1}
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for j in range(n):
            prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
        return cur, n * (cur - prev) / x

    # Tricomi's estimate (4n + 2) cos^2(theta / 2), theta - sin(theta) = c
    c = (4 * n - 4 * np.arange(1, n + 1) + 3) * math.pi / (4 * n + 2)
    theta = np.cbrt(6.0 * c)
    for _ in range(6):
        theta -= (theta - np.sin(theta) - c) / (1.0 - np.cos(theta))
    u = newton_roots((4 * n + 2) * np.cos(0.5 * theta) ** 2, poly)
    slope = poly(u)[1]
    return u, 1.0 / (u * slope * slope)


def gauss_legendre_newton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule for int_0^1 f(v) dv by Newton
    steps: the build of the rule that :func:`skewtail.rmtdist._gauss_legendre`
    ships."""
    def poly(z):  # P_n, P_n' by (j + 1) P_{j+1} = (2j + 1) z P_j - j P_{j-1}
        prev, cur = np.zeros_like(z), np.ones_like(z)
        for j in range(n):
            prev, cur = cur, ((2 * j + 1) * z * cur - j * prev) / (j + 1)
        return cur, n * (z * cur - prev) / (z * z - 1.0)

    z = newton_roots(np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5)), poly)
    slope = poly(z)[1]
    return 0.5 * (1.0 + z), 1.0 / ((1.0 - z * z) * slope * slope)


def switch_point_newton(p: int) -> float:
    """x_8(p), the least double x with tr M < 1/8, as
    :func:`skewtail.rmtdist._switch_point` ships it, with M built as
    ``_upper_kernel`` builds it on :func:`gauss_laguerre_newton`'s rule.
    Newton steps on log(8 tr M), d tr M / dx = -x sum_k phi_k(s)^2 being the
    trace of a one-node kernel, land within an ulp of it from sqrt(4p) at
    p = 2 .. 173; ulp steps settle the rest."""
    law = rmtdist.spectrum_law(p)
    u, w = gauss_laguerre_newton(rmtdist._LAGUERRE_NODES)

    def count(x: float) -> float:
        lam = 0.5 * x * x + u
        return rmtdist._kernel(law, lam, np.sqrt(w * lam ** (law.eps - 0.5)) * math.exp(-0.25 * x * x)).trace()

    def log_count(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, trace = 0.5 * x * x, count(x[0])
        density = rmtdist._kernel(law, s, s ** (0.5 * law.eps - 0.25) * np.exp(-0.5 * s)).trace()
        return np.log(8.0 * trace), -x * density / trace

    x = float(newton_roots(np.array([math.sqrt(4.0 * law.p)]), log_count)[0])
    while count(x) >= 0.125:
        x = math.nextafter(x, math.inf)
    while count(below := math.nextafter(x, 0.0)) < 0.125:
        x = below
    return x

def schur_deficit_log_cdf(m: np.ndarray) -> float:
    """log det(I - M) as sum_k log1p(-delta_k) over the pivot deficits of
    I - M: the Schur complement of I - M is I - M', M' = M_22 + M_21 M_12 /
    (1 - M_11), so each delta_k sums nonnegative terms.  M is not changed."""
    m = np.array(m, dtype=float)
    log_cdf = 0.0
    for k in range(m.shape[0]):
        deficit = m[k, k]
        log_cdf += math.log1p(-deficit)
        m[k + 1:, k + 1:] += np.outer(m[k + 1:, k], m[k, k + 1:]) / (1.0 - deficit)
    return log_cdf


def _band_factorization(delta: float, t: int):
    """The triangular pieces of B_{t-1}...B_1 G = E T D.

    Returns (G, B, T, Tinv, D_diag, E_diag) where B is the product of
    the band matrices (unit upper triangular), T holds the binomial
    entries C(t-j, t-i) on and below the diagonal, T^{-1} flips their
    signs checkerboard-style, and D, E are the gamma/factorial
    diagonals.
    """
    idx = range(1, t + 1)
    G = np.array([[math.exp(log_gamma(delta + 2 * t - i - j + 1.0)) for j in idx] for i in idx])

    # product order is B_{t-1} ... B_2 B_1
    B = np.eye(t)
    for k in range(t - 1, 0, -1):
        Bk = np.eye(t)
        for i in range(1, t - k + 1):
            Bk[i - 1, i] = -(delta + t - i)
        B = B @ Bk

    T = np.zeros((t, t))
    for i in idx:
        for j in idx:
            if i >= j:
                T[i - 1, j - 1] = math.comb(t - j, t - i)
    Tinv = np.array([[(-1) ** (i + j) * T[i - 1, j - 1] for j in idx] for i in idx])

    D_diag = np.array([math.exp(log_gamma(delta + t - i + 1.0)) for i in idx])
    E_diag = np.array([float(math.factorial(t - i)) for i in idx])
    return G, B, T, Tinv, D_diag, E_diag


def hankel_inverse_oracle(delta: float, t: int) -> np.ndarray:
    """Invert G = (Gamma(delta + 2t - i - j + 1)) by triangular factorization.

    Builds the band matrices B_k, the binomial lower-triangular T and
    the diagonals D, E with B_{t-1}...B_1 G = E T D, and returns
    G^{-1} = D^{-1} T^{-1} E^{-1} B.  With delta = eps - 1/2 this is an
    independent route to :func:`hankel_gram`'s closed-form inverse.

    The factorization also implies det(G) = prod_i Gamma(delta+t-i+1) *
    (t-i)!, which is verified here against a pivoted-LU determinant of
    the assembled G before returning.
    """
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise DomainError(f"t must be an integer >= 1, got {t!r}")
    if not math.isfinite(delta) or delta <= -1.0:
        raise DomainError(f"delta must be > -1, got {delta!r}")
    t = int(t)
    G, B, _, Tinv, D_diag, E_diag = _band_factorization(delta, t)

    log_det_product = sum(
        log_gamma(delta + t - i + 1.0) + log_gamma(t - i + 1.0) for i in range(1, t + 1)
    )
    sign, log_det_lu = np.linalg.slogdet(G)
    if sign <= 0.0 or abs(log_det_lu - log_det_product) > 1e-9 * max(1.0, abs(log_det_product)):
        raise ArithmeticError(
            f"determinant identity failed for delta={delta}, t={t}: "
            f"LU gives {sign}*exp({log_det_lu}), product gives exp({log_det_product})"
        )

    return (Tinv / D_diag[:, None]) @ (B / E_diag[:, None])


def hankel_inverse_exact(p: int) -> tuple[list, list, list]:
    """(g / sqrt(pi), sqrt(pi) * ginv, weights) of order p in exact rationals.

    g_ij / sqrt(pi) = Gamma(p - i - j + 1/2) / sqrt(pi) = (2n)! / (4^n n!)
    with n = p - i - j; the inverse comes from Gauss-Jordan elimination
    with exact pivots, and weight k is the anti-diagonal sum of
    g_ij * ginv_ij over i + j = k + 2.
    """
    t = p // 2
    half = [Fraction(math.factorial(2 * n), 4**n * math.factorial(n)) for n in range(p - 1)]
    g = [[half[p - i - j] for j in range(1, t + 1)] for i in range(1, t + 1)]
    aug = [row[:] + [Fraction(int(i == j)) for j in range(t)] for i, row in enumerate(g)]
    for c in range(t):
        pivot = next(r for r in range(c, t) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pivot_value = aug[c][c]
        aug[c] = [v / pivot_value for v in aug[c]]
        for r in range(t):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[c])]
    ginv = [row[t:] for row in aug]
    weights = [
        sum(g[i][k - i] * ginv[i][k - i] for i in range(max(0, k - t + 1), min(k, t - 1) + 1))
        for k in range(2 * t - 1)
    ]
    return g, ginv, weights


def critical_radius_search(count: int, seed: int, exclude_tol: float = 1e-3) -> tuple[float, np.ndarray]:
    """Randomized supremum search over 2x2 matrices with entries in [-1, 1].

    Evaluates the objective at ``count`` uniform matrices, skipping
    denominators smaller than ``exclude_tol``, and returns the largest
    value with its argmax matrix.  The maximum approaching 1 from below
    confirms cot^2(theta_c) = 1, i.e. theta_c = pi/4.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    best_val = -np.inf
    best_R = None
    remaining = int(count)
    while remaining > 0:
        m = min(remaining, 250_000)
        remaining -= m
        R = rng.uniform(-1.0, 1.0, size=(m, 2, 2))
        den = 1.0 - R[:, 0, 0] * R[:, 1, 1] + R[:, 0, 1] * R[:, 1, 0]
        keep = np.abs(den) >= exclude_tol
        if not np.any(keep):
            continue
        num = (R[keep, 0, 0] - R[keep, 1, 1]) ** 2 + (R[keep, 0, 1] + R[keep, 1, 0]) ** 2
        vals = 1.0 - num / den[keep] ** 2
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_R = R[keep][i].copy()
    if best_R is None:
        raise ArithmeticError("every sampled matrix fell inside the excluded set")
    return best_val, best_R


def simulate_null_largest_sv(m: int, count: int, seed: int) -> np.ndarray:
    """Null-hypothesis simulation of sigma_1(gamma_hat).

    Draws pure-noise observations y = eps (i.i.d. standard normal upper
    triangles, sample i of ``seed`` as in :mod:`skewtail.mc`), fits each
    one, and returns the largest singular values of the residuals.
    Each block of ``mc._BLOCK`` samples is drawn, fitted and solved in
    one pass, so the run's matrices are never held at once.
    """
    if m < 3:
        raise DomainError(f"need m >= 3, got {m}")
    key = mc._key(seed)
    sigma1 = np.empty(count)
    for s in range(0, count, mc._BLOCK):
        e = min(s + mc._BLOCK, count)
        y = uppers_to_full(mc._rows(key, s, np.empty((e - s, m * (m - 1) // 2))), m)
        alpha = y.sum(axis=2) / m
        gamma = y - (alpha[:, :, None] - alpha[:, None, :])
        sigma1[s:e] = mc.spectra_of_matrices(gamma)[:, 0]
    return sigma1


def uppers_to_full(uppers: np.ndarray, p: int) -> np.ndarray:
    """Stack of full skew matrices from a (B, p(p-1)/2) array of upper triangles."""
    u = np.atleast_2d(np.asarray(uppers, dtype=float))
    a = np.zeros((u.shape[0], p, p))
    iu = np.triu_indices(p, 1)
    a[:, iu[0], iu[1]] = u
    return a - np.transpose(a, (0, 2, 1))


def arcsine_score_variance(n: int, pi: float) -> float:
    """Var f(K) for K ~ Bin(n, pi) and the score f(k) = sqrt(n) asin(2k/n - 1)
    that :func:`skewtail.paired.variance_stabilize` gives k wins of n, as the
    exact finite sum over k = 0 .. n."""
    if n < 1 or not 0.0 <= pi <= 1.0:
        raise DomainError(f"need n >= 1 and 0 <= pi <= 1, got ({n!r}, {pi!r})")
    weights = [math.comb(n, k) * pi**k * (1.0 - pi) ** (n - k) for k in range(n + 1)]
    scores = [math.sqrt(n) * math.asin((2.0 * k - n) / n) for k in range(n + 1)]
    mean = math.fsum(w * f for w, f in zip(weights, scores))
    return math.fsum(w * (f - mean) ** 2 for w, f in zip(weights, scores))
