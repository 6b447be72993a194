"""Special-function tests: closed-form anchors, quadrature oracles, and
tail identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from skewtail.errors import DomainError
from skewtail.specfun import (
    _beta_upper_rungs,
    beta_upper,
    chi2_upper,
    log_gamma,
    log_regularized_gamma_lower,
    probability,
    regularized_beta,
    regularized_gamma_upper,
)

from oracles import chi2_lower, regularized_gamma_lower


def chi2_upper_quadrature(nu: float, y: float) -> float:
    """Slow oracle: adaptive quadrature of the chi-square density above y."""

    def dens(u):
        return math.exp((nu / 2 - 1) * math.log(u) - u / 2
                        - (nu / 2) * math.log(2) - math.lgamma(nu / 2))

    upper = max(y + 40 * math.sqrt(2 * nu) + 40, 4 * nu + 80)
    with warnings.catch_warnings():
        # roundoff-limit notices are expected at these tolerances; the
        # returned error estimate is what we actually rely on
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(dens, y, upper, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-11
    return val


def beta_upper_quadrature(a: float, b: float, y: float) -> float:
    """Slow oracle: adaptive quadrature of the beta density above y."""

    def dens(u):
        return math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
                        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(dens, y, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-11
    return val


class TestLogGamma:
    def test_gamma_of_one_is_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_of_half_is_sqrt_pi(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-15)

    def test_recurrence_anchor_3_5(self):
        # Gamma(3.5) = 15 sqrt(pi) / 8 by climbing the recurrence from Gamma(1/2)
        assert log_gamma(3.5) == pytest.approx(math.log(15 * math.sqrt(math.pi) / 8), rel=1e-14)

    @pytest.mark.parametrize("x", np.geomspace(0.5, 200, 64))
    def test_relative_accuracy_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        exact = float(mpmath.log(mpmath.gamma(mpmath.mpf(x))))
        scale = max(abs(exact), 1.0)
        assert abs(log_gamma(float(x)) - exact) <= 1e-13 * scale

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestChi2Tails:
    def test_zero_threshold_is_one(self):
        for nu in (0.5, 1, 3, 10.5):
            assert chi2_upper(nu, 0.0) == 1.0

    def test_baseball_p_value(self):
        # df=10 at the interaction chi-square statistic
        assert chi2_upper(10, 15.765) == pytest.approx(0.1066, abs=5e-5)

    def test_squared_normal_identity(self):
        # chi-square with 1 df is a squared standard normal
        exact = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0))))
        assert chi2_upper(1, 4.0) == pytest.approx(exact, abs=1e-13)
        assert chi2_upper(1, 4.0) == pytest.approx(chi2_upper_quadrature(1, 4.0), abs=1e-11)

    @pytest.mark.parametrize("nu", [0.5, 1, 2, 3, 5, 7.5, 11, 17, 29, 41])
    @pytest.mark.parametrize("y", [0.01, 0.5, 1.0, 3.0, 8.0, 15.0, 30.0, 60.0, 120.0, 250.0])
    def test_against_quadrature_oracle(self, nu, y):
        assert chi2_upper(nu, y) == pytest.approx(chi2_upper_quadrature(nu, y), abs=1e-10)

    @pytest.mark.parametrize("nu", [1, 3, 9, 21])
    def test_tails_sum_to_one(self, nu):
        for y in np.linspace(0.0, 80.0, 37):
            assert chi2_upper(nu, y) + chi2_lower(nu, y) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [1, 5, 13])
    def test_monotone_nonincreasing(self, nu):
        ys = np.linspace(0.0, 60.0, 200)
        vals = [chi2_upper(nu, y) for y in ys]
        assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for nu in (1, 2.5, 7, 33):
            for y in (0.1, 2.0, 10.0, 55.0):
                assert chi2_upper(nu, y) == pytest.approx(
                    float(scipy_special.gammaincc(nu / 2, y / 2)), abs=1e-13
                )

    @pytest.mark.parametrize("m", range(3, 175))
    def test_against_scipy_at_every_league_df(self, m):
        # the df (m - 1)(m - 2) / 2 of an m-team report's chi-square test,
        # over its mean +- 8 sd: the series runs to 8 sqrt(df / 2) terms there
        df = (m - 1) * (m - 2) // 2
        sd = math.sqrt(2.0 * df)
        ys = np.linspace(max(0.0, df - 8.0 * sd), df + 8.0 * sd, 33)
        got = np.array([chi2_upper(df, float(y)) for y in ys])
        assert np.max(np.abs(got - special.chdtrc(df, ys))) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_upper(0.0, 1.0)
        with pytest.raises(DomainError):
            chi2_upper(3.0, -0.5)
        with pytest.raises(DomainError):
            chi2_upper(math.nan, 1.0)


class TestLogLowerGamma:
    def test_matches_linear_scale(self):
        for s in (0.5, 2.5, 9.5):
            for x in (0.2, 1.0, 4.0, 20.0):
                assert math.exp(log_regularized_gamma_lower(s, x)) == pytest.approx(
                    regularized_gamma_lower(s, x), rel=1e-12
                )

    def test_survives_deep_left_tail(self):
        # linear scale underflows around P ~ 1e-308; the log path keeps going
        val = log_regularized_gamma_lower(8.5, 1e-40)
        assert math.isfinite(val) and val < -700

    def test_zero_is_minus_inf(self):
        assert log_regularized_gamma_lower(3.0, 0.0) == -math.inf


class TestBetaTails:
    def test_full_and_empty_mass(self):
        for a, b in ((0.5, 0.5), (2.5, 7.5), (10, 3)):
            assert beta_upper(a, b, 0.0) == 1.0
            assert beta_upper(a, b, 1.0) == 0.0

    def test_arcsine_symmetry_point(self):
        assert beta_upper(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_half_integer_anchor_from_quadrature(self):
        # the oracle integrates t^{3/2}(1-t)^{-1/2} / B(5/2, 1/2) directly
        assert beta_upper(2.5, 0.5, 0.5) == pytest.approx(
            beta_upper_quadrature(2.5, 0.5, 0.5), abs=1e-10
        )

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 4.5, 8.5, 16.5])
    @pytest.mark.parametrize("b", [0.5, 1.5, 3.5, 10.5, 30.5])
    @pytest.mark.parametrize("y", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_against_quadrature_oracle(self, a, b, y):
        assert beta_upper(a, b, y) == pytest.approx(beta_upper_quadrature(a, b, y), abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.5, 60.0),
        b=st.floats(0.5, 60.0),
        y=st.floats(0.0, 1.0),
    )
    def test_reflection_identity(self, a, b, y):
        assert beta_upper(a, b, y) == pytest.approx(1.0 - beta_upper(b, a, 1.0 - y), abs=1e-12)

    @pytest.mark.parametrize("a,b", [(2.5, 1.5), (6.5, 52.5), (0.5, 0.5)])
    def test_monotone_nonincreasing(self, a, b):
        ys = np.linspace(0.0, 1.0, 200)
        vals = [beta_upper(a, b, y) for y in ys]
        assert all(u >= v - 1e-13 for u, v in zip(vals, vals[1:]))

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for a, b in ((2.5, 1.5), (16.5, 60.0), (0.5, 5.5)):
            for y in (0.1, 0.5, 0.9, 0.99):
                assert regularized_beta(a, b, y) == pytest.approx(
                    float(scipy_special.betainc(a, b, y)), abs=1e-13
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_upper(2.0, 3.0, -0.1)
        with pytest.raises(DomainError):
            beta_upper(2.0, 3.0, 1.5)
        with pytest.raises(DomainError):
            regularized_beta(-1.0, 2.0, 0.5)


def ladder(p: int) -> tuple[int, float]:
    """(2t - 1, p - 3/2 - (2t - 2)): the rung count of order p's tube
    sums and the smallest half degree of freedom (or first beta parameter)
    on its ladder."""
    count = 2 * (p // 2) - 1
    return count, p - 1.5 - (count - 1)


class TestRungs:
    """The ladders of 2t - 1 tails of the tube sums, for every order
    p = 2..60: the gamma tails by the scalar routines at each rung, and
    the beta tails the standardized law uses (p = 4..60) by one scalar
    evaluation and the recurrence, against scipy and against the scalar
    routine at each rung."""

    @pytest.mark.parametrize("p", range(2, 61))
    def test_upper_gamma(self, p):
        count, s0 = ladder(p)
        s = s0 + np.arange(count)
        for x in np.geomspace(1e-3, 8.0 * p + 40.0, 15):
            scalar = np.array([regularized_gamma_upper(si, x) for si in s])
            reference = special.gammaincc(s, x)
            keep = reference > 1e-290
            assert np.all(np.abs(scalar - reference)[keep] <= 3e-13 * reference[keep])
            assert np.all(scalar[~keep] <= 1e-289)

    @pytest.mark.parametrize("p", range(2, 61))
    def test_log_lower_gamma(self, p):
        count, _ = ladder(p)
        s = p - 1.5 - np.arange(count)
        for x in np.geomspace(1e-3, 8.0 * p + 40.0, 15):
            scalar = np.array([log_regularized_gamma_lower(si, x) for si in s])
            assert np.all(np.isfinite(scalar))
            with np.errstate(divide="ignore"):
                reference = np.log(special.gammainc(s, x))
            keep = np.isfinite(reference)
            assert np.all(np.abs(scalar - reference)[keep] <= 2e-13)

    @pytest.mark.parametrize("p", range(4, 61))
    def test_beta_upper(self, p):
        # a + b = n/2 as in the standardized tail; scipy's betainc loses
        # relative accuracy near the double floor, so it is read above 1e-250
        count, a0 = ladder(p)
        b0 = p * (p - 1) / 4 - a0
        a, b = a0 + np.arange(count), b0 - np.arange(count)
        for y in np.linspace(0.5, 0.9999, 12):
            rungs = np.array(_beta_upper_rungs(beta_upper(a0, b0, y), a0, b0, y, count))
            scalar = np.array([beta_upper(ai, bi, y) for ai, bi in zip(a, b)])
            keep = scalar > 1e-280
            assert np.all(np.abs(rungs - scalar)[keep] <= 5e-12 * scalar[keep])
            reference = special.betainc(b, a, 1.0 - y)
            keep = reference > 1e-250
            assert np.all(np.abs(rungs - reference)[keep] <= 5e-12 * reference[keep])

    def test_zero_threshold(self):
        count, s0 = ladder(11)
        assert [regularized_gamma_upper(s0 + k, 0.0) for k in range(count)] == [1.0] * count
        top = 11 - 1.5
        assert [log_regularized_gamma_lower(top - k, 0.0) for k in range(count)] == [-math.inf] * count

    def test_beta_endpoints(self):
        count, a0 = ladder(11)
        b0 = 11 * 10 / 4 - a0
        for y, tail in ((0.0, 1.0), (1.0, 0.0)):
            assert _beta_upper_rungs(beta_upper(a0, b0, y), a0, b0, y, count) == [tail] * count

    def test_underflowed_half_square(self):
        # x = 1e-170 squares to 0: ln P is -inf and Q is 1 on every rung; a
        # subnormal x keeps every ln P finite, s ln x - x - ln Gamma(s + 1)
        # up to the series' next term, x / (s + 1)
        count, s0 = ladder(59)
        top = 59 - 1.5
        half_y = 0.5 * (1e-170 * 1e-170)
        assert half_y == 0.0
        assert [log_regularized_gamma_lower(top - k, half_y) for k in range(count)] == [-math.inf] * count
        assert [chi2_upper(2 * (s0 + k), 2 * half_y) for k in range(count)] == [1.0] * count
        for x in (1e-320, 1e-300):
            for s in top - np.arange(count):
                value = log_regularized_gamma_lower(s, x)
                leading = s * math.log(x) - x - math.lgamma(s + 1.0)
                assert math.isfinite(value)
                assert abs(value - leading) <= 1e-12 * abs(leading)


class TestProbabilityGuard:
    def test_clamps_roundoff(self):
        assert probability(1.0 + 5e-11) == 1.0
        assert probability(-5e-11) == 0.0
        assert probability(0.25) == 0.25

    def test_rejects_real_violations(self):
        with pytest.raises(DomainError):
            probability(1.01)
        with pytest.raises(DomainError):
            probability(math.nan)
