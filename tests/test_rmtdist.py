"""Distribution-formula tests: volume recurrences, determinantal CDF
reductions, Hankel inverse cross-checks, tail expansions, and the
critical-radius objective."""

import functools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from skewtail import rmtdist
from skewtail.errors import DataError, DomainError, ExcludedPointError, ValidityError
from skewtail.specfun import _beta_upper_rungs, beta_upper, chi2_upper, probability
from skewtail.rmtdist import (
    CRITICAL_POINT,
    critical_radius_objective,
    euler_characteristic,
    hankel_gram,
    joint_density,
    largest_sv_cdf,
    largest_sv_tail_asymptotic,
    largest_sv_upper,
    normalizing_constants,
    spectrum_law,
    standardized_sv_upper,
    volume_U,
)

from oracles import (
    _band_factorization,
    critical_radius_search,
    hankel_inverse_exact,
    hankel_inverse_oracle,
    laguerre_kernel_entrywise,
    schur_deficit_log_cdf,
    sigma1_kernels_recurrence,
    sigma1_trace_routed,
)
from make_law_tables import LAGUERRE_NODES, LEGENDRE_NODES, render as render_law_tables, tables as law_tables

SQRT_PI = math.sqrt(math.pi)

# regenerate with tests/make_standardized_refs.py
STANDARDIZED_REFS = json.loads(
    Path(__file__).with_name("standardized_refs.json").read_text()
)["references"]
SIGMA1_REFS = json.loads(Path(__file__).with_name("sigma1_refs.json").read_text())
HANKEL_REFS, TRACE_REFS = SIGMA1_REFS["hankel"], SIGMA1_REFS["trace"]
EPS = float(np.finfo(float).eps)


#: Orders at which the sigma_1 kernel's routes are checked against references.
KERNEL_ORDERS = [*range(2, 61), 80, 100, 140, 173]

#: Every law at order p, each at a point where it answers inside the envelope.
LAWS_AT_ORDER = {
    "largest_sv_cdf": lambda p: largest_sv_cdf(p, 26.0),
    "largest_sv_upper": lambda p: largest_sv_upper(p, 26.0),
    "largest_sv_tail_asymptotic": lambda p: largest_sv_tail_asymptotic(p, 26.0),
    "standardized_sv_upper": lambda p: standardized_sv_upper(p, CRITICAL_POINT),
    "hankel_gram": hankel_gram,
    "euler_characteristic": euler_characteristic,
    "joint_density": lambda p: joint_density(np.arange(p // 2, 0, -1.0), p),
}


def sphere_area(n: int) -> float:
    """Surface volume of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def volume_U_recurrence(p: int) -> float:
    """Oracle: Vol(U(p)) = Vol(G~(2,p)) Vol(U(p-2)) from Vol(U(1))=1, Vol(U(2))=2."""
    if p == 1:
        return 1.0
    if p == 2:
        return 2.0
    grass = 2.0 * sphere_area(p) * sphere_area(p - 1) / (sphere_area(2) * sphere_area(1))
    return grass * volume_U_recurrence(p - 2)


def count_gamma_loops(monkeypatch) -> list:
    """Record the order s of every incomplete-gamma series or continued
    fraction specfun runs: one entry per scalar evaluation."""
    from skewtail import specfun

    loops = []
    for name in ("_lower_gamma_series", "_upper_gamma_cf"):
        def counted(s, x, loop=getattr(specfun, name)):
            loops.append(s)
            return loop(s, x)

        monkeypatch.setattr(specfun, name, counted)
    return loops


def record_kernels(monkeypatch) -> list:
    """Record (lam, scale, matrix) of every kernel the sigma_1 laws build;
    the matrix is copied, so nothing done with it later changes the record."""
    kernels = []

    def recorded(law, lam, scale, kernel=rmtdist._kernel):
        matrix = kernel(law, lam, scale)
        kernels.append((lam, scale, matrix.copy()))
        return matrix

    monkeypatch.setattr(rmtdist, "_kernel", recorded)
    return kernels


def chi3_cdf(x: float) -> float:
    """Chi distribution with 3 degrees of freedom (radius of a 3-D normal)."""
    from scipy.special import gammainc

    return float(gammainc(1.5, x * x / 2.0))


class TestSpectrumLaw:
    @pytest.mark.parametrize("p", range(2, 20))
    def test_derived_constants(self, p):
        law = spectrum_law(p)
        assert law.t == p // 2
        assert law.eps in (0, 1) and law.eps == p - 2 * law.t
        assert law.n == p * (p - 1) // 2
        assert law.d == 2 * (p - 2)

    def test_rejects_small_or_non_integer(self):
        for bad in (1, 0, -3, 2.5, "4", True, 4.0, np.int64(1), 174, np.int64(174)):
            with pytest.raises(DomainError):
                spectrum_law(bad)

    @pytest.mark.parametrize("p", [2, 3, 59, 173])
    def test_one_law_object_per_order(self, p):
        law = spectrum_law(p)
        assert spectrum_law(p) is law and spectrum_law(np.int64(p)) is law
        assert type(law.p) is int

    @pytest.mark.parametrize("law", LAWS_AT_ORDER)
    def test_every_law_ends_at_the_one_bound(self, law):
        bound = rmtdist._MAX_ORDER
        value = LAWS_AT_ORDER[law](bound)
        if isinstance(value, float):
            assert math.isfinite(value) and value >= 0.0
        with pytest.raises(DomainError) as past:
            LAWS_AT_ORDER[law](bound + 1)
        assert str(past.value) == (
            f"the laws are verified for matrix orders p <= {bound}, got p={bound + 1}"
        )

    def test_readme_envelope_names_the_bound(self):
        readme = Path(__file__).parents[1].joinpath("README.md").read_text()
        envelope = re.search(r"\*\*Verified envelope\.\*\*(.*?)\n\n", readme, re.S).group(1)
        assert re.findall(r"`p <= (\d+)`", envelope) == [str(rmtdist._MAX_ORDER)]


class TestVolumeU:
    def test_anchors(self):
        assert volume_U(1) == pytest.approx(1.0, rel=1e-14)
        assert volume_U(2) == pytest.approx(2.0, rel=1e-14)
        assert volume_U(3) == pytest.approx(4.0 * math.pi, rel=1e-13)

    @pytest.mark.parametrize("p", range(1, 17))
    def test_recurrence_oracle(self, p):
        assert volume_U(p) == pytest.approx(volume_U_recurrence(p), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            volume_U(0)

    def test_last_normal_order(self):
        # Vol(U(61)) = 1.8e-319 is subnormal and Vol(U(62)) underflows to 0
        assert volume_U(60) == math.exp(rmtdist.log_volume_U(60))
        with pytest.raises(DomainError, match=r"volume_U\(61\)"):
            volume_U(61)


class TestNormalizingConstants:
    def test_even_anchor(self):
        _, d2 = normalizing_constants(2)
        assert d2 == pytest.approx(1.0 / (math.sqrt(2.0) * SQRT_PI), rel=1e-14)

    def test_odd_anchor(self):
        c3, _ = normalizing_constants(3)
        assert c3 == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    @pytest.mark.parametrize("p", range(2, 19))
    def test_defining_identity(self, p):
        c, d = normalizing_constants(p)
        assert c > 0 and d > 0
        assert d == pytest.approx(c / 2 ** (p // 2), rel=1e-12)

    @pytest.mark.parametrize("p", range(2, 19))
    def test_explicit_product_formulas(self, p):
        # d_p = 1 / (2^{p(p-1)/4} prod Gamma(i/2)), i from 1 (even p) or 2 (odd p)
        lo = 1 if p % 2 == 0 else 2
        log_dp = -(p * (p - 1) / 4.0) * math.log(2.0) - sum(
            math.lgamma(i / 2.0) for i in range(lo, p + 1)
        )
        assert normalizing_constants(p)[1] == pytest.approx(math.exp(log_dp), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            normalizing_constants(1)

    def test_last_normal_order(self):
        # c_37 = 6.4e-313 is subnormal and c_p underflows to 0 from p = 38
        assert normalizing_constants(36) == tuple(map(math.exp, rmtdist._log_constants(36)))
        with pytest.raises(DomainError, match=r"normalizing_constants\(37\)"):
            normalizing_constants(37)


class TestJointDensity:
    def test_tied_values_vanish(self):
        assert joint_density([1.3, 1.3], 4) == 0.0

    def test_odd_order_vanishes_at_zero(self):
        assert joint_density([2.0, 0.0], 5) == 0.0

    def test_chi3_reduction(self):
        # for p=3 the single singular value is the length of a 3-D normal
        for s in (0.3, 1.0, 2.2):
            chi3_dens = math.sqrt(2.0 / math.pi) * s * s * math.exp(-s * s / 2.0)
            assert joint_density([s], 3) == pytest.approx(chi3_dens, rel=1e-13)

    @pytest.mark.parametrize("p", [4, 5])
    def test_integrates_to_one(self, p):
        val, err = integrate.dblquad(
            lambda s2, s1: joint_density([s1, s2], p),
            0.0, 12.0,
            0.0, lambda s1: s1,
            epsabs=1e-9, epsrel=1e-9,
        )
        assert err < 1e-7
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_shapes_and_order(self):
        with pytest.raises(DomainError):
            joint_density([1.0], 4)
        with pytest.raises(DomainError):
            joint_density([1.0, 2.0], 4)  # increasing
        with pytest.raises(DomainError):
            joint_density([2.0, -1.0], 4)


# x / sqrt(p) in three bands of the sigma_1 law.  "diagonal": the bulk,
# where the trace of M (its diagonal) reaches 1/8 from p = 3 up, so the
# CDF is det N; "off_diagonal": the shoulder (1.85 sqrt(p) at p = 5 to
# 2.65 sqrt(p) at p = 100), where tr M < 1/8 and the series' terms
# tr(M^j), j >= 2, which take in M's off-diagonal entries, still count;
# "accepted": the far tail
COMPLEMENT_SIDES = {
    "diagonal": lambda p: 1.2,
    "off_diagonal": lambda p: 2.65 - 0.8 * math.exp(-(p - 5) / 10),
    "accepted": lambda p: 3.4,
}


class TestLargestSvCdf:
    def test_zero_threshold(self):
        for p in (2, 3, 7, 12):
            assert largest_sv_cdf(p, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_half_normal_reduction_p2(self, x):
        assert largest_sv_cdf(2, x) == pytest.approx(math.erf(x / math.sqrt(2.0)), abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_chi3_reduction_p3(self, x):
        assert largest_sv_cdf(3, x) == pytest.approx(chi3_cdf(x), abs=1e-10)

    def test_baseball_threshold(self):
        assert 1.0 - largest_sv_cdf(5, 3.932) == pytest.approx(0.0543, abs=5e-5)

    # saturation at 3 sqrt(p): exactly 1 - erf(3) = 2.21e-5 for p=2 and
    # 5.9e-6 / 1.35e-6 for p=3/4 (chi-square reductions and the kernel
    # agree), so the 1e-6 band only applies from p=5 up
    _SATURATION_TAIL = {2: 3e-5, 3: 6e-6, 4: 1.4e-6}

    @pytest.mark.parametrize("p", range(2, 17))
    def test_nondecreasing_and_saturates(self, p):
        xs = np.linspace(0.0, 3.0 * math.sqrt(p), 1000)
        vals = np.array([largest_sv_cdf(p, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] > 1.0 - self._SATURATION_TAIL.get(p, 1e-6)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("p", [4, 7, 12, 16])
    def test_complement_and_direct_routes_agree(self, p):
        # from the bulk to the tail both pieces of the kernel are accurate:
        # the complement det(I - M), M = int_s^inf phi phi^T by
        # Gauss-Laguerre, and the direct det N, N = int_0^s phi phi^T by
        # Gauss-Legendre.  They share no nodes, so they are independent
        # evaluations of the CDF; the library's value is whichever one
        # the side of its switch point x_8(p) picks.  Each determinant by
        # LU agrees with it to 2e-14, twice the CDF's envelope (the
        # Gauss-Laguerre M is the less accurate of the two in the bulk at
        # p = 4, 1.2e-14)
        law = spectrum_law(p)
        checked = {True: 0, False: 0}
        for x in np.linspace(1.0 * math.sqrt(p), 3.2 * math.sqrt(p), 40):
            cdf, _, trace = rmtdist._sigma1(p, x)
            checked[trace < 0.125] += 1
            complement = float(np.linalg.det(np.eye(law.t) - rmtdist._upper_kernel(law, x)))
            direct = float(np.linalg.det(rmtdist._lower_kernel(law, x)))
            assert largest_sv_cdf(p, x) == cdf
            assert complement == pytest.approx(cdf, abs=2e-14)
            assert direct == pytest.approx(cdf, abs=2e-14)
        assert checked[True] >= 5 and checked[False] >= 5

    @pytest.mark.parametrize("p, side", [
        (p, side)
        for p in [*range(2, 61), 100, 173]
        for side in COMPLEMENT_SIDES
        if (side != "off_diagonal" or p >= 5) and (p, side) != (173, "off_diagonal")
    ])
    def test_complement_check_matches_full_matrix_reference(self, p, side):
        # the library picks the complement piece from x_8(p), where the
        # trace of M, the sum of its diagonal, falls below 1/8; the
        # reference takes the eigenvalues mu of the whole M (or nu of the
        # whole N) and forms det(I - M) = prod(1 - mu) and det N = prod(nu)
        # from them.  Both pick the same piece, and give the CDF to 1e-14
        # and the upper tail to 1e-14 relative, which the trace series
        # keeps in the far tail
        law = spectrum_law(p)
        x = COMPLEMENT_SIDES[side](p) * math.sqrt(p)
        mu = np.linalg.eigvalsh(rmtdist._upper_kernel(law, x))
        complement = float(mu.sum()) < 0.125
        assert complement == (side != "diagonal" or p == 2)
        assert complement == (rmtdist._sigma1(p, x)[2] < 0.125)
        if complement:
            log_cdf = float(np.sum(np.log1p(-mu)))
            assert abs(largest_sv_cdf(p, x) - math.exp(log_cdf)) <= 1e-14
            assert abs(largest_sv_upper(p, x) / -math.expm1(log_cdf) - 1.0) <= 1e-14
        else:
            nu = np.linalg.eigvalsh(rmtdist._lower_kernel(law, x))
            assert abs(largest_sv_cdf(p, x) - float(np.prod(nu))) <= 1e-14

    @pytest.mark.parametrize("p", range(2, 61))
    def test_hankel_route_is_bit_identical_to_entrywise(self, p, monkeypatch):
        # every kernel the laws build, M or N, matches its t^2 entries
        # summed one by one over the same nodes from scipy's Laguerre
        # polynomials to 2e-13 of the sum of |terms|, not bit for bit (the
        # recurrence and the matrix product round differently).  The three
        # public laws cannot carry a tolerance against each other: each is
        # the bits of one kernel evaluation
        rmtdist._law_tables()  # read once, before the count
        kernels = record_kernels(monkeypatch)
        law = spectrum_law(p)
        for x in np.linspace(0.0, 2.0 * math.sqrt(p) + 4.0, 10)[1:]:
            kernels.clear()
            cdf, tail, trace = rmtdist._sigma1(p, x)
            assert len(kernels) == 1
            assert (kernels[0][0].size == LAGUERRE_NODES) == (trace < 0.125)
            for lam, scale, matrix in kernels:
                entries, magnitudes = laguerre_kernel_entrywise(law.t, law.eps - 0.5, lam, scale)
                assert np.all(np.abs(matrix - entries) <= 2e-13 * magnitudes)
            assert largest_sv_cdf(p, x) == cdf
            assert largest_sv_upper(p, x) == tail
            if p >= 4:
                assert largest_sv_tail_asymptotic(p, x) == trace

    @pytest.mark.parametrize("p, x", [(4, 1.0), (5, 2.0), (10, 3.0), (33, 10.0), (59, 8.0)])
    def test_one_incomplete_gamma_per_anti_diagonal(self, p, x, monkeypatch):
        # the Hankel determinant has 2t - 1 anti-diagonals of incomplete
        # gammas; the kernel has none: below twice the mean of chi2_n it
        # evaluates no incomplete gamma at all, and builds one kernel, the
        # Gauss-Laguerre M where tr M < 1/8 and else the Gauss-Legendre N
        law = spectrum_law(p)
        trace = float(np.trace(rmtdist._upper_kernel(law, x)))
        rmtdist._law_tables()
        kernels = record_kernels(monkeypatch)
        loops = count_gamma_loops(monkeypatch)
        assert 0.0 <= largest_sv_cdf(p, x) <= 1.0
        assert loops == []
        expected = LAGUERRE_NODES if trace < 0.125 else LEGENDRE_NODES
        assert [lam.size for lam, _, _ in kernels] == [expected]

    @pytest.mark.parametrize("p, x", [(4, 3.0), (5, 4.0), (10, 6.0), (16, 8.0), (33, 12.0), (59, 15.0)])
    @pytest.mark.parametrize("law", ["complement", "tail_asymptotic"])
    def test_one_chi2_tail_per_call(self, p, x, law, monkeypatch):
        # the only chi-square tail a sigma_1 law evaluates is P(chi2_n > x^2),
        # n = p (p - 1) / 2, past twice its mean (sigma_1^2 <= sum sigma_i^2
        # ~ chi2_n): one continued fraction there, nothing below
        calls = []

        def counted(nu, y):
            calls.append(nu)
            return chi2_upper(nu, y)

        monkeypatch.setattr(rmtdist, "chi2_upper", counted)
        loops = count_gamma_loops(monkeypatch)
        evaluate = largest_sv_upper if law == "complement" else largest_sv_tail_asymptotic
        n = p * (p - 1) // 2
        assert 0.0 <= evaluate(p, x) <= p // 2
        assert calls == [] and loops == []
        assert 0.0 <= evaluate(p, math.sqrt(4.0 * n)) <= p // 2
        assert calls == [n]
        assert loops == [n / 2]

    def test_overflowing_square_gives_one(self):
        assert largest_sv_cdf(10, 1e154) == 1.0  # x^2 = 1e308 is still finite
        assert largest_sv_upper(10, 1e154) == 0.0
        assert largest_sv_upper(60, 7e16) == 0.0  # e^(-x^2/2) far below the double range
        for p in (2, 10, 59):
            for x in (1e155, 1e170, float(np.finfo(float).max)):
                assert largest_sv_cdf(p, x) == 1.0
                assert largest_sv_upper(p, x) == 0.0

    def test_deep_left_tail_is_zero_not_garbage(self):
        assert largest_sv_cdf(16, 1e-12) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            largest_sv_cdf(1, 1.0)
        with pytest.raises(DomainError):
            largest_sv_cdf(4, -0.5)
        with pytest.raises(DomainError):
            largest_sv_cdf(4, math.inf)


def ref_id(ref: dict) -> str:
    return f"p{ref['p']}-x{ref['x']}"


class TestSigma1Kernel:
    """The one Laguerre kernel behind largest_sv_cdf, largest_sv_upper and
    largest_sv_tail_asymptotic, against mpmath references (stored, see
    tests/make_standardized_refs.py) and its own identities."""

    @pytest.mark.parametrize("ref", HANKEL_REFS, ids=[ref_id(r) for r in HANKEL_REFS])
    def test_matches_hankel_determinant(self, ref):
        # the envelope: the CDF to 1e-14 absolute up to p = 100 and 3e-14 up
        # to p = 173 (a t x t determinant of kernel entries each a few ulps
        # off), the upper tail to 1e-12 relative
        cdf, tail = float(ref["cdf"]), float(ref["tail"])
        assert abs(largest_sv_cdf(ref["p"], ref["x"]) - cdf) <= (1e-14 if ref["p"] <= 100 else 3e-14)
        assert abs(largest_sv_upper(ref["p"], ref["x"]) - tail) <= 1e-12 * tail

    @pytest.mark.parametrize("p", [2, 3])
    def test_chi_reductions_on_a_fine_grid(self, p):
        # p = 2: |N(0, 1)|; p = 3: the length of a 3-D normal; on both
        # sides of the switch between the two pieces of the kernel
        from scipy.special import gammainc, gammaincc

        for x in np.linspace(0.001, 9.0, 600):
            assert abs(largest_sv_cdf(p, x) - gammainc(p - 1.5, x * x / 2)) <= 1e-14
            assert abs(largest_sv_upper(p, x) / gammaincc(p - 1.5, x * x / 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [2, 3])
    def test_closed_form_tails_on_both_sides_of_the_switch(self, p, monkeypatch):
        # p = 2: sigma_1 = |N(0, 1)|, tail erfc(x / sqrt 2); p = 3: sigma_1 ~ chi_3,
        # tail erfc(x / sqrt 2) + sqrt(2 / pi) x e^(-x^2 / 2).  The Gauss-Laguerre
        # M is least accurate at the smallest orders; both pieces hold 1e-12
        # relative down to 1e-33
        rmtdist._law_tables()
        kernels = record_kernels(monkeypatch)
        for x in np.linspace(0.3, 12.0, 400):
            exact = math.erfc(x / math.sqrt(2.0))
            if p == 3:
                exact += math.sqrt(2.0 / math.pi) * x * math.exp(-0.5 * x * x)
            assert abs(largest_sv_upper(p, x) - exact) <= 1e-12 * exact
        sizes = [lam.size for lam, _, _ in kernels]
        assert sizes.count(LEGENDRE_NODES) >= 20 and sizes.count(LAGUERRE_NODES) >= 300

    @pytest.mark.parametrize("p", KERNEL_ORDERS)
    def test_bonferroni_bracket(self, p):
        # tr M - ((tr M)^2 - tr M^2) / 2 <= P(sigma_1 > x) <= tr M, within 4 ulps,
        # with M from the piece the library uses at each x
        law = spectrum_law(p)
        for x in np.linspace(0.05, 3.0 * math.sqrt(p) + 6.0, 40):
            tail, trace = largest_sv_upper(p, x), rmtdist._sigma1(p, x)[2]
            if trace < 0.125:
                m = rmtdist._upper_kernel(law, x)
            else:
                m = np.eye(law.t) - rmtdist._lower_kernel(law, x)
            lower = trace - 0.5 * (trace * trace - float(np.sum(m * m)))
            assert lower <= tail * (1.0 + 4.0 * EPS)
            assert tail <= trace * (1.0 + 4.0 * EPS)

    @pytest.mark.parametrize("p", KERNEL_ORDERS)
    def test_kernels_match_plain_recurrence_bit_for_bit(self, p):
        # the in-place recurrence with cached coefficients, and the cached
        # Gauss-Legendre factor, round each operation as the plain
        # recurrence does, so M and N keep every bit
        law = spectrum_law(p)
        for x in np.linspace(0.0, 3.4 * math.sqrt(p) + 8.0, 16)[1:]:
            upper, lower = sigma1_kernels_recurrence(law, x)
            assert np.array_equal(rmtdist._upper_kernel(law, x), upper)
            assert np.array_equal(rmtdist._lower_kernel(law, x), lower)

    @pytest.mark.parametrize("p", KERNEL_ORDERS)
    def test_trace_series_matches_schur_deficit_product(self, p):
        # where tr M < 1/8, exp(-S) with S = sum_j tr(M^j) / j against the
        # product of the pivots 1 - delta_k of I - M, whose deficits also
        # sum nonnegative terms: the tails agree to 2e-15 relative
        law = spectrum_law(p)
        checked = 0
        for x in np.linspace(1.8 * math.sqrt(p), 3.4 * math.sqrt(p) + 8.0, 24):
            m = rmtdist._upper_kernel(law, x)
            if np.trace(m) >= 0.125:
                continue
            log_cdf = schur_deficit_log_cdf(m)
            cdf, tail, _ = rmtdist._sigma1(p, x)
            assert abs(tail + math.expm1(log_cdf)) <= 2e-15 * -math.expm1(log_cdf)
            assert abs(cdf - math.exp(log_cdf)) <= 2e-15 * math.exp(log_cdf)
            checked += 1
        assert checked >= 16

    @pytest.mark.parametrize("p", [2, 3, 5, 10, 32, 60, 100, 173])
    def test_series_length(self, p, monkeypatch):
        # the series ends at its first term <= 2^-54 tr M, and rho(M) <= tr M:
        # at most 18 products M^j where tr M is just under 1/8, and 2 below
        # 1e-8.  M counts the products taken from it
        law, products, upper_kernel = spectrum_law(p), [], rmtdist._upper_kernel

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.ndarray.__matmul__(self, other)

        def trace(x):
            return float(np.trace(upper_kernel(law, x)))

        monkeypatch.setattr(rmtdist, "_upper_kernel", lambda law, x: upper_kernel(law, x).view(Counted))
        for target, most in ((0.125, 18), (1e-8, 2)):
            lo, hi = 0.0, 3.4 * math.sqrt(p) + 20.0  # trace(lo) >= target > trace(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if trace(mid) < target else (mid, hi)
            products.clear()
            count = rmtdist._sigma1(p, hi)[2]
            assert 0.999 * target < count < target
            assert 1 <= len(products) <= most

    @pytest.mark.parametrize("p", range(2, 174))
    def test_switch_point_is_where_the_trace_crosses_one_eighth(self, p, monkeypatch):
        # x_8 is shipped: cold (the table read afresh) and warm, finding it
        # builds no kernel; it is a double with tr M < 1/8 whose predecessor
        # has tr M >= 1/8
        law = spectrum_law(p)
        rmtdist._law_tables.cache_clear()
        kernels = record_kernels(monkeypatch)
        x8 = rmtdist._law_tables()["switch points"][p - 2]
        assert kernels == []
        kernels.clear()
        assert rmtdist._law_tables()["switch points"][p - 2] == x8 and kernels == []
        trace = float(np.trace(rmtdist._upper_kernel(law, x8)))
        assert abs(trace - 0.125) <= 1e-10
        assert trace < 0.125 <= float(np.trace(rmtdist._upper_kernel(law, math.nextafter(x8, 0.0))))

    @pytest.mark.parametrize("p", KERNEL_ORDERS)
    def test_switch_point_keeps_the_trace_route_bit_for_bit(self, p):
        # picking the piece by x against x_8(p) gives every bit of picking
        # it by the trace of a freshly built M, also on the two doubles
        # either side of x_8(p)
        x8 = rmtdist._law_tables()["switch points"][p - 2]
        grid = [x for x in np.linspace(0.0, 3.4 * math.sqrt(p) + 8.0, 40) if abs(x - x8) > 1e-12 * x]
        for x in [*grid, math.nextafter(x8, 0.0), x8]:
            assert rmtdist._sigma1(p, x) == sigma1_trace_routed(p, x)

    @pytest.mark.parametrize("p", range(2, 61))
    def test_tails_nonincreasing(self, p):
        xs = np.linspace(0.0, 3.0 * math.sqrt(p) + 6.0, 300)
        upper = np.array([largest_sv_upper(p, x) for x in xs])
        assert upper[0] == 1.0 and np.all(np.diff(upper) <= 0.0)
        if p >= 4:
            expansion = np.array([largest_sv_tail_asymptotic(p, x) for x in xs[1:]])
            assert np.all(np.diff(expansion) <= 0.0)

    def test_shipped_tables_are_the_newton_builds(self):
        # every entry of src/skewtail/data/law_tables.txt, the two Gauss rules
        # and x_8(p) at p = 2 .. 173, rebuilt by the Newton steps of
        # tests/oracles.py: bit for bit (float.hex text is exact), so the
        # kernels keep every bit; and so is each column of the reader, which
        # holds the Gauss-Legendre weights as root weights
        rebuilt = law_tables()
        with open(rmtdist._LAW_TABLES, encoding="ascii") as fh:
            assert fh.read() == render_law_tables(rebuilt)
        shipped = rmtdist._law_tables()
        for name in ("laguerre nodes", "laguerre weights", "legendre nodes", "switch points"):
            assert np.array_equal(shipped[name], rebuilt[name]), name
        v, w = np.array(rebuilt["legendre nodes"]), np.array(rebuilt["legendre weights"])
        for eps in (0, 1):
            assert np.array_equal(shipped["legendre root weights"][eps], np.sqrt(2.0 * w * v ** (2.0 * eps)))

    def test_quadrature_rules_match_numpy(self):
        from numpy.polynomial.laguerre import laggauss
        from numpy.polynomial.legendre import leggauss

        # the Gauss-Legendre weights as the reader holds them: sqrt(2 w) at eps = 0
        tables = rmtdist._law_tables()
        u, w = tables["laguerre nodes"], tables["laguerre weights"]
        nodes, weights = laggauss(u.size)
        assert np.max(np.abs(u - nodes) / nodes) <= 1e-13
        assert np.max(np.abs(w - weights) / weights) <= 1e-11
        v, root_w = tables["legendre nodes"], tables["legendre root weights"][0]
        nodes, weights = leggauss(v.size)
        order = np.argsort(v)
        assert np.max(np.abs(2.0 * v[order] - 1.0 - nodes)) <= 1e-15
        assert np.max(np.abs(root_w[order] ** 2 - weights) / weights) <= 1e-10

    def test_order_past_the_envelope_raises(self):
        for law in (largest_sv_cdf, largest_sv_upper, largest_sv_tail_asymptotic):
            assert 0.0 <= law(173, 26.0) <= 1.0
            with pytest.raises(DomainError, match="p=174"):
                law(174, 26.0)

    def test_upper_domain_errors(self):
        assert largest_sv_upper(7, 0.0) == 1.0
        for x in (-0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                largest_sv_upper(7, x)


#: Run in a fresh interpreter: whether ``import skewtail`` opens the kernel's
#: table and how often the whole run does, the kernels (node counts) each first
#: sigma_1 query builds, below x_8(p) and past it, and rmtdist's Newton helpers.
COLD_START = """
import json, sys
opened = []
sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == "open" else None)
import skewtail
from skewtail import rmtdist
at_import = [path for path in opened if path.endswith("law_tables.txt")]
kernels, cold = [], {}
def counted(law, lam, scale, kernel=rmtdist._kernel):
    kernels.append(lam.size)
    return kernel(law, lam, scale)
rmtdist._kernel = counted
for p in (2, 5, 39, 173):
    for x in (p ** 0.5, 2.0 * p ** 0.5 + 2.0):
        kernels.clear()
        skewtail.largest_sv_cdf(p, x)
        cold[f"{p} {x}"] = [x >= rmtdist._law_tables()["switch points"][p - 2], kernels[:]]
read = [path for path in opened if path.endswith("law_tables.txt")]
newton = [name for name in vars(rmtdist) if "newton" in name.lower()]
print(json.dumps({"at_import": at_import, "read": read, "cold": cold, "newton": newton}))
"""


class TestColdStart:
    def test_fresh_process_reads_the_tables_and_builds_one_kernel_per_query(self):
        paths = [str(Path(rmtdist.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        found = json.loads(proc.stdout)
        assert found["at_import"] == [] and found["newton"] == []
        assert found["read"] == [rmtdist._LAW_TABLES]
        assert len(found["cold"]) == 8
        for point, (upper, kernels) in found["cold"].items():
            nodes = LAGUERRE_NODES if upper else LEGENDRE_NODES
            assert kernels == [nodes], point
        assert sorted(upper for upper, _ in found["cold"].values()) == [False] * 4 + [True] * 4


#: Run in a fresh interpreter: the CLI's standardized paths (``table1``,
#: ``dist --kind standardized`` and ``analyze`` on the bundled sheet), then
#: how often the tube weight table was opened, whether any exact rational was
#: built, and whether ``fractions`` was ever imported.
COLD_TUBE = """
import contextlib, io, json, sys
opened = []
sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == "open" else None)
from skewtail import cli, rmtdist
from skewtail.io import central_league_1997_path
builds = []
exact = rmtdist._exact_hankel
rmtdist._exact_hankel = lambda p: builds.append(p) or exact(p)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["table1"]), cli.main(["dist", "--kind", "standardized", "--p", "173", "--x", "0.9"]),
             cli.main(["analyze", str(central_league_1997_path()), "--n-games", "27"])]
read = [path for path in opened if path.endswith("tube_weights.txt")]
print(json.dumps({"codes": codes, "read": read, "builds": builds, "fractions": "fractions" in sys.modules}))
"""


class TestTubeWeights:
    """The standardized law's weights, read from the shipped table."""

    @pytest.mark.parametrize("p", [*range(4, 21), 24, 32, 40, 48, 59, 60])
    def test_match_the_gauss_jordan_oracle_rounded(self, p):
        assert rmtdist._tube_weights(p) == tuple(float(w) for w in hankel_inverse_exact(p)[2])

    @pytest.mark.parametrize("p", [100, 173])
    def test_match_the_closed_form_rounded(self, p):
        exact = rmtdist._exact_hankel(p)[2]
        assert sum(exact) == p // 2
        assert rmtdist._tube_weights(p) == tuple(float(w) for w in exact)

    @pytest.mark.parametrize("p", [*range(4, 41), *range(41, 173, 12), 173])
    def test_law_keeps_the_gram_weights_bits(self, p):
        # the law before the table: the same ladder, weighted by hankel_gram
        law, weights = spectrum_law(p), hankel_gram(p).weights
        a = p - 1.5 - (2 * law.t - 2)
        b = 0.5 * law.n - a
        for x in np.linspace(CRITICAL_POINT, 1.0, 17):
            y = min(x * x, 1.0)
            tails = _beta_upper_rungs(beta_upper(a, b, y), a, b, y, 2 * law.t - 1)
            expected = probability(float(sum(w * u for w, u in zip(weights, tails[::-1]))))
            assert standardized_sv_upper(p, x).hex() == expected.hex(), x

    def test_weights_are_python_floats(self):
        weights = rmtdist._tube_weights(10)
        assert type(weights) is tuple and {type(w) for w in weights} == {float}

    @pytest.mark.parametrize("damage", ["short", "missing", "relabelled"])
    def test_malformed_row_raises(self, damage, tmp_path, monkeypatch):
        intact = standardized_sv_upper(9, 0.8)
        with open(rmtdist._TUBE_WEIGHTS, encoding="ascii") as fh:
            lines = fh.readlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("10 "))
        if damage == "short":
            lines[row] = lines[row].rsplit(" ", 1)[0] + "\n"
        elif damage == "missing":
            lines = lines[:row]
        else:
            lines[row] = "11" + lines[row][2:]
        path = tmp_path / "tube_weights.txt"
        path.write_text("".join(lines), encoding="ascii")
        fresh_tube_cache(monkeypatch, str(path))
        assert standardized_sv_upper(9, 0.8) == intact  # the rows before it still serve
        with pytest.raises(DataError, match="p=10"):
            standardized_sv_upper(10, 0.8)

    def test_order_below_the_tube_range_raises_the_laws_own_error(self):
        for p in (2, 3):
            with pytest.raises(DomainError, match="standardized law requires p >= 4"):
                standardized_sv_upper(p, 0.9)

    def test_fresh_process_reads_the_table_once_and_builds_no_rational(self):
        paths = [str(Path(rmtdist.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", COLD_TUBE], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        found = json.loads(proc.stdout)
        assert found["codes"] == [0, 0, 0]
        assert found["read"] == [rmtdist._TUBE_WEIGHTS]
        assert found["builds"] == [] and found["fractions"] is False


class TestHankelGram:
    def test_p4_inverse_closed_form(self):
        expected = np.array([[2.0, -1.0], [-1.0, 1.5]]) / SQRT_PI
        assert np.allclose(hankel_gram(4).ginv, expected, rtol=1e-13)

    def test_p4_weights(self):
        assert np.allclose(hankel_gram(4).weights, [1.5, -1.0, 1.5], rtol=1e-13)

    @pytest.mark.parametrize("p", range(4, 19))
    def test_trace_identity(self, p):
        gram = hankel_gram(p)
        assert float(np.sum(gram.ginv * gram.g)) == pytest.approx(p // 2, abs=1e-8)
        assert float(gram.weights.sum()) == pytest.approx(p // 2, abs=1e-8)

    @pytest.mark.parametrize("p", range(4, 19))
    def test_weights_are_antidiagonal_sums(self, p):
        gram = hankel_gram(p)
        t = gram.t
        prods = gram.ginv * gram.g
        for k in range(2 * t - 1):
            direct = sum(
                prods[i - 1, j - 1]
                for i in range(1, t + 1)
                for j in range(1, t + 1)
                if i + j == k + 2
            )
            assert gram.weights[k] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", range(4, 17))
    def test_product_is_identity(self, p):
        gram = hankel_gram(p)
        assert np.allclose(gram.g @ gram.ginv, np.eye(gram.t), atol=1e-10 * np.abs(gram.g).max())

    @pytest.mark.parametrize("p", range(4, 17))
    def test_matches_numeric_inversion(self, p):
        gram = hankel_gram(p)
        numeric = np.linalg.inv(gram.g)
        assert np.max(np.abs(gram.ginv - numeric) / np.abs(numeric)) < 1e-10

    @pytest.mark.parametrize("p", [*range(4, 21), 24, 32, 40, 48, 59, 60])
    def test_matches_exact_oracle_rounded(self, p):
        mpmath = pytest.importorskip("mpmath")
        g, ginv, weights = hankel_inverse_exact(p)
        gram = hankel_gram(p)
        with mpmath.workdps(40):
            root_pi = mpmath.sqrt(mpmath.pi)

            def rounded(q, scale):
                return float(scale * mpmath.mpf(q.numerator) / q.denominator)

            pieces = (
                (gram.g, [[rounded(q, root_pi) for q in row] for row in g]),
                (gram.ginv, [[rounded(q, 1 / root_pi) for q in row] for row in ginv]),
                (gram.weights, [float(q) for q in weights]),
            )
        for got, exact in pieces:
            exact = np.array(exact)
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-15
        assert sum(weights) == gram.t

    def test_arrays_frozen(self):
        gram = hankel_gram(6)
        with pytest.raises(ValueError):
            gram.ginv[0, 0] = 0.0

    def test_domain_error_below_p4(self):
        with pytest.raises(DomainError):
            hankel_gram(3)


class TestHankelInverseOracle:
    def test_scalar_case(self):
        out = hankel_inverse_oracle(0.7, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0 / math.gamma(1.7), rel=1e-13)

    def test_matches_p4_closed_form(self):
        expected = np.array([[2.0, -1.0], [-1.0, 1.5]]) / SQRT_PI
        assert np.allclose(hankel_inverse_oracle(-0.5, 2), expected, rtol=1e-12)

    @pytest.mark.parametrize("p", range(4, 17))
    def test_matches_closed_form_all_orders(self, p):
        gram = hankel_gram(p)
        oracle = hankel_inverse_oracle(gram.eps - 0.5, gram.t)
        assert np.max(np.abs(oracle - gram.ginv) / np.abs(gram.ginv)) < 1e-10

    @pytest.mark.parametrize("delta,t", [(-0.5, 4), (0.5, 5), (1.25, 3), (0.0, 6)])
    def test_factorization_structure(self, delta, t):
        G, B, T, Tinv, D_diag, E_diag = _band_factorization(delta, t)
        # B is unit upper triangular
        assert np.allclose(np.tril(B, -1), 0.0)
        assert np.allclose(np.diag(B), 1.0)
        # T^{-1} has entries (-1)^{i+j} t_ij
        assert np.allclose(T @ Tinv, np.eye(t), atol=1e-9)
        # the factorization identity B_{t-1}...B_1 G = E T D itself
        rhs = E_diag[:, None] * T * D_diag[None, :]
        assert np.allclose(B @ G, rhs, rtol=1e-10)

    def test_inverts_G(self):
        for delta, t in ((-0.5, 3), (0.5, 4)):
            G, *_ = _band_factorization(delta, t)
            assert np.allclose(hankel_inverse_oracle(delta, t) @ G, np.eye(t), atol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hankel_inverse_oracle(-1.0, 3)
        with pytest.raises(DomainError):
            hankel_inverse_oracle(0.5, 0)


class TestTailAsymptotic:
    @pytest.mark.parametrize("p", [4, 6, 9])
    def test_leading_term_dominates(self, p):
        # value / (w_0 * leading chi-square tail) -> 1 as x grows, with an
        # O(1/x^2) correction; doubling x^2 should halve the distance to 1
        gram = hankel_gram(p)

        def ratio_minus_one(y):
            lead = gram.weights[0] * chi2_upper(2 * p - 3, y)
            return largest_sv_tail_asymptotic(p, math.sqrt(y)) / lead - 1.0

        near, far = ratio_minus_one(500.0), ratio_minus_one(1000.0)
        assert abs(far) < abs(near)
        assert abs(far) < 0.1
        assert near / far == pytest.approx(2.0, abs=0.5)

    def test_p5_ratio_in_deep_tail(self):
        for x in np.linspace(3.4, 6.0, 12):
            exact = 1.0 - largest_sv_cdf(5, x)
            if exact > 1e-3 or exact < 1e-12:
                continue
            assert largest_sv_tail_asymptotic(5, x) / exact == pytest.approx(1.0, abs=0.01)

    def test_p4_x6_agreement(self):
        exact = 1.0 - largest_sv_cdf(4, 6.0)
        assert largest_sv_tail_asymptotic(4, 6.0) == pytest.approx(exact, rel=1e-2)

    @pytest.mark.parametrize("p", range(4, 17))
    def test_two_percent_agreement_where_exact_tail_small(self, p):
        # scan x until the exact tail falls through [1e-3, 1e-8]
        for x in np.linspace(2.2 * math.sqrt(p), 4.3 * math.sqrt(p), 24):
            exact = 1.0 - largest_sv_cdf(p, x)
            if 1e-8 <= exact <= 1e-3:
                assert largest_sv_tail_asymptotic(p, x) == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize("ref", TRACE_REFS, ids=[ref_id(r) for r in TRACE_REFS])
    def test_matches_exact_weight_sum(self, ref):
        # the kernel's trace against the paper's sum with exact tube weights
        value = float(ref["value"])
        assert abs(largest_sv_tail_asymptotic(ref["p"], ref["x"]) - value) <= 1e-12 * value

    @pytest.mark.parametrize("p", range(4, 61))
    def test_ladder_matches_per_rung_sum(self, p):
        # the paper's sum of 2t - 1 weighted chi-square tails, one scalar
        # tail per rung: its weights alternate in sign, so it may cancel and
        # the bound is relative to sum |w_k q_k|, not to the sum itself.
        # The kernel's trace never cancels, so it stays in [0, t], the
        # range of E #{i : sigma_i > x}, at every x
        gram = hankel_gram(p)
        for x in np.linspace(0.25, 3.0 * math.sqrt(p) + 4.0, 12):
            terms = [w * chi2_upper(2 * p - 3 - 2 * k, x * x) for k, w in enumerate(gram.weights)]
            scale = sum(abs(v) for v in terms)
            value = largest_sv_tail_asymptotic(p, x)
            assert abs(value - sum(terms)) <= 1e-13 * scale
            assert 0.0 <= value <= gram.t

    def test_matches_elementwise_double_sum(self):
        p, x = 7, 3.0
        gram = hankel_gram(p)
        direct = sum(
            gram.ginv[i - 1, j - 1] * gram.g[i - 1, j - 1]
            * chi2_upper(2 * p - 2 * i - 2 * j + 1, x * x)
            for i in range(1, gram.t + 1)
            for j in range(1, gram.t + 1)
        )
        assert largest_sv_tail_asymptotic(p, x) == pytest.approx(direct, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            largest_sv_tail_asymptotic(3, 2.0)
        with pytest.raises(DomainError):
            largest_sv_tail_asymptotic(5, 0.0)


class TestStandardizedUpper:
    def test_p4_saturates_at_critical_point(self):
        assert standardized_sv_upper(4, CRITICAL_POINT) == pytest.approx(1.0, abs=5e-5)

    def test_p10_critical_point(self):
        assert standardized_sv_upper(10, CRITICAL_POINT) == pytest.approx(0.7354, abs=5e-5)

    def test_baseball_standardized(self):
        # full-precision statistic from the league residual spectrum
        # (3.93185, 0.55294); the printed 0.990 is its 3-decimal rounding,
        # and the quoted p-value belongs to the unrounded value
        stat = 3.9318544190 / math.sqrt(3.9318544190**2 + 0.5529369777**2)
        assert standardized_sv_upper(5, stat) == pytest.approx(0.0348, abs=5e-5)

    def test_unit_threshold_is_zero(self):
        for p in (4, 7, 12):
            assert standardized_sv_upper(p, 1.0) == 0.0

    @pytest.mark.parametrize(
        "p", [*range(4, 19), 19, 24, 27, 32, 40, 45, 48, 59, 60, 64, 67, 70, 73, 76, 79, 80, 100,
              140, 173]
    )
    def test_nonincreasing_on_validity_range(self, p):
        # checked where both values are >= 1e-280: below that only the 1e-290
        # absolute envelope holds, and at p = 59 and 64 .. 76 the value rises
        # once (to at most 2.3e-300); no slack from p = 19 on, 1e-12 at p <= 18
        xs = np.linspace(CRITICAL_POINT, 1.0, 400)
        slack = 1e-12 if p <= 18 else 0.0
        vals = [standardized_sv_upper(p, x) for x in xs]
        assert all(u >= v - slack for u, v in zip(vals, vals[1:]) if min(u, v) >= 1e-280)

    def test_matches_elementwise_double_sum(self):
        p, x = 9, 0.8
        gram = hankel_gram(p)
        n = p * (p - 1) // 2
        direct = sum(
            gram.ginv[i - 1, j - 1] * gram.g[i - 1, j - 1]
            * beta_upper(
                (2 * p - 2 * i - 2 * j + 1) / 2.0,
                (n - 2 * p + 2 * i + 2 * j - 1) / 2.0,
                x * x,
            )
            for i in range(1, gram.t + 1)
            for j in range(1, gram.t + 1)
        )
        assert standardized_sv_upper(p, x) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize(
        "ref", STANDARDIZED_REFS, ids=[f"p{r['p']}-x{r['x']:.3f}" for r in STANDARDIZED_REFS]
    )
    def test_accuracy_envelope(self, ref):
        # the docstring's envelope: 1e-10 relative above 1e-280, 1e-290 absolute below
        exact = float(ref["value"])
        got = standardized_sv_upper(ref["p"], ref["x"])
        if exact > 1e-280:
            assert abs(got - exact) <= 1e-10 * exact
        else:
            assert abs(got - exact) <= 1e-290

    @pytest.mark.parametrize("p, x", [(4, 0.75), (5, 0.9), (9, 0.8), (24, CRITICAL_POINT), (59, 0.95)])
    def test_one_beta_tail_per_call(self, p, x, monkeypatch):
        # the 2t - 1 beta tails climb from the smallest, a = p - 3/2 - (2t - 2),
        # the only one evaluated as a scalar (one continued fraction)
        from skewtail import rmtdist, specfun

        calls, betas = [], []

        def counted(a, b, y):
            calls.append((a, b))
            return beta_upper(a, b, y)

        def counted_beta(a, b, y, regularized_beta=specfun.regularized_beta):
            betas.append((a, b))
            return regularized_beta(a, b, y)

        monkeypatch.setattr(rmtdist, "beta_upper", counted)
        monkeypatch.setattr(specfun, "regularized_beta", counted_beta)
        standardized_sv_upper(p, x)
        a = p - 1.5 - (2 * (p // 2) - 2)
        b = p * (p - 1) / 4 - a
        assert calls == [(a, b)]
        assert betas == [(b, a)]

    def test_validity_error_distinct_from_domain_error(self):
        with pytest.raises(ValidityError):
            standardized_sv_upper(6, 0.5)
        with pytest.raises(DomainError):
            standardized_sv_upper(3, 0.9)
        with pytest.raises(DomainError):
            standardized_sv_upper(6, 1.2)

    def test_accepts_eight_digit_critical_point(self):
        assert standardized_sv_upper(10, 0.70710678) == pytest.approx(0.7354, abs=5e-5)


class TestCriticalRadius:
    def test_zero_matrix_attains_supremum(self):
        assert critical_radius_objective(np.zeros((2, 2))) == pytest.approx(1.0, abs=1e-15)

    def test_reflection_diag(self):
        assert critical_radius_objective(np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.2, math.pi / 2, 2.8])
    def test_rotations_are_excluded(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        with pytest.raises(ExcludedPointError):
            critical_radius_objective(np.array([[c, -s], [s, c]]))

    def test_search_bounds_supremum(self):
        best, argmax = critical_radius_search(100_000, seed=7)
        assert best <= 1.0 + 1e-9
        assert best >= 0.99  # looser than the full-scale acceptance run
        assert critical_radius_objective(argmax) == pytest.approx(best, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            critical_radius_objective(np.zeros((3, 3)))


class TestEulerCharacteristic:
    @pytest.mark.parametrize("p,expected", [(p, 2 * (p // 2)) for p in range(4, 61)])
    def test_values(self, p, expected):
        assert euler_characteristic(p) == expected

    def test_domain_error(self):
        with pytest.raises(DomainError):
            euler_characteristic(3)


def fresh_tube_cache(monkeypatch, path=None):
    """Route rmtdist's tube weight reads through empty caches, from ``path``
    if given."""
    if path is not None:
        monkeypatch.setattr(rmtdist, "_TUBE_WEIGHTS", path)
    for name in ("_tube_rows", "_tube_weights"):
        uncached = getattr(rmtdist, name).__wrapped__
        monkeypatch.setattr(rmtdist, name, functools.lru_cache(maxsize=None)(uncached))


def fresh_gram_cache(monkeypatch, exact_hankel):
    """Route rmtdist's gram builds through ``exact_hankel`` and an empty cache."""
    monkeypatch.setattr(rmtdist, "_exact_hankel", exact_hankel)
    uncached = rmtdist._hankel_gram_cached.__wrapped__
    monkeypatch.setattr(rmtdist, "_hankel_gram_cached", functools.lru_cache(maxsize=None)(uncached))


class TestExactHankelBuilds:
    def test_built_once_per_order(self, monkeypatch):
        builds, exact = [], rmtdist._exact_hankel
        fresh_gram_cache(monkeypatch, lambda p: builds.append(p) or exact(p))
        assert euler_characteristic(41) == 40
        hankel_gram(41)
        standardized_sv_upper(41, 0.8)
        assert builds == [41]

    def test_law_builds_none(self, monkeypatch):
        builds, exact = [], rmtdist._exact_hankel
        fresh_gram_cache(monkeypatch, lambda p: builds.append(p) or exact(p))
        fresh_tube_cache(monkeypatch)
        for p in (4, 9, 24, 59, 100, 173):
            standardized_sv_upper(p, 0.8)
        assert builds == []

    def test_euler_identity_checked_on_the_exact_weights(self, monkeypatch):
        exact = rmtdist._exact_hankel

        def off_by_a_hair(p):
            g, ginv, weights = exact(p)
            return g, ginv, [*weights[:-1], weights[-1] + Fraction(1, 10**40)]

        fresh_gram_cache(monkeypatch, off_by_a_hair)
        with pytest.raises(ArithmeticError, match="Euler characteristic check failed for p=8"):
            euler_characteristic(8)
