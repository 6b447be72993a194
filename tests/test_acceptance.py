"""Acceptance suite: the end-to-end exit criteria, one test (or
parametrized family) per criterion, each printing a PASS line with the
measured quantities.  Run with ``pytest tests/test_acceptance.py -v -s``
to watch the lines live.

Two sub-cases are expected failures, marked strict-xfail rather than
weakened: the reference table of critical-point probabilities truncates
its p=8 entry (true value 0.9614834, tabulated 0.9614) and understates
p=18 (true value 1.2526e-4, tabulated as "<0.0001").  Both true values
are pinned by companion tests; the verification is threefold (60-digit
arithmetic, independent 4-D quadrature of the joint density for p=8,
and a 4e6-sample Monte-Carlo for p=18 that observed 489 exceedances
where the formula predicts 501 +- 22 and "<1e-4" would allow at most
400).
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

import skewtail.rmtdist as rmtdist
from skewtail.io import central_league_1997_path, deadlock_area_ratio, read_score_sheet_csv
from skewtail.mc import (
    binomial_standard_error,
    empirical_upper,
    ks_distance,
    sample_spectra,
)
from skewtail.paired import (
    build_report,
    scheffe_fit,
    variance_stabilize,
)
from skewtail.rmtdist import (
    CRITICAL_POINT,
    euler_characteristic,
    joint_density,
    largest_sv_cdf,
    largest_sv_tail_asymptotic,
    largest_sv_upper,
    standardized_sv_upper,
)

from oracles import critical_radius_search, hankel_gram, hankel_inverse_oracle, simulate_null_largest_sv

TABLE1 = {
    4: 1.0000, 5: 1.0000, 6: 0.9989, 7: 0.9913, 8: 0.9614, 9: 0.8827,
    10: 0.7354, 11: 0.5328, 12: 0.3236, 13: 0.1603, 14: 0.0634,
    15: 0.0197, 16: 0.0048, 17: 0.0009,
}

MC_SAMPLES = 200_000
MC_SEED = 20260810


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}", flush=True)


@pytest.fixture(scope="module")
def spectra_by_order():
    """Seeded 2e5-sample spectra for every order criterion 5 touches,
    plus the wall time spent producing them."""
    out = {}
    start = time.perf_counter()
    for p in (4, 5, 6, 8, 9, 10):
        out[p] = sample_spectra(p, MC_SAMPLES, seed=MC_SEED + p)
    return out, time.perf_counter() - start


class TestCriterion1TableReproduction:
    @pytest.mark.parametrize(
        "p,expected",
        [
            pytest.param(p, v, id=f"p{p}", marks=()
                         if p != 8 else pytest.mark.xfail(
                             strict=True,
                             reason="reference table truncates 0.9614834 to 0.9614; "
                             "a round-to-4dp match is impossible (see companion test)",
                         ))
            for p, v in TABLE1.items()
        ],
    )
    def test_critical_point_values(self, p, expected):
        assert standardized_sv_upper(p, CRITICAL_POINT) == pytest.approx(expected, abs=5e-5)

    @pytest.mark.xfail(
        strict=True,
        reason="true p=18 value is 1.2525559e-4 (60-digit arithmetic; 4e6-sample "
        "Monte-Carlo agrees within 0.5 sd and excludes <1e-4 at >4 sd)",
    )
    def test_p18_below_table_resolution(self):
        assert standardized_sv_upper(18, CRITICAL_POINT) < 1e-4

    def test_p8_true_value(self):
        # independently verified: mpmath (60 digits) and direct 4-D adaptive
        # quadrature of the joint density give 0.9614834024
        assert standardized_sv_upper(8, CRITICAL_POINT) == pytest.approx(
            0.9614834024, abs=5e-9
        )

    def test_p18_true_value(self):
        assert standardized_sv_upper(18, CRITICAL_POINT) == pytest.approx(
            1.2525559e-4, abs=5e-9
        )

    def test_runtime_under_one_second(self):
        rmtdist._law_tables.cache_clear()
        rmtdist._log_constants.cache_clear()
        start = time.perf_counter()
        values = {p: standardized_sv_upper(p, CRITICAL_POINT) for p in range(4, 19)}
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        matched = sum(
            1 for p, v in TABLE1.items() if abs(values[p] - v) <= 5e-5
        )
        report(
            f"1: PASS (13/14 table entries match at +-5e-5 in {elapsed * 1e3:.0f} ms; "
            "p=8 and p=18 are documented table errata pinned by companion tests)"
        )
        assert matched == 13


class TestCriterion2BaseballReproduction:
    def test_league_report(self):
        start = time.perf_counter()
        sheet = read_score_sheet_csv(central_league_1997_path(), 27)
        rep = build_report(variance_stabilize(sheet), sigma2=1.0, names=sheet.names)
        area = deadlock_area_ratio(rep)
        elapsed = time.perf_counter() - start

        assert rep.chi2_stat == pytest.approx(15.765, abs=0.001)
        assert rep.chi2_df == 10
        assert rep.chi2_p == pytest.approx(0.1066, abs=0.0001)
        assert rep.sv_stat == pytest.approx(3.932, abs=0.001)
        assert rep.sv_p == pytest.approx(0.0543, abs=0.0001)
        assert rep.spectrum[1] == pytest.approx(0.553, abs=0.001)
        assert rep.std_stat == pytest.approx(0.990, abs=0.001)
        assert rep.std_p == pytest.approx(0.0348, abs=0.0001)
        assert rep.deadlock_triple == (6, 5, 2)
        assert rep.deadlock_value == pytest.approx(2.832, abs=0.001)
        assert area == pytest.approx(2.839, abs=0.001)
        assert elapsed < 1.0
        report(
            f"2: PASS (chi2 {rep.chi2_stat:.3f}/{rep.chi2_df}/{rep.chi2_p:.4f}, "
            f"sv {rep.sv_stat:.3f}/{rep.sv_p:.4f}, std {rep.std_stat:.3f}/{rep.std_p:.4f}, "
            f"deadlock {rep.deadlock_triple}={rep.deadlock_value:.3f}, "
            f"area {area:.3f}, {elapsed * 1e3:.0f} ms)"
        )


class TestCriterion3HankelInverse:
    def test_three_routes_and_determinant(self):
        worst_oracle = worst_numeric = worst_det = 0.0
        for p in range(4, 17):
            gram = hankel_gram(p)
            oracle = hankel_inverse_oracle(gram.eps - 0.5, gram.t)
            numeric = np.linalg.inv(gram.g)
            worst_oracle = max(
                worst_oracle, float(np.max(np.abs(oracle - gram.ginv) / np.abs(gram.ginv)))
            )
            worst_numeric = max(
                worst_numeric, float(np.max(np.abs(numeric - gram.ginv) / np.abs(gram.ginv)))
            )
            delta = gram.eps - 0.5
            log_product = sum(
                math.lgamma(delta + gram.t - i + 1.0) + math.lgamma(gram.t - i + 1.0)
                for i in range(1, gram.t + 1)
            )
            sign, log_lu = np.linalg.slogdet(gram.g)
            assert sign > 0
            worst_det = max(worst_det, abs(math.expm1(log_lu - log_product)))
        assert worst_oracle < 1e-10
        assert worst_numeric < 1e-10
        assert worst_det < 1e-10
        report(
            f"3: PASS (closed form vs factorization oracle {worst_oracle:.2e}, vs LU inverse "
            f"{worst_numeric:.2e}, det vs product {worst_det:.2e}; p=4..16)"
        )


class TestCriterion4ReductionIdentities:
    def test_half_normal_and_chi3(self):
        from scipy.special import gammainc

        worst = 0.0
        for x in (0.1, 0.5, 1.0, 2.0, 3.0):
            worst = max(worst, abs(largest_sv_cdf(2, x) - math.erf(x / math.sqrt(2.0))))
            worst = max(worst, abs(largest_sv_cdf(3, x) - float(gammainc(1.5, x * x / 2))))
        assert worst < 1e-10
        report(f"4: PASS (p=2 half-normal and p=3 chi_3 reductions, worst |diff| {worst:.2e})")

    def test_p4_sigma1_is_a_scaled_sum_of_two_chi3(self):
        # so(4) = so(3) + so(3): sigma_1 = (r1 + r2) / sqrt(2), r1, r2 i.i.d. chi_3
        import mpmath as mp

        def chi3_upper(u):
            return mp.erfc(u / mp.sqrt(2)) + mp.sqrt(2 / mp.pi) * u * mp.exp(-u * u / 2)

        def chi3_density(r):
            return mp.sqrt(2 / mp.pi) * r * r * mp.exp(-r * r / 2)

        def tail(x):  # P(r1 + r2 > s) = Q(s) + int_0^s f(r) Q(s - r) dr, s = sqrt(2) x
            with mp.workdps(40):
                s = mp.sqrt(2) * x
                return float(chi3_upper(s) + mp.quad(
                    lambda r: chi3_density(r) * chi3_upper(s - r), [0, s / 2, s]))

        worst = max(abs(largest_sv_upper(4, x) / tail(x) - 1.0) for x in (2.0, 4.0, 6.0, 7.5))
        assert worst < 1e-12
        report(f"4: PASS (p=4 sigma_1 tail vs (chi_3 + chi_3)/sqrt(2) at tails 0.63 .. 1e-10, "
               f"worst rel {worst:.2e})")

    def test_p4_standardized_closed_form(self):
        # P(sigma_1 / sqrt(sum sigma^2) > x) = (pi - 2a + sin 2a) / pi, a = arcsin(2x^2 - 1)
        worst = 0.0
        for x in np.linspace(0.72, 0.999, 32):
            a = math.asin(2.0 * x * x - 1.0)
            exact = (math.pi - 2.0 * a + math.sin(2.0 * a)) / math.pi
            worst = max(worst, abs(standardized_sv_upper(4, x) / exact - 1.0))
        assert worst < 1e-10
        report(f"4: PASS (p=4 standardized closed form on [0.72, 0.999], worst rel {worst:.2e})")


class TestCriterion5MonteCarloAgreement:
    def test_ks_standardized_and_top_share(self, spectra_by_order):
        spectra, sample_time = spectra_by_order
        start = time.perf_counter()

        ks_stats = {}
        for p in (4, 6, 9):
            ks_stats[p] = ks_distance(
                spectra[p][:, 0], lambda x, p=p: largest_sv_cdf(p, x)
            )
            assert ks_stats[p] < 0.005, f"KS for p={p}: {ks_stats[p]}"

        worst_pull = 0.0
        for p in (6, 8, 10):
            ratios = spectra[p][:, 0] / np.sqrt(np.sum(spectra[p] ** 2, axis=1))
            for x in (0.75, 0.8, 0.9):
                exact = standardized_sv_upper(p, x)
                emp = empirical_upper(ratios, x)
                se = binomial_standard_error(exact, MC_SAMPLES)
                pull = abs(emp - exact) / se if se > 0 else 0.0
                worst_pull = max(worst_pull, pull)
                assert abs(emp - exact) <= 3.0 * se, (p, x, emp, exact)

        for p in (4, 5):
            share = spectra[p][:, 0] ** 2 / np.sum(spectra[p] ** 2, axis=1)
            assert float(np.min(share)) > 0.5, f"p={p} top-plane share fell to {share.min()}"

        elapsed = sample_time + (time.perf_counter() - start)
        assert elapsed < 60.0
        report(
            "5: PASS (KS "
            + ", ".join(f"p={p}:{v:.4f}" for p, v in ks_stats.items())
            + f" < 0.005; standardized tails worst pull {worst_pull:.2f} se; "
            f"all p=4,5 shares > 1/2; {elapsed:.1f} s)"
        )


class TestCriterion6NullSimulation:
    def test_residual_law_matches_reduced_order(self):
        sigma1 = simulate_null_largest_sv(6, 100_000, seed=MC_SEED)
        ks = ks_distance(sigma1, lambda x: largest_sv_cdf(5, x))
        assert ks < 0.01
        report(f"6: PASS (m=6 null residual sigma1 vs order-5 law, KS {ks:.4f} < 0.01)")


class TestCriterion7CriticalRadius:
    def test_randomized_supremum(self):
        start = time.perf_counter()
        best, _ = critical_radius_search(1_000_000, seed=MC_SEED)
        elapsed = time.perf_counter() - start
        assert best <= 1.0 + 1e-9
        assert best >= 0.999
        assert elapsed < 10.0
        report(
            f"7: PASS (sup over 1e6 draws = {best:.9f} in [0.999, 1+1e-9], "
            f"{elapsed:.1f} s; critical angle pi/4 confirmed)"
        )


class TestCriterion8StructuralIdentities:
    def test_trace_and_euler(self):
        for p in range(4, 19):
            gram = hankel_gram(p)
            assert float(np.sum(gram.ginv * gram.g)) == pytest.approx(p // 2, abs=1e-8)
            assert euler_characteristic(p) == 2 * (p // 2)

    @pytest.mark.parametrize("p", [4, 5])
    def test_joint_density_normalization(self, p):
        val, err = integrate.dblquad(
            lambda s2, s1: joint_density([s1, s2], p),
            0.0, 12.0,
            0.0, lambda s1: s1,
            epsabs=1e-9, epsrel=1e-9,
        )
        assert err < 1e-7
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_deep_tail_expansion(self):
        worst = 0.0
        checked = 0
        for p in range(4, 17):
            for x in np.linspace(2.0 * math.sqrt(p), 4.5 * math.sqrt(p), 40):
                exact = 1.0 - largest_sv_cdf(p, x)
                if 1e-8 <= exact <= 1e-3:
                    checked += 1
                    rel = abs(largest_sv_tail_asymptotic(p, x) / exact - 1.0)
                    worst = max(worst, rel)
        assert checked > 50
        assert worst < 0.02
        report(
            f"8: PASS (trace/Euler p=4..18; joint density integrates to 1+-1e-6 "
            f"for p=4,5; deep-tail expansion worst rel err {worst:.4f} < 0.02 "
            f"over {checked} points)"
        )


class TestCriterion9PropertySpotChecks:
    def test_named_invariants(self):
        sheet = read_score_sheet_csv(central_league_1997_path(), 27)
        obs = variance_stabilize(sheet)
        assert float(np.max(np.abs(obs.y + obs.y.T))) == 0.0

        fit = scheffe_fit(obs)
        recon = (fit.alpha_hat[:, None] - fit.alpha_hat[None, :]) + fit.gamma_hat
        assert float(np.max(np.abs(recon - obs.y))) < 1e-12

        from skewtail.paired import (
            SkewObservations,
            chi_square_test,
            lrt_standardized_test,
            residual_embedding,
        )

        b = np.arange(6, dtype=float)
        shifted = scheffe_fit(SkewObservations(y=obs.y + (b[:, None] - b[None, :])))
        assert np.allclose(shifted.gamma_hat, fit.gamma_hat, atol=1e-10)
        scaled = scheffe_fit(SkewObservations(y=3.0 * obs.y))
        assert lrt_standardized_test(scaled)[0] == pytest.approx(
            lrt_standardized_test(fit)[0], abs=1e-12
        )
        assert chi_square_test(scaled)[0] == pytest.approx(
            9.0 * chi_square_test(fit)[0], rel=1e-12
        )

        pts = residual_embedding(fit)
        sigma1 = float(np.sqrt(np.linalg.eigvalsh(fit.gamma_hat.T @ fit.gamma_hat)[-1]))
        for moment in (pts[:, 0].sum(), pts[:, 1].sum(), float(pts[:, 0] @ pts[:, 1])):
            assert abs(moment) < 1e-8
        assert float(np.sum(pts[:, 0] ** 2)) == pytest.approx(sigma1, abs=1e-8)
        report(
            "9: PASS (stabilized skew-symmetry exact, fit reconstruction < 1e-12, "
            "translation/scale invariances, embedding moments)"
        )
