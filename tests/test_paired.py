"""Scheffe pipeline tests: the variance-stabilizing transform, the
least-squares split, the three subtractivity tests on the league data,
deadlock search, and the rank-2 embedding."""

import math
import re
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtail import mc
from skewtail.errors import DataError, DomainError, SkewtailError
from skewtail.io import central_league_1997_path, deadlock_area_ratio, read_score_sheet_csv
from skewtail.paired import (
    ContrastPair,
    ScheffeFit,
    ScoreSheet,
    SkewObservations,
    build_report,
    chi_square_test,
    interaction_spectrum,
    largest_sv_test,
    lrt_standardized_test,
    max_deadlock,
    residual_embedding,
    scheffe_fit,
    signed_area,
    variance_stabilize,
)

from oracles import arcsine_score_variance, simulate_null_largest_sv

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def league_sheet() -> ScoreSheet:
    return read_score_sheet_csv(central_league_1997_path(), 27)


@pytest.fixture(scope="module")
def league_fit(league_sheet) -> ScheffeFit:
    return scheffe_fit(variance_stabilize(league_sheet))


def observations_from_vector(m: int, values) -> SkewObservations:
    y = np.zeros((m, m))
    y[np.triu_indices(m, 1)] = values
    return SkewObservations(y=y - y.T)


def subtractive_observations(scores) -> SkewObservations:
    a = np.asarray(scores, dtype=float)
    return SkewObservations(y=a[:, None] - a[None, :])


def variance_stabilize_loop(sheet: ScoreSheet) -> np.ndarray:
    """Reference for variance_stabilize: one math.asin per pair."""
    n = sheet.n_games
    y = np.zeros((sheet.m, sheet.m))
    scale = math.sqrt(n)
    for i in range(sheet.m):
        for j in range(i + 1, sheet.m):
            y[i, j] = scale * math.asin((2.0 * int(sheet.r[i, j]) - n) / n)
            y[j, i] = -y[i, j]
    return y


def random_sheet(m: int, n: int, rng) -> ScoreSheet:
    """Round robin with uniform win counts in 0..n, so sweeps and (for even
    n) even splits occur."""
    r = np.zeros((m, m), dtype=int)
    iu = np.triu_indices(m, 1)
    r[iu] = rng.integers(0, n + 1, size=iu[0].size)
    r[iu[1], iu[0]] = n - r[iu]
    return ScoreSheet(names=tuple(f"o{i}" for i in range(m)), n_games=n, r=r)


def max_deadlock_loop(fit: ScheffeFit) -> tuple[tuple[int, int, int], float]:
    """Reference for max_deadlock: one triple at a time, first wins ties.
    Python floats round every sum as float64 does, and run faster."""
    g = fit.gamma_hat.tolist()
    best_triple = None
    best_value = -math.inf
    for a, b, c in combinations(range(fit.m), 3):
        cycle = (g[a][b] + g[b][c] + g[c][a]) / SQRT3
        triple, value = ((a, b, c), cycle) if cycle >= 0.0 else ((c, b, a), -cycle)
        if value > best_value:
            best_value = value
            best_triple = triple
    i, j, k = best_triple
    return (i + 1, j + 1, k + 1), best_value


class TestScoreSheet:
    def test_league_sheet_loads(self, league_sheet):
        assert league_sheet.m == 6
        assert league_sheet.names[0] == "Yakult"
        assert league_sheet.r[0, 1] == 13 and league_sheet.r[1, 0] == 14

    def test_tie_violation_rejected(self):
        r = np.zeros((3, 3), dtype=int)
        r[0, 1], r[1, 0] = 3, 3  # sums to 6, not 5
        r[0, 2], r[2, 0] = 2, 3
        r[1, 2], r[2, 1] = 1, 4
        with pytest.raises(DataError):
            ScoreSheet(names=("a", "b", "c"), n_games=5, r=r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observations_rejected(self, bad):
        y = np.zeros((3, 3))
        y[1, 2], y[2, 1] = bad, -bad
        with pytest.raises(DataError, match=r"y\[2,3\]"):
            SkewObservations(y=y)

    def test_skew_check_is_relative_to_the_largest_entry(self):
        # the rule read_skew_matrix applies too: a symmetric y of tiny entries is rejected,
        # rounding-level asymmetry of a 1e+6-scaled y is accepted
        with pytest.raises(DataError, match="skew"):
            SkewObservations(y=np.full((3, 3), 1e-13))
        y = 1e6 * np.array([[0.0, 3.0, -1.0], [-3.0, 0.0, 2.0], [1.0, -2.0, 0.0]])
        y[0, 1] *= 1.0 + 8 * np.finfo(float).eps
        assert np.array_equal(SkewObservations(y=y).y, 0.5 * y - 0.5 * y.T)

    @pytest.mark.parametrize("m", [4, 5])
    def test_near_subtractive_asymmetry_gives_a_report(self, m):
        # relative asymmetry 5e-14 to 6.7e-14 is accepted; the residual's own
        # asymmetry, 2e-13 against entries near 1e-9, once failed its re-check
        a = np.arange(float(m))
        y = a[:, None] - a[None, :]
        y[0, 1] += 1e-9
        y[1, 0] -= 1e-9
        y[2, 3] += 1e-13
        y[3, 2] += 1e-13
        obs = SkewObservations(y=y)
        assert np.array_equal(obs.y, -obs.y.T)
        fit = scheffe_fit(obs)
        report = build_report(obs)
        assert largest_sv_test(fit) == (report.sv_stat, report.sv_p)
        assert report.sv_stat == pytest.approx(1e-9 * math.sqrt((m - 2) / m), rel=1e-6)
        assert np.array_equal(residual_embedding(fit), report.embedding)
        assert lrt_standardized_test(fit) == (report.std_stat, report.std_p)

    def test_nonzero_diagonal_rejected(self):
        # the pair check skips the diagonal, so only this check sees it
        r = np.array([[1, 3, 2], [2, 0, 4], [3, 1, 0]])
        with pytest.raises(DataError, match="^diagonal of a score sheet must be zero$"):
            ScoreSheet(names=("a", "b", "c"), n_games=5, r=r)

    def test_totals_past_int64_are_reported_exactly(self):
        # r + r.T in int64 once wrapped to -9223372036854775808
        n = 2**62
        r = np.full((3, 3), n, dtype=np.int64)
        np.fill_diagonal(r, 0)
        with pytest.raises(DataError) as excinfo:
            ScoreSheet(names=("a", "b", "c"), n_games=n, r=r)
        assert str(excinfo.value) == (
            "r[1,2] + r[2,1] = 9223372036854775808 != 4611686018427387904: "
            "ties or miscounts are not allowed"
        )

    def test_games_per_pair_from_2_63_rejected(self):
        # like the reader's counts, n_games must be below 2^63, so that the
        # pair check n_games - r.T is exact in int64
        r = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(DataError, match=r"games per pair must be below 2\^63, got 9223372036854775808"):
            ScoreSheet(names=("a", "b", "c"), n_games=2**63, r=r)

    def test_uint64_counts_that_sum_correctly_accepted(self):
        n = 2**63 - 1
        r = np.array([[0, n, 5], [0, 0, n - 7], [n - 5, 7, 0]], dtype=np.uint64)
        sheet = ScoreSheet(names=("a", "b", "c"), n_games=n, r=r)
        assert sheet.r.dtype == np.uint64 and np.array_equal(sheet.r, r)

    def test_out_of_range_rejected(self):
        r = np.zeros((3, 3), dtype=int)
        r[0, 1], r[1, 0] = 9, -4
        r[0, 2], r[2, 0] = 2, 3
        r[1, 2], r[2, 1] = 1, 4
        with pytest.raises(DataError):
            ScoreSheet(names=("a", "b", "c"), n_games=5, r=r)


class TestOrderFromArrays:
    """m is read off each type's arrays, never passed beside them, so a
    fit's order cannot disagree with its residual."""

    def test_no_exported_type_takes_m(self, league_sheet, league_fit):
        import dataclasses

        import skewtail

        exports = [getattr(skewtail, name) for name in skewtail.__all__]
        types = [t for t in exports if isinstance(t, type) and dataclasses.is_dataclass(t)]
        assert {ScoreSheet, SkewObservations, ScheffeFit} <= set(types)
        for t in types:
            assert "m" not in {f.name for f in dataclasses.fields(t)}, t
        obs = variance_stabilize(league_sheet)
        assert league_sheet.m == len(league_sheet.names) == 6
        assert obs.m == len(obs.y) == 6
        assert league_fit.m == len(league_fit.gamma_hat) == 6
        with pytest.raises(TypeError):
            ScheffeFit(m=5, alpha_hat=league_fit.alpha_hat, gamma_hat=league_fit.gamma_hat)

    def test_rebuilt_fit_gives_the_same_bits(self, league_fit):
        fit = ScheffeFit(alpha_hat=league_fit.alpha_hat, gamma_hat=league_fit.gamma_hat)
        for test in (chi_square_test, largest_sv_test, lrt_standardized_test, max_deadlock):
            assert repr(test(fit)) == repr(test(league_fit))

    @pytest.mark.parametrize("shape", [(6, 7), (6,), (2, 3, 3)])
    def test_residual_must_be_square(self, shape):
        # a (6, 7) residual once gave a chi-square value and no error
        with pytest.raises(DomainError, match="square"):
            ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
    def test_observations_must_be_square(self, shape):
        with pytest.raises(DataError, match="square"):
            SkewObservations(y=np.zeros(shape))


class TestResidualGate:
    """ScheffeFit's construction is the one check of a residual, so every test
    that takes a fit, not only the spectral ones, sees it."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_too_few_objects(self, m):
        # a (0, 0) fit once gave chi-square (0.0, 1, 1.0)
        with pytest.raises(DomainError, match="need m >= 3 objects for an interaction space"):
            ScheffeFit(alpha_hat=np.zeros(m), gamma_hat=np.zeros((m, m)))

    @pytest.mark.parametrize("shape", [(), (3,), (6, 1), (7,), (1, 6)])
    def test_alpha_hat_must_have_one_score_per_object(self, shape, league_fit):
        with pytest.raises(DomainError, match=re.escape(f"alpha_hat must have shape (6,), got {shape}")):
            ScheffeFit(alpha_hat=np.zeros(shape), gamma_hat=league_fit.gamma_hat)

    def test_non_skew_residual_is_refused_before_any_test(self):
        # once chi-square 4.89 on 10 df (p = 0.898) and deadlock triple (3, 2, 1),
        # while only largest_sv_test's lazy solve rejected it
        g = np.random.default_rng(0).standard_normal((6, 6))
        with pytest.raises(DomainError, match="alpha_hat must have shape"):
            ScheffeFit(alpha_hat=np.zeros(3), gamma_hat=g)
        with pytest.raises(DomainError, match="not skew-symmetric"):
            ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_or_scores_are_a_data_error(self, bad, league_fit):
        # contrast_value once returned nan or inf here
        g = np.array(league_fit.gamma_hat)
        g[0, 1], g[1, 0] = bad, -bad
        alpha = np.array(league_fit.alpha_hat)
        alpha[2] = bad
        for fields in ({"alpha_hat": league_fit.alpha_hat, "gamma_hat": g},
                       {"alpha_hat": alpha, "gamma_hat": league_fit.gamma_hat}):
            with pytest.raises(DataError, match="too large for double precision"):
                ScheffeFit(**fields)

    def test_arrays_are_stored_as_floats(self, league_fit):
        g = np.array([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
        fit = ScheffeFit(alpha_hat=[0, 0, 0], gamma_hat=g)
        assert fit.gamma_hat.dtype == fit.alpha_hat.dtype == np.float64
        assert max_deadlock(fit) == max_deadlock_loop(fit)
        assert largest_sv_test(fit)[0] == pytest.approx(math.sqrt(14.0), rel=1e-14)
        # a read-only float residual is kept as it is, not copied
        kept = ScheffeFit(alpha_hat=league_fit.alpha_hat, gamma_hat=league_fit.gamma_hat)
        assert kept.gamma_hat is league_fit.gamma_hat and kept.alpha_hat is league_fit.alpha_hat


def hostile_constructions():
    """Thunks, one per pytest param, that build each input type from hostile arguments:
    NaN, +-inf, -0.0 and 1.7e308 entries, empty, 1-D and 3-D arrays, a wrong-shape
    alpha_hat, and bool or float games per pair."""
    names = ("a", "b", "c")
    r = np.array([[0, 3, 2], [2, 0, 4], [3, 1, 0]])
    y = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
    c, d = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0), np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)

    def skew_with(x):
        out = y.copy()
        out[0, 1], out[1, 0] = x, -x
        return out

    def with_entry(v, x):
        out = np.array(v, dtype=float)
        out.flat[0] = x
        return out

    cases = []
    for x in (math.nan, math.inf, -math.inf, -0.0, 1.7e308):
        cases += [
            (f"sheet-n_games-{x}", lambda x=x: ScoreSheet(names=names, n_games=x, r=r)),
            (f"sheet-r-{x}", lambda x=x: ScoreSheet(names=names, n_games=5, r=with_entry(r, x))),
            (f"obs-{x}", lambda x=x: SkewObservations(y=skew_with(x))),
            (f"fit-gamma-{x}", lambda x=x: ScheffeFit(alpha_hat=np.zeros(3), gamma_hat=skew_with(x))),
            (f"fit-alpha-{x}", lambda x=x: ScheffeFit(alpha_hat=with_entry(np.zeros(3), x), gamma_hat=y)),
            (f"pair-{x}", lambda x=x: ContrastPair(c=with_entry(c, x), d=d)),
            (f"pair-all-{x}", lambda x=x: ContrastPair(c=np.full(3, x), d=np.full(3, x))),
        ]
    for a in (np.zeros(0), np.zeros((0, 0)), np.zeros(3), np.zeros((2, 3, 3))):
        cases += [
            (f"sheet-{a.shape}", lambda a=a: ScoreSheet(names=names, n_games=5, r=a.astype(int))),
            (f"obs-{a.shape}", lambda a=a: SkewObservations(y=a)),
            (f"fit-{a.shape}", lambda a=a: ScheffeFit(alpha_hat=np.zeros(3), gamma_hat=a)),
            (f"pair-{a.shape}", lambda a=a: ContrastPair(c=a, d=a)),
        ]
    for shape in ((), (2,), (4,), (3, 1)):
        cases.append((f"fit-alpha-{shape}", lambda s=shape: ScheffeFit(alpha_hat=np.zeros(s), gamma_hat=y)))
    one_game = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for n in (True, False, 1.0, 1.5, np.float64(1.0)):
        cases.append((f"sheet-n_games-{n!r}", lambda n=n: ScoreSheet(names=names, n_games=n, r=one_game)))
    cases.append(("sheet-r-bool", lambda: ScoreSheet(names=names, n_games=1, r=np.eye(3, k=1, dtype=bool))))
    cases.append(("sheet-no-names", lambda: ScoreSheet(names=(), n_games=5, r=np.zeros((0, 0), int))))
    return [pytest.param(build, id=label) for label, build in cases]


@pytest.mark.parametrize("build", hostile_constructions())
def test_hostile_input_builds_a_valid_object_or_raises_a_typed_error(build):
    from skewtail.paired import contrast_value, deadlock_contrast_pair

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            built = build()
        except SkewtailError:
            return
        if isinstance(built, ScoreSheet):
            n = built.n_games
            assert isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1 and built.m >= 3
            assert np.issubdtype(built.r.dtype, np.integer)
        elif isinstance(built, SkewObservations):
            assert np.isfinite(built.y).all() and np.array_equal(built.y, -built.y.T)
        elif isinstance(built, ContrastPair):
            assert np.isfinite(built.c).all() and np.isfinite(built.d).all()
        else:
            g = built.gamma_hat
            assert built.m >= 3 and built.alpha_hat.shape == (built.m,)
            assert np.isfinite(g).all() and np.array_equal(g, -g.T)
            pair = deadlock_contrast_pair(built.m, 0, 1, 2)
            for test in (chi_square_test, largest_sv_test, lrt_standardized_test, max_deadlock,
                         interaction_spectrum, residual_embedding, lambda f: contrast_value(f, pair)):
                try:
                    test(built)
                except SkewtailError:
                    pass


class TestArcsineScoreVariance:
    """The exact variance of one arcsine score at n games per pair, which
    README gives as the sigma2 of the report's tests' size."""

    @pytest.mark.parametrize("n, pi", [(1, 0.3), (5, 0.5), (27, 0.5), (27, 0.9), (100, 0.5)])
    def test_against_a_scipy_binomial_expectation(self, n, pi):
        from scipy.stats import binom

        def score(k):
            return np.sqrt(n) * np.arcsin((2.0 * k - n) / n)

        law = binom(n, pi)
        mean = law.expect(score)
        expect = law.expect(lambda k: (score(k) - mean) ** 2)
        assert arcsine_score_variance(n, pi) == pytest.approx(expect, rel=1e-13)

    def test_readme_prints_it(self):
        readme = Path(__file__).parents[1].joinpath("README.md").read_text()
        section = readme.split("### Size of the tests at n games per pair", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| (\d+) \| ([\d.]+) \| ([\d.]+) \|$", section, re.M)
        sigma2 = re.findall(r"`--sigma2 ([\d.]+)` at `n = (\d+)`", section)
        assert len(rows) == 6 and len(sigma2) == 1
        for n, pi, printed in rows + [(n, "0.5", v) for v, n in sigma2]:
            digits = len(printed.split(".")[1])
            assert f"{arcsine_score_variance(int(n), float(pi)):.{digits}f}" == printed


class TestSizeAtNGamesPerPair:
    """The 5% size of the report's chi-square and sigma_1 tests on fair
    leagues, m = 6 at the Central League's n = 27 games per pair."""

    def test_sigma2_of_the_scores_restores_the_size(self):
        m, n, leagues = 6, 27, 4000
        v = arcsine_score_variance(n, 0.5)
        rng = np.random.default_rng(0)
        iu = np.triu_indices(m, 1)
        rejections = {1.0: [0, 0], v: [0, 0]}
        for _ in range(leagues):
            r = np.zeros((m, m), dtype=int)
            r[iu] = rng.binomial(n, 0.5, size=len(iu[0]))
            r.T[iu] = n - r[iu]
            sheet = ScoreSheet(names=tuple("abcdef"), n_games=n, r=r)
            fit = scheffe_fit(variance_stabilize(sheet))
            for sigma2, counts in rejections.items():
                counts[0] += chi_square_test(fit, sigma2)[2] < 0.05
                counts[1] += largest_sv_test(fit, sigma2)[1] < 0.05
        se = math.sqrt(0.05 * 0.95 / leagues)
        nominal, inflated = (np.array(rejections[s]) / leagues for s in (v, 1.0))
        assert np.all(np.abs(nominal - 0.05) <= 3 * se), nominal
        assert np.all(inflated > 0.05) and np.all(inflated >= nominal), inflated


class TestVarianceStabilize:
    def test_even_split_maps_to_zero(self):
        r = np.zeros((3, 3), dtype=int)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            r[i, j] = r[j, i] = 5
        obs = variance_stabilize(ScoreSheet(names=("a", "b", "c"), n_games=10, r=r))
        assert np.array_equal(obs.y, np.zeros((3, 3)))

    def test_direct_formula_value(self):
        r = np.zeros((3, 3), dtype=int)
        r[0, 1], r[1, 0] = 16, 11
        r[0, 2], r[2, 0] = 14, 13
        r[1, 2], r[2, 1] = 13, 14
        obs = variance_stabilize(ScoreSheet(names=("a", "b", "c"), n_games=27, r=r))
        expect = 2.0 * math.sqrt(27) * (math.asin(math.sqrt(16.0 / 27.0)) - math.pi / 4.0)
        assert obs.y[0, 1] == pytest.approx(expect, rel=1e-14)
        # f(16/27) + f(11/27) = 0
        assert obs.y[0, 1] + obs.y[1, 0] == 0.0

    def test_league_sheet_exactly_skew(self, league_sheet):
        y = variance_stabilize(league_sheet).y
        assert float(np.max(np.abs(y + y.T))) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 27, 100])
    def test_bytes_match_loop(self, n):
        rng = np.random.default_rng(n)
        for m in range(3, 61):
            sheet = random_sheet(m, n, rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                y = variance_stabilize(sheet).y
            assert y.tobytes() == variance_stabilize_loop(sheet).tobytes()

    def test_bytes_match_loop_on_league(self, league_sheet):
        y = variance_stabilize(league_sheet).y
        assert y.tobytes() == variance_stabilize_loop(league_sheet).tobytes()

    def test_even_split_keeps_negative_zero_below_diagonal(self):
        r = np.full((4, 4), 5)
        np.fill_diagonal(r, 0)
        y = variance_stabilize(ScoreSheet(names=tuple("abcd"), n_games=10, r=r)).y
        below = y[np.tril_indices(4, -1)]
        assert np.all(below == 0.0) and np.all(np.signbit(below))
        assert not np.any(np.signbit(y[np.triu_indices(4)]))

    def test_boundary_sweep_warns_but_stays_finite(self):
        r = np.zeros((3, 3), dtype=int)
        r[0, 1], r[1, 0] = 5, 0  # a sweep
        r[0, 2], r[2, 0] = 2, 3
        r[1, 2], r[2, 1] = 1, 4
        sheet = ScoreSheet(names=("a", "b", "c"), n_games=5, r=r)
        with pytest.warns(UserWarning, match="boundary"):
            obs = variance_stabilize(sheet)
        assert np.all(np.isfinite(obs.y))


class TestScheffeFit:
    def test_subtractive_data_recovered_exactly(self):
        scores = np.array([1.5, -0.5, 0.25, -1.25])
        fit = scheffe_fit(subtractive_observations(scores))
        assert np.allclose(fit.alpha_hat, scores, atol=1e-14)
        assert np.allclose(fit.gamma_hat, 0.0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=10, max_size=10))
    def test_reconstruction_and_side_conditions(self, values):
        obs = observations_from_vector(5, values)
        fit = scheffe_fit(obs)
        recon = (fit.alpha_hat[:, None] - fit.alpha_hat[None, :]) + fit.gamma_hat
        assert np.max(np.abs(recon - obs.y)) < 1e-12
        assert abs(fit.alpha_hat.sum()) < 1e-10
        assert np.max(np.abs(fit.gamma_hat.sum(axis=1))) < 1e-10
        assert np.max(np.abs(fit.gamma_hat + fit.gamma_hat.T)) < 1e-12

    def test_league_interaction_energy(self, league_fit):
        energy = float(np.sum(np.triu(league_fit.gamma_hat, 1) ** 2))
        assert energy == pytest.approx(15.765, abs=5e-4)

    def test_league_spectrum(self, league_fit):
        from skewtail.paired import interaction_spectrum

        sigma = interaction_spectrum(league_fit)
        assert sigma[0] == pytest.approx(3.932, abs=5e-4)
        assert sigma[1] == pytest.approx(0.553, abs=5e-4)

    def test_too_few_objects(self):
        # SkewObservations decides m >= 3 for observations; TestResidualGate
        # pins ScheffeFit's own DomainError for a residual
        with pytest.raises(DataError, match="need at least 3 objects"):
            SkewObservations(y=np.zeros((2, 2)))


class TestChiSquareTest:
    def test_zero_interaction(self):
        fit = scheffe_fit(subtractive_observations([1.0, 0.0, -1.0, 0.0]))
        stat, df, p = chi_square_test(fit)
        assert stat == pytest.approx(0.0, abs=1e-20)
        assert df == 3
        assert p == 1.0

    def test_league_numbers(self, league_fit):
        stat, df, p = chi_square_test(league_fit, sigma2=1.0)
        assert stat == pytest.approx(15.765, abs=5e-4)
        assert df == 10
        assert p == pytest.approx(0.1066, abs=5e-5)

    def test_variance_scaling(self, league_fit):
        stat1, _, _ = chi_square_test(league_fit, sigma2=1.0)
        stat2, _, _ = chi_square_test(league_fit, sigma2=2.0)
        assert stat2 == pytest.approx(stat1 / 2.0, rel=1e-14)

    def test_bad_variance(self, league_fit):
        with pytest.raises(DomainError):
            chi_square_test(league_fit, sigma2=0.0)

    def test_overflowing_statistic_is_a_data_error(self, league_fit):
        fit = ScheffeFit(alpha_hat=league_fit.alpha_hat, gamma_hat=1e170 * league_fit.gamma_hat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="chi-square statistic"):
                chi_square_test(fit)
            with pytest.raises(DomainError, match="sigma2 = 1e-308"):
                chi_square_test(league_fit, sigma2=1e-308)


class TestLargestSvTest:
    def test_league_numbers(self, league_fit):
        stat, p = largest_sv_test(league_fit, sigma2=1.0)
        assert stat == pytest.approx(3.932, abs=5e-4)
        assert p == pytest.approx(0.0543, abs=5e-5)

    def test_zero_interaction(self):
        fit = scheffe_fit(subtractive_observations([0.5, 0.0, -0.5, 1.0]))
        stat, p = largest_sv_test(fit)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == 1.0

    @pytest.mark.parametrize("m", range(3, 62))
    def test_null_p_values_inside_the_unit_interval_and_falling(self, m):
        # under the null, sv_p lies strictly inside (0, 1); scaling the
        # residual up raises sigma_1 and must lower sv_p
        rng = np.random.default_rng(m)
        for _ in range(3):
            obs = observations_from_vector(m, rng.standard_normal(m * (m - 1) // 2))
            ps = [largest_sv_test(scheffe_fit(SkewObservations(y=c * obs.y)))[1]
                  for c in (1.0, 1.1, 1.25, 1.5)]
            assert 0.0 < ps[0] < 1.0 - 1e-9
            assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_null_law_matches_order_m_minus_1(self):
        # the Monte-Carlo form of the reduced-order equivalence
        from skewtail.mc import ks_distance
        from skewtail.rmtdist import largest_sv_cdf

        sigma1 = simulate_null_largest_sv(6, 20_000, seed=99)
        assert ks_distance(sigma1, lambda x: largest_sv_cdf(5, x)) < 0.02

    def test_null_simulation_holds_one_block_of_matrices(self, monkeypatch):
        # 64 small blocks: a whole-run (count, m, m) stack would take 13.1 MB
        monkeypatch.setattr(mc, "_BLOCK", 256)
        m, count = 10, 64 * 256
        whole_run = count * m * m * 8
        tracemalloc.start()
        try:
            sigma1 = simulate_null_largest_sv(m, count, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sigma1.shape == (count,)
        assert peak < whole_run / 2

    def test_null_simulation_rows_independent_of_blocks(self, monkeypatch):
        full = simulate_null_largest_sv(7, 700, seed=4)
        monkeypatch.setattr(mc, "_BLOCK", 256)
        assert np.array_equal(simulate_null_largest_sv(7, 700, seed=4), full)
        assert np.array_equal(simulate_null_largest_sv(7, 1, seed=4), full[:1])


class TestStandardizedTest:
    def test_league_numbers(self, league_fit):
        stat, p = lrt_standardized_test(league_fit)
        assert stat == pytest.approx(0.990, abs=5e-4)
        assert p == pytest.approx(0.0348, abs=5e-5)

    def test_exact_rank2_means_statistic_one(self):
        rng = np.random.default_rng(10)
        frame, _ = np.linalg.qr(
            np.column_stack([np.ones(6), rng.standard_normal((6, 2))])
        )
        u, v = frame[:, 1], frame[:, 2]  # orthonormal, both sum to zero
        y = 2.0 * (np.outer(u, v) - np.outer(v, u))
        fit = scheffe_fit(SkewObservations(y=y))
        stat, p = lrt_standardized_test(fit)
        assert stat == pytest.approx(1.0, abs=1e-10)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_two_equal_planes_hit_critical_point(self):
        rng = np.random.default_rng(11)
        frame, _ = np.linalg.qr(
            np.column_stack([np.ones(6), rng.standard_normal((6, 4))])
        )
        y = np.zeros((6, 6))
        for a, b in ((1, 2), (3, 4)):
            y += np.outer(frame[:, a], frame[:, b]) - np.outer(frame[:, b], frame[:, a])
        stat, p = lrt_standardized_test(scheffe_fit(SkewObservations(y=y)))
        assert stat == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        # order-5 upper probability saturates at the critical point
        assert p == pytest.approx(1.0, abs=5e-5)

    def test_below_critical_point_returns_none(self):
        # spread the spectrum so sigma1^2 is well under half the energy:
        # three equal planes in a 7-object design
        rng = np.random.default_rng(12)
        frame, _ = np.linalg.qr(
            np.column_stack([np.ones(7), rng.standard_normal((7, 6))])
        )
        y = np.zeros((7, 7))
        for a, b in ((1, 2), (3, 4), (5, 6)):
            y += np.outer(frame[:, a], frame[:, b]) - np.outer(frame[:, b], frame[:, a])
        stat, p = lrt_standardized_test(scheffe_fit(SkewObservations(y=y)))
        assert stat == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-10)
        assert p is None

    def test_just_below_critical_point_returns_none(self):
        # singular pairs (1, 1, c) give sigma_1 / sqrt(2 + c^2) = 1/sqrt(2) - 1e-7:
        # below the 1e-12 slack, so no p-value, where the tube law raises
        # ValidityError.  m = 6 is the least order with a third pair: at m = 5,
        # sigma_1 >= sigma_2 keeps the statistic at or above 1/sqrt(2)
        target = 1.0 / math.sqrt(2.0) - 1e-7
        g = np.zeros((6, 6))
        for a, s in ((0, 1.0), (2, 1.0), (4, math.sqrt(1.0 / target**2 - 2.0))):
            g[a, a + 1], g[a + 1, a] = s, -s
        stat, p = lrt_standardized_test(ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=g))
        assert stat == pytest.approx(target, abs=1e-13) and p is None

    @pytest.mark.parametrize("m", [3, 4])
    def test_below_five_objects_has_no_law(self, m):
        # one singular pair: the statistic is exactly 1 and no exact law applies
        rng = np.random.default_rng(m)
        fit = scheffe_fit(observations_from_vector(m, rng.standard_normal(m * (m - 1) // 2)))
        assert lrt_standardized_test(fit) == (1.0, None)
        fit = scheffe_fit(subtractive_observations(np.arange(float(m))))
        assert lrt_standardized_test(fit) == (None, None)

    def test_zero_residual_has_no_statistic(self):
        fit = scheffe_fit(subtractive_observations([2.0, 1.0, 0.0, -1.0, -2.0]))
        assert lrt_standardized_test(fit) == (None, None)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170])
    def test_statistic_is_scale_free(self, league_sheet, scale):
        y = variance_stabilize(league_sheet).y
        expect = lrt_standardized_test(scheffe_fit(SkewObservations(y=y)))
        stat, p = lrt_standardized_test(scheffe_fit(SkewObservations(y=scale * y)))
        assert stat == pytest.approx(expect[0], rel=1e-13)
        assert p == pytest.approx(expect[1], rel=1e-10)


class TestMaxDeadlock:
    def test_league_triple(self, league_fit):
        triple, value = max_deadlock(league_fit)
        assert triple == (6, 5, 2)
        assert value == pytest.approx(2.832, abs=5e-4)

    def test_cycle_sum_definition(self, league_fit):
        g = league_fit.gamma_hat
        assert max_deadlock(league_fit)[1] == pytest.approx(
            (g[5, 4] + g[4, 1] + g[1, 5]) / SQRT3, rel=1e-12
        )

    def test_orientation_reversal_negates(self, league_fit):
        g = league_fit.gamma_hat
        forward = g[5, 4] + g[4, 1] + g[1, 5]
        backward = g[1, 4] + g[4, 5] + g[5, 1]
        assert forward == pytest.approx(-backward, rel=1e-14)

    def test_subtractive_data_has_no_deadlock(self):
        fit = scheffe_fit(subtractive_observations([2.0, 1.0, 0.0, -1.0, -2.0]))
        _, value = max_deadlock(fit)
        assert value == pytest.approx(0.0, abs=1e-13)

    # integer residuals tie across middle-index blocks, where the search's
    # visiting order differs most from the lexicographic tie rule
    @pytest.mark.parametrize("m", [*range(3, 13), 20, 41])
    def test_matches_loop_on_tie_heavy_residuals(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            g = np.triu(rng.integers(-2, 3, size=(m, m)), 1).astype(float)
            fit = ScheffeFit(alpha_hat=np.zeros(m), gamma_hat=g - g.T)
            assert max_deadlock(fit) == max_deadlock_loop(fit)

    def test_matches_loop_on_central_league(self, league_fit):
        assert max_deadlock(league_fit) == max_deadlock_loop(league_fit)

    @pytest.mark.parametrize("m", [20, 40, 60, 174])  # 174: the largest league the laws admit
    def test_matches_loop_on_random_league_sheets(self, m):
        rng = np.random.default_rng(m)
        r = np.triu(rng.binomial(27, 0.5, size=(m, m)), 1)
        r += np.triu(27 - r, 1).T
        sheet = ScoreSheet(names=tuple(map(str, range(m))), n_games=27, r=r)
        fit = scheffe_fit(variance_stabilize(sheet))
        assert max_deadlock(fit) == max_deadlock_loop(fit)

    # == cannot tell -0.0 from 0.0, so repr pins the sign of a zero value:
    # taking the winner's magnitude with abs() would flip a -0.0
    def test_sign_of_zero_on_subtractive_data(self):
        even = ScoreSheet(names=tuple("abcdef"), n_games=26, r=13 * (1 - np.eye(6, dtype=int)))
        for obs in (variance_stabilize(even), subtractive_observations([2.0, 1.0, 0.0, -1.0, -2.0])):
            fit = scheffe_fit(obs)
            assert repr(max_deadlock(fit)) == repr(max_deadlock_loop(fit)) == "((1, 2, 3), 0.0)"

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("m", [6, 60])
    def test_sign_of_zero_on_all_zero_residual(self, m, zero):
        fit = ScheffeFit(alpha_hat=np.zeros(m), gamma_hat=np.full((m, m), zero))
        triple, value = max_deadlock(fit)
        assert repr(value) == repr(zero) and triple == (1, 2, 3)
        assert repr((triple, value)) == repr(max_deadlock_loop(fit))

    def test_non_finite_residual_is_a_data_error(self):
        # entries of +-1.7e308 overflow the fit, which leaves infinite gamma
        # entries: a search over them would answer an infinite value whose
        # triple depends on the visiting order, so the fit is refused when built
        u = np.triu(np.random.default_rng(2).choice([-1.7e308, 1.7e308], size=(6, 6)), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="residual is too large for double precision"):
                scheffe_fit(SkewObservations(y=u - u.T))
            g = np.ldexp(u - u.T, -1)
            g[0, 1], g[1, 0] = math.inf, -math.inf
            with pytest.raises(DataError, match="residual is too large for double precision"):
                ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=g)
            # a finite residual whose cycle sums overflow
            g = np.triu(np.full((6, 6), 1e308), 1)
            with pytest.raises(DataError, match="deadlock contrast overflows"):
                max_deadlock(ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=g - g.T))

    def test_value_bounded_by_sigma1(self):
        from skewtail.paired import interaction_spectrum

        for seed in range(8):
            rng = np.random.default_rng(seed)
            obs = observations_from_vector(6, rng.standard_normal(15))
            fit = scheffe_fit(obs)
            _, value = max_deadlock(fit)
            sigma1 = float(interaction_spectrum(fit)[0])
            assert value <= SQRT3 * sigma1 + 1e-12


class TestContrastPair:
    def test_deadlock_pair_reproduces_cycle_sum(self, league_fit):
        from skewtail.paired import contrast_value, deadlock_contrast_pair

        g = league_fit.gamma_hat
        pair = deadlock_contrast_pair(6, 5, 4, 1)  # teams 6, 5, 2
        cycle = (g[5, 4] + g[4, 1] + g[1, 5]) / SQRT3
        assert contrast_value(league_fit, pair) == pytest.approx(cycle, rel=1e-12)

    def test_constraints_enforced(self):
        from skewtail.paired import ContrastPair, deadlock_contrast_pair

        pair = deadlock_contrast_pair(6, 0, 3, 5)
        for v in (pair.c, pair.d):
            assert float(v @ v) == pytest.approx(1.0, abs=1e-12)
            assert float(v.sum()) == pytest.approx(0.0, abs=1e-12)
        assert float(pair.c @ pair.d) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            ContrastPair(c=np.array([1.0, 0.0]), d=np.array([0.0, 1.0]))  # sums nonzero

    def test_pair_must_be_orthogonal(self):
        from skewtail.paired import ContrastPair

        c = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        with pytest.raises(DomainError, match="^c and d must be orthogonal$"):
            ContrastPair(c=c, d=c)

    @pytest.mark.parametrize("ijk", [(0, 0, 1), (0, 1, 1), (2, 0, 2), (0, 1, 5), (7, 1, 2)])
    def test_deadlock_pair_needs_three_distinct_indices_below_m(self, ijk):
        # without this check a repeated index gives a pair that is not unit
        # length, and an index of m or more an IndexError
        from skewtail.paired import deadlock_contrast_pair

        with pytest.raises(DomainError, match=re.escape(f"need three distinct indices below 5, got {ijk}")):
            deadlock_contrast_pair(5, *ijk)

    def test_contrast_length_must_match_the_fit(self, league_fit):
        from skewtail.paired import contrast_value, deadlock_contrast_pair

        with pytest.raises(DomainError, match="^contrast length 5 does not match m=6$"):
            contrast_value(league_fit, deadlock_contrast_pair(5, 0, 1, 2))

    def test_nan_vectors_rejected(self):
        # NaN fails every "> 1e-10" test, so a NaN pair once built and
        # contrast_value returned nan
        from skewtail.paired import ContrastPair

        with pytest.raises(DomainError, match="c must have unit length"):
            ContrastPair(c=np.full(3, np.nan), d=np.full(3, np.nan))

    @pytest.mark.parametrize("index", [0.5, True, 1.0, np.float64(2.0)])
    def test_float_or_bool_index_is_a_domain_error(self, index):
        # 0.5 once escaped as an IndexError from c[0.5]
        from skewtail.paired import deadlock_contrast_pair

        with pytest.raises(DomainError, match=re.escape(f"index must be a nonnegative integer, got {index!r}")):
            deadlock_contrast_pair(5, index, 3, 4)

    def test_float_order_is_a_domain_error(self):
        # a float m passed the index checks and failed in np.zeros with a TypeError
        from skewtail.paired import deadlock_contrast_pair

        for m in (10.0, True):
            with pytest.raises(DomainError, match=f"m must be a nonnegative integer, got {m!r}"):
                deadlock_contrast_pair(m, 0, 1, 2)

    def test_any_pair_bounded_by_sigma1(self, league_fit):
        from skewtail.paired import ContrastPair, contrast_value, interaction_spectrum

        sigma1 = float(interaction_spectrum(league_fit)[0])
        rng = np.random.default_rng(33)
        ones = np.ones(6)
        for _ in range(50):
            raw = rng.standard_normal((6, 2))
            raw -= ones[:, None] * (ones @ raw) / 6.0
            q, _ = np.linalg.qr(raw)
            pair = ContrastPair(c=q[:, 0], d=q[:, 1])
            assert contrast_value(league_fit, pair) <= sigma1 + 1e-10

    def test_maximum_is_attained_up_to_sigma1(self, league_fit):
        # the deadlock subclass cannot beat the unconstrained maximum
        from skewtail.paired import contrast_value, deadlock_contrast_pair, interaction_spectrum

        sigma1 = float(interaction_spectrum(league_fit)[0])
        _, best = max_deadlock(league_fit)
        assert best <= sigma1 + 1e-10
        pair = deadlock_contrast_pair(6, 5, 4, 1)
        assert contrast_value(league_fit, pair) == pytest.approx(best, rel=1e-12)


class TestResidualEmbedding:
    def test_league_area_ratio(self, league_fit):
        pts = residual_embedding(league_fit)
        area = signed_area(pts, 5, 4, 1)  # teams 6, 5, 2
        assert 2.0 * area / SQRT3 == pytest.approx(2.839, abs=5e-4)

    def test_moment_identities(self, league_fit):
        from skewtail.paired import interaction_spectrum

        pts = residual_embedding(league_fit)
        sigma1 = float(interaction_spectrum(league_fit)[0])
        assert abs(pts[:, 0].sum()) < 1e-8
        assert abs(pts[:, 1].sum()) < 1e-8
        assert float(np.sum(pts[:, 0] ** 2)) == pytest.approx(sigma1, abs=1e-8)
        assert float(np.sum(pts[:, 1] ** 2)) == pytest.approx(sigma1, abs=1e-8)
        assert abs(float(pts[:, 0] @ pts[:, 1])) < 1e-8

    def test_exact_rank2_reproduces_all_cycle_sums(self):
        rng = np.random.default_rng(14)
        frame, _ = np.linalg.qr(
            np.column_stack([np.ones(6), rng.standard_normal((6, 2))])
        )
        u, v = frame[:, 1], frame[:, 2]
        gamma = 1.8 * (np.outer(u, v) - np.outer(v, u))
        fit = scheffe_fit(SkewObservations(y=gamma))
        pts = residual_embedding(fit)
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(j + 1, 6):
                    cycle = (gamma[i, j] + gamma[j, k] + gamma[k, i]) / SQRT3
                    area = 2.0 * signed_area(pts, i, j, k) / SQRT3
                    assert area == pytest.approx(cycle, abs=1e-9)


class TestSignedArea:
    def test_unit_right_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert signed_area(pts, 0, 1, 2) == pytest.approx(0.5)

    def test_swap_negates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert signed_area(pts, 1, 0, 2) == pytest.approx(-0.5)

    def test_repeated_index_rejected(self):
        pts = np.zeros((4, 2))
        with pytest.raises(DomainError):
            signed_area(pts, 1, 1, 2)

    @pytest.mark.parametrize("index", [-1, 4, 9])
    def test_index_outside_the_points_rejected(self, index):
        # -1 once read the last row silently, 9 escaped as an IndexError
        pts = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DomainError, match="below 4"):
            signed_area(pts, index, 0, 1)

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 1), (2, 5, 2), ()])
    def test_points_must_be_an_n_by_2_array(self, shape):
        # (5,) once raised a TypeError and (5, 3) a ValueError while unpacking
        with pytest.raises(DomainError, match=re.escape(f"(n, 2) array, got shape {shape}")):
            signed_area(np.zeros(shape), 0, 1, 2)

    @pytest.mark.parametrize("index", [0.5, True, 2.0])
    def test_float_or_bool_index_rejected(self, index):
        pts = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DomainError, match=re.escape(f"index must be a nonnegative integer, got {index!r}")):
            signed_area(pts, index, 3, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        # only the triangle's three rows are read
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 0.0]])
        assert signed_area(pts, 0, 1, 2) == 0.5
        with pytest.raises(DomainError, match=r"triangle \(0, 3, 2\) has a non-finite point"):
            signed_area(pts, 0, 3, 2)


class TestInvariances:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_translation_invariance(self, shift):
        rng = np.random.default_rng(20)
        obs = observations_from_vector(6, rng.standard_normal(15))
        b = np.asarray(shift)
        shifted = SkewObservations(y=obs.y + (b[:, None] - b[None, :]))
        fit0, fit1 = scheffe_fit(obs), scheffe_fit(shifted)
        assert np.allclose(fit1.alpha_hat, fit0.alpha_hat + (b - b.mean()), atol=1e-10)
        assert np.allclose(fit1.gamma_hat, fit0.gamma_hat, atol=1e-10)
        assert chi_square_test(fit1)[0] == pytest.approx(chi_square_test(fit0)[0], abs=1e-9)
        assert largest_sv_test(fit1)[0] == pytest.approx(largest_sv_test(fit0)[0], abs=1e-9)
        assert lrt_standardized_test(fit1)[0] == pytest.approx(
            lrt_standardized_test(fit0)[0], abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 100.0))
    def test_scale_behavior(self, c):
        rng = np.random.default_rng(21)
        obs = observations_from_vector(6, rng.standard_normal(15))
        scaled = SkewObservations(y=c * obs.y)
        fit0, fit1 = scheffe_fit(obs), scheffe_fit(scaled)
        assert lrt_standardized_test(fit1)[0] == pytest.approx(
            lrt_standardized_test(fit0)[0], abs=1e-12
        )
        assert chi_square_test(fit1)[0] == pytest.approx(
            c * c * chi_square_test(fit0)[0], rel=1e-10
        )
        assert largest_sv_test(fit1)[0] == pytest.approx(
            c * largest_sv_test(fit0)[0], rel=1e-10
        )

    def test_spectrum_energy_consistency(self, league_fit):
        from skewtail.paired import interaction_spectrum

        sigma = interaction_spectrum(league_fit)
        stat, _, _ = chi_square_test(league_fit)
        assert float(np.sum(sigma**2)) == pytest.approx(stat, rel=1e-10)
        # at the printed precision: 3.932^2 + 0.553^2 ~ 15.77 vs 15.765
        assert 3.932**2 + 0.553**2 == pytest.approx(15.77, abs=5e-3)


def count_eigen_solves(monkeypatch) -> list:
    """A list that gains an entry on every numpy eigh or eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _solve=solve, **k: calls.append(1) or _solve(*a, **k)
        )
    return calls


class TestOverflowingSpectrum:
    def test_spectral_tests_raise_data_error(self):
        # a finite residual of ~1e308 entries whose sigma_1 (3.7e308 here)
        # overflows: the one eigen-solve says so, rather than a RuntimeWarning
        # or an error about the infinite spectrum downstream
        g = np.triu(np.full((6, 6), 1e308), 1)
        for test in (interaction_spectrum, largest_sv_test, lrt_standardized_test, residual_embedding):
            fit = ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=g - g.T)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="sigma_1 = .* overflows double precision"):
                    test(fit)

    def test_division_by_sqrt_sigma2_is_a_domain_error(self):
        # a finite spectrum (1e200 entries) over sqrt(1e-300) passes the float
        # maximum: a DomainError names sigma2, as chi_square_test's does, not a
        # RuntimeWarning or an error about an infinite x downstream
        g = np.triu(np.full((6, 6), 1e200), 1)
        fit = ScheffeFit(alpha_hat=np.zeros(6), gamma_hat=g - g.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for test in (interaction_spectrum, largest_sv_test):
                with pytest.raises(DomainError, match="overflows for sigma2 = 1e-300"):
                    test(fit, sigma2=1e-300)


class TestBuildReport:
    @pytest.mark.parametrize("m", [4, 6, 20])
    def test_one_eigendecomposition(self, monkeypatch, m):
        calls = count_eigen_solves(monkeypatch)
        rng = np.random.default_rng(m)
        build_report(observations_from_vector(m, rng.standard_normal(m * (m - 1) // 2)))
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [5, 6, 20])
    def test_one_solve_per_fit(self, monkeypatch, m):
        calls = count_eigen_solves(monkeypatch)
        rng = np.random.default_rng(m)
        fit = scheffe_fit(observations_from_vector(m, rng.standard_normal(m * (m - 1) // 2)))
        interaction_spectrum(fit)
        largest_sv_test(fit, 1.7)
        lrt_standardized_test(fit)
        residual_embedding(fit)
        assert len(calls) == 1
        assert fit.eigen is fit.eigen
        assert len(calls) == 1
        # the cached solve cannot go stale or be altered: all arrays are read-only
        for array in (fit.gamma_hat, fit.alpha_hat, fit.eigen.spectrum, fit.eigen.top_vector):
            with pytest.raises(ValueError):
                array[0, ...] = 1.0

    @pytest.mark.parametrize("count", [5, 7])
    def test_one_name_per_object(self, league_sheet, count):
        names = tuple(f"T{i}" for i in range(count))
        with pytest.raises(DomainError, match=f"^expected 6 names, got {count}$"):
            build_report(variance_stabilize(league_sheet), names=names)

    def test_report_goes_through_the_public_tests(self, monkeypatch, league_sheet):
        # the boundary a profiler wraps by name: build_report looks each test
        # up on the module, so a wrapper placed there sees every report
        from skewtail import paired

        counts = {}
        for name in ("chi_square_test", "largest_sv_test", "interaction_spectrum",
                     "lrt_standardized_test", "residual_embedding"):
            fn = getattr(paired, name)
            counts[name] = 0

            def counted(*a, _fn=fn, _name=name, **k):
                counts[_name] += 1
                return _fn(*a, **k)

            monkeypatch.setattr(paired, name, counted)
        build_report(variance_stabilize(league_sheet), names=league_sheet.names)
        assert all(count >= 1 for count in counts.values()), counts

    @pytest.mark.parametrize("m", [6, 20, 40, 61])
    def test_spectrum_matches_lapack_svd(self, m):
        # the residual has rank at most m - 1, so it is rank-deficient at even m:
        # a route through gamma' gamma put its zero pair up to 1.6e-8 sigma_1 away
        rng = np.random.default_rng(m)
        obs = observations_from_vector(m, rng.standard_normal(m * (m - 1) // 2))
        expect = np.linalg.svd(scheffe_fit(obs).gamma_hat, compute_uv=False)[::2][:m // 2]
        sigma = build_report(obs).spectrum
        assert np.all(np.abs(sigma - expect) <= 1e-13 * expect[0])

    @pytest.mark.parametrize("m", [5, 6, 20])
    def test_every_spectrum_is_a_row_of_the_batched_solve(self, m):
        # one representation of a singular spectrum: a descending 1-D float
        # array of length t = m // 2, as one row of spectra_from_uppers is
        from skewtail.paired import interaction_spectrum

        rng = np.random.default_rng(m)
        obs = observations_from_vector(m, rng.standard_normal(m * (m - 1) // 2))
        fit = scheffe_fit(obs)
        iu = np.triu_indices(m, 1)
        row = mc.spectra_from_uppers(fit.gamma_hat[None][:, iu[0], iu[1]], m)[0]
        eigen = mc.SkewEigen(fit.gamma_hat)
        for spectrum in (eigen.spectrum, interaction_spectrum(fit), build_report(obs).spectrum):
            assert type(spectrum) is type(row) is np.ndarray
            assert spectrum.dtype == row.dtype == np.float64
            assert spectrum.shape == row.shape == (m // 2,)
            assert np.all(np.abs(spectrum - row) <= 1e-13 * row[0])

    def test_perfectly_subtractive_data_give_a_report(self):
        report = build_report(subtractive_observations([2.0, 1.0, 0.0, -1.0, -2.0]))
        assert (report.chi2_stat, report.chi2_p) == (0.0, 1.0)
        assert (report.sv_stat, report.sv_p) == (0.0, 1.0)
        assert report.std_stat is None and report.std_p is None
        assert report.embedding is None
        assert deadlock_area_ratio(report) is None

    def test_rounding_level_residual_gives_the_subtractive_report(self):
        obs = subtractive_observations([0.3, 1.7, -0.2, 0.9, 5.1, 2.2])
        fit = scheffe_fit(obs)
        assert np.all(fit.gamma_hat == 0.0)
        recon = fit.alpha_hat[:, None] - fit.alpha_hat[None, :]
        assert np.max(np.abs(recon - obs.y)) < 1e-15
        report = build_report(obs)
        assert (report.chi2_stat, report.chi2_p) == (0.0, 1.0)
        assert (report.sv_stat, report.sv_p) == (0.0, 1.0)
        assert report.std_stat is None and report.std_p is None
        assert report.embedding is None

    def test_small_residual_above_rounding_level_is_kept(self):
        obs = subtractive_observations([0.3, 1.7, -0.2, 0.9, 5.1, 2.2])
        y = obs.y.copy()
        y[0, 1] += 1e-12
        y[1, 0] -= 1e-12
        fit = scheffe_fit(SkewObservations(y=y))
        assert 0.0 < float(np.max(np.abs(fit.gamma_hat))) < 1e-12

    def test_league_report_fields(self, league_sheet):
        report = build_report(variance_stabilize(league_sheet), names=league_sheet.names)
        assert report.chi2_df == 10
        assert report.deadlock_triple == (6, 5, 2)
        assert report.std_stat == pytest.approx(
            report.sv_stat / math.sqrt(float(np.sum(report.spectrum**2))), abs=1e-10
        )
        assert deadlock_area_ratio(report) == pytest.approx(2.839, abs=5e-4)

    def test_small_m_has_no_standardized_p(self):
        rng = np.random.default_rng(30)
        obs = observations_from_vector(4, rng.standard_normal(6))
        report = build_report(obs)
        assert report.std_p is None
        assert 0.0 < report.std_stat <= 1.0

    def test_report_spectrum_in_sigma_units(self, league_sheet):
        obs = variance_stabilize(league_sheet)
        r1 = build_report(obs, sigma2=1.0, names=league_sheet.names)
        r4 = build_report(obs, sigma2=4.0, names=league_sheet.names)
        assert r4.sv_stat == pytest.approx(r1.sv_stat / 2.0, rel=1e-12)
        assert np.allclose(r4.spectrum, r1.spectrum / 2.0)
        assert r4.std_stat == pytest.approx(r1.std_stat, rel=1e-12)
