"""Sampler tests: determinism across counts and block sizes, normal
moments, pairing, the top invariant plane, and the KS helper."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from skewtail import mc
from skewtail.errors import DomainError, MultiplicityError, PairingError, whole
from skewtail.mc import (
    SkewEigen,
    binomial_standard_error,
    empirical_upper,
    ks_distance,
    sample_spectra,
    sample_tops,
    sample_uppers,
)

from oracles import uppers_to_full


#: Rows per Philox block of the sample layout; a different value is a
#: different layout, so every realized draw would change.
ROWS_PER_BLOCK = 256


def oracle_rows(seed: int, n: int, indices) -> np.ndarray:
    """Sample i is row i % 256 of the (256, n) standard-normal block that
    numpy's Philox draws at counter (0, 0, 0, i // 256), keyed by the
    seed's SeedSequence: built here one sample at a time, without mc."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    rows = []
    for i in indices:
        bg = np.random.Philox(key=key, counter=[0, 0, 0, i // ROWS_PER_BLOCK])
        block = np.random.Generator(bg).standard_normal((ROWS_PER_BLOCK, n))
        rows.append(block[i % ROWS_PER_BLOCK])
    return np.array(rows)


def sample_matrix(p: int, seed: int) -> np.ndarray:
    """Sample 0 of order p under ``seed``, as a full (p, p) array."""
    return uppers_to_full(sample_uppers(p, 1, seed)[0], p)[0]


def ks_at_every_sample(samples, cdf) -> float:
    """The KS distance with the CDF read at every sample: the reference
    for ks_distance's Chebyshev interpolant."""
    s = np.sort(np.asarray(samples, dtype=float))
    f = np.array([cdf(x) for x in s])
    i = np.arange(1, s.size + 1)
    return float(max(np.max(i / s.size - f), np.max(f - (i - 1) / s.size)))


def rank2_matrix(p: int, s: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s (a b' - b a') for orthonormal a, b, completed from its upper triangle."""
    return uppers_to_full((s * (np.outer(a, b) - np.outer(b, a)))[np.triu_indices(p, 1)], p)[0]


class TestSkewMatrix:
    """SkewEigen's input contract: a full (p, p) array, checked once for
    shape, finiteness and skewness, and solved as the skew completion of
    its strict upper triangle."""

    def test_full_matrix_is_exactly_skew(self):
        m = sample_matrix(5, 1)
        assert np.array_equal(m, -m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_roundtrip_through_full(self):
        a = sample_matrix(6, 2)
        again = uppers_to_full(a[np.triu_indices(6, 1)], 6)[0]
        assert np.array_equal(a, again)
        assert np.array_equal(SkewEigen(a).spectrum, SkewEigen(again).spectrum)

    def test_from_full_rejects_non_skew(self):
        with pytest.raises(DomainError, match="skew"):
            SkewEigen(np.eye(3))

    def test_from_full_tolerance_is_relative(self):
        # max |a + a'| is bounded relative to max |a|: a symmetric matrix of
        # tiny entries is rejected, rounding-level asymmetry of a 1e+6-scaled
        # matrix is accepted and solved as its upper triangle's completion
        with pytest.raises(DomainError, match="skew"):
            SkewEigen(np.full((3, 3), 1e-10))
        full = 1e6 * np.array([[0.0, 3.0, -1.0], [-3.0, 0.0, 2.0], [1.0, -2.0, 0.0]])
        full[0, 1] *= 1.0 + 8 * np.finfo(float).eps
        assert full[0, 1] != -full[1, 0]
        completion = uppers_to_full(full[np.triu_indices(3, 1)], 3)[0]
        assert np.array_equal(SkewEigen(full).spectrum, SkewEigen(completion).spectrum)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_full_rejects_non_finite(self, bad):
        full = np.zeros((3, 3))
        full[0, 1], full[1, 0] = bad, -bad
        with pytest.raises(DomainError, match="finite"):
            SkewEigen(full)

    def test_rejects_wrong_length(self):
        # the samplers' packed upper triangle is not a SkewEigen input
        with pytest.raises(DomainError, match="square"):
            SkewEigen(sample_uppers(4, 1, seed=3)[0])

    @pytest.mark.parametrize("shape", [(4, 5), (4,), (1, 1)], ids=["4x5", "4", "1x1"])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(DomainError, match="order >= 2"):
            SkewEigen(np.zeros(shape))


class TestDeterminism:
    def test_same_seed_same_matrix(self):
        assert np.array_equal(sample_matrix(4, 42), sample_matrix(4, 42))

    def test_block_path_matches_per_sample_path(self):
        uppers = sample_uppers(6, 300, seed=11)
        indices = (0, 1, 137, 255, 256, 299)
        for i, expect in zip(indices, oracle_rows(11, 15, indices)):
            assert np.array_equal(uppers[i], expect)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            sample_uppers(4, 10, seed=0), sample_uppers(4, 10, seed=1)
        )

    def test_seed_validation(self):
        # True is an int, so it ran silently as seed 1
        for seed in (-1, 1.5, True):
            with pytest.raises(DomainError, match="seed"):
                sample_uppers(4, 1, seed=seed)

    @pytest.mark.parametrize("sampler", [sample_uppers, sample_spectra, sample_tops])
    def test_order_and_count_must_be_integers(self, sampler):
        # a float order or count is a typed error, as a float seed is, not
        # numpy's TypeError from a buffer of float length
        with pytest.raises(DomainError, match="matrix order must be an integer >= 2, got 4.0"):
            sampler(4.0, 10, 1)
        with pytest.raises(DomainError, match="count must be an integer >= 1, got 10.0"):
            sampler(4, 10.0, 1)
        with pytest.raises(DomainError, match="count must be an integer >= 1, got True"):
            sampler(4, True, 1)  # was numpy's TypeError from np.empty((True, width))
        assert sampler(np.int64(4), np.int64(3), 1).shape[0] == 3

    def test_whole_number_check(self):
        assert whole("n", np.int64(7), 1) == 7 and type(whole("n", np.int64(7), 1)) is int
        for value in (True, np.bool_(True), 2.0, "3", None, 0):
            with pytest.raises(DomainError, match="n must be an integer >= 1"):
                whole("n", value, 1)


class TestSampleLayout:
    def test_block_constants(self):
        assert mc._STREAM_BLOCK == ROWS_PER_BLOCK
        assert mc._BLOCK % ROWS_PER_BLOCK == 0

    def test_rows_equal_oracle_at_block_edges(self):
        p, n, seed = 4, 6, 17
        count = mc._BLOCK + 300
        indices = (0, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, mc._BLOCK - 1, mc._BLOCK, count - 1)
        uppers = sample_uppers(p, count, seed)
        for i, expect in zip(indices, oracle_rows(seed, n, indices)):
            assert np.array_equal(uppers[i], expect)

    def test_rows_independent_of_count(self):
        full = sample_uppers(5, mc._BLOCK + 513, seed=6)
        for count in (1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK + 1, mc._BLOCK, mc._BLOCK + 1):
            assert np.array_equal(sample_uppers(5, count, seed=6), full[:count])

    @pytest.mark.parametrize("block", [ROWS_PER_BLOCK, 1024])
    def test_rows_and_spectra_independent_of_block_size(self, monkeypatch, block):
        # against 512-sample blocks; the last block holds one sample either way
        count = 4 * ROWS_PER_BLOCK + 1
        samplers = (sample_uppers, sample_spectra, sample_tops)
        monkeypatch.setattr(mc, "_BLOCK", 2 * ROWS_PER_BLOCK)
        expect = [sampler(4, count, seed=12) for sampler in samplers]
        monkeypatch.setattr(mc, "_BLOCK", block)
        got = [sampler(4, count, seed=12) for sampler in samplers]
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)
        assert np.array_equal(got[1], mc.spectra_from_uppers(got[0], 4))
        assert np.array_equal(got[0][-1], oracle_rows(12, 6, [count - 1])[0])

    @pytest.mark.parametrize("p", [2, 3, 7, 10])
    def test_tops_equal_spectra_column_and_energy(self, p):
        for count in (1, mc._BLOCK, mc._BLOCK + 1):
            spectra = sample_spectra(p, count, seed=p)
            tops = sample_tops(p, count, seed=p)
            assert tops.shape == (count, 2)
            assert np.array_equal(tops[:, 0], spectra[:, 0])
            assert np.array_equal(tops[:, 1], np.sum(spectra**2, axis=1))

    def test_sample_spectra_holds_one_block_of_uppers(self, monkeypatch):
        # 64 small blocks: the whole run's upper triangles would take 5.9 MB
        monkeypatch.setattr(mc, "_BLOCK", ROWS_PER_BLOCK)
        p, count = 10, 64 * ROWS_PER_BLOCK
        whole_run = count * (p * (p - 1) // 2) * 8
        tracemalloc.start()
        try:
            sample_spectra(p, count, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_run / 2

    def test_workspace_is_rows_stack_and_mtm(self):
        # the Householder vectors live in the stack's dead triangles, so a
        # block's buffers are the Philox rows, the (p, p, B) stack and M'M;
        # a separate V and Z panel buffer doubled the peak (2.17x)
        p, b = 40, mc._BLOCK
        floor = 8 * b * (p * (p - 1) // 2 + p * p + (p // 2) ** 2)
        sample_tops(p, b, 0)  # warm-up
        tracemalloc.start()
        try:
            sample_tops(p, b, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * floor

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux page-fault counts")
    def test_fresh_process_reuses_block_buffers(self):
        # fresh block arrays for every block cost ~460 minor faults a block
        # with glibc, which gave them back to the OS and faulted them in again
        code = ("import resource; from skewtail import mc\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "mc.sample_tops(10, 64 * mc._BLOCK, 3)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        paths = [os.path.dirname(os.path.dirname(mc.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 300 * 64

    def test_spectra_rows_equal_single_row_solves_and_small_blocks(self, monkeypatch):
        p, seed = 10, 31
        count = mc._BLOCK + 301
        rows = (0, mc._BLOCK - 1, mc._BLOCK, count - 1)
        uppers = sample_uppers(p, count, seed)
        spectra = sample_spectra(p, count, seed)
        monkeypatch.setattr(mc, "_BLOCK", ROWS_PER_BLOCK)
        small_blocks = sample_spectra(p, count, seed)
        for i in rows:
            assert np.array_equal(spectra[i], mc.spectra_from_uppers(uppers[i:i + 1], p)[0])
            assert np.array_equal(spectra[i], small_blocks[i])

    def test_spectra_independent_of_count(self):
        # count = _BLOCK + 1 leaves a last block of a single sample
        full = sample_spectra(7, mc._BLOCK + 2, seed=8)
        for count in (1, 2, mc._BLOCK, mc._BLOCK + 1):
            assert np.array_equal(sample_spectra(7, count, seed=8), full[:count])


class TestMoments:
    def test_entry_moments(self):
        n = 100_000
        uppers = sample_uppers(5, n, seed=123)
        means = uppers.mean(axis=0)
        assert np.max(np.abs(means)) < 4.0 / math.sqrt(n)
        assert np.all(np.abs(uppers.var(axis=0) - 1.0) < 0.05)

    def test_frobenius_moment(self):
        # tr(A'A)/2 is a chi-square with p(p-1)/2 degrees of freedom
        n_dim = 10
        uppers = sample_uppers(5, 100_000, seed=9)
        halves = np.sum(uppers**2, axis=1)
        se = math.sqrt(2.0 * n_dim / 100_000)
        assert abs(halves.mean() - n_dim) < 3.0 * se


class TestSingularValues:
    def test_p2_absolute_value(self):
        m = np.array([[0.0, -1.7], [1.7, 0.0]])
        assert SkewEigen(m).spectrum == pytest.approx([1.7])

    def test_p3_frobenius_radius(self):
        m = uppers_to_full(np.array([0.3, -1.2, 2.0]), 3)[0]
        expect = math.sqrt(0.3**2 + 1.2**2 + 2.0**2)
        assert SkewEigen(m).spectrum == pytest.approx([expect], rel=1e-12)

    def test_rank2_construction(self):
        a, b = np.zeros(6), np.zeros(6)
        a[0], b[1] = 1.0, 1.0
        spec = SkewEigen(rank2_matrix(6, 2.5, a, b)).spectrum
        assert spec == pytest.approx([2.5, 0.0, 0.0], abs=1e-12)

    def test_descending_and_energy_identity(self):
        for seed in range(5):
            for p in (4, 5, 7, 8):
                m = sample_matrix(p, seed + 100)
                sigma = SkewEigen(m).spectrum
                assert np.all(np.diff(sigma) <= 0.0)
                assert np.all(sigma >= 0.0)
                energy = 0.5 * float(np.sum(m**2))
                assert float(np.sum(sigma**2)) == pytest.approx(energy, rel=1e-10)

    @pytest.mark.parametrize("p", [4, 5])
    def test_pairing_error_when_the_spectrum_misses_the_energy(self, monkeypatch, p):
        solve = np.linalg.eigh

        def off_energy(a):
            w, z = solve(a)
            return 1.001 * w, z

        monkeypatch.setattr(np.linalg, "eigh", off_energy)
        with pytest.raises(PairingError, match="misses"):
            SkewEigen(sample_matrix(p, 11))

    def test_zero_matrix(self):
        spec = SkewEigen(np.zeros((4, 4))).spectrum
        assert np.array_equal(spec, np.zeros(2))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170])
    def test_squares_out_of_range(self, scale):
        m = sample_matrix(7, 3)
        expect = SkewEigen(m).spectrum
        eigen = SkewEigen(scale * m)
        assert np.all(np.abs(eigen.spectrum / scale - expect) <= 1e-13 * expect[0])
        plane, ref = eigen.top_plane(), SkewEigen(m).top_plane()
        assert plane.sigma1 / scale == pytest.approx(ref.sigma1, rel=1e-13)
        assert np.allclose(plane.u, ref.u, atol=1e-12) and np.allclose(plane.v, ref.v, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_raises_domain_error(self, bad):
        upper = np.ones(6)
        upper[2] = bad
        with pytest.raises(DomainError, match="finite"):
            SkewEigen(uppers_to_full(upper, 4)[0])


class TestTopPlane:
    def test_exact_rank2_recovery(self):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        a, b = basis[:, 0], basis[:, 1]
        plane = SkewEigen(rank2_matrix(7, 3.0, a, b)).top_plane()
        assert plane.sigma1 == pytest.approx(3.0, rel=1e-12)
        # u, v span the same plane as a, b
        proj = np.outer(a, a) + np.outer(b, b)
        assert np.allclose(proj @ plane.u, plane.u, atol=1e-10)
        assert np.allclose(proj @ plane.v, plane.v, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_plane_relations(self, seed):
        full = sample_matrix(6, seed + 50)
        plane = SkewEigen(full).top_plane()
        assert np.linalg.norm(plane.u) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(plane.v) == pytest.approx(1.0, abs=1e-10)
        assert abs(float(plane.u @ plane.v)) < 1e-10
        assert np.allclose(full @ plane.v, plane.sigma1 * plane.u, atol=1e-8)
        assert np.allclose(full @ plane.u, -plane.sigma1 * plane.v, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_gauge_alignment(self, seed):
        plane = SkewEigen(sample_matrix(5, seed + 70)).top_plane()
        amp = np.sqrt(plane.u**2 + plane.v**2)
        istar = int(np.argmax(amp))
        assert plane.u[istar] > 0.0
        assert plane.u[istar] == pytest.approx(float(amp[istar]), rel=1e-12)
        assert abs(plane.v[istar]) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_full_deflation_reconstructs(self, seed):
        residual = sample_matrix(6, seed + 30)
        for _ in range(3):
            eigen = SkewEigen(residual)
            if eigen.spectrum[0] < 1e-9:
                break
            plane = eigen.top_plane()
            residual = residual - plane.sigma1 * (
                np.outer(plane.u, plane.v) - np.outer(plane.v, plane.u)
            )
        assert np.linalg.norm(residual) < 1e-8

    def test_kernel_orthogonality_odd_order(self):
        full = sample_matrix(5, 77)
        eigs, vecs = np.linalg.eigh(full.T @ full)
        kernel = vecs[:, 0]
        plane = SkewEigen(full).top_plane()
        assert abs(float(kernel @ plane.u)) < 1e-8
        assert abs(float(kernel @ plane.v)) < 1e-8

    def test_multiplicity_error_on_degenerate_top(self):
        rng = np.random.default_rng(8)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        full = 2.0 * (np.outer(basis[:, 0], basis[:, 1]) - np.outer(basis[:, 1], basis[:, 0]))
        full += 2.0 * (np.outer(basis[:, 2], basis[:, 3]) - np.outer(basis[:, 3], basis[:, 2]))
        with pytest.raises(MultiplicityError):
            SkewEigen(full).top_plane()

    def test_multiplicity_error_on_zero(self):
        with pytest.raises(MultiplicityError):
            SkewEigen(np.zeros((4, 4))).top_plane()


class TestEmpiricalHelpers:
    def test_counting(self):
        assert empirical_upper([1.0, 2.0, 3.0], 1.5) == pytest.approx(2.0 / 3.0)
        assert empirical_upper([1.0, 2.0], 5.0) == 0.0

    def test_strictness_at_ties(self):
        assert empirical_upper([1.0, 1.0, 2.0], 1.0) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_upper([], 0.0)

    def test_nan_rejected(self):
        # a NaN sample is never above x and no sample is above a NaN x, so
        # either would read as a silent fraction (0.5 and 0.0 here)
        for samples, x in (([math.nan, 1.0], 0.5), ([1.0, 2.0], math.nan)):
            with pytest.raises(DomainError, match="not NaN"):
                empirical_upper(samples, x)
        assert empirical_upper([math.inf, 1.0], 0.5) == 1.0

    def test_standard_error(self):
        assert binomial_standard_error(0.5, 100) == pytest.approx(0.05)
        assert binomial_standard_error(0.0, 10) == 0.0
        with pytest.raises(DomainError):
            binomial_standard_error(1.5, 10)
        for count in (True, 2.5, 0):  # a bool or float count read as 1 or 2.5 samples
            with pytest.raises(DomainError, match="count must be an integer >= 1"):
                binomial_standard_error(0.5, count)

    def test_small_scale_tail_agreement(self):
        from skewtail.rmtdist import largest_sv_cdf

        sigma1 = sample_spectra(6, 20_000, seed=21)[:, 0]
        exact = 1.0 - largest_sv_cdf(6, 3.0)
        emp = empirical_upper(sigma1, 3.0)
        se = binomial_standard_error(exact, sigma1.size)
        assert abs(emp - exact) < 3.0 * se


class TestKsDistance:
    def test_exact_and_grid_paths_agree(self):
        rng = np.random.default_rng(3)
        samples = np.abs(rng.standard_normal(2000))
        cdf = lambda x: math.erf(x / math.sqrt(2.0))  # noqa: E731
        exact = ks_at_every_sample(samples, cdf)
        interpolated = ks_distance(samples, cdf)
        assert interpolated == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("p", [4, 6, 10])
    def test_chebyshev_matches_exact_on_sigma1(self, p):
        from skewtail.rmtdist import largest_sv_cdf

        sigma1 = sample_spectra(p, 20_000, seed=p)[:, 0]
        cdf = lambda x: largest_sv_cdf(p, x)  # noqa: E731
        assert ks_distance(sigma1, cdf) == pytest.approx(
            ks_at_every_sample(sigma1, cdf), abs=1e-10
        )

    def test_cdf_called_degree_plus_one_times(self):
        calls = []

        def cdf(x):
            calls.append(x)
            return math.erf(x / math.sqrt(2.0))

        samples = np.abs(np.random.default_rng(6).standard_normal(5000))
        ks_distance(samples, cdf)
        assert len(calls) == mc._KS_DEGREE + 1
        assert min(calls) >= samples.min() and max(calls) <= samples.max()

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        samples = np.abs(rng.standard_normal(3000))

        def cdf(x):
            return math.erf(x / math.sqrt(2.0))

        ours = ks_distance(samples, cdf)
        theirs = scipy_stats.kstest(samples, lambda xs: np.array([cdf(v) for v in xs])).statistic
        assert ours == pytest.approx(float(theirs), abs=1e-12)

    def test_detects_wrong_law(self):
        rng = np.random.default_rng(5)
        samples = np.abs(rng.standard_normal(5000)) * 2.0
        assert ks_distance(samples, lambda x: math.erf(x / math.sqrt(2.0))) > 0.2

    @pytest.mark.parametrize(
        "n", [1000, mc._KS_CHUNK - 1, mc._KS_CHUNK, mc._KS_CHUNK + 1, 200_000]
    )
    def test_chunked_equals_one_shot(self, n):
        from numpy.polynomial import Chebyshev

        def cdf(x):
            return math.erf(x / math.sqrt(2.0))

        s = np.sort(np.abs(np.random.default_rng(n).standard_normal(n)))
        law = Chebyshev.interpolate(
            lambda xs: np.array([cdf(x) for x in xs]), 128, domain=[s[0], s[-1]]
        )
        f = law(s)
        i = np.arange(1, n + 1)
        one_shot = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
        assert ks_distance(s[::-1], cdf) == one_shot

    def test_order_of_the_input_changes_no_bit(self):
        s = np.abs(np.random.default_rng(8).standard_normal(3 * mc._KS_CHUNK + 5))
        cdf = lambda x: math.erf(x / math.sqrt(2.0))  # noqa: E731
        ordered = np.sort(s)
        gaps = [ks_distance(x, cdf) for x in (ordered, ordered[::-1], s, s.tolist())]
        assert [g.hex() for g in gaps] == [gaps[0].hex()] * 4

    def test_callers_array_is_left_as_it_was(self):
        cdf = lambda x: math.erf(x / math.sqrt(2.0))  # noqa: E731
        for s in (np.array([3.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])):
            kept = s.copy()
            ks_distance(s, cdf)
            assert np.array_equal(s, kept)

    def test_sorted_input_is_read_in_place(self):
        # a sorted copy of 200000 samples alone is 8 bytes a sample; sorted
        # input costs only the 1-byte comparison and the chunked CDF reads
        n, cdf = 200_000, lambda x: math.erf(x / math.sqrt(2.0))  # noqa: E731
        s = np.sort(np.abs(np.random.default_rng(9).standard_normal(n)))
        ks_distance(s[:1000], cdf)  # warm-up: the deferred Chebyshev import
        tracemalloc.start()
        try:
            ks_distance(s, cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n

    def test_identical_samples_use_the_exact_cdf(self):
        assert ks_distance([0.5] * 4, lambda x: 0.25) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_distance([], lambda x: 0.5)

    @pytest.mark.parametrize("samples", [5.0, np.ones((2, 3))])
    def test_samples_must_be_one_dimensional(self, samples):
        # a scalar once raised IndexError, a (2, 3) array numpy's ambiguous-truth ValueError
        with pytest.raises(DomainError, match="1-D"):
            ks_distance(samples, lambda x: 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ks_distance([0.5, bad, 1.0], lambda x: math.erf(x / math.sqrt(2.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_cdf_rejected(self, bad):
        # a NaN CDF once left every gap NaN and returned -inf
        with pytest.raises(DomainError, match="finite on the sample range"):
            ks_distance([1.0, 2.0, 3.0], lambda x: bad)
        with pytest.raises(DomainError, match="finite on the sample range"):
            ks_distance([1.0, 2.0, 3.0], lambda x: bad if x > 2.9 else 0.5)
        with pytest.raises(DomainError, match="finite on the sample range"):
            ks_distance([0.5] * 4, lambda x: bad)


class TestBatchedSpectra:
    @pytest.mark.parametrize("p", list(range(2, 13)) + [20, 40, 59])
    def test_whole_spectrum_matches_lapack_svd(self, p):
        uppers = sample_uppers(p, 300, seed=40 + p)
        expect = np.linalg.svd(uppers_to_full(uppers, p), compute_uv=False)[:, ::2][:, :p // 2]
        spectra = mc.spectra_from_uppers(uppers, p)
        assert spectra.shape == expect.shape
        assert np.all(np.abs(spectra - expect) <= 1e-13 * expect[:, :1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises_domain_error(self, bad):
        uppers = sample_uppers(6, 20, seed=5)
        uppers[7, 5] = bad
        with pytest.raises(DomainError, match="sample 7"):
            mc.spectra_from_uppers(uppers, 6)
        uppers[3, 4] = bad
        with pytest.raises(DomainError, match="sample 3"):
            mc.spectra_from_uppers(uppers, 6)

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3])
    def test_slightly_non_skew_sample_is_rejected_as_by_skew_eigen(self, scale):
        # a sample plus a symmetric matrix scale * max |a_ij| * ones breaks
        # SkewEigen's rule max |a_ij + a_ji| <= 1e-9 max |a_ij| at each scale;
        # the batched solve takes upper triangles, so its input cannot break it
        a = uppers_to_full(sample_uppers(6, 3, seed=5), 6)[1]
        a += scale * np.abs(a).max() * np.ones((6, 6))
        with pytest.raises(DomainError, match="^matrix is not skew-symmetric"):
            SkewEigen(a)

    @pytest.mark.parametrize("width", [5, 7])
    def test_row_width_must_match_order(self, width):
        # width 7 once gave the spectra of the first 6 columns; 5 a bare ValueError
        with pytest.raises(DomainError, match="width 6"):
            mc.spectra_from_uppers(np.ones((3, width)), 4)

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("batch_last", [False, True])
    def test_input_stack_is_left_unchanged(self, count, batch_last):
        # every sample is scaled in place, so the solve works in its own
        # stack; a view of a batch-last array is read as well as a C-ordered one
        uppers = sample_uppers(7, count, seed=12)
        if batch_last:
            uppers = np.ascontiguousarray(uppers.T).T
        kept = uppers.copy()
        mc.spectra_from_uppers(uppers, 7)
        assert np.array_equal(uppers, kept)

    def test_zero_and_empty_stacks(self):
        assert np.array_equal(mc.spectra_from_uppers(np.zeros((3, 10)), 5), np.zeros((3, 2)))
        assert mc.spectra_from_uppers(np.zeros((0, 6)), 4).shape == (0, 2)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170])
    @pytest.mark.parametrize("p", [5, 6])
    def test_spectra_survive_underflowing_and_overflowing_squares(self, p, scale):
        uppers = sample_uppers(p, 20, seed=6)
        expect = mc.spectra_from_uppers(uppers, p)
        mixed = uppers.copy()
        mixed[::2] *= scale  # in-window samples beside scaled ones
        spectra = mc.spectra_from_uppers(mixed, p)
        assert np.array_equal(spectra[1::2], expect[1::2])
        assert np.all(np.abs(spectra[::2] / scale - expect[::2]) <= 1e-13 * expect[::2, :1])

    def test_power_of_two_scale_is_bit_identical(self):
        uppers = sample_uppers(7, 10, seed=9)
        expect = mc.spectra_from_uppers(uppers, 7)
        for k in (-1000, -565, 565, 1000):
            spectra = mc.spectra_from_uppers(np.ldexp(uppers, k), 7)
            assert np.array_equal(np.ldexp(spectra, -k), expect)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_beside_tiny_sample_raises_domain_error(self, bad):
        uppers = sample_uppers(6, 20, seed=5)
        uppers[2] *= 1e-170
        uppers[5, 0] = bad
        with pytest.raises(DomainError, match="sample 5"):
            mc.spectra_from_uppers(uppers, 6)


class TestUppersToFull:
    def test_stack_spectra_match_per_matrix(self):
        uppers = sample_uppers(5, 6, seed=8)
        for a, sigma in zip(uppers_to_full(uppers, 5), mc.spectra_from_uppers(uppers, 5)):
            assert np.allclose(sigma, SkewEigen(a).spectrum, rtol=1e-12)

    def test_batch_shape_and_skewness(self):
        uppers = sample_uppers(4, 7, seed=2)
        stack = uppers_to_full(uppers, 4)
        assert stack.shape == (7, 4, 4)
        assert np.array_equal(stack, -np.transpose(stack, (0, 2, 1)))
