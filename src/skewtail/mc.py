"""Seeded Monte-Carlo sampling of skew-symmetric Gaussian matrices.

This is the empirical oracle for every analytic law in the package:
draw matrices with i.i.d. standard-normal upper triangles, extract the
paired singular spectrum, and compare tail frequencies against the
closed-form distributions.

Both spectral solves scale each matrix by a power of two, which is
exact, to max |a_ij| in [1/2, 1), and check its spectrum against the
energy identity sum(sigma^2) = ||A||_F^2 / 2 to relative 1e-8.  The
batched solve, :func:`spectra_from_uppers`, takes upper triangles, so its
input is skew by construction; :class:`SkewEigen`, the single solve that
also keeps the top plane, checks that a (p, p) array is skew and is one
Hermitian eigen-solve of iA.  Both are within 1e-13 * sigma_1 of LAPACK's SVD.

The samplers draw and solve one block of samples at a time, serially, in
buffers allocated once per call: fresh ones per block made a cold run fault
them in again, ~460 minor page faults per block.  Reproducibility contract:
under seed ``s``, sample ``i`` of order ``p`` is row ``i % 256`` of the
(256, p(p-1)/2) standard-normal block that numpy's Philox draws at counter
``(0, 0, 0, i // 256)`` with a key derived from ``s``, so a draw depends
only on (seed, order, sample index), whatever the sample count or block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, MultiplicityError, PairingError, whole

_PAIR_RTOL = 1e-8
#: Largest max |a_ij + a_ji| / max |a_ij| that :class:`SkewEigen` accepts as skew.
_SKEW_RTOL = 1e-9
#: Samples per Philox block; changing it changes every draw of every seed.
_STREAM_BLOCK = 256
#: Samples per solve batch; a multiple of _STREAM_BLOCK, so no Philox block is drawn twice.
_BLOCK = 1024
#: Degree of :func:`ks_distance`'s Chebyshev interpolant of the CDF.
_KS_DEGREE = 128
#: Samples per chunk of :func:`ks_distance`'s CDF evaluation and gaps.
_KS_CHUNK = 1 << 14


@dataclass(frozen=True)
class TopPlane:
    """The invariant 2-plane of the leading singular value.

    Satisfies A v = sigma1 u and A u = -sigma1 v with u, v orthonormal;
    the in-plane rotation ambiguity is fixed so that u's largest-
    magnitude component is positive and as large as the plane allows.
    """

    sigma1: float
    u: np.ndarray
    v: np.ndarray


def _triangle(p: int) -> int:
    """Length p(p-1)/2 of the upper triangle of an order-p matrix."""
    p = whole("matrix order", p, 2)
    return p * (p - 1) // 2


def _key(seed: int) -> np.ndarray:
    """The Philox key of ``seed``: two 64-bit words of its SeedSequence state."""
    return np.random.SeedSequence(whole("seed", seed, 0)).generate_state(2, np.uint64)


def _rows(key: np.ndarray, start: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with rows [start, start + len(out)) of the sample layout, for a
    ``start`` on a Philox block edge; numpy draws in C order, so a cut last
    block holds that block's first rows bit for bit."""
    for j in range(0, len(out), _STREAM_BLOCK):
        philox = np.random.Philox(key=key, counter=[0, 0, 0, (start + j) // _STREAM_BLOCK])
        np.random.Generator(philox).standard_normal(out=out[j:j + _STREAM_BLOCK])
    return out


class _Workspace:
    """Flat buffers for batched solves of up to ``count`` order-``p`` samples: the Philox rows,
    the (p, p, B) stack, which also holds the reduction's v_k and z_k, and M'M.  ``cut`` views
    a buffer's front as a C-contiguous array of any smaller batch, laid out as a fresh one."""

    def __init__(self, p: int, count: int):
        self.p, w, t = p, max(count, 2), p // 2
        self._flat = {"rows": np.empty(w * _triangle(p)), "stack": np.empty(p * p * w),
                      "mtm": np.zeros(w * t * t)}  # a solve writes only its band

    def cut(self, name: str, *shape: int) -> np.ndarray:
        return self._flat[name][:math.prod(shape)].reshape(shape)

    def stack(self, b: int) -> np.ndarray:
        """The (p, p, B) stack of a batch of ``b``, to fill by broadcasting;
        B = 2 for b = 1, as einsum sums a unit batch axis in another order."""
        return self.cut("stack", self.p, self.p, b + (b == 1))


def _sample_blocks(p: int, count: int, seed: int, width: int,
                   per_block: Callable[[np.ndarray, _Workspace], np.ndarray]) -> np.ndarray:
    """A (count, width) array whose rows [s, e) are ``per_block`` of the
    upper triangles of samples [s, e), drawn one block of ``_BLOCK``
    samples at a time into one workspace."""
    n = _triangle(p)
    count, key = whole("count", count, 1), _key(seed)
    work = _Workspace(p, min(_BLOCK, count))
    out = np.empty((count, width))
    for s in range(0, count, _BLOCK):
        rows = _rows(key, s, work.cut("rows", min(_BLOCK, count - s), n))
        out[s:s + _BLOCK] = per_block(rows, work)
    return out


def sample_uppers(p: int, count: int, seed: int) -> np.ndarray:
    """Upper triangles of samples 0 .. count - 1, shape (count, p(p-1)/2);
    sample i is the same for any count."""
    return _sample_blocks(p, count, seed, _triangle(p), lambda rows, work: rows)


def _skew_subdiagonal(a: np.ndarray, e: np.ndarray) -> None:
    """Write into ``e`` the sub-diagonal magnitudes e_0..e_{p-2} of a skew
    tridiagonal Q'AQ, for a (p, p, B) stack of skew-symmetric matrices
    laid out batch last, which the reduction overwrites.

    Step k of p - 2 Householder steps H = I - beta v v' takes its column
    and its matvec from A_k = A + V Z' - Z V', whose panels V, Z hold the
    earlier steps' v and z = beta A_k v: for a skew A_k, v'A_k v = 0, so
    H A_k H = A_k + v z' - z v' with no correction term.  As in LAPACK's
    dsytrd, the panels live where no later step reads: v_k in a[k+1:, k]
    and z_k in a[k, k+1:], so V is a[r, :k] and Z' is a[:k, r].  A's trailing
    block is never written, which is what keeps the step cheap at large p.
    """
    p, _, b = a.shape
    for k in range(p - 1):
        r = slice(k + 1, p)
        v, zt = a[r, :k], a[:k, r]
        x = a[r, k] + _matvec(v, a[:k, k]) - np.einsum("jib,jb->ib", zt, a[k, :k])
        e[k] = np.sqrt(np.einsum("ib,ib->b", x, x))
        if k == p - 2:
            return
        head = x[0].copy()
        x[0] += np.copysign(e[k], head)  # x is now the Householder vector
        scale = e[k] * (e[k] + np.abs(head))
        beta = np.divide(1.0, scale, out=np.zeros(b), where=scale > 0.0)
        ax = _matvec(a[r, r], x)
        ax += _matvec(v, np.einsum("jib,ib->jb", zt, x))
        ax -= np.einsum("jib,jb->ib", zt, np.einsum("ijb,ib->jb", v, x))
        a[r, k] = x
        np.multiply(beta, ax, out=a[k, r])


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x per sample, for an (n, k, B) stack and a (k, B) batch of vectors."""
    return np.einsum("ijb,jb->ib", m, x)


def _spectra(a: np.ndarray, work: _Workspace) -> np.ndarray:
    """Singular spectra, shape (B, p // 2) and descending, of a (p, p, B)
    stack of skew-symmetric matrices laid out batch last, B != 1; the
    stack is ``work``'s, scaled in place, then overwritten by the reduction.

    The sub-diagonal of the reduced tridiagonal splits into a t x t
    (p even) or (t + 1) x t (p odd) lower bidiagonal M with diagonal e_0,
    e_2, ... and sub-diagonal e_1, e_3, ...; sigma^2 = eigvalsh(M'M).
    """
    p, _, b = a.shape
    shift = _unit_scaled(a, axis=(0, 1))
    energy = 0.5 * np.einsum("ijb,ijb->b", a, a)
    finite = np.isfinite(energy)
    if not finite.all():
        raise DomainError(f"sample {int(np.argmin(finite))}: matrix entries must be finite")
    t = p // 2
    e = np.zeros((2 * t, b))  # even p: a zero last sub-diagonal entry
    _skew_subdiagonal(a, e)
    d, f = e[0::2].T, e[1::2].T
    mtm = work.cut("mtm", b, t, t)
    i = np.arange(t)
    mtm[:, i, i] = d * d + f * f
    mtm[:, i[1:], i[:-1]] = mtm[:, i[:-1], i[1:]] = f[:, :-1] * d[:, 1:]
    sigma2 = np.maximum(np.linalg.eigvalsh(mtm), 0.0)
    _check_energy(sigma2, energy)
    return np.ldexp(np.sqrt(sigma2)[:, ::-1], shift[:, None])


def _unit_scaled(a: np.ndarray, axis) -> np.ndarray:
    """Scale ``a`` in place by 2^-k, with k chosen per slice so that
    max |a| over ``axis`` lies in [1/2, 1), and return k; exact, and k = 0
    for an all-zero or a non-finite slice."""
    peak = np.maximum(a.max(axis=axis, keepdims=True), -a.min(axis=axis, keepdims=True))
    _, k = np.frexp(peak)
    np.ldexp(a, -k, out=a)
    return k.ravel()


def _check_energy(sigma2: np.ndarray, energy: np.ndarray) -> None:
    """Raise :class:`PairingError` for the first row of squared singular
    values whose sum misses its matrix's energy ||A||_F^2 / 2 by relative
    ``_PAIR_RTOL``."""
    gap = np.abs(sigma2.sum(axis=1) - energy)
    bad = ~(gap <= _PAIR_RTOL * energy)
    if bad.any():
        j = int(np.argmax(bad))
        raise PairingError(
            f"sample {j}: sum of sigma^2 {float(sigma2[j].sum()):.17g} misses "
            f"||A||_F^2 / 2 = {float(energy[j]):.17g} by {float(gap[j]):.3e}"
        )


def spectra_from_uppers(uppers: np.ndarray, p: int) -> np.ndarray:
    """Batched singular spectra of a (B, p(p-1)/2) array of upper
    triangles, shape (B, p // 2), descending along axis 1.

    Route: a skew Householder tridiagonalization with delayed updates (Ward &
    Gray 1978; the panel form of LAPACK's dlatrd) of their (p, p, B) stack, batch
    last, then one t x t eigen-solve of M'M for the bidiagonal M it leaves.  Each
    sample is scaled by a power of two to max |a_ij| in [1/2, 1), which is exact,
    so every singular value is within 1e-13 * sigma_1 of LAPACK's SVD, also where
    squares would underflow or overflow.  Raises :class:`DomainError` for rows not
    of width p(p-1)/2 or with non-finite entries, and :class:`PairingError` when
    sum(sigma^2) misses ||A||_F^2 / 2 by relative 1e-8; the input is never written."""
    u = np.atleast_2d(np.asarray(uppers, dtype=float))
    if u.ndim != 2 or u.shape[1] != _triangle(p):
        raise DomainError(f"order {p} needs rows of width {_triangle(p)}, got shape {u.shape}")
    return _solve_uppers(u, _Workspace(p, len(u)))


def _solve_uppers(uppers: np.ndarray, work: _Workspace) -> np.ndarray:
    """Spectra of a (B, p(p-1)/2) array of upper triangles, solved in ``work``."""
    p, a = work.p, work.stack(len(uppers))
    start = 0
    for i in range(p):
        stop = start + p - 1 - i
        a[i, i] = 0.0
        a[i, i + 1:] = uppers[:, start:stop].T
        np.negative(a[i, i + 1:], out=a[i + 1:, i])
        start = stop
    return _spectra(a, work)[:len(uppers)]


def sample_spectra(p: int, count: int, seed: int) -> np.ndarray:
    """Singular spectra of ``count`` seeded samples, shape (count, t); each
    block of samples is drawn and solved in one pass."""
    return _sample_blocks(p, count, seed, p // 2, _solve_uppers)


def sample_tops(p: int, count: int, seed: int) -> np.ndarray:
    """(sigma_1, sum sigma^2) of ``count`` seeded samples, shape (count, 2): bit for bit
    column 0 and the row sums of squares of :func:`sample_spectra`, one block held at a time."""
    def tops(rows: np.ndarray, work: _Workspace) -> np.ndarray:
        sigma = _solve_uppers(rows, work)
        return np.column_stack((sigma[:, 0], np.sum(sigma**2, axis=1)))

    return _sample_blocks(p, count, seed, 2, tops)


class SkewEigen:
    """One Hermitian eigen-solve of iA for a (p, p) array A: the t largest of
    its eigenvalues +-sigma_k (and 0 for odd order), descending, are
    ``spectrum``, and the eigenvector of sigma_1 spans the top plane.  Raises
    :class:`DomainError` unless A is square, p >= 2, finite and skew to relative
    ``_SKEW_RTOL``; the solve is of the skew completion of A's strict upper
    triangle, scaled by a power of two to max |a_ij| in [1/2, 1), which is exact.
    Raises :class:`PairingError` if sum(sigma^2) misses ||A||_F^2 / 2 and :class:`DataError`
    if sigma_1 overflows.  Both arrays are read-only, so a cached solve cannot be altered in place."""

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or len(a) < 2:
            raise DomainError(f"expected a square matrix of order >= 2, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            resid = float(np.max(np.abs(a + a.T)))
        if resid > _SKEW_RTOL * float(np.max(np.abs(a))):
            raise DomainError(f"matrix is not skew-symmetric: max |a_ij + a_ji| = {resid:.3e}")
        upper = np.triu(a, 1)
        scaled = upper - upper.T
        shift = int(_unit_scaled(scaled, axis=None)[0])
        energy = 0.5 * np.sum(scaled * scaled)
        eigs, vecs = np.linalg.eigh(1j * scaled)
        sigma = np.maximum(eigs[::-1][:len(a) // 2], 0.0)
        _check_energy((sigma * sigma)[None, :], np.array([energy]))
        with np.errstate(over="ignore"):
            self.spectrum = np.ldexp(sigma, shift)
        if not np.isfinite(self.spectrum[0]):
            raise DataError(f"sigma_1 = {float(sigma[0])!r} * 2^{shift} overflows double precision")
        self.top_vector = vecs[:, -1]
        self.spectrum.flags.writeable = self.top_vector.flags.writeable = False

    def top_plane(self) -> TopPlane:
        """Leading singular value and its oriented invariant 2-plane.

        Requires the top pair to be simple: sigma1 > 0 and separated from
        sigma2 by relative 1e-8, otherwise the plane is not well defined and
        a :class:`MultiplicityError` is raised.
        """
        sigma = self.spectrum
        sigma1 = float(sigma[0])
        sigma2 = float(sigma[1]) if sigma.size > 1 else 0.0
        if sigma1 <= 0.0 or (sigma1 - sigma2) <= _PAIR_RTOL * sigma1:
            raise MultiplicityError(
                f"top singular value is not a simple pair (sigma1={sigma1!r}, sigma2={sigma2!r})"
            )
        # iA z = sigma1 z with z = v + iu is A v = sigma1 u and A u = -sigma1 v;
        # fix the in-plane rotation, the phase of z: align u with the coordinate
        # of largest joint amplitude, where the product leaves v exactly 0
        z = self.top_vector
        istar = int(np.argmax(np.abs(z)))
        z = z * (1j * np.conj(z[istar]))
        u, v = (w / float(np.linalg.norm(w)) for w in (z.imag, z.real))
        return TopPlane(sigma1=sigma1, u=u, v=v)


def empirical_upper(samples, x: float) -> float:
    """Fraction of samples strictly above x; a NaN sample or x is a DomainError."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise DomainError("empirical_upper requires at least one sample")
    if math.isnan(x) or np.isnan(s).any():
        raise DomainError("empirical_upper requires samples and a threshold that are not NaN")
    return float(np.mean(s > x))


def binomial_standard_error(fraction: float, count: int) -> float:
    """Standard error sqrt(f(1-f)/N) of an empirical fraction."""
    count = whole("count", count, 1)
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must be in [0, 1], got {fraction!r}")
    return math.sqrt(fraction * (1.0 - fraction) / count)


def ks_distance(samples, cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF.

    The CDF is evaluated at the ``_KS_DEGREE + 1`` Chebyshev points of the
    sample range (at the samples if all are equal), and its interpolant is
    read at every sample, ``_KS_CHUNK`` sorted samples at a time; sorted
    input is read in place, never written, and other input sorted in a copy.
    For the sigma_1 law that matches the exact CDF to about 1e-12 for
    p <= 10; from p ~ 20 the error is that of the CDF's own evaluation.
    Raises :class:`DomainError` unless the samples are a non-empty 1-D
    array, and for a non-finite sample or CDF value.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise DomainError(f"ks_distance requires a 1-D array of samples, got shape {s.shape}")
    if np.any(s[1:] < s[:-1]):  # False at a NaN, which the finiteness check meets
        s = np.sort(s)
    n = s.size
    if n == 0:
        raise DomainError("ks_distance requires at least one sample")
    if not np.all(np.isfinite(s)):
        raise DomainError("ks_distance requires finite samples")

    def law(xs: np.ndarray) -> np.ndarray:
        f = np.array([cdf(x) for x in xs])
        if not np.all(np.isfinite(f)):  # checked before a non-finite node spoils the interpolant
            raise DomainError("ks_distance requires a CDF that is finite on the sample range")
        return f

    if s[0] != s[-1]:
        from numpy.polynomial import Chebyshev  # deferred: keeps it out of `import skewtail`

        law = Chebyshev.interpolate(law, _KS_DEGREE, domain=[s[0], s[-1]])
    gap = -math.inf
    for start in range(0, n, _KS_CHUNK):  # elementwise, so chunking changes no bit
        f = law(s[start:start + _KS_CHUNK])
        i = np.arange(start + 1, start + f.size + 1)
        gap = max(gap, np.max(i / n - f), np.max(f - (i - 1) / n))
    return float(gap)
