"""Regenerate the stored references the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/make_refs.py

Writes three files under ``bench/refs/``:

* ``laws.json``: high-precision values of the sigma_1 distribution
  function at four quantile levels and of the standardized upper tail
  at three thresholds, for every order the ``laws`` workload sweeps,
  plus the p=10 standardized values ``validate`` prints.  They are
  computed with mpmath at 200 digits (checked against 300 digits) from
  the defining integrals: the Hankel moment determinant of lower
  incomplete gammas for the distribution function, and the tube-formula
  weights from a high-precision inverse of the gamma gram matrix for
  the standardized tail.  No float code of the package is used.  Each
  order above the tested range (p > 18) is also checked here against a
  Monte-Carlo sample of real matrices, so the references do not rest on
  the same formula alone.
* ``null_sigma1.json``: quantiles of sigma_1 under the null, for the
  orders m - 1 of the ``league`` sheets, drawn once with
  ``mc.sample_spectra`` (which samples actual matrices) under a fixed
  reference seed.
* ``central_league_1997.golden.json``: ``analyze --format json`` on the
  bundled Central League sheet, the golden file for that report.

The benchmark only reads these files; it never regenerates them.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from skewtail import cli, io, mc  # noqa: E402

import workloads as spec  # noqa: E402

DPS = 200
CHECK_DPS = 300
REF_SEED = 20100314
MC_SAMPLES = 40_000
MC_CHUNK = 2_000
NULL_QUANTILES = 2001


def cdf_mp(p: int, x) -> mp.mpf:
    """P(sigma_1 < x) as det[gamma(nu/2, x^2/2)] / det[Gamma(nu/2)], nu = 2p - 2i - 2j + 1."""
    t = p // 2
    s = mp.mpf(x) ** 2 / 2
    nus = range(2 * p - 4 * t + 1, 2 * p - 3 + 1, 2)
    low = {nu: mp.gammainc(mp.mpf(nu) / 2, 0, s) for nu in nus}
    full = {nu: mp.gamma(mp.mpf(nu) / 2) for nu in nus}
    a = mp.matrix(t, t)
    b = mp.matrix(t, t)
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            nu = 2 * p - 2 * i - 2 * j + 1
            a[i - 1, j - 1] = low[nu]
            b[i - 1, j - 1] = full[nu]
    return mp.det(a) / mp.det(b)


def standardized_mp(p: int, x) -> mp.mpf:
    """Tube-formula upper tail of sigma_1 / sqrt(sum sigma_i^2) at x >= 1/sqrt(2)."""
    t = p // 2
    n = p * (p - 1) // 2
    g = mp.matrix(t, t)
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            g[i - 1, j - 1] = mp.gamma(p - i - j + mp.mpf(1) / 2)
    ginv = mp.inverse(g)
    y = mp.mpf(x) ** 2
    total = mp.mpf(0)
    for k in range(2 * t - 1):
        w = mp.fsum(
            ginv[i - 1, k + 2 - i - 1] * g[i - 1, k + 2 - i - 1]
            for i in range(max(1, k + 2 - t), min(t, k + 1) + 1)
        )
        a = mp.mpf(2 * p - 3 - 2 * k) / 2
        b = mp.mpf(n - 2 * p + 3 + 2 * k) / 2
        total += w * mp.betainc(a, b, y, 1, regularized=True)
    return total


def checked(fn, *args) -> mp.mpf:
    with mp.workdps(CHECK_DPS):
        hi = fn(*args)
    with mp.workdps(DPS):
        lo = fn(*args)
    if abs(lo - hi) > mp.mpf(10) ** (-30) * max(abs(hi), mp.mpf(10) ** (-300)):
        raise ArithmeticError(f"{fn.__name__}{args}: {DPS} and {CHECK_DPS} digits disagree")
    return hi


def quantile_x(p: int, q: float) -> float:
    """x with P(sigma_1 < x) = q, rounded to 12 significant digits."""
    with mp.workdps(60):
        lo, hi = mp.mpf(0), mp.mpf(4 * math.sqrt(p) + 10)
        for _ in range(80):
            mid = (lo + hi) / 2
            if cdf_mp(p, mid) < q:
                lo = mid
            else:
                hi = mid
        return float(f"{float((lo + hi) / 2):.12g}")


def mc_check(p: int, cdf_points, std_points) -> None:
    """Fail loudly if a reference disagrees with real sampled matrices by > 5 standard errors."""
    spectra = np.concatenate([
        mc.sample_spectra(p, MC_CHUNK, REF_SEED + 1000 * p + c)
        for c in range(MC_SAMPLES // MC_CHUNK)
    ])
    sigma1 = spectra[:, 0]
    ratio = sigma1 / np.sqrt(np.sum(spectra**2, axis=1))
    n = sigma1.size
    for x, ref in cdf_points:
        emp = float(np.mean(sigma1 < x))
        se = math.sqrt(max(ref * (1 - ref), 1.0 / n) / n)
        if abs(emp - ref) > 5 * se:
            raise ArithmeticError(f"cdf ref p={p} x={x}: {ref} vs Monte Carlo {emp}")
    for x, ref in std_points:
        emp = float(np.mean(ratio > x))
        se = math.sqrt(max(ref * (1 - ref), 1.0 / n) / n)
        if abs(emp - ref) > 5 * se:
            raise ArithmeticError(f"standardized ref p={p} x={x}: {ref} vs Monte Carlo {emp}")


def laws_refs() -> dict:
    cdf, std = [], []
    for p in spec.LAW_ORDERS:
        cdf_p, std_p = [], []
        for q in spec.QUANTILE_LEVELS:
            x = quantile_x(p, q)
            value = checked(cdf_mp, p, x)
            cdf_p.append({"p": p, "x": x, "q": q, "ref": mp.nstr(value, 30)})
        for x in spec.STD_POINTS:
            value = checked(standardized_mp, p, x)
            std_p.append({"p": p, "x": x, "ref": mp.nstr(value, 30)})
        if p > spec.TESTED_MAX_ORDER:
            mc_check(
                p,
                [(c["x"], float(c["ref"])) for c in cdf_p],
                [(s["x"], float(s["ref"])) for s in std_p],
            )
        cdf += cdf_p
        std += std_p
        print(f"laws refs p={p} done", flush=True)
    validate_std = [
        {"p": spec.VALIDATE_ORDER, "x": x, "ref": mp.nstr(checked(standardized_mp, spec.VALIDATE_ORDER, x), 30)}
        for x in spec.VALIDATE_STD_POINTS
    ]
    return {"dps": DPS, "largest_sv_cdf": cdf, "standardized_sv_upper": std, "validate_standardized": validate_std}


def null_refs() -> dict:
    out = {}
    levels = np.linspace(0.0, 1.0, NULL_QUANTILES)
    for order in spec.NULL_ORDERS:
        sigma1 = np.concatenate([
            mc.sample_spectra(order, MC_CHUNK, REF_SEED + c)[:, 0]
            for c in range(MC_SAMPLES // MC_CHUNK)
        ])
        out[str(order)] = [float(f"{v:.10g}") for v in np.quantile(sigma1, levels)]
        print(f"null sigma1 order={order} done", flush=True)
    return {"seed": REF_SEED, "samples": MC_SAMPLES, "quantile_levels": NULL_QUANTILES, "quantiles": out}


def golden_report() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = cli.main(["analyze", str(io.central_league_1997_path()), "--n-games", "27",
                         "--format", "json", "--out", out])
        if code != 0:
            raise RuntimeError(f"analyze exited {code}")
        with open(out, encoding="utf-8") as fh:
            return fh.read()


def main() -> None:
    refs = os.path.join(HERE, "refs")
    os.makedirs(refs, exist_ok=True)
    with open(os.path.join(refs, "central_league_1997.golden.json"), "w", encoding="utf-8") as fh:
        fh.write(golden_report())
    with open(os.path.join(refs, "laws.json"), "w", encoding="utf-8") as fh:
        json.dump(laws_refs(), fh, indent=1)
        fh.write("\n")
    with open(os.path.join(refs, "null_sigma1.json"), "w", encoding="utf-8") as fh:
        json.dump(null_refs(), fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
