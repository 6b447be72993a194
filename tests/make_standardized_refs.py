"""Regenerate the high-precision references of the two exact laws.

tests/standardized_refs.json holds the standardized upper tail
P(sigma_1 / sqrt(sum sigma_i^2) > x).  Each value is
sum_k w_k * (1 - I_{x^2}(a_k, b_k)) with the exact rational tube
weights w_k of tests/oracles.py (Gauss-Jordan, not the library's
builder) and mpmath's regularized ``betainc`` at 600 digits.  Each
tail is taken as I_{1-x^2}(b_k, a_k), a series with no subtraction.
The form ``betainc(a, b, x^2, 1)`` subtracts two values near B(a, b)
instead: with it the sum went negative at 120 digits from p = 32 at
x = 0.9 and needed 1600 digits at p = 59, x = 0.99, while the reflected
form already gives the x = 0.9 values of p = 32 and 59 at 60 digits.
Each value is recomputed 100 digits finer and must agree to 30 digits;
a point that fails the check is recomputed at the next precision in
DIGITS.
The x values are the doubles the library is called with, and x^2 is
taken exactly.

tests/sigma1_refs.json holds two references of sigma_1:
* "hankel": P(sigma_1 < x) = d_p det[2^s_ij gamma(s_ij, x^2/2)] with
  s_ij = p - 3/2 - i - j (0-based i, j) and d_p = 1 / (2^(p(p-1)/4)
  prod Gamma(i/2)), i from 1 (even p) or 2 (odd p) to p, and the upper
  tail 1 minus it, both from one mpmath determinant;
* "trace": the tail expansion sum_k w_k Q(p - 3/2 - k, x^2/2) with the
  same exact tube weights and mpmath's regularized upper ``gammainc``,
  which is E #{i : sigma_i > x}.
Both cancel deeply (the determinant needs 800 digits at p = 173), so
each value is recomputed at double the precision until two runs agree
to 25 digits.

Run from the repository root (about nine minutes on a 2-CPU box):

    PYTHONPATH=src python tests/make_standardized_refs.py
"""

import json
import math
import os

import mpmath

from oracles import hankel_inverse_exact

ORDERS = (24, 27, 32, 40, 45, 48, 59, 60)
POINTS = (1.0 / math.sqrt(2.0), 0.8, 0.9, 0.95, 0.99)
#: orders above 60, up to the laws' bound p = 173, at the thresholds where
#: the value crosses the double floor (below 1e-300 from p = 79 on)
HIGH_ORDERS = (64, 70, 79, 80, 100, 140, 173)
HIGH_POINTS = (1.0 / math.sqrt(2.0), 0.75, 0.8)
DIGITS = (600, 1000, 1600, 2400)
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "standardized_refs.json")
SIGMA1_OUT = os.path.join(HERE, "sigma1_refs.json")
#: (p, x) of the Hankel-determinant references: tails near 1e-8 to 1e-17
#: at p = 16 .. 60, and x at the upper-tail levels 0.99, 0.5, 1e-3, 1e-8
#: and 1e-15 at p = 24 .. 173 (the first two only below p = 80)
HANKEL_POINTS = (
    (16, 10.3), (18, 11.19), (20, 11.9), (24, 11.8), (30, 13.0), (40, 16.0), (59, 18.5), (60, 19.49),
    (24, 7.49), (24, 8.62), (40, 10.55), (40, 11.58), (59, 13.4), (59, 14.37),
    (80, 16.03), (80, 16.96), (80, 18.45), (80, 19.89), (80, 21.37),
    (100, 18.22), (100, 19.11), (100, 20.55), (100, 21.94), (100, 23.37),
    (140, 21.99), (140, 22.83), (140, 24.19), (140, 25.51), (140, 26.87),
    (173, 24.69), (173, 25.5), (173, 26.82), (173, 28.09), (173, 29.41),
)
#: (p, x) of the tail-expansion references: x = c sqrt(p) on a grid of c
#: for every p = 4 .. 60, and points from the bulk to the deep tail above
TRACE_POINTS = tuple(
    (p, round(c * math.sqrt(p), 4)) for p in range(4, 61) for c in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
) + (
    (59, 1.0), (60, 19.49), (80, 16.96), (80, 21.37), (100, 19.11), (100, 23.37),
    (140, 22.83), (140, 25.66), (173, 25.5), (173, 30.31),
)


def reference(weights: list, p: int, x: float) -> mpmath.mpf:
    n = p * (p - 1) // 2
    y = mpmath.mpf(x) ** 2
    total = mpmath.mpf(0)
    for k, w in enumerate(weights):
        a = mpmath.mpf(2 * p - 3 - 2 * k) / 2
        b = mpmath.mpf(n - 2 * p + 3 + 2 * k) / 2
        tail = mpmath.betainc(b, a, 0, 1 - y, regularized=True)  # = 1 - I_y(a, b)
        total += mpmath.mpf(w.numerator) / w.denominator * tail
    return total


def converged(weights: list, p: int, x: float) -> tuple[mpmath.mpf, int]:
    """The reference at the first precision in DIGITS that a run 100
    digits finer confirms to 30 digits, and that precision."""
    for digits in DIGITS:
        with mpmath.workdps(digits):
            value = reference(weights, p, x)
            with mpmath.workdps(digits + 100):
                check = reference(weights, p, x)
            if abs(check - value) <= mpmath.mpf(10) ** -30 * abs(check):
                return value, digits
    raise ArithmeticError(f"p={p}, x={x}: {DIGITS[-1]} digits do not suffice")


def hankel_cdf(p: int, x: float) -> mpmath.mpf:
    t = p // 2
    half_y = mpmath.mpf(x) ** 2 / 2
    entries = []
    for k in range(2 * t - 1):
        s = mpmath.mpf(2 * p - 3 - 2 * k) / 2
        entries.append(2**s * mpmath.gammainc(s, 0, half_y))
    det = mpmath.det(mpmath.matrix([[entries[i + j] for j in range(t)] for i in range(t)]))
    norm = mpmath.mpf(2) ** (mpmath.mpf(p * (p - 1)) / 4)
    for i in range(1 if p % 2 == 0 else 2, p + 1):
        norm *= mpmath.gamma(mpmath.mpf(i) / 2)
    return det / norm


def tail_expansion(weights: list, p: int, x: float) -> mpmath.mpf:
    half_y = mpmath.mpf(x) ** 2 / 2
    total = mpmath.mpf(0)
    for k, w in enumerate(weights):
        s = mpmath.mpf(2 * p - 3 - 2 * k) / 2
        total += mpmath.mpf(w.numerator) / w.denominator * mpmath.gammainc(s, half_y, mpmath.inf, regularized=True)
    return total


def doubled(f, digits: int = 80) -> tuple[list, int]:
    """f()'s values at the first precision from ``digits`` up, doubling,
    that the next one confirms to 25 digits, and that precision.  A zero
    confirms nothing: mpmath's determinant reads 0 where the Hankel
    matrix is singular to the working precision."""
    with mpmath.workdps(digits):
        values = f()
    while True:
        with mpmath.workdps(2 * digits):
            finer = f()
        if all(b != 0 and abs(a - b) <= mpmath.mpf(10) ** -25 * abs(b) for a, b in zip(values, finer)):
            return values, digits
        values, digits = finer, 2 * digits


def text(value: mpmath.mpf) -> str:
    return mpmath.nstr(value, 25, min_fixed=1, max_fixed=0)


def sigma1_refs() -> dict:
    hankel = []
    for p, x in HANKEL_POINTS:
        def cdf_and_tail(p=p, x=x):
            cdf = hankel_cdf(p, x)
            return [cdf, 1 - cdf]

        (cdf, tail), digits = doubled(cdf_and_tail)
        hankel.append({"p": p, "x": x, "cdf": text(cdf), "tail": text(tail), "digits": digits})
    trace, weights = [], {}
    for p, x in TRACE_POINTS:
        if p not in weights:
            weights[p] = hankel_inverse_exact(p)[2]
        (value,), digits = doubled(lambda p=p, x=x: [tail_expansion(weights[p], p, x)], 60)
        trace.append({"p": p, "x": x, "value": text(value), "digits": digits})
    return {
        "about": "sigma_1: 'hankel' holds P(sigma_1 < x) and P(sigma_1 > x) from an mpmath "
                 "Hankel determinant, 'trace' the tail expansion with exact tube weights, "
                 "E #{i : sigma_i > x}; each at the stated digits, confirmed at double that; "
                 "regenerate with PYTHONPATH=src python tests/make_standardized_refs.py",
        "hankel": hankel,
        "trace": trace,
    }


def standardized_refs() -> dict:
    rows = []
    for orders, points in ((ORDERS, POINTS), (HIGH_ORDERS, HIGH_POINTS)):
        for p in orders:
            _, _, weights = hankel_inverse_exact(p)
            for x in points:
                value, digits = converged(weights, p, x)
                rows.append({"p": p, "x": x, "value": text(value), "digits": digits})
    return {
        "about": "P(sigma_1 / sqrt(sum sigma_i^2) > x): exact tube weights times "
                 "mpmath betainc at the stated digits (confirmed 100 digits finer); "
                 "regenerate with PYTHONPATH=src python tests/make_standardized_refs.py",
        "references": rows,
    }


def write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main() -> None:
    write(OUT, standardized_refs())
    write(SIGMA1_OUT, sigma1_refs())


if __name__ == "__main__":
    main()
