"""Regenerate tests/standardized_refs.json: high-precision references for
the standardized upper tail P(sigma_1 / sqrt(sum sigma_i^2) > x).

Each value is sum_k w_k * (1 - I_{x^2}(a_k, b_k)) with the exact
rational tube weights w_k of tests/oracles.py (Gauss-Jordan, not the
library's builder) and mpmath's regularized ``betainc`` at 600 digits.
The weights alternate in sign and reach 1e25 at p = 59, so the sum
cancels deeply: at 120 digits it goes negative from p = 32 at x = 0.9,
at 200 digits it is wrong from p = 40, and at 400 digits it reads
4.7e-380 at p = 59, x = 0.9, where the value is 1.6e-476.  Each value
is therefore recomputed 100 digits finer and must agree to 30 digits.
Nearer x = 1 the value shrinks faster than the terms: at p = 59 and
60, x = 0.99 it lies below 1e-1200 and 600 digits leave only the
cancellation noise, so a point that fails the check is recomputed at
the next precision in DIGITS.
The x values are the doubles the library is called with, and x^2 is
taken exactly.

Run from the repository root (about a minute):

    PYTHONPATH=src python tests/make_standardized_refs.py
"""

import json
import math
import os

import mpmath

from oracles import hankel_inverse_exact

ORDERS = (24, 27, 32, 40, 45, 48, 59, 60)
POINTS = (1.0 / math.sqrt(2.0), 0.8, 0.9, 0.95, 0.99)
DIGITS = (600, 1000, 1600, 2400)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "standardized_refs.json")


def reference(weights: list, p: int, x: float) -> mpmath.mpf:
    n = p * (p - 1) // 2
    y = mpmath.mpf(x) ** 2
    total = mpmath.mpf(0)
    for k, w in enumerate(weights):
        a = mpmath.mpf(2 * p - 3 - 2 * k) / 2
        b = mpmath.mpf(n - 2 * p + 3 + 2 * k) / 2
        tail = mpmath.betainc(a, b, y, 1, regularized=True)
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


def main() -> None:
    rows = []
    for p in ORDERS:
        _, _, weights = hankel_inverse_exact(p)
        for x in POINTS:
            value, digits = converged(weights, p, x)
            text = mpmath.nstr(value, 25, min_fixed=1, max_fixed=0)
            rows.append({"p": p, "x": x, "value": text, "digits": digits})
    doc = {
        "about": "P(sigma_1 / sqrt(sum sigma_i^2) > x): exact tube weights times "
                 "mpmath betainc at the stated digits (confirmed 100 digits finer); "
                 "regenerate with PYTHONPATH=src python tests/make_standardized_refs.py",
        "references": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
