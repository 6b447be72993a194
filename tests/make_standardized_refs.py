"""Regenerate tests/standardized_refs.json: high-precision references for
the standardized upper tail P(sigma_1 / sqrt(sum sigma_i^2) > x).

Each value is sum_k w_k * (1 - I_{x^2}(a_k, b_k)) with the exact
rational tube weights w_k of tests/oracles.py (Gauss-Jordan, not the
library's builder) and mpmath's regularized ``betainc`` at 600 digits.
The weights alternate in sign and reach 1e25 at p = 59, so the sum
cancels deeply: at 120 digits it goes negative from p = 32 at x = 0.9,
at 200 digits it is wrong from p = 40, and at 400 digits it reads
4.7e-380 at p = 59, x = 0.9, where the value is 1.6e-476.  Each value
is therefore recomputed at 700 digits and must agree to 30 digits.
The x values are the doubles the library is called with, and x^2 is
taken exactly.

Run from the repository root (about 20 s):

    PYTHONPATH=src python tests/make_standardized_refs.py
"""

import json
import math
import os

import mpmath

from oracles import hankel_inverse_exact

ORDERS = (24, 32, 40, 48, 59)
POINTS = (1.0 / math.sqrt(2.0), 0.8, 0.9)
DIGITS = 600
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


def main() -> None:
    rows = []
    with mpmath.workdps(DIGITS):
        for p in ORDERS:
            _, _, weights = hankel_inverse_exact(p)
            for x in POINTS:
                value = reference(weights, p, x)
                with mpmath.workdps(DIGITS + 100):
                    check = reference(weights, p, x)
                if abs(check - value) > mpmath.mpf(10) ** -30 * abs(check):
                    raise ArithmeticError(f"p={p}, x={x}: {DIGITS} digits do not suffice")
                text = mpmath.nstr(value, 25, min_fixed=1, max_fixed=0)
                rows.append({"p": p, "x": x, "value": text})
    doc = {
        "about": "P(sigma_1 / sqrt(sum sigma_i^2) > x): exact tube weights times "
                 f"mpmath betainc at {DIGITS} digits; regenerate with "
                 "PYTHONPATH=src python tests/make_standardized_refs.py",
        "references": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
