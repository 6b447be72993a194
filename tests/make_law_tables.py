"""Regenerate the shipped constants of the sigma_1 kernel and the tube weights.

src/skewtail/data/law_tables.txt holds five columns, each double as
exact ``float.hex`` text, so the file round-trips bit for bit:
``[laguerre nodes]`` and ``[laguerre weights]``, the LAGUERRE_NODES-point
Gauss-Laguerre rule; ``[legendre nodes]`` and ``[legendre weights]``, the
LEGENDRE_NODES-point Gauss-Legendre rule on [0, 1]; and ``[switch points]``,
x_8(p) for p = 2 .. 173 on the Gauss-Laguerre rule.  The two rule sizes
are this script's parameters.  The columns are built here by the Newton
steps of tests/oracles.py (``gauss_laguerre_newton``,
``gauss_legendre_newton`` and ``switch_point_newton``); the library's one
reader, ``rmtdist._law_tables``, reads the file once and derives the
Legendre root weights and the recurrence coefficients from it.
``tests/test_rmtdist.py`` rebuilds every entry and compares.

src/skewtail/data/tube_weights.txt holds one row per order p = 4 .. 173:
p, then the 2t - 1 weights w_0 .. w_2t-2 of the standardized law, each the
double nearest the exact rational that ``rmtdist._exact_hankel`` builds in
closed form, as ``float.hex``; the exact weights of every order are checked
against the Euler identity sum(w) = t before they are rounded.  The
library's ``rmtdist._tube_weights`` parses one row per order, on its first
standardized query, so no exact rational is built at run time.  The test
suite compares a spread of rows with the Gauss-Jordan oracle
``hankel_inverse_exact``; ``--check`` compares every row.

Run from the repository root (about 7 s, most of it the exact weights):

    PYTHONPATH=src python tests/make_law_tables.py           # write both files
    PYTHONPATH=src python tests/make_law_tables.py --check   # exit 1 if either is stale
"""

import argparse
import sys

from oracles import gauss_laguerre_newton, gauss_legendre_newton, switch_point_newton
from skewtail import rmtdist

LAGUERRE_NODES = 120
LEGENDRE_NODES = 2 * (rmtdist._MAX_ORDER // 2) + 60  # 2t + 60 at the largest t serves every t

HEADER = """\
# Constants of the sigma_1 kernel, one double per line as float.hex.
# [switch points] holds x_8(p) for p = 2 .. 173 in order.
# Generated by tests/make_law_tables.py from Newton steps; do not edit.
"""

TUBE_HEADER = """\
# Tube weights w_0 .. w_2t-2 of the standardized law: one row per order p = 4 .. 173,
# p, then its 2t - 1 weights as float.hex, each the double nearest the exact rational.
# Generated by tests/make_law_tables.py from rmtdist._exact_hankel; do not edit.
"""


def tables() -> dict[str, list[float]]:
    """Every column of the file, by name, from the Newton builds."""
    columns = {}
    for name, n, rule in (
        ("laguerre", LAGUERRE_NODES, gauss_laguerre_newton),
        ("legendre", LEGENDRE_NODES, gauss_legendre_newton),
    ):
        nodes, weights = rule(n)
        columns[f"{name} nodes"], columns[f"{name} weights"] = nodes.tolist(), weights.tolist()
    columns["switch points"] = [switch_point_newton(p, LAGUERRE_NODES) for p in range(2, rmtdist._MAX_ORDER + 1)]
    return columns


def render(columns: dict[str, list[float]]) -> str:
    lines = [HEADER.rstrip("\n")]
    for name, values in columns.items():
        lines += [f"[{name}]", *(value.hex() for value in values)]
    return "\n".join(lines) + "\n"


def tube_weights() -> dict[int, list[float]]:
    """The rounded tube weights of every order, from the exact rationals,
    each order's checked against the Euler identity sum(w) = t."""
    rows = {}
    for p in range(4, rmtdist._MAX_ORDER + 1):
        exact = rmtdist._exact_hankel(p)[2]
        if sum(exact) != p // 2:
            raise ArithmeticError(f"Euler identity fails at p={p}: sum(w) != {p // 2}")
        rows[p] = [float(w) for w in exact]
    return rows


def render_tube_weights(rows: dict[int, list[float]]) -> str:
    return TUBE_HEADER + "".join(f"{p} {' '.join(w.hex() for w in ws)}\n" for p, ws in rows.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if a committed file differs")
    check = parser.parse_args().check
    stale = 0
    for path, text in ((rmtdist._LAW_TABLES, render(tables())),
                       (rmtdist._TUBE_WEIGHTS, render_tube_weights(tube_weights()))):
        if check:
            with open(path, encoding="ascii") as fh:
                if fh.read() != text:
                    print(f"{path} is stale; regenerate it with "
                          "PYTHONPATH=src python tests/make_law_tables.py", file=sys.stderr)
                    stale = 1
        else:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
    return stale


if __name__ == "__main__":
    sys.exit(main())
