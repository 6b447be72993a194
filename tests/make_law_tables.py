"""Regenerate the shipped constants of both exact laws.

src/skewtail/data/law_tables.txt holds one double per line as exact
``float.hex`` text, so the file round-trips bit for bit, in sections that
each open with a ``[name]`` line.  First the five of the sigma_1 kernel:
``[laguerre nodes]`` and ``[laguerre weights]``, the LAGUERRE_NODES-point
Gauss-Laguerre rule; ``[legendre nodes]`` and ``[legendre weights]``, the
LEGENDRE_NODES-point Gauss-Legendre rule on [0, 1]; and ``[switch points]``,
x_8(p) for p = 2 .. 173 on the Gauss-Laguerre rule.  The two rule sizes
are this script's parameters.  These are built here by the Newton
steps of tests/oracles.py (``gauss_laguerre_newton``,
``gauss_legendre_newton`` and ``switch_point_newton``).  Then one
``[tube weights p]`` section per order p = 4 .. 173: the 2t - 1 weights
w_0 .. w_2t-2 of the standardized law, each the double nearest the exact
rational that ``hankel_closed_form`` in tests/oracles.py builds; the exact
weights of every order are checked against the Euler identity sum(w) = t
before they are rounded.

The library's one reader, ``rmtdist._law_tables``, reads the file once, on
the first query of either law: it derives the Legendre root weights and
the recurrence coefficients, and gathers the tube weights by order, so no
exact rational is built at run time.  ``tests/test_rmtdist.py`` rebuilds
every kernel entry and compares a spread of orders' tube weights with the
Gauss-Jordan oracle ``hankel_inverse_exact``; ``--check`` compares the
whole file.

Run from the repository root (about 7 s, most of it the exact weights):

    PYTHONPATH=src python tests/make_law_tables.py           # write the file
    PYTHONPATH=src python tests/make_law_tables.py --check   # exit 1 if it is stale
"""

import argparse
import sys

from oracles import gauss_laguerre_newton, gauss_legendre_newton, hankel_closed_form, switch_point_newton
from skewtail import rmtdist

LAGUERRE_NODES = 120
LEGENDRE_NODES = 2 * (rmtdist._MAX_ORDER // 2) + 60  # 2t + 60 at the largest t serves every t

HEADER = """\
# Constants of both exact laws, one double per line as float.hex.
# [switch points] holds x_8(p) for p = 2 .. 173 in order; [tube weights p] holds
# w_0 .. w_2t-2 of order p, each the double nearest its exact rational.
# Generated by tests/make_law_tables.py; do not edit.
"""


def tables() -> dict[str, list[float]]:
    """Every section of the sigma_1 kernel, by name, from the Newton builds."""
    columns = {}
    for name, n, rule in (
        ("laguerre", LAGUERRE_NODES, gauss_laguerre_newton),
        ("legendre", LEGENDRE_NODES, gauss_legendre_newton),
    ):
        nodes, weights = rule(n)
        columns[f"{name} nodes"], columns[f"{name} weights"] = nodes.tolist(), weights.tolist()
    columns["switch points"] = [switch_point_newton(p, LAGUERRE_NODES) for p in range(2, rmtdist._MAX_ORDER + 1)]
    return columns


def tube_weights() -> dict[str, list[float]]:
    """The rounded tube weights of every order, by section name, from the
    exact rationals, each order's checked against the Euler identity sum(w) = t."""
    columns = {}
    for p in range(4, rmtdist._MAX_ORDER + 1):
        exact = hankel_closed_form(p)[2]
        if sum(exact) != p // 2:
            raise ArithmeticError(f"Euler identity fails at p={p}: sum(w) != {p // 2}")
        columns[f"tube weights {p}"] = [float(w) for w in exact]
    return columns


def render(columns: dict[str, list[float]]) -> str:
    lines = [HEADER.rstrip("\n")]
    for name, values in columns.items():
        lines += [f"[{name}]", *(value.hex() for value in values)]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if the committed file differs")
    text = render({**tables(), **tube_weights()})
    if parser.parse_args().check:
        with open(rmtdist._LAW_TABLES, encoding="ascii") as fh:
            if fh.read() != text:
                print(f"{rmtdist._LAW_TABLES} is stale; regenerate it with "
                      "PYTHONPATH=src python tests/make_law_tables.py", file=sys.stderr)
                return 1
        return 0
    with open(rmtdist._LAW_TABLES, "w", encoding="ascii") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
