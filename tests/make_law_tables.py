"""Regenerate the shipped constants of the sigma_1 kernel.

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

Run from the repository root (about a second):

    PYTHONPATH=src python tests/make_law_tables.py           # write the file
    PYTHONPATH=src python tests/make_law_tables.py --check   # exit 1 if it is stale
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if the committed file differs")
    check = parser.parse_args().check
    text = render(tables())
    if check:
        with open(rmtdist._LAW_TABLES, encoding="ascii") as fh:
            if fh.read() == text:
                return 0
        print(f"{rmtdist._LAW_TABLES} is stale; regenerate it with "
              "PYTHONPATH=src python tests/make_law_tables.py", file=sys.stderr)
        return 1
    with open(rmtdist._LAW_TABLES, "w", encoding="ascii") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
