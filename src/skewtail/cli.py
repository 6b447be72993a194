"""Command-line interface.

Subcommands:

* ``dist``      one probability of the largest-singular-value laws
* ``table1``    the upper probabilities at the critical point 1/sqrt(2)
* ``validate``  seeded Monte-Carlo validation of the analytic laws
* ``analyze``   full paired-comparison subtractivity report (text/JSON)
* ``plot``      just the SVG residual plot for a dataset

Exit codes: 0 success, 2 usage/domain error or an unwritable output path, 3 validity-range
error (standardized threshold below 1/sqrt(2)), 4 data error or a failed internal check.
``validate`` checks its arguments and the order's envelope before it draws a sample.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io, mc, rmtdist, svgplot
from .errors import DataError, DomainError, SkewtailError, ValidityError
from .paired import TestReport, build_report, variance_stabilize
from .rmtdist import (
    CRITICAL_POINT,
    largest_sv_cdf,
    largest_sv_upper,
    standardized_sv_upper,
)

_STD_TAIL_POINTS = (0.75, 0.8, 0.9)
_QUANTILE_POINTS = (0.5, 0.9, 0.99)
_KS_THRESHOLD = 0.005
_KS_REFERENCE_SAMPLES = 200_000


def _fmt_prob(value: float) -> str:
    return f"{value:.17g} (4dp {value:.4f})"


def cmd_dist(args: argparse.Namespace) -> int:
    if args.kind == "cdf":
        value = largest_sv_cdf(args.p, args.x)
    elif args.kind == "tail":
        value = largest_sv_upper(args.p, args.x)
    else:
        value = standardized_sv_upper(args.p, args.x)
    print(_fmt_prob(value))
    return 0


def _table1_cell(value: float) -> str:
    """4-decimal rendering; probabilities below table resolution print as an upper bound."""
    return "<0.0001" if value < 5e-5 else f"{value:.4f}"


def cmd_table1(args: argparse.Namespace) -> int:
    if not (4 <= args.pmin <= args.pmax <= 18):
        raise DomainError(
            f"need 4 <= pmin <= pmax <= 18, got pmin={args.pmin}, pmax={args.pmax}"
        )
    print(" p   P(sigma1/sqrt(sum sigma_i^2) > 1/sqrt(2))")
    for p in range(args.pmin, args.pmax + 1):
        print(f"{p:2d}   {_table1_cell(standardized_sv_upper(p, CRITICAL_POINT))}")
    return 0


def _validate_line(label: str, emp: float, exact: float, se: float) -> tuple[str, bool]:
    ok = abs(emp - exact) <= 3.0 * se + 1e-12
    verdict = "PASS" if ok else "FAIL"
    return (
        f"  {label}  empirical={emp:.6f}  exact={exact:.6f}  "
        f"|diff|={abs(emp - exact):.6f}  3se={3.0 * se:.6f}  {verdict}",
        ok,
    )


def cmd_validate(args: argparse.Namespace) -> int:
    if args.samples < 1000:
        raise DomainError(f"validation needs at least 1000 samples, got {args.samples}")
    p = args.p
    rmtdist.spectrum_law(p)  # raises past the laws' envelope
    tops = mc.sample_tops(p, args.samples, args.seed)
    n = len(tops)
    sigma1, energy = tops.T
    if p in (4, 5):
        top_share = float(np.min(sigma1**2 / energy))
    if p >= 4:  # sigma1 / sqrt(sum sigma^2), written over the energies
        ratios = np.divide(sigma1, np.sqrt(energy, out=energy), out=energy)
        std_emps = [mc.empirical_upper(ratios, x) for x in _STD_TAIL_POINTS]
        del ratios
    # every sigma1 line reads only the multiset of values: one sorted copy outlives the samples
    sigma1 = np.sort(sigma1)
    del tops, energy
    all_ok = True
    print(f"validate p={p} samples={args.samples} seed={args.seed}")

    ks = mc.ks_distance(sigma1, lambda x: largest_sv_cdf(p, x))
    ks_threshold = _KS_THRESHOLD * max(1.0, math.sqrt(_KS_REFERENCE_SAMPLES / n))
    ks_ok = ks < ks_threshold
    all_ok &= ks_ok
    print(
        f"KS(sigma1) = {ks:.6f}  threshold={ks_threshold:.6f}  "
        f"{'PASS' if ks_ok else 'FAIL'}"
    )

    print("sigma1 upper tail at empirical quantiles:")
    for x in np.quantile(sigma1, _QUANTILE_POINTS).tolist():
        exact = largest_sv_upper(p, x)
        emp = mc.empirical_upper(sigma1, x)
        line, ok = _validate_line(
            f"x={x:.4f}", emp, exact, mc.binomial_standard_error(exact, n)
        )
        all_ok &= ok
        print(line)

    if p >= 4:
        print("standardized upper tail:")
        for x, emp in zip(_STD_TAIL_POINTS, std_emps):
            exact = standardized_sv_upper(p, x)
            line, ok = _validate_line(
                f"x={x:.2f}  ", emp, exact, mc.binomial_standard_error(exact, n)
            )
            all_ok &= ok
            print(line)
        if p in (4, 5):
            ok = top_share > 0.5
            all_ok &= ok
            print(
                f"min sigma1^2/(sum sigma_i^2) = {top_share:.6f}  "
                f"(> 0.5 required)  {'PASS' if ok else 'FAIL'}"
            )
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0


def _load_report(args: argparse.Namespace) -> TestReport:
    if args.raw:
        return build_report(io.read_skew_matrix(args.input), sigma2=args.sigma2)
    if args.n_games is None:
        raise DataError("score-sheet input requires --n-games (use --raw for matrices)")
    sheet = io.read_score_sheet_csv(args.input, args.n_games)
    return build_report(variance_stabilize(sheet), sigma2=args.sigma2, names=sheet.names)


def _residual_svg(report: TestReport) -> str:
    if report.embedding is None:
        why = (
            "the interaction residual is exactly zero (perfectly subtractive data)"
            if report.sv_stat == 0.0
            else "the top singular value is not a simple pair (a tie), so its plane is undefined"
        )
        raise DataError(f"{why}; there is no residual plot to draw")
    return svgplot.residual_plot_svg(report.embedding, report.names, report.deadlock_triple)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    report = _load_report(args)
    svg = _residual_svg(report) if args.plot else None
    rendering = io.render_json(report) + "\n" if args.format == "json" else io.render_text(report)
    if args.out:
        _write(args.out, rendering)
    else:
        sys.stdout.write(rendering)
    if args.plot:
        _write(args.plot, svg)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    _write(args.out, _residual_svg(_load_report(args)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewtail",
        description=(
            "Largest-singular-value laws of skew-symmetric Gaussian matrices "
            "and subtractivity tests for paired comparisons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="evaluate one distribution value")
    dist.add_argument("--p", type=int, required=True, help="matrix order")
    dist.add_argument("--x", type=float, required=True, help="threshold")
    dist.add_argument(
        "--kind",
        choices=("cdf", "tail", "standardized"),
        default="cdf",
        help="cdf/tail of sigma1, or upper tail of sigma1/sqrt(sum sigma_i^2)",
    )
    dist.set_defaults(func=cmd_dist)

    table1 = sub.add_parser("table1", help="upper probabilities at the critical point")
    table1.add_argument("--pmin", type=int, default=4)
    table1.add_argument("--pmax", type=int, default=18)
    table1.set_defaults(func=cmd_table1)

    validate = sub.add_parser("validate", help="Monte-Carlo validation of the laws")
    validate.add_argument("--p", type=int, required=True)
    validate.add_argument("--samples", type=int, default=200_000)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=cmd_validate)

    def add_analysis_args(sp):
        sp.add_argument("input", help="score-sheet CSV (or raw matrix with --raw)")
        sp.add_argument("--n-games", type=int, default=None, help="games per pair")
        sp.add_argument("--sigma2", type=float, default=1.0, help="error variance")
        sp.add_argument("--raw", action="store_true", help="input is a pre-stabilized matrix")

    analyze = sub.add_parser("analyze", help="full subtractivity report")
    add_analysis_args(analyze)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--out", default=None, help="write the report here instead of stdout")
    analyze.add_argument("--plot", default=None, help="also write an SVG residual plot here")
    analyze.set_defaults(func=cmd_analyze)

    plot = sub.add_parser("plot", help="SVG residual plot only")
    add_analysis_args(plot)
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidityError as exc:
        print(f"outside exact-validity range: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewtailError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
