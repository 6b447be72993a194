"""File formats and report renderings for the command-line surface.

Two input formats are supported:

* score-sheet CSV: a header row (corner label, then the m object
  names), followed by one row per object holding its name and m cells;
  the diagonal cell is ``-`` and every other cell is a nonnegative
  integer win count;
* raw matrix: whitespace-separated m x m reals, already skew-symmetric
  to within 1e-9 max |y_ij|, for observations that were stabilized (or
  generated) elsewhere.

Reports render either as aligned text (statistics to 3 decimals,
p-values to 4, as conventionally tabulated) or as JSON with the fixed
schema ``{chi2: {stat, df, p}, largest_sv: {stat, p}, standardized:
{stat, p}, spectrum: [...], deadlock: {triple, value}, embedding:
[{name, x, y}]}``, where an out-of-validity standardized p-value is the
string ``"outside_validity"``.  For perfectly subtractive data (an
exactly zero interaction residual) the standardized stat and p, the
deadlock area ratio and the embedding are ``null``; the area ratio and
the embedding are ``null`` too when the top singular value is not a
simple pair, so its plane is undefined.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError
from .paired import _SQRT3, ScoreSheet, SkewObservations, TestReport, signed_area


def central_league_1997_path() -> Path:
    """Path to the bundled 1997 Central League score sheet (27 games per pair)."""
    return Path(str(resources.files("skewtail").joinpath("data/central_league_1997.csv")))


def read_score_sheet_csv(path, n_games: int) -> ScoreSheet:
    """Parse a score-sheet CSV, reporting the offending cell on failure."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read score sheet {path}: {exc}") from exc
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = [cell.strip() for cell in rows[0]]
    names = tuple(header[1:])
    m = len(names)
    if m < 3:
        raise DataError(f"{path}: header row 1 must list at least 3 object names")
    if len(rows) != m + 1:
        raise DataError(f"{path}: expected {m} data rows for {m} objects, found {len(rows) - 1}")
    r = np.zeros((m, m), dtype=int)
    for i, row in enumerate(rows[1:], start=1):
        cells = [cell.strip() for cell in row]
        if len(cells) != m + 1:
            raise DataError(f"{path}: row {i + 1} has {len(cells)} cells, expected {m + 1}")
        if cells[0] != names[i - 1]:
            raise DataError(
                f"{path}: row {i + 1} is labeled {cells[0]!r} but the header "
                f"says object {i} is {names[i - 1]!r}"
            )
        for j, cell in enumerate(cells[1:], start=1):
            if i == j:
                if cell != "-":
                    raise DataError(f"{path}: row {i + 1}, column {j + 1}: diagonal cell must be '-'")
                continue
            try:
                r[i - 1, j - 1] = int(cell)
            except (ValueError, OverflowError):
                raise DataError(
                    f"{path}: row {i + 1}, column {j + 1}: {cell!r} is not an integer "
                    "win count below 2^63"
                ) from None
    try:
        return ScoreSheet(m=m, names=names, n_games=n_games, r=r)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_skew_matrix(path) -> SkewObservations:
    """Parse a whitespace-separated square matrix of pre-stabilized scores, m >= 3."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read matrix {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no numeric rows found")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} entries, expected {width}")
    y = np.array(rows)
    if y.shape[0] != y.shape[1]:
        raise DataError(f"{path}: matrix is {y.shape[0]}x{y.shape[1]}, expected square")
    if y.shape[0] < 3:
        raise DataError(f"{path}: need at least 3 objects, got a {y.shape[0]}x{y.shape[0]} matrix")
    if not np.all(np.isfinite(y)):
        i, j = np.unravel_index(int(np.argmin(np.isfinite(y))), y.shape)
        raise DataError(f"{path}: row {i + 1}, column {j + 1}: {float(y[i, j])} is not finite")
    with np.errstate(over="ignore"):
        resid = float(np.max(np.abs(y + y.T)))
    if resid > 1e-9 * float(np.max(np.abs(y))):
        raise DataError(
            f"{path}: matrix is not skew-symmetric "
            f"(max |y_ij + y_ji| = {resid:.3e}, above 1e-9 max |y_ij|)"
        )
    y = 0.5 * y - 0.5 * y.T  # discard sub-tolerance asymmetry; halved first, so no sum overflows
    return SkewObservations(m=y.shape[0], y=y)


def deadlock_area_ratio(report: TestReport) -> float | None:
    """2 S_ijk / sqrt(3) for the report's deadlock triple: the embedding's
    estimate of the deadlock contrast; None when there is no embedding."""
    if report.embedding is None:
        return None
    i, j, k = (idx - 1 for idx in report.deadlock_triple)
    return 2.0 * signed_area(report.embedding, i, j, k) / _SQRT3


def report_to_dict(report: TestReport) -> dict:
    """JSON-ready dict with the fixed report schema."""
    std_p = report.std_p
    if std_p is None and report.std_stat is not None:
        std_p = "outside_validity"
    return {
        "chi2": {"stat": report.chi2_stat, "df": report.chi2_df, "p": report.chi2_p},
        "largest_sv": {"stat": report.sv_stat, "p": report.sv_p},
        "standardized": {
            "stat": report.std_stat,
            "p": std_p,
        },
        "spectrum": [float(s) for s in report.spectrum],
        "deadlock": {
            "triple": list(report.deadlock_triple),
            "value": report.deadlock_value,
            "area_ratio": deadlock_area_ratio(report),
        },
        "embedding": None if report.embedding is None else [
            {"name": name, "x": float(x), "y": float(y)}
            for name, (x, y) in zip(report.names, report.embedding)
        ],
    }


def render_json(report: TestReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def render_text(report: TestReport) -> str:
    """Aligned text report: statistics to 3 decimals, p-values to 4."""
    triple = ",".join(str(i) for i in report.deadlock_triple)
    cycle = " > ".join(report.names[i - 1] for i in report.deadlock_triple)
    if report.std_stat is None:
        std = "undefined (zero interaction residual)"
    elif len(report.names) < 5:  # order m - 1 <= 3 has one singular pair: the stat is 1
        std = f"stat = {report.std_stat:.3f}   no exact law below m = 5"
    elif report.std_p is None:
        std = f"stat = {report.std_stat:.3f}   outside validity range (< 1/sqrt(2))"
    else:
        std = f"stat = {report.std_stat:.3f}   p = {report.std_p:.4f}"
    lines = [
        f"Paired-comparison subtractivity analysis (m = {len(report.names)})",
        "",
        f"  chi-square      stat = {report.chi2_stat:.3f}   df = {report.chi2_df}   p = {report.chi2_p:.4f}",
        f"  largest sv      stat = {report.sv_stat:.3f}   p = {report.sv_p:.4f}",
        f"  standardized    {std}",
        "  spectrum        " + ", ".join(f"{s:.3f}" for s in report.spectrum),
        f"  deadlock        ({triple})   value = {report.deadlock_value:.3f}   [{cycle} > ...]",
    ]
    if report.embedding is None:
        why = (
            "zero interaction residual" if report.sv_stat == 0.0
            else "top singular value is not a simple pair"
        )
        lines.append(f"  embedding       none ({why})")
    else:
        lines += [
            f"  area check      2*S/sqrt(3) = {deadlock_area_ratio(report):.3f}",
            "",
            "  embedding (sqrt(sigma1) * (u_i, v_i)):",
        ]
        for name, (x, y) in zip(report.names, report.embedding):
            lines.append(f"    {name:<12s} {x:+.4f}  {y:+.4f}")
    return "\n".join(lines) + "\n"
