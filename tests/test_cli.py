"""Command-line surface tests: flags, exit codes, format equivalence,
determinism, and the SVG plot."""

import ast
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skewtail
from skewtail import cli, mc, paired, rmtdist
from skewtail.cli import _table1_cell, main
from skewtail.errors import PairingError
from skewtail.io import central_league_1997_path
from skewtail.svgplot import residual_plot_svg

FIXTURE = str(central_league_1997_path())
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


#: The orders up to 61 of Paley tournaments: the primes m = 3 (mod 4).
PALEY_ORDERS = (3, 7, 11, 19, 23, 31, 43, 47, 59)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def beats_in_paley(m: int, i: int, j: int) -> bool:
    """Whether team i beats team j in the Paley tournament of prime order
    m = 3 (mod 4): j - i is a nonzero square mod m.  The tournament is
    regular, and its residual's nonzero singular values are all equal."""
    return (j - i) % m in {k * k % m for k in range(1, m)}


def paley_league(m: int) -> str:
    """Score-sheet CSV of the Paley league of order m: 27 games per pair,
    each won 20-7 by the team that beats the other in the tournament."""
    return csv_text(sheet_rows([[0 if i == j else 20 if beats_in_paley(m, i, j) else 7
                                 for j in range(m)] for i in range(m)]))


def sheet_rows(r) -> list[list[str]]:
    """Score-sheet CSV rows of a win-count matrix, teams T1 .. Tm."""
    m = len(r)
    names = [f"T{i + 1}" for i in range(m)]
    rows = [["team"] + names]
    return rows + [[names[i]] + ["-" if i == j else str(r[i][j]) for j in range(m)]
                   for i in range(m)]


def csv_text(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


class TestDist:
    def test_standardized_critical_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--kind", "standardized", "--p", "10", "--x", "0.70710678"
        )
        assert code == 0
        assert "0.7354" in out

    def test_cdf_at_league_statistic(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--kind", "cdf", "--p", "5", "--x", "3.932")
        assert code == 0
        assert "0.9457" in out

    def test_cdf_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--kind", "cdf", "--p", "2", "--x", "0")
        assert code == 0
        assert out.split()[0] == "0"

    def test_tail_is_cdf_complement(self, capsys):
        _, out_cdf, _ = run_cli(capsys, "dist", "--kind", "cdf", "--p", "6", "--x", "2.5")
        _, out_tail, _ = run_cli(capsys, "dist", "--kind", "tail", "--p", "6", "--x", "2.5")
        cdf = float(out_cdf.split()[0])
        tail = float(out_tail.split()[0])
        assert cdf + tail == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind, expect", [("cdf", 1.0), ("tail", 0.0)])
    def test_threshold_whose_square_overflows(self, capsys, kind, expect):
        code, out, err = run_cli(capsys, "dist", "--kind", kind, "--p", "10", "--x", "1e170")
        assert code == 0 and err == ""
        assert float(out.split()[0]) == expect

    def test_below_validity_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--kind", "standardized", "--p", "10", "--x", "0.6"
        )
        assert code == 3
        assert "validity" in err

    def test_domain_error_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "dist", "--kind", "cdf", "--p", "1", "--x", "1.0")
        assert code == 2

    @pytest.mark.parametrize("kind,x", [("standardized", "0.8"), ("cdf", "30")])
    def test_order_past_the_double_range_exits_2(self, capsys, kind, x):
        # g_11 = Gamma(p - 3/2) overflows a double from p = 174, and the
        # sigma_1 laws are verified up to p = 173
        code, out, err = run_cli(capsys, "dist", "--kind", kind, "--p", "200", "--x", x)
        assert code == 2
        assert out == "" and "p=200" in err
        code, out, _ = run_cli(capsys, "dist", "--kind", kind, "--p", "120", "--x", x)
        assert code == 0 and "4dp" in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--kind", "bogus", "--p", "5", "--x", "1.0"])
        assert exc.value.code == 2


class TestTable1:
    def test_full_range(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--pmin", "4", "--pmax", "18")
        assert code == 0
        rows = {
            line.split()[0]: line.split()[1]
            for line in out.strip().splitlines()[1:]
        }
        assert rows["4"] == "1.0000"
        assert rows["10"] == "0.7354"
        assert rows["14"] == "0.0634"
        assert rows["17"] == "0.0009"
        assert len(rows) == 15

    def test_below_resolution_rendering(self):
        assert _table1_cell(2e-5) == "<0.0001"
        assert _table1_cell(4.9e-5) == "<0.0001"
        assert _table1_cell(0.063357) == "0.0634"

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--pmin", "3", "--pmax", "18")
        assert code == 2
        code, _, _ = run_cli(capsys, "table1", "--pmin", "6", "--pmax", "20")
        assert code == 2


class TestValidate:
    def test_deterministic_and_passes(self, capsys):
        args = ("validate", "--p", "4", "--samples", "4000", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "overall: PASS" in out1
        assert "min sigma1^2" in out1  # the p in {4,5} sharp-threshold check

    def test_failing_check_prints_overall_fail(self, capsys, monkeypatch):
        # a wrong upper tail fails the quantile lines above the median; the
        # verdict is the last line, and the exit status stays 0
        monkeypatch.setattr(cli, "largest_sv_upper", lambda p, x: 0.5)
        code, out, _ = run_cli(capsys, "validate", "--p", "6", "--samples", "4000")
        assert code == 0
        assert out.count("FAIL") == 3 and out.endswith("overall: FAIL\n")

    def test_too_few_samples_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--p", "4", "--samples", "10")
        assert code == 2

    def test_order_past_the_gram_exits_2_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("validate drew samples for an order it cannot judge")

        monkeypatch.setattr(cli.mc, "sample_tops", no_sampling)
        code, out, err = run_cli(capsys, "validate", "--p", "174", "--samples", "1000")
        assert code == 2 and out == ""
        assert "the laws are verified for matrix orders p <= 173, got p=174" in err

    def test_sigma1_cdf_call_budget(self, capsys, monkeypatch):
        # 129 Chebyshev points for the KS check plus the 3 quantile points
        calls = []
        cdf = cli.largest_sv_cdf
        monkeypatch.setattr(
            cli, "largest_sv_cdf", lambda *a, **k: calls.append(1) or cdf(*a, **k)
        )
        code, out, _ = run_cli(capsys, "validate", "--p", "10", "--samples", "20000")
        assert code == 0 and "overall: PASS" in out
        assert len(calls) <= 132

    @staticmethod
    def traced_validate_peak(capsys, samples: int) -> int:
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "validate", "--p", "10", "--samples", str(samples))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and "overall: PASS" in out
        return peak

    def test_traced_memory_peak_below_5_6_mb(self, capsys):
        # 16 bytes per sample for (sigma1, sum sigma^2), the ratios written over
        # the sums, then one sorted sigma1 copy before the samples are dropped:
        # about 24 bytes per sample, 5.1 MB at 2e5 samples.  A third column for
        # the ratios or an unsorted sigma1 kept beside the sorted one reads 6.45 MB
        run_cli(capsys, "validate", "--p", "10", "--samples", "20000")  # warm-up
        assert self.traced_validate_peak(capsys, 200_000) < 5.6e6

    def test_traced_memory_grows_at_most_25_bytes_per_sample(self, capsys):
        # the slope over 2e5 more samples reads about 22.7 bytes per sample;
        # keeping the (count, 2) samples until the KS line reads 32
        run_cli(capsys, "validate", "--p", "10", "--samples", "20000")  # warm-up
        small = self.traced_validate_peak(capsys, 200_000)
        large = self.traced_validate_peak(capsys, 400_000)
        assert (large - small) / 200_000 <= 25.0


NOT_SQUARE = "need at least 3 objects: observations must be a square m x m matrix, got shape"

#: One row per reader defect: file name, its text (None: no such file), and
#: the message after "data error: ", where {path} stands for the file's path.
#: The readers decide what needs the text; SkewObservations decides the rest.
READER_DEFECTS = [
    ("header_only.csv", "team,a,b,c\n", "{path}: need a header row and at least one data row"),
    ("two_rows.csv", "team,a,b,c\na,-,13,15\nb,14,-,16\n",
     "{path}: expected 3 data rows for 3 objects, found 2"),
    ("ragged.csv", "team,a,b,c\na,-,13,15\nb,14,-\nc,12,11,-\n", "{path}: row 3 has 3 cells, expected 4"),
    ("mislabelled.csv", "team,a,b,c\na,-,13,15\nx,14,-,16\nc,12,11,-\n",
     "{path}: row 3 is labeled 'x' but the header says object 2 is 'b'"),
    ("missing.csv", None, "cannot read score sheet {path}: "),
    ("missing.txt", None, "cannot read matrix {path}: "),
    # '#' and blank lines are skipped but counted, so the bad token is on line 5
    ("token.txt", "# stabilized scores\n\n0 1 2\n  # row 2\n-1 0 x\n-2 -3 0\n",
     "{path}: line 5: could not convert string to float: 'x'"),
    ("empty.txt", "", f"{{path}}: {NOT_SQUARE} (0,)"),
    ("comments_only.txt", "# nothing\n\n   \n", f"{{path}}: {NOT_SQUARE} (0,)"),
    ("ragged.txt", "0 1 2\n-1 0\n-2 0 0\n", "{path}: row 2 has 2 entries, expected 3"),
    ("not_square.txt", "0 1 2\n-1 0 3\n", f"{{path}}: {NOT_SQUARE} (2, 3)"),
]


class TestAnalyze:
    def test_text_report_contains_league_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", FIXTURE, "--n-games", "27")
        assert code == 0
        for token in ("15.765", "df = 10", "0.1066", "3.932", "0.0543",
                      "0.990", "0.0348", "(6,5,2)", "2.832", "2.839"):
            assert token in out, token

    def test_json_matches_text_to_printed_precision(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "analyze", FIXTURE, "--n-games", "27", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["chi2"]["df"] == 10
        assert doc["chi2"]["stat"] == pytest.approx(15.765, abs=5e-4)
        assert doc["chi2"]["p"] == pytest.approx(0.1066, abs=5e-5)
        assert doc["largest_sv"]["stat"] == pytest.approx(3.932, abs=5e-4)
        assert doc["largest_sv"]["p"] == pytest.approx(0.0543, abs=5e-5)
        assert doc["standardized"]["stat"] == pytest.approx(0.990, abs=5e-4)
        assert doc["standardized"]["p"] == pytest.approx(0.0348, abs=5e-5)
        assert doc["deadlock"]["triple"] == [6, 5, 2]
        assert doc["deadlock"]["value"] == pytest.approx(2.832, abs=5e-4)
        assert doc["deadlock"]["area_ratio"] == pytest.approx(2.839, abs=5e-4)
        assert doc["spectrum"][0] == pytest.approx(3.932, abs=5e-4)
        assert doc["spectrum"][1] == pytest.approx(0.553, abs=5e-4)
        assert [e["name"] for e in doc["embedding"]] == [
            "Yakult", "Yokohama", "Hiroshima", "Yomiuri", "Hanshin", "Chunichi",
        ]

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "analyze", FIXTURE, "--n-games", "27", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "15.765" in out_path.read_text()

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "r.txt")
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--n-games", "27", "--out", bad)
        assert code == 2 and out == ""
        assert f"cannot write {bad}" in err

    def test_unwritable_plot_exits_2_after_the_report(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "r.svg")
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--n-games", "27", "--plot", bad)
        assert code == 2 and "15.765" in out
        assert f"cannot write {bad}" in err

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_null_league_at_the_largest_order_exits_0(self, capsys, tmp_path, seed):
        # 174 teams, the most the laws serve (p = 173): these null matrices
        # put the chi-square statistic just below its 14878 df, where the
        # incomplete-gamma series needs about 8 sqrt(7439) = 700 terms
        m = 174
        y = np.zeros((m, m))
        y[np.triu_indices(m, 1)] = np.random.default_rng(seed).standard_normal(m * (m - 1) // 2)
        raw = tmp_path / "null.txt"
        np.savetxt(raw, y - y.T)
        code, out, err = run_cli(capsys, "analyze", str(raw), "--raw", "--format", "json")
        assert code == 0 and err == ""
        chi2 = json.loads(out)["chi2"]
        assert chi2["df"] == 14878 and chi2["stat"] < 14880 and 0.0 < chi2["p"] < 1.0

    def test_raw_matrix_mode_matches_pipeline(self, capsys, tmp_path):
        from skewtail.io import read_score_sheet_csv
        from skewtail.paired import variance_stabilize

        sheet = read_score_sheet_csv(FIXTURE, 27)
        y = variance_stabilize(sheet).y
        raw = tmp_path / "stabilized.txt"
        raw.write_text(
            "\n".join(" ".join(f"{v:.17g}" for v in row) for row in y) + "\n"
        )
        code, out_raw, _ = run_cli(
            capsys, "analyze", str(raw), "--raw", "--format", "json"
        )
        assert code == 0
        code, out_csv, _ = run_cli(
            capsys, "analyze", FIXTURE, "--n-games", "27", "--format", "json"
        )
        raw_doc, csv_doc = json.loads(out_raw), json.loads(out_csv)
        assert raw_doc["chi2"]["stat"] == pytest.approx(csv_doc["chi2"]["stat"], rel=1e-12)
        assert raw_doc["standardized"]["stat"] == pytest.approx(
            csv_doc["standardized"]["stat"], rel=1e-12
        )
        assert raw_doc["deadlock"]["triple"] == csv_doc["deadlock"]["triple"]

    def test_missing_n_games_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "analyze", FIXTURE)
        assert code == 4
        assert "n-games" in err

    def test_tie_violation_exits_4_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "team,a,b,c\n"
            "a,-,13,15\n"
            "b,15,-,16\n"  # 13 + 15 != 27
            "c,12,11,-\n"
        )
        code, _, err = run_cli(capsys, "analyze", str(bad), "--n-games", "27")
        assert code == 4
        assert "r[1,2]" in err

    def test_malformed_cell_exits_4_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "team,a,b,c\n"
            "a,-,13,15\n"
            "b,14,-,x\n"
            "c,12,11,-\n"
        )
        code, _, err = run_cli(capsys, "analyze", str(bad), "--n-games", "27")
        assert code == 4
        assert "row 3" in err and "column 4" in err

    def test_win_count_past_int64_exits_4_with_location(self, capsys, tmp_path):
        # found by the fuzz test below: the count once escaped as an OverflowError
        bad = tmp_path / "bad.csv"
        bad.write_text(f"team,a,b,c\na,-,0,0\nb,{10**20},-,0\nc,{10**20},{10**20},-\n")
        code, _, err = run_cli(capsys, "analyze", str(bad), "--n-games", str(10**20))
        assert code == 4
        assert "row 3" in err and "column 2" in err and "2^63" in err

    @pytest.mark.parametrize("diagonal", ["-", "0"], ids=["good-diagonal", "bad-diagonal"])
    @pytest.mark.parametrize("column", [2, 4], ids=["before-diagonal", "after-diagonal"])
    @pytest.mark.parametrize("cell", ["1.5", str(2**63)], ids=["non-integer", "2^63"])
    def test_cell_defect_messages(self, tmp_path, cell, column, diagonal):
        # the text of each defect's DataError, and which one wins within a
        # row: cells are read left to right, so a defect before the diagonal
        # wins over a bad diagonal cell, and a bad diagonal over one after it
        from skewtail.errors import DataError
        from skewtail.io import read_score_sheet_csv

        rows = sheet_rows([[0, 13, 14, 15], [14, 0, 12, 11], [13, 15, 0, 16], [12, 16, 11, 0]])
        rows[2][column - 1], rows[2][2] = cell, diagonal
        bad = tmp_path / "bad.csv"
        bad.write_text(csv_text(rows))
        with pytest.raises(DataError) as exc:
            read_score_sheet_csv(bad, 27)
        if diagonal == "0" and column == 4:
            assert str(exc.value) == f"{bad}: row 3, column 3: diagonal cell must be '-'"
        else:
            assert str(exc.value) == (
                f"{bad}: row 3, column {column}: {cell!r} is not an integer win count below 2^63"
            )

    def test_cells_that_int_accepts_are_read(self, tmp_path):
        # a count cell is what int() reads: surrounding whitespace, a sign
        # and digit separators are accepted
        from skewtail.io import read_score_sheet_csv

        r = [[0, 13, 14, 15], [14, 0, 12, 11], [13, 15, 0, 16], [12, 16, 11, 0]]
        rows = sheet_rows(r)
        rows[1][2], rows[2][1], rows[3][4], rows[4][3] = " 13 ", "\t14", "+16", "1_1"
        sheet_path = tmp_path / "padded.csv"
        sheet_path.write_text(csv_text(rows))
        sheet = read_score_sheet_csv(sheet_path, 27)
        assert sheet.r.dtype == np.int64 and sheet.r.tolist() == r

    @pytest.mark.parametrize(("cells", "message"), [
        ({(3, 2): ""}, "row 3, column 2: '' is not an integer win count below 2^63"),
        ({(3, 2): str(2**63), (4, 2): "1.5"},
         f"row 3, column 2: '{2**63}' is not an integer win count below 2^63"),
        ({(4, 2): "1.5", (3, 5): str(2**63)},
         f"row 3, column 5: '{2**63}' is not an integer win count below 2^63"),
        ({(3, 2): "-5"}, "score r[2,1]=-5 outside 0..27"),
        ({(3, 2): str(-2**63)}, f"score r[2,1]={-2**63} outside 0..27"),
        ({(3, 2): str(2**63 - 1)}, f"score r[2,1]={2**63 - 1} outside 0..27"),
    ], ids=["empty", "2^63-then-1.5", "upper-row-first", "negative", "-2^63-parses",
            "2^63-1-parses"])
    def test_first_defect_top_to_bottom_left_to_right(self, tmp_path, cells, message):
        # an int64 count parses and meets ScoreSheet's range check; anything
        # int() rejects or int64 cannot hold is the reader's, and the first
        # such cell read row by row, left to right, is the one reported
        from skewtail.errors import DataError
        from skewtail.io import read_score_sheet_csv

        rows = sheet_rows([[0, 13, 14, 15], [14, 0, 12, 11], [13, 15, 0, 16], [12, 16, 11, 0]])
        for (row, column), cell in cells.items():
            rows[row - 1][column - 1] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text(csv_text(rows))
        with pytest.raises(DataError) as exc:
            read_score_sheet_csv(bad, 27)
        assert str(exc.value) == f"{bad}: {message}"

    @pytest.mark.parametrize(("name", "text", "message"), READER_DEFECTS,
                             ids=[row[0] for row in READER_DEFECTS])
    def test_reader_defect_exits_4_naming_the_file(self, capsys, tmp_path, name, text, message):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        flags = ("--raw",) if name.endswith(".txt") else ("--n-games", "27")
        code, out, err = run_cli(capsys, "analyze", str(path), *flags)
        assert code == 4 and out == ""
        assert str(path) in err
        assert err.startswith("data error: " + message.format(path=path)), err

    def test_raw_matrix_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
        plain.write_text("0 1 -2\n-1 0 3\n2 -3 0\n")
        commented.write_text("# scores\n\n0 1 -2\n   \n  # row 2\n-1 0 3\n2 -3 0\n\n")
        reports = [run_cli(capsys, "analyze", str(raw), "--raw", "--format", "json")
                   for raw in (plain, commented)]
        assert reports[0][0] == 0 and reports[0] == reports[1]

    @pytest.mark.parametrize("matrix", ["0\n", "0 1\n-1 0\n"], ids=["1x1", "2x2"])
    def test_raw_matrix_below_three_objects_exits_4(self, capsys, tmp_path, matrix):
        small = tmp_path / "small.txt"
        small.write_text(matrix)
        code, _, err = run_cli(capsys, "analyze", str(small), "--raw")
        assert code == 4
        assert str(small) in err and "at least 3 objects" in err

    def test_score_sheet_below_three_objects_exits_4(self, capsys, tmp_path):
        # ScoreSheet decides m >= 3 and the reader names the path
        small = tmp_path / "small.csv"
        small.write_text(csv_text(sheet_rows([[0, 13], [14, 0]])))
        code, _, err = run_cli(capsys, "analyze", str(small), "--n-games", "27")
        assert code == 4
        assert f"{small}: need at least 3 objects, got 2" in err

    @pytest.mark.parametrize("m", [3, 4], ids=["3x3", "4x4"])
    def test_raw_matrix_below_five_objects_has_no_standardized_law(self, capsys, tmp_path, m):
        # order m - 1 <= 3 has one singular pair, so the statistic is exactly 1,
        # and the tube law of the standardized test starts at order 4
        y = np.zeros((m, m))
        y[np.triu_indices(m, 1)] = np.random.default_rng(m).standard_normal(m * (m - 1) // 2)
        raw = tmp_path / f"m{m}.txt"
        np.savetxt(raw, y - y.T)
        code, out, _ = run_cli(capsys, "analyze", str(raw), "--raw")
        assert code == 0
        assert "  standardized    stat = 1.000   no exact law below m = 5\n" in out
        assert "1/sqrt(2)" not in out
        code, out, _ = run_cli(capsys, "analyze", str(raw), "--raw", "--format", "json")
        std = json.loads(out)["standardized"]
        assert std["stat"] == pytest.approx(1.0, abs=1e-12) and std["p"] == "no_exact_law"

    def test_non_skew_raw_matrix_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n-1 0 3\n-2 -3 1\n")
        code, _, err = run_cli(capsys, "analyze", str(bad), "--raw")
        assert code == 4
        assert "skew" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_raw_matrix_exits_4_with_location(self, capsys, tmp_path, bad):
        raw = tmp_path / "bad.txt"
        raw.write_text(f"0 1 2\n-1 0 {bad}\n-2 0 0\n")
        code, _, err = run_cli(capsys, "analyze", str(raw), "--raw")
        assert code == 4
        assert "row 2, column 3" in err and "finite" in err

    def test_symmetric_raw_matrix_of_small_entries_exits_4(self, capsys, tmp_path):
        # |y + y'| = 2e-10 is below 1e-9 in absolute terms, but the
        # matrix is symmetric: antisymmetrizing it would leave zero
        raw = tmp_path / "symmetric.txt"
        raw.write_text("0 1e-10 2e-10\n1e-10 0 1e-10\n2e-10 1e-10 0\n")
        code, out, err = run_cli(capsys, "analyze", str(raw), "--raw")
        assert code == 4 and out == ""
        assert "skew" in err

    def test_rounding_level_asymmetry_is_accepted(self, capsys, tmp_path):
        raw = tmp_path / "near_skew.txt"
        raw.write_text("0 1e-10 2e-10\n-1e-10 0 3e-10\n-2.0000000001e-10 -3e-10 0\n")
        code, _, _ = run_cli(capsys, "analyze", str(raw), "--raw")
        assert code == 0

    def _league_raw(self, tmp_path, scale):
        from skewtail.io import read_score_sheet_csv
        from skewtail.paired import variance_stabilize

        y = scale * variance_stabilize(read_score_sheet_csv(FIXTURE, 27)).y
        raw = tmp_path / f"scaled_{scale:g}.txt"
        raw.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in y) + "\n")
        return raw

    def test_overflowing_raw_matrix_exits_4_without_warning(self, capsys, tmp_path):
        cycle = tmp_path / "cycle_1e308.txt"  # y_ij - y_ji overflows, its halves do not
        cycle.write_text("0 1e308 -1e308\n-1e308 0 1e308\n1e308 -1e308 0\n")
        # max |y| = 1.3e308 at 5e307: the row sums of y itself overflow
        for raw in (self._league_raw(tmp_path, 1e170), self._league_raw(tmp_path, 5e307), cycle):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "analyze", str(raw), "--raw")
            assert code == 4 and out == ""
            assert "chi-square statistic" in err and "overflows" in err

    def test_infinite_residual_raw_matrix_exits_4(self, capsys, tmp_path):
        # a skew matrix of +-1.7e308 entries is finite, but its fit leaves
        # infinite gamma entries, which the fit itself refuses
        u = np.triu(np.random.default_rng(2).choice([-1.7e308, 1.7e308], size=(6, 6)), 1)
        raw = tmp_path / "infinite_residual.txt"
        raw.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in u - u.T) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "analyze", str(raw), "--raw")
        assert code == 4 and out == ""
        assert "the interaction residual is too large for double precision" in err

    def test_sigma2_whose_division_overflows_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--n-games", "27",
                                 "--sigma2", "1e-308")
        assert code == 2 and out == ""
        assert "sigma2 = 1e-308" in err

    @pytest.mark.parametrize("scale", [1e-300, 1e-170])
    def test_tiny_raw_matrix_keeps_its_spectrum(self, capsys, tmp_path, scale):
        _, out, _ = run_cli(capsys, "analyze", str(self._league_raw(tmp_path, 1.0)),
                            "--raw", "--format", "json")
        expect = json.loads(out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "analyze", str(self._league_raw(tmp_path, scale)),
                                   "--raw", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(np.array(doc["spectrum"]) / scale, expect["spectrum"],
                           rtol=0, atol=1e-13 * expect["spectrum"][0])
        assert doc["standardized"]["stat"] == pytest.approx(expect["standardized"]["stat"], rel=1e-13)
        assert doc["standardized"]["p"] == pytest.approx(expect["standardized"]["p"], rel=1e-10)
        assert doc["deadlock"]["triple"] == expect["deadlock"]["triple"]

    def test_missing_file_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/nonexistent.csv", "--n-games", "27")
        assert code == 4

    def test_failed_internal_check_exits_4(self, capsys, monkeypatch):
        # the catch-all for a SkewtailError that is no data, domain or
        # validity error: a spectral solve that breaks its energy identity
        def broken(gamma_hat):
            raise PairingError("sum of sigma^2 misses ||A||_F^2 / 2")

        monkeypatch.setattr(mc, "SkewEigen", broken)
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--n-games", "27")
        assert code == 4
        assert out == ""
        assert err.startswith("analysis failed: ")

    def test_perfectly_subtractive_data_report(self, capsys, tmp_path):
        raw = tmp_path / "subtractive.txt"
        raw.write_text("0 1 2\n-1 0 1\n-2 -1 0\n")
        code, out, _ = run_cli(capsys, "analyze", str(raw), "--raw", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chi2"] == {"stat": 0.0, "df": 1, "p": 1.0}
        assert doc["largest_sv"] == {"stat": 0.0, "p": 1.0}
        assert doc["standardized"] == {"stat": None, "p": None}
        assert doc["deadlock"]["area_ratio"] is None and doc["embedding"] is None
        code, out, _ = run_cli(capsys, "analyze", str(raw), "--raw")
        assert code == 0
        assert "standardized    undefined" in out and "embedding       none" in out

    @pytest.mark.parametrize("m", [7, 11, 19])
    def test_paley_league_reports_a_tied_top_pair(self, capsys, tmp_path, m):
        sheet = tmp_path / f"paley{m}.csv"
        sheet.write_text(paley_league(m), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(sheet), "--n-games", "27")
        assert code == 0, err
        assert "embedding       none (top singular value is not a simple pair)" in out
        code, out, _ = run_cli(capsys, "analyze", str(sheet), "--n-games", "27",
                               "--format", "json")
        doc = json.loads(out)
        sigma = np.array(doc["spectrum"])
        assert np.allclose(sigma, sigma[0], rtol=1e-12) and sigma[0] > 0.0
        assert doc["chi2"]["stat"] == pytest.approx(float(np.sum(sigma**2)), rel=1e-12)
        assert doc["standardized"]["stat"] == pytest.approx(1.0 / math.sqrt(len(sigma)))
        assert doc["deadlock"]["area_ratio"] is None and doc["embedding"] is None
        svg = tmp_path / "plot.svg"
        for argv in (("analyze", str(sheet), "--n-games", "27", "--plot", str(svg)),
                     ("plot", str(sheet), "--n-games", "27", "--out", str(svg))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 4 and out == "" and not svg.exists()
            assert "not a simple pair (a tie)" in err

    def test_rounding_level_residual_is_perfectly_subtractive(self, capsys, tmp_path):
        # y_ij = s_i - s_j leaves max |gamma_hat| = 4.4e-16, not 0, after the fit
        s = np.array([0.3, 1.7, -0.2, 0.9, 5.1, 2.2])
        raw = tmp_path / "subtractive.txt"
        rows = s[:, None] - s
        raw.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in rows) + "\n")
        code, out, _ = run_cli(capsys, "analyze", str(raw), "--raw", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chi2"] == {"stat": 0.0, "df": 10, "p": 1.0}
        assert doc["largest_sv"] == {"stat": 0.0, "p": 1.0}
        assert doc["standardized"] == {"stat": None, "p": None}
        assert doc["embedding"] is None
        svg = tmp_path / "plot.svg"
        code, _, err = run_cli(capsys, "analyze", str(raw), "--raw", "--plot", str(svg))
        assert code == 4 and "perfectly subtractive" in err and not svg.exists()

    def test_perfectly_subtractive_data_cannot_be_plotted(self, capsys, tmp_path):
        raw = tmp_path / "subtractive.txt"
        raw.write_text("0 1 2\n-1 0 1\n-2 -1 0\n")
        svg = tmp_path / "plot.svg"
        for argv in (("analyze", str(raw), "--raw", "--plot", str(svg)),
                     ("plot", str(raw), "--raw", "--out", str(svg))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 4
            assert out == "" and "perfectly subtractive" in err
            assert not svg.exists()


class TestPlot:
    def test_svg_is_valid_xml_with_m_labeled_points(self, capsys, tmp_path):
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            capsys, "plot", FIXTURE, "--n-games", "27", "--out", str(svg_path)
        )
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        ns = {"svg": "http://www.w3.org/2000/svg"}
        points = root.findall(".//svg:g[@class='point']", ns)
        assert len(points) == 6
        labels = [g.find("svg:text", ns).text for g in points]
        assert labels == ["Yakult", "Yokohama", "Hiroshima", "Yomiuri", "Hanshin", "Chunichi"]
        assert len(root.findall(".//svg:polygon", ns)) == 1

    def test_out_naming_a_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plot", FIXTURE, "--n-games", "27", "--out", str(tmp_path))
        assert code == 2
        assert f"cannot write {tmp_path}" in err

    def test_analyze_plot_flag_writes_same_svg(self, capsys, tmp_path):
        via_plot = tmp_path / "a.svg"
        via_analyze = tmp_path / "b.svg"
        run_cli(capsys, "plot", FIXTURE, "--n-games", "27", "--out", str(via_plot))
        run_cli(
            capsys, "analyze", FIXTURE, "--n-games", "27",
            "--out", str(tmp_path / "r.txt"), "--plot", str(via_analyze),
        )
        assert via_plot.read_text() == via_analyze.read_text()

    def test_triangle_is_counterclockwise_on_screen(self, capsys, tmp_path):
        # svg y grows downward, so the plotted deadlock triangle must have
        # negative screen-space signed area to render counterclockwise
        svg_path = tmp_path / "plot.svg"
        run_cli(capsys, "plot", FIXTURE, "--n-games", "27", "--out", str(svg_path))
        root = ET.fromstring(svg_path.read_text())
        ns = {"svg": "http://www.w3.org/2000/svg"}
        poly = root.find(".//svg:polygon", ns)
        pts = [tuple(map(float, pair.split(","))) for pair in poly.get("points").split()]
        (x1, y1), (x2, y2), (x3, y3) = pts
        screen_area = 0.5 * ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
        assert screen_area < 0.0

    def test_title_and_labels_are_escaped(self):
        names = ["A&B", "<x>", "q\"'", "plain"]
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        svg = residual_plot_svg(pts, names, (1, 2, 3))
        for label in ("A&amp;B", "&lt;x&gt;", "q\"'", "plain"):
            assert f'font-family="sans-serif">{label}</text></g>' in svg
        root = ET.fromstring(svg)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert [g.find("svg:text", ns).text for g in root.findall(".//svg:g", ns)] == names


def loaded_by_cli_import(modules) -> str:
    """Which of ``modules`` a fresh ``import skewtail.cli`` loads, as printed."""
    paths = [os.path.dirname(os.path.dirname(skewtail.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = f"import sys, skewtail.cli; print([m for m in {tuple(modules)!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestBundledSheetRenderings:
    """SHA-256 of each rendering of the bundled sheet at 27 games per pair.
    A change that moves a byte of them updates the digest and says why."""

    @pytest.mark.parametrize(("args", "digest"), [
        (["--format", "json"], "168bf770199020026754e2fdfc2bbe504145077581f1a2f9ce23a2f1c0165988"),
        ([], "be4c66533d4dc0822fe78e569864e128f0b5a7e247831da1f1f04151e55d5d68"),
    ], ids=["json", "text"])
    def test_analyze(self, capsys, args, digest):
        code, out, _ = run_cli(capsys, "analyze", FIXTURE, "--n-games", "27", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plot(self, capsys, tmp_path):
        svg = tmp_path / "league.svg"
        assert run_cli(capsys, "plot", FIXTURE, "--n-games", "27", "--out", str(svg))[0] == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "11a17e8c5fbc900ae3fd0f9bfa1da306b60e0af88b1c9d41153162375907fb1c"
        )


class TestLawRenderings:
    """SHA-256 of the outputs of the exact laws' paths: the table, point
    queries of both laws and a seeded validation.  A change that moves a
    byte of them updates the digest and says why."""

    @pytest.mark.parametrize(("args", "digest"), [
        (["table1"], "f5235d2471be6b39c597a8b8ee28797c7a6d81224080dc06d19ebbb56016116d"),
        (["dist", "--kind", "cdf", "--p", "18", "--x", "6.0"],
         "54b117c9561125e94fcb9e17cdcc720bc128cb138e25e29fef2694cf11e1485f"),
        (["dist", "--kind", "tail", "--p", "18", "--x", "6.0"],
         "bf635bfc1a54cde50229f66ff7395c0378dc3be11bb72685e0cd2234db47ff43"),
        (["dist", "--kind", "standardized", "--p", "18", "--x", "0.8"],
         "d980e2e10c43dd655cfcb473335900e1848758f9fb4600a3f11ef76a3166bf27"),
        (["validate", "--p", "6", "--samples", "2000", "--seed", "3"],
         "ab12c11cc5c0223632583321e9d648e0a8f99e0daad389cc380d957f73173cc9"),
    ], ids=["table1", "dist-cdf", "dist-tail", "dist-standardized", "validate"])
    def test_output(self, capsys, args, digest):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def readme_library_block() -> str:
    """The python block under README's "Library entry points" heading."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library entry points", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_library_entry_points_run(self):
        names: dict = {}
        exec(compile(readme_library_block(), README, "exec"), names)
        report, eig = names["report"], names["eig"]
        assert report.sv_stat == report.spectrum[0]
        assert eig.spectrum.shape == (3,) and np.all(np.diff(eig.spectrum) <= 0.0)


class TestEntryPoint:
    def test_import_leaves_out_xml_sax_email_and_ssl(self):
        assert loaded_by_cli_import(("xml.sax", "email", "ssl", "concurrent.futures")) == "[]"

    def test_import_leaves_out_fractions_and_decimal(self):
        assert loaded_by_cli_import(("fractions", "decimal")) == "[]"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skewtail.cli", "dist", "--kind", "cdf",
             "--p", "2", "--x", "1.0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "0.6827" in proc.stdout

    def test_math_anchor(self):
        # the value printed above is 2*Phi(1) - 1
        assert 2.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))) - 1.0 == pytest.approx(
            0.68268949, abs=1e-8
        )


#: Exports that no program module reads: the paper's tests, criteria and
#: quantities that only a caller asks for, and the types and errors a caller
#: meets.  Every other export must be read by cli, paired, io or rmtdist.
PAPER_CRITERION_EXPORTS = (
    "contrast_value", "critical_radius_objective", "deadlock_contrast_pair",
    "euler_characteristic", "joint_density", "largest_sv_tail_asymptotic",
    "normalizing_constants", "sample_spectra", "volume_U",
)
TYPES_AND_ERRORS = ("ConvergenceError", "PairingError", "TopPlane")


def objects_read_by(module) -> list:
    """Every object ``module``'s code reads: the globals its names load and
    the attributes it takes of the modules it holds."""
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append(vars(module).get(node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = vars(module).get(node.value.id)
            if inspect.ismodule(owner):
                found.append(getattr(owner, node.attr, None))
    return found


class TestPublicSurface:
    def test_every_export_is_read_by_the_program_or_listed(self):
        read = [obj for module in (cli, paired, skewtail.io, rmtdist) for obj in objects_read_by(module)]
        unread = {name for name in skewtail.__all__
                  if not any(getattr(skewtail, name) is obj for obj in read)}
        assert sorted(unread - set(PAPER_CRITERION_EXPORTS + TYPES_AND_ERRORS)) == []
        assert set(PAPER_CRITERION_EXPORTS + TYPES_AND_ERRORS) <= set(skewtail.__all__)


@st.composite
def score_sheets(draw, m: int) -> tuple[str, int]:
    """(CSV text, games per pair): random, sweep, even-split or (at a
    Paley order) Paley-tournament win counts, some with a ragged row, a
    non-integer cell or a count past int64."""
    style = draw(st.sampled_from(["random", "sweep", "even"]))
    if m in PALEY_ORDERS and draw(st.booleans()):
        style = "paley"
    n = draw(st.sampled_from([27, 1, 2**40]) | st.integers(1, 60))
    if style == "even":
        n += n % 2
    wins = draw(st.integers(0, n))
    r = np.zeros((m, m), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            if style == "sweep":
                r[i, j] = draw(st.sampled_from([0, n]))
            elif style == "even":
                r[i, j] = n // 2
            elif style == "paley":
                r[i, j] = wins if beats_in_paley(m, i, j) else n - wins
            else:
                r[i, j] = draw(st.integers(0, n))
            r[j, i] = n - r[i, j]
    rows = sheet_rows(r)
    i, j = draw(st.permutations(range(1, m + 1)))[:2]
    defect = draw(st.sampled_from([None, None, "ragged", "cell", "games"]))
    if defect == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    elif defect == "cell":
        rows[i][j] = draw(st.sampled_from(["1.5", "x", "", "nan", "1e3", str(2**63)]))
    elif defect == "games":
        n = draw(st.sampled_from([0, -1, 10**20]))
    return csv_text(rows), n


@st.composite
def raw_matrices(draw, m: int) -> str:
    """A skew-symmetric matrix of moderate entries, in some of which a
    few entries are NaN, infinite, huge or tiny."""
    t = m * (m - 1) // 2
    upper = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=t, max_size=t)))
    if draw(st.booleans()):
        wild = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e200, 1e-300]) | st.floats()
        for _ in range(draw(st.integers(1, 3))):
            upper[draw(st.integers(0, t - 1))] = draw(wild)
    y = np.zeros((m, m))
    y[np.triu_indices(m, 1)] = upper
    y -= y.T
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in y) + "\n"


@st.composite
def analyze_runs(draw) -> tuple[str, list[str]]:
    """(input text, analyze arguments after the input path) for m = 3..61,
    often a Paley order."""
    m = draw(st.integers(3, 61) | st.sampled_from(PALEY_ORDERS))
    fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.booleans()):
        text, n = draw(score_sheets(m))
        return text, ["--n-games", str(n)] + fmt
    return draw(raw_matrices(m)), ["--raw"] + fmt


def printed_p_values(out: str, fmt: str) -> list[float]:
    if fmt == "json":
        report = json.loads(out)
        ps = [report[k]["p"] for k in ("chi2", "largest_sv", "standardized")]
        return [p for p in ps if not isinstance(p, str) and p is not None]
    return [float(p) for p in re.findall(r"\bp = (\S+)", out)]


class TestFuzz:
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(analyze_runs())
    @example((paley_league(59), ["--n-games", "27", "--format", "json"]))
    def test_analyze_exits_cleanly_with_p_values_in_unit_interval(self, tmp_path_factory, run):
        text, args = run
        path = tmp_path_factory.mktemp("fuzz") / "input.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", str(path)] + args)
        # the one warning analyze may give: a sheet with 0-or-all sweeps
        assert all(
            w.category is UserWarning and "boundary sweeps" in str(w.message) for w in caught
        ), [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            ps = printed_p_values(out.getvalue(), args[-1])
            assert len(ps) >= 2
            assert all(0.0 <= p <= 1.0 for p in ps), ps
        else:
            assert out.getvalue() == ""
