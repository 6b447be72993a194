"""One benchmark process: import the package, run ops in a closed loop.

    python3 bench/worker.py JOB.json RESULT.json

The process starts cold.  ``setup_s`` runs from just before ``import
skewtail`` until the first op completes; later ops are timed one by one,
back to back, until the job's window has passed.  The process is pinned
to one CPU and the calibration of :mod:`hostspeed` interleaves with the
ops; its CPU time is taken out of each op's time and its host factor is
recorded beside it.  Op outputs are collected outside the timed part
and written, with the timings and peak RSS, to RESULT.json; the checks
run in the parent.
With ``trace`` set, the layer wrappers of :mod:`tracer` are installed
before the first op and their record is written at exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import hostspeed


def validate_op(job, main):
    def op(k):
        out = io.StringIO()
        argv = ["validate", "--p", str(job["p"]), "--samples", str(job["samples"]),
                "--seed", str(job["seed"] + k)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        end = time.perf_counter()
        return start, end, {"code": code, "stdout": out.getvalue()}

    return op


def league_op(job, main):
    seasons = job["seasons"]
    n_games = str(job["n_games"])
    workdir = job["workdir"]

    def op(k):
        season = seasons[k % len(seasons)]
        paths = [(os.path.join(workdir, f"w{job['worker']}_r{i}.json"),
                  os.path.join(workdir, f"w{job['worker']}_r{i}.svg")) for i in range(len(season))]
        codes = []
        start = time.perf_counter()
        for sheet, (report, plot) in zip(season, paths):
            codes.append(main(["analyze", sheet["path"], "--n-games", n_games, "--format", "json",
                               "--out", report, "--plot", plot]))
        end = time.perf_counter()
        sheets = []
        for sheet, code, (report, plot) in zip(season, codes, paths):
            entry = {"m": sheet["m"], "kind": sheet["kind"], "code": code}
            if code == 0:
                with open(report, encoding="utf-8") as fh:
                    entry["report"] = fh.read()
                with open(plot, encoding="utf-8") as fh:
                    svg = fh.read()
                entry["svg_ok"] = svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")
                os.remove(report)
                os.remove(plot)
            sheets.append(entry)
        return start, end, {"season": k % len(seasons), "sheets": sheets}

    return op


def laws_op(job, rmtdist, error_type):
    points = [tuple(p) for p in job["points"]]
    orders = job["orders"]

    def op(k):
        values = [None] * len(points)
        start = time.perf_counter()
        for i in orders[k % len(orders)]:
            kind, p, x = points[i]
            try:
                if kind == "cdf":
                    values[i] = rmtdist.largest_sv_cdf(p, x)
                else:
                    values[i] = rmtdist.standardized_sv_upper(p, x)
            except error_type as exc:
                values[i] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        return start, end, {"values": values}

    return op


def run(job: dict) -> dict:
    with hostspeed.Sampler() as sampler:
        return measure(job, sampler)


def measure(job: dict, sampler) -> dict:
    start = time.perf_counter()
    import skewtail
    from skewtail import cli, rmtdist

    import_s = time.perf_counter() - start
    tracer = None
    main = cli.main
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.span("cli.main", cli.main)
    workload = job["workload"]
    if workload == "validate":
        op = validate_op(job, main)
    elif workload == "league":
        op = league_op(job, main)
    else:
        op = laws_op(job, rmtdist, skewtail.SkewtailError)

    _, setup_end, first = op(0)
    cold_gram = None
    if tracer is not None:
        cold_gram = list(tracer.cold_gram)
        tracer.reset()
    spans, outputs = [], [first]
    deadline = time.perf_counter() + job["window_s"]
    k = 1
    while time.perf_counter() < deadline:
        op_start, op_end, out = op(k)
        spans.append((op_start, op_end))
        outputs.append(out)
        k += 1
    time.sleep(hostspeed.WINDOW_S + hostspeed.PERIOD_S)

    def timed(a, b):
        calibrating, factor = sampler.measure(a, b)
        return b - a - calibrating, factor

    setup_s, setup_factor = timed(start, setup_end)
    ops = [timed(a, b) for a, b in spans]
    result = {
        "skewtail_file": skewtail.__file__,
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "latencies_s": [t for t, _ in ops],
        "factors": [f for _, f in ops],
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
        result["trace"]["cold_gram_first_op"] = cold_gram
    return result


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
