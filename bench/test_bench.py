"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

CENTRAL = os.path.join(SRC, "skewtail", "data", "central_league_1997.csv")


@pytest.fixture(scope="module")
def refs():
    return checks.References()


def read_inputs(job):
    out = []
    for season in job["seasons"]:
        for sheet in season:
            with open(sheet["path"], "rb") as fh:
                out.append(fh.read())
    return out


def test_generator_is_deterministic(tmp_path):
    a, b, c = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (a, b, c):
        d.mkdir()
    job_a = workloads.make_job("league", 7, str(a), CENTRAL)
    job_b = workloads.make_job("league", 7, str(b), CENTRAL)
    job_c = workloads.make_job("league", 8, str(c), CENTRAL)
    assert read_inputs(job_a) == read_inputs(job_b)
    assert read_inputs(job_a) != read_inputs(job_c)
    assert workloads.make_job("laws", 7, str(a), CENTRAL) == workloads.make_job("laws", 7, str(b), CENTRAL)
    assert workloads.make_job("laws", 7, str(a), CENTRAL)["orders"] != \
        workloads.make_job("laws", 8, str(a), CENTRAL)["orders"]


def exact_laws_output(job, refs):
    values = []
    for kind, p, x in job["points"]:
        values.append((refs.cdf if kind == "cdf" else refs.std)[(p, x)])
    return {"values": values}


def test_perturbed_law_value_counts_as_failed(tmp_path, refs):
    job = workloads.make_job("laws", 1, str(tmp_path), CENTRAL)
    out = exact_laws_output(job, refs)
    log = checks.CheckLog()
    checks.check_laws(out, job, refs, log)
    assert log.total_failed == 0 and log.total_attempted == len(job["points"])

    i = next(i for i, (kind, p, _) in enumerate(job["points"]) if kind == "cdf" and p == 10)
    out["values"][i] += 2 * workloads.CDF_ABS_TOL
    log = checks.CheckLog()
    checks.check_laws(out, job, refs, log)
    assert log.failed == {"exact": 1, "defect": 0, "statistical": 0}
    assert not log.correct


def central_sheet():
    with open(os.path.join(workloads.refs_dir(), "central_league_1997.golden.json"), encoding="utf-8") as fh:
        report = fh.read()
    return {"m": 6, "kind": "central_league", "code": 0, "report": report, "svg_ok": True}


def test_golden_report_passes_and_perturbed_report_fails(refs):
    log = checks.CheckLog()
    checks.check_report(central_sheet(), refs, log)
    assert log.total_failed == 0

    sheet = central_sheet()
    rep = json.loads(sheet["report"])
    rep["largest_sv"]["stat"] *= 1.0 + 1e-9
    sheet["report"] = json.dumps(rep)
    log = checks.CheckLog()
    checks.check_report(sheet, refs, log)
    assert log.failed["exact"] >= 2  # golden mismatch and sv_stat != spectrum[0]
    assert not log.correct


def test_wrong_sv_p_counts_as_failed(refs):
    sheet = central_sheet()
    rep = json.loads(sheet["report"])
    rep["largest_sv"]["p"] = 0.5
    sheet["report"] = json.dumps(rep)
    log = checks.CheckLog()
    checks.check_report(sheet, refs, log)
    assert any("Monte-Carlo null" in e for e in log.examples)


def test_percentile_helper_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 0.5
    assert run.tail_percentile(99) == 0.5
    assert run.tail_percentile(100) == 0.9
    assert run.tail_percentile(999) == 0.9
    assert run.tail_percentile(1000) == 0.99
    for n in (20, 57, 100, 250, 1000, 12000):
        q = run.tail_percentile(n)
        samples = list(range(n))
        value = run.nearest_rank(samples, q)
        assert sum(1 for s in samples if s > value) >= 10


def run_op(make, traced):
    """Outputs of two ops built by ``make(main)``, with or without the tracer installed."""
    from skewtail import cli

    tracer = Tracer()
    main = cli.main
    if traced:
        tracer.install()
        main = tracer.span("cli.main", cli.main)
    try:
        op = make(main)
        return [op(k)[2] for k in range(2)], tracer
    finally:
        tracer.uninstall()


def test_outputs_identical_traced_and_untraced(tmp_path):
    from skewtail import SkewtailError, rmtdist

    league = workloads.make_job("league", 3, str(tmp_path), CENTRAL)
    league = dict(league, seasons=league["seasons"][:1], workdir=str(tmp_path), worker=0)
    laws = workloads.make_job("laws", 3, str(tmp_path), CENTRAL)
    validate = dict(workloads.make_job("validate", 3, str(tmp_path), CENTRAL), samples=2000)

    makers = (
        lambda main: worker.league_op(league, main),
        lambda main: worker.validate_op(validate, main),
        lambda main: worker.laws_op(laws, rmtdist, SkewtailError),
    )
    for make in makers:
        plain, _ = run_op(make, traced=False)
        traced, tracer = run_op(make, traced=True)
        assert plain == traced
        assert tracer.spans
    assert rmtdist.largest_sv_cdf.__module__ == "skewtail.rmtdist"


def test_traced_counts_of_one_season(tmp_path):
    job = workloads.make_job("league", 3, str(tmp_path), CENTRAL)
    job = dict(job, seasons=job["seasons"][:1], workdir=str(tmp_path), worker=0)
    _, tracer = run_op(lambda main: worker.league_op(job, main), traced=True)
    layers = layer_metrics(tracer.dump(), 2)
    assert layers["paired.eigen_solves_per_report"][0] == 4
    assert layers["paired.interaction_spectrum.calls_per_report"][0] == 3


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "laws", "--seed", "5",
         "--seconds", "1.5", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["correct"] is True and result["failed"] == 0
    assert "failed_frac" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "laws", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    traced = {"latencies_s": [1.0], "factors": [1.0], "setup_s": 1.0, "setup_factor": 1.0, "import_s": 0.1,
              "trace": {"spans": [], "counters": {}, "cold_gram_first_op": [0, 0.0]}}
    layers = run.trace_metrics(traced, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_sampler_takes_calibration_out_of_an_op():
    import time

    import hostspeed

    cpus = os.sched_getaffinity(0)
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
        time.sleep(hostspeed.WINDOW_S + hostspeed.PERIOD_S)
        calibrating, factor = sampler.measure(start, end)
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == cpus
    assert 0.0 < calibrating < 0.2 * (end - start)
    assert factor > 0.0
