"""skewtail benchmark: closed-loop workloads with per-op correctness checks.

    python3 bench/run.py --workload league --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload laws --seed 1 --seconds 20 --repeat 5

Run from anywhere; it benchmarks the package under ``src/`` next to this
directory.  Workloads (see ``workloads.py`` for why each exists):
``validate``, ``league``, ``laws``.  One client in a closed loop, BLAS
pinned to one thread and ``SKEWTAIL_THREADS`` unset.  Times are scaled
to a nominal host speed by a calibration op sampled while the ops run
(``hostspeed.py`` says why); the unscaled figures are printed too.

``--trace 0`` runs three fresh worker processes one after another, each
measuring a third of ``--seconds``; each one's first op is cold and gives
one ``setup_s`` sample.  It prints the end-to-end metrics:

* ``setup_s``: median over the workers of the time from just before
  ``import skewtail`` until the first op completes;
* ``ops_per_s``: ops completed divided by the time spent in them;
* ``latency_ms_p50`` (median) and, where at least ten samples lie
  beyond it, ``latency_ms_p90``, which is reported on the lines before
  the result only, since ``validate`` runs too few ops for it;
* ``peak_rss_mb``: the largest peak RSS of the workers;
* ``failed_frac``: failed checks over checks attempted, known defects
  included (lines before the result; see ``checks.py``).

``--trace 1`` runs one untraced and one traced worker, each for half of
``--seconds``, and prints the per-layer metrics of the traced one plus
``trace.overhead_frac`` = 1 - traced/untraced ops per second.

``--repeat N`` runs the benchmark 2 x N times on seeds ``seed ..
seed+2N-1`` and prints each end-to-end metric's median, quartiles and
spread (interquartile range over median) for both sets and for all runs,
and the drift between the two sets' medians, to show the figures repeat.

With ``--workload all`` the workloads run one after another and the
last line maps each workload to its result.  For one workload the last
line of standard output is one JSON object with the keys
``correct`` (no must-pass check failed; see ``checks.py``), ``attempted``
(ops run), ``failed`` (ops that exited non-zero or failed a must-pass
check) and ``metrics``.  Outputs of every op, the cold ones included, are
checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Every run, workers included, ends within this many seconds.
RUN_BUDGET_S = 170

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("SKEWTAIL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "skewtail")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "SKEWTAIL_THREADS": "unset",
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p90/p50 with at least ten of n samples beyond it."""
    for q in (0.999, 0.99, 0.9, 0.5):
        if n - math.ceil(q * n) >= 10:
            return q
    return None


def run_worker(job: dict, workdir: str, index: int, trace: bool, window_s: float,
               deadline: float) -> dict:
    job = dict(job, trace=trace, window_s=window_s, worker=index, workdir=workdir)
    job_path = os.path.join(workdir, f"job{index}.json")
    result_path = os.path.join(workdir, f"result{index}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
        env=pinned_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["skewtail_file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"worker imported skewtail from {result['skewtail_file']}, not {SRC}")
    return result


def scaled(result: dict) -> tuple[float, list[float]]:
    """(setup_s, op latencies) of one worker, scaled to nominal host speed."""
    return (result["setup_s"] * result["setup_factor"],
            [x * f for x, f in zip(result["latencies_s"], result["factors"])])


def trace_metrics(traced: dict, untraced_ops_per_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced worker, plus its cold start and tracing overhead."""
    n_ops = len(traced["latencies_s"])
    layers = tracer.layer_metrics(traced["trace"], n_ops)
    layers["rmtdist.hankel_gram.cold_ms"] = (1e3 * traced["trace"]["cold_gram_first_op"][1], "ms")
    layers["import_s"] = (traced["import_s"], "s")
    traced_ops_per_s = n_ops / sum(scaled(traced)[1])
    layers["trace.overhead_frac"] = (1.0 - traced_ops_per_s / untraced_ops_per_s, "frac")
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    refs = checks.References()
    central = os.path.join(SRC, "skewtail", "data", "central_league_1997.csv")
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        job = workloads.make_job(workload, seed, workdir, central)
        if trace:
            plan = [(False, seconds / 2.0), (True, seconds / 2.0)]
        else:
            plan = [(False, seconds / 3.0)] * 3
        results = [run_worker(job, workdir, i, t, w, deadline) for i, (t, w) in enumerate(plan)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    log = checks.CheckLog()
    outputs = [out for r in results for out in r["outputs"]]
    failed = 0
    for out in outputs:
        before = log.failed["exact"]
        checks.check_outputs(job, [out], refs, log)
        failed += log.failed["exact"] > before

    lines = []
    env = environment(seed)
    lines.append(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
                 "load=closed loop, 1 client, no think time")
    lines.append("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    frac = log.total_failed / log.total_attempted
    lines.append(
        f"failed_frac        {frac:.6f}  ({log.total_failed} of {log.total_attempted} checks; "
        + ", ".join(f"{c} {log.failed[c]}/{log.attempted[c]}" for c in log.attempted) + ")"
    )
    for example in log.examples:
        lines.append(f"#   failed check {example}")

    untraced = [r for r, (t, _) in zip(results, plan) if not t]
    lat = [x for r in untraced for x in scaled(r)[1]]
    unscaled = [x for r in untraced for x in r["latencies_s"]]
    if not lat:
        raise RuntimeError("no op completed inside the window; raise --seconds")
    ops_per_s = len(lat) / sum(lat)
    metrics = {}
    if trace:
        traced = results[-1]
        for name, (value, unit) in trace_metrics(traced, ops_per_s).items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<52s} {value:.6g} {unit}")
        lines.append(f"# traced ops={len(traced['latencies_s'])}, cold gram builds in first op="
                     f"{traced['trace']['cold_gram_first_op'][0]}; layer times are unscaled wall clock, "
                     "the overhead compares host-scaled ops per second")
    else:
        setups = [scaled(r)[0] for r in results]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "latency_ms_p50": 1e3 * statistics.median(lat),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        factor = statistics.median(f for r in results for f in r["factors"])
        lines.append(f"# times are scaled to nominal host speed (hostspeed.py); median factor {factor:.4f}")
        lines.append(f"setup_s            {values['setup_s']:.4f} s  (median of {len(setups)} fresh "
                     f"processes: {', '.join(f'{s:.4f}' for s in setups)}; unscaled import "
                     f"{statistics.median(r['import_s'] for r in results):.4f} s)")
        lines.append(f"ops_per_s          {ops_per_s:.4f} 1/s  ({len(lat)} ops; unscaled "
                     f"{len(unscaled) / sum(unscaled):.4f} 1/s)")
        lines.append(f"latency_ms_p50     {values['latency_ms_p50']:.4f} ms  (n={len(lat)}; unscaled "
                     f"{1e3 * statistics.median(unscaled):.4f} ms)")
        q = tail_percentile(len(lat))
        if q is not None and q > 0.5:
            lines.append(f"latency_ms_p{100 * q:g}     {1e3 * nearest_rank(lat, q):.4f} ms  "
                         f"(n={len(lat)}, {len(lat) - math.ceil(q * len(lat))} beyond; unscaled "
                         f"{1e3 * nearest_rank(unscaled, q):.4f} ms)")
        else:
            lines.append(f"latency_ms_p90     not reported: n={len(lat)} leaves fewer than ten samples "
                         "beyond p90")
        lines.append(f"peak_rss_mb        {values['peak_rss_mb']:.1f} MB")
    result = {"correct": log.correct, "attempted": len(outputs), "failed": failed, "metrics": metrics}
    return result, lines


def repeat(args) -> int:
    sets = []
    for s in range(2):
        runs = []
        for i in range(args.repeat):
            seed = args.seed + s * args.repeat + i
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"# set {s + 1} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        sets.append(runs)
    summary = {}
    for name in END_TO_END:
        row = []
        for runs in sets:
            q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
            row.append({"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2})
        q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for runs in sets for r in runs], n=4)
        drift = row[1]["median"] / row[0]["median"] - 1.0
        summary[name] = {"sets": row, "median_drift": drift, "all_spread": (q3 - q1) / q2}
        print(f"{name:<16s} " + "  ".join(
            f"set{i + 1}: median {r['median']:.5g} [q1 {r['q1']:.5g}, q3 {r['q3']:.5g}] "
            f"spread {r['spread']:.3%}" for i, r in enumerate(row))
            + f"  drift {drift:+.3%}  all {2 * args.repeat} runs: spread {(q3 - q1) / q2:.3%}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "summary": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run 2 x N seeds and print each metric's median and quartiles per set")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skewtail", "__init__.py")):
        print(f"error: no package at {SRC}/skewtail; run from a full checkout", file=sys.stderr)
        return 2
    if args.repeat:
        if args.workload == "all":
            parser.error("--repeat takes one workload")
        return repeat(args)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        started = time.monotonic()
        try:
            results[name], lines = measure(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        print(f"# wall {time.monotonic() - started:.1f} s", flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
