"""Spans and counters around calls into the package's layers.

The benchmark's traced run replaces public functions at the module
attributes their callers look them up through (``cli.build_report``,
``paired.largest_sv_cdf``, ``mc.spectra_from_uppers``, ...) with
wrappers that record a span: (id, parent, name, start, end, eigen
solves inside, tag).  Spans stay in memory and are written when the
process ends; self times are derived afterwards.  The special functions
run at microsecond scale and tens of thousands of times per op, so a
span each would distort their callers' self times: they get a call
count and a summed time instead.  ``numpy.linalg.eigh``/``eigvalsh``
calls are counted so each span knows how many eigen-solves it ran.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import time
from collections import defaultdict

SPECFUN = ("log_regularized_gamma_lower", "chi2_upper", "beta_upper", "log_gamma")


def _m_of_first_arg(*args, **kwargs):
    return args[0].m


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, list] = {}
        self.eig_calls = 0
        self.cold_gram = [0, 0.0]
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Drop what was recorded so far (the cold first op), keep the wrappers."""
        self.spans.clear()
        for entry in self.counters.values():
            entry[0], entry[1] = 0, 0.0
        self.cold_gram[:] = [0, 0.0]

    def span(self, name: str, fn, tag=None):
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            eig0 = self.eig_calls
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.eig_calls - eig0,
                              tag(*args, **kwargs) if tag else None))

        return traced

    def counted(self, name: str, fn):
        perf = time.perf_counter
        entry = self.counters.setdefault(name, [0, 0.0])

        def timed(*args):
            start = perf()
            try:
                return fn(*args)
            finally:
                entry[1] += perf() - start
                entry[0] += 1

        return timed

    def eigen(self, fn):
        def solve(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return solve

    def cold(self, cached):
        """Time the calls of an lru_cache'd function that miss its cache."""
        perf = time.perf_counter

        def build(*args):
            misses = cached.cache_info().misses
            start = perf()
            try:
                return cached(*args)
            finally:
                if cached.cache_info().misses != misses:
                    self.cold_gram[0] += 1
                    self.cold_gram[1] += perf() - start

        return build

    def patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import numpy.linalg

        from skewtail import cli, io, mc, paired, rmtdist, svgplot

        def span(name, tag=None):
            return lambda fn: self.span(name, fn, tag)

        boundaries = [
            (cli, "build_report", "paired.build_report", _m_of_first_arg),
            (cli, "variance_stabilize", "paired.variance_stabilize", None),
            (cli, "largest_sv_cdf", "rmtdist.largest_sv_cdf", None),
            (cli, "standardized_sv_upper", "rmtdist.standardized_sv_upper", None),
            (io, "read_score_sheet_csv", "io.read_score_sheet_csv", None),
            (io, "render_json", "io.render_json", None),
            (svgplot, "residual_plot_svg", "svgplot.residual_plot_svg", None),
            (mc, "sample_uppers", "mc.sample_uppers", lambda p, count, *a, **k: count),
            (mc, "spectra_from_uppers", "mc.spectra_from_uppers", lambda uppers, p: len(uppers)),
            (mc, "ks_distance", "mc.ks_distance", None),
            (paired, "largest_sv_test", "paired.largest_sv_test", _m_of_first_arg),
            (paired, "interaction_spectrum", "paired.interaction_spectrum", None),
            (paired, "max_deadlock", "paired.max_deadlock", _m_of_first_arg),
            (paired, "largest_sv_cdf", "rmtdist.largest_sv_cdf", None),
            (paired, "standardized_sv_upper", "rmtdist.standardized_sv_upper", None),
            (rmtdist, "largest_sv_cdf", "rmtdist.largest_sv_cdf", None),
            (rmtdist, "standardized_sv_upper", "rmtdist.standardized_sv_upper", None),
        ]
        for module, attr, name, tag in boundaries:
            self.patch(module, attr, span(name, tag))
        for fn in SPECFUN:
            self.patch(rmtdist, fn, lambda f, fn=fn: self.counted(f"specfun.{fn}", f))
        self.patch(paired, "chi2_upper", lambda f: self.counted("specfun.chi2_upper", f))
        self.patch(rmtdist, "_hankel_gram_cached", self.cold)
        self.patch(numpy.linalg, "eigh", self.eigen)
        self.patch(numpy.linalg, "eigvalsh", self.eigen)

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": self.counters}


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children of one span run one after another (one thread), so the
    covered part is the sum of the children's durations.
    """
    child = defaultdict(float)
    for sid, parent, _name, start, end, *_ in spans:
        child[parent] += end - start
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}


def layer_metrics(trace: dict, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the steady traced ops, as name -> (value, unit).

    Every name is present on every workload; a layer the workload does
    not reach reads 0.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    ids_of = {s[0]: s for s in spans}

    def total(name, tag=None, inclusive=True):
        rows = [s for s in by_name[name] if tag is None or s[6] == tag]
        secs = sum((s[4] - s[3]) if inclusive else selfs[s[0]] for s in rows)
        return secs, len(rows)

    def per_op_ms(name, inclusive=False):
        return 1e3 * total(name, inclusive=inclusive)[0] / n_ops

    def per_call(name, tag=None, scale=1e3, inclusive=True):
        secs, calls = total(name, tag, inclusive)
        return scale * secs / calls if calls else 0.0

    def rate(name):
        rows = by_name[name]
        secs = sum(selfs[s[0]] for s in rows)
        return sum(s[6] for s in rows) / secs if secs > 0 else 0.0

    ks_ids = {s[0] for s in by_name["mc.ks_distance"]}
    cdf_in_ks = sum(1 for s in by_name["rmtdist.largest_sv_cdf"] if s[1] in ks_ids)
    reports = by_name["paired.build_report"]
    report_ids = {s[0] for s in reports}

    def under_report(sid):
        while sid:
            if sid in report_ids:
                return True
            sid = ids_of[sid][1]
        return False

    spectrum_calls = sum(1 for s in by_name["paired.interaction_spectrum"] if under_report(s[1]))
    eig_in_reports = sum(s[5] for s in reports)

    out = {
        "mc.sample_uppers.self_ms": (per_op_ms("mc.sample_uppers"), "ms"),
        "mc.sample_uppers.samples_per_s": (rate("mc.sample_uppers"), "1/s"),
        "mc.spectra_from_uppers.self_ms": (per_op_ms("mc.spectra_from_uppers"), "ms"),
        "mc.spectra_from_uppers.spectra_per_s": (rate("mc.spectra_from_uppers"), "1/s"),
        "mc.ks_distance.ms": (per_op_ms("mc.ks_distance", inclusive=True), "ms"),
        "mc.ks_distance.cdf_calls": (cdf_in_ks / n_ops, "count"),
    }
    for law in ("largest_sv_cdf", "standardized_sv_upper"):
        name = f"rmtdist.{law}"
        out[f"{name}.us_per_call"] = (per_call(name, scale=1e6), "us")
        out[f"{name}.calls_per_op"] = (len(by_name[name]) / n_ops, "count")
    for fn in SPECFUN:
        calls, secs = trace["counters"].get(f"specfun.{fn}", (0, 0.0))
        out[f"specfun.{fn}.calls_per_op"] = (calls / n_ops, "count")
        out[f"specfun.{fn}.self_us_per_call"] = (1e6 * secs / calls if calls else 0.0, "us")
    for m in (6, 20, 40, 60):
        out[f"paired.build_report.ms.m{m}"] = (per_call("paired.build_report", tag=m), "ms")
    for m in (40, 60):
        out[f"paired.max_deadlock.self_ms.m{m}"] = (
            per_call("paired.max_deadlock", tag=m, inclusive=False), "ms")
        out[f"paired.largest_sv_test.ms.m{m}"] = (per_call("paired.largest_sv_test", tag=m), "ms")
    out["paired.interaction_spectrum.calls_per_report"] = (
        spectrum_calls / len(reports) if reports else 0.0, "count")
    out["paired.eigen_solves_per_report"] = (eig_in_reports / len(reports) if reports else 0.0, "count")
    for name in ("io.read_score_sheet_csv", "paired.variance_stabilize", "io.render_json",
                 "svgplot.residual_plot_svg"):
        out[f"{name}.self_ms"] = (per_op_ms(name), "ms")
    out["cli.self_ms"] = (per_op_ms("cli.main"), "ms")
    return out
