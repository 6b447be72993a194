"""Correctness checks on every op's outputs, against stored references.

Each check has a class:

* ``exact``: must pass.  Any failure makes the run incorrect.
* ``defect``: a region where the sigma_1 law is known to be wrong at
  the time the benchmark was written (orders above 18: law values at
  p = 24 and 32, reports at m = 40 and 60).  Failures are counted in
  ``failed_frac`` and reported, but do not make the run incorrect.
* ``statistical``: ``validate``'s own 3-sigma verdict, which a correct
  program fails on about one seed in sixty.  The run is incorrect only
  if most of them fail.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

import workloads

MC_SIGMAS = 5.0
#: Linear interpolation between the stored null quantiles (every 1/2000).
MC_GRID_SLACK = 1e-3
GOLDEN_TOL = 1e-12


@dataclass
class CheckLog:
    attempted: dict = field(default_factory=lambda: {"exact": 0, "defect": 0, "statistical": 0})
    failed: dict = field(default_factory=lambda: {"exact": 0, "defect": 0, "statistical": 0})
    examples: list = field(default_factory=list)

    def check(self, ok: bool, cls: str, what: str) -> bool:
        self.attempted[cls] += 1
        if not ok:
            self.failed[cls] += 1
            example = f"[{cls}] {what}"
            if len(self.examples) < 12 and example not in self.examples:
                self.examples.append(example)
        return ok

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def correct(self) -> bool:
        return self.failed["exact"] == 0 and 2 * self.failed["statistical"] <= self.attempted["statistical"]


class References:
    def __init__(self):
        laws = workloads.load_ref("laws.json")
        self.cdf = {(e["p"], e["x"]): float(e["ref"]) for e in laws["largest_sv_cdf"]}
        self.std = {(e["p"], e["x"]): float(e["ref"]) for e in laws["standardized_sv_upper"]}
        self.validate_std = {e["x"]: float(e["ref"]) for e in laws["validate_standardized"]}
        null = workloads.load_ref("null_sigma1.json")
        self.null_samples = null["samples"]
        self.null_levels = np.linspace(0.0, 1.0, null["quantile_levels"])
        self.null_quantiles = {int(k): np.array(v) for k, v in null["quantiles"].items()}
        self.golden = workloads.load_ref("central_league_1997.golden.json")

    def null_upper(self, order: int, x: float) -> float:
        """Monte-Carlo P(sigma_1 > x) at this order, from the stored quantiles."""
        q = self.null_quantiles[order]
        return float(1.0 - np.interp(x, q, self.null_levels, left=0.0, right=1.0))


def law_ok(kind: str, value, ref: float) -> bool:
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    if kind == "cdf":
        return abs(value - ref) <= workloads.CDF_ABS_TOL
    return abs(value - ref) <= workloads.STD_REL_TOL * abs(ref)


def check_laws(out: dict, job: dict, refs: References, log: CheckLog) -> None:
    for (kind, p, x), value in zip(job["points"], out["values"]):
        ref = (refs.cdf if kind == "cdf" else refs.std)[(p, x)]
        cls = "defect" if workloads.known_defect_order(p) else "exact"
        log.check(law_ok(kind, value, ref), cls, f"{kind} p={p} x={x}: {value!r} vs {ref!r}")


_STD_LINE = re.compile(r"x=(\d\.\d\d)\s+empirical=\S+\s+exact=(\S+)")


def check_validate(out: dict, refs: References, log: CheckLog) -> None:
    stdout = out["stdout"]
    log.check(out["code"] == 0, "exact", f"validate exit code {out['code']}")
    log.check("overall: PASS" in stdout, "statistical", "validate did not print 'overall: PASS'")
    printed = {float(x): float(v) for x, v in _STD_LINE.findall(stdout)}
    for x, ref in refs.validate_std.items():
        value = printed.get(x)
        log.check(value is not None and abs(value - ref) <= 5.1e-7, "exact",
                  f"validate standardized exact at x={x}: {value!r} vs {ref!r}")


def _numbers_match(got, want, path="") -> str | None:
    """First path where two JSON values differ beyond GOLDEN_TOL, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return path or "/"
        for key in want:
            bad = _numbers_match(got[key], want[key], f"{path}/{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _numbers_match(g, w, f"{path}/{i}")
            if bad:
                return bad
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if abs(got - want) <= GOLDEN_TOL * max(1.0, abs(want)) else path
    return None if got == want else path


def _is_probability(v) -> bool:
    return isinstance(v, (int, float)) and 0.0 <= v <= 1.0


def check_report(sheet: dict, refs: References, log: CheckLog) -> None:
    m, kind = sheet["m"], sheet["kind"]
    tag = f"m={m} {kind}"
    if not log.check(sheet["code"] == 0, "exact", f"{tag}: analyze exit code {sheet['code']}"):
        return
    log.check(sheet["svg_ok"], "exact", f"{tag}: plot is not a complete SVG document")
    rep = json.loads(sheet["report"])
    if kind == "central_league":
        bad = _numbers_match(rep, refs.golden)
        log.check(bad is None, "exact", f"{tag}: differs from the golden report at {bad}")
    sv, sv_p = rep["largest_sv"]["stat"], rep["largest_sv"]["p"]
    spectrum = rep["spectrum"]
    chi2 = rep["chi2"]["stat"]
    log.check(math.isclose(sv, spectrum[0], rel_tol=1e-12), "exact",
              f"{tag}: sv_stat {sv!r} != spectrum[0] {spectrum[0]!r}")
    log.check(math.isclose(sum(s * s for s in spectrum), chi2, rel_tol=1e-9), "exact",
              f"{tag}: sum of squared spectrum != chi2_stat {chi2!r}")
    log.check(rep["deadlock"]["value"] <= sv * (1.0 + 1e-12), "exact",
              f"{tag}: deadlock value {rep['deadlock']['value']!r} exceeds sigma1 {sv!r}")
    std_p = rep["standardized"]["p"]
    log.check(_is_probability(rep["chi2"]["p"]) and _is_probability(sv_p)
              and (std_p == "outside_validity" or _is_probability(std_p)), "exact",
              f"{tag}: a p-value lies outside [0, 1]")
    order = m - 1
    emp = refs.null_upper(order, sv)
    n = refs.null_samples
    se = math.sqrt(max(emp * (1 - emp), sv_p * (1 - sv_p) if _is_probability(sv_p) else 0.0, 1.0 / n) / n)
    cls = "defect" if workloads.known_defect_order(order) else "exact"
    log.check(_is_probability(sv_p) and abs(sv_p - emp) <= MC_SIGMAS * se + MC_GRID_SLACK, cls,
              f"{tag}: sv_p {sv_p!r} vs Monte-Carlo null {emp:.4f} at order {order}")


def check_league(out: dict, refs: References, log: CheckLog) -> None:
    for sheet in out["sheets"]:
        check_report(sheet, refs, log)


def check_outputs(job: dict, outputs: list, refs: References, log: CheckLog) -> None:
    for out in outputs:
        if job["workload"] == "laws":
            check_laws(out, job, refs, log)
        elif job["workload"] == "validate":
            check_validate(out, refs, log)
        else:
            check_league(out, refs, log)
