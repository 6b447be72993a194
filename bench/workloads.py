"""What each workload runs, and the seeded generator of its inputs.

Every op of a workload does the same fixed mix of work, so latency
percentiles never straddle input sizes.  Why each workload exists:

* ``validate``: the Monte-Carlo check users run, ``skewtail validate --p 10
  --samples 200000``: the sampler, the batched eigen-solve and 4099
  distribution-function calls on a dense grid, and no paired analysis.
* ``league``: a season of ``analyze`` reports (JSON plus SVG plot) on the
  bundled Central League sheet and generated leagues at m = 20, 40, 60,
  so file I/O, the paired pipeline, rendering and scalar law queries all
  run, and no sampling does.
* ``laws``: a sweep of direct library calls to the two exact laws across
  orders 4..18, 24 and 32, where per-call overhead shows and one point
  query at a time is what a ``dist``/``table1``/p-value user pays.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("validate", "league", "laws")

#: Orders the ``laws`` sweep covers; the test suite verifies p <= 18 only.
LAW_ORDERS = tuple(range(4, 19)) + (24, 32)
TESTED_MAX_ORDER = 18
#: sigma_1 quantile levels at which the distribution function is queried:
#: two on the direct determinant route, two on the near-saturation route.
QUANTILE_LEVELS = (0.01, 0.5, 0.99, 0.999999)
STD_POINTS = (1.0 / math.sqrt(2.0), 0.8, 0.9)
#: Stated accuracy: absolute for the distribution function, relative for
#: the standardized upper tail (deep tails reach 1e-40 at p = 32).
CDF_ABS_TOL = 1e-8
STD_REL_TOL = 1e-8

VALIDATE_ORDER = 10
VALIDATE_SAMPLES = 200_000
#: Thresholds at which ``validate`` prints the exact standardized tail.
VALIDATE_STD_POINTS = (0.75, 0.8, 0.9)

N_GAMES = 27
#: A season: the bundled sheet, then generated leagues whose kind
#: alternates with size.  Noise leagues take the sigma_1 law through its
#: direct route; the planted rank-2 deadlock takes it through the
#: near-saturation route and puts the standardized statistic above
#: 1/sqrt(2), so its tail is computed too.
LEAGUE_SHEETS = ((20, "noise"), (40, "planted"), (60, "noise"))
#: The largest_sv test is exact at order m - 1; its references are kept
#: for the Central League (m = 6) and each generated size.
NULL_ORDERS = (5,) + tuple(m - 1 for m, _ in LEAGUE_SHEETS)
#: Makes sigma_1^2 of a planted league about 1.8x the rest of the
#: residual energy: standardized statistic ~0.8 at every size.
PLANTED_AMPLITUDE = 1.8
#: Distinct seasons (and sweep orders) the ops cycle through.
SEASONS = 6
LAW_PERMUTATIONS = 16


def known_defect_order(order: int) -> bool:
    """Orders above the tested range, where the sigma_1 law is known to lose accuracy."""
    return order > TESTED_MAX_ORDER


def league_sheet(m: int, kind: str, rng) -> list[list[int]]:
    """Win counts r[i][j] of a round robin with N_GAMES games per pair.

    Win probabilities come from main effects plus, for ``planted``, a
    rank-2 interaction s * sin(theta_j - theta_i) (a cyclic deadlock),
    mapped through the inverse of the variance-stabilizing transform.
    Counts are kept off 0 and N_GAMES so no pair is a sweep.
    """
    alpha = rng.normal(0.0, 0.3, m)
    mu = alpha[:, None] - alpha[None, :]
    if kind == "planted":
        theta = rng.uniform(0.0, 2.0 * math.pi, m)
        mu = mu + PLANTED_AMPLITUDE * np.sin(theta[None, :] - theta[:, None])
    q = np.sin(mu / (2.0 * math.sqrt(N_GAMES)) + math.pi / 4.0) ** 2
    r = np.zeros((m, m), dtype=int)
    iu = np.triu_indices(m, 1)
    r[iu] = np.clip(rng.binomial(N_GAMES, q[iu]), 1, N_GAMES - 1)
    r[(iu[1], iu[0])] = N_GAMES - r[iu]
    return r.tolist()


def sheet_csv(r: list[list[int]]) -> str:
    m = len(r)
    names = [f"T{i + 1:02d}" for i in range(m)]
    lines = ["team," + ",".join(names)]
    for i, row in enumerate(r):
        cells = ["-" if i == j else str(v) for j, v in enumerate(row)]
        lines.append(names[i] + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def law_points() -> list[list]:
    """The fixed grid of ``laws`` queries: [kind, p, x] with x from the references."""
    refs = load_ref("laws.json")
    return (
        [["cdf", e["p"], e["x"]] for e in refs["largest_sv_cdf"]]
        + [["std", e["p"], e["x"]] for e in refs["standardized_sv_upper"]]
    )


def refs_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def load_ref(name: str):
    with open(os.path.join(refs_dir(), name), encoding="utf-8") as fh:
        return json.load(fh)


def make_job(workload: str, seed: int, workdir: str, central_league: str) -> dict:
    """Write the inputs of one run under ``workdir`` and describe them.

    The same (workload, seed) gives the same bytes.  The program under
    test sees only these inputs.
    """
    if workload == "validate":
        return {"workload": workload, "p": VALIDATE_ORDER, "samples": VALIDATE_SAMPLES, "seed": seed}
    if workload == "laws":
        points = law_points()
        rng = np.random.default_rng([seed, 3])
        orders = [rng.permutation(len(points)).tolist() for _ in range(LAW_PERMUTATIONS)]
        return {"workload": workload, "points": points, "orders": orders}
    if workload == "league":
        seasons = []
        for s in range(SEASONS):
            sheets = [{"m": 6, "kind": "central_league", "path": central_league}]
            for m, kind in LEAGUE_SHEETS:
                rng = np.random.default_rng([seed, s, m])
                path = os.path.join(workdir, f"season{s}_m{m}_{kind}.csv")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(sheet_csv(league_sheet(m, kind, rng)))
                sheets.append({"m": m, "kind": kind, "path": path})
            seasons.append(sheets)
        return {"workload": workload, "n_games": N_GAMES, "seasons": seasons}
    raise ValueError(f"unknown workload {workload!r}")
