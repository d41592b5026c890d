"""Workload definitions: the `diracgeo verify` invocations of one pass.

Each workload aims at one group of layers.  A pass is a fixed list of
invocations; every input of pass ``p`` is drawn from ``(seed, p)``, so the
same seed gives the same inputs and no two passes repeat an input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

import numpy as np

# (suite, chart, samples at full size)
CHART_JOBS = {
    # Exterior module m=16: polynomial coefficient fields, quantization and
    # the Laplacian decomposition dominate.
    "operators4": [("superconnection", "sphere4", 1), ("laplacian", "poly4", 4)],
    # Forms, jets, dict-Clifford, curvature and spin at n=4.
    "geometry4": [("cartan", "sphere4", 3), ("hodge", "poly4", 3),
                  ("clifford", "minkowski4", 3), ("levi-civita", "poly4", 3),
                  ("lichnerowicz", "sphere4", 3)],
    # The same layers at n=2, m=4, where per-call overhead dominates.
    "pointwise2": [("all", chart, 5)
                   for chart in ("sphere2", "hyperbolic2", "poly2", "torus2")],
}

# Monopole configs of one pass: (band, grid).  Every grid is at or above
# 4*band+1, where the trapezoid rule integrates the quartic term exactly.
# Spinors lie in the "+" block (components 0 and 3), where the equation and
# Weitzenbock forms of the functional agree.
SW_SHAPES = [(2, 16), (3, 16), (2, 18), (3, 20), (2, 22), (3, 24)]
SW_SAMPLES = 8

WORKLOADS = list(CHART_JOBS) + ["monopole"]

Invocation = Tuple[str, List[str]]   # (expected-id key "suite/chart", argv)


def pass_seed(seed: int, p: int) -> int:
    """The `verify --seed` of pass p, a 32-bit draw from (seed, p)."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


def sw_config(rng: np.random.Generator, band: int, grid: int) -> dict:
    """A monopole config in the `--config` JSON format: 6 potential modes
    and 4 "+" spinor modes inside the band, normal complex coefficients."""
    def modes(components, count):
        rows = []
        for _ in range(count):
            c = int(components[int(rng.integers(0, len(components)))])
            k = [int(v) for v in rng.integers(-band, band + 1, size=4)]
            z = rng.normal(size=2)
            rows.append([c] + k + [float(z[0]), float(z[1])])
        return rows
    return {"grid": grid, "band": band, "chirality_block": "+",
            "a_modes": modes(range(4), 6), "psi_modes": modes((0, 3), 4)}


def invocations(workload: str, seed: int, p: int, workdir: Path,
                smallest: bool = False) -> Tuple[List[Invocation], int]:
    """The invocations of pass p and their summed SW grid points (grid^4).

    ``smallest`` runs one sample per check and one monopole config, the
    least work that still reaches every layer of the workload.
    """
    s = str(pass_seed(seed, p))
    if workload in CHART_JOBS:
        return [(f"{suite}/{chart}",
                 ["verify", "--suite", suite, "--chart", chart, "--samples",
                  str(1 if smallest else samples), "--seed", s])
                for suite, chart, samples in CHART_JOBS[workload]], 0
    if workload != "monopole":
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, p])
    out, points = [], 0
    for i, (band, grid) in enumerate(SW_SHAPES[:1] if smallest else SW_SHAPES):
        path = workdir / f"sw-{p}-{i}.json"
        path.write_text(json.dumps(sw_config(rng, band, grid)))
        out.append(("sw/torus4", ["verify", "--suite", "sw", "--config",
                                  str(path), "--samples",
                                  str(1 if smallest else SW_SAMPLES),
                                  "--seed", s]))
        points += grid ** 4
    return out, points
