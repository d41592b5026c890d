"""Record the `sw` suite reports of a fixed set of monopole configs.

    PYTHONPATH=src python tests/record_sw_reports.py

writes ``tests/sw_report_reference.json``: for each config, its JSON dict,
the seed and sample count of its run, the ``render_json`` of the `sw`
suite's report and the four values of ``sw_functional``.
``test_sw_reports.py`` asserts that the suite still renders these bytes and
the functional these values, bit for bit (the gap check of the report often
reads 0.0).  The configs cover both chirality blocks, bands 0 to 3, grids
at and above the quadrature bound 4 band + 1, empty mode lists, repeated and
cancelling rows, and two configs whose potential sits at differences of the
spinor frequencies, where F and Q(psi) meet in the functional.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from diracgeo.report import render_json
from diracgeo.seiberg_witten import BLOCK_INDICES, sw_config_from_dict, sw_functional
from diracgeo.suites import run_suite

REFERENCE = Path(__file__).with_name("sw_report_reference.json")


def _rows(rng, band: int, components, count: int) -> list:
    """``count`` rows [component, k1..k4, re, im] inside the band."""
    return [[int(rng.choice(components)), *map(int, rng.integers(-band, band + 1, 4)),
             *map(float, rng.normal(size=2))] for _ in range(count)]


def _drawn(seed: int, band: int, grid: int, block: str, n_a: int, n_psi: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"grid": grid, "band": band, "chirality_block": block,
            "a_modes": _rows(rng, band, range(4), n_a),
            "psi_modes": _rows(rng, band, BLOCK_INDICES[block], n_psi)}


def _coupled(seed: int, block: str, band: int = 2, grid: int = 9) -> dict:
    """The potential at the differences k_i - k_j of three spinor frequencies,
    drawn as ``test_seiberg_witten._coupled_config`` draws them."""
    rng = np.random.default_rng(seed)
    comps = BLOCK_INDICES[block]
    ks = rng.integers(-1, 2, (3, 4))
    psi = [[comps[i % 2], *map(int, k), *map(float, rng.normal(size=2))]
           for i, k in enumerate(ks)]
    a = [[int(rng.integers(0, 4)), *map(int, ks[i] - ks[j]), *map(float, rng.normal(size=2))]
         for i in range(3) for j in range(3) if i != j]
    return {"grid": grid, "band": band, "chirality_block": block,
            "a_modes": a, "psi_modes": psi}


def configs() -> list:
    """(name, config dict, seed, samples) of every recorded run."""
    repeated = _drawn(11, 2, 9, "+", 6, 4)
    repeated["a_modes"] += [repeated["a_modes"][0], [1, 1, 0, -2, 1, 0.5, 0.25],
                            [1, -1, 0, 2, -1, -0.5, 0.25]]
    repeated["psi_modes"] += [repeated["psi_modes"][1], [0, 0, 0, 0, 0, 0.0, -0.0]]
    return [
        ("band0-empty", {"grid": 1, "band": 0, "chirality_block": "+"}, 1, 3),
        ("band0-constant", {"grid": 3, "band": 0, "chirality_block": "-",
                            "a_modes": [[2, 0, 0, 0, 0, 0.5, -1.5]],
                            "psi_modes": [[1, 0, 0, 0, 0, 1.0, 0.25],
                                          [2, 0, 0, 0, 0, -0.5, 2.0]]}, 2, 4),
        ("band1-bound", _drawn(3, 1, 5, "+", 6, 4), 3, 8),
        ("band1-above", _drawn(4, 1, 8, "-", 6, 4), 4, 8),
        ("band2-bound", _drawn(5, 2, 9, "+", 6, 4), 5, 8),
        ("band2-above", _drawn(6, 2, 16, "-", 6, 4), 6, 8),
        ("band3-bound", _drawn(7, 3, 13, "+", 8, 5), 7, 8),
        ("band3-above", _drawn(8, 3, 24, "-", 6, 4), 8, 5),
        ("no-spinor", _drawn(9, 2, 9, "+", 6, 0), 9, 8),
        ("no-potential", _drawn(10, 1, 7, "-", 0, 4), 10, 8),
        ("repeated-rows", repeated, 11, 8),
        ("coupled-plus", _coupled(3, "+"), 12, 8),
        ("coupled-minus", _coupled(4, "-"), 13, 8),
    ]


def render(cfg: dict, seed: int, samples: int) -> str:
    return render_json(run_suite("sw", seed=seed, samples=samples,
                                 sw_config=sw_config_from_dict(cfg)))


def main() -> None:
    runs = [{"name": name, "config": cfg, "seed": seed, "samples": samples,
             "report": render(cfg, seed, samples),
             "functional": sw_functional(sw_config_from_dict(cfg))}
            for name, cfg, seed, samples in configs()]
    REFERENCE.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
