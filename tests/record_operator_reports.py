"""Record the `superconnection`, `laplacian` and `lichnerowicz` suite reports of fixed runs.

    PYTHONPATH=src python tests/record_operator_reports.py

writes ``tests/operator_report_reference.json``: for each suite, chart and
seed of ``runs()``, the ``render_json`` of its report at ``SAMPLES`` samples.
``test_operator_reports.py`` asserts that the suites still render these
bytes.  The charts cover n = 2, 3 and 4, polynomial and conformal metrics of
both curvature signs; at 5 samples the costlier superconnection checks run
on the first 4 points, at a metric jet of their own.
"""

from __future__ import annotations

import json
from pathlib import Path

from diracgeo.charts import get_chart
from diracgeo.report import render_json
from diracgeo.suites import run_suite

REFERENCE = Path(__file__).with_name("operator_report_reference.json")
SAMPLES = 5
CHARTS = ("sphere2", "poly2", "poly3", "hyperbolic4", "sphere4", "poly4")


def runs() -> list:
    """(suite, chart, seed) of every recorded run; the spinor module of
    `lichnerowicz` needs an even dimension."""
    return [(suite, chart, seed) for suite in ("superconnection", "laplacian", "lichnerowicz")
            for chart in CHARTS if suite != "lichnerowicz" or get_chart(chart).n % 2 == 0
            for seed in (1, 3)]


def render(suite: str, chart: str, seed: int) -> str:
    return render_json(run_suite(suite, chart, seed=seed, samples=SAMPLES))


def main() -> None:
    REFERENCE.write_text(json.dumps(
        [{"suite": suite, "chart": chart, "seed": seed, "report": render(suite, chart, seed)}
         for suite, chart, seed in runs()], indent=1) + "\n")


if __name__ == "__main__":
    main()
