"""Record what `diracgeo curvature` and `diracgeo dirac` write on fixed runs.

    PYTHONPATH=src python tests/record_cli_reports.py

writes ``tests/cli_report_reference.json``: for each command, chart, seed
and output form of ``runs()``, the exit code and the bytes written to
stdout.  ``test_cli_reports.py`` asserts that the commands still write these
bytes.  The charts cover n = 2, 3 and 4, conformal metrics of both curvature
signs, a polynomial metric and the Lorentzian one; each point is drawn from
the seed, and each report evaluates the metric jet at a stack of that one
point.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from diracgeo.cli import main as cli_main

REFERENCE = Path(__file__).with_name("cli_report_reference.json")
CHARTS = {"curvature": ("sphere2", "poly3", "sphere4", "hyperbolic4", "minkowski4"),
          "dirac": ("sphere2", "poly3")}


def runs() -> list:
    """(command, chart, seed, human) of every recorded run."""
    return [(command, chart, seed, human) for command, charts in CHARTS.items()
            for chart in charts for seed in (1, 3) for human in (False, True)]


def render(command: str, chart: str, seed: int, human: bool) -> tuple:
    """The exit code and the stdout of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([command, "--chart", chart, "--seed", str(seed)]
                        + ["--human"] * human)
    return code, out.getvalue()


def main() -> None:
    REFERENCE.write_text(json.dumps(
        [{"command": command, "chart": chart, "seed": seed, "human": human,
          **dict(zip(("exit", "stdout"), render(command, chart, seed, human)))}
         for command, chart, seed, human in runs()], indent=1) + "\n")


if __name__ == "__main__":
    main()
