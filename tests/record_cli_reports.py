"""Record what `diracgeo curvature`, `dirac` and `sw` write on fixed runs.

    PYTHONPATH=src python tests/record_cli_reports.py

writes ``tests/cli_report_reference.json``: for each command, options, seed
and output form of ``runs()``, the exit code and the bytes written to
stdout.  ``test_cli_reports.py`` asserts that the commands still write these
bytes.  The charts cover n = 2, 3 and 4, conformal metrics of both curvature
signs, a polynomial metric and the Lorentzian one; each point is drawn from
the seed, and each report evaluates the metric jet at a stack of that one
point.  ``sw`` runs on the config drawn from the seed, at the point drawn
from it and at ``SW_POINT``, and once on ``SW_CONFIG``, which ``render``
writes to a temporary file.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from diracgeo.cli import main as cli_main

REFERENCE = Path(__file__).with_name("cli_report_reference.json")
CHARTS = {"curvature": ("sphere2", "poly3", "sphere4", "hyperbolic4", "minkowski4"),
          "dirac": ("sphere2", "poly3")}
SW_POINT = "0.3,1.1,2.5,4.0"
# a minus-block config whose potential sits at a difference of two spinor
# frequencies, so both equations and both functional forms read A and psi
SW_CONFIG = {"grid": 9, "band": 2, "chirality_block": "-",
             "a_modes": [[0, 1, -1, 0, 0, 0.5, -0.25], [2, 0, 1, 1, -1, 0.3, 0.6]],
             "psi_modes": [[1, 1, 0, 0, 0, 1.0, 0.0], [2, 0, 1, 0, 0, 0.7, 0.2],
                           [2, 0, 0, 0, 0, -0.4, 0.3]]}


def runs() -> list:
    """(command, options, seed, human) of every recorded run; the options are
    the command's arguments besides --seed and --human."""
    options = [(command, ["--chart", chart]) for command, charts in CHARTS.items()
               for chart in charts] + [("sw", []), ("sw", ["--point", SW_POINT])]
    return [(command, opts, seed, human) for command, opts in options
            for seed in (1, 3) for human in (False, True)] + [("sw", ["--config"], 1, False)]


def render(command: str, options: list, seed: int, human: bool) -> tuple:
    """The exit code and the stdout of one run; a bare --config reads SW_CONFIG."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        if options == ["--config"]:
            path = Path(tmp, "sw.json")
            path.write_text(json.dumps(SW_CONFIG))
            options = ["--config", str(path)]
        code = cli_main([command, *options, "--seed", str(seed)] + ["--human"] * human)
    return code, out.getvalue()


def main() -> None:
    REFERENCE.write_text(json.dumps(
        [{"command": command, "options": options, "seed": seed, "human": human,
          **dict(zip(("exit", "stdout"), render(command, options, seed, human)))}
         for command, options, seed, human in runs()], indent=1) + "\n")


if __name__ == "__main__":
    main()
