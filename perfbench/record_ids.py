"""Record the check-id set of every (suite, chart) the workloads invoke.

    python3 perfbench/record_ids.py

writes perfbench/expected_ids.json.  The ids must not depend on the seed or
the sample count, so each (suite, chart) is run at two of each and the
sets are compared before anything is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from diracgeo.cli import main  # noqa: E402


def ids(argv) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return sorted(c["id"] for c in json.loads(buf.getvalue())["checks"])


def record() -> dict:
    jobs = {(suite, chart) for js in wl.CHART_JOBS.values()
            for suite, chart, _ in js}
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        cfg = Path(tmp) / "sw.json"
        cfg.write_text(json.dumps(wl.sw_config(np.random.default_rng(0),
                                               2, 16)))
        jobs.add(("sw", None))
        for suite, chart in sorted(jobs, key=str):
            where = ["--chart", chart] if chart else ["--config", str(cfg)]
            runs = [ids(["verify", "--suite", suite, *where,
                         "--seed", str(seed), "--samples", str(samples)])
                    for seed, samples in ((1, 1), (7, 2))]
            if runs[0] != runs[1]:
                raise SystemExit(f"{suite}/{chart}: ids depend on the inputs")
            out[f"{suite}/{chart or 'torus4'}"] = runs[0]
    return out


if __name__ == "__main__":
    path = HERE / "expected_ids.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
