"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and traced, and checks
that the last output line follows the schema BENCHMARK.json declares, that
no check failed, and that every per-layer entry point records calls on at
least one workload, so that a wrapper missing an aliased import fails here
instead of reporting 0 s.  It also checks that the benchmark refuses to run
without the diracgeo sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from run import ENTRY_POINTS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smallest"], cwd=cwd, capture_output=True, text=True, timeout=600)


def validate(result: dict, declared: list, positive: bool) -> None:
    """Schema of the result line; end-to-end values must also be above 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"top-level keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError(f"checks failed: {result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"attempted {result['attempted']!r}")
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        raise AssertionError("metric names differ from BENCHMARK.json: "
                             f"{sorted(set(result['metrics']) ^ set(units))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            raise AssertionError(f"{name}: {m}")
        if (not isinstance(m["value"], (int, float)) or m["value"] < 0
                or (positive and m["value"] == 0)):
            raise AssertionError(f"{name}: value {m['value']!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = {name: 0 for name in ENTRY_POINTS}
    for workload in wl.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} trace {trace}: exit "
                                     f"{proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            validate(result, declared, positive=trace == 0)
            if trace:
                for name in ENTRY_POINTS:
                    calls[name] += result["metrics"][f"{name}.calls"]["value"]
            print(f"ok {workload} trace {trace}", flush=True)
    missed = [name for name, n in calls.items() if n == 0]
    if missed:
        raise AssertionError(f"entry points never called: {missed}")

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, wl.WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("ran without the diracgeo sources")
    print("ok bare checkout refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
