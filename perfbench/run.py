"""Benchmark of `diracgeo verify`, end to end and per layer.

Usage (from the root of a checkout; nothing needs building):

    python3 perfbench/run.py --workload geometry4 --seed 1 --seconds 20 --trace 0

The workload runs in this one process and thread: it calls the public
``diracgeo.cli.main`` entry point, with the package imported from ``src/``,
in a closed loop of passes (each invocation waits for the previous one)
until ``--seconds`` are used.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` (checks) and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` runs untraced passes for half the time, then one traced pass
over the inputs of pass 0, and reports the per-layer metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
MIN_PASSES = 3

# Per-layer entry points reported by name; each gets .calls and .self_s.
ENTRY_POINTS = [
    "charts.metric_jet",
    "curvature.christoffel", "curvature.dchristoffel",
    "curvature.curvature_data",
    "jets.SJet.__mul__", "jets.SJet.__add__",
    "clifford.clifford_action_dict", "clifford.clifford_product",
    "clifford.action_matrix",
    "forms.PolyScalar.eval_jet", "forms.PolyScalar.derivative",
    "forms.random_poly_scalar", "forms.exterior_derivative",
    "forms.iota_vector", "forms.hodge_star", "forms.covariant_derivative",
    "bundles.random_parity_matrix", "bundles.superconnection_from_degrees",
    "bundles.PolyMatrix.eval", "bundles.quantize_superconnection",
    "bundles.laplacian_from_dirac", "bundles.laplacian_decompose",
    "bundles.apply_dirac", "bundles.superconnection_curvature",
    "spin.build_frame_from_metric", "spin.build_spin_connection",
    "spin.spin_dirac",
    "seiberg_witten.sw_functional", "seiberg_witten.spinor_at",
    "seiberg_witten.curvature_at",
    "report.render_json",
]

# Time for a fresh interpreter to import the CLI and build its parser (which
# builds the chart registry), measured inside the child.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import diracgeo.cli
diracgeo.cli.build_parser()
t1 = time.perf_counter()
if not diracgeo.cli.__file__.startswith(sys.argv[1]):
    raise SystemExit("diracgeo imported from outside " + sys.argv[1])
print(t1 - t0)
"""


def setup_seconds() -> float:
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


class Runner:
    """Runs passes of one workload and checks every report they print."""

    def __init__(self, cli_main, workload: str, seed: int, workdir: Path,
                 smallest: bool, expected: dict):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.smallest = smallest
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run_pass(self, p: int, tracer: Tracer = None) -> dict:
        jobs, grid_points = wl.invocations(self.workload, self.seed, p,
                                           self.workdir, self.smallest)
        results = []
        t0 = time.perf_counter()
        for i, (key, argv) in enumerate(jobs):
            if tracer is not None:
                tracer.set_invocation(i)
                argv = argv + ["--timings"]
            buf = io.StringIO()
            ti = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli_main(argv)
            except Exception:  # counted as failed checks below
                traceback.print_exc()
                rc = None
            results.append((key, rc, buf.getvalue(), time.perf_counter() - ti))
        wall = time.perf_counter() - t0
        check_s = sum(self.check(*r[:3]) for r in results)
        return {"wall": wall, "check_s": check_s, "grid_points": grid_points,
                "invocation_s": [r[3] for r in results]}

    def check(self, key: str, rc, out: str) -> float:
        """Count one invocation's checks; return their summed wall_time.

        A check fails when its pass is false, when its invocation raises or
        exits non-zero, or when the invocation's check-id set differs from
        the set recorded for (suite, chart).
        """
        expected = set(self.expected[key])
        self.attempted += len(expected)
        try:
            checks = json.loads(out)["checks"]
        except (json.JSONDecodeError, KeyError, TypeError):
            checks = None
        if rc != 0 or checks is None or {c["id"] for c in checks} != expected:
            sys.stderr.write(f"{key}: exit {rc}, report does not match\n")
            self.failed += len(expected)
            return 0.0
        self.failed += sum(1 for c in checks if c["pass"] is not True)
        return sum(c.get("wall_time", 0.0) for c in checks)

    def untraced(self, budget: float, min_passes: int, setups: int = 0):
        """Closed loop of passes: start one only if it should end in budget.

        The ``setups`` set-up timings are spread evenly over the budget,
        between passes, so that they see the same stretch of machine load
        as the passes.  Returns the passes and the set-up times.
        """
        passes, setup_s = [], []
        t0 = time.perf_counter()
        while len(passes) < min_passes or (
                time.perf_counter() - t0
                + statistics.median(p["wall"] for p in passes) <= budget):
            while (len(setup_s) < setups and time.perf_counter() - t0
                   >= len(setup_s) * budget / setups):
                setup_s.append(setup_seconds())
            passes.append(self.run_pass(len(passes)))
        while len(setup_s) < setups:
            setup_s.append(setup_seconds())
        return passes, setup_s


def layer_metrics(tracer: Tracer, traced: dict, verify_s: float) -> dict:
    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    m = {}
    for name in ENTRY_POINTS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    layer_self = {layer: sum(v for k, v in self_s.items()
                             if k.startswith(layer + "."))
                  for layer in LAYERS}
    for layer, v in layer_self.items():
        m[f"{layer}.self_s"] = (v, "s")

    # Closure: layer self times plus the time outside every span add up to
    # the traced pass; a negative self time means spans did not nest.
    outside = traced["wall"] - summary["root_s"]
    total = sum(layer_self.values()) + outside
    if (abs(total - traced["wall"]) > 1e-6 * traced["wall"] + 1e-9
            or summary["min_self_s"] < -1e-6):
        raise RuntimeError(f"self times do not close: {total} vs "
                           f"{traced['wall']}, min self {summary['min_self_s']}")

    render = summary["total_s"].get("report.render_json", 0.0)
    m["suites.check_s"] = (traced["check_s"], "s")
    m["suites.setup_s"] = (
        sum(traced["invocation_s"]) - traced["check_s"] - render, "s")
    m["seiberg_witten.grid_points"] = (traced["grid_points"], "count")
    m["trace.overhead_ratio"] = (traced["wall"] / verify_s, "ratio")

    def ratio(num, den):
        return calls.get(num, 0) / calls[den] if calls.get(den) else 0.0
    m["curvature.christoffel_per_metric_jet"] = (
        ratio("curvature.christoffel", "charts.metric_jet"), "ratio")
    m["forms.derivative_per_eval_jet"] = (
        ratio("forms.PolyScalar.derivative", "forms.PolyScalar.eval_jet"),
        "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smallest", action="store_true",
                    help="one pass at the smallest size (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "diracgeo" / "cli.py").is_file():
        sys.stderr.write(f"error: no diracgeo sources under {SRC}\n")
        return 2

    sys.path.insert(0, str(SRC))
    import diracgeo.cli
    if not diracgeo.cli.__file__.startswith(str(SRC)):
        sys.stderr.write("error: diracgeo imported from outside src/\n")
        return 2
    expected = json.loads((HERE / "expected_ids.json").read_text())

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(diracgeo.cli.main, args.workload, args.seed, workdir,
                        args.smallest, expected)
        min_passes = 1 if args.smallest else MIN_PASSES
        if args.trace == 0:
            budget = 0.0 if args.smallest else args.seconds
            passes, setups = runner.untraced(
                budget, min_passes, 1 if args.smallest else SETUP_REPEATS)
            verify_s = statistics.median(p["wall"] for p in passes)
            metrics = {
                "verify_s": (verify_s, "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            budget = 0.0 if args.smallest else args.seconds / 2
            passes, setups = runner.untraced(budget, min(min_passes, 2))
            verify_s = statistics.median(p["wall"] for p in passes)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_pass(0, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, traced, verify_s)
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "checks_attempted": runner.attempted,
              "fail_ratio": runner.failed / runner.attempted,
              "pass_wall_s": [p["wall"] for p in passes],
              "invocation_s": [p["invocation_s"] for p in passes],
              "setup_s": setups,
              "environment": environment()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
