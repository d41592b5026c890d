"""Command line harness: verify suites, inspect curvature, Dirac data, monopoles.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

import numpy as np

from . import bundles as bnd
from . import seiberg_witten as swm
from .charts import get_chart, metric_jet, registry
from .forms import FieldLayout, poly_fields
from .report import render_human, render_json
from .suites import (DIRAC_COMMUTATOR_TOL, SUITE_NAMES, SW_FUNCTIONAL_GAP_TOL,
                     SuiteUsageError, run_suite)

USAGE_EXIT = 2
FAIL_EXIT = 1


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise SuiteUsageError(f"bad point {text!r}: {exc}") from exc
    if len(vals) != n:
        raise SuiteUsageError(f"point has {len(vals)} coordinates, chart needs {n}")
    if not np.all(np.isfinite(vals)):
        raise SuiteUsageError(f"point {text!r} has a coordinate that is not finite")
    return np.asarray(vals, dtype=float)


def _chart_point(args, ch, rng) -> np.ndarray:
    """The --point of the chart, or a point sampled from rng, in its domain."""
    x = ch.sample_point(rng) if args.point is None else _parse_point(args.point, ch.n)
    ch.validate_point(x)
    return x


def _matrix_list(a: np.ndarray) -> list:
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) < 1e-300:
            arr = arr.real
        else:
            return [[{"re": float(v.real), "im": float(v.imag)} for v in row]
                    for row in arr.reshape(arr.shape[0], -1)]
    return arr.tolist()


def _write(args, payload: dict, lines: List[str], passed: bool = True) -> int:
    """The one output path of curvature, dirac and sw: ``payload`` as JSON, or
    ``lines`` under --human; the exit code of a run that ``passed`` or not."""
    sys.stdout.write("\n".join(lines) + "\n" if args.human
                     else json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if passed else FAIL_EXIT


def cmd_verify(args) -> int:
    cfg = swm.load_sw_config(args.config) if args.config else None
    rep = run_suite(args.suite, chart=args.chart, seed=args.seed,
                    samples=args.samples, sw_config=cfg)
    out = (render_human(rep, args.timings) if args.human
           else render_json(rep, args.timings))
    sys.stdout.write(out)
    return 0 if rep.passed else FAIL_EXIT


def cmd_curvature(args) -> int:
    ch = get_chart(args.chart)
    x = _chart_point(args, ch, np.random.default_rng(args.seed))
    mj = metric_jet(ch, x)
    payload = {
        "chart": args.chart,
        "point": [float(v) for v in x],
        "metric": _matrix_list(mj.g),
        "christoffel": np.asarray(mj.christoffel).tolist(),
        "riemann": np.asarray(mj.riemann).tolist(),
        "ricci": np.asarray(mj.ricci).tolist(),
        "scalar_curvature": float(mj.scalar),
    }
    return _write(args, payload, [
        f"chart {args.chart} at point " + ", ".join(f"{v:.6g}" for v in x), "metric:",
        *("  " + "  ".join(f"{v:12.6f}" for v in row) for row in payload["metric"]),
        f"scalar curvature: {mj.scalar:.12g}"])


def cmd_dirac(args) -> int:
    ch = get_chart(args.chart)
    n = ch.n
    rng = np.random.default_rng(args.seed)
    x = _chart_point(args, ch, rng)
    mj = metric_jet(ch, x)
    ms = bnd.exterior_module(n)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            S = bnd.superconnection_from_config(json.load(fh), n, ms)
    else:
        S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, {1: "zero"})
    D = bnd.quantize_superconnection(S.eval(x, 2), S.masks, mj, ms)
    # five draws of f, then psi, one call each on one-column blocks; np.max
    # keeps a NaN residual, which then fails the gate
    fields = [FieldLayout(n, (), complex_coeffs=True),
              FieldLayout(n, (ms.m,), complex_coeffs=True)]
    worst, worst_rel = np.max([
        bnd.dirac_commutator_residual(D, *(f.eval(x, 2)[..., None] for f in poly_fields(
            rng.uniform(-1.0, 1.0, sum(lay.size for lay in fields)), fields)))
        for _ in range(5)], axis=(0, 2)).tolist()
    payload = {
        "chart": args.chart,
        "point": [float(v) for v in x],
        "fiber_dimension": ms.m,
        "gammas": [_matrix_list(g.val) for g in D.gam],
        "zero_order": _matrix_list(D.Z.val),
        "commutator_residual": worst,
    }
    # the residual is gated as in the superconnection-dirac-commutator check
    return _write(args, payload, [
        f"chart {args.chart}, fiber rank {ms.m}, point " + ", ".join(f"{v:.6g}" for v in x),
        f"zero-order part max entry: {float(np.max(np.abs(D.Z.val))):.6g}",
        f"[D, f] = c(df) residual: {worst:.3e}"], worst_rel <= DIRAC_COMMUTATOR_TOL)


def cmd_sw(args) -> int:
    cfg = (swm.load_sw_config(args.config) if args.config
           else swm.random_sw_config(np.random.default_rng(args.seed)))
    x = (np.random.default_rng(args.seed).uniform(0.0, 2.0 * np.pi, 4)
         if args.point is None else _parse_point(args.point, 4))
    res = swm.sw_residuals(cfg, x)
    out = swm.sw_functional(cfg)
    payload = {
        "grid": cfg.grid,
        "band": cfg.band,
        "chirality_block": cfg.block,
        "point": [float(v) for v in x],
        "dirac_residual": res["dirac"],
        "curvature_residual": res["curvature"],
        "quadratic_identity_residual": res["quadratic_identity"],
        "functional": out,
    }
    # the two functional forms agree for every config; the equation residuals
    # vanish only on solutions, so only the gap is gated (as in sw-functional-gap)
    return _write(args, payload, [
        f"monopole config: grid {cfg.grid}, band {cfg.band}, block {cfg.block}",
        f"equation residuals at the sample point: "
        f"dirac {res['dirac']:.3e}, curvature {res['curvature']:.3e}",
        f"functional: equations form {out['w_equations']:.9g}, "
        f"weitzenbock form {out['w_weitzenbock']:.9g}",
        f"gap {out['gap']:.3e} (relative {out['relative_gap']:.3e})"],
        out["relative_gap"] <= SW_FUNCTIONAL_GAP_TOL)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between parses,
    and the choices (the chart registry, SUITE_NAMES) are fixed at import."""
    ap = argparse.ArgumentParser(
        prog="diracgeo",
        description="verification harness for charts, Clifford modules, "
                    "generalized Dirac operators, and monopole configurations")
    sub = ap.add_subparsers(dest="command", required=True)

    common = {"--seed": dict(type=int, default=1, help="rng seed (default 1)"),
              "--human": dict(action="store_true",
                              help="table output instead of JSON")}

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="all", choices=SUITE_NAMES)
    v.add_argument("--chart", default="sphere2", choices=sorted(registry()))
    v.add_argument("--samples", type=int, default=20,
                   help="points per check (default 20)")
    v.add_argument("--config", default=None,
                   help="monopole config JSON (required for the sw suite)")
    v.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte stability)")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("curvature", help="print curvature data at a point")
    c.add_argument("--chart", required=True, choices=sorted(registry()))
    c.add_argument("--point", default=None,
                   help="comma separated coordinates (default: sampled)")
    c.set_defaults(fn=cmd_curvature)

    d = sub.add_parser("dirac", help="print quantized operator data at a point")
    d.add_argument("--chart", required=True, choices=sorted(registry()))
    d.add_argument("--point", default=None)
    d.add_argument("--config", default=None,
                   help="superconnection coefficient config JSON")
    d.set_defaults(fn=cmd_dirac)

    s = sub.add_parser("sw", help="monopole residuals and both functional forms")
    s.add_argument("--config", default=None,
                   help="monopole config JSON (default: random from seed)")
    s.add_argument("--point", default=None)
    s.set_defaults(fn=cmd_sw)
    for parser in (v, c, d, s):
        for flag, kw in common.items():
            parser.add_argument(flag, **kw)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        # a point or config the fields overflow at is an input error (the
        # suites of verify draw their own points)
        with np.errstate(**({} if args.command == "verify"
                            else {"over": "raise", "invalid": "raise"})):
            return args.fn(args)
    except FloatingPointError as exc:
        sys.stderr.write(f"error: the fields cannot be evaluated at this input ({exc})\n")
        return USAGE_EXIT
    except (FileNotFoundError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
