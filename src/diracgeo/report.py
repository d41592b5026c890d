"""Structured verification reports with byte-stable JSON rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import List, Optional


@dataclass
class CheckResult:
    """One verified identity: id, the identity string, residual vs tolerance."""

    check_id: str
    identity: str
    max_residual: float
    tolerance: float
    passed: bool
    wall_time: Optional[float] = None


@dataclass
class VerificationReport:
    suite: str
    chart: str
    seed: int
    samples: int
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, identity: str, max_residual: float,
            tolerance: float, wall_time: Optional[float] = None) -> CheckResult:
        c = CheckResult(check_id, identity, float(max_residual), float(tolerance),
                        bool(float(max_residual) < float(tolerance)), wall_time)
        self.checks.append(c)
        return c

    def merge(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)


def report_dict(rep: VerificationReport, timings: bool = False) -> dict:
    """Plain dict with checks sorted by id; timings only on request."""
    checks = []
    for c in sorted(rep.checks, key=lambda c: c.check_id):
        row = {"id": c.check_id, "identity": c.identity,
               "max_residual": float(c.max_residual),
               "tolerance": float(c.tolerance), "pass": bool(c.passed)}
        if timings and c.wall_time is not None:
            row["wall_time"] = float(c.wall_time)
        checks.append(row)
    return {"suite": rep.suite, "chart": rep.chart, "seed": rep.seed,
            "samples": rep.samples, "checks": checks, "pass": rep.passed}


# json.dumps's encoding of each scalar type of a report dict
_SCALARS = {str: encode_basestring_ascii, bool: lambda v: "true" if v else "false",
            int: int.__repr__, float: lambda v: float.__repr__(v) if math.isfinite(v)
            else "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"}


def render_json(rep: VerificationReport, timings: bool = False) -> str:
    """``json.dumps(report_dict(rep, timings), indent=2, sort_keys=True)``
    and a newline, written out directly: the report's layout is fixed."""
    d = report_dict(rep, timings)
    rows = ",\n".join("    {\n" + ",\n".join(f'      "{k}": {_SCALARS[type(v)](v)}'
                                                for k, v in sorted(row.items())) + "\n    }"
                       for row in d.pop("checks"))
    d = {k: _SCALARS[type(v)](v) for k, v in d.items()}
    d["checks"] = f"[\n{rows}\n  ]" if rows else "[]"
    return "{\n" + ",\n".join(f'  "{k}": {d[k]}' for k in sorted(d)) + "\n}\n"


def render_human(rep: VerificationReport, timings: bool = False) -> str:
    lines = [f"suite {rep.suite}  chart {rep.chart}  seed {rep.seed}  "
             f"samples {rep.samples}"]
    width = max((len(c.check_id) for c in rep.checks), default=10)
    for c in sorted(rep.checks, key=lambda c: c.check_id):
        mark = "PASS" if c.passed else "FAIL"
        extra = (f"  {c.wall_time * 1e3:8.1f} ms"
                 if timings and c.wall_time is not None else "")
        lines.append(f"{mark}  {c.check_id:{width}s}  "
                     f"{c.max_residual:10.3e} < {c.tolerance:8.1e}{extra}  "
                     f"{c.identity}")
    lines.append("overall: " + ("PASS" if rep.passed else "FAIL"))
    return "\n".join(lines) + "\n"
