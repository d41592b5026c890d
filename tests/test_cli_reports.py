"""The `curvature`, `dirac` and `sw` commands' output against recorded bytes."""

import json

import pytest

import record_cli_reports


def test_recorded_runs_are_the_listed_runs():
    recorded = json.loads(record_cli_reports.REFERENCE.read_text())
    assert [(r["command"], r["options"], r["seed"], r["human"]) for r in recorded] == \
        record_cli_reports.runs()


@pytest.mark.parametrize("run", json.loads(record_cli_reports.REFERENCE.read_text()),
                         ids=lambda run: "-".join(str(v) for v in (
                             run["command"], *run["options"], run["seed"], run["human"])))
def test_cli_reports_equal_the_recorded_bytes(run):
    # recorded by record_cli_reports.py
    got = record_cli_reports.render(run["command"], run["options"], run["seed"], run["human"])
    assert got == (run["exit"], run["stdout"])
