"""The `superconnection`, `laplacian` and `lichnerowicz` suite reports against recorded bytes."""

import json

import pytest

import record_operator_reports


def test_recorded_runs_are_the_listed_runs():
    recorded = json.loads(record_operator_reports.REFERENCE.read_text())
    assert [(r["suite"], r["chart"], r["seed"]) for r in recorded] == \
        record_operator_reports.runs()


@pytest.mark.parametrize("run", json.loads(record_operator_reports.REFERENCE.read_text()),
                         ids=lambda run: f"{run['suite']}-{run['chart']}-{run['seed']}")
def test_operator_reports_equal_the_recorded_bytes(run):
    # recorded by record_operator_reports.py
    assert record_operator_reports.render(run["suite"], run["chart"], run["seed"]) == run["report"]
