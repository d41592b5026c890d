"""Suite registry behavior: applicability, determinism, check inventory."""

import json
from pathlib import Path

import numpy as np
import pytest

from diracgeo import charts
from diracgeo import seiberg_witten as swm
from diracgeo.charts import registry
from diracgeo.report import render_json
from diracgeo.suites import (CHART_SUITES, SUITE_NAMES, SuiteUsageError,
                             run_suite)


def test_registry_names():
    assert set(CHART_SUITES) == {"cartan", "clifford", "levi-civita",
                                 "laplacian", "superconnection",
                                 "lichnerowicz", "hodge"}
    assert SUITE_NAMES[-2:] == ["sw", "all"]


def test_unknown_suite_rejected():
    with pytest.raises(SuiteUsageError):
        run_suite("spectral", chart="flat2")


def test_cartan_suite_passes_and_reports_expected_checks():
    rep = run_suite("cartan", chart="flat2", seed=1, samples=4)
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert all(i.startswith("cartan-") for i in ids)
    assert "cartan-d-squared" in ids


def test_spinor_suite_needs_even_riemannian_chart():
    with pytest.raises(SuiteUsageError):
        run_suite("lichnerowicz", chart="flat3", samples=2)
    with pytest.raises(SuiteUsageError):
        run_suite("lichnerowicz", chart="minkowski4", samples=2)


def test_sw_suite_needs_config():
    with pytest.raises(SuiteUsageError):
        run_suite("sw", samples=2)
    cfg = swm.random_sw_config(np.random.default_rng(3))
    rep = run_suite("sw", seed=3, samples=4, sw_config=cfg)
    assert rep.passed
    assert rep.chart == "torus4"


def test_sw_suite_passes_on_the_minus_block():
    # the potential shares frequency e_0 with the cross term of Q(psi), so
    # pairing F+ instead of F- with Q opens a 16% functional gap
    cfg = swm.sw_config_from_dict({
        "grid": 8, "band": 1, "chirality_block": "-",
        "a_modes": [[2, 1, 0, 0, 0, 0.5, -0.25]],
        "psi_modes": [[1, 0, 0, 0, 0, 1.0, 0.0], [2, 1, 0, 0, 0, 0.7, 0.2]]})
    rep = run_suite("sw", seed=3, samples=4, sw_config=cfg)
    assert [c.check_id for c in rep.checks] == [
        "sw-quadratic-identity", "sw-self-dual-projector", "sw-functional-gap"]
    assert rep.passed


def test_log_det_check_catches_a_dropped_half(monkeypatch):
    # d_l d_k log sqrt|g| without its 1/2: the first-derivative identity
    # still holds, its derivative does not
    rep = run_suite("levi-civita", chart="sphere2", seed=1, samples=3)
    assert {c.check_id: c for c in rep.checks}["levi-civita-log-det"].passed
    init = charts.MetricJet.__init__

    def mutant(self, *args):
        init(self, *args)
        self.ddh = 2.0 * self.ddh

    monkeypatch.setattr(charts.MetricJet, "__init__", mutant)
    for chart in ("sphere2", "poly3", "hyperbolic4"):
        rep = run_suite("levi-civita", chart=chart, seed=1, samples=3)
        assert not {c.check_id: c for c in rep.checks}["levi-civita-log-det"].passed


REFERENCE = json.loads((Path(__file__).parent / "cartan_hodge_reference.json").read_text())


@pytest.mark.parametrize("suite", ["cartan", "hodge"])
def test_reports_match_the_per_point_reference(suite):
    # the reference was recorded by the per-point loops the sample axis
    # replaced: check ids and flags must agree, residuals to rounding
    keys = [k for k in REFERENCE if k.startswith(suite + "/")]
    assert len(keys) == 2 * len(registry())
    for key in keys:
        _, chart, seed = key.split("/")
        rep = run_suite(suite, chart=chart, seed=int(seed), samples=5)
        got = [(c.check_id, c.passed) for c in rep.checks]
        assert got == [(cid, ok) for cid, ok, _ in REFERENCE[key]], key
        for c, (_, _, parent) in zip(rep.checks, REFERENCE[key]):
            assert c.max_residual <= max(10 * parent, 1e-14), (key, c.check_id)


def test_all_suite_skips_inapplicable_subsuites():
    rep = run_suite("all", chart="flat3", seed=1, samples=2)
    assert rep.passed
    prefixes = {c.check_id.split("-")[0] for c in rep.checks}
    assert "lichnerowicz" not in prefixes
    assert {"cartan", "clifford", "hodge", "laplacian"} <= prefixes


def test_all_suite_covers_spinors_on_even_charts():
    rep = run_suite("all", chart="flat2", seed=1, samples=2)
    assert rep.passed
    prefixes = {c.check_id.split("-")[0] for c in rep.checks}
    assert "lichnerowicz" in prefixes


def test_reports_are_seed_deterministic():
    a = render_json(run_suite("clifford", chart="flat2", seed=9, samples=4))
    b = render_json(run_suite("clifford", chart="flat2", seed=9, samples=4))
    assert a == b
    c = render_json(run_suite("clifford", chart="flat2", seed=10, samples=4))
    assert a != c


def test_every_chart_suite_runs_on_a_curved_chart():
    for name in ("cartan", "clifford", "levi-civita", "hodge"):
        rep = run_suite(name, chart="sphere2", seed=2, samples=3)
        assert rep.passed, name
