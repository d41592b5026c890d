"""Suite registry behavior: applicability, determinism, check inventory."""

import numpy as np
import pytest

from diracgeo import seiberg_witten as swm
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
