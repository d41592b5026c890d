"""Suite registry behavior: applicability, determinism, check inventory."""

import json
from pathlib import Path

import numpy as np
import pytest

from diracgeo import charts
from diracgeo import seiberg_witten as swm
from diracgeo import suites
from diracgeo.charts import registry
from diracgeo.forms import PolyField, random_poly_vector
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


def _reference_runs(suite):
    """(key, run) for every reference entry a suite should reproduce: all 14
    charts for a chart suite; for sw, a config per band and block, drawn
    from the seed's own generator, on twice the quadrature bound."""
    if suite == "sw":
        for band in (1, 2, 3):
            for block in ("+", "-"):
                for seed in (1, 3):
                    cfg = swm.random_sw_config(np.random.default_rng(seed), band=band,
                                               grid=8 * band, block=block)
                    yield (f"sw/band{band}{block}/{seed}",
                           lambda seed=seed, cfg=cfg: run_suite(
                               "sw", seed=seed, samples=5, sw_config=cfg))
        return
    for chart in sorted(registry()):
        for seed in (1, 3):
            yield (f"{suite}/{chart}/{seed}",
                   lambda chart=chart, seed=seed: run_suite(
                       suite, chart=chart, seed=seed, samples=5))


@pytest.mark.parametrize("suite", ["cartan", "hodge", "laplacian", "superconnection",
                                   "lichnerowicz", "clifford", "levi-civita", "sw"])
def test_reports_match_the_per_point_reference(suite):
    # the reference was recorded before the sample axis (cartan, hodge), the
    # index axis (the chart suites) and the shared trig-series evaluator (sw)
    # replaced per-point, per-index and per-mode loops: check ids and flags
    # must agree, residuals to rounding; a chart without a reference entry
    # is one the suite does not apply to
    for key, run in _reference_runs(suite):
        if key not in REFERENCE:
            with pytest.raises(SuiteUsageError):
                run()
            continue
        rep = run()
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


def test_the_bench_check_ids_are_the_reported_ids():
    # the benchmark counts every check of an invocation as failed when its
    # recorded ids differ from the report's, so a renamed check shows here
    path = Path(__file__).parents[1] / "perfbench" / "expected_ids.json"
    for key, ids in json.loads(path.read_text()).items():
        suite, chart = key.split("/")
        cfg = swm.random_sw_config(np.random.default_rng(1)) if suite == "sw" else None
        rep = run_suite(suite, chart=chart, seed=1, samples=1, sw_config=cfg)
        assert sorted(c.check_id for c in rep.checks) == ids, key


def test_runner_draws_points_first_then_fields_point_major():
    # a seed must pick the fields a per-point loop would: points first, then
    # per point its draws in turn; a plain number comes back as an array
    run = suites._Run("hodge", "sphere2", 5, 3)
    rng = np.random.default_rng(5)
    xs = np.array([run.ch.sample_point(rng) for _ in range(3)])
    loop = [[(random_poly_vector(rng, 2), rng.normal()) for _ in range(2)] for _ in xs]
    got = run.draws(lambda r: (random_poly_vector(r, 2), r.normal()), per=2)
    assert np.array_equal(run.xs, xs) and len(got) == 2
    for k, (X, c) in enumerate(got):
        want = PolyField.stack([row[k][0] for row in loop]).eval(xs, 2)
        for a, b in zip((X.val, X.d, X.dd), (want.val, want.d, want.dd)):
            assert np.array_equal(a, b)
        assert np.array_equal(c, [row[k][1] for row in loop])
    assert len(run.head.x) == 3 and run.head is run.mj
    big = suites._Run("hodge", "sphere2", 5, 20)
    assert np.array_equal(big.head.x, big.xs[:5])


def test_every_chart_suite_runs_on_a_curved_chart():
    for name in ("cartan", "clifford", "levi-civita", "hodge"):
        rep = run_suite(name, chart="sphere2", seed=2, samples=3)
        assert rep.passed, name
