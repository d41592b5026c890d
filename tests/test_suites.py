"""Suite registry behavior: applicability, determinism, check inventory."""

import inspect
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from diracgeo import bundles, charts, cli, clifford, forms
from diracgeo import seiberg_witten as swm
from diracgeo import suites
from diracgeo.charts import chart_from_config, get_chart, registry
from diracgeo.forms import FieldLayout, PolyField, random_poly_field
from diracgeo.jets import Jet
from diracgeo.report import render_json
from diracgeo.suites import (CHART_SUITES, SUITE_NAMES, SuiteUsageError, _Points, _Run,
                             run_suite)
from scaled_chart import scaled


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


def _parity_swapped_blade(gammas, q, mask):
    """``clifford._quantized_blade`` with the two signs of its recursion swapped."""
    if mask not in q:
        gam = gammas[(mask & -mask).bit_length() - 1]
        rest = _parity_swapped_blade(gammas, q, mask & (mask - 1))
        left, right = gam @ rest, rest @ gam
        q[mask] = (left - right if mask.bit_count() % 2 else left + right) * 0.5
    return q[mask]


def _clear_table_caches():
    for cached in (clifford.wedge_table, forms._tables, bundles._live_pairs):
        cached.cache_clear()


@pytest.fixture
def parity_swapped_tables(monkeypatch):
    """Every Clifford table built from the parity-swapped recursion, with the
    caches that hold tables emptied before and after, so that no bad table
    outlives the test."""
    _clear_table_caches()
    monkeypatch.setattr(clifford, "_quantized_blade", _parity_swapped_blade)
    yield
    monkeypatch.undo()
    _clear_table_caches()


def _failing(rep):
    return {c.check_id for c in rep.checks if not c.passed}


def test_a_wrong_table_fails_checks_instead_of_ending_the_run(parity_swapped_tables, capsys):
    rep = run_suite("clifford", chart="sphere4", seed=1, samples=3)
    assert len(rep.checks) == 6 and "clifford-chirality" in _failing(rep)
    assert cli.main(["verify", "--suite", "all", "--chart", "sphere4", "--samples", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    full = run_suite("all", chart="sphere4", seed=1, samples=3)
    assert sorted(row["id"] for row in payload["checks"]) == sorted(c.check_id
                                                                    for c in full.checks)
    assert "clifford-chirality" in {row["id"] for row in payload["checks"] if not row["pass"]}


@pytest.mark.parametrize("chart, scale", [("poly4", 1e3), ("sphere4", 1e4),
                                          ("minkowski4", 1e4), ("poly4", 1e-4),
                                          ("poly3", 1e-4), ("sphere4", 1e-4)])
def test_clifford_checks_hold_on_a_scaled_metric(chart, scale):
    # G has size |det g|^(1/2), so on a large metric the rounding of G^2 and
    # of G c(v) + c(v) G grows with it; on a small one the terms of q(w) on
    # the vacuum and of the gamma products grow with |g^-1|: the relations
    # are read relative to the size of their terms, and every clifford
    # check passes
    rep = _scaled_run("clifford", chart, scale, 1)
    assert len(rep.checks) == 6 and not _failing(rep)


def _scaled_run(suite, chart, scale, seed):
    """``suite`` on ``chart`` scaled by ``scale`` (``scaled_chart.scaled``), 5 samples."""
    return run_suite(suite, chart=scaled(get_chart(chart), scale), seed=seed, samples=5)


@pytest.mark.parametrize("chart, scale, seed", [("poly4", 1e-5, 1), ("poly4", 1e-5, 3),
                                                ("poly4", 1e-6, 1), ("poly4", 1e-6, 3),
                                                ("poly3", 1e-6, 3), ("poly2", 1e-6, 3)])
def test_clifford_associativity_holds_on_a_small_metric(chart, scale, seed):
    # the terms of a triple product that cancel grow with powers of |g^-1|,
    # far beyond |(ab)c| and |a(bc)|: read relative to them, it passes
    rep = _scaled_run("clifford", chart, scale, seed)
    assert len(rep.checks) == 6 and not _failing(rep)


@pytest.mark.parametrize("chart", ["poly3", "poly4", "sphere4"])
@pytest.mark.parametrize("seed", [1, 3])
def test_twisting_holds_on_a_small_metric(chart, seed):
    # the exterior gammas grow with |g^-1|, and with them the terms of
    # [F^tw, gamma] that cancel; a floor blind to them raised, and the check
    # reported a bare 1.0
    rep = _scaled_run("superconnection", chart, 1e-6, seed)
    check, = (c for c in rep.checks if c.check_id == "superconnection-twisting")
    assert check.passed and check.max_residual < 1e-12


@pytest.mark.parametrize("chart", ["sphere2", "poly2", "sphere4", "poly4", "minkowski4"])
@pytest.mark.parametrize("scale", [1e-2, 1e-3, 1e-6])
@pytest.mark.parametrize("seed", [1, 3])
def test_hodge_checks_hold_on_a_small_metric(chart, scale, seed):
    # del and D each carry a factor g^-1, so the terms of del del a and D D a
    # that cancel grow with |g^-1|^2, far beyond the drawn form and the two
    # sides: read relative to them, every hodge check passes
    rep = _scaled_run("hodge", chart, scale, seed)
    assert len(rep.checks) == 6 and not _failing(rep)


@pytest.mark.parametrize("chart", ["sphere2", "poly2", "sphere4", "poly4", "minkowski4",
                                   "hyperbolic4"])
@pytest.mark.parametrize("scale", [1e3, 1e6])
@pytest.mark.parametrize("seed", [1, 3])
def test_hodge_checks_hold_on_a_large_metric(chart, scale, seed):
    # the jet of Lambda(g^-1) is built from B_k = g d_k g^-1, which multiplies
    # the large metric by its small inverse: every hodge check still passes
    rep = _scaled_run("hodge", chart, scale, seed)
    assert len(rep.checks) == 6 and not _failing(rep)


@pytest.mark.parametrize("chart, scale", [
    ("poly2", 1e-6), ("poly3", 1e-6), ("poly4", 1e-6), ("sphere2", 1e-6),
    ("sphere4", 1e-6), ("poly2", 1e6), ("poly3", 1e6), ("poly4", 1e6)])
@pytest.mark.parametrize("seed", [1, 3])
def test_kernel_projector_holds_on_a_scaled_metric(chart, scale, seed):
    # c b, p = b c and c(omega) are sums of products of a gamma and a
    # lowered gamma, whose entries grow with |g^-1| and with |g|: read
    # relative to those products, the check passes on both sides of scale 1
    rep = _scaled_run("superconnection", chart, scale, seed)
    check, = (c for c in rep.checks if c.check_id == "superconnection-kernel-projector")
    assert check.passed


@pytest.mark.parametrize("chart, scale", [("poly2", 1e-6), ("poly4", 1e-6), ("poly4", 1e6)])
@pytest.mark.parametrize("seed", [1, 3])
def test_frame_invariants_hold_on_a_scaled_metric(chart, scale, seed):
    # inv^T inv reconstructs g^-1, so its rounding grows with |g^-1|: read
    # relative to it, the check passes on a small metric
    rep = _scaled_run("lichnerowicz", chart, scale, seed)
    check, = (c for c in rep.checks if c.check_id == "lichnerowicz-frame-invariants")
    assert check.passed


@pytest.mark.parametrize("chart", ["hyperbolic2", "hyperbolic4", "sphere4"])
@pytest.mark.parametrize("seed", [1, 3])
def test_levi_civita_checks_hold_on_a_large_metric(chart, seed):
    # d g, Gamma g and R_ijkl grow with the metric, and the rounding of the
    # sums that cancel with them: read relative to their terms, every
    # levi-civita check passes
    rep = _scaled_run("levi-civita", chart, 1e6, seed)
    assert len(rep.checks) >= 7 and not _failing(rep)


@pytest.mark.parametrize("chart", ["hyperbolic4", "sphere4", "poly4"])
@pytest.mark.parametrize("seed", [1, 3])
def test_decompose_roundtrip_holds_on_a_large_metric(chart, seed):
    # A_i = g_ik (g^jl Gamma^k_jl - T^k) / 2 grows with g, so the connection
    # Laplacian of A and F psi that reassemble H psi are each of size
    # g^-1 A A, far beyond H psi, and cancel: read relative to them, the
    # round trip passes
    rep = _scaled_run("laplacian", chart, 1e6, seed)
    check, = (c for c in rep.checks if c.check_id == "laplacian-decompose-roundtrip")
    assert check.passed


@pytest.mark.parametrize("chart, scale", [(c, s) for c in sorted(registry()) for s in (1e-3, 1e3)]
                         + [(c, s) for c in ("hyperbolic4", "poly4", "sphere4")
                            for s in (1e-6, 1e6)])
def test_every_chart_suite_holds_on_a_scaled_chart(chart, scale):
    # the metric, its conformal factor and the scalar reference scaled
    # together: every check of every chart suite passes, and only the
    # suites that refuse the chart at scale 1 refuse it
    refused = set()
    for seed in (1, 3):
        for suite in CHART_SUITES:
            try:
                rep = _scaled_run(suite, chart, scale, seed)
            except SuiteUsageError:
                refused.add(suite)
                continue
            assert rep.checks and not _failing(rep), (suite, seed, _failing(rep))
    spinless = chart in ("flat3", "minkowski4", "poly3", "torus3")
    assert refused == ({"lichnerowicz"} if spinless else set())


CONFIG_CHARTS = [{"kind": "flat", "dimension": 3}, {"kind": "torus", "dimension": 2},
                 {"kind": "minkowski", "dimension": 4},
                 {"kind": "conformal", "dimension": 2, "lambda": "sphere"},
                 {"kind": "conformal", "dimension": 4, "lambda": "hyperbolic"},
                 {"kind": "polynomial", "dimension": 2, "coefficients": [11, 0.05]},
                 {"kind": "polynomial", "dimension": 4}]


@pytest.mark.parametrize("cfg", CONFIG_CHARTS)
def test_every_chart_suite_passes_on_a_config_chart(cfg):
    # a chart that is in no registry reaches every suite as itself
    chart = chart_from_config({"name": "custom", **cfg})
    assert "custom" not in registry()
    for suite in CHART_SUITES:
        try:
            rep = run_suite(suite, chart=chart, seed=1, samples=5)
        except SuiteUsageError:
            assert suite == "lichnerowicz" and (chart.n % 2 or chart.negatives)
            continue
        assert rep.chart == "custom" and rep.checks and not _failing(rep), (suite, _failing(rep))
    assert run_suite("all", chart=chart, seed=1, samples=5).passed


def test_a_renamed_chart_keeps_its_own_scalar_reference():
    # the reference is the chart's, not its name's
    poly = chart_from_config({"name": "sphere2", "kind": "polynomial", "dimension": 2})
    rep = run_suite("levi-civita", chart=poly, seed=1, samples=5)
    assert rep.passed and "levi-civita-scalar-reference" not in {c.check_id for c in rep.checks}
    hyp = chart_from_config({"name": "sphere2", "kind": "conformal", "dimension": 2,
                             "lambda": "hyperbolic"})
    rep = run_suite("levi-civita", chart=hyp, seed=1, samples=5)
    check, = (c for c in rep.checks if c.check_id == "levi-civita-scalar-reference")
    assert check.passed and check.identity == "scalar curvature equals -2 on sphere2"


def _cross_parity_eval(monkeypatch):
    """``SuperconnectionData.eval`` with each blade's entries scattered onto
    the slots of the other eta-parity."""
    src = textwrap.dedent(inspect.getsource(bundles.SuperconnectionData.eval))
    right = "np.flatnonzero(self.allowed(mask))"
    assert src.count(right) == 1
    scope = {}
    exec(src.replace(right, "np.flatnonzero(~self.allowed(mask))"), vars(bundles), scope)
    monkeypatch.setattr(bundles.SuperconnectionData, "eval", scope["eval"])


@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4", "poly4"])
def test_parity_check_sees_blades_on_the_wrong_parity(monkeypatch, chart):
    # on correct code D's connection is even and its zero-order part odd to
    # the bit; with every blade on the other parity's entries, every other
    # superconnection and laplacian check still passes
    def parity(rep):
        check, = (c for c in rep.checks if c.check_id == "superconnection-parity")
        return check.max_residual

    assert parity(run_suite("superconnection", chart=chart, seed=1, samples=5)) == 0.0
    _cross_parity_eval(monkeypatch)
    rep = run_suite("superconnection", chart=chart, seed=1, samples=5)
    assert _failing(rep) == {"superconnection-parity"} and parity(rep) >= 100
    assert run_suite("laplacian", chart=chart, seed=1, samples=5).passed


def test_symbol_roundtrip_fails_under_the_parity_swapped_recursion(parity_swapped_tables):
    rep = run_suite("clifford", chart="poly3", seed=1, samples=5)
    assert "clifford-symbol-roundtrip" in _failing(rep)


def test_symbol_roundtrip_fails_on_a_transposed_table_block(monkeypatch):
    # Q[e_0 ^ e_1] transposed away from row and column 0: the vacuum column,
    # and so the symbol of every quantized blade, is unchanged
    real = suites.product_table

    def mutant(pairing):
        table = real(pairing).copy()
        block = table[..., 3, 1:, 1:]
        table[..., 3, 1:, 1:] = np.swapaxes(block, -1, -2)
        return table

    monkeypatch.setattr(suites, "product_table", mutant)
    rep = run_suite("clifford", chart="poly3", seed=1, samples=5)
    assert "clifford-symbol-roundtrip" in _failing(rep)


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


def _same_jets(a, b):
    for u, v in zip((a.val, a.d, a.dd), (b.val, b.d, b.dd)):
        assert np.array_equal(u, v)


def _after_points(run, seed):
    """A generator seeded as ``run``'s, having drawn its points."""
    rng = np.random.default_rng(seed)
    xs = np.array([run.ch.sample_point(rng) for _ in run.xs])
    assert np.array_equal(run.xs, xs)
    return rng


@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_runner_draws_points_first_then_fields_point_major(chart, order):
    # a seed must pick the fields a per-point loop of random_poly_field
    # would: points first, then per point its draws in turn, and per draw
    # its layouts in turn; each layout is one block, draw k in column k,
    # carrying the orders asked for
    run = _Run("hodge", _Points(get_chart(chart), 5, 3))
    rng, n = _after_points(run, 5), run.n
    layouts = [FieldLayout(n, (2,)), FieldLayout.form(n, 1, True), FieldLayout(n, (1 << n,)),
               FieldLayout(n, (), 3, True), FieldLayout(n, (2, 3), 1, True, (0, 3))]
    loop = [[[random_poly_field(rng, *lay) for lay in layouts] for _ in range(2)]
            for _ in run.xs]
    got = run.draws(layouts, per=2, order=order)
    assert len(got) == len(layouts)
    for i, block in enumerate(got):
        assert block.order == order
        for k in range(2):
            want = PolyField.stack([row[k][i] for row in loop]).eval(run.xs, 2)
            # to the rounding of evaluating the columns in one product
            for g, w in zip((block.val, block.d, block.dd)[:order + 1],
                            (want.val, want.d, want.dd)):
                assert np.max(np.abs(g[..., k] - w)) <= 1e-15 * max(1.0, np.max(np.abs(w)))
    assert run.rng.uniform() == rng.uniform()
    assert len(run.head.x) == 3 and run.head is run.mj
    big = _Run("hodge", _Points(get_chart(chart), 5, 20))
    assert np.array_equal(big.head.x, big.xs[:5])


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4"])
def test_cartan_draws_are_those_of_the_per_point_loop(chart, seed):
    # per (point, draw): the degree p, two forms of every degree, two vector
    # fields and a pure p-form, as cartan drew them one point at a time
    run = _Run("cartan", _Points(get_chart(chart), seed, 3))
    rng, n = _after_points(run, seed), run.n
    at = np.repeat(run.xs, suites.JETS_PER_POINT, 0)
    every = tuple(sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m)))
    loop = []
    for _ in at:
        p = int(rng.integers(0, n + 1))
        loop.append([random_poly_field(rng, n, (1 << n,), 2, True, every),
                     random_poly_field(rng, n, (1 << n,), 2, True, every),
                     random_poly_field(rng, n, (n,)), random_poly_field(rng, n, (n,)),
                     random_poly_field(rng, *FieldLayout.form(n, p, True)), p])
    got = suites._cartan_fields(run, at)
    for k in range(5):
        _same_jets(got[k], PolyField.stack([row[k] for row in loop]).eval(at, 2))
    assert np.array_equal(got[5], [row[5] for row in loop])
    assert run.rng.uniform() == rng.uniform()


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4"])
def test_antilinear_draws_are_those_of_the_per_point_loop(chart, seed):
    # per head point a complex 1-form, then c from two normals
    run = _Run("hodge", _Points(get_chart(chart), seed, 20))
    rng, at = _after_points(run, seed), run.head.x
    loop = [(random_poly_field(rng, *FieldLayout.form(run.n, 1, True)),
             complex(rng.normal(), rng.normal())) for _ in at]
    a, c = suites._antilinear_fields(run, at)
    _same_jets(a, PolyField.stack([f for f, _ in loop]).eval(at, 2))
    assert np.array_equal(c, [z for _, z in loop])
    assert run.rng.uniform() == rng.uniform()


@pytest.mark.parametrize("samples", [3, 20])
@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4"])
def test_all_reports_what_its_sub_suites_report_one_by_one(chart, samples):
    # sharing the points, jets and generator state changes no id, flag or
    # residual, to the bit
    alone = []
    for name in CHART_SUITES:
        try:
            alone += run_suite(name, chart=chart, seed=1, samples=samples).checks
        except SuiteUsageError:
            continue
    full = run_suite("all", chart=chart, seed=1, samples=samples).checks
    assert ([(c.check_id, c.passed, c.max_residual.hex()) for c in full]
            == [(c.check_id, c.passed, c.max_residual.hex()) for c in alone])


@pytest.mark.parametrize("samples, sizes", [(1, [1]), (4, [4]), (20, [20, 5])])
def test_all_builds_its_metric_jets_once(monkeypatch, samples, sizes):
    # one jet at every point and one at the head, the same points when
    # there are at most 4
    calls = []
    real = suites.metric_jet
    monkeypatch.setattr(suites, "metric_jet",
                        lambda ch, x: calls.append(len(x)) or real(ch, x))
    assert run_suite("all", chart="sphere4", seed=1, samples=samples).passed
    assert calls == sizes


def test_all_computes_the_riemann_tensor_once_per_metric_jet(monkeypatch, capsys):
    # the levi-civita checks, the twisting check on the head and the
    # Lichnerowicz formula read the curvature cached on their metric jet
    jets = []
    real = charts.MetricJet.riemann.func
    monkeypatch.setattr(charts.MetricJet.riemann, "func",
                        lambda mj: jets.append(mj) or real(mj))
    assert cli.main(["verify", "--suite", "all", "--chart", "sphere4", "--samples", "5"]) == 0
    capsys.readouterr()
    assert [len(mj.x) for mj in jets] == [5, 4] and jets[0] is not jets[1]


def test_a_metric_jet_mutant_is_seen_after_an_all_run(monkeypatch):
    # nothing of one run is kept for the next: a jet patched in afterwards
    # is the one the next run reads
    assert run_suite("all", chart="sphere2", seed=1, samples=3).passed
    init = charts.MetricJet.__init__

    def mutant(self, *args):
        init(self, *args)
        self.ddh = 2.0 * self.ddh

    monkeypatch.setattr(charts.MetricJet, "__init__", mutant)
    for name in ("levi-civita", "all"):
        assert "levi-civita-log-det" in _failing(run_suite(name, chart="sphere2", seed=1,
                                                           samples=3))


def _doubled_christoffel(monkeypatch):
    """Every metric jet built from now on with its Christoffel symbols doubled,
    before any operator jet reads them."""
    init = charts.MetricJet.__init__

    def mutant(self, *args):
        init(self, *args)
        self.christoffel = 2.0 * charts.MetricJet.christoffel.func(self)

    monkeypatch.setattr(charts.MetricJet, "__init__", mutant)


def test_a_connection_mutant_is_seen_after_an_all_run(monkeypatch):
    # the operator jets kept on a metric jet live no longer than it: after an
    # all run, the connection of a mutant metric jet is the one the star
    # route is compared with
    assert run_suite("all", chart="poly3", seed=1, samples=3).passed
    _doubled_christoffel(monkeypatch)
    for name in ("hodge", "all"):
        assert "hodge-coderivative-dual" in _failing(run_suite(name, chart="poly3", seed=1,
                                                               samples=3))


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4", "poly4"])
def test_truncated_inputs_report_what_full_jets_report(monkeypatch, chart, seed):
    # each cartan, hodge and commutator check reads its inputs only to the
    # orders its derivatives consume: carrying every order changes no byte
    names = ("cartan", "hodge", "superconnection")

    def reports():
        return [render_json(run_suite(name, chart=chart, seed=seed, samples=5))
                for name in names]

    truncated, orders = reports(), []
    monkeypatch.setattr(Jet, "truncate", lambda self, order: orders.append(order) or self)
    assert reports() == truncated and {0, 1} <= set(orders)


def test_verify_all_prints_the_same_bytes_twice_in_one_process(capsys):
    argv = ["verify", "--suite", "all", "--chart", "poly2", "--samples", "5", "--seed", "7"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"pass": true' in outs[0]


def test_operator_suites_print_the_same_bytes_twice_in_one_process(capsys):
    # the draws a superconnection run shares, the cached field layouts and the
    # pair tables leave nothing behind that changes a later run of either suite
    outs = {"superconnection": [], "laplacian": []}
    for _ in range(2):
        for suite, chart in (("superconnection", "sphere4"), ("laplacian", "poly4")):
            assert cli.main(["verify", "--suite", suite, "--chart", chart]) == 0
            outs[suite].append(capsys.readouterr().out)
    for first, second in outs.values():
        assert first == second and '"pass": true' in first


@pytest.mark.parametrize("samples, frames", [(3, [3]), (20, [20, 5])])
def test_lichnerowicz_builds_one_frame_when_the_head_is_every_point(monkeypatch, samples,
                                                                    frames):
    # at up to 4 samples the head is every point, so the frame and spin
    # connection of the head checks are the ones built for every point; one
    # connection per frame, and one more on the head's frame for the
    # connection-difference check
    from diracgeo import spin as sp
    calls, built = [], []
    real, real_connection = sp.build_frame_from_metric, sp.build_spin_connection
    monkeypatch.setattr(sp, "build_frame_from_metric",
                        lambda mj: calls.append(len(mj.x)) or real(mj))
    monkeypatch.setattr(sp, "build_spin_connection",
                        lambda fr, a_pot=None: built.append(len(fr.mj.x))
                        or real_connection(fr, a_pot))
    assert run_suite("lichnerowicz", chart="sphere4", seed=1, samples=samples).passed
    assert calls == frames and built == frames + frames[-1:]


def test_every_chart_suite_runs_on_a_curved_chart():
    for name in ("cartan", "clifford", "levi-civita", "hodge"):
        rep = run_suite(name, chart="sphere2", seed=2, samples=3)
        assert rep.passed, name
