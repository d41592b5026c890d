"""Blocks of sections and of forms: a section jet of fiber (m, K) or a form
jet of fiber (2^n, K), one column per probe, draw or degree.  Every block
operator equals K single-column calls column by column, to a relative
1e-15, and each check makes one operator call per route.  A single section
call is a one-column block (``_col``), its column dropped from the result."""

from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import laplacian_reference as ref
from diracgeo import bundles as bnd
from diracgeo import spin as sp
from diracgeo import suites
from diracgeo.charts import get_chart, metric_jet
from diracgeo.forms import (FieldLayout, PolyField, coderivative_connection,
                            coderivative_hodge, covariant_derivative, forms_dirac,
                            gram_pairing, hodge_star, poly_fields, random_poly_field,
                            wedge_forms)
from diracgeo.jets import Jet, index_contract
from diracgeo.suites import run_suite

P = 3


def _close(got, want):
    """got (K, ...) against the list of K single-column results, relative 1e-15."""
    want = np.stack([np.asarray(w) for w in want])
    assert np.shape(got) == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(want)))
CASES = [(name, K) for name in ("sphere2", "poly3", "poly4") for K in (1, 3, 15)]


def _points(name, seed):
    ch = get_chart(name)
    rng = np.random.default_rng(seed)
    xs = np.array([ch.sample_point(rng) for _ in range(P)])
    return ch.n, rng, xs, metric_jet(ch, xs)


def _field(rng, xs, make):
    """The jet at xs of ``make(rng)``, one field per point of the stack."""
    return PolyField.stack([make(rng) for _ in range(P)]).eval(xs, 2)


def _per_column(got, single, K):
    """A block result, its column axis last, against the K single calls; a
    jet order by order."""
    if isinstance(got, Jet):
        assert got.order == single(0).order
        for k in ("val", "d", "dd")[:got.order + 1]:
            _per_column(getattr(got, k), lambda c: getattr(single(c), k), K)
        return
    if isinstance(got, tuple):
        for k, g in enumerate(got):
            _per_column(g, lambda c: single(c)[k], K)
        return
    _close(np.moveaxis(got, -1, 0), [single(c) for c in range(K)])


def _col(j, c):
    """Column c of a section block as a one-column block."""
    return j[:, c:c + 1]


def _operator(n, rng, xs, mj):
    ms = bnd.exterior_module(n)
    S = bnd.superconnection_from_degrees(
        n, ms.m, ms.eta, {0: "random", 1: "random", 2: "random"}, 5 + np.arange(P))
    return ms.m, bnd.quantize_superconnection(S.eval(xs, 1), S.masks, mj, ms)


@pytest.mark.parametrize("name, K", CASES)
def test_bundle_operators_act_on_each_column(name, K):
    n, rng, xs, mj = _points(name, 31)
    m, D = _operator(n, rng, xs, mj)
    j = _field(rng, xs, lambda r: random_poly_field(r, n, (m, K), complex_coeffs=True))
    f = _field(rng, xs, lambda r: random_poly_field(r, n, (K,), complex_coeffs=True))
    _per_column(bnd.apply_dirac(D, j), lambda c: bnd.apply_dirac(D, _col(j, c))[..., 0], K)
    _per_column(bnd.dirac_square(D, j), lambda c: bnd.dirac_square(D, _col(j, c))[..., 0], K)
    # the relative residual as it is; the absolute one is the rounding of
    # terms of size D(f psi), so it is read relative to them
    scale = np.max(np.abs(bnd.apply_dirac(D, j * f)))
    _per_column(tuple(r / s for r, s in zip(bnd.dirac_commutator_residual(D, f, j), (scale, 1))),
                lambda c: tuple(r[..., 0] / s for r, s in zip(
                    bnd.dirac_commutator_residual(D, f[c:c + 1], _col(j, c)), (scale, 1))), K)
    lc = mj.exterior_connection
    for route in ("local", "trace"):
        _per_column(bnd.canonical_laplacian(lc, mj, j, route),
                    lambda c: bnd.canonical_laplacian(lc, mj, _col(j, c), route)[..., 0], K)
    H = bnd.laplacian_from_dirac(D)
    H2 = bnd.laplacian_from_connection(*bnd.laplacian_decompose(H), mj)
    for h in (H, H2):
        _per_column(h.apply(j), lambda c: h.apply(_col(j, c))[..., 0], K)
    # the einsum expansion of D^2 is the reference route, to rounding
    got, want = bnd.dirac_square(D, j), [ref.dirac_square(D, j[:, c]) for c in range(K)]
    assert np.max(np.abs(np.moveaxis(got, -1, 0) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name, K", [c for c in CASES if c[0] != "poly3"])
def test_lichnerowicz_residual_acts_on_each_column(name, K):
    n, rng, xs, mj = _points(name, 32)
    dim = 1 << n // 2
    fr = sp.build_frame_from_metric(mj)
    scd = sp.build_spin_connection(fr, _field(
        rng, xs, lambda r: replace(f := random_poly_field(r, n, (n,)), coeffs=1j * f.coeffs)))
    j = _field(rng, xs, lambda r: random_poly_field(r, n, (dim, K), complex_coeffs=True))
    _per_column(sp.lichnerowicz_residual(scd, j),
                lambda c: sp.lichnerowicz_residual(scd, _col(j, c))[..., 0], K)


FORM_CASES = [(name, K) for name in ("sphere2", "poly4", "sphere4") for K in (1, 3, 5)]


@pytest.mark.parametrize("name, K", FORM_CASES)
def test_form_operators_act_on_each_column(name, K):
    n, rng, xs, mj = _points(name, 34)
    # every blade drawn, so each column is a form of mixed degree
    a, b = (_field(rng, xs, lambda r: random_poly_field(r, n, (1 << n, K), complex_coeffs=True))
            for _ in range(2))
    for op in (lambda j: hodge_star(j, mj), lambda j: hodge_star(j, mj, -1),
               lambda j: coderivative_hodge(j, mj), lambda j: coderivative_connection(j, mj),
               lambda j: forms_dirac(j, mj)):
        _per_column(op(a), lambda c: op(a[:, c]), K)
    cov = covariant_derivative(a, mj)
    for family in (mj.exterior_gammas, mj.raised_iota):
        _per_column(index_contract(family, cov), lambda c: index_contract(family, cov[..., c]), K)
    # two blocks pair and wedge column by column
    _per_column(wedge_forms(a, b), lambda c: wedge_forms(a[:, c], b[:, c]), K)
    _per_column(gram_pairing(a, b, mj), lambda c: gram_pairing(a[:, c], b[:, c], mj), K)


@pytest.mark.parametrize("name", ["sphere2", "poly4", "sphere4"])
def test_coderivative_of_a_sum_is_the_sum_over_degrees(name):
    # the star route's sign is taken per output blade, so on a sum of pure
    # forms it is the sum of the per-degree results
    n, rng, xs, mj = _points(name, 35)
    pure = [_field(rng, xs, lambda r: random_poly_field(r, *FieldLayout.form(n, p, True)))
            for p in range(n + 1)]
    got = coderivative_hodge(sum(pure[1:], pure[0]), mj)
    want = [coderivative_hodge(a, mj) for a in pure]
    want = sum(want[1:], want[0])
    for k in ("val", "d"):
        _close(getattr(got, k)[None], [getattr(want, k)])


@pytest.mark.parametrize("name, K", FORM_CASES)
def test_spinor_dirac_routes_act_on_each_column(name, K):
    n, rng, xs, mj = _points(name, 36)
    ch, dim, fr = get_chart(name), 1 << n // 2, sp.build_frame_from_metric(mj)
    a_pot = _field(rng, xs,
                   lambda r: replace(f := random_poly_field(r, n, (n,)), coeffs=1j * f.coeffs))
    scd = sp.build_spin_connection(fr, a_pot)
    j = _field(rng, xs, lambda r: random_poly_field(r, n, (dim, K), complex_coeffs=True))
    routes = [lambda j: sp.spin_dirac(scd, j), lambda j: sp.spin_dirac_alpha(scd, j)]
    if ch.lam_fn is not None:
        routes.append(lambda j: sp.conformal_dirac(scd, j))
    for route in routes:
        _per_column(route(j), lambda c: route(_col(j, c))[..., 0], K)


@pytest.mark.parametrize("name", ["sphere2", "poly3", "poly4"])
def test_probe_block_is_the_per_probe_loop(name):
    n, rng, xs, mj = _points(name, 33)
    m, D = _operator(n, rng, xs, mj)
    H = bnd.laplacian_from_dirac(D)
    blocks = []
    got = bnd.lap_identity_residual(replace(H, apply=lambda j: blocks.append(j) or H.apply(j)))
    # one operator call, whose columns are the probes of the loop in its order
    block, = blocks
    probes = ref.probes(mj, xs, m)
    assert block.val.shape[-1] == len(probes) == 1 + n + n * (n + 1) // 2
    for c, p in enumerate(probes):
        for k in ("val", "d", "dd"):
            assert np.array_equal(getattr(block[:, c], k),
                                  np.broadcast_to(getattr(p, k), getattr(block[:, c], k).shape))
    _per_column(H.apply(block), lambda c: H.apply(probes[c][:, None])[..., 0], len(probes))
    want = ref.lap_identity_residual(H.apply, mj, xs, m)
    _close(np.asarray(got)[None], [want])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_layout_of_all_blades_draws_the_per_degree_forms(n):
    # the hodge checks draw their forms, degree by degree (the pairing two of
    # each), as one layout of all their blades: the same numbers, in the
    # same order, as the per-degree layouts drawn in turn
    for degs in (range(n + 1), range(1, n + 1), np.repeat(range(n + 1), 2)):
        layouts = [FieldLayout.form(n, p, True) for p in degs]
        flat = FieldLayout(n, (sum(len(lay.masks) for lay in layouts),), complex_coeffs=True)
        u = np.random.default_rng(n).uniform(-1.0, 1.0, (P, flat.size))
        assert flat.size == sum(lay.size for lay in layouts)
        (whole,), parts = poly_fields(u, [flat]), poly_fields(u, layouts)
        cuts = np.cumsum([len(lay.masks) for lay in layouts])[:-1]
        for got, want in zip(np.split(whole.coeffs, cuts, axis=-1), parts):
            assert np.array_equal(got, want.coeffs)


def _calls_per_check(monkeypatch, suite, chart, seed=1, samples=5):
    """Per check id of one suite run, the calls of each counted operator."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kw):
            key = name
            if name == "canonical_laplacian":
                key += "/" + kw.get("route", args[3] if len(args) > 3 else "local")
            j = args[2 if name in ("canonical_laplacian", "dirac_commutator_residual") else 1]
            if j.val.shape[-1] == j.val.shape[-2] and not np.any(j.d) and np.array_equal(
                    j.val, np.broadcast_to(np.eye(j.val.shape[-1]), j.val.shape)):
                key += "/identity"      # the constant sections: a zero-order coefficient
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    for name in ("apply_dirac", "dirac_square", "canonical_laplacian",
                 "dirac_commutator_residual"):
        wrapped = counted(name, getattr(bnd, name))
        monkeypatch.setattr(bnd, name, wrapped)
        if hasattr(sp, name):
            monkeypatch.setattr(sp, name, wrapped)
    real_square = bnd.DiracOperatorData.square_coefficients.func

    def square(self):
        calls["square_coefficients"] += 1
        return real_square(self)

    prop = cached_property(square)
    prop.__set_name__(bnd.DiracOperatorData, "square_coefficients")
    monkeypatch.setattr(bnd.DiracOperatorData, "square_coefficients", prop)
    return _split_per_check(monkeypatch, calls, suite, chart, seed, samples), calls


def _split_per_check(monkeypatch, calls, suite, chart, seed=1, samples=5):
    """Run one suite; per check id, what the check added to the Counter calls."""
    per, real_timed = {}, suites._timed

    def timed(rep, cid, identity, tol, fn):
        before = calls.copy()
        real_timed(rep, cid, identity, tol, fn)
        per[cid] = dict(calls - before)

    monkeypatch.setattr(suites, "_timed", timed)
    rep = run_suite(suite, chart=chart, seed=seed, samples=samples)
    assert rep.passed
    return per


def _count_calls(monkeypatch, module, names, calls):
    """Count in calls each call of the functions ``names`` of module."""
    for name in names:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name, **kw:
                            calls.update([name]) or real(*args, **kw))


@pytest.mark.parametrize("chart", ["sphere2", "poly4"])
def test_each_laplacian_check_calls_each_route_once(monkeypatch, chart):
    per, calls = _calls_per_check(monkeypatch, "laplacian", chart)
    # besides the one call per route on its block of draws, the roundtrip
    # reads the zero-order coefficients of D^2 and of the recovered connection
    # in decomposing, each one call on the identity block, and none in
    # reassembling; D^2's coefficients are built on its first application
    assert per == {
        "laplacian-defining-identity": {"dirac_square": 1, "square_coefficients": 1},
        "laplacian-decompose-roundtrip": {"dirac_square": 1, "dirac_square/identity": 1,
                                          "canonical_laplacian/local": 1,
                                          "canonical_laplacian/local/identity": 1},
        "laplacian-canonical-routes": {"canonical_laplacian/local": 1,
                                       "canonical_laplacian/trace": 1},
        "laplacian-scalar-reduction": {"canonical_laplacian/local": 1},
    }
    # the one operator builds its D^2 coefficients once, for U and every check
    assert calls["square_coefficients"] == 1 and calls["dirac_square/identity"] == 1


@pytest.mark.parametrize("chart", ["sphere2", "poly4"])
def test_the_reassembled_operator_builds_neither_coefficient(monkeypatch, chart):
    # the roundtrip only applies H_2, so its T and U, built on first read, never are
    built, real = [], bnd.laplacian_from_connection
    monkeypatch.setattr(bnd, "laplacian_from_connection",
                        lambda *args: built.append(real(*args)) or built[-1])
    assert run_suite("laplacian", chart=chart, seed=1, samples=5).passed
    H2, = built
    assert "T" not in vars(H2) and "U" not in vars(H2)


@pytest.mark.parametrize("chart", ["sphere2", "sphere4"])
def test_block_checks_call_each_operator_once(monkeypatch, chart):
    per, _ = _calls_per_check(monkeypatch, "superconnection", chart)
    # D(f psi) and D(psi) for the commutator, and D_1, D_2 on [j, j const]
    assert per["superconnection-dirac-commutator"] == {"dirac_commutator_residual": 1,
                                                       "apply_dirac": 2}
    assert per["superconnection-affine"] == {"apply_dirac": 2}
    per, calls = _calls_per_check(monkeypatch, "lichnerowicz", chart)
    assert per["lichnerowicz-weitzenbock"] == {"dirac_square": 1,
                                               "canonical_laplacian/local": 1,
                                               "square_coefficients": 1}


@pytest.mark.parametrize("chart", ["sphere2", "sphere4"])
def test_each_hodge_check_calls_each_route_once(monkeypatch, chart):
    # one call per route on a block of one form per degree, whatever n is
    calls = Counter()
    _count_calls(monkeypatch, suites, ("hodge_star", "coderivative_hodge",
                                       "coderivative_connection", "forms_dirac",
                                       "exterior_derivative", "wedge_forms", "gram_pairing"),
                 calls)
    per = _split_per_check(monkeypatch, calls, "hodge", chart)
    assert per == {
        "hodge-double-star": {"hodge_star": 2},
        "hodge-antilinear": {"hodge_star": 2},
        "hodge-pairing": {"hodge_star": 1, "wedge_forms": 1, "gram_pairing": 1},
        "hodge-coderivative-dual": {"coderivative_hodge": 1, "coderivative_connection": 1},
        "hodge-nilpotency": {"coderivative_hodge": 2, "exterior_derivative": 2},
        "hodge-dirac-square": {"forms_dirac": 2, "coderivative_connection": 2,
                               "exterior_derivative": 2},
    }


@pytest.mark.parametrize("chart", ["sphere2", "sphere4"])
def test_each_spinor_route_is_called_once(monkeypatch, chart):
    calls = Counter()
    _count_calls(monkeypatch, sp, ("spin_dirac", "spin_dirac_alpha", "conformal_dirac"), calls)
    per = _split_per_check(monkeypatch, calls, "lichnerowicz", chart)
    assert per["lichnerowicz-dirac-dual-route"] == {"spin_dirac": 1, "spin_dirac_alpha": 1}
    assert per["lichnerowicz-conformal-closed-form"] == {"spin_dirac": 1, "conformal_dirac": 1}
