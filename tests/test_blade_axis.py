"""Dense blade-axis kernels against the blade-by-blade loop reference."""

import numpy as np
import pytest

import clifford_reference as ref
from diracgeo import bundles as bnd
from diracgeo import spin as sp
from diracgeo.charts import Chart, MetricJet, get_chart, metric_jet
from diracgeo.clifford import (BilinearForm, clifford_product, parity_matrix,
                               product_table, quantize, quantize_blades)
from diracgeo.forms import (covariant_derivative, exterior_derivative,
                            hodge_star, iota_vector, wedge_forms)
from diracgeo.jets import Jet

# Set from float64 before the comparison was first run: the dense kernels sum
# the same products as the loops, in another order.
RTOL = 1e-13

DIMENSIONS = range(1, 7)


def _close(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * max(1.0, np.max(np.abs(want)))


def _close_jet(got: Jet, want: dict):
    parts = ref.dict_to_arrays(want, got.n, got.order)
    for g, w in zip((got.val, got.d, got.dd), parts):
        _close(g, w)


def _draw(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _symmetric(a, axes):
    return 0.5 * (a + np.swapaxes(a, *axes))


def _pairing(rng, n, neg):
    """Random symmetric matrix with ``neg`` negative eigenvalues in [-2, -0.5]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = rng.uniform(0.5, 2.0, size=n)
    vals[:neg] *= -1.0
    return _symmetric(q @ np.diag(vals) @ q.T, (0, 1))


def _metric_jet(rng, n, neg):
    """Metric jet with random first and second derivatives at the origin."""
    g = _pairing(rng, n, neg)
    dg = _symmetric(rng.normal(size=(n, n, n)), (1, 2))
    d2g = _symmetric(_symmetric(rng.normal(size=(n, n, n, n)), (2, 3)), (0, 1))
    chart = Chart(f"random{n}", n, neg, lambda xs: None)
    return MetricJet(chart, np.zeros(n), g, dg, d2g)


def _form_jet(rng, n, x):
    dim = 1 << n
    return Jet(x, _draw(rng, dim), _draw(rng, (n, dim)),
               _symmetric(_draw(rng, (n, n, dim)), (0, 1)))


def _signatures(n):
    return range(min(n, 2) + 1)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_clifford_product_and_action_match_word_peeling(n):
    rng = np.random.default_rng(300 + n)
    for neg in _signatures(n):
        b = BilinearForm(_pairing(rng, n, neg))
        a, c = _draw(rng, 1 << n), _draw(rng, 1 << n)
        want = ref.clifford_action_dict(ref.to_dict(a), ref.to_dict(c), b.matrix)
        _close(clifford_product(a, c, b.table), ref.to_array(want, n))
        _close(quantize(a, b.table), ref.action_matrix(a, b.matrix))


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_product_table_is_the_stack_of_form_tables(n):
    # every signature, on a (2, 3) stack of pairings: the stacked recursion
    # makes the same products as the per-form one, so the bits agree
    rng = np.random.default_rng(600 + n)
    for neg in range(n + 1):
        pairings = np.array([[_pairing(rng, n, neg) for _ in range(3)] for _ in range(2)])
        table = product_table(pairings)
        assert table.shape == (2, 3) + (1 << n,) * 3
        for idx in np.ndindex(2, 3):
            assert np.array_equal(table[idx], BilinearForm(pairings[idx]).table)


@pytest.mark.parametrize("module, chart", [
    ("exterior", "sphere2"), ("exterior", "poly2"), ("exterior", "poly3"),
    ("exterior", "torus3"), ("exterior", "sphere4"), ("exterior", "poly4"),
    ("exterior", "minkowski4"),
    ("spin", "sphere2"), ("spin", "poly2"), ("spin", "sphere4"), ("spin", "poly4")])
def test_quantized_blades_match_the_permutation_sum(module, chart):
    ch = get_chart(chart)
    x = ch.sample_point(np.random.default_rng(17))
    ms = bnd.exterior_module(ch.n) if module == "exterior" else sp.spin_module(ch.n)
    full = ms.gammas(metric_jet(ch, x))
    for order in (0, 1, 2):
        gam = Jet(x, full.val, *(full.d, full.dd)[:order])
        one = Jet.constant(np.eye(ms.m), x, order)
        q = quantize_blades(gam, one)
        for mask in range(1 << ch.n):
            got, want = q(mask), ref.quantize_blade(gam, mask, one)
            assert got.order == want.order == order
            for g, w in zip((got.val, got.d, got.dd)[:order + 1],
                            (want.val, want.d, want.dd)):
                _close(g, w)
            if module == "exterior":
                # the symbol property q(dx^M) e_0 = e_M, at every order
                _close(got.val[:, 0], np.eye(ms.m)[mask])
                for g in (got.d, got.dd)[:order]:
                    _close(g[..., 0], 0.0)


@pytest.mark.parametrize("module, chart", [
    ("exterior", "sphere2"), ("exterior", "poly3"), ("exterior", "minkowski4"),
    ("spin", "poly4")])
def test_zero_order_term_is_the_quantized_blade_sum(module, chart):
    ch = get_chart(chart)
    n = ch.n
    x = ch.sample_point(np.random.default_rng(23))
    mj = metric_jet(ch, x)
    ms = bnd.exterior_module(n) if module == "exterior" else sp.spin_module(n)
    S = bnd.superconnection_from_degrees(
        n, ms.m, ms.eta, {p: "random" for p in range(n + 1)}, base_seed=4)
    D = bnd.quantize_superconnection(S, mj, ms, x)
    one = Jet.constant(np.eye(ms.m), x)
    omega = S.eval(x, order=2)
    want = [ref.quantize_blade(D.gam, mask, one) @ omega[mask]
            for mask in range(1 << n) if bin(mask).count("1") != 1]
    want = sum(want[1:], want[0])
    for g, w in zip((D.Z.val, D.Z.d, D.Z.dd), (want.val, want.d, want.dd)):
        _close(g, w)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_form_operators_match_blade_loops(n):
    rng = np.random.default_rng(400 + n)
    for neg in _signatures(n):
        mj = _metric_jet(rng, n, neg)
        x = mj.x
        a, b = _form_jet(rng, n, x), _form_jet(rng, n, x)
        da, db = ref.form_to_dict(a), ref.form_to_dict(b)
        # drawn component by component: value, gradient and Hessian of X^0, then X^1, ...
        comps = [[_draw(rng, (n,) * k) for k in range(3)] for _ in range(n)]
        X = Jet(x, *(np.stack([c[k] for c in comps], axis=-1) for k in range(3)))
        _close_jet(exterior_derivative(a), ref.exterior_derivative(da, n))
        _close_jet(iota_vector(X, a), ref.iota_vector(list(X), da))
        _close_jet(wedge_forms(a, b), ref.wedge_forms(da, db))
        _close_jet(hodge_star(a, mj), ref.hodge_star(da, mj))
        for got, want in zip(covariant_derivative(a, mj), ref.covariant_derivative(da, mj)):
            _close_jet(got, want)


@pytest.mark.parametrize("n", range(1, 5))
def test_form_section_operators_match_blade_loops(n):
    # the superconnection action, its curvature and contraction on
    # form-valued sections, fiber (2^n, m), against the blade-by-blade loops
    rng = np.random.default_rng(500 + n)
    m, dim = 3, 1 << n
    x = rng.normal(size=n)
    fs = Jet(x, _draw(rng, (dim, m)), _draw(rng, (n, dim, m)),
             _symmetric(_draw(rng, (n, n, dim, m)), (0, 1)))
    omega = Jet(x, _draw(rng, (dim, m, m)), _draw(rng, (n, dim, m, m)),
                _symmetric(_draw(rng, (n, n, dim, m, m)), (0, 1)))
    blades = {mask: omega[mask] for mask in range(dim)}
    comps = {mask: fs[mask] for mask in range(dim)}
    X = Jet(x, _draw(rng, n), _draw(rng, (n, n)), _symmetric(_draw(rng, (n, n, n)), (0, 1)))

    def close(got, want, shape, order):
        for g, w in zip((got.val, got.d, got.dd)[:order + 1],
                        ref.dict_to_arrays(want, n, order, shape)):
            _close(g, w)

    close(bnd.apply_superconnection(omega, fs),
          ref.apply_superconnection(blades, comps, n), (m,), 1)
    close(bnd.apply_form_endomorphism(omega, fs),
          ref.apply_form_endomorphism(blades, comps), (m,), 2)
    close(iota_vector(X, fs), ref.iota_vector(list(X), comps), (m,), 2)

    # the curvature of a superconnection drawn from its presets
    eta = parity_matrix(n)
    S = bnd.superconnection_from_degrees(n, dim, eta, {p: "random" for p in range(n + 1)},
                                         base_seed=n)
    evald = S.eval(x, order=2)
    close(bnd.superconnection_curvature(evald),
          ref.superconnection_curvature({mask: evald[mask] for mask in range(dim)}, n),
          (dim, dim), 0)
