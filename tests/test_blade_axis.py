"""Dense blade-axis kernels against the blade-by-blade loop reference."""

import numpy as np
import pytest

import clifford_reference as ref
from diracgeo.charts import Chart, MetricJet
from diracgeo.clifford import (CLIFFORD, BilinearForm, MultivectorElement,
                               action_matrix, clifford_product)
from diracgeo.forms import (FormJet, VectorJet, covariant_derivative,
                            exterior_derivative, hodge_star, iota_vector,
                            wedge_forms)
from diracgeo.jets import SJet

# Set from float64 before the comparison was first run: the dense kernels sum
# the same products as the loops, in another order.
RTOL = 1e-13

DIMENSIONS = range(1, 7)


def _close(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * max(1.0, np.max(np.abs(want)))


def _close_jet(got: FormJet, want: dict):
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
    return FormJet(n, x, _draw(rng, dim), _draw(rng, (n, dim)),
                   _symmetric(_draw(rng, (n, n, dim)), (0, 1)))


def _signatures(n):
    return range(min(n, 2) + 1)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_clifford_product_and_action_match_word_peeling(n):
    rng = np.random.default_rng(300 + n)
    for neg in _signatures(n):
        b = BilinearForm(_pairing(rng, n, neg))
        a, c = _draw(rng, 1 << n), _draw(rng, 1 << n)
        ea, ec = (MultivectorElement(n, v, CLIFFORD, b) for v in (a, c))
        want = ref.clifford_action_dict(ref.to_dict(a), ref.to_dict(c), b.matrix)
        _close(clifford_product(ea, ec).coeffs, ref.to_array(want, n))
        _close(action_matrix(ea), ref.action_matrix(a, b.matrix))


@pytest.mark.parametrize("n", DIMENSIONS)
def test_form_operators_match_blade_loops(n):
    rng = np.random.default_rng(400 + n)
    for neg in _signatures(n):
        mj = _metric_jet(rng, n, neg)
        x = mj.x
        a, b = _form_jet(rng, n, x), _form_jet(rng, n, x)
        da, db = ref.form_to_dict(a), ref.form_to_dict(b)
        X = VectorJet(n, x, [SJet(n, *(_draw(rng, (n,) * k) for k in range(3)))
                             for _ in range(n)])
        _close_jet(exterior_derivative(a), ref.exterior_derivative(da, n))
        _close_jet(iota_vector(X, a), ref.iota_vector(X.comps, da))
        _close_jet(wedge_forms(a, b), ref.wedge_forms(da, db))
        _close_jet(hodge_star(a, mj), ref.hodge_star(da, mj))
        for got, want in zip(covariant_derivative(a, mj), ref.covariant_derivative(da, mj)):
            _close_jet(got, want)
