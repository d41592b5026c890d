"""The two exterior-algebra kernels against their references: ``_bilinear``
(iota and wedge) against the gathered product and Lambda(g^-1) against the
Jet-product recursion, to a relative 1e-15, and the value of Lambda(g^-1)
against the minors of g^-1."""

from collections import Counter
from itertools import product

import numpy as np
import pytest

import exterior_reference as ref
from diracgeo import jets
from diracgeo.charts import get_chart, metric_jet
from diracgeo.forms import _bilinear
from diracgeo.jets import Jet
from test_column_block import _count_calls

P = 3
CHARTS = ["sphere2", "poly2", "poly3", "sphere4", "poly4", "hyperbolic4", "minkowski4"]


def _close(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * np.max(np.abs(want), initial=0.0)


def _close_jet(got: Jet, want: Jet):
    assert got.order == want.order
    for k in ("val", "d", "dd")[:got.order + 1]:
        _close(getattr(got, k), getattr(want, k))


def _draw(rng, x, fiber, order):
    """A complex jet with fiber ``fiber`` at x carrying ``order`` orders."""
    lead, n = x.shape[:-1], x.shape[-1]

    def c(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return Jet(x, c(lead + fiber), *(c(lead + (n,) * k + fiber) if k <= order else None
                                     for k in (1, 2)))


def _shapes(n):
    """(kind, u fiber, v fiber): one form or vector, a form-valued section
    (2^n, m), and two blocks (2^n, K) multiplied column by column."""
    dim = 1 << n
    return [("iota", (n,), (dim,)), ("iota", (n,), (dim, 3)), ("iota", (n,), (dim, 2, 3)),
            ("wedge", (dim,), (dim,)), ("wedge", (dim,), (dim, 3)),
            ("wedge", (dim, 4), (dim, 4)), ("wedge", (dim, 3), (dim, 2, 3))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bilinear_matches_the_gathered_product(n):
    rng = np.random.default_rng(700 + n)
    x = rng.normal(size=(P, n))
    for (kind, fu, fv), (ou, ov) in product(_shapes(n), product(range(3), repeat=2)):
        u, v = _draw(rng, x, fu, ou), _draw(rng, x, fv, ov)
        _close_jet(_bilinear(kind, u, v), ref.bilinear(kind, u, v))


@pytest.mark.parametrize("chart", CHARTS)
def test_compound_inverse_matches_the_jet_product_recursion(chart):
    ch = get_chart(chart)
    rng = np.random.default_rng(11)
    x = np.array([ch.sample_point(rng) for _ in range(P)])
    mj = metric_jet(ch, x)
    _close_jet(mj.compound_inverse, ref.compound_inverse(mj))


@pytest.mark.parametrize("chart", CHARTS)
def test_compound_inverse_entries_are_the_minors_of_the_inverse_metric(chart):
    ch = get_chart(chart)
    rng = np.random.default_rng(12)
    mj = metric_jet(ch, np.array([ch.sample_point(rng) for _ in range(P)]))
    dim, val = 1 << ch.n, mj.compound_inverse.val
    bits = [[i for i in range(ch.n) if mask >> i & 1] for mask in range(dim)]
    want = np.zeros((P, dim, dim))
    for row, col in product(range(dim), repeat=2):
        if len(bits[row]) == len(bits[col]):
            want[:, row, col] = np.linalg.det(mj.g_inv[:, bits[row]][:, :, bits[col]])
    assert np.max(np.abs(val - want)) <= 1e-14 * np.max(np.abs(want))


def test_building_the_compound_inverse_makes_no_jet_product(monkeypatch):
    # the derivatives come from the derivation of Lambda as array products,
    # not from order-2 Jet products of the generators
    ch = get_chart("poly4")
    mj = metric_jet(ch, np.array([ch.sample_point(np.random.default_rng(s)) for s in range(P)]))
    calls = Counter()
    _count_calls(monkeypatch, jets, ("_product",), calls)
    assert mj.compound_inverse.order == 2 and calls["_product"] == 0
    # the guard sees a Jet product where one is made
    assert (mj.compound_inverse @ Jet.constant(np.ones(16), mj.x)).order == 2
    assert calls["_product"] == 1
