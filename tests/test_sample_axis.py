"""The sample axis: a stack of P points evaluates like P single points.

Every batched result is compared with the stack of the same computation run
one point at a time, to a relative 1e-15.
"""

import numpy as np
import pytest

from diracgeo.charts import (Chart, ChartDomainError, DegenerateMetricError,
                            get_chart, metric_jet, registry)
from diracgeo.forms import (PolyField, coderivative_connection,
                            coderivative_hodge, degree, exterior_derivative,
                            forms_dirac, gram_pairing, hodge_star, iota_vector,
                            lie_derivative, random_poly_field, random_poly_form,
                            random_poly_vector, vector_bracket, volume_form,
                            wedge_forms)
from diracgeo.jets import (Jet, jet_cos, jet_exp, jet_log, jet_sin,
                           jet_sqrt, seed_point)

P = 3


def _close(got, want):
    """got (P, ...) against the list of P single results, relative 1e-15."""
    want = np.stack([np.asarray(w) for w in want])
    assert np.shape(got) == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def _same_jets(batched, singles):
    assert batched.order == min(s.order for s in singles)
    for k in ("val", "d", "dd")[:batched.order + 1]:
        _close(getattr(batched, k), [getattr(s, k) for s in singles])


def _unstack(field: PolyField, k: int) -> PolyField:
    return PolyField(field.n, field.exponents, field.coeffs[k], field.masks)


def _pair(rng, xs, make, order=2):
    """P fields from ``make(rng)`` at the P points xs: one batched jet and the
    P single-point jets it must equal."""
    f = PolyField.stack([make(rng) for _ in range(P)])
    return f.eval(xs, order), [_unstack(f, k).eval(x, order) for k, x in enumerate(xs)]


@pytest.mark.parametrize("n", [2, 4])
def test_polyfield_eval_batches_every_fiber(n):
    rng = np.random.default_rng(n)
    makers = [lambda r: random_poly_field(r, n, (), complex_coeffs=True),
              lambda r: random_poly_vector(r, n),
              lambda r: random_poly_form(r, n, 2, complex_coeffs=True),
              lambda r: random_poly_field(r, n, (3,), complex_coeffs=True),
              lambda r: random_poly_field(r, n, (2, 3), masks=(1, 2))]
    for make in makers:
        for order in (0, 1, 2):
            _same_jets(*_pair(rng, rng.uniform(-0.6, 0.6, (P, n)), make, order))
    # forms of different degrees stack on the full blade axis
    f = PolyField.stack([random_poly_form(rng, n, p, complex_coeffs=True)
                         for p in range(n + 1)])
    xs = rng.uniform(-0.6, 0.6, size=(n + 1, n))
    assert f.masks is None and f.coeffs.shape[2] == 1 << n
    _same_jets(f.eval(xs), [_unstack(f, k).eval(xs[k]) for k in range(n + 1)])
    assert degree(f.eval(xs)).tolist() == list(range(n + 1))
    # one field at P points
    g = random_poly_field(rng, n, (2,), complex_coeffs=True)
    _same_jets(g.eval(xs), [g.eval(x) for x in xs])


def test_jet_arithmetic_batches():
    rng = np.random.default_rng(11)
    n = 2
    xs = rng.uniform(-0.6, 0.6, (P, n))
    s, ss = _pair(rng, xs, lambda r: random_poly_field(r, n, (), complex_coeffs=True))
    t, ts = _pair(rng, xs, lambda r: random_poly_field(r, n, (), complex_coeffs=True))
    v, vs = _pair(rng, xs, lambda r: random_poly_field(r, n, (3,), complex_coeffs=True))
    m, ms = _pair(rng, xs, lambda r: random_poly_field(r, n, (3, 3), complex_coeffs=True))
    const = rng.normal(size=(3, 3))
    weights = rng.normal(size=P)
    cases = [
        (lambda a, b, u, w: a + b), (lambda a, b, u, w: a - 2.5),
        (lambda a, b, u, w: u + a), (lambda a, b, u, w: a * u),
        (lambda a, b, u, w: w @ u), (lambda a, b, u, w: u @ w),
        (lambda a, b, u, w: w @ w), (lambda a, b, u, w: const @ w),
        (lambda a, b, u, w: u * const[0]), (lambda a, b, u, w: a / (b + 3.0)),
        (lambda a, b, u, w: 2.0 / (a + 3.0)), (lambda a, b, u, w: a ** 3),
        (lambda a, b, u, w: a ** 0), (lambda a, b, u, w: -u),
        (lambda a, b, u, w: u.partial(1)), (lambda a, b, u, w: w[1:, 0]),
        (lambda a, b, u, w: w[..., 2]), (lambda a, b, u, w: u.conj()),
        (lambda a, b, u, w: jet_exp(a) + jet_sin(b) * jet_cos(a)),
        (lambda a, b, u, w: jet_sqrt(a * a + 2.0) + jet_log(b * b + 1.0)),
    ]
    for op in cases:
        _same_jets(op(s, t, v, m), [op(*args) for args in zip(ss, ts, vs, ms)])
    _same_jets(v.scale(weights), [vk * wk for vk, wk in zip(vs, weights)])
    assert [c.val.shape for c in v] == [(P,)] * 3
    coords = seed_point(np.stack([s.x for s in ss]))
    _same_jets(coords, [seed_point(sk.x) for sk in ss])
    _same_jets(Jet.constant(np.ones(2), s.x), [Jet.constant(np.ones(2), sk.x) for sk in ss])


@pytest.mark.parametrize("name", sorted(registry()))
def test_metric_jet_batches(name):
    ch = get_chart(name)
    rng = np.random.default_rng(5)
    xs = np.array([ch.sample_point(rng) for _ in range(P)])
    batched = metric_jet(ch, xs)
    singles = [metric_jet(ch, x) for x in xs]
    for k in ("g", "dg", "d2g", "g_inv", "dg_inv", "d2g_inv", "det", "sqrt_abs_det",
              "dh", "ddh", "dsqrt", "ddsqrt", "christoffel", "dchristoffel"):
        _close(getattr(batched, k), [getattr(s, k) for s in singles])
    _same_jets(batched.compound_inverse, [s.compound_inverse for s in singles])


def test_metric_jet_names_the_bad_point_of_a_stack():
    # the metric |x|^2 delta degenerates at the origin only
    cone = Chart("cone", 2, 0, lambda v: np.eye(2) * (v @ v))
    xs = np.array([[0.5, 0.1], [0.0, 0.0], [0.3, 0.3]])
    metric_jet(cone, xs[[0, 2]])
    with pytest.raises(DegenerateMetricError) as single:
        metric_jet(cone, xs[1])
    with pytest.raises(DegenerateMetricError) as stack:
        metric_jet(cone, xs)
    assert str(stack.value) == str(single.value)
    assert "degenerate at [0.0, 0.0]" in str(stack.value)
    with pytest.raises(ChartDomainError, match=r"\[0.9, 0.9\] outside domain"):
        metric_jet(get_chart("hyperbolic2"), np.array([[0.1, 0.2], [0.9, 0.9]]))


@pytest.mark.parametrize("name", ["sphere4", "minkowski4", "poly3", "hyperbolic2"])
def test_forms_operators_batch(name):
    ch = get_chart(name)
    n = ch.n
    rng = np.random.default_rng(7)
    xs = np.array([ch.sample_point(rng) for _ in range(P)])
    mj = metric_jet(ch, xs)
    singles = [metric_jet(ch, x) for x in xs]

    X, Xs = _pair(rng, xs, lambda r: random_poly_vector(r, n))
    Y, Ys = _pair(rng, xs, lambda r: random_poly_vector(r, n))
    for p in range(n + 1):
        a, As = _pair(rng, xs, lambda r: random_poly_form(r, n, p, complex_coeffs=True))
        b, Bs = _pair(rng, xs, lambda r: random_poly_form(r, n, p, complex_coeffs=True))
        ops = [lambda a, b, X, Y, g: exterior_derivative(a),
               lambda a, b, X, Y, g: iota_vector(X, a),
               lambda a, b, X, Y, g: wedge_forms(a, b),
               lambda a, b, X, Y, g: lie_derivative(X, a),
               lambda a, b, X, Y, g: iota_vector(vector_bracket(X, Y), a),
               lambda a, b, X, Y, g: hodge_star(a, g),
               lambda a, b, X, Y, g: hodge_star(a, g, -1),
               lambda a, b, X, Y, g: coderivative_hodge(a, g),
               lambda a, b, X, Y, g: coderivative_connection(a, g),
               lambda a, b, X, Y, g: forms_dirac(a, g),
               lambda a, b, X, Y, g: volume_form(g, g.x)]
        for op in ops:
            _same_jets(op(a, b, X, Y, mj),
                       [op(*args) for args in zip(As, Bs, Xs, Ys, singles)])
        _close(gram_pairing(a, b, mj),
               [gram_pairing(*args) for args in zip(As, Bs, singles)])
        assert degree(a).tolist() == [p] * P
