"""Jet arithmetic against analytic derivatives and finite differences."""

import numpy as np
import pytest

import fd_oracle
from clifford_reference import jet_det
from diracgeo import bundles as bnd
from diracgeo.charts import get_chart, metric_jet
from diracgeo.forms import iota_vector, random_poly_field, wedge_forms
from diracgeo.jets import Jet, frozen, index_contract, jet_sqrt, seed_point


def _fd_grad(f, x, h=1e-5):
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        out[a] = (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e)
                  + f(x - 2 * e)) / (12 * h)
    return out


def _fd_hess(f, x, h=1e-4):
    n = len(x)
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        def da(y, a=a):
            return _fd_grad(f, y, h)[a]
        out[a] = _fd_grad(da, x, h)
    return out


def _expr(vals):
    # composite with every chain-rule route covered: square roots, one
    # inside another, integer powers of both signs and division
    x, y = vals
    return jet_sqrt(3.0 + jet_sqrt(2.0 + y) * x) + jet_sqrt(x * x + y * y + 3.0) \
        - (1.0 + 0.5 * x * y) ** 3 / (1.0 + y * y) + (1.0 + x * x) ** -2 + x / (y + 4.0)


def _plain(v):
    x, y = v
    return (np.sqrt(3.0 + np.sqrt(2.0 + y) * x) + np.sqrt(x * x + y * y + 3.0)
            - (1.0 + 0.5 * x * y) ** 3 / (1.0 + y * y) + (1.0 + x * x) ** -2.0
            + x / (y + 4.0))


def test_composite_expression_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        j = _expr(seed_point(x))
        assert abs(j.val - _plain(x)) < 1e-14
        assert np.max(np.abs(j.d - _fd_grad(_plain, x))) < 1e-9
        assert np.max(np.abs(j.dd - _fd_hess(_plain, x))) < 1e-6


def test_polynomial_jets_are_exact():
    x = np.array([0.7, -0.3])
    a, b = seed_point(x)
    p = a * a * b - 2.0 * a * b + b * b * b
    assert p.val == pytest.approx(x[0] ** 2 * x[1] - 2 * x[0] * x[1] + x[1] ** 3)
    assert p.d[0] == pytest.approx(2 * x[0] * x[1] - 2 * x[1])
    assert p.dd[0][1] == pytest.approx(2 * x[0] - 2)
    assert p.dd[1][1] == pytest.approx(6 * x[1])


def test_order_intersection_drops_missing_data():
    full = seed_point([0.5, 0.2])[0]
    lower = Jet(full.x, 1.5, np.ones(2, dtype=complex), None)
    prod = full * lower
    assert prod.d is not None and prod.dd is None
    assert (full + lower).dd is None
    zeroth = Jet(full.x, 2.0, None, None)
    assert (full * zeroth).d is None


def test_partial_shifts_down_one_order():
    x = np.array([0.4, 1.1])
    a, b = seed_point(x)
    p = a * a * b
    pk = p.gradient()[0]
    assert pk.val == pytest.approx(2 * x[0] * x[1])
    assert pk.d[1] == pytest.approx(2 * x[0])
    assert pk.dd is None


def test_division_and_rtruediv():
    a = seed_point([0.3, 0.8])[1]
    inv = 1.0 / a
    assert inv.val == pytest.approx(1 / 0.8)
    assert inv.d[1] == pytest.approx(-1 / 0.8 ** 2)
    assert inv.dd[1][1] == pytest.approx(2 / 0.8 ** 3)
    q = a / a
    assert q.val == pytest.approx(1.0)
    assert np.max(np.abs(q.d)) < 1e-15


def test_constant_and_conj():
    c = Jet.constant(2.0 - 1.0j, np.zeros(3))
    assert c.order == 2 and np.all(c.d == 0)
    cc = c.conj()
    assert cc.val == 2.0 + 1.0j


def test_jet_det_matches_numpy():
    # the cofactor reference against numpy and finite differences ...
    rng = np.random.default_rng(5)
    n = 3
    x = rng.uniform(-0.5, 0.5, n)
    vs = seed_point(x)
    rows = [[vs[0] * vs[0] + 2.0, vs[1], vs[2] * vs[0]],
            [vs[1], jet_sqrt(vs[2] + 2.0) + 1.0, vs[0]],
            [vs[2] * vs[0], vs[0], 2.0 / (vs[1] + 3.0) + 2.0]]
    det = jet_det(rows)

    def plain_det(y):
        m = np.array([[y[0] ** 2 + 2.0, y[1], y[2] * y[0]],
                      [y[1], np.sqrt(y[2] + 2.0) + 1.0, y[0]],
                      [y[2] * y[0], y[0], 2.0 / (y[1] + 3.0) + 2.0]])
        return np.linalg.det(m)

    assert det.val == pytest.approx(plain_det(x))
    assert np.max(np.abs(det.d - _fd_grad(plain_det, x))) < 1e-8

    # ... and MetricJet's Jacobi-formula determinant jets against the reference
    for name in ("poly4", "sphere4", "flat4", "minkowski4", "hyperbolic2", "poly3"):
        ch = get_chart(name)
        mj = metric_jet(ch, ch.sample_point(rng))
        g = Jet(mj.x, mj.g, mj.dg, mj.d2g)
        ref = jet_det([[g[i, j] for j in range(ch.n)] for i in range(ch.n)])
        sq = jet_sqrt(ref * float(np.sign(ref.val.real)))
        # h = log sq: dh = d sq / sq, and ddh = dd sq / sq + d sq (x) d(1 / sq)
        inv = 1.0 / sq
        for got, want in ((mj.det, ref.val), (mj.sqrt_abs_det, sq.val),
                          (mj.dsqrt, sq.d), (mj.ddsqrt, sq.dd),
                          (mj.dh, sq.d * inv.val),
                          (mj.ddh, sq.dd * inv.val + np.outer(sq.d, inv.d))):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), name


def test_sqrt_rejects_nothing_but_chains_correctly():
    a = seed_point([4.0])[0]
    r = jet_sqrt(a)
    assert r.val == pytest.approx(2.0)
    assert r.d[0] == pytest.approx(0.25)
    assert r.dd[0][0] == pytest.approx(-1.0 / 32.0)


def _parts(j):
    return j.val, j.d, j.dd


def _stencil_product(fa, fb, op, x):
    """Finite-difference jet of op(a, b) from the two fields' values only."""
    return fd_oracle.fd_jet(lambda y: op(fa.jet(y, 0)[0], fb.jet(y, 0)[0]), x)


def test_scalar_times_section_is_the_componentwise_product_rule():
    # n = m = 2: a scalar gradient of shape (n,) must not broadcast against
    # the section's m axis
    rng = np.random.default_rng(21)
    n = m = 2
    x = rng.normal(size=n)
    f = random_poly_field(rng, n, (), complex_coeffs=True).eval(x)
    s = random_poly_field(rng, n, (m,), complex_coeffs=True).eval(x)
    for got in (f * s, s * f):
        for c in range(m):
            val = f.val * s.val[c]
            d = [f.d[i] * s.val[c] + f.val * s.d[i, c] for i in range(n)]
            dd = [[f.dd[i, k] * s.val[c] + f.d[i] * s.d[k, c] + f.d[k] * s.d[i, c]
                   + f.val * s.dd[i, k, c] for k in range(n)] for i in range(n)]
            assert got.val[c] == pytest.approx(val, abs=1e-14)
            assert np.allclose(got.d[:, c], d, rtol=0, atol=1e-13)
            assert np.allclose(got.dd[:, :, c], dd, rtol=0, atol=1e-13)


def test_jets_at_different_points_are_rejected():
    rng = np.random.default_rng(22)
    n = 2
    x, y = rng.normal(size=n), rng.normal(size=n)
    fx = random_poly_field(rng, n, (4,)).eval(x)
    fy = random_poly_field(rng, n, (4,)).eval(y)
    mx = random_poly_field(rng, n, (4, 4)).eval(x)
    vy = random_poly_field(rng, n, (n,)).eval(y)
    D = bnd.DiracOperatorData(metric_jet(get_chart("flat2"), x), [mx] * n, [mx] * n, mx)
    for op in (lambda: fx + fy, lambda: fx - fy, lambda: fx * fy,
               lambda: mx @ fy, lambda: wedge_forms(fx, fy),
               lambda: iota_vector(vy, fx), lambda: bnd.apply_dirac(D, fy)):
        with pytest.raises(ValueError, match="different points"):
            op()
    # an equal point held in another array is the same point
    assert (fx + Jet(x.copy(), fy.val, fy.d, fy.dd)).x is x


B2 = 1 << 2
PRODUCTS = [
    # (shape of a, shape of b, op)
    ((), (), np.multiply), ((), (3,), np.multiply), ((3,), (3,), np.multiply),
    ((), (3, 3), np.multiply), ((3, 3), (3, 3), np.multiply),
    ((), (B2,), np.multiply), ((B2,), (B2,), np.multiply),
    ((), (B2, 3), np.multiply), ((3,), (B2, 3), np.multiply),
    ((3, 3), (3,), np.matmul), ((3, 3), (3, 3), np.matmul), ((3,), (3, 3), np.matmul),
    ((3,), (3,), np.matmul), ((B2, B2), (B2,), np.matmul),
    ((B2, B2), (B2, 3), np.matmul), ((B2, 3), (3,), np.matmul),
    ((B2, 3, 3), (B2, 3, 3), np.matmul),
]


@pytest.mark.parametrize("sa, sb, op", PRODUCTS)
def test_products_match_finite_differences(sa, sb, op):
    rng = np.random.default_rng(23)
    n = 2
    x = rng.uniform(-0.5, 0.5, n)
    fa = random_poly_field(rng, n, sa, complex_coeffs=True)
    fb = random_poly_field(rng, n, sb, complex_coeffs=True)
    a, b = fa.eval(x), fb.eval(x)
    times = (lambda u, v: u * v) if op is np.multiply else (lambda u, v: u @ v)
    want = _stencil_product(fa, fb, op, x)
    for g, w in zip(_parts(times(a, b)), want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-7 * max(1.0, np.max(np.abs(w)))
    # a constant operand on either side
    ca, cb = fa.jet(x, 0)[0], fb.jet(x, 0)[0]
    for got, fn in ((times(a, cb), lambda y: op(fa.jet(y, 0)[0], cb)),
                    (times(ca, b), lambda y: op(ca, fb.jet(y, 0)[0]))):
        for g, w in zip(_parts(got), fd_oracle.fd_jet(fn, x)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-7 * max(1.0, np.max(np.abs(w)))
    # a stack of points: every sample equals the product at that point alone
    xs = rng.uniform(-0.5, 0.5, (3, n))
    for got, fn in ((times(fa.eval(xs), fb.eval(xs)),
                     lambda y: times(fa.eval(y), fb.eval(y))),
                    (times(fa.eval(xs), cb), lambda y: times(fa.eval(y), cb)),
                    (times(ca, fb.eval(xs)), lambda y: times(ca, fb.eval(y)))):
        for g, w in zip(_parts(got), zip(*(_parts(fn(y)) for y in xs))):
            assert g.shape == (3,) + w[0].shape
            assert np.max(np.abs(g - np.stack(w))) <= 1e-15 * max(1.0, np.max(np.abs(w)))


@pytest.mark.parametrize("points", [1, 3])
def test_index_axis_contractions_match_member_loops(points):
    # a family is one jet with the coordinate index on its first fiber axis:
    # gradient, sum and index_contract must equal the loops over its members,
    # at one point and on a stack of points
    rng = np.random.default_rng(50 + points)
    n, m = 3, 2
    x = rng.uniform(-0.5, 0.5, (points, n) if points > 1 else n)
    mats = random_poly_field(rng, n, (n, m, m), 2, complex_coeffs=True).eval(x, 2)
    vecs = random_poly_field(rng, n, (n, m), 2, complex_coeffs=True).eval(x, 2)
    assert len(mats) == n and [a.val.shape for a in mats] == [mats[0].val.shape] * n

    def close(got, want):
        for a, b in zip((got.val, got.d, got.dd), (want.val, want.d, want.dd)):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(b)))

    grad = vecs.gradient()
    assert grad.order == 1
    lead = (slice(None),) * vecs.nb
    for k in range(n):
        # slot k is the k-th partial, its gradient row k of the Hessian
        close(grad[k], Jet(vecs.x, vecs.d[lead + (k,)], vecs.dd[lead + (k,)]))
    close(mats.sum(), sum(list(mats)[1:], mats[0]))
    terms = [a @ v for a, v in zip(mats, vecs)]
    close(index_contract(mats, vecs), sum(terms[1:], terms[0]))


def test_frozen_sets_every_held_array_read_only():
    a, b, c, listed, base = (np.ones(k + 1) for k in range(5))
    view = base[1:]
    value = (a, (Jet(np.zeros((3, 2)), b, c, None), 3.0, None), [listed], view)
    assert frozen(value) is value
    assert not any(t.flags.writeable for t in (a, b, c, view))
    # a list is no value frozen reads into, and a view's base stays writable
    assert listed.flags.writeable and base.flags.writeable
    for other in (None, 2, "x", np.float64(1.0)):
        assert frozen(other) is other
