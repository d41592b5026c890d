"""Exterior calculus: d, iota, Lie, Hodge star, coderivatives."""

import numpy as np
import pytest

from diracgeo.charts import get_chart, metric_jet
from diracgeo.clifford import grades
from diracgeo.forms import (FieldLayout, JetOrderError,
                            coderivative_connection, coderivative_hodge,
                            covariant_derivative, exterior_derivative, forms_dirac,
                            gram_pairing,
                            hodge_star, iota_vector, laplace_beltrami,
                            lie_derivative,
                            random_poly_field, vector_bracket, volume_form,
                            wedge_forms)
from diracgeo.jets import Jet, seed_point


def _norm(j: Jet) -> float:
    """Euclidean norm of a jet's value, over all samples."""
    return float(np.sqrt(np.sum(np.abs(j.val) ** 2)))


def _diff(a: Jet, b: Jet) -> float:
    return _norm(a - b)


def _const(c, n, order=2):
    """A constant scalar jet at the origin of R^n, a stack of one."""
    return Jet.constant(c, np.zeros((1, n)), order)


def _form(n, x, blades, order=2):
    """Form jet at the stack x with the scalar jets ``blades[mask]`` on their
    blades, zero elsewhere."""
    dim, P = 1 << n, len(x)
    val = np.zeros((P, dim), dtype=complex)
    d = np.zeros((P, n, dim), dtype=complex) if order >= 1 else None
    dd = np.zeros((P, n, n, dim), dtype=complex) if order >= 2 else None
    for mask, c in blades.items():
        val[:, mask] = c.val
        if order >= 1:
            d[..., mask] = c.d
        if order >= 2:
            dd[..., mask] = c.dd
    return Jet(np.asarray(x, dtype=float), val, d, dd)


def test_exterior_derivative_of_scalar_is_the_differential():
    rng = np.random.default_rng(1)
    n = 3
    x = rng.normal(size=(1, n))
    f = random_poly_field(rng, n, (), 3).eval(x)
    df = exterior_derivative(_form(n, x, {0: f}))
    for i in range(n):
        assert complex(df.val[0, 1 << i]) == pytest.approx(complex(f.d[0, i]), abs=1e-14)


def test_d_squared_is_zero():
    rng = np.random.default_rng(2)
    for n, p in ((2, 0), (3, 1), (4, 2)):
        x = rng.normal(size=(1, n))
        a = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
        dd = exterior_derivative(exterior_derivative(a))
        assert _norm(dd) < 1e-13


def test_wedge_graded_commutativity_and_leibniz():
    rng = np.random.default_rng(3)
    n = 4
    x = rng.normal(size=(1, n))
    for p, q in ((1, 1), (1, 2), (2, 2), (0, 3)):
        a = random_poly_field(rng, *FieldLayout.form(n, p)).eval(x, 2)
        b = random_poly_field(rng, *FieldLayout.form(n, q)).eval(x, 2)
        comm = wedge_forms(a, b) - wedge_forms(b, a) * (-1.0) ** (p * q)
        assert _norm(comm) < 1e-13
        leib = (exterior_derivative(wedge_forms(a, b))
                - wedge_forms(exterior_derivative(a), b)
                - wedge_forms(a, exterior_derivative(b)) * (-1.0) ** p)
        assert _norm(leib) < 1e-12


def test_lie_derivative_commutes_with_d():
    rng = np.random.default_rng(4)
    n = 3
    x = rng.normal(size=(1, n))
    X = random_poly_field(rng, n, (n,)).eval(x)
    a = random_poly_field(rng, *FieldLayout.form(n, 1)).eval(x, 2)
    lhs = lie_derivative(X, exterior_derivative(a))
    rhs = exterior_derivative(lie_derivative(X, a))
    assert _diff(lhs, rhs) / max(1.0, _norm(lhs)) < 1e-12


def test_iota_squares_to_zero_and_bracket_identity():
    rng = np.random.default_rng(5)
    n = 4
    x = rng.normal(size=(1, n))
    X = random_poly_field(rng, n, (n,)).eval(x)
    Y = random_poly_field(rng, n, (n,)).eval(x)
    a = random_poly_field(rng, *FieldLayout.form(n, 3)).eval(x, 2)
    assert _norm(iota_vector(X, iota_vector(X, a))) < 1e-12
    # [L_X, iota_Y] = iota_[X,Y]
    lhs = lie_derivative(X, iota_vector(Y, a)) - iota_vector(Y, lie_derivative(X, a))
    rhs = iota_vector(vector_bracket(X, Y), a)
    assert _diff(lhs, rhs) / max(1.0, _norm(rhs)) < 1e-11


def test_flat_star_hand_values():
    ch = get_chart("flat2")
    x = np.zeros((1, 2))
    mj = metric_jet(ch, x)
    one = _form(2, x, {0: _const(1.0, 2)})
    dx1 = _form(2, x, {1: _const(1.0, 2)})
    dx2 = _form(2, x, {2: _const(1.0, 2)})
    top = _form(2, x, {3: _const(1.0, 2)})
    assert _diff(hodge_star(one, mj), top) < 1e-14
    assert _diff(hodge_star(dx1, mj), dx2) < 1e-14
    assert _diff(hodge_star(dx2, mj), -dx1) < 1e-14
    assert _diff(hodge_star(top, mj), one) < 1e-14


def test_double_star_sign_euclidean_and_lorentzian():
    rng = np.random.default_rng(6)
    for name, det_sign in (("sphere2", 1), ("poly3", 1), ("minkowski4", -1)):
        ch = get_chart(name)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        n = ch.n
        for p in range(n + 1):
            a = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
            twice = hodge_star(hodge_star(a, mj), mj)
            want = a * ((-1.0) ** (p * (n - p)) * det_sign)
            assert _diff(twice, want) / max(1.0, _norm(a)) < 1e-12, (name, p)


def test_star_is_antilinear():
    rng = np.random.default_rng(7)
    ch = get_chart("sphere2")
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    a = random_poly_field(rng, *FieldLayout.form(2, 1, True)).eval(x, 2)
    c = 0.7 - 1.3j
    lhs = hodge_star(a * c, mj)
    rhs = hodge_star(a, mj) * np.conj(c)
    assert _diff(lhs, rhs) < 1e-12


def test_star_realizes_gram_pairing_against_volume():
    rng = np.random.default_rng(8)
    for name in ("sphere2", "poly4"):
        ch = get_chart(name)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        n = ch.n
        top = (1 << n) - 1
        for p in (1, 2):
            a = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
            b = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
            got = complex(wedge_forms(a, hodge_star(b, mj)).val[0, top])
            vol = complex(volume_form(mj).val[0, top])
            want = np.conj(gram_pairing(a, b, mj)[0]) * vol
            assert abs(got - want) / max(1.0, abs(want)) < 1e-11


def test_volume_form_coefficient_on_conformal_chart():
    # g = lam^-2 delta so the volume coefficient is lam^-n
    rng = np.random.default_rng(9)
    for name in ("sphere2", "hyperbolic4"):
        ch = get_chart(name)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        lam = float(ch.lam_fn(x[0]))
        top = (1 << ch.n) - 1
        got = complex(volume_form(mj).val[0, top])
        assert got == pytest.approx(lam ** (-ch.n), rel=1e-12)


def test_coderivative_routes_agree():
    rng = np.random.default_rng(10)
    for name in ("sphere2", "hyperbolic2", "poly3", "torus4"):
        ch = get_chart(name)
        n = ch.n
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        for p in range(1, n + 1):
            a = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
            d1 = coderivative_hodge(a, mj)
            d2 = coderivative_connection(a, mj)
            assert _diff(d1, d2) / max(1.0, _norm(d1)) < 1e-10, (name, p)


def test_coderivative_drops_degree_and_squares_to_zero():
    rng = np.random.default_rng(11)
    ch = get_chart("sphere4")
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    a = random_poly_field(rng, *FieldLayout.form(4, 3, True)).eval(x, 2)
    da = coderivative_hodge(a, mj)
    # every blade of degree other than 2 is exactly zero, to every order
    off = grades(4) != 2
    assert not any(np.any(t[..., off]) for t in (da.val, da.d))
    assert np.any(da.val[..., ~off])
    dda = coderivative_hodge(da, mj)
    assert _norm(dda) / max(1.0, _norm(a)) < 1e-11


def test_coderivative_routes_agree_on_mixed_degrees():
    # the star route takes its sign per output blade, so like the blade-wise
    # connection route it accepts a form of mixed degree
    x = np.zeros((1, 2))
    mj = metric_jet(get_chart("flat2"), x)
    mixed = _form(2, x, {0: _const(1.0, 2), 1: _const(1.0, 2)})
    d1, d2 = coderivative_hodge(mixed, mj), coderivative_connection(mixed, mj)
    assert d1.order == d2.order == 1
    assert np.array_equal(d1.val, d2.val) and np.array_equal(d1.d, d2.d)
    rng = np.random.default_rng(12)
    for name in ("sphere2", "poly3", "sphere4"):
        ch = get_chart(name)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        mixed = sum(random_poly_field(rng, *FieldLayout.form(ch.n, p, True)).eval(x, 2)
                    for p in range(ch.n + 1))
        d1, d2 = coderivative_hodge(mixed, mj), coderivative_connection(mixed, mj)
        assert _diff(d1, d2) / max(1.0, _norm(d1)) < 1e-10, name


def test_forms_dirac_square_is_d_delta_plus_delta_d():
    rng = np.random.default_rng(13)
    for name in ("sphere2", "poly3"):
        ch = get_chart(name)
        n = ch.n
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        for p in range(n + 1):
            a = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
            lhs = forms_dirac(forms_dirac(a, mj), mj)
            rhs = (exterior_derivative(coderivative_connection(a, mj))
                   + coderivative_connection(exterior_derivative(a), mj))
            assert _diff(lhs, rhs) / max(1.0, _norm(lhs)) < 1e-10


def test_laplace_beltrami_flat_and_scalar_route():
    n = 2
    x = np.array([[0.4, -0.2]])
    mj = metric_jet(get_chart("flat2"), x)
    f = seed_point(x)[0] * seed_point(x)[0]
    assert laplace_beltrami(f[None], mj)[0, 0] == pytest.approx(-2.0)

    rng = np.random.default_rng(14)
    ch = get_chart("sphere2")
    y = ch.sample_point(rng)[None]
    mjs = metric_jet(ch, y)
    g = random_poly_field(rng, n, (), 3).eval(y)
    via_form = coderivative_connection(
        exterior_derivative(_form(n, y, {0: g})), mjs)
    assert complex(via_form.val[0, 0]) == pytest.approx(
        laplace_beltrami(g[None], mjs)[0, 0], rel=1e-11)


def test_exterior_derivative_order_guard():
    n = 2
    x = np.zeros((1, n))
    f = _const(1.0, n, order=0)
    with pytest.raises(JetOrderError):
        exterior_derivative(_form(n, x, {0: f}, order=0))



# each operator on inputs one order short of what it reads (d on a 0-jet is
# ``test_exterior_derivative_order_guard``): L_X, the bracket, nabla and both
# coderivatives take one order each, and d d, L_X d and L_[X,Y] two;
# ``cut(j, k)`` leaves j k orders
ONE_SHORT = {
    "d d": lambda a, X, Y, mj, cut: exterior_derivative(exterior_derivative(cut(a, 1))),
    "L_X a": lambda a, X, Y, mj, cut: lie_derivative(X, cut(a, 0)),
    "L_X a, X short": lambda a, X, Y, mj, cut: lie_derivative(cut(X, 0), a),
    "L_X d a": lambda a, X, Y, mj, cut: lie_derivative(X, exterior_derivative(cut(a, 1))),
    "[X, Y]": lambda a, X, Y, mj, cut: vector_bracket(cut(X, 0), Y),
    "[X, Y], Y short": lambda a, X, Y, mj, cut: vector_bracket(X, cut(Y, 0)),
    "L_[X,Y] a": lambda a, X, Y, mj, cut: lie_derivative(
        vector_bracket(cut(X, 1), cut(Y, 1)), cut(a, 1)),
    "nabla": lambda a, X, Y, mj, cut: covariant_derivative(cut(a, 0), mj),
    "delta, star route": lambda a, X, Y, mj, cut: coderivative_hodge(cut(a, 0), mj),
    "delta, connection route": lambda a, X, Y, mj, cut: coderivative_connection(cut(a, 0),
                                                                                mj),
}


@pytest.mark.parametrize("case", sorted(ONE_SHORT))
def test_an_input_one_order_short_raises(case):
    # a check that truncates its inputs too far fails loudly, never with a
    # silently wrong residual; with every order kept the same call succeeds
    ch = get_chart("poly3")
    rng = np.random.default_rng(2)
    xs = np.array([ch.sample_point(rng) for _ in range(2)])
    mj = metric_jet(ch, xs)
    a = random_poly_field(rng, *FieldLayout.form(3, 1, True)).eval(xs)
    X, Y = (random_poly_field(rng, 3, (3,)).eval(xs) for _ in range(2))
    assert ONE_SHORT[case](a, X, Y, mj, lambda j, k: j).val.shape[0] == 2
    with pytest.raises((JetOrderError, ValueError), match="order"):
        ONE_SHORT[case](a, X, Y, mj, Jet.truncate)
