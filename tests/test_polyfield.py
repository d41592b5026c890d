"""PolyField: coefficient draws and monomial-jet evaluation against references."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_oracle
from diracgeo import bundles as bnd
from diracgeo.forms import (FieldLayout, PolyField, exponent_table, poly_fields,
                            random_poly_field)
from diracgeo.jets import Jet


def _loop_draws(rng, entries, n, degree, complex_coeffs):
    """The scalar draw loop: entries, then terms in filtered product order,
    then real before imaginary part.  Returns (T, entries)."""
    out = []
    for _ in range(entries):
        row = []
        for e in product(range(degree + 1), repeat=n):
            if sum(e) > degree:
                continue
            c = rng.uniform(-1.0, 1.0)
            if complex_coeffs:
                c = c + 1j * rng.uniform(-1.0, 1.0)
            row.append(complex(c))
        out.append(row)
    return np.array(out, dtype=complex).reshape(entries, -1).T


def _same_stream(make, reference, seed=7):
    got = make(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = reference(rng)
    assert got.coeffs.dtype == complex
    assert np.array_equal(got.coeffs, want)
    # the vectorized draw leaves the generator where the loop left it
    g2 = np.random.default_rng(seed)
    make(g2)
    assert g2.uniform() == rng.uniform()
    return got


@pytest.mark.parametrize("n,degree", [(2, 0), (2, 2), (3, 1), (4, 2), (4, 3)])
def test_random_constructors_match_the_scalar_draw_loop(n, degree):
    terms = [e for e in product(range(degree + 1), repeat=n) if sum(e) <= degree]
    assert exponent_table(n, degree).tolist() == [list(e) for e in terms]
    for cc in (False, True):
        _same_stream(lambda r: random_poly_field(r, n, (), degree, cc),
                     lambda r: _loop_draws(r, 1, n, degree, cc)[:, 0])
    _same_stream(lambda r: random_poly_field(r, n, (n,), degree),
                 lambda r: _loop_draws(r, n, n, degree, False))
    for p in range(n + 1):
        masks = [m for m in range(1 << n) if bin(m).count("1") == p]
        f = _same_stream(lambda r: random_poly_field(r, *FieldLayout.form(n, p, True, degree)),
                         lambda r: _loop_draws(r, len(masks), n, degree, True))
        assert list(f.masks) == masks
    m = 1 << n
    _same_stream(lambda r: random_poly_field(r, n, (m,), degree, True),
                 lambda r: _loop_draws(r, m, n, degree, True))
    eta = bnd.exterior_module(n).eta
    sig = np.real(np.diag(eta)).astype(int)
    for parity in (1, -1):
        def matrix_loop(r):
            out = np.zeros((len(terms), m, m), dtype=complex)
            for row, col in product(range(m), repeat=2):
                if sig[row] * sig[col] == parity:
                    out[:, row, col] = _loop_draws(r, 1, n, degree, True)[:, 0]
            return out
        _same_stream(lambda r: bnd.random_parity_matrix(r, n, eta, parity, degree),
                     matrix_loop)


@st.composite
def _layouts(draw):
    """1-3 layouts in n = 1..4 variables: any fiber shape, degree 0-3, real
    or complex, and blade masks on a first fiber axis that fits 2^n."""
    n = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
        masks = None
        if shape and shape[0] <= 1 << n and draw(st.booleans()):
            masks = tuple(draw(st.permutations(range(1 << n)))[:shape[0]])
        out.append(FieldLayout(n, shape, draw(st.integers(0, 3)), draw(st.booleans()), masks))
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_layouts(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_block_draws_are_the_stack_of_random_poly_field(layouts, rows, seed):
    # rows of one uniform call cut into layouts are, bit for bit, the fields
    # a per-row loop of random_poly_field draws, stacked; one row gives the
    # fields themselves
    size = sum(lay.size for lay in layouts)
    rng = np.random.default_rng(seed)
    loop = [[random_poly_field(rng, *lay) for lay in layouts] for _ in range(rows)]
    block = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, size))
    for k, (f, lay) in enumerate(zip(poly_fields(block, layouts), layouts)):
        want = PolyField.stack([row[k] for row in loop])
        assert f.stacked and f.masks == lay.masks and f.coeffs.flags.c_contiguous
        assert np.array_equal(f.exponents, want.exponents)
        assert f.coeffs.dtype == complex and np.array_equal(f.coeffs, want.coeffs)
    for f, g in zip(poly_fields(block[0], layouts), loop[0]):
        assert not f.stacked and f.masks == g.masks and np.array_equal(f.coeffs, g.coeffs)


def _naive_jet(f: PolyField, x):
    """Term-by-term value, gradient and Hessian."""
    n = f.n
    shape = f.coeffs.shape[1:]
    val = np.zeros(shape, dtype=complex)
    d = np.zeros((n,) + shape, dtype=complex)
    dd = np.zeros((n, n) + shape, dtype=complex)
    for c, e in zip(f.coeffs, f.exponents.tolist()):
        def mono(mult, pw):
            t = mult
            for i in range(n):
                t *= x[i] ** pw[i] if pw[i] >= 0 else 0.0
            return t
        val += c * mono(1.0, e)
        for k in range(n):
            ek = [p - (i == k) for i, p in enumerate(e)]
            d[k] += c * mono(e[k], ek)
            for l in range(n):
                ekl = [p - (i == l) for i, p in enumerate(ek)]
                dd[k, l] += c * mono(e[k] * ek[l], ekl)
    return val, d, dd


def _empty(n, shape):
    """The field with no terms."""
    return PolyField(n, np.zeros((0, n), dtype=np.int64), np.zeros((0,) + shape, dtype=complex))


def _fields(rng, n, degree):
    m = 3
    yield random_poly_field(rng, n, (), degree, True)
    for shape in ((m,), (m, m)):
        f = random_poly_field(rng, n, (m,), degree, True)
        yield PolyField(n, f.exponents,
                        rng.normal(size=(len(f.exponents),) + shape) + 0j)
    yield _empty(n, (m, m))
    yield PolyField(n, np.zeros((1, n), dtype=np.int64),
                    rng.normal(size=(1, m)) + 1j * rng.normal(size=(1, m)))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_jets_match_term_loop_and_finite_differences(n, degree):
    rng = np.random.default_rng(10 * n + degree)
    x = rng.uniform(-1.5, 1.5, size=n)
    for f in _fields(rng, n, degree):
        got = f.jet(x)
        scale = max(1.0, float(np.abs(f.coeffs).sum()) * 2.0 ** (2 * degree))
        for a, b in zip(got, _naive_jet(f, x)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * scale
        fd = fd_oracle.fd_jet(lambda y: f.jet(y, 0)[0], x)
        for a, b in zip(got, fd):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-7 * scale
        # lower orders are the leading rows of the same jet
        val1, d1, dd1 = f.jet(x, 1)
        assert dd1 is None and np.array_equal(d1, got[1])
        assert f.jet(x, 0)[1] is None
        # a stack of f and 2f at a stack of points, sample by sample
        both = (f, PolyField(n, f.exponents, 2.0 * f.coeffs))
        xs = np.stack([x, 0.5 - x])
        for k, parts in enumerate(zip(*PolyField.stack(both).jet(xs))):
            for a, b in zip(parts, both[k].jet(xs[k])):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-15 * scale
    # the empty field is zero; a constant field is its coefficient, exactly
    assert not any(a.any() for a in _empty(n, (2, 2)).jet(x))
    const = PolyField(n, np.zeros((1, n), dtype=np.int64),
                      np.full((1, 2, 2), 0.5 + 1j))
    val, d, dd = const.jet(x)
    assert np.array_equal(val, const.coeffs[0]) and not d.any() and not dd.any()


def test_eval_wraps_each_kind_in_its_container():
    # every fiber shape evaluates to one Jet holding the arrays of ``jet``
    rng = np.random.default_rng(3)
    n = 3
    x = rng.normal(size=n)
    f = random_poly_field(rng, n, (), 2, True)
    s = f.eval(x)
    val, d, dd = f.jet(x)
    assert isinstance(s, Jet) and s.val.shape == ()
    assert s.val == val and np.array_equal(s.d, d) and np.array_equal(s.dd, dd)
    assert f.eval(x, 1).dd is None and f.eval(x, 0).d is None

    v = random_poly_field(rng, n, (n,))
    vj = v.eval(x)
    val, d, dd = v.jet(x)
    assert isinstance(vj, Jet) and len(vj) == n
    for i, c in enumerate(vj):
        assert c.val == val[i] and np.array_equal(c.d, d[:, i])
        assert np.array_equal(c.dd, dd[:, :, i])

    form = random_poly_field(rng, *FieldLayout.form(n, 2, True))
    fj = form.eval(x, 2)
    assert isinstance(fj, Jet) and fj.val.shape == (1 << n,)
    val, d, dd = form.jet(x)
    slots = list(form.masks)
    others = [m for m in range(1 << n) if m not in form.masks]
    assert np.array_equal(fj.val[slots], val) and not fj.val[others].any()
    assert np.array_equal(fj.d[:, slots], d) and not fj.d[:, others].any()
    assert np.array_equal(fj.dd[:, :, slots], dd)

    # a form-valued section: the masks index the first fiber axis
    fs = random_poly_field(rng, n, (2, 4), masks=(5, 2)).eval(x)
    assert fs.val.shape == (1 << n, 4) and fs.dd.shape == (n, n, 1 << n, 4)
    assert not fs.val[[0, 1, 3, 4, 6, 7]].any()

    sec = random_poly_field(rng, n, (4,), complex_coeffs=True).eval(x)
    assert isinstance(sec, Jet) and sec.dd.shape == (n, n, 4)
    mat = _empty(n, (4, 4)).eval(x, 1)
    assert isinstance(mat, Jet) and mat.d.shape == (n, 4, 4)
    assert mat.dd is None


def test_field_shape_is_checked():
    e = exponent_table(2, 1)
    with pytest.raises(ValueError, match="do not match"):
        PolyField(3, e, np.zeros(len(e), dtype=complex))
    with pytest.raises(ValueError, match="blade mask"):
        PolyField(2, e, np.zeros((len(e), 2), dtype=complex), masks=(1,))
    with pytest.raises(ValueError, match="blade mask"):
        PolyField(2, e, np.zeros(len(e), dtype=complex), masks=(1,))
    # any other fiber shape is a field of that shape
    deep = PolyField(2, e, np.zeros((len(e), 2, 2, 2), dtype=complex)).eval(np.zeros(2))
    assert deep.val.shape == (2, 2, 2) and deep.dd.shape == (2, 2, 2, 2, 2)
