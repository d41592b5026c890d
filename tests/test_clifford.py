"""Clifford algebra: generator relation, symbol calculus, chirality."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clifford_reference as ref
from diracgeo.clifford import (BilinearForm, DegenerateFormError, blade_tables,
                               chirality, clifford_product, contract,
                               parity_matrix, product_table, quantize, symbol,
                               wedge_table)


def random_form(rng, n, neg=0):
    """Random symmetric nondegenerate matrix with `neg` negative eigenvalues."""
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        vals = rng.uniform(0.5, 2.0, size=n)
        vals[:neg] *= -1.0
        m = q @ np.diag(vals) @ q.T
        m = 0.5 * (m + m.T)
        if abs(np.linalg.det(m)) > 1e-6:
            return BilinearForm(m)


def covector(c):
    """The covector with components c on the blade axis."""
    out = np.zeros(1 << len(c), dtype=complex)
    out[1 << np.arange(len(c))] = c
    return out


def blade(indices, n):
    """The blade dx^{i_1} ^ ... ^ dx^{i_k} of ascending indices, or 1."""
    return np.eye(1 << n)[sum(1 << i for i in indices)]


def random_components(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def norm(x):
    return np.linalg.norm(x, axis=-1)


def test_generator_relation_both_signatures():
    rng = np.random.default_rng(2)
    for n in range(2, 7):
        for neg in (0, 1):
            b = random_form(rng, n, neg)
            for _ in range(20):
                uc, vc = random_components(rng, n), random_components(rng, n)
                u, v = covector(uc), covector(vc)
                uv = clifford_product(u, v, b.table)
                lhs = uv + clifford_product(v, u, b.table)
                want = -2.0 * (uc @ b.matrix @ vc) * blade([], n)
                assert norm(lhs - want) / max(1.0, norm(uv)) < 1e-12


def test_quantize_symbol_roundtrip():
    rng = np.random.default_rng(7)
    n = 4
    b = random_form(rng, n)
    a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    back = symbol(quantize(a, b.table))
    assert norm(back - a) < 1e-15


def test_product_on_vacuum_reads_off_symbol():
    # column 0 of the action matrix is the symbol of the element itself
    rng = np.random.default_rng(13)
    n = 3
    b = random_form(rng, n)
    coeffs = rng.normal(size=1 << n).astype(complex)
    col = quantize(coeffs, b.table)[:, 0]
    for m in range(1 << n):
        assert col[m] == pytest.approx(coeffs[m], abs=1e-14)


def test_symbol_of_generator_pair():
    rng = np.random.default_rng(17)
    n = 4
    b = random_form(rng, n, neg=1)
    g = b.matrix
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ei, ej = blade([i], n), blade([j], n)
            got = clifford_product(ei, ej, b.table)
            want = clifford_product(ei, ej, wedge_table(n)) - g[i, j] * blade([], n)
            assert norm(got - want) < 1e-13


def test_symbol_of_generator_triple():
    rng = np.random.default_rng(19)
    n = 4
    b = random_form(rng, n)
    g = b.matrix
    for (i, j, k) in ((0, 1, 2), (1, 3, 2), (3, 0, 1), (2, 1, 0)):
        dx = [blade([q], n) for q in (i, j, k)]
        got = clifford_product(clifford_product(dx[0], dx[1], b.table), dx[2], b.table)
        w = wedge_table(n)
        want = (clifford_product(clifford_product(dx[0], dx[1], w), dx[2], w)
                - dx[0] * g[j, k] + dx[1] * g[i, k] - dx[2] * g[i, j])
        assert norm(got - want) < 1e-13


def test_associativity():
    rng = np.random.default_rng(23)
    for n in (2, 4, 5):
        b = random_form(rng, n, neg=n % 2)
        for _ in range(10):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            c = covector(random_components(rng, n))
            d = covector(random_components(rng, n))
            lhs = clifford_product(clifford_product(a, c, b.table), d, b.table)
            rhs = clifford_product(a, clifford_product(c, d, b.table), b.table)
            assert norm(lhs - rhs) / max(1.0, norm(lhs)) < 1e-12


def test_exterior_module_action_is_epsilon_minus_iota():
    # c(v) = eps(v) - iota(Bv), each a combination of the generator tables
    rng = np.random.default_rng(29)
    n = 3
    b = random_form(rng, n)
    c = random_components(rng, n)
    eps, iota = blade_tables(n)
    want = contract(c, eps) - contract(c @ b.matrix, iota)
    assert np.max(np.abs(quantize(covector(c), b.table) - want)) < 1e-13


def test_epsilon_iota_algebra():
    # on generators, exactly: eps_i iota_j + iota_j eps_i = delta_ij, and the
    # eps and the iota anticommute among themselves
    rng = np.random.default_rng(31)
    n = 4
    dim = 1 << n
    eps, iota = blade_tables(n)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(eps[i] @ iota[j] + iota[j] @ eps[i],
                                  np.eye(dim) * (i == j))
            assert not np.any(eps[i] @ eps[j] + eps[j] @ eps[i])
            assert not np.any(iota[i] @ iota[j] + iota[j] @ iota[i])
    # so for covectors u, v: eps(u) iota(Bv) + iota(Bv) eps(u) = (v, u)
    b = random_form(rng, n)
    u, v = rng.normal(size=n), rng.normal(size=n)
    eu, ev = contract(u, eps), contract(v, eps)
    iu, iv = contract(u @ b.matrix, iota), contract(v @ b.matrix, iota)
    assert np.max(np.abs(eu @ eu)) < 1e-14
    assert np.max(np.abs(iu @ iu)) < 1e-14
    anti = eu @ iv + iv @ eu - (v @ b.matrix @ u) * np.eye(dim)
    assert np.max(np.abs(anti)) < 1e-13
    assert np.max(np.abs(eu @ ev + ev @ eu)) < 1e-14


def test_parity_conjugation_flips_odd_elements():
    rng = np.random.default_rng(37)
    n = 3
    b = random_form(rng, n)
    p = parity_matrix(n)
    cv = quantize(covector(random_components(rng, n)), b.table)
    assert np.max(np.abs(p @ cv @ p + cv)) < 1e-13


def test_chirality_squares_to_one_and_anticommutes():
    rng = np.random.default_rng(41)
    for n, neg in ((2, 0), (4, 0), (4, 1), (6, 0)):
        b = random_form(rng, n, neg)
        gam = chirality(b.matrix)
        assert norm(clifford_product(gam, gam, b.table) - blade([], n)) < 1e-9
        v = covector(random_components(rng, n))
        gv = clifford_product(gam, v, b.table)
        anti = gv + clifford_product(v, gam, b.table)
        assert norm(anti) / max(1.0, norm(gv)) < 1e-9
        # G is i^(n/2 + s) |det B|^(-1/2) on the top blade, s the number of
        # negative eigenvalues of B
        top = 1j ** (n // 2 + neg) / np.sqrt(abs(np.linalg.det(b.matrix)))
        assert norm(gam - top * blade(range(n), n)) < 1e-9


def test_chirality_orientation_reversal():
    plus = chirality(np.eye(2), orientation=1)
    minus = chirality(np.eye(2), orientation=-1)
    assert norm(plus + minus) < 1e-12


def test_chirality_euclidean_plane_matches_hand_value():
    gam = chirality(np.eye(2))
    # i * e1 e2: symbol coordinates put everything on the top blade
    assert gam[0b11] == pytest.approx(1j, abs=1e-12)
    assert abs(gam[0]) < 1e-12


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateFormError):
        BilinearForm(np.zeros((3, 3)))
    for diag in ((1.0, 0.0), (1.0, 1e-15), (-1e-30, 0.0)):
        with pytest.raises(DegenerateFormError):
            BilinearForm(np.diag(diag))
    with pytest.raises(ValueError):
        BilinearForm(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


def test_degeneracy_floor_does_not_depend_on_scale():
    for scale in (1e-4, 1e-12, 1e8):
        b = BilinearForm(scale * np.eye(4))
        e0 = blade([0], 4)
        assert norm(clifford_product(e0, e0, b.table) + scale * blade([], 4)) <= 1e-15 * scale


def test_odd_dimension_chirality_rejected():
    with pytest.raises(ValueError):
        chirality(np.eye(3))


def test_quantize_rejects_coefficients_that_do_not_fit_the_tables():
    table = product_table(np.array([np.eye(2)] * 3))
    for w in (np.ones(4), np.ones((2, 4)), np.ones((3, 8))):
        with pytest.raises(ValueError, match="do not fit"):
            quantize(w, table)


def test_symmetry_floor_does_not_depend_on_scale():
    # entries on one side of the diagonal only: as asymmetric as the form is
    # large, at every scale, while the lower triangle alone is nondegenerate
    for scale in (1e-13, 1.0, 1e8):
        with pytest.raises(ValueError, match="must be symmetric"):
            BilinearForm(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
    # rounding-level asymmetry, as in an inverted metric, is accepted
    m = np.array([[2.0, 0.3], [0.3 + 1e-16, 1.0]]) * 1e-13
    assert BilinearForm(m).n == 2


# ---------------------------------------------------------------------------
# the stacked functions against the references, on drawn pairing stacks
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def pairing_stacks(draw, dims=st.integers(1, 5)):
    """A stack of 1 to 4 pairings of one dimension, each of its own drawn
    signature and scale, with a seed for the coefficients drawn against it."""
    n, size = draw(dims), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = np.array([random_form(rng, n, draw(st.integers(0, n))).matrix
                      * draw(st.sampled_from([1e-3, 1.0, 1e3])) for _ in range(size)])
    return stack, rng


@FUZZ
@given(pairing_stacks())
def test_stacked_products_match_word_peeling_and_the_dict_wedge(drawn):
    stack, rng = drawn
    n, dim = stack.shape[-1], 1 << stack.shape[-1]
    x = rng.normal(size=(len(stack), dim)) + 1j * rng.normal(size=(len(stack), dim))
    y = rng.normal(size=(len(stack), dim)) + 1j * rng.normal(size=(len(stack), dim))
    got = clifford_product(x, y, product_table(stack))
    wedged = clifford_product(x, y, wedge_table(n))
    for p in range(len(stack)):
        want = ref.to_array(ref.clifford_action_dict(ref.to_dict(x[p]), ref.to_dict(y[p]),
                                                     stack[p]), n)
        assert norm(got[p] - want) <= 1e-13 * max(1.0, norm(want))
        want = ref.to_array(ref.dict_wedge(ref.to_dict(x[p]), ref.to_dict(y[p])), n)
        assert norm(wedged[p] - want) <= 1e-13 * max(1.0, norm(want))


@FUZZ
@given(pairing_stacks(dims=st.sampled_from([2, 4])))
def test_stacked_chirality_is_the_chirality_of_each_member(drawn):
    stack, _ = drawn
    n = stack.shape[-1]
    gam, table = chirality(stack), product_table(stack)
    assert np.array_equal(chirality(stack, orientation=-1), -gam)
    one = blade([], n)
    for p in range(len(stack)):
        assert np.array_equal(gam[p], chirality(stack[p]))
        # G has size |det B|^(-1/2), so the terms of G^2 that cancel to its
        # lower blades are of size |G|^2 |B|^(n/2)
        scale = max(1.0, norm(gam[p]) ** 2 * np.max(np.abs(stack[p])) ** (n // 2))
        assert norm(clifford_product(gam[p], gam[p], table[p]) - one) <= 1e-12 * scale
        for i in range(n):
            gi = clifford_product(gam[p], blade([i], n), table[p])
            anti = gi + clifford_product(blade([i], n), gam[p], table[p])
            assert norm(anti) <= 1e-12 * max(1.0, norm(gi))


@FUZZ
@given(pairing_stacks(dims=st.sampled_from([2, 4])), st.data())
def test_a_degenerate_or_asymmetric_member_is_rejected(drawn, data):
    stack, _ = drawn
    n = stack.shape[-1]
    p = data.draw(st.integers(0, len(stack) - 1))
    bad = stack.copy()
    if data.draw(st.booleans()):
        vals, vecs = np.linalg.eigh(bad[p])
        vals[data.draw(st.integers(0, n - 1))] = (data.draw(st.sampled_from([0.0, 1e-14, -1e-13]))
                                                  * np.max(np.abs(vals)))
        bad[p] = vecs @ np.diag(vals) @ vecs.T
        bad[p] = 0.5 * (bad[p] + bad[p].T)
    else:
        bad[p, 0, 1] += data.draw(st.sampled_from([1e-6, 1.0])) * np.max(np.abs(bad[p]))
    with pytest.raises(ValueError) as single:
        BilinearForm(bad[p])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(single.type, match=re.escape(str(single.value))):
            chirality(bad)
