"""Clifford algebra: generator relation, symbol calculus, chirality."""

import numpy as np
import pytest

from diracgeo.clifford import (CLIFFORD, EXTERIOR, AlgebraMismatchError,
                               BilinearForm, DegenerateFormError,
                               MultivectorElement, action_matrix, chirality,
                               clifford_product, epsilon, epsilon_matrix,
                               iota, iota_matrix, parity_matrix, quantize,
                               symbol, wedge)


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


def random_covector(rng, n, b):
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return MultivectorElement.covector(c, CLIFFORD, b)


def test_generator_relation_both_signatures():
    rng = np.random.default_rng(2)
    for n in range(2, 7):
        for neg in (0, 1):
            b = random_form(rng, n, neg)
            for _ in range(20):
                u = random_covector(rng, n, b)
                v = random_covector(rng, n, b)
                uc = np.array([u.coefficient([i]) for i in range(n)])
                vc = np.array([v.coefficient([i]) for i in range(n)])
                lhs = u * v + v * u
                want = MultivectorElement.scalar(-2.0 * b.pair(uc, vc), n,
                                                 CLIFFORD, b)
                scale = max(1.0, (u * v).norm())
                assert (lhs - want).norm() / scale < 1e-12


def test_quantize_symbol_roundtrip():
    rng = np.random.default_rng(7)
    n = 4
    b = random_form(rng, n)
    coeffs = [complex(rng.normal(), rng.normal()) for _ in range(1 << n)]
    a = MultivectorElement(n, coeffs, EXTERIOR)
    back = symbol(quantize(a, b))
    assert (back - a).norm() < 1e-15


def test_product_on_vacuum_reads_off_symbol():
    # column 0 of the action matrix is the symbol of the element itself
    rng = np.random.default_rng(13)
    n = 3
    b = random_form(rng, n)
    coeffs = [complex(rng.normal()) for _ in range(1 << n)]
    a = MultivectorElement(n, coeffs, CLIFFORD, b)
    col = action_matrix(a)[:, 0]
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
            ei = MultivectorElement.blade([i], n, 1.0, CLIFFORD, b)
            ej = MultivectorElement.blade([j], n, 1.0, CLIFFORD, b)
            got = symbol(clifford_product(ei, ej))
            want = (MultivectorElement.blade([i], n) * MultivectorElement.blade([j], n)
                    - MultivectorElement.scalar(g[i, j], n))
            assert (got - want).norm() < 1e-13


def test_symbol_of_generator_triple():
    rng = np.random.default_rng(19)
    n = 4
    b = random_form(rng, n)
    g = b.matrix
    for (i, j, k) in ((0, 1, 2), (1, 3, 2), (3, 0, 1), (2, 1, 0)):
        es = [MultivectorElement.blade([q], n, 1.0, CLIFFORD, b) for q in (i, j, k)]
        got = symbol(clifford_product(clifford_product(es[0], es[1]), es[2]))
        dx = [MultivectorElement.blade([q], n) for q in (i, j, k)]
        want = (wedge(wedge(dx[0], dx[1]), dx[2])
                - dx[0] * g[j, k] + dx[1] * g[i, k] - dx[2] * g[i, j])
        assert (got - want).norm() < 1e-13


def test_associativity():
    rng = np.random.default_rng(23)
    for n in (2, 4, 5):
        b = random_form(rng, n, neg=n % 2)
        for _ in range(10):
            a = MultivectorElement(n, [complex(rng.normal(), rng.normal())
                                       for _ in range(1 << n)], CLIFFORD, b)
            c = random_covector(rng, n, b)
            d = random_covector(rng, n, b)
            lhs = (a * c) * d
            rhs = a * (c * d)
            assert (lhs - rhs).norm() / max(1.0, lhs.norm()) < 1e-12


def test_exterior_module_action_is_epsilon_minus_iota():
    rng = np.random.default_rng(29)
    n = 3
    b = random_form(rng, n)
    v = random_covector(rng, n, b)
    v_ext = MultivectorElement.covector(
        [v.coefficient([i]) for i in range(n)], EXTERIOR)
    got = action_matrix(v)
    want = epsilon_matrix(v_ext) - iota_matrix(v_ext, b)
    assert np.max(np.abs(got - want)) < 1e-13


def test_epsilon_iota_algebra():
    rng = np.random.default_rng(31)
    n = 4
    b = random_form(rng, n)
    u = MultivectorElement.covector(rng.normal(size=n), EXTERIOR)
    v = MultivectorElement.covector(rng.normal(size=n), EXTERIOR)
    eu, ev = epsilon_matrix(u), epsilon_matrix(v)
    iu, iv = iota_matrix(u, b), iota_matrix(v, b)
    dim = 1 << n
    assert np.max(np.abs(eu @ eu)) < 1e-14
    assert np.max(np.abs(iu @ iu)) < 1e-14
    uc = np.array([u.coefficient([i]) for i in range(n)])
    vc = np.array([v.coefficient([i]) for i in range(n)])
    anti = eu @ iv + iv @ eu - b.pair(vc, uc) * np.eye(dim)
    assert np.max(np.abs(anti)) < 1e-13
    assert np.max(np.abs(eu @ ev + ev @ eu)) < 1e-14


def test_parity_conjugation_flips_odd_elements():
    rng = np.random.default_rng(37)
    n = 3
    b = random_form(rng, n)
    v = random_covector(rng, n, b)
    p = parity_matrix(n)
    cv = action_matrix(v)
    assert np.max(np.abs(p @ cv @ p + cv)) < 1e-13


def test_chirality_squares_to_one_and_anticommutes():
    rng = np.random.default_rng(41)
    for n, neg in ((2, 0), (4, 0), (4, 1), (6, 0)):
        b = random_form(rng, n, neg)
        ch = chirality(b)
        gam = ch.element
        one = MultivectorElement.scalar(1.0, n, CLIFFORD, b)
        assert (gam * gam - one).norm() < 1e-9
        v = random_covector(rng, n, b)
        anti = gam * v + v * gam
        assert anti.norm() / max(1.0, (gam * v).norm()) < 1e-9
        assert ch.negative_count == neg


def test_chirality_orientation_reversal():
    b = BilinearForm(np.eye(2))
    plus = chirality(b, orientation=1).element
    minus = chirality(b, orientation=-1).element
    assert (plus + minus).norm() < 1e-12


def test_chirality_euclidean_plane_matches_hand_value():
    b = BilinearForm(np.eye(2))
    gam = chirality(b).element
    # i * e1 e2: symbol coordinates put everything on the top blade
    assert gam.coefficient([0, 1]) == pytest.approx(1j, abs=1e-12)
    assert abs(gam.scalar_part()) < 1e-12


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
        one = MultivectorElement.scalar(1.0, 4, CLIFFORD, b)
        e0 = MultivectorElement.blade([0], 4, 1.0, CLIFFORD, b)
        assert ((e0 * e0) + one * scale).norm() <= 1e-15 * scale


def test_algebra_mismatch_guards():
    rng = np.random.default_rng(43)
    b1 = random_form(rng, 3)
    b2 = random_form(rng, 3)
    u = random_covector(rng, 3, b1)
    v = random_covector(rng, 3, b2)
    with pytest.raises(AlgebraMismatchError):
        _ = u * v
    ext = MultivectorElement.covector([1.0, 0.0, 0.0], EXTERIOR)
    with pytest.raises(AlgebraMismatchError):
        clifford_product(ext, ext)
    with pytest.raises(AlgebraMismatchError):
        symbol(ext)
    with pytest.raises(AlgebraMismatchError):
        quantize(u, b1)


def test_odd_dimension_chirality_rejected():
    b = BilinearForm(np.eye(3))
    with pytest.raises(ValueError):
        chirality(b)
