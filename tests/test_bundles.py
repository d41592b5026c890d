"""Bundle operators: superconnections, Dirac squares, Laplacian decomposition."""

import hashlib
import re

import numpy as np
import pytest

import clifford_reference as ref
from diracgeo import bundles as bnd
from diracgeo.charts import get_chart, metric_jet
from diracgeo.forms import PolyField, laplace_beltrami, random_poly_field
from diracgeo.jets import Jet, relative, relative_gap, sample_max


def _norm(j) -> float:
    """Euclidean norm of a jet's value, over all samples."""
    return float(np.sqrt(np.sum(np.abs(j.val) ** 2)))


def _module(n):
    ms = bnd.exterior_module(n)
    return ms, ms.m


def test_exterior_module_rank_and_grading():
    for n in (2, 3, 4):
        ms, m = _module(n)
        assert m == 2 ** n
        assert np.trace(np.real(ms.eta)) == pytest.approx(0.0)


def test_module_gammas_satisfy_generator_relation():
    rng = np.random.default_rng(1)
    for name in ("sphere2", "poly3", "minkowski4"):
        ch = get_chart(name)
        ms, m = _module(ch.n)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        assert bnd.module_invariant_residual(ms, mj)[0] < 1e-10


def test_parity_rule_enforced():
    n = 2
    ms, m = _module(n)
    # degree-1 blades must be odd against the grading
    bad = bnd.random_parity_matrix(np.random.default_rng(0), n, ms.eta, -1,
                                   degree=1)
    with pytest.raises(bnd.ParityError):
        bnd.SuperconnectionData(n, m, ms.eta, {1: bad})
    good = bnd.random_parity_matrix(np.random.default_rng(0), n, ms.eta, 1,
                                    degree=1)
    bnd.SuperconnectionData(n, m, ms.eta, {1: good})


def test_parity_error_names_first_offending_entry():
    n = 2
    ms, m = _module(n)
    sig = np.real(np.diag(ms.eta)).astype(int)
    # degree-1 blades need sig[r] sig[c] = +1; fill two entries that break it
    wrong = [(r, c) for r in range(m) for c in range(m) if sig[r] * sig[c] != 1]
    coeffs = np.zeros((1, 1, m, m), dtype=complex)
    for r, c in (wrong[-1], wrong[1]):
        coeffs[0, 0, r, c] = 0.5
    field = PolyField(n, np.zeros((1, n), dtype=np.int64), coeffs)
    r, c = wrong[1]
    with pytest.raises(bnd.ParityError, match=rf"entry \({r},{c}\)"):
        bnd.SuperconnectionData(n, m, ms.eta, {1: field})
    # allowed entries alone pass
    coeffs[0, 0][sig[:, None] * sig[None, :] != 1] = 0.0
    bnd.SuperconnectionData(n, m, ms.eta, {1: field})


def test_dirac_commutator_is_clifford_of_differential():
    rng = np.random.default_rng(2)
    ch = get_chart("sphere2")
    n = ch.n
    ms, m = _module(n)
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    S = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random", 2: "random"}, [3])
    D = bnd.quantize_superconnection(S.eval(x), S.masks, mj, ms)
    for _ in range(5):
        fj = random_poly_field(rng, n, (), 2, complex_coeffs=True).eval(x)
        j = random_poly_field(rng, n, (m,), complex_coeffs=True).eval(x, 2)[..., None]
        lhs = bnd.apply_dirac(D, j * fj) - fj.val[:, None, None] * bnd.apply_dirac(D, j)
        rhs = np.zeros((1, m, 1), dtype=complex)
        for a in range(n):
            rhs += fj.d[:, a, None, None] * (D.gam[a].val @ j.val)
        assert np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))) < 1e-11


def test_apply_dirac_takes_only_a_block_of_sections():
    # a section is a block (m, K): a 1-D section at a stack of m points has a
    # value of shape (m, m)
    ch = get_chart("sphere2")
    ms, m = _module(ch.n)
    rng = np.random.default_rng(14)
    x = np.array([ch.sample_point(rng) for _ in range(m)])
    S = bnd.superconnection_from_degrees(ch.n, m, ms.eta, {1: "random"}, [2])
    D = bnd.quantize_superconnection(S.eval(x), S.masks, metric_jet(ch, x), ms)
    for shape in ((m,), (m + 1, 2), (m, 1, 1)):
        with pytest.raises(ValueError, match="section block needs fiber"):
            bnd.apply_dirac(D, Jet.constant(np.ones(shape), x, 1))
    one_column = Jet.constant(np.ones((m, 1)), x, 1)
    assert bnd.apply_dirac(D, one_column).shape == x.shape[:-1] + (m, 1)


def test_dirac_square_routes_agree():
    rng = np.random.default_rng(3)
    ch = get_chart("poly2")
    n = ch.n
    ms, m = _module(n)
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    S = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random", 2: "random"}, [9])
    D = bnd.quantize_superconnection(S.eval(x), S.masks, mj, ms)
    for _ in range(5):
        j = random_poly_field(rng, n, (m,), complex_coeffs=True).eval(x, 2)[..., None]
        direct = bnd.dirac_square(D, j)
        composed = bnd.apply_dirac(D, ref.apply_dirac_jet(D, j))
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - composed)) / scale < 1e-11


def test_laplacian_defining_identity():
    rng = np.random.default_rng(4)
    for name in ("sphere2", "torus3", "hyperbolic4"):
        ch = get_chart(name)
        n = ch.n
        ms, m = _module(n)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        S = bnd.superconnection_from_degrees(
            n, m, ms.eta, {0: "random", 1: "random", 2: "random"},
            [11])
        D = bnd.quantize_superconnection(S.eval(x), S.masks, mj, ms)
        assert bnd.lap_identity_residual(bnd.laplacian_from_dirac(D))[0] < 1e-9


def test_laplacian_decompose_recovers_connection_and_potential():
    rng = np.random.default_rng(5)
    ch = get_chart("poly2")
    n = ch.n
    m = 3
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    for _ in range(10):
        A = random_poly_field(rng, n, (n, m, m), 2, complex_coeffs=True).eval(x, 2)
        F = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        A2, F2 = bnd.laplacian_decompose(bnd.laplacian_from_connection(A, F, mj))
        for i in range(n):
            assert np.max(np.abs(A2[i].val - A[i].val)) < 1e-12
            assert np.max(np.abs(A2[i].d - A[i].d)) < 1e-11
        assert np.max(np.abs(F2 - F)) < 1e-11


def test_dirac_square_decomposes_into_laplacian_plus_endomorphism():
    rng = np.random.default_rng(6)
    ch = get_chart("sphere2")
    n = ch.n
    ms, m = _module(n)
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    S = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random", 2: "random"}, [13])
    D = bnd.quantize_superconnection(S.eval(x), S.masks, mj, ms)
    H = bnd.laplacian_from_dirac(D)
    A, F = bnd.laplacian_decompose(H)
    H2 = bnd.laplacian_from_connection(A, F, mj)
    for _ in range(5):
        j = random_poly_field(rng, n, (m,), complex_coeffs=True).eval(x, 2)[..., None]
        h1, h2 = H.apply(j), H2.apply(j)
        assert np.max(np.abs(h1 - h2)) / max(1.0, np.max(np.abs(h1))) < 1e-10


# sha256 of the bytes of A.val, A.d and F that laplacian_decompose returned on
# these operators when it took the metric jet as a second argument
DECOMPOSE_DIGESTS = {"sphere2": "48d1b651c5b2192b93cafc458e57b8646fc742d75017b45502fe315b34dbd3e3",
                     "poly4": "d6c340edd9f9c2b1b36dbbdccac7c986acff3ef91597c120680e9acc6af6765b"}


@pytest.mark.parametrize("name, seed", [("sphere2", 3), ("poly4", 5)])
def test_an_operator_and_its_square_share_one_metric_jet(name, seed):
    ch = get_chart(name)
    rng = np.random.default_rng(seed)
    xs = np.array([ch.sample_point(rng) for _ in range(3)])
    mj = metric_jet(ch, xs)
    ms, m = _module(ch.n)
    S = bnd.superconnection_from_degrees(
        ch.n, m, ms.eta, {0: "random", 1: "random", 2: "random"}, [seed, seed + 1, seed + 2])
    D = bnd.quantize_superconnection(S.eval(xs, 1), S.masks, mj, ms)
    H = bnd.laplacian_from_dirac(D)
    assert H.mj is D.mj is mj
    A, F = bnd.laplacian_decompose(H)
    assert bnd.laplacian_from_connection(A, F, mj).mj is mj
    got = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in (A.val, A.d, F)))
    assert got.hexdigest() == DECOMPOSE_DIGESTS[name]


def test_canonical_laplacian_routes_agree():
    rng = np.random.default_rng(7)
    ch = get_chart("hyperbolic2")
    n = ch.n
    ms, m = _module(n)
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    A = mj.exterior_connection
    j = random_poly_field(rng, n, (m,), complex_coeffs=True).eval(x, 2)[..., None]
    loc = bnd.canonical_laplacian(A, mj, j, route="local")
    tr = bnd.canonical_laplacian(A, mj, j, route="trace")
    assert np.max(np.abs(loc - tr)) / max(1.0, np.max(np.abs(loc))) < 1e-11
    with pytest.raises(ValueError):
        bnd.canonical_laplacian(A, mj, j, route="spectral")


@pytest.mark.parametrize("route", ["quantize_superconnection", "canonical_laplacian/local",
                                   "canonical_laplacian/trace", "laplace_beltrami",
                                   "twisting_curvature/curvature", "twisting_curvature/gammas"])
def test_bundle_routes_refuse_a_metric_jet_at_other_points(route):
    # the quantization, both canonical Laplacian routes, the scalar Laplacian
    # and the twist read their metric jet at the points of their jets; a
    # superconnection of degrees 0 and 1 meets the jet only through its gammas,
    # and a twist given the wrong jet would blame the connection
    ch = get_chart("sphere2")
    rng = np.random.default_rng(5)
    xs = np.array([ch.sample_point(rng) for _ in range(2)])
    ms, m = _module(2)
    S = bnd.superconnection_from_degrees(2, m, ms.eta, {0: "random", 1: "random"}, [3, 4])
    here = metric_jet(ch, xs)
    A = here.exterior_connection
    j = random_poly_field(rng, 2, (m,), complex_coeffs=True).eval(xs, 2)[..., None]
    f = random_poly_field(rng, 2, (3,), complex_coeffs=True).eval(xs, 2)
    apply = {"quantize_superconnection":
             lambda mj: bnd.quantize_superconnection(S.eval(xs, 1), S.masks, mj, ms),
             "canonical_laplacian/local": lambda mj: bnd.canonical_laplacian(A, mj, j),
             "canonical_laplacian/trace":
             lambda mj: bnd.canonical_laplacian(A, mj, j, route="trace"),
             "laplace_beltrami": lambda mj: laplace_beltrami(f, mj),
             "twisting_curvature/curvature": lambda mj: bnd.twisting_curvature(
                 bnd.connection_curvature(A), mj, ms.gammas(here)),
             "twisting_curvature/gammas": lambda mj: bnd.twisting_curvature(
                 bnd.connection_curvature(mj.exterior_connection), mj, ms.gammas(here))}[route]
    apply(metric_jet(ch, xs))
    with pytest.raises(ValueError, match="jets live at different points"):
        apply(metric_jet(ch, xs + 0.3))
        pytest.fail(f"{route} accepted a metric jet at other points")


def test_kernel_projector_structure():
    rng = np.random.default_rng(8)
    for name in ("flat2", "sphere2", "poly4", "minkowski4"):
        ch = get_chart(name)
        n = ch.n
        ms, m = _module(n)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        c, b, p = bnd.kernel_projector(mj, ms)
        assert np.max(np.abs(c @ b - np.eye(m))) < 1e-11
        assert np.max(np.abs(p @ p - p)) < 1e-11
        assert complex(np.trace(p[0])) == pytest.approx(m, abs=1e-9)


def test_clifford_of_metric_is_minus_n():
    rng = np.random.default_rng(9)
    for name in ("sphere4", "poly3", "minkowski4"):
        ch = get_chart(name)
        ms, m = _module(ch.n)
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        # c(omega) = gamma^i g_ij gamma^j, summed here apart from the kernel projector
        gam = ms.gammas(mj).val
        got = np.einsum("...iab,...ij,...jbc->...ac", gam, mj.g, gam)
        assert np.max(np.abs(got + ch.n * np.eye(m))) < 1e-11


def test_twisting_curvature_accepts_levi_civita_rejects_random():
    rng = np.random.default_rng(10)
    ch = get_chart("sphere2")
    n = ch.n
    ms, m = _module(n)
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    gammas = ms.gammas(mj)

    A = mj.exterior_connection
    FE = bnd.connection_curvature(A)
    ftw, worst = bnd.twisting_curvature(FE, mj, gammas)
    assert worst[0] < 1e-10
    # the twist of the plain Levi-Civita connection on forms commutes with
    # the action but need not vanish; on the round sphere it is nonzero
    assert max(np.max(np.abs(ftw[0, i, k])) for i in range(n) for k in range(n)) > 1e-6

    bad = random_poly_field(rng, n, (n, m, m), 1, complex_coeffs=True).eval(x, 2)
    with pytest.raises(bnd.CliffordConnectionError):
        bnd.twisting_curvature(bnd.connection_curvature(bad), mj, gammas)


def test_special_superconnection_predicate():
    rng = np.random.default_rng(11)
    ch = get_chart("poly2")
    n = ch.n
    ms, m = _module(n)
    pts = [ch.sample_point(rng) for _ in range(5)]
    special = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random"}, [1])
    got, resid = bnd.is_special_superconnection(special, pts)
    assert got[0] and resid[0] < 1e-12
    full = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random", 2: "constant"}, [1])
    got, resid = bnd.is_special_superconnection(full, pts)
    assert not got[0] and resid[0] > 1e-6


def test_special_identity_holds_for_degree_one_superconnection():
    rng = np.random.default_rng(12)
    ch = get_chart("flat3")
    n = ch.n
    ms, m = _module(n)
    x = ch.sample_point(rng)[None]
    S = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random"}, [17])
    X = random_poly_field(rng, n, (n,)).eval(x)
    Y = random_poly_field(rng, n, (n,)).eval(x)
    # one section per blade, drawn in the order 0, 1, 2, 4, 3
    fs = random_poly_field(rng, n, (5, m), complex_coeffs=True,
                           masks=(0, 1, 2, 4, 3)).eval(x, 2)
    resid = bnd.special_identity_residual(S, X, Y, fs)
    assert resid.shape == (1,) and resid[0] < 1e-9


def test_superconnection_curvature_matches_double_application():
    rng = np.random.default_rng(13)
    n = 2
    ms, m = _module(n)
    x = np.array([[0.2, -0.4]])
    S = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "random", 1: "random", 2: "random"}, [19])
    blades = S.eval(x, order=2)
    FS = bnd.superconnection_curvature(blades)
    fs = random_poly_field(rng, n, (1 << n, m), complex_coeffs=True,
                           masks=tuple(range(1 << n))).eval(x, 2)
    twice = bnd.apply_superconnection(blades, bnd.apply_superconnection(blades, fs))
    direct = bnd.apply_form_endomorphism(FS, fs)
    assert _norm(twice - direct) / max(1.0, _norm(direct)) < 1e-10


def test_superconnection_config_validation():
    n = 2
    ms, m = _module(n)
    with pytest.raises(ValueError):
        bnd.superconnection_from_config({"fiber_dimension": 3}, n, ms)
    with pytest.raises(ValueError):
        bnd.superconnection_from_config(
            {"grading": [1, 1, 1, 1], "degrees": {}}, n, ms)
    with pytest.raises(ValueError):
        bnd.superconnection_from_config({"degrees": {"7": "zero"}}, n, ms)
    with pytest.raises(ValueError):
        bnd.superconnection_from_config({"degrees": {"1": "quintic"}}, n, ms)
    S = bnd.superconnection_from_config(
        {"fiber_dimension": m, "degrees": {"0": "constant", "1": "random"},
         "seed": 4}, n, ms)
    assert S.m == m


def test_superconnection_refuses_a_grading_of_another_fiber_dimension():
    # a 4 x 4 grading on a fiber of dimension 3 would let the parity slots of
    # one blade overwrite those of the next on the blade axis
    eta = _module(2)[0].eta
    with pytest.raises(ValueError, match=r"grading of shape \(4, 4\).*fiber dimension 3"):
        bnd.superconnection_from_degrees(2, 3, eta, {0: "constant", 1: "constant"},
                                         [1]).eval(np.zeros((1, 2)), 0)
        pytest.fail("a (4, 4) grading was accepted on a fiber of dimension 3")
    with pytest.raises(ValueError, match="grading"):
        bnd.SuperconnectionData(2, 4, eta[:3], {})


def test_superconnection_from_degrees_is_seed_deterministic():
    n = 2
    ms, m = _module(n)
    a = bnd.superconnection_from_degrees(n, m, ms.eta, {1: "random"}, [5])
    b = bnd.superconnection_from_degrees(n, m, ms.eta, {1: "random"}, [5])
    c = bnd.superconnection_from_degrees(n, m, ms.eta, {1: "random"}, [6])
    x = np.array([[0.3, 0.7]])
    va = a.eval(x, 0).val[:, 1]
    vb = b.eval(x, 0).val[:, 1]
    vc = c.eval(x, 0).val[:, 1]
    assert np.array_equal(va, vb)
    assert np.max(np.abs(va - vc)) > 1e-6


def test_superconnection_presets_set_degree_and_seed():
    n = 2
    ms, m = _module(n)
    S = bnd.superconnection_from_degrees(
        n, m, ms.eta, {0: "constant", 1: "linear", 2: "random(9)"}, [5])
    degree = {mask: int(S.entries(mask).exponents.sum(axis=1).max()) for mask in S.masks}
    assert degree == {0: 0, 1: 1, 2: 1, 3: 2}
    # "random(9)" is "random" with its own seed in place of the base seed
    T = bnd.superconnection_from_degrees(n, m, ms.eta, {2: " random "}, [9])
    assert np.array_equal(S.entries(3).coeffs, T.entries(3).coeffs)
    assert not np.any(bnd.superconnection_from_degrees(
        n, m, ms.eta, {1: "zero"}, [0]).entries(1).coeffs)
    for bad in ("random5", "constant(3)", "random(3", "cubic"):
        with pytest.raises(ValueError, match="unknown coefficient preset"):
            bnd.superconnection_from_degrees(n, m, ms.eta, {1: bad}, [0])


@pytest.mark.parametrize("seed, message", [
    ([], "at least one seed"),
    ([1.5], "seed must be an integer, got 1.5"),
    ([1.5, 2.5], "seed must be an integer, got 1.5"),
    ([3, True], "seed must be an integer, got True"),
    ([-5], "seed must be at least 0, got -5"),
    ([2, -5], "seed must be at least 0, got -5"),
])
def test_superconnection_seeds_are_checked(seed, message):
    # [] raised UnboundLocalError, 1.5 ran as seed 1 and -5 reached numpy
    ms, m = _module(2)
    with pytest.raises(ValueError, match=re.escape(message)):
        bnd.superconnection_from_degrees(2, m, ms.eta, {1: "random"}, seed)
    with pytest.raises(ValueError, match=re.escape(
            "seed of preset 'random(-1)' must be at least 0, got -1")):
        bnd.superconnection_from_degrees(2, m, ms.eta, {1: "random(-1)"}, [3])
    # an integral float is the integer, as in every config reader
    same = [[S.entries(mask).coeffs for mask in S.masks] for S in (
        bnd.superconnection_from_degrees(2, m, ms.eta, {1: "random"}, [s])
        for s in (3, 3.0, np.int64(3)))]
    assert all(np.array_equal(c, w) for blades in same for c, w in zip(blades, same[0]))


def test_residuals_keep_a_nan():
    # a NaN residual must fail its check; max(0.0, nan) is 0.0, so the
    # per-index reductions used to drop it
    rng = np.random.default_rng(12)
    ch = get_chart("sphere2")
    ms, m = _module(ch.n)
    x = ch.sample_point(rng)[None]
    mj = metric_jet(ch, x)
    assert np.isnan(bnd.lap_identity_residual(
        bnd.LaplacianData(mj, m, lambda j: np.full(j.val.shape, np.nan), None)))
    nan_gammas = bnd.ModuleSpec(m, ms.eta, lambda mj: ms.gammas(mj) * np.nan)
    assert np.isnan(bnd.module_invariant_residual(nan_gammas, mj))
    FE = bnd.connection_curvature(mj.exterior_connection)
    _, worst = bnd.twisting_curvature(FE * np.nan, mj, ms.gammas(mj))
    assert np.isnan(worst)
    # the one relative rule: a NaN on either side or in the difference stays
    # NaN, and the scale is floored at 1
    ones, nans = np.ones((2, 3)), np.full((2, 3), np.nan)
    for a, b in ((nans, ones), (ones, nans)):
        assert np.all(np.isnan(relative_gap(a, b)))
    assert np.all(np.isnan(relative(np.array([np.nan, 1.0]), np.array([1.0, np.nan]))))
    assert relative(0.5, 1e-3, 0.25) == 0.5
    assert relative(0.5, 2.0, 4.0) == 0.125
    assert np.array_equal(relative_gap(0.25 * ones, 0.75 * ones), np.full(2, 0.5))
    assert relative_gap(ones, 3 * ones) == pytest.approx(2 / 3)


def _column_gap(a, b, *terms, nb: int = 1):
    """The per-column comparison as ``bundles.column_gap`` wrote it before
    ``relative_gap`` took it in: the column axis moved behind the samples."""
    a, b, *terms = (np.moveaxis(c, -1, nb) for c in (a, b) + terms)

    def peak(c):
        return np.max(np.abs(c), axis=tuple(range(nb + 1, c.ndim)))

    return relative(peak(a - b), *(peak(c) for c in [a, b] + terms))


def test_one_rule_reduces_per_sample_and_per_column():
    rng = np.random.default_rng(34)
    # blocks (P, m, K) of K columns, and a family (P, n, m, K) beside them
    a, b, t = (rng.normal(size=(5, 4, 3)) * s for s in (1.0, 3.0, 40.0))
    fam = rng.normal(size=(5, 2, 4, 3))
    # several arrays: the largest entry over all of them, per sample
    assert np.array_equal(sample_max(a, fam), np.maximum(np.max(np.abs(a), axis=(1, 2)),
                                                         np.max(np.abs(fam), axis=(1, 2, 3))))
    assert np.array_equal(sample_max(a, b, t), sample_max(np.stack([a, b, t], 1)))
    # cols: per sample and column of the last axis
    assert np.array_equal(sample_max(a, fam, cols=True),
                          np.maximum(np.max(np.abs(a), axis=1),
                                     np.max(np.abs(fam), axis=(1, 2))))
    # per sample and row: cols on the block with its last two axes swapped
    assert np.array_equal(sample_max(a.swapaxes(1, 2), cols=True), np.max(np.abs(a), axis=2))
    # a stack of one: one number over everything, and one per column
    assert sample_max(a[None], b[None]) == [max(np.max(np.abs(a)), np.max(np.abs(b)))]
    assert np.array_equal(sample_max(a[None], cols=True)[0],
                          np.max(np.abs(a), axis=(0, 1)))
    assert relative_gap(a[None], b[None]) == [relative(
        np.max(np.abs(a - b)), np.max(np.abs(a)), np.max(np.abs(b)))]
    # NaN propagates from any array into its own sample and column only
    nan = a.copy()
    nan[2, 1, 0] = np.nan
    assert np.isnan(sample_max(a, nan)).tolist() == [False, False, True, False, False]
    assert np.isnan(sample_max(nan, a)).tolist() == [False, False, True, False, False]
    got = relative_gap(b, nan, cols=True)
    assert np.isnan(got).sum() == 1 and np.isnan(got[2, 0])
    assert np.isnan(relative_gap(a, b, nan)[2])
    # the scales reduce to one: relative over s_a, s_b is relative over max(a, b)
    diff = sample_max(a - b)
    assert np.array_equal(relative(diff, sample_max(a), sample_max(b)),
                          relative(diff, sample_max(a, b)))
    # bit for bit the per-column comparison it replaces, with and without
    # terms; two sample axes are read as one
    for nb in (1, 2):
        shape = (5, 2)[:nb] + (4, 3)
        a, b, t = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3))

        def flat(c):
            return c.reshape((-1,) + c.shape[nb:])

        assert np.array_equal(relative_gap(flat(a), flat(b), cols=True),
                              flat(_column_gap(a, b, nb=nb)))
        assert np.array_equal(relative_gap(flat(a), flat(b), flat(9 * t), cols=True),
                              flat(_column_gap(a, b, 9 * t, nb=nb)))
