"""Chart registry, metric jets, config loading, domain validation."""

import json

import numpy as np
import pytest

import fd_oracle
from diracgeo.charts import (Chart, ChartDomainError, DegenerateMetricError,
                             MetricJet, chart_from_config, get_chart, load_chart_config,
                             metric_jet, polynomial_chart, registry)

EXPECTED = {"flat2", "flat3", "flat4", "torus2", "torus3", "torus4",
            "sphere2", "sphere4", "hyperbolic2", "hyperbolic4",
            "poly2", "poly3", "poly4", "minkowski4"}


def test_registry_contents():
    names = set(registry())
    assert EXPECTED <= names
    for name in names:
        ch = get_chart(name)
        assert isinstance(ch, Chart)
        assert ch.name == name


def test_unknown_chart():
    with pytest.raises(KeyError):
        get_chart("klein_bottle")


def test_sampled_points_are_valid():
    rng = np.random.default_rng(11)
    for name in sorted(EXPECTED):
        ch = get_chart(name)
        for _ in range(5):
            x = ch.sample_point(rng)
            assert len(x) == ch.n
            ch.validate_point(x)  # must not raise
            mj = metric_jet(ch, x)
            assert np.max(np.abs(mj.g - mj.g.T)) < 1e-14
            assert abs(mj.det) > 1e-10


def test_out_of_domain_point_rejected():
    hy = get_chart("hyperbolic2")
    with pytest.raises(ChartDomainError):
        hy.validate_point(np.array([1.0, 0.5]))
    with pytest.raises(ChartDomainError):
        hy.validate_point(np.array([0.1, 0.1, 0.1]))  # wrong shape


def test_metric_jet_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    for name in ("sphere2", "poly3", "torus2", "hyperbolic4"):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        g, dg, d2g = fd_oracle.fd_metric_derivatives(ch, x)
        # truncation floor: hyperbolic4 factor derivatives grow near the ball edge
        assert np.max(np.abs(mj.g - g)) < 1e-12
        assert np.max(np.abs(mj.dg - dg)) < 1e-7
        assert np.max(np.abs(mj.d2g - d2g)) < 1e-5


def test_metric_inverse_and_derivative_consistency():
    rng = np.random.default_rng(9)
    ch = get_chart("poly4")
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    assert np.max(np.abs(mj.g @ mj.g_inv - np.eye(ch.n))) < 1e-12
    # d(g^-1) = -g^-1 dg g^-1
    want = -np.einsum("ik,akl,lj->aij", mj.g_inv, mj.dg, mj.g_inv)
    assert np.max(np.abs(mj.dg_inv - want)) < 1e-12


METRIC_JET_ARRAYS = ("g", "dg", "d2g", "g_inv", "dg_inv", "d2g_inv", "det", "sqrt_abs_det",
                     "dh", "ddh", "dsqrt", "ddsqrt", "christoffel", "dchristoffel",
                     "riemann", "lowered", "ricci", "scalar")


@pytest.mark.parametrize("name", ["sphere2", "poly3", "minkowski4"])
def test_metric_jet_arrays_are_read_only(name):
    # one jet is shared by every check of a run, so no check may write to it
    ch = get_chart(name)
    rng = np.random.default_rng(4)
    mj = metric_jet(ch, np.array([ch.sample_point(rng) for _ in range(3)]))
    inverse = mj.compound_inverse
    for a in [getattr(mj, attr) for attr in METRIC_JET_ARRAYS] + [inverse.val, inverse.d,
                                                                  inverse.dd]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    # the arrays a caller hands in stay writable
    g, dg, d2g = np.eye(2), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2))
    MetricJet(get_chart("flat2"), np.zeros(2), g, dg, d2g)
    for a in (g, dg, d2g):
        a[...] = 1.0


OPERATOR_JETS = ("compound_inverse", "exterior_connection", "raised_iota", "exterior_gammas")


@pytest.mark.parametrize("name", ["sphere2", "poly3", "minkowski4", "poly4"])
def test_metric_only_operator_jets_are_built_once_and_read_only(name):
    # the operator jets that depend only on the metric are kept on its jet:
    # a second read, or a read through the public builders, is the same
    # object, and no caller may write to it
    from diracgeo import bundles
    ch = get_chart(name)
    rng = np.random.default_rng(5)
    mj = metric_jet(ch, np.array([ch.sample_point(rng) for _ in range(3)]))
    for attr in OPERATOR_JETS:
        jet = getattr(mj, attr)
        assert getattr(mj, attr) is jet
        for a in (jet.val, jet.d, jet.dd):
            if a is not None:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0
    assert bundles.exterior_module(ch.n).gammas(mj) is mj.exterior_gammas
    assert (mj.exterior_connection.order, mj.raised_iota.order,
            mj.exterior_gammas.order) == (1, 1, 2)


def test_metric_only_operator_jets_belong_to_their_points():
    # two jets of one chart at different points share no operator jet, and
    # each holds the values built from its own metric
    from diracgeo.clifford import blade_tables
    ch = get_chart("poly4")
    rng = np.random.default_rng(6)
    mjs = [metric_jet(ch, np.array([ch.sample_point(rng) for _ in range(2)]))
           for _ in range(2)]
    eps, iota = blade_tables(4)
    for attr in OPERATOR_JETS:
        first, second = (getattr(mj, attr) for mj in mjs)
        assert first is not second and not np.array_equal(first.val, second.val)
    for mj in mjs:
        want = eps - np.einsum("...ij,jab->...iab", mj.g_inv, iota)
        np.testing.assert_allclose(mj.exterior_gammas.val, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(mj.exterior_connection.val, -np.einsum(
            "...jam,mxb,jby->...axy", mj.christoffel, eps, iota), rtol=0, atol=1e-15)


def test_conformal_charts_are_scalar_multiples_of_identity():
    rng = np.random.default_rng(6)
    for name in ("sphere2", "sphere4", "hyperbolic2", "hyperbolic4"):
        ch = get_chart(name)
        assert ch.lam_fn is not None
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        lam = mj.g[0, 0]
        assert np.max(np.abs(mj.g - lam * np.eye(ch.n))) < 1e-13


def test_minkowski_signature():
    ch = get_chart("minkowski4")
    assert not ch.riemannian
    mj = metric_jet(ch, np.zeros(4))
    sig = np.sort(np.linalg.eigvalsh(mj.g))
    assert sig[0] < 0 < sig[1]


def test_degeneracy_floor_does_not_depend_on_scale():
    # far out on the sphere chart g = lambda^-2 delta is round but tiny:
    # |det g| is 2.4e-14 at x0 = 10 and 4e-22 at x0 = 1000
    ch = get_chart("sphere4")
    for x0, tol in ((10.0, 1e-9), (1000.0, 1e-7)):
        mj = metric_jet(ch, [x0, 0.0, 0.0, 0.0])
        assert abs(mj.scalar - 12.0) < tol, (x0, mj.scalar)


def test_singular_metric_rejected():
    for diag in ((1.0, 0.0), (1.0, 1e-13), (1e-20, 0.0)):
        ch = Chart("singular2", 2, 0,
                   lambda xs, diag=diag: [[diag[0], 0.0], [0.0, diag[1]]])
        with pytest.raises(DegenerateMetricError):
            metric_jet(ch, [0.0, 0.0])


def test_symmetry_floor_does_not_depend_on_scale():
    # a tiny metric whose off-diagonal sits on one side only: its asymmetry
    # is as large as its entries, whatever their scale
    for scale in (1e-11, 1.0, 1e6):
        m = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
        ch = Chart("lopsided2", 2, 0, lambda xs, m=m: m)
        with pytest.raises(DegenerateMetricError, match=r"not symmetric at \[0.0, 0.0\]"):
            metric_jet(ch, [0.0, 0.0])
    # built-in charts are symmetric to the last bit
    rng = np.random.default_rng(3)
    for name in sorted(EXPECTED):
        ch = get_chart(name)
        g = metric_jet(ch, np.array([ch.sample_point(rng) for _ in range(4)])).g
        assert np.array_equal(g, np.swapaxes(g, -1, -2))


# the metric at x = (0, k): asymmetric and degenerate at k = 1, degenerate
# and of the wrong signature at k = 2, of the wrong signature at k = 3
PATCHES = {1.0: [[1.0, 0.5], [0.0, 0.0]], 2.0: [[-1.0, 0.0], [0.0, 0.0]],
           3.0: [[-1.0, 0.0], [0.0, 1.0]]}


def _patchy_metric(xs):
    pts = xs.val.reshape(-1, 2)
    return np.array([PATCHES.get(float(p[1]), np.eye(2)) for p in pts]).reshape(
        xs.val.shape + (2,))


def test_metric_jet_reports_the_first_bad_sample_and_its_first_failure():
    ch = Chart("patchy2", 2, 0, _patchy_metric)
    single = {}
    for k, want in ((1, "not symmetric"), (2, "degenerate"), (3, "signature drifted")):
        with pytest.raises(DegenerateMetricError, match=want) as err:
            metric_jet(ch, [0.0, float(k)])
        single[k] = str(err.value)
    assert single[1].endswith("not symmetric at [0.0, 1.0]")
    for order in ([0, 3, 1, 2], [0, 2, 1, 3], [1, 0, 3]):
        xs = np.array([[0.0, float(k)] for k in order])
        with pytest.raises(DegenerateMetricError) as err:
            metric_jet(ch, xs)
        assert str(err.value) == single[next(k for k in order if k)]
    metric_jet(ch, [[0.0, 0.0], [0.0, 4.0]])


def test_chart_from_config_roundtrip(tmp_path):
    cfg = {"name": "shifted_torus", "kind": "torus", "dimension": 2}
    ch = chart_from_config(cfg)
    assert ch.n == 2 and ch.name == "shifted_torus"
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(cfg))
    ch2 = load_chart_config(str(path))
    assert ch2.n == ch.n
    rng = np.random.default_rng(0)
    x = ch.sample_point(rng)
    assert np.max(np.abs(metric_jet(ch, x).g - metric_jet(ch2, x).g)) < 1e-15


def test_chart_config_rejects_bad_kind():
    with pytest.raises((ValueError, KeyError)):
        chart_from_config({"name": "x", "kind": "lorentzian_foam",
                           "dimension": 2})


@pytest.mark.parametrize("cfg", [
    {"kind": "flat", "dimension": 2.7},
    {"kind": "flat", "dimension": True},
    {"kind": "torus", "dimension": "3"},
    {"kind": "polynomial", "dimension": 2, "coefficients": [7.5, 0.04]},
    {"kind": "polynomial", "dimension": 2, "coefficients": [True, 0.04]},
])
def test_chart_config_integer_fields_must_be_integral(cfg):
    # int() used to truncate 2.7 to a flat2 chart and read true as dimension 1
    with pytest.raises(ValueError, match="must be an integer"):
        chart_from_config(cfg)


def test_chart_config_polynomial_seed_must_be_non_negative():
    # a negative seed used to surface numpy's bare "expected non-negative integer"
    with pytest.raises(ValueError, match=r"polynomial seed must be at least 0, got -1"):
        chart_from_config({"kind": "polynomial", "dimension": 2, "coefficients": [-1, 0.04]})


@pytest.mark.parametrize("kind", ["flat", "torus", "conformal", "polynomial"])
@pytest.mark.parametrize("dimension", [0, -2])
def test_chart_config_dimension_must_be_positive(kind, dimension):
    # {"kind": "flat", "dimension": 0} used to build flat0, whose suites then
    # failed with "cannot reshape array of size 0 into shape (0)"
    with pytest.raises(ValueError, match=f"dimension must be at least 1, got {dimension}"):
        chart_from_config({"kind": kind, "dimension": dimension})


def test_chart_config_accepts_integral_floats():
    assert chart_from_config({"kind": "flat", "dimension": 2.0}).n == 2
    a = chart_from_config({"kind": "polynomial", "dimension": 2.0,
                           "coefficients": [7.0, 0.04]})
    b = chart_from_config({"kind": "polynomial", "dimension": 2, "coefficients": [7, 0.04]})
    x = np.array([0.3, -0.2])
    assert np.array_equal(metric_jet(a, x).g, metric_jet(b, x).g)


def test_chart_config_rejects_unknown_keys(tmp_path):
    # a misspelt "lambda" used to build the default sphere chart
    cfg = {"kind": "conformal", "dimension": 2, "lamda": "hyperbolic", "name": "h"}
    with pytest.raises(ValueError, match="unknown config key 'lamda'"):
        chart_from_config(cfg)
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="unknown config key 'lamda'"):
        load_chart_config(str(path))


def _per_point_polynomial_metric(n, seed, scale):
    """The rejection sampling of ``polynomial_chart`` with one eigenvalue call
    per test point: the metric of the first accepted attempt, or None."""
    radius = 0.9
    xs = np.random.default_rng(seed + 99).uniform(-radius, radius, size=(200, n))
    for attempt in range(64):
        rng = np.random.default_rng(seed + 1000 * attempt)
        s0 = rng.uniform(-1, 1, size=(n, n)) * scale
        s0 = 0.5 * (s0 + s0.T)
        s1 = rng.uniform(-1, 1, size=(n, n, n)) * scale
        s1 = 0.5 * (s1 + np.transpose(s1, (1, 0, 2)))
        s2 = rng.uniform(-1, 1, size=(n, n, n, n)) * scale
        s2 = 0.5 * (s2 + np.transpose(s2, (1, 0, 2, 3)))
        s2 = 0.5 * (s2 + np.transpose(s2, (0, 1, 3, 2)))

        def metric(x, s0=s0, s1=s1, s2=s2):
            return np.eye(n) + s0 + s1 @ x + (s2 @ x) @ x

        if all(np.min(np.linalg.eigvalsh(metric(x))) >= 0.5 for x in xs):
            return metric
    return None


@pytest.mark.parametrize("n, scales", [(2, (0.04, 0.3, 0.4)), (3, (0.15, 0.2, 0.3)),
                                       (4, (0.04, 0.15))])
def test_polynomial_chart_batched_rejection_matches_per_point(n, scales):
    # the scales reach draws that are rejected before one is accepted, and
    # seeds where every attempt is rejected
    x = np.linspace(-0.5, 0.4, n)
    for scale in scales:
        for seed in (1, 7, 11):
            want = _per_point_polynomial_metric(n, seed, scale)
            if want is None:
                with pytest.raises(DegenerateMetricError):
                    polynomial_chart(n, seed, scale)
            else:
                assert np.array_equal(polynomial_chart(n, seed, scale).metric_fn(x), want(x))
