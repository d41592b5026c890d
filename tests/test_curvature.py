"""Curvature tensors against a finite-difference oracle, plus identities."""

import numpy as np
import pytest

import fd_oracle
from diracgeo.charts import get_chart, metric_jet, registry
from diracgeo.curvature import (curvature_two_form_residual, divergence_via_connection,
                                divergence_via_density, log_det_identity_residual)
from diracgeo.forms import random_poly_field

CURVED = ("sphere2", "hyperbolic2", "sphere4", "hyperbolic4", "poly2",
          "poly3", "poly4")
SCALAR_REFS = {"sphere2": 2.0, "hyperbolic2": -2.0,
               "sphere4": 12.0, "hyperbolic4": -12.0}


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


def test_tensors_match_finite_difference_oracle():
    rng = np.random.default_rng(21)
    for name in CURVED:
        ch = get_chart(name)
        for _ in range(3):
            x = ch.sample_point(rng)
            mj = metric_jet(ch, x)
            gam, riem, ric, scal = fd_oracle.fd_curvature(ch, x)
            assert _rel(mj.christoffel, gam) < 1e-7, name
            assert _rel(mj.riemann, riem) < 1e-6, name
            assert _rel(mj.ricci, ric) < 1e-6, name
            assert abs(mj.scalar - scal) / max(1.0, abs(scal)) < 1e-6, name


def test_scalar_curvature_reference_values():
    rng = np.random.default_rng(3)
    for name, want in SCALAR_REFS.items():
        ch = get_chart(name)
        for _ in range(10):
            x = ch.sample_point(rng)
            mj = metric_jet(ch, x)
            assert abs(mj.scalar - want) < 1e-9, (name, mj.scalar)


def test_flat_charts_have_zero_curvature():
    rng = np.random.default_rng(5)
    for name in ("flat2", "flat3", "flat4", "torus2", "torus3", "torus4",
                 "minkowski4"):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        assert np.max(np.abs(mj.riemann)) == 0.0
        assert mj.scalar == 0.0


def test_connection_is_torsion_free_and_metric_compatible():
    rng = np.random.default_rng(17)
    for name in CURVED:
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        gam = mj.christoffel
        assert np.max(np.abs(gam - np.einsum("kij->kji", gam))) < 1e-12
        # nabla_a g_ij = d_a g_ij - Gamma^m_ai g_mj - Gamma^m_aj g_im
        nabla_g = (mj.dg - np.einsum("mai,mj->aij", gam, mj.g)
                   - np.einsum("maj,im->aij", gam, mj.g))
        assert np.max(np.abs(nabla_g)) < 1e-12, name


def test_lowered_riemann_symmetries_and_first_bianchi():
    rng = np.random.default_rng(23)
    for name in CURVED:
        ch = get_chart(name)
        x = ch.sample_point(rng)
        low = metric_jet(ch, x).lowered
        scale = max(1.0, float(np.max(np.abs(low))))
        anti_last = low + np.einsum("ijkl->ijlk", low)
        anti_first = low + np.einsum("ijkl->jikl", low)
        pair = low - np.einsum("ijkl->klij", low)
        bianchi = low + np.einsum("ijkl->iklj", low) + np.einsum("ijkl->iljk", low)
        for resid in (anti_last, anti_first, pair, bianchi):
            assert np.max(np.abs(resid)) / scale < 1e-11, name


def test_ricci_is_symmetric():
    rng = np.random.default_rng(29)
    for name in CURVED:
        ch = get_chart(name)
        x = ch.sample_point(rng)
        ric = metric_jet(ch, x).ricci
        assert np.max(np.abs(ric - ric.T)) < 1e-11


def test_divergence_routes_agree():
    rng = np.random.default_rng(31)
    for name in ("sphere2", "hyperbolic4", "poly3", "minkowski4"):
        ch = get_chart(name)
        for _ in range(10):
            x = ch.sample_point(rng)
            mj = metric_jet(ch, x)
            vx = random_poly_field(rng, ch.n, (ch.n,)).eval(x)
            d1 = divergence_via_density(mj, vx)
            d2 = divergence_via_connection(mj, vx)
            assert abs(d1 - d2) / max(1.0, abs(d1)) < 1e-12


@pytest.mark.parametrize("div", [divergence_via_density, divergence_via_connection])
def test_divergence_refuses_a_vector_field_at_other_points(div):
    # the metric jet and the vector field's jet are read at one point each;
    # at two different points the divergence would mix them silently
    ch = get_chart("sphere2")
    rng = np.random.default_rng(5)
    xs = np.array([ch.sample_point(rng) for _ in range(2)])
    X = random_poly_field(rng, 2, (2,)).eval(xs, 1)
    div(metric_jet(ch, xs), X)
    with pytest.raises(ValueError, match="jets live at different points"):
        div(metric_jet(ch, xs + 0.3), X)
        pytest.fail(f"{div.__name__} accepted a vector field at other points")


def test_log_det_identity():
    rng = np.random.default_rng(37)
    for name in CURVED + ("minkowski4",):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        assert log_det_identity_residual(metric_jet(ch, x)) < 1e-12


def test_curvature_two_form_matches_tensor():
    rng = np.random.default_rng(43)
    for name in ("sphere2", "sphere4", "poly3"):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        assert curvature_two_form_residual(metric_jet(ch, x)) < 1e-10
