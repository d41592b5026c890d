"""Curvature tensors against a finite-difference oracle, plus identities."""

import numpy as np

import fd_oracle
from diracgeo.charts import get_chart, metric_jet, registry
from diracgeo.curvature import (curvature_data, curvature_two_form_residual,
                                divergence_via_connection,
                                divergence_via_density, gradient,
                                log_det_identity_residual)
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
            cd = curvature_data(metric_jet(ch, x))
            gam, riem, ric, scal = fd_oracle.fd_curvature(ch, x)
            assert _rel(cd.christoffel, gam) < 1e-7, name
            assert _rel(cd.riemann, riem) < 1e-6, name
            assert _rel(cd.ricci, ric) < 1e-6, name
            assert abs(cd.scalar - scal) / max(1.0, abs(scal)) < 1e-6, name


def test_scalar_curvature_reference_values():
    rng = np.random.default_rng(3)
    for name, want in SCALAR_REFS.items():
        ch = get_chart(name)
        for _ in range(10):
            x = ch.sample_point(rng)
            cd = curvature_data(metric_jet(ch, x))
            assert abs(cd.scalar - want) < 1e-9, (name, cd.scalar)


def test_flat_charts_have_zero_curvature():
    rng = np.random.default_rng(5)
    for name in ("flat2", "flat3", "flat4", "torus2", "torus3", "torus4",
                 "minkowski4"):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        cd = curvature_data(metric_jet(ch, x))
        assert np.max(np.abs(cd.riemann)) == 0.0
        assert cd.scalar == 0.0


def test_connection_is_torsion_free_and_metric_compatible():
    rng = np.random.default_rng(17)
    for name in CURVED:
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        cd = curvature_data(mj)
        gam = cd.christoffel
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
        low = curvature_data(metric_jet(ch, x)).lowered
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
        ric = curvature_data(metric_jet(ch, x)).ricci
        assert np.max(np.abs(ric - ric.T)) < 1e-11


def test_divergence_routes_agree():
    rng = np.random.default_rng(31)
    for name in ("sphere2", "hyperbolic4", "poly3", "minkowski4"):
        ch = get_chart(name)
        for _ in range(10):
            x = ch.sample_point(rng)
            mj = metric_jet(ch, x)
            cd = curvature_data(mj)
            vx = random_poly_field(rng, ch.n, (ch.n,)).eval(x)
            vals = vx.val
            dvals = np.array([[c.d[a] for a in range(ch.n)] for c in vx]).T
            d1 = divergence_via_density(mj, vals, dvals)
            d2 = divergence_via_connection(mj, cd.christoffel, vals, dvals)
            assert abs(d1 - d2) / max(1.0, abs(d1)) < 1e-12


def test_log_det_identity():
    rng = np.random.default_rng(37)
    for name in CURVED + ("minkowski4",):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        cd = curvature_data(mj)
        assert log_det_identity_residual(mj, cd.christoffel) < 1e-12


def test_gradient_lowers_back_to_differential():
    rng = np.random.default_rng(41)
    ch = get_chart("poly4")
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    f = random_poly_field(rng, 4).eval(x)
    grad = gradient(mj, f.d)
    assert np.max(np.abs(mj.g @ grad - f.d)) < 1e-13


def test_curvature_two_form_matches_tensor():
    rng = np.random.default_rng(43)
    for name in ("sphere2", "sphere4", "poly3"):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        cd = curvature_data(mj)
        assert curvature_two_form_residual(mj, cd) < 1e-10
