"""Spinor modules, frames, spin connections, Dirac operator routes."""

import numpy as np
import pytest

from diracgeo import bundles as bnd
from diracgeo import spin as sp
from diracgeo.charts import get_chart, metric_jet
from diracgeo.jets import Jet

EVEN_RIEMANNIAN = ("flat2", "flat4", "torus2", "torus4", "sphere2",
                   "sphere4", "hyperbolic2", "hyperbolic4", "poly2", "poly4")


def test_frame_invariants_on_riemannian_charts():
    rng = np.random.default_rng(1)
    for name in EVEN_RIEMANNIAN + ("flat3", "poly3"):
        ch = get_chart(name)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        fr = sp.build_frame_from_metric(mj)
        assert sp.frame_invariant_residual(fr, mj) < 1e-10, name


def test_frame_rejects_indefinite_metric():
    mj = metric_jet(get_chart("minkowski4"), np.zeros(4))
    with pytest.raises(sp.SpinSignatureError):
        sp.build_frame_from_metric(mj)


def test_spin_module_dimension_and_gamma_relations():
    for n in (2, 4, 6):
        smd = sp.spin_module_data(n)
        assert smd.dim == 2 ** (n // 2)
        for i in range(n):
            for j in range(n):
                anti = smd.gammas[i] @ smd.gammas[j] + smd.gammas[j] @ smd.gammas[i]
                want = -2.0 * (i == j) * np.eye(smd.dim)
                assert np.max(np.abs(anti - want)) < 1e-13
    with pytest.raises(ValueError):
        sp.spin_module_data(3)


def test_chirality_structure():
    smd = sp.spin_module_data(4)
    chi = smd.chirality
    assert np.max(np.abs(chi @ chi - np.eye(smd.dim))) < 1e-13
    for g in smd.gammas:
        assert np.max(np.abs(chi @ g + g @ chi)) < 1e-13
    # split into equal chiral halves
    assert np.sum(np.real(np.diag(chi)) > 0) == smd.dim // 2


def test_coordinate_gammas_close_the_metric_relation():
    rng = np.random.default_rng(2)
    for name in ("sphere2", "poly4"):
        ch = get_chart(name)
        n = ch.n
        smd = sp.spin_module_data(n)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        gam = smd.coordinate_gammas(sp.build_frame_from_metric(mj))
        for i in range(n):
            for j in range(n):
                anti = gam[i].val @ gam[j].val + gam[j].val @ gam[i].val
                want = -2.0 * mj.g_inv[i, j] * np.eye(smd.dim)
                assert np.max(np.abs(anti - want)) < 1e-11


def test_spin_connection_rejects_real_potential():
    ch = get_chart("flat2")
    x = np.zeros(2)
    mj = metric_jet(ch, x)
    fr = sp.build_frame_from_metric(mj)
    smd = sp.spin_module_data(2)
    real_pot = Jet.constant([0.3, 0.0], x)
    with pytest.raises(ValueError):
        sp.build_spin_connection(fr, smd, mj, real_pot)


def test_dirac_routes_agree():
    rng = np.random.default_rng(3)
    for name in ("sphere2", "poly2", "hyperbolic4", "torus4"):
        ch = get_chart(name)
        n = ch.n
        smd = sp.spin_module_data(n)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        fr = sp.build_frame_from_metric(mj)
        a_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
        scd = sp.build_spin_connection(fr, smd, mj, a_jets)
        for _ in range(5):
            j = bnd.random_poly_section(rng, n, smd.dim).eval(x, 2)
            d1 = sp.spin_dirac(scd, smd, fr, mj, j)
            d2 = sp.spin_dirac_alpha(scd, smd, fr, j)
            scale = max(1.0, float(np.max(np.abs(d1))))
            assert np.max(np.abs(d1 - d2)) / scale < 1e-10, name


def test_conformal_closed_form_matches_generic_assembly():
    rng = np.random.default_rng(4)
    for name in ("sphere2", "sphere4", "hyperbolic2", "hyperbolic4"):
        ch = get_chart(name)
        n = ch.n
        smd = sp.spin_module_data(n)
        for _ in range(5):
            x = ch.sample_point(rng)
            mj = metric_jet(ch, x)
            fr = sp.build_frame_from_metric(mj)
            a_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
            scd = sp.build_spin_connection(fr, smd, mj, a_jets)
            j = bnd.random_poly_section(rng, n, smd.dim).eval(x, 2)
            d1 = sp.spin_dirac(scd, smd, fr, mj, j)
            d2 = sp.conformal_dirac(ch, a_jets, smd, j)
            scale = max(1.0, float(np.max(np.abs(d1))))
            assert np.max(np.abs(d1 - d2)) / scale < 1e-9, name


def test_conformal_closed_form_rejects_generic_chart():
    rng = np.random.default_rng(5)
    ch = get_chart("poly2")
    smd = sp.spin_module_data(2)
    x = ch.sample_point(rng)
    j = bnd.random_poly_section(rng, 2, smd.dim).eval(x, 2)
    zero = Jet.constant(np.zeros(2), x)
    with pytest.raises(ValueError):
        sp.conformal_dirac(ch, zero, smd, j)


def test_lichnerowicz_with_and_without_potential():
    rng = np.random.default_rng(6)
    for name in ("sphere2", "hyperbolic2", "sphere4", "poly2"):
        ch = get_chart(name)
        n = ch.n
        smd = sp.spin_module_data(n)
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        fr = sp.build_frame_from_metric(mj)
        for with_pot in (False, True):
            a_jets = None
            if with_pot:
                a_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
            scd = sp.build_spin_connection(fr, smd, mj, a_jets)
            for _ in range(3):
                j = bnd.random_poly_section(rng, n, smd.dim).eval(x, 2)
                assert sp.lichnerowicz_residual(scd, smd, fr, mj, j) < 1e-7, name


def test_chirality_action_checks():
    rng = np.random.default_rng(7)
    ch = get_chart("sphere4")
    smd = sp.spin_module_data(4)
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    fr = sp.build_frame_from_metric(mj)
    out = sp.chirality_action_checks(smd, fr, mj)
    assert max(out.values()) < 1e-11
    assert set(out) == {"gamma_anticommutation", "connection_commutation",
                        "chirality_squares_to_one"}


def test_connection_difference_is_half_potential_difference():
    rng = np.random.default_rng(8)
    ch = get_chart("poly2")
    n = ch.n
    smd = sp.spin_module_data(n)
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    fr = sp.build_frame_from_metric(mj)
    a_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
    b_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
    scd_a = sp.build_spin_connection(fr, smd, mj, a_jets)
    scd_b = sp.build_spin_connection(fr, smd, mj, b_jets)
    for a in range(n):
        diff = scd_a.omega[a].val - scd_b.omega[a].val
        want = 0.5 * (a_jets[a].val - b_jets[a].val) * np.eye(smd.dim)
        assert np.max(np.abs(diff - want)) < 1e-13


def test_spin_module_spec_matches_module_data():
    rng = np.random.default_rng(10)
    ch = get_chart("poly2")
    ms = sp.spin_module(2)
    smd = sp.spin_module_data(2)
    assert ms.m == smd.dim
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    got = ms.gammas(mj)
    want = smd.coordinate_gammas(sp.build_frame_from_metric(mj))
    for a in range(2):
        assert np.max(np.abs(got[a].val - want[a].val)) < 1e-14
