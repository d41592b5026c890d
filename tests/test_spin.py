"""Spinor modules, frames, spin connections, Dirac operator routes."""

from dataclasses import replace

import numpy as np
import pytest

from diracgeo import spin as sp
from diracgeo.charts import get_chart, metric_jet
from diracgeo.forms import random_poly_field
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
        assert sp.frame_invariant_residual(fr) < 1e-10, name


def test_frame_rejects_indefinite_metric():
    mj = metric_jet(get_chart("minkowski4"), np.zeros(4))
    with pytest.raises(sp.SpinSignatureError):
        sp.build_frame_from_metric(mj)


def test_spin_module_dimension_and_gamma_relations():
    for n in (2, 4, 6):
        gammas, chi = sp.spinor_tables(n)
        dim = len(chi)
        assert dim == 2 ** (n // 2)
        for i in range(n):
            for j in range(n):
                anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                want = -2.0 * (i == j) * np.eye(dim)
                assert np.max(np.abs(anti - want)) < 1e-13
    with pytest.raises(ValueError):
        sp.spinor_tables(3)


def test_chirality_structure():
    dim = 4
    gammas, chi = sp.spinor_tables(4)
    assert np.max(np.abs(chi @ chi - np.eye(dim))) < 1e-13
    for g in gammas:
        assert np.max(np.abs(chi @ g + g @ chi)) < 1e-13
    # split into equal chiral halves
    assert np.sum(np.real(np.diag(chi)) > 0) == dim // 2


def test_coordinate_gammas_close_the_metric_relation():
    rng = np.random.default_rng(2)
    for name in ("sphere2", "poly4"):
        ch = get_chart(name)
        n = ch.n
        dim = 1 << n // 2
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        gam = sp.coordinate_gammas(sp.build_frame_from_metric(mj))
        for i in range(n):
            for j in range(n):
                anti = gam[i].val @ gam[j].val + gam[j].val @ gam[i].val
                want = -2.0 * mj.g_inv[i, j] * np.eye(dim)
                assert np.max(np.abs(anti - want)) < 1e-11


def test_spin_connection_rejects_real_potential():
    ch = get_chart("flat2")
    x = np.zeros(2)
    mj = metric_jet(ch, x)
    fr = sp.build_frame_from_metric(mj)
    real_pot = Jet.constant([0.3, 0.0], x)
    with pytest.raises(ValueError):
        sp.build_spin_connection(fr, real_pot)


@pytest.mark.parametrize("name", ["sphere2", "poly2", "flat4"])
def test_spin_connection_refuses_inputs_at_other_points(name):
    # the potential must live at the points of the frame's metric jet
    ch = get_chart(name)
    rng = np.random.default_rng(5)
    xs = np.array([ch.sample_point(rng) for _ in range(3)])
    mj, other = metric_jet(ch, xs), metric_jet(ch, xs + 0.01)
    fr = sp.build_frame_from_metric(mj)
    with pytest.raises(ValueError, match="jets live at different points"):
        sp.build_spin_connection(fr, Jet.constant(np.zeros(ch.n) * 1j, other.x))
    scd = sp.build_spin_connection(fr)
    assert scd.frame is fr and fr.mj is mj and scd.dirac.mj is mj and scd.dirac is scd.dirac


def test_a_frame_carries_the_metric_jet_it_was_built_from():
    # two metrics at the same points: each frame, and so each connection,
    # reads its own metric jet, where a frame and a metric jet passed side by
    # side could disagree
    rng = np.random.default_rng(5)
    xs = np.array([get_chart("sphere2").sample_point(rng) for _ in range(3)])
    for name in ("sphere2", "poly2"):
        mj = metric_jet(get_chart(name), xs)
        fr = sp.build_frame_from_metric(mj)
        assert fr.mj is mj and np.max(sp.frame_invariant_residual(fr)) < 1e-10
        w0 = sp.build_spin_connection(fr).w0.val
        assert np.max(np.abs(w0 + np.swapaxes(w0, -1, -2))) < 1e-12, name


def test_spin_routes_refuse_spinors_at_other_points():
    # every route that applies the connection to a spinor block reads the
    # block at the connection's points, as spin_dirac does
    from diracgeo import bundles as bnd
    ch = get_chart("sphere2")
    rng = np.random.default_rng(5)
    xs = np.array([ch.sample_point(rng) for _ in range(2)])
    mj = metric_jet(ch, xs)
    dim = 2
    scd = sp.build_spin_connection(sp.build_frame_from_metric(mj))
    field = random_poly_field(rng, 2, (dim,), complex_coeffs=True)
    here, there = (field.eval(x, 2)[..., None] for x in (xs, xs + 0.3))
    routes = {"spin_dirac": sp.spin_dirac, "spin_dirac_alpha": sp.spin_dirac_alpha,
              "conformal_dirac": sp.conformal_dirac,
              "lichnerowicz_residual": sp.lichnerowicz_residual,
              "slash": lambda s, j: sp._slash(sp.spinor_tables(2)[0], j, s.a_pot),
              "dirac_square": lambda s, j: bnd.dirac_square(s.dirac, j),
              "canonical_laplacian": lambda s, j: bnd.canonical_laplacian(s.omega, s.frame.mj, j)}
    for name, route in routes.items():
        route(scd, here)
        with pytest.raises(ValueError, match="jets live at different points"):
            route(scd, there)
            pytest.fail(f"{name} accepted a spinor block at other points")


def test_dirac_routes_agree():
    rng = np.random.default_rng(3)
    for name in ("sphere2", "poly2", "hyperbolic4", "torus4"):
        ch = get_chart(name)
        n = ch.n
        dim = 1 << n // 2
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        fr = sp.build_frame_from_metric(mj)
        pot = random_poly_field(rng, n, (n,))
        a_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
        scd = sp.build_spin_connection(fr, a_jets)
        for _ in range(5):
            j = random_poly_field(rng, n, (dim,), complex_coeffs=True).eval(x, 2)[..., None]
            d1 = sp.spin_dirac(scd, j)
            d2 = sp.spin_dirac_alpha(scd, j)
            scale = max(1.0, float(np.max(np.abs(d1))))
            assert np.max(np.abs(d1 - d2)) / scale < 1e-10, name


def test_conformal_closed_form_matches_generic_assembly():
    rng = np.random.default_rng(4)
    for name in ("sphere2", "sphere4", "hyperbolic2", "hyperbolic4"):
        ch = get_chart(name)
        n = ch.n
        dim = 1 << n // 2
        for _ in range(5):
            x = ch.sample_point(rng)
            mj = metric_jet(ch, x)
            fr = sp.build_frame_from_metric(mj)
            pot = random_poly_field(rng, n, (n,))
            a_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
            scd = sp.build_spin_connection(fr, a_jets)
            j = random_poly_field(rng, n, (dim,), complex_coeffs=True).eval(x, 2)[..., None]
            d1 = sp.spin_dirac(scd, j)
            d2 = sp.conformal_dirac(scd, j)
            scale = max(1.0, float(np.max(np.abs(d1))))
            assert np.max(np.abs(d1 - d2)) / scale < 1e-9, name


def test_conformal_closed_form_rejects_generic_chart():
    rng = np.random.default_rng(5)
    ch = get_chart("poly2")
    dim = 2
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    scd = sp.build_spin_connection(sp.build_frame_from_metric(mj))
    j = random_poly_field(rng, 2, (dim,), complex_coeffs=True).eval(x, 2)[..., None]
    with pytest.raises(ValueError, match="needs a conformal chart"):
        sp.conformal_dirac(scd, j)


def test_lichnerowicz_with_and_without_potential():
    rng = np.random.default_rng(6)
    for name in ("sphere2", "hyperbolic2", "sphere4", "poly2"):
        ch = get_chart(name)
        n = ch.n
        dim = 1 << n // 2
        x = ch.sample_point(rng)
        mj = metric_jet(ch, x)
        fr = sp.build_frame_from_metric(mj)
        for with_pot in (False, True):
            a_jets = None
            if with_pot:
                pot = random_poly_field(rng, n, (n,))
                a_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
            scd = sp.build_spin_connection(fr, a_jets)
            for _ in range(3):
                j = random_poly_field(rng, n, (dim,),
                                      complex_coeffs=True).eval(x, 2)[..., None]
                assert sp.lichnerowicz_residual(scd, j)[0] < 1e-7, name


def test_chirality_action_checks():
    rng = np.random.default_rng(7)
    ch = get_chart("sphere4")
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    scd = sp.build_spin_connection(sp.build_frame_from_metric(mj))
    out = sp.chirality_action_checks(scd)
    assert max(out.values()) < 1e-11
    assert set(out) == {"gamma_anticommutation", "connection_commutation",
                        "chirality_squares_to_one"}


def test_connection_difference_is_half_potential_difference():
    rng = np.random.default_rng(8)
    ch = get_chart("poly2")
    n = ch.n
    dim = 1 << n // 2
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    fr = sp.build_frame_from_metric(mj)
    pot = random_poly_field(rng, n, (n,))
    a_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
    pot = random_poly_field(rng, n, (n,))
    b_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
    scd_a = sp.build_spin_connection(fr, a_jets)
    scd_b = sp.build_spin_connection(fr, b_jets)
    for a in range(n):
        diff = scd_a.omega[a].val - scd_b.omega[a].val
        want = 0.5 * (a_jets[a].val - b_jets[a].val) * np.eye(dim)
        assert np.max(np.abs(diff - want)) < 1e-13


def test_spin_module_spec_matches_module_data():
    rng = np.random.default_rng(10)
    ch = get_chart("poly2")
    ms = sp.spin_module(2)
    chi = sp.spinor_tables(2)[1]
    assert ms.m == len(chi) == 2 and ms.eta is chi
    x = ch.sample_point(rng)
    mj = metric_jet(ch, x)
    got = ms.gammas(mj)
    want = sp.coordinate_gammas(sp.build_frame_from_metric(mj))
    for a in range(2):
        assert np.max(np.abs(got[a].val - want[a].val)) < 1e-14
