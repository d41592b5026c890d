"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Residuals
are relative, floored at scale 1, matching the library's verification suites.
"""

import json
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np

import fd_oracle
from diracgeo import bundles as bnd
from diracgeo import seiberg_witten as swm
from diracgeo import spin as sp
from diracgeo.charts import get_chart, metric_jet, registry
from diracgeo.clifford import BilinearForm, clifford_product, wedge_table
from diracgeo.curvature import log_det_identity_residual
from diracgeo.forms import (covariant_derivative, coderivative_connection,
                            coderivative_hodge, exterior_derivative,
                            FieldLayout, random_poly_field, volume_form)
from diracgeo.suites import run_suite

ALL_CHARTS = sorted(registry())
EVEN_RIEMANNIAN = ("flat2", "flat4", "torus2", "torus4", "sphere2",
                   "sphere4", "hyperbolic2", "hyperbolic4", "poly2", "poly4")
CONFORMAL_REFS = {"sphere2": 2.0, "hyperbolic2": -2.0,
                  "sphere4": 12.0, "hyperbolic4": -12.0}


def _line(label: str, worst: float, tol: float) -> None:
    ok = worst < tol
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e} vs {tol:.1e})")
    assert ok, f"{label}: worst {worst:.3e} not below {tol:.1e}"


def _norm(j) -> float:
    """Euclidean norm of a jet's value, over all samples."""
    return float(np.sqrt(np.sum(np.abs(j.val) ** 2)))


def _random_form(rng, n, neg):
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        vals = rng.uniform(0.5, 2.0, size=n)
        vals[:neg] *= -1.0
        m = q @ np.diag(vals) @ q.T
        m = 0.5 * (m + m.T)
        if abs(np.linalg.det(m)) > 1e-6:
            return BilinearForm(m)


def test_criterion_01_generator_relation():
    rng = np.random.default_rng(101)
    forms = []
    while len(forms) < 20:
        n = int(rng.integers(2, 7))
        neg = int(rng.integers(0, n + 1)) % 2 * int(rng.integers(1, n))
        forms.append(_random_form(rng, n, neg))
    # force both signatures to appear
    forms[0] = _random_form(rng, 4, 0)
    forms[1] = _random_form(rng, 4, 2)
    worst = 0.0
    for b in forms:
        n = b.n
        embed = np.eye(1 << n)[1 << np.arange(n)]   # covectors onto the blade axis
        for _ in range(10):  # 20 forms x 10 pairs = 200 one-forms
            uc = rng.normal(size=n) + 1j * rng.normal(size=n)
            vc = rng.normal(size=n) + 1j * rng.normal(size=n)
            u, v = uc @ embed, vc @ embed
            uv = clifford_product(u, v, b.table)
            lhs = uv + clifford_product(v, u, b.table)
            lhs[0] += 2.0 * (uc @ b.matrix @ vc)
            worst = max(worst, np.linalg.norm(lhs) / max(1.0, np.linalg.norm(uv)))
    _line("01 generator relation u.v + v.u + 2B(u,v) = 0", worst, 1e-12)


def test_criterion_02_symbol_expansions():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 6))
        b = _random_form(rng, n, trial % 2)
        g = b.matrix
        idx = rng.permutation(n)[:3]
        i, j, k = int(idx[0]), int(idx[1]), int(idx[2])
        one, dxi, dxj, dxk = np.eye(1 << n)[[0, 1 << i, 1 << j, 1 << k]]
        cl, wedge = (partial(clifford_product, table=t) for t in (b.table, wedge_table(n)))
        pair = cl(dxi, dxj)
        want2 = wedge(dxi, dxj) - g[i, j] * one
        worst = max(worst, np.linalg.norm(pair - want2) / max(1.0, np.linalg.norm(want2)))
        triple = cl(cl(dxi, dxj), dxk)
        want3 = (wedge(wedge(dxi, dxj), dxk)
                 - dxi * g[j, k] + dxj * g[i, k] - dxk * g[i, j])
        worst = max(worst, np.linalg.norm(triple - want3) / max(1.0, np.linalg.norm(want3)))
    _line("02 symbol of generator pairs and triples", worst, 1e-12)


def test_criterion_03_cartan_suite():
    worst = 0.0
    charts = ("flat2", "flat3", "flat4", "torus2", "torus3", "torus4",
              "sphere2", "hyperbolic2")
    for name in charts:
        rep = run_suite("cartan", chart=name, seed=103, samples=12)
        worst = max(worst, max(c.max_residual for c in rep.checks))
    _line("03 cartan supercommutator suite", worst, 1e-10)


def test_criterion_04_levi_civita_suite():
    rng = np.random.default_rng(104)
    worst = 0.0
    for name in ALL_CHARTS:
        ch = get_chart(name)
        for _ in range(20):
            x = ch.sample_point(rng)[None]
            mj = metric_jet(ch, x)
            gam, low, g, dg, ricci = (a[0] for a in (mj.christoffel, mj.lowered, mj.g,
                                                      mj.dg, mj.ricci))
            scale = max(1.0, float(np.max(np.abs(low))),
                        float(np.max(np.abs(dg))))
            nabla_g = (dg - np.einsum("mai,mj->aij", gam, g)
                       - np.einsum("maj,im->aij", gam, g))
            sym = gam - np.einsum("kij->kji", gam)
            bianchi = (low + np.einsum("ijkl->iklj", low)
                       + np.einsum("ijkl->iljk", low))
            ric = ricci - ricci.T
            resids = [float(np.max(np.abs(t))) for t in
                      (nabla_g, sym, bianchi, ric)]
            resids.append(log_det_identity_residual(mj)[0])
            vol = volume_form(mj)
            resids.extend(_norm(f) for f in covariant_derivative(vol, mj))
            worst = max(worst, max(resids) / scale)
    _line("04a levi-civita identities on every chart", worst, 1e-9)

    worst_scal = 0.0
    for name, ref in CONFORMAL_REFS.items():
        ch = get_chart(name)
        for _ in range(20):
            x = ch.sample_point(rng)
            got = fd_oracle.fd_scalar(ch, x)
            worst_scal = max(worst_scal, abs(got - ref))
    _line("04b scalar curvature 2/-2/12/-12 vs independent oracle",
          worst_scal, 1e-7)


def test_criterion_05_coderivative_dual_path():
    rng = np.random.default_rng(105)
    worst_dual = 0.0
    worst_nil = 0.0
    for name in ALL_CHARTS:
        ch = get_chart(name)
        n = ch.n
        for _ in range(20):
            x = ch.sample_point(rng)[None]
            mj = metric_jet(ch, x)
            for _ in range(5):  # 100 (form, point) pairs per chart
                p = int(rng.integers(1, n + 1))
                a = random_poly_field(rng, *FieldLayout.form(n, p, True)).eval(x, 2)
                d1 = coderivative_hodge(a, mj)
                d2 = coderivative_connection(a, mj)
                scale = max(1.0, _norm(d1), _norm(d2))
                worst_dual = max(worst_dual, _norm(d1 - d2) / scale)
                jetnorm = max(float(np.max(np.abs(t))) for t in (a.val, a.d, a.dd))
                dd = _norm(exterior_derivative(exterior_derivative(a)))
                worst_nil = max(worst_nil, dd / max(1.0, jetnorm))
                if p >= 2:
                    deldel = _norm(coderivative_hodge(d1, mj))
                    worst_nil = max(worst_nil, deldel / max(1.0, jetnorm))
    _line("05a coderivative star route = connection route", worst_dual, 1e-9)
    _line("05b d d = 0 and del del = 0", worst_nil, 1e-11)


def test_criterion_06_laplacian_suite():
    rng = np.random.default_rng(106)
    worst_def = 0.0
    for name in ("flat2", "torus3", "sphere2", "hyperbolic4", "poly3",
                 "minkowski4"):
        ch = get_chart(name)
        n = ch.n
        ms = bnd.exterior_module(n)
        for trial in range(5):
            x = ch.sample_point(rng)[None]
            mj = metric_jet(ch, x)
            S = bnd.superconnection_from_degrees(
                n, ms.m, ms.eta, {0: "random", 1: "random", 2: "random"},
                [106 + trial])
            D = bnd.quantize_superconnection(S.eval(x), S.masks, mj, ms)
            worst_def = max(worst_def,
                            bnd.lap_identity_residual(bnd.laplacian_from_dirac(D))[0])
    _line("06a generated D^2 satisfies [[H,f],g] + 2(df,dg) = 0",
          worst_def, 1e-9)

    worst_rt = 0.0
    from diracgeo.forms import random_poly_field
    charts = ("poly2", "sphere2", "torus3", "hyperbolic2")
    for trial in range(50):
        ch = get_chart(charts[trial % len(charts)])
        n = ch.n
        m = 3
        x = ch.sample_point(rng)[None]
        mj = metric_jet(ch, x)
        A = random_poly_field(rng, n, (n, m, m), 2, complex_coeffs=True).eval(x, 2)
        F = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        A2, F2 = bnd.laplacian_decompose(bnd.laplacian_from_connection(A, F, mj))
        scale = max(1.0, max(float(np.max(np.abs(a.val))) for a in A),
                    float(np.max(np.abs(F))))
        diff = max(max(float(np.max(np.abs(A2[i].val - A[i].val)))
                       for i in range(n)),
                   float(np.max(np.abs(F2 - F))))
        worst_rt = max(worst_rt, diff / scale)
    _line("06b decompose round-trips random (A, F) over 50 trials",
          worst_rt, 1e-9)


def test_criterion_07_kernel_projector():
    rng = np.random.default_rng(107)
    worst = 0.0
    rank_ok = True
    charts = [c for c in ALL_CHARTS if get_chart(c).n in (2, 4)]
    for name in charts:
        ch = get_chart(name)
        ms = bnd.exterior_module(ch.n)
        m = ms.m
        for _ in range(3):
            x = ch.sample_point(rng)[None]
            mj = metric_jet(ch, x)
            # c(omega) = gamma^i g_ij gamma^j, summed here apart from the kernel projector
            gam = ms.gammas(mj).val[0]
            cw = np.einsum("iab,ij,jbc->ac", gam, mj.g[0], gam)
            worst = max(worst,
                        float(np.max(np.abs(cw + ch.n * np.eye(m)))) / ch.n)
            c, b, p = bnd.kernel_projector(mj, ms)
            worst = max(worst, float(np.max(np.abs(c @ b - np.eye(m)))))
            worst = max(worst, float(np.max(np.abs(p @ p - p))))
            rank_ok = rank_ok and np.linalg.matrix_rank(p[0], tol=1e-8) == m
    assert rank_ok
    _line("07 kernel projector: c(omega) = -n id, p^2 = p, rank = fiber dim",
          worst, 1e-11)


def test_criterion_08_special_predicate():
    rng = np.random.default_rng(108)
    ch = get_chart("poly2")
    n = ch.n
    ms = bnd.exterior_module(n)
    pts = [ch.sample_point(rng) for _ in range(6)]
    wrong = 0
    for trial in range(30):
        truly_special = trial % 2 == 0
        if truly_special:
            specs = {0: "random", 1: "random"}
        else:
            high = 2 if trial % 4 == 1 else min(n, 2)
            specs = {0: "random", 1: "random", high: "random"}
        S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs,
                                             [108 + trial])
        got, _ = bnd.is_special_superconnection(S, pts)
        if got[0] != truly_special:
            wrong += 1
    _line("08 special-superconnection classifier, 30 cases",
          float(wrong), 1.0)


def test_criterion_09_conformal_flagship():
    rng = np.random.default_rng(109)
    worst = 0.0
    for name in ("sphere2", "sphere4", "hyperbolic2", "hyperbolic4"):
        ch = get_chart(name)
        n = ch.n
        dim = 1 << n // 2
        for _ in range(50):
            x = ch.sample_point(rng)[None]
            mj = metric_jet(ch, x)
            fr = sp.build_frame_from_metric(mj)
            pot = random_poly_field(rng, n, (n,))
            a_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
            assert max(abs(complex(a.val[0])) for a in a_jets) > 0
            scd = sp.build_spin_connection(fr, a_jets)
            j = random_poly_field(rng, n, (dim,), complex_coeffs=True).eval(x, 2)[..., None]
            d1 = sp.spin_dirac(scd, j)
            d2 = sp.conformal_dirac(scd, j)
            scale = max(1.0, float(np.max(np.abs(d1))),
                        float(np.max(np.abs(d2))))
            worst = max(worst, float(np.max(np.abs(d1 - d2))) / scale)
    _line("09 conformal closed form matches generic spin Dirac", worst, 1e-9)


def test_criterion_10_lichnerowicz():
    rng = np.random.default_rng(110)
    worst = 0.0
    for name in EVEN_RIEMANNIAN:
        ch = get_chart(name)
        n = ch.n
        dim = 1 << n // 2
        for with_pot in (False, True):
            for _ in range(10):
                x = ch.sample_point(rng)[None]
                mj = metric_jet(ch, x)
                fr = sp.build_frame_from_metric(mj)
                a_jets = None
                if with_pot:
                    pot = random_poly_field(rng, n, (n,))
                    a_jets = replace(pot, coeffs=1j * pot.coeffs).eval(x, 2)
                scd = sp.build_spin_connection(fr, a_jets)
                for _ in range(10):  # 100 jets per chart and setting
                    j = random_poly_field(rng, n, (dim,),
                                          complex_coeffs=True).eval(x, 2)[..., None]
                    worst = max(worst,
                                sp.lichnerowicz_residual(scd, j)[0, 0])
    _line("10 lichnerowicz D_A^2 = lap + r/4 + q(dA)/2", worst, 1e-7)


def test_criterion_11_seiberg_witten():
    rng = np.random.default_rng(111)
    worst_q = 0.0
    for trial in range(10):
        block = "+" if trial % 2 == 0 else "-"
        cfg = swm.random_sw_config(rng, block=block)
        for _ in range(20):
            x = rng.uniform(0.0, 2.0 * np.pi, 4)
            psi = swm.spinor_at(cfg, x[None], 0).val[0]
            fplus = swm.quadratic_pairs(psi, psi)  # curvature equation: F+ = Q(psi)
            nrm = float(np.real(np.vdot(psi, psi)))
            resid = abs(np.sum(np.abs(fplus) ** 2) - nrm * nrm / 8.0)
            worst_q = max(worst_q, resid / max(1.0, nrm * nrm / 8.0))
    _line("11a pointwise |F+|^2 = |psi|^4 / 8 on constructed configs",
          worst_q, 1e-10)

    worst_w = 0.0
    for seed in (42, 7, 19):
        cfg = swm.random_sw_config(np.random.default_rng(seed), band=2,
                                   grid=16)
        worst_w = max(worst_w, swm.sw_functional(cfg)["relative_gap"])
    _line("11b monopole functional dual forms on band-2 torus grids",
          worst_w, 1e-6)


def test_criterion_12_byte_identical_reports(tmp_path):
    cfg = tmp_path / "m.json"
    seed_cfg = swm.random_sw_config(np.random.default_rng(12))
    rows_a = [[a] + list(k) + [c.real, c.imag]
              for (a, k), c in sorted(seed_cfg.a_modes.items())]
    rows_p = [[c] + list(k) + [z.real, z.imag]
              for (c, k), z in sorted(seed_cfg.psi_modes.items())]
    cfg.write_text(json.dumps({"grid": 16, "band": 2, "chirality_block": "+",
                               "a_modes": rows_a, "psi_modes": rows_p}))
    commands = [
        [sys.executable, "-m", "diracgeo.cli", "verify", "--suite",
         "levi-civita", "--chart", "sphere4", "--seed", "9",
         "--samples", "6"],
        [sys.executable, "-m", "diracgeo.cli", "verify", "--suite", "sw",
         "--config", str(cfg), "--seed", "5", "--samples", "8"],
    ]
    identical = True
    for cmd in commands:
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0, r1.stderr.decode()
        assert r2.returncode == 0
        identical = identical and r1.stdout == r2.stdout
    _line("12 identical seeds give byte-identical reports",
          0.0 if identical else 1.0, 0.5)
