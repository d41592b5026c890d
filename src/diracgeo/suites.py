"""Verification suites: each runs a family of identities over sampled points."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from . import bundles as bnd
from . import seiberg_witten as swm
from . import spin as sp
from .charts import Chart, get_chart, metric_jet
from .clifford import (CLIFFORD, EXTERIOR, BilinearForm, MultivectorElement,
                       action_matrix, chirality, clifford_product, quantize,
                       symbol)
from .curvature import (curvature_data, divergence_via_connection,
                        divergence_via_density, log_det_identity_residual)
from .forms import (PolyField, exterior_derivative,
                    gram_pairing, hodge_star, coderivative_connection,
                    coderivative_hodge, forms_dirac, iota_vector,
                    laplace_beltrami, lie_derivative, random_poly_field,
                    random_poly_form, random_poly_scalar, random_poly_vector,
                    vector_bracket, volume_form, wedge_forms)
from .jets import Jet
from .report import VerificationReport

JETS_PER_POINT = 10

# tolerance of the [D, f] = c(df) check, shared with ``diracgeo dirac``
DIRAC_COMMUTATOR_TOL = 1e-10

# tolerance of the relative gap between the two monopole functional forms,
# shared with ``diracgeo sw``
SW_FUNCTIONAL_GAP_TOL = 1e-6

SCALAR_REFERENCE = {"sphere2": 2.0, "hyperbolic2": -2.0,
                    "sphere4": 12.0, "hyperbolic4": -12.0,
                    "flat2": 0.0, "flat3": 0.0, "flat4": 0.0,
                    "torus2": 0.0, "torus3": 0.0, "torus4": 0.0,
                    "minkowski4": 0.0}


class SuiteUsageError(ValueError):
    """Suite invoked with an incompatible chart or missing configuration."""


def _timed(rep: VerificationReport, cid: str, identity: str, tol: float,
           fn: Callable[[], float]) -> None:
    t0 = time.perf_counter()
    resid = fn()
    rep.add(cid, identity, float(resid), tol, time.perf_counter() - t0)


def _points(ch: Chart, rng, k: int) -> List[np.ndarray]:
    return [ch.sample_point(rng) for _ in range(k)]


def _amax(*arrays) -> float:
    """Largest entry magnitude over the arrays given (None skipped)."""
    return max(float(np.max(np.abs(a))) for a in arrays if a is not None)


def _rel(diff: float, *scales: float) -> float:
    # residuals are reported relative to operand size, floored at 1,
    # so tolerances mean the same thing on every chart
    return diff / max(1.0, *scales)


def _mixed_form_field(rng, n: int) -> PolyField:
    parts = [random_poly_form(rng, n, p, complex_coeffs=True) for p in range(n + 1)]
    return PolyField(n, parts[0].exponents,
                     np.concatenate([f.coeffs for f in parts], axis=1),
                     masks=sum((f.masks for f in parts), ()))


# ---------------------------------------------------------------------------
# cartan
# ---------------------------------------------------------------------------


def cartan_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("cartan", chart, seed, samples)
    pts = _points(ch, rng, samples)

    draws = []
    for x in pts:
        for _ in range(JETS_PER_POINT):
            p = int(rng.integers(0, n + 1))
            draws.append((x,
                          _mixed_form_field(rng, n),
                          _mixed_form_field(rng, n),
                          random_poly_vector(rng, n),
                          random_poly_vector(rng, n),
                          p,
                          random_poly_form(rng, n, p, complex_coeffs=True)))

    def d_squared():
        worst = 0.0
        for x, fa, _, _, _, _, _ in draws:
            a = fa.eval(x, 2)
            got = _amax(exterior_derivative(exterior_derivative(a)).val)
            worst = max(worst, _rel(got, _amax(a.val, a.d, a.dd)))
        return worst

    def leibniz():
        worst = 0.0
        for x, _, fb, _, _, p, fpure in draws:
            a = fpure.eval(x, 2)
            b = fb.eval(x, 2)
            lhs = exterior_derivative(wedge_forms(a, b))
            rhs = (wedge_forms(exterior_derivative(a), b)
                   + wedge_forms(a, exterior_derivative(b)) * (-1.0) ** p)
            worst = max(worst, _rel(_amax(lhs.val - rhs.val), _amax(lhs.val),
                                    _amax(rhs.val)))
        return worst

    def lie_d_commute():
        worst = 0.0
        for x, fa, _, fx, _, _, _ in draws:
            a, X = fa.eval(x, 2), fx.eval(x, 2)
            lhs = lie_derivative(X, exterior_derivative(a))
            rhs = exterior_derivative(lie_derivative(X, a))
            worst = max(worst, _rel(_amax(lhs.val - rhs.val), _amax(lhs.val),
                                    _amax(rhs.val)))
        return worst

    def iota_square():
        worst = 0.0
        for x, fa, _, fx, fy, _, _ in draws:
            a, X, Y = fa.eval(x, 2), fx.eval(x, 2), fy.eval(x, 2)
            sq = _amax(iota_vector(X, iota_vector(X, a)).val)
            worst = max(worst, _rel(sq, _amax(X.val) ** 2 * _amax(a.val)))
            anti = _amax((iota_vector(X, iota_vector(Y, a))
                          + iota_vector(Y, iota_vector(X, a))).val)
            worst = max(worst,
                        _rel(anti, _amax(X.val) * _amax(Y.val) * _amax(a.val)))
        return worst

    def lie_bracket():
        worst = 0.0
        for x, fa, _, fx, fy, _, _ in draws:
            a, X, Y = fa.eval(x, 2), fx.eval(x, 2), fy.eval(x, 2)
            lhs = lie_derivative(vector_bracket(X, Y), a)
            t1 = lie_derivative(X, lie_derivative(Y, a))
            t2 = lie_derivative(Y, lie_derivative(X, a))
            worst = max(worst, _rel(_amax(lhs.val - (t1 - t2).val), _amax(lhs.val),
                                    _amax(t1.val)))
        return worst

    def iota_lie():
        worst = 0.0
        for x, fa, _, fx, fy, _, _ in draws:
            a, X, Y = fa.eval(x, 2), fx.eval(x, 2), fy.eval(x, 2)
            lhs = iota_vector(vector_bracket(X, Y), a)
            t1 = lie_derivative(X, iota_vector(Y, a))
            t2 = iota_vector(Y, lie_derivative(X, a))
            worst = max(worst, _rel(_amax(lhs.val - (t1 - t2).val), _amax(lhs.val),
                                    _amax(t1.val)))
        return worst

    def lie_leibniz():
        worst = 0.0
        for x, fa, fb, fx, _, _, _ in draws:
            a, b, X = fa.eval(x, 2), fb.eval(x, 2), fx.eval(x, 2)
            lhs = lie_derivative(X, wedge_forms(a, b))
            rhs = (wedge_forms(lie_derivative(X, a), b)
                   + wedge_forms(a, lie_derivative(X, b)))
            worst = max(worst, _rel(_amax(lhs.val - rhs.val), _amax(lhs.val),
                                    _amax(rhs.val)))
        return worst

    _timed(rep, "cartan-d-squared", "d(d(a)) = 0", 1e-10, d_squared)
    _timed(rep, "cartan-leibniz", "d(a^b) = da^b + (-1)^p a^db", 1e-10, leibniz)
    _timed(rep, "cartan-lie-d-commute", "L_X(da) = d(L_X a)", 1e-10, lie_d_commute)
    _timed(rep, "cartan-iota-nilpotent",
           "i_X i_X a = 0 and i_X i_Y + i_Y i_X = 0", 1e-10, iota_square)
    _timed(rep, "cartan-lie-bracket", "L_[X,Y] = L_X L_Y - L_Y L_X", 1e-10,
           lie_bracket)
    _timed(rep, "cartan-iota-bracket", "i_[X,Y] = L_X i_Y - i_Y L_X", 1e-10,
           iota_lie)
    _timed(rep, "cartan-lie-leibniz", "L_X(a^b) = L_X a^b + a^L_X b", 1e-10,
           lie_leibniz)
    return rep


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------


def _random_multivector(rng, n: int, kind: str, form=None) -> MultivectorElement:
    coeffs = [complex(rng.normal(), rng.normal()) for _ in range(1 << n)]
    return MultivectorElement(n, coeffs, kind, form)


def clifford_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("clifford", chart, seed, samples)
    pts = _points(ch, rng, samples)
    forms = [BilinearForm(metric_jet(ch, x).g_inv) for x in pts]

    def generator_relation():
        worst = 0.0
        for b in forms:
            for _ in range(JETS_PER_POINT):
                cu = rng.normal(size=n) + 1j * rng.normal(size=n)
                cv = rng.normal(size=n) + 1j * rng.normal(size=n)
                u = MultivectorElement.covector(cu, CLIFFORD, b)
                v = MultivectorElement.covector(cv, CLIFFORD, b)
                uv = clifford_product(u, v)
                acc = uv + clifford_product(v, u)
                acc = acc + MultivectorElement.scalar(2.0 * b.pair(cu, cv), n,
                                                      CLIFFORD, b)
                worst = max(worst, _rel(acc.norm(), uv.norm()))
        return worst

    def vacuum_symbol():
        worst = 0.0
        for b in forms:
            for _ in range(JETS_PER_POINT):
                w = _random_multivector(rng, n, EXTERIOR)
                mat = action_matrix(quantize(w, b))
                worst = max(worst, _amax(mat[:, 0] - w.coeffs))
        return worst

    def roundtrip():
        worst = 0.0
        for b in forms:
            w = _random_multivector(rng, n, EXTERIOR)
            back = symbol(quantize(w, b))
            worst = max(worst, (back - w).norm())
            a = _random_multivector(rng, n, CLIFFORD, b)
            again = quantize(symbol(a), b)
            worst = max(worst, (again - a).norm())
        return worst

    def associativity():
        worst = 0.0
        for b in forms:
            for _ in range(JETS_PER_POINT):
                a1 = _random_multivector(rng, n, CLIFFORD, b)
                a2 = _random_multivector(rng, n, CLIFFORD, b)
                a3 = _random_multivector(rng, n, CLIFFORD, b)
                lhs = clifford_product(clifford_product(a1, a2), a3)
                rhs = clifford_product(a1, clifford_product(a2, a3))
                worst = max(worst,
                            _rel((lhs - rhs).norm(), lhs.norm(), rhs.norm()))
        return worst

    def chirality_relations():
        if n % 2:
            return 0.0
        worst = 0.0
        for b in forms:
            g = chirality(b).element
            sq = clifford_product(g, g) - MultivectorElement.scalar(
                1.0, n, CLIFFORD, b)
            worst = max(worst, sq.norm())
            cu = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = MultivectorElement.covector(cu, CLIFFORD, b)
            anti = clifford_product(g, v) + clifford_product(v, g)
            worst = max(worst, anti.norm())
        return worst

    def module_invariants():
        ms = bnd.exterior_module(n)
        worst = 0.0
        for x in pts:
            worst = max(worst, bnd.module_invariant_residual(ms, metric_jet(ch, x)))
        return worst

    _timed(rep, "clifford-generator-relation",
           "c(u)c(v) + c(v)c(u) = -2(u,v)", 1e-12, generator_relation)
    _timed(rep, "clifford-vacuum-symbol",
           "q(w) acting on the vacuum returns w", 1e-12, vacuum_symbol)
    _timed(rep, "clifford-symbol-roundtrip",
           "symbol(quantize(w)) = w and quantize(symbol(a)) = a", 1e-12,
           roundtrip)
    _timed(rep, "clifford-associativity", "(ab)c = a(bc)", 1e-12, associativity)
    _timed(rep, "clifford-chirality",
           "G^2 = 1 and G c(v) + c(v) G = 0 (even n)", 1e-12,
           chirality_relations)
    _timed(rep, "clifford-module-invariants",
           "coordinate gammas satisfy the metric relation with exact jets",
           1e-12, module_invariants)
    return rep


# ---------------------------------------------------------------------------
# levi-civita
# ---------------------------------------------------------------------------


def levi_civita_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("levi-civita", chart, seed, samples)
    pts = _points(ch, rng, samples)
    data = [(x, curvature_data(metric_jet(ch, x))) for x in pts]

    def metric_compat():
        worst = 0.0
        for _, cd in data:
            mj, gam = cd.mj, cd.christoffel
            nab = mj.dg.copy().astype(complex)
            nab -= np.einsum("mli,mj->lij", gam, mj.g)
            nab -= np.einsum("mlj,im->lij", gam, mj.g)
            worst = max(worst, float(np.max(np.abs(nab))))
        return worst

    def torsion():
        return max(float(np.max(np.abs(cd.christoffel
                                       - cd.christoffel.transpose(0, 2, 1))))
                   for _, cd in data)

    def symmetries():
        worst = 0.0
        for _, cd in data:
            low = cd.lowered
            worst = max(worst, float(np.max(np.abs(low + low.transpose(1, 0, 2, 3)))))
            worst = max(worst, float(np.max(np.abs(low + low.transpose(0, 1, 3, 2)))))
            worst = max(worst, float(np.max(np.abs(low - low.transpose(2, 3, 0, 1)))))
        return worst

    def bianchi():
        worst = 0.0
        for _, cd in data:
            low = cd.lowered
            cyc = (low + low.transpose(0, 2, 3, 1) + low.transpose(0, 3, 1, 2))
            worst = max(worst, float(np.max(np.abs(cyc))))
        return worst

    def two_form():
        from .curvature import curvature_two_form_residual
        return max(curvature_two_form_residual(cd.mj, cd) for _, cd in data)

    def divergence_routes():
        worst = 0.0
        for x, cd in data:
            for _ in range(JETS_PER_POINT):
                x_val, dx_val, _ = random_poly_vector(rng, n).jet(x, 1)
                d1 = divergence_via_density(cd.mj, x_val, dx_val)
                d2 = divergence_via_connection(cd.mj, cd.christoffel, x_val,
                                               dx_val)
                worst = max(worst, abs(d1 - d2))
        return worst

    def log_det():
        return max(log_det_identity_residual(cd.mj, cd.christoffel)
                   for _, cd in data)

    _timed(rep, "levi-civita-metric-compatibility", "nabla g = 0", 1e-9,
           metric_compat)
    _timed(rep, "levi-civita-torsion-free", "Gamma^k_ij = Gamma^k_ji", 1e-12,
           torsion)
    _timed(rep, "levi-civita-curvature-symmetries",
           "R_ijkl = -R_jikl = -R_ijlk = R_klij", 1e-9, symmetries)
    _timed(rep, "levi-civita-first-bianchi", "R_i[jkl] cyclic sum = 0", 1e-9,
           bianchi)
    _timed(rep, "levi-civita-curvature-two-form",
           "[S_ij, dx^k] recovers R^l_kij dx^l", 1e-9, two_form)
    _timed(rep, "levi-civita-divergence-routes",
           "density route equals connection route for div X", 1e-9,
           divergence_routes)
    _timed(rep, "levi-civita-log-det",
           "d_k log sqrt|g| = Gamma^i_ik", 1e-9, log_det)
    if chart in SCALAR_REFERENCE:
        ref = SCALAR_REFERENCE[chart]

        def scalar_ref():
            return max(abs(cd.scalar - ref) for _, cd in data)

        _timed(rep, "levi-civita-scalar-reference",
               f"scalar curvature equals {ref:g} on {chart}", 1e-7, scalar_ref)
    return rep


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------


def laplacian_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("laplacian", chart, seed, samples)
    pts = _points(ch, rng, samples)
    ms = bnd.exterior_module(n)
    m = ms.m
    specs = {0: "random", 1: "random", 2: "random"}

    built = []
    for idx, x in enumerate(pts):
        mj = metric_jet(ch, x)
        S = bnd.superconnection_from_degrees(n, m, ms.eta, specs,
                                             base_seed=seed + idx)
        D = bnd.quantize_superconnection(S, mj, ms, x)
        built.append((x, mj, bnd.laplacian_from_dirac(D, mj)))

    def defining_identity():
        worst = 0.0
        for x, mj, H in built:
            worst = max(worst, bnd.lap_identity_residual(H.apply, mj, x, m))
        return worst

    def decompose_roundtrip():
        worst = 0.0
        for x, mj, H in built:
            A, F = bnd.laplacian_decompose(H, mj)
            H2 = bnd.laplacian_from_connection(A, F, mj, x)
            for _ in range(3):
                j = bnd.random_poly_section(rng, n, m).eval(x, 2)
                h1 = H.apply(j)
                h2 = H2.apply(j)
                worst = max(worst,
                            _rel(float(np.max(np.abs(h1 - h2))),
                                 float(np.max(np.abs(h1))),
                                 float(np.max(np.abs(h2)))))
        return worst

    def canonical_routes():
        worst = 0.0
        for x, mj, _ in built:
            A = bnd.levi_civita_exterior_connection(mj)
            for _ in range(3):
                j = bnd.random_poly_section(rng, n, m).eval(x, 2)
                loc = bnd.canonical_laplacian(A, mj, j, route="local")
                tr = bnd.canonical_laplacian(A, mj, j, route="trace")
                worst = max(worst,
                            _rel(float(np.max(np.abs(loc - tr))),
                                 float(np.max(np.abs(loc))),
                                 float(np.max(np.abs(tr)))))
        return worst

    def scalar_reduction():
        worst = 0.0
        for x, mj, _ in built:
            zero = [Jet.constant(np.zeros((1, 1)), x)] * n
            for _ in range(3):
                f = random_poly_scalar(rng, n, 3, complex_coeffs=True)
                fj = f.eval(x, 2)
                got = bnd.canonical_laplacian(zero, mj, fj[None])[0]
                want = laplace_beltrami(fj, mj)
                worst = max(worst, _rel(abs(got - want), abs(want)))
        return worst

    _timed(rep, "laplacian-defining-identity",
           "[[H, x^k], x^l] + 2 g^kl = 0", 1e-9, defining_identity)
    _timed(rep, "laplacian-decompose-roundtrip",
           "decompose then reassemble reproduces H", 1e-9, decompose_roundtrip)
    _timed(rep, "laplacian-canonical-routes",
           "local route equals trace route for the connection Laplacian",
           1e-10, canonical_routes)
    _timed(rep, "laplacian-scalar-reduction",
           "rank-1 connection Laplacian equals the scalar Laplacian", 1e-10,
           scalar_reduction)
    return rep


# ---------------------------------------------------------------------------
# superconnection
# ---------------------------------------------------------------------------


def superconnection_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("superconnection", chart, seed, samples)
    pts = _points(ch, rng, samples)
    ms = bnd.exterior_module(n)
    m = ms.m

    def parity_enforced():
        bad = 0
        for k in range(10):
            mat = bnd.random_parity_matrix(np.random.default_rng(seed + k), n,
                                           ms.eta, -1, degree=1)
            try:
                bnd.SuperconnectionData(n, m, ms.eta, {1: mat})
                bad += 1
            except bnd.ParityError:
                pass
        return float(bad)

    def dirac_commutator():
        worst = 0.0
        for idx, x in enumerate(pts):
            mj = metric_jet(ch, x)
            S = bnd.superconnection_from_degrees(
                n, m, ms.eta, {0: "random", 1: "random", 2: "random"},
                base_seed=seed + idx)
            D = bnd.quantize_superconnection(S, mj, ms, x)
            for _ in range(3):
                f = random_poly_scalar(rng, n, 2, complex_coeffs=True)
                fj = f.eval(x, 2)
                j = bnd.random_poly_section(rng, n, m).eval(x, 2)
                worst = max(worst, bnd.dirac_commutator_residual(D, fj, j)[1])
        return worst

    def affine_multiplication():
        worst = 0.0
        for idx, x in enumerate(pts[: max(4, samples // 4)]):
            mj = metric_jet(ch, x)
            S1 = bnd.superconnection_from_degrees(
                n, m, ms.eta, {1: "random", 2: "random"}, base_seed=seed + idx)
            S2 = bnd.superconnection_from_degrees(
                n, m, ms.eta, {1: "random", 3: "constant"},
                base_seed=seed + 1000 + idx)
            D1 = bnd.quantize_superconnection(S1, mj, ms, x)
            D2 = bnd.quantize_superconnection(S2, mj, ms, x)
            j = bnd.random_poly_section(rng, n, m).eval(x, 2)
            jc = Jet.constant(j.val, j.x)
            d1 = bnd.apply_dirac(D1, j)
            d2 = bnd.apply_dirac(D2, j)
            lhs = d1 - d2
            rhs = bnd.apply_dirac(D1, jc) - bnd.apply_dirac(D2, jc)
            worst = max(worst,
                        _rel(float(np.max(np.abs(lhs - rhs))),
                             float(np.max(np.abs(d1))),
                             float(np.max(np.abs(d2)))))
        return worst

    def special_predicate():
        wrong = 0
        check_pts = pts[: min(6, len(pts))]
        for trial in range(30):
            truly_special = trial % 2 == 0
            if truly_special:
                specs = {0: "random", 1: "random"}
            else:
                specs = {0: "random", 1: "random",
                         2: "constant" if trial % 4 == 1 else "random"}
            S = bnd.superconnection_from_degrees(n, m, ms.eta, specs,
                                                 base_seed=seed + trial)
            got, _ = bnd.is_special_superconnection(S, check_pts)
            if got != truly_special:
                wrong += 1
        return float(wrong)

    def curvature_dual():
        worst = 0.0
        for idx, x in enumerate(pts[: max(4, samples // 4)]):
            S = bnd.superconnection_from_degrees(
                n, m, ms.eta, {0: "random", 1: "random", 2: "random"},
                base_seed=seed + idx)
            FS = bnd.superconnection_curvature(S, x)
            omega = S.eval_blades(np.asarray(x, dtype=float), order=2)
            # one section per blade 0..k-1, drawn in blade order
            k = min(1 << n, 8)
            fs = random_poly_field(rng, n, (k, m), complex_coeffs=True,
                                   masks=tuple(range(k))).eval(x, 2)
            twice = bnd.apply_superconnection(omega,
                                              bnd.apply_superconnection(omega, fs))
            direct = bnd.apply_form_endomorphism(FS, fs)
            worst = max(worst,
                        _rel((twice - direct).norm(), twice.norm(),
                             direct.norm()))
        return worst

    def kernel_projector():
        worst = 0.0
        for x in pts[: max(4, samples // 4)]:
            mj = metric_jet(ch, x)
            cmat, bmat, p = bnd.kernel_projector(mj, ms)
            worst = max(worst, float(np.max(np.abs(p @ p - p))))
            worst = max(worst, float(np.max(np.abs(cmat @ bmat - np.eye(m)))))
            com = bnd.clifford_of_metric(mj, ms)
            worst = max(worst, float(np.max(np.abs(com + n * np.eye(m)))))
            worst = max(worst, abs(float(np.real(np.trace(p))) - m))
        return worst

    def twisting():
        worst = 0.0
        for x in pts[: max(4, samples // 4)]:
            mj = metric_jet(ch, x)
            A = bnd.levi_civita_exterior_connection(mj)
            FE = bnd.connection_curvature(A)
            cd = curvature_data(mj)
            gams = ms.gammas(mj)
            try:
                _, res = bnd.twisting_curvature(FE, cd.lowered, gams)
            except bnd.CliffordConnectionError:
                res = 1.0
            worst = max(worst, res)
        return worst

    _timed(rep, "superconnection-parity", "odd blades need odd coefficients",
           0.5, parity_enforced)
    _timed(rep, "superconnection-dirac-commutator", "[D, f] = c(df)",
           DIRAC_COMMUTATOR_TOL, dirac_commutator)
    _timed(rep, "superconnection-affine",
           "D_1 - D_2 is multiplication by the coefficient difference", 1e-11,
           affine_multiplication)
    _timed(rep, "superconnection-special-predicate",
           "degree >= 2 components vanish iff classified special", 0.5,
           special_predicate)
    _timed(rep, "superconnection-curvature-dual",
           "ID^2 equals the assembled curvature endomorphism", 1e-10,
           curvature_dual)
    _timed(rep, "superconnection-kernel-projector",
           "c(omega) = -n id, p^2 = p, trace p = fiber rank", 1e-11,
           kernel_projector)
    _timed(rep, "superconnection-twisting",
           "twisting curvature lands in the supercommutant", 1e-9, twisting)
    return rep


# ---------------------------------------------------------------------------
# lichnerowicz
# ---------------------------------------------------------------------------


def lichnerowicz_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    if n % 2:
        raise SuiteUsageError(f"spinor checks need even dimension, chart {chart} "
                              f"has n={n}")
    if not ch.riemannian:
        raise SuiteUsageError(f"spinor checks need a Riemannian chart, not {chart}")
    rng = np.random.default_rng(seed)
    rep = VerificationReport("lichnerowicz", chart, seed, samples)
    pts = _points(ch, rng, samples)
    smd = sp.spin_module_data(n)

    prepared = []
    for x in pts:
        mj = metric_jet(ch, x)
        fr = sp.build_frame_from_metric(mj)
        a_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
        scd = sp.build_spin_connection(fr, smd, mj, a_jets)
        prepared.append((x, mj, fr, scd, a_jets))

    def frame_invariants():
        return max(sp.frame_invariant_residual(fr, mj)
                   for _, mj, fr, _, _ in prepared)

    def dirac_dual():
        worst = 0.0
        for x, mj, fr, scd, _ in prepared:
            for _ in range(3):
                j = bnd.random_poly_section(rng, n, smd.dim).eval(x, 2)
                d1 = sp.spin_dirac(scd, smd, fr, mj, j)
                d2 = sp.spin_dirac_alpha(scd, smd, fr, mj, j)
                worst = max(worst,
                            _rel(float(np.max(np.abs(d1 - d2))),
                                 float(np.max(np.abs(d1))),
                                 float(np.max(np.abs(d2)))))
        return worst

    def conformal_closed_form():
        if ch.kind != "conformal":
            return 0.0
        worst = 0.0
        for x, mj, fr, scd, a_jets in prepared:
            j = bnd.random_poly_section(rng, n, smd.dim).eval(x, 2)
            d1 = sp.spin_dirac(scd, smd, fr, mj, j)
            d2 = sp.conformal_dirac(ch, a_jets, smd, j)
            worst = max(worst,
                        _rel(float(np.max(np.abs(d1 - d2))),
                             float(np.max(np.abs(d1))),
                             float(np.max(np.abs(d2)))))
        return worst

    def weitzenbock():
        worst = 0.0
        for x, mj, fr, scd, _ in prepared:
            for _ in range(3):
                j = bnd.random_poly_section(rng, n, smd.dim).eval(x, 2)
                worst = max(worst, sp.lichnerowicz_residual(scd, smd, fr, mj, j))
        return worst

    def chirality_checks():
        worst = 0.0
        for x, mj, fr, scd, _ in prepared[: max(4, samples // 4)]:
            out = sp.chirality_action_checks(smd, fr, mj, scd)
            worst = max(worst, max(out.values()))
        return worst

    def connection_difference():
        worst = 0.0
        for x, mj, fr, scd, a_jets in prepared[: max(4, samples // 4)]:
            b_jets = sp.imaginary_poly_potential(rng, n).eval(x, 2)
            scd2 = sp.build_spin_connection(fr, smd, mj, b_jets)
            for a in range(n):
                diff = scd.omega[a].val - scd2.omega[a].val
                want = 0.5 * (a_jets.val[a] - b_jets.val[a]) * np.eye(smd.dim)
                worst = max(worst, float(np.max(np.abs(diff - want))))
        return worst

    _timed(rep, "lichnerowicz-frame-invariants",
           "frame is orthonormal, dual, and reconstructs the metric", 1e-10,
           frame_invariants)
    _timed(rep, "lichnerowicz-dirac-dual-route",
           "generic assembly equals the 1-form/3-form route", 1e-10, dirac_dual)
    _timed(rep, "lichnerowicz-conformal-closed-form",
           "rescaling closed form equals the generic assembly", 1e-9,
           conformal_closed_form)
    _timed(rep, "lichnerowicz-weitzenbock",
           "D_A^2 = lap + r/4 + q(dA)/2", 1e-7, weitzenbock)
    _timed(rep, "lichnerowicz-chirality",
           "chirality anticommutes with c(dx) and commutes with the connection",
           1e-11, chirality_checks)
    _timed(rep, "lichnerowicz-connection-difference",
           "two connections differ by half the potential difference", 1e-12,
           connection_difference)
    return rep


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------


def hodge_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("hodge", chart, seed, samples)
    pts = _points(ch, rng, samples)

    def double_star():
        worst = 0.0
        for x in pts:
            mj = metric_jet(ch, x)
            s = 1 if np.linalg.det(mj.g) > 0 else -1
            for p in range(n + 1):
                a = random_poly_form(rng, n, p, complex_coeffs=True).eval(x, 2)
                twice = hodge_star(hodge_star(a, mj), mj)
                want = a.val * ((-1.0) ** (p * (n - p)) * s)
                worst = max(worst, _rel(_amax(twice.val - want), _amax(a.val)))
        return worst

    def antilinear():
        worst = 0.0
        for x in pts[: max(4, samples // 4)]:
            mj = metric_jet(ch, x)
            a = random_poly_form(rng, n, 1, complex_coeffs=True).eval(x, 2)
            c = complex(rng.normal(), rng.normal())
            lhs = hodge_star(a * c, mj)
            rhs = hodge_star(a, mj) * np.conj(c)
            worst = max(worst, _rel(_amax(lhs.val - rhs.val), _amax(lhs.val)))
        return worst

    def pairing():
        worst = 0.0
        top = (1 << n) - 1
        for x in pts[: max(4, samples // 4)]:
            mj = metric_jet(ch, x)
            for p in range(n + 1):
                a = random_poly_form(rng, n, p, complex_coeffs=True).eval(x, 2)
                b = random_poly_form(rng, n, p, complex_coeffs=True).eval(x, 2)
                got = wedge_forms(a, hodge_star(b, mj)).val[top]
                vol = volume_form(mj, x).val[top]
                want = np.conj(gram_pairing(a, b, mj)) * vol
                worst = max(worst, _rel(abs(got - want), abs(want)))
        return worst

    # the star route needs pure-degree input, so these draws loop over p

    def coderivative_dual():
        worst = 0.0
        for x in pts:
            mj = metric_jet(ch, x)
            for p in range(1, n + 1):
                a = random_poly_form(rng, n, p, complex_coeffs=True).eval(x, 2)
                d1 = coderivative_hodge(a, mj)
                d2 = coderivative_connection(a, mj)
                worst = max(worst, _rel(_amax(d1.val - d2.val), _amax(d1.val),
                                        _amax(d2.val)))
        return worst

    def coderivative_squared():
        worst = 0.0
        for x in pts:
            mj = metric_jet(ch, x)
            for p in range(n + 1):
                a = random_poly_form(rng, n, p, complex_coeffs=True).eval(x, 2)
                jetnorm = _amax(a.val, a.d, a.dd)
                if p >= 2:
                    dd = _amax(coderivative_hodge(coderivative_hodge(a, mj), mj).val)
                    worst = max(worst, _rel(dd, jetnorm))
                worst = max(worst, _rel(_amax(exterior_derivative(
                    exterior_derivative(a)).val), jetnorm))
        return worst

    def dirac_square():
        worst = 0.0
        for x in pts[: max(4, samples // 4)]:
            mj = metric_jet(ch, x)
            for p in range(n + 1):
                a = random_poly_form(rng, n, p, complex_coeffs=True).eval(x, 2)
                lhs = forms_dirac(forms_dirac(a, mj), mj)
                rhs = (exterior_derivative(coderivative_connection(a, mj))
                       + coderivative_connection(exterior_derivative(a), mj))
                worst = max(worst, _rel(_amax(lhs.val - rhs.val), _amax(lhs.val),
                                        _amax(rhs.val)))
        return worst

    _timed(rep, "hodge-double-star",
           "star(star(a)) = (-1)^p(n-p) sign(det g) a", 1e-11, double_star)
    _timed(rep, "hodge-antilinear", "star(c a) = conj(c) star(a)", 1e-12,
           antilinear)
    _timed(rep, "hodge-pairing", "a ^ star(b) = conj((a, b)) vol", 1e-10,
           pairing)
    _timed(rep, "hodge-coderivative-dual",
           "star route equals connection route for the coderivative", 1e-9,
           coderivative_dual)
    _timed(rep, "hodge-nilpotency", "d d = 0 and del del = 0", 1e-11,
           coderivative_squared)
    _timed(rep, "hodge-dirac-square", "(d + del)^2 = d del + del d", 1e-10,
           dirac_square)
    return rep


# ---------------------------------------------------------------------------
# sw
# ---------------------------------------------------------------------------


def sw_suite(seed: int, samples: int,
             cfg: Optional[swm.SWConfig] = None) -> VerificationReport:
    if cfg is None:
        raise SuiteUsageError("the sw suite needs a monopole configuration "
                              "(pass --config)")
    rng = np.random.default_rng(seed)
    rep = VerificationReport("sw", "torus4", seed, samples)
    pts = [rng.uniform(0.0, 2.0 * np.pi, 4) for _ in range(samples)]

    def quadratic_identity():
        worst = 0.0
        for x in pts:
            psi, _ = swm.spinor_at(cfg, x)
            worst = max(worst, swm.quadratic_identity_residual(psi))
        return worst

    def self_dual_projector():
        # the block's half of F is a fixed point, and Q(psi) lies in it
        worst = 0.0
        for x in pts:
            fp = swm.block_part(swm.curvature_at(cfg, x), cfg.block)
            q = swm.quadratic_form(swm.spinor_at(cfg, x)[0])
            for a in (fp, q):
                worst = max(worst, float(np.max(np.abs(
                    swm.block_part(a, cfg.block) - a))))
        return worst

    def functional_gap():
        return swm.sw_functional(cfg)["relative_gap"]

    half = "self-dual" if cfg.block == "+" else "anti-self-dual"
    _timed(rep, "sw-quadratic-identity", "|Q(psi)|^2 = |psi|^4 / 8", 1e-10,
           quadratic_identity)
    _timed(rep, "sw-self-dual-projector",
           f"F{cfg.block} is a fixed point; Q(psi) is {half} on the "
           f"{cfg.block} block", 1e-12, self_dual_projector)
    _timed(rep, "sw-functional-gap",
           "equation form equals Weitzenbock form of the functional",
           SW_FUNCTIONAL_GAP_TOL, functional_gap)
    return rep


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHART_SUITES: Dict[str, Callable[[str, int, int], VerificationReport]] = {
    "cartan": cartan_suite,
    "clifford": clifford_suite,
    "levi-civita": levi_civita_suite,
    "laplacian": laplacian_suite,
    "superconnection": superconnection_suite,
    "lichnerowicz": lichnerowicz_suite,
    "hodge": hodge_suite,
}

SUITE_NAMES = list(CHART_SUITES) + ["sw", "all"]


def run_suite(name: str, chart: str = "sphere2", seed: int = 1,
              samples: int = 20,
              sw_config: Optional[swm.SWConfig] = None) -> VerificationReport:
    if name in CHART_SUITES:
        return CHART_SUITES[name](chart, seed, samples)
    if name == "sw":
        return sw_suite(seed, samples, sw_config)
    if name == "all":
        rep = VerificationReport("all", chart, seed, samples)
        for sub in CHART_SUITES:
            try:
                rep.merge(CHART_SUITES[sub](chart, seed, samples))
            except SuiteUsageError:
                # suites that do not apply to this chart are skipped
                continue
        if sw_config is not None:
            rep.merge(sw_suite(seed, samples, sw_config))
        return rep
    raise SuiteUsageError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(SUITE_NAMES)}")
