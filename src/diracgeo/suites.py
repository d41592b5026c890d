"""Verification suites: each runs a family of identities over sampled points."""

from __future__ import annotations

import time
from functools import reduce
from itertools import combinations
from typing import Callable, Dict, List, Optional

import numpy as np

from . import bundles as bnd
from . import seiberg_witten as swm
from . import spin as sp
from .charts import Chart, MetricJet, get_chart, metric_jet
from .clifford import (CLIFFORD, BilinearForm, MultivectorElement, chirality,
                       product_table, quantize, symbol)
from .curvature import (curvature_data, curvature_two_form_residual,
                        divergence_via_connection, divergence_via_density,
                        log_det_identity_residual)
from .forms import (PolyField, exterior_derivative,
                    gram_pairing, hodge_star, coderivative_connection,
                    coderivative_hodge, forms_dirac, iota_vector,
                    laplace_beltrami, lie_derivative, random_poly_field,
                    random_poly_form, random_poly_scalar, random_poly_vector,
                    vector_bracket, volume_form, wedge_forms)
from .jets import Jet, sample_max
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
    """Run one check; it returns its residual, or the residuals of every
    sample and draw, of which the largest is reported."""
    t0 = time.perf_counter()
    resid = float(np.max(fn()))
    rep.add(cid, identity, resid, tol, time.perf_counter() - t0)


def _points(ch: Chart, rng, k: int) -> List[np.ndarray]:
    return [ch.sample_point(rng) for _ in range(k)]


def _samples_amax(*arrays) -> np.ndarray:
    """Per sample (axis 0), the largest entry magnitude over the arrays given
    (None skipped)."""
    return reduce(np.maximum, (sample_max(a, 1) for a in arrays if a is not None))


def _rel(diff, *scales):
    # residuals are reported relative to operand size, floored at 1,
    # so tolerances mean the same thing on every chart; arrays act per sample
    return diff / reduce(np.maximum, scales, 1.0)


def _diff(a, b) -> np.ndarray:
    """Per sample (axis 0), |a - b| relative to the larger side."""
    return _rel(_samples_amax(a - b), _samples_amax(a), _samples_amax(b))


def _gap(lhs: Jet, rhs: Jet) -> np.ndarray:
    """Per sample, |lhs - rhs| relative to the larger side."""
    return _diff(lhs.val, rhs.val)


def _draws(rng, xs: np.ndarray, per: int, make: Callable) -> List[tuple]:
    """``per`` draws of the fields ``make(rng)`` returns at each point of xs,
    points outermost as a per-point loop would draw them; draw k of every
    point is evaluated as one stack, a 2-jet per entry of the tuple."""
    rows = [[make(rng) for _ in range(per)] for _ in xs]
    return [tuple(PolyField.stack(col).eval(xs, 2) for col in zip(*(r[k] for r in rows)))
            for k in range(per)]


def _mixed_form_field(rng, n: int) -> PolyField:
    """A complex form of every degree, drawn degree by degree as the pure
    forms of ``random_poly_form`` are, in one draw."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    return random_poly_field(rng, n, (1 << n,), complex_coeffs=True, masks=tuple(masks))


# ---------------------------------------------------------------------------
# cartan
# ---------------------------------------------------------------------------


def cartan_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("cartan", chart, seed, samples)
    pts = _points(ch, rng, samples)

    # all fields are drawn first, point by point, so a seed picks the fields
    # a per-point loop would; each check then runs once over the stack of
    # (point, draw) samples
    draws = []
    for _ in range(samples * JETS_PER_POINT):
        p = int(rng.integers(0, n + 1))
        draws.append((_mixed_form_field(rng, n), _mixed_form_field(rng, n),
                      random_poly_vector(rng, n), random_poly_vector(rng, n),
                      random_poly_form(rng, n, p, complex_coeffs=True), p))
    xs = np.repeat(np.array(pts), JETS_PER_POINT, axis=0)
    a, b, X, Y, pure = (PolyField.stack(col).eval(xs, 2)
                        for col in list(zip(*draws))[:5])
    sign = (-1.0) ** np.array([d[-1] for d in draws])

    def d_squared():
        return _rel(_samples_amax(exterior_derivative(exterior_derivative(a)).val),
                    _samples_amax(a.val, a.d, a.dd))

    def leibniz():
        lhs = exterior_derivative(wedge_forms(pure, b))
        rhs = (wedge_forms(exterior_derivative(pure), b)
               + wedge_forms(pure, exterior_derivative(b)).scale(sign))
        return _gap(lhs, rhs)

    def lie_d_commute():
        return _gap(lie_derivative(X, exterior_derivative(a)),
                    exterior_derivative(lie_derivative(X, a)))

    def iota_square():
        ax, ay, aa = (_samples_amax(j.val) for j in (X, Y, a))
        sq = _samples_amax(iota_vector(X, iota_vector(X, a)).val)
        anti = _samples_amax((iota_vector(X, iota_vector(Y, a))
                              + iota_vector(Y, iota_vector(X, a))).val)
        return np.maximum(_rel(sq, ax ** 2 * aa), _rel(anti, ax * ay * aa))

    def lie_bracket():
        lhs = lie_derivative(vector_bracket(X, Y), a)
        t1 = lie_derivative(X, lie_derivative(Y, a))
        t2 = lie_derivative(Y, lie_derivative(X, a))
        return _rel(_samples_amax(lhs.val - (t1 - t2).val), _samples_amax(lhs.val),
                    _samples_amax(t1.val))

    def iota_lie():
        lhs = iota_vector(vector_bracket(X, Y), a)
        t1 = lie_derivative(X, iota_vector(Y, a))
        t2 = iota_vector(Y, lie_derivative(X, a))
        return _rel(_samples_amax(lhs.val - (t1 - t2).val), _samples_amax(lhs.val),
                    _samples_amax(t1.val))

    def lie_leibniz():
        return _gap(lie_derivative(X, wedge_forms(a, b)),
                    wedge_forms(lie_derivative(X, a), b)
                    + wedge_forms(a, lie_derivative(X, b)))

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


def clifford_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n, dim = ch.n, 1 << ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("clifford", chart, seed, samples)
    mj = metric_jet(ch, np.array(_points(ch, rng, samples)))
    table = product_table(mj.g_inv)                 # (P, 2^n, 2^n, 2^n)
    forms = [BilinearForm(g) for g in mj.g_inv]
    embed = np.eye(dim)[1 << np.arange(n)]          # covectors onto the blade axis

    # every coefficient is drawn first, in the order per-point checks drew
    # them: points outermost, then draws; real and imaginary parts lie along
    # ``axis``, as a covector draws its n real parts, then its n imaginary
    # ones, and a multivector both parts of one blade in turn
    def normals(*shape, axis=-1):
        z = rng.normal(size=(samples,) + shape)
        return np.take(z, 0, axis) + 1j * np.take(z, 1, axis)

    cu, cv = np.moveaxis(normals(JETS_PER_POINT, 2, 2, n, axis=-2), -2, 0)
    vacuum = normals(JETS_PER_POINT, dim, 2)
    w, a = np.moveaxis(normals(2, dim, 2), 1, 0)
    a1, a2, a3 = np.moveaxis(normals(JETS_PER_POINT, 3, dim, 2), -2, 0)
    chiral = normals(2, n, axis=-2) @ embed if n % 2 == 0 else None

    def product(x, y):
        """Clifford products x y of coefficient stacks (P, ..., 2^n), each
        sample point against its own table."""
        act = x.reshape(samples, -1, dim) @ table.reshape(samples, dim, dim * dim)
        return (act.reshape(x.shape + (dim,)) @ y[..., None])[..., 0]

    def norm(x):
        return np.linalg.norm(x, axis=-1)

    def generator_relation():
        u, v = cu @ embed, cv @ embed
        uv = product(u, v)
        acc = uv + product(v, u)
        acc[..., 0] += 2.0 * np.sum((cu @ mj.g_inv) * cv, axis=-1)
        return _rel(norm(acc), norm(uv))

    def roundtrip():
        out = []
        for b, wk, ak in zip(forms, w, a):
            ext, cl = MultivectorElement(n, wk), MultivectorElement(n, ak, CLIFFORD, b)
            out += [(symbol(quantize(ext, b)) - ext).norm(),
                    (quantize(symbol(cl), b) - cl).norm()]
        return out

    def associativity():
        lhs, rhs = product(product(a1, a2), a3), product(a1, product(a2, a3))
        return _rel(norm(lhs - rhs), norm(lhs), norm(rhs))

    def chirality_relations():
        if n % 2:
            return 0.0
        g = np.array([chirality(b).element.coeffs for b in forms])
        return np.maximum(norm(product(g, g) - np.eye(dim)[0]),
                          norm(product(g, chiral) + product(chiral, g)))

    _timed(rep, "clifford-generator-relation",
           "c(u)c(v) + c(v)c(u) = -2(u,v)", 1e-12, generator_relation)
    _timed(rep, "clifford-vacuum-symbol",
           "q(w) acting on the vacuum returns w", 1e-12,
           lambda: np.max(np.abs(vacuum @ table[..., 0] - vacuum), axis=-1))
    _timed(rep, "clifford-symbol-roundtrip",
           "symbol(quantize(w)) = w and quantize(symbol(a)) = a", 1e-12,
           roundtrip)
    _timed(rep, "clifford-associativity", "(ab)c = a(bc)", 1e-12, associativity)
    _timed(rep, "clifford-chirality",
           "G^2 = 1 and G c(v) + c(v) G = 0 (even n)", 1e-12,
           chirality_relations)
    _timed(rep, "clifford-module-invariants",
           "coordinate gammas satisfy the metric relation with exact jets",
           1e-12, lambda: bnd.module_invariant_residual(bnd.exterior_module(n), mj))
    return rep


# ---------------------------------------------------------------------------
# levi-civita
# ---------------------------------------------------------------------------


def levi_civita_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("levi-civita", chart, seed, samples)
    xs = np.array(_points(ch, rng, samples))
    cd = curvature_data(metric_jet(ch, xs))
    mj, gam, low = cd.mj, cd.christoffel, cd.lowered

    def divergence_routes():
        out = []
        for (X,) in _draws(rng, xs, JETS_PER_POINT, lambda r: (random_poly_vector(r, n),)):
            out.append(np.abs(divergence_via_density(mj, X.val, X.d)
                              - divergence_via_connection(mj, gam, X.val, X.d)))
        return out

    _timed(rep, "levi-civita-metric-compatibility", "nabla g = 0", 1e-9,
           lambda: _samples_amax(mj.dg - np.einsum("pmli,pmj->plij", gam, mj.g)
                                 - np.einsum("pmlj,pim->plij", gam, mj.g)))
    _timed(rep, "levi-civita-torsion-free", "Gamma^k_ij = Gamma^k_ji", 1e-12,
           lambda: _samples_amax(gam - gam.transpose(0, 1, 3, 2)))
    _timed(rep, "levi-civita-curvature-symmetries", "R_ijkl = -R_jikl = -R_ijlk = R_klij",
           1e-9, lambda: _samples_amax(low + low.transpose(0, 2, 1, 3, 4),
                                       low + low.transpose(0, 1, 2, 4, 3),
                                       low - low.transpose(0, 3, 4, 1, 2)))
    _timed(rep, "levi-civita-first-bianchi", "R_i[jkl] cyclic sum = 0", 1e-9, lambda:
           _samples_amax(low + low.transpose(0, 1, 3, 4, 2) + low.transpose(0, 1, 4, 2, 3)))
    _timed(rep, "levi-civita-curvature-two-form", "[S_ij, dx^k] recovers R^l_kij dx^l",
           1e-9, lambda: curvature_two_form_residual(mj, cd))
    _timed(rep, "levi-civita-divergence-routes",
           "density route equals connection route for div X", 1e-9,
           divergence_routes)
    _timed(rep, "levi-civita-log-det",
           "d_k log sqrt|g| = Gamma^i_ik and d_l d_k log sqrt|g| = d_l Gamma^i_ik",
           1e-9, lambda: log_det_identity_residual(mj, gam))
    if chart in SCALAR_REFERENCE:
        ref = SCALAR_REFERENCE[chart]
        _timed(rep, "levi-civita-scalar-reference",
               f"scalar curvature equals {ref:g} on {chart}", 1e-7,
               lambda: np.abs(cd.scalar - ref))
    return rep


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------


def _superconnections(ms: bnd.ModuleSpec, n: int, count: int, base_seed: int,
                      specs=None) -> bnd.SuperconnectionData:
    """One stack of the superconnections of base seed ``base_seed`` + k at the
    points k < count, random in degrees 0, 1 and 2 unless ``specs`` says."""
    return bnd.superconnection_from_degrees(
        n, ms.m, ms.eta, specs or {0: "random", 1: "random", 2: "random"},
        base_seed + np.arange(count))


def laplacian_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    n = ch.n
    rng = np.random.default_rng(seed)
    rep = VerificationReport("laplacian", chart, seed, samples)
    xs = np.array(_points(ch, rng, samples))
    mj = metric_jet(ch, xs)
    ms = bnd.exterior_module(n)
    m = ms.m
    # D^2 and its coefficient jets read A and Z to first order
    H = bnd.laplacian_from_dirac(bnd.quantize_superconnection(
        _superconnections(ms, n, samples, seed), mj, ms, xs, order=1), mj)

    def sections():
        return [j for (j,) in _draws(rng, xs, 3,
                                     lambda r: (bnd.random_poly_section(r, n, m),))]

    def decompose_roundtrip():
        A, F = bnd.laplacian_decompose(H, mj)
        H2 = bnd.laplacian_from_connection(A, F, mj, xs)
        return [_diff(H.apply(j), H2.apply(j)) for j in sections()]

    def canonical_routes():
        A = bnd.levi_civita_exterior_connection(mj)
        return [_diff(bnd.canonical_laplacian(A, mj, j, route="local"),
                      bnd.canonical_laplacian(A, mj, j, route="trace"))
                for j in sections()]

    def scalar_reduction():
        zero = Jet.constant(np.zeros((n, 1, 1)), xs)
        out = []
        for (f,) in _draws(rng, xs, 3,
                           lambda r: (random_poly_scalar(r, n, 3, complex_coeffs=True),)):
            want = laplace_beltrami(f, mj)
            out.append(_rel(np.abs(bnd.canonical_laplacian(zero, mj, f[None])[:, 0] - want),
                            np.abs(want)))
        return out

    _timed(rep, "laplacian-defining-identity", "[[H, x^k], x^l] + 2 g^kl = 0", 1e-9,
           lambda: bnd.lap_identity_residual(H.apply, mj, xs, m))
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
    xs = np.array(_points(ch, rng, samples))
    mj = metric_jet(ch, xs)
    ms = bnd.exterior_module(n)
    m = ms.m
    # the affine and later checks run on the first few points
    few = min(samples, max(4, samples // 4))
    head = mj if few == samples else metric_jet(ch, xs[:few])
    hx = head.x
    # the commutator check reads the operator's values only
    D = bnd.quantize_superconnection(_superconnections(ms, n, samples, seed), mj, ms, xs,
                                     order=0)

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

    def affine_multiplication():
        D1, D2 = (bnd.quantize_superconnection(
            _superconnections(ms, n, few, base, specs), head, ms, hx, order=0)
            for specs, base in (({1: "random", 2: "random"}, seed),
                                ({1: "random", 3: "constant"}, seed + 1000)))
        (j,), = _draws(rng, hx, 1, lambda r: (bnd.random_poly_section(r, n, m),))
        jc = Jet(hx, j.val, np.zeros_like(j.d), np.zeros_like(j.dd))
        d1, d2 = bnd.apply_dirac(D1, j), bnd.apply_dirac(D2, j)
        rhs = bnd.apply_dirac(D1, jc) - bnd.apply_dirac(D2, jc)
        return _rel(_samples_amax(d1 - d2 - rhs), _samples_amax(d1), _samples_amax(d2))

    def special_predicate():
        wrong = 0
        for trial in range(30):
            specs = {0: "random", 1: "random"}
            if trial % 2:
                specs[2] = "constant" if trial % 4 == 1 else "random"
            S = bnd.superconnection_from_degrees(n, m, ms.eta, specs, seed + trial)
            wrong += bnd.is_special_superconnection(S, xs[:6])[0] != (trial % 2 == 0)
        return float(wrong)

    def curvature_dual():
        S = _superconnections(ms, n, few, seed)
        FS = bnd.superconnection_curvature(S, hx)
        # ID applied twice to a 2-jet reads omega to first order only
        omega = S.eval_blades(hx, order=1)
        # one section per blade 0..k-1, drawn in blade order
        k = min(1 << n, 8)
        (fs,), = _draws(rng, hx, 1, lambda r: (random_poly_field(
            r, n, (k, m), complex_coeffs=True, masks=tuple(range(k))),))
        twice = bnd.apply_superconnection(omega, bnd.apply_superconnection(omega, fs))
        direct = bnd.apply_form_endomorphism(FS, fs)
        return _rel(*(np.sqrt(np.sum(np.abs(t.val) ** 2, axis=(1, 2))) for t in
                      (twice - direct, twice, direct)))

    def kernel_projector():
        cmat, bmat, p = bnd.kernel_projector(head, ms)
        com = bnd.clifford_of_metric(head, ms)
        return np.maximum(_samples_amax(p @ p - p, cmat @ bmat - np.eye(m),
                                        com + n * np.eye(m)),
                          np.abs(np.real(np.trace(p, axis1=-2, axis2=-1)) - m))

    def twisting():
        FE = bnd.connection_curvature(bnd.levi_civita_exterior_connection(head))
        try:
            return bnd.twisting_curvature(FE, curvature_data(head).lowered,
                                          ms.gammas(head))[1]
        except bnd.CliffordConnectionError:
            return 1.0

    _timed(rep, "superconnection-parity", "odd blades need odd coefficients",
           0.5, parity_enforced)
    _timed(rep, "superconnection-dirac-commutator", "[D, f] = c(df)", DIRAC_COMMUTATOR_TOL,
           lambda: [bnd.dirac_commutator_residual(D, f, j)[1] for f, j in _draws(
               rng, xs, 3, lambda r: (random_poly_scalar(r, n, 2, complex_coeffs=True),
                                      bnd.random_poly_section(r, n, m)))])
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
    xs = np.array(_points(ch, rng, samples))
    mj = metric_jet(ch, xs)
    smd = sp.spin_module_data(n)
    (a_jets,), = _draws(rng, xs, 1, lambda r: (sp.imaginary_poly_potential(r, n),))
    fr = sp.build_frame_from_metric(mj)
    scd = sp.build_spin_connection(fr, smd, mj, a_jets)
    # the chirality and connection-difference checks run on the first few points
    few = min(samples, max(4, samples // 4))
    head = mj if few == samples else metric_jet(ch, xs[:few])
    fr_h = sp.build_frame_from_metric(head)
    a_h = Jet(head.x, *(t[:few] for t in (a_jets.val, a_jets.d, a_jets.dd)))
    scd_h = sp.build_spin_connection(fr_h, smd, head, a_h)

    def sections(per: int):
        return [j for (j,) in _draws(rng, xs, per,
                                     lambda r: (bnd.random_poly_section(r, n, smd.dim),))]

    def conformal_closed_form():
        if ch.kind != "conformal":
            return 0.0
        return [_diff(sp.spin_dirac(scd, smd, fr, mj, j),
                      sp.conformal_dirac(ch, a_jets, smd, j)) for j in sections(1)]

    def connection_difference():
        (b_jets,), = _draws(rng, head.x, 1, lambda r: (sp.imaginary_poly_potential(r, n),))
        scd2 = sp.build_spin_connection(fr_h, smd, head, b_jets)
        want = 0.5 * (a_h.val - b_jets.val)[..., None, None] * np.eye(smd.dim)
        return _samples_amax(scd_h.omega.val - scd2.omega.val - want)

    _timed(rep, "lichnerowicz-frame-invariants",
           "frame is orthonormal, dual, and reconstructs the metric", 1e-10,
           lambda: sp.frame_invariant_residual(fr, mj))
    _timed(rep, "lichnerowicz-dirac-dual-route",
           "generic assembly equals the 1-form/3-form route", 1e-10,
           lambda: [_diff(sp.spin_dirac(scd, smd, fr, mj, j),
                          sp.spin_dirac_alpha(scd, smd, fr, j)) for j in sections(3)])
    _timed(rep, "lichnerowicz-conformal-closed-form",
           "rescaling closed form equals the generic assembly", 1e-9,
           conformal_closed_form)
    _timed(rep, "lichnerowicz-weitzenbock", "D_A^2 = lap + r/4 + q(dA)/2", 1e-7,
           lambda: [sp.lichnerowicz_residual(scd, smd, fr, mj, j) for j in sections(3)])
    _timed(rep, "lichnerowicz-chirality",
           "chirality anticommutes with c(dx) and commutes with the connection",
           1e-11, lambda: reduce(np.maximum, sp.chirality_action_checks(
               smd, fr_h, head, scd_h).values()))
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
    xs = np.array(_points(ch, rng, samples))
    mj = metric_jet(ch, xs)
    few = max(4, samples // 4)
    head = mj if few >= samples else metric_jet(ch, xs[:few])

    def forms_by_degree(at: MetricJet, degs, per: int = 1):
        """Draw ``per`` complex forms of each degree at each point of ``at``,
        points outermost, and evaluate each degree's draws as one stack."""
        rows = [[[random_poly_form(rng, n, p, complex_coeffs=True)
                  for _ in range(per)] for p in degs] for _ in at.x]
        return {p: [PolyField.stack([r[k][i] for r in rows]).eval(at.x, 2)
                    for i in range(per)] for k, p in enumerate(degs)}

    def double_star():
        out = []
        for p, (a,) in forms_by_degree(mj, range(n + 1)).items():
            twice = hodge_star(hodge_star(a, mj), mj)
            want = a.val * ((-1.0) ** (p * (n - p)) * np.sign(mj.det))[:, None]
            out.append(_rel(_samples_amax(twice.val - want), _samples_amax(a.val)))
        return out

    def antilinear():
        draws = [(random_poly_form(rng, n, 1, complex_coeffs=True),
                  complex(rng.normal(), rng.normal())) for _ in head.x]
        a = PolyField.stack([f for f, _ in draws]).eval(head.x, 2)
        c = np.array([c for _, c in draws])
        lhs = hodge_star(a.scale(c), head)
        rhs = hodge_star(a, head).scale(np.conj(c))
        return _rel(_samples_amax(lhs.val - rhs.val), _samples_amax(lhs.val))

    def pairing():
        out = []
        top = (1 << n) - 1
        vol = volume_form(head, head.x).val[:, top]
        for a, b in forms_by_degree(head, range(n + 1), per=2).values():
            got = wedge_forms(a, hodge_star(b, head)).val[:, top]
            want = np.conj(gram_pairing(a, b, head)) * vol
            out.append(_rel(np.abs(got - want), np.abs(want)))
        return out

    # the star route needs pure-degree input, so these draws loop over p

    def coderivative_dual():
        return [_gap(coderivative_hodge(a, mj), coderivative_connection(a, mj))
                for (a,) in forms_by_degree(mj, range(1, n + 1)).values()]

    def coderivative_squared():
        out = []
        for p, (a,) in forms_by_degree(mj, range(n + 1)).items():
            jetnorm = _samples_amax(a.val, a.d, a.dd)
            if p >= 2:
                twice = coderivative_hodge(coderivative_hodge(a, mj), mj)
                out.append(_rel(_samples_amax(twice.val), jetnorm))
            out.append(_rel(_samples_amax(
                exterior_derivative(exterior_derivative(a)).val), jetnorm))
        return out

    def dirac_square():
        return [_gap(forms_dirac(forms_dirac(a, head), head),
                     exterior_derivative(coderivative_connection(a, head))
                     + coderivative_connection(exterior_derivative(a), head))
                for (a,) in forms_by_degree(head, range(n + 1)).values()]

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
    # one draw of (samples, 4) is the stream of one draw of 4 per sample
    pts = rng.uniform(0.0, 2.0 * np.pi, (samples, 4))

    def self_dual_projector():
        # the block's half of F is a fixed point, Q(psi) lies in it, and the
        # projector is (1 +- star) / 2, star F on the pairs j < k read from
        # eps_abcd, the determinant of the rows a, b, c, d of the identity
        pairs = list(combinations(range(4), 2))
        star = np.array([[np.linalg.det(np.eye(4)[[*p, *q]]) for q in pairs] for p in pairs])
        half = 0.5 * (np.eye(len(pairs)) + (1.0 if cfg.block == "+" else -1.0) * star)
        fp = swm.block_part(swm.curvature_at(cfg, pts), cfg.block)
        q = swm.quadratic_form(swm.spinor_at(cfg, pts)[0])
        return np.append(_samples_amax(*(swm.block_part(a, cfg.block) - a for a in (fp, q))),
                         np.max(np.abs(swm.block_projector(cfg.block) - half)))

    half = "self-dual" if cfg.block == "+" else "anti-self-dual"
    _timed(rep, "sw-quadratic-identity", "|Q(psi)|^2 = |psi|^4 / 8", 1e-10,
           lambda: swm.quadratic_identity_residual(swm.spinor_at(cfg, pts)[0]))
    _timed(rep, "sw-self-dual-projector",
           f"F{cfg.block} = (1 {cfg.block} star) F / 2 is a fixed "
           f"point; Q(psi) is {half} on the {cfg.block} block", 1e-12, self_dual_projector)
    _timed(rep, "sw-functional-gap",
           "equation form equals Weitzenbock form of the functional",
           SW_FUNCTIONAL_GAP_TOL, lambda: swm.sw_functional(cfg)["relative_gap"])
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
    if samples < 1:
        raise SuiteUsageError(f"samples must be at least 1, got {samples}")
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
