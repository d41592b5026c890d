"""Verification suites: each runs a family of identities over sampled points."""

from __future__ import annotations

import time
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations
from typing import Callable, Dict, List, Optional

import numpy as np

from . import bundles as bnd
from . import seiberg_witten as swm
from . import spin as sp
from .charts import MetricJet, get_chart, metric_jet
from .clifford import (blade_tables, chirality, clifford_product, contract,
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
from .jets import Jet, relative, relative_gap, sample_max
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


class _Run:
    """One chart suite's setup: the chart, the seeded generator, the sample
    points (drawn before any field), the report, and the metric jets at every
    point (``mj``) and at the first max(4, P // 4) points, where the costlier
    checks run (``head``)."""

    def __init__(self, suite: str, chart: str, seed: int, samples: int):
        self.ch = get_chart(chart)
        self.n = self.ch.n
        self.rng = np.random.default_rng(seed)
        self.xs = np.array([self.ch.sample_point(self.rng) for _ in range(samples)])
        self.rep = VerificationReport(suite, chart, seed, samples)
        self.check = partial(_timed, self.rep)

    @cached_property
    def mj(self) -> MetricJet:
        return metric_jet(self.ch, self.xs)

    @cached_property
    def head(self) -> MetricJet:
        few = max(4, len(self.xs) // 4)
        return self.mj if few >= len(self.xs) else metric_jet(self.ch, self.xs[:few])

    def draws(self, make: Callable, per: int = 1,
              at: Optional[np.ndarray] = None) -> List[tuple]:
        """``per`` draws of the tuple ``make(rng)`` at each point of ``at``
        (the sample points unless given), points outermost.  Draw k of every
        point is one stack: a field of the tuple becomes one 2-jet at ``at``,
        a plain number one array."""
        at = self.xs if at is None else at
        rows = [[make(self.rng) for _ in range(per)] for _ in at]
        return [tuple(PolyField.stack(col).eval(at, 2) if isinstance(col[0], PolyField)
                      else np.array(col) for col in zip(*(r[k] for r in rows)))
                for k in range(per)]


def _samples_amax(*arrays) -> np.ndarray:
    """Per sample (axis 0), the largest entry magnitude over the arrays given."""
    return reduce(np.maximum, (sample_max(a, 1) for a in arrays))


def _mixed_form_field(rng, n: int) -> PolyField:
    """A complex form of every degree, drawn degree by degree as the pure
    forms of ``random_poly_form`` are, in one draw."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    return random_poly_field(rng, n, (1 << n,), complex_coeffs=True, masks=tuple(masks))


# ---------------------------------------------------------------------------
# cartan
# ---------------------------------------------------------------------------


def cartan_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    run = _Run("cartan", chart, seed, samples)
    n = run.n

    def fields(rng):
        p = int(rng.integers(0, n + 1))
        return (_mixed_form_field(rng, n), _mixed_form_field(rng, n),
                random_poly_vector(rng, n), random_poly_vector(rng, n),
                random_poly_form(rng, n, p, complex_coeffs=True), p)

    # every check runs once over the stack of (point, draw) samples
    (a, b, X, Y, pure, p), = run.draws(fields, at=np.repeat(run.xs, JETS_PER_POINT, 0))
    sign = (-1.0) ** p

    def d_squared():
        return relative(_samples_amax(exterior_derivative(exterior_derivative(a)).val),
                        _samples_amax(a.val, a.d, a.dd))

    def leibniz():
        lhs = exterior_derivative(wedge_forms(pure, b))
        rhs = (wedge_forms(exterior_derivative(pure), b)
               + wedge_forms(pure, exterior_derivative(b)).scale(sign))
        return relative_gap(lhs.val, rhs.val)

    def lie_d_commute():
        return relative_gap(lie_derivative(X, exterior_derivative(a)).val,
                            exterior_derivative(lie_derivative(X, a)).val)

    def iota_square():
        ax, ay, aa = (_samples_amax(j.val) for j in (X, Y, a))
        sq = _samples_amax(iota_vector(X, iota_vector(X, a)).val)
        anti = _samples_amax((iota_vector(X, iota_vector(Y, a))
                              + iota_vector(Y, iota_vector(X, a))).val)
        return np.maximum(relative(sq, ax ** 2 * aa), relative(anti, ax * ay * aa))

    def commutator_gap(lhs, t1, t2):
        """lhs = t1 - t2, relative to lhs and t1."""
        return relative(_samples_amax(lhs.val - (t1 - t2).val), _samples_amax(lhs.val),
                        _samples_amax(t1.val))

    def lie_leibniz():
        return relative_gap(lie_derivative(X, wedge_forms(a, b)).val,
                            (wedge_forms(lie_derivative(X, a), b)
                             + wedge_forms(a, lie_derivative(X, b))).val)

    run.check("cartan-d-squared", "d(d(a)) = 0", 1e-10, d_squared)
    run.check("cartan-leibniz", "d(a^b) = da^b + (-1)^p a^db", 1e-10, leibniz)
    run.check("cartan-lie-d-commute", "L_X(da) = d(L_X a)", 1e-10, lie_d_commute)
    run.check("cartan-iota-nilpotent",
              "i_X i_X a = 0 and i_X i_Y + i_Y i_X = 0", 1e-10, iota_square)
    run.check("cartan-lie-bracket", "L_[X,Y] = L_X L_Y - L_Y L_X", 1e-10,
              lambda: commutator_gap(lie_derivative(vector_bracket(X, Y), a),
                                     lie_derivative(X, lie_derivative(Y, a)),
                                     lie_derivative(Y, lie_derivative(X, a))))
    run.check("cartan-iota-bracket", "i_[X,Y] = L_X i_Y - i_Y L_X", 1e-10,
              lambda: commutator_gap(iota_vector(vector_bracket(X, Y), a),
                                     lie_derivative(X, iota_vector(Y, a)),
                                     iota_vector(Y, lie_derivative(X, a))))
    run.check("cartan-lie-leibniz", "L_X(a^b) = L_X a^b + a^L_X b", 1e-10,
              lie_leibniz)
    return run.rep


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------


def clifford_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    run = _Run("clifford", chart, seed, samples)
    n, dim, rng, mj = run.n, 1 << run.n, run.rng, run.mj
    table = product_table(mj.g_inv)                 # (P, 2^n, 2^n, 2^n)
    product = partial(clifford_product, table=table)
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

    def norm(x):
        return np.linalg.norm(x, axis=-1)

    def generator_relation():
        u, v = cu @ embed, cv @ embed
        uv = product(u, v)
        acc = uv + product(v, u)
        acc[..., 0] += 2.0 * np.sum((cu @ mj.g_inv) * cv, axis=-1)
        return relative(norm(acc), norm(uv))

    def roundtrip():
        # the operator side is built without the table: A = sum_M a_M times
        # the ordered word gamma^{i_1}...gamma^{i_k} of the generators
        # eps_i - g^ij iota_j, so a wrong table cannot agree with it
        eps, iota = blade_tables(n)
        gam = eps - contract(mj.g_inv, iota)        # (P, n, 2^n, 2^n)
        words = [np.broadcast_to(np.eye(dim), (samples, dim, dim))]
        for mask in range(1, dim):
            words.append(gam[:, (mask & -mask).bit_length() - 1] @ words[mask & (mask - 1)])
        ops = np.einsum("pm,mpij->pij", a, np.array(words))
        frob = partial(np.linalg.norm, axis=(-2, -1))
        return np.maximum(relative(norm(symbol(quantize(w, table)) - w), norm(w)),
                          relative(frob(quantize(symbol(ops), table) - ops), frob(ops)))

    def associativity():
        lhs, rhs = product(product(a1, a2), a3), product(a1, product(a2, a3))
        return relative(norm(lhs - rhs), norm(lhs), norm(rhs))

    def chirality_relations():
        if n % 2:
            return 0.0
        g = chirality(mj.g_inv)
        return np.maximum(norm(product(g, g) - np.eye(dim)[0]),
                          norm(product(g, chiral) + product(chiral, g)))

    run.check("clifford-generator-relation",
              "c(u)c(v) + c(v)c(u) = -2(u,v)", 1e-12, generator_relation)
    run.check("clifford-vacuum-symbol",
              "q(w) acting on the vacuum returns w", 1e-12,
              lambda: np.max(np.abs(vacuum @ table[..., 0] - vacuum), axis=-1))
    run.check("clifford-symbol-roundtrip",
              "symbol(quantize(w)) = w and quantize(symbol(a)) = a", 1e-12,
              roundtrip)
    run.check("clifford-associativity", "(ab)c = a(bc)", 1e-12, associativity)
    run.check("clifford-chirality",
              "G^2 = 1 and G c(v) + c(v) G = 0 (even n)", 1e-12,
              chirality_relations)
    run.check("clifford-module-invariants",
              "coordinate gammas satisfy the metric relation with exact jets",
              1e-12, lambda: bnd.module_invariant_residual(bnd.exterior_module(n), mj))
    return run.rep


# ---------------------------------------------------------------------------
# levi-civita
# ---------------------------------------------------------------------------


def levi_civita_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    run = _Run("levi-civita", chart, seed, samples)
    n = run.n
    cd = curvature_data(run.mj)
    mj, gam, low = cd.mj, cd.christoffel, cd.lowered

    def divergence_routes():
        return [np.abs(divergence_via_density(mj, X.val, X.d)
                       - divergence_via_connection(mj, gam, X.val, X.d))
                for (X,) in run.draws(lambda r: (random_poly_vector(r, n),),
                                      per=JETS_PER_POINT)]

    run.check("levi-civita-metric-compatibility", "nabla g = 0", 1e-9,
              lambda: _samples_amax(mj.dg - np.einsum("pmli,pmj->plij", gam, mj.g)
                                    - np.einsum("pmlj,pim->plij", gam, mj.g)))
    run.check("levi-civita-torsion-free", "Gamma^k_ij = Gamma^k_ji", 1e-12,
              lambda: _samples_amax(gam - gam.transpose(0, 1, 3, 2)))
    run.check("levi-civita-curvature-symmetries", "R_ijkl = -R_jikl = -R_ijlk = R_klij",
              1e-9, lambda: _samples_amax(low + low.transpose(0, 2, 1, 3, 4),
                                          low + low.transpose(0, 1, 2, 4, 3),
                                          low - low.transpose(0, 3, 4, 1, 2)))
    run.check("levi-civita-first-bianchi", "R_i[jkl] cyclic sum = 0", 1e-9, lambda:
              _samples_amax(low + low.transpose(0, 1, 3, 4, 2) + low.transpose(0, 1, 4, 2, 3)))
    run.check("levi-civita-curvature-two-form", "[S_ij, dx^k] recovers R^l_kij dx^l",
              1e-9, lambda: curvature_two_form_residual(mj, cd))
    run.check("levi-civita-divergence-routes",
              "density route equals connection route for div X", 1e-9,
              divergence_routes)
    run.check("levi-civita-log-det",
              "d_k log sqrt|g| = Gamma^i_ik and d_l d_k log sqrt|g| = d_l Gamma^i_ik",
              1e-9, lambda: log_det_identity_residual(mj, gam))
    if chart in SCALAR_REFERENCE:
        ref = SCALAR_REFERENCE[chart]
        run.check("levi-civita-scalar-reference",
                  f"scalar curvature equals {ref:g} on {chart}", 1e-7,
                  lambda: np.abs(cd.scalar - ref))
    return run.rep


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
    run = _Run("laplacian", chart, seed, samples)
    n, xs, mj = run.n, run.xs, run.mj
    ms = bnd.exterior_module(n)
    m = ms.m
    # D^2 and its coefficient jets read A and Z to first order
    H = bnd.laplacian_from_dirac(bnd.quantize_superconnection(
        _superconnections(ms, n, samples, seed), mj, ms, xs, order=1), mj)

    def section(rng):
        return (bnd.random_poly_section(rng, n, m),)

    def decompose_roundtrip():
        A, F = bnd.laplacian_decompose(H, mj)
        H2 = bnd.laplacian_from_connection(A, F, mj, xs)
        return [relative_gap(H.apply(j), H2.apply(j)) for (j,) in run.draws(section, per=3)]

    def canonical_routes():
        A = bnd.levi_civita_exterior_connection(mj)
        return [relative_gap(bnd.canonical_laplacian(A, mj, j, route="local"),
                             bnd.canonical_laplacian(A, mj, j, route="trace"))
                for (j,) in run.draws(section, per=3)]

    def scalar_reduction():
        zero = Jet.constant(np.zeros((n, 1, 1)), xs)
        out = []
        for (f,) in run.draws(lambda r: (random_poly_scalar(r, n, 3, complex_coeffs=True),),
                              per=3):
            want = laplace_beltrami(f, mj)
            out.append(relative(np.abs(bnd.canonical_laplacian(zero, mj, f[None])[:, 0] - want),
                                np.abs(want)))
        return out

    run.check("laplacian-defining-identity", "[[H, x^k], x^l] + 2 g^kl = 0", 1e-9,
              lambda: bnd.lap_identity_residual(H.apply, mj, xs, m))
    run.check("laplacian-decompose-roundtrip",
              "decompose then reassemble reproduces H", 1e-9, decompose_roundtrip)
    run.check("laplacian-canonical-routes",
              "local route equals trace route for the connection Laplacian",
              1e-10, canonical_routes)
    run.check("laplacian-scalar-reduction",
              "rank-1 connection Laplacian equals the scalar Laplacian", 1e-10,
              scalar_reduction)
    return run.rep


# ---------------------------------------------------------------------------
# superconnection
# ---------------------------------------------------------------------------


def superconnection_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    run = _Run("superconnection", chart, seed, samples)
    n, xs, mj = run.n, run.xs, run.mj
    ms = bnd.exterior_module(n)
    m = ms.m
    # the affine and later checks run on the first few points
    head = run.head
    hx, few = head.x, len(head.x)
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
        (j,), = run.draws(lambda r: (bnd.random_poly_section(r, n, m),), at=hx)
        jc = Jet(hx, j.val, np.zeros_like(j.d), np.zeros_like(j.dd))
        d1, d2 = bnd.apply_dirac(D1, j), bnd.apply_dirac(D2, j)
        rhs = bnd.apply_dirac(D1, jc) - bnd.apply_dirac(D2, jc)
        return relative(_samples_amax(d1 - d2 - rhs), _samples_amax(d1), _samples_amax(d2))

    def special_predicate():
        # trial t < 30 has base seed seed + t and a degree-2 part only when t
        # is odd, constant when t = 1 mod 4; one stack per kind of trial
        kinds = (({}, np.arange(0, 30, 2)), ({2: "constant"}, np.arange(1, 30, 4)),
                 ({2: "random"}, np.arange(3, 30, 4)))
        return float(sum(np.sum(bnd.is_special_superconnection(
            bnd.superconnection_from_degrees(n, m, ms.eta, {0: "random", 1: "random"} | top,
                                             seed + trials), xs[:6])[0] != (not top))
            for top, trials in kinds))

    def curvature_dual():
        S = _superconnections(ms, n, few, seed)
        FS = bnd.superconnection_curvature(S, hx)
        # ID applied twice to a 2-jet reads omega to first order only
        omega = S.eval_blades(hx, order=1)
        # one section per blade 0..k-1, drawn in blade order
        k = min(1 << n, 8)
        (fs,), = run.draws(lambda r: (random_poly_field(
            r, n, (k, m), complex_coeffs=True, masks=tuple(range(k))),), at=hx)
        twice = bnd.apply_superconnection(omega, bnd.apply_superconnection(omega, fs))
        direct = bnd.apply_form_endomorphism(FS, fs)
        return relative(*(np.sqrt(np.sum(np.abs(t.val) ** 2, axis=(1, 2))) for t in
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

    run.check("superconnection-parity", "odd blades need odd coefficients",
              0.5, parity_enforced)
    run.check("superconnection-dirac-commutator", "[D, f] = c(df)", DIRAC_COMMUTATOR_TOL,
              lambda: [bnd.dirac_commutator_residual(D, f, j)[1] for f, j in run.draws(
                  lambda r: (random_poly_scalar(r, n, 2, complex_coeffs=True),
                             bnd.random_poly_section(r, n, m)), per=3)])
    run.check("superconnection-affine",
              "D_1 - D_2 is multiplication by the coefficient difference", 1e-11,
              affine_multiplication)
    run.check("superconnection-special-predicate",
              "degree >= 2 components vanish iff classified special", 0.5,
              special_predicate)
    run.check("superconnection-curvature-dual",
              "ID^2 equals the assembled curvature endomorphism", 1e-10,
              curvature_dual)
    run.check("superconnection-kernel-projector",
              "c(omega) = -n id, p^2 = p, trace p = fiber rank", 1e-11,
              kernel_projector)
    run.check("superconnection-twisting",
              "twisting curvature lands in the supercommutant", 1e-9, twisting)
    return run.rep


# ---------------------------------------------------------------------------
# lichnerowicz
# ---------------------------------------------------------------------------


def lichnerowicz_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    ch = get_chart(chart)
    if ch.n % 2:
        raise SuiteUsageError(f"spinor checks need even dimension, chart {chart} "
                              f"has n={ch.n}")
    if not ch.riemannian:
        raise SuiteUsageError(f"spinor checks need a Riemannian chart, not {chart}")
    run = _Run("lichnerowicz", chart, seed, samples)
    n, mj = run.n, run.mj
    smd = sp.spin_module_data(n)
    (a_jets,), = run.draws(lambda r: (sp.imaginary_poly_potential(r, n),))
    fr = sp.build_frame_from_metric(mj)
    scd = sp.build_spin_connection(fr, smd, mj, a_jets)
    # the chirality and connection-difference checks run on the first few points
    head, fr_h, a_h, scd_h = run.head, fr, a_jets, scd
    if head is not mj:
        fr_h = sp.build_frame_from_metric(head)
        a_h = Jet(head.x, *(t[:len(head.x)] for t in (a_jets.val, a_jets.d, a_jets.dd)))
        scd_h = sp.build_spin_connection(fr_h, smd, head, a_h)

    def spinor(rng):
        return (bnd.random_poly_section(rng, n, smd.dim),)

    def conformal_closed_form():
        if ch.kind != "conformal":
            return 0.0
        return [relative_gap(sp.spin_dirac(scd, smd, fr, mj, j),
                             sp.conformal_dirac(ch, a_jets, smd, j))
                for (j,) in run.draws(spinor)]

    def connection_difference():
        (b_jets,), = run.draws(lambda r: (sp.imaginary_poly_potential(r, n),), at=head.x)
        scd2 = sp.build_spin_connection(fr_h, smd, head, b_jets)
        want = 0.5 * (a_h.val - b_jets.val)[..., None, None] * np.eye(smd.dim)
        return _samples_amax(scd_h.omega.val - scd2.omega.val - want)

    run.check("lichnerowicz-frame-invariants",
              "frame is orthonormal, dual, and reconstructs the metric", 1e-10,
              lambda: sp.frame_invariant_residual(fr, mj))
    run.check("lichnerowicz-dirac-dual-route",
              "generic assembly equals the 1-form/3-form route", 1e-10,
              lambda: [relative_gap(sp.spin_dirac(scd, smd, fr, mj, j),
                                    sp.spin_dirac_alpha(scd, smd, fr, j))
                       for (j,) in run.draws(spinor, per=3)])
    run.check("lichnerowicz-conformal-closed-form",
              "rescaling closed form equals the generic assembly", 1e-9,
              conformal_closed_form)
    run.check("lichnerowicz-weitzenbock", "D_A^2 = lap + r/4 + q(dA)/2", 1e-7,
              lambda: [sp.lichnerowicz_residual(scd, smd, fr, mj, j)
                       for (j,) in run.draws(spinor, per=3)])
    run.check("lichnerowicz-chirality",
              "chirality anticommutes with c(dx) and commutes with the connection",
              1e-11, lambda: reduce(np.maximum, sp.chirality_action_checks(
                  smd, fr_h, head, scd_h).values()))
    run.check("lichnerowicz-connection-difference",
              "two connections differ by half the potential difference", 1e-12,
              connection_difference)
    return run.rep


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------


def hodge_suite(chart: str, seed: int, samples: int) -> VerificationReport:
    run = _Run("hodge", chart, seed, samples)
    n, mj, head = run.n, run.mj, run.head

    def degree_forms(degs, per: int = 1):
        """Draws ``per`` complex forms of each degree in degs."""
        return lambda r: tuple(random_poly_form(r, n, p, complex_coeffs=True)
                               for p in degs for _ in range(per))

    def double_star():
        out = []
        for p, a in enumerate(run.draws(degree_forms(range(n + 1)))[0]):
            twice = hodge_star(hodge_star(a, mj), mj)
            want = a.val * ((-1.0) ** (p * (n - p)) * np.sign(mj.det))[:, None]
            out.append(relative(_samples_amax(twice.val - want), _samples_amax(a.val)))
        return out

    def antilinear():
        (a, c), = run.draws(lambda r: (random_poly_form(r, n, 1, complex_coeffs=True),
                                       complex(r.normal(), r.normal())), at=head.x)
        lhs = hodge_star(a.scale(c), head)
        rhs = hodge_star(a, head).scale(np.conj(c))
        return relative(_samples_amax(lhs.val - rhs.val), _samples_amax(lhs.val))

    def pairing():
        out = []
        top = (1 << n) - 1
        vol = volume_form(head, head.x).val[:, top]
        fs, = run.draws(degree_forms(range(n + 1), per=2), at=head.x)
        for a, b in zip(fs[::2], fs[1::2]):
            got = wedge_forms(a, hodge_star(b, head)).val[:, top]
            want = np.conj(gram_pairing(a, b, head)) * vol
            out.append(relative(np.abs(got - want), np.abs(want)))
        return out

    # the star route needs pure-degree input, so these draws loop over p

    def coderivative_dual():
        return [relative_gap(coderivative_hodge(a, mj).val, coderivative_connection(a, mj).val)
                for a in run.draws(degree_forms(range(1, n + 1)))[0]]

    def coderivative_squared():
        out = []
        for p, a in enumerate(run.draws(degree_forms(range(n + 1)))[0]):
            jetnorm = _samples_amax(a.val, a.d, a.dd)
            if p >= 2:
                twice = coderivative_hodge(coderivative_hodge(a, mj), mj)
                out.append(relative(_samples_amax(twice.val), jetnorm))
            out.append(relative(_samples_amax(
                exterior_derivative(exterior_derivative(a)).val), jetnorm))
        return out

    def dirac_square():
        return [relative_gap(forms_dirac(forms_dirac(a, head), head).val,
                             (exterior_derivative(coderivative_connection(a, head))
                              + coderivative_connection(exterior_derivative(a), head)).val)
                for a in run.draws(degree_forms(range(n + 1)), at=head.x)[0]]

    run.check("hodge-double-star",
              "star(star(a)) = (-1)^p(n-p) sign(det g) a", 1e-11, double_star)
    run.check("hodge-antilinear", "star(c a) = conj(c) star(a)", 1e-12,
              antilinear)
    run.check("hodge-pairing", "a ^ star(b) = conj((a, b)) vol", 1e-10,
              pairing)
    run.check("hodge-coderivative-dual",
              "star route equals connection route for the coderivative", 1e-9,
              coderivative_dual)
    run.check("hodge-nilpotency", "d d = 0 and del del = 0", 1e-11,
              coderivative_squared)
    run.check("hodge-dirac-square", "(d + del)^2 = d del + del d", 1e-10,
              dirac_square)
    return run.rep


# ---------------------------------------------------------------------------
# sw
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _levi_civita_star() -> np.ndarray:
    """star F on the pairs j < k of R^4 read from eps_abcd, the determinant of
    the rows a, b, c, d of the identity: an oracle apart from ``swm._STAR``."""
    pairs = list(combinations(range(4), 2))
    star = np.array([[np.linalg.det(np.eye(4)[[*p, *q]]) for q in pairs] for p in pairs])
    star.setflags(write=False)
    return star


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
        # projector is (1 +- star) / 2
        half = 0.5 * (np.eye(6) + (1.0 if cfg.block == "+" else -1.0) * _levi_civita_star())
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
        if sw_config is not None:
            raise SuiteUsageError(f"the {name} suite takes no monopole configuration "
                                  f"(--config is for the sw and all suites)")
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
