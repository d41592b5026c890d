"""Verification suites: each runs a family of identities over sampled points."""

from __future__ import annotations

import time
from dataclasses import replace
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations
from typing import Callable, Dict, Optional, Union

import numpy as np

from . import bundles as bnd
from . import seiberg_witten as swm
from . import spin as sp
from .charts import Chart, MetricJet, get_chart, metric_jet
from .clifford import (blade_tables, chirality, clifford_product, contract, grades,
                       product_table, quantize, symbol)
from .curvature import (curvature_two_form_residual, divergence_via_connection,
                        divergence_via_density, log_det_identity_residual)
from .forms import (FieldLayout, PolyField, exterior_derivative,
                    gram_pairing, hodge_star, coderivative_connection,
                    coderivative_hodge, forms_dirac, iota_vector,
                    laplace_beltrami, lie_derivative, poly_fields,
                    vector_bracket, volume_form, wedge_forms)
from .jets import Jet, frozen, relative, relative_gap, sample_max
from .report import VerificationReport

JETS_PER_POINT = 10

# tolerance of the [D, f] = c(df) check, shared with ``diracgeo dirac``
DIRAC_COMMUTATOR_TOL = 1e-10

# tolerance of the relative gap between the two monopole functional forms,
# shared with ``diracgeo sw``
SW_FUNCTIONAL_GAP_TOL = 1e-6


class SuiteUsageError(ValueError):
    """Suite invoked with an incompatible chart or missing configuration."""


def _timed(rep: VerificationReport, cid: str, identity: str, tol: float,
           fn: Callable[[], float]) -> None:
    """Run one check; it returns its residual, or the residuals of every
    sample and draw, of which the largest is reported."""
    t0 = time.perf_counter()
    resid = float(np.max(fn()))
    rep.add(cid, identity, resid, tol, time.perf_counter() - t0)


class _Points:
    """A chart's sample points, drawn first from the generator of ``seed``, its
    state after them, and the read-only metric jets at every point (``mj``)
    and at the first max(4, P // 4), where the costlier checks run (``head``),
    built on first use.  ``run_suite("all")`` shares one among its sub-suites."""

    def __init__(self, chart: Chart, seed: int, samples: int):
        self.ch, self.seed = chart, seed
        rng = np.random.default_rng(seed)
        self.xs = np.array([self.ch.sample_point(rng) for _ in range(samples)])
        self.after = rng.bit_generator.state

    @cached_property
    def mj(self) -> MetricJet:
        return metric_jet(self.ch, self.xs)

    @cached_property
    def head(self) -> MetricJet:
        few = max(4, len(self.xs) // 4)
        return self.mj if few >= len(self.xs) else metric_jet(self.ch, self.xs[:few])


class _Run:
    """One chart suite's setup: the report, the points and jets of ``pts``, and
    a generator at the state after the points."""

    def __init__(self, suite: str, pts: _Points):
        self.pts, self.ch, self.n, self.xs, self.seed = pts, pts.ch, pts.ch.n, pts.xs, pts.seed
        self.rng = np.random.default_rng(pts.seed)
        self.rng.bit_generator.state = pts.after
        self.rep = VerificationReport(suite, pts.ch.name, pts.seed, len(pts.xs))
        self.check = partial(_timed, self.rep)

    mj = property(lambda self: self.pts.mj)
    head = property(lambda self: self.pts.head)

    def draws(self, layouts, per: int = 1, at: Optional[np.ndarray] = None,
              order: int = 2) -> list:
        """``per`` draws of the fields of ``layouts`` at each point of ``at`` (the
        sample points unless given) in one uniform call, in the order of a
        per-point loop of ``random_poly_field``: one jet per layout, its fiber
        followed by an axis of ``per`` columns, draw k in column k, evaluated
        to order 2 and carrying the ``order`` orders its check reads."""
        at = self.xs if at is None else at
        u = self.rng.uniform(-1.0, 1.0, (len(at) * per, sum(lay.size for lay in layouts)))
        # one field over the (point, draw) rows, the draw axis moved last
        return [replace(f, coeffs=np.moveaxis(f.coeffs.reshape(
            (len(at), per) + f.coeffs.shape[1:]), 1, -1)).eval(at, 2).truncate(order)
            for f in poly_fields(u, layouts)]


# ---------------------------------------------------------------------------
# cartan
# ---------------------------------------------------------------------------


def _cartan_fields(run: _Run, at: np.ndarray) -> tuple:
    """Per row of ``at``, as a per-row loop of ``random_poly_field`` draws them:
    the degree p of a pure form, then one block for two forms of every
    degree, two vector fields and that pure form.  Each field is one 2-jet
    at ``at``, p one array."""
    n, rng = run.n, run.rng
    mixed = FieldLayout(n, (1 << n,), complex_coeffs=True, masks=tuple(
        sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))))
    layouts = (mixed, mixed, FieldLayout(n, (n,)), FieldLayout(n, (n,)))
    pure_forms = [FieldLayout.form(n, q, True) for q in range(n + 1)]
    size, p, rows = sum(lay.size for lay in layouts), np.zeros(len(at), dtype=np.int64), []
    for i in range(len(at)):
        p[i] = rng.integers(0, n + 1)
        rows.append(rng.uniform(-1.0, 1.0, size + pure_forms[p[i]].size))
    fields = poly_fields(np.array([r[:size] for r in rows]), layouts)
    # the pure forms, one stack per degree, spread onto the blade axis
    exps = fields[0].exponents
    pure = np.zeros((len(at), len(exps), 1 << n), dtype=complex)
    for deg in set(p.tolist()):
        take = np.flatnonzero(p == deg)
        pure[take] = poly_fields(np.array([rows[i][size:] for i in take]),
                                 [pure_forms[deg]])[0].on_blade_axis().coeffs
    fields.append(PolyField(n, exps, pure))
    return tuple(f.eval(at, 2) for f in fields) + (p,)


def cartan_suite(pts: _Points) -> VerificationReport:
    run = _Run("cartan", pts)
    # every check runs once over the stack of (point, draw) samples
    a, b, X, Y, pure, p = _cartan_fields(run, np.repeat(run.xs, JETS_PER_POINT, 0))
    sign = (-1.0) ** p
    # a check reads its inputs to the orders its derivatives consume
    a1, b1, X1, Y1, pure1 = (j.truncate(1) for j in (a, b, X, Y, pure))
    a0, X0, Y0 = (j.truncate(0) for j in (a, X, Y))

    def d_squared():
        return relative(sample_max(exterior_derivative(exterior_derivative(a)).val),
                        sample_max(a.val, a.d, a.dd))

    def leibniz():
        lhs = exterior_derivative(wedge_forms(pure1, b1))
        rhs = (wedge_forms(exterior_derivative(pure1), b1)
               + wedge_forms(pure1, exterior_derivative(b1)).scale(sign))
        return relative_gap(lhs.val, rhs.val)

    def lie_d_commute():
        return relative_gap(lie_derivative(X, exterior_derivative(a)).val,
                            exterior_derivative(lie_derivative(X, a)).val)

    def iota_square():
        ax, ay, aa = (sample_max(j.val) for j in (X0, Y0, a0))
        sq = sample_max(iota_vector(X0, iota_vector(X0, a0)).val)
        anti = sample_max((iota_vector(X0, iota_vector(Y0, a0))
                           + iota_vector(Y0, iota_vector(X0, a0))).val)
        return np.maximum(relative(sq, ax ** 2 * aa), relative(anti, ax * ay * aa))

    def commutator_gap(lhs, t1, t2):
        """lhs = t1 - t2, relative to lhs and t1."""
        return relative(sample_max(lhs.val - (t1 - t2).val), sample_max(lhs.val, t1.val))

    def lie_leibniz():
        return relative_gap(lie_derivative(X1, wedge_forms(a1, b1)).val,
                            (wedge_forms(lie_derivative(X1, a1), b1)
                             + wedge_forms(a1, lie_derivative(X1, b1))).val)

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
              lambda: commutator_gap(iota_vector(vector_bracket(X1, Y1), a1),
                                     lie_derivative(X1, iota_vector(Y1, a1)),
                                     iota_vector(Y1, lie_derivative(X1, a1))))
    run.check("cartan-lie-leibniz", "L_X(a^b) = L_X a^b + a^L_X b", 1e-10,
              lie_leibniz)
    return run.rep


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------


def clifford_suite(pts: _Points) -> VerificationReport:
    run = _Run("clifford", pts)
    n, dim, rng, mj, samples = run.n, 1 << run.n, run.rng, run.mj, len(run.xs)
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

    # the terms of q(w) that cancel to its symbol are of size |w| |g^-1|
    ginv = sample_max(mj.g_inv)

    def generator_relation():
        u, v = cu @ embed, cv @ embed
        uv = product(u, v)
        acc = uv + product(v, u)
        acc[..., 0] += 2.0 * np.sum((cu @ mj.g_inv) * cv, axis=-1)
        return relative(norm(acc), norm(uv))

    # the generators eps_i - g^ij iota_j, (P, n, 2^n, 2^n), built without the table
    eps, iota = blade_tables(n)
    gam = eps - contract(mj.g_inv, iota)

    def words(gam):
        """The ordered word gamma^{i_1}...gamma^{i_k} of every blade, (2^n, P, 2^n, 2^n)."""
        out = [np.broadcast_to(np.eye(dim), (samples, dim, dim))]
        for mask in range(1, dim):
            out.append(gam[:, (mask & -mask).bit_length() - 1] @ out[mask & (mask - 1)])
        return np.array(out)

    def roundtrip():
        # the operator side A = sum_M a_M times the word of M is built
        # without the table, so a wrong table cannot agree with it
        ops = np.einsum("pm,mpij->pij", a, words(gam))
        frob = partial(np.linalg.norm, axis=(-2, -1))
        return np.maximum(relative(norm(symbol(quantize(w, table)) - w), norm(w) * ginv),
                          relative(frob(quantize(symbol(ops), table) - ops), frob(ops)))

    def associativity():
        lhs, rhs = product(product(a1, a2), a3), product(a1, product(a2, a3))
        # the terms that cancel, in the table's recursion too, grow with powers of
        # |g^-1|: both products on magnitudes, the table the words of |gamma|
        mag = partial(clifford_product, table=np.moveaxis(words(np.abs(gam)), 0, 1))
        b1, b2, b3 = np.abs([a1, a2, a3])
        return relative(norm(lhs - rhs), norm(lhs), norm(rhs), norm(mag(mag(b1, b2), b3)),
                        norm(mag(b1, mag(b2, b3))))

    def chirality_relations():
        if n % 2:
            return 0.0
        # G has size |det g|^(1/2); the terms of G^2 that cancel to its lower
        # blades are of size |G|^2 |g^-1|^(n/2)
        g = chirality(mj.g_inv)
        gc, cg = product(g, chiral), product(chiral, g)
        cancel = norm(g) ** 2 * ginv ** (n // 2)
        return np.maximum(relative(norm(product(g, g) - np.eye(dim)[0]), cancel),
                          relative(norm(gc + cg), norm(gc), norm(cg)))

    run.check("clifford-generator-relation",
              "c(u)c(v) + c(v)c(u) = -2(u,v)", 1e-12, generator_relation)
    run.check("clifford-vacuum-symbol",
              "q(w) acting on the vacuum returns w", 1e-12,
              lambda: relative(sample_max((vacuum @ table[..., 0] - vacuum).swapaxes(1, 2),
                                          cols=True),
                               sample_max(vacuum.swapaxes(1, 2), cols=True) * ginv[:, None]))
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


def levi_civita_suite(pts: _Points) -> VerificationReport:
    run = _Run("levi-civita", pts)
    n, mj = run.n, run.mj
    gam, low = mj.christoffel, mj.lowered

    def divergence_routes():
        # column by column: one product over all columns rounds differently
        X, = run.draws([FieldLayout(n, (n,))], per=JETS_PER_POINT)
        return [np.abs(divergence_via_density(mj, Xk) - divergence_via_connection(mj, Xk))
                for Xk in (X[..., k] for k in range(JETS_PER_POINT))]

    def metric_compatibility():
        terms = (mj.dg, np.einsum("pmli,pmj->plij", gam, mj.g),
                 np.einsum("pmlj,pim->plij", gam, mj.g))
        return relative(sample_max(terms[0] - terms[1] - terms[2]), sample_max(*terms))

    # d g, Gamma g and R_ijkl grow with the metric: each identity is read
    # relative to its terms
    run.check("levi-civita-metric-compatibility", "nabla g = 0", 1e-9, metric_compatibility)
    run.check("levi-civita-torsion-free", "Gamma^k_ij = Gamma^k_ji", 1e-12,
              lambda: sample_max(gam - gam.transpose(0, 1, 3, 2)))
    run.check("levi-civita-curvature-symmetries", "R_ijkl = -R_jikl = -R_ijlk = R_klij",
              1e-9, lambda: relative(sample_max(low + low.transpose(0, 2, 1, 3, 4),
                                                low + low.transpose(0, 1, 2, 4, 3),
                                                low - low.transpose(0, 3, 4, 1, 2)),
                                     sample_max(low)))
    run.check("levi-civita-first-bianchi", "R_i[jkl] cyclic sum = 0", 1e-9, lambda: relative(
        sample_max(low + low.transpose(0, 1, 3, 4, 2) + low.transpose(0, 1, 4, 2, 3)),
        sample_max(low)))
    run.check("levi-civita-curvature-two-form", "[S_ij, dx^k] recovers R^l_kij dx^l",
              1e-9, lambda: curvature_two_form_residual(mj))
    run.check("levi-civita-divergence-routes",
              "density route equals connection route for div X", 1e-9,
              divergence_routes)
    run.check("levi-civita-log-det",
              "d_k log sqrt|g| = Gamma^i_ik and d_l d_k log sqrt|g| = d_l Gamma^i_ik",
              1e-9, lambda: log_det_identity_residual(mj))
    ref = run.ch.scalar
    if ref is not None:
        run.check("levi-civita-scalar-reference",
                  f"scalar curvature equals {ref:g} on {run.ch.name}", 1e-7,
                  lambda: np.abs(mj.scalar - ref))
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
        [base_seed + k for k in range(count)])   # Python ints: any base seed runs


def laplacian_suite(pts: _Points) -> VerificationReport:
    run = _Run("laplacian", pts)
    n, xs, mj = run.n, run.xs, run.mj
    ms, m = bnd.exterior_module(n), 1 << n
    # D^2 and its coefficient jets read A and Z to first order; S is not kept
    S = _superconnections(ms, n, len(xs), run.seed)
    H = bnd.laplacian_from_dirac(bnd.quantize_superconnection(S.eval(xs, 1), S.masks, mj, ms))
    del S

    section = [FieldLayout(n, (m,), complex_coeffs=True)]

    # each check applies every operator route once, to a block of three draws
    def decompose_roundtrip():
        A, F = bnd.laplacian_decompose(H)
        H2 = bnd.laplacian_from_connection(A, F, mj)
        j, = run.draws(section, per=3)
        # H2 psi = the Laplacian of A + F psi, each of size g^-1 A A: they cancel
        return relative_gap(H.apply(j), H2.apply(j), F @ j.val, cols=True)

    def canonical_routes():
        j, = run.draws(section, per=3)
        return relative_gap(*(bnd.canonical_laplacian(mj.exterior_connection, mj, j, route)
                              for route in ("local", "trace")), cols=True)

    def scalar_reduction():
        zero = Jet.constant(np.zeros((n, 1, 1)), xs)
        f, = run.draws([FieldLayout(n, (), 3, complex_coeffs=True)], per=3)
        want = laplace_beltrami(f, mj)
        return relative(np.abs(bnd.canonical_laplacian(zero, mj, f[None])[:, 0] - want),
                        np.abs(want))

    run.check("laplacian-defining-identity", "[[H, x^k], x^l] + 2 g^kl = 0", 1e-9,
              lambda: bnd.lap_identity_residual(H))
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


def superconnection_suite(pts: _Points) -> VerificationReport:
    run = _Run("superconnection", pts)
    n, xs, mj, seed = run.n, run.xs, run.mj, run.seed
    ms, m = bnd.exterior_module(n), 1 << n
    # the affine and later checks run on the first few points
    head = run.head
    hx, few = head.x, len(head.x)
    # the commutator check reads the operator's values only; S keeps D's first
    # few members, which the affine check quantizes without blade 0 and the
    # curvature check evaluates; D, D_1 and D_2 share ms's quantization maps
    S = _superconnections(ms, n, len(xs), seed)
    D = bnd.quantize_superconnection(S.eval(xs, 0), S.masks, mj, ms)
    S = S.select(range(few))

    def parity_enforced():
        eta, A, Z = ms.eta, D.A.val, D.Z.val
        # D's connection is even and its zero-order part odd, entry for entry
        bad = np.count_nonzero(eta @ A @ eta - A) + np.count_nonzero(eta @ Z @ eta + Z)
        for k in range(10):
            mat = bnd.random_parity_matrix(np.random.default_rng(seed + k), n,
                                           eta, -1, degree=1)
            try:
                bnd.SuperconnectionData(n, m, eta, {1: mat})
                bad += 1
            except bnd.ParityError:
                pass
        return float(bad)

    def affine_multiplication():
        S2 = _superconnections(ms, n, few, seed + 1000, {1: "random", 3: "constant"})
        D1 = bnd.quantize_superconnection(S.eval(hx, 0), [k for k in S.masks if k], head, ms)
        D2 = bnd.quantize_superconnection(S2.eval(hx, 0), S2.masks, head, ms)
        j, = run.draws([FieldLayout(n, (m,), complex_coeffs=True)], at=hx)
        # j and its constant copy as two columns, one operator call each
        pair = Jet(hx, np.concatenate([j.val] * 2, -1), np.concatenate([j.d, 0 * j.d], -1))
        (d1, c1), (d2, c2) = (np.moveaxis(bnd.apply_dirac(D, pair), -1, 0) for D in (D1, D2))
        return relative(sample_max(d1 - d2 - (c1 - c2)), sample_max(d1, d2))

    def special_predicate():
        # trial t < 30 has base seed seed + t and a degree-2 part only when t
        # is odd, constant when t = 1 mod 4; one stack per kind of trial.  At
        # n = 1 no blade has degree 2, so every trial is special
        kinds = (({}, range(0, 30, 2)), ({2: "constant"}, range(1, 30, 4)),
                 ({2: "random"}, range(3, 30, 4)))
        return float(sum(np.sum(bnd.is_special_superconnection(
            bnd.superconnection_from_degrees(n, m, ms.eta, {0: "random", 1: "random"} | top,
                                             [seed + t for t in trials]), xs[:6])[0]
            != (not top or n < 2)) for top, trials in kinds))

    def curvature_dual():
        # ID applied twice to a 2-jet, and its curvature, read omega to first order
        omega = S.eval(hx, order=1)
        FS = bnd.superconnection_curvature(omega)
        # one section per blade 0..k-1, drawn in blade order
        k = min(1 << n, 8)
        fs, = run.draws([FieldLayout(n, (k, m), complex_coeffs=True,
                                     masks=tuple(range(k)))], at=hx)
        fs = fs[..., 0]
        twice = bnd.apply_superconnection(omega, bnd.apply_superconnection(omega, fs))
        direct = bnd.apply_form_endomorphism(FS, fs)
        return relative(*(np.sqrt(np.sum(np.abs(t.val) ** 2, axis=(1, 2))) for t in
                          (twice - direct, twice, direct)))

    def kernel_projector():
        cmat, bmat, p = bnd.kernel_projector(head, ms)
        # c b = -c(omega) / n, so c b = 1 is c(omega) = -n id; each term that
        # cancels is a gamma times a lowered gamma
        return relative(np.maximum(sample_max(p @ p - p, cmat @ bmat - np.eye(m)),
                                   np.abs(np.real(np.trace(p, axis1=-2, axis2=-1)) - m)),
                        sample_max(cmat) * sample_max(n * bmat))

    def twisting():
        FE = bnd.connection_curvature(head.exterior_connection)
        try:
            return bnd.twisting_curvature(FE, head, ms.gammas(head))[1]
        except bnd.CliffordConnectionError:
            return 1.0

    run.check("superconnection-parity", "odd blades need odd coefficients",
              0.5, parity_enforced)
    run.check("superconnection-dirac-commutator", "[D, f] = c(df)", DIRAC_COMMUTATOR_TOL,
              lambda: bnd.dirac_commutator_residual(D, *run.draws(
                  [FieldLayout(n, (), complex_coeffs=True),
                   FieldLayout(n, (m,), complex_coeffs=True)], per=3, order=1))[1])
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


def lichnerowicz_suite(pts: _Points) -> VerificationReport:
    ch = pts.ch
    if ch.n % 2:
        raise SuiteUsageError(f"spinor checks need even dimension, chart {ch.name} "
                              f"has n={ch.n}")
    if not ch.riemannian:
        raise SuiteUsageError(f"spinor checks need a Riemannian chart, not {ch.name}")
    run = _Run("lichnerowicz", pts)
    n, mj = run.n, run.mj
    dim, vector = 1 << n // 2, FieldLayout(n, (n,))

    def potentials(at):
        """One U(1) potential per point of ``at``: a vector field with imaginary values."""
        f, = poly_fields(run.rng.uniform(-1.0, 1.0, (len(at), vector.size)), [vector])
        return replace(f, coeffs=1j * f.coeffs).eval(at, 2)

    a_jets = potentials(run.xs)
    scd = sp.build_spin_connection(sp.build_frame_from_metric(mj), a_jets)
    # the chirality and connection-difference checks run on the first few points
    head, scd_h = run.head, scd
    if head is not mj:
        a_h = Jet(head.x, *(t[:len(head.x)] for t in (a_jets.val, a_jets.d, a_jets.dd)))
        scd_h = sp.build_spin_connection(sp.build_frame_from_metric(head), a_h)

    spinor = [FieldLayout(n, (dim,), complex_coeffs=True)]

    # each route is one call on a block of the draws
    def dual_route():
        j, = run.draws(spinor, per=3)
        return relative_gap(sp.spin_dirac(scd, j), sp.spin_dirac_alpha(scd, j), cols=True)

    def conformal_closed_form():
        if ch.lam_fn is None:
            return 0.0
        j, = run.draws(spinor)
        return relative_gap(sp.spin_dirac(scd, j), sp.conformal_dirac(scd, j), cols=True)

    def connection_difference():
        b_jets = potentials(head.x)
        scd2 = sp.build_spin_connection(scd_h.frame, b_jets)
        want = 0.5 * (scd_h.a_pot.val - b_jets.val)[..., None, None] * np.eye(dim)
        return sample_max(scd_h.omega.val - scd2.omega.val - want)

    run.check("lichnerowicz-frame-invariants",
              "frame is orthonormal, dual, and reconstructs the metric", 1e-10,
              lambda: sp.frame_invariant_residual(scd.frame))
    run.check("lichnerowicz-dirac-dual-route",
              "generic assembly equals the 1-form/3-form route", 1e-10,
              dual_route)
    run.check("lichnerowicz-conformal-closed-form",
              "rescaling closed form equals the generic assembly", 1e-9,
              conformal_closed_form)
    run.check("lichnerowicz-weitzenbock", "D_A^2 = lap + r/4 + q(dA)/2", 1e-7,
              lambda: sp.lichnerowicz_residual(scd, *run.draws(spinor, per=3)))
    run.check("lichnerowicz-chirality",
              "chirality anticommutes with c(dx) and commutes with the connection",
              1e-11, lambda: reduce(np.maximum, sp.chirality_action_checks(scd_h).values()))
    run.check("lichnerowicz-connection-difference",
              "two connections differ by half the potential difference", 1e-12,
              connection_difference)
    return run.rep


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------


def _antilinear_fields(run: _Run, at: np.ndarray) -> tuple:
    """Per point of ``at``, a block for a complex 1-form, then two normals for
    a number c: the forms as one 2-jet at ``at``, and c."""
    one = FieldLayout.form(run.n, 1, True)
    rows = [(run.rng.uniform(-1.0, 1.0, one.size), run.rng.normal(size=2)) for _ in at]
    a, = poly_fields(np.array([u for u, _ in rows]), [one])
    return a.eval(at, 2), np.array([z for _, z in rows]).view(complex)[:, 0]


def hodge_suite(pts: _Points) -> VerificationReport:
    run = _Run("hodge", pts)
    n, mj, head = run.n, run.mj, run.head

    def degree_block(degs, at=None, order: int = 2) -> Jet:
        """A complex form of each degree in degs, drawn as ``run.draws`` draws
        their layouts in turn, as the columns of one block (2^n, len(degs))."""
        col, blade = np.nonzero(np.array(degs)[:, None] == grades(n))
        spread = np.eye((1 << n) * len(degs))[blade * len(degs) + col]    # to (blade, col)
        flat, = run.draws([FieldLayout(n, (len(blade),), complex_coeffs=True)], at=at,
                          order=order)
        return flat[..., 0].map(lambda t: (t @ spread).reshape(t.shape[:-1] + (1 << n, len(degs))))

    def double_star():
        a, p = degree_block(range(n + 1), order=0), np.arange(n + 1)
        want = a.val * (-1.0) ** (p * (n - p)) * np.sign(mj.det)[:, None, None]
        return relative(sample_max(hodge_star(hodge_star(a, mj), mj).val - want, cols=True),
                        sample_max(a.val, cols=True))

    def antilinear():
        a, c = _antilinear_fields(run, head.x)
        lhs = hodge_star(a.truncate(0).scale(c), head)
        rhs = hodge_star(a.truncate(0), head).scale(np.conj(c))
        return relative(sample_max(lhs.val - rhs.val), sample_max(lhs.val))

    def pairing():
        # two forms of each degree in turn: a in the even columns, b in the odd
        ab, top = degree_block(np.repeat(range(n + 1), 2), at=head.x, order=0), (1 << n) - 1
        a, b, vol = ab[:, ::2], ab[:, 1::2], volume_form(head).val[:, top, None]
        got = wedge_forms(a, hodge_star(b, head)).val[:, top]
        want = np.conj(gram_pairing(a, b, head)) * vol
        return relative(np.abs(got - want), np.abs(want))

    # each route below is one operator call on a block of one form per degree.
    # del and D carry a factor g^-1: the terms of del del a and D D a that cancel
    # are of size max |g^-1| times the jets of del a and of D a

    def coderivative_dual():
        a = degree_block(range(1, n + 1), order=1)
        return relative_gap(coderivative_hodge(a, mj).val, coderivative_connection(a, mj).val,
                            cols=True)

    def nilpotency():
        a = degree_block(range(n + 1))
        norm, da = sample_max(a.val, a.d, a.dd, cols=True), coderivative_hodge(a, mj)
        cancel = sample_max(da.val, da.d, cols=True) * sample_max(mj.g_inv)[:, None]
        return np.maximum(
            relative(sample_max(coderivative_hodge(da, mj).val, cols=True), norm, cancel),
            relative(sample_max(exterior_derivative(exterior_derivative(a)).val, cols=True),
                     norm))

    def dirac_square():
        a = degree_block(range(n + 1), at=head.x)
        da = forms_dirac(a, head)
        lhs = forms_dirac(da, head).val
        rhs = (exterior_derivative(coderivative_connection(a, head))
               + coderivative_connection(exterior_derivative(a), head)).val
        cancel = sample_max(da.val, da.d, cols=True) * sample_max(head.g_inv)[:, None]
        return relative(sample_max(lhs - rhs, cols=True), sample_max(lhs, rhs, cols=True), cancel)

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
              nilpotency)
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
    return frozen(np.array([[np.linalg.det(np.eye(4)[[*p, *q]]) for q in pairs] for p in pairs]))


def sw_suite(seed: int, samples: int,
             cfg: Optional[swm.SWConfig] = None) -> VerificationReport:
    if cfg is None:
        raise SuiteUsageError("the sw suite needs a monopole configuration "
                              "(pass --config)")
    rng = np.random.default_rng(seed)
    rep = VerificationReport("sw", "torus4", seed, samples)
    # a config the fields overflow at is an input error, as under ``diracgeo sw``
    with np.errstate(over="raise", invalid="raise"):
        # one draw of (samples, 4) is the stream of one draw of 4 per sample
        pts = rng.uniform(0.0, 2.0 * np.pi, (samples, 4))
        # psi's values and Q(psi), on the pair components j < k, serve both checks
        psi = swm.spinor_at(cfg, pts, 0).val
        q = swm.quadratic_pairs(psi, psi)

        def self_dual_projector():
            # the block's half of F is a fixed point, Q(psi) lies in it, and the
            # projector is (1 +- star) / 2; forms are read on their pair components
            proj = swm.block_projector(cfg.block)
            half = 0.5 * (np.eye(6) + (1.0 if cfg.block == "+" else -1.0) * _levi_civita_star())
            fp = swm.curvature_at(cfg, pts) @ proj.T
            return np.append(sample_max(*(a @ proj.T - a for a in (fp, q))),
                             np.max(np.abs(proj - half)))

        half = "self-dual" if cfg.block == "+" else "anti-self-dual"
        _timed(rep, "sw-quadratic-identity", "|Q(psi)|^2 = |psi|^4 / 8", 1e-10,
               lambda: swm.quadratic_identity_residual(psi, q))
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

CHART_SUITES: Dict[str, Callable[..., VerificationReport]] = {
    "cartan": cartan_suite,
    "clifford": clifford_suite,
    "levi-civita": levi_civita_suite,
    "laplacian": laplacian_suite,
    "superconnection": superconnection_suite,
    "lichnerowicz": lichnerowicz_suite,
    "hodge": hodge_suite,
}

SUITE_NAMES = list(CHART_SUITES) + ["sw", "all"]


def run_suite(name: str, chart: Union[Chart, str] = "sphere2", seed: int = 1,
              samples: int = 20,
              sw_config: Optional[swm.SWConfig] = None) -> VerificationReport:
    """Run suite ``name`` on ``chart``, a Chart or the name of a built-in one;
    the sw suite reads no chart."""
    if samples < 1:
        raise SuiteUsageError(f"samples must be at least 1, got {samples}")
    if name == "sw":
        return sw_suite(seed, samples, sw_config)
    if name not in SUITE_NAMES:
        raise SuiteUsageError(f"unknown suite {name!r}; choose from "
                              f"{', '.join(SUITE_NAMES)}")
    if name != "all" and sw_config is not None:
        raise SuiteUsageError(f"the {name} suite takes no monopole configuration "
                              f"(--config is for the sw and all suites)")
    # one set of points and metric jets, shared by the sub-suites of "all"
    pts = _Points(get_chart(chart) if isinstance(chart, str) else chart, seed, samples)
    if name != "all":
        return CHART_SUITES[name](pts)
    rep = VerificationReport("all", pts.ch.name, seed, samples)
    for suite in CHART_SUITES.values():
        try:
            rep.merge(suite(pts))
        except SuiteUsageError:
            # suites that do not apply to this chart are skipped
            continue
    if sw_config is not None:
        rep.merge(sw_suite(seed, samples, sw_config))
    return rep
