"""The sample axis: a stack of P points evaluates like P stacks of one.

Every batched result is compared with the same computation run one row at a
time, each row a stack of one (``xs[k:k + 1]``, ``coeffs[k:k + 1]``), to a
relative 1e-15; the residuals are checked at P = 3 and at P = 1.
"""

import copy
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import clifford_reference as ref
import superconnection_reference
from diracgeo import bundles as bnd
from diracgeo import seiberg_witten as swm
from diracgeo import spin as sp
from diracgeo.charts import (Chart, ChartDomainError, DegenerateMetricError,
                            chart_from_config, get_chart, metric_jet, registry)
from diracgeo.clifford import BilinearForm, grades
from diracgeo.forms import (FieldLayout, PolyField, coderivative_connection,
                            coderivative_hodge, exterior_derivative,
                            forms_dirac, gram_pairing, hodge_star, iota_vector,
                            lie_derivative, random_poly_field, vector_bracket, volume_form,
                            wedge_forms)
from diracgeo.curvature import (curvature_two_form_residual, divergence_via_connection,
                                divergence_via_density, log_det_identity_residual)
from diracgeo.jets import Jet, jet_sqrt, seed_point

P = 3


def _close(got, want):
    """got (P, ...) against the list of P results at stacks of one, relative 1e-15."""
    want = np.concatenate([np.asarray(w) for w in want])
    assert np.shape(got) == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def _same_jets(batched, singles):
    assert batched.order == min(s.order for s in singles)
    for k in ("val", "d", "dd")[:batched.order + 1]:
        _close(getattr(batched, k), [getattr(s, k) for s in singles])


def _unstack(field: PolyField, k: int) -> PolyField:
    return PolyField(field.n, field.exponents, field.coeffs[k:k + 1], field.masks)


def _pair(rng, xs, make, order=2):
    """P fields from ``make(rng)`` at the P points xs: one batched jet and the
    P jets at stacks of one it must equal."""
    f = PolyField.stack([make(rng) for _ in range(P)])
    return f.eval(xs, order), [_unstack(f, k).eval(xs[k:k + 1], order) for k in range(P)]


def _live_degrees(j):
    """Per sample, the degrees of the blades whose jet is not identically zero."""
    live = np.any([np.any(a != 0, axis=tuple(range(1, a.ndim - 1)))
                   for a in (j.val, j.d, j.dd) if a is not None], axis=0)
    return [set(grades(j.n)[row].tolist()) for row in live]


@pytest.mark.parametrize("n", [2, 4])
def test_polyfield_eval_batches_every_fiber(n):
    rng = np.random.default_rng(n)
    makers = [lambda r: random_poly_field(r, n, (), complex_coeffs=True),
              lambda r: random_poly_field(r, n, (n,)),
              lambda r: random_poly_field(r, *FieldLayout.form(n, 2, True)),
              lambda r: random_poly_field(r, n, (3,), complex_coeffs=True),
              lambda r: random_poly_field(r, n, (2, 3), masks=(1, 2))]
    for make in makers:
        for order in (0, 1, 2):
            _same_jets(*_pair(rng, rng.uniform(-0.6, 0.6, (P, n)), make, order))
    # forms of different degrees stack on the full blade axis
    f = PolyField.stack([random_poly_field(rng, *FieldLayout.form(n, p, True))
                         for p in range(n + 1)])
    xs = rng.uniform(-0.6, 0.6, size=(n + 1, n))
    assert f.masks is None and f.coeffs.shape[2] == 1 << n
    _same_jets(f.eval(xs), [_unstack(f, k).eval(xs[k:k + 1]) for k in range(n + 1)])
    assert _live_degrees(f.eval(xs)) == [{p} for p in range(n + 1)]
    # one field, a stack of one, at P points
    g = random_poly_field(rng, n, (2,), complex_coeffs=True)
    _same_jets(g.eval(xs), [g.eval(xs[k:k + 1]) for k in range(n + 1)])


def test_jet_arithmetic_batches():
    rng = np.random.default_rng(11)
    n = 2
    xs = rng.uniform(-0.6, 0.6, (P, n))
    s, ss = _pair(rng, xs, lambda r: random_poly_field(r, n, (), complex_coeffs=True))
    t, ts = _pair(rng, xs, lambda r: random_poly_field(r, n, (), complex_coeffs=True))
    v, vs = _pair(rng, xs, lambda r: random_poly_field(r, n, (3,), complex_coeffs=True))
    m, ms = _pair(rng, xs, lambda r: random_poly_field(r, n, (3, 3), complex_coeffs=True))
    const = rng.normal(size=(3, 3))
    weights = rng.normal(size=P)
    cases = [
        (lambda a, b, u, w: a + b), (lambda a, b, u, w: a - 2.5),
        (lambda a, b, u, w: u + a), (lambda a, b, u, w: a * u),
        (lambda a, b, u, w: w @ u), (lambda a, b, u, w: u @ w),
        (lambda a, b, u, w: w @ w), (lambda a, b, u, w: const @ w),
        (lambda a, b, u, w: u * const[0]), (lambda a, b, u, w: a / (b + 3.0)),
        (lambda a, b, u, w: 2.0 / (a + 3.0)), (lambda a, b, u, w: a ** 3),
        (lambda a, b, u, w: a ** 0), (lambda a, b, u, w: -u),
        (lambda a, b, u, w: u.gradient()[1]), (lambda a, b, u, w: w[1:, 0]),
        (lambda a, b, u, w: w[..., 2]), (lambda a, b, u, w: u.conj()),
        (lambda a, b, u, w: jet_sqrt(jet_sqrt(b * b + 2.0) + a) * a ** 2),
        (lambda a, b, u, w: jet_sqrt(a * a + 2.0) + 1.0 / (b * b + 1.0)),
    ]
    for op in cases:
        _same_jets(op(s, t, v, m), [op(*args) for args in zip(ss, ts, vs, ms)])
    _same_jets(v.scale(weights), [vk * wk for vk, wk in zip(vs, weights)])
    assert [c.val.shape for c in v] == [(P,)] * 3
    coords = seed_point(np.concatenate([s.x for s in ss]))
    _same_jets(coords, [seed_point(sk.x) for sk in ss])
    _same_jets(Jet.constant(np.ones(2), s.x), [Jet.constant(np.ones(2), sk.x) for sk in ss])


@pytest.mark.parametrize("name", sorted(registry()))
def test_metric_jet_batches(name):
    ch = get_chart(name)
    rng = np.random.default_rng(5)
    xs = np.array([ch.sample_point(rng) for _ in range(P)])
    batched = metric_jet(ch, xs)
    singles = [metric_jet(ch, xs[k:k + 1]) for k in range(P)]
    for k in ("g", "dg", "d2g", "g_inv", "dg_inv", "d2g_inv", "det", "sqrt_abs_det",
              "dh", "ddh", "dsqrt", "ddsqrt", "christoffel", "dchristoffel",
              "riemann", "lowered", "ricci", "scalar"):
        _close(getattr(batched, k), [getattr(s, k) for s in singles])
    _same_jets(batched.compound_inverse, [s.compound_inverse for s in singles])


def test_metric_jet_names_the_bad_point_of_a_stack():
    # the metric |x|^2 delta degenerates at the origin only
    cone = Chart("cone", 2, 0, lambda v: np.eye(2) * (v @ v))
    xs = np.array([[0.5, 0.1], [0.0, 0.0], [0.3, 0.3]])
    metric_jet(cone, xs[[0, 2]])
    with pytest.raises(DegenerateMetricError) as single:
        metric_jet(cone, xs[1:2])
    with pytest.raises(DegenerateMetricError) as stack:
        metric_jet(cone, xs)
    assert str(stack.value) == str(single.value)
    assert "degenerate at [0.0, 0.0]" in str(stack.value)
    with pytest.raises(ChartDomainError, match=r"\[0.9, 0.9\] outside domain"):
        metric_jet(get_chart("hyperbolic2"), np.array([[0.1, 0.2], [0.9, 0.9]]))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_a_bare_point_is_refused_where_points_are_read(n):
    # points are a stack (P, n): a bare point (n,) is refused, at n = 1 too,
    # where (1,) could be one point or one coordinate of each of one point;
    # a stack of one is read, and an array of any other rank is refused.  At
    # n = 4 the monopole fields are read too, and F and the equations'
    # residuals hold one row per point
    ch = chart_from_config({"kind": "flat", "dimension": n})
    ms = bnd.exterior_module(n)
    S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, {0: "random", 1: "random"}, [1])
    field = random_poly_field(np.random.default_rng(n), n, (2,))
    x = np.full(n, 0.25)
    readers = {"seed_point": seed_point, "metric_jet": lambda p: metric_jet(ch, p),
               "PolyField.eval": field.eval, "SuperconnectionData.eval": S.eval}
    rows = {}
    if n == 4:
        cfg = swm.random_sw_config(np.random.default_rng(n))
        readers.update(potential_at=partial(swm.potential_at, cfg),
                       spinor_at=partial(swm.spinor_at, cfg))
        rows.update(curvature_at=lambda p: {"F": swm.curvature_at(cfg, p)},
                    sw_residuals=partial(swm.sw_residuals, cfg))
        for xs in (x[None], x + np.arange(P)[:, None]):
            assert swm.curvature_at(cfg, xs).shape == (len(xs), 6)
            assert {k: v.shape for k, v in swm.sw_residuals(cfg, xs).items()} == dict.fromkeys(
                ("dirac", "curvature", "quadratic_identity"), (len(xs),))
    for name, read in {**readers, **rows}.items():
        if name in readers:
            assert read(x[None]).x.shape == (1, n)
        for bad in (x, x[None, None]):
            with pytest.raises(ValueError, match=r"points must be a stack \(P, n\)"):
                read(bad)
                pytest.fail(f"{name} read points of shape {bad.shape}")


@pytest.mark.parametrize("name", ["sphere4", "minkowski4", "poly3", "hyperbolic2"])
def test_forms_operators_batch(name):
    ch = get_chart(name)
    n = ch.n
    rng = np.random.default_rng(7)
    xs = np.array([ch.sample_point(rng) for _ in range(P)])
    mj = metric_jet(ch, xs)
    singles = [metric_jet(ch, xs[k:k + 1]) for k in range(P)]

    X, Xs = _pair(rng, xs, lambda r: random_poly_field(r, n, (n,)))
    Y, Ys = _pair(rng, xs, lambda r: random_poly_field(r, n, (n,)))
    for p in range(n + 1):
        a, As = _pair(rng, xs, lambda r: random_poly_field(r, *FieldLayout.form(n, p, True)))
        b, Bs = _pair(rng, xs, lambda r: random_poly_field(r, *FieldLayout.form(n, p, True)))
        ops = [lambda a, b, X, Y, g: exterior_derivative(a),
               lambda a, b, X, Y, g: iota_vector(X, a),
               lambda a, b, X, Y, g: wedge_forms(a, b),
               lambda a, b, X, Y, g: lie_derivative(X, a),
               lambda a, b, X, Y, g: iota_vector(vector_bracket(X, Y), a),
               lambda a, b, X, Y, g: hodge_star(a, g),
               lambda a, b, X, Y, g: hodge_star(a, g, -1),
               lambda a, b, X, Y, g: coderivative_hodge(a, g),
               lambda a, b, X, Y, g: coderivative_connection(a, g),
               lambda a, b, X, Y, g: forms_dirac(a, g),
               lambda a, b, X, Y, g: volume_form(g)]
        for op in ops:
            _same_jets(op(a, b, X, Y, mj),
                       [op(*args) for args in zip(As, Bs, Xs, Ys, singles)])
        _close(gram_pairing(a, b, mj),
               [gram_pairing(*args) for args in zip(As, Bs, singles)])
        assert _live_degrees(a) == [{p}] * P


def _stack(rng, xs, singles, make):
    """len(xs) fields from ``make(rng)``: their jets at the stack xs and at
    each row of it."""
    f = PolyField.stack([make(rng) for _ in xs])
    return (f.eval(xs, 2),
            [_unstack(f, k).eval(s.x, 2) for k, s in enumerate(singles)])


def _points_and_jets(name, seed, points=P):
    ch = get_chart(name)
    rng = np.random.default_rng(seed)
    xs = np.array([ch.sample_point(rng) for _ in range(points)])
    return ch, rng, metric_jet(ch, xs), [metric_jet(ch, xs[k:k + 1]) for k in range(points)]


def _per_sample(points, *residuals):
    """Each residual has one value per sample, and per column of a block."""
    for r in residuals:
        assert np.shape(r)[:1] == (points,) and np.ndim(r) <= 2


def _same(got, want):
    """A batched result (array, jet or tuple of them) against the single ones."""
    if isinstance(got, Jet):
        _same_jets(got, want)
    elif isinstance(got, tuple):
        for k, g in enumerate(got):
            _same(g, [w[k] for w in want])
    else:
        _close(got, want)


@pytest.mark.parametrize("points", [P, 1])
@pytest.mark.parametrize("name", ["poly2", "sphere2", "poly3", "sphere4", "poly4",
                                  "minkowski4"])
def test_bundle_operators_batch(name, points):
    ch, rng, mj, singles = _points_and_jets(name, 17, points)
    n = ch.n
    ms = bnd.exterior_module(n)
    m = ms.m
    specs = {0: "random", 1: "random", 2: "random"}
    S = bnd.superconnection_from_degrees(n, m, ms.eta, specs, 5 + np.arange(points))
    Ss = [bnd.superconnection_from_degrees(n, m, ms.eta, specs, [5 + k])
          for k in range(points)]
    D = bnd.quantize_superconnection(S.eval(mj.x), S.masks, mj, ms)
    Ds = [bnd.quantize_superconnection(Sk.eval(sk.x), Sk.masks, sk, ms)
          for Sk, sk in zip(Ss, singles)]
    for k in ("gam", "A", "Z"):
        _same_jets(getattr(D, k), [getattr(d, k) for d in Ds])
    for order in (0, 1):
        low = bnd.quantize_superconnection(S.eval(mj.x, order), S.masks, mj, ms)
        assert (low.A.order, low.Z.order, low.gam.order) == (order, order, 2)
        _close(low.Z.val, [d.Z.val for d in Ds])
    j, js = _stack(rng, mj.x, singles,
                   lambda r: random_poly_field(r, n, (m,), complex_coeffs=True))
    f, fs = _stack(rng, mj.x, singles,
                   lambda r: random_poly_field(r, n, (), complex_coeffs=True))
    # one-column blocks of sections and of scalars
    j, js = j[..., None], [jk[..., None] for jk in js]
    f, fs = f[..., None], [fk[..., None] for fk in fs]
    _same(bnd.apply_dirac(D, j), [bnd.apply_dirac(d, jk) for d, jk in zip(Ds, js)])
    _same(bnd.dirac_commutator_residual(D, f, j),
          [bnd.dirac_commutator_residual(d, fk, jk) for d, fk, jk in zip(Ds, fs, js)])
    _same(bnd.dirac_square(D, j), [bnd.dirac_square(d, jk) for d, jk in zip(Ds, js)])
    _same_jets(ref.apply_dirac_jet(D, j),
               [ref.apply_dirac_jet(d, jk) for d, jk in zip(Ds, js)])

    H = bnd.laplacian_from_dirac(D)
    Hs = [bnd.laplacian_from_dirac(d) for d in Ds]
    _same_jets(H.T, [h.T for h in Hs])
    _close(H.U, [h.U for h in Hs])
    _same(H.apply(j), [h.apply(jk) for h, jk in zip(Hs, js)])
    _close(bnd.lap_identity_residual(H), [bnd.lap_identity_residual(h) for h in Hs])
    A, F = bnd.laplacian_decompose(H)
    parts = [bnd.laplacian_decompose(h) for h in Hs]
    _same_jets(A, [a for a, _ in parts])
    _close(F, [fk for _, fk in parts])
    H2 = bnd.laplacian_from_connection(A, F, mj)
    _same(H2.apply(j), [bnd.laplacian_from_connection(a, fk, sk).apply(jk)
                        for (a, fk), sk, jk in zip(parts, singles, js)])

    lc = mj.exterior_connection
    lcs = [sk.exterior_connection for sk in singles]
    for route in ("local", "trace"):
        _same(bnd.canonical_laplacian(lc, mj, j, route),
              [bnd.canonical_laplacian(a, sk, jk, route)
               for a, sk, jk in zip(lcs, singles, js)])
    FE = bnd.connection_curvature(lc)
    FEs = [bnd.connection_curvature(a) for a in lcs]
    _same_jets(FE, FEs)
    _same(bnd.twisting_curvature(FE, mj, ms.gammas(mj)),
          [bnd.twisting_curvature(fe, sk, ms.gammas(sk))
           for fe, sk in zip(FEs, singles)])
    _same(bnd.kernel_projector(mj, ms), [bnd.kernel_projector(sk, ms) for sk in singles])

    def clifford_of_metric(mj):
        """c(omega) = gamma^i g_ij gamma^j, summed apart from the kernel projector."""
        gam = ms.gammas(mj).val
        return np.einsum("...iab,...ij,...jbc->...ac", gam, mj.g, gam)

    _close(clifford_of_metric(mj), [clifford_of_metric(sk) for sk in singles])
    _close(bnd.module_invariant_residual(ms, mj),
           [bnd.module_invariant_residual(ms, sk) for sk in singles])
    _same_jets(bnd.superconnection_curvature(S.eval(mj.x, 1)),
               [bnd.superconnection_curvature(Sk.eval(sk.x, 1)) for Sk, sk in zip(Ss, singles)])
    _per_sample(points, *bnd.dirac_commutator_residual(D, f, j), bnd.lap_identity_residual(H),
                bnd.twisting_curvature(FE, mj, ms.gammas(mj))[1],
                bnd.module_invariant_residual(ms, mj))


@pytest.mark.parametrize("points", [P, 1])
@pytest.mark.parametrize("name", ["flat2", "torus2", "sphere2", "hyperbolic2", "poly2",
                                  "flat4", "torus4", "sphere4", "hyperbolic4", "poly4"])
def test_spin_operators_batch(name, points):
    ch, rng, mj, singles = _points_and_jets(name, 23, points)
    n = ch.n
    dim = 1 << n // 2
    fr = sp.build_frame_from_metric(mj)
    frs = [sp.build_frame_from_metric(sk) for sk in singles]
    for k in ("co", "inv"):
        _same(getattr(fr, k), [getattr(f, k) for f in frs])
    _close(sp.frame_invariant_residual(fr), [sp.frame_invariant_residual(f) for f in frs])
    a, a_s = _stack(rng, mj.x, singles,
                    lambda r: replace(f := random_poly_field(r, n, (n,)), coeffs=1j * f.coeffs))
    scd = sp.build_spin_connection(fr, a)
    scds = [sp.build_spin_connection(f, ak) for f, ak in zip(frs, a_s)]
    for k in ("w0", "omega"):
        _same_jets(getattr(scd, k), [getattr(c, k) for c in scds])
    _same_jets(sp.coordinate_gammas(fr), [sp.coordinate_gammas(f) for f in frs])
    j, js = _stack(rng, mj.x, singles,
                   lambda r: random_poly_field(r, n, (dim,), complex_coeffs=True))
    j, js = j[..., None], [jk[..., None] for jk in js]      # one-column blocks
    every = list(zip(scds, js))
    for route in (sp.spin_dirac, sp.spin_dirac_alpha, sp.lichnerowicz_residual) + (
            (sp.conformal_dirac,) if ch.lam_fn is not None else ()):
        _close(route(scd, j), [route(c, jk) for c, jk in every])
    got = sp.chirality_action_checks(scd)
    want = [sp.chirality_action_checks(c) for c in scds]
    for k in ("gamma_anticommutation", "connection_commutation"):
        _close(got[k], [w[k] for w in want])
    _per_sample(points, sp.frame_invariant_residual(fr), sp.lichnerowicz_residual(scd, j),
                got["gamma_anticommutation"], got["connection_commutation"])


def _two_form_residual(g_inv, low, riem):
    """[S_ij, dx^k] - riemann[l, k, i, j] dx^l at one point, the generator
    products of S and dx^k spelled out on one form's table."""
    b = BilinearForm(g_inv)
    n, covectors = b.n, 1 << np.arange(b.n)
    gens = b.table[covectors]
    s = -0.25 * np.einsum("klij,kla->ija", low,
                          np.einsum("kab,lb->kla", gens, gens[:, :, 0]))
    worst = 0.0
    for i, j, k in np.ndindex(n, n, n):
        right = np.einsum("mab,m->ab", b.table, s[i, j])[:, covectors[k]]
        left = gens[k] @ s[i, j]
        target = np.zeros(1 << n)
        target[covectors] = riem[:, k, i, j]
        worst = max(worst, float(np.linalg.norm(right - left - target)))
    return worst


@pytest.mark.parametrize("points", [P, 1])
@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "poly3", "sphere4", "poly4",
                                  "minkowski4"])
def test_curvature_batches(name, points):
    ch, rng, mj, singles = _points_and_jets(name, 29, points)
    n = ch.n
    _close(log_det_identity_residual(mj), [log_det_identity_residual(sk) for sk in singles])
    _close(curvature_two_form_residual(mj),
           [curvature_two_form_residual(sk) for sk in singles])
    # against the per-point loop, also with a doubled Riemann tensor, where
    # the residual is the size of the curvature and not of rounding; the
    # copy keeps the lowered tensor already cached on mj
    for scale in (1.0, 2.0):
        bent = copy.copy(mj)
        bent.riemann = scale * mj.riemann
        want = np.array([_two_form_residual(sk.g_inv[0], sk.lowered[0], scale * sk.riemann[0])
                         for sk in singles])
        got = curvature_two_form_residual(bent)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(want))
        assert scale == 1.0 or name == "minkowski4" or np.min(want) > 1e-3
    X = PolyField.stack([random_poly_field(rng, n, (n,)) for _ in range(points)])
    val, dval, _ = X.jet(mj.x, 1)
    for div in (divergence_via_density, divergence_via_connection):
        _close(div(mj, Jet(mj.x, val, dval)),
               [div(sk, Jet(sk.x, val[k:k + 1], dval[k:k + 1])) for k, sk in enumerate(singles)])
    _per_sample(points, log_det_identity_residual(mj), curvature_two_form_residual(mj))


def test_stacked_superconnection_is_the_stack_of_its_seeds():
    ms = bnd.exterior_module(2)
    S = bnd.superconnection_from_degrees(2, 4, ms.eta, {0: "constant", 1: "random"}, [3, 4])
    singles = [bnd.superconnection_from_degrees(2, 4, ms.eta, {0: "constant", 1: "random"},
                                                [seed]) for seed in (3, 4)]
    assert S.masks == (0, 1, 2)
    xs = np.array([[0.3, -0.4], [-0.1, 0.6]])
    _same_jets(S.eval(xs, 2), [single.eval(xs[k:k + 1], 2) for k, single in enumerate(singles)])
    for k, single in enumerate(singles):
        for mask in S.masks:
            assert np.array_equal(S.entries(mask).exponents, single.entries(mask).exponents)
            assert np.array_equal(S.entries(mask).coeffs[k], single.entries(mask).coeffs[0])
    # one parity test covers every sample: an odd entry of a degree-1 blade
    # at the second point only is found
    sig = np.real(np.diag(ms.eta))
    r, c = np.argwhere(np.outer(sig, sig) < 0)[0]
    field = superconnection_reference.superconnection_field(
        2, 4, ms.eta, {0: "constant", 1: "random"}, [3, 4])[0]
    coeffs = field.coeffs.copy()
    coeffs[1, 0, 1, r, c] = 0.5
    field = PolyField(2, field.exponents, coeffs)
    with pytest.raises(bnd.ParityError, match=rf"blade \[0\] entry \({r},{c}\)"):
        bnd.SuperconnectionData(2, 4, ms.eta, {
            mask: PolyField(2, field.exponents, field.coeffs[:, :, mask])
            for mask in S.masks})
