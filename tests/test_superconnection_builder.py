"""The superconnection builder and the operator data built from it: the
stream oracle against the per-blade loop in any read order, the shared D^2
coefficients, the stacked special predicate and the blades it draws, the
blade generators a suite run seeds, and the live-pair graded product against
the all-pairs one."""

from collections import Counter
from functools import partial
from itertools import product

import numpy as np
import pytest

import superconnection_reference as ref
from diracgeo import bundles as bnd
from diracgeo import suites
from diracgeo.charts import get_chart, metric_jet
from diracgeo.forms import exponent_table, random_poly_field
from diracgeo.jets import Jet
from test_exterior_kernels import _draw

# every preset at every degree, shifted by one degree per set
PRESETS = ("zero", "constant", "linear", "random", "random(11)")
SPEC_SETS = [{p: PRESETS[(p + shift) % len(PRESETS)] for p in range(5)}
             for shift in range(len(PRESETS))]


def _assert_entries_are_the_reference_blades(S, ms, specs, seeds):
    """Each blade's entries are, per seed, the allowed entries of the loop
    reference's blade on its own exponent table, and its other entries are 0."""
    refs = [ref.superconnection_field(S.n, ms.m, ms.eta, specs, int(seed))[1]
            for seed in np.atleast_1d(seeds)]
    assert list(S.masks) == list(refs[0])
    for mask in S.masks:
        allowed, got = S.allowed(mask), S.entries(mask)
        assert got.stacked and len(got.coeffs) == len(refs)
        for k, blades in enumerate(refs):
            assert np.array_equal(got.exponents, blades[mask].exponents)
            assert np.array_equal(got.coeffs[k], blades[mask].coeffs[:, allowed])
            assert not np.any(blades[mask].coeffs[:, ~allowed])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shift", range(len(SPEC_SETS)))
def test_builder_draws_the_streams_of_the_per_blade_loop(n, shift):
    ms = bnd.exterior_module(n)
    # degrees above n name no blade; dropping one degree leaves its blades absent
    specs = {p: spec for p, spec in SPEC_SETS[shift].items() if p <= n and p != shift % 3}
    for seed in (0, 7, np.int64(12), 3.0):
        S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seed)
        field, blades = ref.superconnection_field(n, ms.m, ms.eta, specs, int(seed))
        assert np.array_equal(S.field.exponents, field.exponents)
        assert np.array_equal(S.field.coeffs, field.coeffs) and not S.field.stacked
        _assert_entries_are_the_reference_blades(S, ms, specs, seed)
    seeds = [4, 1, 4, 30]
    S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seeds)
    field, _ = ref.superconnection_field(n, ms.m, ms.eta, specs, seeds)
    assert S.field.stacked and np.array_equal(S.field.exponents, field.exponents)
    assert np.array_equal(S.field.coeffs, field.coeffs)
    _assert_entries_are_the_reference_blades(S, ms, specs, seeds)


def test_builder_draws_only_the_blades_it_names():
    ms = bnd.exterior_module(3)
    S = bnd.superconnection_from_degrees(3, ms.m, ms.eta, {1: "linear"}, [2, 3])
    assert sorted(S.masks) == [1, 2, 4]
    assert np.array_equal(S.field.exponents, exponent_table(3, 1))
    live = np.flatnonzero(np.any(S.field.coeffs != 0, axis=(0, 1, 3, 4)))
    assert live.tolist() == [1, 2, 4]
    empty = bnd.superconnection_from_degrees(3, ms.m, ms.eta, {0: "zero"}, 5)
    assert empty.field.coeffs.shape == (0, 8, 8, 8) and empty.entries(0).coeffs.size == 0


def _commutator(a, b):
    return a @ b - b @ a


def _dirac_square_per_call(D, j):
    """D^2 psi with every coefficient expanded anew, as before they were shared,
    on the contraction route of ``dirac_square``: each sum over an index and
    the fiber is one product with a row [a, (k, b)]."""
    g, a, Z, v = D.gam.val, D.A.val, D.Z.val, j.val
    z, row, fold = Z[..., None, :, :], bnd._fold_index, bnd._fold
    mk, mm = bnd._second_covariant(D.A, j)
    coeff = row(D.gam.d + _commutator(a[..., :, None, :, :], g[..., None, :, :, :]))
    inner = (row(g)[..., None, :, :] @ fold(mm) + coeff @ fold(mk)[..., None, :, :]
             + (D.Z.d + _commutator(a, z)) @ v[..., None, :, :])
    return row(g) @ fold(inner) + row(g @ z + z @ g) @ fold(mk) + Z @ (Z @ v)


def _zero_order_per_call(D):
    """The zero-order coefficient U of D^2, expanded anew: D^2 on the
    constant identity block."""
    return _dirac_square_per_call(D, Jet.constant(np.eye(D.m), D.x))


@pytest.mark.parametrize("name, count", [("sphere2", 3), ("poly3", 2), ("poly4", 1)])
def test_dirac_square_coefficients_are_built_once(name, count, monkeypatch):
    ch = get_chart(name)
    n = ch.n
    rng = np.random.default_rng(21)
    xs = np.array([ch.sample_point(rng) for _ in range(count)])
    mj = metric_jet(ch, xs)
    ms = bnd.exterior_module(n)
    S = bnd.superconnection_from_degrees(
        n, ms.m, ms.eta, {0: "random", 1: "random", 2: "random"}, 40 + np.arange(count))
    calls = []
    real = bnd._commutator
    monkeypatch.setattr(bnd, "_commutator", lambda a, b: calls.append(1) or real(a, b))
    # an operator of order 0 builds none of them
    D0 = bnd.quantize_superconnection(S, mj, ms, xs, order=0)
    j = random_poly_field(rng, n, (ms.m,), complex_coeffs=True).eval(xs, 2)[..., None]
    bnd.apply_dirac(D0, j)
    assert not calls and "square_coefficients" not in vars(D0)

    D = bnd.quantize_superconnection(S, mj, ms, xs, order=1)
    assert np.array_equal(bnd.dirac_square(D, j), _dirac_square_per_call(D, j))
    assert len(calls) == 2
    # the probe block of the identity, and the coefficients of U, reuse them
    bnd.lap_identity_residual(partial(bnd.dirac_square, D), mj, xs, ms.m)
    H = bnd.laplacian_from_dirac(D, mj)
    assert len(calls) == 2
    assert np.array_equal(H.U, _zero_order_per_call(D))
    assert np.array_equal(H.apply(j), _dirac_square_per_call(D, j))


@pytest.mark.parametrize("name", ["poly2", "sphere4"])
@pytest.mark.parametrize("top", [None, "constant", "random"])
def test_stacked_special_predicate_is_the_per_trial_one(name, top):
    ch = get_chart(name)
    n = ch.n
    rng = np.random.default_rng(8)
    pts = np.array([ch.sample_point(rng) for _ in range(4)])
    ms = bnd.exterior_module(n)
    specs = {0: "random", 1: "random"} | ({} if top is None else {2: top})
    seeds = 3 + np.arange(0, 12, 4)
    got, worst = bnd.is_special_superconnection(
        bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seeds), pts)
    want = [bnd.is_special_superconnection(
        bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seed), pts)
        for seed in seeds]
    assert got.tolist() == [w[0] for w in want] == [top is None] * len(seeds)
    np.testing.assert_allclose(worst, [w[1] for w in want], rtol=1e-15, atol=0.0)


def _read_degree_two_blades(S, pts):
    for mask in S.masks:
        if mask.bit_count() == 2:
            S.entries(mask)


READS = {"field first": lambda S, pts: None,
         "degree-2 blades first": _read_degree_two_blades,
         "special predicate first": bnd.is_special_superconnection}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("first", READS)
def test_lazy_draws_do_not_depend_on_read_order(n, preset, first):
    ms = bnd.exterior_module(n)
    # the preset under test at degree 2, the others shifted around it
    specs = {p: PRESETS[(PRESETS.index(preset) + p - 2) % len(PRESETS)]
             for p in range(n + 1)}
    pts = np.random.default_rng(n).uniform(-0.5, 0.5, (3, n))
    for seed in (7, [4, 1, 4]):
        S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seed)
        READS[first](S, pts)
        field, _ = ref.superconnection_field(n, ms.m, ms.eta, specs, seed)
        assert np.array_equal(S.field.exponents, field.exponents)
        assert np.array_equal(S.field.coeffs, field.coeffs)
        _assert_entries_are_the_reference_blades(S, ms, specs, seed)


@pytest.mark.parametrize("chart, generators", [("sphere2", 15), ("sphere4", 90)])
def test_special_predicate_draws_only_the_degree_two_blades(chart, generators,
                                                            monkeypatch):
    # the predicate reads the degree-2 blades of the 15 trials that have them,
    # and builds no dense (P, T, 2^n, m, m) field
    active, built, stacks = [False], [], []
    real_rng, real_timed = np.random.default_rng, suites._timed
    real_build = bnd.superconnection_from_degrees

    def rng(*args, **kwargs):
        built.append(active[0])
        return real_rng(*args, **kwargs)

    def build(*args, **kwargs):
        S = real_build(*args, **kwargs)
        stacks.extend([S] if active[0] else [])
        return S

    def timed(rep, cid, identity, tol, fn):
        active[0] = cid == "superconnection-special-predicate"
        try:
            real_timed(rep, cid, identity, tol, fn)
        finally:
            active[0] = False

    monkeypatch.setattr(bnd.np.random, "default_rng", rng)
    monkeypatch.setattr(bnd, "superconnection_from_degrees", build)
    monkeypatch.setattr(suites, "_timed", timed)
    rep = suites.run_suite("superconnection", chart, seed=5, samples=2)
    check, = [c for c in rep.checks if c.check_id == "superconnection-special-predicate"]
    assert check.passed and check.max_residual == 0.0
    assert sum(built) == generators
    assert [S.size for S in stacks] == [15, 8, 7]
    assert not any("field" in vars(S) for S in stacks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_selected_members_are_the_members_built_on_their_own(n, monkeypatch):
    ms = bnd.exterior_module(n)
    specs, seeds = {0: "random", 1: "linear", 2: "random(11)"}, [4, 9, 1, 7]
    S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seeds)
    picks = ((range(4), None), (range(1, 4, 2), (1, 2)), (range(2, 3), (0, 2)))
    S.field
    with monkeypatch.context() as patch:
        # once the field is built, selecting and reading the selection seed no generator
        patch.setattr(bnd.np.random, "default_rng", None)
        got = [(S.select(*pick), S.select(range(4)).select(*pick)) for pick in picks]
        fields = [[T.field for T in pair] for pair in got]
    for (members, degrees), pair, pair_fields in zip(picks, got, fields):
        want = bnd.superconnection_from_degrees(
            n, ms.m, ms.eta, {p: specs[p] for p in degrees or specs},
            [seeds[k] for k in members])
        for T, field in zip(pair, pair_fields):
            assert T.masks == want.masks and T.size == len(members) and T.stacked
            for mask in T.masks:
                e, w = T.entries(mask), want.entries(mask)
                assert not e.coeffs.flags.writeable
                assert np.array_equal(e.exponents, w.exponents)
                assert np.array_equal(e.coeffs, w.coeffs)
            assert np.array_equal(field.exponents, want.field.exponents)
            assert np.array_equal(field.coeffs, want.field.coeffs)


@pytest.mark.parametrize("chart, samples, seedings", [("sphere4", 1, 109), ("sphere4", 2, 128),
                                                      ("sphere2", 5, 43)])
def test_a_suite_run_seeds_a_blade_generator_twice_only_for_the_special_trials(
        chart, samples, seedings, monkeypatch):
    # a blade seeding is a generator seeded inside a blade draw, from the
    # (seed, blade, degree) of that draw; other generators are not counted
    seeded, drawing = [], []
    real_rng, real_draw = np.random.default_rng, bnd._draw_blade

    def draw(mask, exps, *rest):
        drawing.append((mask, int(exps.sum(axis=1).max(initial=-1))))
        try:
            return real_draw(mask, exps, *rest)
        finally:
            drawing.pop()

    def rng(seed, *args, **kwargs):
        if drawing:
            mask, degree = drawing[-1]
            seeded.append(((seed - mask * 101 - 7) // 100003, mask, degree))
        return real_rng(seed, *args, **kwargs)

    monkeypatch.setattr(bnd, "_draw_blade", draw)
    monkeypatch.setattr(bnd.np.random, "default_rng", rng)
    assert suites.run_suite("superconnection", chart, seed=5, samples=samples).passed
    assert len(seeded) == seedings
    # the affine and curvature stacks select D's draws; only the special
    # predicate's random trials t = 3 mod 4 below ``samples``, members of
    # D's stack, draw their degree-2 blades again
    n = get_chart(chart).n
    again = sorted(key for key, count in Counter(seeded).items() if count > 1)
    assert max(Counter(seeded).values()) <= 2
    assert again == [(5 + t, mask, 2) for t in range(3, samples, 4)
                     for mask in range(1 << n) if mask.bit_count() == 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("stack", [False, True])
def test_live_pair_graded_product_is_the_all_pairs_one(n, odd, stack):
    rng = np.random.default_rng(60 + n)
    dim = 1 << n
    x = rng.normal(size=(3, n) if stack else n)
    for p, (left, right) in product((1, dim), product(range(3), repeat=2)):
        omega = _draw(rng, x, (dim, dim, dim), left)
        fs = _draw(rng, x, (dim, dim, p), right)
        # complex operands, and real ones, whose product stays real
        for u, v in ((omega, fs), (omega.map(np.real), fs.map(np.real))):
            got, want = bnd._graded_product(u, v, odd), ref.graded_product(u, v, odd)
            assert got.order == want.order == min(left, right)
            for k in ("val", "d", "dd")[:got.order + 1]:
                g, w = getattr(got, k), getattr(want, k)
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
