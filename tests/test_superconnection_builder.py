"""The superconnection builder and the operator data built from it: the
stream oracle against the per-blade loop in any read order, evaluation on
the blade axis against the loop's dense field, one seeding per drawn blade,
the shared D^2 coefficients and quantization maps, the stacked special
predicate and the blades it reads, the blade generators a suite run seeds,
seeds past int64, and the live-pair graded product against the all-pairs one
and the superconnection action's truncated one."""

import gc
from collections import Counter
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


def _assert_eval_is_the_reference_field(S, field, x):
    """S.eval at x is the loop reference's dense field evaluated there, at
    orders 0-2, to a relative 1e-14: the products may sum in another order."""
    for order in range(3):
        got, want = S.eval(x, order), field.eval(x, order)
        assert got.order == want.order == order
        for k in ("val", "d", "dd")[:order + 1]:
            g, w = getattr(got, k), getattr(want, k)
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shift", range(len(SPEC_SETS)))
def test_builder_draws_the_streams_of_the_per_blade_loop(n, shift):
    ms = bnd.exterior_module(n)
    # degrees above n name no blade; dropping one degree leaves its blades
    # absent, and the presets put the blades on up to three exponent tables
    specs = {p: spec for p, spec in SPEC_SETS[shift].items() if p <= n and p != shift % 3}
    xs = np.random.default_rng(n).uniform(-0.8, 0.8, (4, n))
    for seed in (0, 7, np.int64(12), 3.0):
        S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seed)
        field, blades = ref.superconnection_field(n, ms.m, ms.eta, specs, int(seed))
        _assert_eval_is_the_reference_field(S, field, xs[0])
        # a single superconnection at a stack of points
        _assert_eval_is_the_reference_field(S, field, xs)
        _assert_entries_are_the_reference_blades(S, ms, specs, seed)
    seeds = [4, 1, 4, 30]
    S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seeds)
    field, _ = ref.superconnection_field(n, ms.m, ms.eta, specs, seeds)
    _assert_eval_is_the_reference_field(S, field, xs)
    _assert_entries_are_the_reference_blades(S, ms, specs, seeds)


def test_builder_draws_only_the_blades_it_names():
    ms = bnd.exterior_module(3)
    S = bnd.superconnection_from_degrees(3, ms.m, ms.eta, {1: "linear"}, [2, 3])
    assert sorted(S.masks) == [1, 2, 4]
    assert all(np.array_equal(S.entries(mask).exponents, exponent_table(3, 1))
               for mask in S.masks)
    x = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
    omega = S.eval(x, 1)
    for part, others in ((omega.val, (0, 2, 3)), (omega.d, (0, 1, 3, 4))):
        assert np.flatnonzero(np.any(part != 0, axis=others)).tolist() == [1, 2, 4]
    empty = bnd.superconnection_from_degrees(3, ms.m, ms.eta, {0: "zero"}, 5)
    omega = empty.eval(x[0], 2)
    assert omega.val.shape == (8, 8, 8) and omega.dd.shape == (3, 3, 8, 8, 8)
    assert not any(np.any(part) for part in (omega.val, omega.d, omega.dd))
    assert empty.entries(0).coeffs.size == 0


def test_a_drawn_blade_seeds_its_generator_once(monkeypatch):
    ms = bnd.exterior_module(3)
    seeded, real_rng = [], np.random.default_rng
    monkeypatch.setattr(bnd.np.random, "default_rng",
                        lambda seed, *rest: seeded.append(seed) or real_rng(seed, *rest))
    S = bnd.superconnection_from_degrees(
        3, ms.m, ms.eta, {0: "random", 1: "linear", 2: "constant"}, [4, 9, 1])
    assert not seeded
    # read twice, a blade is drawn once: one generator per seed of the stack
    first = S.entries(3)
    assert S.entries(3) is first and len(seeded) == 3
    x = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6], [-0.7, 0.2, 0.0]])
    a, b = S.eval(x, 2), S.eval(x, 2)
    assert len(seeded) == 3 * len(S.masks) == len(set(seeded))
    assert all(np.array_equal(u, v) for u, v in zip((a.val, a.d, a.dd), (b.val, b.d, b.dd)))
    # a selection after an eval copies the kept draws
    T = S.select(range(1, 3))
    assert np.array_equal(T.eval(x[1:], 1).val[:, 3], a.val[1:, 3])
    assert len(seeded) == 3 * len(S.masks)


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
    return _dirac_square_per_call(D, Jet.constant(np.eye(D.m), D.mj.x))


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
    D0 = bnd.quantize_superconnection(S.eval(xs, 0), S.masks, mj, ms)
    j = random_poly_field(rng, n, (ms.m,), complex_coeffs=True).eval(xs, 2)[..., None]
    bnd.apply_dirac(D0, j)
    assert not calls and "square_coefficients" not in vars(D0)

    D = bnd.quantize_superconnection(S.eval(xs, 1), S.masks, mj, ms)
    assert np.array_equal(bnd.dirac_square(D, j), _dirac_square_per_call(D, j))
    assert len(calls) == 2
    # the probe block of the identity, and the coefficients of U, reuse them
    H = bnd.laplacian_from_dirac(D)
    bnd.lap_identity_residual(H)
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


READS = {"eval first": lambda S, pts: None,
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
        _assert_eval_is_the_reference_field(S, field, pts if np.ndim(seed) else pts[0])
        _assert_entries_are_the_reference_blades(S, ms, specs, seed)


@pytest.mark.parametrize("chart, generators", [("sphere2", 15), ("sphere4", 15)])
def test_special_predicate_draws_only_the_degree_two_blades(chart, generators,
                                                            monkeypatch):
    # the predicate reads the first degree-2 blade of the 15 trials that have
    # them, which decides every verdict, and evaluates no stack on the blade axis
    active, built, stacks, evaluated = [False], [], [], []
    real_rng, real_timed = np.random.default_rng, suites._timed
    real_build, real_eval = bnd.superconnection_from_degrees, bnd.SuperconnectionData.eval

    def rng(*args, **kwargs):
        built.append(active[0])
        return real_rng(*args, **kwargs)

    def build(*args, **kwargs):
        S = real_build(*args, **kwargs)
        stacks.extend([S] if active[0] else [])
        return S

    def evaluate(S, *args, **kwargs):
        evaluated.append(active[0])
        return real_eval(S, *args, **kwargs)

    def timed(rep, cid, identity, tol, fn):
        active[0] = cid == "superconnection-special-predicate"
        try:
            real_timed(rep, cid, identity, tol, fn)
        finally:
            active[0] = False

    monkeypatch.setattr(bnd.np.random, "default_rng", rng)
    monkeypatch.setattr(bnd, "superconnection_from_degrees", build)
    monkeypatch.setattr(suites, "_timed", timed)
    monkeypatch.setattr(bnd.SuperconnectionData, "eval", evaluate)
    rep = suites.run_suite("superconnection", chart, seed=5, samples=2)
    check, = [c for c in rep.checks if c.check_id == "superconnection-special-predicate"]
    assert check.passed and check.max_residual == 0.0
    assert sum(built) == generators
    assert [S.size for S in stacks] == [15, 8, 7]
    assert evaluated and not any(evaluated)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_selected_members_are_the_members_built_on_their_own(n, monkeypatch):
    ms = bnd.exterior_module(n)
    specs, seeds = {0: "random", 1: "linear", 2: "random(11)"}, [4, 9, 1, 7]
    S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs, seeds)
    picks = (range(4), range(1, 4, 2), range(2, 3))
    xs = np.random.default_rng(n).uniform(-0.5, 0.5, (4, n))
    S.eval(xs, 0)
    with monkeypatch.context() as patch:
        # once the blades are read, selecting and evaluating the selection seed
        # no generator
        patch.setattr(bnd.np.random, "default_rng", None)
        got = [(S.select(members), S.select(range(4)).select(members)) for members in picks]
        evals = [[T.eval(xs[members], 2) for T in pair] for members, pair in zip(picks, got)]
    for members, pair, pair_evals in zip(picks, got, evals):
        want = bnd.superconnection_from_degrees(n, ms.m, ms.eta, specs,
                                                [seeds[k] for k in members])
        wanted = want.eval(xs[members], 2)
        for T, omega in zip(pair, pair_evals):
            assert T.masks == want.masks and T.size == len(members) and T.stacked
            for mask in T.masks:
                e, w = T.entries(mask), want.entries(mask)
                assert not e.coeffs.flags.writeable
                assert not np.shares_memory(e.coeffs, S.entries(mask).coeffs)
                assert np.array_equal(e.exponents, w.exponents)
                assert np.array_equal(e.coeffs, w.coeffs)
            for k in ("val", "d", "dd"):
                assert np.array_equal(getattr(omega, k), getattr(wanted, k))


@pytest.mark.parametrize("chart, samples, seedings", [("sphere4", 1, 34), ("sphere4", 2, 53),
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
    # D's stack, draw their first degree-2 blade, mask 3, again
    again = sorted(key for key, count in Counter(seeded).items() if count > 1)
    assert max(Counter(seeded).values()) <= 2
    assert again == [(5 + t, 3, 2) for t in range(3, samples, 4)]


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


def test_special_predicate_stops_reading_once_every_member_is_decided(monkeypatch):
    n = 4
    ms = bnd.exterior_module(n)
    pts = np.random.default_rng(8).uniform(-0.5, 0.5, (3, n))
    read, real = [], bnd.SuperconnectionData.entries
    monkeypatch.setattr(bnd.SuperconnectionData, "entries",
                        lambda S, mask: read.append(mask) or real(S, mask))
    # the first degree-2 blade is nonzero in both members: it decides both
    S = bnd.superconnection_from_degrees(n, ms.m, ms.eta, {1: "random", 2: "random",
                                                           3: "random"}, [1, 2])
    special, worst = bnd.is_special_superconnection(S, pts)
    want = np.max(np.abs(S.entries(3).jet(np.broadcast_to(pts[:, None], (3, 2, n)), 0)[0]),
                  axis=(0, 2))
    assert read[0] == 3 and set(read) == {3}
    assert special.tolist() == [False, False] and np.array_equal(worst, want)
    # zero blades decide nothing: every blade of degree >= 2 is read
    read.clear()
    Z = bnd.superconnection_from_degrees(n, ms.m, ms.eta, {1: "random", 2: "zero",
                                                           3: "zero"}, [1, 2])
    special, worst = bnd.is_special_superconnection(Z, pts)
    assert read == [mask for mask in range(1 << n) if mask.bit_count() in (2, 3)]
    assert special.tolist() == [True, True] and worst.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("chart, samples, maps", [("sphere4", 1, 1), ("sphere4", 5, 2),
                                                  ("sphere2", 5, 2)])
def test_a_superconnection_run_builds_one_quantization_map_per_metric_jet(
        chart, samples, maps, monkeypatch):
    # D at every point, and D_1, D_2 at the first few, share one map per metric
    # jet and order: one when the first few are every point
    built, real = [], bnd.quantize_blades
    monkeypatch.setattr(bnd, "quantize_blades",
                        lambda gammas, one: built.append(gammas.x) or real(gammas, one))
    assert suites.run_suite("superconnection", chart, seed=5, samples=samples).passed
    assert len(built) == maps
    assert len({id(x) for x in built}) == maps


def test_a_quantization_map_is_kept_per_metric_jet_and_order():
    ch, ms = get_chart("poly3"), bnd.exterior_module(3)
    xs = np.random.default_rng(3).uniform(-0.3, 0.3, (2, 3))
    mj, other = metric_jet(ch, xs), metric_jet(ch, xs)
    q0 = ms.quantization(mj, 0)
    assert ms.quantization(mj, 0) is q0
    assert ms.quantization(mj, 1) is not q0 and ms.quantization(other, 0) is not q0
    assert q0(3).order == 0 and ms.quantization(mj, 1)(3).order == 1
    # the blades of one map are built once, and the maps of a jet go with it
    assert q0(7) is q0(7)
    del other
    gc.collect()
    assert list(ms._maps) == [mj]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_superconnection_action_equals_the_full_order_computation(n, order):
    # the graded product is taken to the orders d fs keeps; the full-order
    # product's top order is dropped by the sum, so the values are the same bits
    rng = np.random.default_rng(70 + n)
    dim = 1 << n
    for x in (rng.normal(size=n), rng.normal(size=(3, n))):
        for left in (order, 2):
            omega = _draw(rng, x, (dim, dim, dim), left)
            fs = _draw(rng, x, (dim, dim), order)
            got = bnd.apply_superconnection(omega, fs)
            want = (bnd.exterior_derivative(fs)
                    + bnd._graded_product(omega, fs[..., None], 1)[..., 0])
            assert got.order == want.order == order - 1
            for k in ("val", "d")[:order]:
                assert np.array_equal(getattr(got, k), getattr(want, k))


@pytest.mark.parametrize("base", [0, 2 ** 31 + 5, 2 ** 63 - 31])
def test_member_seeds_below_the_int64_bound_keep_their_streams(base):
    # member seeds are Python ints; below 2^63 - 30 they are the int64 seeds
    # that base + np.arange(count) gave
    ms = bnd.exterior_module(2)
    got = suites._superconnections(ms, 2, 3, base)
    want = bnd.superconnection_from_degrees(2, ms.m, ms.eta, {0: "random", 1: "random",
                                                              2: "random"}, base + np.arange(3))
    for mask in want.masks:
        assert np.array_equal(got.entries(mask).coeffs, want.entries(mask).coeffs)
    big = suites._superconnections(ms, 2, 2, 2 ** 64)
    assert big.size == 2 and big.entries(3).coeffs.shape[0] == 2
