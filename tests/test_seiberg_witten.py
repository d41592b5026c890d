"""Monopole configurations on the flat 4-torus: equations and functionals."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sw_reference
from diracgeo import seiberg_witten as swm
from diracgeo.seiberg_witten import (BLOCK_INDICES, SWConfig, SWConfigError,
                                     block_projector, curvature_at, load_sw_config,
                                     potential_at, quadratic_identity_residual,
                                     quadratic_pairs, random_sw_config,
                                     spinor_at, sw_config_from_dict,
                                     sw_functional, sw_residuals)

# 2-forms are held on their pair components F[j, k], j < k, in this order
ROWS, COLS = np.triu_indices(4, 1)


def _antisymmetric(v):
    """The antisymmetric 4 x 4 array with pair components v[..., p]."""
    out = np.zeros(v.shape[:-1] + (4, 4), dtype=complex)
    out[..., ROWS, COLS], out[..., COLS, ROWS] = v, -v
    return out


def _cfg_dict(**over):
    base = {"grid": 16, "band": 2, "chirality_block": "+",
            "a_modes": [[0, 1, 0, 0, 0, 0.5, -0.25]],
            "psi_modes": [[0, 0, 1, 0, 0, 1.0, 0.0]]}
    base.update(over)
    return base


def test_block_indices():
    assert BLOCK_INDICES["+"] == (0, 3)
    assert BLOCK_INDICES["-"] == (1, 2)


def test_config_validation_messages():
    with pytest.raises(SWConfigError, match="Nyquist"):
        sw_config_from_dict(_cfg_dict(grid=3))
    with pytest.raises(SWConfigError, match="exceeds band"):
        sw_config_from_dict(_cfg_dict(a_modes=[[0, 3, 0, 0, 0, 1.0, 0.0]]))
    with pytest.raises(SWConfigError, match="outside the declared chirality"):
        sw_config_from_dict(_cfg_dict(psi_modes=[[1, 0, 0, 0, 0, 1.0, 0.0]]))
    with pytest.raises(SWConfigError, match=r"rows are \[component, k1..k4, re, im\]"):
        sw_config_from_dict(_cfg_dict(a_modes=[[0, 1, 0, 0, 0.5]]))
    with pytest.raises(SWConfigError, match="chirality block"):
        sw_config_from_dict(_cfg_dict(chirality_block="left"))
    with pytest.raises(SWConfigError, match="component"):
        sw_config_from_dict(_cfg_dict(a_modes=[[5, 1, 0, 0, 0, 1.0, 0.0]]))
    # the minus block accepts components 1 and 2
    sw_config_from_dict(_cfg_dict(chirality_block="-",
                                  psi_modes=[[2, 0, 1, 0, 0, 0.3, 0.1]]))


@pytest.mark.parametrize("over, message", [
    ({"grid": 9.7}, "grid must be an integer"),
    ({"band": 1.5}, "band must be an integer"),
    ({"grid": True}, "grid must be an integer"),
    ({"band": False}, "band must be an integer"),
    ({"grid": "16"}, "grid must be an integer"),
    ({"a_modes": [[0.5, 1, 0, 0, 0, 1.0, 0.0]]}, "component must be an integer"),
    ({"a_modes": [[True, 1, 0, 0, 0, 1.0, 0.0]]}, "component must be an integer"),
    ({"a_modes": [[0, 1.5, 0, 0, 0, 1.0, 0.0]]}, "mode index must be an integer"),
    ({"psi_modes": [[0, 0, 0, 0, True, 1.0, 0.0]]}, "mode index must be an integer"),
    ({"a_modes": [[0, 1, 0, 0, 0, float("nan"), 0.0]]}, "must be finite numbers"),
    ({"psi_modes": [[0, 0, 1, 0, 0, 1.0, float("inf")]]}, "must be finite numbers"),
    ({"psi_modes": [[0, 0, 1, 0, 0, "1.0", 0.0]]}, "must be finite numbers"),
    ({"a_modes": [3]}, r"rows are \[component, k1..k4, re, im\]"),
])
def test_config_rejects_non_integral_and_non_finite_entries(over, message):
    # int() used to truncate 9.7 to 9 and 1.5 to 1, and NaN or Infinity
    # coefficients (which json parses) gave NaN residuals and functionals
    with pytest.raises(SWConfigError, match=message):
        sw_config_from_dict(_cfg_dict(**over))


def test_config_accepts_integral_floats_and_band_zero():
    cfg = sw_config_from_dict(_cfg_dict(grid=16.0, band=2.0,
                                        a_modes=[[0.0, 1.0, 0, 0, 0, 1, 0]]))
    assert (cfg.grid, cfg.band) == (16, 2)
    assert type(cfg.grid) is int and list(cfg.a_modes) == [(0, (1, 0, 0, 0))]
    # band 0 holds the constant mode only; the old message called it invalid
    flat = sw_config_from_dict(_cfg_dict(grid=1, band=0, a_modes=[],
                                         psi_modes=[[3, 0, 0, 0, 0, 0.5, 0.5]]))
    assert sw_functional(flat)["relative_gap"] < 1e-12
    with pytest.raises(SWConfigError, match="band must be non-negative"):
        sw_config_from_dict(_cfg_dict(band=-1))
    with pytest.raises(SWConfigError, match="grid must be positive"):
        sw_config_from_dict(_cfg_dict(grid=0, band=0, a_modes=[], psi_modes=[]))


def test_config_file_roundtrip(tmp_path):
    import json
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_cfg_dict()))
    cfg = load_sw_config(str(path))
    assert cfg.grid == 16 and cfg.band == 2 and cfg.block == "+"
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SWConfigError):
        load_sw_config(str(bad))


def test_potential_is_purely_imaginary():
    rng = np.random.default_rng(1)
    cfg = random_sw_config(rng)
    for _ in range(10):
        x = rng.uniform(0, 2 * np.pi, 4)
        val, dval = potential_at(cfg, x)
        assert np.max(np.abs(val.real)) < 1e-13
        assert np.max(np.abs(dval.real)) < 1e-13


def test_field_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    cfg = random_sw_config(rng)
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(0, 2 * np.pi, 4)
        _, da = potential_at(cfg, x)
        _, dpsi = spinor_at(cfg, x)
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            ap, _ = potential_at(cfg, x + e)
            am, _ = potential_at(cfg, x - e)
            assert np.max(np.abs((ap - am) / (2 * h) - da[axis])) < 1e-7
            pp, _ = spinor_at(cfg, x + e)
            pm, _ = spinor_at(cfg, x - e)
            assert np.max(np.abs((pp - pm) / (2 * h) - dpsi[axis])) < 1e-7


@pytest.mark.parametrize("block", ["+", "-"])
def test_evaluator_matches_the_per_mode_reference(block):
    # the config's mode arrays, taken to the points by exp(i k.x), against
    # the per-mode loops they replaced: at one point and on a stack
    rng = np.random.default_rng(21)
    for band in (1, 2, 3):
        cfg = random_sw_config(rng, band=band, grid=4 * band + 1, block=block,
                               n_a_modes=12, n_psi_modes=8)
        pts = rng.uniform(-2.0, 8.0, (6, 4))
        for fn, ref in ((potential_at, sw_reference.potential_at),
                        (spinor_at, sw_reference.spinor_at)):
            stacked = fn(cfg, pts)
            for p, x in enumerate(pts):
                for got, on_stack, want in zip(fn(cfg, x), stacked, ref(cfg, x)):
                    bound = 1e-13 * np.max(np.abs(want))
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= bound
                    assert np.max(np.abs(on_stack[p] - want)) <= bound
        _, dval = sw_reference.potential_at(cfg, pts[0])
        f = curvature_at(cfg, pts)
        assert f.shape == (6, 6)
        assert np.max(np.abs(_antisymmetric(f[0]) - (dval - dval.T))) <= \
            1e-13 * np.max(np.abs(dval))


def _mode_array_configs():
    """Seeded configs of band 0-3 on both blocks with 0-12 rows each, plus
    empty mode lists and an exactly cancelling pair z(c, -k) = -conj z(c, k)."""
    rng = np.random.default_rng(31)
    for t in range(80):
        band, block = t % 4, "+-"[t // 4 % 2]
        yield random_sw_config(rng, band=band, grid=4 * band + 1, block=block,
                               n_a_modes=int(rng.integers(0, 13)),
                               n_psi_modes=int(rng.integers(0, 13)))
    for block in "+-":
        yield SWConfig(1, 0, block, {}, {})
        yield _cancelling_config(block)


def _cancelling_config(block):
    z, c = 0.3 - 0.7j, BLOCK_INDICES[block][1]
    return SWConfig(9, 2, block,
                    {(1, (1, 0, -2, 1)): z, (1, (-1, 0, 2, -1)): -np.conj(z),
                     (2, (0, 1, 0, 0)): 0.5, (3, (0, 0, 0, 0)): 1j},
                    {(c, (2, 0, 0, 1)): z, (c, (0, 0, 0, 0)): 0.0})


def test_mode_arrays_equal_the_frequency_cube_bit_for_bit():
    # the mode arrays are built from the mode lists; the cube they replaced
    # read the same rows back from (2 band + 1)^4 spectra
    seen = set()
    for cfg in _mode_array_configs():
        for got, want in zip(cfg.series, sw_reference.cube_mode_arrays(cfg)):
            for g, w in zip(got, want):
                assert (g.dtype, g.shape) == (w.dtype, w.shape)
                assert g.tobytes() == w.tobytes()
        seen.add((cfg.band, cfg.block, len(cfg.series[0][0]), len(cfg.series[1][0])))
    assert {band for band, *_ in seen} == {0, 1, 2, 3}
    assert any(m_a == 0 for *_, m_a, _ in seen) and any(m_p == 0 for *_, m_p in seen)
    # the cancelling pair leaves no row at +-(1, 0, -2, 1), nor does the
    # imaginary constant mode of A (i times a real field) or the zero psi mode
    (ka, _), (kp, _) = _cancelling_config("-").series
    assert ka.tolist() == [[0, -1, 0, 0], [0, 1, 0, 0]]
    assert kp.tolist() == [[2, 0, 0, 1]]


def test_mode_arrays_are_built_once_per_config(monkeypatch):
    from diracgeo import suites
    calls = []
    real = swm._mode_arrays
    monkeypatch.setattr(swm, "_mode_arrays",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    dets = []
    real_det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(1) or real_det(a))
    suites._levi_civita_star.cache_clear()
    cfg = random_sw_config(np.random.default_rng(5), band=2, grid=9)
    series = cfg.series
    for seed in (1, 2):
        assert suites.run_suite("sw", seed=seed, samples=3, sw_config=cfg).passed
    sw_residuals(cfg, np.zeros(4))
    sw_functional(cfg)
    assert cfg.series is series
    assert len(calls) == 2
    # the star oracle of sw-self-dual-projector: 36 determinants per process
    assert len(dets) == 36
    assert np.array_equal(suites._levi_civita_star(), swm._STAR)


def test_a_config_cannot_change_after_its_series_is_built():
    # the series is built once from the mode maps, so the maps and the fields
    # that name them are fixed: a changed config would keep reading the old series
    cfg = random_sw_config(np.random.default_rng(3), band=2, grid=16)
    before = sw_functional(cfg)
    with pytest.raises(TypeError):
        cfg.psi_modes[(0, (1, 1, 0, 0))] = 2
    with pytest.raises(AttributeError):
        cfg.a_modes.clear()
    with pytest.raises(AttributeError):
        cfg.a_modes = {}
    assert sw_functional(cfg) == before
    assert sw_functional(SWConfig(cfg.grid, cfg.band, cfg.block, cfg.a_modes,
                                  cfg.psi_modes)) == before


def test_pointwise_functions_broadcast_over_a_stack():
    rng = np.random.default_rng(22)
    cfg = random_sw_config(rng, band=2, grid=9, block="-")
    pts = rng.uniform(0, 2 * np.pi, (5, 4))
    psi = spinor_at(cfg, pts)[0]
    f = curvature_at(cfg, pts)
    proj = block_projector("-")
    stacked = {"quadratic_pairs": quadratic_pairs(psi, psi),
               "curvature": f,
               "quadratic_identity": quadratic_identity_residual(psi),
               "block_half": f @ proj.T}
    res = sw_residuals(cfg, pts)
    for p, x in enumerate(pts):
        fx = curvature_at(cfg, x)
        single = {"quadratic_pairs": quadratic_pairs(psi[p], psi[p]),
                  "curvature": fx,
                  "quadratic_identity": quadratic_identity_residual(psi[p]),
                  "block_half": fx @ proj.T}
        for key, want in single.items():
            assert np.shape(stacked[key][p]) == np.shape(want), key
            assert np.allclose(stacked[key][p], want, rtol=1e-14, atol=1e-14), key
        for key, want in sw_residuals(cfg, x).items():
            assert isinstance(want, float)
            assert res[key][p] == pytest.approx(want, rel=1e-12, abs=1e-14), key


@pytest.mark.parametrize("block", ["+", "-"])
def test_pointwise_pieces_integrate_to_the_equation_form(block):
    # the trapezoid sum of the squared pointwise equations over the grid
    # nodes is the equation form, which the per-field FFT reference checks:
    # this pins the sign of Q(psi) and the half of F it pairs with, which
    # |Q|^2 and the projector checks cannot see.  F and Q only meet in the
    # integral where A has a difference of two spinor frequencies, so the
    # potential carries e_0 - e_1 and e_0 as well as a random part
    lo, hi = BLOCK_INDICES[block]
    grid = 9
    drawn = random_sw_config(np.random.default_rng(40), band=2, grid=grid,
                             block=block, n_a_modes=6, n_psi_modes=4)
    cfg = sw_config_from_dict(_cfg_dict(
        grid=grid, chirality_block=block,
        a_modes=[[2, 1, -1, 0, 0, 0.5, -0.25], [3, 1, 0, 0, 0, 0.3, 0.6]]
        + [[a, *k, z.real, z.imag] for (a, k), z in drawn.a_modes.items()],
        psi_modes=[[lo, 1, 0, 0, 0, 1.0, 0.0], [hi, 0, 1, 0, 0, 0.7, 0.2],
                   [hi, 0, 0, 0, 0, -0.4, 0.3]]
        + [[c, *k, z.real, z.imag] for (c, k), z in drawn.psi_modes.items()]))
    axis = 2 * np.pi * np.arange(grid) / grid
    pts = np.stack(np.meshgrid(*(axis,) * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    aval, _ = potential_at(cfg, pts)
    psi, dpsi = spinor_at(cfg, pts)
    dirac = np.einsum("arc,pac->pr", swm.GAMMAS,
                      dpsi + 0.5 * aval[:, :, None] * psi[:, None, :])
    resid = curvature_at(cfg, pts) @ block_projector(block).T - quadratic_pairs(psi, psi)
    w1 = (2 * np.pi) ** 4 * np.mean(np.sum(np.abs(dirac) ** 2, axis=1)
                                    + np.sum(np.abs(resid) ** 2, axis=1))
    assert w1 == pytest.approx(sw_functional(cfg)["w_equations"], rel=1e-12)


def _coupled_config(seed, block, band=2, grid=9):
    """A config whose potential sits at differences k_i - k_j of its spinor
    frequencies, the only modes where F and Q(psi) meet in the integral."""
    rng = np.random.default_rng(seed)
    comps = BLOCK_INDICES[block]
    ks = rng.integers(-1, 2, (3, 4))
    psi = [[comps[i % 2], *map(int, k), *rng.normal(size=2)] for i, k in enumerate(ks)]
    a = [[int(rng.integers(0, 4)), *map(int, ks[i] - ks[j]), *rng.normal(size=2)]
         for i in range(3) for j in range(3) if i != j]
    return sw_config_from_dict(_cfg_dict(grid=grid, band=band, chirality_block=block,
                                         a_modes=a, psi_modes=psi))


@pytest.mark.parametrize("block", ["+", "-"])
@pytest.mark.parametrize("seed", [0, 3, 4])
def test_functional_gap_on_configs_that_couple_a_and_psi(seed, block):
    # random sparse configs almost never give A a difference of spinor
    # frequencies, so the cross terms <F, Q> and <d psi, A psi> integrate to
    # 0 and the gap cannot see their sign or factor; on these it can, with
    # the cross term at least 1% of the equation form
    cfg = _coupled_config(seed, block)
    out = sw_functional(cfg)
    assert out["relative_gap"] <= 1e-12
    axis = 2 * np.pi * np.arange(cfg.grid) / cfg.grid
    pts = np.stack(np.meshgrid(*(axis,) * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    fp = curvature_at(cfg, pts) @ block_projector(block).T
    psi = spinor_at(cfg, pts)[0]
    cross = (2 * np.pi) ** 4 * np.mean(np.sum(np.real(np.conj(fp) * quadratic_pairs(psi, psi)),
                                               axis=1))
    assert abs(cross) >= 0.01 * out["w_equations"]


def test_curvature_is_antisymmetric_and_closed():
    rng = np.random.default_rng(3)
    cfg = random_sw_config(rng)
    x = rng.uniform(0, 2 * np.pi, 4)
    f = _antisymmetric(curvature_at(cfg, x))
    _, dval = potential_at(cfg, x)
    assert np.max(np.abs(f - (dval - dval.T))) < 1e-13
    # dF = 0 follows from F = dA; check one Bianchi component by FD
    h = 1e-5
    for (a, b, c) in ((0, 1, 2), (1, 2, 3)):
        total = 0.0j
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            e = np.zeros(4)
            e[i] = h
            total += (_antisymmetric(curvature_at(cfg, x + e))[j, k]
                      - _antisymmetric(curvature_at(cfg, x - e))[j, k]) / (2 * h)
        assert abs(total) < 1e-8


def test_self_dual_projection_is_idempotent():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    f = (raw - raw.T)[ROWS, COLS]
    proj = block_projector("+")
    plus = f @ proj.T
    assert np.max(np.abs(plus @ proj.T - plus)) < 1e-13
    minus = f - plus
    assert np.max(np.abs(minus @ proj.T)) < 1e-13


def _levi_civita_star(f):
    """(star F)_ab = eps_abcd F_cd / 2 on flat R^4, eps from permutation signs."""
    eps = np.zeros((4,) * 4)
    for p in permutations(range(4)):
        eps[p] = np.linalg.det(np.eye(4)[list(p)])
    return 0.5 * np.einsum("abcd,cd->ab", eps, f)


@pytest.mark.parametrize("block, sign", [("+", 1.0), ("-", -1.0)])
def test_curvature_equation_uses_the_block_half(block, sign):
    # Q(psi) is self-dual on S+ and anti-self-dual on S-, so the curvature
    # equation of the block reads (F + sign star F) / 2 = Q(psi)
    rng = np.random.default_rng(13)
    cfg = random_sw_config(rng, band=1, grid=8, block=block)
    for _ in range(5):
        x = rng.uniform(0, 2 * np.pi, 4)
        f = curvature_at(cfg, x)
        form = _antisymmetric(f)
        half = 0.5 * (form + sign * _levi_civita_star(form))
        assert np.max(np.abs(_antisymmetric(f @ block_projector(block).T) - half)) < 1e-14
        psi = spinor_at(cfg, x)[0]
        resid = half - _antisymmetric(quadratic_pairs(psi, psi))
        expect = max(abs(resid[j, k]) for j in range(4) for k in range(j + 1, 4))
        assert sw_residuals(cfg, x)["curvature"] == pytest.approx(expect,
                                                                 rel=1e-12)


def test_quadratic_form_chirality():
    rng = np.random.default_rng(5)
    plus = np.zeros(4, dtype=complex)
    for c in BLOCK_INDICES["+"]:
        plus[c] = rng.normal() + 1j * rng.normal()
    q = quadratic_pairs(plus, plus)
    # -<psi, G_j G_k psi> / 4 on ordered pairs j != k is antisymmetric, and
    # its pairs j < k are Q
    full = -0.25 * np.einsum("r,jkrs,s->jk", np.conj(plus),
                             swm.GAMMAS[:, None] @ swm.GAMMAS[None], plus)
    assert np.max(np.abs((full + full.T)[~np.eye(4, dtype=bool)])) < 1e-13
    assert np.max(np.abs(full[ROWS, COLS] - q)) < 1e-13
    proj = block_projector("+")
    assert np.max(np.abs(q @ proj.T - q)) < 1e-13
    minus = np.zeros(4, dtype=complex)
    for c in BLOCK_INDICES["-"]:
        minus[c] = rng.normal() + 1j * rng.normal()
    q2 = quadratic_pairs(minus, minus)
    # the opposite block lands in the anti-self-dual half
    assert np.max(np.abs(q2 @ proj.T)) < 1e-13


def test_quadratic_identity_for_chiral_spinors():
    rng = np.random.default_rng(6)
    for block in ("+", "-"):
        for _ in range(50):
            psi = np.zeros(4, dtype=complex)
            for c in BLOCK_INDICES[block]:
                psi[c] = rng.normal() + 1j * rng.normal()
            psi *= rng.uniform(0.1, 20.0)
            assert quadratic_identity_residual(psi) < 1e-12
    # a mixed-chirality spinor genuinely breaks it
    mixed = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    assert quadratic_identity_residual(mixed) > 1e-3


def test_residuals_report_keys():
    rng = np.random.default_rng(7)
    cfg = random_sw_config(rng)
    out = sw_residuals(cfg, rng.uniform(0, 2 * np.pi, 4))
    assert set(out) == {"dirac", "curvature", "quadratic_identity"}
    assert out["quadratic_identity"] < 1e-12


def test_zero_configuration_gives_zero_functional():
    cfg = sw_config_from_dict({"grid": 8, "band": 1, "chirality_block": "+",
                               "a_modes": [], "psi_modes": []})
    out = sw_functional(cfg)
    assert out["w_equations"] == 0.0
    assert out["w_weitzenbock"] == 0.0
    assert out["gap"] == 0.0


def test_single_mode_spinor_functional_gap():
    cfg = sw_config_from_dict(_cfg_dict(a_modes=[]))
    out = sw_functional(cfg)
    assert out["w_equations"] > 0
    assert out["gap"] < 1e-8


def test_random_band2_functional_gap():
    rng = np.random.default_rng(42)
    cfg = random_sw_config(rng, band=2, grid=16)
    out = sw_functional(cfg)
    assert out["relative_gap"] < 1e-6


@pytest.mark.parametrize("block", ["+", "-"])
def test_functional_gap_on_both_blocks(block):
    # with F+ in place of F- the gap of a - block config reached 2e-2
    rng = np.random.default_rng(14)
    for _ in range(10):
        cfg = random_sw_config(rng, band=1, grid=8, block=block)
        assert sw_functional(cfg)["relative_gap"] < 1e-6


@pytest.mark.parametrize("block", ["+", "-"])
@pytest.mark.parametrize("band, grid", [(1, 4), (1, 5), (1, 8), (2, 9),
                                        (2, 12), (3, 13), (3, 16)])
def test_functional_matches_per_field_fft_reference(band, grid, block):
    # grid 4 at band 1 lies below the quadrature bound: both alias alike
    rng = np.random.default_rng(100 * band + grid)
    for _ in range(2):
        drawn = random_sw_config(rng, band=band, grid=4 * band + 1,
                                 block=block, n_a_modes=12, n_psi_modes=8)
        cfg = SWConfig(grid, band, block, drawn.a_modes, drawn.psi_modes)
        got, want = sw_functional(cfg), sw_reference.sw_functional(cfg)
        for key in ("w_equations", "w_weitzenbock"):
            assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])


@st.composite
def _fuzzed_configs(draw):
    """Configs of band 0-3 on grids 1 to 4 band + 8 (those below the bound
    built directly, so they alias), with empty mode lists, repeated rows,
    k / -k pairs and potential modes at differences of spinor modes."""
    band = draw(st.integers(0, 3))
    grid = draw(st.integers(1, 4 * band + 8))
    block = draw(st.sampled_from(["+", "-"]))
    freq = st.lists(st.integers(-band, band), min_size=4, max_size=4)
    coef = st.integers(-8, 8).map(lambda v: v / 4.0)

    def rows(comps, most):
        return draw(st.lists(st.tuples(st.sampled_from(comps), freq, coef, coef)
                             .map(lambda r: [r[0], *r[1], r[2], r[3]]), max_size=most))

    psi, a = rows(BLOCK_INDICES[block], 5), rows(range(4), 6)
    if psi and draw(st.booleans()):
        psi.append(list(psi[0]))
    if a and draw(st.booleans()):
        a.append([a[0][0], *(-v for v in a[0][1:5]), *a[0][5:]])
    if draw(st.booleans()):
        a += [[draw(st.sampled_from(range(4))), *(u - v for u, v in zip(r[1:5], t[1:5])),
               draw(coef), draw(coef)] for r in psi for t in psi
              if max(abs(u - v) for u, v in zip(r[1:5], t[1:5])) <= band]
    drawn = sw_config_from_dict(_cfg_dict(grid=4 * band + 1, band=band,
                                          chirality_block=block, a_modes=a,
                                          psi_modes=psi))
    return SWConfig(grid, band, block, drawn.a_modes, drawn.psi_modes)


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(_fuzzed_configs())
def test_functional_matches_the_reference_on_fuzzed_configs(cfg):
    got, want = sw_functional(cfg), sw_reference.sw_functional(cfg)
    scale = max(abs(want["w_equations"]), abs(want["w_weitzenbock"]))
    for key in ("w_equations", "w_weitzenbock"):
        assert abs(got[key] - want[key]) <= 1e-12 * scale


def test_functional_is_grid_independent_above_nyquist():
    rng = np.random.default_rng(8)
    cfg = random_sw_config(rng, band=1, grid=8)
    w8 = sw_functional(cfg)
    cfg16 = SWConfig(16, cfg.band, cfg.block, cfg.a_modes, cfg.psi_modes)
    w16 = sw_functional(cfg16)
    # integrands of a band-1 configuration alias on neither grid
    assert w8["w_equations"] == pytest.approx(w16["w_equations"], rel=1e-9)
    assert w8["w_weitzenbock"] == pytest.approx(w16["w_weitzenbock"], rel=1e-9)


@pytest.mark.parametrize("band", [1, 2, 3])
def test_grid_quadrature_bound(band):
    # |psi|^4 reaches frequency 4*band: the trapezoid rule integrates it
    # exactly only on grids of at least 4*band + 1 points per axis
    cfg = sw_config_from_dict(_cfg_dict(band=band, grid=4 * band + 1))
    assert cfg.grid == 4 * band + 1
    with pytest.raises(SWConfigError, match="quadrature bound"):
        sw_config_from_dict(_cfg_dict(band=band, grid=4 * band))


def test_functional_is_exact_at_the_quadrature_bound():
    # spinor modes at k1 = +1 and -1 give |psi|^4 a frequency-4 component
    cfg = sw_config_from_dict(_cfg_dict(
        band=1, grid=5, psi_modes=[[0, 1, 0, 0, 0, 1.0, 0.0],
                                   [0, -1, 0, 0, 0, 0.7, 0.2],
                                   [3, 0, 1, 0, 0, 0.3, 0.1]]))

    def on_grid(grid):
        return sw_functional(SWConfig(grid, cfg.band, cfg.block, cfg.a_modes,
                                      cfg.psi_modes))["w_equations"]

    assert on_grid(5) == pytest.approx(on_grid(16), rel=1e-12)
    # one point fewer aliases that component
    assert on_grid(4) != pytest.approx(on_grid(16), rel=1e-3)


@pytest.mark.parametrize("band", [1, 2, 3])
def test_functional_is_bit_identical_above_the_bound(band):
    # at and above 4 band + 1 the trapezoid sum is exact, so the functional
    # is summed on that grid: the configured grid sets neither value nor cost
    drawn = random_sw_config(np.random.default_rng(30 + band), band=band,
                             grid=4 * band + 1, n_a_modes=12, n_psi_modes=8)
    want = sw_functional(drawn)
    for grid in range(4 * band + 2, 4 * band + 9):
        cfg = SWConfig(grid, band, drawn.block, drawn.a_modes, drawn.psi_modes)
        assert sw_functional(cfg) == want, grid


def test_random_config_is_seed_deterministic():
    a = random_sw_config(np.random.default_rng(11))
    b = random_sw_config(np.random.default_rng(11))
    assert a.a_modes == b.a_modes
    assert a.psi_modes == b.psi_modes
    c = random_sw_config(np.random.default_rng(12))
    assert c.a_modes != a.a_modes
