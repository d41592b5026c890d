"""The `sw` suite's reports against recorded bytes, and the shape of its work."""

import json

import numpy as np
import pytest

import record_sw_reports
from diracgeo import seiberg_witten as swm
from diracgeo import suites
from diracgeo.seiberg_witten import SWConfigError, random_sw_config, sw_config_from_dict


@pytest.mark.parametrize("run", json.loads(record_sw_reports.REFERENCE.read_text()),
                         ids=lambda run: run["name"])
def test_sw_reports_equal_the_recorded_bytes(run):
    # recorded by record_sw_reports.py; the gap check often reads 0.0, so the
    # two functional forms are compared bit for bit as well
    assert record_sw_reports.render(run["config"], run["seed"], run["samples"]) == run["report"]
    got = swm.sw_functional(sw_config_from_dict(run["config"]))
    assert {k: float(v).hex() for k, v in got.items()} == {
        k: float(v).hex() for k, v in run["functional"].items()}


def test_recorded_configs_cover_the_cases():
    runs = json.loads(record_sw_reports.REFERENCE.read_text())
    assert [r["name"] for r in runs] == [name for name, *_ in record_sw_reports.configs()]
    cfgs = [sw_config_from_dict(r["config"]) for r in runs]
    assert {c.band for c in cfgs} == {0, 1, 2, 3} and {c.block for c in cfgs} == {"+", "-"}
    assert {c.grid == 4 * c.band + 1 for c in cfgs} == {True, False}
    assert not all(c.a_modes for c in cfgs) and not all(c.psi_modes for c in cfgs)


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def test_functional_folds_with_one_unique_and_one_bincount(monkeypatch):
    cfg = random_sw_config(np.random.default_rng(3), band=2, grid=9)
    cfg.series
    unique = _counting(monkeypatch, np, "unique")
    bincount = _counting(monkeypatch, np, "bincount")
    swm.sw_functional(cfg)
    assert (len(unique), len(bincount)) == (1, 1)


def test_sw_run_evaluates_each_series_once(monkeypatch):
    # psi once for the quadratic identity and the projector check, A once
    cfg = random_sw_config(np.random.default_rng(4), band=2, grid=9, block="-")
    calls = _counting(monkeypatch, swm, "_series_at")
    assert suites.run_suite("sw", seed=2, samples=3, sw_config=cfg).passed
    assert len(calls) == 2


def test_sw_run_reads_only_what_its_checks_read(monkeypatch):
    # psi's values, A's partials and Q(psi) at the points once, on the pair
    # components
    cfg = random_sw_config(np.random.default_rng(6), band=2, grid=9)
    partials = _counting(monkeypatch, swm, "_partials")
    pointwise, real = [], swm.quadratic_pairs
    monkeypatch.setattr(swm, "quadratic_pairs", lambda phi, psi: pointwise.append(
        phi.shape == (3, 4)) or real(phi, psi))
    assert suites.run_suite("sw", seed=4, samples=3, sw_config=cfg).passed
    # the functional pairs the spinor's modes once more, not at the points
    assert len(partials) == 1 and sorted(pointwise) == [False, True]


def test_mode_arrays_are_built_without_unique_or_add_at(monkeypatch):
    real_add = np.add
    at_calls = []

    class CountingAdd:
        def __getattr__(self, name):
            return getattr(real_add, name)

        def __call__(self, *args, **kw):
            return real_add(*args, **kw)

        def at(self, *args, **kw):
            at_calls.append(1)
            return real_add.at(*args, **kw)

    cfg = random_sw_config(np.random.default_rng(5), band=3, grid=13,
                           n_a_modes=20, n_psi_modes=12)
    unique = _counting(monkeypatch, np, "unique")
    monkeypatch.setattr(np, "add", CountingAdd())
    (ka, a), (kp, p) = cfg.series
    assert (len(unique), len(at_calls)) == (0, 0)
    assert len(ka) and len(kp)


def test_block_projector_is_one_read_only_array():
    for block in ("+", "-"):
        proj = swm.block_projector(block)
        assert proj is swm.block_projector(block)
        assert not proj.flags.writeable
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0


# (value of a component or mode index, accepted) and (value of re or im, accepted)
INTEGERS = [(2, True), (np.int64(2), True), (2.0, True), (np.float64(2.0), True),
            (True, False), (np.bool_(True), False), (2.5, False), ("2", False), (None, False)]
REALS = [(0.5, True), (1, True), (np.float64(0.5), True), (np.int32(3), True),
         (float("nan"), False), (float("-inf"), False), (np.float64("inf"), False),
         (True, False), (np.bool_(False), False), ("0.5", False), (1j, False)]


@pytest.mark.parametrize("value, accepted", INTEGERS)
def test_config_integers_accept_the_same_values(value, accepted):
    row = [0, value, 0, 0, 0, 1.0, 0.0]
    if accepted:
        cfg = sw_config_from_dict({"grid": 9, "band": 2, "a_modes": [row]})
        assert list(cfg.a_modes) == [(0, (2, 0, 0, 0))]
        assert all(type(v) is int for v in list(cfg.a_modes)[0][1])
    else:
        with pytest.raises(SWConfigError, match="mode index must be an integer"):
            sw_config_from_dict({"grid": 9, "band": 2, "a_modes": [row]})


@pytest.mark.parametrize("value, accepted", REALS)
def test_config_coefficients_accept_the_same_values(value, accepted):
    row = [0, 1, 0, 0, 0, 0.25, value]
    if accepted:
        cfg = sw_config_from_dict({"grid": 9, "band": 2, "psi_modes": [row]})
        assert cfg.psi_modes == {(0, (1, 0, 0, 0)): complex(0.25, value)}
    else:
        with pytest.raises(SWConfigError, match="must be finite numbers"):
            sw_config_from_dict({"grid": 9, "band": 2, "psi_modes": [row]})
