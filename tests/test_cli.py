"""Command line behavior: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracgeo
from diracgeo import cli
from diracgeo import suites
from diracgeo.report import VerificationReport


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "cartan",
                                 "--chart", "flat2", "--samples", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["suite"] == "cartan"
    assert payload["chart"] == "flat2"
    assert all(row["max_residual"] < row["tolerance"]
               for row in payload["checks"])


def test_verify_human_output(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "clifford",
                                 "--chart", "flat2", "--samples", "3",
                                 "--human"])
    assert code == 0
    assert out.splitlines()[-1] == "overall: PASS"
    assert "PASS  clifford-" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    def failing(chart, seed, samples):
        rep = VerificationReport("cartan", chart, seed, samples)
        rep.add("cartan-forced", "always fails", 1.0, 1e-12)
        return rep

    monkeypatch.setitem(suites.CHART_SUITES, "cartan", failing)
    code, out, _ = _run(capsys, ["verify", "--suite", "cartan",
                                 "--chart", "flat2", "--samples", "2"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_usage_errors_exit_two(capsys):
    code, _, _ = _run(capsys, ["verify", "--suite", "spectral"])
    assert code == 2
    code, _, _ = _run(capsys, ["verify", "--chart", "klein_bottle"])
    assert code == 2
    code, _, err = _run(capsys, ["verify", "--suite", "lichnerowicz",
                                 "--chart", "flat3", "--samples", "2"])
    assert code == 2
    assert "even dimension" in err
    code, _, err = _run(capsys, ["verify", "--suite", "sw", "--samples", "2"])
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("suite", ["cartan", "hodge", "all"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_rejects_fewer_than_one_sample(capsys, suite, samples):
    # no sample checks nothing: cartan and hodge used to report a pass at
    # residual 0.0, and all failed on an empty max()
    code, out, err = _run(capsys, ["verify", "--suite", suite, "--chart",
                                   "flat2", "--samples", samples])
    assert code == 2 and out == ""
    assert "at least 1" in err
    with pytest.raises(suites.SuiteUsageError, match="at least 1"):
        suites.run_suite(suite, chart="flat2", samples=int(samples))


def test_verify_help_exits_zero(capsys):
    assert cli.main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_verify_timings_flag_adds_wall_times(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "cartan",
                                 "--chart", "flat2", "--samples", "2",
                                 "--timings"])
    assert code == 0
    payload = json.loads(out)
    assert all("wall_time" in row for row in payload["checks"])


def test_verify_output_is_byte_deterministic(capsys):
    argv = ["verify", "--suite", "levi-civita", "--chart", "sphere2",
            "--samples", "4", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_curvature_known_values(capsys):
    code, out, _ = _run(capsys, ["curvature", "--chart", "sphere2",
                                 "--point", "0.3,-0.1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["scalar_curvature"] == pytest.approx(2.0, abs=1e-9)
    code, out, _ = _run(capsys, ["curvature", "--chart", "flat3",
                                 "--point", "0,0,0"])
    assert json.loads(out)["scalar_curvature"] == 0.0
    assert np.max(np.abs(np.array(json.loads(out)["riemann"]))) == 0.0


def test_curvature_domain_and_parse_errors(capsys):
    code, _, err = _run(capsys, ["curvature", "--chart", "hyperbolic2",
                                 "--point", "1.0,0.5"])
    assert code == 2
    assert "outside domain" in err
    code, _, _ = _run(capsys, ["curvature", "--chart", "sphere2",
                               "--point", "not,a,point"])
    assert code == 2
    code, _, _ = _run(capsys, ["curvature", "--chart", "sphere2",
                               "--point", "0.1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["curvature", "--chart", "flat2", "--point", "nan,0"],
    ["curvature", "--chart", "sphere2", "--point", "inf,0"],
    ["dirac", "--chart", "flat2", "--point", "nan,0"],
    ["dirac", "--chart", "flat2", "--point", "0,-inf"],
    ["sw", "--point", "nan,0,0,0"],
])
def test_non_finite_point_is_a_usage_error(capsys, argv):
    # a NaN coordinate used to pass through every subcommand (exit 0, sw
    # printing NaN residuals); inf on sphere2 failed as a degenerate metric
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "finite" in err


def test_curvature_human_output(capsys):
    code, out, _ = _run(capsys, ["curvature", "--chart", "hyperbolic2",
                                 "--point", "0.5,0", "--human"])
    assert code == 0
    assert "scalar curvature: -2" in out


def test_dirac_payload(capsys):
    code, out, _ = _run(capsys, ["dirac", "--chart", "flat2",
                                 "--point", "0.2,0.4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fiber_dimension"] == 4
    assert payload["commutator_residual"] < 1e-9
    assert len(payload["gammas"]) == 2


def test_dirac_exits_one_when_the_commutator_check_fails(capsys, monkeypatch):
    from diracgeo import bundles as bnd
    real = bnd.apply_dirac

    def broken(D, j):
        # an extra first-order term that c(df) does not account for
        return real(D, j) + 0.5 * j.d[0]

    monkeypatch.setattr(bnd, "apply_dirac", broken)
    code, out, _ = _run(capsys, ["dirac", "--chart", "flat2",
                                 "--point", "0.2,0.4"])
    assert code == 1
    payload = json.loads(out)
    assert payload["commutator_residual"] > 1e-3
    assert set(payload) == {"chart", "point", "fiber_dimension", "gammas",
                            "zero_order", "commutator_residual"}


def test_dirac_exits_one_on_a_nan_residual(capsys, monkeypatch):
    # a max() that starts at 0.0 used to drop a NaN residual and report a
    # pass; a point the fields overflow at is now refused before the gate,
    # so the NaN comes from the residual itself
    from diracgeo import bundles as bnd
    monkeypatch.setattr(bnd, "dirac_commutator_residual",
                        lambda *args: (float("nan"), float("nan")))
    code, out, _ = _run(capsys, ["dirac", "--chart", "flat2",
                                 "--point", "0.2,0.4"])
    assert code == 1
    assert np.isnan(json.loads(out)["commutator_residual"])


@pytest.mark.parametrize("argv", [
    ["dirac", "--chart", "flat2", "--point", "1e200,0"],
    ["dirac", "--chart", "torus2", "--point", "0,1e200"],
    ["dirac", "--chart", "poly2", "--point", "1e200,0"],
    ["curvature", "--chart", "poly2", "--point", "1e200,0"],
    ["curvature", "--chart", "sphere2", "--point", "1e200,0"],
])
def test_unevaluable_point_is_a_usage_error(capsys, argv):
    # the fields overflow at these finite points: the section jets of dirac
    # gave NaN residuals (exit 1) and curvature printed an infinite metric,
    # each after numpy overflow warnings
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "cannot be evaluated" in err


def test_dirac_with_superconnection_config(capsys, tmp_path):
    cfg = tmp_path / "super.json"
    cfg.write_text(json.dumps({"fiber_dimension": 4,
                               "degrees": {"0": "random", "2": "constant"},
                               "seed": 5}))
    code, out, _ = _run(capsys, ["dirac", "--chart", "poly2",
                                 "--config", str(cfg), "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    z = payload["zero_order"]
    assert len(z) == 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fiber_dimension": 3, "degrees": {}}))
    code, _, err = _run(capsys, ["dirac", "--chart", "poly2",
                                 "--config", str(bad)])
    assert code == 2
    assert "fiber_dimension" in err


@pytest.mark.parametrize("text, message", [
    ('[1, 2]', "must be a JSON object"),
    ('{"degrees": [1, 2]}', "degrees must be an object"),
    ('{"degrees": {"1": "random"}, "seed": 1.7}', "seed must be an integer"),
    ('{"degrees": {"1": "random"}, "seed": true}', "seed must be an integer"),
    ('{"degrees": {"1": "random"}, "seed": "1"}', "seed must be an integer"),
])
def test_superconnection_config_entries_are_input_errors(capsys, tmp_path, text,
                                                         message):
    # a list used to raise an uncaught AttributeError, and seed 1.7 ran
    # silently as seed 1
    cfg = tmp_path / "super.json"
    cfg.write_text(text)
    code, out, err = _run(capsys, ["dirac", "--chart", "sphere2",
                                   "--config", str(cfg)])
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("degrees, degree", [
    ('{"1": "random", "01": "zero"}', 1),
    ('{"2": "constant", " 2": "random"}', 2),
])
def test_superconnection_config_rejects_a_degree_named_twice(capsys, tmp_path, degrees,
                                                             degree):
    # the last key used to win silently, dropping the first degree-1 preset
    cfg = tmp_path / "super.json"
    cfg.write_text('{"degrees": %s}' % degrees)
    code, out, err = _run(capsys, ["dirac", "--chart", "sphere2", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert f"degree {degree} is named twice" in err


@pytest.mark.parametrize("text, message", [
    ('{"degrees": {"1": "random"}, "seed": -1}', "seed must be at least 0, got -1"),
    ('{"degrees": {"1": "random(-1)"}}',
     "seed of preset 'random(-1)' must be at least 0, got -1"),
    ('{"degrees": {"1": "random(1.5)"}}',
     "unknown coefficient preset 'random(1.5)'"),
])
def test_superconnection_config_seeds_are_checked(capsys, tmp_path, text, message):
    # a negative seed used to surface numpy's bare "expected non-negative integer"
    cfg = tmp_path / "super.json"
    cfg.write_text(text)
    code, out, err = _run(capsys, ["dirac", "--chart", "sphere2", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("command, text, key", [
    (["verify", "--suite", "sw"],
     '{"grid": 8, "band": 1, "psi_mode": [[0, 0, 1, 0, 0, 1.0, 0.0]]}', "psi_mode"),
    (["sw"], '{"grid": 8, "band": 1, "psi_mode": [[0, 0, 1, 0, 0, 1.0, 0.0]]}',
     "psi_mode"),
    (["dirac", "--chart", "flat2"], '{"degree": {"1": "random"}}', "degree"),
], ids=["verify-sw", "sw", "dirac"])
def test_unknown_config_keys_are_usage_errors(capsys, tmp_path, command, text, key):
    # a misspelt key used to be ignored: "psi_mode" left psi = 0, so every sw
    # check read 0.0 and passed, and "degree" built the zero superconnection
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    code, out, err = _run(capsys, command + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert f"unknown config key {key!r}" in err and "accepted keys" in err


def test_superconnection_config_accepts_an_integral_float_seed(capsys, tmp_path):
    outs = []
    for seed in ("3", "3.0"):
        cfg = tmp_path / "super.json"
        cfg.write_text('{"degrees": {"0": "random", "2": "linear"}, "seed": %s}' % seed)
        code, out, _ = _run(capsys, ["dirac", "--chart", "sphere2",
                                     "--config", str(cfg)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_sw_random_seed_42(capsys):
    code, out, _ = _run(capsys, ["sw", "--seed", "42"])
    assert code == 0
    payload = json.loads(out)
    assert payload["functional"]["relative_gap"] < 1e-6
    assert payload["quadratic_identity_residual"] < 1e-10


def test_sw_exits_one_when_the_functional_gap_fails(capsys, monkeypatch):
    from diracgeo import seiberg_witten as swm
    real = swm.sw_functional

    def broken(cfg):
        # a Weitzenbock form off by one percent
        out = real(cfg)
        w1, w2 = out["w_equations"], 1.01 * out["w_weitzenbock"]
        return {"w_equations": w1, "w_weitzenbock": w2, "gap": abs(w1 - w2),
                "relative_gap": abs(w1 - w2) / max(abs(w1), abs(w2))}

    monkeypatch.setattr(swm, "sw_functional", broken)
    code, out, _ = _run(capsys, ["sw", "--seed", "42"])
    assert code == 1
    payload = json.loads(out)
    assert payload["functional"]["relative_gap"] > suites.SW_FUNCTIONAL_GAP_TOL
    assert set(payload) == {"grid", "band", "chirality_block", "point",
                            "dirac_residual", "curvature_residual",
                            "quadratic_identity_residual", "functional"}


def test_sw_with_config_file(capsys, tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"grid": 16, "band": 2, "chirality_block": "+",
                               "a_modes": [],
                               "psi_modes": [[0, 0, 1, 0, 0, 1.0, 0.0]]}))
    code, out, _ = _run(capsys, ["sw", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["functional"]["gap"] < 1e-8
    missing = tmp_path / "nope.json"
    code, _, _ = _run(capsys, ["sw", "--config", str(missing)])
    assert code == 2


@pytest.mark.parametrize("suite", ["cartan", "lichnerowicz"])
def test_verify_rejects_a_monopole_config_on_a_chart_suite(capsys, tmp_path, suite):
    # the config used to be parsed, dropped, and the chart suite run
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"grid": 8, "band": 1, "chirality_block": "+",
                               "a_modes": [], "psi_modes": []}))
    code, out, err = _run(capsys, ["verify", "--suite", suite, "--chart", "flat2",
                                   "--samples", "2", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert suite in err and "config" in err
    for name in ("sw", "all"):
        code, out, _ = _run(capsys, ["verify", "--suite", name, "--chart", "flat2",
                                     "--samples", "2", "--config", str(cfg)])
        assert code == 0
        assert any(row["id"].startswith("sw-") for row in json.loads(out)["checks"])


@pytest.mark.parametrize("text, message", [
    ('"grid": 9.7, "band": 2', "grid must be an integer"),
    ('"grid": 16, "band": 2, "psi_modes": [[0, 0, 1.5, 0, 0, 1.0, 0.0]]',
     "mode index must be an integer"),
    ('"grid": 16, "band": 2, "psi_modes": [[0, 0, 1, 0, 0, NaN, 0.0]]',
     "must be finite numbers"),
    ('"grid": 16, "band": 2, "a_modes": [[1, 0, 1, 0, 0, 1.0, -Infinity]]',
     "must be finite numbers"),
])
@pytest.mark.parametrize("command", [["sw"], ["verify", "--suite", "sw"]])
def test_sw_config_entries_are_input_errors(capsys, tmp_path, text, message,
                                            command):
    # json parses NaN and Infinity; such a config used to print NaN
    # residuals and exit 1 as a failed identity, and 9.7 ran as grid 9
    cfg = tmp_path / "m.json"
    cfg.write_text("{" + text + "}")
    code, out, err = _run(capsys, command + ["--config", str(cfg)])
    assert code == 2 and out == ""
    assert message in err


def test_sw_human_output(capsys):
    code, out, _ = _run(capsys, ["sw", "--seed", "1", "--human"])
    assert code == 0
    assert "monopole config" in out
    assert "relative" in out


def test_missing_subcommand_exits_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["laplacian", "superconnection", "lichnerowicz",
                                   "levi-civita"])
@pytest.mark.parametrize("chart", ["sphere2", "poly3", "sphere4"])
def test_batched_suites_run_at_one_and_two_samples(capsys, suite, chart):
    # one sample is a stack of one point, the same code as a stack of two:
    # an axis squeezed away at P = 1 would fail one of the two runs
    ids = []
    for samples in ("1", "2"):
        code, out, err = _run(capsys, ["verify", "--suite", suite, "--chart", chart,
                                       "--samples", samples])
        if suite == "lichnerowicz" and chart == "poly3":
            assert code == 2 and "even dimension" in err
            continue
        assert code == 0, err
        payload = json.loads(out)
        assert payload["pass"] is True
        ids.append([row["id"] for row in payload["checks"]])
    assert ids[:1] == ids[1:]


def test_calls_in_one_process_match_fresh_interpreters(capsys):
    # main reuses one parser per process: each call of a sequence prints the
    # stdout and exit code of the same call in a fresh interpreter
    sequence = [["verify", "--suite", "cartan", "--chart", "flat2", "--samples", "2"],
                ["verify", "--suite", "hodge", "--chart", "sphere2", "--samples", "2",
                 "--human"],
                ["verify", "--samples", "0"],
                ["sw", "--seed", "3"],
                ["dirac", "--chart", "sphere2", "--seed", "2"],
                ["curvature", "--chart", "poly3", "--seed", "5"]]
    in_process = [_run(capsys, argv)[:2] for argv in sequence]
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 0, 0]
    env = dict(os.environ, PYTHONPATH=str(Path(diracgeo.__file__).parent.parent))
    for argv, want in zip(sequence, in_process):
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from diracgeo.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], capture_output=True, text=True, env=env, timeout=120)
        assert (fresh.returncode, fresh.stdout) == want, argv
