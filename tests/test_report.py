"""Report assembly and rendering."""

import json

from diracgeo.report import (CheckResult, VerificationReport, render_human,
                             render_json, report_dict)


def _sample_report():
    rep = VerificationReport("demo", "flat2", 3, 5)
    rep.add("b-second", "x = x", 1e-12, 1e-10, wall_time=0.25)
    rep.add("a-first", "y = y", 2e-9, 1e-10, wall_time=0.5)
    return rep


def test_pass_is_strict_inequality():
    rep = VerificationReport("demo", "flat2", 0, 1)
    c = rep.add("edge", "r < tol", 1e-10, 1e-10)
    assert not c.passed
    c2 = rep.add("under", "r < tol", 0.999e-10, 1e-10)
    assert c2.passed


def test_overall_pass_requires_every_check():
    rep = _sample_report()
    assert not rep.passed
    ok = VerificationReport("demo", "flat2", 0, 1)
    ok.add("only", "z = z", 0.0, 1e-12)
    assert ok.passed
    assert VerificationReport("empty", "flat2", 0, 0).passed


def test_merge_concatenates_checks():
    rep = _sample_report()
    other = VerificationReport("demo2", "flat2", 3, 5)
    other.add("c-third", "w = w", 0.0, 1e-12)
    rep.merge(other)
    assert [c.check_id for c in rep.checks] == ["b-second", "a-first", "c-third"]


def test_report_dict_sorted_and_without_timings_by_default():
    d = report_dict(_sample_report())
    assert [row["id"] for row in d["checks"]] == ["a-first", "b-second"]
    assert all("wall_time" not in row for row in d["checks"])
    assert d["pass"] is False
    assert {"suite", "chart", "seed", "samples", "checks", "pass"} == set(d)
    row = d["checks"][1]
    assert row == {"id": "b-second", "identity": "x = x",
                   "max_residual": 1e-12, "tolerance": 1e-10, "pass": True}


def test_report_dict_with_timings():
    d = report_dict(_sample_report(), timings=True)
    assert d["checks"][0]["wall_time"] == 0.5
    # a check recorded without a wall time stays bare even when asked
    rep = VerificationReport("demo", "flat2", 0, 1)
    rep.add("bare", "q = q", 0.0, 1e-12)
    d2 = report_dict(rep, timings=True)
    assert "wall_time" not in d2["checks"][0]


def test_render_json_is_byte_stable_and_parseable():
    a = render_json(_sample_report())
    b = render_json(_sample_report())
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["suite"] == "demo"
    assert list(parsed) == sorted(parsed)  # sort_keys


def test_render_human_layout():
    txt = render_human(_sample_report())
    lines = txt.splitlines()
    assert lines[0] == "suite demo  chart flat2  seed 3  samples 5"
    assert lines[1].startswith("FAIL  a-first")
    assert lines[2].startswith("PASS  b-second")
    assert lines[-1] == "overall: FAIL"
    assert "ms" not in txt
    timed = render_human(_sample_report(), timings=True)
    assert "ms" in timed


def _odd_reports():
    """Reports with NaN and infinite residuals, escapes, non-ASCII names,
    a check without a wall time, and no checks at all."""
    rep = VerificationReport("sw", "tórus4 ∂", -7, 12)
    rep.add("z-nan", "|F| = \"0\"\\ \t ok", float("nan"), 1e-10, wall_time=1.5e-4)
    rep.add("a-inf", "Q(ψ) ∈ Λ+", float("inf"), 1e-12, wall_time=0.0)
    rep.add("m-neg-inf", "x < y", float("-inf"), 1e-300, wall_time=2.0)
    rep.add("b-zero", "-0 = 0", -0.0, 5e-324)
    rep.add("c-bare", "tiny and huge", 1.7976931348623157e308, 1e16)
    return [rep, VerificationReport("empty", "flat2", 0, 0), _sample_report()]


def test_render_json_equals_the_json_module_byte_for_byte():
    for rep in _odd_reports():
        for timings in (False, True):
            want = json.dumps(report_dict(rep, timings), indent=2, sort_keys=True) + "\n"
            assert render_json(rep, timings) == want
    assert '"checks": []' in render_json(_odd_reports()[1])
