"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the root)."""

from __future__ import annotations

import json
import os

import pytest

import checks
import layers
from problems import FAMILIES, generate
from tracer import self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "flip_report_golden.json")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generator_same_seed_same_files(tmp_path, family):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = open(generate(family, 3, 7, 0, str(a)), "rb").read()
    again = open(generate(family, 3, 7, 0, str(b)), "rb").read()
    other = open(generate(family, 3, 8, 0, str(c)), "rb").read()
    assert first == again
    assert first != other


def _golden() -> bytes:
    with open(GOLDEN, "rb") as fh:
        return fh.read()


def _flip_build(**kw) -> checks.Job:
    return checks.Job("build flip", ["build", "tests/data/flip.json"], "report",
                      known_good=True, golden=_golden(), **kw)


def test_golden_passes_clean():
    assert checks.check(_flip_build(), 0, _golden()) == []


def test_flags_wrong_exit_code():
    assert checks.check(_flip_build(), 1, _golden()) == ["exit 1, expected 0"]


def test_flags_flipped_status():
    report = json.loads(_golden())
    report["checks"]["5.11"]["status"] = "fail"
    out = json.dumps(report).encode()
    ref = checks.statuses(json.loads(_golden()))
    misses = checks.check(_flip_build(ref_statuses=ref), 0, out)
    assert "known-good pair fails ['5.11']" in misses
    assert "statuses differ from the x1 run at ['5.11']" in misses
    assert not any(checks.is_known(m) for m in misses)


def test_flags_one_byte_change_to_golden():
    golden = bytearray(_golden())
    at = golden.index(b"2.220446049250313e-16")
    golden[at] = ord("3")
    assert checks.check(_flip_build(), 0, bytes(golden)) == [
        "report differs from the golden file"]


def test_flags_missing_and_duplicate_ids():
    report = json.loads(_golden())
    del report["checks"]["7.13"]
    misses = checks.check(_flip_build(), 0, json.dumps(report).encode())
    assert misses and "missing ['7.13']" in misses[0]
    text = _golden().replace(b'"2.4": {', b'"2.2": {')
    misses = checks.check(_flip_build(), 0, text)
    assert misses and "duplicate keys" in misses[0]


def _adu_report(details: dict[str, float]) -> bytes:
    report = json.loads(_golden())
    report["checks"]["5.4"] = {"status": "fail", "residual": max(details.values()),
                               "details": details}
    return json.dumps(report).encode()


def test_known_defect_is_recognised_and_nothing_else():
    job = checks.Job("build adu2", ["build", "adu2.json"], "report",
                     family="adu", known_good=True)
    known = _adu_report({"5.4-kernels_coincide": 0.7, "5.4-rank_mismatch": 0.0})
    misses = checks.check(job, 1, known)
    assert len(misses) == 1 and checks.is_known(misses[0])
    other = _adu_report({"5.4-kernels_coincide": 0.7, "5.4-rank_mismatch": 1.0})
    assert not all(checks.is_known(m) for m in checks.check(job, 1, other))
    diag = checks.Job("build diag2", ["build", "diag2.json"], "report",
                      family="diag", known_good=True)
    assert not all(checks.is_known(m) for m in checks.check(diag, 1, known))


def test_usage_and_emit_checks():
    bad = checks.Job("verify malformed", ["verify", "m.json"], "usage", expect_code=2)
    assert checks.check(bad, 2, b"") == []
    assert checks.check(bad, 1, b"") == ["exit 1, expected 2"]
    emit = checks.Job("emit covrep", ["build", "x.json"], "emit",
                      emit={"r": 9, "s": 9, "tol": 1e-9})
    good = {"r": 9, "s": 9, "residual_table": {"pi_star": 0.0}}
    assert checks.check(emit, 0, json.dumps(good).encode()) == []
    worse = dict(good, s=8, residual_table={"pi_star": 1e-3})
    assert len(checks.check(emit, 0, json.dumps(worse).encode())) == 2


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, "p"]


def test_self_time_arithmetic():
    spans = [
        _span("checklist.run_checklist", "checklist", 0.0, 10.0, -1),
        _span("bimodule.build_bimodule", "bimodule", 1.0, 4.0, 0),
        _span("bimodule.inner_r", "bimodule", 2.0, 3.0, 1),
        _span("bimodule.check_fullness", "bimodule", 5.0, 9.0, 0),
        _span("bimodule.inner_r", "bimodule", 5.5, 6.0, 3),
        _span("bimodule.inner_l", "bimodule", 6.0, 7.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    values = layers.per_layer(spans, {"p": {"size.r": 3.0}})
    assert values["checklist.self_s"] == pytest.approx(3.0)
    assert values["bimodule.self_s"] == pytest.approx(7.0)
    assert values["bimodule.inner_s"] == pytest.approx(3.0)
    assert values["bimodule.inner_calls"] == 3
    assert values["check.5.15_s"] == pytest.approx(4.0)
    assert values["size.r"] == 3.0


def test_ordinal_check_attribution():
    spans = [
        _span("checklist.verify_stage_records", "checklist", 0.0, 10.0, -1),
        _span("interactions.verify_interaction", "interactions", 0.0, 9.0, 0),
        _span("linmaps.map_residual", "linmaps", 1.0, 2.0, 1),
        _span("linmaps.map_residual", "linmaps", 2.0, 4.0, 1),
        _span("interactions._multiplicativity_scan", "interactions", 4.0, 7.0, 1),
        _span("interactions._multiplicativity_scan", "interactions", 7.0, 8.5, 1),
    ]
    times = layers.check_times(spans)
    assert times["3.1.ii"] == pytest.approx(1.0)
    assert times["3.1.iii"] == pytest.approx(2.0)
    assert times["3.1.iv"] == pytest.approx(3.0)
    assert times["3.1.v"] == pytest.approx(1.5)
    assert times["2.4"] == 0.0


def test_tracer_patches_every_binding_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import starint.bimodule
    import starint.checklist
    from tracer import Tracer

    original = starint.bimodule.check_fullness
    original_inner = starint.bimodule.BimoduleX.inner_r
    tracer = Tracer()
    tracer.install()
    try:
        assert starint.checklist.check_fullness is not original
        assert starint.bimodule.check_fullness is starint.checklist.check_fullness
        assert starint.bimodule.BimoduleX.inner_r is not original_inner
    finally:
        tracer.uninstall()
    assert starint.checklist.check_fullness is original
    assert starint.bimodule.check_fullness is original
    assert starint.bimodule.BimoduleX.inner_r is original_inner
