"""One record per canonical id, every id present exactly once per report."""

import numpy as np
import pytest

from starint import (
    Algebra,
    CANONICAL_IDS,
    LinMap,
    Report,
    flip_interaction,
    report_for_failed_candidate,
    run_checklist,
    transpose_map,
    verify_interaction,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_canonical_id_set_is_stable():
    assert len(CANONICAL_IDS) == 33
    assert CANONICAL_IDS[0] == "2.2"
    assert "3.1.iv" in CANONICAL_IDS
    assert "7.3-adjoint" in CANONICAL_IDS


def test_flip_full_report():
    inter = flip_interaction()
    rep = run_checklist(inter.v, inter.h)
    assert rep.passed
    assert set(rep.records) == set(CANONICAL_IDS)
    skipped = {cid for cid, r in rep.records.items() if r.status == "skipped"}
    assert skipped == {"7.8", "7.13"}
    worst = max(r.residual for r in rep.records.values()
                if r.status == "pass" and r.residual is not None)
    assert worst <= 1e-9
    gates = rep.records["3.6"].details
    assert gates["3.6-nondegenerate"] == 1.0
    assert gates["3.6-implication_violation"] == 0.0


def test_verify_stage_only_runs_map_level_ids():
    inter = flip_interaction()
    rep = run_checklist(inter.v, inter.h, stage="verify")
    ran = {cid for cid, r in rep.records.items() if r.status != "skipped"}
    assert ran == {"2.4", "2.6", "2.7", "3.1.i", "3.1.ii", "3.1.iii",
                   "3.1.iv", "3.1.v", "3.3"}
    for cid, r in rep.records.items():
        if r.status == "skipped":
            assert r.reason == "requires build stage"


def test_transpose_fails_with_witness():
    t = transpose_map(Algebra((2,)))
    rep = run_checklist(t, t)
    assert not rep.passed
    rec = rep.records["3.1.iv"]
    assert rec.status == "fail"
    assert rec.residual == pytest.approx(np.sqrt(2))
    assert rec.witness == {"x_kind": "unit", "x_index": 1,
                           "y_kind": "unit", "y_index": 2, "order": "xy"}
    assert rep.records["3.1.i"].status == "pass"
    skipped = [r for r in rep.records.values() if r.status == "skipped"]
    assert len(skipped) == 26
    assert all(r.reason.startswith("pair axioms failed") for r in skipped)


def test_endo_transfer_mode_runs_everything():
    alg = Algebra((1, 1))
    sw = LinMap(alg, SWAP)
    rep = run_checklist(sw, sw, mode="endo_transfer", alpha=sw, transfer=sw)
    assert rep.passed
    assert all(r.status == "pass" for r in rep.records.values())


def test_report_is_deterministic():
    inter = flip_interaction()
    r1 = run_checklist(inter.v, inter.h, seed=4).to_dict()
    r2 = run_checklist(inter.v, inter.h, seed=4).to_dict()
    assert r1 == r2


def test_to_dict_shape_and_summary():
    inter = flip_interaction()
    rep = run_checklist(inter.v, inter.h)
    d = rep.to_dict()
    assert set(d) == {"environment", "checks"}
    assert set(d["checks"]) == set(CANONICAL_IDS)
    lines = rep.summary_lines()
    assert len(lines) == len(CANONICAL_IDS) + 1
    assert lines[-1].endswith("PASS")


def test_coverage_invariant_enforced():
    inter = flip_interaction()
    rep = run_checklist(inter.v, inter.h)
    with pytest.raises(ValueError):
        Report(records={"2.2": rep.records["2.2"]}, environment={})


def test_failed_candidate_report():
    t = transpose_map(Algebra((2,)))
    vr = verify_interaction(t, t)
    rep = report_for_failed_candidate(vr, 1e-9, "compression failed the axioms")
    assert not rep.passed
    assert set(rep.records) == set(CANONICAL_IDS)
    assert rep.records["3.1.iv"].status == "fail"
    assert rep.records["3.1.iv"].residual == pytest.approx(np.sqrt(2))
    assert rep.records["5.2"].status == "skipped"

    bare = report_for_failed_candidate(None, 1e-9, "spec unusable")
    assert not bare.passed
    assert bare.records["3.1.i"].status == "fail"
    assert bare.records["3.1.i"].reason == "spec unusable"


def failing(error):
    def build(*args, **kwargs):
        raise error
    return build


def test_a_refused_representation_fails_62_and_skips_the_other_representation_ids(monkeypatch):
    from starint import CovariantError, checklist

    monkeypatch.setattr(checklist, "build_covrep", failing(CovariantError("refused here")))
    inter = flip_interaction()
    records = run_checklist(inter.v, inter.h).records
    assert (records["6.2"].status, records["6.2"].reason) == ("fail", "refused here")
    for cid in ("2.2", "2.8", "2.9", "3.6", "6.1", "6.3"):
        assert records[cid].status == "skipped", cid
        assert records[cid].reason == "representation construction failed"
    assert records["5.11"].status == records["7.1"].status == "pass"


def test_a_refused_module_fails_52_and_skips_the_other_build_ids(monkeypatch):
    from starint import NumericalDegeneracy, checklist
    from starint.records import VERIFY_STAGE_IDS

    monkeypatch.setattr(checklist, "build_bimodule", failing(NumericalDegeneracy("no module")))
    inter = flip_interaction()
    records = run_checklist(inter.v, inter.h).records
    assert (records["5.2"].status, records["5.2"].reason) == ("fail", "no module")
    for cid in set(CANONICAL_IDS) - set(VERIFY_STAGE_IDS) - {"5.2"}:
        assert records[cid].status == "skipped", cid
        assert records[cid].reason == "module construction failed"


def test_a_refused_expectation_fails_26(monkeypatch):
    from starint import InteractionError, interactions

    monkeypatch.setattr(interactions, "expectation", failing(InteractionError("no expectation")))
    inter = flip_interaction()
    records = run_checklist(inter.v, inter.h, stage="verify").records
    assert (records["2.6"].status, records["2.6"].reason) == ("fail", "no expectation")
    assert records["2.7"].status == "pass"
