"""The build stage of the canonical checklist: the module (§5), the
covariant representation (§6) and the correspondence (§7) of a verified
pair, as records.  The record types, the report and the map-level stage
live in ``records`` and are re-exported here.
"""

from __future__ import annotations

from .algebra import NumericalDegeneracy, worst
from .bimodule import (BimoduleX, build_bimodule, check_action_bound, check_associativity,
                       check_bound_59, check_cauchy_schwarz, check_compatibility,
                       check_fullness, check_norm_agreement, check_positivity, check_sliding,
                       check_ternary_consistency, check_ternary_module_laws)
from .correspondences import (CorrespondenceError, check_71, check_713, check_78,
                              check_commutation, check_cube_identity, check_theta_adjoints,
                              classical_gate, correspondence_from_bimodule, find_redundancies)
from .covariant import (CovariantError, build_covrep, check_commutation_22,
                        check_corner_isomorphisms, check_corner_norms, check_nondegeneracy,
                        check_unit_relations, faithful_extension)
from .interactions import Interaction, InteractionError
from .linmaps import LinMap
from .records import (  # noqa: F401  the records' names are re-exported here
    CANONICAL_IDS, VERIFY_STAGE_IDS, CheckRecord, Report, _axiom_records, _cp_records, _fail,
    _record, _rng, _skip, report_for_failed_candidate, run_checklist, verify_stage_records)


def _covrep_records(inter: Interaction, x: BimoduleX, tol: float
                    ) -> dict[str, CheckRecord]:
    ids = ("2.2", "2.8", "2.9", "3.6", "6.1", "6.2", "6.3")
    try:
        rep = build_covrep(inter, x, tol)
    except CovariantError as err:
        records = {cid: _skip(cid, "representation construction failed")
                   for cid in ids}
        records["6.2"] = _fail("6.2", str(err))
        return records
    records = {
        "2.2": _record("2.2", check_commutation_22(rep), tol),
        "2.8": _record("2.8", check_corner_isomorphisms(rep), tol),
        "2.9": _record("2.9", check_corner_norms(rep), tol),
        "6.1": _record("6.1", check_unit_relations(rep), tol),
        "6.2": _record("6.2", {"covariance": worst([rep.residuals["covariance_v"],
                                                    rep.residuals["covariance_h"]]),
                               **{k: v for k, v in rep.residuals.items()
                                  if not k.startswith("covariance")}}, tol),
    }
    gates = check_nondegeneracy(rep)
    ok = gates["nondegenerate"] == 1.0 and gates["implication_violation"] == 0.0
    records["3.6"] = CheckRecord(
        check_id="3.6", status="pass" if ok else "fail",
        residual=0.0 if ok else 1.0,
        details={f"3.6-{k}": v for k, v in gates.items()})
    ext = faithful_extension(rep)
    ext_details = {f"extended-{k}": v for k, v in ext.residuals.items()}
    ext_details["injectivity-defect"] = 0.0 if ext.injectivity > tol else 1.0
    rec63 = _record("6.3", ext_details, tol)
    rec63.details["6.3-injectivity-gate"] = ext.injectivity
    records["6.3"] = rec63
    return records


def _bimodule_records(x: BimoduleX, tol: float, samples: int,
                      seed: int) -> dict[str, CheckRecord]:
    return {
        "5.2": _record("5.2", check_positivity(x, samples, _rng(seed, 52)), tol),
        "5.3": _record("5.3", check_cauchy_schwarz(x, samples, _rng(seed, 53)), tol),
        "5.4": _record("5.4", check_norm_agreement(x, samples, _rng(seed, 54)), tol),
        "5.6": _record("5.6", check_sliding(x), tol),
        "5.9": _record("5.9", check_bound_59(x, samples, rng=_rng(seed, 59)), tol),
        "5.10": _record("5.10", check_action_bound(x, samples, _rng(seed, 510)), tol),
        "5.11": _record("5.11", check_associativity(x), tol),
        "5.13": _record("5.13", check_compatibility(x), tol),
        "5.14": _record("5.14", check_ternary_consistency(x), tol),
        "5.15": _record("5.15", check_fullness(x), tol),
        "5.17": _record("5.17", check_ternary_module_laws(x), tol),
    }


def _correspondence_records(x: BimoduleX, tol: float) -> dict[str, CheckRecord]:
    ids = ("7.1", "7.2", "7.3-adjoint", "7.8", "7.9")
    try:
        corr = correspondence_from_bimodule(x, tol)
    except CorrespondenceError as err:
        records = {cid: _skip(cid, "correspondence construction failed")
                   for cid in ids}
        records["7.1"] = _fail("7.1", str(err))
        return records
    records = {
        "7.1": _record("7.1", check_71(corr), tol),
        "7.2": _record("7.2", {**check_commutation(corr),
                               **check_cube_identity(corr)}, tol),
        "7.3-adjoint": _record("7.3-adjoint", check_theta_adjoints(corr), tol),
    }
    gate = classical_gate(corr)
    if gate <= tol:
        records["7.8"] = _record("7.8", check_78(corr), tol)
    else:
        records["7.8"] = _skip(
            "7.8", "not in classical form (second composite is not the identity)")
    reds = find_redundancies(corr, "right") + find_redundancies(corr, "left")
    red_details = {"worst-pair": worst([r.residual for r in reds])}
    for side in ("right", "left"):
        red_details[f"{side}-count"] = float(sum(r.side == side for r in reds))
        red_details[f"{side}-restricted"] = float(sum(r.side == side and r.restricted
                                                      for r in reds))
    records["7.9"] = CheckRecord(
        check_id="7.9", status="pass" if red_details["worst-pair"] <= tol else "fail",
        residual=red_details["worst-pair"],
        details={f"7.9-{k}": v for k, v in red_details.items()})
    return records


def build_stage_records(inter: Interaction, tol: float, samples: int, seed: int,
                        mode: str | None = None,
                        alpha: LinMap | None = None,
                        transfer: LinMap | None = None) -> dict[str, CheckRecord]:
    build_ids = [cid for cid in CANONICAL_IDS if cid not in VERIFY_STAGE_IDS]
    # V = H = 0 satisfies every axiom and its module is {0}; no other verified pair
    # has tr(E(1)) = 0, as E = H∘V ≥ 0 then vanishes and so do V = V∘E, H = E∘H
    if max(abs(inter.v.matrix).max(), abs(inter.h.matrix).max()) <= tol:
        return {cid: _skip(cid, "zero pair: the module is {0}") for cid in build_ids}
    try:
        x = build_bimodule(inter, tol)
    except (NumericalDegeneracy, InteractionError) as err:
        records = {cid: _skip(cid, "module construction failed") for cid in build_ids}
        records["5.2"] = _fail("5.2", str(err))
        return records
    records = _bimodule_records(x, tol, samples, seed)
    records.update(_covrep_records(inter, x, tol))
    records.update(_correspondence_records(x, tol))
    if mode == "endo_transfer" and alpha is not None and transfer is not None:
        try:
            records["7.13"] = _record("7.13", check_713(alpha, transfer, inter, x, tol), tol)
        except ValueError as err:
            records["7.13"] = _fail("7.13", str(err))
    else:
        records["7.13"] = _skip("7.13", "requires endomorphism/transfer mode")
    return records
