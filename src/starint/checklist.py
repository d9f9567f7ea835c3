"""Canonical checklist: one record per numbered law, assembled into a report.

The id set is fixed; every report carries each id exactly once, as pass,
fail, or skipped-with-reason.  Sub-residuals of a law live in the record's
details table under suffixed names ("6.2-covariance"), so downstream tooling
can key on stable strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, NumericalDegeneracy, worst
from .bimodule import (
    BimoduleX,
    build_bimodule,
    check_action_bound,
    check_associativity,
    check_bound_59,
    check_cauchy_schwarz,
    check_compatibility,
    check_fullness,
    check_norm_agreement,
    check_positivity,
    check_sliding,
    check_ternary_consistency,
    check_ternary_module_laws,
)
from .correspondences import (
    CorrespondenceError,
    check_71,
    check_713,
    check_78,
    check_commutation,
    check_cube_identity,
    check_theta_adjoints,
    classical_gate,
    correspondence_from_bimodule,
    find_redundancies,
)
from .covariant import (
    CovariantError,
    build_covrep,
    check_commutation_22,
    check_corner_isomorphisms,
    check_corner_norms,
    check_nondegeneracy,
    check_unit_relations,
    faithful_extension,
)
from .interactions import (
    Interaction,
    InteractionError,
    InteractionReport,
    check_inverse_pair,
    verify_interaction,
)
from .linmaps import (
    LinMap,
    complete_contractivity_residual,
    is_completely_positive,
    range_subspace,
)

CANONICAL_IDS: tuple[str, ...] = (
    "2.2", "2.4", "2.6", "2.7", "2.8", "2.9",
    "3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v",
    "3.3", "3.6",
    "5.2", "5.3", "5.4", "5.6", "5.9", "5.10", "5.11",
    "5.13", "5.14", "5.15", "5.17",
    "6.1", "6.2", "6.3",
    "7.1", "7.2", "7.3-adjoint", "7.8", "7.9", "7.13",
)

VERIFY_STAGE_IDS: frozenset[str] = frozenset(
    {"2.4", "2.6", "2.7", "3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v", "3.3"})


@dataclass
class CheckRecord:
    check_id: str
    status: str                      # "pass" | "fail" | "skipped"
    residual: float | None = None
    witness: dict | None = None
    reason: str | None = None
    details: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        if self.details:
            out["details"] = dict(self.details)
        return out


@dataclass
class Report:
    records: dict[str, CheckRecord]
    environment: dict

    def __post_init__(self) -> None:
        got = tuple(sorted(self.records))
        want = tuple(sorted(CANONICAL_IDS))
        if got != want:
            missing = set(want) - set(got)
            extra = set(got) - set(want)
            raise ValueError(f"checklist coverage broken: missing {sorted(missing)}, "
                             f"extra {sorted(extra)}")

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records.values())

    def to_dict(self) -> dict:
        return {
            "environment": dict(self.environment),
            "checks": {cid: self.records[cid].to_dict() for cid in CANONICAL_IDS},
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for cid in CANONICAL_IDS:
            rec = self.records[cid]
            if rec.status == "skipped":
                lines.append(f"{cid:<12} skipped   ({rec.reason})")
            else:
                res = "" if rec.residual is None else f"residual {rec.residual:.3e}"
                lines.append(f"{cid:<12} {rec.status:<9} {res}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall      {verdict}")
        return lines


def _record(check_id: str, residuals: dict[str, float], tol: float,
            witness: dict | None = None) -> CheckRecord:
    details = {f"{check_id}-{k}": float(v) for k, v in residuals.items()}
    # a non-finite residual fails the record and is reported as its residual
    bad = [v for v in details.values() if not math.isfinite(v)]
    worst = bad[0] if bad else max(details.values(), default=0.0)
    status = "pass" if not bad and worst <= tol else "fail"
    return CheckRecord(check_id=check_id, status=status, residual=worst,
                       witness=witness if status == "fail" else None,
                       details=details)


def _skip(check_id: str, reason: str) -> CheckRecord:
    return CheckRecord(check_id=check_id, status="skipped", reason=reason)


def _fail(check_id: str, reason: str) -> CheckRecord:
    return CheckRecord(check_id=check_id, status="fail", reason=reason)


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


def _axiom_records(report: InteractionReport, tol: float) -> dict[str, CheckRecord]:
    res, wit = report.residuals, report.witnesses
    records: dict[str, CheckRecord] = {}
    for cid in ("3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v"):
        records[cid] = _record(cid, {"worst": res[cid]}, tol, wit.get(cid))
    records["2.4"] = _record("2.4", {"v-composition": res["2.4.i"],
                                     "h-composition": res["2.4.ii"]}, tol)
    return records


def _cp_records(v: LinMap, h: LinMap, tol: float, samples: int,
                seed: int) -> CheckRecord:
    details: dict[str, float] = {}
    for name, t in (("v", v), ("h", h)):
        _, low = is_completely_positive(t, tol)
        details[f"choi-defect-{name}"] = 0.0 if low >= 0 else -low  # NaN comes through
        details[f"contractivity-{name}"] = complete_contractivity_residual(
            t, samples, _rng(seed, 33))
    return _record("3.3", details, tol)


def verify_stage_records(v: LinMap, h: LinMap, tol: float, samples: int,
                         seed: int) -> tuple[Interaction | None, dict[str, CheckRecord]]:
    """The map-level half of the checklist; returns the verified pair when it
    exists so later stages can reuse it."""
    report = verify_interaction(v, h, tol, samples, _rng(seed, 31))
    records = _axiom_records(report, tol)
    records["3.3"] = _cp_records(v, h, tol, samples, seed)
    if not report.passed:
        why = f"pair axioms failed at {', '.join(sorted(report.failing()))}"
        records["2.6"] = _skip("2.6", why)
        records["2.7"] = _skip("2.7", why)
        return None, records
    inter = Interaction(algebra=v.algebra, v=v, h=h, tol=tol,
                        range_v=range_subspace(v, tol),
                        range_h=range_subspace(h, tol),
                        report=report)
    try:
        details = {}
        for name, exp in (("v", inter.e_v), ("h", inter.e_h)):
            for k, val in exp.residuals.items():
                details[f"{name}-{k}"] = val
            low = exp.cp_min_eig
            details[f"{name}-choi-defect"] = 0.0 if low >= 0 else -low
        records["2.6"] = _record("2.6", details, tol)
    except InteractionError as err:
        records["2.6"] = _fail("2.6", str(err))
    records["2.7"] = _record("2.7", check_inverse_pair(inter), tol)
    return inter, records


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
        records["7.13"] = _record("7.13", check_713(alpha, transfer, inter, x, tol), tol)
    else:
        records["7.13"] = _skip("7.13", "requires endomorphism/transfer mode")
    return records


def run_checklist(v: LinMap, h: LinMap, *, tol: float = DEFAULT_TOL,
                  stage: str = "build", samples: int = 25, seed: int = 0,
                  mode: str | None = None,
                  alpha: LinMap | None = None,
                  transfer: LinMap | None = None,
                  environment: dict | None = None) -> Report:
    """Assemble the full report for a candidate pair.

    stage "verify" computes only the map-level ids and marks the rest as
    skipped; stage "build" additionally constructs the module, the two-block
    representation, and the ternary layer.
    """
    env = dict(environment or {})
    env.setdefault("tolerance", tol)
    env.setdefault("seed", seed)
    env.setdefault("samples", samples)
    env.setdefault("stage", stage)
    env.setdefault("mode", mode or "plain")
    env.setdefault("dims", list(v.algebra.blocks))
    inter, records = verify_stage_records(v, h, tol, samples, seed)
    remaining = [cid for cid in CANONICAL_IDS if cid not in records]
    if stage == "verify":
        for cid in remaining:
            records[cid] = _skip(cid, "requires build stage")
    elif inter is None:
        for cid in remaining:
            records[cid] = _skip(cid, "pair axioms failed")
    else:
        records.update(build_stage_records(inter, tol, samples, seed,
                                           mode, alpha, transfer))
    return Report(records=records, environment=env)


def report_for_failed_candidate(report: InteractionReport | None, tol: float,
                                message: str,
                                environment: dict | None = None) -> Report:
    """Canonical report for a candidate that could not even be assembled
    (e.g. a partial-isometry spec whose compression fails the axioms)."""
    records: dict[str, CheckRecord] = {}
    if report is not None:
        records.update(_axiom_records(report, tol))
    else:
        for cid in ("3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v", "2.4"):
            records[cid] = _fail(cid, message)
    for cid in CANONICAL_IDS:
        records.setdefault(cid, _skip(cid, message))
    return Report(records=records, environment=dict(environment or {}))
