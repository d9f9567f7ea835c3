"""Canonical checklist: one record per numbered law, assembled into a report,
and the map-level stage that the ``verify`` command runs.

The id set is fixed; every report carries each id exactly once, as pass,
fail, or skipped-with-reason.  Sub-residuals of a law live in the record's
details table under suffixed names ("6.2-covariance"), so downstream tooling
can key on stable strings.  The build stage (the module, the covariant
representation and the correspondence) lives in ``checklist`` and is
imported only by a run that reaches it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import DEFAULT_TOL
from .interactions import (Interaction, InteractionError, InteractionReport,
                           check_inverse_pair, verify_interaction)
from .linmaps import LinMap, complete_contractivity_residual, is_completely_positive

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


class CheckRecord(NamedTuple):
    check_id: str
    status: str                      # "pass" | "fail" | "skipped"
    residual: float | None = None
    witness: dict | None = None
    reason: str | None = None
    details: dict[str, float] | None = None   # a computed record's sub-residuals

    def to_dict(self) -> dict:
        """The record's set fields, details only where there are some."""
        out = {"status": self.status, "residual": self.residual, "witness": self.witness,
               "reason": self.reason, "details": dict(self.details) if self.details else None}
        return {key: value for key, value in out.items() if value is not None}


class Report:
    """One record for each canonical id, and the run's environment."""

    def __init__(self, records: dict[str, CheckRecord], environment: dict):
        got = tuple(sorted(records))
        want = tuple(sorted(CANONICAL_IDS))
        if got != want:
            missing = set(want) - set(got)
            extra = set(got) - set(want)
            raise ValueError(f"checklist coverage broken: missing {sorted(missing)}, "
                             f"extra {sorted(extra)}")
        self.records, self.environment = records, environment

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
    inter = Interaction.from_report(v, h, report)
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
    env = {"tolerance": tol, "seed": seed, "samples": samples, "stage": stage,
           "mode": mode or "plain", "dims": list(v.algebra.blocks), **(environment or {})}
    inter, records = verify_stage_records(v, h, tol, samples, seed)
    remaining = [cid for cid in CANONICAL_IDS if cid not in records]
    if stage == "verify":
        for cid in remaining:
            records[cid] = _skip(cid, "requires build stage")
    elif inter is None:
        for cid in remaining:
            records[cid] = _skip(cid, "pair axioms failed")
    else:
        from .checklist import build_stage_records   # here, so that verify never loads it
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
