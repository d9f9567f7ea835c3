"""Output checks for one ``starint`` run.

``check(job, code, out)`` returns the list of misses; an empty list means the
run is correct.  A run with any miss counts as failed.  A miss that is the
recorded known defect starts with ``KNOWN_DEFECT`` and does not make the
benchmark incorrect (see NOTES.md); any other miss does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# The 33 canonical check ids; fixed by the program's contract.
CANONICAL_IDS = (
    "2.2", "2.4", "2.6", "2.7", "2.8", "2.9",
    "3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v",
    "3.3", "3.6",
    "5.2", "5.3", "5.4", "5.6", "5.9", "5.10", "5.11",
    "5.13", "5.14", "5.15", "5.17",
    "6.1", "6.2", "6.3",
    "7.1", "7.2", "7.3-adjoint", "7.8", "7.9", "7.13",
)

KNOWN_DEFECT = "known-defect"
# Ad u with a complex unitary fails 5.4 on its kernels_coincide detail.
KNOWN_DEFECT_FAMILY, KNOWN_DEFECT_ID = "adu", "5.4"
KNOWN_DEFECT_DETAIL = "5.4-kernels_coincide"


@dataclass
class Job:
    """One ``starint`` invocation and what its output must satisfy.

    kind "report": stdout is a canonical report; ``known_good`` pairs must
    have no ``fail``; ``ref_statuses`` (if set) must equal the statuses;
    ``golden`` (if set) must equal stdout byte for byte.
    kind "usage": the input is unusable; exit 2 and nothing on stdout.
    kind "emit": stdout is a ``--emit`` payload; ``emit`` holds the expected
    ``r``, and ``kernel_rows`` (bimodule) or ``s`` and the residual ``tol``
    (covrep).
    """

    name: str
    argv: list[str]
    kind: str
    expect_code: int = 0
    family: str = ""
    known_good: bool = False
    golden: bytes | None = None
    ref_statuses: dict[str, str] | None = None
    emit: dict = field(default_factory=dict)


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        dup = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate keys {dup}")
    return dict(pairs)


def parse(out: bytes):
    return json.loads(out.decode("utf-8"), object_pairs_hook=_no_duplicates)


def statuses(report: dict) -> dict[str, str]:
    return {cid: rec["status"] for cid, rec in report["checks"].items()}


def _is_known_defect(job: Job, report: dict, failing: list[str]) -> bool:
    if job.family != KNOWN_DEFECT_FAMILY or failing != [KNOWN_DEFECT_ID]:
        return False
    try:
        tol = float(report["environment"]["tolerance"])
        details = report["checks"][KNOWN_DEFECT_ID]["details"].items()
    except (KeyError, TypeError, ValueError, AttributeError):
        return False
    bad = [k for k, v in details if not (isinstance(v, (int, float)) and v <= tol)]
    return bad == [KNOWN_DEFECT_DETAIL]


def _check_report(job: Job, code: int, out: bytes) -> list[str]:
    try:
        report = parse(out)
        got = statuses(report)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return [f"stdout is not a report: {err}"]
    if sorted(got) != sorted(CANONICAL_IDS):
        missing = sorted(set(CANONICAL_IDS) - set(got))
        extra = sorted(set(got) - set(CANONICAL_IDS))
        return [f"ids: missing {missing}, extra {extra}"]
    misses = []
    failing = [cid for cid in CANONICAL_IDS if got[cid] == "fail"]
    expect_code = job.expect_code
    if job.known_good and failing:
        if _is_known_defect(job, report, failing):
            detail = report["checks"][KNOWN_DEFECT_ID]["details"][KNOWN_DEFECT_DETAIL]
            misses.append(f"{KNOWN_DEFECT}: {KNOWN_DEFECT_DETAIL} = {detail:.3g}")
            expect_code = 1
        else:
            misses.append(f"known-good pair fails {failing}")
    if job.ref_statuses is not None and got != job.ref_statuses:
        diff = sorted(cid for cid in CANONICAL_IDS
                      if got[cid] != job.ref_statuses.get(cid))
        misses.append(f"statuses differ from the x1 run at {diff}")
    if job.golden is not None and out != job.golden:
        misses.append("report differs from the golden file")
    if code != expect_code:
        misses.append(f"exit {code}, expected {expect_code}")
    return misses


def _check_emit(job: Job, code: int, out: bytes) -> list[str]:
    if code != 0:
        return [f"exit {code}, expected 0"]
    try:
        payload = parse(out)
    except ValueError as err:
        return [f"stdout is not JSON: {err}"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    want = job.emit
    misses = []
    if payload.get("r") != want["r"]:
        misses.append(f"r = {payload.get('r')}, expected {want['r']}")
    if "s" in want and payload.get("s") != want["s"]:
        misses.append(f"s = {payload.get('s')}, expected {want['s']}")
    if "tol" in want:
        table = payload.get("residual_table")
        if not isinstance(table, dict) or not table:
            misses.append("no residual table")
        else:
            bad = sorted(k for k, v in table.items()
                         if not (isinstance(v, (int, float)) and v <= want["tol"]))
            if bad:
                misses.append(f"covrep residuals above tol: {bad}")
    if "kernel_rows" in want:
        kernel = payload.get("kernel_basis")
        rows = len(kernel) if isinstance(kernel, list) else -1
        if rows != want["kernel_rows"]:
            misses.append(f"kernel basis has {rows} rows, expected {want['kernel_rows']}")
    return misses


def check(job: Job, code: int, out: bytes) -> list[str]:
    if job.kind == "report":
        return _check_report(job, code, out)
    if job.kind == "emit":
        return _check_emit(job, code, out)
    if job.kind == "usage":
        misses = [] if code == 2 else [f"exit {code}, expected 2"]
        if out.strip():
            misses.append("unusable input still printed a payload")
        return misses
    raise ValueError(f"unknown job kind {job.kind!r}")


def is_known(miss: str) -> bool:
    return miss.startswith(KNOWN_DEFECT)
