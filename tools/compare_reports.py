"""Run one fixed list of CLI cases on two source trees and compare the outputs.

    python tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``starint`` package, such as
the ``src`` of two checkouts.  Each case runs once per tree as a fresh
``python -m starint.cli`` process with one BLAS thread, from the root of the
checkout this script is in, on the same input files:

* ``build``, ``build --emit bimodule`` and ``build --emit covrep`` on the
  eight committed fixtures of ``tests/data``;
* ``fuzz --amplify 2`` and ``--amplify 3`` on flip, identity_m2 and swap_endo;
* ``build``, ``build --emit bimodule``, ``build --emit covrep`` and ``fuzz
  --amplify 2`` on the two partial isometries between blocks of unequal
  sizes, ``tests/data/mixed_221.json`` (M_2 ⊕ M_2 ⊕ C, whose tables take two
  magnitudes each) and ``mixed_32.json`` (M_3 ⊕ M_2), where π and S have
  blocks of unequal sizes;
* the pairs of ``perfbench/workloads.py``'s ``MODULE_BUILDS`` (classical 4,
  Ad u 2 and diag 2 of ``perfbench/problems.py``), written at seed 7, index 0:
  ``build`` (x1) and ``fuzz --amplify 2`` (x2);
* ``build --emit bimodule`` and ``--emit covrep`` on the ``emit-large``
  inputs of ``perfbench/workloads.py``;
* the ``verify-wide`` jobs of ``perfbench/workloads.py`` not listed above:
  ``verify`` on the eight fixtures and on the pairs of ``WIDE_VERIFY``
  (classical 24, Ad u 5 and 7, diag 6 and 8), written at seed 7 with the
  workload's indices (its ``build`` on the rejected fixtures is listed above).

For each case it prints both exit codes and wall times, whether stdout is
byte-identical, each check whose status changed or whose witness changed
where it fails, and the largest |old - new| of each detail key (of each
top-level key of an emitted artifact) that moved.  It exits 1 if an exit
code, a status or a witness differs, or if any of those keys moved by more
than ``BOUND``, else 0.  Last it prints the line count of each module of the
two ``starint`` packages, as ``wc -l starint/*.py`` counts them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
FUZZED = ("flip", "identity_m2", "swap_endo")
MIXED = ("mixed_221", "mixed_32")
SEED = 7
#: The largest |old - new| of a detail or artifact key that a behaviour-keeping change may show.
BOUND = 1e-12


def cases(work: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every case; the generated inputs are written under ``work``."""
    from problems import generate
    from workloads import FIXTURE_CODES, MODULE_BUILDS, _emit_large, _fixture, _verify_wide

    out = [(f"build {name}{emit}", ["build", _fixture(name), *emit.split()])
           for name in FIXTURE_CODES for emit in ("", " --emit bimodule", " --emit covrep")]
    out += [(f"fuzz {name} x{n}", ["fuzz", _fixture(name), "--amplify", str(n)])
            for name in FUZZED for n in (2, 3)]
    for name in MIXED:
        path = os.path.join("tests", "data", f"{name}.json")
        out += [(f"build {name}{emit}", ["build", path, *emit.split()])
                for emit in ("", " --emit bimodule", " --emit covrep")]
        out.append((f"fuzz {name} x2", ["fuzz", path, "--amplify", "2"]))
    for family, size in MODULE_BUILDS:
        path = generate(family, size, SEED, 0, work)
        out += [(f"build {family}{size}", ["build", path]),
                (f"fuzz {family}{size} x2", ["fuzz", path, "--amplify", "2"])]
    out += [(job.name, job.argv) for job in _emit_large(0, work, None)]
    listed = {name for name, _ in out}
    return out + [(job.name, job.argv) for job in _verify_wide(SEED, work, None)
                  if job.name not in listed]


def run(src: str, argv: list[str]) -> tuple[int, bytes, float]:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": src}
    env.pop("STARINT_TOL", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "starint.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def numbers(value) -> list[float]:
    """Every number of a JSON value, depth first."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in numbers(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    if isinstance(value, str):          # a non-finite number is written as a string
        try:
            return [float(value)]
        except ValueError:
            return []
    return [float(value)] if isinstance(value, (int, float)) else []


def drift(old: list[float], new: list[float]) -> float:
    if len(old) != len(new):
        return math.inf
    gaps = [0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)
            for a, b in zip(old, new)]
    return max(gaps, default=0.0)


def compare(old: bytes, new: bytes) -> tuple[list[str], dict[str, float]]:
    """The status and witness changes and the nonzero drift of each key of
    two outputs; a record carries a witness only where it fails."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return [], {}
    if "checks" in a and "checks" in b:
        changes = [f"{cid}: {key} {a['checks'].get(cid, {}).get(key)} -> "
                   f"{b['checks'].get(cid, {}).get(key)}"
                   for cid in sorted(set(a["checks"]) | set(b["checks"]))
                   for key in ("status", "witness")
                   if a["checks"].get(cid, {}).get(key) != b["checks"].get(cid, {}).get(key)]
        a, b = ({key: val for rec in x["checks"].values()
                 for key, val in rec.get("details", {}).items()} for x in (a, b))
    else:
        changes = []
    gaps = {key: drift(numbers(a.get(key)), numbers(b.get(key))) for key in set(a) | set(b)}
    return changes, {key: gap for key, gap in gaps.items() if gap != 0.0}


def source_lines(src: str) -> dict[str, int]:
    """The newlines of each ``.py`` module of the ``starint`` package under ``src``."""
    pkg = os.path.join(src, "starint")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines[name] = fh.read().count(b"\n")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    srcs = [os.path.abspath(src) for src in argv]
    sys.path.insert(0, srcs[1])              # the emit-large inputs are written by starint
    os.chdir(ROOT)
    differ, largest = 0, (0.0, "")
    with tempfile.TemporaryDirectory() as work:
        todo = cases(work)
        for name, case in todo:
            (code_a, out_a, t_a), (code_b, out_b, t_b) = (run(src, case) for src in srcs)
            changes, gaps = compare(out_a, out_b)
            moved = [key for key, gap in gaps.items() if not gap <= BOUND]
            differ += code_a != code_b or bool(changes) or bool(moved)
            print(f"{name}: exit {code_a}/{code_b}, {t_a:.1f}/{t_b:.1f} s, bytes "
                  f"{'equal' if out_a == out_b else 'differ'}, "
                  f"{len(changes)} status or witness changes, "
                  f"{len(moved)} keys moved by more than {BOUND:g}", flush=True)
            for line in changes:
                print(f"    {line}")
            for key, gap in sorted(gaps.items(), key=lambda kv: -kv[1]):
                print(f"    {key}: {gap:.3g}")
                largest = max(largest, (gap, f"{key} in {name}"))
    print(f"{len(todo)} cases, {differ} with a changed exit code, status or witness or a "
          f"drift above {BOUND:g}; largest drift {largest[0]:.3g}"
          f"{' (' + largest[1] + ')' if largest[1] else ''}")
    old, new = map(source_lines, srcs)
    for name in sorted(set(old) | set(new)):
        print(f"{name}: {old.get(name, 0)} -> {new.get(name, 0)} lines")
    print(f"total: {sum(old.values())} -> {sum(new.values())} lines")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
