"""The three workloads as lists of ``starint`` invocations.

Why each workload exists (see also BENCHMARK.json):

* ``module-checks``: ``fuzz --amplify 2`` on a committed fixture and
  ``build`` on two good fixtures and on small generated pairs.  The bimodule checks
  5.11-5.17 do most of the work, so module-layer changes show here.  Only
  workload with complex pairs (Ad u), which hit the known 5.4 defect.
* ``verify-wide``: ``verify`` on every committed problem fixture, ``build``
  on the fixtures it rejects, and ``verify`` on wide generated pairs.
  Interactions, linmaps and the algebra do the work and no module is built,
  so a bimodule optimisation should change nothing here.
* ``emit-large``: ``build --emit bimodule|covrep`` on fixtures amplified to
  dim 16-18.  Construction and memory of the dense module tensors dominate;
  the only workload where peak RSS measures the program, not the interpreter.
"""

from __future__ import annotations

import os

import numpy as np

from checks import Job, parse, statuses
from problems import generate

DATA = os.path.join("tests", "data")
TOL = 1e-9

# committed problem fixtures and the exit code verify and build both give
FIXTURE_CODES = {
    "flip": 0, "flip_isometry": 0, "identity_m2": 0, "swap_endo": 0,
    "transpose": 1, "bad_schema": 2, "bad_shape": 2, "malformed": 2,
}
GOLDEN = os.path.join(DATA, "flip_report_golden.json")

# Each list is cut to what a pass needs to stress its layers once, so that
# a run holds several passes and every job several samples: flip_isometry
# repeats flip's sizes, and one size per family and workload end is enough.
MODULE_FUZZ = ("flip",)
MODULE_BUILD_FIXTURES = ("flip", "swap_endo")
MODULE_BUILDS = (("classical", 4), ("adu", 2), ("diag", 2))
WIDE_VERIFY = (("classical", 24), ("adu", 5), ("adu", 7),
               ("diag", 6), ("diag", 8))
# fixture, amplification, (r, s) of the covariant representation at x1
EMIT_LARGE = (("flip", 3, (1, 1)), ("identity_m2", 2, (4, 4)),
              ("swap_endo", 3, (2, 2)))

WORKLOADS = ("module-checks", "verify-wide", "emit-large")


def _fixture(name: str) -> str:
    return os.path.join(DATA, f"{name}.json")


def _generated(pairs, seed: int, work: str) -> list[tuple[str, str]]:
    return [(family, generate(family, size, seed, i, work))
            for i, (family, size) in enumerate(pairs)]


def _fixture_jobs(command: str, names) -> list[Job]:
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    jobs = []
    for name in names:
        code = FIXTURE_CODES[name]
        jobs.append(Job(f"{command} {name}", [command, _fixture(name)],
                        "usage" if code == 2 else "report",
                        expect_code=code, known_good=code == 0,
                        golden=golden if (command, name) == ("build", "flip") else None))
    return jobs


def _module_checks(seed: int, work: str, run_cli) -> list[Job]:
    jobs = []
    for name in MODULE_FUZZ:
        code, out = run_cli(["fuzz", _fixture(name), "--amplify", "1"])
        try:
            ref = statuses(parse(out))
        except (ValueError, KeyError, TypeError, AttributeError):
            ref = {}  # no usable x1 report: every x2 run then misses
        jobs.append(Job(f"fuzz {name} x2", ["fuzz", _fixture(name), "--amplify", "2"],
                        "report", known_good=True, ref_statuses=ref))
    jobs += _fixture_jobs("build", MODULE_BUILD_FIXTURES)
    for family, path in _generated(MODULE_BUILDS, seed, work):
        jobs.append(Job(f"build {os.path.basename(path)}", ["build", path],
                        "report", family=family, known_good=True))
    return jobs


def _verify_wide(seed: int, work: str, run_cli) -> list[Job]:
    # build runs only on fixtures whose build never reaches the module
    jobs = _fixture_jobs("verify", FIXTURE_CODES)
    jobs += _fixture_jobs("build", [n for n, c in FIXTURE_CODES.items() if c != 0])
    for family, path in _generated(WIDE_VERIFY, seed, work):
        jobs.append(Job(f"verify {os.path.basename(path)}", ["verify", path],
                        "report", family=family, known_good=True))
    return jobs


def _emit_large(seed: int, work: str, run_cli) -> list[Job]:
    # imported here so the other workloads never load the program in-process
    from starint.linmaps import LinMap, amplify
    from starint.specio import canonical_json, load_spec, matrix_out

    jobs = []
    for name, n, (r1, s1) in EMIT_LARGE:
        spec = load_spec(_fixture(name))
        v = amplify(LinMap(spec.algebra, spec.v), n)
        h = amplify(LinMap(spec.algebra, spec.h), n)
        path = os.path.join(work, f"{name}_x{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"blocks": list(v.algebra.blocks), "mode": "plain",
                                     "V": matrix_out(v.matrix),
                                     "H": matrix_out(h.matrix)}))
        r = n * n * r1
        dim = v.algebra.dim
        jobs.append(Job(f"emit bimodule {name} x{n}",
                        ["build", path, "--emit", "bimodule"], "emit",
                        emit={"r": r, "kernel_rows": dim * dim - r}))
        jobs.append(Job(f"emit covrep {name} x{n}",
                        ["build", path, "--emit", "covrep"], "emit",
                        emit={"r": r, "s": n * n * s1, "tol": TOL}))
    # the inputs are fixed; the seed sets the order of the closed loop
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


def make_jobs(workload: str, seed: int, work: str, run_cli) -> list[Job]:
    """Generate the workload's inputs under ``work`` and return its jobs.

    ``run_cli(argv) -> (exit code, stdout bytes)`` runs reference passes
    (the x1 statuses that ``fuzz x2`` must reproduce); it is untimed.
    """
    build = {"module-checks": _module_checks, "verify-wide": _verify_wide,
             "emit-large": _emit_large}[workload]
    return build(seed, work, run_cli)
