"""Batch front end: verify problem files, build artifacts, fuzz with
amplification.  Exit status: 0 all good, 1 a check failed, 2 bad input."""

from __future__ import annotations

import argparse
import math
import os
import sys

from .algebra import DEFAULT_TOL, NumericalDegeneracy
from .bimodule import build_bimodule
from .checklist import Report, report_for_failed_candidate, run_checklist
from .covariant import CovariantError, build_covrep
from .interactions import Interaction, InteractionError, derive_from_partial_isometry
from .linmaps import LinMap, amplify
from .specio import ProblemSpec, SpecError, canonical_json, load_spec, matrix_out

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
TOL_ENV = "STARINT_TOL"


def _tolerance(spec: ProblemSpec, flag: float | None) -> float:
    env = os.environ.get(TOL_ENV)
    if flag is not None:
        val, source = flag, "--tol"
    elif env:
        try:
            val = float(env)
        except ValueError as err:
            raise SpecError(f"{TOL_ENV} must be a number, got {env!r}") from err
        source = TOL_ENV
    else:
        return spec.tolerance if spec.tolerance is not None else DEFAULT_TOL
    if not (math.isfinite(val) and val > 0):
        raise SpecError(f"{source} must be a positive finite number, got {val!r}")
    return val


def _resolve(spec: ProblemSpec, tol: float, amplification: int
             ) -> tuple[LinMap, LinMap, LinMap | None, LinMap | None, dict]:
    """Maps for the checklist, amplified if requested, plus mode metadata."""
    info: dict = {}
    alg = spec.algebra
    if spec.mode == "partial_isometry":
        result = derive_from_partial_isometry(alg, spec.a_embed, spec.s, tol)
        info["derive"] = {"gauge": result.gauge,
                          "gates": dict(result.gates),
                          "residuals": dict(result.residuals)}
        v, h = result.interaction.v, result.interaction.h
    else:
        v, h = LinMap(alg, spec.v), LinMap(alg, spec.h)
    alpha = transfer = None
    if spec.mode == "endo_transfer":
        alpha, transfer = LinMap(alg, spec.alpha), LinMap(alg, spec.transfer)
    if amplification > 1:
        v, h = amplify(v, amplification), amplify(h, amplification)
        if alpha is not None:
            alpha, transfer = (amplify(alpha, amplification),
                               amplify(transfer, amplification))
    return v, h, alpha, transfer, info


def _environment(spec: ProblemSpec, command: str, tol: float, seed: int,
                 samples: int, amplification: int, extra: dict) -> dict:
    env = {
        "command": command,
        "spec": os.path.basename(spec.source),
        "mode": spec.mode,
        "tolerance": tol,
        "seed": seed,
        "samples": samples,
        "amplify": amplification,
        "dims": list(spec.blocks),
    }
    env.update(extra)
    return env


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: Report, out: str | None) -> int:
    _write(canonical_json(report.to_dict()), out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _run(spec: ProblemSpec, command: str, stage: str, tol: float, seed: int,
         samples: int, amplification: int, out: str | None) -> int:
    try:
        v, h, alpha, transfer, info = _resolve(spec, tol, amplification)
    except InteractionError as err:
        env = _environment(spec, command, tol, seed, samples, amplification, {})
        report = report_for_failed_candidate(err.report, tol, str(err), env)
        return _emit_report(report, out)
    env = _environment(spec, command, tol, seed, samples, amplification, info)
    report = run_checklist(v, h, tol=tol, stage=stage,
                           samples=samples, seed=seed, mode=spec.mode,
                           alpha=alpha, transfer=transfer, environment=env)
    return _emit_report(report, out)


def cmd_verify(spec: ProblemSpec, args: argparse.Namespace) -> int:
    tol = _tolerance(spec, args.tol)
    seed = spec.seed if spec.seed is not None else 0
    samples = spec.samples if spec.samples is not None else 25
    return _run(spec, "verify", "verify", tol, seed, samples, 1, args.out)


def _interaction_for_build(spec: ProblemSpec, tol: float) -> Interaction:
    v, h, _, _, _ = _resolve(spec, tol, 1)
    return Interaction.build(v, h, tol)


def cmd_build(spec: ProblemSpec, args: argparse.Namespace) -> int:
    tol = _tolerance(spec, args.tol)
    seed = spec.seed if spec.seed is not None else 0
    samples = spec.samples if spec.samples is not None else 25
    if args.emit == "report":
        return _run(spec, "build", "build", tol, seed, samples, 1, args.out)
    try:
        inter = _interaction_for_build(spec, tol)
        if args.emit == "bimodule":
            x = build_bimodule(inter, tol)
            payload = {
                "r": x.r,
                "gram_spectrum": x.gram_spectrum,
                "kernel_basis": matrix_out(x.kernel),
            }
        else:
            rep = build_covrep(inter, tol=tol)
            payload = {
                "r": rep.r,
                "s": rep.s,
                "pi": [matrix_out(rep.pi[i]) for i in range(inter.algebra.dim)],
                "S": matrix_out(rep.smat),
                "residual_table": dict(rep.residuals),
            }
    except (InteractionError, CovariantError, NumericalDegeneracy) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    _write(canonical_json(payload), args.out)
    return EXIT_PASS


def cmd_fuzz(spec: ProblemSpec, args: argparse.Namespace) -> int:
    tol = _tolerance(spec, args.tol)
    return _run(spec, "fuzz", "build", tol, args.seed, args.samples,
                args.amplify, args.out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starint",
        description="Verify and explore positive map pairs over block "
                    "matrix algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the map-level checks of a problem file")
    pv.add_argument("spec")
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("build", help="construct artifacts and the full checklist")
    pb.add_argument("spec")
    pb.add_argument("--emit", choices=("bimodule", "covrep", "report"),
                    default="report")
    pb.add_argument("--tol", type=float, default=None)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_build)

    pf = sub.add_parser("fuzz", help="full checklist on the n-amplified pair")
    pf.add_argument("spec")
    pf.add_argument("--amplify", type=int, default=1)
    pf.add_argument("--samples", type=int, default=25)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--tol", type=float, default=None)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = load_spec(args.spec)
        if getattr(args, "amplify", 1) < 1:
            raise SpecError("--amplify must be at least 1")
        return args.func(spec, args)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
