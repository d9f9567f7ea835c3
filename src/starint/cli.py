"""Batch front end: verify problem files, build artifacts, fuzz with
amplification.  Exit status: 0 all good, 1 a check failed, 2 bad input,
including input too large for memory.

The file, the options and the output path are checked before numpy loads,
so unusable input exits 2 at the cost of an interpreter start.  Then
``verify`` loads the map-level layers, ``fuzz`` and the ``build`` report the
build stage as well, and ``build --emit`` the construction it writes, each
once, before any array is made."""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterator

from .specio import ProblemSpec, SpecError, canonical_json, matrix_out, read_spec, spec_arrays

if TYPE_CHECKING:
    from .interactions import Interaction
    from .linmaps import LinMap
    from .records import Report

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
TOL_ENV = "STARINT_TOL"
#: the module ``build`` loads for each ``--emit``: the report needs the whole
#: build stage, an artifact only the construction it writes
EMIT_STAGES = {"bimodule": "bimodule", "covrep": "covariant", "report": "checklist"}
#: Bytes that the stacks of samples may take: a larger sample count is refused
#: before the first draw.  Each sampled entry is 32 bytes (a complex number and
#: its two normal draws), on the 2·dim² coefficients of 5.3's two module
#: tensors, or for ``verify`` the 4·dim coordinates of 3.3's 2-fold amplified element.
SAMPLE_BYTES = 1 << 30


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
        from .algebra import DEFAULT_TOL
        return spec.tolerance if spec.tolerance is not None else DEFAULT_TOL
    if not (math.isfinite(val) and val > 0):
        raise SpecError(f"{source} must be a positive finite number, got {val!r}")
    return val


def _resolve(spec: ProblemSpec, tol: float, amplification: int
             ) -> tuple[LinMap, LinMap, LinMap | None, LinMap | None, dict]:
    """Maps for the checklist, amplified if requested, plus mode metadata."""
    from .interactions import derive_from_partial_isometry
    from .linmaps import LinMap, amplify

    info: dict = {}
    alg = spec.algebra
    if spec.mode == "partial_isometry":
        result = derive_from_partial_isometry(alg, spec.ambient, spec.a_embed, spec.s, tol)
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


Writer = Callable[[str], object]


@contextmanager
def _output(path: str | None) -> Iterator[Writer]:
    """The writer of the command's output: stdout, or ``path``, opened before
    any work so that a path that cannot be written fails at once.  The file
    is opened without truncating it and replaced by the one write; a file
    that this opening created and that was never written is removed."""
    if not path:
        yield sys.stdout.write
        return
    existed = os.path.exists(path)
    try:
        fh = open(path, "a", encoding="utf-8")
    except OSError as err:
        raise SpecError(f"cannot write {path}: {err.strerror or err}") from err
    written = False

    def write(text: str) -> None:
        nonlocal written
        try:
            fh.truncate(0)
            fh.write(text)
            fh.flush()
        except OSError as err:
            raise SpecError(f"cannot write {path}: {err.strerror or err}") from err
        written = True

    try:
        yield write
    finally:
        fh.close()
        if not (written or existed):
            os.remove(path)


def _emit_report(report: Report, write: Writer) -> int:
    write(canonical_json(report.to_dict()))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_report(spec: ProblemSpec, args: argparse.Namespace, tol: float, write: Writer) -> int:
    """The report of ``verify`` (the map-level checks) or of ``build`` and
    ``fuzz`` (the whole checklist, on the ``--amplify``-fold pair).  The seed
    and the sample count are each ``fuzz``'s flag, else the file's key, else
    0 and 25; a sample count over ``SAMPLE_BYTES`` is refused."""
    from .interactions import InteractionError
    from .records import report_for_failed_candidate, run_checklist

    command, amplification = args.command, getattr(args, "amplify", 1)
    seed, samples = (next(v for v in (getattr(args, flag, None), key, default) if v is not None)
                     for flag, key, default in (("seed", spec.seed, 0),
                                                ("samples", spec.samples, 25)))
    dim = sum((amplification * d) ** 2 for d in spec.blocks)
    need = 32 * samples * (4 * dim if command == "verify" else 2 * dim * dim)
    if need > SAMPLE_BYTES:
        raise SpecError(f"sample count {samples} needs {need / 2**30:.1f} GiB of sample "
                        f"stacks, over the {SAMPLE_BYTES >> 30} GiB budget")
    try:
        v, h, alpha, transfer, info = _resolve(spec, tol, amplification)
    except InteractionError as err:
        env = _environment(spec, command, tol, seed, samples, amplification, {})
        report = report_for_failed_candidate(err.report, tol, str(err), env)
        return _emit_report(report, write)
    env = _environment(spec, command, tol, seed, samples, amplification, info)
    report = run_checklist(v, h, tol=tol, stage="verify" if command == "verify" else "build",
                           samples=samples, seed=seed, mode=spec.mode,
                           alpha=alpha, transfer=transfer, environment=env)
    return _emit_report(report, write)


def _interaction_for_build(spec: ProblemSpec, tol: float) -> Interaction:
    from .interactions import Interaction, derive_from_partial_isometry

    if spec.mode == "partial_isometry":          # verified once, while derived
        return derive_from_partial_isometry(spec.algebra, spec.ambient, spec.a_embed,
                                            spec.s, tol).interaction
    v, h, _, _, _ = _resolve(spec, tol, 1)
    return Interaction.build(v, h, tol)


def _bimodule_payload(inter: Interaction, tol: float) -> dict:
    from .bimodule import build_bimodule

    x = build_bimodule(inter, tol)
    return {
        "r": x.r,
        "gram_spectrum": x.gram_spectrum,
        "kernel_basis": matrix_out(x.null_r.place()),
    }


def _covrep_payload(inter: Interaction, tol: float) -> dict:
    from .covariant import build_covrep

    rep = build_covrep(inter, tol=tol)
    return {
        "r": rep.r,
        "s": rep.s,
        "pi": [matrix_out(rep.pi[i]) for i in range(inter.algebra.dim)],
        "S": matrix_out(rep.smat),
        "residual_table": dict(rep.residuals),
    }


def cmd_build(spec: ProblemSpec, args: argparse.Namespace, tol: float, write: Writer) -> int:
    if args.emit == "report":
        return cmd_report(spec, args, tol, write)
    from .algebra import NumericalDegeneracy
    from .interactions import InteractionError

    failures: tuple[type[Exception], ...] = (InteractionError, NumericalDegeneracy)
    if args.emit == "covrep":
        from .covariant import CovariantError
        failures += (CovariantError,)
    try:
        inter = _interaction_for_build(spec, tol)
        payload = (_bimodule_payload if args.emit == "bimodule" else _covrep_payload)(inter, tol)
    except failures as err:
        print(f"build failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    write(canonical_json(payload))
    return EXIT_PASS


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
    pv.set_defaults(func=cmd_report, stage="records")

    pb = sub.add_parser("build", help="construct artifacts and the full checklist")
    pb.add_argument("spec")
    pb.add_argument("--emit", choices=tuple(EMIT_STAGES), default="report")
    pb.add_argument("--tol", type=float, default=None)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_build)

    pf = sub.add_parser("fuzz", help="full checklist on the n-amplified pair")
    pf.add_argument("spec")
    pf.add_argument("--amplify", type=int, default=1)
    pf.add_argument("--samples", type=int, default=None)
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--tol", type=float, default=None)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=cmd_report, stage="checklist")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = read_spec(args.spec)
        for flag, least in (("amplify", 1), ("samples", 0), ("seed", 0)):
            if getattr(args, flag, None) is not None and getattr(args, flag) < least:
                raise SpecError(f"--{flag} must be at least {least}")
        with _output(args.out) as write:
            tol = _tolerance(spec, args.tol)
            stage = args.stage if "stage" in args else EMIT_STAGES[args.emit]
            import_module(f".{stage}", __package__)   # the layers the command runs
            return args.func(spec_arrays(spec), args, tol, write)
    except (SpecError, MemoryError) as err:   # no --out file is left behind (``_output``)
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
