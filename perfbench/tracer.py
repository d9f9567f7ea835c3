"""Outside-in tracer: wraps the program's public functions from the outside.

Every wrapped call becomes a span ``[name, layer, start, end, parent,
problem]`` kept in memory; ``parent`` is the index of the enclosing span or
-1.  Nothing in the program is edited: the tracer replaces the function
object in every ``starint`` module namespace that binds it (``check_fullness``
is bound in ``starint.bimodule`` and ``starint.checklist``), and puts the
original back on ``uninstall``.  ``Element`` arithmetic gets no spans, so its
time counts toward the self time of the layer that calls it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path) of each wrapped callable; the layer is the module.
TARGETS: tuple[tuple[str, str], ...] = (
    ("cli", "main"),
    ("specio", "load_spec"),
    ("specio", "canonical_json"),
    ("specio", "matrix_out"),
    ("linmaps", "is_completely_positive"),
    ("linmaps", "range_subspace"),
    ("linmaps", "amplify"),
    ("linmaps", "positivity_certificate"),
    ("linmaps", "map_residual"),
    ("linmaps", "star_preservation_residual"),
    ("linmaps", "complete_contractivity_residual"),
    ("interactions", "verify_interaction"),
    ("interactions", "_multiplicativity_scan"),
    ("interactions", "expectation"),
    ("interactions", "check_inverse_pair"),
    ("interactions", "derive_from_partial_isometry"),
    ("basic_construction", "build_basic"),
    ("bimodule", "build_bimodule"),
    ("bimodule", "BimoduleX.inner_r"),
    ("bimodule", "BimoduleX.inner_l"),
    ("bimodule", "BimoduleX.right_act"),
    ("bimodule", "BimoduleX.left_act"),
    ("bimodule", "BimoduleX.act_a"),
    ("bimodule", "BimoduleX.ternary"),
    ("bimodule", "BimoduleX.ternary_elementary"),
    ("bimodule", "BimoduleX.norm_two_ways"),
    ("bimodule", "check_positivity"),
    ("bimodule", "check_cauchy_schwarz"),
    ("bimodule", "check_norm_agreement"),
    ("bimodule", "check_sliding"),
    ("bimodule", "check_bound_59"),
    ("bimodule", "check_action_bound"),
    ("bimodule", "check_associativity"),
    ("bimodule", "check_compatibility"),
    ("bimodule", "check_ternary_consistency"),
    ("bimodule", "check_fullness"),
    ("bimodule", "check_ternary_module_laws"),
    ("covariant", "build_covrep"),
    ("covariant", "check_commutation_22"),
    ("covariant", "check_corner_isomorphisms"),
    ("covariant", "check_corner_norms"),
    ("covariant", "check_unit_relations"),
    ("covariant", "check_nondegeneracy"),
    ("covariant", "faithful_extension"),
    ("correspondences", "correspondence_from_bimodule"),
    ("correspondences", "check_71"),
    ("correspondences", "check_commutation"),
    ("correspondences", "check_cube_identity"),
    ("correspondences", "check_theta_adjoints"),
    ("correspondences", "classical_gate"),
    ("correspondences", "check_78"),
    ("correspondences", "find_redundancies"),
    ("correspondences", "check_713"),
    ("checklist", "run_checklist"),
    ("checklist", "verify_stage_records"),
    ("checklist", "build_stage_records"),
    ("checklist", "report_for_failed_candidate"),
    ("checklist", "_cp_records"),
)

NAME, LAYER, START, END, PARENT, PROBLEM = range(6)


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.problem: str | None = None
        self.sizes: dict[str | None, dict[str, float]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _note_size(self, key: str, value: float) -> None:
        mine = self.sizes.setdefault(self.problem, {})
        mine[key] = max(mine.get(key, 0.0), float(value))

    def _observe(self, name: str, parent: int, result) -> None:
        """Structural sizes of what a call built, as running maxima per
        problem.  ``size.dim`` is the algebra the command works on: the
        file's, or its amplification by ``fuzz``, not the grids that checks
        amplify internally."""
        if name == "specio.load_spec":
            self._note_size("size.dim", result.algebra.dim)
        elif name == "linmaps.amplify" and parent >= 0 \
                and self.spans[parent][NAME] == "cli.main":
            self._note_size("size.dim", result.algebra.dim)
        elif name == "bimodule.build_bimodule":
            self._note_size("size.r", result.r)
            self._note_size("size.m_h", result.bch.m)
            self._note_size("size.m_v", result.bcv.m)
            largest = max(v.nbytes for v in vars(result).values()
                          if hasattr(v, "nbytes"))
            self._note_size("bimodule.largest_tensor_mb", largest / 2**20)
        elif name == "covariant.build_covrep":
            self._note_size("size.r", result.r)
            self._note_size("size.s", result.s)

    def wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.problem]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            tracer._observe(name, span[PARENT], result)
            return result

        return traced

    def install(self) -> None:
        for module, path in TARGETS:
            mod = importlib.import_module(f"starint.{module}")
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, f"{module}.{attr}", module)
            if owner is not mod:
                self._patch(owner, attr, original, wrapped)
                continue
            for name, other in list(sys.modules.items()):
                if name == "starint" or name.startswith("starint."):
                    for key, val in list(vars(other).items()):
                        if val is original:
                            self._patch(other, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans come from one call stack, so a span's children never overlap."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out
