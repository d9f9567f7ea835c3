"""Per-layer metrics from a traced pass.

Layers are the program's modules.  Times are seconds summed over one pass;
a span nested inside another span of the same metric is not counted twice.
``check.<id>_s`` is the time of the producer the checklist calls for that
id; producers called outside the checklist (the ``--emit`` paths) are not
attributed to any id.  2.4 re-reports the 3.1.ii/3.1.iii residuals, so it
has no producer of its own and reads 0.
"""

from __future__ import annotations

from checks import CANONICAL_IDS
from tracer import LAYER, NAME, PARENT, START, END, self_times

TIMED = {
    "bimodule.inner_s": ("bimodule.inner_r", "bimodule.inner_l"),
    "bimodule.build_s": ("bimodule.build_bimodule",),
    "covariant.build_s": ("covariant.build_covrep",),
    "specio.load_s": ("specio.load_spec",),
    "specio.emit_s": ("specio.canonical_json", "specio.matrix_out"),
    "interactions.verify_s": ("interactions.verify_interaction",),
    "interactions.expectation_s": ("interactions.expectation",),
    "interactions.derive_s": ("interactions.derive_from_partial_isometry",),
    "linmaps.cp_s": ("linmaps.is_completely_positive",),
    "linmaps.range_s": ("linmaps.range_subspace",),
    "linmaps.amplify_s": ("linmaps.amplify",),
    "basic_construction.build_s": ("basic_construction.build_basic",),
    "correspondences.build_s": ("correspondences.correspondence_from_bimodule",),
    "correspondences.redundancy_s": ("correspondences.find_redundancies",),
}
COUNTED = {
    "bimodule.inner_calls": ("bimodule.inner_r", "bimodule.inner_l"),
    "bimodule.act_calls": ("bimodule.right_act", "bimodule.left_act",
                           "bimodule.act_a"),
    "bimodule.ternary_calls": ("bimodule.ternary", "bimodule.ternary_elementary"),
}
SELF_LAYERS = ("linmaps", "interactions", "basic_construction", "bimodule",
               "covariant", "correspondences", "checklist")
SIZES = ("size.dim", "size.r", "size.m_h", "size.m_v", "size.s")

# producer span -> check id, when the checklist calls it
CHECK_OF = {
    "checklist._cp_records": "3.3",
    "interactions.check_inverse_pair": "2.7",
    "bimodule.check_positivity": "5.2",
    "bimodule.check_cauchy_schwarz": "5.3",
    "bimodule.check_norm_agreement": "5.4",
    "bimodule.check_sliding": "5.6",
    "bimodule.check_bound_59": "5.9",
    "bimodule.check_action_bound": "5.10",
    "bimodule.check_associativity": "5.11",
    "bimodule.check_compatibility": "5.13",
    "bimodule.check_ternary_consistency": "5.14",
    "bimodule.check_fullness": "5.15",
    "bimodule.check_ternary_module_laws": "5.17",
    "covariant.check_commutation_22": "2.2",
    "covariant.check_corner_isomorphisms": "2.8",
    "covariant.check_corner_norms": "2.9",
    "covariant.check_nondegeneracy": "3.6",
    "covariant.check_unit_relations": "6.1",
    "covariant.build_covrep": "6.2",   # computes the covariance residuals
    "covariant.faithful_extension": "6.3",
    "correspondences.check_71": "7.1",
    "correspondences.check_commutation": "7.2",
    "correspondences.check_cube_identity": "7.2",
    "correspondences.check_theta_adjoints": "7.3-adjoint",
    "correspondences.classical_gate": "7.8",
    "correspondences.check_78": "7.8",
    "correspondences.find_redundancies": "7.9",
    "correspondences.check_713": "7.13",
}
# (parent span, producer span) -> ids by call order among those siblings
CHECK_BY_ORDER = {
    ("interactions.verify_interaction", "linmaps.positivity_certificate"): ("3.1.i",),
    ("interactions.verify_interaction", "linmaps.star_preservation_residual"): ("3.1.i",),
    ("interactions.verify_interaction", "linmaps.map_residual"): ("3.1.ii", "3.1.iii"),
    ("interactions.verify_interaction", "interactions._multiplicativity_scan"):
        ("3.1.iv", "3.1.v"),
    ("checklist.verify_stage_records", "interactions.expectation"): ("2.6",),
}

PER_LAYER: tuple[tuple[str, str], ...] = (
    *((name, "s") for name in TIMED),
    *((name, "count") for name in COUNTED),
    ("bimodule.largest_tensor_mb", "MB"),
    ("cli.import_s", "s"),
    ("cli.cpu_s", "s"),
    *((f"{layer}.self_s", "s") for layer in SELF_LAYERS),
    *((f"check.{cid}_s", "s") for cid in CANONICAL_IDS),
    *((name, "count") for name in SIZES),
    ("trace.overhead_frac", "ratio"),
)


def _outermost_total(spans: list[list], names: tuple[str, ...]) -> float:
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += span[END] - span[START]
    return total


def _under_checklist(spans: list[list], i: int) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][LAYER] == "checklist":
            return True
        p = spans[p][PARENT]
    return False


def check_times(spans: list[list]) -> dict[str, float]:
    out = {cid: 0.0 for cid in CANONICAL_IDS}
    seen: dict[tuple[int, str], int] = {}
    for i, span in enumerate(spans):
        name, parent = span[NAME], span[PARENT]
        if name in CHECK_OF:
            cid = CHECK_OF[name]
        elif parent >= 0 and (spans[parent][NAME], name) in CHECK_BY_ORDER:
            ids = CHECK_BY_ORDER[(spans[parent][NAME], name)]
            k = seen.get((parent, name), 0)
            seen[(parent, name)] = k + 1
            cid = ids[min(k, len(ids) - 1)]
        else:
            continue
        if _under_checklist(spans, i):
            out[cid] += span[END] - span[START]
    return out


def per_layer(spans: list[list], sizes: dict) -> dict[str, float]:
    """Every per-layer metric except the ones measured outside the trace
    (``cli.*``, ``trace.overhead_frac``).  ``sizes`` maps each problem to
    its structural sizes; the metric is the largest over the problems."""
    values = {name: _outermost_total(spans, names) for name, names in TIMED.items()}
    for name, names in COUNTED.items():
        values[name] = float(sum(1 for s in spans if s[NAME] in names))
    own = self_times(spans)
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = sum((t for s, t in zip(spans, own)
                                         if s[LAYER] == layer), 0.0)
    for cid, t in check_times(spans).items():
        values[f"check.{cid}_s"] = t
    for name in (*SIZES, "bimodule.largest_tensor_mb"):
        values[name] = max((s.get(name, 0.0) for s in sizes.values()), default=0.0)
    return values
