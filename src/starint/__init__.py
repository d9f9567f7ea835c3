"""Numerical verification toolkit for interaction pairs on finite-dimensional
C*-algebras: multi-block matrix algebras, positive-map checks, reduced
GNS-style constructions, the induced two-sided module, covariant
representations, and correspondence diagnostics.

Every exported name is imported from its module on first use (PEP 562), so
that ``import starint`` loads no numerics and a command loads only the
modules it runs.
"""

from importlib import import_module

# module -> the names it exports here
_EXPORTS: dict[str, tuple[str, ...]] = {
    "algebra": ("DEFAULT_TOL", "Algebra", "DescriptorMismatch", "NumericalDegeneracy",
                "Subspace", "generated_subalgebra"),
    "linmaps": ("LinMap", "amplify", "choi_matrix", "is_completely_positive",
                "map_residual", "range_subspace", "star_preservation_residual",
                "transpose_map"),
    "interactions": ("CondExp", "DeriveResult", "Interaction", "InteractionError",
                     "InteractionReport", "amplified_interaction", "check_inverse_pair",
                     "derive_from_partial_isometry", "expectation", "flip_interaction",
                     "from_endomorphism_transfer", "identity_interaction",
                     "swap_transfer_interaction", "verify_interaction"),
    "basic_construction": ("BasicConstruction", "basic_for_h", "basic_for_v", "build_basic"),
    "bimodule": ("BimoduleX", "build_bimodule", "check_action_bound", "check_associativity",
                 "check_bound_59", "check_cauchy_schwarz", "check_compatibility",
                 "check_fullness", "check_norm_agreement", "check_positivity",
                 "check_sliding", "check_ternary_consistency", "check_ternary_module_laws"),
    "covariant": ("CovariantError", "CovariantRep", "FaithfulRep", "build_covrep",
                  "check_commutation_22", "check_corner_isomorphisms", "check_corner_norms",
                  "check_derive_roundtrip", "check_nondegeneracy", "check_unit_relations",
                  "faithful_extension", "rep_ambient_data", "with_zero_s"),
    "correspondences": ("ConcreteTRO", "CorrespondenceError", "GenCorrespondence",
                        "Redundancy", "check_71", "check_713", "check_78",
                        "check_commutation", "check_cube_identity", "check_theta_adjoints",
                        "classical_gate", "compact_spans", "concrete_tro",
                        "correspondence_from_bimodule", "correspondence_from_tro",
                        "find_redundancies"),
    "records": ("CANONICAL_IDS", "CheckRecord", "Report", "report_for_failed_candidate",
                "run_checklist"),
    "checklist": (),
    "specio": ("ProblemSpec", "SpecError", "canonical_json", "dump_spec", "load_spec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the names, and every module but ``records``, whose names ``checklist`` re-exports
__all__ = sorted([*_HOME, *(module for module in _EXPORTS if module != "records")])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*__all__, *(k for k in globals() if k.startswith("__"))})
