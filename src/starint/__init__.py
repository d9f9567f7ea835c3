"""Numerical verification toolkit for interaction pairs on finite-dimensional
C*-algebras: multi-block matrix algebras, positive-map checks, reduced
GNS-style constructions, the induced two-sided module, covariant
representations, and correspondence diagnostics.
"""

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    DescriptorMismatch,
    Element,
    NumericalDegeneracy,
    Subspace,
    generated_subalgebra,
    is_positive,
    positivity_defect,
    sqrt_psd,
)
from .linmaps import (
    LinMap,
    amplify,
    choi_matrix,
    compose,
    is_completely_positive,
    map_residual,
    range_subspace,
    star_preservation_residual,
    transpose_map,
)
from .interactions import (
    CondExp,
    DeriveResult,
    Interaction,
    InteractionError,
    InteractionReport,
    amplified_interaction,
    check_inverse_pair,
    derive_from_partial_isometry,
    expectation,
    flip_interaction,
    from_endomorphism_transfer,
    identity_interaction,
    swap_transfer_interaction,
    verify_interaction,
)
from .basic_construction import (
    BasicConstruction,
    basic_for_h,
    basic_for_v,
    build_basic,
)
from .bimodule import (
    BimoduleX,
    TensorElt,
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
from .covariant import (
    CovariantError,
    CovariantRep,
    FaithfulRep,
    build_covrep,
    check_commutation_22,
    check_corner_isomorphisms,
    check_corner_norms,
    check_derive_roundtrip,
    check_nondegeneracy,
    check_unit_relations,
    faithful_extension,
    rep_ambient_data,
    with_zero_s,
)
from .correspondences import (
    ConcreteTRO,
    CorrespondenceError,
    GenCorrespondence,
    Redundancy,
    check_71,
    check_713,
    check_78,
    check_commutation,
    check_cube_identity,
    check_theta_adjoints,
    classical_gate,
    compact_spans,
    concrete_tro,
    correspondence_from_bimodule,
    correspondence_from_tro,
    find_redundancies,
)
from .checklist import (
    CANONICAL_IDS,
    CheckRecord,
    Report,
    report_for_failed_candidate,
    run_checklist,
)
from .specio import (
    ProblemSpec,
    SpecError,
    canonical_json,
    dump_spec,
    load_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
