"""The module's quotient tables against the per-element methods, and the
batched checks 5.11-5.17 against broken tables."""

import math

import numpy as np
import pytest

from starint import (
    Algebra,
    Interaction,
    LinMap,
    amplified_interaction,
    build_bimodule,
    check_associativity,
    check_compatibility,
    check_ternary_consistency,
    check_ternary_module_laws,
    flip_interaction,
    identity_interaction,
    run_checklist,
)
from starint.checklist import _record

TOL = 1e-9

# a fixed complex unitary on C^2, [[a, -conj b], [b, conj a]] with |a|² + |b|² = 1
U = np.array([[1.0 + 2.0j, 2.0j], [2.0j, 1.0 - 2.0j]]) / 3.0


def adu_pair() -> tuple[LinMap, LinMap]:
    """V = Ad u, H = Ad u* on M_2; row-major vec(u x u*) = (u kron conj u) vec x."""
    alg = Algebra((2,))
    return (LinMap(alg, np.kron(U, U.conj())), LinMap(alg, np.kron(U.conj().T, U.T)))


PAIRS = {
    "identity_m2": lambda: identity_interaction(Algebra((2,))),
    "flip_x2": lambda: amplified_interaction(flip_interaction(), 2),
    "adu_m2": lambda: Interaction.build(*adu_pair(), TOL),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def module(request):
    return build_bimodule(PAIRS[request.param]())


def test_unitary_is_unitary():
    assert np.allclose(U @ U.conj().T, np.eye(2))


def test_inner_tables_match_inner_products(module):
    x = module
    reps = x.representatives()
    for j, k in [(0, 0), (0, x.r - 1), (x.r - 1, 1 % x.r)]:
        assert np.abs(x.inner_r_t[j, k] - x.inner_r(reps[j], reps[k])).max() < 1e-12
        assert np.abs(x.inner_l_t[j, k] - x.inner_l(reps[j], reps[k])).max() < 1e-12


def test_action_tables_match_actions(module):
    x = module
    reps = x.representatives()
    rng = np.random.default_rng(3)
    kh = (x.bch.k_basis.T @ rng.standard_normal(x.bch.k_basis.shape[0]))
    kv = (x.bcv.k_basis.T @ rng.standard_normal(x.bcv.k_basis.shape[0]))
    for i in (0, x.r - 1):
        moved = x.right_act(reps[i], kh.reshape(x.bch.m, x.bch.m))
        assert np.abs(x.right_act_t[i].T @ kh - x.qx @ moved.coeffs).max() < 1e-12
        moved = x.left_act(kv.reshape(x.bcv.m, x.bcv.m), reps[i])
        assert np.abs(x.left_act_t[i].T @ kv - x.qx @ moved.coeffs).max() < 1e-12
    alg = x.algebra
    for a in (0, alg.dim - 1):
        for side, table in (("left", x.lam_t), ("right", x.rho_t)):
            moved = x.act_a(alg.basis[a], reps[-1], side)
            assert np.abs(table[a][:, -1] - x.qx @ moved.coeffs).max() < 1e-12


def test_bracket_matches_both_ternary_routes(module):
    x = module
    reps = x.representatives()
    last = x.r - 1
    for i, j, k in [(0, 0, 0), (last, 0, last), (0, last, 1 % x.r)]:
        via_inner = x.qx @ x.ternary(reps[i], reps[j], reps[k]).coeffs
        elementary = x.qx @ x.ternary_elementary(reps[i], reps[j], reps[k]).coeffs
        assert np.abs(x.bracket_t[i, j, k] - via_inner).max() < 1e-12
        assert np.abs(x.bracket_t[i, j, k] - elementary).max() < 1e-12


def test_slot_adjoint_defects_match_ternary_differences(module):
    from starint.bimodule import slot_adjoint_defects

    x = module
    mid, outer = slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t, x.sigma)
    reps = x.representatives()
    s, t, u = reps[0], reps[-1], reps[min(1, x.r - 1)]
    ijk = (0, x.r - 1, min(1, x.r - 1))
    for ai in (0, x.algebra.dim - 1):
        a = x.algebra.basis[ai]
        lhs = x.ternary(s, x.act_a(a, t, "left"), u)
        rhs = x.ternary(s, t, x.act_a(a.star(), u, "left"))
        assert np.abs(mid[(ai, *ijk)] - x.qx @ (lhs - rhs).coeffs).max() < 1e-12
        lhs = x.ternary(s, x.act_a(a, t, "right"), u)
        rhs = x.ternary(x.act_a(a.star(), s, "right"), t, u)
        assert np.abs(outer[(ai, *ijk)] - x.qx @ (lhs - rhs).coeffs).max() < 1e-12


def test_batched_checks_pass_on_good_modules(module):
    for fn in (check_associativity, check_compatibility,
               check_ternary_consistency, check_ternary_module_laws):
        out = fn(module)
        assert max(out.values()) <= TOL, (fn.__name__, out)


def test_broken_action_table_fails_the_batched_checks():
    x = build_bimodule(identity_interaction(Algebra((2,))))
    x.right_act_t[0] *= 1.5         # the bracket is built from it afterwards
    for fn in (check_associativity, check_compatibility,
               check_ternary_consistency, check_ternary_module_laws):
        out = fn(x)
        assert max(out.values()) > 100 * TOL, (fn.__name__, out)


def test_complex_unitary_pair_passes_norm_agreement():
    v, h = adu_pair()
    rep = run_checklist(v, h)
    rec = rep.records["5.4"]
    assert rec.status == "pass", rec.details
    assert rec.details["5.4-kernels_coincide"] <= TOL


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_record_fails_any_non_finite_residual(bad):
    for residuals in ({"a": 0.0, "b": bad}, {"b": bad, "a": 0.0}):
        rec = _record("5.2", residuals, TOL)
        assert rec.status == "fail"
        assert not math.isfinite(rec.residual)
        assert rec.residual == bad or (math.isnan(bad) and math.isnan(rec.residual))
