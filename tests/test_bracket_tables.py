"""The module's quotient tables against its methods called on one-element
stacks, and the batched checks 5.11-5.17 against broken tables."""

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
from starint.algebra import Sparse, block_adjoint
from starint.checklist import _bimodule_records, _correspondence_records, _record

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


def sides(x):
    """(side, inner product, span-coordinate table, basic construction) of each side."""
    return (("right", x.inner_r, x.inner_r_t, x.bch), ("left", x.inner_l, x.inner_l_t, x.bcv))


def test_inner_tables_match_inner_products(module):
    # on the orthonormal span basis the coordinates give back each inner
    # product; 5.15's remainders are those of the generators λ(a_i)·e·λ(a_j)
    # outside the span
    x = module
    reps = x.liftx.T
    for _, inner, table, bc in sides(x):
        assert table.shape == (x.r, x.r, len(bc.k_basis))
        for j, k in [(0, 0), (0, x.r - 1), (x.r - 1, 1 % x.r)]:
            want = inner(reps[j], reps[k]).reshape(-1)
            assert np.abs(table[j, k] @ bc.k_basis - want).max() < 1e-12
        gens = (bc.lam[:, None] @ bc.e @ bc.lam).reshape(x.dim, x.dim, -1)
        outside = gens - (gens @ bc.k_basis.conj().T) @ bc.k_basis
        rest = np.linalg.norm(outside, axis=-1) / np.maximum(1.0, np.linalg.norm(gens, axis=-1))
        assert np.abs(bc.generator_remainders() - rest).max() < 1e-12


def test_action_tables_match_actions(module):
    x = module
    reps = x.liftx.T
    rng = np.random.default_rng(3)
    # an operator of each span, by its coordinates on the orthonormal span basis
    wh, wv = (rng.standard_normal(len(bc.k_basis)) for bc in (x.bch, x.bcv))
    kh, kv = x.bch.k_basis.T @ wh, x.bcv.k_basis.T @ wv
    assert x.right_act_t.shape == (x.r, len(wh), x.r)
    assert x.left_act_t.shape == (x.r, len(wv), x.r)
    for i in (0, x.r - 1):
        moved = x.right_act(reps[i], kh.reshape(x.bch.m, x.bch.m))
        assert np.abs(x.right_act_t[i].T @ wh - x.qx @ moved).max() < 1e-12
        moved = x.left_act(kv.reshape(x.bcv.m, x.bcv.m), reps[i])
        assert np.abs(x.left_act_t[i].T @ wv - x.qx @ moved).max() < 1e-12
    alg = x.algebra
    for a in (0, alg.dim - 1):
        for side, table in (("left", x.lam_t), ("right", x.rho_t)):
            moved = x.act_a(np.eye(alg.dim)[a], reps[-1], side)
            assert np.abs(table[a][:, -1] - x.qx @ moved).max() < 1e-12


def test_bracket_matches_both_ternary_routes(module):
    x = module
    reps = x.liftx.T
    last = x.r - 1
    for i, j, k in [(0, 0, 0), (last, 0, last), (0, last, 1 % x.r)]:
        via_inner = x.qx @ x.ternary(reps[i], reps[j], reps[k])
        elementary = x.qx @ x.ternary_elementary(reps[i], reps[j], reps[k])
        bracket = x.bracket_t.dense()[i, j, k]
        assert np.abs(bracket - via_inner).max() < 1e-12
        assert np.abs(bracket - elementary).max() < 1e-12


def test_stacked_methods_reproduce_the_whole_tables(module):
    # one call over every pair or triple of representatives, by broadcasting
    x = module
    reps = x.liftx.T
    for _, inner, table, bc in sides(x):
        want = inner(reps[:, None], reps)
        assert np.abs((table @ bc.k_basis).reshape(want.shape) - want).max() < 1e-12
    for route in (x.ternary, x.ternary_elementary):
        classes = route(reps[:, None, None], reps[:, None], reps) @ x.qx.T
        assert np.abs(classes - x.bracket_t.dense()).max() < 1e-12, route.__name__
    eye = np.eye(x.dim)
    for side, table in (("left", x.lam_t), ("right", x.rho_t)):
        moved = x.act_a(eye[:, None], reps, side) @ x.qx.T      # [a, t, c]
        assert np.abs(moved.swapaxes(1, 2) - table).max() < 1e-12, side


def test_slot_adjoint_defects_match_ternary_differences(module):
    from starint.bimodule import slot_adjoint_slices

    x = module
    reps = x.liftx.T
    s, t, u = reps[0], reps[-1], reps[min(1, x.r - 1)]
    ijk = (0, x.r - 1, min(1, x.r - 1))
    for ai in (0, x.algebra.dim - 1):
        mid, outer = (lhs.dense() - rhs.dense() for lhs, rhs in slot_adjoint_slices(
            x.bracket_t, x.lam_t, x.rho_t, x.sigma, slice(ai, ai + 1)))
        a = np.eye(x.algebra.dim)[ai]
        a_star = block_adjoint(x.algebra, a)
        lhs = x.ternary(s, x.act_a(a, t, "left"), u)
        rhs = x.ternary(s, t, x.act_a(a_star, u, "left"))
        assert np.abs(mid[(0, *ijk)] - x.qx @ (lhs - rhs)).max() < 1e-12
        lhs = x.ternary(s, x.act_a(a, t, "right"), u)
        rhs = x.ternary(x.act_a(a_star, s, "right"), t, u)
        assert np.abs(outer[(0, *ijk)] - x.qx @ (lhs - rhs)).max() < 1e-12


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


def test_a_bracket_filled_by_noise_fails_the_ids_that_read_it():
    # every entry of the noisy bracket is a nonzero of the one sparse route;
    # the dense route failed the same ids, and 5.11 does not read the bracket
    x = build_bimodule(identity_interaction(Algebra((2,))))
    rng = np.random.default_rng(7)
    tt = x.bracket_t.dense()
    x.bracket_t = Sparse.of(tt + 0.1 * (rng.standard_normal(tt.shape)
                                        + 1j * rng.standard_normal(tt.shape)))
    assert len(x.bracket_t.at) == x.r ** 4
    records = {**_bimodule_records(x, TOL, 4, 0), **_correspondence_records(x, TOL)}
    assert {cid for cid, rec in records.items() if rec.status == "fail"} == {
        "5.13", "5.14", "5.17", "7.1"}


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
