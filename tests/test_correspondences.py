"""Ternary structures: concrete operator spans and the quotient-module form."""

from dataclasses import replace

import numpy as np
import pytest

from starint import (
    Algebra,
    CorrespondenceError,
    Interaction,
    LinMap,
    build_bimodule,
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
    flip_interaction,
    from_endomorphism_transfer,
    identity_interaction,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def matrix_unit_tro():
    alg2 = Algebra((2,))
    e12 = alg2.from_coords([0, 1, 0, 0])
    tro = concrete_tro(alg2, [e12])
    coeff = Algebra((1, 1))
    embed = [alg2.from_coords([1, 0, 0, 0]), alg2.from_coords([0, 0, 0, 1])]
    return correspondence_from_tro(tro, coeff, embed)


def test_matrix_unit_span_oracle():
    corr = matrix_unit_tro()
    a = corr.coeff.from_coords([3.0, 7.0])
    assert np.allclose(corr.lam_of(a), [[3.0]])
    assert np.allclose(corr.rho_of(a), [[7.0]])
    one = np.array([1.0])
    assert np.allclose(corr.bracket(one, one, one), [1.0])
    assert corr.norm_of(np.array([2.0])) == pytest.approx(2.0)


def test_matrix_unit_laws():
    corr = matrix_unit_tro()
    assert max(check_71(corr).values()) == 0.0
    assert max(check_commutation(corr).values()) == 0.0
    assert check_cube_identity(corr)["cube_identity"] == 0.0
    assert max(check_theta_adjoints(corr).values()) == 0.0


def test_matrix_unit_redundancies():
    corr = matrix_unit_tro()
    right = find_redundancies(corr, side="right")
    left = find_redundancies(corr, side="left")
    assert len(right) == 2 and len(left) == 2
    # restricted ones come first and live where the action dies
    assert right[0].restricted and not right[1].restricted
    assert abs(right[0].a.coords()[0]) < 1e-12       # supported on the dead block
    assert left[0].restricted
    assert abs(left[0].a.coords()[1]) < 1e-12
    for red in right + left:
        assert red.residual <= 1e-9


def test_closure_failure_detected():
    alg2 = Algebra((2,))
    e11 = alg2.from_coords([1, 0, 0, 0])
    sym = alg2.from_coords([0, 1, 1, 0])
    # x y* z walks outside the span: sym·e11·sym hits the other corner
    with pytest.raises(CorrespondenceError):
        concrete_tro(alg2, [e11, sym])


def test_zero_span_is_legal_and_silent():
    alg2 = Algebra((2,))
    tro = concrete_tro(alg2, [])
    coeff = Algebra((1, 1))
    embed = [alg2.from_coords([1, 0, 0, 0]), alg2.from_coords([0, 0, 0, 1])]
    corr = correspondence_from_tro(tro, coeff, embed)
    assert corr.tt.size == 0
    assert max(check_71(corr).values()) == 0.0
    assert check_cube_identity(corr)["cube_identity"] == 0.0


def test_full_matrix_algebra_span():
    alg2 = Algebra((2,))
    units = [alg2.from_coords(np.eye(4)[k]) for k in range(4)]
    tro = concrete_tro(alg2, units)
    corr = correspondence_from_tro(tro, alg2, units)
    assert max(check_71(corr).values()) <= 1e-9
    assert check_cube_identity(corr)["cube_identity"] <= 1e-9
    assert max(check_theta_adjoints(corr).values()) <= 1e-9
    assert len(find_redundancies(corr, side="right")) == 4


def test_abstract_matches_concrete_on_flip():
    abstract = correspondence_from_bimodule(build_bimodule(flip_interaction()))
    concrete = matrix_unit_tro()
    assert abstract.mode == "abstract" and concrete.mode == "concrete"
    assert np.allclose(abstract.tt, concrete.tt)
    assert np.allclose(abstract.lam_t, concrete.lam_t)
    assert np.allclose(abstract.rho_t, concrete.rho_t)
    assert abstract.norm_of(np.array([2.0])) == pytest.approx(
        concrete.norm_of(np.array([2.0])))


def test_classical_gate_and_78():
    id2 = identity_interaction(Algebra((2,)))
    classical = correspondence_from_bimodule(build_bimodule(id2))
    assert classical_gate(classical) <= 1e-12
    out = check_78(classical)
    assert out["inner_product_recovered"] <= 1e-9
    assert out["theta_r_is_inner_action"] <= 1e-9
    # flip is not classical; the gate reflects that and 7.8 stays silent
    skew = correspondence_from_bimodule(build_bimodule(flip_interaction()))
    assert classical_gate(skew) > 0.5
    assert set(check_78(skew)) == {"classical_gate"}


def test_compact_spans_orthonormal():
    id2 = identity_interaction(Algebra((2,)))
    corr = correspondence_from_bimodule(build_bimodule(id2))
    kl, kr = compact_spans(corr)
    assert np.allclose(kl @ kl.conj().T, np.eye(kl.shape[0]))
    assert np.allclose(kr @ kr.conj().T, np.eye(kr.shape[0]))


def test_713_endomorphism_transfer_pairs():
    alg = Algebra((1, 1))
    sw = LinMap(alg, SWAP)
    inter, _ = from_endomorphism_transfer(sw, sw)
    out = check_713(sw, sw, inter, build_bimodule(inter))
    assert set(out) == {"density", "isometry", "module_map_right",
                        "module_map_left", "ternary"}
    assert max(out.values()) <= 1e-9

    id2 = identity_interaction(Algebra((2,)))
    ident = LinMap.identity(id2.algebra)
    out2 = check_713(ident, ident, id2, build_bimodule(id2))
    assert max(out2.values()) <= 1e-9


@pytest.mark.parametrize("table, key", [("rho_t", "module_map_right"),
                                        ("lam_t", "module_map_left")])
def test_713_module_maps_read_the_action_tables(table, key):
    # the module-map keys compare the quotient action tables with the
    # classical module, so a wrong table moves its own key and nothing else
    alg = Algebra((1, 1))
    sw = LinMap(alg, SWAP)
    inter, _ = from_endomorphism_transfer(sw, sw)
    x = build_bimodule(inter)
    before = check_713(sw, sw, inter, x)
    setattr(x, table, getattr(x, table).copy())
    getattr(x, table)[1] *= 1.1
    after = check_713(sw, sw, inter, x)
    assert before[key] <= 1e-12 and after[key] > 1e-2
    assert {k: v for k, v in after.items() if k != key} == \
        {k: v for k, v in before.items() if k != key}


def test_commutation_on_the_span_bases_sees_a_broken_bracket():
    corr = correspondence_from_bimodule(build_bimodule(identity_interaction(Algebra((2,)))))
    assert check_commutation(corr)["rank_one_sides_commute"] <= 1e-12
    rng = np.random.default_rng(2)
    broken = replace(corr, tt=corr.tt + 0.1 * rng.standard_normal(corr.tt.shape))
    assert check_commutation(broken)["rank_one_sides_commute"] > 1e-3


def test_713_rejects_wrong_maps():
    fl = flip_interaction()
    xf = build_bimodule(fl)
    alg = Algebra((1, 1))
    sw = LinMap(alg, SWAP)
    with pytest.raises(ValueError, match="not generated"):
        check_713(sw, sw, fl, xf)


def test_713_rejects_non_multiplicative_first_map():
    alg = Algebra((1, 1))
    mean = LinMap(alg, np.full((2, 2), 0.5))
    inter = Interaction.build(mean, mean)
    with pytest.raises(ValueError, match="multiplicative"):
        check_713(mean, mean, inter, build_bimodule(inter))
