"""Representation of the pair on the two quotient spaces, plus the gates."""

import numpy as np
import pytest

from starint import (
    Algebra,
    CovariantError,
    CovariantRep,
    amplified_interaction,
    build_covrep,
    check_commutation_22,
    check_corner_isomorphisms,
    check_corner_norms,
    check_derive_roundtrip,
    check_nondegeneracy,
    check_unit_relations,
    faithful_extension,
    flip_interaction,
    identity_interaction,
    with_zero_s,
)
from starint.algebra import representation_defects


def test_flip_rep_oracle():
    rep = build_covrep(flip_interaction())
    assert (rep.r, rep.s, rep.n) == (1, 1, 2)
    # the shift sends the second basis vector onto the first, nothing else
    assert np.array_equal(rep.smat, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.allclose(np.tensordot([3.0, 7.0], rep.pi, axes=1), np.diag([3.0, 7.0]))
    assert max(rep.residuals.values()) == 0.0


def test_flip_gates_are_one():
    rep = build_covrep(flip_interaction())
    out = check_nondegeneracy(rep)
    assert out["nondegenerate"] == 1.0
    assert out["implication_violation"] == 0.0
    for key in ("gate_range_v", "gate_generated_v", "gate_range_h", "gate_generated_h"):
        assert out[key] == pytest.approx(1.0)


def test_zero_s_is_degenerate_without_violation():
    rep = with_zero_s(build_covrep(flip_interaction()))
    out = check_nondegeneracy(rep)
    assert out["nondegenerate"] == 0.0
    assert out["implication_violation"] == 0.0
    assert out["gate_range_v"] == 0.0


def test_structure_checks_tiny_on_fixtures():
    reps = [
        build_covrep(flip_interaction()),
        build_covrep(identity_interaction(Algebra((2,)))),
        build_covrep(amplified_interaction(flip_interaction(), 2)),
    ]
    for rep in reps:
        for fn in (check_commutation_22, check_corner_isomorphisms,
                   check_corner_norms, check_unit_relations):
            out = fn(rep)
            assert max(out.values()) <= 1e-9, (fn.__name__, out)


def test_faithful_extension_flip():
    rep = build_covrep(flip_interaction())
    ext = faithful_extension(rep)
    assert ext.injectivity == pytest.approx(np.sqrt(2))
    a = np.array([3.0, 7.0])
    big, small = np.tensordot(a, ext.pi, axes=1), np.tensordot(a, rep.pi, axes=1)
    assert big.shape[0] > small.shape[0]
    # original block sits in the top-left corner
    assert np.allclose(big[: rep.pi.shape[1], : rep.pi.shape[1]], small)


def test_faithful_extension_separates_elements():
    rep = build_covrep(flip_interaction())
    ext = faithful_extension(rep)
    # pi of the two minimal projections
    assert np.abs(ext.pi[0] - ext.pi[1]).max() > 0.5


def test_derive_roundtrip_exact():
    for inter in (flip_interaction(), identity_interaction(Algebra((2,)))):
        rep = build_covrep(inter)
        out = check_derive_roundtrip(rep)
        assert max(out.values()) <= 1e-9, out


def test_build_rejects_tampered_pair():
    from starint import Interaction, LinMap

    inter = flip_interaction()
    doubled = Interaction(inter.algebra, LinMap(inter.algebra, 2.0 * inter.v.matrix), inter.h,
                          inter.tol, inter.range_v, inter.range_h, inter.report)
    with pytest.raises(CovariantError) as err:
        build_covrep(doubled)
    assert err.value.residuals["partial_isometry"] == pytest.approx(np.sqrt(2))
    assert err.value.residuals["covariance_v"] == pytest.approx(2.0)


def test_entries_off_the_blocks_are_residuals():
    # the relations are read on the blocks, so an entry of pi off its diagonal
    # blocks or of S outside T must show, even where pi stays a *-homomorphism
    rep = build_covrep(identity_interaction(Algebra((2,))))
    u = np.eye(rep.n, dtype=complex)
    u[[0, 0, rep.r, rep.r], [0, rep.r, 0, rep.r]] = np.array([1, 1, 1, -1]) / np.sqrt(2)
    mixed = CovariantRep(rep.interaction, rep.x, rep.r, rep.s, u @ rep.pi @ u, rep.smat,
                         rep.tol)
    smat = rep.smat.copy()
    smat[rep.r, 0] = 0.5
    shifted = CovariantRep(rep.interaction, rep.x, rep.r, rep.s, rep.pi, smat, rep.tol)
    assert representation_defects(rep.interaction.algebra, mixed.pi)[0] <= 1e-12
    assert mixed.residuals["pi_multiplicative"] >= 0.1
    assert shifted.residuals["partial_isometry"] == 0.5
    assert max(rep.residuals.values()) <= 1e-12


def test_covariant_error_carries_residuals():
    err = CovariantError("bad", residuals={"partial_isometry": 1.0})
    assert err.residuals["partial_isometry"] == 1.0
