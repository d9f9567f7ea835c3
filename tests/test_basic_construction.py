"""Compressed-algebra construction attached to each conditional expectation."""

import dense
import numpy as np
import pytest

from starint import (
    Algebra,
    Interaction,
    LinMap,
    NumericalDegeneracy,
    amplified_interaction,
    basic_for_h,
    basic_for_v,
    build_basic,
    flip_interaction,
    identity_interaction,
)
from starint.algebra import block_adjoint, block_product


def lam_of(bc, a):
    """lam(a) for the coordinates a."""
    return np.tensordot(a, bc.lam, axes=1)


def test_flip_h_side_oracle():
    inter = flip_interaction()
    bc = basic_for_h(inter)
    assert bc.m == 1
    assert np.allclose(bc.e, [[1.0]])
    # compressing against E_H leaves only the second coordinate acting
    assert np.allclose(lam_of(bc, [3.0, 7.0]), [[7.0]])


def test_flip_v_side_oracle():
    inter = flip_interaction()
    bc = basic_for_v(inter)
    assert bc.m == 1
    assert np.allclose(lam_of(bc, [3.0, 7.0]), [[3.0]])


def test_identity_m2_everything_survives():
    inter = identity_interaction(Algebra((2,)))
    bc = basic_for_h(inter)
    assert bc.m == 4
    assert len(bc.k_basis) == 4
    assert bc.e.shape == (4, 4)


def test_invariants_tiny_on_fixtures():
    fixtures = [flip_interaction(), identity_interaction(Algebra((2,)))]
    for inter in fixtures:
        for bc in (basic_for_h(inter), basic_for_v(inter)):
            worst = max(bc.invariants.values())
            assert worst < 1e-12, bc.invariants


def test_left_regular_rep_is_a_homomorphism():
    inter = identity_interaction(Algebra((2,)))
    bc = basic_for_h(inter)
    alg = inter.algebra
    a, b = alg.random_coords(np.random.default_rng(11), 10).reshape(2, 5, alg.dim)
    assert np.allclose(lam_of(bc, block_product(alg, a, b)), lam_of(bc, a) @ lam_of(bc, b))
    assert np.allclose(lam_of(bc, block_adjoint(alg, a)),
                       lam_of(bc, a).conj().swapaxes(-1, -2))


def test_express_in_spanning_roundtrip():
    inter = identity_interaction(Algebra((2,)))
    bc = basic_for_h(inter)
    a, b = inter.algebra.random_coords(np.random.default_rng(2), 2)
    mat = lam_of(bc, a) @ bc.e @ lam_of(bc, b)
    coeffs, resid = bc.express_in_spanning(mat)
    assert resid < 1e-9
    ck, rk = bc.express_in_k(lam_of(bc, a))
    assert rk < 1e-9


def test_class_coords_representative_roundtrip():
    inter = flip_interaction()
    bc = basic_for_h(inter)
    coords = bc.q @ np.array([4.0, -2.0])
    rep = bc.lift @ coords
    # the class only remembers what E_H sees
    assert np.allclose(bc.q @ rep, coords)


def test_degenerate_expectation_raises():
    alg = Algebra((1, 1))
    zero = LinMap(alg, np.zeros((2, 2)))
    with pytest.raises(NumericalDegeneracy):
        build_basic(zero, flip_interaction().range_h)


def piece_pinv(bc):
    """(dim², m²): the presentation map of the span pieces, read off the
    presentations of the m² matrix units."""
    m = bc.m
    return bc.express_in_spanning(np.eye(m * m).reshape(m * m, m, m))[0].reshape(m * m, -1).T


def rotated_diagonal_pair():
    """(E, E) for the expectation E onto u·D·u* in M_2, D the diagonal and u a
    complex unitary: an interaction whose basic constructions have complex e,
    span pieces and singular vectors."""
    alg = Algebra((2,))
    u = np.array([[1.0 + 2.0j, 2.0j], [2.0j, 1.0 - 2.0j]]) / 3.0
    ps = [u @ np.diag(d) @ u.conj().T for d in ([1.0, 0.0], [0.0, 1.0])]
    units = np.eye(4).reshape(4, 2, 2)
    e = LinMap(alg, np.array([sum(p @ x @ p for p in ps).reshape(-1) for x in units]).T)
    return Interaction.build(e, e, 1e-9)


@pytest.mark.parametrize("inter", [flip_interaction,
                                   lambda: amplified_interaction(flip_interaction(), 2),
                                   lambda: identity_interaction(Algebra((2, 1))),
                                   rotated_diagonal_pair])
def test_one_svd_gives_the_span_basis_and_the_pseudo_inverse(inter):
    # the span pieces against one SVD of the dense spanning matrix
    for bc in (basic_for_h(inter()), basic_for_v(inter())):
        span, kb = dense.spanning_matrix(bc), dense.spanning_svd(bc)[2]
        assert bc.k_basis.shape == kb.shape
        assert np.abs(bc.k_basis.T @ bc.k_basis.conj() - kb.T @ kb.conj()).max() < 1e-12
        pinv = piece_pinv(bc)
        assert np.abs(pinv - dense.spanning_pinv(bc)).max() < 1e-12
        assert np.abs(pinv - np.linalg.pinv(span, rcond=bc.tol)).max() < 1e-12
        # the four Moore-Penrose conditions that pin the pseudo-inverse down
        assert np.abs(span @ pinv @ span - span).max() < 1e-12
        assert np.abs(pinv @ span @ pinv - pinv).max() < 1e-12
        for proj in (span @ pinv, pinv @ span):
            assert np.abs(proj - proj.conj().T).max() < 1e-12
        # the null part of a pair coefficient vector c is c - pinv·span·c
        dim = bc.algebra.dim
        pairs = np.random.default_rng(4).standard_normal((3, dim * dim, 2)) @ [1.0, 1.0j]
        null = bc.null_part(pairs.reshape(3, dim, dim)).reshape(3, -1)
        assert np.abs(null - (pairs - pairs @ (pinv @ span).T)).max() < 1e-12
