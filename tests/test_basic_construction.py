"""Compressed-algebra construction attached to each conditional expectation."""

import numpy as np
import pytest

from starint import (
    Algebra,
    LinMap,
    NumericalDegeneracy,
    amplified_interaction,
    basic_for_h,
    basic_for_v,
    build_basic,
    flip_interaction,
    identity_interaction,
)
from starint.algebra import orthonormal_rows


def test_flip_h_side_oracle():
    inter = flip_interaction()
    bc = basic_for_h(inter)
    assert bc.m == 1
    assert np.allclose(bc.e, [[1.0]])
    a = inter.algebra.from_coords([3.0, 7.0])
    # compressing against E_H leaves only the second coordinate acting
    assert np.allclose(bc.lam_of(a), [[7.0]])


def test_flip_v_side_oracle():
    inter = flip_interaction()
    bc = basic_for_v(inter)
    assert bc.m == 1
    assert np.allclose(bc.lam_of(inter.algebra.from_coords([3.0, 7.0])), [[3.0]])


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
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = inter.algebra.random_element(rng)
        b = inter.algebra.random_element(rng)
        assert np.allclose(bc.lam_of(a * b), bc.lam_of(a) @ bc.lam_of(b))
        assert np.allclose(bc.lam_of(a.star()), bc.lam_of(a).conj().T)


def test_express_in_spanning_roundtrip():
    inter = identity_interaction(Algebra((2,)))
    bc = basic_for_h(inter)
    rng = np.random.default_rng(2)
    a = inter.algebra.random_element(rng)
    mat = bc.lam_of(a) @ bc.e @ bc.lam_of(inter.algebra.random_element(rng))
    coeffs, resid = bc.express_in_spanning(mat)
    assert resid < 1e-9
    ck, rk = bc.express_in_k(bc.lam_of(a))
    assert rk < 1e-9


def test_class_coords_representative_roundtrip():
    inter = flip_interaction()
    bc = basic_for_h(inter)
    a = inter.algebra.from_coords([4.0, -2.0])
    coords = bc.class_coords(a)
    rep = bc.representative(coords)
    # the class only remembers what E_H sees
    assert np.allclose(bc.class_coords(rep), coords)


def test_degenerate_expectation_raises():
    alg = Algebra((1, 1))
    zero = LinMap(alg, np.zeros((2, 2)))
    with pytest.raises(NumericalDegeneracy):
        build_basic(zero, flip_interaction().range_h)


@pytest.mark.parametrize("inter", [flip_interaction,
                                   lambda: amplified_interaction(flip_interaction(), 2),
                                   lambda: identity_interaction(Algebra((2, 1)))])
def test_one_svd_gives_the_span_basis_and_the_pseudo_inverse(inter):
    for bc in (basic_for_h(inter()), basic_for_v(inter())):
        span = bc.spanning_matrix
        assert np.array_equal(bc.k_basis, orthonormal_rows(span.T, bc.tol))
        pinv = bc.spanning_pinv
        assert np.abs(pinv - np.linalg.pinv(span, rcond=bc.tol)).max() < 1e-12
        # the Moore-Penrose conditions that pin the pseudo-inverse down
        assert np.abs(span @ pinv @ span - span).max() < 1e-12
        assert np.abs(pinv @ span @ pinv - pinv).max() < 1e-12
