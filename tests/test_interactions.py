"""Pair verification, expectations, and reconstruction from a compression."""

import numpy as np
import pytest

from starint import (
    Algebra,
    Interaction,
    InteractionError,
    LinMap,
    amplified_interaction,
    check_inverse_pair,
    derive_from_partial_isometry,
    flip_interaction,
    from_endomorphism_transfer,
    identity_interaction,
    swap_transfer_interaction,
    transpose_map,
    verify_interaction,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_flip_verifies_exactly():
    inter = flip_interaction()
    assert max(inter.report.residuals.values()) == 0.0
    assert inter.range_v.dim == 1
    assert inter.range_h.dim == 1


def test_flip_expectations():
    inter = flip_interaction()
    ev, eh = inter.e_v, inter.e_h
    a = np.array([3.0, 7.0])
    # v∘h keeps the first coordinate everywhere, h∘v the second
    assert np.allclose(ev.target.matrix @ a, [3.0, 3.0])
    assert np.allclose(eh.target.matrix @ a, [7.0, 7.0])
    assert max(ev.residuals.values()) < 1e-12
    assert eh.cp_min_eig >= -1e-12


def test_transpose_pair_rejected_with_witness():
    m2 = Algebra((2,))
    t = transpose_map(m2)
    report = verify_interaction(t, t)
    assert not report.passed
    assert report.residuals["3.1.i"] < 1e-12          # positive as a map
    assert report.residuals["3.1.iv"] == pytest.approx(np.sqrt(2))
    assert report.witnesses["3.1.iv"] == {
        "x_kind": "unit", "x_index": 1, "y_kind": "unit",
        "y_index": 2, "order": "xy"}
    with pytest.raises(InteractionError) as err:
        Interaction.build(t, t)
    assert err.value.report is report or err.value.report.residuals == report.residuals


def test_identity_and_amplified():
    inter = identity_interaction(Algebra((2,)))
    assert max(inter.report.residuals.values()) < 1e-12
    amp = amplified_interaction(flip_interaction(), 2)
    assert amp.algebra.blocks == (2, 2)
    assert max(amp.report.residuals.values()) < 1e-12


def test_inverse_pair_identities():
    for inter in (flip_interaction(), identity_interaction(Algebra((2,)))):
        out = check_inverse_pair(inter)
        assert max(out.values()) < 1e-12


def test_endomorphism_transfer_accepts_swap():
    inter, residuals = swap_transfer_interaction()[0], None
    alg = Algebra((1, 1))
    sw = LinMap(alg, SWAP)
    inter2, residuals = from_endomorphism_transfer(sw, sw)
    assert max(residuals.values()) < 1e-12
    assert np.allclose(inter2.v.matrix, SWAP)


def test_endomorphism_transfer_rejects_averaging():
    alg = Algebra((1, 1))
    ident = LinMap.identity(alg)
    mean = LinMap(alg, (np.eye(2) + SWAP) / 2)
    with pytest.raises(InteractionError) as err:
        from_endomorphism_transfer(ident, mean)
    assert "transfer_identity" in str(err.value)


def test_derive_recovers_flip():
    m2 = Algebra((2,))
    a = Algebra((1, 1))
    embed = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
    s = np.array([0, 1, 0, 0])
    result = derive_from_partial_isometry(a, m2, embed, s)
    flip = flip_interaction()
    assert np.allclose(result.interaction.v.matrix, flip.v.matrix)
    assert np.allclose(result.interaction.h.matrix, flip.h.matrix)
    assert result.gauge == "unital"
    assert min(result.gates.values()) > 0.999


def test_derive_identity_data():
    m2 = Algebra((2,))
    result = derive_from_partial_isometry(m2, m2, np.eye(4), m2.unit())
    assert np.allclose(result.interaction.v.matrix, np.eye(4))
    assert np.allclose(result.interaction.h.matrix, np.eye(4))


def test_derive_rejects_non_partial_isometry():
    m2 = Algebra((2,))
    a = Algebra((1, 1))
    embed = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
    bad = np.array([0, 2.0, 0, 0])       # s s* s = 4 s
    with pytest.raises(InteractionError):
        derive_from_partial_isometry(a, m2, embed, bad)


def test_verify_seeds_are_reproducible():
    inter = flip_interaction()
    r1 = verify_interaction(inter.v, inter.h, rng=np.random.default_rng(5))
    r2 = verify_interaction(inter.v, inter.h, rng=np.random.default_rng(5))
    assert r1.residuals == r2.residuals
