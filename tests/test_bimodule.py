"""Quotient bimodule built on A⊗A, its inner products, norms, and actions."""

import dense
import numpy as np
import pytest

from starint import (
    Algebra,
    amplified_interaction,
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
    flip_interaction,
    identity_interaction,
)
from starint.algebra import block_adjoint, block_product

ALL_CHECKS = [
    check_positivity,
    check_cauchy_schwarz,
    check_norm_agreement,
    check_sliding,
    check_bound_59,
    check_action_bound,
    check_associativity,
    check_compatibility,
    check_ternary_consistency,
    check_fullness,
    check_ternary_module_laws,
]


def fixtures():
    return [
        build_bimodule(flip_interaction()),
        build_bimodule(identity_interaction(Algebra((2,)))),
        build_bimodule(amplified_interaction(flip_interaction(), 2)),
    ]


def test_flip_rank_and_norm():
    x = build_bimodule(flip_interaction())
    assert x.r == 1
    assert np.allclose(x.gram_spectrum, [1.0])
    t = np.kron([3.0, 5.0], [2.0, 7.0])
    # only the (first-coordinate of a) × (second-coordinate of b) survives
    assert x.module_norm(t) == pytest.approx(21.0)
    assert x.module_norm_left(t) == pytest.approx(21.0)


def test_flip_dead_class_vanishes():
    x = build_bimodule(flip_interaction())
    dead = np.kron([0.0, 9.0], [2.0, 7.0])
    assert x.module_norm(dead) == 0.0
    also_dead = np.kron([4.0, 9.0], [2.0, 0.0])
    assert x.module_norm(also_dead) == 0.0
    # a stack of tensors is one call, its norms those of the tensors
    assert np.array_equal(x.module_norm(np.stack([dead, also_dead])), [0.0, 0.0])


def test_identity_m2_inner_is_compressed_product():
    inter = identity_interaction(Algebra((2,)))
    x = build_bimodule(inter)
    assert x.r == 4
    alg = inter.algebra
    rng = np.random.default_rng(7)
    one = alg.unit()
    for _ in range(5):
        u, v = alg.random_coords(rng, 2)
        ip = x.inner_r(np.kron(one, u), np.kron(one, v))
        want = np.tensordot(block_product(alg, block_adjoint(alg, u), v), x.bch.lam, axes=1)
        assert np.abs(ip - want).max() < 1e-12


def test_norm_two_ways_agree_on_sums():
    inter = identity_interaction(Algebra((2,)))
    x = build_bimodule(inter)
    rng = np.random.default_rng(13)
    pairs = inter.algebra.random_coords(rng, 6).reshape(3, 2, -1)
    nr, nl = x.norm_two_ways(pairs[:, 0], pairs[:, 1])
    assert nr == pytest.approx(nl, rel=1e-8)


def test_inner_products_match_gram():
    x = build_bimodule(flip_interaction())
    t = np.kron([3.0, 5.0], [2.0, 7.0])
    assert np.allclose(x.inner_r(t, t), [[441.0]])
    assert np.allclose(x.inner_l(t, t), [[441.0]])


def test_action_shapes():
    x = build_bimodule(flip_interaction())
    t = np.kron([3.0, 5.0], [2.0, 7.0])
    k = np.tensordot([1.0, 2.0], x.bch.lam, axes=1)
    moved = x.right_act(t, dense.presentation(x.bch, k))
    assert moved.shape == (x.amb,)
    # right action rescales the surviving class by the compressed factor
    assert x.module_norm(moved) == pytest.approx(42.0)
    scaled = x.act_a(np.array([2.0, 1.0]), t, side="left")
    assert x.module_norm(scaled) == pytest.approx(42.0)
    # stacks of tensors and operators broadcast together
    stacked = x.right_act(np.stack([t, 2 * t]), dense.presentation(x.bch, np.stack([k, k])))
    assert stacked.shape == (2, x.amb)
    assert np.allclose(x.module_norm(stacked), [42.0, 84.0])


@pytest.mark.parametrize("idx", range(3))
def test_all_checks_tiny(idx):
    x = fixtures()[idx]
    rng = np.random.default_rng(59)
    for fn in ALL_CHECKS:
        try:
            out = fn(x, rng=rng)
        except TypeError:
            out = fn(x)
        worst = max(out.values())
        assert worst <= 1e-9, (fn.__name__, out)


def test_representatives_span_the_quotient():
    x = build_bimodule(identity_interaction(Algebra((2,))))
    assert x.rep_mats.shape == (x.r, x.dim, x.dim)
    assert np.array_equal(x.rep_mats.reshape(x.r, x.amb), x.liftx.T)
    mat = np.stack([x.qx @ x.liftx[:, k] for k in range(x.r)], axis=1)
    assert np.allclose(mat, np.eye(x.r))
