"""Block algebra arithmetic against hand-computed matrix facts."""

import numpy as np
import pytest
from conftest import mixed_pair
from dense import left_mult, to_dense

from starint import (
    Algebra,
    DescriptorMismatch,
    LinMap,
    Subspace,
    build_covrep,
    generated_subalgebra,
)
from starint.algebra import (
    block_adjoint,
    block_norms,
    block_product,
    positivity_defects,
    psd_sqrt,
    representation_defects,
    row_chunks,
    worst,
    worst_norm,
)


def test_dims_and_unit():
    alg = Algebra((2, 1))
    assert alg.dim == 5
    assert alg.matrix_size == 3
    one = alg.unit()
    assert np.array_equal(to_dense(alg, one), np.eye(3))
    assert np.array_equal(one, [1, 0, 0, 1, 1])


def test_coords_round_trip():
    # coordinates placed at the matrix-unit positions read back unchanged
    alg = Algebra((2, 3))
    rng = np.random.default_rng(0)
    c = rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)
    rows, cols = alg.unit_positions.T
    mat = to_dense(alg, c)
    assert np.array_equal(mat[rows, cols], c)
    assert np.count_nonzero(mat) == alg.dim
    assert np.array_equal(block_adjoint(alg, block_adjoint(alg, c)), c)


def test_matrix_unit_products():
    m2 = Algebra((2,))
    e11, e12, e21, _ = np.eye(4)
    assert np.array_equal(block_product(m2, e12, e21), e11)
    assert np.array_equal(block_product(m2, e12, e12), np.zeros(4))
    assert np.array_equal(block_adjoint(m2, e12), e21)


def test_norm_is_largest_block_norm():
    alg = Algebra((1, 2))
    a = np.array([3.0, 0, 2.0, 0, 0])        # block2 = [[0,2],[0,0]]
    b = np.array([1.0, 0, 5.0, 0, 0])
    assert block_norms(alg, np.stack([a, b])) == pytest.approx([3.0, 5.0])


def test_trace_and_state():
    # the trace is the pairing with the unit's coordinates
    alg = Algebra((2, 1))
    a = np.array([1, 0, 0, 1, 4.0])
    assert alg.unit() @ a == pytest.approx(6.0)
    assert alg.unit() @ a / alg.matrix_size == pytest.approx(2.0)   # normalized trace
    assert alg.unit() @ alg.unit() / alg.matrix_size == pytest.approx(1.0)


def test_mixed_algebra_arithmetic_rejected():
    with pytest.raises(DescriptorMismatch):
        LinMap.identity(Algebra((2,))) @ LinMap.identity(Algebra((1, 1)))


def test_positivity_helpers():
    m2 = Algebra((2,))
    h = np.array([2.0, 1.0, 1.0, 2.0])      # [[2,1],[1,2]], eigs 1, 3
    neg = np.array([-1.0, 0, 0, 1.0])
    assert positivity_defects(m2, np.stack([h, neg])) == pytest.approx([0.0, 1.0])
    root = psd_sqrt(h.reshape(2, 2)).reshape(-1)
    assert np.allclose(block_product(m2, root, root), h)


def test_hermitian_random_samples():
    alg = Algebra((2, 2))
    xs = alg.random_coords(np.random.default_rng(5), 10)
    herm = (xs + block_adjoint(alg, xs)) / 2
    assert np.array_equal(herm, block_adjoint(alg, herm))
    assert (positivity_defects(alg, block_product(alg, block_adjoint(alg, xs), xs))
            <= 1e-9).all()


def test_subspace_membership():
    alg = Algebra((1, 1))
    diag = Subspace.from_spanning(alg, np.array([[1.0, 1.0]]))
    assert diag.dim == 1

    def leak(x):
        return np.linalg.norm(x - diag.basis.T @ (diag.basis.conj() @ x))

    assert leak(alg.unit()) < 1e-12
    assert leak(np.array([1.0, 0.0])) > 0.1


def test_generated_subalgebra_off_diagonal_unit():
    m2 = Algebra((2,))
    full = generated_subalgebra(m2, [[0, 1, 0, 0]])
    assert full.dim == 4          # e12 and its adjoint generate everything
    diag = generated_subalgebra(m2, [[1, 0, 0, 0]])
    assert diag.dim == 1
    with pytest.raises(ValueError):
        generated_subalgebra(m2, np.zeros((0, 4)))


def test_amplified_descriptor():
    alg = Algebra((1, 2))
    amp = alg.amplified(3)
    assert amp.blocks == (3, 6)
    assert amp.dim == 45


def test_sqrt_rejects_indefinite():
    # positivity_defects is the gate in front of a root: psd_sqrt itself
    # clamps the negative part
    m2 = Algebra((2,))
    neg = np.array([-1.0, 0, 0, 1.0])
    assert not positivity_defects(m2, neg) <= 1e-9
    assert np.array_equal(psd_sqrt(neg.reshape(2, 2)), np.diag([0.0, 1.0]))


def test_psd_sqrt_matches_eigh():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    mats = z @ z.conj().swapaxes(-1, -2)
    mats[0] -= 0.5 * np.eye(4) * np.linalg.eigvalsh(mats[0]).max()   # indefinite: clamped
    roots = psd_sqrt(mats)
    for mat, root in zip(mats, roots):
        vals, vecs = np.linalg.eigh(mat)
        want = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        assert np.abs(root - want).max() < 1e-12
    assert np.abs(roots[1:] @ roots[1:] - mats[1:]).max() < 1e-10


def test_psd_sqrt_gives_nan_for_a_non_finite_matrix():
    mats = np.stack([np.eye(2), np.diag([4.0, 9.0]), np.eye(2)]).astype(complex)
    mats[1, 0, 1] = np.nan
    roots = psd_sqrt(mats)
    assert np.isnan(roots[1]).all()
    assert np.array_equal(roots[[0, 2]], mats[[0, 2]])


def test_sqrt_psd_is_the_one_element_case():
    # the root of an element is psd_sqrt of each of its blocks
    alg = Algebra((1, 2))
    x = alg.random_coords(np.random.default_rng(2), 1)[0]
    p = block_product(alg, block_adjoint(alg, x), x)
    root = np.concatenate([psd_sqrt(p[:1].reshape(1, 1)).reshape(-1),
                           psd_sqrt(p[1:].reshape(2, 2)).reshape(-1)])
    assert positivity_defects(alg, root) <= 1e-12
    assert np.abs(block_product(alg, root, root) - p).max() < 1e-12


def _dense_representation_defects(alg, reps):
    """representation_defects by the dense formula: rep(a_i a_k) contracted
    from the dim³ left-multiplication tensor."""
    dim, n = reps.shape[:2]
    pairs = left_mult(alg).swapaxes(1, 2)         # [i, k] = coords(a_i a_k)
    mult = [worst_norm(np.tensordot(pairs[rows], reps, axes=1) - reps[rows, None] @ reps,
                       axis=(-2, -1))
            for rows in row_chunks(dim, dim * n * n)]
    star = worst_norm(reps[alg.star_perm] - reps.conj().swapaxes(-1, -2), axis=(-2, -1))
    return worst(mult), star


@pytest.mark.parametrize("blocks", [(1,), (3,), (2, 1), (1, 2, 2)])
def test_representation_defects_match_the_dense_formula(blocks):
    alg = Algebra(blocks)
    rng = np.random.default_rng(len(blocks))
    regular = left_mult(alg)                             # a *-representation
    noisy = rng.standard_normal((alg.dim, 3, 3)) + 1j * rng.standard_normal((alg.dim, 3, 3))
    for reps in (regular, regular.real.copy()):          # exact: sums of products of 0 and 1
        assert representation_defects(alg, reps) == _dense_representation_defects(alg, reps)
    assert representation_defects(alg, regular) == (0.0, 0.0)
    # the sums over the nonzeros add in another order than the dense products
    close_pair(representation_defects(alg, noisy), _dense_representation_defects(alg, noisy))
    broken = noisy.copy()
    broken[-1, 0, 0] = np.nan
    mult, star = representation_defects(alg, broken)
    assert np.isnan(mult) and np.isnan(star)
    assert all(np.isnan(_dense_representation_defects(alg, broken)))


def close_pair(got, want):
    assert np.abs(np.subtract(got, want)).max() <= 1e-12, (got, want)


def test_representation_defects_of_pi_on_mixed_blocks_match_the_dense_formula():
    # π on M_2 ⊕ M_2 ⊕ C, whose span summand holds more than one magnitude,
    # and the same with noise on every entry, so that the defects are of order 1
    inter = mixed_pair("mixed_221")
    pi = build_covrep(inter).pi
    noisy = pi + 0.1 * np.random.default_rng(6).standard_normal(pi.shape)
    for reps in (pi, noisy):
        close_pair(representation_defects(inter.algebra, reps),
                   _dense_representation_defects(inter.algebra, reps))
    assert min(representation_defects(inter.algebra, noisy)) > 0.1
