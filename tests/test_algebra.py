"""Block algebra arithmetic against hand-computed matrix facts."""

import numpy as np
import pytest

from starint import (
    Algebra,
    DescriptorMismatch,
    Subspace,
    generated_subalgebra,
    is_positive,
    positivity_defect,
    sqrt_psd,
)
from starint.algebra import psd_sqrt


def test_dims_and_unit():
    alg = Algebra((2, 1))
    assert alg.dim == 5
    assert alg.matrix_size == 3
    one = alg.unit()
    assert np.allclose(one.block_diag(), np.eye(3))
    assert np.allclose(one.coords(), [1, 0, 0, 1, 1])


def test_coords_round_trip():
    alg = Algebra((2, 3))
    rng = np.random.default_rng(0)
    c = rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)
    a = alg.from_coords(c)
    assert np.allclose(a.coords(), c)


def test_matrix_unit_products():
    m2 = Algebra((2,))
    e12 = m2.from_coords([0, 1, 0, 0])
    e21 = m2.from_coords([0, 0, 1, 0])
    e11 = m2.from_coords([1, 0, 0, 0])
    assert np.allclose((e12 * e21).coords(), e11.coords())
    assert np.allclose((e12 * e12).coords(), 0)
    assert np.allclose(e12.star().coords(), e21.coords())


def test_norm_is_largest_block_norm():
    alg = Algebra((1, 2))
    a = alg.from_coords([3.0, 0, 2.0, 0, 0])   # block2 = [[0,2],[0,0]]
    assert a.norm() == pytest.approx(3.0)
    b = alg.from_coords([1.0, 0, 5.0, 0, 0])
    assert b.norm() == pytest.approx(5.0)


def test_trace_and_state():
    alg = Algebra((2, 1))
    a = alg.from_coords([1, 0, 0, 1, 4.0])
    assert a.trace() == pytest.approx(6.0)
    assert a.tau() == pytest.approx(2.0)      # normalized by matrix size 3
    assert alg.unit().tau() == pytest.approx(1.0)


def test_mixed_algebra_arithmetic_rejected():
    with pytest.raises(DescriptorMismatch):
        Algebra((2,)).unit() * Algebra((1, 1)).unit()


def test_positivity_helpers():
    m2 = Algebra((2,))
    h = m2.from_coords([2.0, 1.0, 1.0, 2.0])   # [[2,1],[1,2]], eigs 1, 3
    assert is_positive(h)
    root = sqrt_psd(h)
    assert np.allclose((root * root).coords(), h.coords())
    neg = m2.from_coords([-1.0, 0, 0, 1.0])
    assert not is_positive(neg)
    assert positivity_defect(neg) == pytest.approx(1.0)


def test_hermitian_random_samples():
    alg = Algebra((2, 2))
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = alg.random_hermitian(rng)
        assert h.is_hermitian()
        p = alg.random_psd(rng)
        assert is_positive(p, tol=1e-9)


def test_subspace_membership():
    alg = Algebra((1, 1))
    diag = Subspace.from_spanning(alg, np.array([[1.0, 1.0]]))
    assert diag.dim == 1
    ok, resid = diag.contains(alg.unit())
    assert ok and resid < 1e-12
    ok, resid = diag.contains(alg.from_coords([1.0, 0.0]))
    assert not ok and resid > 0.1


def test_generated_subalgebra_off_diagonal_unit():
    m2 = Algebra((2,))
    e12 = m2.from_coords([0, 1, 0, 0])
    full = generated_subalgebra([e12])
    assert full.dim == 4          # e12 and its adjoint generate everything
    diag = generated_subalgebra([m2.from_coords([1, 0, 0, 0])])
    assert diag.dim == 1


def test_amplified_descriptor():
    alg = Algebra((1, 2))
    amp = alg.amplified(3)
    assert amp.blocks == (3, 6)
    assert amp.dim == 45


def test_sqrt_rejects_indefinite():
    m2 = Algebra((2,))
    neg = m2.from_coords([-1.0, 0, 0, 1.0])
    with pytest.raises(ValueError):
        sqrt_psd(neg)


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
    alg = Algebra((1, 2))
    x = alg.random_element(np.random.default_rng(2))
    p = x.star() * x
    root = sqrt_psd(p)
    assert np.array_equal(root.mats[1], psd_sqrt(p.mats[1]))
    assert np.abs((root * root).coords() - p.coords()).max() < 1e-12
