"""Linear map plumbing: composition, amplification, Choi positivity."""

import numpy as np
import pytest

from starint import (
    Algebra,
    LinMap,
    amplify,
    choi_matrix,
    compose,
    is_completely_positive,
    map_residual,
    range_subspace,
    star_preservation_residual,
    transpose_map,
)
from starint.linmaps import complete_contractivity_residual, positivity_certificate


def flip_maps():
    alg = Algebra((1, 1))
    v = LinMap(alg, np.array([[0.0, 1.0], [0.0, 1.0]]))
    h = LinMap(alg, np.array([[1.0, 0.0], [1.0, 0.0]]))
    return alg, v, h


def test_identity_and_compose():
    alg = Algebra((2,))
    ident = LinMap.identity(alg)
    assert map_residual(compose(ident, ident), ident) == 0.0
    a = alg.from_coords([1, 2, 3, 4])
    assert np.allclose(ident(a).coords(), a.coords())


def test_matmul_composition_order():
    alg, v, h = flip_maps()
    a = alg.from_coords([1.0, 0.0])
    # (v after h)(a) applies h first
    assert np.allclose((v @ h)(a).coords(), v(h(a)).coords())


def test_transpose_is_positive_but_not_cp():
    m2 = Algebra((2,))
    t = transpose_map(m2)
    ok, defect = positivity_certificate(t, trials=30, rng=np.random.default_rng(1))
    assert ok and defect < 1e-12
    cp, low = is_completely_positive(t)
    assert not cp
    assert low == pytest.approx(-1.0, abs=1e-12)


def test_choi_of_identity_is_positive():
    alg = Algebra((2, 1))
    cp, low = is_completely_positive(LinMap.identity(alg))
    assert cp and low >= -1e-12
    choi = choi_matrix(LinMap.identity(alg))
    assert np.allclose(choi, choi.conj().T)


def test_star_preservation():
    alg, v, h = flip_maps()
    assert star_preservation_residual(v) == 0.0
    m2 = Algebra((2,))
    skew = LinMap(m2, np.diag([1.0, 1.0, -1.0, 1.0]))   # breaks adjoints
    assert star_preservation_residual(skew) > 0.5


def test_amplify_flip_entrywise():
    alg, v, h = flip_maps()
    v2 = amplify(v, 2)
    assert v2.algebra.blocks == (2, 2)
    a = v2.algebra.random_element(np.random.default_rng(3))
    out = v2(a)
    # base v replaces both coordinates by the second one, entry by entry
    assert np.allclose(out.mats[0], a.mats[1])
    assert np.allclose(out.mats[1], a.mats[1])


def test_range_subspace_of_flip():
    alg, v, h = flip_maps()
    rv = range_subspace(v)
    assert rv.dim == 1
    ok, _ = rv.contains(alg.unit())
    assert ok


def test_contractivity_residual():
    alg = Algebra((2,))
    rng = np.random.default_rng(8)
    assert complete_contractivity_residual(LinMap.identity(alg), 10, rng) <= 1e-12
    doubling = LinMap(alg, 2.0 * np.eye(4))
    assert complete_contractivity_residual(doubling, 10, rng) > 0.5


def test_map_residual_worst_column():
    alg = Algebra((1, 1))
    a = LinMap(alg, np.eye(2))
    b = LinMap(alg, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert map_residual(a, b) == pytest.approx(1.0)
