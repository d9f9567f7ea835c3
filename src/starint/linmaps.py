"""Linear maps on a multimatrix algebra and their positivity certificates.

A map is stored as its matrix on canonical coordinates.  Complete
positivity is decided through the Choi matrix of the block-diagonal
extension (compress to the block diagonal, then apply the map), which
is positive semidefinite exactly when the map is completely positive.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    TINY,
    Algebra,
    BlockForm,
    DescriptorMismatch,
    Draws,
    Subspace,
    block_adjoint,
    block_norms,
    block_product,
    copy_index,
    positivity_defects,
    rel,
    svd_rank,
    worst,
)


class LinMap:
    """A linear map A -> A given by its coordinate matrix."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: Algebra, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (algebra.dim, algebra.dim):
            raise ValueError(f"matrix shape {m.shape}, expected square of {algebra.dim}")
        self.algebra, self.matrix = algebra, m

    @classmethod
    def identity(cls, algebra: Algebra) -> "LinMap":
        return cls(algebra, np.eye(algebra.dim, dtype=complex))

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition, ``other`` first: the matrix ``self.matrix @ other.matrix``."""
        if other.algebra != self.algebra:
            raise DescriptorMismatch("composition over different algebras")
        return LinMap(self.algebra, self.matrix @ other.matrix)


def transpose_map(algebra: Algebra) -> LinMap:
    """Blockwise transpose: positive but not completely positive on 2x2 blocks."""
    # transpose permutes like the adjoint, minus conjugation
    return LinMap(algebra, np.eye(algebra.dim)[algebra.star_perm])


def map_residual(s: LinMap, t: LinMap) -> float:
    """Worst Hilbert-Schmidt residual of (s - t) over the canonical basis."""
    return worst(np.linalg.norm(s.matrix - t.matrix, axis=0))


def star_preservation_residual(t: LinMap) -> float:
    """How far t is from commuting with the adjoint, over the canonical basis:
    the columns of T·P - P·conj(T) for the adjoint's permutation P."""
    perm = t.algebra.star_perm
    return worst(np.linalg.norm(t.matrix[:, perm] - t.matrix.conj()[perm], axis=0))


# -- amplification -------------------------------------------------------------

def _cell_indices(algebra: Algebra, n: int) -> np.ndarray:
    """(n², dim): the amplified coordinates of each grid cell (row, col),
    row-major, ordered like the base coordinates: entry (i, j) of a block of
    size d in cell (row, col) is entry (row·d + i, col·d + j) of its n-fold block."""
    return np.concatenate([off + copy_index(*[np.arange(n * d).reshape(n, d)] * 2, n * d)
                           for off, d in zip(algebra.amplified(n).offsets, algebra.blocks)], axis=1)


def amplify(t: LinMap, n: int) -> LinMap:
    """The entrywise extension of t to n-by-n grids over the algebra."""
    big, cells = t.algebra.amplified(n), _cell_indices(t.algebra, n)
    m = np.zeros((big.dim, big.dim), dtype=complex)
    m[cells[:, :, None], cells[:, None, :]] = t.matrix
    return LinMap(big, m)


# -- positivity ----------------------------------------------------------------

def choi_matrix(t: LinMap) -> np.ndarray:
    """Choi matrix of the block-diagonal extension of t.

    The extension first compresses a full matrix to the block diagonal
    (a completely positive projection), so positivity of this matrix is
    equivalent to complete positivity of t on the algebra itself.
    """
    alg = t.algebra
    big = alg.matrix_size
    rows, cols = alg.unit_positions.T
    images = np.zeros((alg.dim, big, big), dtype=complex)
    images[:, rows, cols] = t.matrix.T          # [k]: t(e_k) block-diagonally
    choi = np.zeros((big, big, big, big), dtype=complex)   # [r, p, c, q]
    choi[rows, :, cols] = images                # block (r, c) of e_k holds t(e_k)
    return choi.reshape(big * big, big * big)


def _choi_pieces(t: LinMap) -> BlockForm:
    """The Choi matrix of the block-diagonal extension as a block form: for
    each pair (b, c) of blocks, the (d_b·d_c)-square piece [(r, p), (s, q)]
    = t(e_rs in b)[p, q in c], once, at the Choi rows and columns r·size + p
    (r, p the matrix rows).  The pieces are cut out one stack per pair of sizes."""
    alg, stacks = t.algebra, []
    for d_in, cols in alg.size_groups:
        for d_out, rows in alg.size_groups:
            s = t.matrix[rows[None, :, :, None], cols[:, None, None, :]]
            s = s.reshape(len(cols) * len(rows), d_out, d_out, d_in, d_in)
            at = copy_index(alg.unit_positions[cols[:, :d_in], 1],
                            alg.unit_positions[rows[:, :d_out], 1], alg.matrix_size)
            stacks.append((s.transpose(0, 3, 1, 4, 2).reshape(-1, d_in * d_out, d_in * d_out),
                           at[:, None]))
    return BlockForm(stacks)


def is_completely_positive(t: LinMap, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Decide complete positivity; returns (verdict, smallest Choi eigenvalue).
    The Choi matrix is taken piece by piece (see ``_choi_pieces``); the
    Frobenius norm of its anti-hermitian part is that of t(a*) - t(a)* over
    the matrix units a, the columns of T·P - P·conj(T) (P the adjoint's
    permutation)."""
    perm = t.algebra.star_perm
    herm_gap = float(np.linalg.norm(t.matrix[:, perm] - t.matrix.conj()[perm]))
    vals = np.concatenate([v.reshape(-1) for v in _choi_pieces(t).spectra("eigvalsh")])
    low = float(vals.min())
    scale = max(1.0, float(np.abs(vals).max()))
    ok = rel(herm_gap, scale) <= tol and low >= -tol * scale
    return ok, low


def _rank_one_positives(algebra: Algebra) -> np.ndarray:
    """Coordinates of a spanning family of rank-one positive elements, block
    by block: v·v* for v = e_p, then e_p + e_q and e_p + i·e_q for p < q."""
    rows = []
    for off, d in zip(algebra.offsets, algebra.blocks):
        eye = np.eye(d, dtype=complex)
        p, q = np.triu_indices(d, 1)
        vecs = np.concatenate([eye, np.stack([eye[p] + eye[q], eye[p] + 1j * eye[q]], 1)
                               .reshape(-1, d)])
        block = np.zeros((len(vecs), algebra.dim), dtype=complex)
        block[:, off:off + d * d] = (vecs[:, :, None] * vecs[:, None].conj()).reshape(len(vecs), -1)
        rows.append(block)
    return np.concatenate(rows)


def positivity_certificate(t: LinMap, trials: int, tol: float = DEFAULT_TOL,
                           rng: Draws | None = None) -> tuple[bool, float]:
    """Randomized falsifier for positivity of t.

    Applies t to a spanning family of rank-one positives and to random
    y*y elements.  A pass is evidence, not proof; the Choi certificate
    is the sound gate for complete positivity.
    """
    rng = rng or Draws(0)
    alg = t.algebra
    ys = alg.random_coords(rng, trials)
    xs = np.concatenate([_rank_one_positives(alg),
                         block_product(alg, block_adjoint(alg, ys), ys)])
    defect = worst(positivity_defects(alg, xs @ t.matrix.T))
    return defect <= tol, defect


def range_subspace(t: LinMap, tol: float = DEFAULT_TOL) -> Subspace:
    """Column space of the map, with singular values below tol * max dropped."""
    u, s, _ = np.linalg.svd(t.matrix)
    return Subspace(t.algebra, u[:, :svd_rank(s, tol, TINY)].T)


def complete_contractivity_residual(t: LinMap, samples: int, rng: Draws,
                                    amplification: int = 2) -> float:
    """Worst relative excess of ||t(x)|| over ||x|| at the base and amplified level."""
    excess = []
    for tt in (t, amplify(t, amplification)):
        xs = tt.algebra.random_coords(rng, samples)
        nx = block_norms(tt.algebra, xs)
        ntx = block_norms(tt.algebra, xs @ tt.matrix.T)
        excess.append(((ntx - nx) / nx)[nx > 0])
    return worst(*excess)
