"""Linear maps on a multimatrix algebra and their positivity certificates.

A map is stored as its matrix on canonical coordinates.  Complete
positivity is decided through the Choi matrix of the block-diagonal
extension (compress to the block diagonal, then apply the map), which
is positive semidefinite exactly when the map is completely positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    TINY,
    Algebra,
    DescriptorMismatch,
    Element,
    Subspace,
    block_adjoint,
    block_norms,
    block_product,
    eigvals_hermitian,
    positivity_defects,
    rel,
    svd_rank,
    worst,
)


@dataclass(frozen=True)
class LinMap:
    """A linear map A -> A given by its coordinate matrix."""

    algebra: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.algebra.dim, self.algebra.dim):
            raise ValueError(f"matrix shape {m.shape}, expected square of {self.algebra.dim}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, algebra: Algebra) -> "LinMap":
        return cls(algebra, np.eye(algebra.dim, dtype=complex))

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise DescriptorMismatch(f"{x.algebra} vs {self.algebra}")
        return self.algebra.from_coords(self.matrix @ x.coords())

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition: (self @ other)(x) == self(other(x))."""
        if other.algebra != self.algebra:
            raise DescriptorMismatch("composition over different algebras")
        return LinMap(self.algebra, self.matrix @ other.matrix)

    def __add__(self, other: "LinMap") -> "LinMap":
        if other.algebra != self.algebra:
            raise DescriptorMismatch("sum over different algebras")
        return LinMap(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "LinMap") -> "LinMap":
        if other.algebra != self.algebra:
            raise DescriptorMismatch("difference over different algebras")
        return LinMap(self.algebra, self.matrix - other.matrix)

    def __rmul__(self, scalar) -> "LinMap":
        return LinMap(self.algebra, complex(scalar) * self.matrix)


def compose(s: LinMap, t: LinMap) -> LinMap:
    return s @ t


def transpose_map(algebra: Algebra) -> LinMap:
    """Blockwise transpose: positive but not completely positive on 2x2 blocks."""
    m = algebra.star_signature.astype(complex)  # transpose permutes like the adjoint, minus conjugation
    return LinMap(algebra, m)


def map_residual(s: LinMap, t: LinMap) -> float:
    """Worst Hilbert-Schmidt residual of (s - t) over the canonical basis."""
    return worst(np.linalg.norm(s.matrix - t.matrix, axis=0))


def star_preservation_residual(t: LinMap) -> float:
    """How far t is from commuting with the adjoint, over the canonical basis:
    the columns of T·P - P·conj(T) for the adjoint's permutation P."""
    perm = t.algebra.star_perm
    return worst(np.linalg.norm(t.matrix[:, perm] - t.matrix.conj()[perm], axis=0))


# -- amplification -------------------------------------------------------------

def _cell_indices(algebra: Algebra, n: int, row: int, col: int) -> np.ndarray:
    """Amplified coordinates of grid cell (row, col), ordered like the base coordinates."""
    out = np.empty(algebra.dim, dtype=int)
    pos, big_off = 0, 0
    for d in algebra.blocks:
        nd = n * d
        for r in range(d):
            for s in range(d):
                out[pos] = big_off + (row * d + r) * nd + (col * d + s)
                pos += 1
        big_off += nd * nd
    return out


def amplify(t: LinMap, n: int) -> LinMap:
    """The entrywise extension of t to n-by-n grids over the algebra."""
    big = t.algebra.amplified(n)
    m = np.zeros((big.dim, big.dim), dtype=complex)
    for row in range(n):
        for col in range(n):
            idx = _cell_indices(t.algebra, n, row, col)
            m[np.ix_(idx, idx)] = t.matrix
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
    choi = np.zeros((big * big, big * big), dtype=complex)
    for k in range(alg.dim):
        r, c = alg.unit_positions[k]
        out = t(alg.basis[k]).block_diag()
        choi[r * big:(r + 1) * big, c * big:(c + 1) * big] = out
    return choi


def _choi_pieces(t: LinMap):
    """The Choi matrix of the block-diagonal extension is, up to a permutation
    of its rows and columns, the direct sum over pairs (b, c) of blocks of
    the (d_b·d_c)-square pieces [(r, p), (s, q)] = t(e_rs in b)[p, q in c].
    Yields one stack of pieces per pair of block sizes."""
    for d_in, cols in t.algebra.size_groups:
        for d_out, rows in t.algebra.size_groups:
            s = t.matrix[rows[:, None, :, None], cols[None, :, None, :]]
            s = s.reshape(len(rows) * len(cols), d_out, d_out, d_in, d_in)
            yield s.transpose(0, 3, 1, 4, 2).reshape(-1, d_in * d_out, d_in * d_out)


def is_completely_positive(t: LinMap, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Decide complete positivity; returns (verdict, smallest Choi eigenvalue).
    The Choi matrix is taken piece by piece (see ``_choi_pieces``)."""
    gaps, vals = [], []
    for piece in _choi_pieces(t):
        gaps.append(np.linalg.norm(piece - piece.conj().swapaxes(-1, -2), axis=(-2, -1)))
        vals.append(eigvals_hermitian(piece).reshape(-1))
    herm_gap = float(np.sqrt(np.sum(np.concatenate(gaps) ** 2)))
    vals = np.concatenate(vals)
    low = float(vals.min())
    scale = max(1.0, float(np.abs(vals).max()))
    ok = rel(herm_gap, scale) <= tol and low >= -tol * scale
    return ok, low


def _rank_one_positives(algebra: Algebra) -> np.ndarray:
    """Coordinates of a spanning family of rank-one positive elements, block
    by block."""
    rows = []
    for off, d in zip(algebra.offsets, algebra.blocks):
        eye = np.eye(d, dtype=complex)
        vecs = [eye[:, p] for p in range(d)]
        for p in range(d):
            for q in range(p + 1, d):
                vecs.append(eye[:, p] + eye[:, q])
                vecs.append(eye[:, p] + 1j * eye[:, q])
        for v in vecs:
            row = np.zeros(algebra.dim, dtype=complex)
            row[off:off + d * d] = np.outer(v, v.conj()).reshape(-1)
            rows.append(row)
    return np.array(rows)


def positivity_certificate(t: LinMap, trials: int, tol: float = DEFAULT_TOL,
                           rng: np.random.Generator | None = None) -> tuple[bool, float]:
    """Randomized falsifier for positivity of t.

    Applies t to a spanning family of rank-one positives and to random
    y*y elements.  A pass is evidence, not proof; the Choi certificate
    is the sound gate for complete positivity.
    """
    rng = rng or np.random.default_rng(0)
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


def complete_contractivity_residual(t: LinMap, samples: int, rng: np.random.Generator,
                                    amplification: int = 2) -> float:
    """Worst relative excess of ||t(x)|| over ||x|| at the base and amplified level."""
    excess = []
    for tt in (t, amplify(t, amplification)):
        xs = tt.algebra.random_coords(rng, samples)
        nx = block_norms(tt.algebra, xs)
        ntx = block_norms(tt.algebra, xs @ tt.matrix.T)
        excess.append(((ntx - nx) / nx)[nx > 0])
    return worst(*excess)
