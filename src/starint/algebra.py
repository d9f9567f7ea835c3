"""Arithmetic for finite-dimensional C*-algebras.

Algebras are presented as direct sums of full complex matrix blocks
("multimatrix" algebras).  The canonical linear basis is the family of
matrix units, blocks in order, entries row-major; with that choice the
trace inner product tr(x*y) coincides with the standard inner product
on coordinate vectors, so subspace work reduces to plain linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Default relative tolerance for positivity, rank and residual decisions.
DEFAULT_TOL = 1e-9


class DescriptorMismatch(ValueError):
    """Operands live over different algebra presentations."""


class NumericalDegeneracy(RuntimeError):
    """An iterative construction failed to stabilise within its cap."""


def rel(value: float, scale: float) -> float:
    """Residual relative to max(1, scale)."""
    return float(value) / max(1.0, float(scale))


#: Floor of the reference scale for a cut relative to the largest singular value.
TINY = 1e-300


def svd_rank(s: np.ndarray, tol: float, floor: float) -> int:
    """The one singular-value rank cut: how many of the descending singular
    values ``s`` exceed ``tol`` times the reference scale max(s[0], floor).
    With ``floor=TINY`` the cut is relative to the largest value; rows that
    are orthonormal, or projections of orthonormal rows, are cut with
    ``floor=1`` at their unit scale, so that rounding noise is not kept."""
    top = float(s[0]) if s.size else 0.0
    return int(np.sum(s > tol * max(top, floor)))


def orthonormal_rows(rows: np.ndarray, tol: float = DEFAULT_TOL,
                     floor: float = TINY) -> np.ndarray:
    """Orthonormal basis (as rows) for the row span, by the ``svd_rank`` cut."""
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    if rows.shape[0] == 0 or not np.linalg.norm(rows):
        return np.zeros((0, rows.shape[1]), dtype=complex)
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:svd_rank(s, tol, floor)]


@dataclass(frozen=True)
class Algebra:
    """A multimatrix algebra, the direct sum of full matrix blocks.

    ``blocks`` lists the matrix sizes (d_1, ..., d_k); the linear
    dimension is sum(d_i**2).
    """

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        blocks = tuple(int(d) for d in blocks)
        if not blocks:
            raise ValueError("algebra needs at least one block")
        if any(d < 1 for d in blocks):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(d * d for d in self.blocks)

    @property
    def matrix_size(self) -> int:
        """Size of the block-diagonal embedding, sum of the block sizes."""
        return sum(self.blocks)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((d * d for d in self.blocks[:-1]), initial=0))

    def amplified(self, n: int) -> "Algebra":
        """The algebra of n-by-n grids over this one: every block grows n-fold."""
        if n < 1:
            raise ValueError("amplification order must be >= 1")
        return Algebra(tuple(n * d for d in self.blocks))

    # -- elements ----------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, [np.zeros((d, d), dtype=complex) for d in self.blocks])

    def unit(self) -> "Element":
        return Element(self, [np.eye(d, dtype=complex) for d in self.blocks])

    def from_coords(self, coords: np.ndarray) -> "Element":
        coords = np.asarray(coords, dtype=complex).reshape(-1)
        if coords.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got {coords.shape}")
        return Element(self, [coords[off:off + d * d].reshape(d, d).copy()
                              for off, d in zip(self.offsets, self.blocks)])

    def basis_element(self, k: int) -> "Element":
        vec = np.zeros(self.dim, dtype=complex)
        vec[k] = 1.0
        return self.from_coords(vec)

    @cached_property
    def basis(self) -> tuple["Element", ...]:
        return tuple(self.basis_element(k) for k in range(self.dim))

    def random_coords(self, rng: np.random.Generator, n: int,
                      scale: float = 1.0) -> np.ndarray:
        """(n, dim): the coordinates of n successive ``random_element`` draws,
        from one draw of the same normal stream (per element and block, the
        real parts, then the imaginary parts)."""
        raw = rng.standard_normal((n, 2 * self.dim))
        m = np.concatenate([raw[:, 2 * off:2 * (off + d * d)].reshape(n, 2, d * d)
                            for off, d in zip(self.offsets, self.blocks)], axis=2)
        return scale * (m[:, 0] + 1j * m[:, 1]) / np.sqrt(2.0)

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> "Element":
        return self.from_coords(self.random_coords(rng, 1, scale)[0])

    def random_hermitian(self, rng: np.random.Generator) -> "Element":
        x = self.random_element(rng)
        return 0.5 * (x + x.star())

    def random_psd(self, rng: np.random.Generator) -> "Element":
        x = self.random_element(rng)
        return x.star() * x

    # -- cached structure ---------------------------------------------------

    @cached_property
    def unit_positions(self) -> np.ndarray:
        """Global (row, col) of each canonical matrix unit in the block-diagonal picture."""
        bases = np.repeat(np.cumsum((0,) + self.blocks[:-1]), np.square(self.blocks))
        local = np.concatenate([np.divmod(np.arange(d * d), d) for d in self.blocks], axis=1)
        return (bases + local).T

    @cached_property
    def size_groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """For each distinct block size d, the (blocks of size d, d²) array of
        their coordinate positions, blocks in order."""
        out = []
        for d in sorted(set(self.blocks)):
            offs = [off for off, dd in zip(self.offsets, self.blocks) if dd == d]
            out.append((d, np.array(offs)[:, None] + np.arange(d * d)))
        return tuple(out)

    @cached_property
    def star_perm(self) -> np.ndarray:
        """Index map with coords(x*) == conj(coords(x))[star_perm]."""
        out = np.arange(self.dim)
        for off, d in zip(self.offsets, self.blocks):
            out[off:off + d * d] = off + np.arange(d * d).reshape(d, d).T.reshape(-1)
        return out

    @cached_property
    def star_signature(self) -> np.ndarray:
        """Permutation ``P`` with coords(x*) == P @ conj(coords(x))."""
        perm = np.zeros((self.dim, self.dim))
        perm[np.arange(self.dim), self.star_perm] = 1.0
        return perm

    @cached_property
    def left_mult_tensor(self) -> np.ndarray:
        """``L[i]`` is the coordinate matrix of x -> basis_i * x."""
        eye = np.eye(self.dim, dtype=complex)
        return np.ascontiguousarray(block_product(self, eye[:, None], eye).swapaxes(1, 2))

    @cached_property
    def right_mult_tensor(self) -> np.ndarray:
        """``R[i]`` is the coordinate matrix of x -> x * basis_i."""
        eye = np.eye(self.dim, dtype=complex)
        return np.ascontiguousarray(block_product(self, eye, eye[:, None]).swapaxes(1, 2))

    def __repr__(self) -> str:
        return f"Algebra{self.blocks}"


class Element:
    """An element of a multimatrix algebra: one square matrix per block."""

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra: Algebra, mats: Sequence[np.ndarray]):
        if len(mats) != len(algebra.blocks):
            raise ValueError("wrong number of blocks")
        clean = []
        for m, d in zip(mats, algebra.blocks):
            m = np.asarray(m, dtype=complex)
            if m.shape != (d, d):
                raise ValueError(f"block of shape {m.shape}, expected ({d}, {d})")
            clean.append(m)
        self.algebra = algebra
        self.mats = tuple(clean)

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise DescriptorMismatch(f"{self.algebra} vs {other.algebra}")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, [a - b for a, b in zip(self.mats, other.mats)])

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-a for a in self.mats])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra, [a @ b for a, b in zip(self.mats, other.mats)])
        return Element(self.algebra, [complex(other) * a for a in self.mats])

    def __rmul__(self, scalar) -> "Element":
        return Element(self.algebra, [complex(scalar) * a for a in self.mats])

    def star(self) -> "Element":
        """The adjoint: conjugate transpose in every block."""
        return Element(self.algebra, [a.conj().T for a in self.mats])

    # -- metrics -------------------------------------------------------------

    def coords(self) -> np.ndarray:
        return np.concatenate([a.reshape(-1) for a in self.mats])

    def norm(self) -> float:
        """C*-norm: the largest singular value over the blocks."""
        return max(float(np.linalg.norm(a, 2)) if a.size else 0.0 for a in self.mats)

    def hs_norm(self) -> float:
        """Hilbert-Schmidt (Frobenius) norm, equal to the coordinate 2-norm."""
        return float(np.sqrt(sum(float(np.linalg.norm(a)) ** 2 for a in self.mats)))

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.mats))

    def tau(self) -> complex:
        """Normalized trace state of the block-diagonal embedding."""
        return self.trace() / self.algebra.matrix_size

    def block_diag(self) -> np.ndarray:
        """The block-diagonal matrix of size ``matrix_size``."""
        n = self.algebra.matrix_size
        out = np.zeros((n, n), dtype=complex)
        base = 0
        for a, d in zip(self.mats, self.algebra.blocks):
            out[base:base + d, base:base + d] = a
            base += d
        return out

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        gap = max(float(np.linalg.norm(a - a.conj().T)) for a in self.mats)
        return rel(gap, self.hs_norm()) <= tol

    def __repr__(self) -> str:
        return f"Element({self.algebra}, {[a.round(6).tolist() for a in self.mats]})"


# -- coordinate stacks --------------------------------------------------------
# Elements given as (..., dim) coordinate arrays: each block size is one
# batched operation over every block of that size and every leading index.

#: Entry count of one chunk of a temporary that pairs every row of one stack
#: with a whole other stack: the rows are taken a few at a time so that peak
#: memory does not grow with their number.
CHUNK_ENTRIES = 1 << 15


def row_chunks(rows: int, row_entries: int) -> Iterator[slice]:
    """Slices covering range(rows) in order, each of as many rows as fit in
    ``CHUNK_ENTRIES`` entries at ``row_entries`` entries a row, and at least
    one: the one chunk rule for every temporary formed a few rows at a time."""
    step = max(1, CHUNK_ENTRIES // max(1, row_entries))
    return (slice(i, i + step) for i in range(0, rows, step))


def _blocks_of(xs: np.ndarray, d: int, idx: np.ndarray) -> np.ndarray:
    return xs[..., idx].reshape(*xs.shape[:-1], len(idx), d, d)


def block_product(algebra: Algebra, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Coordinates of x·y for (..., dim) stacks whose leading axes broadcast."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    lead = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
    out = np.empty((*lead, algebra.dim), dtype=complex)
    for d, idx in algebra.size_groups:
        prod = _blocks_of(xs, d, idx) @ _blocks_of(ys, d, idx)
        out[..., idx.reshape(-1)] = prod.reshape(*lead, idx.size)
    return out


def block_adjoint(algebra: Algebra, xs: np.ndarray) -> np.ndarray:
    """Coordinates of x* for a (..., dim) stack."""
    return np.conj(xs)[..., algebra.star_perm]


def block_norms(algebra: Algebra, xs: np.ndarray) -> np.ndarray:
    """C*-norm of each element of a (..., dim) stack; NaN where an entry is
    not finite."""
    out = np.zeros(np.shape(xs)[:-1])
    for d, idx in algebra.size_groups:
        top = singular_values(_blocks_of(xs, d, idx)).max(axis=(-2, -1))
        out = np.maximum(out, top)
    return out


def representation_defects(algebra: Algebra, reps: np.ndarray) -> tuple[float, float]:
    """How far a (dim, n, n) stack, one matrix per basis element, is from a
    *-homomorphism: the largest ||rep(a_i a_k) - rep(a_i)·rep(a_k)|| and the
    largest ||rep(a_i*) - rep(a_i)*||, in Frobenius norm; NaN comes through.
    The products are formed a few rows i at a time."""
    dim, n = reps.shape[:2]
    pairs = algebra.left_mult_tensor.swapaxes(1, 2)   # [i, k] = coords(a_i a_k)
    mult = [worst_norm(np.tensordot(pairs[rows], reps, axes=1) - reps[rows, None] @ reps,
                       axis=(-2, -1))
            for rows in row_chunks(dim, dim * n * n)]
    star = worst_norm(reps[algebra.star_perm] - reps.conj().swapaxes(-1, -2),
                      axis=(-2, -1))
    return worst(mult), star


def positivity_defects(algebra: Algebra, xs: np.ndarray) -> np.ndarray:
    """``positivity_defect`` of each element of a (..., dim) stack: the
    largest Hermitian gap or negative eigenvalue over the blocks, relative
    to max(1, C*-norm); NaN where an entry is not finite."""
    gap = low = np.zeros(np.shape(xs)[:-1])
    for d, idx in algebra.size_groups:
        b = _blocks_of(xs, d, idx)
        gap = np.maximum(gap, np.linalg.norm(b - b.conj().swapaxes(-1, -2),
                                             axis=(-2, -1)).max(axis=-1))
        low = np.maximum(low, -eigvals_hermitian(b).min(axis=(-2, -1)))
    return np.maximum(gap, low) / np.maximum(1.0, block_norms(algebra, xs))


# -- matrix stacks -------------------------------------------------------------
# Spectral helpers over (..., m, m) stacks.  LAPACK is never called on a
# matrix with a non-finite entry (it may raise, or read one triangle only and
# miss the entry); such a matrix gets NaN values, which every check fails.

def hermitian_part(mats: np.ndarray) -> np.ndarray:
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def _finite_only(fn, mats: np.ndarray) -> np.ndarray:
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if finite.all():
        return fn(mats)
    out = fn(np.where(finite[..., None, None], mats, 0))
    out[~finite] = np.nan
    return out


def eigvals_hermitian(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the hermitian part of each matrix."""
    return _finite_only(np.linalg.eigvalsh, hermitian_part(mats))


def singular_values(mats: np.ndarray) -> np.ndarray:
    """Singular values of each square matrix."""
    return _finite_only(lambda m: np.linalg.svd(m, compute_uv=False), mats)


def psd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Positive square root of the hermitian part of each matrix, negative
    eigenvalues clamped to zero."""
    def root(h: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(h)
        scaled = vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
        return scaled @ vecs.conj().swapaxes(-1, -2)
    return _finite_only(root, hermitian_part(mats))


def psd_top(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the hermitian part, floored at 0, of each
    matrix in a (..., m, m) stack."""
    if mats.shape[-1] == 0:
        return np.zeros(mats.shape[:-2])
    return np.maximum(eigvals_hermitian(mats).max(axis=-1), 0.0)


def psd_defect(mats: np.ndarray) -> np.ndarray:
    """Distance from positivity of each matrix in a (..., m, m) stack: the
    larger of its anti-hermitian part and its most negative eigenvalue,
    relative to max(1, spectral radius)."""
    if mats.shape[-1] == 0:
        return np.zeros(mats.shape[:-2])
    gap = np.linalg.norm(mats - hermitian_part(mats), axis=(-2, -1))
    eigs = eigvals_hermitian(mats)
    scale = np.maximum(1.0, abs(eigs).max(axis=-1))
    return np.maximum(gap, -eigs.min(axis=-1)) / scale


def worst(*values: np.ndarray) -> float:
    """Largest value over the arrays, 0 for none; a NaN anywhere comes through."""
    return float(np.max([np.max(v, initial=0.0) for v in values], initial=0.0))


def worst_norm(diff: np.ndarray, axis: int | tuple[int, int] = -1) -> float:
    """Largest 2-norm (Frobenius over two axes) of the slices along ``axis``;
    a NaN anywhere comes through."""
    return worst(np.linalg.norm(diff, axis=axis))


def worst_key(values: dict[str, float]) -> str:
    """Key of the largest value, a NaN counting as the largest: a gate that
    refuses when ``values[worst_key(values)]`` is not <= its limit refuses
    any NaN."""
    return max(values, key=lambda k: np.inf if np.isnan(values[k]) else values[k])


# -- order structure ---------------------------------------------------------

def is_positive(x: Element, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and spectrum above ``-tol * norm`` in every block."""
    if not x.is_hermitian(tol):
        return False
    floor = -tol * max(1.0, x.norm())
    for a in x.mats:
        h = 0.5 * (a + a.conj().T)
        if a.size and float(np.linalg.eigvalsh(h).min()) < floor:
            return False
    return True


def positivity_defect(x: Element) -> float:
    """Largest Hermitian gap or negative-eigenvalue magnitude, relative."""
    return float(positivity_defects(x.algebra, x.coords()))


def sqrt_psd(x: Element, tol: float = DEFAULT_TOL) -> Element:
    """Positive square root, block by block (``psd_sqrt``); input whose
    ``positivity_defect`` exceeds ``tol`` raises ValueError."""
    defect = positivity_defect(x)
    if not defect <= tol:
        raise ValueError(f"sqrt_psd: positivity defect {defect:.3e} above tol")
    return Element(x.algebra, [psd_sqrt(a) for a in x.mats])


# -- subspaces ----------------------------------------------------------------

class Subspace:
    """A linear subspace, stored as orthonormal coordinate rows."""

    __slots__ = ("algebra", "basis")

    def __init__(self, algebra: Algebra, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[1] != algebra.dim:
            raise ValueError("basis must be rows of coordinate vectors")
        self.algebra = algebra
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_spanning(cls, algebra: Algebra, rows: np.ndarray,
                      tol: float = DEFAULT_TOL) -> "Subspace":
        rows = np.asarray(rows, dtype=complex).reshape(-1, algebra.dim)
        return cls(algebra, orthonormal_rows(rows, tol))

    def elements(self) -> list[Element]:
        return [self.algebra.from_coords(row) for row in self.basis]

    def project_coords(self, vec: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros_like(np.asarray(vec, dtype=complex))
        coeff = self.basis.conj() @ vec
        return self.basis.T @ coeff

    def contains(self, x: Element, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
        vec = x.coords()
        resid = rel(np.linalg.norm(vec - self.project_coords(vec)), x.hs_norm())
        return resid <= tol, float(resid)


def generated_subalgebra(gens: Sequence[Element],
                         tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest *-subalgebra span containing the generators.

    Closes the linear span under adjoints and products until the
    dimension stabilises; the iteration cap signals numerical degeneracy.
    """
    if not gens:
        raise ValueError("need at least one generator")
    algebra = gens[0].algebra
    if any(g.algebra != algebra for g in gens):
        raise DescriptorMismatch("generators over different algebras")
    rows = np.array([g.coords() for g in gens])
    space = Subspace.from_spanning(algebra, np.concatenate([rows, block_adjoint(algebra, rows)]),
                                   tol)
    for _ in range(algebra.dim + 2):
        b = space.basis
        rows = [b, block_product(algebra, b[:, None], b).reshape(-1, algebra.dim),
                block_adjoint(algebra, b)]
        bigger = Subspace.from_spanning(algebra, np.concatenate(rows), tol)
        if bigger.dim == space.dim:
            return bigger
        space = bigger
    raise NumericalDegeneracy("generated_subalgebra: iteration cap exceeded")
