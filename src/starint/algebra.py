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
from typing import Iterable, Sequence

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


def orthonormal_rows(rows: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) for the row span, by singular value cut."""
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    if rows.shape[0] == 0 or not np.linalg.norm(rows):
        return np.zeros((0, rows.shape[1]), dtype=complex)
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    keep = int(np.sum(s > tol * max(s[0], 1e-300)))
    return vh[:keep]


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
        out, pos = [], 0
        for d in self.blocks:
            out.append(pos)
            pos += d * d
        return tuple(out)

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
        mats = []
        for off, d in zip(self.offsets, self.blocks):
            mats.append(coords[off:off + d * d].reshape(d, d).copy())
        return Element(self, mats)

    def basis_element(self, k: int) -> "Element":
        vec = np.zeros(self.dim, dtype=complex)
        vec[k] = 1.0
        return self.from_coords(vec)

    @cached_property
    def basis(self) -> tuple["Element", ...]:
        return tuple(self.basis_element(k) for k in range(self.dim))

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> "Element":
        mats = []
        for d in self.blocks:
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(scale * m / np.sqrt(2.0))
        return Element(self, mats)

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
        out = np.empty((self.dim, 2), dtype=int)
        pos, base = 0, 0
        for d in self.blocks:
            for p in range(d):
                for q in range(d):
                    out[pos] = (base + p, base + q)
                    pos += 1
            base += d
        return out

    @cached_property
    def star_signature(self) -> np.ndarray:
        """Permutation ``P`` with coords(x*) == P @ conj(coords(x))."""
        perm = np.zeros((self.dim, self.dim))
        for off, d in zip(self.offsets, self.blocks):
            for p in range(d):
                for q in range(d):
                    perm[off + q * d + p, off + p * d + q] = 1.0
        return perm

    @cached_property
    def left_mult_tensor(self) -> np.ndarray:
        """``L[i]`` is the coordinate matrix of x -> basis_i * x."""
        out = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
        for i, bi in enumerate(self.basis):
            for k, bk in enumerate(self.basis):
                out[i, :, k] = (bi * bk).coords()
        return out

    @cached_property
    def right_mult_tensor(self) -> np.ndarray:
        """``R[i]`` is the coordinate matrix of x -> x * basis_i."""
        out = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
        for i, bi in enumerate(self.basis):
            for k, bk in enumerate(self.basis):
                out[i, :, k] = (bk * bi).coords()
        return out

    def left_mult_matrix(self, x: "Element") -> np.ndarray:
        return np.tensordot(x.coords(), self.left_mult_tensor, axes=1)

    def right_mult_matrix(self, x: "Element") -> np.ndarray:
        return np.tensordot(x.coords(), self.right_mult_tensor, axes=1)

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
    herm = max(float(np.linalg.norm(a - a.conj().T)) for a in x.mats)
    worst = 0.0
    for a in x.mats:
        if a.size:
            low = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min())
            worst = max(worst, -low)
    return rel(max(herm, worst), x.norm())


def sqrt_psd(x: Element, tol: float = DEFAULT_TOL) -> Element:
    """Positive square root by blockwise eigendecomposition.

    Negative eigenvalues within ``tol * norm`` are clamped to zero;
    anything below that raises ValueError.
    """
    scale = max(1.0, x.norm())
    if not x.is_hermitian(tol):
        raise ValueError("sqrt_psd: input is not Hermitian within tolerance")
    roots = []
    for a in x.mats:
        h = 0.5 * (a + a.conj().T)
        vals, vecs = np.linalg.eigh(h)
        if vals.size and vals.min() < -tol * scale:
            raise ValueError(f"sqrt_psd: eigenvalue {vals.min():.3e} below -tol*norm")
        vals = np.clip(vals, 0.0, None)
        roots.append((vecs * np.sqrt(vals)) @ vecs.conj().T)
    return Element(x.algebra, roots)


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
    rows = []
    for g in gens:
        if g.algebra != algebra:
            raise DescriptorMismatch("generators over different algebras")
        rows.append(g.coords())
        rows.append(g.star().coords())
    space = Subspace.from_spanning(algebra, np.array(rows), tol)
    for _ in range(algebra.dim + 2):
        elems = space.elements()
        rows = [e.coords() for e in elems]
        for a in elems:
            for b in elems:
                rows.append((a * b).coords())
                rows.append(a.star().coords())
        bigger = Subspace.from_spanning(algebra, np.array(rows), tol)
        if bigger.dim == space.dim:
            return bigger
        space = bigger
    raise NumericalDegeneracy("generated_subalgebra: iteration cap exceeded")
