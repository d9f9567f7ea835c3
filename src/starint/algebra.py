"""Arithmetic for finite-dimensional C*-algebras.

Algebras are presented as direct sums of full complex matrix blocks
("multimatrix" algebras).  The canonical linear basis is the family of
matrix units, blocks in order, entries row-major; with that choice the
trace inner product tr(x*y) coincides with the standard inner product
on coordinate vectors, so subspace work reduces to plain linear algebra.
An element is its coordinate vector, and a (..., dim) array is a stack of
elements: the products, adjoints and norms below act on whole stacks.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

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

#: Eigenvalues on either side of a quotient cut must differ by this factor.
GAP_FACTOR = 1e3


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


# -- samples -------------------------------------------------------------------
# The sampled checks draw from splitmix64 (Steele, Lea and Flood, "Fast
# splittable pseudorandom number generators", OOPSLA 2014), which numpy alone
# computes: importing numpy.random would load hashlib and OpenSSL as well.

_MASK, _GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15

#: Slots whose normals are made at once, as most draws take a few.
_BLOCK = 1 << 10


def _splitmix(z):
    """The splitmix64 finaliser, on a Python int or a uint64 array (which wraps)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class Draws:
    """A seeded stream of samples, in slots: slot j holds the words 2j+1 and
    2j+2 of splitmix64, word i being the finaliser of state + i·γ.

    ``key`` is a nonnegative int of any size, or a list of them such as
    ``[seed, lane]``; each int's 64-bit words, then its word count, are
    folded into the 64-bit state.  Each call takes the next slots, so a key
    gives the same samples however they are split over calls.  The methods
    are the two of numpy's ``Generator`` that the checks call.
    """

    def __init__(self, key: int | list[int]):
        state = 0
        for k in key if isinstance(key, (list, tuple)) else [key]:
            if k < 0:
                raise ValueError(f"a sample key must be nonnegative, not {k}")
            words = [k >> s & _MASK for s in range(0, max(k.bit_length(), 1), 64)]
            for w in (*words, len(words)):
                state = _splitmix((state ^ w) + _GAMMA & _MASK)
        self.state, self.slot = state, 0
        self.base, self.normals = 0, np.zeros(0)     # the normals of slots base, base + 1, ...

    def _block(self, k: int) -> np.ndarray:
        """The normals of the k-th ``_BLOCK`` slots: Box–Muller, √(−2 log(1−u))·cos 2πv,
        on the 53-bit uniforms u, v in [0, 1) of each slot's words (1 − u > 0).
        Every normal is made at the same place of a block, so its bits do not
        depend on how the draws were split."""
        steps = np.arange(2 * k * _BLOCK + 1, 2 * (k + 1) * _BLOCK + 1, dtype=np.uint64)
        u, v = ((_splitmix(self.state + steps * _GAMMA) >> 11) * 2.0 ** -53).reshape(-1, 2).T
        return np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2 * np.pi * v)

    def standard_normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        first, end = self.slot, self.base + len(self.normals)   # end: a block boundary
        self.slot += math.prod(shape) if isinstance(shape, tuple) else int(shape)
        if self.slot > end:
            # the unread normals, then whole blocks up to the last slot, written
            # in place, so that a large draw takes no more memory than its result
            start, stop = max(end, first - first % _BLOCK), -(-self.slot // _BLOCK) * _BLOCK
            kept = self.normals[first - self.base:]
            self.base = start - len(kept)
            self.normals = np.empty(stop - self.base)
            self.normals[:len(kept)] = kept
            for at in range(start, stop, _BLOCK):
                self.normals[at - self.base:at - self.base + _BLOCK] = self._block(at // _BLOCK)
        return self.normals[first - self.base:self.slot - self.base].reshape(shape)

    def integers(self, low: int, high: int) -> int:
        """One int of [low, high), the next slot's first word scaled to the range."""
        word = _splitmix(self.state + (2 * self.slot + 1) * _GAMMA & _MASK)
        self.slot += 1
        return low + (word * (high - low) >> 64)


class Algebra:
    """A multimatrix algebra, the direct sum of full matrix blocks.

    ``blocks`` lists the matrix sizes (d_1, ..., d_k); the linear
    dimension is sum(d_i**2).  Two algebras are equal when their blocks are.
    """

    def __init__(self, blocks: Iterable[int]):
        blocks = tuple(int(d) for d in blocks)
        if not blocks:
            raise ValueError("algebra needs at least one block")
        if any(d < 1 for d in blocks):
            raise ValueError("block sizes must be positive")
        self.blocks = blocks

    def __eq__(self, other: object) -> bool:
        return self.blocks == other.blocks if isinstance(other, Algebra) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.blocks)

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

    def unit(self) -> np.ndarray:
        """Coordinates of the unit: the identity in every block."""
        return np.concatenate([np.eye(d, dtype=complex).reshape(-1) for d in self.blocks])

    def random_coords(self, rng: Draws, n: int) -> np.ndarray:
        """(n, dim): the coordinates of n random elements, from one draw of
        the normal stream (per element and block, the real parts, then the
        imaginary parts), each normal made by Box–Muller from two 53-bit
        uniforms of the stream's splitmix64 words."""
        raw = rng.standard_normal((n, 2 * self.dim))
        m = np.concatenate([raw[:, 2 * off:2 * (off + d * d)].reshape(n, 2, d * d)
                            for off, d in zip(self.offsets, self.blocks)], axis=2)
        return (m[:, 0] + 1j * m[:, 1]) / np.sqrt(2.0)

    # -- cached structure ---------------------------------------------------

    @cached_property
    def unit_positions(self) -> np.ndarray:
        """Global (row, col) of each canonical matrix unit in the block-diagonal picture."""
        bases = np.repeat(np.cumsum((0,) + self.blocks[:-1]), np.square(self.blocks))
        local = np.concatenate([np.divmod(np.arange(d * d), d) for d in self.blocks], axis=1)
        return (bases + local).T

    @cached_property
    def units(self) -> tuple[np.ndarray, ...]:
        """For each block, the (d, d) array of the coordinates of its matrix units."""
        return tuple(off + np.arange(d * d).reshape(d, d)
                     for off, d in zip(self.offsets, self.blocks))

    @cached_property
    def size_groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """For each distinct block size d, the (blocks of size d, d²) array of
        their coordinate positions, blocks in order: ``units`` by shape."""
        return tuple((len(self.units[f[0]]), np.reshape([self.units[i] for i in f], (len(f), -1)))
                     for f in shape_groups(self.units))

    @cached_property
    def star_perm(self) -> np.ndarray:
        """Index map with coords(x*) == conj(coords(x))[star_perm]."""
        return np.concatenate([off + np.arange(d * d).reshape(d, d).T.reshape(-1)
                               for off, d in zip(self.offsets, self.blocks)])

    @cached_property
    def unit_products(self) -> np.ndarray:
        """``[i, k]`` is the coordinate of a_i·a_k, or -1 where it is 0: with
        a_i = E_pq and a_k = E_rs in the block-diagonal picture, a_i·a_k =
        δ_qr·E_ps, whose coordinate is i - q + s."""
        rows, cols = self.unit_positions.T
        return np.where(cols[:, None] == rows,
                        (np.arange(self.dim) - cols)[:, None] + cols, -1)

    def __repr__(self) -> str:
        return f"Algebra{self.blocks}"


# -- coordinate stacks --------------------------------------------------------
# Each block size is one batched operation over every block of that size and
# every leading index.

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


def pair_products(algebra: Algebra, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(len(xs), len(ys), dim): the coordinates of x·y for every x of one
    (n, dim) stack and every y of another, by one GEMM per block size: on
    each block, the rows of every x against the columns of every y."""
    n, k = len(xs), len(ys)
    out = np.empty((n, k, algebra.dim), dtype=complex)
    for d, idx in algebra.size_groups:
        rows = _blocks_of(xs, d, idx).transpose(1, 0, 2, 3).reshape(len(idx), n * d, d)
        cols = _blocks_of(ys, d, idx).transpose(1, 2, 0, 3).reshape(len(idx), d, k * d)
        prod = (rows @ cols).reshape(len(idx), n, d, k, d)
        out[:, :, idx.reshape(-1, d, d)] = prod.transpose(1, 3, 0, 2, 4)
    return out


def unit_images(algebra: Algebra, images: np.ndarray, xs: np.ndarray,
                x_first: bool) -> np.ndarray:
    """(n, dim, k): t(x·e_j) if ``x_first``, else t(e_j·x), over every x of
    an (n, dim) stack and every matrix unit e_j, of a linear t given by its
    (dim, k) unit images t(e_j).  On a block, x·E_pq = Σ_a x_ap·E_aq and
    E_pq·x = Σ_c x_qc·E_pc, so this is one GEMM per block size against the
    images, not one application of t to each product."""
    n, k = len(xs), images.shape[1]
    out = np.empty((n, algebra.dim, k), dtype=complex)
    for d, idx in algebra.size_groups:
        units = images[idx].reshape(len(idx), d, d, k)          # [b, a, q] = t(E_aq)
        x = _blocks_of(xs, d, idx).swapaxes(0, 1)              # [b, i, a, p]
        if x_first:     # [b, (i, p), (q, ·)]: Σ_a x[b, i, a, p]·t(E_aq)
            got = x.swapaxes(-1, -2).reshape(len(idx), n * d, d) @ units.reshape(len(idx), d, -1)
            got = got.reshape(len(idx), n, d, d, k).swapaxes(0, 1)
        else:           # [b, (i, q), (p, ·)]: Σ_c x[b, i, q, c]·t(E_pc)
            got = x.reshape(len(idx), n * d, d) @ units.swapaxes(1, 2).reshape(len(idx), d, -1)
            got = got.reshape(len(idx), n, d, d, k).transpose(1, 0, 3, 2, 4)
        out[:, idx.reshape(-1, d, d)] = got
    return out


def unit_map(units: Iterable[np.ndarray], classes: Iterable[np.ndarray], n: int) -> np.ndarray:
    """(n, n): the coordinate of the matrix unit that E ⊗ I puts at each entry
    of an operator on n classes, -1 where there is none, for each block's (d, d)
    ``units`` and (d, ...) ``classes``: e_pq sends classes[q, v] to classes[p, v]."""
    out = np.full((n, n), -1)
    for u, c in zip(units, classes):
        out[c.reshape(len(c), 1, -1), c.reshape(1, len(c), -1)] = u[..., None]
    return out


def at_units(xs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``xs[..., at]``, 0 where ``at`` is -1: for a (..., dim) coordinate stack and
    an index map of ``unit_map``, the operators that E ⊗ I makes of the elements."""
    pad = np.zeros((*xs.shape[:-1], 1), dtype=xs.dtype)
    return np.concatenate([xs, pad], axis=-1)[..., at]


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


def positivity_defects(algebra: Algebra, xs: np.ndarray) -> np.ndarray:
    """Distance from positivity of each element of a (..., dim) stack: the
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


# -- sparse tables -------------------------------------------------------------
# The module's tables are exactly zero off a small pattern, so a table is held
# by its nonzeros and a law is an einsum over them.  Nothing is assumed of the
# pattern: a table that is dense (from a broken input) is read in full, a
# chunk at a time.

class Sparse(NamedTuple):
    """A table by its nonzero entries: ``at`` their ascending positions in the
    flat (row-major) table, ``values`` the entries there, and the ``shape``."""
    at: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    @classmethod
    def of(cls, table: np.ndarray) -> "Sparse":
        """The nonzeros of an array; a NaN is a nonzero."""
        flat = np.asarray(table).reshape(-1)
        at = np.flatnonzero(flat)
        return cls(at, flat[at], np.shape(table))

    def dense(self) -> np.ndarray:
        out = np.zeros(int(np.prod(self.shape)), dtype=self.values.dtype)
        out[self.at] = self.values
        return out.reshape(self.shape)

    def reshape(self, *shape: int) -> "Sparse":
        """The same entries in another shape, one of its lengths -1 at most (0
        where the other lengths hold no entry)."""
        rest = max(-int(np.prod(shape)), 1)
        return self._replace(shape=tuple(int(np.prod(self.shape)) // rest if d == -1 else d
                                         for d in shape))

    def transpose(self, *axes: int) -> "Sparse":
        shape, index = tuple(self.shape[a] for a in axes), np.unravel_index(self.at, self.shape)
        return _added([Sparse(np.ravel_multi_index([index[a] for a in axes], shape),
                              self.values, shape)])

    def __sub__(self, other: "Sparse") -> "Sparse":
        """The difference of two tables of one shape, over the union of their nonzeros."""
        return _added([self, other._replace(values=-other.values)])

    def rows(self, rows: slice) -> "Sparse":
        """``table[rows]`` for a slice of the first axis."""
        stop, stride = min(rows.stop, self.shape[0]), int(np.prod(self.shape[1:]))
        lo, hi = np.searchsorted(self.at, [rows.start * stride, stop * stride])
        return Sparse(self.at[lo:hi] - rows.start * stride, self.values[lo:hi],
                      (stop - rows.start, *self.shape[1:]))


def _added(tables: list[Sparse]) -> Sparse:
    """The entries of tables of one shape as one table, those at one position
    added in their order."""
    order = np.argsort(np.concatenate([t.at for t in tables]), kind="stable")
    at = np.concatenate([t.at for t in tables])[order]
    values = np.concatenate([t.values for t in tables])[order]
    first = np.flatnonzero(np.diff(at, prepend=-1))
    added = np.add.reduceat(values, first) if len(first) else values
    return Sparse(at[first], added, tables[0].shape)



def contract(spec: str, a: Sparse, b: Sparse) -> Sparse:
    """``np.einsum(spec, a, b)`` over the nonzeros of two tables, no letter
    repeated within one.  The letters both carry are the key: b's nonzeros
    are sorted by it, each of a's finds its run of b's by ``searchsorted``, and
    the matched pairs are formed a ``row_chunks`` chunk at a time, their
    products added by output position; the sums are merged whenever the
    pairs waiting outnumber them, so memory stays near the output's size."""
    (sa, sb), out = spec.split("->")[0].split(","), spec.split("->")[1]
    sizes = {**dict(zip(sa, a.shape)), **dict(zip(sb, b.shape))}
    ia, ib = np.unravel_index(a.at, a.shape), np.unravel_index(b.at, b.shape)
    shared = [c for c in sa if c in sb]
    ka, kb = (np.ravel_multi_index([index[s.index(c)] for c in shared],
                                   [sizes[c] for c in shared])
              for index, s in ((ia, sa), (ib, sb)))
    order = np.argsort(kb, kind="stable")
    lo, hi = np.searchsorted(kb[order], ka), np.searchsorted(kb[order], ka, "right")
    ends = np.cumsum(hi - lo)
    total, shape = int(ends[-1]) if len(ends) else 0, tuple(sizes[c] for c in out)
    done, waiting = [Sparse(np.zeros(0, int), np.zeros(0, complex), shape)], []
    for pairs in row_chunks(total, 8):     # formed and merged, a pair takes about 8 entries
        pair = np.arange(pairs.start, min(pairs.stop, total))
        i = np.searchsorted(ends, pair, "right")           # each pair's nonzero of a,
        j = order[hi[i] - (ends[i] - pair)]                 # and of b
        at = np.ravel_multi_index([ia[sa.index(c)][i] if c in sa else ib[sb.index(c)][j]
                                   for c in out], shape)
        waiting.append(Sparse(at, a.values[i] * b.values[j], shape))
        if sum(len(t.at) for t in waiting) > len(done[0].at):
            done, waiting = [_added(done + waiting)], []
    return _added(done + waiting)


def row_norms(table: Sparse) -> tuple[np.ndarray, np.ndarray]:
    """The flat index of each row of a table (its position over all axes but the
    last) that holds an entry, ascending, and the 2-norm of that row; a NaN
    comes through."""
    squares = (table.values.conj() * table.values).real
    rows = table.at // table.shape[-1]
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[first], np.sqrt(np.add.reduceat(squares, first)) if len(first) else squares


def law_defects(sides: Iterable[tuple[Sparse, Sparse]]) -> tuple[float, float]:
    """The largest 2-norm over the last axis, and the largest entry, of
    lhs - rhs over the (lhs, rhs) pairs of tables of one shape that a law
    yields, a chunk at a time, each read over the union of its two sides'
    nonzeros; 0 for none, and a NaN anywhere comes through."""
    norms, tops = [], []
    for lhs, rhs in sides:
        diff = lhs - rhs
        norms.append(row_norms(diff)[1])
        tops.append(abs(diff.values))
    return worst(*norms), worst(*tops)


def unit_table(algebra: Algebra) -> Sparse:
    """(dim, dim, dim): [i, k, j] is 1 where a_i·a_k = a_j, the products of matrix
    units (``unit_products``) as a table over its nonzeros."""
    i, k = np.nonzero(algebra.unit_products >= 0)
    return Sparse(np.ravel_multi_index((i, k, algebra.unit_products[i, k]), (algebra.dim,) * 3),
                  np.ones(len(i), complex), (algebra.dim,) * 3)


def representation_defects(algebra: Algebra, reps: np.ndarray) -> tuple[float, float]:
    """How far a (dim, n, n) stack, one matrix per basis element, is from a
    *-homomorphism: the largest ||rep(a_i a_k) - rep(a_i)·rep(a_k)|| and the
    largest ||rep(a_i*) - rep(a_i)*||, in Frobenius norm; NaN comes through.
    Each a_i a_k is a matrix unit or 0, so rep(a_i a_k) is the unit-product
    table [i, k, j] (a_i·a_k = a_j) contracted with ``reps``, and rep(a_i*) the
    star table [i, j] (a_i* = a_j) contracted with it; every side is read over
    the nonzeros (``contract``, ``law_defects``), a chunk of rows i at a time."""
    dim, n = reps.shape[:2]
    units = unit_table(algebra)
    stars = Sparse(np.arange(dim) * dim + algebra.star_perm, np.ones(dim, complex), (dim, dim))
    rep = Sparse.of(reps)
    adjoint = rep.transpose(0, 2, 1)
    mult = law_defects((contract("ikj,jab->ikab", units.rows(rows), rep).reshape(-1, n * n),
                        contract("iab,kbc->ikac", rep.rows(rows), rep).reshape(-1, n * n))
                       for rows in row_chunks(dim, len(rep.at)))[0]
    star = law_defects([(contract("ij,jab->iab", stars, rep).reshape(dim, n * n),
                         adjoint._replace(values=adjoint.values.conj()).reshape(dim, n * n))])[0]
    return mult, star


# -- block forms ---------------------------------------------------------------
# A matrix that is a direct sum of small pieces, each repeated on copies, as
# the Gram, spanning and Choi matrices are over the matrix units.

def shape_groups(mats: Iterable[np.ndarray]) -> list[list[int]]:
    """The positions of the matrices of each shape, shapes in order of first appearance."""
    shapes: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(mats):
        shapes.setdefault(g.shape, []).append(i)
    return list(shapes.values())


def copy_index(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """(..., a·c, b·d): the pairs rows[p, q]·n + cols[s, r] of two (..., a, b) and
    (..., c, d) stacks of index arrays that broadcast, one row per copy (p, s),
    columns (q, r)."""
    out = rows[..., :, None, :, None] * n + cols[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], rows.shape[-2] * cols.shape[-2], -1)


_SPECTRA = {"eigh": np.linalg.eigh, "eigvalsh": eigvals_hermitian,
            "svd": lambda mats: np.linalg.svd(mats, full_matrices=False)}


class BlockForm(tuple):
    """A matrix as stacks of pieces (gs, index): each small matrix gs[g] of a
    (G, r, c) stack repeated on the coordinates index[g, k] of each of its
    copies k (of its columns, where it is not square), for a (G, copies, c)
    index, the pieces covering every coordinate once."""

    @classmethod
    def components(cls, mat: Sparse) -> "BlockForm":
        """A (rows, columns) table by the connected components of its pattern,
        where each nonzero joins its row and its column: one piece a component,
        its entries on its rows and columns in order, on one copy, its columns;
        a stack per piece shape.  After a permutation of the rows and one of
        the columns the table is the direct sum of its pieces, so its singular
        values are the union of theirs."""
        rows, cols = np.unravel_index(mat.at, mat.shape)
        label, col_nodes = np.arange(sum(mat.shape)), cols + mat.shape[0]  # rows, then columns
        while True:                                 # each node to its component's least node
            low = label.copy()
            np.minimum.at(low, rows, label[col_nodes])
            np.minimum.at(low, col_nodes, label[rows])
            if np.array_equal(low[low], label):
                break
            label = low[low]
        order = np.argsort(label[rows], kind="stable")
        parts = []
        ends = np.flatnonzero(np.diff(label[rows][order])) + 1
        for part in np.split(order, ends) if len(order) else []:
            (r, i), (c, j) = (np.unique(z[part], return_inverse=True) for z in (rows, cols))
            piece = np.zeros((len(r), len(c)), dtype=mat.values.dtype)
            piece[i, j] = mat.values[part]
            parts.append((piece, c[None]))
        return cls(tuple(map(np.stack, zip(*(parts[i] for i in found))))
                   for found in shape_groups(g for g, _ in parts))

    def spectra(self, how: str) -> list:
        """Per stack, ``how`` of its matrices, stacked, by one batched call per
        piece shape: "eigh" (ascending eigenvalues, eigenvectors), "eigvalsh"
        (those of the hermitian part, NaN for a non-finite piece) or "svd" (thin)."""
        out: list = [None] * len(self)
        for found in shape_groups(gs[0] for gs, _ in self):
            got = _SPECTRA[how](np.concatenate([self[i][0] for i in found]))
            ends = np.cumsum([len(self[i][0]) for i in found])[:-1]
            parts = (np.split(got, ends) if how == "eigvalsh"
                     else zip(*(np.split(part, ends) for part in got)))
            for i, part in zip(found, parts):
                out[i] = part
        return out

    def cut(self, values: list[np.ndarray], tol: float) -> tuple[np.ndarray, int, list]:
        """The one rank cut over the stacks' (G, k) ``values``: their union,
        each counted once per copy, descending; its ``svd_rank`` at the
        TINY-floored reference scale; and per stack, the mask of the values
        it keeps."""
        union = np.sort(np.concatenate([np.zeros(0), *(
            np.repeat(v.reshape(-1), index.shape[1]) for v, (_, index) in zip(values, self))]))[::-1]
        k = svd_rank(union, tol, TINY)
        return union, k, [v >= (union[k - 1] if k else np.inf) for v in values]

    def place(self, keep: list[np.ndarray] | None = None, n: int | None = None) -> np.ndarray:
        """(rows, n): each column of each piece, or each that the per-stack
        (G, c) mask ``keep`` marks, placed at the coordinates of each of its
        copies, stack by stack, piece by piece, column by column, in rows of
        n coordinates (by default as many as the pieces cover)."""
        n = sum(index.size for _, index in self) if n is None else n
        out = []
        for s, (vecs, index) in enumerate(self):
            pieces, cols = np.nonzero(np.ones(vecs.shape[::2], bool) if keep is None else keep[s])
            copies = index.shape[1]
            rows = np.zeros((len(pieces), copies, n), dtype=vecs.dtype)
            rows[np.arange(len(pieces))[:, None, None], np.arange(copies)[:, None],
                 index[pieces]] = vecs[pieces, :, cols][:, None]
            out.append(rows.reshape(-1, n))
        return np.concatenate(out) if out else np.zeros((0, n), complex)


def quotient_gap(union: np.ndarray, k: int, tol: float, messages: tuple[str, str, str]) -> None:
    """Refuse the ``BlockForm.cut`` of a hermitian form's eigenvalues as the
    cut of a quotient by its kernel, with one of ``messages``: the form
    vanishes, is not positive, or has no spectral gap of ``GAP_FACTOR``."""
    vanishes, indefinite, no_gap = messages
    top = max(float(union[0]), 0.0)
    if top <= tol:
        raise NumericalDegeneracy(vanishes)
    if float(union[-1]) < -tol * top:
        raise NumericalDegeneracy(indefinite)
    if k < union.size and float(union[k]) > TINY and union[k - 1] / union[k] < GAP_FACTOR:
        raise NumericalDegeneracy(no_gap)


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


def generated_subalgebra(algebra: Algebra, rows: np.ndarray,
                         tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest *-subalgebra span containing the generators, given as
    (n, dim) coordinate rows.

    Closes the linear span under adjoints and products until the
    dimension stabilises; the iteration cap signals numerical degeneracy.
    """
    rows = np.asarray(rows, dtype=complex).reshape(-1, algebra.dim)
    if not len(rows):
        raise ValueError("need at least one generator")
    space = Subspace.from_spanning(algebra, np.concatenate([rows, block_adjoint(algebra, rows)]),
                                   tol)
    for _ in range(algebra.dim + 2):
        b = space.basis
        rows = [b, pair_products(algebra, b, b).reshape(-1, algebra.dim),
                block_adjoint(algebra, b)]
        bigger = Subspace.from_spanning(algebra, np.concatenate(rows), tol)
        if bigger.dim == space.dim:
            return bigger
        space = bigger
    raise NumericalDegeneracy("generated_subalgebra: iteration cap exceeded")
