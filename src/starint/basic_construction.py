"""Reduced representation of an algebra on the GNS space of an expectation.

Given a conditional expectation E onto a subalgebra B, the algebra acts by
left multiplication on the completion of A under <x, y> = tr_B(E(x* y)),
where tr_B is the normalized trace.  Null directions are quotiented out by
an eigenvalue cut, giving finite matrices: a representation ``lam``, the
projection ``e`` implementing E, and the linear span of lam(a) e lam(b).

On matrix units, (e_pq)*·e_p'q' = δ_pp'·e_qq' in one block, so the Gram
matrix is the block form ⊕_b I ⊗ g_b (``algebra.BlockForm``), and in the
class coordinates (block b, copy p, kept vector) lam(e_pq) = E_pq ⊗ I.  Hence
lam(e_pq) e lam(e_rs) = E_ps ⊗ e_bc[q, r], e_bc[q, r] the slab of e between
copy q of block b and copy r of block c: the spanning matrix is the block
form of one piece of rows vec e_bc[q, r] per block pair, repeated on the
copies (p, s).  Both are cut as forms; the kept right singular vectors of
the pieces are the orthonormal span, and their pseudo-inverses present an
operator as pairs, sending the part orthogonal to the span to 0.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    BlockForm,
    NumericalDegeneracy,
    Subspace,
    block_norms,
    copy_index,
    hermitian_part,
    quotient_gap,
    representation_defects,
    shape_groups,
    worst,
    worst_norm,
)
from .linmaps import LinMap


class Quotient(NamedTuple):
    kept: np.ndarray     # eigenvalues above the cut, ascending, once per copy
    q: np.ndarray        # (k, n): coordinates -> class coordinates
    lift: np.ndarray     # (n, k): class coordinates -> canonical representative
    null: BlockForm      # the discarded eigenvectors of each piece as columns, a stack each
    classes: tuple[np.ndarray, ...]   # per piece, (copies, kept columns): the class of each


def eigen_quotient(form: BlockForm, tol: float, messages: tuple[str, str, str]) -> Quotient:
    """Quotient of a hermitian positive form by its kernel: one cut of the
    form's eigenvalues (``BlockForm.cut``), refused by ``quotient_gap`` with
    one of ``messages``.  Kept classes are in ascending eigenvalue order,
    ties in stack, piece, column and copy order."""
    eigs = form.spectra("eigh")
    union, k, keep = form.cut([vals for vals, _ in eigs], tol)
    quotient_gap(union, k, tol, messages)
    copies = [index.shape[1] for _, index in form]
    order = np.argsort(np.concatenate([np.repeat(vals[c], n)
                                       for (vals, _), c, n in zip(eigs, keep, copies)]),
                       kind="stable")
    vecs = BlockForm((v, index) for (_, v), (_, index) in zip(eigs, form))
    units, spectrum = vecs.place(keep)[order], union[k - 1::-1]   # the kept values, ascending
    roots = np.sqrt(spectrum)
    # the class of each kept column on each copy, piece by piece
    pieces = [(n, int(m.sum())) for c, n in zip(keep, copies) for m in c]
    ends = np.cumsum([n * cols for n, cols in pieces])[:-1]
    classes = tuple(p.reshape(-1, n).T for p, (n, _) in zip(np.split(np.argsort(order), ends),
                                                             pieces))
    null = BlockForm((v[g, None][..., ~c[g]], index[g, None])
                     for (_, v), c, (_, index) in zip(eigs, keep, form) for g in range(len(c)))
    return Quotient(kept=spectrum, q=roots[:, None] * units.conj(), lift=units.T / roots,
                    null=null, classes=classes)


class SpanPieces(NamedTuple):
    """The span pieces of the block pairs of one shape, stacked: copy c of
    piece g sits at the pairs pairs[g, c] and the entries entries[g, c]."""
    pairs: np.ndarray     # (G, C, R): the pair (a_i, a_j) as i·dim + j
    entries: np.ndarray   # (G, C, E): the entry (α, β) of an (m, m) matrix as α·m + β
    s: np.ndarray         # (G, K): singular values, 0 below the cut
    vh: np.ndarray        # (G, K, E): right singular vectors
    pinv: np.ndarray      # (G, E, R): the pseudo-inverse of each piece, cut with s


def span_pieces(units: tuple[np.ndarray, ...], classes: tuple[np.ndarray, ...],
                e: np.ndarray, tol: float) -> tuple[SpanPieces, ...]:
    """The spanning matrix as a form of one piece per block pair, cut as one
    (``BlockForm.cut`` of the singular values): the rank, span and least-norm
    pseudo-inverse of the dense matrix, the pieces of one shape a stack."""
    dim, m = sum(u.size for u in units), len(e)
    pairs, entries = zip(*[(copy_index(ub, uc.T, dim), copy_index(cb, cc, m))
                           for ub, cb in zip(units, classes) for uc, cc in zip(units, classes)
                           if cb.size and cc.size])   # a block that keeps no class meets no entry
    stacks = [(np.stack([pairs[i] for i in found]), np.stack([entries[i] for i in found]))
              for found in shape_groups(entries)]
    # the copies (q, r) of the entries are the rows (q, r) of the piece
    form = BlockForm((e.reshape(-1)[index], index) for _, index in stacks)
    svds = form.spectra("svd")
    keep = form.cut([s for _, s, _ in svds], tol)[2]
    out = []
    for (u, s, vh), kept, (at, to) in zip(svds, keep, stacks):
        s = np.where(kept, s, 0.0)
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
        pinv = (vh.conj().swapaxes(-1, -2) * inv[:, None]) @ u.conj().swapaxes(-1, -2)
        out.append(SpanPieces(at, to, s, vh, pinv))
    return tuple(out)


class BasicConstruction:
    """The reduced representation of an expectation onto ``range_sub``, on
    m classes: q (m, dim) takes representative coordinates to class
    coordinates and lift (dim, m) a class to its canonical representative;
    lam (dim, m, m) is left multiplication by each basis element, e (m, m)
    the projection implementing the expectation, and span the spanning
    matrix of lam(a) e lam(b), by pieces."""

    def __init__(self, algebra: Algebra, expectation: LinMap, range_sub: Subspace, tol: float,
                 m: int, q: np.ndarray, lift: np.ndarray, lam: np.ndarray, e: np.ndarray,
                 span: tuple[SpanPieces, ...]):
        self.algebra, self.expectation, self.range_sub = algebra, expectation, range_sub
        self.tol, self.m, self.q, self.lift = tol, m, q, lift
        self.lam, self.e, self.span = lam, e, span

    @cached_property
    def k_basis(self) -> np.ndarray:
        """(k, m*m): orthonormal span of lam(a) e lam(b): the kept right
        singular vectors of the pieces, each placed on each of its copies."""
        return BlockForm((g.vh.swapaxes(1, 2), g.entries) for g in self.span).place(
            [g.s > 0 for g in self.span])

    def express_in_k(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients in the orthonormal span of each matrix of a (..., m, m)
        stack, plus each one's relative residual."""
        vecs = mats.reshape(*mats.shape[:-2], self.m * self.m)
        coeffs = vecs @ self.k_basis.conj().T
        resid = np.linalg.norm(vecs - coeffs @ self.k_basis, axis=-1)
        return coeffs, resid / np.maximum(1.0, np.linalg.norm(vecs, axis=-1))

    def _through_pieces(self, xs: np.ndarray, mats: list, to_entries: bool) -> np.ndarray:
        """A (..., dim²) stack of pair coordinates taken to entry coordinates
        (``to_entries``), or the reverse, by one matrix per piece: on each
        copy, the coordinates of x times the piece's matrix."""
        out = np.zeros((*xs.shape[:-1], self.m ** 2 if to_entries else self.algebra.dim ** 2),
                       dtype=complex)
        for g, mat in zip(self.span, mats):
            src, dst = (g.pairs, g.entries) if to_entries else (g.entries, g.pairs)
            out[..., dst] = xs[..., src] @ mat
        return out

    def spanned(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., m, m): sum c[i, j] lam(a_i) e lam(a_j) for each matrix c of a
        (..., dim, dim) stack of pair coefficients."""
        vecs = coeffs.reshape(*coeffs.shape[:-2], self.algebra.dim ** 2)
        out = self._through_pieces(vecs, [self.e.reshape(-1)[g.entries] for g in self.span], True)
        return out.reshape(*out.shape[:-1], self.m, self.m)

    def express_in_spanning(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair coefficients c with mat = sum c[i,j] lam(a_i) e lam(a_j) for
        each matrix of a (..., m, m) stack, plus each one's relative residual.

        Least-squares presentation of least norm; any exact presentation is
        acceptable since the module actions built on it are
        presentation-independent.
        """
        dim, vecs = self.algebra.dim, mats.reshape(*mats.shape[:-2], self.m * self.m)
        c = self._through_pieces(vecs, [g.pinv for g in self.span], False)
        c = c.reshape(*vecs.shape[:-1], dim, dim)
        resid = np.linalg.norm(self.spanned(c) - mats, axis=(-2, -1))
        return c, resid / np.maximum(1.0, np.linalg.norm(vecs, axis=-1))

    def null_part(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., dim, dim): each pair coefficient matrix of a stack less the
        presentation of what it spans, its part that spans zero."""
        return coeffs - self.express_in_spanning(self.spanned(coeffs))[0]

    @cached_property
    def invariants(self) -> dict[str, float]:
        """Residuals of the structural identities, all of which should vanish."""
        alg, lam, e = self.algebra, self.lam, self.e
        mult, star = representation_defects(alg, lam)
        # lam of each E(a_i) and of each range row
        lam_ea = np.tensordot(self.expectation.matrix.T, lam, axes=1)
        lam_b = np.tensordot(self.range_sub.basis, lam, axes=1)
        kb = self.k_basis.reshape(-1, self.m, self.m)
        got = np.linalg.norm(lam_b @ e, 2, axis=(-2, -1))
        want = block_norms(alg, self.range_sub.basis)
        return {
            "e_hermitian": float(np.linalg.norm(e - e.conj().T)),
            "e_idempotent": float(np.linalg.norm(e @ e - e)),
            "left_regular_star": star,
            "left_regular_multiplicative": mult,
            "jones_relation": worst_norm(e @ lam @ e - lam_ea @ e, axis=(-2, -1)),
            "expectation_implemented": worst_norm(
                e @ self.q - self.q @ self.expectation.matrix, axis=0),
            "e_commutes_with_range": worst_norm(e @ lam_b - lam_b @ e, axis=(-2, -1)),
            "k_star_closed": worst(self.express_in_k(kb.conj().swapaxes(-1, -2))[1]),
            "corner_isometric_on_range": worst(abs(got - want) / np.maximum(1.0, want)),
        }


def build_basic(expectation: LinMap, range_sub: Subspace,
                tol: float = DEFAULT_TOL) -> BasicConstruction:
    alg = expectation.algebra
    trace = alg.unit()                   # tr(x) = trace · coords(x)
    tr_e = trace @ expectation.matrix    # tr(E(x)) = tr_e · coords(x)
    normalizer = float((tr_e @ trace).real)
    if normalizer <= tol:
        raise NumericalDegeneracy("expectation unit image has no trace mass")

    # the Gram matrix tr(E(a_j* a_k)) / normalizer is ⊕_b I ⊗ g_b, with
    # g_b[q, q'] = tr(E(e_qq')) / normalizer, so its norms add over the copies
    grams = [tr_e[u] / normalizer for u in alg.units]
    norms = np.array([[np.linalg.norm(g - g.conj().T), np.linalg.norm(g)] for g in grams])
    herm_gap, size = np.sqrt(np.array(alg.blocks) @ norms ** 2)
    if herm_gap > tol * max(1.0, size):
        raise NumericalDegeneracy("expectation form is not hermitian")

    quot = eigen_quotient(BlockForm((hermitian_part(g)[None], u[None])
                                    for g, u in zip(grams, alg.units)), tol, (
        "expectation form vanishes identically",
        "expectation form is not positive",
        "quotient ill-conditioned: no spectral gap between kept and "
        "discarded directions"))
    m, e = quot.kept.size, quot.q @ expectation.matrix @ quot.lift
    lam = np.zeros((alg.dim, m, m), dtype=complex)    # lam(e_pq) = E_pq ⊗ I
    for u, c in zip(alg.units, quot.classes):
        lam[u[:, :, None], c[:, None, :], c[None, :, :]] = 1.0
    return BasicConstruction(algebra=alg, expectation=expectation, range_sub=range_sub,
                             tol=tol, m=m, q=quot.q, lift=quot.lift, lam=lam, e=e,
                             span=span_pieces(alg.units, quot.classes, e, tol))


def basic_for_h(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the second map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.h @ inter.v, inter.range_h, tol)


def basic_for_v(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the first map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.v @ inter.h, inter.range_v, tol)
