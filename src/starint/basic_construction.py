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
the pieces are the orthonormal span, and the matching left singular
vectors over their singular values its dual basis on the pairs, which
presents an operator of the span, held by its coordinates, as pairs of least
norm.  Products into the span are read on those coordinates (``in_k``).
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
    Sparse,
    Subspace,
    at_units,
    block_norms,
    contract,
    copy_index,
    hermitian_part,
    quotient_gap,
    representation_defects,
    row_chunks,
    row_norms,
    shape_groups,
    unit_map,
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


def span_bases(units: tuple[np.ndarray, ...], classes: tuple[np.ndarray, ...],
               e: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The spanning matrix as a form of one piece per block pair, cut as one
    (``BlockForm.cut`` of the singular values of one SVD per piece shape),
    and each kept singular triple placed on its copies: the orthonormal span
    (k, m*m) on the entries (α, β) as α·m + β; the left singular vectors
    (k, dim*dim) on the pairs (a_i, a_j) as i·dim + j, orthonormal on the
    pairs; and the singular values (k,)."""
    dim, m = sum(u.size for u in units), len(e)
    pairs, entries = zip(*[(copy_index(ub, uc.T, dim), copy_index(cb, cc, m))
                           for ub, cb in zip(units, classes) for uc, cc in zip(units, classes)
                           if cb.size and cc.size])   # a block that keeps no class meets no entry
    stacks = [(np.stack([pairs[i] for i in found]), np.stack([entries[i] for i in found]))
              for found in shape_groups(entries)]
    # the copies (q, r) of the entries are the rows (q, r) of the piece, and
    # copy c of piece g sits at the pairs at[g, c] and the entries to[g, c]
    form = BlockForm((e.reshape(-1)[to], to) for _, to in stacks)
    svds = form.spectra("svd")
    keep = form.cut([s for _, s, _ in svds], tol)[2]
    basis = BlockForm((vh.swapaxes(1, 2), to) for (_, _, vh), (_, to) in zip(svds, stacks))
    left = BlockForm((u, at) for (u, _, _), (at, _) in zip(svds, stacks)).place(keep, dim * dim)
    values = np.concatenate([np.repeat(s[kept], to.shape[1])
                             for (_, s, _), kept, (_, to) in zip(svds, keep, stacks)])
    return basis.place(keep), left, values


class BasicConstruction:
    """The reduced representation of an expectation onto ``range_sub``, on
    m classes: q (m, dim) takes representative coordinates to class
    coordinates and lift (dim, m) a class to its canonical representative;
    λ(a) is at_units(a, lam_at) for the ``unit_map`` lam_at (m, m), lam
    (dim, m, m) is λ of each basis element, and e (m, m) the projection
    implementing the expectation.  The span K of lam(a) e lam(b) is held as
    ``span_bases`` places it: its orthonormal basis k_basis (k, m*m), the
    orthonormal pair vectors k_pairs (k, dim*dim) that span the presentations,
    and the singular values k_values (k,) that take k_pairs to k_basis.  An
    operator of K is held by its coordinates w on k_basis, its least-norm
    pair presentation being w @ k_dual, k_dual = conj(k_pairs) / k_values
    (k, dim*dim) the presentations of the basis elements; ``in_k`` multiplies
    operators into K on those coordinates."""

    def __init__(self, algebra: Algebra, expectation: LinMap, range_sub: Subspace, tol: float,
                 m: int, q: np.ndarray, lift: np.ndarray, lam_at: np.ndarray, e: np.ndarray,
                 k_basis: np.ndarray, k_pairs: np.ndarray, k_values: np.ndarray):
        self.algebra, self.expectation, self.range_sub = algebra, expectation, range_sub
        self.tol, self.m, self.q, self.lift = tol, m, q, lift
        self.lam_at, self.e = lam_at, e
        self.lam = at_units(np.eye(algebra.dim, dtype=complex), lam_at)
        self.k_basis, self.k_pairs, self.k_values = k_basis, k_pairs, k_values

    @cached_property
    def k_dual(self) -> np.ndarray:
        """(k, dim*dim): the least-norm pair presentation of each basis element."""
        return self.k_pairs.conj() / self.k_values[:, None]

    def express_in_k(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients in the orthonormal span of each matrix of a (..., m, m)
        stack, plus each one's relative residual."""
        vecs = mats.reshape(*mats.shape[:-2], self.m * self.m)
        coeffs = vecs @ self.k_basis.conj().T
        resid = np.linalg.norm(vecs - coeffs @ self.k_basis, axis=-1)
        return coeffs, resid / np.maximum(1.0, np.linalg.norm(vecs, axis=-1))

    def in_k(self, ops: Sparse) -> np.ndarray:
        """(n, k, k): [i, c, b] = <k_c, ops_i·k_b> for an (n, m, m) table of
        operators and the orthonormal basis k_b, the matrix of k -> ops_i·k on
        K's coordinates when ops_i keeps K.  Two ``contract``s over the
        nonzeros of ops and of the basis, a ``row_chunks`` chunk of ops at a
        time.  The build forces the basis's pattern: each k_b is one piece's
        singular vector placed on the entries of one copy (``span_bases``), so
        most products of λ or of two basis elements are exactly zero."""
        k = len(self.k_basis)
        ks = Sparse.of(self.k_basis.reshape(k, self.m, self.m))
        ks_bar = ks._replace(values=ks.values.conj())
        return np.concatenate([
            contract("ibaz,caz->icb", contract("iag,bgz->ibaz", ops.rows(rows), ks), ks_bar).dense()
            for rows in row_chunks(max(ops.shape[0], 1), k * self.m * self.m)])

    def pairs_in_k(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., k): the span coordinates of Σ c[i, j]·lam(a_i)·e·lam(a_j) for each
        pair coefficient matrix c of a (..., dim, dim) stack.  The spanning matrix
        is k_pairsᵀ·diag(k_values)·k_basis on its kept part, so they are
        vec(c)·k_pairsᵀ·diag(k_values), read at the pairs that k_pairs meets."""
        at = np.flatnonzero(self.k_pairs.any(axis=0))
        vecs = coeffs.reshape(*coeffs.shape[:-2], coeffs.shape[-2] * coeffs.shape[-1])[..., at]
        return vecs @ (self.k_pairs[:, at].T * self.k_values)

    def generator_remainders(self) -> np.ndarray:
        """(dim, dim): the relative remainder outside the span of each generator
        lam(a_i)·e·lam(a_j), formed over the nonzeros of lam and e, so on its own
        entries (E_ps ⊗ e_bc[q, r] for a_i = e_pq and a_j = e_rs lives on copy (p, s)),
        and projected on the span basis there, a chunk of generators a_i at a time."""
        dim, mm = self.algebra.dim, self.m * self.m
        lam, e, ks = map(Sparse.of, (self.lam, self.e, self.k_basis.reshape(-1, self.m, self.m)))
        norms = np.zeros((2, dim * dim))                 # of the remainders, of the generators
        for rows in row_chunks(dim, len(e.at)):
            gens = contract("iac,jcd->ijad", contract("iab,bc->iac", lam.rows(rows), e), lam)
            coords = contract("ijad,wad->ijw", gens, ks._replace(values=ks.values.conj()))
            for norm, table in zip(norms, (gens - contract("ijw,wad->ijad", coords, ks), gens)):
                at, values = row_norms(table.reshape(-1, mm))
                norm[rows.start * dim + at] = values
        return (norms[0] / np.maximum(1.0, norms[1])).reshape(dim, dim)

    def null_part(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., dim, dim): each pair coefficient matrix of a stack less its
        projection on the pair vectors, its part that spans zero."""
        vecs = coeffs.reshape(*coeffs.shape[:-2], -1)
        return coeffs - ((vecs @ self.k_pairs.T) @ self.k_pairs.conj()).reshape(coeffs.shape)

    @cached_property
    def invariants(self) -> dict[str, float]:
        """Residuals of the structural identities, all of which should vanish."""
        alg, lam, e = self.algebra, self.lam, self.e
        mult, star = representation_defects(alg, lam)
        # lam of each E(a_i) and of each range row
        lam_ea = at_units(self.expectation.matrix.T, self.lam_at)
        lam_b = at_units(self.range_sub.basis, self.lam_at)
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
    return BasicConstruction(alg, expectation, range_sub, tol, m, quot.q, quot.lift,
                             unit_map(alg.units, quot.classes, m), e,
                             *span_bases(alg.units, quot.classes, e, tol))


def basic_for_h(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the second map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.h @ inter.v, inter.range_h, tol)


def basic_for_v(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the first map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.v @ inter.h, inter.range_v, tol)
