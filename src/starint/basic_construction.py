"""Reduced representation of an algebra on the GNS space of an expectation.

Given a conditional expectation E onto a subalgebra B, the algebra acts by
left multiplication on the completion of A under <x, y> = tr_B(E(x* y)),
where tr_B is the normalized trace.  Null directions are quotiented out by
an eigenvalue cut, giving finite matrices: a representation ``lam``, the
projection ``e`` implementing E, and the linear span of lam(a) e lam(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    TINY,
    Algebra,
    Element,
    NumericalDegeneracy,
    Subspace,
    block_norms,
    representation_defects,
    svd_rank,
    worst,
    worst_norm,
)
from .linmaps import LinMap

# eigenvalues on either side of the quotient cut must differ by this factor
GAP_FACTOR = 1e3


class Quotient(NamedTuple):
    kept: np.ndarray     # eigenvalues above the cut
    q: np.ndarray        # (k, n): coordinates -> class coordinates
    lift: np.ndarray     # (n, k): class coordinates -> canonical representative
    null: np.ndarray     # (n, n - k): discarded eigenvectors, as columns
    top: float           # largest eigenvalue


def eigen_quotient(gram: np.ndarray, tol: float,
                   messages: tuple[str, str, str]) -> Quotient:
    """Quotient of a hermitian positive form by its kernel, cut at
    ``tol`` times the top eigenvalue.  ``messages`` explain the three ways
    the cut can fail: the form vanishes, is not positive, or has no
    spectral gap of ``GAP_FACTOR`` at the cut."""
    vanishes, indefinite, no_gap = messages
    lams, vecs = np.linalg.eigh(gram)
    top = float(lams.max(initial=0.0))
    if top <= tol:
        raise NumericalDegeneracy(vanishes)
    if float(lams.min()) < -tol * top:
        raise NumericalDegeneracy(indefinite)
    keep = lams > tol * top
    dropped = lams[~keep]
    if dropped.size and float(dropped.max()) > 1e-300:
        if float(lams[keep].min()) / float(dropped.max()) < GAP_FACTOR:
            raise NumericalDegeneracy(no_gap)
    roots = np.sqrt(lams[keep])
    u_keep = vecs[:, keep]
    return Quotient(kept=lams[keep], q=roots[:, None] * u_keep.conj().T,
                    lift=u_keep / roots[None, :], null=vecs[:, ~keep], top=top)


@dataclass(frozen=True)
class BasicConstruction:
    algebra: Algebra
    expectation: LinMap
    range_sub: Subspace
    tol: float
    m: int
    q: np.ndarray        # (m, dim): representative coordinates -> class coordinates
    lift: np.ndarray     # (dim, m): class coordinates -> canonical representative
    lam: np.ndarray      # (dim, m, m): left multiplication by each basis element
    e: np.ndarray        # (m, m): the projection implementing the expectation

    def class_coords(self, x: Element) -> np.ndarray:
        return self.q @ x.coords()

    def lam_of(self, x: Element) -> np.ndarray:
        return np.tensordot(x.coords(), self.lam, axes=(0, 0))

    def representative(self, coords: np.ndarray) -> Element:
        return self.algebra.from_coords(self.lift @ coords)

    @cached_property
    def spanning_matrix(self) -> np.ndarray:
        """Columns vec(lam(a_i) e lam(a_j)), indexed by the pair (i, j)."""
        dim, m = self.algebra.dim, self.m
        return ((self.lam @ self.e)[:, None] @ self.lam).reshape(dim * dim, m * m).T

    @cached_property
    def _spanning_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the factors of the spanning matrix's transpose kept by
        the ``svd_rank`` cut; the one SVD of the spanning matrix."""
        u, s, vh = np.linalg.svd(self.spanning_matrix.T, full_matrices=False)
        k = svd_rank(s, self.tol, TINY)
        return u[:, :k].copy(), s[:k].copy(), vh[:k].copy()

    @property
    def k_basis(self) -> np.ndarray:
        """(k, m*m): orthonormal span of lam(a) e lam(b)."""
        return self._spanning_svd[2]

    @cached_property
    def spanning_pinv(self) -> np.ndarray:
        """(dim², m²): the pseudo-inverse of the spanning matrix, from the kept factors."""
        u, s, vh = self._spanning_svd
        return (u.conj() / s) @ vh.conj()

    def express_in_k(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients in the orthonormal span of each matrix of a (..., m, m)
        stack, plus each one's relative residual."""
        vecs = mats.reshape(*mats.shape[:-2], -1)
        coeffs = vecs @ self.k_basis.conj().T
        resid = np.linalg.norm(vecs - coeffs @ self.k_basis, axis=-1)
        return coeffs, resid / np.maximum(1.0, np.linalg.norm(vecs, axis=-1))

    def express_in_spanning(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair coefficients c with mat = sum c[i,j] lam(a_i) e lam(a_j) for
        each matrix of a (..., m, m) stack, plus each one's relative residual.

        Least-squares presentation; any exact presentation is acceptable
        since the module actions built on it are presentation-independent.
        """
        vecs = mats.reshape(*mats.shape[:-2], -1)
        c = vecs @ self.spanning_pinv.T
        resid = np.linalg.norm(c @ self.spanning_matrix.T - vecs, axis=-1)
        dim = self.algebra.dim
        return (c.reshape(*c.shape[:-1], dim, dim),
                resid / np.maximum(1.0, np.linalg.norm(vecs, axis=-1)))

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
    trace = alg.unit().coords()          # tr(x) = trace · coords(x)
    tr_e = trace @ expectation.matrix    # tr(E(x)) = tr_e · coords(x)
    normalizer = float((tr_e @ trace).real)
    if normalizer <= tol:
        raise NumericalDegeneracy("expectation unit image has no trace mass")

    # gram[j, k] = tr(E(a_j* a_k)) / normalizer, with a_j* = a_star_perm[j]
    # and coords(a_i a_k) = left_mult_tensor[i, :, k]
    gram = (tr_e @ alg.left_mult_tensor)[alg.star_perm] / normalizer
    herm_gap = float(np.linalg.norm(gram - gram.conj().T))
    if herm_gap > tol * max(1.0, float(np.linalg.norm(gram))):
        raise NumericalDegeneracy("expectation form is not hermitian")
    gram = (gram + gram.conj().T) / 2

    quot = eigen_quotient(gram, tol, (
        "expectation form vanishes identically",
        "expectation form is not positive",
        "quotient ill-conditioned: no spectral gap between kept and "
        "discarded directions"))
    q, lift, null = quot.q, quot.lift, quot.null

    ql = q @ alg.left_mult_tensor
    # left multiplication must kill the discarded directions
    if null.size:
        leak = worst_norm(ql @ null, axis=(-2, -1))
        if not leak <= tol * max(1.0, quot.top):
            raise NumericalDegeneracy("null directions are not an ideal "
                                      f"(leak {leak:.3e})")
    return BasicConstruction(algebra=alg, expectation=expectation,
                             range_sub=range_sub, tol=tol, m=quot.kept.size, q=q,
                             lift=lift, lam=ql @ lift,
                             e=q @ expectation.matrix @ lift)


def basic_for_h(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the second map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.h @ inter.v, inter.range_h, tol)


def basic_for_v(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the first map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.v @ inter.h, inter.range_v, tol)
