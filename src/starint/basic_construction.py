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
    Algebra,
    Element,
    NumericalDegeneracy,
    Subspace,
    orthonormal_rows,
    rel,
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
    k_basis: np.ndarray  # (k, m*m): orthonormal span of lam(a) e lam(b)

    def class_coords(self, x: Element) -> np.ndarray:
        return self.q @ x.coords()

    def lam_of(self, x: Element) -> np.ndarray:
        return np.tensordot(x.coords(), self.lam, axes=(0, 0))

    def representative(self, coords: np.ndarray) -> Element:
        return self.algebra.from_coords(self.lift @ coords)

    def express_in_k(self, mat: np.ndarray) -> tuple[np.ndarray, float]:
        """Coefficients of a matrix in the orthonormal span, plus residual."""
        vec = mat.reshape(-1)
        coeffs = self.k_basis.conj() @ vec
        resid = float(np.linalg.norm(vec - self.k_basis.T @ coeffs))
        return coeffs, rel(resid, float(np.linalg.norm(vec)))

    @cached_property
    def spanning_matrix(self) -> np.ndarray:
        """Columns vec(lam(a_i) e lam(a_j)), indexed by the pair (i, j)."""
        dim = self.algebra.dim
        cols = np.empty((self.m * self.m, dim * dim), dtype=complex)
        for i in range(dim):
            left = self.lam[i] @ self.e
            for j in range(dim):
                cols[:, i * dim + j] = (left @ self.lam[j]).reshape(-1)
        return cols

    @cached_property
    def spanning_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.spanning_matrix)

    def express_in_spanning(self, mat: np.ndarray) -> tuple[np.ndarray, float]:
        """Pair coefficients c with mat = sum c[i,j] lam(a_i) e lam(a_j).

        Least-squares presentation; any exact presentation is acceptable
        since the module actions built on it are presentation-independent.
        """
        vec = mat.reshape(-1)
        c = self.spanning_pinv @ vec
        resid = float(np.linalg.norm(self.spanning_matrix @ c - vec))
        dim = self.algebra.dim
        return c.reshape(dim, dim), rel(resid, float(np.linalg.norm(vec)))

    @cached_property
    def invariants(self) -> dict[str, float]:
        """Residuals of the structural identities, all of which should vanish."""
        alg = self.algebra
        out: dict[str, float] = {}
        out["e_hermitian"] = float(np.linalg.norm(self.e - self.e.conj().T))
        out["e_idempotent"] = float(np.linalg.norm(self.e @ self.e - self.e))
        star = mult = 0.0
        for i, a in enumerate(alg.basis):
            star = max(star, float(np.linalg.norm(
                self.lam_of(a.star()) - self.lam[i].conj().T)))
            for j in range(alg.dim):
                prod = self.lam_of(alg.basis[i] * alg.basis[j])
                mult = max(mult, float(np.linalg.norm(
                    prod - self.lam[i] @ self.lam[j])))
        out["left_regular_star"] = star
        out["left_regular_multiplicative"] = mult
        jones = implemented = 0.0
        for i, a in enumerate(alg.basis):
            ea = self.lam_of(self.expectation(a))
            jones = max(jones, float(np.linalg.norm(
                self.e @ self.lam[i] @ self.e - ea @ self.e)))
            implemented = max(implemented, float(np.linalg.norm(
                self.e @ (self.q @ a.coords()) - self.q @ self.expectation(a).coords())))
        out["jones_relation"] = jones
        out["expectation_implemented"] = implemented
        commute = 0.0
        for b in self.range_sub.elements():
            lb = self.lam_of(b)
            commute = max(commute, float(np.linalg.norm(
                self.e @ lb - lb @ self.e)))
        out["e_commutes_with_range"] = commute
        closed = 0.0
        for row in self.k_basis:
            adj = row.reshape(self.m, self.m).conj().T
            _, resid = self.express_in_k(adj)
            closed = max(closed, resid)
        out["k_star_closed"] = closed
        norm_gap = 0.0
        for b in self.range_sub.elements():
            compressed = self.lam_of(b) @ self.e
            got = float(np.linalg.norm(compressed, 2)) if self.m else 0.0
            norm_gap = max(norm_gap, rel(abs(got - b.norm()), b.norm()))
        out["corner_isometric_on_range"] = norm_gap
        return out


def build_basic(expectation: LinMap, range_sub: Subspace,
                tol: float = DEFAULT_TOL) -> BasicConstruction:
    alg = expectation.algebra
    unit_image = expectation(alg.unit())
    normalizer = unit_image.trace().real
    if normalizer <= tol:
        raise NumericalDegeneracy("expectation unit image has no trace mass")

    dim = alg.dim
    gram = np.empty((dim, dim), dtype=complex)
    for j, aj in enumerate(alg.basis):
        for k, ak in enumerate(alg.basis):
            gram[j, k] = expectation(aj.star() * ak).trace() / normalizer
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
    m = quot.kept.size

    lam = np.empty((dim, m, m), dtype=complex)
    for i in range(dim):
        lam[i] = q @ alg.left_mult_tensor[i] @ lift
    # left multiplication must kill the discarded directions
    if null.size:
        leak = max(float(np.linalg.norm(q @ alg.left_mult_tensor[i] @ null))
                   for i in range(dim))
        if leak > tol * max(1.0, quot.top):
            raise NumericalDegeneracy("null directions are not an ideal "
                                      f"(leak {leak:.3e})")

    e = q @ expectation.matrix @ lift

    products = []
    for i in range(dim):
        left = lam[i] @ e
        for j in range(dim):
            products.append((left @ lam[j]).reshape(-1))
    k_basis = orthonormal_rows(np.array(products), tol)
    return BasicConstruction(algebra=alg, expectation=expectation,
                             range_sub=range_sub, tol=tol, m=m, q=q,
                             lift=lift, lam=lam, e=e, k_basis=k_basis)


def basic_for_h(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the second map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.h @ inter.v, inter.range_h, tol)


def basic_for_v(inter, tol: float | None = None) -> BasicConstruction:
    """Construction for the expectation onto the range of the first map."""
    tol = inter.tol if tol is None else tol
    return build_basic(inter.v @ inter.h, inter.range_v, tol)
