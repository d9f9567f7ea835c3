"""Ternary operator spaces and the module-with-two-actions layer above them.

A ternary space comes in two flavours sharing one checking interface: a
concrete subspace of a matrix algebra closed under x·y*·z, and the abstract
quotient module of a verified pair with its bracket.  Everything downstream
(rank-one operator spans, commutation, redundancy extraction) only consumes
the structure tensor of the bracket, held in both modes as a table of its
nonzeros (``algebra.Sparse``), plus the two coefficient actions.  The laws
are contractions over nonzeros (``contract``, ``law_defects``), and each
rank-one span is ranked by the connected components of its grid's pattern
(``BlockForm.components``), with no SVD of a whole grid.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (DEFAULT_TOL, Algebra, BlockForm, Draws, Sparse, block_adjoint,
                      block_norms, block_product, contract, law_defects, orthonormal_rows,
                      pair_products, psd_top, representation_defects, row_chunks, svd_rank,
                      worst, worst_key, worst_norm)
from .bimodule import BimoduleX, slot_adjoint_defects
from .interactions import Interaction, _unit_defects
from .linmaps import LinMap, map_residual


class CorrespondenceError(ValueError):
    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class ConcreteTRO:
    """Subspace of a matrix algebra closed under the triple product x·y*·z,
    given by (n, ambient.dim) orthonormal coordinate rows."""

    def __init__(self, ambient: Algebra, basis: np.ndarray, tol: float = DEFAULT_TOL):
        self.ambient, self.basis, self.tol = ambient, basis, tol

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def coords_of(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates in the internal basis of each element of a
        (..., ambient.dim) stack, plus each one's out-of-space leak."""
        c = vs @ self.basis.conj().T
        return c, np.linalg.norm(vs - c @ self.basis, axis=-1)

    @cached_property
    def triples(self) -> tuple[Sparse, np.ndarray]:
        """(n, n, n, n): [i, j, k] holds the coordinates of x_i·x_j*·x_k for
        the basis elements x, as a table of its nonzeros, with the (n, n, n) leaks."""
        amb, b = self.ambient, self.basis
        xy = pair_products(amb, b, block_adjoint(amb, b))
        coords, leaks = self.coords_of(block_product(amb, xy[:, :, None], b))
        return Sparse.of(coords), leaks


def concrete_tro(ambient: Algebra, rows: np.ndarray,
                 tol: float = DEFAULT_TOL) -> ConcreteTRO:
    """The subspace spanned by (n, ambient.dim) coordinate rows, which must
    be closed under the triple product."""
    rows = np.asarray(rows, dtype=complex).reshape(-1, ambient.dim)
    tro = ConcreteTRO(ambient=ambient, basis=orthonormal_rows(rows, tol), tol=tol)
    leak = worst(tro.triples[1])
    if not leak <= tol:
        raise CorrespondenceError(
            f"triple products leave the subspace (leak {leak:.3e})")
    return tro


class GenCorrespondence:
    """Ternary space with left/right actions of a coefficient algebra.

    tt[i,j,k] holds the coordinates of the bracket of basis triples, as a
    table of its nonzeros in both modes; the bracket is conjugate-linear in
    the middle slot, handled at evaluation.
    """

    def __init__(self, coeff: Algebra, tt: Sparse, lam_t: np.ndarray, rho_t: np.ndarray,
                 mode: str, tol: float, tro: ConcreteTRO | None = None,
                 x: BimoduleX | None = None, slot_defects: dict[str, float] | None = None):
        self.coeff, self.tt = coeff, tt              # tt: (n, n, n, n)
        self.lam_t, self.rho_t = lam_t, rho_t        # (dimA, n, n): action per basis element
        self.mode, self.tol = mode, tol              # mode: "concrete" | "abstract"
        self.tro, self.x = tro, x
        self.slot_defects = slot_defects             # slot_adjoint_defects, if already known

    @property
    def n(self) -> int:
        return self.tt.shape[0]

    def norm_of(self, coords: np.ndarray) -> np.ndarray:
        """Norm of each element of a (..., n) coordinate stack: ∥Σ c̄_i·c_j·<e_i, e_j>_r∥^½ in
        abstract mode, the inner products read from the table ``inner_r_t``."""
        coords = np.asarray(coords, dtype=complex)
        if self.mode == "concrete":
            return block_norms(self.tro.ambient, coords @ self.tro.basis)
        pairs = coords.conj()[..., :, None] * coords[..., None, :]
        inner = np.tensordot(pairs, self.x.inner_r_t, axes=2) @ self.x.bch.k_basis
        return np.sqrt(psd_top(inner.reshape(*coords.shape[:-1], self.x.bch.m, self.x.bch.m)))

    @cached_property
    def laws(self) -> dict[str, float]:
        """The defining laws, computed once: slot-adjointness of both
        actions, and that the actions are a homomorphism (left) and an
        anti-homomorphism (right)."""
        slots = self.slot_defects or slot_adjoint_defects(self.tt, self.lam_t, self.rho_t,
                                                          self.coeff.star_perm)
        left_mult, left_star = representation_defects(self.coeff, self.lam_t)
        # transposing turns an anti-homomorphism into a homomorphism, norms unchanged
        right_mult, right_star = representation_defects(self.coeff,
                                                        self.rho_t.swapaxes(-1, -2))
        return {"middle_slot_intertwines": slots["middle_abs"],
                "outer_slot_intertwines": slots["outer_abs"],
                "left_action_multiplicative": left_mult,
                "right_action_antimultiplicative": right_mult,
                "left_action_star": left_star, "right_action_star": right_star}

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        """``compact_spans``, computed once."""
        return compact_spans(self)


def check_71(corr: GenCorrespondence) -> dict[str, float]:
    """The defining laws of ``GenCorrespondence.laws``."""
    return dict(corr.laws)


def correspondence_from_tro(tro: ConcreteTRO, coeff: Algebra,
                            embed_rows: np.ndarray,
                            tol: float | None = None) -> GenCorrespondence:
    """Concrete mode: the coefficient algebra acts through an embedding into
    the ambient algebra, given as the (coeff.dim, ambient.dim) coordinate
    rows of the images of its basis, which must preserve the subspace on
    both sides."""
    tol = tro.tol if tol is None else tol
    embed_rows = np.asarray(embed_rows, dtype=complex)
    if embed_rows.shape != (coeff.dim, tro.ambient.dim):
        raise CorrespondenceError("need one embedded element per basis element")
    tt, leak = tro.triples
    # [a, :, k]: the coordinates of img_a·x_k (left) and x_k·img_a (right)
    cl, leak_l = tro.coords_of(pair_products(tro.ambient, embed_rows, tro.basis))
    cr, leak_r = tro.coords_of(pair_products(tro.ambient, tro.basis, embed_rows).swapaxes(0, 1))
    lam_t, rho_t = cl.swapaxes(1, 2), cr.swapaxes(1, 2)
    worst_leak = worst(leak, leak_l, leak_r)
    if not worst_leak <= tol:
        raise CorrespondenceError(
            f"coefficient action leaves the subspace (leak {worst_leak:.3e})")
    return _lawful(GenCorrespondence(coeff=coeff, tt=tt, lam_t=lam_t, rho_t=rho_t,
                                     mode="concrete", tol=tol, tro=tro))


def correspondence_from_bimodule(x: BimoduleX,
                                 tol: float | None = None) -> GenCorrespondence:
    """Abstract mode: the quotient module with its bracket and the two
    coefficient actions inherited from the tensor legs."""
    tol = x.tol if tol is None else tol
    return _lawful(GenCorrespondence(coeff=x.algebra, tt=x.bracket_t,
                                     lam_t=x.lam_t, rho_t=x.rho_t, mode="abstract",
                                     tol=tol, x=x, slot_defects=x.slot_defects))


def _lawful(corr: GenCorrespondence) -> GenCorrespondence:
    """The correspondence itself when the 7.1 laws hold; raises otherwise."""
    laws = check_71(corr)
    bad = worst_key(laws)
    if not laws[bad] <= max(corr.tol, 1e-8):
        raise CorrespondenceError(
            f"correspondence laws fail at {bad} ({laws[bad]:.3e})", laws)
    return corr


# -- operator spans and their laws -------------------------------------------------


def _theta_grids(corr: GenCorrespondence) -> tuple[Sparse, Sparse]:
    """All rank-one operators over basis pairs: left ones indexed [i,j] and
    right ones indexed [j,l], each as an (n, n) matrix."""
    left = corr.tt.transpose(0, 1, 3, 2)     # [i,j][c,k] = tt[i,j,k,c]
    right = corr.tt.transpose(1, 2, 3, 0)    # [j,l][c,k] = tt[k,j,l,c]
    return left, right


def compact_spans(corr: GenCorrespondence) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as vectorized rows) of the spans of the rank-one
    operators on each side, left then right: each (n², n²) grid split by the
    connected components of its pattern (``BlockForm.components``), one SVD
    per piece shape and one ``svd_rank`` cut over the union of their values."""
    out = []
    for grid in _theta_grids(corr):
        form = BlockForm.components(grid.reshape(corr.n ** 2, corr.n ** 2))
        svds = form.spectra("svd")
        keep = form.cut([s for _, s, _ in svds], corr.tol)[2]
        vecs = BlockForm((vh.swapaxes(1, 2), index) for (_, _, vh), (_, index) in zip(svds, form))
        out.append(vecs.place(keep, corr.n ** 2))
    return tuple(out)


def _worst_commutator(xs: Sparse, ys: Sparse) -> float:
    """Largest entry of |x·y - y·x| over x in xs and y in ys, two (k, n, n)
    tables; xs is taken a chunk at a time."""
    return law_defects((contract("xab,ybc->xyac", xs.rows(rows), ys),
                        contract("yab,xbc->xyac", ys, xs.rows(rows)))
                       for rows in row_chunks(xs.shape[0], len(ys.at)))[1]


def check_commutation(corr: GenCorrespondence) -> dict[str, float]:
    """Every right rank-one operator commutes with every left one, and the
    two coefficient actions commute with each other.  The commutator is
    bilinear, so the rank-one operators are swept through the orthonormal
    bases of their spans."""
    n = corr.n
    left, right = (Sparse.of(span.reshape(len(span), n, n)) for span in corr.spans)
    return {"rank_one_sides_commute": _worst_commutator(right, left),
            "actions_commute": _worst_commutator(Sparse.of(corr.lam_t), Sparse.of(corr.rho_t))}


def check_cube_identity(corr: GenCorrespondence) -> dict[str, float]:
    """The norm of bracket(x,x,x) is the cube of the norm of x, on the basis:
    bracket(e_i, e_i, e_i) is tt[i, i, i]."""
    n = corr.n
    cubes = corr.norm_of(np.eye(n)) ** 3
    diagonal = corr.tt.reshape(n ** 3, n)
    got = corr.norm_of(np.reshape([diagonal.rows(slice(i, i + 1)).dense()
                                   for i in (n * n + n + 1) * np.arange(n)], (n, n)))
    return {"cube_identity": worst(abs(got - cubes) / np.maximum(1.0, cubes))}


def check_theta_adjoints(corr: GenCorrespondence) -> dict[str, float]:
    """Swapping the two defining vectors adjoints the rank-one operators."""
    n = corr.n
    return {name: law_defects([(grid._replace(values=grid.values.conj())
                                .transpose(0, 1, 3, 2).reshape(n, n, n * n),
                                grid.transpose(1, 0, 2, 3).reshape(n, n, n * n))])[0]
            for name, grid in zip(("theta_left_adjoint", "theta_right_adjoint"),
                                  _theta_grids(corr))}


def classical_gate(corr: GenCorrespondence) -> float:
    """Zero exactly when the second map fixes everything, i.e. the right
    inner product takes plain coefficient values."""
    if corr.mode != "abstract":
        return float("inf")
    h = corr.x.inter.h
    return map_residual(h @ corr.x.inter.v, LinMap.identity(corr.coeff))


def check_78(corr: GenCorrespondence) -> dict[str, float]:
    """In classical mode every right rank-one operator is the right action of
    the corresponding inner product."""
    gate = classical_gate(corr)
    out = {"classical_gate": gate}
    if not np.isfinite(gate) or gate > corr.tol:
        return out
    # e = 1 in classical form, so λ(A) lies in the span K, read in its coordinates
    x, n = corr.x, corr.n
    lam_k = x.bch.express_in_k(x.bch.lam)[0]
    a_coords = x.inner_r_t @ np.linalg.pinv(lam_k)               # [j, l, a]
    out["inner_product_recovered"] = worst_norm(a_coords @ lam_k - x.inner_r_t)
    grids, coords, acts = _theta_grids(corr)[1], Sparse.of(a_coords), Sparse.of(corr.rho_t)
    out["theta_r_is_inner_action"] = law_defects(      # the 2-norm over [c, k] of each [j, l]
        (grids.rows(j).reshape(-1, n, n * n),
         contract("jla,ack->jlck", coords.rows(j), acts).reshape(-1, n, n * n))
        for j in row_chunks(n, len(grids.at)))[0]
    return out


# -- redundancies -------------------------------------------------------------------


class Redundancy(NamedTuple):
    a: np.ndarray          # coordinates of the coefficient element
    k: np.ndarray          # coefficients in the orthonormal operator span
    side: str
    residual: float
    restricted: bool       # lies in the annihilator of the action kernel


def action_kernel_blocks(corr: GenCorrespondence, side: str) -> list[int]:
    """Central blocks of the coefficient algebra on which the action vanishes."""
    alg = corr.coeff
    tensor = corr.rho_t if side == "right" else corr.lam_t
    top = np.abs(tensor).reshape(alg.dim, -1).max(axis=1, initial=0.0)
    return np.flatnonzero(np.maximum.reduceat(top, alg.offsets) <= corr.tol).tolist()


def find_redundancies(corr: GenCorrespondence, side: str = "right",
                      tol: float | None = None) -> list[Redundancy]:
    """Basis of the coefficient elements whose action already lies in the
    rank-one span, each paired with that operator; elements supported away
    from the action kernel are flagged as the restricted generating set."""
    tol = corr.tol if tol is None else tol
    alg = corr.coeff
    kl, kr = corr.spans
    span = kr if side == "right" else kl
    tensor = corr.rho_t if side == "right" else corr.lam_t
    n = corr.n
    vecs = tensor.reshape(alg.dim, n * n)
    defect = (vecs - vecs @ span.conj().T @ span).T     # (n², dimA)
    # all of vh, which the thin SVD gives unless n² < dimA, without an (n², n²) u
    _, s, vh = np.linalg.svd(defect, full_matrices=len(defect) < alg.dim)
    kernel = vh[svd_rank(s, tol, 1.0):]          # rows: redundancy directions

    # directions inside the kernel span that vanish on the dead blocks
    dead = np.isin(np.arange(len(alg.blocks)), action_kernel_blocks(corr, side))
    mask = np.repeat(dead, np.square(alg.blocks))     # per coordinate
    _, s2, vh2 = np.linalg.svd((kernel * mask).T, full_matrices=True)
    inside = vh2[svd_rank(s2, tol, 1.0):] @ kernel    # restricted directions
    # the kernel rows are orthonormal, so both parts are cut at unit scale:
    # a cut relative to the leftover's own top value keeps rounding noise
    inside = orthonormal_rows(inside, tol, floor=1.0)
    rest = orthonormal_rows(kernel - (kernel @ inside.conj().T) @ inside, tol, floor=1.0)

    rows = np.concatenate([inside, rest])
    ops = rows @ vecs                             # each direction's action
    coeffs = ops @ span.conj().T
    resid = np.linalg.norm(ops - coeffs @ span, axis=-1)
    return [Redundancy(a=row, k=k, side=side, residual=float(r),
                       restricted=i < len(inside))
            for i, (row, k, r) in enumerate(zip(rows, coeffs, resid))]


# -- the endomorphism/transfer module, two ways ------------------------------------


def check_713(alpha: LinMap, transfer: LinMap, inter: Interaction,
              x: BimoduleX, tol: float | None = None, samples: int = 8,
              rng: Draws | None = None) -> dict[str, float]:
    """The quotient module of a pair coming from an endomorphism and a
    transfer map is the classical module of that pair: spanned by first-leg
    tensors, with the expected norm, coefficient maps, and bracket (on
    ``samples`` random triples)."""
    tol = inter.tol if tol is None else tol
    rng = rng or Draws(713)
    alg = inter.algebra
    gap = worst([np.linalg.norm(alpha.matrix - inter.v.matrix),
                 np.linalg.norm(transfer.matrix - inter.h.matrix)])
    if not gap <= tol:
        raise ValueError("the pair was not generated by the supplied "
                         f"endomorphism/transfer maps (gap {gap:.3e})")
    eye = np.eye(alg.dim, dtype=complex)
    alpha_rows = alpha.matrix.T                   # alpha(a_j) as rows
    mult = worst(_unit_defects(alpha, eye, alpha_rows)[..., 0])
    if not mult <= tol:
        raise ValueError(f"first map is not multiplicative ({mult:.3e})")
    one = alg.unit()

    def tensor_one(cs: np.ndarray) -> np.ndarray:
        """Coefficients of c⊗1 for each c of a (..., dim) stack."""
        return (cs[..., :, None] * one).reshape(*cs.shape[:-1], x.amb)

    # [a, b]: the classes of a⊗b, a·alpha(b)⊗1, b·a⊗1, and of (a⊗1)·b and
    # b·(a⊗1) by the action tables; c⊗1 has class c @ one_class
    simple = x.qx.T.reshape(alg.dim, alg.dim, x.r)
    one_class = (x.qx.reshape(x.r, alg.dim, alg.dim) @ one).T
    moved = pair_products(alg, eye, alpha_rows) @ one_class
    swapped = pair_products(alg, eye, eye).swapaxes(0, 1) @ one_class
    right, left = (np.einsum("bcs,as->abc", acts, one_class) for acts in (x.rho_t, x.lam_t))
    phis = tensor_one(eye)                                               # a⊗1
    squares = block_product(alg, block_adjoint(alg, eye), eye) @ transfer.matrix.T
    isometry = abs(x.module_norm(phis) - np.sqrt(block_norms(alg, squares)))

    # u·alpha(transfer(v*·w))⊗1 against the bracket of u⊗1, v⊗1, w⊗1
    draws = alg.random_coords(rng, 3 * samples).reshape(samples, 3, alg.dim)
    u, v, w = draws.swapaxes(0, 1)                # triple t is draws 3t, 3t+1, 3t+2
    lhs = block_product(alg, u, block_product(alg, block_adjoint(alg, v), w)
                        @ transfer.matrix.T @ alpha.matrix.T) @ one_class
    rhs = x.ternary(tensor_one(u), tensor_one(v), tensor_one(w)) @ x.qx.T
    return {
        "density": worst_norm(simple - moved),
        "isometry": worst(isometry),
        "module_map_right": worst_norm(moved - right),
        "module_map_left": worst_norm(swapped - left),
        "ternary": worst_norm(lhs - rhs),
    }
