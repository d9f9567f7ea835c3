"""Two-block Hilbert-space realization of a verified pair as (pi, S).

The space is the module quotient (r) plus the right-hand operator span K (s)
with its trace-state inner product.  pi acts diagonally: on the module by the
module's coefficient action, on K by left multiplication read in K's
orthonormal basis (``BasicConstruction.in_k`` of λ).  S has one block T: it
maps K into the module through the action on 1⊗1.  So every defining
relation is an identity on one block, r×r or s×s, and is verified at build
time there; the faithful extension adds the trace summand to pi and
reads only pi's own relations again.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    Algebra,
    Sparse,
    at_units,
    block_norms,
    contract,
    generated_subalgebra,
    law_defects,
    representation_defects,
    row_chunks,
    unit_table,
    worst,
    worst_key,
    worst_norm,
)
from .bimodule import BimoduleX, build_bimodule
from .interactions import Interaction, _injectivity_gate


class CovariantError(ValueError):
    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class CovariantRep:
    """The covariant representation (pi, S) of a pair on n = r + s
    dimensions: the module summand (r) and the operator-span summand (s).
    The build makes pi exactly 0 off its two diagonal blocks, pi_m on the
    module and pi_k on the span, and S exactly 0 outside its one block
    T = smat[:r, r:], from the span into the module.  So each relation is read
    on the block where it lives, over stacks formed once: SS* = TT* (r, r) and
    pi_v = pi∘V (dim, r, r) on the module, S*S = T*T (s, s) and pi_h = pi∘H
    (dim, s, s) on the span."""

    def __init__(self, interaction: Interaction, x: BimoduleX, r: int, s: int,
                 pi: np.ndarray, smat: np.ndarray, tol: float):
        self.interaction, self.x, self.r, self.s = interaction, x, r, s
        self.pi, self.smat, self.tol = pi, smat, tol
        self.pi_m, self.pi_k, self.t = pi[:, :r, :r], pi[:, r:, r:], smat[:r, r:]
        self.ss, self.s_s = self.t @ self.t.conj().T, self.t.conj().T @ self.t
        self.pi_v = np.tensordot(interaction.v.matrix.T, self.pi_m, axes=1)
        self.pi_h = np.tensordot(interaction.h.matrix.T, self.pi_k, axes=1)

    @property
    def n(self) -> int:
        return self.r + self.s

    @cached_property
    def residuals(self) -> dict[str, float]:
        """Defining relations: pi is a *-homomorphism, S a partial isometry
        (TT*T = T), and S is covariant for both maps: T·pi_k(a)·T* = pi_m(V(a))·TT*
        and T*·pi_m(a)·T = pi_k(H(a))·T*T; the largest entry of pi off its blocks
        counts in pi_multiplicative, and of S outside T in partial_isometry."""
        r, pi, smat, t, t_adj = self.r, self.pi, self.smat, self.t, self.t.conj().T
        mult, star = representation_defects(self.interaction.algebra, pi)
        return {
            "pi_multiplicative": worst(mult, abs(pi[:, :r, r:]), abs(pi[:, r:, :r])),
            "pi_star": star,
            "partial_isometry": worst(np.linalg.norm(self.ss @ t - t), abs(smat[:, :r]),
                                      abs(smat[r:])),
            "covariance_v": worst_norm(t @ self.pi_k @ t_adj - self.pi_v @ self.ss,
                                       axis=(-2, -1)),
            "covariance_h": worst_norm(t_adj @ self.pi_m @ t - self.pi_h @ self.s_s,
                                       axis=(-2, -1)),
        }


def build_covrep(inter: Interaction, x: BimoduleX | None = None,
                 tol: float | None = None) -> CovariantRep:
    tol = inter.tol if tol is None else tol
    x = build_bimodule(inter, tol) if x is None else x
    dim, r, m = inter.algebra.dim, x.r, x.bch.m
    s = x.bch.k_basis.shape[0]

    pi = np.zeros((dim, r + s, r + s), dtype=complex)
    pi[:, :r, :r] = x.lam_t
    pi[:, r:, r:] = x.bch.in_k(Sparse.of(x.bch.lam))      # [i, c, b] = <k_c, lam(a_i)·k_b>

    # S sends the span basis k_b to the class of (1⊗1)·k_b, scaled by sqrt(m)
    smat = np.zeros_like(pi[0])
    unit = inter.algebra.unit()
    smat[:r, r:] = np.sqrt(m) * x.span_action(np.outer(unit, unit)[None], "right")[0].T

    rep = CovariantRep(interaction=inter, x=x, r=r, s=s, pi=pi, smat=smat, tol=tol)
    bad = worst_key(rep.residuals)
    if not rep.residuals[bad] <= max(tol, 1e-8):
        raise CovariantError(f"representation identities fail at {bad} "
                             f"({rep.residuals[bad]:.3e})", rep.residuals)
    return rep


# -- checks -----------------------------------------------------------------------


def check_commutation_22(rep: CovariantRep) -> dict[str, float]:
    """Images of the two ranges commute with the matching support projection."""
    return {"range_v_commutes_support": worst_norm(
                rep.pi_v @ rep.ss - rep.ss @ rep.pi_v, axis=(-2, -1)),
            "range_h_commutes_support": worst_norm(
                rep.pi_h @ rep.s_s - rep.s_s @ rep.pi_h, axis=(-2, -1))}


def check_corner_isomorphisms(rep: CovariantRep) -> dict[str, float]:
    """The corner maps are isometric *-homomorphisms on the opposite range: the
    images of the range rows x_i and of their products x_i·x_k (by ``unit_table``),
    over the nonzeros of the rows, of pi_t·proj and of that table, a chunk of
    first rows at a time."""
    inter = rep.interaction
    alg, units = inter.algebra, unit_table(inter.algebra)
    mult, iso = [], []
    for rows, pi_t, proj in ((inter.range_h.basis, rep.pi_v, rep.ss),
                             (inter.range_v.basis, rep.pi_h, rep.s_s)):
        xs, moved = Sparse.of(rows), Sparse.of(pi_t @ proj)
        images = contract("ia,axy->ixy", xs, moved)
        iso.append(abs(np.linalg.norm(images.dense(), 2, axis=(-2, -1)) - block_norms(alg, rows)))

        def sides(first: slice) -> tuple[Sparse, Sparse]:    # [i, k, (x, y)]
            products = contract("ibj,kb->ikj", contract("ia,abj->ibj", xs.rows(first), units), xs)
            return (contract("ikj,jxy->ikxy", products, moved).reshape(-1, proj.size),
                    contract("ixz,kzy->ikxy", images.rows(first), images).reshape(-1, proj.size))
        # a first row meets about as many entries as the images hold, and a
        # sparse entry, formed and merged, takes about 8 dense ones
        mult.append(law_defects(map(sides, row_chunks(len(rows), 8 * len(images.at))))[0])
    return {"corner_multiplicative": worst(*mult), "corner_isometric": worst(*iso)}


def check_corner_norms(rep: CovariantRep) -> dict[str, float]:
    """∥pi(V(a)) SS*∥ recovers ∥V(a)∥ on every basis element."""
    inter = rep.interaction
    gaps = []
    for t, pi_t, proj in ((inter.v, rep.pi_v, rep.ss), (inter.h, rep.pi_h, rep.s_s)):
        want = block_norms(inter.algebra, t.matrix.T)
        got = np.linalg.norm(pi_t @ proj, 2, axis=(-2, -1))
        gaps.append(abs(got - want) / np.maximum(1.0, want))
    return {"corner_norm_equality": worst(*gaps)}


def check_unit_relations(rep: CovariantRep) -> dict[str, float]:
    """Images of the units of the two ranges fix the support projections."""
    one = rep.interaction.algebra.unit()
    return {
        "v_unit_fixes_support": float(np.linalg.norm(
            np.tensordot(one, rep.pi_v, axes=1) @ rep.ss - rep.ss)),
        "h_unit_fixes_support": float(np.linalg.norm(
            np.tensordot(one, rep.pi_h, axes=1) @ rep.s_s - rep.s_s)),
    }


def check_nondegeneracy(rep: CovariantRep) -> dict[str, float]:
    """Injectivity gates of x -> pi(x)S on the first range (and its generated
    algebra), mirrored as S·pi(x) on the second: on the block of T, these are
    pi_m(x)·T and T·pi_k(x)."""
    inter, tol = rep.interaction, rep.tol
    gates = {}
    for name, space in (("v", inter.range_v), ("h", inter.range_h)):
        generated = generated_subalgebra(space.algebra, space.basis, tol)
        for kind, sub in (("range", space), ("generated", generated)):
            moved = (np.tensordot(sub.basis, rep.pi_m, axes=1) @ rep.t if name == "v"
                     else rep.t @ np.tensordot(sub.basis, rep.pi_k, axes=1))
            gates[f"gate_{kind}_{name}"] = _injectivity_gate(moved, space.algebra.matrix_size)
    gates["nondegenerate"] = float(min(gates.values()) > tol)
    # passing the plain-range gate must imply passing the generated one
    implication_ok = ((gates["gate_range_v"] <= tol or gates["gate_generated_v"] > tol)
                      and (gates["gate_range_h"] <= tol or gates["gate_generated_h"] > tol))
    gates["implication_violation"] = float(not implication_ok)
    return gates


class FaithfulRep(NamedTuple):
    """A representation with the trace summand appended to its pi, so that
    pi is injective; ``injectivity`` is its smallest singular value."""
    pi: np.ndarray
    smat: np.ndarray
    injectivity: float
    residuals: dict[str, float]


def faithful_extension(rep: CovariantRep) -> FaithfulRep:
    """Append the trace representation so the algebra embeds injectively.
    S extends by zero, so its relations are the representation's own; only
    the *-homomorphism defects are read again, on pi ⊕ trace."""
    dim, n = rep.pi.shape[:2]
    big = n + dim
    pi = np.zeros((dim, big, big), dtype=complex)
    pi[:, :n, :n] = rep.pi
    pi[:, n:, n:] = at_units(np.eye(dim), rep.interaction.algebra.unit_products).swapaxes(0, 1)
    smat = np.zeros((big, big), dtype=complex)
    smat[:n, :n] = rep.smat
    sv = np.linalg.svd(pi.reshape(dim, big * big).T, compute_uv=False)
    mult, star = representation_defects(rep.interaction.algebra, pi)
    return FaithfulRep(pi, smat, float(sv.min()),
                       {**rep.residuals, "pi_multiplicative": mult, "pi_star": star})


def rep_ambient_data(rep: CovariantRep) -> tuple[Algebra, np.ndarray, np.ndarray]:
    """Package (ambient matrix algebra, embedded basis, S) for reconstruction:
    the (dim, n²) coordinate rows of pi and the (n²,) coordinates of S."""
    return Algebra((rep.n,)), rep.pi.reshape(len(rep.pi), -1), rep.smat.reshape(-1)


def check_derive_roundtrip(rep: CovariantRep) -> dict[str, float]:
    """Reconstructing the pair from (pi(A), S) recovers the original maps."""
    from .interactions import derive_from_partial_isometry

    ambient, embedded, s_coords = rep_ambient_data(rep)
    result = derive_from_partial_isometry(rep.interaction.algebra, ambient, embedded,
                                          s_coords, max(rep.tol, 1e-9))
    got = result.interaction
    return {
        "v_recovered": float(np.linalg.norm(got.v.matrix - rep.interaction.v.matrix)),
        "h_recovered": float(np.linalg.norm(got.h.matrix - rep.interaction.h.matrix)),
    }


def with_zero_s(rep: CovariantRep) -> CovariantRep:
    """The degenerate variant with the same pi and S = 0 (still covariant)."""
    return CovariantRep(rep.interaction, rep.x, rep.r, rep.s, rep.pi, np.zeros_like(rep.smat),
                        rep.tol)
