"""Two-block Hilbert-space realization of a verified pair as (pi, S).

The space is the module quotient plus the right-hand operator span with its
trace-state inner product; pi acts diagonally and S maps the second summand
into the first through the action on 1⊗1.  All defining relations of the
representation are matrix identities here and are verified at build time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import (
    Algebra,
    at_units,
    block_norms,
    generated_subalgebra,
    pair_products,
    representation_defects,
    row_chunks,
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


class _Relations:
    """The stacks a representation (pi, S) of a pair is checked on, each
    computed once, and the residuals of its defining relations."""

    interaction: Interaction
    pi: np.ndarray            # (dim, n, n): representation of each basis element
    smat: np.ndarray          # (n, n): the partial isometry

    @cached_property
    def ss(self) -> np.ndarray:
        """SS*, the support projection of S."""
        return self.smat @ self.smat.conj().T

    @cached_property
    def s_s(self) -> np.ndarray:
        """S*S, the initial projection of S."""
        return self.smat.conj().T @ self.smat

    @cached_property
    def pi_v(self) -> np.ndarray:
        """(dim, n, n): pi(V(a_i)) for each basis element."""
        return np.tensordot(self.interaction.v.matrix.T, self.pi, axes=1)

    @cached_property
    def pi_h(self) -> np.ndarray:
        """(dim, n, n): pi(H(a_i)) for each basis element."""
        return np.tensordot(self.interaction.h.matrix.T, self.pi, axes=1)

    @cached_property
    def residuals(self) -> dict[str, float]:
        """Defining relations: pi is a *-homomorphism, S a partial isometry,
        and S is covariant for both maps."""
        pi, smat = self.pi, self.smat
        mult, star = representation_defects(self.interaction.algebra, pi)
        s_adj = smat.conj().T
        return {
            "pi_multiplicative": mult,
            "pi_star": star,
            "partial_isometry": float(np.linalg.norm(smat @ s_adj @ smat - smat)),
            "covariance_v": worst_norm(smat @ pi @ s_adj - self.pi_v @ self.ss,
                                       axis=(-2, -1)),
            "covariance_h": worst_norm(s_adj @ pi @ smat - self.pi_h @ self.s_s,
                                       axis=(-2, -1)),
        }


class CovariantRep(_Relations):
    """The covariant representation (pi, S) of a pair on n = r + s
    dimensions: the module summand (r) and the operator-span summand (s)."""

    def __init__(self, interaction: Interaction, x: BimoduleX, r: int, s: int,
                 pi: np.ndarray, smat: np.ndarray, tol: float):
        self.interaction, self.x, self.r, self.s = interaction, x, r, s
        self.pi, self.smat, self.tol = pi, smat, tol

    @property
    def n(self) -> int:
        return self.r + self.s


def build_covrep(inter: Interaction, x: BimoduleX | None = None,
                 tol: float | None = None) -> CovariantRep:
    tol = inter.tol if tol is None else tol
    x = build_bimodule(inter, tol) if x is None else x
    dim, r, m = inter.algebra.dim, x.r, x.bch.m
    s = x.bch.k_basis.shape[0]

    pi = np.zeros((dim, r + s, r + s), dtype=complex)
    pi[:, :r, :r] = x.lam_t
    # [i, b, c] = <k_c, lam(a_i)·k_b>: the span summand acts by left multiplication
    ks = x.bch.k_basis.reshape(s, m, m)
    for rows in row_chunks(dim, s * m * m):        # (rows, s, m, m) products at a time
        pi[rows, r:, r:] = x.bch.express_in_k(x.bch.lam[rows, None] @ ks)[0].swapaxes(1, 2)

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
    """The corner maps are isometric *-homomorphisms on the opposite range."""
    inter = rep.interaction
    alg = inter.algebra
    mult, iso = [], []
    for rows, pi_t, proj in ((inter.range_h.basis, rep.pi_v, rep.ss),
                             (inter.range_v.basis, rep.pi_h, rep.s_s)):
        images = np.tensordot(rows, pi_t, axes=1) @ proj
        iso.append(abs(np.linalg.norm(images, 2, axis=(-2, -1)) - block_norms(alg, rows)))
        # the products of every pair of range rows, a chunk of first rows at a time
        for first in row_chunks(len(rows), images.size):
            products = pair_products(alg, rows[first], rows)
            mult.append(np.linalg.norm(np.tensordot(products, pi_t, axes=1) @ proj
                                       - images[first, None] @ images, axis=(-2, -1)))
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
    inter = rep.interaction
    one = inter.algebra.unit()
    return {
        "v_unit_fixes_support": float(np.linalg.norm(
            np.tensordot(inter.v.matrix @ one, rep.pi, axes=(0, 0)) @ rep.ss - rep.ss)),
        "h_unit_fixes_support": float(np.linalg.norm(
            np.tensordot(inter.h.matrix @ one, rep.pi, axes=(0, 0)) @ rep.s_s - rep.s_s)),
    }


def check_nondegeneracy(rep: CovariantRep) -> dict[str, float]:
    """Injectivity gates of x -> pi(x)S on the first range (and its generated
    algebra), mirrored as S·pi(x) on the second."""
    inter, tol = rep.interaction, rep.tol
    ambient, embedded, s_coords = rep_ambient_data(rep)
    gates = {}
    for name, space, side in (("v", inter.range_v, "right"), ("h", inter.range_h, "left")):
        generated = generated_subalgebra(space.algebra, space.basis, tol)
        for kind, sub in (("range", space), ("generated", generated)):
            gates[f"gate_{kind}_{name}"] = _injectivity_gate(
                ambient, sub.basis @ embedded, s_coords, side, space.algebra.matrix_size)
    gates["nondegenerate"] = float(min(gates.values()) > tol)
    # passing the plain-range gate must imply passing the generated one
    implication_ok = ((gates["gate_range_v"] <= tol or gates["gate_generated_v"] > tol)
                      and (gates["gate_range_h"] <= tol or gates["gate_generated_h"] > tol))
    gates["implication_violation"] = float(not implication_ok)
    return gates


class FaithfulRep(_Relations):
    """A representation with the trace summand appended to its pi, so that
    pi is injective; ``injectivity`` is its smallest singular value."""

    def __init__(self, interaction: Interaction, pi: np.ndarray, smat: np.ndarray,
                 injectivity: float):
        self.interaction, self.pi, self.smat, self.injectivity = interaction, pi, smat, injectivity


def faithful_extension(rep: CovariantRep) -> FaithfulRep:
    """Append the trace representation so the algebra embeds injectively;
    S extends by zero, so every relation survives unchanged."""
    dim, n = rep.pi.shape[:2]
    big = n + dim
    pi = np.zeros((dim, big, big), dtype=complex)
    pi[:, :n, :n] = rep.pi
    pi[:, n:, n:] = at_units(np.eye(dim), rep.interaction.algebra.unit_products).swapaxes(0, 1)
    smat = np.zeros((big, big), dtype=complex)
    smat[:n, :n] = rep.smat
    sv = np.linalg.svd(pi.reshape(dim, big * big).T, compute_uv=False)
    return FaithfulRep(interaction=rep.interaction, pi=pi, smat=smat,
                       injectivity=float(sv.min()))


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
