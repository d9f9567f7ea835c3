"""The two-sided module built on A⊗A from a verified pair of maps.

Elementary tensors a⊗b carry two operator-valued inner products — a right
one landing in the span built from the second map's expectation, a left one
landing in the span built from the first map's — plus left/right algebra
actions and a ternary product.  Both inner products induce the same
seminorm; the quotient by its kernel is finite-dimensional and everything
is realized as explicit tensors over the quotient coordinates.  Products of
matrix units are taken by index (``algebra.unit_map`` and ``at_units``), and
a coefficient matrix meets V and H one pair of blocks at a time (``_factor``),
so no array of the module has dim³ entries; each Gram matrix of the basis
tensors is a block form of one piece per block pair in closed form, and the
right one is cut by ``eigen_quotient``.  Operators of a span are held by their
coordinates on its orthonormal basis and act by their pair presentations only
(``right_act``, ``left_act``): a span acts through the presentations of its
basis (``span_action``), both inner products are presentations read off the
same action factors (``_inner_factors``), taken to span coordinates by the
span's pair vectors (``pairs_in_k``), and products in a span are its ``in_k``,
so the tables over the representatives are in span coordinates.  They and the
quotient map (``q_t``) are exactly zero off a small pattern, so the laws
5.6-5.17 read them by their nonzeros (``algebra.Sparse``, ``contract``,
``law_defects``), and the (r, r, r, r) bracket exists only as its nonzeros.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

import numpy as np

from .algebra import (
    BlockForm,
    Draws,
    Sparse,
    at_units,
    block_adjoint,
    block_product,
    contract,
    copy_index,
    hermitian_part,
    law_defects,
    orthonormal_rows,
    psd_defect,
    psd_sqrt,
    psd_top,
    row_chunks,
    singular_values,
    unit_map,
    unit_table,
    worst,
)
from .basic_construction import (
    BasicConstruction,
    basic_for_h,
    basic_for_v,
    eigen_quotient,
)
from .interactions import Interaction


class BimoduleX:
    """Quotient module with both inner products presented in their spans.

    Tensors are (..., dim²) coefficient stacks: the coefficients of a⊗b are
    kron(coords(a), coords(b)).  Algebra elements are (..., dim) coordinate
    stacks.  Every method broadcasts over the leading axes, so one tensor is
    a stack with no leading axis, and a sweep over samples or
    representatives is one call.
    """

    def __init__(self, inter: Interaction, bch: BasicConstruction,
                 bcv: BasicConstruction, tol: float):
        alg = inter.algebra
        self.inter, self.algebra, self.bch, self.bcv, self.tol = inter, alg, bch, bcv, tol
        self.dim, self.amb, self.sigma = alg.dim, alg.dim ** 2, alg.star_perm

        # the positions (take, at, put) of ``_factor`` on each pair of block sizes
        n, units = self.dim, [idx.reshape(len(idx), d, d) for d, idx in alg.size_groups]
        pairs = [(up[:, None], uq[None], up.swapaxes(1, 2)[:, None], uq.swapaxes(1, 2)[None])
                 for up, uq in product(units, repeat=2)]
        self.pair_index = {
            "right": tuple((copy_index(up, uq_t, n), copy_index(up, uq, n), copy_index(up, uq, n))
                           for up, uq, _, uq_t in pairs),
            "left": tuple((copy_index(up, uq_t, n), copy_index(up_t, n * uq_t, 1),
                           copy_index(up_t, uq_t, n)) for up, _, up_t, uq_t in pairs)}
        self.v_mat, self.h_mat = inter.v.matrix, inter.h.matrix     # the matrices it reads

        quot = eigen_quotient(self._gram_pieces("right"), tol, (
            "module collapses: both inner products vanish",
            "right inner product form is not positive (broken input pair)",
            "module quotient ill-conditioned"))
        self.r, self.gram_spectrum, self.null_r = quot.kept.size, quot.kept, quot.null
        self.qx, self.liftx, self.classes = quot.q, quot.lift, quot.classes
        self.pieces_l = self._gram_pieces("left")     # for 5.4, on the same coordinates

    # -- inner products and norms ----------------------------------------------

    def _gram_pieces(self, side: str) -> BlockForm:
        """The Gram matrix of the basis tensors under one inner product (side "right" or
        "left") and the trace state, as one piece g_bc per block pair, each its own stack, in
        the order of the right quotient's ``null``.  λ is a *-homomorphism, so for the state
        τ(x) = tr(λ(x)·e)/m the trace state is τ_h(d·b*·H(a*·c)) on the right and
        τ_v(c*·a·V(b·d*)) on the left; for e_pq, e_p'q' in block b and e_rs, e_r's' in block c
            g_bc[(q, r), (q', r')] = τ_h(e_r'r·H(e_qq')) or τ_v(e_q'q·V(e_rr'))
        on every copy (p, s), with τ(e_r'r·x) = Σ_β τ(e_r'β)·x[r, β] on block c."""
        t, bc = (self.inter.h, self.bch) if side == "right" else (self.inter.v, self.bcv)
        tau = np.zeros(self.dim + 1, dtype=complex)      # [-1] takes the entries of no unit
        np.add.at(tau, bc.lam_at, bc.e.T / bc.m)
        pieces = []
        for ub, uc in product(self.algebra.units, repeat=2):
            g = (np.einsum("xb,rbqk->qrkx", tau[uc], t.matrix[uc][..., ub]) if side == "right"
                 else np.einsum("kb,qbrx->qrkx", tau[ub], t.matrix[ub][..., uc]))
            pieces.append((hermitian_part(g.reshape(1, len(ub) * len(uc), -1)),
                           copy_index(ub, uc.T, self.dim)[None]))
        return BlockForm(pieces)

    def _coeff_mats(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.reshape(*coeffs.shape[:-1], self.dim, self.dim)

    def _coeffs(self, mats: np.ndarray) -> np.ndarray:
        return mats.reshape(*mats.shape[:-2], self.amb)

    def _inner_factors(self, ss: np.ndarray, ts: np.ndarray, side: str) -> tuple:
        """Two (..., dim, dim) stacks xs, ys whose products xs @ ys are the pair
        presentations (``right_act``) of one side's inner products of two coefficient
        stacks.  λ is a *-homomorphism, so
            <a⊗b, c⊗d>_r = λ_h(b*·H(a*·c))·e_h·λ_h(d)
            <a⊗b, c⊗d>_l = λ_v(a·V(b·d*))·e_v·λ_v(c*)
        whence, for coefficient matrices s, t, the presentations L(s)[σ, σ]^H @ t on
        the right and R(s)[:, σ] @ t^H[:, σ] on the left, where L and R are the
        action factors and a_σ(i) = a_i*."""
        sigma, s_m, t_m = self.sigma, self._coeff_mats(ss), self._coeff_mats(ts)
        if side == "right":
            return (self._factor(s_m, "left")[..., sigma[:, None], sigma].conj().swapaxes(-1, -2),
                    t_m)
        return self._factor(s_m, "right")[..., sigma], t_m.conj().swapaxes(-1, -2)[..., sigma]

    def _inner_presentation(self, ss: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
        """(..., dim, dim): the products of ``_inner_factors``, by plain einsum."""
        return np.einsum("...ik,...kj->...ij", *self._inner_factors(ss, ts, side))

    def _inner(self, ss: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
        bc = self.bch if side == "right" else self.bcv
        coords = bc.pairs_in_k(self._inner_presentation(ss, ts, side))
        ks = np.einsum("...w,wx->...x", coords, bc.k_basis)
        return ks.reshape(*ks.shape[:-1], bc.m, bc.m)

    def inner_r(self, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """(..., m_h, m_h): the right inner products of two coefficient
        stacks (..., dim²) that broadcast together, read off their
        presentations (``_inner_factors``) on the span basis."""
        return self._inner(ss, ts, "right")

    def inner_l(self, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """(..., m_v, m_v): the left inner products, as ``inner_r``."""
        return self._inner(ss, ts, "left")

    def module_norm(self, ts: np.ndarray) -> np.ndarray:
        """(...): the norm ∥<t, t>_r∥^½ of each tensor of a coefficient stack."""
        return np.sqrt(psd_top(self.inner_r(ts, ts)))

    def module_norm_left(self, ts: np.ndarray) -> np.ndarray:
        """(...): the norm ∥<t, t>_l∥^½ of each tensor of a coefficient stack."""
        return np.sqrt(psd_top(self.inner_l(ts, ts)))

    def norm_two_ways(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(2, ...): the closed-form norms of sum a_i*⊗b_i by grid calculus,
        ∥H_n[a_i a_j*]^½ · (HV)_n[b_i b_j*]^½∥ and
        ∥(VH)_n[a_i a_j*]^½ · V_n[b_i b_j*]^½∥, for the pairs of two
        (..., n, dim) coordinate stacks.  A map on n-by-n grids acts cell by
        cell, so the maps are applied to the cells a_i·a_j* and b_i·b_j*, and
        each block size is regrouped into (n·d)-square grids for one batched
        root and one batched 2-norm."""
        alg, vt, ht = self.algebra, self.inter.v.matrix.T, self.inter.h.matrix.T
        ab = np.stack([a, b])
        cells = block_product(alg, ab[..., :, None, :], block_adjoint(alg, ab)[..., None, :, :])
        ha, vb = cells[0] @ ht, cells[1] @ vt
        grids = np.stack([ha, vb @ ht, ha @ vt, vb])
        n = a.shape[-2]
        norms = np.zeros((2, *a.shape[:-2]))
        for d, idx in alg.size_groups:
            g = grids[..., idx].reshape(*grids.shape[:-1], len(idx), d, d)
            # [..., i, j, block, r, s] -> [..., block, (i, r), (j, s)]
            g = np.moveaxis(g, (-5, -4, -3), (-4, -2, -5))
            roots = psd_sqrt(g.reshape(*g.shape[:-4], n * d, n * d))
            prods = np.stack([roots[0] @ roots[1], roots[2] @ roots[3]])
            norms = np.maximum(norms, singular_values(prods).max(axis=(-2, -1)))
        return norms

    # -- module actions ----------------------------------------------------------
    # An operator k of a span acts through a pair presentation c, with
    # k = sum c[p, q] lam(a_p) e lam(a_q), as a (..., dim, dim) stack; an
    # operator held by its span coordinates w has the least-norm presentation
    # w @ k_dual.  The coefficient matrix of t·k is _factor(t, "right") @ c,
    # that of k·t is c @ _factor(t, "left").

    def _factor(self, xs: np.ndarray, side: str) -> np.ndarray:
        """(..., dim, dim): the action factor of each coefficient matrix x of a stack,
        [a, p] = coords_a(Σ_ij x[i, j]·a_i·V(a_j a_p)) on the right and [q, a] =
        coords_a(Σ_ij x[i, j]·H(a_q a_i)·a_j) on the left: for a = e_xz of block P and
        p = e_bc of block Q, Σ_{y,a'} x[e_xy, e_a'b]·V[e_yz, e_a'c], and for q = e_bc of
        P and a = e_xz of Q, Σ_{d,y} H[e_xy, e_bd]·x[e_cd, e_yz].  Per pair of block
        sizes that is x at [(r, c'), (r', c)] = x[e_rr', e_cc'] (``take``) times V at
        [(y, a'), (z, c)] or H at [(d, y), (b, x)] (``at``), one batched product read
        back from [(x, b), (z, c)] or [(c, z), (b, x)] (``put``)."""
        flat = xs.reshape(*xs.shape[:-2], self.amb)
        mat = (self.v_mat if side == "right" else self.h_mat).reshape(-1)
        out = np.empty(flat.shape, dtype=complex)
        for take, at, put in self.pair_index[side]:
            out[..., put] = flat[..., take] @ mat[at]
        return out.reshape(xs.shape)

    def right_act(self, ts: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """(..., dim²): t·k for a coefficient stack ts and the (..., dim, dim) pair
        presentations ``coeff`` of operators k in the right span, broadcast together."""
        return self._coeffs(self._factor(self._coeff_mats(ts), "right") @ coeff)

    def left_act(self, coeff: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """(..., dim²): k·t for the presentations ``coeff`` of operators k in the
        left span, as ``right_act``."""
        return self._coeffs(coeff @ self._factor(self._coeff_mats(ts), "left"))

    def span_action(self, mats: np.ndarray, side: str) -> np.ndarray:
        """(n, k, r): [i, j] is the class of t_i·k_j (side "right") or of k_j·t_i
        ("left") for an (n, dim, dim) stack of coefficient matrices t_i and the
        side's orthonormal span basis k_j (``k_basis``), presented by ``k_dual``
        as ``right_act`` and ``left_act`` take any operator.
        The class w of a coefficient matrix c is Σ q[w, a, b]·c[a, b]: q meets
        the presentations first, over the tables' nonzeros."""
        bc = self.bch if side == "right" else self.bcv
        q, coeff = self.q_t, Sparse.of(bc.k_dual.reshape(-1, self.dim, self.dim))
        if side == "right":                     # t·k has the coefficients factor(t) @ c
            moved = contract("wab,jlb->jwal", q, coeff)
            return contract("ial,jwal->ijw", Sparse.of(self._factor(mats, side)), moved).dense()
        moved = contract("wab,jal->jwlb", q, coeff)     # k·t has c @ factor(t)
        return contract("ilb,jwlb->ijw", Sparse.of(self._factor(mats, side)), moved).dense()

    def act_a(self, a: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
        """(..., dim²): a·t (side "left") or t·a (side "right") for a
        (..., dim) coordinate stack a and a coefficient stack ts."""
        xm, a = self._coeff_mats(ts), a[..., None, :]
        if side == "left":      # a·(a_i⊗a_j) = (a·a_i)⊗a_j: a times each column's first leg
            out = block_product(self.algebra, a, xm.swapaxes(-1, -2)).swapaxes(-1, -2)
        elif side == "right":   # (a_i⊗a_j)·a = a_i⊗(a_j·a): each row's second leg times a
            out = block_product(self.algebra, xm, a)
        else:
            raise ValueError("side must be 'left' or 'right'")
        return self._coeffs(out)

    # -- ternary product -----------------------------------------------------------

    def ternary(self, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """(..., dim²): x · <y, z>_r over three coefficient stacks, acting
        through the presentation of <y, z>_r."""
        return self.right_act(xs, self._inner_presentation(ys, zs, "right"))

    def _elementary_factors(self, xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The elementary formula over (..., dim, dim) coefficient matrix
        stacks as a matrix product: the coefficient matrix for x, y, z is
        lefts @ y* @ rights, lefts from x alone and rights from z alone."""
        sigma = self.sigma
        return self._factor(xs, "right")[..., sigma], self._factor(zs, "left")[..., sigma, :]

    def ternary_elementary(self, xs: np.ndarray, ys: np.ndarray,
                           zs: np.ndarray) -> np.ndarray:
        """(..., dim²): the trilinear extension of the elementary-tensor
        formula over three coefficient stacks."""
        xm, ym, zm = map(self._coeff_mats, (xs, ys, zs))
        lefts, rights = self._elementary_factors(xm, zm)
        return self._coeffs(lefts @ ym.conj().swapaxes(-1, -2) @ rights)

    # -- quotient tables over the representatives, each built on first use ------
    # Class coordinates come last; the checks and the correspondence read
    # these instead of sweeping the methods above over the representatives.

    @cached_property
    def q_t(self) -> Sparse:
        """(r, dim, dim): the quotient map qx over its nonzeros, [w, a, b] the weight
        of the tensor a_a⊗a_b in class w."""
        return Sparse.of(self.qx.reshape(self.r, self.dim, self.dim))

    @cached_property
    def rep_mats(self) -> np.ndarray:
        """(r, dim, dim): the representatives as coefficient matrices."""
        return self.liftx.T.reshape(self.r, self.dim, self.dim)

    def _inner_table(self, side: str) -> np.ndarray:
        """(r, r, k): one side's inner products over pairs of representatives in
        span coordinates, read off their presentations a chunk of rows at a time,
        so that no (r, r, m, m) array is formed."""
        bc = self.bch if side == "right" else self.bcv
        xs, ys = self._inner_factors(self.liftx.T, self.liftx.T, side)
        return np.concatenate([bc.pairs_in_k(xs[rows, None] @ ys)
                               for rows in row_chunks(self.r, self.r * self.amb)])

    @cached_property
    def inner_r_t(self) -> np.ndarray:
        """(r, r, k_h): inner_r over pairs of representatives, in span coordinates."""
        return self._inner_table("right")

    @cached_property
    def inner_l_t(self) -> np.ndarray:
        """(r, r, k_v): inner_l over pairs of representatives, in span coordinates."""
        return self._inner_table("left")

    @cached_property
    def right_act_t(self) -> np.ndarray:
        """(r, k_h, r): the ``span_action`` of the representatives on the right."""
        return self.span_action(self.rep_mats, "right")

    @cached_property
    def left_act_t(self) -> np.ndarray:
        """(r, k_v, r): the ``span_action`` of the representatives on the left."""
        return self.span_action(self.rep_mats, "left")

    @cached_property
    def bracket_t(self) -> Sparse:
        """(r, r, r, r): [i, j, k] is the class of rep_i · inner_r(rep_j, rep_k),
        the right action table against the span coordinates inner_r_t, formed
        over their nonzeros only."""
        return contract("iwc,jkw->ijkc", Sparse.of(self.right_act_t), Sparse.of(self.inner_r_t))

    def _unit_moves(self, side: str) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> a_i·t (side "left") or t -> t·a_i
        ("right") on class coordinates.  A class is one kept vector v of the piece
        of a block pair (b, c) on one copy (p, s), its representative v on the
        tensors e_pq⊗e_rs.  So the build forces both to be E ⊗ I on the classes:
        e_xp of block b moves copy (p, s) to (x, s), and the right action of e_sy
        of block c moves it to (p, y), the left action of its transpose on the
        copies (s, p).  They are set by ``unit_map``, as ``build_basic`` sets λ."""
        units, classes = [], []
        for (ub, uc), c in zip(product(self.algebra.units, repeat=2), self.classes):
            c = c.reshape(len(ub), len(uc), -1)                     # [p, s, v]
            units.append(ub if side == "left" else uc.T)
            classes.append(c if side == "left" else c.swapaxes(0, 1))
        return at_units(np.eye(self.dim, dtype=complex), unit_map(units, classes, self.r))

    @cached_property
    def lam_t(self) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> a_i·t on class coordinates."""
        return self._unit_moves("left")

    @cached_property
    def rho_t(self) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> t·a_i on class coordinates."""
        return self._unit_moves("right")

    @cached_property
    def slot_defects(self) -> dict[str, float]:
        """``slot_adjoint_defects`` of the tables, for 5.17 and the correspondence."""
        return slot_adjoint_defects(self.bracket_t, self.lam_t, self.rho_t, self.sigma)


def build_bimodule(inter: Interaction, tol: float | None = None) -> BimoduleX:
    tol = inter.tol if tol is None else tol
    return BimoduleX(inter, basic_for_h(inter, tol), basic_for_v(inter, tol), tol)


# -- structural checks -------------------------------------------------------------
# Each returns a dict of named residuals; all should vanish within tolerance.
# The sampled checks draw every sample first, in a fixed order, and then
# evaluate each quantity over the whole stack of samples at once.


def _random_stack(x: BimoduleX, rng: Draws, n: int) -> np.ndarray:
    """(n, dim²): n random tensors, each drawn as dim² standard normal real
    parts, then dim² imaginary parts, scaled by 1/√2."""
    raw = rng.standard_normal((n, 2, x.amb))
    return (raw[:, 0] + 1j * raw[:, 1]) / np.sqrt(2)


def check_positivity(x: BimoduleX, samples: int = 20,
                     rng: Draws | None = None) -> dict[str, float]:
    """Both inner squares are positive operators, sampled plus basis tensors."""
    rng = rng or Draws(520)
    basis = np.kron(np.eye(x.dim), np.eye(x.dim)[0])     # the tensors a_i⊗a_0
    ts = np.concatenate([basis, _random_stack(x, rng, samples)])
    return {"right_square_psd": worst(psd_defect(x.inner_r(ts, ts))),
            "left_square_psd": worst(psd_defect(x.inner_l(ts, ts)))}


def check_cauchy_schwarz(x: BimoduleX, samples: int = 50,
                         rng: Draws | None = None) -> dict[str, float]:
    """Operator-valued Cauchy–Schwarz for both inner products."""
    rng = rng or Draws(530)
    draws = _random_stack(x, rng, 2 * samples)
    ss, ts = draws[0::2], draws[1::2]
    out = {}
    for name, inner in (("cauchy_schwarz_right", x.inner_r),
                        ("cauchy_schwarz_left", x.inner_l)):
        diff = (psd_top(inner(ts, ts))[:, None, None] * inner(ss, ss)
                - inner(ss, ts) @ inner(ts, ss))
        out[name] = worst(psd_defect(diff))
    return out


def check_norm_agreement(x: BimoduleX, samples: int = 50,
                         rng: Draws | None = None) -> dict[str, float]:
    """The two grid-calculus norms and the quotient norm coincide; the two
    inner products have the same null space."""
    rng = rng or Draws(540)
    alg = x.algebra
    # the sums a_i*⊗b_i have one to three pairs, padded to three with zero
    # pairs, which add zero grid rows and a zero tensor term
    ts = np.zeros((samples, x.amb), dtype=complex)
    pairs = np.zeros((samples, 3, 2, alg.dim), dtype=complex)
    for s in range(samples):
        ts[s] = _random_stack(x, rng, 1)
        count = int(rng.integers(1, 4))
        pairs[s, :count] = alg.random_coords(rng, 2 * count).reshape(count, 2, alg.dim)
    a, b = pairs[:, :, 0], pairs[:, :, 1]
    right = x.module_norm(ts)
    sides = abs(right - x.module_norm_left(ts)) / np.maximum(1.0, right)
    n1, n2 = x.norm_two_ways(a, b)
    quot = x.module_norm(np.einsum("spu,spv->suv", block_adjoint(alg, a), b)
                         .reshape(samples, x.amb))
    scale = np.maximum(1.0, np.max([n1, n2, quot], axis=0))
    forms = np.maximum(abs(n1 - n2), abs(n1 - quot)) / scale
    # inner_l is linear in its first slot, so the left seminorm of t is
    # t^H conj(gram_l) t and its kernel is the null space of conj(gram_l).
    # Both Grams are pieces on the same coordinates, so each left piece
    # meets the null vectors of the right piece on the same copies.
    kern = np.concatenate([np.linalg.norm(g.conj() @ vecs, axis=-2).reshape(-1)
                           for (g, _), (vecs, _) in zip(x.pieces_l, x.null_r)])
    lam_l, rank_l, _ = x.pieces_l.cut(x.pieces_l.spectra("eigvalsh"), x.tol)
    # gram_l is hermitian: its 2-norm is max |λ|
    kern = kern / np.maximum(1.0, abs(lam_l).max(initial=0.0))
    return {"norm_forms_agree": worst(forms), "seminorms_agree": worst(sides),
            "kernels_coincide": worst(kern), "rank_mismatch": float(abs(rank_l - x.r))}


def check_sliding(x: BimoduleX) -> dict[str, float]:
    """The two relations moving range elements across the tensor sign,
    ac⊗b = a⊗H(c)b for c in the range of V and a⊗cb = aV(c)⊗b for c in the
    range of H, for all canonical a, b at once: in class coordinates, q
    contracted against (R_c ⊗ I) minus q against (I ⊗ L_{H(c)}), and the
    mirror for the range of H, over the nonzeros of q, of the rows and of the
    products of matrix units (``unit_table``), a chunk of range rows at a time."""
    q, units = x.q_t, unit_table(x.algebra)

    def defects(firsts: np.ndarray, seconds: np.ndarray) -> float:
        # [c, a, b, w]: the class of (a_a·first_c)⊗a_b minus that of a_a⊗(second_c·a_b),
        # the largest 2-norm over w
        f, s = Sparse.of(firsts), Sparse.of(seconds)
        return law_defects((contract("cam,wmb->cabw", contract("cj,ajm->cam", f.rows(c), units), q),
                            contract("cbm,wam->cabw", contract("cj,jbm->cbm", s.rows(c), units), q))
                           for c in row_chunks(len(firsts), len(q.at)))[0]

    rows_v, rows_h = x.inter.range_v.basis, x.inter.range_h.basis
    return {"slide_range_v": defects(rows_v, rows_v @ x.inter.h.matrix.T),
            "slide_range_h": defects(rows_h @ x.inter.v.matrix.T, rows_h)}


def check_bound_59(x: BimoduleX, samples: int = 50, terms: int = 3,
                   rng: Draws | None = None) -> dict[str, float]:
    """Pairing a vector against a finite right-operator sum is bounded by
    the product of the three norms."""
    rng = rng or Draws(590)
    alg, bch = x.algebra, x.bch
    xis, etas = (np.zeros((samples, x.amb), dtype=complex) for _ in range(2))
    terms_ab = np.zeros((samples, terms, 2, alg.dim), dtype=complex)
    for s in range(samples):
        xis[s], etas[s] = _random_stack(x, rng, 2)
        terms_ab[s] = alg.random_coords(rng, 2 * terms).reshape(terms, 2, alg.dim)
    a_star, b = block_adjoint(alg, terms_ab[:, :, 0]), terms_ab[:, :, 1]
    lam_a, lam_b = (at_units(c, bch.lam_at) for c in (a_star, b))
    phis = (lam_a @ bch.e @ lam_b).sum(axis=1)
    # each sample's terms act on it, a chunk of samples at a time
    moved = np.concatenate([
        x.right_act(etas[s, None], a_star[s, :, :, None] * b[s, :, None, :]).sum(axis=1)
        for s in row_chunks(max(samples, 1), terms * x.amb)])
    lhs = np.linalg.norm(x.inner_r(xis, moved), 2, axis=(-2, -1))
    rhs = x.module_norm(xis) * x.module_norm(etas) * np.linalg.norm(phis, 2, axis=(-2, -1))
    return {"pairing_bound": worst(np.maximum(0.0, lhs - rhs) / np.maximum(1.0, rhs))}


def check_action_bound(x: BimoduleX, samples: int = 50,
                       rng: Draws | None = None) -> dict[str, float]:
    """∥t·k∥ ≤ ∥t∥·∥k∥, and the action is presentation-independent."""
    rng = rng or Draws(5100)
    kb, dual = x.bch.k_basis, x.bch.k_dual
    ts = np.zeros((samples, x.amb), dtype=complex)
    ws = np.zeros((samples, len(kb)), dtype=complex)       # each k by its span coordinates
    for s in range(samples):
        ts[s] = _random_stack(x, rng, 1)
        ws[s] = rng.standard_normal(len(kb)) + 1j * rng.standard_normal(len(kb))
    ks = (ws @ kb).reshape(samples, x.bch.m, x.bch.m)
    bound = x.module_norm(ts) * np.linalg.norm(ks, 2, axis=(-2, -1))
    moved = x.right_act(ts, x._coeff_mats(ws @ dual))
    excess = np.maximum(0.0, x.module_norm(moved) - bound) / np.maximum(1.0, bound)
    # add the null part of an isotropic z to a presentation: the class must not move
    moves = np.zeros(0)
    if len(kb) < x.amb:
        n = min(samples, 10)
        ts = np.zeros((n, x.amb), dtype=complex)
        coeffs = np.zeros((2, n, x.dim, x.dim), dtype=complex)   # presented, perturbed
        for s in range(n):
            ts[s] = _random_stack(x, rng, 1)
            coeffs[0, s] = x._coeff_mats(rng.standard_normal(len(kb)) @ dual)
            z = rng.standard_normal(x.amb) + 1j * rng.standard_normal(x.amb)
            coeffs[1, s] = coeffs[0, s] + x.bch.null_part(z.reshape(x.dim, x.dim))
        d = np.subtract(*x.right_act(ts, coeffs))
        moves = (np.linalg.norm(d @ x.qx.T, axis=-1)
                 / np.maximum(1.0, np.linalg.norm(ts @ x.qx.T, axis=-1)))
    return {"action_bound": worst(excess), "presentation_independent": worst(moves)}


def slot_adjoint_slices(tt: Sparse, lam_t: np.ndarray, rho_t: np.ndarray,
                        star: np.ndarray, rows: slice) -> tuple[tuple[Sparse, Sparse], ...]:
    """Both slot-adjoint laws of a bracket table tt[i, j, k, c], for the basis
    elements a in ``rows`` of the coefficient algebra (``star[a]`` indexes
    a*), as their two sides: [x, a·y, z] and [x, y, a*·z], and [x, y·a, z]
    and [x·a*, y, z], indexed [a, i, j, k, c].  The middle slot is
    conjugate-linear, hence the conj."""
    return tuple((contract("atj,itkc->aijkc", Sparse.of(acts[rows].conj()), tt),
                  contract(spec, Sparse.of(acts[star[rows]]), tt))
                 for acts, spec in ((lam_t, "atk,ijtc->aijkc"), (rho_t, "ati,tjkc->aijkc")))


def slot_adjoint_defects(tt: Sparse, lam_t: np.ndarray, rho_t: np.ndarray,
                         star: np.ndarray) -> dict[str, float]:
    """``slot_adjoint_slices`` over every basis element, a chunk of elements
    at a time, each law reduced two ways (``law_defects``): the largest
    2-norm over c ("middle_norm", "outer_norm") and the largest entry
    ("middle_abs", "outer_abs")."""
    found = [[d for law in slot_adjoint_slices(tt, lam_t, rho_t, star, rows)
              for d in law_defects([law])]
             for rows in row_chunks(len(lam_t), len(tt.at))]
    return dict(zip(("middle_norm", "middle_abs", "outer_norm", "outer_abs"),
                    map(float, np.max(found, axis=0, initial=0.0))))


def check_associativity(x: BimoduleX) -> dict[str, float]:
    """Right-span action is associative and inner_r is right-linear over it;
    mirrored for the left span.  Swept over the representatives and the
    orthonormal span bases, a chunk of representatives at a time, all in
    span coordinates: the products of two basis elements (k_w·k_j for the
    right span, each span's ``in_k`` of its own basis) carry both the action
    laws and <s, t·k_j> = Σ_w <s, t>_w·k_w·k_j."""
    kh, kv = (Sparse.of(bc.k_basis.reshape(-1, bc.m, bc.m)) for bc in (x.bch, x.bcv))
    by_r, by_l, ir, il, jk, kj = map(Sparse.of, (
        x.right_act_t, x.left_act_t, x.inner_r_t, x.inner_l_t,          # t·j, j·t, <s, t>
        x.bch.in_k(kh).swapaxes(1, 2), x.bcv.in_k(kv).transpose(2, 0, 1)))  # k_j·k_l, k_l·k_j

    def laws(t: slice) -> list[tuple[Sparse, Sparse]]:     # t: the first output index
        return [(contract("tjc,ckd->tjkd", by_r.rows(t), by_r),
                 contract("twd,jkw->tjkd", by_r.rows(t), jk)),
                (contract("tkc,scw->stkw", by_r, ir.rows(t)),
                 contract("stw,wkv->stkv", ir.rows(t), jk)),
                (contract("tjc,ckd->tjkd", by_l.rows(t), by_l),
                 contract("twd,jkw->tjkd", by_l.rows(t), kj)),
                (contract("skc,ctw->stkw", by_l.rows(t), il),
                 contract("stw,wkv->stkv", il.rows(t), kj))]

    largest = max(len(table.at) for table in (by_r, by_l, ir, il, jk, kj))
    found = [[law_defects([law])[0] for law in laws(t)] for t in row_chunks(x.r, largest)]
    return dict(zip(("right_action_associative", "inner_r_right_linear",
                     "left_action_associative", "inner_l_left_linear"),
                    map(float, np.max(found, axis=0))))


def check_compatibility(x: BimoduleX) -> dict[str, float]:
    """left_act(inner_l(s,t), u) = right_act(s, inner_r(t,u)) on a quotient
    basis sweep — the two module structures interlock, in span coordinates."""
    il, acts, tt = Sparse.of(x.inner_l_t), Sparse.of(x.left_act_t), x.bracket_t
    return {"bimodule_compatibility": law_defects(
        (contract("stw,uwd->stud", il.rows(s), acts), tt.rows(s))
        for s in row_chunks(x.r, len(tt.at)))[0]}


def check_ternary_consistency(x: BimoduleX) -> dict[str, float]:
    """The elementary ternary formula agrees with evaluation through the
    right inner product, on a quotient basis sweep: the class w of
    x_i·x_j*·x_k is Σ q[w, a, c]·(lefts_i @ x_j* @ rights_k)[a, c]."""
    lefts, rights = map(Sparse.of, x._elementary_factors(x.rep_mats, x.rep_mats))
    ys, tt = Sparse.of(x.rep_mats.conj()), x.bracket_t             # [j, b, l] = conj(y_j[b, l])
    moved = contract("wac,kbc->kwab", x.q_t, rights)
    return {"ternary_two_routes": law_defects(
        (contract("ijab,kwab->ijkw", contract("ial,jbl->ijab", lefts.rows(i), ys), moved),
         tt.rows(i)) for i in row_chunks(x.r, len(tt.at)))[0]}


def check_fullness(x: BimoduleX) -> dict[str, float]:
    """Inner products of basis tensors span the full operator spans K, as do
    the quotient tables, since both vanish on the kernel.  K ⊆ span: k less the
    rank of the (r², k) table is "*_span_dim_gap".  Span ⊆ K: every inner product
    is a combination of the generators λ(a_i)·e·λ(a_j) through its presentation,
    so "*_span_inside" is the largest relative remainder outside K of those
    (``generator_remainders``)."""
    out = {}
    for side, table, bc in (("right", x.inner_r_t, x.bch), ("left", x.inner_l_t, x.bcv)):
        rank = len(orthonormal_rows(table.reshape(x.r * x.r, -1), x.tol))
        out[f"{side}_span_dim_gap"] = float(len(bc.k_basis) - rank)
        out[f"{side}_span_inside"] = worst(bc.generator_remainders())
    return out


def check_ternary_module_laws(x: BimoduleX) -> dict[str, float]:
    """Coefficient elements slide through the ternary slots with adjoints."""
    return {"middle_slot_adjoint": x.slot_defects["middle_norm"],
            "outer_slot_adjoint": x.slot_defects["outer_norm"]}
