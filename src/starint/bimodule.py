"""The two-sided module built on A⊗A from a verified pair of maps.

Elementary tensors a⊗b carry two operator-valued inner products — a right
one landing in the span built from the second map's expectation, a left one
landing in the span built from the first map's — plus left/right algebra
actions and a ternary product.  Both inner products induce the same
seminorm; the quotient by its kernel is finite-dimensional and everything
is realized as explicit tensors over the quotient coordinates.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from .algebra import (
    TINY,
    Element,
    block_adjoint,
    block_product,
    eigvals_hermitian,
    orthonormal_rows,
    psd_defect,
    psd_sqrt,
    psd_top,
    row_chunks,
    singular_values,
    worst,
    worst_norm,
)
from .basic_construction import (
    BasicConstruction,
    basic_for_h,
    basic_for_v,
    eigen_quotient,
)
from .interactions import Interaction


class TensorElt:
    """A finite combination of elementary tensors, by coefficient vector."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module: "BimoduleX", coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if coeffs.shape != (module.amb,):
            raise ValueError("coefficient length must be dim(A) squared")
        self.module = module
        self.coeffs = coeffs

    def __add__(self, other: "TensorElt") -> "TensorElt":
        return TensorElt(self.module, self.coeffs + other.coeffs)

    def __sub__(self, other: "TensorElt") -> "TensorElt":
        return TensorElt(self.module, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: complex) -> "TensorElt":
        return TensorElt(self.module, scalar * self.coeffs)

    def __neg__(self) -> "TensorElt":
        return TensorElt(self.module, -self.coeffs)

    @property
    def class_coords(self) -> np.ndarray:
        return self.module.qx @ self.coeffs

    def norm(self) -> float:
        return self.module.module_norm(self)


class BimoduleX:
    """Quotient module with both inner products realized by their factors."""

    def __init__(self, inter: Interaction, bch: BasicConstruction,
                 bcv: BasicConstruction, tol: float):
        alg = inter.algebra
        dim = alg.dim
        self.inter = inter
        self.algebra = alg
        self.bch = bch
        self.bcv = bcv
        self.tol = tol
        self.dim = dim
        self.amb = dim * dim

        lt, rt = alg.left_mult_tensor, alg.right_mult_tensor
        self.sigma = sigma = alg.star_perm
        vm, hm = inter.v.matrix, inter.h.matrix

        # F1[i,j,p] = coords(a_i · V(a_j a_p)); G1[q,i,j] = coords(H(a_q a_i) · a_j)
        vl = np.einsum("ab,jbp->jap", vm, lt)
        self.F1 = np.einsum("iab,jbp->ijpa", lt, vl, optimize=True)
        hl = np.einsum("ab,qbi->qai", hm, lt)
        self.G1 = np.einsum("jab,qbi->qija", rt, hl, optimize=True)

        # Both inner products of elementary tensors are products of three
        # small operators, and only these factors are stored:
        #   <a⊗b, c⊗d>_r = λ_h(b)* · λ_h(H(a* c)) · e_h λ_h(d)
        #   <a⊗b, c⊗d>_l = λ_v(a) · λ_v(V(b d*)) e_v · λ_v(c)*
        # Each middle factor is kept as mid[i, b, k, c] (basis indices i, k
        # outside the operator indices b, c), so it reshapes to a matrix.
        lam_h, e_h = bch.lam, bch.e
        lam_v, e_v = bcv.lam, bcv.e
        self.lam_h_star = lam_h.conj().transpose(0, 2, 1)
        self.mid_h = np.einsum("iks,sbc->ibkc", hl[sigma].transpose(0, 2, 1),
                               lam_h, optimize=True)
        self.e_lam_h = np.einsum("ab,lbc->lac", e_h, lam_h)
        self.lam_v = lam_v
        self.mid_v = np.einsum("jls,sab,bc->jalc", vl[:, :, sigma].transpose(0, 2, 1),
                               lam_v, e_v, optimize=True)
        self.lam_v_star = lam_v.conj().transpose(0, 2, 1)

        self.gram_r = self._basis_gram(self._factors_r).reshape(self.amb, self.amb)
        self.gram_l = self._basis_gram(self._factors_l).transpose(
            1, 0, 3, 2).reshape(self.amb, self.amb)

        quot = eigen_quotient(self.gram_r, tol, (
            "module collapses: both inner products vanish",
            "right inner product form is not positive (broken input pair)",
            "module quotient ill-conditioned"))
        self.r = quot.kept.size
        self.gram_spectrum = quot.kept
        self.qx = quot.q
        self.liftx = quot.lift
        self.kernel = quot.null.T

    # -- constructors ---------------------------------------------------------

    def simple(self, a: Element, b: Element) -> TensorElt:
        return TensorElt(self, np.outer(a.coords(), b.coords()).reshape(-1))

    def from_coeffs(self, coeffs: np.ndarray) -> TensorElt:
        return TensorElt(self, coeffs)

    def zero(self) -> TensorElt:
        return TensorElt(self, np.zeros(self.amb, dtype=complex))

    def unit_tensor(self) -> TensorElt:
        one = self.algebra.unit()
        return self.simple(one, one)

    def representatives(self) -> list[TensorElt]:
        """Canonical lifts of a quotient basis; sweeping them is exhaustive
        for any law that is (conjugate-)linear in each slot."""
        return [TensorElt(self, col) for col in self.liftx.T]

    def random(self, rng: np.random.Generator, scale: float = 1.0) -> TensorElt:
        raw = rng.standard_normal(self.amb) + 1j * rng.standard_normal(self.amb)
        return TensorElt(self, scale * raw / np.sqrt(2))

    # -- inner products and norms ----------------------------------------------
    # Each per-element method below is the n = 1 case of a contraction over
    # stacks of coefficients: the sampled checks run it over all samples at
    # once, and the quotient tables further down over every pair of
    # representatives.

    @property
    def _factors_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.lam_h_star, self.mid_h, self.e_lam_h

    @property
    def _factors_l(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.lam_v, self.mid_v, self.lam_v_star

    @staticmethod
    def _pairing(us: np.ndarray, vs: np.ndarray,
                 factors: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Sum over i, j, k, l of us[..., i, j] · P[j] · M[i, k] · vs[..., k, l] · Q[l]
        for the factors (P, M, Q), one (m, m) operator for each index of the
        broadcast leading axes of the (..., dim, dim) stacks us and vs."""
        first, mid, last = factors
        dim, m = first.shape[:2]
        lead_u, lead_v = us.shape[:-2], vs.shape[:-2]
        left = (us @ first.reshape(dim, m * m)).reshape(*lead_u, dim, m, m)
        left = left.swapaxes(-3, -2).reshape(*lead_u, m, dim * m)
        right = (vs @ last.reshape(dim, m * m)).reshape(*lead_v, dim * m, m)
        return left @ mid.reshape(dim * m, dim * m) @ right

    @staticmethod
    def _basis_gram(factors: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """[i, j, k, l] = tr(P[j] · M[i, k] · Q[l]) / m, hermitian as a matrix
        over the pairs (i, j) and (k, l): the pairing of basis tensors under
        the trace state."""
        first, mid, last = factors
        dim, m = first.shape[:2]
        wrap = last[:, None] @ first[None]          # [l, j] = Q[l] · P[j]
        gram = np.einsum("ibkc,ljcb->ijkl", mid, wrap, optimize=True) / m
        gram = gram.reshape(dim * dim, dim * dim)
        return ((gram + gram.conj().T) / 2).reshape(dim, dim, dim, dim)

    def _coeff_mats(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.reshape(*coeffs.shape[:-1], self.dim, self.dim)

    def _inner_r_coeffs(self, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """inner_r over coefficient stacks (..., dim²) that broadcast
        together: (..., m_h, m_h)."""
        return self._pairing(self._coeff_mats(ss.conj()), self._coeff_mats(ts),
                             self._factors_r)

    def _inner_l_coeffs(self, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """inner_l over coefficient stacks, as ``_inner_r_coeffs``; the left
        factors pair the first tensor leg where the right ones pair the second."""
        return self._pairing(self._coeff_mats(ss).swapaxes(-1, -2),
                             self._coeff_mats(ts.conj()).swapaxes(-1, -2),
                             self._factors_l)

    def inner_r(self, s: TensorElt, t: TensorElt) -> np.ndarray:
        return self._inner_r_coeffs(s.coeffs, t.coeffs)

    def inner_l(self, s: TensorElt, t: TensorElt) -> np.ndarray:
        return self._inner_l_coeffs(s.coeffs, t.coeffs)

    def _norms_r(self, ts: np.ndarray) -> np.ndarray:
        """module_norm over a coefficient stack (..., dim²)."""
        return np.sqrt(psd_top(self._inner_r_coeffs(ts, ts)))

    def _norms_l(self, ts: np.ndarray) -> np.ndarray:
        return np.sqrt(psd_top(self._inner_l_coeffs(ts, ts)))

    def module_norm(self, t: TensorElt) -> float:
        return float(self._norms_r(t.coeffs))

    def module_norm_left(self, t: TensorElt) -> float:
        return float(self._norms_l(t.coeffs))

    def class_norm(self, t: TensorElt) -> float:
        """Hilbert-space norm of the class under the trace-state form."""
        return float(np.linalg.norm(self.qx @ t.coeffs))

    def tensor_of_pairs(self, pairs: list[tuple[Element, Element]]) -> TensorElt:
        return sum((self.simple(a.star(), b) for a, b in pairs), self.zero())

    def norm_two_ways(self, pairs: list[tuple[Element, Element]]) -> tuple[float, float]:
        """Closed-form norms of sum a_i*⊗b_i via n-by-n grid calculus: the
        one-sample case of ``_grid_norms``."""
        coords = np.array([[a.coords(), b.coords()] for a, b in pairs])
        n1, n2 = self._grid_norms(*coords.reshape(len(pairs), 2, self.dim).swapaxes(0, 1))
        return float(n1), float(n2)

    def _grid_norms(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(2, ...): ||H_n[a_i a_j*]^½ · (HV)_n[b_i b_j*]^½|| and
        ||(VH)_n[a_i a_j*]^½ · V_n[b_i b_j*]^½|| for the pairs of two
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
    # The stacked forms take tensors and presentations as (..., dim, dim)
    # coefficient matrices whose leading axes broadcast together, and return
    # (..., dim²) coefficients.  For the pair presentation c of k, the
    # coefficient matrix of t·k is right_factor(t) @ c, that of k·t c @ left_factor(t).

    def _right_factor(self, xs: np.ndarray) -> np.ndarray:
        return np.tensordot(xs, self.F1, axes=2).swapaxes(-1, -2)

    def _left_factor(self, xs: np.ndarray) -> np.ndarray:
        return np.tensordot(xs, self.G1, axes=((-2, -1), (1, 2)))

    def _right_act_coeffs(self, xs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        out = self._right_factor(xs) @ coeffs
        return out.reshape(*out.shape[:-2], self.amb)

    def _pair_classes(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """(len(lefts), len(rights), r): the class coordinates of the tensors
        with coefficient matrices L @ R, for L and R in two (n, dim, dim)
        stacks, without forming those coefficients: the shorter stack is
        contracted with qx first."""
        q = self.qx.reshape(self.r, self.dim, self.dim)                # [c, k, q]
        if len(lefts) <= len(rights):
            part = np.tensordot(lefts, q, axes=(1, 1))                 # [a, l, c, q]
            return np.tensordot(part, rights, axes=((1, 3), (1, 2))).swapaxes(1, 2)
        part = np.tensordot(rights, q, axes=(2, 2))                    # [b, l, c, k]
        return np.tensordot(lefts, part, axes=((1, 2), (3, 1)))

    def right_act(self, t: TensorElt, k: np.ndarray | None,
                  coeff: np.ndarray | None = None) -> TensorElt:
        """Action of k in the right-hand operator span; k is an m×m matrix.

        A pair presentation ``coeff`` (c with k = sum c[p,q] lam(a_p) e lam(a_q))
        may be supplied directly; otherwise it is solved by least squares.
        """
        if coeff is None:
            coeff = self._presentation(k, "right")
        return TensorElt(self, self._right_act_coeffs(self._coeff_mats(t.coeffs), coeff))

    def left_act(self, k: np.ndarray | None, t: TensorElt,
                 coeff: np.ndarray | None = None) -> TensorElt:
        if coeff is None:
            coeff = self._presentation(k, "left")
        return TensorElt(self, (coeff @ self._left_factor(self._coeff_mats(t.coeffs))).reshape(-1))

    def _presentation(self, ks: np.ndarray, side: str) -> np.ndarray:
        """Least-squares pair presentations of a (..., m, m) stack in the
        right or left span; an operator outside the span is refused."""
        bc = self.bch if side == "right" else self.bcv
        coeff, resid = bc.express_in_spanning(ks)
        top = worst(resid)
        if top > max(self.tol, 1e-8) * 10:
            raise ValueError(f"operator outside the {side} span (residual {top:.3e})")
        return coeff

    def act_a(self, a: Element, t: TensorElt, side: str) -> TensorElt:
        xm = self._coeff_mats(t.coeffs)
        if side == "left":
            out = np.tensordot(a.coords(), self.algebra.left_mult_tensor, axes=1) @ xm
        elif side == "right":
            out = xm @ np.tensordot(a.coords(), self.algebra.right_mult_tensor, axes=1).T
        else:
            raise ValueError("side must be 'left' or 'right'")
        return TensorElt(self, out.reshape(-1))

    # -- ternary product -----------------------------------------------------------

    def ternary(self, x: TensorElt, y: TensorElt, z: TensorElt) -> TensorElt:
        return self.right_act(x, self.inner_r(y, z))

    def _elementary_factors(self, xs: np.ndarray, ys: np.ndarray,
                            zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The elementary formula over three stacks as matrix products: the
        coefficient matrix for xs[i], ys[j], zs[k] is lefts[i] @ rights[j, k]."""
        u1 = np.einsum("nuv,uvyr->nry", xs, self.F1, optimize=True)[..., self.sigma]
        u2 = np.einsum("nzw,xzws->nxs", zs, self.G1, optimize=True)[:, self.sigma]
        return u1, ys.conj().swapaxes(1, 2)[:, None] @ u2

    def ternary_elementary(self, x: TensorElt, y: TensorElt,
                           z: TensorElt) -> TensorElt:
        """Trilinear extension of the elementary-tensor formula."""
        lefts, rights = self._elementary_factors(*(self._coeff_mats(u.coeffs)[None]
                                                   for u in (x, y, z)))
        return TensorElt(self, (lefts[0] @ rights[0, 0]).reshape(-1))

    # -- quotient tables over the representatives, each built on first use ------
    # Class coordinates come last; the checks and the correspondence read
    # these instead of calling the per-element methods.

    @cached_property
    def rep_mats(self) -> np.ndarray:
        """(r, dim, dim): the representatives as coefficient matrices."""
        return self.liftx.T.reshape(self.r, self.dim, self.dim)

    @cached_property
    def inner_r_t(self) -> np.ndarray:
        """(r, r, m_h, m_h): inner_r over pairs of representatives."""
        return self._inner_r_coeffs(self.liftx.T[:, None], self.liftx.T)

    @cached_property
    def inner_l_t(self) -> np.ndarray:
        """(r, r, m_v, m_v): inner_l over pairs of representatives."""
        return self._inner_l_coeffs(self.liftx.T[:, None], self.liftx.T)

    @cached_property
    def right_act_t(self) -> np.ndarray:
        """(r, m_h², r): [i, w] is the class of rep_i acted on by the w-th
        matrix unit of vec(k), presented as ``right_act`` presents k."""
        units = self.bch.spanning_pinv.T.reshape(-1, self.dim, self.dim)
        return self._pair_classes(self._right_factor(self.rep_mats), units)

    @cached_property
    def left_act_t(self) -> np.ndarray:
        """(r, m_v², r): the mirror of ``right_act_t`` for ``left_act``."""
        units = self.bcv.spanning_pinv.T.reshape(-1, self.dim, self.dim)
        return self._pair_classes(units, self._left_factor(self.rep_mats)).swapaxes(0, 1)

    @cached_property
    def bracket_t(self) -> np.ndarray:
        """(r, r, r, r): [i, j, k] is the class of rep_i · inner_r(rep_j, rep_k)."""
        pairs = self.inner_r_t.reshape(self.r, self.r, -1)
        return np.einsum("iwc,jkw->ijkc", self.right_act_t, pairs, optimize=True)

    @cached_property
    def lam_t(self) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> a_i·t on class coordinates."""
        return self._pair_classes(self.algebra.left_mult_tensor, self.rep_mats).swapaxes(1, 2)

    @cached_property
    def rho_t(self) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> t·a_i on class coordinates."""
        right = self.algebra.right_mult_tensor.swapaxes(1, 2)
        return self._pair_classes(self.rep_mats, right).transpose(1, 2, 0)

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


def _random_stack(x: BimoduleX, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, dim²): the coefficients of n successive ``x.random`` draws."""
    return np.array([x.random(rng).coeffs for _ in range(n)]).reshape(n, x.amb)


def check_positivity(x: BimoduleX, samples: int = 20,
                     rng: np.random.Generator | None = None) -> dict[str, float]:
    """Both inner squares are positive operators, sampled plus basis tensors."""
    rng = rng or np.random.default_rng(520)
    basis = np.array([x.simple(a, x.algebra.basis[0]).coeffs for a in x.algebra.basis])
    ts = np.concatenate([basis, _random_stack(x, rng, samples)])
    return {"right_square_psd": worst(psd_defect(x._inner_r_coeffs(ts, ts))),
            "left_square_psd": worst(psd_defect(x._inner_l_coeffs(ts, ts)))}


def check_cauchy_schwarz(x: BimoduleX, samples: int = 50,
                         rng: np.random.Generator | None = None) -> dict[str, float]:
    """Operator-valued Cauchy–Schwarz for both inner products."""
    rng = rng or np.random.default_rng(530)
    draws = _random_stack(x, rng, 2 * samples)
    ss, ts = draws[0::2], draws[1::2]
    out = {}
    for name, inner in (("cauchy_schwarz_right", x._inner_r_coeffs),
                        ("cauchy_schwarz_left", x._inner_l_coeffs)):
        diff = (psd_top(inner(ts, ts))[:, None, None] * inner(ss, ss)
                - inner(ss, ts) @ inner(ts, ss))
        out[name] = worst(psd_defect(diff))
    return out


def check_norm_agreement(x: BimoduleX, samples: int = 50,
                         rng: np.random.Generator | None = None) -> dict[str, float]:
    """The two grid-calculus norms and the quotient norm coincide; the two
    inner products have the same null space."""
    rng = rng or np.random.default_rng(540)
    alg = x.algebra
    # the sums a_i*⊗b_i have one to three pairs, padded to three with zero
    # pairs, which add zero grid rows and a zero tensor term
    ts = np.zeros((samples, x.amb), dtype=complex)
    pairs = np.zeros((samples, 3, 2, alg.dim), dtype=complex)
    for s in range(samples):
        ts[s] = x.random(rng).coeffs
        count = int(rng.integers(1, 4))
        pairs[s, :count] = alg.random_coords(rng, 2 * count).reshape(count, 2, alg.dim)
    a, b = pairs[:, :, 0], pairs[:, :, 1]
    right = x._norms_r(ts)
    sides = abs(right - x._norms_l(ts)) / np.maximum(1.0, right)
    n1, n2 = x._grid_norms(a, b)
    quot = x._norms_r(np.einsum("spu,spv->suv", block_adjoint(alg, a), b).reshape(samples, x.amb))
    scale = np.maximum(1.0, np.max([n1, n2, quot], axis=0))
    forms = np.maximum(abs(n1 - n2), abs(n1 - quot)) / scale
    # inner_l is linear in its first slot, so the left seminorm of t is
    # t^H conj(gram_l) t and its kernel is the null space of conj(gram_l)
    kern = np.linalg.norm(x.kernel @ x.gram_l.conj().T, axis=-1)
    lam_l = eigvals_hermitian(x.gram_l)        # gram_l is hermitian: its 2-norm is max |λ|
    kern = kern / np.maximum(1.0, abs(lam_l).max(initial=0.0))
    rank_l = int((lam_l > x.tol * max(lam_l.max(initial=0.0), TINY)).sum())
    return {"norm_forms_agree": worst(forms), "seminorms_agree": worst(sides),
            "kernels_coincide": worst(kern), "rank_mismatch": float(abs(rank_l - x.r))}


def check_sliding(x: BimoduleX) -> dict[str, float]:
    """The two relations moving range elements across the tensor sign,
    ac⊗b = a⊗H(c)b for c in the range of V and a⊗cb = aV(c)⊗b for c in the
    range of H, for all canonical a, b at once: in class coordinates, qx
    contracted against (R_c ⊗ I) minus qx against (I ⊗ L_{H(c)}), and the
    mirror for the range of H."""
    alg, q = x.algebra, x.qx.reshape(x.r, x.dim, x.dim)
    eye = np.eye(x.dim, dtype=complex)

    def defects(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        # [a, b]: the class of first[a]⊗e_b minus that of e_a⊗second[b]
        return np.linalg.norm(first @ q - q @ second.T, axis=0)

    rows_v, rows_h = x.inter.range_v.basis, x.inter.range_h.basis
    slide_v = [defects(block_product(alg, eye, c), block_product(alg, hc, eye))
               for c, hc in zip(rows_v, rows_v @ x.inter.h.matrix.T)]
    slide_h = [defects(block_product(alg, eye, vc), block_product(alg, c, eye))
               for c, vc in zip(rows_h, rows_h @ x.inter.v.matrix.T)]
    return {"slide_range_v": worst(*slide_v), "slide_range_h": worst(*slide_h)}


def check_bound_59(x: BimoduleX, samples: int = 50, terms: int = 3,
                   rng: np.random.Generator | None = None) -> dict[str, float]:
    """Pairing a vector against a finite right-operator sum is bounded by
    the product of the three norms."""
    rng = rng or np.random.default_rng(590)
    alg, bch = x.algebra, x.bch
    xis, etas = (np.zeros((samples, x.amb), dtype=complex) for _ in range(2))
    terms_ab = np.zeros((samples, terms, 2, alg.dim), dtype=complex)
    for s in range(samples):
        xis[s], etas[s] = x.random(rng).coeffs, x.random(rng).coeffs
        terms_ab[s] = alg.random_coords(rng, 2 * terms).reshape(terms, 2, alg.dim)
    a_star, b = block_adjoint(alg, terms_ab[:, :, 0]), terms_ab[:, :, 1]
    lam_a, lam_b = (np.tensordot(c, bch.lam, axes=1) for c in (a_star, b))
    phis = (lam_a @ bch.e @ lam_b).sum(axis=1)
    pairs = a_star[..., :, None] * b[..., None, :]
    moved = x._right_act_coeffs(x._coeff_mats(etas)[:, None], pairs).sum(axis=1)
    lhs = np.linalg.norm(x._inner_r_coeffs(xis, moved), 2, axis=(-2, -1))
    rhs = x._norms_r(xis) * x._norms_r(etas) * np.linalg.norm(phis, 2, axis=(-2, -1))
    return {"pairing_bound": worst(np.maximum(0.0, lhs - rhs) / np.maximum(1.0, rhs))}


def check_action_bound(x: BimoduleX, samples: int = 50,
                       rng: np.random.Generator | None = None) -> dict[str, float]:
    """∥t·k∥ ≤ ∥t∥·∥k∥, and the action is presentation-independent."""
    rng = rng or np.random.default_rng(5100)
    m, kb = x.bch.m, x.bch.k_basis
    ts, ks = [], []
    for _ in range(samples):
        ts.append(x.random(rng).coeffs)
        w = rng.standard_normal(kb.shape[0]) + 1j * rng.standard_normal(kb.shape[0])
        ks.append((kb.T @ w).reshape(m, m))
    ts, ks = np.array(ts).reshape(samples, x.amb), np.array(ks).reshape(samples, m, m)
    moved = x._right_act_coeffs(x._coeff_mats(ts), x._presentation(ks, "right"))
    bound = x._norms_r(ts) * np.linalg.norm(ks, 2, axis=(-2, -1))
    excess = np.maximum(0.0, x._norms_r(moved) - bound) / np.maximum(1.0, bound)
    # add z - P·S·z, an isotropic null combination, to a presentation: the class must not move
    span, pinv = x.bch.spanning_matrix, x.bch.spanning_pinv
    moves = np.zeros(0)
    if len(kb) < span.shape[1]:
        ts, coeffs, perturbed = [], [], []
        for _ in range(min(samples, 10)):
            ts.append(x.random(rng).coeffs)
            k = (kb.T @ (rng.standard_normal(kb.shape[0]))).reshape(m, m)
            coeff, _ = x.bch.express_in_spanning(k)
            z = rng.standard_normal(span.shape[1]) + 1j * rng.standard_normal(span.shape[1])
            coeffs.append(coeff)
            perturbed.append(coeff + (z - pinv @ (span @ z)).reshape(x.dim, x.dim))
        tm = x._coeff_mats(np.array(ts))
        d = (x._right_act_coeffs(tm, np.array(coeffs))
             - x._right_act_coeffs(tm, np.array(perturbed)))
        moves = (np.linalg.norm(d @ x.qx.T, axis=-1)
                 / np.maximum(1.0, np.linalg.norm(np.array(ts) @ x.qx.T, axis=-1)))
    return {"action_bound": worst(excess), "presentation_independent": worst(moves)}


def slot_adjoint_slices(tt: np.ndarray, lam_t: np.ndarray, rho_t: np.ndarray,
                        star: np.ndarray, rows: slice) -> tuple[np.ndarray, ...]:
    """Both slot-adjoint defects of a bracket tensor tt[i, j, k, c], for the
    basis elements a in ``rows`` of the coefficient algebra (``star[a]``
    indexes a*): [x, a·y, z] - [x, y, a*·z] and [x, y·a, z] - [x·a*, y, z],
    indexed [a, i, j, k, c].  The middle slot is conjugate-linear, hence the conj."""
    return tuple(np.einsum("atj,itkc->aijkc", acts[rows].conj(), tt, optimize=True)
                 - np.einsum(spec, acts[star[rows]], tt, optimize=True)
                 for acts, spec in ((lam_t, "atk,ijtc->aijkc"), (rho_t, "ati,tjkc->aijkc")))


def slot_adjoint_defects(tt: np.ndarray, lam_t: np.ndarray, rho_t: np.ndarray,
                         star: np.ndarray) -> dict[str, float]:
    """``slot_adjoint_slices`` over every basis element, a chunk of elements
    at a time, each reduced two ways: the largest 2-norm over c ("middle_norm",
    "outer_norm") and the largest entry ("middle_abs", "outer_abs")."""
    found = [[f(d) for d in slot_adjoint_slices(tt, lam_t, rho_t, star, rows)
              for f in (worst_norm, lambda d: worst(abs(d)))]
             for rows in row_chunks(len(lam_t), tt.size)]
    return dict(zip(("middle_norm", "middle_abs", "outer_norm", "outer_abs"),
                    map(float, np.max(found, axis=0, initial=0.0))))


def check_associativity(x: BimoduleX) -> dict[str, float]:
    """Right-span action is associative and inner_r is right-linear over it;
    mirrored for the left span.  Swept over the representatives and the
    orthonormal span bases, a chunk of representatives t at a time."""
    ein = partial(np.einsum, optimize=True)
    kh = x.bch.k_basis.reshape(-1, x.bch.m, x.bch.m)
    kv = x.bcv.k_basis.reshape(-1, x.bcv.m, x.bcv.m)
    by_r = ein("twc,jw->tjc", x.right_act_t, x.bch.k_basis)   # t·j
    by_l = ein("twc,jw->tjc", x.left_act_t, x.bcv.k_basis)    # j·t
    jk = ein("jab,kbc->jkac", kh, kh).reshape(len(kh), len(kh), -1)
    kj = ein("kab,jbc->jkac", kv, kv).reshape(len(kv), len(kv), -1)

    def laws(t: slice) -> list[float]:
        return [worst_norm(ein("tjc,ckd->tjkd", by_r[t], by_r)
                           - ein("twd,jkw->tjkd", x.right_act_t[t], jk)),
                worst_norm(ein("tkc,scab->stkab", by_r[t], x.inner_r_t)
                           - ein("stab,kbe->stkae", x.inner_r_t[:, t], kh), axis=(-2, -1)),
                worst_norm(ein("tjc,ckd->tjkd", by_l[t], by_l)
                           - ein("twd,jkw->tjkd", x.left_act_t[t], kj)),
                worst_norm(ein("skc,ctab->stkab", by_l, x.inner_l_t[:, t])
                           - ein("kae,steb->stkab", kv, x.inner_l_t[:, t]), axis=(-2, -1))]

    found = [laws(t) for t in row_chunks(x.r, x.r * max(kh.size, kv.size, len(kh) ** 2,
                                                        len(kv) ** 2))]
    return dict(zip(("right_action_associative", "inner_r_right_linear",
                     "left_action_associative", "inner_l_left_linear"),
                    map(float, np.max(found, axis=0))))


def check_compatibility(x: BimoduleX) -> dict[str, float]:
    """left_act(inner_l(s,t), u) = right_act(s, inner_r(t,u)) on a quotient
    basis sweep — the two module structures interlock."""
    pairs = x.inner_l_t.reshape(x.r, x.r, -1)
    lhs = np.einsum("stw,uwd->stud", pairs, x.left_act_t, optimize=True)
    return {"bimodule_compatibility": worst_norm(lhs - x.bracket_t)}


def check_ternary_consistency(x: BimoduleX) -> dict[str, float]:
    """The elementary ternary formula agrees with evaluation through the
    right inner product, on a quotient basis sweep."""
    reps = x.rep_mats
    lefts, rights = x._elementary_factors(reps, reps, reps)
    elementary = x._pair_classes(lefts, rights.reshape(-1, x.dim, x.dim))
    return {"ternary_two_routes": worst_norm(elementary.reshape(x.bracket_t.shape) - x.bracket_t)}


def check_fullness(x: BimoduleX) -> dict[str, float]:
    """Inner products of basis tensors span the full operator spans.  Both
    inner products vanish on the kernel, so those of the representatives,
    the quotient tables, have the same span."""
    out = {}
    for side, table, bc in (("right", x.inner_r_t, x.bch), ("left", x.inner_l_t, x.bcv)):
        span = orthonormal_rows(table.reshape(x.r * x.r, -1), x.tol)
        out[f"{side}_span_dim_gap"] = float(abs(span.shape[0] - bc.k_basis.shape[0]))
        out[f"{side}_span_inside"] = worst(bc.express_in_k(span.reshape(-1, bc.m, bc.m))[1])
    return out


def check_ternary_module_laws(x: BimoduleX) -> dict[str, float]:
    """Coefficient elements slide through the ternary slots with adjoints."""
    return {"middle_slot_adjoint": x.slot_defects["middle_norm"],
            "outer_slot_adjoint": x.slot_defects["outer_norm"]}
