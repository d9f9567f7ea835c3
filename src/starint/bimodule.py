"""The two-sided module built on A⊗A from a verified pair of maps.

Elementary tensors a⊗b carry two operator-valued inner products — a right
one landing in the span built from the second map's expectation, a left one
landing in the span built from the first map's — plus left/right algebra
actions and a ternary product.  Both inner products induce the same
seminorm; the quotient by its kernel is finite-dimensional and everything
is realized as explicit tensors over the quotient coordinates.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    Element,
    orthonormal_rows,
    rel,
    sqrt_psd,
)
from .basic_construction import (
    BasicConstruction,
    basic_for_h,
    basic_for_v,
    eigen_quotient,
)
from .interactions import Interaction
from .linmaps import LinMap, amplify, column_gram


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
    """Quotient module with both inner products realized as tensors."""

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
        self._amp_cache: dict[int, tuple[LinMap, LinMap]] = {}

        lt = np.stack([alg.left_mult_tensor[i] for i in range(dim)])
        rt = np.stack([alg.right_mult_tensor[i] for i in range(dim)])
        sigma = np.argmax(np.abs(alg.star_signature), axis=0)
        self.sigma = sigma
        vm, hm = inter.v.matrix, inter.h.matrix

        # F1[i,j,p] = coords(a_i · V(a_j a_p)); G1[q,i,j] = coords(H(a_q a_i) · a_j)
        vl = np.einsum("ab,jbp->jap", vm, lt)
        self.F1 = np.einsum("iab,jbp->ijpa", lt, vl, optimize=True)
        hl = np.einsum("ab,qbi->qai", hm, lt)
        self.G1 = np.einsum("jab,qbi->qija", rt, hl, optimize=True)
        self.P1 = self.F1[:, :, sigma, :]
        self.P2 = self.G1[sigma, :, :, :]

        lam_h, e_h, m_h = bch.lam, bch.e, bch.m
        lam_v, e_v, m_v = bcv.lam, bcv.e, bcv.m
        mid = np.einsum("iks,sab->ikab", hl[sigma].transpose(0, 2, 1), lam_h,
                        optimize=True)
        rf = np.einsum("jab,ikbc,lcd->ijklad",
                       lam_h.conj().transpose(0, 2, 1), mid,
                       np.einsum("ab,lbc->lac", e_h, lam_h), optimize=True)
        self.Rf = rf.reshape(self.amb, self.amb, m_h, m_h)

        nc = vl[:, :, sigma].transpose(0, 2, 1)
        ne = np.einsum("jls,sab,bc->jlac", nc, lam_v, e_v, optimize=True)
        lf = np.einsum("iab,jlbc,kcd->ijklad", lam_v, ne,
                       lam_v.conj().transpose(0, 2, 1), optimize=True)
        self.Lf = lf.reshape(self.amb, self.amb, m_v, m_v)

        gram = np.einsum("uvaa->uv", self.Rf) / m_h
        gram = (gram + gram.conj().T) / 2
        self.gram_r = gram
        self.gram_l = (lambda g: (g + g.conj().T) / 2)(
            np.einsum("uvaa->uv", self.Lf) / m_v)

        quot = eigen_quotient(gram, tol, (
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
    # stacks of coefficients; the quotient tables further down run the same
    # contraction over every representative at once.

    @staticmethod
    def _pair(us: np.ndarray, vs: np.ndarray, form: np.ndarray) -> np.ndarray:
        """[j, k] = sum over u, v of us[u, j] · vs[v, k] · form[u, v]."""
        return np.einsum("uj,vk,uvab->jkab", us, vs, form, optimize=True)

    def inner_r(self, s: TensorElt, t: TensorElt) -> np.ndarray:
        return self._pair(s.coeffs.conj()[:, None], t.coeffs[:, None], self.Rf)[0, 0]

    def inner_l(self, s: TensorElt, t: TensorElt) -> np.ndarray:
        return self._pair(s.coeffs[:, None], t.coeffs.conj()[:, None], self.Lf)[0, 0]

    @staticmethod
    def _psd_norm(mat: np.ndarray) -> float:
        if mat.size == 0:
            return 0.0
        return float(max(np.linalg.eigvalsh((mat + mat.conj().T) / 2).max(), 0.0))

    def module_norm(self, t: TensorElt) -> float:
        return float(np.sqrt(self._psd_norm(self.inner_r(t, t))))

    def module_norm_left(self, t: TensorElt) -> float:
        return float(np.sqrt(self._psd_norm(self.inner_l(t, t))))

    def class_norm(self, t: TensorElt) -> float:
        """Hilbert-space norm of the class under the trace-state form."""
        return float(np.linalg.norm(self.qx @ t.coeffs))

    def _amplified(self, n: int) -> tuple[LinMap, LinMap]:
        if n not in self._amp_cache:
            self._amp_cache[n] = (amplify(self.inter.v, n), amplify(self.inter.h, n))
        return self._amp_cache[n]

    def tensor_of_pairs(self, pairs: list[tuple[Element, Element]]) -> TensorElt:
        out = self.zero()
        for a, b in pairs:
            out = out + self.simple(a.star(), b)
        return out

    def norm_two_ways(self, pairs: list[tuple[Element, Element]]) -> tuple[float, float]:
        """Closed-form norms of sum a_i*⊗b_i via n-by-n grid calculus."""
        n = len(pairs)
        vn, hn = self._amplified(n)
        grid_a = column_gram(self.algebra, [a for a, _ in pairs])
        grid_b = column_gram(self.algebra, [b for _, b in pairs])
        n1 = (sqrt_psd(hn(grid_a), self.tol)
              * sqrt_psd(hn(vn(grid_b)), self.tol)).norm()
        n2 = (sqrt_psd(vn(hn(grid_a)), self.tol)
              * sqrt_psd(vn(grid_b), self.tol)).norm()
        return n1, n2

    # -- module actions ----------------------------------------------------------
    # Stacked forms take tensors as (n, dim, dim) coefficient matrices and
    # return (n, w, dim²) coefficients, w running over the acting elements.

    def _right_act_coeffs(self, xs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        out = np.einsum("nij,wpq,ijpk->nwkq", xs, coeffs, self.F1, optimize=True)
        return out.reshape(len(xs), len(coeffs), self.amb)

    def _left_act_coeffs(self, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        out = np.einsum("wpq,nij,qijl->nwpl", coeffs, xs, self.G1, optimize=True)
        return out.reshape(len(xs), len(coeffs), self.amb)

    def _act_a_coeffs(self, a_coords: np.ndarray, xs: np.ndarray,
                      side: str) -> np.ndarray:
        if side == "left":
            mats = np.tensordot(a_coords, self.algebra.left_mult_tensor, axes=1)
            out = mats[None] @ xs[:, None]
        elif side == "right":
            mats = np.tensordot(a_coords, self.algebra.right_mult_tensor, axes=1)
            out = xs[:, None] @ mats[None].swapaxes(-1, -2)
        else:
            raise ValueError("side must be 'left' or 'right'")
        return out.reshape(len(xs), len(a_coords), self.amb)

    def right_act(self, t: TensorElt, k: np.ndarray | None,
                  coeff: np.ndarray | None = None) -> TensorElt:
        """Action of k in the right-hand operator span; k is an m×m matrix.

        A pair presentation ``coeff`` (c with k = sum c[p,q] lam(a_p) e lam(a_q))
        may be supplied directly; otherwise it is solved by least squares.
        """
        if coeff is None:
            coeff, resid = self.bch.express_in_spanning(k)
            if resid > max(self.tol, 1e-8) * 10:
                raise ValueError(f"operator outside the right span (residual {resid:.3e})")
        xm = t.coeffs.reshape(1, self.dim, self.dim)
        return TensorElt(self, self._right_act_coeffs(xm, coeff[None])[0, 0])

    def left_act(self, k: np.ndarray | None, t: TensorElt,
                 coeff: np.ndarray | None = None) -> TensorElt:
        if coeff is None:
            coeff, resid = self.bcv.express_in_spanning(k)
            if resid > max(self.tol, 1e-8) * 10:
                raise ValueError(f"operator outside the left span (residual {resid:.3e})")
        xm = t.coeffs.reshape(1, self.dim, self.dim)
        return TensorElt(self, self._left_act_coeffs(coeff[None], xm)[0, 0])

    def act_a(self, a: Element, t: TensorElt, side: str) -> TensorElt:
        xm = t.coeffs.reshape(1, self.dim, self.dim)
        return TensorElt(self, self._act_a_coeffs(a.coords()[None], xm, side)[0, 0])

    # -- ternary product -----------------------------------------------------------

    def ternary(self, x: TensorElt, y: TensorElt, z: TensorElt) -> TensorElt:
        return self.right_act(x, self.inner_r(y, z))

    def _elementary_coeffs(self, xs: np.ndarray, ys: np.ndarray,
                           zs: np.ndarray) -> np.ndarray:
        """(n_x, n_y, n_z, dim²): the elementary formula over three stacks."""
        u1 = np.einsum("nuv,uvyr->nyr", xs, self.P1, optimize=True)
        u2 = np.einsum("nzw,xzws->nxs", zs, self.P2, optimize=True)
        out = np.einsum("jxy,iyr,kxs->ijkrs", ys.conj(), u1, u2, optimize=True)
        return out.reshape(len(xs), len(ys), len(zs), self.amb)

    def ternary_elementary(self, x: TensorElt, y: TensorElt,
                           z: TensorElt) -> TensorElt:
        """Trilinear extension of the elementary-tensor formula."""
        d = self.dim
        xm, ym, zm = (u.coeffs.reshape(1, d, d) for u in (x, y, z))
        return TensorElt(self, self._elementary_coeffs(xm, ym, zm)[0, 0, 0])

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
        return self._pair(self.liftx.conj(), self.liftx, self.Rf)

    @cached_property
    def inner_l_t(self) -> np.ndarray:
        """(r, r, m_v, m_v): inner_l over pairs of representatives."""
        return self._pair(self.liftx, self.liftx.conj(), self.Lf)

    @cached_property
    def right_act_t(self) -> np.ndarray:
        """(r, m_h², r): [i, w] is the class of rep_i acted on by the w-th
        matrix unit of vec(k), presented as ``right_act`` presents k."""
        units = self.bch.spanning_pinv.T.reshape(-1, self.dim, self.dim)
        return self._right_act_coeffs(self.rep_mats, units) @ self.qx.T

    @cached_property
    def left_act_t(self) -> np.ndarray:
        """(r, m_v², r): the mirror of ``right_act_t`` for ``left_act``."""
        units = self.bcv.spanning_pinv.T.reshape(-1, self.dim, self.dim)
        return self._left_act_coeffs(units, self.rep_mats) @ self.qx.T

    @cached_property
    def bracket_t(self) -> np.ndarray:
        """(r, r, r, r): [i, j, k] is the class of rep_i · inner_r(rep_j, rep_k)."""
        pairs = self.inner_r_t.reshape(self.r, self.r, -1)
        return np.einsum("iwc,jkw->ijkc", self.right_act_t, pairs, optimize=True)

    def _coefficient_action_t(self, side: str) -> np.ndarray:
        moved = self._act_a_coeffs(np.eye(self.dim), self.rep_mats, side) @ self.qx.T
        return moved.transpose(1, 2, 0)

    @cached_property
    def lam_t(self) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> a_i·t on class coordinates."""
        return self._coefficient_action_t("left")

    @cached_property
    def rho_t(self) -> np.ndarray:
        """(dim, r, r): [i] is the matrix of t -> t·a_i on class coordinates."""
        return self._coefficient_action_t("right")


def build_bimodule(inter: Interaction, tol: float | None = None) -> BimoduleX:
    tol = inter.tol if tol is None else tol
    return BimoduleX(inter, basic_for_h(inter, tol), basic_for_v(inter, tol), tol)


# -- structural checks -------------------------------------------------------------
# Each returns a dict of named residuals; all should vanish within tolerance.


def _psd_defect(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    herm = (mat + mat.conj().T) / 2
    gap = float(np.linalg.norm(mat - herm))
    eigs = np.linalg.eigvalsh(herm)
    scale = max(1.0, float(abs(eigs).max(initial=0.0)))
    return max(gap, -float(eigs.min())) / scale


def check_positivity(x: BimoduleX, samples: int = 20,
                     rng: np.random.Generator | None = None) -> dict[str, float]:
    """Both inner squares are positive operators, sampled plus basis tensors."""
    rng = rng or np.random.default_rng(520)
    pool = [x.simple(a, b) for a in x.algebra.basis for b in x.algebra.basis[:1]]
    pool += [x.random(rng) for _ in range(samples)]
    worst_r = max(_psd_defect(x.inner_r(t, t)) for t in pool)
    worst_l = max(_psd_defect(x.inner_l(t, t)) for t in pool)
    return {"right_square_psd": worst_r, "left_square_psd": worst_l}


def check_cauchy_schwarz(x: BimoduleX, samples: int = 50,
                         rng: np.random.Generator | None = None) -> dict[str, float]:
    """Operator-valued Cauchy–Schwarz for both inner products."""
    rng = rng or np.random.default_rng(530)
    worst_r = worst_l = 0.0
    for _ in range(samples):
        s, t = x.random(rng), x.random(rng)
        diff = (x._psd_norm(x.inner_r(t, t)) * x.inner_r(s, s)
                - x.inner_r(s, t) @ x.inner_r(t, s))
        worst_r = max(worst_r, _psd_defect(diff))
        diff = (x._psd_norm(x.inner_l(t, t)) * x.inner_l(s, s)
                - x.inner_l(s, t) @ x.inner_l(t, s))
        worst_l = max(worst_l, _psd_defect(diff))
    return {"cauchy_schwarz_right": worst_r, "cauchy_schwarz_left": worst_l}


def check_norm_agreement(x: BimoduleX, samples: int = 50,
                         rng: np.random.Generator | None = None) -> dict[str, float]:
    """The two grid-calculus norms and the quotient norm coincide; the two
    inner products have the same null space."""
    rng = rng or np.random.default_rng(540)
    worst_forms = worst_sides = 0.0
    for _ in range(samples):
        t = x.random(rng)
        worst_sides = max(worst_sides, rel(abs(x.module_norm(t) - x.module_norm_left(t)),
                                           x.module_norm(t)))
        count = int(rng.integers(1, 4))
        pairs = [(x.algebra.random_element(rng), x.algebra.random_element(rng))
                 for _ in range(count)]
        n1, n2 = x.norm_two_ways(pairs)
        quot = x.module_norm(x.tensor_of_pairs(pairs))
        scale = max(n1, n2, quot)
        worst_forms = max(worst_forms,
                          rel(abs(n1 - n2), scale), rel(abs(n1 - quot), scale))
    # inner_l is linear in its first slot, so the left seminorm of t is
    # t^H conj(gram_l) t and its kernel is the null space of conj(gram_l)
    kern = 0.0
    for row in x.kernel:
        kern = max(kern, rel(float(np.linalg.norm(x.gram_l.conj() @ row)),
                             float(np.linalg.norm(x.gram_l, 2))))
    lam_l = np.linalg.eigvalsh(x.gram_l)
    rank_l = int((lam_l > x.tol * max(lam_l.max(initial=0.0), 1e-300)).sum())
    return {"norm_forms_agree": worst_forms, "seminorms_agree": worst_sides,
            "kernels_coincide": kern, "rank_mismatch": float(abs(rank_l - x.r))}


def check_sliding(x: BimoduleX) -> dict[str, float]:
    """The two relations moving range elements across the tensor sign."""
    alg = x.algebra
    h, v = x.inter.h, x.inter.v
    worst_v = 0.0
    for c in x.inter.range_v.elements():
        for a in alg.basis:
            ac = a * c
            for b in alg.basis:
                lhs = x.simple(ac, b)
                rhs = x.simple(a, h(c) * b)
                worst_v = max(worst_v, float(np.linalg.norm(
                    x.qx @ (lhs.coeffs - rhs.coeffs))))
    worst_h = 0.0
    for c in x.inter.range_h.elements():
        for a in alg.basis:
            av = a * v(c)
            for b in alg.basis:
                lhs = x.simple(a, c * b)
                rhs = x.simple(av, b)
                worst_h = max(worst_h, float(np.linalg.norm(
                    x.qx @ (lhs.coeffs - rhs.coeffs))))
    return {"slide_range_v": worst_v, "slide_range_h": worst_h}


def check_bound_59(x: BimoduleX, samples: int = 50, terms: int = 3,
                   rng: np.random.Generator | None = None) -> dict[str, float]:
    """Pairing a vector against a finite right-operator sum is bounded by
    the product of the three norms."""
    rng = rng or np.random.default_rng(590)
    worst = 0.0
    m = x.bch.m
    for _ in range(samples):
        xi, eta = x.random(rng), x.random(rng)
        phi = np.zeros((m, m), dtype=complex)
        moved = x.zero()
        for _ in range(terms):
            a = x.algebra.random_element(rng)
            b = x.algebra.random_element(rng)
            a_star = a.star()
            phi += x.bch.lam_of(a_star) @ x.bch.e @ x.bch.lam_of(b)
            pair = np.outer(a_star.coords(), b.coords())
            moved = moved + x.right_act(eta, None, coeff=pair)
        lhs = float(np.linalg.norm(x.inner_r(xi, moved), 2))
        rhs = xi.norm() * eta.norm() * float(np.linalg.norm(phi, 2))
        worst = max(worst, max(0.0, lhs - rhs) / max(1.0, rhs))
    return {"pairing_bound": worst}


def check_action_bound(x: BimoduleX, samples: int = 50,
                       rng: np.random.Generator | None = None) -> dict[str, float]:
    """∥t·k∥ ≤ ∥t∥·∥k∥, and the action is presentation-independent."""
    rng = rng or np.random.default_rng(5100)
    worst_bound = 0.0
    kb = x.bch.k_basis
    for _ in range(samples):
        t = x.random(rng)
        w = rng.standard_normal(kb.shape[0]) + 1j * rng.standard_normal(kb.shape[0])
        k = (kb.T @ w).reshape(x.bch.m, x.bch.m)
        moved = x.right_act(t, k)
        bound = t.norm() * float(np.linalg.norm(k, 2))
        worst_bound = max(worst_bound, max(0.0, moved.norm() - bound) / max(1.0, bound))
    # perturb a presentation by a null combination: the class must not move
    u, s, vh = np.linalg.svd(x.bch.spanning_matrix)
    rank = int((s > x.tol * max(s[0], 1e-300)).sum())
    null = vh[rank:]
    worst_pres = 0.0
    if null.shape[0]:
        for _ in range(min(samples, 10)):
            t = x.random(rng)
            k = (kb.T @ (rng.standard_normal(kb.shape[0]))).reshape(x.bch.m, x.bch.m)
            coeff, _ = x.bch.express_in_spanning(k)
            w = rng.standard_normal(null.shape[0]) + 1j * rng.standard_normal(null.shape[0])
            perturbed = coeff + (null.T @ w).reshape(x.dim, x.dim)
            d = x.right_act(t, k, coeff=coeff) - x.right_act(t, k, coeff=perturbed)
            worst_pres = max(worst_pres, rel(float(np.linalg.norm(x.qx @ d.coeffs)),
                                             x.class_norm(t)))
    return {"action_bound": worst_bound, "presentation_independent": worst_pres}


def worst_norm(diff: np.ndarray, axis: int | tuple[int, int] = -1) -> float:
    """Largest 2-norm (Frobenius over two axes) of the slices along ``axis``;
    a NaN anywhere comes through."""
    return float(np.linalg.norm(diff, axis=axis).max(initial=0.0))


def slot_adjoint_defects(tt: np.ndarray, lam_t: np.ndarray, rho_t: np.ndarray,
                         star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both slot-adjoint defects of a bracket tensor tt[i, j, k, c], for every
    basis element a of the coefficient algebra (``star[a]`` indexes a*):
    [x, a·y, z] - [x, y, a*·z] and [x, y·a, z] - [x·a*, y, z], indexed
    [a, i, j, k, c].  The middle slot is conjugate-linear, hence the conj."""
    mid = (np.einsum("atj,itkc->aijkc", lam_t.conj(), tt)
           - np.einsum("atk,ijtc->aijkc", lam_t[star], tt))
    outer = (np.einsum("atj,itkc->aijkc", rho_t.conj(), tt)
             - np.einsum("ati,tjkc->aijkc", rho_t[star], tt))
    return mid, outer


def check_associativity(x: BimoduleX) -> dict[str, float]:
    """Right-span action is associative and inner_r is right-linear over it;
    mirrored for the left span.  Swept over the representatives and the
    orthonormal span bases."""
    kh = x.bch.k_basis.reshape(-1, x.bch.m, x.bch.m)
    kv = x.bcv.k_basis.reshape(-1, x.bcv.m, x.bcv.m)
    by_r = np.einsum("twc,jw->tjc", x.right_act_t, x.bch.k_basis)   # t·j
    by_l = np.einsum("twc,jw->tjc", x.left_act_t, x.bcv.k_basis)    # j·t
    jk = np.einsum("jab,kbc->jkac", kh, kh).reshape(len(kh), len(kh), -1)
    kj = np.einsum("kab,jbc->jkac", kv, kv).reshape(len(kv), len(kv), -1)
    return {
        "right_action_associative": worst_norm(
            np.einsum("tjc,ckd->tjkd", by_r, by_r)
            - np.einsum("twd,jkw->tjkd", x.right_act_t, jk)),
        "inner_r_right_linear": worst_norm(
            np.einsum("tkc,scab->stkab", by_r, x.inner_r_t)
            - np.einsum("stab,kbe->stkae", x.inner_r_t, kh), axis=(-2, -1)),
        "left_action_associative": worst_norm(
            np.einsum("tjc,ckd->tjkd", by_l, by_l)
            - np.einsum("twd,jkw->tjkd", x.left_act_t, kj)),
        "inner_l_left_linear": worst_norm(
            np.einsum("skc,ctab->stkab", by_l, x.inner_l_t)
            - np.einsum("kae,steb->stkab", kv, x.inner_l_t), axis=(-2, -1)),
    }


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
    elementary = x._elementary_coeffs(reps, reps, reps) @ x.qx.T
    return {"ternary_two_routes": worst_norm(elementary - x.bracket_t)}


def check_fullness(x: BimoduleX) -> dict[str, float]:
    """Inner products of basis tensors span the full operator spans.  Over
    the basis tensors e_u, e_v those inner products are Rf[u, v], Lf[u, v]."""
    span_r = orthonormal_rows(x.Rf.reshape(x.amb * x.amb, -1), x.tol)
    span_l = orthonormal_rows(x.Lf.reshape(x.amb * x.amb, -1), x.tol)
    in_k_r = max((x.bch.express_in_k(row.reshape(x.bch.m, x.bch.m))[1]
                  for row in span_r), default=0.0)
    in_k_l = max((x.bcv.express_in_k(row.reshape(x.bcv.m, x.bcv.m))[1]
                  for row in span_l), default=0.0)
    return {"right_span_dim_gap": float(abs(span_r.shape[0] - x.bch.k_basis.shape[0])),
            "left_span_dim_gap": float(abs(span_l.shape[0] - x.bcv.k_basis.shape[0])),
            "right_span_inside": in_k_r, "left_span_inside": in_k_l}


def check_ternary_module_laws(x: BimoduleX) -> dict[str, float]:
    """Coefficient elements slide through the ternary slots with adjoints."""
    mid, outer = slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t, x.sigma)
    return {"middle_slot_adjoint": worst_norm(mid), "outer_slot_adjoint": worst_norm(outer)}
