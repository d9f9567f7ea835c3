"""Ternary operator spaces and the module-with-two-actions layer above them.

A ternary space comes in two flavours sharing one checking interface: a
concrete subspace of a matrix algebra closed under x·y*·z, and the abstract
quotient module of a verified pair with its bracket.  Everything downstream
(rank-one operator spans, commutation, redundancy extraction) only consumes
the structure tensor of the bracket plus the two coefficient actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, Element, rel, orthonormal_rows
from .bimodule import BimoduleX, slot_adjoint_defects, worst_norm
from .interactions import Interaction
from .linmaps import LinMap, map_residual


class CorrespondenceError(ValueError):
    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


@dataclass(frozen=True)
class ConcreteTRO:
    """Subspace of a matrix algebra closed under the triple product x·y*·z."""

    ambient: Algebra
    basis: np.ndarray        # (n, ambient.dim) orthonormal coordinate rows
    tol: float = DEFAULT_TOL

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def element(self, coords: np.ndarray) -> Element:
        return self.ambient.from_coords(self.basis.T @ np.asarray(coords, dtype=complex))

    def coords_of(self, a: Element) -> tuple[np.ndarray, float]:
        """Coordinates in the internal basis plus the out-of-space leak."""
        v = a.coords()
        c = self.basis.conj() @ v
        return c, float(np.linalg.norm(v - self.basis.T @ c))

    def triple(self, i: int, j: int, k: int) -> Element:
        x = self.ambient.from_coords(self.basis[i])
        y = self.ambient.from_coords(self.basis[j])
        z = self.ambient.from_coords(self.basis[k])
        return x * y.star() * z


def concrete_tro(ambient: Algebra, spanning: list[Element],
                 tol: float = DEFAULT_TOL) -> ConcreteTRO:
    rows = np.array([e.coords() for e in spanning]) if spanning else \
        np.zeros((0, ambient.dim), dtype=complex)
    basis = orthonormal_rows(rows, tol)
    tro = ConcreteTRO(ambient=ambient, basis=basis, tol=tol)
    worst = 0.0
    for i in range(tro.n):
        for j in range(tro.n):
            for k in range(tro.n):
                _, leak = tro.coords_of(tro.triple(i, j, k))
                worst = max(worst, leak)
    if worst > tol:
        raise CorrespondenceError(
            f"triple products leave the subspace (leak {worst:.3e})")
    return tro


@dataclass(frozen=True)
class GenCorrespondence:
    """Ternary space with left/right actions of a coefficient algebra.

    tt[i,j,k] holds the coordinates of the bracket of basis triples; the
    bracket is conjugate-linear in the middle slot, handled at evaluation.
    """

    coeff: Algebra
    tt: np.ndarray            # (n, n, n, n)
    lam_t: np.ndarray         # (dimA, n, n): left action per basis element
    rho_t: np.ndarray         # (dimA, n, n): right action per basis element
    mode: str                 # "concrete" | "abstract"
    tol: float
    tro: ConcreteTRO | None = None
    x: BimoduleX | None = None

    @property
    def n(self) -> int:
        return self.tt.shape[0]

    def lam_of(self, a: Element) -> np.ndarray:
        return np.tensordot(a.coords(), self.lam_t, axes=(0, 0))

    def rho_of(self, a: Element) -> np.ndarray:
        return np.tensordot(a.coords(), self.rho_t, axes=(0, 0))

    def bracket(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,k,ijkc->c", u, np.conj(v), w, self.tt)

    def norm_of(self, coords: np.ndarray) -> float:
        coords = np.asarray(coords, dtype=complex)
        if self.mode == "concrete":
            return self.tro.element(coords).norm()
        return self.x.module_norm(self.x.from_coeffs(self.x.liftx @ coords))


def check_71(corr: GenCorrespondence) -> dict[str, float]:
    """Defining laws: slot-adjointness of both actions, and that the actions
    are a homomorphism (left) and an anti-homomorphism (right)."""
    alg = corr.coeff
    lam, rho = corr.lam_t, corr.rho_t
    star = np.argmax(np.abs(alg.star_signature), axis=0)
    mid, out = slot_adjoint_defects(corr.tt, lam, rho, star)
    # coords(a_i a_k) = left_mult_tensor[i, :, k]
    lam_ik = np.einsum("ick,cxy->ikxy", alg.left_mult_tensor, lam)
    rho_ik = np.einsum("ick,cxy->ikxy", alg.left_mult_tensor, rho)
    return {
        "middle_slot_intertwines": float(np.abs(mid).max(initial=0.0)),
        "outer_slot_intertwines": float(np.abs(out).max(initial=0.0)),
        "left_action_multiplicative": worst_norm(
            lam_ik - np.einsum("ixy,kyz->ikxz", lam, lam), axis=(-2, -1)),
        "right_action_antimultiplicative": worst_norm(
            rho_ik - np.einsum("kxy,iyz->ikxz", rho, rho), axis=(-2, -1)),
        "left_action_star": worst_norm(
            lam[star] - lam.conj().swapaxes(-1, -2), axis=(-2, -1)),
        "right_action_star": worst_norm(
            rho[star] - rho.conj().swapaxes(-1, -2), axis=(-2, -1)),
    }


def correspondence_from_tro(tro: ConcreteTRO, coeff: Algebra,
                            embed: list[Element],
                            tol: float | None = None) -> GenCorrespondence:
    """Concrete mode: the coefficient algebra acts through an embedding into
    the ambient algebra, which must preserve the subspace on both sides."""
    tol = tro.tol if tol is None else tol
    if len(embed) != coeff.dim:
        raise CorrespondenceError("need one embedded element per basis element")
    n = tro.n
    tt = np.zeros((n, n, n, n), dtype=complex)
    worst_leak = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c, leak = tro.coords_of(tro.triple(i, j, k))
                tt[i, j, k] = c
                worst_leak = max(worst_leak, leak)
    lam_t = np.zeros((coeff.dim, n, n), dtype=complex)
    rho_t = np.zeros((coeff.dim, n, n), dtype=complex)
    for a_i, img in enumerate(embed):
        for k in range(n):
            b = tro.element(np.eye(n)[k]) if n else None
            if b is None:
                continue
            cl, leak_l = tro.coords_of(img * b)
            cr, leak_r = tro.coords_of(b * img)
            worst_leak = max(worst_leak, leak_l, leak_r)
            lam_t[a_i, :, k] = cl
            rho_t[a_i, :, k] = cr
    if worst_leak > tol:
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
                                     lam_t=x.lam_t, rho_t=x.rho_t,
                                     mode="abstract", tol=tol, x=x))


def _lawful(corr: GenCorrespondence) -> GenCorrespondence:
    """The correspondence itself when the 7.1 laws hold; raises otherwise."""
    laws = check_71(corr)
    if max(laws.values()) > max(corr.tol, 1e-8):
        bad = max(laws, key=laws.get)
        raise CorrespondenceError(
            f"correspondence laws fail at {bad} ({laws[bad]:.3e})", laws)
    return corr


# -- operator spans and their laws -------------------------------------------------


def _theta_grids(corr: GenCorrespondence) -> tuple[np.ndarray, np.ndarray]:
    """All rank-one operators over basis pairs: left ones indexed [i,j] and
    right ones indexed [j,l], each as an (n, n) matrix."""
    left = corr.tt.transpose(0, 1, 3, 2)     # [i,j][c,k] = tt[i,j,k,c]
    right = corr.tt.transpose(1, 2, 3, 0)    # [j,l][c,k] = tt[k,j,l,c]
    return left, right


def compact_spans(corr: GenCorrespondence) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as vectorized rows) of the spans of the rank-one
    operators on each side."""
    n = corr.n
    left, right = _theta_grids(corr)
    kl = orthonormal_rows(left.reshape(n * n, n * n), corr.tol) if n else \
        np.zeros((0, 0), dtype=complex)
    kr = orthonormal_rows(right.reshape(n * n, n * n), corr.tol) if n else \
        np.zeros((0, 0), dtype=complex)
    return kl, kr


def check_commutation(corr: GenCorrespondence,
                      tol: float | None = None) -> dict[str, float]:
    """Every right rank-one operator commutes with every left one, and the
    two coefficient actions commute with each other."""
    left, right = _theta_grids(corr)
    n = corr.n
    worst = 0.0
    lmats = left.reshape(n * n, n, n)
    for rmat in right.reshape(n * n, n, n):
        diff = rmat @ lmats - lmats @ rmat
        worst = max(worst, float(np.abs(diff).max(initial=0.0)))
    lam_rho = 0.0
    for la in corr.lam_t:
        diff = la @ corr.rho_t - corr.rho_t @ la
        lam_rho = max(lam_rho, float(np.abs(diff).max(initial=0.0)))
    return {"rank_one_sides_commute": worst, "actions_commute": lam_rho}


def check_cube_identity(corr: GenCorrespondence) -> dict[str, float]:
    """The norm of bracket(x,x,x) is the cube of the norm of x."""
    worst = 0.0
    eye = np.eye(corr.n, dtype=complex)
    for i in range(corr.n):
        nx = corr.norm_of(eye[i])
        cubed = corr.norm_of(corr.bracket(eye[i], eye[i], eye[i]))
        worst = max(worst, rel(abs(cubed - nx ** 3), nx ** 3))
    return {"cube_identity": worst}


def check_theta_adjoints(corr: GenCorrespondence) -> dict[str, float]:
    """Swapping the two defining vectors adjoints the rank-one operators."""
    left, right = _theta_grids(corr)
    return {name: worst_norm(grid.conj().swapaxes(-1, -2) - grid.swapaxes(0, 1),
                             axis=(-2, -1))
            for name, grid in (("theta_left_adjoint", left),
                               ("theta_right_adjoint", right))}


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
    x = corr.x
    lam_stack = x.bch.lam.reshape(corr.coeff.dim, -1)
    inner = x.inner_r_t.reshape(corr.n, corr.n, -1)
    a_coords = inner @ np.linalg.pinv(lam_stack.T).T            # [j, l, a]
    rho_a = np.einsum("jla,ack->jlck", a_coords, corr.rho_t)
    out["inner_product_recovered"] = worst_norm(a_coords @ lam_stack - inner)
    out["theta_r_is_inner_action"] = worst_norm(_theta_grids(corr)[1] - rho_a,
                                            axis=(-2, -1))
    return out


# -- redundancies -------------------------------------------------------------------


@dataclass(frozen=True)
class Redundancy:
    a: Element
    k: np.ndarray          # coefficients in the orthonormal operator span
    side: str
    residual: float
    restricted: bool       # lies in the annihilator of the action kernel


def action_kernel_blocks(corr: GenCorrespondence, side: str) -> list[int]:
    """Central blocks of the coefficient algebra on which the action vanishes."""
    alg = corr.coeff
    tensor = corr.rho_t if side == "right" else corr.lam_t
    dead = []
    for b in range(len(alg.blocks)):
        lo = alg.offsets[b]
        hi = lo + alg.blocks[b] ** 2
        if float(np.abs(tensor[lo:hi]).max(initial=0.0)) <= corr.tol:
            dead.append(b)
    return dead


def find_redundancies(corr: GenCorrespondence, side: str = "right",
                      tol: float | None = None) -> list[Redundancy]:
    """Basis of the coefficient elements whose action already lies in the
    rank-one span, each paired with that operator; elements supported away
    from the action kernel are flagged as the restricted generating set."""
    tol = corr.tol if tol is None else tol
    alg = corr.coeff
    kl, kr = compact_spans(corr)
    span = kr if side == "right" else kl
    tensor = corr.rho_t if side == "right" else corr.lam_t
    n = corr.n
    vecs = tensor.reshape(alg.dim, n * n)
    proj = vecs @ span.conj().T @ span if span.size else np.zeros_like(vecs)
    defect = (vecs - proj).T                      # (n², dimA)
    _, s, vh = np.linalg.svd(defect, full_matrices=True)
    ref = max(float(s[0]), 1.0) if s.size else 1.0
    rank = int(np.sum(s > tol * ref))
    kernel = vh[rank:]                            # rows: redundancy directions

    dead = action_kernel_blocks(corr, side)
    mask = np.zeros(alg.dim)
    for b in dead:
        lo = alg.offsets[b]
        mask[lo:lo + alg.blocks[b] ** 2] = 1.0
    # directions inside the kernel span that vanish on the dead blocks
    shadow = kernel * mask[None, :]
    if kernel.shape[0]:
        _, s2, vh2 = np.linalg.svd(shadow.T, full_matrices=True)
        rank2 = int(np.sum(s2 > tol * max(float(s2[0]) if s2.size else 0.0, 1.0)))
        inside = vh2[rank2:] @ kernel             # restricted directions
    else:
        inside = np.zeros((0, alg.dim), dtype=complex)
    inside = orthonormal_rows(inside, tol)
    rest = kernel - (kernel @ inside.conj().T) @ inside if inside.size else kernel
    rest = orthonormal_rows(rest, tol)

    out: list[Redundancy] = []
    for rows, flagged in ((inside, True), (rest, False)):
        for row in rows:
            a = alg.from_coords(row)
            op = np.tensordot(row, tensor, axes=(0, 0)).reshape(-1)
            coeffs = span.conj() @ op if span.size else np.zeros(0, dtype=complex)
            resid = float(np.linalg.norm(op - (span.T @ coeffs if span.size else 0)))
            out.append(Redundancy(a=a, k=coeffs, side=side,
                                  residual=resid, restricted=flagged))
    return out


# -- the endomorphism/transfer module, two ways ------------------------------------


def check_713(alpha: LinMap, transfer: LinMap, inter: Interaction,
              x: BimoduleX, tol: float | None = None) -> dict[str, float]:
    """The quotient module of a pair coming from an endomorphism and a
    transfer map is the classical module of that pair: spanned by first-leg
    tensors, with the expected norm, coefficient maps, and bracket."""
    tol = inter.tol if tol is None else tol
    alg = inter.algebra
    gap = max(float(np.linalg.norm(alpha.matrix - inter.v.matrix)),
              float(np.linalg.norm(transfer.matrix - inter.h.matrix)))
    if gap > tol:
        raise ValueError("the pair was not generated by the supplied "
                         f"endomorphism/transfer maps (gap {gap:.3e})")
    mult = max((alpha(a * b) - alpha(a) * alpha(b)).hs_norm()
               for a in alg.basis for b in alg.basis)
    if mult > tol:
        raise ValueError(f"first map is not multiplicative ({mult:.3e})")
    one = alg.unit()
    density = isometry = right_lin = left_lin = ternary = 0.0
    for a in alg.basis:
        phi_a = x.simple(a, one)
        isometry = max(isometry, abs(
            x.module_norm(phi_a) - np.sqrt(transfer(a.star() * a).norm())))
        for b in alg.basis:
            t1 = x.simple(a, b)
            t2 = x.simple(a * alpha(b), one)
            density = max(density, float(np.linalg.norm(
                t1.class_coords - t2.class_coords)))
            lhs_r = x.simple(a * alpha(b), one)
            rhs_r = x.act_a(b, phi_a, side="right")
            right_lin = max(right_lin, float(np.linalg.norm(
                lhs_r.class_coords - rhs_r.class_coords)))
            lhs_l = x.simple(b * a, one)
            rhs_l = x.act_a(b, phi_a, side="left")
            left_lin = max(left_lin, float(np.linalg.norm(
                lhs_l.class_coords - rhs_l.class_coords)))
    rng = np.random.default_rng(713)
    for _ in range(8):
        u, v, w = (alg.random_element(rng) for _ in range(3))
        lhs = x.simple(u * alpha(transfer(v.star() * w)), one)
        rhs = x.ternary(x.simple(u, one), x.simple(v, one), x.simple(w, one))
        ternary = max(ternary, float(np.linalg.norm(
            lhs.class_coords - rhs.class_coords)))
    return {
        "density": density,
        "isometry": isometry,
        "module_map_right": right_lin,
        "module_map_left": left_lin,
        "ternary": ternary,
    }
