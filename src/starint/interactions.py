"""Interaction pairs: two positive maps that restrict to inverse isomorphisms.

A pair (V, H) is accepted when both maps are positive and *-preserving,
V∘H∘V = V and H∘V∘H = H, V is multiplicative whenever one factor lies in
the range of H, and H is multiplicative whenever one factor lies in the
range of V.  Residuals are reported under stable check labels; the labels
are opaque identifiers shared with the command-line report format.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    Subspace,
    at_units,
    block_adjoint,
    block_norms,
    block_product,
    generated_subalgebra,
    pair_products,
    rel,
    row_chunks,
    unit_images,
    worst,
)
from .linmaps import (
    LinMap,
    amplify,
    is_completely_positive,
    map_residual,
    positivity_certificate,
    range_subspace,
    star_preservation_residual,
)


class InteractionError(ValueError):
    """Raised when a candidate pair fails verification."""

    def __init__(self, message: str, report: "InteractionReport | None" = None):
        super().__init__(message)
        self.report = report


class InteractionReport(NamedTuple):
    """Residuals of the defining identities, keyed by stable check labels."""

    tol: float
    residuals: dict[str, float]
    witnesses: dict[str, dict]
    ranges: tuple[Subspace, Subspace] | None = None   # of V and H; None if not finite

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def failing(self) -> list[str]:
        return [k for k, r in sorted(self.residuals.items()) if r > self.tol]


def _unit_defects(t: LinMap, xs: np.ndarray, pxs: np.ndarray) -> np.ndarray:
    """(len(xs), dim, 2): [i, j] holds ||t(x·e_j) - p·t(e_j)|| and
    ||t(e_j·x) - t(e_j)·p|| for x = xs[i] and p = pxs[i], given as coordinate
    rows, over the matrix units e_j.  With p = t(x) these are the columns of
    T·L_x - L_{Tx}·T and T·R_x - R_{Tx}·T.  The images of the products come
    from T's columns (``unit_images``), and the products p·t(e_j) and
    t(e_j)·p from one pair-product GEMM per block size."""
    alg, tt = t.algebra, t.matrix.T
    out = np.empty((len(xs), alg.dim, 2))
    for rows in row_chunks(len(xs), alg.dim * alg.dim):
        x, p = xs[rows], pxs[rows]
        diff = unit_images(alg, tt, x, True)
        diff -= pair_products(alg, p, tt)
        out[rows, :, 0] = np.linalg.norm(diff, axis=-1)
        diff = unit_images(alg, tt, x, False)
        diff -= pair_products(alg, tt, p).swapaxes(0, 1)
        out[rows, :, 1] = np.linalg.norm(diff, axis=-1)
    return out


def _multiplicativity_scan(t: LinMap, domain: Subspace,
                           tol: float) -> tuple[float, dict]:
    """Worst residual of t(xy) - t(x)t(y) with one factor in ``domain``.

    The scan prefers canonical matrix units that happen to lie in the
    domain, so failures come with readable witnesses: the witness is the
    first worst pair in the order pool element, then unit y, then "xy"
    before "yx".
    """
    eye = np.eye(t.algebra.dim, dtype=complex)
    outside = np.linalg.norm(eye - domain.basis.T @ domain.basis.conj(), axis=0)
    units = np.flatnonzero(outside <= tol)
    pool = [("unit", int(i)) for i in units] + [("range", i) for i in range(domain.dim)]
    xs = np.concatenate([eye[units], domain.basis])
    resid = _unit_defects(t, xs, xs @ t.matrix.T)
    top = worst(resid)
    if top == 0.0:
        return top, {}
    p, j, o = np.unravel_index(np.argmax(resid), resid.shape)
    kind, idx = pool[p]
    return top, {"x_kind": kind, "x_index": idx, "y_kind": "unit",
                 "y_index": int(j), "order": ("xy", "yx")[o]}


def verify_interaction(v: LinMap, h: LinMap, tol: float = DEFAULT_TOL,
                       samples: int = 25,
                       rng: np.random.Generator | None = None) -> InteractionReport:
    """Check the defining identities of a candidate pair and report residuals."""
    if v.algebra != h.algebra:
        raise ValueError("maps must live over the same algebra")
    rng = rng or np.random.default_rng(20240)
    residuals: dict[str, float] = {}
    witnesses: dict[str, dict] = {}

    _, defect_v = positivity_certificate(v, samples, tol, rng)
    _, defect_h = positivity_certificate(h, samples, tol, rng)
    residuals["3.1.i"] = worst([defect_v, defect_h, star_preservation_residual(v),
                                star_preservation_residual(h)])

    residuals["3.1.ii"] = map_residual(v @ h @ v, v)
    residuals["3.1.iii"] = map_residual(h @ v @ h, h)
    # the restriction identities are the same residuals, tracked separately
    residuals["2.4.i"] = residuals["3.1.ii"]
    residuals["2.4.ii"] = residuals["3.1.iii"]

    ranges = None
    if np.isfinite(v.matrix).all() and np.isfinite(h.matrix).all():
        ranges = range_v, range_h = range_subspace(v, tol), range_subspace(h, tol)
        residuals["3.1.iv"], witnesses["3.1.iv"] = _multiplicativity_scan(v, range_h, tol)
        residuals["3.1.v"], witnesses["3.1.v"] = _multiplicativity_scan(h, range_v, tol)
    else:
        # the range of a non-finite map is undefined, so both scans fail
        for cid in ("3.1.iv", "3.1.v"):
            residuals[cid], witnesses[cid] = float("nan"), {}
    return InteractionReport(tol=tol, residuals=residuals, witnesses=witnesses,
                             ranges=ranges)


class Interaction:
    """A verified pair of maps together with their ranges and report."""

    def __init__(self, algebra: Algebra, v: LinMap, h: LinMap, tol: float,
                 range_v: Subspace, range_h: Subspace, report: InteractionReport):
        self.algebra, self.v, self.h, self.tol = algebra, v, h, tol
        self.range_v, self.range_h, self.report = range_v, range_h, report

    @classmethod
    def from_report(cls, v: LinMap, h: LinMap, report: InteractionReport) -> "Interaction":
        """The pair that ``report`` verified, with the ranges it found; a
        failing report is refused."""
        if not report.passed:
            raise InteractionError(
                f"pair rejected; failing checks: {report.failing()}", report)
        range_v, range_h = report.ranges
        return cls(algebra=v.algebra, v=v, h=h, tol=report.tol,
                   range_v=range_v, range_h=range_h, report=report)

    @classmethod
    def build(cls, v: LinMap, h: LinMap, tol: float = DEFAULT_TOL,
              samples: int = 25,
              rng: np.random.Generator | None = None) -> "Interaction":
        return cls.from_report(v, h, verify_interaction(v, h, tol, samples, rng))

    @cached_property
    def e_v(self) -> "CondExp":
        """Expectation onto the range of V, the composite V∘H."""
        return expectation(self.v @ self.h, self.range_v, self.tol)

    @cached_property
    def e_h(self) -> "CondExp":
        """Expectation onto the range of H, the composite H∘V."""
        return expectation(self.h @ self.v, self.range_h, self.tol)


class CondExp(NamedTuple):
    """An idempotent positive bimodule projection onto a subalgebra."""

    target: LinMap
    range: Subspace
    residuals: dict[str, float]
    cp_min_eig: float


def expectation(e: LinMap, expected_range: Subspace,
                tol: float = DEFAULT_TOL) -> CondExp:
    """Validate that ``e`` is a conditional expectation onto its range."""
    residuals = {"idempotent": map_residual(e @ e, e)}
    rows = expected_range.basis
    residuals["fixes_range"] = worst(np.linalg.norm(rows @ e.matrix.T - rows, axis=-1))
    # e(b·a) - b·e(a) and e(a·b) - e(a)·b over the range rows b and the matrix units a
    residuals["bimodule"] = worst(_unit_defects(e, rows, rows))
    own = range_subspace(e, tol).basis
    residuals["range_match"] = float(np.linalg.norm(own.conj().T @ own - rows.conj().T @ rows))
    cp_ok, low = is_completely_positive(e, tol)
    if not all(r <= tol for r in residuals.values()) or not cp_ok:
        raise InteractionError(f"not a conditional expectation: {residuals}, choi min {low}")
    return CondExp(target=e, range=expected_range, residuals=residuals, cp_min_eig=low)


def check_inverse_pair(inter: Interaction) -> dict[str, float]:
    """Residuals for the mutually inverse isomorphisms between the two ranges.

    V restricted to range(H) and H restricted to range(V) must invert one
    another, be *-multiplicative and isometric, and recover the original
    maps when composed with the matching expectation.
    """
    v, h = inter.v, inter.h
    out = {
        "v_factors_through_eh": map_residual(v @ (h @ v), v),
        "h_factors_through_ev": map_residual(h @ (v @ h), h),
    }
    alg = inter.algebra
    rows_h, rows_v = inter.range_h.basis, inter.range_v.basis
    out["h1_after_v1_is_id"] = worst(np.linalg.norm(
        rows_h @ v.matrix.T @ h.matrix.T - rows_h, axis=-1))
    out["v1_after_h1_is_id"] = worst(np.linalg.norm(
        rows_v @ h.matrix.T @ v.matrix.T - rows_v, axis=-1))

    iso, mult, star = [], [], []
    for t, rows in ((v, rows_h), (h, rows_v)):
        images = rows @ t.matrix.T
        iso.append(abs(block_norms(alg, images) - block_norms(alg, rows)))
        star.append(np.linalg.norm(block_adjoint(alg, rows) @ t.matrix.T
                                   - block_adjoint(alg, images), axis=-1))
        # t(x·y) - t(x)·t(y) over pairs of range rows, a few rows x at a time
        for part in row_chunks(len(rows), len(rows) * alg.dim):
            diff = pair_products(alg, rows[part], rows) @ t.matrix.T
            diff -= pair_products(alg, images[part], images)
            mult.append(np.linalg.norm(diff, axis=-1))
    out["restriction_isometric"] = worst(*iso)
    out["restriction_multiplicative"] = worst(*mult)
    out["restriction_star"] = worst(*star)
    return out


def amplified_interaction(inter: Interaction, n: int,
                          samples: int = 10,
                          rng: np.random.Generator | None = None) -> Interaction:
    """Entrywise extension to n-by-n grids, re-verified from scratch."""
    return Interaction.build(amplify(inter.v, n), amplify(inter.h, n),
                             inter.tol, samples, rng)


# -- constructions --------------------------------------------------------------


def from_endomorphism_transfer(alpha: LinMap, transfer: LinMap,
                               tol: float = DEFAULT_TOL,
                               samples: int = 25,
                               rng: np.random.Generator | None = None
                               ) -> tuple[Interaction, dict[str, float]]:
    """Interaction built from a unital *-endomorphism and a transfer map.

    The transfer map must satisfy transfer(a * alpha(b)) == transfer(a) * b
    and fix the unit; the returned pair is (alpha, transfer), re-verified.
    """
    alg = alpha.algebra
    if transfer.algebra != alg:
        raise ValueError("maps must live over the same algebra")
    eye = np.eye(alg.dim, dtype=complex)
    alpha_rows = alpha.matrix.T                   # alpha(a_j) as rows
    one = alg.unit()
    residuals = {
        # alpha(a_i a_j) - alpha(a_i) alpha(a_j)
        "endomorphism_multiplicative": worst(_unit_defects(alpha, eye, alpha_rows)[..., 0]),
        "endomorphism_star": star_preservation_residual(alpha),
        "endomorphism_unital": float(np.linalg.norm(alpha.matrix @ one - one)),
        # transfer(a_i alpha(a_j)) - transfer(a_i) a_j
        "transfer_identity": worst(_unit_defects(transfer, alpha_rows, eye)[..., 1]),
        "transfer_unital": float(np.linalg.norm(transfer.matrix @ one - one)),
    }
    bad = {k: v for k, v in residuals.items() if not v <= tol}
    if bad:
        raise InteractionError(f"not an endomorphism/transfer pair: {bad}")
    inter = Interaction.build(alpha, transfer, tol, samples, rng)
    return inter, residuals


class DeriveResult(NamedTuple):
    """Outcome of reconstructing a pair from a partial isometry."""

    interaction: Interaction
    gauge: str
    residuals: dict[str, float]
    gates: dict[str, float]


def _injectivity_gate(moved: np.ndarray, scale: int) -> float:
    """Smallest singular value of a linear map over a subspace, given the
    (d, ...) images of the subspace's d orthonormal rows.

    The images are rescaled to the normalized-trace inner product of matrix
    size ``scale``, so that a unit element of the algebra the rows come from
    has norm one.
    """
    if moved.shape[0] == 0:
        return float("inf")
    sv = np.linalg.svd(np.sqrt(scale) * moved.reshape(len(moved), -1).T, compute_uv=False)
    return float(sv.min())


def derive_from_partial_isometry(a_algebra: Algebra,
                                 ambient: Algebra,
                                 a_embed: np.ndarray,
                                 s: np.ndarray,
                                 tol: float = DEFAULT_TOL,
                                 samples: int = 25,
                                 rng: np.random.Generator | None = None
                                 ) -> DeriveResult:
    """Reconstruct the pair compressed by a partial isometry.

    ``a_embed`` holds, as (a_algebra.dim, ambient.dim) rows, the ambient
    coordinates of the embedded image of each canonical basis element, and
    ``s`` the (ambient.dim,) coordinates of S.  Solves S a S* = b * SS* and
    S* a S = c * S*S for b, c in the span of the embedded copy of the
    coefficient algebra.  The minimal-norm solution is completed to the
    unital gauge (identity off the support of the compression); both
    candidates are verified and the first pair passing all identities plus
    both injectivity gates is returned.
    """
    rows = np.asarray(a_embed, dtype=complex)        # ambient coords per abstract basis
    sc = np.asarray(s, dtype=complex)
    if rows.shape != (a_algebra.dim, ambient.dim) or sc.shape != (ambient.dim,):
        raise ValueError("need one embedded element per canonical basis vector "
                         "and the coordinates of S")
    sc_star = block_adjoint(ambient, sc)
    residuals: dict[str, float] = {}

    pi_gap = float(np.linalg.norm(
        block_product(ambient, block_product(ambient, sc, sc_star), sc) - sc))
    residuals["partial_isometry"] = rel(pi_gap, float(np.linalg.norm(sc)))
    if residuals["partial_isometry"] > tol:
        raise InteractionError(f"not a partial isometry (residual {pi_gap:.3e})")

    # embed(a_j a_k) = embed(a_j) embed(a_k), with a_j a_k a unit or 0 (``unit_products``);
    # embed(a_j*) = embed(a_j)*, with coords(a_j*) one-hot at star_perm[j]
    products = pair_products(ambient, rows, rows).T              # [s, k, j]
    residuals["embedding"] = worst(
        np.linalg.norm(products - at_units(rows.T, a_algebra.unit_products.T), axis=0),
        np.linalg.norm(block_adjoint(ambient, rows) - rows[a_algebra.star_perm], axis=-1))
    if not residuals["embedding"] <= tol:
        raise InteractionError("embedded basis is not a *-homomorphic image")

    def solve(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, float]:
        """The matrix of the map b with left·x·right = b(x)·(left·right) on the
        embedded basis, by least squares, and its worst relative misfit."""
        cols = block_product(ambient, rows, block_product(ambient, left, right)).T
        rhs = block_product(ambient, block_product(ambient, left, rows), right).T
        mat = np.linalg.pinv(cols) @ rhs
        misfit = np.linalg.norm(cols @ mat - rhs, axis=0)
        return mat, worst(misfit / np.maximum(1.0, np.linalg.norm(rhs, axis=0)))

    v0, fit_v = solve(sc, sc_star)
    h0, fit_h = solve(sc_star, sc)
    residuals["compression_fit_v"] = fit_v
    residuals["compression_fit_h"] = fit_h
    if not worst([fit_v, fit_h]) <= tol:
        raise InteractionError("compression leaves the embedded algebra")

    def unital_completion(mat: np.ndarray) -> np.ndarray:
        """Adds x -> u·x·u for u = 1 - b(1), the part of the unit b misses."""
        one = a_algebra.unit()
        missing = one - mat @ one
        sandwich = block_product(a_algebra, block_product(
            a_algebra, missing, np.eye(a_algebra.dim, dtype=complex)), missing)
        return mat + sandwich.T

    candidates = [("unital", unital_completion(v0), unital_completion(h0)),
                  ("minimal", v0, h0)]
    rng = rng or np.random.default_rng(20241)
    last_report = None
    for gauge, vm, hm in candidates:
        v = LinMap(a_algebra, vm)
        h = LinMap(a_algebra, hm)
        report = verify_interaction(v, h, tol, samples, rng)
        last_report = report
        if not report.passed:
            continue
        gates = {}
        for name, mat, side in (("v", vm, "right"), ("h", hm, "left")):
            xs = generated_subalgebra(a_algebra, mat.T, tol).basis @ rows
            pair = (xs, sc) if side == "right" else (sc, xs)             # x·S or S·x
            gates[f"{name}_generated"] = _injectivity_gate(block_product(ambient, *pair),
                                                           ambient.matrix_size)
        if min(gates.values()) <= tol:
            continue
        return DeriveResult(interaction=Interaction.from_report(v, h, report), gauge=gauge,
                            residuals=residuals, gates=gates)
    raise InteractionError("no gauge of the compressed pair verifies", last_report)


# -- stock pairs -----------------------------------------------------------------


def flip_interaction(tol: float = DEFAULT_TOL) -> Interaction:
    """The flip pair on the diagonal pair of scalars."""
    alg = Algebra((1, 1))
    v = LinMap(alg, np.array([[0, 1], [0, 1]], dtype=complex))
    h = LinMap(alg, np.array([[1, 0], [1, 0]], dtype=complex))
    return Interaction.build(v, h, tol)


def identity_interaction(algebra: Algebra, tol: float = DEFAULT_TOL) -> Interaction:
    eye = LinMap.identity(algebra)
    return Interaction.build(eye, eye, tol)


def swap_transfer_interaction(tol: float = DEFAULT_TOL) -> tuple[Interaction, LinMap, LinMap]:
    """Coordinate swap on two scalars, as an endomorphism/transfer pair."""
    alg = Algebra((1, 1))
    swap = LinMap(alg, np.array([[0, 1], [1, 0]], dtype=complex))
    inter, _ = from_endomorphism_transfer(swap, swap, tol)
    return inter, swap, swap
