"""The verify stage as whole-stack identities: the per-element loops it
replaced are kept here as oracles on the dense block-diagonal matrices, with
the Choi pieces against the full Choi matrix, the closed-form multiplication
tensors against dense products, the memory of the verify stage, and
non-finite maps."""

import ast
import re

import dense
import numpy as np
import pytest
from conftest import traced_peak

from starint import (
    Algebra,
    Interaction,
    InteractionError,
    LinMap,
    Subspace,
    amplified_interaction,
    build_bimodule,
    check_713,
    choi_matrix,
    flip_interaction,
    from_endomorphism_transfer,
    identity_interaction,
    transpose_map,
)
from starint.algebra import (at_units, block_adjoint, block_norms, block_product,
                             positivity_defects, unit_sums)
from starint.bimodule import check_sliding
from starint.checklist import _record, verify_stage_records
from starint.interactions import (
    _multiplicativity_scan,
    _unit_defects,
    check_inverse_pair,
    expectation,
    verify_interaction,
)
from starint.linmaps import (
    _choi_pieces,
    complete_contractivity_residual,
    is_completely_positive,
    positivity_certificate,
    range_subspace,
    star_preservation_residual,
)

TOL = 1e-9


# -- the per-element loops the stacked checks replaced -------------------------


def old_random_element(alg, rng):
    blocks = []
    for d in alg.blocks:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append((m / np.sqrt(2.0)).reshape(-1))
    return np.concatenate(blocks)


def old_rank_one_positives(alg):
    out = []
    edges = np.cumsum((0,) + alg.blocks)
    for b_idx, d in enumerate(alg.blocks):
        eye = np.eye(d, dtype=complex)
        vecs = [eye[:, p] for p in range(d)]
        for p in range(d):
            for q in range(p + 1, d):
                vecs.append(eye[:, p] + eye[:, q])
                vecs.append(eye[:, p] + 1j * eye[:, q])
        for v in vecs:
            mat = np.zeros((alg.matrix_size,) * 2, dtype=complex)
            mat[edges[b_idx]:edges[b_idx + 1], edges[b_idx]:edges[b_idx + 1]] = np.outer(
                v, v.conj())
            out.append(dense.from_dense(alg, mat))
    return out


def old_positivity_certificate(t, trials, rng):
    alg = t.algebra
    worst = 0.0
    for x in old_rank_one_positives(alg):
        worst = max(worst, dense.positivity_defect(alg, t.matrix @ x))
    for _ in range(trials):
        y = old_random_element(alg, rng)
        worst = max(worst, dense.positivity_defect(
            alg, t.matrix @ dense.mul(alg, dense.star(alg, y), y)))
    return worst


def old_star_preservation(t):
    alg = t.algebra
    return max(np.linalg.norm(t.matrix @ dense.star(alg, b) - dense.star(alg, t.matrix @ b))
               for b in np.eye(alg.dim))


def old_contractivity(t, samples, rng, amplification=2):
    from starint import amplify
    worst = 0.0
    for tt in (t, amplify(t, amplification)):
        for _ in range(samples):
            x = old_random_element(tt.algebra, rng)
            nx = dense.norm(tt.algebra, x)
            if nx > 0:
                worst = max(worst, (dense.norm(tt.algebra, tt.matrix @ x) - nx) / nx)
    return max(0.0, worst)


def old_scan(t, domain, tol):
    alg = t.algebra
    basis = np.eye(alg.dim)
    pool = []
    for i, b in enumerate(basis):
        if np.linalg.norm(b - domain.basis.T @ (domain.basis.conj() @ b)) <= tol:
            pool.append(("unit", i, b))
    for i, x in enumerate(domain.basis):
        pool.append(("range", i, x))
    worst, witness = 0.0, {}
    for kind, idx, x in pool:
        tx = t.matrix @ x
        for j, y in enumerate(basis):
            ty = t.matrix @ y
            for order, left, right, tl, tr in (("xy", x, y, tx, ty), ("yx", y, x, ty, tx)):
                resid = np.linalg.norm(t.matrix @ dense.mul(alg, left, right)
                                       - dense.mul(alg, tl, tr))
                if resid > worst:
                    worst = resid
                    witness = {"x_kind": kind, "x_index": idx,
                               "y_kind": "unit", "y_index": j, "order": order}
    return worst, witness


def old_expectation(e, expected_range):
    """fixes_range and bimodule, the two swept residuals of 2.6."""
    alg = e.algebra
    worst_fix = worst_bim = 0.0
    for b in expected_range.basis:
        worst_fix = max(worst_fix, np.linalg.norm(e.matrix @ b - b))
        for a in np.eye(alg.dim):
            ea = e.matrix @ a
            worst_bim = max(worst_bim,
                            np.linalg.norm(e.matrix @ dense.mul(alg, a, b) - dense.mul(alg, ea, b)),
                            np.linalg.norm(e.matrix @ dense.mul(alg, b, a) - dense.mul(alg, b, ea)))
    return {"fixes_range": worst_fix, "bimodule": worst_bim}


def old_inverse_pair(inter):
    alg, v, h = inter.algebra, inter.v.matrix, inter.h.matrix
    out = {"h1_after_v1_is_id": max(np.linalg.norm(h @ v @ x - x)
                                    for x in inter.range_h.basis),
           "v1_after_h1_is_id": max(np.linalg.norm(v @ h @ x - x)
                                    for x in inter.range_v.basis)}
    iso = mult = star = 0.0
    for t, space in ((v, inter.range_h), (h, inter.range_v)):
        for x in space.basis:
            iso = max(iso, abs(dense.norm(alg, t @ x) - dense.norm(alg, x)))
            star = max(star, np.linalg.norm(t @ dense.star(alg, x) - dense.star(alg, t @ x)))
            for y in space.basis:
                mult = max(mult, np.linalg.norm(t @ dense.mul(alg, x, y)
                                                - dense.mul(alg, t @ x, t @ y)))
    out.update(restriction_isometric=iso, restriction_multiplicative=mult,
               restriction_star=star)
    return out


def old_sliding(x):
    alg, h, v = x.algebra, x.inter.h.matrix, x.inter.v.matrix
    basis = np.eye(alg.dim)
    worst_v = worst_h = 0.0
    for c in x.inter.range_v.basis:
        for a in basis:
            for b in basis:
                d = (np.kron(dense.mul(alg, a, c), b)
                     - np.kron(a, dense.mul(alg, h @ c, b)))
                worst_v = max(worst_v, float(np.linalg.norm(x.qx @ d)))
    for c in x.inter.range_h.basis:
        for a in basis:
            for b in basis:
                d = (np.kron(a, dense.mul(alg, c, b))
                     - np.kron(dense.mul(alg, a, v @ c), b))
                worst_h = max(worst_h, float(np.linalg.norm(x.qx @ d)))
    return {"slide_range_v": worst_v, "slide_range_h": worst_h}


# -- pairs ---------------------------------------------------------------------


def _unitary(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / abs(np.diag(r)))


def adu_pair(blocks, seed):
    """V = Ad u, H = Ad u* for a block-diagonal unitary u."""
    alg, rng = Algebra(blocks), np.random.default_rng(seed)
    v = np.zeros((alg.dim, alg.dim), dtype=complex)
    h = np.zeros_like(v)
    for off, d in zip(alg.offsets, alg.blocks):
        u = _unitary(d, rng)
        v[off:off + d * d, off:off + d * d] = np.kron(u, u.conj())
        h[off:off + d * d, off:off + d * d] = np.kron(u.conj().T, u.T)
    return LinMap(alg, v), LinMap(alg, h)


def diag_pair(blocks):
    """V = H = the expectation onto the diagonal of every block."""
    alg = Algebra(blocks)
    e = np.zeros((alg.dim, alg.dim), dtype=complex)
    for off, d in zip(alg.offsets, alg.blocks):
        idx = off + np.arange(d) * (d + 1)
        e[idx, idx] = 1.0
    return LinMap(alg, e), LinMap(alg, e)


def classical_pair(n, seed):
    """Endomorphism f -> f∘σ of C^n and the transfer averaging over fibres."""
    rng = np.random.default_rng(seed)
    image = rng.choice(n, size=n // 2, replace=False)
    sigma = np.concatenate([image, rng.choice(image, size=n - n // 2)])[rng.permutation(n)]
    alpha = np.zeros((n, n), dtype=complex)
    alpha[np.arange(n), sigma] = 1.0
    transfer = np.zeros((n, n), dtype=complex)
    for y in image:
        fibre = np.flatnonzero(sigma == y)
        transfer[y, fibre] = 1.0 / fibre.size
    alg = Algebra((1,) * n)
    return LinMap(alg, alpha), LinMap(alg, transfer)


def fixture_pair(inter):
    return inter.v, inter.h


def perturbed_flip():
    """V(1) is moved off the unit, which lies in the range of H, so 3.1.iv fails."""
    v, h = fixture_pair(flip_interaction())
    return LinMap(v.algebra, v.matrix + np.array([[0, 0], [0, -0.1]])), h


PAIRS = {
    "flip": lambda: fixture_pair(flip_interaction()),
    "flip_x2": lambda: fixture_pair(amplified_interaction(flip_interaction(), 2)),
    "identity_m2": lambda: fixture_pair(identity_interaction(Algebra((2,)))),
    "classical_c6": lambda: classical_pair(6, 3),
    "adu_m3": lambda: adu_pair((3,), 4),
    "adu_2_1": lambda: adu_pair((2, 1), 5),
    "adu_3_1_2": lambda: adu_pair((3, 1, 2), 6),
    "adu_2_2": lambda: adu_pair((2, 2), 7),
    "diag_m4": lambda: diag_pair((4,)),
    "diag_2_1": lambda: diag_pair((2, 1)),
    "diag_3_1_2": lambda: diag_pair((3, 1, 2)),
    "transpose_m2": lambda: (transpose_map(Algebra((2,))),) * 2,
    "transpose_2_1": lambda: (transpose_map(Algebra((2, 1))),) * 2,
    "transpose_2_2": lambda: (transpose_map(Algebra((2, 2))),) * 2,
    "flip_perturbed": perturbed_flip,
}


def close(got, want):
    assert abs(got - want) <= 1e-12, (got, want)


def same_scan(got, want):
    # at rounding level the worst pair is an argmax of noise, and no report
    # carries it (a witness is shown only on a failing record)
    close(got[0], want[0])
    if want[0] > 1e-12:
        assert got[1] == want[1]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_map_level_checks_match_the_loops(name):
    v, h = PAIRS[name]()
    for t, other in ((v, h), (h, v)):
        same_scan(_multiplicativity_scan(t, range_subspace(other, TOL), TOL),
                  old_scan(t, range_subspace(other, TOL), TOL))
        close(positivity_certificate(t, 7, TOL, np.random.default_rng(3))[1],
              old_positivity_certificate(t, 7, np.random.default_rng(3)))
        close(complete_contractivity_residual(t, 7, np.random.default_rng(4)),
              old_contractivity(t, 7, np.random.default_rng(4)))
        close(star_preservation_residual(t), old_star_preservation(t))
    report = verify_interaction(v, h, TOL, 5, np.random.default_rng(8))
    if not report.passed:
        return
    inter = Interaction.build(v, h, TOL, 5, np.random.default_rng(8))
    for got, want in ((check_inverse_pair(inter), old_inverse_pair(inter)),
                      (expectation(v @ h, inter.range_v, TOL).residuals,
                       old_expectation(v @ h, inter.range_v)),
                      (expectation(h @ v, inter.range_h, TOL).residuals,
                       old_expectation(h @ v, inter.range_h))):
        for key, value in want.items():
            close(got[key], value)


def old_endo_transfer(alpha, transfer):
    """The two swept residuals of an endomorphism/transfer pair."""
    alg, a, t = alpha.algebra, alpha.matrix, transfer.matrix
    basis = np.eye(alg.dim)
    return {"endomorphism_multiplicative": max(
                np.linalg.norm(a @ dense.mul(alg, x, y) - dense.mul(alg, a @ x, a @ y))
                for x in basis for y in basis),
            "transfer_identity": max(
                np.linalg.norm(t @ dense.mul(alg, x, a @ y) - dense.mul(alg, t @ x, y))
                for x in basis for y in basis)}


def random_map(alg, seed):
    rng = np.random.default_rng(seed)
    return LinMap(alg, rng.standard_normal((alg.dim,) * 2)
                  + 1j * rng.standard_normal((alg.dim,) * 2))


@pytest.mark.parametrize("blocks", [(3, 1, 2), (2, 2), (1, 2, 1)])
def test_every_unit_family_site_matches_the_loops_on_mixed_blocks(blocks):
    # generic complex maps, so that every residual is of order one and each
    # site is compared on values that a wrong index would change
    alg = Algebra(blocks)
    t, s = random_map(alg, 1), random_map(alg, 2)
    rng = np.random.default_rng(3)
    # a domain holding the first matrix unit and two random directions
    space = Subspace.from_spanning(alg, np.concatenate([np.eye(alg.dim)[:1],
                                                        alg.random_coords(rng, 2)]))
    other = Subspace.from_spanning(alg, alg.random_coords(rng, 3))
    # 3.1.iv and 3.1.v
    got, want = _multiplicativity_scan(t, space, TOL), old_scan(t, space, TOL)
    assert want[0] > 1.0 and want[1]["x_kind"] in ("unit", "range")
    same_scan(got, want)
    # 2.6 bimodule, with the map in the role of the expectation
    close(float(_unit_defects(t, space.basis, space.basis).max()),
          old_expectation(t, space)["bimodule"])
    # 2.7 over pairs of range rows, on a pair taken as given
    inter = Interaction(alg, t, s, TOL, other, space, None)
    for key, value in old_inverse_pair(inter).items():
        close(check_inverse_pair(inter)[key], value)
    # from_endomorphism_transfer reports every residual above the tolerance
    want = old_endo_transfer(t, s)
    with pytest.raises(InteractionError) as err:
        from_endomorphism_transfer(t, s, TOL)
    got = ast.literal_eval(str(err.value).split(": ", 1)[1])
    for key, value in want.items():
        close(got[key], value)
    # 7.13 refuses a first map that is not multiplicative, with its residual
    message = f"first map is not multiplicative ({want['endomorphism_multiplicative']:.3e})"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_713(t, s, inter, None)


@pytest.mark.parametrize("name", ["adu_3_1_2", "adu_2_2"])
def test_endo_transfer_sites_match_the_loops_on_an_automorphism(name):
    # Ad u is a unital *-endomorphism, and Ad u* a transfer map for it
    alpha, transfer = PAIRS[name]()
    _, got = from_endomorphism_transfer(alpha, transfer, TOL)
    for key, value in old_endo_transfer(alpha, transfer).items():
        close(got[key], value)


def test_failing_pairs_keep_their_witnesses():
    # the parity above compares witnesses only where a check fails; make sure
    # these pairs really do fail where they should
    for name, cid in (("transpose_m2", "3.1.iv"), ("transpose_2_1", "3.1.iv"),
                      ("flip_perturbed", "3.1.iv")):
        v, h = PAIRS[name]()
        got = verify_interaction(v, h, TOL, 5)
        assert got.residuals[cid] > 1e-3 and got.witnesses[cid], name
    v, h = PAIRS["transpose_m2"]()
    assert verify_interaction(v, h).witnesses["3.1.iv"] == {
        "x_kind": "unit", "x_index": 1, "y_kind": "unit", "y_index": 2, "order": "xy"}


def test_random_coords_draw_the_per_element_stream():
    alg = Algebra((2, 1, 3))
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    want = np.array([old_random_element(alg, rng_a) for _ in range(4)])
    assert np.array_equal(alg.random_coords(rng_b, 4), want)
    assert np.array_equal(alg.random_coords(rng_b, 1)[0], old_random_element(alg, rng_a))


def test_block_stacks_match_element_arithmetic():
    alg, rng = Algebra((2, 1, 3, 1)), np.random.default_rng(2)
    cx, cy = alg.random_coords(rng, 3), alg.random_coords(rng, 3)
    prods = block_product(alg, cx[:, None], cy)
    for i, x in enumerate(cx):
        assert np.array_equal(block_adjoint(alg, x), dense.star(alg, x))
        close(float(block_norms(alg, x)), dense.norm(alg, x))
        close(float(positivity_defects(alg, x)), dense.positivity_defect(alg, x))
        for j, y in enumerate(cy):
            assert np.allclose(prods[i, j], dense.mul(alg, x, y), atol=1e-14)


@pytest.mark.parametrize("blocks", [(2, 1), (3, 3), (1, 1, 1)])
def test_multiplication_tensors_equal_element_products(blocks):
    # the products of matrix units by index: gathered at ``unit_products``, and
    # summed from a coefficient matrix by ``unit_sums``
    alg = Algebra(blocks)
    basis = np.eye(alg.dim)
    products = at_units(basis, alg.unit_products)      # [c, i, k] = coords_c(a_i·a_k)
    for i, bi in enumerate(basis):
        for k, bk in enumerate(basis):
            assert np.array_equal(products[:, i, k], dense.mul(alg, bi, bk))
            assert np.array_equal(unit_sums(alg, np.outer(bk, bi)), dense.mul(alg, bk, bi))


# -- complete positivity, piece by piece -----------------------------------------


@pytest.mark.parametrize("t", [
    lambda: LinMap(Algebra((2, 1)), np.random.default_rng(0).standard_normal((5, 5))
                   + 1j * np.random.default_rng(1).standard_normal((5, 5))),
    lambda: LinMap(Algebra((1, 1, 3)), np.random.default_rng(2).standard_normal((11, 11))),
    lambda: adu_pair((1, 1, 3), 3)[0],
    lambda: transpose_map(Algebra((2, 1))),
    lambda: transpose_map(Algebra((3,))),
])
def test_choi_pieces_have_the_spectrum_and_gap_of_the_full_choi_matrix(t):
    t = t()
    choi = choi_matrix(t)
    form = _choi_pieces(t)
    # the pieces, each at its rows and columns, are the whole Choi matrix
    assert np.array_equal(dense.form_matrix(form, len(choi)), choi)
    pieces = [g for gs, _ in form for g in gs]
    herm = [(p + p.conj().swapaxes(-1, -2)) / 2 for p in pieces]
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(p).reshape(-1) for p in herm]))
    assert vals.size == choi.shape[0]
    assert np.allclose(vals, np.linalg.eigvalsh((choi + choi.conj().T) / 2), atol=1e-12)
    gap = np.sqrt(sum(float(np.sum(abs(p - p.conj().swapaxes(-1, -2)) ** 2)) for p in pieces))
    close(gap, float(np.linalg.norm(choi - choi.conj().T)))
    # the gap is the *-preservation defect that is_completely_positive reads
    perm = t.algebra.star_perm
    close(gap, float(np.linalg.norm(t.matrix[:, perm] - t.matrix.conj()[perm])))
    close(is_completely_positive(t, TOL)[1],
          float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min()))


# -- 5.6 as one identity per range element --------------------------------------


@pytest.mark.parametrize("inter", [
    flip_interaction,
    lambda: amplified_interaction(flip_interaction(), 2),
    lambda: identity_interaction(Algebra((2,))),
    lambda: Interaction.build(*adu_pair((2,), 11), TOL),
])
def test_sliding_matches_the_loop(inter):
    x = build_bimodule(inter())
    got, want = check_sliding(x), old_sliding(x)
    for key, value in want.items():
        close(got[key], value)


def test_sliding_fails_on_a_broken_quotient():
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    x.qx = x.qx + 0.1 * np.random.default_rng(0).standard_normal(x.qx.shape)
    got, want = check_sliding(x), old_sliding(x)
    assert min(got.values()) > 1e-3
    for key, value in want.items():
        close(got[key], value)


# -- memory and non-finite maps ----------------------------------------------------


def test_verify_stage_memory_on_classical_c24():
    v, h = classical_pair(24, 11)
    (_, records), peak = traced_peak(lambda: verify_stage_records(v, h, TOL, 25, 0))
    assert all(r.status == "pass" for r in records.values())
    assert peak < 6 * 2**20, peak / 2**20


@pytest.mark.parametrize("nan_in", ["v", "h"])
def test_a_nan_entry_fails_the_map_level_records(nan_in):
    v, h = adu_pair((2,), 1)
    bad = v.matrix.copy()
    bad[1, 2] = np.nan
    v, h = (LinMap(v.algebra, bad), h) if nan_in == "v" else (v, LinMap(v.algebra, bad))
    inter, records = verify_stage_records(v, h, TOL, 5, 0)
    assert inter is None
    for cid in ("3.1.i", "3.1.iv", "3.3"):
        assert records[cid].status == "fail", cid
        assert np.isnan(records[cid].residual), cid
    t = v if nan_in == "v" else h
    assert np.isnan(_multiplicativity_scan(t, range_subspace(LinMap.identity(t.algebra)),
                                           TOL)[0])
    # each site of the unit-family contraction and of the pair products
    eye, rows = np.eye(t.algebra.dim, dtype=complex), t.algebra.random_coords(
        np.random.default_rng(0), 2)
    for xs, pxs in ((eye, t.matrix.T), (rows, rows), (t.matrix.T, eye)):
        assert np.isnan(_unit_defects(t, xs, pxs).max())
    space = Subspace.from_spanning(t.algebra, rows)
    inter = Interaction(t.algebra, t, t, TOL, space, space, None)
    assert np.isnan(check_inverse_pair(inter)["restriction_multiplicative"])
    assert np.isnan(complete_contractivity_residual(t, 3, np.random.default_rng(0)))
    assert not is_completely_positive(t, TOL)[0]
    assert np.isnan(_record("3.3", {"x": positivity_certificate(t, 3, TOL)[1]}, TOL).residual)
