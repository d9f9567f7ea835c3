"""The build stage as identities on coordinate stacks: the per-basis loops
it replaced (basic construction, covariant representation, concrete
correspondence, the endomorphism/transfer forms) are kept here as oracles,
on the dense block-diagonal matrices, with the NaN gates of the
representation and the correspondence laws."""

import dense
import numpy as np
import pytest
from conftest import mixed_pair

from starint import (
    Algebra,
    CorrespondenceError,
    CovariantError,
    Interaction,
    LinMap,
    amplified_interaction,
    basic_for_h,
    basic_for_v,
    build_bimodule,
    build_covrep,
    check_713,
    check_commutation,
    check_commutation_22,
    check_corner_isomorphisms,
    check_corner_norms,
    check_cube_identity,
    check_unit_relations,
    concrete_tro,
    correspondence_from_bimodule,
    correspondence_from_tro,
    derive_from_partial_isometry,
    faithful_extension,
    flip_interaction,
    from_endomorphism_transfer,
    identity_interaction,
    rep_ambient_data,
    swap_transfer_interaction,
    with_zero_s,
)
from starint.algebra import Sparse, orthonormal_rows, rel
from starint.correspondences import GenCorrespondence, _lawful

TOL = 1e-9


# -- the per-basis loops the stacked build replaced ------------------------------


def pi_of(pi, a):
    """pi(a) for the coordinates a."""
    return np.tensordot(a, pi, axes=(0, 0))


def old_rep_residuals(inter, pi, smat):
    alg = inter.algebra
    basis = np.eye(alg.dim)
    hom = star = 0.0
    for i, a in enumerate(basis):
        star = max(star, float(np.linalg.norm(pi_of(pi, dense.star(alg, a)) - pi[i].conj().T)))
        for j, b in enumerate(basis):
            prod = pi_of(pi, dense.mul(alg, a, b))
            hom = max(hom, float(np.linalg.norm(prod - pi[i] @ pi[j])))
    s_adj = smat.conj().T
    out = {"pi_multiplicative": hom, "pi_star": star,
           "partial_isometry": float(np.linalg.norm(smat @ s_adj @ smat - smat))}
    cov_v = cov_h = 0.0
    ss, s_s = smat @ s_adj, s_adj @ smat
    for i, a in enumerate(basis):
        pv, ph = pi_of(pi, inter.v.matrix @ a), pi_of(pi, inter.h.matrix @ a)
        cov_v = max(cov_v, float(np.linalg.norm(smat @ pi[i] @ s_adj - pv @ ss)))
        cov_h = max(cov_h, float(np.linalg.norm(s_adj @ pi[i] @ smat - ph @ s_s)))
    out.update(covariance_v=cov_v, covariance_h=cov_h)
    return out


def old_covrep(inter, x):
    """pi through Kronecker products per basis element, S per span row."""
    alg = inter.algebra
    dim, r, m = alg.dim, x.r, x.bch.m
    kb = x.bch.k_basis
    s = kb.shape[0]
    pi = np.zeros((dim, r + s, r + s), dtype=complex)
    for i in range(dim):
        left = np.kron(dense.left_mult(alg)[i], np.eye(dim))
        pi[i, :r, :r] = x.qx @ left @ x.liftx
        pi[i, r:, r:] = kb.conj() @ np.kron(x.bch.lam[i], np.eye(m)) @ kb.T
    smat = np.zeros((r + s, r + s), dtype=complex)
    one = alg.unit()
    for b in range(s):
        image = x.right_act(np.kron(one, one), dense.presentation(x.bch, kb[b].reshape(m, m)))
        smat[:r, r + b] = np.sqrt(m) * (x.qx @ image)
    return pi, smat


def old_checks(rep):
    """2.2, 2.8, 2.9 and 6.1, one basis or range element at a time."""
    inter = rep.interaction
    alg = inter.algebra
    ss = rep.smat @ rep.smat.conj().T
    s_s = rep.smat.conj().T @ rep.smat
    out = {}
    worst_v = worst_h = norm_gap = 0.0
    for a in np.eye(alg.dim):
        va, ha = inter.v.matrix @ a, inter.h.matrix @ a
        pv, ph = pi_of(rep.pi, va), pi_of(rep.pi, ha)
        nv, nh = dense.norm(alg, va), dense.norm(alg, ha)
        worst_v = max(worst_v, float(np.linalg.norm(pv @ ss - ss @ pv)))
        worst_h = max(worst_h, float(np.linalg.norm(ph @ s_s - s_s @ ph)))
        norm_gap = max(norm_gap,
                       rel(abs(float(np.linalg.norm(pv @ ss, 2)) - nv), nv),
                       rel(abs(float(np.linalg.norm(ph @ s_s, 2)) - nh), nh))
    out.update(range_v_commutes_support=worst_v, range_h_commutes_support=worst_h,
               corner_norm_equality=norm_gap)
    mult = iso = 0.0
    for space, t, proj in ((inter.range_h, inter.v, ss), (inter.range_v, inter.h, s_s)):
        elems = space.basis
        images = [pi_of(rep.pi, t.matrix @ e) @ proj for e in elems]
        for i, xe in enumerate(elems):
            iso = max(iso, abs(float(np.linalg.norm(images[i], 2)) - dense.norm(alg, xe)))
            for j, ye in enumerate(elems):
                lhs = pi_of(rep.pi, t.matrix @ dense.mul(alg, xe, ye)) @ proj
                mult = max(mult, float(np.linalg.norm(lhs - images[i] @ images[j])))
    out.update(corner_multiplicative=mult, corner_isometric=iso)
    one = alg.unit()
    out["v_unit_fixes_support"] = float(np.linalg.norm(
        pi_of(rep.pi, inter.v.matrix @ one) @ ss - ss))
    out["h_unit_fixes_support"] = float(np.linalg.norm(
        pi_of(rep.pi, inter.h.matrix @ one) @ s_s - s_s))
    return out


def old_gram(expectation):
    alg = expectation.algebra
    e = expectation.matrix

    def trace(x):
        return np.trace(dense.to_dense(alg, x))

    normalizer = trace(e @ alg.unit()).real
    basis = np.eye(alg.dim)
    gram = np.empty((alg.dim, alg.dim), dtype=complex)
    for j, aj in enumerate(basis):
        for k, ak in enumerate(basis):
            gram[j, k] = trace(e @ dense.mul(alg, dense.star(alg, aj), ak)) / normalizer
    return (gram + gram.conj().T) / 2


def old_express_in_k(kb, mat):
    vec = mat.reshape(-1)
    coeffs = kb.conj() @ vec
    return rel(float(np.linalg.norm(vec - kb.T @ coeffs)), float(np.linalg.norm(vec)))


def old_invariants(bc):
    alg = bc.algebra
    basis = np.eye(alg.dim)
    out = {"e_hermitian": float(np.linalg.norm(bc.e - bc.e.conj().T)),
           "e_idempotent": float(np.linalg.norm(bc.e @ bc.e - bc.e))}
    star = mult = jones = implemented = 0.0
    for i, a in enumerate(basis):
        star = max(star, float(np.linalg.norm(pi_of(bc.lam, dense.star(alg, a))
                                              - bc.lam[i].conj().T)))
        for j in range(alg.dim):
            prod = pi_of(bc.lam, dense.mul(alg, basis[i], basis[j]))
            mult = max(mult, float(np.linalg.norm(prod - bc.lam[i] @ bc.lam[j])))
        ea = bc.expectation.matrix @ a
        jones = max(jones, float(np.linalg.norm(bc.e @ bc.lam[i] @ bc.e
                                                - pi_of(bc.lam, ea) @ bc.e)))
        implemented = max(implemented, float(np.linalg.norm(
            bc.e @ (bc.q @ a) - bc.q @ ea)))
    out.update(left_regular_star=star, left_regular_multiplicative=mult,
               jones_relation=jones, expectation_implemented=implemented)
    commute = norm_gap = 0.0
    for b in bc.range_sub.basis:
        lb = pi_of(bc.lam, b)
        commute = max(commute, float(np.linalg.norm(bc.e @ lb - lb @ bc.e)))
        got = float(np.linalg.norm(lb @ bc.e, 2))
        nb = dense.norm(alg, b)
        norm_gap = max(norm_gap, rel(abs(got - nb), nb))
    out.update(e_commutes_with_range=commute, corner_isometric_on_range=norm_gap)
    out["k_star_closed"] = max(old_express_in_k(bc.k_basis, row.reshape(bc.m, bc.m).conj().T)
                               for row in bc.k_basis)
    return out


def old_triples(tro):
    n = tro.n
    tt = np.zeros((n, n, n, n), dtype=complex)
    leaks = np.zeros((n, n, n))
    amb, xs = tro.ambient, tro.basis
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = dense.mul(amb, dense.mul(amb, xs[i], dense.star(amb, xs[j])), xs[k])
                tt[i, j, k] = tro.basis.conj() @ v
                leaks[i, j, k] = np.linalg.norm(v - tro.basis.T @ tt[i, j, k])
    return tt, leaks


def old_tro_actions(tro, embed):
    n = tro.n
    lam_t = np.zeros((len(embed), n, n), dtype=complex)
    rho_t = np.zeros_like(lam_t)
    for a, img in enumerate(embed):
        for k, b in enumerate(tro.basis):
            lam_t[a, :, k] = tro.basis.conj() @ dense.mul(tro.ambient, img, b)
            rho_t[a, :, k] = tro.basis.conj() @ dense.mul(tro.ambient, b, img)
    return lam_t, rho_t


def old_check_commutation(corr):
    n, tt = corr.n, corr.tt.dense()
    left = tt.transpose(0, 1, 3, 2).reshape(n * n, n, n)
    right = tt.transpose(1, 2, 3, 0).reshape(n * n, n, n)
    worst = lam_rho = 0.0
    for rmat in right:
        worst = max(worst, float(np.abs(rmat @ left - left @ rmat).max(initial=0.0)))
    for la in corr.lam_t:
        diff = la @ corr.rho_t - corr.rho_t @ la
        lam_rho = max(lam_rho, float(np.abs(diff).max(initial=0.0)))
    return {"rank_one_sides_commute": worst, "actions_commute": lam_rho}


def old_norm(corr, coords):
    if corr.mode == "concrete":
        return dense.norm(corr.tro.ambient, corr.tro.basis.T @ coords)
    return corr.x.module_norm(corr.x.liftx @ coords)


def old_cube(corr):
    worst = 0.0
    for e in np.eye(corr.n, dtype=complex):
        nx = old_norm(corr, e)
        cubed = old_norm(corr, np.einsum("i,j,k,ijkc->c", e, e, e, corr.tt.dense()))
        worst = max(worst, rel(abs(cubed - nx ** 3), nx ** 3))
    return {"cube_identity": worst}


def old_check_713(alpha, transfer, x):
    alg = x.algebra
    al, tr = alpha.matrix, transfer.matrix
    one = alg.unit()
    basis = np.eye(alg.dim)

    def mul(a, b):
        return dense.mul(alg, a, b)

    density = isometry = right_lin = left_lin = ternary = 0.0
    for a in basis:
        phi_a = np.kron(a, one)
        isometry = max(isometry, abs(x.module_norm(phi_a) - np.sqrt(
            dense.norm(alg, tr @ mul(dense.star(alg, a), a)))))
        for b in basis:
            moved = x.qx @ np.kron(mul(a, al @ b), one)
            density = max(density, float(np.linalg.norm(x.qx @ np.kron(a, b) - moved)))
            right_lin = max(right_lin, float(np.linalg.norm(
                moved - x.qx @ x.act_a(b, phi_a, side="right"))))
            left_lin = max(left_lin, float(np.linalg.norm(
                x.qx @ (np.kron(mul(b, a), one) - x.act_a(b, phi_a, side="left")))))
    rng = np.random.default_rng(713)
    for _ in range(8):
        u, v, w = alg.random_coords(rng, 3)
        lhs = np.kron(mul(u, al @ tr @ mul(dense.star(alg, v), w)), one)
        rhs = x.ternary(np.kron(u, one), np.kron(v, one), np.kron(w, one))
        ternary = max(ternary, float(np.linalg.norm(x.qx @ (lhs - rhs))))
    return {"density": density, "isometry": isometry, "module_map_right": right_lin,
            "module_map_left": left_lin, "ternary": ternary}


def old_endo_transfer(alpha, transfer):
    alg = alpha.algebra
    al, tr = alpha.matrix, transfer.matrix
    basis = np.eye(alg.dim)

    def mul(a, b):
        return dense.mul(alg, a, b)

    return {
        "endomorphism_multiplicative": max(np.linalg.norm(al @ mul(a, b) - mul(al @ a, al @ b))
                                           for a in basis for b in basis),
        "transfer_identity": max(np.linalg.norm(tr @ mul(a, al @ b) - mul(tr @ a, b))
                                 for a in basis for b in basis),
    }


def old_derive_residuals(a_algebra, ambient, a_embed, s):
    """The embedding and compression-fit residuals of the reconstruction."""
    def mul(*xs):
        out = xs[0]
        for x in xs[1:]:
            out = dense.mul(ambient, out, x)
        return out

    emb = a_embed.T
    basis = np.eye(a_algebra.dim)
    worst = 0.0
    for j, aj in enumerate(basis):
        for k, ak in enumerate(basis):
            worst = max(worst, float(np.linalg.norm(
                mul(a_embed[j], a_embed[k]) - emb @ dense.mul(a_algebra, aj, ak))))
        worst = max(worst, float(np.linalg.norm(
            dense.star(ambient, a_embed[j]) - emb @ dense.star(a_algebra, aj))))
    out = {"embedding": worst}
    s_star = dense.star(ambient, s)
    for name, proj, compress in (("v", mul(s, s_star), lambda x: mul(s, x, s_star)),
                                 ("h", mul(s_star, s), lambda x: mul(s_star, x, s))):
        cols = np.array([mul(x, proj) for x in a_embed]).T
        pinv = np.linalg.pinv(cols)
        fit = 0.0
        for x in a_embed:
            rhs = compress(x)
            fit = max(fit, rel(np.linalg.norm(cols @ (pinv @ rhs) - rhs), np.linalg.norm(rhs)))
        out[f"compression_fit_{name}"] = fit
    return out


# -- pairs -----------------------------------------------------------------------


def adu_pair(blocks, seed):
    """V = Ad u, H = Ad u* for a block-diagonal complex unitary u: an
    endomorphism/transfer pair."""
    alg, rng = Algebra(blocks), np.random.default_rng(seed)
    v = np.zeros((alg.dim, alg.dim), dtype=complex)
    h = np.zeros_like(v)
    for off, d in zip(alg.offsets, alg.blocks):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / abs(np.diag(r)))
        v[off:off + d * d, off:off + d * d] = np.kron(u, u.conj())
        h[off:off + d * d, off:off + d * d] = np.kron(u.conj().T, u.T)
    return Interaction.build(LinMap(alg, v), LinMap(alg, h), TOL)


PAIRS = {
    "flip": flip_interaction,
    "flip_x2": lambda: amplified_interaction(flip_interaction(), 2),
    "identity_m2": lambda: identity_interaction(Algebra((2,))),
    "swap_endo": lambda: swap_transfer_interaction()[0],
    "adu_m2": lambda: adu_pair((2,), 7),
    "adu_2_1": lambda: adu_pair((2, 1), 5),
}
# pairs whose first map is an endomorphism with the second as its transfer
ENDO_TRANSFER = ("identity_m2", "swap_endo", "adu_m2", "adu_2_1")


def close(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])


def close_arrays(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12


@pytest.fixture(scope="module", params=sorted(PAIRS))
def built(request):
    inter = PAIRS[request.param]()
    x = build_bimodule(inter, TOL)
    return request.param, inter, x, build_covrep(inter, x, TOL)


def basic_construction_matches_the_loops(inter):
    for bc in (basic_for_h(inter), basic_for_v(inter)):
        alg = bc.algebra
        # q*q is the Gram matrix with its null directions (eigenvalues ~1e-16) cut
        close_arrays(bc.q.conj().T @ bc.q, old_gram(bc.expectation))
        close_arrays(bc.lam, np.array([bc.q @ dense.left_mult(alg)[i] @ bc.lift
                                       for i in range(alg.dim)]))
        products = np.array([(bc.lam[i] @ bc.e @ bc.lam[j]).reshape(-1)
                             for i in range(alg.dim) for j in range(alg.dim)])
        close_arrays(dense.spanning_matrix(bc), products.T)
        kb = orthonormal_rows(products, TOL)
        close_arrays(bc.k_basis.T @ bc.k_basis.conj(), kb.T @ kb.conj())
        close(bc.invariants, old_invariants(bc))


def test_basic_construction_matches_the_loops(built):
    basic_construction_matches_the_loops(built[1])


@pytest.mark.parametrize("name", ["mixed_221", "mixed_32"])
def test_basic_construction_matches_the_loops_on_mixed_blocks(name):
    # λ, set by its index map, is q·L_i·lift on blocks of unequal sizes too
    basic_construction_matches_the_loops(mixed_pair(name, TOL))


def assert_zero_off_the_blocks(rep):
    """pi is exactly 0 off its (r, s) diagonal blocks and S exactly 0 outside
    [:r, r:], as the build forces: the relations are read on those blocks."""
    r, pi, smat = rep.r, rep.pi.copy(), rep.smat.copy()
    pi[:, :r, :r] = pi[:, r:, r:] = smat[:r, r:] = 0
    assert not pi.any() and not smat.any()


def covariant_representation_matches_the_loops(inter, x, rep):
    pi, smat = old_covrep(inter, x)
    assert_zero_off_the_blocks(rep)
    close_arrays(rep.pi, pi)
    close_arrays(rep.smat, smat)
    close(rep.residuals, old_rep_residuals(inter, rep.pi, rep.smat))
    zero = with_zero_s(rep)
    close(zero.residuals, old_rep_residuals(inter, rep.pi, zero.smat))
    ext = faithful_extension(rep)
    close(ext.residuals, old_rep_residuals(inter, ext.pi, ext.smat))
    got = {**check_commutation_22(rep), **check_corner_norms(rep),
           **check_corner_isomorphisms(rep), **check_unit_relations(rep)}
    close(got, old_checks(rep))


def test_covariant_representation_matches_the_loops(built):
    covariant_representation_matches_the_loops(*built[1:])


@pytest.mark.parametrize("name", ["mixed_221", "mixed_32"])
def test_covariant_representation_matches_the_loops_on_mixed_blocks(name):
    # π and S on blocks of unequal sizes, r ≠ s
    inter = mixed_pair(name, TOL)
    x = build_bimodule(inter, TOL)
    rep = build_covrep(inter, x, TOL)
    assert 0 < rep.r != rep.s > 0
    covariant_representation_matches_the_loops(inter, x, rep)


def test_reconstruction_residuals_match_the_loops(built):
    _, inter, _, rep = built
    ambient, embedded, s_coords = rep_ambient_data(rep)
    got = derive_from_partial_isometry(inter.algebra, ambient, embedded, s_coords, TOL)
    want = old_derive_residuals(inter.algebra, ambient, embedded, s_coords)
    close({k: got.residuals[k] for k in want}, want)
    close_arrays(got.interaction.v.matrix, inter.v.matrix)


def test_abstract_correspondence_checks_match_the_loops(built):
    _, _, x, _ = built
    corr = correspondence_from_bimodule(x, TOL)
    close(check_commutation(corr), old_check_commutation(corr))
    close(check_cube_identity(corr), old_cube(corr))


def test_endomorphism_transfer_forms_match_the_loops(built):
    name, inter, x, _ = built
    # check_713 only asks that the first map be multiplicative, true of every pair here
    close(check_713(inter.v, inter.h, inter, x, TOL), old_check_713(inter.v, inter.h, x))
    if name in ENDO_TRANSFER:
        _, residuals = from_endomorphism_transfer(inter.v, inter.h, TOL)
        want = old_endo_transfer(inter.v, inter.h)
        close({k: residuals[k] for k in want}, want)


def concrete_cases():
    """(ambient, spanning rows, coefficient algebra, its embedding rows)."""
    m2, m3, mixed = Algebra((2,)), Algebra((3,)), Algebra((2, 1))
    u2, u3, um = np.eye(4), np.eye(9), np.eye(5)
    return {
        "matrix_unit": (m2, u2[[1]], Algebra((1, 1)), u2[[0, 3]]),
        "full_m2": (m2, u2, m2, u2),
        # the first row of M_3, complex: C on the left, C ⊕ C on the right
        "row_m3": (m3, [u3[0] + 1j * u3[1], u3[1] - 2j * u3[2], u3[2]], Algebra((1, 1)),
                   [u3[0], u3[4] + u3[8]]),
        # e12 of the 2-block with the 1-block, over the block units
        "mixed": (mixed, um[[1, 4]], Algebra((1, 1, 1)), um[[0, 3, 4]]),
        "empty": (m2, np.zeros((0, 4)), Algebra((1, 1)), u2[[0, 3]]),
    }


@pytest.mark.parametrize("case", sorted(concrete_cases()))
def test_concrete_correspondence_matches_the_loops(case):
    ambient, spanning, coeff, embed = concrete_cases()[case]
    tro = concrete_tro(ambient, spanning, TOL)
    tt, leaks = old_triples(tro)
    close_arrays(tro.triples[0].dense(), tt)
    close_arrays(tro.triples[1], leaks)
    corr = correspondence_from_tro(tro, coeff, embed)
    lam_t, rho_t = old_tro_actions(tro, embed)
    close_arrays(corr.lam_t, lam_t)
    close_arrays(corr.rho_t, rho_t)
    close(check_commutation(corr), old_check_commutation(corr))
    close(check_cube_identity(corr), old_cube(corr))


# -- non-finite values fail the build gates ----------------------------------------


def test_a_nan_in_s_refuses_the_representation():
    inter = identity_interaction(Algebra((2,)))
    x = build_bimodule(inter, TOL)
    x.v_mat = x.v_mat.copy()
    x.v_mat[0, 0] = np.nan             # reaches S only, through the right action
    with pytest.raises(CovariantError) as err:
        build_covrep(inter, x, TOL)
    assert np.isnan(err.value.residuals["partial_isometry"])
    assert np.isnan(err.value.residuals["covariance_v"])


@pytest.mark.parametrize("where", ["tt", "rho_t"])
def test_a_nan_fails_the_correspondence_laws(where):
    x = build_bimodule(identity_interaction(Algebra((2,))), TOL)
    tables = {"tt": x.bracket_t.dense(), "rho_t": x.rho_t.copy()}
    tables[where][(0,) * tables[where].ndim] = np.nan
    corr = GenCorrespondence(coeff=x.algebra, tt=Sparse.of(tables["tt"]), lam_t=x.lam_t,
                             rho_t=tables["rho_t"], mode="abstract", tol=TOL, x=x)
    with pytest.raises(CorrespondenceError) as err:
        _lawful(corr)
    assert any(np.isnan(v) for v in err.value.residuals.values())
