"""The factored inner products against the dense dim⁴·m² forms they replace,
the memory they save, the batched sampled checks 5.2-5.10 against their
per-element loops, the stacked grid norms of 5.4 against amplified maps, and
the noise-free redundancy counts of 7.9."""

import numpy as np
import pytest
from conftest import traced_peak

from starint import (
    Algebra,
    Interaction,
    LinMap,
    amplified_interaction,
    amplify,
    build_bimodule,
    correspondence_from_bimodule,
    find_redundancies,
    flip_interaction,
    identity_interaction,
    sqrt_psd,
    swap_transfer_interaction,
)
from starint.bimodule import (
    check_action_bound,
    check_bound_59,
    check_cauchy_schwarz,
    check_norm_agreement,
    check_positivity,
)
from starint.checklist import _record
from starint.linmaps import _cell_indices

TOL = 1e-9


def haar_unitary(k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / abs(np.diag(r)))


def adu_interaction(u: np.ndarray) -> Interaction:
    """V = Ad u, H = Ad u* on M_k; row-major vec(u x u*) = (u kron conj u) vec x."""
    alg = Algebra((u.shape[0],))
    return Interaction.build(LinMap(alg, np.kron(u, u.conj())),
                             LinMap(alg, np.kron(u.conj().T, u.T)), TOL)


PAIRS = {
    "identity_m2": lambda: identity_interaction(Algebra((2,))),
    "flip_x2": lambda: amplified_interaction(flip_interaction(), 2),
    "adu_m2": lambda: adu_interaction(haar_unitary(2, 11)),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def module(request):
    return build_bimodule(PAIRS[request.param]())


def dense_forms(x):
    """The dense (dim², dim², m, m) forms Rf, Lf, built as the module once
    stored them: [u, v] is the inner product of basis tensors e_u, e_v."""
    alg = x.algebra
    lt = np.stack([alg.left_mult_tensor[i] for i in range(alg.dim)])
    vl = np.einsum("ab,jbp->jap", x.inter.v.matrix, lt)
    hl = np.einsum("ab,qbi->qai", x.inter.h.matrix, lt)
    lam_h, e_h, lam_v, e_v = x.bch.lam, x.bch.e, x.bcv.lam, x.bcv.e
    mid = np.einsum("iks,sab->ikab", hl[x.sigma].transpose(0, 2, 1), lam_h)
    rf = np.einsum("jab,ikbc,lcd->ijklad", lam_h.conj().transpose(0, 2, 1), mid,
                   np.einsum("ab,lbc->lac", e_h, lam_h), optimize=True)
    ne = np.einsum("jls,sab,bc->jlac", vl[:, :, x.sigma].transpose(0, 2, 1),
                   lam_v, e_v, optimize=True)
    lf = np.einsum("iab,jlbc,kcd->ijklad", lam_v, ne,
                   lam_v.conj().transpose(0, 2, 1), optimize=True)
    return (rf.reshape(x.amb, x.amb, x.bch.m, x.bch.m),
            lf.reshape(x.amb, x.amb, x.bcv.m, x.bcv.m))


def hermitian_trace(form: np.ndarray) -> np.ndarray:
    gram = np.einsum("uvaa->uv", form) / form.shape[-1]
    return (gram + gram.conj().T) / 2


def test_factored_forms_match_the_dense_oracle(module):
    x = module
    rf, lf = dense_forms(x)
    rng = np.random.default_rng(4)
    for _ in range(3):
        s, t = x.random(rng), x.random(rng)
        want_r = np.einsum("u,v,uvab->ab", s.coeffs.conj(), t.coeffs, rf)
        want_l = np.einsum("u,v,uvab->ab", s.coeffs, t.coeffs.conj(), lf)
        assert np.abs(x.inner_r(s, t) - want_r).max() < 1e-12
        assert np.abs(x.inner_l(s, t) - want_l).max() < 1e-12
    assert np.abs(x.gram_r - hermitian_trace(rf)).max() < 1e-12
    assert np.abs(x.gram_l - hermitian_trace(lf)).max() < 1e-12
    lift = x.liftx
    want_r = np.einsum("uj,vk,uvab->jkab", lift.conj(), lift, rf)
    want_l = np.einsum("uj,vk,uvab->jkab", lift, lift.conj(), lf)
    assert np.abs(x.inner_r_t - want_r).max() < 1e-12
    assert np.abs(x.inner_l_t - want_l).max() < 1e-12


def test_module_keeps_no_dense_form():
    inter = amplified_interaction(flip_interaction(), 3)     # dim 18, m = 9
    x, peak = traced_peak(lambda: build_bimodule(inter))
    # one dense form alone would take dim⁴·m²·16 bytes = 130 MiB here
    assert peak < 32 * 2**20, peak / 2**20
    largest = max(v.nbytes for v in vars(x).values() if hasattr(v, "nbytes"))
    assert largest < 4 * 2**20, largest / 2**20


# -- the sampled checks, one element at a time -----------------------------------
# These are the per-element loops the batched checks replaced, drawing the
# same samples in the same order; the batched checks must agree with them.


def _psd_norm(mat):
    return float(max(np.linalg.eigvalsh((mat + mat.conj().T) / 2).max(), 0.0))


def _psd_defect(mat):
    herm = (mat + mat.conj().T) / 2
    gap = float(np.linalg.norm(mat - herm))
    eigs = np.linalg.eigvalsh(herm)
    scale = max(1.0, float(abs(eigs).max(initial=0.0)))
    return max(gap, -float(eigs.min())) / scale


def loop_positivity(x, samples, rng):
    pool = [x.simple(a, b) for a in x.algebra.basis for b in x.algebra.basis[:1]]
    pool += [x.random(rng) for _ in range(samples)]
    return {"right_square_psd": max(_psd_defect(x.inner_r(t, t)) for t in pool),
            "left_square_psd": max(_psd_defect(x.inner_l(t, t)) for t in pool)}


def loop_cauchy_schwarz(x, samples, rng):
    worst_r = worst_l = 0.0
    for _ in range(samples):
        s, t = x.random(rng), x.random(rng)
        diff = _psd_norm(x.inner_r(t, t)) * x.inner_r(s, s) - x.inner_r(s, t) @ x.inner_r(t, s)
        worst_r = max(worst_r, _psd_defect(diff))
        diff = _psd_norm(x.inner_l(t, t)) * x.inner_l(s, s) - x.inner_l(s, t) @ x.inner_l(t, s)
        worst_l = max(worst_l, _psd_defect(diff))
    return {"cauchy_schwarz_right": worst_r, "cauchy_schwarz_left": worst_l}


def column_gram(alg, xs):
    """The grid (x_i x_j*) as an element of the len(xs)-fold amplification."""
    n = len(xs)
    big = alg.amplified(n)
    coords = np.zeros(big.dim, dtype=complex)
    for i in range(n):
        for j in range(n):
            coords[_cell_indices(alg, n, i, j)] += (xs[i] * xs[j].star()).coords()
    return big.from_coords(coords)


def amplified_norm_two_ways(x, pairs):
    """The grid norms of 5.4 through the amplified maps V_n, H_n on the
    (n·d)-square grid algebra, one Element at a time."""
    n = len(pairs)
    vn, hn = amplify(x.inter.v, n), amplify(x.inter.h, n)
    grid_a = column_gram(x.algebra, [a for a, _ in pairs])
    grid_b = column_gram(x.algebra, [b for _, b in pairs])
    n1 = (sqrt_psd(hn(grid_a), x.tol) * sqrt_psd(hn(vn(grid_b)), x.tol)).norm()
    n2 = (sqrt_psd(vn(hn(grid_a)), x.tol) * sqrt_psd(vn(grid_b), x.tol)).norm()
    return n1, n2


def loop_norm_agreement(x, samples, rng):
    worst_forms = worst_sides = 0.0
    for _ in range(samples):
        t = x.random(rng)
        worst_sides = max(worst_sides, abs(x.module_norm(t) - x.module_norm_left(t))
                          / max(1.0, x.module_norm(t)))
        count = int(rng.integers(1, 4))
        pairs = [(x.algebra.random_element(rng), x.algebra.random_element(rng))
                 for _ in range(count)]
        n1, n2 = amplified_norm_two_ways(x, pairs)
        quot = x.module_norm(x.tensor_of_pairs(pairs))
        scale = max(1.0, n1, n2, quot)
        worst_forms = max(worst_forms, abs(n1 - n2) / scale, abs(n1 - quot) / scale)
    return {"norm_forms_agree": worst_forms, "seminorms_agree": worst_sides}


def loop_bound_59(x, samples, rng, terms=3):
    worst = 0.0
    for _ in range(samples):
        xi, eta = x.random(rng), x.random(rng)
        phi = np.zeros((x.bch.m, x.bch.m), dtype=complex)
        moved = x.zero()
        for _ in range(terms):
            a_star = x.algebra.random_element(rng).star()
            b = x.algebra.random_element(rng)
            phi += x.bch.lam_of(a_star) @ x.bch.e @ x.bch.lam_of(b)
            moved = moved + x.right_act(eta, None, coeff=np.outer(a_star.coords(), b.coords()))
        lhs = float(np.linalg.norm(x.inner_r(xi, moved), 2))
        rhs = xi.norm() * eta.norm() * float(np.linalg.norm(phi, 2))
        worst = max(worst, max(0.0, lhs - rhs) / max(1.0, rhs))
    return {"pairing_bound": worst}


def loop_action_bound(x, samples, rng):
    worst_bound = 0.0
    kb = x.bch.k_basis
    for _ in range(samples):
        t = x.random(rng)
        w = rng.standard_normal(kb.shape[0]) + 1j * rng.standard_normal(kb.shape[0])
        k = (kb.T @ w).reshape(x.bch.m, x.bch.m)
        bound = t.norm() * float(np.linalg.norm(k, 2))
        worst_bound = max(worst_bound,
                          max(0.0, x.right_act(t, k).norm() - bound) / max(1.0, bound))
    _, s, vh = np.linalg.svd(x.bch.spanning_matrix)
    null = vh[int((s > x.tol * max(s[0], 1e-300)).sum()):]
    worst_pres = 0.0
    if null.shape[0]:
        for _ in range(min(samples, 10)):
            t = x.random(rng)
            k = (kb.T @ (rng.standard_normal(kb.shape[0]))).reshape(x.bch.m, x.bch.m)
            coeff, _ = x.bch.express_in_spanning(k)
            # an isotropic draw on dim² coordinates, projected onto the null space
            z = rng.standard_normal(x.dim ** 2) + 1j * rng.standard_normal(x.dim ** 2)
            perturbed = coeff + (null.conj().T @ (null @ z)).reshape(x.dim, x.dim)
            d = x.right_act(t, k, coeff=coeff) - x.right_act(t, k, coeff=perturbed)
            worst_pres = max(worst_pres, float(np.linalg.norm(x.qx @ d.coeffs))
                             / max(1.0, x.class_norm(t)))
    return {"action_bound": worst_bound, "presentation_independent": worst_pres}


SAMPLED = [(check_positivity, loop_positivity),
           (check_cauchy_schwarz, loop_cauchy_schwarz),
           (check_norm_agreement, loop_norm_agreement),
           (check_bound_59, loop_bound_59),
           (check_action_bound, loop_action_bound)]


def _agree(batched, loop, x, seed):
    got = batched(x, 6, rng=np.random.default_rng(seed))
    want = loop(x, 6, np.random.default_rng(seed))
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), (key, got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_sampled_checks_match_the_loops(module, seed):
    for batched, loop in SAMPLED:
        _agree(batched, loop, module, seed)


def test_batched_sampled_checks_match_the_loops_on_a_broken_module():
    # noise in the stored factors makes every sampled residual of order 1,
    # so agreement shows the same samples reached the same verdicts
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    rng = np.random.default_rng(1)
    x.mid_h = x.mid_h + 0.3 * (rng.standard_normal(x.mid_h.shape)
                               + 1j * rng.standard_normal(x.mid_h.shape))
    x.mid_v = x.mid_v + 0.3 * rng.standard_normal(x.mid_v.shape)
    x.F1 = x.F1 + 0.3 * rng.standard_normal(x.F1.shape)
    for batched, loop in SAMPLED:
        got = batched(x, 6, rng=np.random.default_rng(5))
        assert max(got.values()) > 0.1, (batched.__name__, got)
        _agree(batched, loop, x, 5)


GRID_PAIRS = {
    **PAIRS,
    "flip": flip_interaction,
    "swap_endo": lambda: swap_transfer_interaction()[0],
    "adu_m3": lambda: adu_interaction(haar_unitary(3, 12)),
}


@pytest.mark.parametrize("name", sorted(GRID_PAIRS))
def test_grid_norms_match_the_amplified_maps(name):
    x = build_bimodule(GRID_PAIRS[name]())
    alg, rng = x.algebra, np.random.default_rng(8)
    for count in (1, 2, 3):
        coords = alg.random_coords(rng, 4 * 2 * count).reshape(4, count, 2, alg.dim)
        # a stack of four sums, each padded to three pairs with zero pairs
        padded = np.zeros((4, 3, 2, alg.dim), dtype=complex)
        padded[:, :count] = coords
        stacked = x._grid_norms(padded[:, :, 0], padded[:, :, 1])
        for s, sample in enumerate(coords):
            pairs = [(alg.from_coords(a), alg.from_coords(b)) for a, b in sample]
            want = np.array(amplified_norm_two_ways(x, pairs))
            scale = max(1.0, abs(want).max())
            assert abs(np.array(x.norm_two_ways(pairs)) - want).max() <= 1e-12 * scale
            assert abs(stacked[:, s] - want).max() <= 1e-12 * scale, (count, s)


def test_noise_in_the_right_middle_factor_fails_5_4():
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    assert check_norm_agreement(x, 10)["norm_forms_agree"] <= TOL
    rng = np.random.default_rng(3)
    x.mid_h = x.mid_h + 0.1 * rng.standard_normal(x.mid_h.shape)
    record = _record("5.4", check_norm_agreement(x, 10), TOL)
    assert record.status == "fail"
    assert record.details["5.4-norm_forms_agree"] > 1e-3


# -- 7.9: redundancy counts are decided at unit scale, not by rounding noise -----


@pytest.mark.parametrize("inter", [lambda: identity_interaction(Algebra((2,)))]
                         + [lambda s=s: adu_interaction(haar_unitary(2, s)) for s in range(8)])
def test_redundancy_counts_equal_the_algebra_dimension(inter):
    inter = inter()
    corr = correspondence_from_bimodule(build_bimodule(inter), TOL)
    for side in ("right", "left"):
        assert len(find_redundancies(corr, side)) == inter.algebra.dim, side


def test_a_nan_in_the_module_fails_5_2_and_5_3():
    # a NaN in the right middle factor fails 5.2 and 5.3; one in the left
    # middle factor, with the left Gram matrix rebuilt from it, fails 5.4
    for factor, checks in (("mid_h", (("5.2", check_positivity),
                                      ("5.3", check_cauchy_schwarz))),
                           ("mid_v", (("5.4", check_norm_agreement),))):
        x = build_bimodule(identity_interaction(Algebra((2,))))
        setattr(x, factor, getattr(x, factor).copy())
        getattr(x, factor)[0, 0, 0, 0] = np.nan
        x.gram_l = x._basis_gram(x._factors_l).transpose(1, 0, 3, 2).reshape(x.amb, x.amb)
        for cid, check in checks:
            record = _record(cid, check(x, 4, np.random.default_rng(0)), TOL)
            assert record.status == "fail" and np.isnan(record.residual), cid
