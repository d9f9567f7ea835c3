"""The inner products' pair presentations against the dense dim⁴·m² forms
they replace, the memory they and the chunked sampled checks save, the
batched sampled checks 5.2-5.10 against their per-element loops, the stacked
grid norms of 5.4 against amplified maps, and the noise-free redundancy
counts of 7.9."""

import tracemalloc

import dense
import numpy as np
import pytest
from conftest import mixed_pair, traced_peak

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
    from_endomorphism_transfer,
    identity_interaction,
    run_checklist,
    swap_transfer_interaction,
)
from starint import algebra
from starint.bimodule import (
    check_action_bound,
    check_associativity,
    check_bound_59,
    check_cauchy_schwarz,
    check_norm_agreement,
    check_positivity,
)
from starint.checklist import _bimodule_records, _correspondence_records, _record
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
    lt = dense.left_mult(alg)
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


def draw(x, rng):
    """One random tensor, drawn as the sampled checks draw each of theirs."""
    raw = rng.standard_normal(x.amb) + 1j * rng.standard_normal(x.amb)
    return raw / np.sqrt(2)


def hermitian_trace(form: np.ndarray) -> np.ndarray:
    gram = np.einsum("uvaa->uv", form) / form.shape[-1]
    return (gram + gram.conj().T) / 2


def test_factored_forms_match_the_dense_oracle(module):
    x = module
    rf, lf = dense_forms(x)
    rng = np.random.default_rng(4)
    for _ in range(3):
        s, t = draw(x, rng), draw(x, rng)
        want_r = np.einsum("u,v,uvab->ab", s.conj(), t, rf)
        want_l = np.einsum("u,v,uvab->ab", s, t.conj(), lf)
        assert np.abs(x.inner_r(s, t) - want_r).max() < 1e-12
        assert np.abs(x.inner_l(s, t) - want_l).max() < 1e-12
    # the tables hold span coordinates, and the dense inner products have no
    # part outside the span
    lift = x.liftx
    want_r = np.einsum("uj,vk,uvab->jkab", lift.conj(), lift, rf)
    want_l = np.einsum("uj,vk,uvab->jkab", lift, lift.conj(), lf)
    for table, want, bc in ((x.inner_r_t, want_r, x.bch), (x.inner_l_t, want_l, x.bcv)):
        want = want.reshape(x.r, x.r, -1)
        assert np.abs(table @ bc.k_basis - want).max() < 1e-12
        assert np.abs(want - (want @ bc.k_basis.conj().T) @ bc.k_basis).max() < 1e-12


def diagonal_expectation(alg: Algebra) -> LinMap:
    """The conditional expectation onto the diagonal of every block."""
    diag = np.concatenate([(np.arange(d)[:, None] == np.arange(d)).reshape(-1)
                           for d in alg.blocks])
    return LinMap(alg, np.diag(diag.astype(complex)))


PATTERN_PAIRS = {
    **PAIRS,
    # unequal block sizes, where a slip between the legs' indices would show
    "identity_21": lambda: identity_interaction(Algebra((2, 1))),
    "identity_122": lambda: identity_interaction(Algebra((1, 2, 2))),
    "diagonal_21": lambda: Interaction.build(diagonal_expectation(Algebra((2, 1))),
                                             diagonal_expectation(Algebra((2, 1))), TOL),
    "mixed_221": lambda: mixed_pair("mixed_221", TOL),
    "mixed_32": lambda: mixed_pair("mixed_32", TOL),
}


@pytest.mark.parametrize("name", sorted(PATTERN_PAIRS))
def test_gram_pieces_are_the_dense_grams_by_matrix_units(name):
    # each side's dense Gram is its pieces placed at their coordinates, copy
    # by copy, exactly 0.0 elsewhere, and its spectrum is theirs
    x = build_bimodule(PATTERN_PAIRS[name]())
    rf, lf = dense_forms(x)
    for side, form in (("right", rf), ("left", lf)):
        want = hermitian_trace(form)
        placed = np.zeros(want.shape, dtype=bool)
        for (g,), (index,) in x._gram_pieces(side):      # one piece a stack
            for copy in index:
                cell = np.ix_(copy, copy)
                assert np.abs(want[cell] - g).max() < 1e-12, side
                placed[cell] = True
        assert not want[~placed].any(), side
        spectrum = np.concatenate([np.repeat(np.linalg.eigvalsh(g), len(index))
                                   for (g,), (index,) in x._gram_pieces(side)])
        assert np.abs(np.sort(spectrum) - np.linalg.eigvalsh(want)).max() < 1e-12, side


def dense_lam(bc):
    """(dim, m, m): λ of each basis element, q·L_i·lift by the dense left multiplications."""
    return bc.q @ dense.left_mult(bc.algebra) @ bc.lift


def cycle_pair():
    """The endomorphism f -> f∘σ of C⁴ for the 4-cycle σ and its transfer
    f -> f∘σ⁻¹: a commutative pair on four 1×1 blocks."""
    alg, perm = Algebra((1, 1, 1, 1)), np.eye(4, dtype=complex)[[1, 2, 3, 0]]
    return from_endomorphism_transfer(LinMap(alg, perm), LinMap(alg, perm.T), TOL)[0]


MIDDLE_PAIRS = {**{name: PATTERN_PAIRS[name] for name in (
    "identity_21", "identity_122", "diagonal_21", "adu_m2", "flip_x2", "mixed_221", "mixed_32")},
    "cycle_c4": cycle_pair}


@pytest.mark.parametrize("name", sorted(MIDDLE_PAIRS))
def test_middle_pieces_and_actions_match_the_dense_oracle(name):
    # both action factors, which also carry the middles H(a*·c) and V(b·d*) of
    # the inner products' presentations, agree with the dense route, on the
    # leading shapes the checks pass: an empty stack, (n,) and (n, terms)
    x = build_bimodule(MIDDLE_PAIRS[name]())
    rng = np.random.default_rng(9)
    mats = (rng.standard_normal((3, 2, x.amb, 2)) @ [1, 1j]).reshape(3, 2, x.dim, x.dim)
    f1, g1 = dense.action_tables(x.algebra, x.inter.v.matrix, x.inter.h.matrix)
    for s_m in (mats[:0, 0], mats[:, 0], mats):
        for side, want in (("right", np.einsum("...ij,ijpa->...ap", s_m, f1)),
                           ("left", np.einsum("...ij,qija->...qa", s_m, g1))):
            got = x._factor(s_m, side)
            assert got.shape == s_m.shape, side
            assert np.abs(got - want).max(initial=0.0) < 1e-12, side


def dense_presentations(x, s_m, t_m):
    """Both inner products' pair presentations by dense products and the map
    matrices: right [p, l] = Σ conj(s[i, j])·t[k, l]·coords_p(a_j*·H(a_i*·a_k)) and
    left [p, σ(k)] = Σ s[i, j]·conj(t[k, l])·coords_p(a_i·V(a_j·a_l*))."""
    alg, eye = x.algebra, np.eye(x.dim, dtype=complex)
    stars = np.stack([dense.star(alg, a) for a in eye])
    h_of = dense.mul(alg, stars[:, None], eye[None]) @ x.inter.h.matrix.T    # [i, k]
    v_of = dense.mul(alg, eye[:, None], stars[None]) @ x.inter.v.matrix.T    # [j, l]
    right = dense.mul(alg, stars[None, :, None], h_of[:, None])              # [i, j, k]
    left = dense.mul(alg, eye[:, None, None], v_of[None])                    # [i, j, l]
    return (np.einsum("nij,nkl,ijkp->npl", s_m.conj(), t_m, right),
            np.einsum("nij,nkl,ijlp->npk", s_m, t_m.conj(), left)[..., x.sigma])


PRESENTED_PAIRS = {name: PATTERN_PAIRS[name] for name in (
    "identity_21", "identity_122", "diagonal_21", "adu_m2", "mixed_221", "mixed_32")}


@pytest.mark.parametrize("name", sorted(PRESENTED_PAIRS))
def test_presentations_match_the_dense_oracle(name):
    # each side's presentations are the dense ones; presented by the dense λ
    # and e they are the dense inner products, which inner_r and inner_l read
    # on the span basis; the tables are express_in_k of the dense inner
    # products over pairs of representatives
    x = build_bimodule(PRESENTED_PAIRS[name]())
    rng = np.random.default_rng(9)
    ss, ts = rng.standard_normal((2, 3, x.amb, 2)) @ [1, 1j]
    lift, mats = x.liftx, (z.reshape(3, x.dim, x.dim) for z in (ss, ts))
    for side, want, form, inner, table, bc in zip(
            ("right", "left"), dense_presentations(x, *mats), dense_forms(x),
            (x.inner_r, x.inner_l), (x.inner_r_t, x.inner_l_t), (x.bch, x.bcv)):
        xs, ys = x._inner_factors(ss, ts, side)
        assert np.abs(xs @ ys - want).max() < 1e-12, side
        lam = dense_lam(bc)
        operators = np.einsum("npq,pab,bc,qcd->nad", want, lam, bc.e, lam)
        slots = (ss.conj(), ts) if side == "right" else (ss, ts.conj())
        assert np.abs(operators - np.einsum("nu,nv,uvab->nab", *slots, form)).max() < 1e-12, side
        assert np.abs(inner(ss, ts) - operators).max() < 1e-12, side
        slots = (lift.conj(), lift) if side == "right" else (lift, lift.conj())
        coords, rest = bc.express_in_k(np.einsum("uj,vk,uvab->jkab", *slots, form))
        assert np.abs(table - coords).max() < 1e-12, side
        assert rest.max() < 1e-12, side


@pytest.mark.parametrize("n", [3, 4])
def test_module_build_holds_no_amb_square_array(n):
    inter = amplified_interaction(flip_interaction(), n)
    x, peak = traced_peak(lambda: build_bimodule(inter))
    square = 16 * x.amb ** 2          # bytes of one complex amb-by-amb array
    assert peak < square, peak / square

    def entries(value):
        if isinstance(value, np.ndarray):
            return value.size
        if isinstance(value, dict):
            value = tuple(value.values())
        return sum(map(entries, value)) if isinstance(value, tuple) else 0

    big = [k for k, v in vars(x).items() if entries(v) >= x.amb ** 2]
    assert not big, big
    # nor a dim³ table: the action factors read the maps' own (dim, dim) matrices, and
    # every other array here is at most (r, dim²) with r = dim / 2
    assert x.r == x.dim // 2
    cubes = [k for k, v in vars(x).items() if entries(v) >= x.dim ** 3]
    assert not cubes, cubes


@pytest.mark.parametrize("name", ["swap_endo", "mixed_221"])
def test_a_full_build_leaves_no_dim_cubed_table_on_the_algebra(name):
    # every record of the build stage, 7.13 included on the endomorphism/transfer
    # pair, reads the products of matrix units by index: no (dim, dim, dim)
    # multiplication table is cached on the algebra
    if name == "swap_endo":
        inter, alpha, transfer = swap_transfer_interaction()
        mode = "endo_transfer"
    else:
        inter, alpha, transfer, mode = mixed_pair(name, TOL), None, None, None
    report = run_checklist(inter.v, inter.h, tol=TOL, samples=4, mode=mode, alpha=alpha,
                           transfer=transfer)
    assert report.passed
    assert report.records["7.13"].status == ("pass" if mode else "skipped")
    dim = inter.algebra.dim
    cubes = [k for k, v in vars(inter.algebra).items()
             if isinstance(v, np.ndarray) and v.shape == (dim, dim, dim)]
    assert not cubes, cubes


def test_module_keeps_no_dense_form():
    inter = amplified_interaction(flip_interaction(), 3)     # dim 18, m = 9
    x, peak = traced_peak(lambda: build_bimodule(inter))
    # one dense form alone would take dim⁴·m²·16 bytes = 130 MiB here
    assert peak < 32 * 2**20, peak / 2**20
    largest = max(v.nbytes for v in vars(x).values() if hasattr(v, "nbytes"))
    assert largest < 4 * 2**20, largest / 2**20


def test_inner_tables_stay_below_a_quarter_of_one_dense_table():
    # the tables are read off the presentations a chunk of representatives at
    # a time: no (r, r, m, m) inner product array (25.6 MiB here) is formed
    x = build_bimodule(amplified_interaction(identity_interaction(Algebra((2,))), 3))
    assert x.r == x.bch.m == x.bcv.m == 36
    _, peak = traced_peak(lambda: (x.inner_r_t, x.inner_l_t))
    dense_table = 16 * x.r ** 2 * x.bch.m ** 2
    assert peak < dense_table / 4, peak / dense_table
    # 5.11 on those tables, its products of two span basis elements by ``in_k``
    # over their nonzeros: 2.2 MiB, where the dense (m, m) products of a chunk
    # of basis elements, projected on the span, took 3.6 MiB
    x.right_act_t, x.left_act_t
    _, peak = traced_peak(lambda: check_associativity(x))
    assert peak < 3 * 2**20, peak / 2**20


def test_chunked_factors_and_pairings_match_one_chunk(monkeypatch):
    # a stack taken one matrix at a time gives what one chunk gives, over
    # two leading axes, and an empty stack keeps its shape
    x = build_bimodule(PAIRS["flip_x2"]())
    rng = np.random.default_rng(5)
    ss, ts = (np.stack([draw(x, rng) for _ in range(6)]).reshape(2, 3, x.amb)
              for _ in range(2))
    mats = ss.reshape(2, 3, x.dim, x.dim)

    def evaluate():
        return (x.inner_r(ss, ts), x.inner_l(ss, ts), x._factor(mats, "right"),
                x._factor(mats, "left"), x.inner_r(ss[:0, 0], ts[:0, 0]),
                x._factor(mats[:0, 0], "right"), x.inner_l(ss[:, :0], ts[:, :0]),
                x._factor(mats[:, :0], "left"), x.act_a(np.zeros((0, x.dim)), ss[0, :0], "right"))

    whole = evaluate()
    monkeypatch.setattr(algebra, "CHUNK_ENTRIES", 1)
    for got, want in zip(evaluate(), whole):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) < 1e-12
    assert whole[4].shape == (0, x.bch.m, x.bch.m)
    assert whole[5].shape == (0, x.dim, x.dim)
    # the gathers keep the shape of a stack with an empty axis
    assert whole[6].shape == (2, 0, x.bcv.m, x.bcv.m)
    assert whole[7].shape == (2, 0, x.dim, x.dim)
    assert whole[8].shape == (0, x.amb)


def test_sampled_action_checks_stay_near_the_build_peak():
    # 5.9 and 5.10 act on a stack of samples through the dim³ action
    # factors and pair the results; formed for the whole stack at once, those
    # temporaries took about ten times the build's peak here (40 and 35 MB).
    # Each peak is counted above what the check leaves behind.
    inter = amplified_interaction(flip_interaction(), 4)      # dim 32, r = m = 16
    tracemalloc.start()
    try:
        x = build_bimodule(inter)
        build = tracemalloc.get_traced_memory()[1]
        peaks = {}
        for cid, check, lane in (("5.9", check_bound_59, 59),
                                 ("5.10", check_action_bound, 510)):
            tracemalloc.reset_peak()
            check(x, 25, rng=np.random.default_rng([0, lane]))
            left, peak = tracemalloc.get_traced_memory()
            peaks[cid] = peak - left
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 2 * build, {k: v / build for k, v in peaks.items()}


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
    basis = np.eye(x.algebra.dim)
    pool = [np.kron(a, b) for a in basis for b in basis[:1]]
    pool += [draw(x, rng) for _ in range(samples)]
    return {"right_square_psd": max(_psd_defect(x.inner_r(t, t)) for t in pool),
            "left_square_psd": max(_psd_defect(x.inner_l(t, t)) for t in pool)}


def loop_cauchy_schwarz(x, samples, rng):
    worst_r = worst_l = 0.0
    for _ in range(samples):
        s, t = draw(x, rng), draw(x, rng)
        diff = _psd_norm(x.inner_r(t, t)) * x.inner_r(s, s) - x.inner_r(s, t) @ x.inner_r(t, s)
        worst_r = max(worst_r, _psd_defect(diff))
        diff = _psd_norm(x.inner_l(t, t)) * x.inner_l(s, s) - x.inner_l(s, t) @ x.inner_l(t, s)
        worst_l = max(worst_l, _psd_defect(diff))
    return {"cauchy_schwarz_right": worst_r, "cauchy_schwarz_left": worst_l}


def column_gram(alg, xs):
    """The grid (x_i x_j*) as an element of the len(xs)-fold amplification."""
    n = len(xs)
    big = alg.amplified(n)
    coords, cells = np.zeros(big.dim, dtype=complex), _cell_indices(alg, n)
    for i in range(n):
        for j in range(n):
            coords[cells[i * n + j]] += dense.mul(alg, xs[i], dense.star(alg, xs[j]))
    return coords


def amplified_norm_two_ways(x, pairs):
    """The grid norms of 5.4 through the amplified maps V_n, H_n on the
    (n·d)-square grid algebra, one dense grid at a time."""
    n = len(pairs)
    big = x.algebra.amplified(n)
    vn, hn = amplify(x.inter.v, n).matrix, amplify(x.inter.h, n).matrix
    grid_a = column_gram(x.algebra, [a for a, _ in pairs])
    grid_b = column_gram(x.algebra, [b for _, b in pairs])

    def norm_of_roots(p, q):
        return dense.norm(big, dense.mul(big, dense.psd_root(big, p), dense.psd_root(big, q)))

    return (norm_of_roots(hn @ grid_a, hn @ vn @ grid_b),
            norm_of_roots(vn @ hn @ grid_a, vn @ grid_b))


def loop_norm_agreement(x, samples, rng):
    worst_forms = worst_sides = 0.0
    for _ in range(samples):
        t = draw(x, rng)
        worst_sides = max(worst_sides, abs(x.module_norm(t) - x.module_norm_left(t))
                          / max(1.0, x.module_norm(t)))
        count = int(rng.integers(1, 4))
        pairs = [(x.algebra.random_coords(rng, 1)[0], x.algebra.random_coords(rng, 1)[0])
                 for _ in range(count)]
        n1, n2 = amplified_norm_two_ways(x, pairs)
        quot = x.module_norm(sum(np.kron(dense.star(x.algebra, a), b) for a, b in pairs))
        scale = max(1.0, n1, n2, quot)
        worst_forms = max(worst_forms, abs(n1 - n2) / scale, abs(n1 - quot) / scale)
    return {"norm_forms_agree": worst_forms, "seminorms_agree": worst_sides}


def loop_bound_59(x, samples, rng, terms=3):
    worst = 0.0
    for _ in range(samples):
        xi, eta = draw(x, rng), draw(x, rng)
        phi = np.zeros((x.bch.m, x.bch.m), dtype=complex)
        moved = np.zeros(x.amb, dtype=complex)
        for _ in range(terms):
            a_star = dense.star(x.algebra, x.algebra.random_coords(rng, 1)[0])
            b = x.algebra.random_coords(rng, 1)[0]
            lam_a, lam_b = (np.tensordot(c, x.bch.lam, axes=1) for c in (a_star, b))
            phi += lam_a @ x.bch.e @ lam_b
            moved = moved + x.right_act(eta, np.outer(a_star, b))
        lhs = float(np.linalg.norm(x.inner_r(xi, moved), 2))
        rhs = x.module_norm(xi) * x.module_norm(eta) * float(np.linalg.norm(phi, 2))
        worst = max(worst, max(0.0, lhs - rhs) / max(1.0, rhs))
    return {"pairing_bound": worst}


def loop_action_bound(x, samples, rng):
    worst_bound = 0.0
    kb = x.bch.k_basis
    for _ in range(samples):
        t = draw(x, rng)
        w = rng.standard_normal(kb.shape[0]) + 1j * rng.standard_normal(kb.shape[0])
        k = (kb.T @ w).reshape(x.bch.m, x.bch.m)
        bound = x.module_norm(t) * float(np.linalg.norm(k, 2))
        moved = x.right_act(t, dense.presentation(x.bch, k))
        worst_bound = max(worst_bound, max(0.0, x.module_norm(moved) - bound)
                          / max(1.0, bound))
    _, s, vh = np.linalg.svd(dense.spanning_matrix(x.bch))
    null = vh[int((s > x.tol * max(s[0], 1e-300)).sum()):]
    worst_pres = 0.0
    if null.shape[0]:
        for _ in range(min(samples, 10)):
            t = draw(x, rng)
            k = (kb.T @ (rng.standard_normal(kb.shape[0]))).reshape(x.bch.m, x.bch.m)
            coeff = dense.presentation(x.bch, k)
            # an isotropic draw on dim² coordinates, projected onto the null space
            z = rng.standard_normal(x.dim ** 2) + 1j * rng.standard_normal(x.dim ** 2)
            perturbed = coeff + (null.conj().T @ (null @ z)).reshape(x.dim, x.dim)
            d = x.right_act(t, coeff) - x.right_act(t, perturbed)
            worst_pres = max(worst_pres, float(np.linalg.norm(x.qx @ d))
                             / max(1.0, float(np.linalg.norm(x.qx @ t))))
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
    # noise in the map tables that the presentations and the actions read
    # makes every sampled residual of order 1, so agreement shows the same
    # samples reached the same verdicts
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    rng = np.random.default_rng(1)
    x.h_mat = x.h_mat + 0.3 * (rng.standard_normal(x.h_mat.shape)
                               + 1j * rng.standard_normal(x.h_mat.shape))
    x.v_mat = x.v_mat + 0.3 * rng.standard_normal(x.v_mat.shape)
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
        stacked = x.norm_two_ways(padded[:, :, 0], padded[:, :, 1])
        for s, sample in enumerate(coords):
            want = np.array(amplified_norm_two_ways(x, sample))
            scale = max(1.0, abs(want).max())
            one = x.norm_two_ways(sample[:, 0], sample[:, 1])     # unpadded, no stack axis
            assert abs(one - want).max() <= 1e-12 * scale
            assert abs(stacked[:, s] - want).max() <= 1e-12 * scale, (count, s)


def test_noise_in_the_right_middle_factor_fails_5_4():
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    assert check_norm_agreement(x, 10)["norm_forms_agree"] <= TOL
    # h_mat gives the middles H(a_q·a_i) that the right presentations read
    rng = np.random.default_rng(3)
    x.h_mat = x.h_mat + 0.1 * rng.standard_normal(x.h_mat.shape)
    record = _record("5.4", check_norm_agreement(x, 10), TOL)
    assert record.status == "fail"
    assert record.details["5.4-norm_forms_agree"] > 1e-3


@pytest.mark.parametrize("tables, seed, fails", [
    (("lam_t", "rho_t"), 3, {"5.17", "7.1"}),
    (("inner_r_t", "inner_l_t"), 4, {"5.11", "5.13", "5.14", "5.17", "7.1"})])
def test_tables_filled_by_noise_fail_the_ids_the_dense_route_failed(tables, seed, fails):
    # noise fills the tables (and, from the inner tables, the bracket), so
    # every law reads them through the one sparse route at their dense size
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    rng = np.random.default_rng(seed)
    for name in tables:
        value = getattr(x, name)
        setattr(x, name, value + 0.1 * (rng.standard_normal(value.shape)
                                        + 1j * rng.standard_normal(value.shape)))
        assert np.all(getattr(x, name) != 0)
    records = {**_bimodule_records(x, TOL, 4, 0), **_correspondence_records(x, TOL)}
    assert {cid for cid, rec in records.items() if rec.status == "fail"} == fails


# -- 7.9: redundancy counts are decided at unit scale, not by rounding noise -----


@pytest.mark.parametrize("inter", [lambda: identity_interaction(Algebra((2,)))]
                         + [lambda s=s: adu_interaction(haar_unitary(2, s)) for s in range(8)])
def test_redundancy_counts_equal_the_algebra_dimension(inter):
    inter = inter()
    corr = correspondence_from_bimodule(build_bimodule(inter), TOL)
    for side in ("right", "left"):
        assert len(find_redundancies(corr, side)) == inter.algebra.dim, side


def test_a_nan_in_the_module_fails_5_2_and_5_3():
    # a NaN in the matrix of H that the action factors read (the right
    # presentations) fails 5.2 and 5.3; one in that of V, which the left ones
    # read, fails 5.4 through the left norms (the Gram pieces are read off the
    # maps and the state τ at the build, not off the factors' matrices)
    for table, checks in (("h_mat", (("5.2", check_positivity),
                                     ("5.3", check_cauchy_schwarz))),
                          ("v_mat", (("5.4", check_norm_agreement),))):
        x = build_bimodule(identity_interaction(Algebra((2,))))
        value = getattr(x, table).copy()
        value[0, 0] = np.nan
        setattr(x, table, value)
        for cid, check in checks:
            record = _record(cid, check(x, 4, np.random.default_rng(0)), TOL)
            assert record.status == "fail" and np.isnan(record.residual), cid


@pytest.mark.parametrize("name", ["identity_m2", "flip_x2"])
def test_a_rank_one_left_term_fails_the_5_4_kernel_keys(name):
    # a rank-one PSD term in one left Gram piece moves the left kernel and
    # rank away from the right ones; the term stays inside the matrix-unit
    # pattern, as any left Gram built from factors on a representation does
    x = build_bimodule(PAIRS[name]())
    (g, index), *rest = x.pieces_l
    w = np.random.default_rng(0).standard_normal(g.shape[-1])
    x.pieces_l = algebra.BlockForm(((g + np.outer(w, w), index), *rest))
    record = _record("5.4", check_norm_agreement(x, 4, np.random.default_rng(0)), TOL)
    assert record.status == "fail"
    assert record.details["5.4-kernels_coincide"] > TOL
    assert record.details["5.4-rank_mismatch"] > TOL
