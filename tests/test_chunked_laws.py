"""The law checks and tables that are formed a chunk at a time: the unchunked
formulas they replaced are kept here as oracles, every chunked site is run at
chunk boundaries, the build stage computes the slot-adjoint pass and the
rank-one spans once, and the peak memory of each chunked site is bounded."""

from collections import Counter

import dense
import numpy as np
import pytest
from conftest import mixed_pair, traced_peak

from starint import (
    Algebra,
    Interaction,
    LinMap,
    amplified_interaction,
    build_bimodule,
    build_covrep,
    check_71,
    check_associativity,
    check_commutation,
    check_compatibility,
    check_corner_isomorphisms,
    check_fullness,
    check_inverse_pair,
    check_ternary_consistency,
    check_ternary_module_laws,
    check_theta_adjoints,
    compact_spans,
    correspondence_from_bimodule,
    faithful_extension,
    flip_interaction,
    identity_interaction,
    swap_transfer_interaction,
)
from starint import algebra, basic_construction, bimodule, correspondences, interactions
from starint.algebra import Sparse, representation_defects, worst_norm
from starint.bimodule import BimoduleX, slot_adjoint_defects
from starint.checklist import _bimodule_records, _correspondence_records, build_stage_records
from starint.correspondences import GenCorrespondence

TOL = 1e-9

# a fixed complex unitary on C^2, [[a, -conj b], [b, conj a]] with |a|² + |b|² = 1
U = np.array([[1.0 + 2.0j, 2.0j], [2.0j, 1.0 - 2.0j]]) / 3.0

PAIRS = {
    "identity_m2": lambda: identity_interaction(Algebra((2,))),
    "flip_x2": lambda: amplified_interaction(flip_interaction(), 2),
    "swap_endo": lambda: swap_transfer_interaction()[0],
    "adu_m2": lambda: Interaction.build(LinMap(Algebra((2,)), np.kron(U, U.conj())),
                                        LinMap(Algebra((2,)), np.kron(U.conj().T, U.T)), TOL),
}


def noisy(x: BimoduleX) -> BimoduleX:
    """N(0,1) noise in the map matrices that the action factors read (0.3·) and
    in every table the laws read (0.1·), so that the residuals compared are of
    order 1."""
    rng = np.random.default_rng(17)

    def noise(a, scale=0.1):
        return a + scale * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))

    x.v_mat, x.h_mat = noise(x.v_mat, 0.3), noise(x.h_mat, 0.3)
    for table in ("inner_r_t", "inner_l_t", "right_act_t", "left_act_t",
                  "bracket_t", "lam_t", "rho_t"):
        value = getattr(x, table)
        # the bracket filled by noise: every entry a nonzero of the sparse table
        setattr(x, table,
                Sparse.of(noise(value.dense())) if table == "bracket_t" else noise(value))
    assert len(x.bracket_t.at) == x.r ** 4
    return x


def close(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        got, want = [got[k] for k in want], list(want.values())
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12, (got, want)


@pytest.fixture(scope="module", params=[(p, n) for p in sorted(PAIRS) for n in (False, True)],
                ids=lambda p: p[0] + ("-noisy" if p[1] else ""))
def module(request):
    name, with_noise = request.param
    x = build_bimodule(PAIRS[name](), TOL)
    return noisy(x) if with_noise else x


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_noise_in_every_table_fails_the_ids_the_dense_route_failed(name):
    # the noisy tables, the bracket dense, go through the one sparse route;
    # the noise in the map matrices of the action factors reaches the inner
    # products through their presentations, so the sampled 5.2-5.4 and 5.9
    # fail too
    x = noisy(build_bimodule(PAIRS[name](), TOL))
    records = {**_bimodule_records(x, TOL, 4, 0), **_correspondence_records(x, TOL)}
    failed = {cid for cid, rec in records.items() if rec.status == "fail"}
    assert failed == {"5.2", "5.3", "5.4", "5.9", "5.10", "5.11", "5.13", "5.14", "5.17",
                      "7.1"}


# -- the unchunked formulas ----------------------------------------------------------


def span_products(bc):
    """(k, k, m²): [j, l] is vec(k_j·k_l) for the orthonormal span basis k of bc."""
    kb = bc.k_basis.reshape(-1, bc.m, bc.m)
    return np.einsum("jab,kbc->jkac", kb, kb).reshape(len(kb), len(kb), -1)


def old_associativity(x, dense=None, inner=None):
    """5.11 in one pass.  The products of two basis elements are read in span
    coordinates against the module's action tables, or, given ``dense`` =
    (right table, left table, jk, kj) on the matrix units of M_m, as
    (k, k, m²) vectors against those.  The inner-linear laws are products of
    m×m matrices: the (r, r, m, m) tables ``inner`` = (right, left), by
    default the module's span-coordinate tables on the span bases."""
    kh = x.bch.k_basis.reshape(-1, x.bch.m, x.bch.m)
    kv = x.bcv.k_basis.reshape(-1, x.bcv.m, x.bcv.m)
    ir, il = inner or [(t @ bc.k_basis).reshape(x.r, x.r, bc.m, bc.m)
                       for t, bc in ((x.inner_r_t, x.bch), (x.inner_l_t, x.bcv))]
    if dense is None:
        act_r, act_l = by_r, by_l = x.right_act_t, x.left_act_t
        jk = span_products(x.bch) @ x.bch.k_basis.conj().T
        kj = span_products(x.bcv).swapaxes(0, 1) @ x.bcv.k_basis.conj().T
    else:
        act_r, act_l, jk, kj = dense
        by_r = np.einsum("twc,jw->tjc", act_r, x.bch.k_basis)
        by_l = np.einsum("twc,jw->tjc", act_l, x.bcv.k_basis)
    return {
        "right_action_associative": worst_norm(
            np.einsum("tjc,ckd->tjkd", by_r, by_r)
            - np.einsum("twd,jkw->tjkd", act_r, jk)),
        "inner_r_right_linear": worst_norm(
            np.einsum("tkc,scab->stkab", by_r, ir)
            - np.einsum("stab,kbe->stkae", ir, kh), axis=(-2, -1)),
        "left_action_associative": worst_norm(
            np.einsum("tjc,ckd->tjkd", by_l, by_l)
            - np.einsum("twd,jkw->tjkd", act_l, kj)),
        "inner_l_left_linear": worst_norm(
            np.einsum("skc,ctab->stkab", by_l, il)
            - np.einsum("kae,steb->stkab", kv, il), axis=(-2, -1)),
    }


def old_action_tables(x):
    """The dim⁴ action tables the module once stored, by dense products with
    the map matrices that its action factors read."""
    return dense.action_tables(x.algebra, x.v_mat, x.h_mat)


def old_ternary_consistency(x):
    f1, g1 = old_action_tables(x)
    p1, p2 = f1[:, :, x.sigma, :], g1[x.sigma]     # the σ-permuted copies
    reps = x.rep_mats
    u1 = np.einsum("nuv,uvyr->nyr", reps, p1, optimize=True)
    u2 = np.einsum("nzw,xzws->nxs", reps, p2, optimize=True)
    out = np.einsum("jxy,iyr,kxs->ijkrs", reps.conj(), u1, u2, optimize=True)
    elementary = out.reshape(x.r, x.r, x.r, x.amb) @ x.qx.T
    return {"ternary_two_routes": worst_norm(elementary - x.bracket_t.dense())}


def pulled_back_tables(x):
    """(r, m², r) each: [i, w] is the class of rep_i acted on by the w-th matrix
    unit of M_m on the right and on the left, the unit presented by the dense
    pseudo-inverse of the spanning matrix.  A matrix orthogonal to the span
    has presentation 0, so these tables send it to 0."""
    units_r = dense.spanning_pinv(x.bch).T.reshape(-1, x.dim, x.dim)
    units_l = dense.spanning_pinv(x.bcv).T.reshape(-1, x.dim, x.dim)
    reps = x.rep_mats[:, None]
    f1, g1 = old_action_tables(x)
    return (np.einsum("...ij,...pq,ijpk->...kq", reps, units_r, f1,
                      optimize=True).reshape(x.r, -1, x.amb) @ x.qx.T,
            np.einsum("...pq,...ij,qijl->...pl", units_l, reps, g1,
                      optimize=True).reshape(x.r, -1, x.amb) @ x.qx.T)


def old_tables(x):
    # [n, a]: the coefficients of a_a·rep_n and of rep_n·a_a
    lefts = dense.left_mult(x.algebra)[None] @ x.rep_mats[:, None]
    rights = x.rep_mats[:, None] @ dense.right_mult(x.algebra)[None].swapaxes(-1, -2)
    dense_r, dense_l = pulled_back_tables(x)
    return {
        # the matrix-unit tables times the span basis: the action on each basis element
        "right_act_t": np.einsum("iwc,jw->ijc", dense_r, x.bch.k_basis),
        "left_act_t": np.einsum("iwc,jw->ijc", dense_l, x.bcv.k_basis),
        "lam_t": (lefts.reshape(x.r, x.dim, x.amb) @ x.qx.T).transpose(1, 2, 0),
        "rho_t": (rights.reshape(x.r, x.dim, x.amb) @ x.qx.T).transpose(1, 2, 0),
    }


def test_slot_adjoint_pass_matches_the_full_tensors(module):
    x = module
    close(slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t, x.sigma),
          dense.slot_adjoint_defects(x.bracket_t.dense(), x.lam_t, x.rho_t, x.sigma))


def test_associativity_matches_the_full_tensors(module):
    close(check_associativity(module), old_associativity(module))


def test_ternary_consistency_matches_the_permuted_copies(module):
    close(check_ternary_consistency(module), old_ternary_consistency(module))


def test_tables_match_the_full_coefficient_stacks(module):
    for name, want in old_tables(module).items():
        close(getattr(BimoduleX, name).func(module), want)


@pytest.mark.parametrize("name", ["flip_x2", "identity_m2"])
def test_the_part_of_a_matrix_outside_the_span_reads_as_zero(name):
    """A component orthogonal to the span K, added to each inner product and
    to the products of two span basis elements, is sent to 0 by the dense
    pull-back tables, so the laws read the same numbers on span coordinates as
    the dense tables do on whole matrices; 5.15 is the law that sees it, added
    to the generators λ(a_i)·e·λ(a_j).  Each span gets its own complex
    orthonormal basis, its dual and pair vectors rotated with it, so that no
    law can read one side's coordinates on the other's basis."""
    x = build_bimodule(PAIRS[name](), TOL)
    rng = np.random.default_rng(11)
    for bc in (x.bch, x.bcv):
        # every kept singular value is equal here, so the spanning matrix
        # k_pairsᵀ·diag(k_values)·k_basis stays as it is when k_basis and k_dual
        # turn by u and k_pairs by conj(u)
        assert np.ptp(bc.k_values) < 1e-12
        k = len(bc.k_basis)
        u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        vars(bc)["k_basis"], vars(bc)["k_dual"] = u @ bc.k_basis, u @ bc.k_dual
        vars(bc)["k_pairs"] = u.conj() @ bc.k_pairs

    def outside(bc, *shape):
        w = rng.standard_normal((*shape, bc.m ** 2)) + 1j * rng.standard_normal((*shape, bc.m ** 2))
        return w - (w @ bc.k_basis.conj().T) @ bc.k_basis

    assert len(x.bch.k_basis) < x.bch.m ** 2 and len(x.bcv.k_basis) < x.bcv.m ** 2
    # the inner products of the representatives, their presentations taken by
    # λ and e, are the tables on the turned span bases
    clean, full, reps = {}, {}, x.liftx.T
    for side, table, bc in (("right", x.inner_r_t, x.bch), ("left", x.inner_l_t, x.bcv)):
        xs, ys = x._inner_factors(reps[:, None], reps, side)
        clean[side] = np.einsum("jkpq,pab,bc,qcd->jkad", xs @ ys, bc.lam, bc.e, bc.lam,
                                optimize=True).reshape(x.r, x.r, -1)
        close(table @ bc.k_basis, clean[side])
        full[side] = clean[side] + outside(bc, x.r, x.r)
    dense_r, dense_l = pulled_back_tables(x)
    bracket = np.einsum("iwc,jkw->ijkc", dense_r, full["right"])
    close(x.bracket_t.dense(), bracket)
    lhs = np.einsum("stw,uwd->stud", full["left"], dense_l)
    close(check_compatibility(x), {"bimodule_compatibility": worst_norm(lhs - bracket)})
    nh, nv = len(x.bch.k_basis), len(x.bcv.k_basis)
    jk = span_products(x.bch) + outside(x.bch, nh, nh)
    kj = span_products(x.bcv).swapaxes(0, 1) + outside(x.bcv, nv, nv)
    inner = [clean[side].reshape(x.r, x.r, bc.m, bc.m)
             for side, bc in (("right", x.bch), ("left", x.bcv))]
    close(check_associativity(x), old_associativity(x, (dense_r, dense_l, jk, kj), inner))
    # added to e, the component reaches each generator λ(a_i)·e·λ(a_j) on its own copy
    for bc in (x.bch, x.bcv):
        bc.e = bc.e + outside(bc).reshape(bc.m, bc.m)
    fullness = check_fullness(x)
    assert min(fullness["right_span_inside"], fullness["left_span_inside"]) > 1e-3, fullness


@pytest.mark.parametrize("name", ["mixed_221", "mixed_32"])
def test_sparse_laws_match_the_dense_oracle_on_mixed_blocks(name):
    # the tables of M_2 ⊕ M_2 ⊕ C take two magnitudes each (the bracket 3 and
    # 6, the actions 1/√2 and 1), not one scaled 0/1 pattern
    x = build_bimodule(mixed_pair(name), TOL)
    tt = x.bracket_t.dense()
    if name == "mixed_221":
        assert len(np.unique(np.round(abs(x.bracket_t.values), 12))) == 2
    close(slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t, x.sigma),
          dense.slot_adjoint_defects(tt, x.lam_t, x.rho_t, x.sigma))
    close(check_associativity(x), old_associativity(x))
    close(check_compatibility(x),
          {"bimodule_compatibility": dense.compatibility(x.inner_l_t, x.left_act_t, tt)})
    close(check_ternary_consistency(x), old_ternary_consistency(x))
    corr = correspondence_from_bimodule(x, TOL)
    for got, want in zip(compact_spans(corr), dense.span_projectors(tt, TOL)):
        close(got.conj().T @ got, want)
    left, right = (span.reshape(len(span), x.r, x.r) for span in compact_spans(corr))
    close(check_commutation(corr), {"rank_one_sides_commute": dense.commutator(right, left),
                                    "actions_commute": dense.commutator(x.lam_t, x.rho_t)})
    close(check_theta_adjoints(corr), dict(zip(("theta_left_adjoint", "theta_right_adjoint"),
                                               dense.theta_adjoints(tt))))


# -- every chunked site, at chunk boundaries -------------------------------------------


def _sites():
    def product_defects(x):
        v = x.inter.v
        eye = np.eye(x.dim, dtype=complex)
        return interactions._unit_defects(v, eye, v.matrix.T)

    def restriction_multiplicative(x):
        # 2.7 over pairs of range rows, with V moved so that the law reads order one
        move = 0.1 * np.sin(np.arange(x.dim ** 2)).reshape(x.dim, x.dim)
        inter = Interaction(x.algebra, LinMap(x.algebra, x.inter.v.matrix + move), x.inter.h,
                            TOL, x.inter.range_v, x.inter.range_h, None)
        return check_inverse_pair(inter)["restriction_multiplicative"]

    def corr(x):
        return GenCorrespondence(coeff=x.algebra, tt=x.bracket_t, lam_t=x.lam_t,
                                 rho_t=x.rho_t, mode="abstract", tol=TOL, x=x)

    return {
        "representation_defects": lambda x: representation_defects(x.algebra, x.lam_t),
        "worst_commutator": lambda x: check_commutation(corr(x)),
        "product_defects": product_defects,
        "restriction_multiplicative": restriction_multiplicative,
        "slot_adjoint_pass": lambda x: slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t,
                                                            x.sigma),
        "5.11": check_associativity,
    }


@pytest.fixture(scope="module")
def noisy_flip_x2():
    return noisy(build_bimodule(PAIRS["flip_x2"](), TOL))


@pytest.mark.parametrize("site", sorted(_sites()))
def test_chunked_sites_agree_at_chunk_boundaries(site, noisy_flip_x2, monkeypatch):
    x, run = noisy_flip_x2, _sites()[site]
    calls = []

    def spy(rows, row_entries, real=algebra.row_chunks):
        chunks = list(real(rows, row_entries))
        calls.append((rows, row_entries, [len(range(rows)[c]) for c in chunks]))
        return chunks

    for mod in (algebra, basic_construction, bimodule, correspondences, interactions):
        monkeypatch.setattr(mod, "row_chunks", spy)
    want = run(x)
    rows, row_entries, _ = calls[0]
    assert rows >= 3, calls[0]
    step = next(k for k in range(2, rows) if rows % k)
    # one row a chunk, then chunks of `step` rows and a shorter last one
    for entries, sizes in ((1, [1] * rows),
                           (step * row_entries, [step] * (rows // step) + [rows % step])):
        monkeypatch.setattr(algebra, "CHUNK_ENTRIES", entries)
        calls.clear()
        close(run(x), want)
        assert calls[0][2] == sizes


# -- once per build stage, and bounded memory --------------------------------------------


def test_one_build_stage_computes_the_slot_pass_and_the_spans_once(monkeypatch):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    count(bimodule, "slot_adjoint_defects")
    count(correspondences, "slot_adjoint_defects")
    count(correspondences, "compact_spans")
    records = build_stage_records(PAIRS["flip_x2"](), TOL, 5, 0)
    assert all(r.status != "fail" for r in records.values())
    assert records["7.1"].status == records["7.9"].status == "pass"
    assert calls == {"slot_adjoint_defects": 1, "compact_spans": 1}


def test_law_checks_and_action_tables_stay_small_on_identity_m2_x2():
    x = build_bimodule(amplified_interaction(identity_interaction(Algebra((2,))), 2))
    assert (x.dim, x.r) == (16, 16)
    tables, peak = traced_peak(lambda: (x.right_act_t, x.left_act_t))
    assert [t.shape for t in tables] == [(x.r, len(bc.k_basis), x.r) for bc in (x.bch, x.bcv)]
    # tables on the 16 span basis elements: about 1.5 MiB, where (r, m², r)
    # tables on all 256 matrix units of M_16 take 4.6 MiB
    assert peak < 2 * 2**20, peak / 2**20
    peaks = {"tables": peak}
    for table in ("inner_r_t", "inner_l_t", "bracket_t", "lam_t", "rho_t"):
        getattr(x, table)
    # the inner products in span coordinates, and the remainders of the generators
    for table, bc in ((x.inner_r_t, x.bch), (x.inner_l_t, x.bcv)):
        assert table.shape == (x.r, x.r, len(bc.k_basis))
        assert bc.generator_remainders().shape == (x.dim, x.dim)
    peaks["5.11"] = traced_peak(lambda: check_associativity(x))[1]
    peaks["5.13"] = traced_peak(lambda: check_compatibility(x))[1]
    peaks["5.14"] = traced_peak(lambda: check_ternary_consistency(x))[1]
    peaks["5.15"] = traced_peak(lambda: check_fullness(x))[1]
    peaks["5.17"] = traced_peak(lambda: check_ternary_module_laws(x))[1]
    # a correspondence given no slot defects computes the pass from its tables
    peaks["7.1"] = traced_peak(lambda: check_71(GenCorrespondence(
        coeff=x.algebra, tt=x.bracket_t, lam_t=x.lam_t, rho_t=x.rho_t,
        mode="abstract", tol=TOL, x=x)))[1]
    mib = {k: v / 2**20 for k, v in peaks.items()}
    assert max(peaks.values()) < 12 * 2**20, mib
    # 5.11 read (r, r, m, m) inner tables at 3.4 MiB and 5.15 took an SVD of
    # the (r², m²) table at 3.0 MiB; 5.11 on span coordinates takes 1.9 MiB,
    # and 5.15, with the generators' remainders one i at a time, 0.3 MiB
    assert peaks["5.11"] < 2.5 * 2**20 and peaks["5.15"] < 0.5 * 2**20, mib

    # after 5.11, 5.13 and 5.15 no attribute holds r²·m² entries, the sparse
    # bracket's nonzeros included (here r = m)
    m = max(x.bch.m, x.bcv.m)
    held = {name: max(a.size for a in arrays(value)) for name, value in vars(x).items()
            if arrays(value)}
    assert max(held.values()) < x.r ** 2 * m ** 2, held


def arrays(value):
    """The arrays an attribute holds, in tuples (a sparse table too) and dicts."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = tuple(value.values())
    return [a for v in value for a in arrays(v)] if isinstance(value, tuple) else []


def test_slot_pass_and_spans_stay_below_one_dense_bracket_on_identity_m2_x2():
    x = build_bimodule(amplified_interaction(identity_interaction(Algebra((2,))), 2))
    assert x.r == 16
    x.bracket_t, x.lam_t, x.rho_t
    bracket = 16 * x.r ** 4               # bytes of one dense (r, r, r, r) complex array
    _, slot = traced_peak(lambda: x.slot_defects)
    corr = correspondence_from_bimodule(x, TOL)
    spans, peak = traced_peak(lambda: compact_spans(corr))
    assert [len(s) for s in spans] == [x.r, x.r]
    assert max(slot, peak) < bracket, (slot / bracket, peak / bracket)
    for obj in (x, corr):
        held = {name: max(a.size for a in arrays(value)) for name, value in vars(obj).items()
                if arrays(value)}
        assert max(held.values()) < x.r ** 4, held


def test_corner_isomorphisms_take_the_range_rows_a_chunk_at_a_time(monkeypatch):
    inter = amplified_interaction(identity_interaction(Algebra((2,))), 2)
    rep = build_covrep(inter, tol=TOL)
    rep.ss, rep.s_s                                      # the stacks 2.8 reads, formed once
    # noise in π∘V and π∘H, so that the residuals compared are of order 1
    rng = np.random.default_rng(28)
    for name in ("pi_v", "pi_h"):
        pis = getattr(rep, name)
        vars(rep)[name] = pis + 0.1 * rng.standard_normal(pis.shape)
    rows = max(len(inter.range_v.basis), len(inter.range_h.basis))
    stack = rows * rows * rep.n ** 2        # entries of one (d, d, n, n) stack over all row pairs
    assert stack > algebra.CHUNK_ENTRIES
    got, peak = traced_peak(lambda: check_corner_isomorphisms(rep))
    # a whole complex stack takes 4 MiB here, and several were held at once (8.3 MiB)
    assert peak < stack * 16 / 2, peak / 2**20
    # the residuals are maxima, so one chunk of every row gives the same values
    assert min(got.values()) > 0.1, got
    monkeypatch.setattr(algebra, "CHUNK_ENTRIES", stack)
    close(check_corner_isomorphisms(rep), got)


def test_covariant_build_and_extension_stay_near_their_pi_on_identity_m2_x3():
    # the relations are read on the blocks and over the nonzeros; the dense
    # n×n relations and all-pairs products took more than 5 times pi's bytes
    inter = amplified_interaction(identity_interaction(Algebra((2,))), 3)
    x = build_bimodule(inter, TOL)
    rep, peak = traced_peak(lambda: build_covrep(inter, x, TOL))
    assert (rep.r, rep.s) == (36, 36)
    assert peak < 4 * rep.pi.nbytes, peak / rep.pi.nbytes
    ext, peak = traced_peak(lambda: faithful_extension(rep))       # its residuals included
    assert peak < 4 * ext.pi.nbytes, peak / ext.pi.nbytes
