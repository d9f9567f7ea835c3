"""The law checks and tables that are formed a chunk at a time: the unchunked
formulas they replaced are kept here as oracles, every chunked site is run at
chunk boundaries, the build stage computes the slot-adjoint pass and the
rank-one spans once, and the peak memory of each chunked site is bounded."""

from collections import Counter

import numpy as np
import pytest
from conftest import traced_peak

from starint import (
    Algebra,
    Interaction,
    LinMap,
    amplified_interaction,
    build_bimodule,
    check_71,
    check_associativity,
    check_commutation,
    check_ternary_consistency,
    check_ternary_module_laws,
    flip_interaction,
    identity_interaction,
    swap_transfer_interaction,
)
from starint import algebra, bimodule, correspondences, interactions
from starint.algebra import representation_defects, worst_norm
from starint.bimodule import BimoduleX, slot_adjoint_defects
from starint.checklist import build_stage_records
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
    """0.1·N(0,1) noise in the factors of the actions and in every table the
    laws read, so that the residuals compared are of order 1."""
    rng = np.random.default_rng(17)

    def noise(a):
        return a + 0.1 * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))

    x.F1, x.G1 = noise(x.F1), noise(x.G1)
    for table in ("inner_r_t", "inner_l_t", "right_act_t", "left_act_t",
                  "bracket_t", "lam_t", "rho_t"):
        setattr(x, table, noise(getattr(x, table)))
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


# -- the unchunked formulas ----------------------------------------------------------


def old_slot_adjoint_defects(tt, lam_t, rho_t, star):
    mid = (np.einsum("atj,itkc->aijkc", lam_t.conj(), tt)
           - np.einsum("atk,ijtc->aijkc", lam_t[star], tt))
    outer = (np.einsum("atj,itkc->aijkc", rho_t.conj(), tt)
             - np.einsum("ati,tjkc->aijkc", rho_t[star], tt))
    return {"middle_norm": worst_norm(mid), "middle_abs": np.abs(mid).max(initial=0.0),
            "outer_norm": worst_norm(outer), "outer_abs": np.abs(outer).max(initial=0.0)}


def old_associativity(x):
    kh = x.bch.k_basis.reshape(-1, x.bch.m, x.bch.m)
    kv = x.bcv.k_basis.reshape(-1, x.bcv.m, x.bcv.m)
    by_r = np.einsum("twc,jw->tjc", x.right_act_t, x.bch.k_basis)
    by_l = np.einsum("twc,jw->tjc", x.left_act_t, x.bcv.k_basis)
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


def old_ternary_consistency(x):
    p1, p2 = x.F1[:, :, x.sigma, :], x.G1[x.sigma]     # the σ-permuted copies
    reps = x.rep_mats
    u1 = np.einsum("nuv,uvyr->nyr", reps, p1, optimize=True)
    u2 = np.einsum("nzw,xzws->nxs", reps, p2, optimize=True)
    out = np.einsum("jxy,iyr,kxs->ijkrs", reps.conj(), u1, u2, optimize=True)
    elementary = out.reshape(x.r, x.r, x.r, x.amb) @ x.qx.T
    return {"ternary_two_routes": worst_norm(elementary - x.bracket_t)}


def old_tables(x):
    units_r = x.bch.spanning_pinv.T.reshape(-1, x.dim, x.dim)
    units_l = x.bcv.spanning_pinv.T.reshape(-1, x.dim, x.dim)
    # [n, a]: the coefficients of a_a·rep_n and of rep_n·a_a
    lefts = x.algebra.left_mult_tensor[None] @ x.rep_mats[:, None]
    rights = x.rep_mats[:, None] @ x.algebra.right_mult_tensor[None].swapaxes(-1, -2)
    reps = x.rep_mats[:, None]
    return {
        "right_act_t": np.einsum("...ij,...pq,ijpk->...kq", reps, units_r, x.F1,
                                 optimize=True).reshape(x.r, -1, x.amb) @ x.qx.T,
        "left_act_t": np.einsum("...pq,...ij,qijl->...pl", units_l, reps, x.G1,
                                optimize=True).reshape(x.r, -1, x.amb) @ x.qx.T,
        "lam_t": (lefts.reshape(x.r, x.dim, x.amb) @ x.qx.T).transpose(1, 2, 0),
        "rho_t": (rights.reshape(x.r, x.dim, x.amb) @ x.qx.T).transpose(1, 2, 0),
    }


def test_slot_adjoint_pass_matches_the_full_tensors(module):
    x = module
    close(slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t, x.sigma),
          old_slot_adjoint_defects(x.bracket_t, x.lam_t, x.rho_t, x.sigma))


def test_associativity_matches_the_full_tensors(module):
    close(check_associativity(module), old_associativity(module))


def test_ternary_consistency_matches_the_permuted_copies(module):
    close(check_ternary_consistency(module), old_ternary_consistency(module))


def test_tables_match_the_full_coefficient_stacks(module):
    for name, want in old_tables(module).items():
        close(getattr(BimoduleX, name).func(module), want)


# -- every chunked site, at chunk boundaries -------------------------------------------


def _sites():
    def product_defects(x):
        v = x.inter.v
        eye = np.eye(x.dim, dtype=complex)
        return interactions._product_defects(v, eye, eye, v.matrix.T)

    def corr(x):
        return GenCorrespondence(coeff=x.algebra, tt=x.bracket_t, lam_t=x.lam_t,
                                 rho_t=x.rho_t, mode="abstract", tol=TOL, x=x)

    return {
        "representation_defects": lambda x: representation_defects(x.algebra, x.lam_t),
        "worst_commutator": lambda x: check_commutation(corr(x)),
        "product_defects": product_defects,
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

    for mod in (algebra, bimodule, correspondences, interactions):
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
    peaks = {name: traced_peak(lambda name=name: getattr(x, name))[1]
             for name in ("right_act_t", "left_act_t")}
    for table in ("inner_r_t", "inner_l_t", "bracket_t", "lam_t", "rho_t"):
        getattr(x, table)
    peaks["5.11"] = traced_peak(lambda: check_associativity(x))[1]
    peaks["5.14"] = traced_peak(lambda: check_ternary_consistency(x))[1]
    peaks["5.17"] = traced_peak(lambda: check_ternary_module_laws(x))[1]
    # a correspondence given no slot defects computes the pass from its tables
    peaks["7.1"] = traced_peak(lambda: check_71(GenCorrespondence(
        coeff=x.algebra, tt=x.bracket_t, lam_t=x.lam_t, rho_t=x.rho_t,
        mode="abstract", tol=TOL, x=x)))[1]
    assert max(peaks.values()) < 12 * 2**20, {k: v / 2**20 for k, v in peaks.items()}
