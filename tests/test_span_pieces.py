"""The basic construction's span by matrix-unit pieces: against the dense
oracle on generated pairs, one named perturbation for each check the
pieces feed, and the memory the pieces save; and the block-form helper
under them: its cut against dense decompositions of generated forms, and
the three refusals of a quotient cut."""

import importlib.util
import os

import dense
import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from starint import (
    BasicConstruction,
    Interaction,
    amplified_interaction,
    basic_for_h,
    basic_for_v,
    build_bimodule,
    flip_interaction,
    identity_interaction,
)
from starint.algebra import (GAP_FACTOR, Algebra, BlockForm, NumericalDegeneracy,
                             orthonormal_rows)
from starint.basic_construction import eigen_quotient
from starint.bimodule import BimoduleX, check_action_bound, check_fullness
from starint.cli import EXIT_PASS, _resolve, main
from starint.specio import read_spec, spec_arrays

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "problems", os.path.join(ROOT, "perfbench", "problems.py"))
problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(problems)

TOL = 1e-9

# (family, size, amplification) of the generated pairs whose whole checklist
# runs in well under a second; the diagonal family at x2 (r = 32 at size 2)
# takes several seconds and is left out
CASES = [("classical", n, amp) for n in (2, 3, 4) for amp in (1, 2)] + [
    ("adu", 2, 1), ("adu", 2, 2), ("adu", 3, 1), ("diag", 2, 1), ("diag", 3, 1)]


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("problems")


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 16))
def test_span_pieces_match_the_dense_oracle_on_generated_pairs(problem_dir, case, seed):
    family, size, amp = case
    path = problems.generate(family, size, seed, 0, str(problem_dir))
    v, h, _, _, _ = _resolve(spec_arrays(read_spec(path)), TOL, amp)
    inter = Interaction.build(v, h, TOL)
    rng = np.random.default_rng(seed)
    for bc in (basic_for_h(inter), basic_for_v(inter)):
        span, kb = dense.spanning_matrix(bc), dense.spanning_svd(bc)[2]
        assert bc.k_basis.shape == kb.shape
        assert np.abs(bc.k_basis.T @ bc.k_basis.conj() - kb.T @ kb.conj()).max() < 1e-12
        # each k-basis element is reproduced by its presentation
        ks = bc.k_basis.reshape(-1, bc.m, bc.m)
        coeffs, resid = dense.presentation(bc, ks), bc.express_in_k(ks)[1]
        assert resid.max() < 1e-12
        got = coeffs.reshape(len(coeffs), -1) @ span.T
        assert np.abs(got - bc.k_basis).max() < 1e-12
        # presentations and null parts against the dense Moore-Penrose oracle,
        # on matrices inside K and on matrices with a part outside it
        dim, pinv = bc.algebra.dim, dense.spanning_pinv(bc).T      # (m², dim²)
        inside = complex_normal(rng, 3, len(kb)) @ bc.k_basis
        mats = np.concatenate([inside, complex_normal(rng, 3, bc.m ** 2)])
        coeffs = dense.presentation(bc, mats.reshape(-1, bc.m, bc.m))
        resid = bc.express_in_k(mats.reshape(-1, bc.m, bc.m))[1]
        want = mats @ pinv
        assert np.abs(coeffs.reshape(len(mats), -1) - want).max() < 1e-10
        outside = np.linalg.norm(mats - want @ span.T, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(mats, axis=-1))
        assert np.abs(resid - outside / scale).max() < 1e-12
        assert resid[:3].max() < 1e-12
        assert len(kb) == bc.m ** 2 or resid[3:].min() > 1e-3    # K is all of M_m, or not
        pairs = np.concatenate([want, complex_normal(rng, 3, dim * dim)])
        null = bc.null_part(pairs.reshape(-1, dim, dim)).reshape(len(pairs), -1)
        assert np.abs(null - (pairs - pairs @ span.T @ pinv)).max() < 1e-10
        assert np.abs(null[:3]).max() < 1e-10 and np.abs(null @ span.T).max() < 1e-10
    out = str(problem_dir / f"{family}{size}_x{amp}.json")
    assert main(["fuzz", path, "--amplify", str(amp), "--out", out]) == EXIT_PASS


# -- liveness: each check the pieces feed fails on a named perturbation -------


def test_a_presentation_shifted_off_the_null_space_fails_510(monkeypatch):
    x = build_bimodule(amplified_interaction(flip_interaction(), 2))
    assert check_action_bound(x)["presentation_independent"] <= TOL
    # the whole isotropic draw, not its null part, is added to the presentation
    monkeypatch.setattr(BasicConstruction, "null_part", lambda self, coeffs: coeffs)
    assert check_action_bound(x)["presentation_independent"] > 1e-3


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rebuilt(bc, rows=slice(None)):
    """A new construction with the fields of ``bc`` and the given rows of its span bases."""
    return BasicConstruction(bc.algebra, bc.expectation, bc.range_sub, bc.tol, bc.m, bc.q,
                             bc.lift, bc.lam_at, bc.e, bc.k_basis[rows], bc.k_pairs[rows],
                             bc.k_values[rows])


def drop_one_kept_row(bc):
    """``bc`` with the first row of its span bases cut: one copy of the first
    kept singular vector of its first piece."""
    return rebuilt(bc, slice(1, None))


def add_one_row_outside(bc):
    """``bc`` with one more orthonormal row of its k-basis, outside its span."""
    bent = rebuilt(bc)
    w = np.random.default_rng(5).standard_normal(bc.m * bc.m) * (1 + 1j)
    w -= (w @ bc.k_basis.conj().T) @ bc.k_basis
    vars(bent)["k_basis"] = np.concatenate([bc.k_basis, w[None] / np.linalg.norm(w)])
    return bent


def test_a_span_piece_with_one_kept_row_dropped_fails_515():
    # the inner products then leave the span (span ⊆ K fails), while they
    # still span all of the smaller basis, so the dimension gap reads 0
    inter = identity_interaction(Algebra((2, 1)))
    bch, bcv = basic_for_h(inter), basic_for_v(inter)
    whole = check_fullness(BimoduleX(inter, bch, bcv, TOL))
    assert max(whole.values()) <= TOL
    for side, sides in (("right", (drop_one_kept_row(bch), bcv)),
                        ("left", (bch, drop_one_kept_row(bcv)))):
        got = check_fullness(BimoduleX(inter, *sides, TOL))
        assert got[f"{side}_span_inside"] > 1e-3
        assert got[f"{side}_span_dim_gap"] == 0.0


def test_a_k_basis_with_one_row_outside_the_inner_products_fails_515():
    # K ⊆ span fails: the inner products miss one basis direction
    inter = identity_interaction(Algebra((2, 1)))
    bch, bcv = basic_for_h(inter), basic_for_v(inter)
    for side, sides in (("right", (add_one_row_outside(bch), bcv)),
                        ("left", (bch, add_one_row_outside(bcv)))):
        got = check_fullness(BimoduleX(inter, *sides, TOL))
        assert got[f"{side}_span_dim_gap"] == 1.0
        assert got[f"{side}_span_inside"] <= TOL


def test_a_k_basis_not_star_closed_moves_k_star_closed():
    bc = basic_for_h(identity_interaction(Algebra((2,))))
    assert bc.invariants["k_star_closed"] <= TOL
    bent = rebuilt(bc)
    # a random subspace of the same dimension is not closed under adjoints
    rows = np.random.default_rng(3).standard_normal((len(bc.k_basis), bc.m * bc.m))
    vars(bent)["k_basis"] = orthonormal_rows(rows * (1 + 1j))
    assert bent.invariants["k_star_closed"] > 1e-3


# -- memory --------------------------------------------------------------------


def test_basic_constructions_hold_no_spanning_square_array():
    inter = amplified_interaction(flip_interaction(), 4)      # dim 32, m = 16
    dim = inter.algebra.dim

    def build():
        bch, bcv = basic_for_h(inter), basic_for_v(inter)
        for bc in (bch, bcv):
            dense.presentation(bc, bc.k_basis[:4].reshape(-1, bc.m, bc.m))
        return bch, bcv

    (bch, bcv), peak = traced_peak(build)
    x = BimoduleX(inter, bch, bcv, TOL)
    _, peak_tables = traced_peak(lambda: (x.right_act_t, x.left_act_t))
    square = 16 ** 2 * dim ** 2          # entries of one dense (m², dim²) spanning matrix
    assert bch.m == bcv.m == 16
    assert max(peak, peak_tables) < 16 * square, max(peak, peak_tables) / (16 * square)

    def entries(value):
        if isinstance(value, np.ndarray):
            return value.size
        return sum(map(entries, value)) if isinstance(value, tuple) else 0

    for bc in (bch, bcv):
        big = [k for k, v in vars(bc).items() if entries(v) >= square]
        assert not big, big


# -- the block-form helper -----------------------------------------------------

# (rows, columns, copies, highest rank, pieces) of each stack; square pieces for eigh
STACK = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 4),
                  st.integers(1, 3))


def generated_form(rng, stacks, square):
    """A block form of stacks of the given piece shapes, copy counts, ranks
    and stack sizes, each piece of a stack of rank at most the given one, its
    copies at a random permutation of the coordinates; nonzero values lie in
    [0.1, 10], so the cut at TOL keeps exactly them.  Also the piece ranks."""
    found, ranks = [], []
    n = sum(cols * copies * size for _, cols, copies, _, size in stacks)
    coords = iter(rng.permutation(n))
    for rows, cols, copies, rank, size in stacks:
        rows = cols if square else rows
        gs = []
        for _ in range(size):
            u, v = (np.linalg.qr(rng.standard_normal((k, k))
                                 + 1j * rng.standard_normal((k, k)))[0] for k in (rows, cols))
            vals = np.zeros(min(rows, cols))
            ranks.append((int(rng.integers(0, min(rank, rows, cols) + 1)), copies))
            vals[:ranks[-1][0]] = rng.uniform(0.1, 10.0, ranks[-1][0])
            gs.append((v if square else u[:, :len(vals)]) * vals @ v[:, :len(vals)].conj().T)
        index = np.array([[[next(coords) for _ in range(cols)] for _ in range(copies)]
                          for _ in range(size)])
        found.append((np.stack(gs), index))
    return BlockForm(found), n, ranks


def projector(rows):
    return rows.T @ rows.conj()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stacks=st.lists(STACK, min_size=1, max_size=4), square=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_the_block_form_cut_matches_a_dense_decomposition(stacks, square, seed):
    form, n, ranks = generated_form(np.random.default_rng(seed), stacks, square)
    if square:     # a hermitian form: eigh of the pieces against eigh of the placed matrix
        vals, vecs = np.linalg.eigh(dense.form_matrix(form, n))
        vals, vecs = vals[::-1], vecs[:, ::-1].T
        spectra = form.spectra("eigh")
        mine, right = [v for v, _ in spectra], [w for _, w in spectra]
    else:          # singular values and right vectors against an SVD of the placed rows
        _, vals, vecs = np.linalg.svd(dense.form_rows(form, n))
        spectra = form.spectra("svd")
        mine, right = [s for _, s, _ in spectra], [vh.swapaxes(1, 2) for _, _, vh in spectra]
    union, k, keep = form.cut(mine, TOL)
    want = int(np.sum(vals > TOL * max(vals[0], 1e-300)))
    assert k == want == sum(rank * copies for rank, copies in ranks)
    kept = np.sort(np.concatenate([np.repeat(v[c], index.shape[1])
                                   for v, c, (_, index) in zip(mine, keep, form)]))
    assert np.abs(kept - np.sort(vals[:k])).max(initial=0.0) < 1e-12
    assert np.abs(union[:k] - vals[:k]).max(initial=0.0) < 1e-12
    placed = BlockForm((w, index) for w, (_, index) in zip(right, form)).place(keep)
    assert placed.shape == (k, n)
    assert np.abs(projector(placed) - projector(vecs[:k])).max() < 1e-12


MESSAGES = ("vanishes", "not positive", "no gap")


def hand_form(*pieces):
    """A block form of diagonal pieces (values, copies), the copies at
    consecutive coordinates."""
    found, start = [], 0
    for values, copies in pieces:
        width = len(values)
        found.append((np.diag(np.asarray(values, dtype=complex))[None],
                      start + np.arange(copies * width).reshape(1, copies, width)))
        start += copies * width
    return BlockForm(found)


@pytest.mark.parametrize("pieces, message", [
    ((([0.0, 0.0], 2), ([0.0], 3)), "vanishes"),
    ((([1.0, 0.0], 2), ([-0.5], 1)), "not positive"),
    # 2e-9 is kept (above TOL · 1) and 5e-10 is not: a ratio of 4
    ((([1.0, 2e-9], 2), ([5e-10], 3)), "no gap"),
])
def test_each_refusal_of_the_quotient_cut(pieces, message):
    with pytest.raises(NumericalDegeneracy, match=message):
        eigen_quotient(hand_form(*pieces), TOL, MESSAGES)


@pytest.mark.parametrize("ratio, passes", [(GAP_FACTOR * 1.001, True),
                                           (GAP_FACTOR * 0.999, False)])
def test_a_gap_just_above_gap_factor_passes_and_just_below_refuses(ratio, passes):
    low, dropped = 5e-10 * ratio, 5e-10       # kept minimum, dropped maximum
    form = hand_form(([1.0, low], 2), ([dropped, 0.0], 3))
    if not passes:
        with pytest.raises(NumericalDegeneracy, match="no gap"):
            eigen_quotient(form, TOL, MESSAGES)
        return
    quot = eigen_quotient(form, TOL, MESSAGES)
    assert np.allclose(quot.kept, [low, low, 1.0, 1.0], rtol=1e-12, atol=0.0)
    assert quot.q.shape == (4, 10) and len(quot.null.place()) == 6
