"""Dense oracle for the block algebras: an element as its block-diagonal
matrix, with plain matrix arithmetic.  It shares no code with the stacked
primitives of ``starint.algebra``; only the matrix-unit positions of the
canonical basis (``Algebra.unit_positions``) connect the two pictures."""

import numpy as np


def to_dense(alg, xs):
    """The block-diagonal matrix of each element of a (..., dim) stack."""
    xs = np.asarray(xs, dtype=complex)
    rows, cols = alg.unit_positions.T
    out = np.zeros((*xs.shape[:-1], alg.matrix_size, alg.matrix_size), dtype=complex)
    out[..., rows, cols] = xs
    return out


def from_dense(alg, mats):
    """Coordinates of each matrix of a (..., n, n) stack; entries off the
    block diagonal are dropped."""
    rows, cols = alg.unit_positions.T
    return np.asarray(mats)[..., rows, cols]


def mul(alg, x, y):
    return from_dense(alg, to_dense(alg, x) @ to_dense(alg, y))


def left_mult(alg):
    """(dim, dim, dim): [i] is the coordinate matrix of x -> a_i·x, its column k
    the product a_i·a_k."""
    eye = np.eye(alg.dim, dtype=complex)
    return mul(alg, eye[:, None], eye[None]).swapaxes(1, 2)


def right_mult(alg):
    """(dim, dim, dim): [i] is the coordinate matrix of x -> x·a_i, its column k
    the product a_k·a_i."""
    eye = np.eye(alg.dim, dtype=complex)
    return mul(alg, eye[None], eye[:, None]).swapaxes(1, 2)


def action_tables(alg, v, h):
    """The dim⁴ action tables F1[i, j, p] = coords(a_i · V(a_j a_p)) and
    G1[q, i, j] = coords(H(a_q a_i) · a_j), by dense products with the (dim, dim)
    matrices v and h of the maps."""
    eye = np.eye(alg.dim, dtype=complex)
    prods = mul(alg, eye[:, None], eye[None])                  # [i, k] = a_i·a_k
    v_of, h_of = prods @ v.T, prods @ h.T
    return (mul(alg, eye[:, None, None], v_of[None]),
            mul(alg, h_of[:, :, None], eye[None, None]))


def star(alg, x):
    return from_dense(alg, to_dense(alg, x).conj().T)


def norm(alg, x):
    """C*-norm: the largest singular value of the block-diagonal matrix."""
    return float(np.linalg.norm(to_dense(alg, x), 2))


def diagonal_blocks(alg, x):
    """The square blocks on the diagonal of the dense matrix, in order."""
    mat = to_dense(alg, x)
    edges = np.cumsum((0,) + alg.blocks)
    return [mat[a:b, a:b] for a, b in zip(edges[:-1], edges[1:])]


def positivity_defect(alg, x):
    """Largest Hermitian gap of a block, or the most negative eigenvalue of
    the Hermitian part, relative to max(1, norm)."""
    mat = to_dense(alg, x)
    gap = max(float(np.linalg.norm(b - b.conj().T)) for b in diagonal_blocks(alg, x))
    low = -float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
    return max(gap, low) / max(1.0, norm(alg, x))


def psd_root(alg, x):
    """Coordinates of the positive square root of a Hermitian element."""
    vals, vecs = np.linalg.eigh(to_dense(alg, x))
    return from_dense(alg, (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)


def spanning_matrix(bc):
    """(m², dim²): the spanning matrix of a basic construction, columns
    vec(lam(a_i) e lam(a_j)) indexed by the pair (i, j)."""
    dim, m = bc.algebra.dim, bc.m
    return ((bc.lam @ bc.e)[:, None] @ bc.lam).reshape(dim * dim, m * m).T


def spanning_svd(bc):
    """The factors of one full SVD of the spanning matrix's transpose that
    a cut at ``bc.tol`` times the largest singular value keeps."""
    u, s, vh = np.linalg.svd(spanning_matrix(bc).T, full_matrices=False)
    k = int(np.sum(s > bc.tol * max(s[0], 1e-300)))
    return u[:, :k], s[:k], vh[:k]


def spanning_pinv(bc):
    """(dim², m²): the pseudo-inverse of the spanning matrix from the kept factors."""
    u, s, vh = spanning_svd(bc)
    return (u.conj() / s) @ vh.conj()


def presentation(bc, ks):
    """(..., dim, dim): the least-norm pair presentation of each operator of a
    (..., m, m) stack, composed from its span coordinates and the presentations
    of the span basis: express_in_k(k)[0] @ k_dual."""
    dim = bc.algebra.dim
    return (bc.express_in_k(ks)[0] @ bc.k_dual).reshape(*ks.shape[:-2], dim, dim)


def in_k(bc, ops):
    """(n, k, k): [i, c, b] = <k_c, ops_i·k_b> for an (n, m, m) stack and the
    orthonormal span basis k of bc, by dense products."""
    kb = bc.k_basis.reshape(-1, bc.m, bc.m)
    return np.einsum("cxz,ixy,byz->icb", kb.conj(), ops, kb)


def form_matrix(form, n):
    """(n, n): a block form of stacks of square pieces (gs, index) as one
    dense matrix, each gs[g] at the rows and columns index[g, c] of each copy c."""
    out = np.zeros((n, n), dtype=complex)
    for gs, index in form:
        for g, copies in zip(gs, index):
            for copy in copies:
                out[np.ix_(copy, copy)] = g
    return out


def form_rows(form, n):
    """(rows, n): a block form of stacks of pieces (gs, index) as one dense
    matrix whose rows are those of each gs[g] on each copy c in turn, at the
    columns index[g, c]."""
    out = []
    for gs, index in form:
        for g, copies in zip(gs, index):
            for copy in copies:
                rows = np.zeros((len(g), n), dtype=complex)
                rows[:, copy] = g
                out.append(rows)
    return np.concatenate(out)


# -- the laws of the module's tables, by dense einsums over whole tables ------------


def worst_norm(diff, axis=-1):
    return float(np.linalg.norm(diff, axis=axis).max(initial=0.0))


def slot_adjoint_defects(tt, lam_t, rho_t, star):
    """5.17's two slot laws over a dense bracket tt[i, j, k, c]: the largest
    2-norm over c and the largest entry of each side's difference."""
    mid = (np.einsum("atj,itkc->aijkc", lam_t.conj(), tt)
           - np.einsum("atk,ijtc->aijkc", lam_t[star], tt))
    outer = (np.einsum("atj,itkc->aijkc", rho_t.conj(), tt)
             - np.einsum("ati,tjkc->aijkc", rho_t[star], tt))
    return {"middle_norm": worst_norm(mid), "middle_abs": np.abs(mid).max(initial=0.0),
            "outer_norm": worst_norm(outer), "outer_abs": np.abs(outer).max(initial=0.0)}


def compatibility(inner_l_t, left_act_t, tt):
    """5.13: the left action of the left inner products against the bracket."""
    return worst_norm(np.einsum("stw,uwd->stud", inner_l_t, left_act_t) - tt)


def theta_grids(tt):
    """The left [i, j][c, k] = tt[i, j, k, c] and right [j, l][c, k] = tt[k, j, l, c]
    rank-one operators of a dense bracket."""
    return tt.transpose(0, 1, 3, 2), tt.transpose(1, 2, 3, 0)


def span_projectors(tt, tol):
    """The orthogonal projector onto the span of each side's rank-one
    operators, by one SVD of the whole (n², n²) grid cut at ``tol``."""
    n, out = len(tt), []
    for grid in theta_grids(tt):
        _, s, vh = np.linalg.svd(grid.reshape(n * n, n * n))
        kept = vh[:int(np.sum(s > tol * max(s[0], 1e-300)))]
        out.append(kept.conj().T @ kept)
    return out


def commutator(xs, ys):
    """Largest entry of |x·y - y·x| over the matrices of two stacks."""
    return float(np.abs(xs[:, None] @ ys - ys @ xs[:, None]).max(initial=0.0))


def theta_adjoints(tt):
    """7.3: each rank-one grid's adjoint against the grid with its vectors swapped."""
    return [worst_norm(g.conj().swapaxes(-1, -2) - g.swapaxes(0, 1), axis=(-2, -1))
            for g in theta_grids(tt)]
