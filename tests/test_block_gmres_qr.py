"""Block-GMRES on its incremental block QR against the arithmetic it replaced.

The reference is ``np.linalg.lstsq`` on the whole block-Hessenberg
matrix ``S[:2k+2, :2k]`` at every iteration, which is what
``block_gmres_solve`` ran before it updated a QR factorization column
pair by column pair. ``reference_block_arnoldi`` is block-Arnoldi's
pairwise modified Gram-Schmidt on pairs held in a Python list, with the
same two ``dgemm`` calls per stored pair, each pair normalized by
``np.linalg.qr`` on a copy; the preallocated storage, factored in place by
LAPACK, must agree with it bit for bit. ``interleaved_block_arnoldi`` is
the same process on C-ordered (dim, 2) pairs with numpy products, as it
ran before each pair became two contiguous rows; the two agree to
rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dgemm

import gpmr.baselines as baselines
from gpmr import (
    block_arnoldi_init,
    block_arnoldi_step,
    block_gmres_solve,
    gpmr_solve,
)
from conftest import (
    dense_full_matrix,
    dense_operator,
    pad_columns,
    random_block_system,
    starting_block,
)

EPS = np.finfo(np.float64).eps


def full_dimension_case(rng):
    m = int(rng.integers(3, 30))
    n = int(rng.integers(3, 30))
    coupling = float(rng.uniform(0.3, 1.2))
    system, A, B = random_block_system(rng, m, n, coupling=coupling)
    return system, dense_full_matrix(system, A, B)


def test_block_gmres_histories_never_rise():
    # unreachable tolerances drive each solve to the dimension cap, where
    # the block-Hessenberg matrix turns rank-deficient
    rng = np.random.default_rng(611)
    for _ in range(200):
        system, K = full_dimension_case(rng)
        D = starting_block(system)
        dim = system.order
        rep_b, rep_c = block_gmres_solve(dense_operator(K), D, 1e-300, 1e-300,
                                         dim, split=(system.m, system.n))
        bound = 4.0 * EPS * np.linalg.norm(D)
        for hist in (rep_b.residual_history, rep_c.residual_history,
                     rep_b.diagnostics["summed_history"]):
            assert np.all(np.diff(hist) <= bound)


def reference_solve(S, gamma, k):
    """lstsq on S[:2k+2, :2k]: the minimizer Z and its residual columns."""
    Sk = S[: 2 * k + 2, : 2 * k]
    rhs = np.zeros((2 * k + 2, 2))
    rhs[0, 0] = gamma[0, 0]
    rhs[1, 1] = gamma[1, 1]
    Z, *_ = np.linalg.lstsq(Sk, rhs, rcond=None)
    return Z, Sk @ Z - rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 25), st.integers(3, 25),
       st.sampled_from([0.0, -0.6, -3.0, 1.0, 1e3]),
       st.sampled_from([0.0, -0.6, -3.0, 1.0, 1e3]),
       st.floats(0.2, 1.2), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_block_gmres_matches_lstsq_reference(m, n, lam, mu, coupling, k_max, seed):
    # Where S[:2k+2, :2k] has full column rank, the QR-updated histories
    # and the final iterates must be those of lstsq on the whole matrix.
    # A residual read off a backward-stable QR is exact for a matrix
    # perturbed by eps |S|, so it may differ from the explicitly formed
    # one by about eps |S| |Z|; least-squares solutions of two stable
    # solvers differ by eps (kappa + kappa^2 |r| / (|S| |z|)).
    if m == n:
        n += 1
    rng = np.random.default_rng(seed)
    system, A, B = random_block_system(rng, m, n, lam=lam, mu=mu,
                                       coupling=coupling)
    K = dense_full_matrix(system, A, B)
    D = starting_block(system)
    rep_b, rep_c = block_gmres_solve(dense_operator(K), D, 1e-300, 1e-300,
                                     k_max, split=(m, n))
    # the solve's block-Arnoldi process, replayed
    state = block_arnoldi_init(D, min(k_max, m + n))
    for _ in range(rep_b.iterations):
        block_arnoldi_step(state, dense_operator(K))
    S = pad_columns(state.columns, (2 * len(state.W), 2 * len(state.W) - 2))
    hists = (rep_b.residual_history, rep_c.residual_history,
             rep_b.diagnostics["summed_history"])
    norm_d = np.linalg.norm(D)
    full_rank = []
    for k in range(1, rep_b.iterations + 1):
        Sk = S[: 2 * k + 2, : 2 * k]
        full_rank.append(np.linalg.matrix_rank(Sk) == 2 * k)
        if not full_rank[-1]:
            continue
        Z, res = reference_solve(S, state.Gamma, k)
        want = (np.linalg.norm(res[:, 0]), np.linalg.norm(res[:, 1]),
                np.linalg.norm(res[:, 0] + res[:, 1]))
        bound = 1e-13 * (norm_d + np.linalg.norm(Sk, 2) * np.linalg.norm(Z))
        for hist, ref in zip(hists, want):
            assert abs(hist[k] - ref) <= bound

    k = rep_b.iterations
    if k == 0 or not full_rank[-1]:
        return
    Sk = S[: 2 * k + 2, : 2 * k]
    Z, res = reference_solve(S, state.Gamma, k)
    kappa = np.linalg.cond(Sk)
    W = np.hstack(state.W[:k])
    for rep, col in ((rep_b, 0), (rep_c, 1)):
        want = W @ Z[:, col]
        got = np.concatenate([rep.x, rep.y])
        spread = np.linalg.norm(res[:, col]) / (np.linalg.norm(Sk, 2)
                                                * np.linalg.norm(Z[:, col]))
        rtol = 1e-10 + 100 * EPS * (kappa + kappa ** 2 * spread)
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_block_gmres_ends_on_two_packed_back_substitutions(monkeypatch):
    rng = np.random.default_rng(613)
    system, A, B = random_block_system(rng, 40, 30, coupling=1.0)
    K = dense_full_matrix(system, A, B)
    calls = []
    solve = baselines.backward_substitution

    def counted(columns, tbar):
        calls.append(len(columns))
        return solve(columns, tbar)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(baselines, "backward_substitution", counted)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    rep_b, _ = block_gmres_solve(dense_operator(K), starting_block(system),
                                 1e-12, 1e-10, 70, split=(40, 30))
    assert rep_b.converged and rep_b.iterations > 5
    k = rep_b.iterations
    assert calls == [2 * k, 2 * k]


def numpy_qr_two_columns(block, rank_tol=0.0):
    """Reduced QR with nonnegative diagonal by ``np.linalg.qr``; diagonal
    entries at or below ``rank_tol`` zero their basis column and row;
    after a zeroed first column the second input column is normalized
    alone."""
    Q, R = np.linalg.qr(block)
    for j in range(2):
        if R[j, j] < 0:
            R[j, :] = -R[j, :]
            Q[:, j] = -Q[:, j]
    if rank_tol > 0.0:
        if R[0, 0] <= rank_tol:
            second = Q[:, 0] * R[0, 1] + Q[:, 1] * R[1, 1]
            norm = np.linalg.norm(second)
            R = np.array([[0.0, 0.0], [0.0, norm]])
            Q = np.column_stack([np.zeros(len(second)), second / norm])
        if R[1, 1] <= rank_tol:
            R[1, 1] = 0.0
            Q[:, 1] = 0.0
    return Q, R


def numpy_normalize_remainder(G, rank_tol):
    """G = Q Psi, the QR on G's reversed columns, Psi anti-triangular."""
    Q, R_rev = numpy_qr_two_columns(G[:, ::-1], rank_tol=rank_tol)
    Psi = np.array([[R_rev[0, 1], R_rev[0, 0]],
                    [R_rev[1, 1], 0.0]])
    return Q, Psi


def same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60),
       st.sampled_from(["generic", "dependent", "zero", "noise first", "zero first"]),
       st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_in_place_qr_matches_numpy_bit_for_bit(dim, kind, sign0, sign1,
                                               deflate, seed):
    # the signs of the leading entries set the signs of LAPACK's diagonal;
    # a dependent or zero column, with a rank tolerance, takes the zeroing
    # path
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((dim, 2)) * 10.0 ** rng.integers(-8, 8)
    if kind == "dependent":
        block[:, 1] = 3.0 * block[:, 0] + 1e-17 * block[:, 1]
    elif kind == "zero":
        block[:, 1] = 0.0
    elif kind == "noise first":
        block[:, 0] *= 1e-17
    elif kind == "zero first":
        block[:, 0] = 0.0
    block[0, 0] = sign0 * abs(block[0, 0])
    block[0, 1] = sign1 * abs(block[0, 1])
    rank_tol = baselines.BREAKDOWN_RTOL * np.linalg.norm(block) if deflate else 0.0
    want_Q, want_R = numpy_qr_two_columns(block, rank_tol)
    # in a pair slot of the storage block-Arnoldi keeps
    storage = np.full((3, 2, dim), np.nan).transpose(0, 2, 1)
    storage[1] = block
    R = baselines._qr_in_place(storage[1], rank_tol)
    assert same_bits(storage[1], want_Q)
    assert same_bits(R, want_R)
    assert np.isnan(storage[[0, 2]]).all()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["generic", "remainder", "zero rows"]),
       st.integers(0, 2**32 - 1))
def test_step_factor_matches_numpy_bit_for_bit(kind, seed):
    # Block-GMRES's stacks: a triangle's diagonal pair over the
    # anti-triangular Psi of the next pair, or a breakdown's zeros
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((4, 2))
    if kind == "remainder":
        stack[3, 1] = 0.0
    elif kind == "zero rows":
        stack[2:] = 0.0
    want_Q, want_R = np.linalg.qr(stack, mode="complete")
    Qt, R = baselines._step_factor(stack)
    assert Qt.flags.c_contiguous
    assert same_bits(Qt, want_Q.T)
    assert same_bits(R, want_R)


def test_block_gmres_calls_no_numpy_qr(monkeypatch):
    rng = np.random.default_rng(613)
    system, A, B = random_block_system(rng, 40, 30, coupling=1.0)
    K = dense_full_matrix(system, A, B)
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    rep_b, _ = block_gmres_solve(dense_operator(K), starting_block(system),
                                 1e-300, 1e-300, 30, split=(40, 30))
    assert rep_b.iterations == 30
    assert calls == []


def reference_block_arnoldi(K, D, steps):
    """Pairs in a Python list, each two contiguous rows, and S grown in
    place: pairwise MGS as two dgemm calls per stored pair."""
    Q, _ = numpy_qr_two_columns(np.asarray(D, dtype=np.float64))
    W = [np.asfortranarray(Q)]
    S = np.zeros((2 * (steps + 1), 2 * steps))
    for k in range(steps):
        wk = W[k]
        G = np.empty((2, wk.shape[0])).T
        G[:, 0] = K.apply(wk[:, 0])
        G[:, 1] = K.apply(wk[:, 1])
        scale = float(np.linalg.norm(G))
        for i in range(k + 1):
            Psi = dgemm(1.0, W[i], G, trans_a=1)
            G = dgemm(-1.0, W[i], Psi, beta=1.0, c=G, overwrite_c=1)
            S[2 * i:2 * i + 2, 2 * k:2 * k + 2] = Psi
        Q, Psi_next = numpy_normalize_remainder(
            G, rank_tol=baselines.BREAKDOWN_RTOL * scale)
        W.append(np.asfortranarray(Q))
        S[2 * k + 2:2 * k + 4, 2 * k:2 * k + 2] = Psi_next
    return W, S


def interleaved_block_arnoldi(K, D, steps):
    """Pairs as C-ordered (dim, 2) blocks in a Python list, pairwise MGS
    by numpy products."""
    Q, _ = numpy_qr_two_columns(np.asarray(D, dtype=np.float64))
    W = [Q]
    S = np.zeros((2 * (steps + 1), 2 * steps))
    for k in range(steps):
        wk = W[k]
        G = np.column_stack([K.apply(wk[:, 0]), K.apply(wk[:, 1])])
        scale = float(np.linalg.norm(G))
        for i in range(k + 1):
            Psi = W[i].T @ G
            G -= W[i] @ Psi
            S[2 * i:2 * i + 2, 2 * k:2 * k + 2] = Psi
        Q, Psi_next = numpy_normalize_remainder(
            G, rank_tol=baselines.BREAKDOWN_RTOL * scale)
        W.append(Q)
        S[2 * k + 2:2 * k + 4, 2 * k:2 * k + 2] = Psi_next
    return W, S


def test_block_arnoldi_storage_keeps_arithmetic():
    rng = np.random.default_rng(617)
    system, A, B = random_block_system(rng, 60, 45, coupling=1.1)
    K = dense_operator(dense_full_matrix(system, A, B))
    D = starting_block(system)
    steps = 30
    state = block_arnoldi_init(D, steps)
    for _ in range(steps):
        block_arnoldi_step(state, K)
    W_ref, S_ref = reference_block_arnoldi(K, D, steps)
    S = pad_columns(state.columns, (2 * steps + 2, 2 * steps))
    assert np.array_equal(S, S_ref)
    assert np.array_equal(state.W, np.stack(W_ref))
    assert all(w[:, j].flags.c_contiguous for w in state.W for j in range(2))
    # the row-pair layout changes only the rounding of the old arithmetic;
    # MGS amplifies that difference as the pairs lose orthogonality
    # (about 8e-13 by step 30), to about 1.4e-13 relative here
    W_old, S_old = interleaved_block_arnoldi(K, D, steps)
    W_old = np.stack(W_old)
    assert np.linalg.norm(S - S_old) <= 1e-12 * np.linalg.norm(S_old)
    assert np.linalg.norm(state.W - W_old) <= 1e-12 * np.linalg.norm(W_old)


def test_block_arnoldi_reorth_keeps_pairs_orthonormal():
    rng = np.random.default_rng(631)
    system, A, B = random_block_system(rng, 60, 45, coupling=1.1)
    K = dense_full_matrix(system, A, B)
    steps = 40
    state = block_arnoldi_init(starting_block(system), steps)
    for _ in range(steps):
        block_arnoldi_step(state, dense_operator(K), reorth=True)
    W = np.hstack(state.W[:steps])
    W_next = np.hstack(state.W)
    S = pad_columns(state.columns, (2 * steps + 2, 2 * steps))
    assert np.linalg.norm(W_next.T @ W_next - np.eye(2 * steps + 2)) <= 1e-13
    assert np.linalg.norm(K @ W - W_next @ S) <= 1e-12 * np.linalg.norm(K)


def test_block_iterates_match_the_per_pair_sum():
    rng = np.random.default_rng(637)
    dim, k = 50, 7
    state = block_arnoldi_init(rng.standard_normal((dim, 2)), k)
    state.W[1:] = rng.standard_normal((k, dim, 2))
    R = np.triu(rng.standard_normal((2 * k, 2 * k))) + 4.0 * np.eye(2 * k)
    cols = [R[: 2 * j + 2, 2 * j:2 * j + 2] for j in range(k)]
    g = rng.standard_normal((2 * k + 2, 2))
    got = baselines._block_iterates(state.W, cols, g)
    Z, *_ = np.linalg.lstsq(R, g[: 2 * k], rcond=None)
    want = sum(state.W[i] @ Z[2 * i:2 * i + 2] for i in range(k)).T
    assert got.shape == (2, dim)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_block_gmres_reorth_matches_gpmr_history():
    # criterion 8's cases, with CGS2 on both sides
    rng = np.random.default_rng(808)
    for _ in range(6):
        m = int(rng.integers(12, 31))
        n = int(rng.integers(12, 30))
        system, A, B = random_block_system(rng, m, n)
        K = dense_full_matrix(system, A, B)
        D = starting_block(system)
        rep_g = gpmr_solve(system, 1e-12, 1e-10, k_max=m + n, reorth=True)
        rep_b, _ = block_gmres_solve(dense_operator(K), D, 1e-12, 1e-10,
                                     m + n, reorth=True, split=(m, n))
        assert rep_g.converged and rep_b.converged
        assert rep_b.iterations == rep_g.iterations
        summed = rep_b.diagnostics["summed_history"]
        gap = np.abs(summed - rep_g.residual_history).max()
        assert gap <= 1e-12 * np.linalg.norm(D)


def test_block_arnoldi_storage_exhausted():
    rng = np.random.default_rng(619)
    system, A, B = random_block_system(rng, 6, 5)
    K = dense_operator(dense_full_matrix(system, A, B))
    state = block_arnoldi_init(starting_block(system), 2)
    block_arnoldi_step(state, K)
    block_arnoldi_step(state, K)
    with pytest.raises(ValueError, match="storage exhausted"):
        block_arnoldi_step(state, K)
