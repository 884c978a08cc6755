import numpy as np
import pytest

from gpmr import (
    LinearOperator,
    block_arnoldi_init,
    block_arnoldi_step,
    block_gmres_solve,
    gmres_solve,
    gpmr_solve,
    hessenberg_init,
    hessenberg_step,
)
from conftest import dense_full_matrix, dense_operator, random_block_system


def starting_block(system):
    m, n = system.m, system.n
    D = np.zeros((m + n, 2))
    D[:m, 0] = system.b
    D[m:, 1] = system.c
    return D


# ---------------------------------------------------------------------------
# GMRES
# ---------------------------------------------------------------------------

def test_gmres_identity_converges_immediately():
    d = np.array([3.0, -1.0, 2.0])
    report = gmres_solve(LinearOperator.identity(3), d, 1e-12, 1e-10, 5)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.x, d, rtol=0, atol=1e-14)


def test_gmres_matches_dense_direct_solve():
    rng = np.random.default_rng(151)
    K = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
    d = rng.standard_normal(30)
    report = gmres_solve(dense_operator(K), d, 1e-12, 1e-10, 30)
    assert report.converged
    direct = np.linalg.solve(K, d)
    assert np.linalg.norm(report.x - direct) <= 1e-8 * np.linalg.norm(direct)


def test_gmres_history_nonincreasing_and_estimate_sharp():
    rng = np.random.default_rng(157)
    K = rng.standard_normal((25, 25)) + 5.0 * np.eye(25)
    d = rng.standard_normal(25)
    atol, rtol = 1e-12, 1e-10
    report = gmres_solve(dense_operator(K), d, atol, rtol, 25)
    hist = report.residual_history
    for prev, cur in zip(hist, hist[1:]):
        assert cur <= prev * (1.0 + 1e-14)
    true_res = np.linalg.norm(d - K @ report.x)
    assert true_res <= 10.0 * max(hist[-1], atol + rtol * np.linalg.norm(d))


def test_gmres_rejects_zero_rhs():
    with pytest.raises(ValueError):
        gmres_solve(LinearOperator.identity(2), np.zeros(2), 1e-12, 1e-10, 2)


def test_gmres_budget_exhaustion():
    rng = np.random.default_rng(163)
    K = rng.standard_normal((20, 20)) + 6.0 * np.eye(20)
    d = rng.standard_normal(20)
    report = gmres_solve(dense_operator(K), d, 1e-14, 1e-14, 3)
    assert report.status == "max_iterations"
    assert report.iterations == 3


def test_gmres_split_places_blocks():
    rng = np.random.default_rng(167)
    system, A, B = random_block_system(rng, 7, 5)
    K = system.full_operator()
    report = gmres_solve(K, system.rhs_full(), 1e-12, 1e-10, 12, split=(7, 5))
    assert report.x.shape == (7,) and report.y.shape == (5,)


def test_gmres_arnoldi_state_invariants():
    rng = np.random.default_rng(169)
    K = 0.5 * rng.standard_normal((22, 22)) + 5.0 * np.eye(22)
    d = rng.standard_normal(22)
    # stop short of full dimension so the trailing basis column exists
    report = gmres_solve(dense_operator(K), d, 1e-12, 1e-6, 22, reorth=True)
    state = report.diagnostics["arnoldi"]
    k = state.k
    assert 0 < k < 22
    V = state.basis[:, : k + 1]
    assert np.linalg.norm(V.T @ V - np.eye(k + 1)) <= 1e-10
    recurrence = K @ V[:, :k] - V @ state.H[: k + 1, :k]
    assert np.linalg.norm(recurrence) <= 1e-12 * np.linalg.norm(K)
    assert state.beta0 == np.linalg.norm(d)


def test_gmres_basis_columns_are_contiguous():
    rng = np.random.default_rng(171)
    K = 0.5 * rng.standard_normal((22, 22)) + 5.0 * np.eye(22)
    report = gmres_solve(dense_operator(K), rng.standard_normal(22), 1e-12, 1e-6, 22)
    state = report.diagnostics["arnoldi"]
    assert state.basis.shape == (22, 23)
    for j in range(state.k + 1):
        assert state.basis[:, j].flags.c_contiguous


def test_gmres_cgs2_history_matches_mgs_history():
    rng = np.random.default_rng(173)
    system, A, B = random_block_system(rng, 60, 48)
    K = dense_operator(dense_full_matrix(system, A, B))
    d = system.rhs_full()
    mgs = gmres_solve(K, d, 1e-12, 1e-10, 108)
    cgs2 = gmres_solve(K, d, 1e-12, 1e-10, 108, reorth=True)
    assert mgs.converged and cgs2.converged
    assert mgs.iterations == cgs2.iterations < 108
    gap = np.abs(cgs2.residual_history - mgs.residual_history)
    assert np.max(gap) <= 1e-10 * np.linalg.norm(d)


# ---------------------------------------------------------------------------
# block-Arnoldi
# ---------------------------------------------------------------------------

def test_block_arnoldi_init_disjoint_columns():
    b = np.array([1.0, 0.0, 0.0, 0.0])
    c = np.array([0.0, 0.0, 2.0, 1.0])
    D = np.zeros((4, 2))
    D[:2, 0] = b[:2]
    D[2:, 1] = c[2:]
    state = block_arnoldi_init(D, 3)
    norm_b = np.linalg.norm(D[:, 0])
    norm_c = np.linalg.norm(D[:, 1])
    assert state.Gamma[0, 0] == pytest.approx(norm_b, rel=1e-15)
    assert state.Gamma[1, 1] == pytest.approx(norm_c, rel=1e-15)
    assert abs(state.Gamma[0, 1]) <= 1e-15
    # each starting column keeps the support of its block
    w1 = state.W[0]
    assert np.max(np.abs(w1[2:, 0])) <= 1e-15
    assert np.max(np.abs(w1[:2, 1])) <= 1e-15


def test_block_arnoldi_recurrence_and_pair_orthogonality():
    rng = np.random.default_rng(173)
    system, A, B = random_block_system(rng, 11, 9)
    K = dense_full_matrix(system, A, B)
    state = block_arnoldi_init(starting_block(system), 6)
    for _ in range(6):
        block_arnoldi_step(state, dense_operator(K))
    k = state.k
    W = np.hstack(state.W[:k])
    W_next = np.hstack(state.W[: k + 1])
    S = state.S[: 2 * k + 2, : 2 * k]
    assert np.linalg.norm(K @ W - W_next @ S) <= 1e-12 * np.linalg.norm(K)
    for w in state.W[: k + 1]:
        assert np.linalg.norm(w.T @ w - np.eye(2)) <= 1e-12


def test_block_arnoldi_matches_reduction_pair():
    rng = np.random.default_rng(179)
    system, A, B = random_block_system(rng, 13, 10)
    m, n = system.m, system.n
    K = dense_full_matrix(system, A, B)
    k = 6

    hess = hessenberg_init(dense_operator(A), dense_operator(B),
                           system.b, system.c, capacity=k)
    for _ in range(k):
        hessenberg_step(hess)

    state = block_arnoldi_init(starting_block(system), k)
    for _ in range(k):
        block_arnoldi_step(state, dense_operator(K))

    for j in range(k):
        assembled = np.zeros((m + n, 2))
        assembled[:m, 0] = hess.V[:, j]
        assembled[m:, 1] = hess.U[:, j]
        got = state.W[j]
        for col in range(2):
            delta = min(np.linalg.norm(got[:, col] - assembled[:, col]),
                        np.linalg.norm(got[:, col] + assembled[:, col]))
            assert delta <= 1e-10

    # diagonal blocks carry (lam, mu) plus the reduction coefficients
    for j in range(k):
        block = state.S[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        assert block[0, 0] == pytest.approx(system.lam, abs=1e-12)
        assert block[1, 1] == pytest.approx(system.mu, abs=1e-12)
        assert block[0, 1] == pytest.approx(hess.Hcols[j][j], abs=1e-10)
        assert block[1, 0] == pytest.approx(hess.Fcols[j][j], abs=1e-10)


def test_block_arnoldi_sparsity_and_zero_diagonals():
    rng = np.random.default_rng(181)
    system, A, B = random_block_system(rng, 12, 12)
    m = system.m
    K = dense_full_matrix(system, A, B)
    k = 6
    state = block_arnoldi_init(starting_block(system), k)
    for _ in range(k):
        block_arnoldi_step(state, dense_operator(K))
    for w in state.W[:k + 1]:
        assert np.max(np.abs(w[m:, 0])) <= 1e-13
        assert np.max(np.abs(w[:m, 1])) <= 1e-13
    for j in range(k):
        for i in range(j):
            off = state.S[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert abs(off[0, 0]) <= 1e-13
            assert abs(off[1, 1]) <= 1e-13


# ---------------------------------------------------------------------------
# Block-GMRES
# ---------------------------------------------------------------------------

def test_block_gmres_identity_converges_immediately():
    D = np.zeros((4, 2))
    D[0, 0] = 2.0
    D[3, 1] = -1.0
    rep_b, rep_c = block_gmres_solve(LinearOperator.identity(4), D,
                                     1e-12, 1e-10, 4)
    assert rep_b.converged and rep_c.converged
    assert rep_b.iterations == 1


def test_block_gmres_summed_matches_gpmr():
    rng = np.random.default_rng(191)
    system, A, B = random_block_system(rng, 16, 14)
    K = dense_full_matrix(system, A, B)
    atol, rtol = 1e-12, 1e-10
    rep_g = gpmr_solve(system, atol, rtol, k_max=30, track_iterates=True)
    rep_b, rep_c = block_gmres_solve(dense_operator(K), starting_block(system),
                                     atol, rtol, 30, split=(16, 14),
                                     track_iterates=True)
    shared = min(rep_g.iterations, rep_b.iterations, 10)
    for k in range(shared):
        gx, gy = rep_g.diagnostics["iterates"][k]
        gpmr_vec = np.concatenate([gx, gy])
        summed = rep_b.diagnostics["iterates"][k] + rep_c.diagnostics["iterates"][k]
        norm = max(np.linalg.norm(gpmr_vec), 1e-30)
        assert np.linalg.norm(summed - gpmr_vec) <= 1e-6 * norm


def test_block_gmres_terminal_residuals():
    rng = np.random.default_rng(193)
    system, A, B = random_block_system(rng, 20, 20)
    K = dense_full_matrix(system, A, B)
    atol, rtol = 1e-12, 1e-10
    rep_b, rep_c = block_gmres_solve(dense_operator(K), starting_block(system),
                                     atol, rtol, 40, split=(20, 20))
    assert rep_b.converged and rep_c.converged
    threshold = atol + rtol * np.linalg.norm(system.rhs_full())
    res_b = np.linalg.norm(np.concatenate([system.b, np.zeros(20)])
                           - K @ np.concatenate([rep_b.x, rep_b.y]))
    res_c = np.linalg.norm(np.concatenate([np.zeros(20), system.c])
                           - K @ np.concatenate([rep_c.x, rep_c.y]))
    assert res_b <= 10.0 * threshold
    assert res_c <= 10.0 * threshold
    # summed history drives the stopping rule
    summed = rep_b.diagnostics["summed_history"]
    assert summed[-1] <= threshold


def test_block_gmres_rejects_zero_column():
    D = np.zeros((4, 2))
    D[0, 0] = 1.0
    with pytest.raises(ValueError):
        block_gmres_solve(LinearOperator.identity(4), D, 1e-12, 1e-10, 4)


def test_block_gmres_survives_full_dimension():
    # an unreachable tolerance drives the process to the dimension cap,
    # exercising the rank-deficient remainder handling
    rng = np.random.default_rng(197)
    system, A, B = random_block_system(rng, 5, 4, coupling=0.8)
    K = dense_full_matrix(system, A, B)
    rep_b, rep_c = block_gmres_solve(dense_operator(K), starting_block(system),
                                     1e-300, 1e-300, 9, split=(5, 4))
    sol = np.concatenate([rep_b.x + rep_c.x, rep_b.y + rep_c.y])
    direct = np.linalg.solve(K, system.rhs_full())
    assert np.linalg.norm(sol - direct) <= 1e-8 * np.linalg.norm(direct)
    assert np.isfinite(rep_b.residual_history).all()
    assert np.isfinite(rep_c.residual_history).all()
