import numpy as np
import pytest

from gpmr import (
    block_arnoldi_init,
    block_arnoldi_step,
    block_gmres_solve,
    gmres_solve,
    gpmr_solve,
    hessenberg_init,
    hessenberg_step,
)
from conftest import (
    dense_full_matrix,
    dense_operator,
    gmres_arnoldi,
    identity_operator,
    pad_columns,
    random_block_system,
    record_orthogonalize,
    starting_block,
)


# ---------------------------------------------------------------------------
# GMRES
# ---------------------------------------------------------------------------

def test_gmres_identity_converges_immediately():
    d = np.array([3.0, -1.0, 2.0])
    report = gmres_solve(identity_operator(3), d, 1e-12, 1e-10, 5)
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
        gmres_solve(identity_operator(2), np.zeros(2), 1e-12, 1e-10, 2)


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


def test_gmres_arnoldi_state_invariants(monkeypatch):
    rng = np.random.default_rng(169)
    K = 0.5 * rng.standard_normal((22, 22)) + 5.0 * np.eye(22)
    d = rng.standard_normal(22)
    calls = record_orthogonalize(monkeypatch)
    # stop short of full dimension so the trailing basis column exists
    report = gmres_solve(dense_operator(K), d, 1e-12, 1e-6, 22, reorth=True)
    k = report.iterations
    assert 0 < k < 22
    V, H = gmres_arnoldi(calls, k)
    assert np.linalg.norm(V.T @ V - np.eye(k + 1)) <= 1e-10
    recurrence = K @ V[:, :k] - V @ H
    assert np.linalg.norm(recurrence) <= 1e-12 * np.linalg.norm(K)
    assert report.residual_history[0] == np.linalg.norm(d)


def test_gmres_basis_columns_are_contiguous(monkeypatch):
    rng = np.random.default_rng(171)
    K = 0.5 * rng.standard_normal((22, 22)) + 5.0 * np.eye(22)
    calls = record_orthogonalize(monkeypatch)
    report = gmres_solve(dense_operator(K), rng.standard_normal(22), 1e-12, 1e-6, 22)
    assert len(calls) == report.iterations
    for j, (rows, *_) in enumerate(calls):
        assert rows.shape == (j + 1, 22)
        for row in rows:
            assert row.flags.c_contiguous


@pytest.mark.parametrize("reorth", [False, True])
def test_gmres_and_gpmr_take_one_shared_arnoldi_step_per_basis_vector(monkeypatch, reorth):
    # GMRES extends one basis per iteration, GPMR two
    import gpmr.baselines as baselines
    import gpmr.hessenberg as hessenberg

    assert baselines.arnoldi_step is hessenberg.arnoldi_step
    real = hessenberg.arnoldi_step
    calls = []

    def counted(rows, j, *rest):
        calls.append(j)
        return real(rows, j, *rest)

    monkeypatch.setattr(baselines, "arnoldi_step", counted)
    monkeypatch.setattr(hessenberg, "arnoldi_step", counted)
    rng = np.random.default_rng(172)
    system, _, _ = random_block_system(rng, 12, 9)
    gmres = gmres_solve(system.full_operator(), system.rhs_full(), 1e-12, 1e-6, 21,
                        reorth=reorth)
    assert 0 < gmres.iterations and calls == list(range(gmres.iterations))
    calls.clear()
    gpmr = gpmr_solve(system, 1e-12, 1e-6, k_max=12, reorth=reorth)
    assert 0 < gpmr.iterations
    assert calls == [j for j in range(gpmr.iterations) for _ in range(2)]


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


def test_gmres_singular_k_keeps_last_well_posed_iterate():
    # K v_7 falls inside the span of the earlier images: the rotated
    # column 7 is exactly zero, so its reflection would record a false 0
    # and leave a zero diagonal for the back-substitution
    system, _, _ = random_block_system(np.random.default_rng(2), 3, 7,
                                       lam=0.0, mu=0.0, coupling=1.0)
    K, d = system.full_operator(), system.rhs_full()
    rep_g = gpmr_solve(system, 0.0, 1e-300, k_max=10, reorth=True)
    assert rep_g.status == "exhausted"
    for budget in range(7, 11):
        rep = gmres_solve(K, d, 0.0, 1e-300, budget, reorth=True)
        assert rep.status == "exhausted"
        assert rep.iterations == 6
        assert rep.residual_history[-1] == pytest.approx(
            rep_g.residual_history[-1], rel=1e-14)
        residual = np.linalg.norm(K.apply(np.concatenate([rep.x, rep.y])) - d)
        assert residual == pytest.approx(rep.residual_history[-1], rel=1e-10)


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
    S = pad_columns(state.columns, (2 * k + 2, 2 * k))
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

    S = pad_columns(state.columns, (2 * k + 2, 2 * k))
    # diagonal blocks carry (lam, mu) plus the reduction coefficients
    for j in range(k):
        block = S[2 * j:2 * j + 2, 2 * j:2 * j + 2]
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
    S = pad_columns(state.columns, (2 * k + 2, 2 * k))
    for w in state.W[:k + 1]:
        assert np.max(np.abs(w[m:, 0])) <= 1e-13
        assert np.max(np.abs(w[:m, 1])) <= 1e-13
    for j in range(k):
        for i in range(j):
            off = S[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert abs(off[0, 0]) <= 1e-13
            assert abs(off[1, 1]) <= 1e-13


# ---------------------------------------------------------------------------
# Block-GMRES
# ---------------------------------------------------------------------------

def test_block_gmres_identity_converges_immediately():
    D = np.zeros((4, 2))
    D[0, 0] = 2.0
    D[3, 1] = -1.0
    rep_b, rep_c = block_gmres_solve(identity_operator(4), D,
                                     1e-12, 1e-10, 4)
    assert rep_b.converged and rep_c.converged
    assert rep_b.iterations == 1


def test_block_gmres_summed_matches_gpmr():
    rng = np.random.default_rng(191)
    system, A, B = random_block_system(rng, 16, 14)
    K = dense_full_matrix(system, A, B)
    atol, rtol = 1e-12, 1e-10
    rep_g = gpmr_solve(system, atol, rtol, k_max=30)
    rep_b, _ = block_gmres_solve(dense_operator(K), starting_block(system),
                                 atol, rtol, 30, split=(16, 14))
    shared = min(rep_g.iterations, rep_b.iterations, 10)
    for k in range(1, shared + 1):
        rep_gk = gpmr_solve(system, atol, rtol, k_max=k)
        rep_bk, rep_ck = block_gmres_solve(dense_operator(K), starting_block(system),
                                           atol, rtol, k, split=(16, 14))
        gpmr_vec = np.concatenate([rep_gk.x, rep_gk.y])
        summed = np.concatenate([rep_bk.x + rep_ck.x, rep_bk.y + rep_ck.y])
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
        block_gmres_solve(identity_operator(4), D, 1e-12, 1e-10, 4)


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


def coupled_starting_block_case(rows):
    rng = np.random.default_rng(0)
    K = np.diag(np.arange(1.0, rows + 1)) + 0.1 * rng.standard_normal((rows, rows))
    return K, rng


def check_block_gmres_against_solve(K, D):
    rep_b, rep_c = block_gmres_solve(dense_operator(K), D, 1e-14, 1e-12,
                                     K.shape[0])
    assert rep_b.converged and rep_c.converged
    X = np.linalg.solve(K, D)
    for j, rep in enumerate((rep_b, rep_c)):
        # each history starts at its column's norm and ends at its true
        # residual, up to rounding
        norm_j = np.linalg.norm(D[:, j])
        assert rep.residual_history[0] == pytest.approx(norm_j, rel=1e-15)
        residual = np.linalg.norm(D[:, j] - K @ rep.x)
        assert abs(rep.residual_history[-1] - residual) <= 1e-13 * norm_j
        assert np.linalg.norm(rep.x - X[:, j]) <= 1e-11 * np.linalg.norm(X[:, j])
    summed = rep_b.diagnostics["summed_history"]
    assert summed[0] == pytest.approx(np.linalg.norm(D[:, 0] + D[:, 1]), rel=1e-15)


def test_block_gmres_solves_a_starting_block_with_coupled_columns():
    # D's columns are not orthogonal, so Gamma has an off-diagonal entry
    K, rng = coupled_starting_block_case(4)
    check_block_gmres_against_solve(K, rng.standard_normal((4, 2)))


def test_block_gmres_solves_a_starting_block_with_parallel_columns():
    # Gamma's second diagonal entry vanishes: column c is Gamma_12 w_1[:, 0]
    K, _ = coupled_starting_block_case(3)
    D = np.column_stack([np.ones(3), 2.0 * np.ones(3)])
    check_block_gmres_against_solve(K, D)


def test_block_arnoldi_rejects_a_single_row():
    with pytest.raises(ValueError, match="at least two rows"):
        block_arnoldi_init(np.array([[1.0, 2.0]]), 1)
    with pytest.raises(ValueError, match="at least two rows"):
        block_gmres_solve(identity_operator(1), np.array([[1.0, 2.0]]),
                          1e-12, 1e-10, 1)
