"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest -s`` to see them as they happen).

The sherman5 benchmarks (criteria 9 and 10) need the matrix file, which
is not redistributable here; they skip unless ``GPMR_DATA_DIR`` or
``tests/data`` provides ``sherman5.mtx`` (and ``sherman5.perm`` for the
imported-partition variant).
"""

import time

import numpy as np
import pytest

from gpmr import (
    HessenbergState,
    block_arnoldi_init,
    block_arnoldi_step,
    gmres_solve,
    gpmr_solve,
    hessenberg_step,
    solve_partitioned,
)
from gpmr.cli import ExperimentConfig, run_experiment
from gpmr.solver import givens, ref
from conftest import (
    dense_full_matrix,
    dense_operator,
    pad_columns,
    random_block_system,
    residual_norm,
    starting_block,
)

from test_reports import K_MAX, M, N, peak_bytes, solvers, sparse_system
from test_solver import reflection_block


def _criterion(num, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def _run_reduction(rng, m, n, k, reorth, transpose_pair=False):
    A = rng.standard_normal((m, n)) / np.sqrt(max(m, n))
    B = A.T.copy() if transpose_pair else rng.standard_normal((n, m)) / np.sqrt(max(m, n))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    state = HessenbergState(dense_operator(A), dense_operator(B), b, c, capacity=k)
    for _ in range(k):
        hessenberg_step(state, reorth=reorth)
    return state, A, B


@pytest.fixture(scope="module")
def reduction_suite():
    rng = np.random.default_rng(2024)
    k = 15
    runs = []
    start = time.perf_counter()
    for _ in range(20):
        m = int(rng.integers(20, 61))
        n = int(rng.integers(20, 61))
        runs.append(_run_reduction(rng, m, n, k, reorth=True))
    elapsed = time.perf_counter() - start
    return runs, k, elapsed


def test_criterion_1_process_relations(reduction_suite):
    runs, k, elapsed = reduction_suite
    worst = 0.0
    for state, A, B in runs:
        V = state.V[:, : k + 1]
        U = state.U[:, : k + 1]
        res_a = np.linalg.norm(A @ U[:, :k] - V @ pad_columns(state.Hcols, (k + 1, k)))
        res_b = np.linalg.norm(B @ V[:, :k] - U @ pad_columns(state.Fcols, (k + 1, k)))
        bound_a = 1e-12 * np.linalg.norm(A) * np.sqrt(k)
        bound_b = 1e-12 * np.linalg.norm(B) * np.sqrt(k)
        worst = max(worst, res_a / bound_a, res_b / bound_b)
    ok = worst <= 1.0 and elapsed < 1.0
    _criterion(1, ok, f"relation residual <= {worst:.3f}x bound, {elapsed:.2f}s")


def test_criterion_2_orthogonality(reduction_suite):
    runs, k, _ = reduction_suite
    worst = 0.0
    for state, _, _ in runs:
        V = state.V[:, :k]
        U = state.U[:, :k]
        worst = max(worst,
                    np.linalg.norm(V.T @ V - np.eye(k)),
                    np.linalg.norm(U.T @ U - np.eye(k)))
    _criterion(2, worst <= 1e-10, f"orthogonality defect {worst:.2e}")


def test_criterion_3_transposed_pair_specialization():
    rng = np.random.default_rng(303)
    worst_mirror = 0.0
    worst_band = 0.0
    for _ in range(5):
        m = int(rng.integers(25, 50))
        n = int(rng.integers(20, 40))
        k = 15
        state, A, _ = _run_reduction(rng, m, n, k, reorth=False, transpose_pair=True)
        H = pad_columns(state.Hcols, (k + 1, k))[:k, :]
        F = pad_columns(state.Fcols, (k + 1, k))[:k, :]
        worst_mirror = max(worst_mirror,
                           np.linalg.norm(F - H.T) / np.linalg.norm(H))
        band = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) > 1
        worst_band = max(worst_band, np.max(np.abs(H[band])))
    ok = worst_mirror <= 1e-12 and worst_band <= 1e-12
    _criterion(3, ok, f"mirror {worst_mirror:.2e}, off-band {worst_band:.2e}")


def test_criterion_4_block_arnoldi_equivalence():
    rng = np.random.default_rng(404)
    k = 8
    worst_col = 0.0
    worst_diag = 0.0
    for _ in range(10):
        m = int(rng.integers(12, 31))
        n = int(rng.integers(12, 31))
        # unit-scale coupling keeps the subdiagonal coefficients O(1), so
        # rounding dirt in the structural zeros stays near machine level
        system, A, B = random_block_system(rng, m, n, coupling=1.0)
        K = dense_full_matrix(system, A, B)

        hess = HessenbergState(dense_operator(A), dense_operator(B),
                               system.b, system.c, capacity=k)
        for _ in range(k):
            hessenberg_step(hess)

        state = block_arnoldi_init(starting_block(system), k)
        for _ in range(k):
            block_arnoldi_step(state, dense_operator(K))
        S = pad_columns(state.columns, (2 * k + 2, 2 * k))

        for j in range(k):
            assembled = np.zeros((m + n, 2))
            assembled[:m, 0] = hess.V[:, j]
            assembled[m:, 1] = hess.U[:, j]
            for col in range(2):
                got = state.W[j][:, col]
                want = assembled[:, col]
                delta = min(np.linalg.norm(got - want), np.linalg.norm(got + want))
                worst_col = max(worst_col, delta)
        for j in range(k):
            for i in range(j):
                off = S[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                worst_diag = max(worst_diag, abs(off[0, 0]), abs(off[1, 1]))
            diag = S[2 * j:2 * j + 2, 2 * j:2 * j + 2]
            worst_col = max(worst_col, abs(diag[0, 0] - system.lam),
                            abs(diag[1, 1] - system.mu),
                            abs(diag[0, 1] - hess.Hcols[j][j]),
                            abs(diag[1, 0] - hess.Fcols[j][j]))
    ok = worst_col <= 1e-10 and worst_diag <= 1e-13
    _criterion(4, ok, f"column gap {worst_col:.2e}, stray diagonals {worst_diag:.2e}")


def test_criterion_5_givens_procedures():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        r11b, r12b, r21b, r22b, h, f = rng.standard_normal(6)
        c, s, out11, out12, out22 = givens(r11b, r12b, r21b, r22b, h, f)
        G = reflection_block(c, s)
        col_a = np.array([r11b, r21b, 0.0, f])
        col_b = np.array([r12b, r22b, h, 0.0])
        err_a = np.max(np.abs(G.T @ [out11, 0.0, 0.0, 0.0] - col_a))
        err_b = np.max(np.abs(G.T @ [out12, out22, 0.0, 0.0] - col_b))
        worst = max(worst, err_a, err_b)

    identity_ok = ref((1.0,) * 4, (0.0,) * 4, 1.5, -2.5, 3.5, 4.5) == (1.5, 2.5, -3.5, 4.5)
    exchange_ok = ref((0.0,) * 4, (1.0,) * 4, 1.5, -2.5, 3.5, 4.5) == (-2.5, 3.5, 1.5, 4.5)

    ok = worst <= 1e-14 and identity_ok and exchange_ok
    _criterion(5, ok, f"reconstruction error {worst:.2e}, identities "
                      f"{'exact' if identity_ok and exchange_ok else 'BROKEN'}")


@pytest.fixture(scope="module")
def random_system_suite():
    rng = np.random.default_rng(606)
    systems = []
    for _ in range(20):
        m = int(rng.integers(20, 101))
        n = int(rng.integers(20, 101))
        systems.append(random_block_system(rng, m, n))
    return systems


def test_criterion_6_residual_recurrence(random_system_suite):
    worst = 0.0
    for system, _, _ in random_system_suite:
        norm_d = np.linalg.norm(system.rhs_full())
        report = gpmr_solve(system, 1e-12, 1e-10, k_max=system.order)
        hist = report.residual_history
        for k in range(1, report.iterations + 1):
            rep_k = gpmr_solve(system, 1e-12, 1e-10, k_max=k)
            gap = abs(hist[k] - residual_norm(system, rep_k.x, rep_k.y))
            worst = max(worst, gap / norm_d)
    _criterion(6, worst <= 1e-8, f"recurrence vs truth {worst:.2e} of |(b,c)|")


def test_criterion_7_gmres_dominance(random_system_suite):
    worst = -np.inf
    for system, _, _ in random_system_suite:
        norm_d = np.linalg.norm(system.rhs_full())
        rep_g = gpmr_solve(system, 1e-12, 1e-10, k_max=system.order, reorth=True)
        rep_m = gmres_solve(system.full_operator(), system.rhs_full(),
                            1e-12, 1e-10, system.order, reorth=True)
        shared = min(rep_g.iterations, rep_m.iterations) + 1
        for k in range(shared):
            excess = (rep_g.residual_history[k] - rep_m.residual_history[k]) / norm_d
            worst = max(worst, excess)
    _criterion(7, worst <= 1e-10, f"max (gpmr - gmres) excess {worst:.2e} of |(b,c)|")


def test_criterion_8_block_gmres_sum_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(6):
        m = int(rng.integers(12, 31))
        n = int(rng.integers(12, 30))
        system, _, _ = random_block_system(rng, m, n)
        rep_g, rep_b = (solve_partitioned(method, system, 1e-12, 1e-10, m + n)
                        for method in ("gpmr", "block-gmres"))
        shared = min(rep_g.iterations, rep_b.iterations, 10)
        for k in range(1, shared + 1):
            rep_gk, rep_bk = (solve_partitioned(method, system, 1e-12, 1e-10, k)
                              for method in ("gpmr", "block-gmres"))
            gpmr_vec = np.concatenate([rep_gk.x, rep_gk.y])
            summed = np.concatenate([rep_bk.x, rep_bk.y])
            gap = np.linalg.norm(summed - gpmr_vec) / max(np.linalg.norm(gpmr_vec),
                                                          1e-30)
            worst = max(worst, gap)
    _criterion(8, worst <= 1e-6, f"summed-iterate gap {worst:.2e} relative")


def test_criterion_9_iteration_counts_builtin_partition(sherman5_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(matrix_path=str(sherman5_path),
                           methods=("gpmr", "gmres"), k_max=600)
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    it_gpmr = report["methods"]["gpmr"]["iterations"]
    it_gmres = report["methods"]["gmres"]["iterations"]
    converged = report["all_converged"]
    reduction = (it_gmres - it_gpmr) / it_gmres
    ok = converged and it_gpmr <= it_gmres and reduction >= 0.05 and elapsed < 10.0
    _criterion(9, ok, f"gpmr {it_gpmr} vs gmres {it_gmres} "
                      f"({100 * reduction:.0f}% fewer), {elapsed:.1f}s")


def test_criterion_9_iteration_counts_imported_partition(sherman5_path,
                                                         sherman5_partition_path):
    cfg = ExperimentConfig(matrix_path=str(sherman5_path),
                           partition=str(sherman5_partition_path),
                           methods=("gpmr", "gmres"), k_max=600)
    report = run_experiment(cfg)
    it_gpmr = report["methods"]["gpmr"]["iterations"]
    it_gmres = report["methods"]["gmres"]["iterations"]
    ok = it_gpmr == 20 and it_gmres == 25
    _criterion(9, ok, f"imported partition: gpmr {it_gpmr} (want 20), "
                      f"gmres {it_gmres} (want 25)")


def test_criterion_10_ones_recovery(sherman5_path):
    cfg = ExperimentConfig(matrix_path=str(sherman5_path), methods=("gpmr",),
                           k_max=600)
    report = run_experiment(cfg)
    result = report["methods"]["gpmr"]
    recovered = np.concatenate([result["x_star"], result["y_star"]])
    gap = float(np.max(np.abs(recovered - 1.0)))
    ok = result["converged"] and gap <= 1e-5
    _criterion(10, ok, f"ones recovery error {gap:.2e}")


def test_criterion_11_memory_contract():
    # both solvers run out the same budget k; GPMR's bases V and U hold
    # k + 1 vectors of m and n entries, Block-GMRES's pairs 2 (k + 1) of
    # m + n, so the bases of the one are half the pairs of the other.
    # GPMR's allowance S above its bases: three vectors of m + n (a
    # step's two products and one operator output or normalized vector
    # beside them, or the returned iterate); its triangle's k(2k + 1)
    # entries, kept and then packed; the k(k + 3) entries of its H and F
    # columns; 1 KiB a step for the Python floats and tuples of the
    # reflections, the flags, the histories and the array headers; and
    # 16 KiB for the report and its dicts.
    system = sparse_system()
    k, dim = K_MAX, M + N
    solve = solvers(system)
    gpmr_peak, gpmr_report = peak_bytes(solve["gpmr"])
    block_peak, block_report = peak_bytes(solve["block_gmres"])
    bases = 8 * (k + 1) * dim
    allowance = (8 * 3 * dim + 16 * k * (2 * k + 1) + 8 * k * (k + 3)
                 + 1024 * k + 16384)
    ok = (gpmr_report.iterations == block_report.iterations == k
          and gpmr_peak <= bases + allowance and block_peak >= 2 * bases)
    _criterion(11, ok, f"k={k} m+n={dim}: gpmr peak {gpmr_peak} <= "
                       f"{bases} + {allowance}, block-gmres peak {block_peak} "
                       f">= {2 * bases}")
