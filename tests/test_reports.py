"""What a solve returns: plain data, and no solver state kept alive.

A report holds the iterate, the residual-norm histories and a few plain
numbers. ``tracemalloc`` measures the bytes the reports of one solve keep
after it returns, which must fit that contract: one m + n iterate per
report plus O(k) per report for the histories and the per-step flags.
It also measures the peak a solve allocates while it runs: only the
Krylov bases are sized by the iteration budget, so a short solve at a
large budget peaks at its bases plus a small, budget-free remainder.
"""

import gc
import tracemalloc

import numpy as np
import scipy.sparse

from gpmr import (
    LinearOperator,
    PartitionedSystem,
    block_gmres_solve,
    gmres_solve,
    gpmr_solve,
)
from conftest import starting_block

M, N, K_MAX = 3000, 2000, 40

# The contract's allowance per report: 8 bytes for each of the m + n
# entries of its iterate; per iteration, 8 bytes of each of at most two
# histories and a list slot plus a 56-byte 2-tuple of breakdown flags
# (80 bytes), rounded up to 128; and a fixed 4 KiB for the report, its
# dicts, its array headers and its storage counts.
PER_ITERATION_BYTES = 128
PER_REPORT_BYTES = 4096


def sparse_system(m=M, n=N, scale=1.0):
    rng = np.random.default_rng(29)
    A = scale * scipy.sparse.random(m, n, density=8 / n, random_state=rng, format="csr")
    B = scale * scipy.sparse.random(n, m, density=8 / m, random_state=rng, format="csr")
    return PartitionedSystem(1.0, 1.0, LinearOperator.from_matrix(A),
                             LinearOperator.from_matrix(B),
                             rng.standard_normal(m), rng.standard_normal(n))


def solvers(system):
    K, d, D = system.full_operator(), system.rhs_full(), starting_block(system)
    split = (system.m, system.n)
    # unreachable tolerances: every solve runs its whole budget
    return {
        "gpmr": lambda: (gpmr_solve(system, 0.0, 1e-300, k_max=K_MAX),),
        "gmres": lambda: (gmres_solve(K, d, 0.0, 1e-300, K_MAX, split=split),),
        "block_gmres": lambda: block_gmres_solve(K, D, 0.0, 1e-300, K_MAX, split=split),
    }


def retained_bytes(solve):
    """Bytes allocated by ``solve`` that its reports still hold, and the
    reports. A first call fills any cache the solve's libraries keep."""
    solve()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = solve()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, reports


def test_reports_retain_only_iterates_and_histories():
    system = sparse_system()
    for name, solve in solvers(system).items():
        retained, reports = retained_bytes(solve)
        k = reports[0].iterations
        assert k == K_MAX, name
        bound = len(reports) * (8 * (M + N) + PER_ITERATION_BYTES * (k + 1)
                                + PER_REPORT_BYTES)
        assert retained <= bound, (name, retained, bound)


def test_block_gmres_report_kept_alone_retains_one_iterate():
    solve = solvers(sparse_system())["block_gmres"]
    retained, report = retained_bytes(lambda: solve()[0])
    k = report.iterations
    assert k == K_MAX
    bound = 8 * (M + N) + PER_ITERATION_BYTES * (k + 1) + PER_REPORT_BYTES
    assert retained <= bound, (retained, bound)


def test_diagnostics_are_plain_data():
    system = sparse_system()
    keys = {"gpmr": {"breakdowns", "storage"}, "gmres": set(),
            "block_gmres": {"summed_history"}}
    reports = {name: solve() for name, solve in solvers(system).items()}
    for name, reps in reports.items():
        for report in reps:
            assert set(report.diagnostics) == keys[name]
    diagnostics = reports["gpmr"][0].diagnostics
    assert all(type(v) in (int, bool) for v in diagnostics["storage"].values())
    assert len(diagnostics["breakdowns"]) == K_MAX
    assert all(type(v) is bool for pair in diagnostics["breakdowns"] for v in pair)
    summed = reports["block_gmres"][0].diagnostics["summed_history"]
    assert summed.shape == (K_MAX + 1,)


def peak_bytes(solve):
    """Peak bytes allocated while ``solve`` runs, above what was held
    before, and its first report. A first call fills any cache the
    solve's libraries keep."""
    solve()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reports = solve()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, reports[0]


def test_only_the_krylov_bases_are_sized_by_the_budget():
    # a weak coupling converges in a few steps, far below the budget;
    # GPMR's bases V and U hold cap + 1 vectors of m and n entries,
    # GMRES's basis cap + 1 of m + n, and the block-Arnoldi pairs
    # 2 (cap + 1) of m + n. The projected state of a short solve fits
    # in 1 MB whatever the budget.
    m = n = 500
    k_max = 1000
    system = sparse_system(m, n, scale=0.1)
    K, d, D = system.full_operator(), system.rhs_full(), starting_block(system)
    gpmr_cap, cap = min(k_max, max(m, n)), min(k_max, m + n)
    cases = {
        "gpmr": (lambda: (gpmr_solve(system, 1e-12, 1e-10, k_max=k_max),),
                 8 * (gpmr_cap + 1) * (m + n)),
        "gmres": (lambda: (gmres_solve(K, d, 1e-12, 1e-10, k_max),),
                  8 * (cap + 1) * (m + n)),
        "block_gmres": (lambda: block_gmres_solve(K, D, 1e-12, 1e-10, k_max),
                        8 * 2 * (cap + 1) * (m + n)),
    }
    for name, (solve, bases) in cases.items():
        peak, report = peak_bytes(solve)
        assert report.converged and report.iterations < 50, name
        assert peak <= bases + 2**20, (name, peak, bases)
