"""What a solve returns: plain data, and no solver state kept alive.

A report holds the iterate, the residual-norm histories and a few plain
numbers. ``tracemalloc`` measures the bytes the reports of one solve keep
after it returns, which must fit that contract: one m + n iterate per
report plus O(k) per report for the histories and the per-step flags.
It also measures the peak a solve allocates while it runs: only the
Krylov bases are sized by the iteration budget, so a short solve at a
large budget peaks at its bases plus a small, budget-free remainder.
The Matrix Market reader likewise peaks at the arrays it must hold,
with no Python string kept per line of the file, nothing sized by an
entry count the file cannot hold, and a file that fails scanned one
block of lines at a time.
"""

import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from gpmr import (
    LinearOperator,
    MalformedEntryError,
    PartitionedSystem,
    block_gmres_solve,
    gmres_solve,
    gpmr_solve,
    load_matrix_market,
)
from conftest import read_mm, starting_block

M, N, K_MAX = 3000, 2000, 40

# The contract's allowance per report: 8 bytes for each of the m + n
# entries of its iterate; per iteration, 8 bytes of each of at most two
# histories and a list slot plus a 56-byte 2-tuple of breakdown flags
# (80 bytes), rounded up to 128; and a fixed 4 KiB for the report, its
# dicts and its array headers.
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
    keys = {"gpmr": {"breakdowns"}, "gmres": set(),
            "block_gmres": {"summed_history"}}
    reports = {name: solve() for name, solve in solvers(system).items()}
    for name, reps in reports.items():
        for report in reps:
            assert set(report.diagnostics) == keys[name]
    diagnostics = reports["gpmr"][0].diagnostics
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


def test_block_gmres_ends_on_one_packed_triangle():
    # a long solve: Block-GMRES peaks at its block-Arnoldi pairs, 2 (cap
    # + 1) vectors of m + n; its k reduced column pairs, (2j + 4) x 2 for
    # j < k, 16 (k^2 + 3k) bytes; and the one packed triangle of 2k
    # columns that each back-substitution holds, k (2k + 1) entries. The
    # 1 MiB covers the 4x4 factors, the array headers and the histories.
    # A dense 2k x 2k triangle, 8 (2k)^2 bytes more, does not fit.
    m = n = 500
    k_max = 1000
    system = sparse_system(m, n)
    K, D = system.full_operator(), starting_block(system)
    peak, report = peak_bytes(lambda: block_gmres_solve(K, D, 0.0, 1e-10, k_max))
    k, cap = report.iterations, min(k_max, m + n)
    assert report.converged and k > 300
    bound = (16 * (cap + 1) * (m + n) + 16 * (k * k + 3 * k)
             + 8 * k * (2 * k + 1) + 2**20)
    assert peak <= bound, (peak, bound)


# The Matrix Market reader's allowance per entry, from the arrays it must
# hold at once: loadtxt's structured result of int64 row and column and
# a float64 value (24 bytes; it is sized for at most the declared count
# plus one and grows by reallocation, never by a second copy), the
# 0-based int64 row and column copies (16; the values stay a view), and
# the COO-to-CSR conversion's int32 copies of both index arrays (8),
# contiguous copy of the strided values (8) and the CSR's int32 indices
# and float64 values (12). The fixed allowance covers read buffers, the
# header lines and the CSR's row pointer.
READER_BYTES_PER_ENTRY = 24 + 16 + 8 + 8 + 12
READER_FIXED_BYTES = 2**20


def test_the_matrix_market_reader_holds_no_string_per_line(tmp_path):
    n, per_row = 10_000, 10
    rows = np.repeat(np.arange(1, n + 1), per_row)
    cols = (rows + np.tile(97 * np.arange(per_row), n)) % n + 1  # distinct per row
    vals = np.random.default_rng(5).standard_normal(rows.size)
    path = tmp_path / "generated.mtx"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real general\n{n} {n} {rows.size}\n")
        np.savetxt(fh, np.column_stack([rows, cols, vals]), fmt=["%d", "%d", "%.17g"])
    peak, C = peak_bytes(lambda: (load_matrix_market(path),))
    assert C.nnz == rows.size
    bound = READER_BYTES_PER_ENTRY * rows.size + READER_FIXED_BYTES
    assert peak <= bound, (peak, bound)


def test_the_matrix_market_reader_sizes_nothing_by_a_declared_count():
    # three lines cannot hold a million entries: the reader must find
    # that without allocating for them
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1000000\n1 1 1.0\n"

    def parse():
        with pytest.raises(MalformedEntryError) as info:
            read_mm(text)
        return (str(info.value),)

    peak, message = peak_bytes(parse)
    assert message == "declared 1000000 entries but found 1"
    assert peak <= READER_FIXED_BYTES, peak


def test_a_failing_matrix_market_file_is_scanned_in_blocks(tmp_path):
    # the bad line 3 fails the streamed pass at once; the peak is that
    # pass's loadtxt result, preallocated for the declared count plus one
    # 24-byte rows, and one block of the scan's lines, which the fixed
    # allowance covers: the rest of the file is never held
    n = 100_000
    path = tmp_path / "bad.mtx"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real general\n{n} {n} {n}\n1 x 1.0\n")
        rows = np.arange(2, n + 1)
        np.savetxt(fh, np.column_stack([rows, rows, np.ones(n - 1)]), fmt=["%d", "%d", "%.1f"])

    def load():
        with pytest.raises(MalformedEntryError) as info:
            load_matrix_market(path)
        return (str(info.value),)

    peak, message = peak_bytes(load)
    assert message == "line 3: unparsable entry '1 x 1.0'"
    bound = 24 * (n + 1) + READER_FIXED_BYTES
    assert peak <= bound, (peak, bound)
