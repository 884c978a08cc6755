"""The calls ``perfbench/measure.py`` makes into the package.

The benchmark builds the ``krylov`` system from coordinate arrays with
``csr_from_coo``, ``csr_identity`` and ``LinearOperator.from_matrix``,
and its ``--trace 1`` run times ``sparse.spmv_us`` by patching
``gpmr.operators.spmv``, ``gpmr.solver.hessenberg_step``,
``gpmr.solver.backward_substitution`` and
``gpmr.baselines.block_arnoldi_step``. It builds the ``reservoir``
system from a Matrix Market file through the ``gpmr`` command's set-up.
These tests run those paths on a small pair and a small grid.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.sparse

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gpmr.operators  # noqa: E402
import measure  # noqa: E402
from conftest import small_reservoir  # noqa: E402
from gpmr import gpmr_solve, recover_solution  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, write_mtx  # noqa: E402


def small_pair(m=30, n=20, per_row=3, seed=0):
    """Coordinate arrays in the layout of the benchmark's ``.npz`` input."""
    rng = np.random.default_rng(seed)

    def block(nrows, ncols):
        cols = np.concatenate([rng.choice(ncols, per_row, replace=False)
                               for _ in range(nrows)])
        rows = np.repeat(np.arange(nrows), per_row)
        return rows, cols, 0.3 * rng.standard_normal(nrows * per_row)

    (ar, ac, av), (br, bc, bv) = block(m, n), block(n, m)
    arrays = {"m": np.array(m), "n": np.array(n), "A_rows": ar, "A_cols": ac, "A_vals": av,
              "B_rows": br, "B_cols": bc, "B_vals": bv}
    A = scipy.sparse.coo_array((av, (ar, ac)), shape=(m, n)).toarray()
    B = scipy.sparse.coo_array((bv, (br, bc)), shape=(n, m)).toarray()
    return arrays, A, B


def test_krylov_setup_builds_the_block_system():
    arrays, A, B = small_pair()
    system, prec, perm = measure.setup_krylov(arrays, NullTracer())
    assert prec is None and perm is None
    assert (system.m, system.n, system.lam, system.mu) == (30, 20, 1.0, 1.0)
    # the right-hand side makes the all-ones vector the solution
    assert np.allclose(system.b, 1.0 + A.sum(axis=1), rtol=0, atol=1e-14)
    assert np.allclose(system.c, B.sum(axis=1) + 1.0, rtol=0, atol=1e-14)
    y = np.random.default_rng(1).standard_normal(20)
    assert np.allclose(system.A.apply(y), A @ y, rtol=0, atol=1e-14)


def test_traced_apply_records_a_spmv_span():
    arrays, A, _ = small_pair()
    system, _, _ = measure.setup_krylov(arrays, NullTracer())
    original = gpmr.operators.spmv
    tr = Tracer()
    with tr.patched(measure.trace_targets()):
        measure.count_applies(system, tr)
        y = np.ones(system.n)
        assert np.allclose(system.A.apply(y), A @ y, rtol=0, atol=1e-14)
    # the span sparse.spmv_us is read from: a product inside an A apply
    assert len(tr.durations("sparse.spmv", under="operators.apply_A")) == 1
    assert gpmr.operators.spmv is original


def test_traced_solves_record_the_solver_spans():
    # hessenberg.step_self_s, solver.backsub_s and
    # baselines.block_arnoldi_self_s are read from these spans
    targets = measure.trace_targets()
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    assert all(callable(original) for original in originals)
    arrays, _, _ = small_pair()
    cfg = {"atol": 1e-12, "rtol": 1e-10, "k_max": 50, "setup_repeats": 1}
    tr = Tracer()
    with tr.patched(targets):
        passed = measure.run_pass(cfg, lambda t: measure.setup_krylov(arrays, t), tr)
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals
    res = passed["results"]
    assert all(r["status"] == "converged" for r in res.values())
    steps = tr.durations("hessenberg.step", under="solver.gpmr_solve")
    assert len(steps) == res["gpmr"]["iterations"] > 0
    assert len(tr.durations("solver.backsub", under="solver.gpmr_solve")) == 1
    pairs = tr.durations("baselines.block_arnoldi_step", under="baselines.block_gmres_solve")
    assert len(pairs) == res["block_gmres"]["iterations"] > 0
    assert tr.total("baselines.gmres_solve") > 0


def test_reservoir_setup_solves_to_the_ones_vector(tmp_path):
    path = tmp_path / "reservoir.mtx"
    write_mtx(small_reservoir(), path)
    system, prec, perm = measure.setup_reservoir(path, NullTracer())
    assert (system.m, system.n) == (189, 189)
    assert (prec.Mfac.shape[0], prec.Nfac.shape[0]) == (189, 189)
    assert np.array_equal(np.sort(perm), np.arange(378))
    cfg = WORKLOADS["reservoir"]
    report = gpmr_solve(system, cfg["atol"], cfg["rtol"], k_max=cfg["k_max"])
    assert report.status == "converged"
    z = np.empty(378)
    z[perm] = np.concatenate(recover_solution(prec, report.x, report.y))
    assert np.max(np.abs(z - 1.0)) <= cfg["ones_bound"]
