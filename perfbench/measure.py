"""The measuring process of one run: set up, solve, recover, check.

    python3 perfbench/measure.py --workload reservoir \
        --input perfbench/out/reservoir-seed1.mtx --seconds 30 --trace 0

A pass drives the calls the ``gpmr`` command makes, from reading the
input to recovering each method's solution, and times each call from
outside. Passes repeat until the time is spent; every pass is checked
with scipy. The last line of standard output is one JSON object with the
figures of every pass. The process is fresh, so ``ru_maxrss`` read after
the first pass is that pass's high-water mark. With ``--trace 1`` the
program's inner public functions are wrapped in spans, which yield the
per-layer figures, and each reservoir pass also runs ``gpmr.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gpmr  # noqa: E402
import gpmr.baselines  # noqa: E402
import gpmr.cli  # noqa: E402
import gpmr.operators  # noqa: E402
import gpmr.solver  # noqa: E402
from gpmr import (  # noqa: E402
    LinearOperator,
    PartitionedSystem,
    bisect_graph,
    block_gmres_solve,
    build_preconditioned_system,
    csr_from_coo,
    csr_identity,
    extract_blocks,
    gmres_solve,
    gpmr_solve,
    load_matrix_market,
    recover_solution,
)
from gpmr.cli import generate_rhs  # noqa: E402

from checks import check_pass, failed_solves  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3


def _check_import_source() -> None:
    found = Path(gpmr.__file__).resolve().parent
    if found != (SRC / "gpmr").resolve():
        raise SystemExit(f"error: imported gpmr from {found}, not from {SRC}")


def setup_reservoir(path, tr):
    """The set-up the ``gpmr`` command performs on a Matrix Market file."""
    with tr.span("sparse.parse"):
        C = load_matrix_market(path)
    with tr.span("operators.bisect"):
        split = bisect_graph(C)
    with tr.span("operators.extract"):
        M, A, B, N = extract_blocks(C, split)
    with tr.span("cli.generate_rhs"):
        b, c = generate_rhs(M, A, B, N)
    with tr.span("operators.build"):
        system, prec = build_preconditioned_system(M, A, B, N, b, c)
    return system, prec, split.perm


def setup_krylov(arrays, tr):
    """CSR blocks and the lam = mu = 1 system; no preconditioner."""
    m, n = int(arrays["m"]), int(arrays["n"])
    A = csr_from_coo(m, n, arrays["A_rows"], arrays["A_cols"], arrays["A_vals"])
    B = csr_from_coo(n, m, arrays["B_rows"], arrays["B_cols"], arrays["B_vals"])
    with tr.span("cli.generate_rhs"):
        b, c = generate_rhs(csr_identity(m), A, B, csr_identity(n))
    system = PartitionedSystem(lam=1.0, mu=1.0, A=LinearOperator.from_matrix(A),
                               B=LinearOperator.from_matrix(B), b=b, c=c)
    return system, None, None


def count_applies(system, tr) -> dict:
    """Replace system.A and system.B by wrappers that count every apply."""
    counts = {"A": 0, "B": 0}

    def counted(op, key):
        def apply(x):
            counts[key] += 1
            with tr.span("operators.apply_" + key):
                return op.apply(x)
        return LinearOperator(op.nrows, op.ncols, apply)

    system.A = counted(system.A, "A")
    system.B = counted(system.B, "B")
    return counts


def run_pass(cfg: dict, setup, tr) -> dict:
    """Set up ``cfg['setup_repeats']`` times, then solve with all three
    methods on the last set-up and recover each solution."""
    atol, rtol, k_max = cfg["atol"], cfg["rtol"], cfg["k_max"]
    setup_times = []
    for _ in range(cfg["setup_repeats"]):
        start = time.perf_counter()
        system, prec, perm = setup(tr)
        setup_times.append(time.perf_counter() - start)
    counts = count_applies(system, tr)
    m, n = system.m, system.n

    def gpmr():
        rep = gpmr_solve(system, atol, rtol, k_max=k_max)
        return rep.x, rep.y, rep, rep.residual_history

    def gmres():
        rep = gmres_solve(system.full_operator(), system.rhs_full(), atol, rtol,
                          k_max, split=(m, n))
        return rep.x, rep.y, rep, rep.residual_history

    def block_gmres():
        D = np.zeros((m + n, 2))
        D[:m, 0] = system.b
        D[m:, 1] = system.c
        rep_b, rep_c = block_gmres_solve(system.full_operator(), D, atol, rtol,
                                         k_max, split=(m, n))
        return (rep_b.x + rep_c.x, rep_b.y + rep_c.y, rep_b,
                rep_b.diagnostics["summed_history"])

    times, results = {}, {}
    for method, span, solve in (("gpmr", "solver.gpmr_solve", gpmr),
                                ("gmres", "baselines.gmres_solve", gmres),
                                ("block_gmres", "baselines.block_gmres_solve", block_gmres)):
        before = counts["A"] + counts["B"]
        with tr.span(span):
            t = time.perf_counter()
            x, y, report, history = solve()
            times[method + "_s"] = time.perf_counter() - t
        if prec is not None:
            with tr.span("operators.recover"):
                x, y = recover_solution(prec, x, y)
        z = np.concatenate([x, y])
        if perm is not None:
            z_orig = np.empty_like(z)
            z_orig[perm] = z
            z = z_orig
        results[method] = {
            "status": report.status,
            "iterations": int(report.iterations),
            "history": np.asarray(history),
            "applies": counts["A"] + counts["B"] - before,
            "z": z,
        }

    times["total_s"] = time.perf_counter() - start
    times["setup_s"] = statistics.median(setup_times)
    return {"times": times, "results": results, "m": m, "n": n}


def trace_targets():
    """Inner public functions wrapped in spans when tracing."""
    return [
        (gpmr.solver, "hessenberg_step", "hessenberg.step"),
        (gpmr.solver, "backward_substitution", "solver.backsub"),
        (gpmr.baselines, "block_arnoldi_step", "baselines.block_arnoldi_step"),
        (gpmr.operators, "spmv", "sparse.spmv"),
        (gpmr.operators.BlockJacobiPreconditioner, "apply", "operators.precond_apply"),
    ]


def layer_metrics(tr: Tracer, passed: dict) -> dict:
    """Per-layer figures of one traced pass. Set-up layers are per call
    (median over repeated set-ups); solve layers are summed over the
    pass. A layer that does not run on the workload reads 0."""

    def median(name, under=None):
        values = tr.durations(name, under)
        return statistics.median(values) if values else 0.0

    def applies_in(solve):
        return (tr.total("operators.apply_A", under=solve)
                + tr.total("operators.apply_B", under=solve))

    res = passed["results"]
    k = res["gpmr"]["iterations"]
    # one dot product and one axpy per basis column on both sides
    orth_flops = 4.0 * (passed["m"] + passed["n"]) * k * (k + 1) / 2
    step_self = tr.self_time("hessenberg.step")
    return {
        "sparse.parse_s": median("sparse.parse"),
        "sparse.spmv_us": 1e6 * median("sparse.spmv", under="operators.apply_A"),
        "operators.bisect_s": median("operators.bisect"),
        "operators.extract_s": median("operators.extract"),
        "operators.build_s": median("operators.build"),
        "operators.precond_apply_ms": 1e3 * median("operators.precond_apply"),
        "operators.recover_s": float(tr.total("operators.recover")),
        "operators.gpmr_apply_s": applies_in("solver.gpmr_solve"),
        "operators.gmres_apply_s": applies_in("baselines.gmres_solve"),
        "operators.block_gmres_apply_s": applies_in("baselines.block_gmres_solve"),
        "operators.gpmr_applies": res["gpmr"]["applies"],
        "operators.gmres_applies": res["gmres"]["applies"],
        "operators.block_gmres_applies": res["block_gmres"]["applies"],
        "hessenberg.step_self_s": step_self,
        "hessenberg.orth_gflops": orth_flops / step_self / 1e9,
        "solver.qr_update_s": (tr.total("solver.gpmr_solve") - tr.total("hessenberg.step")
                               - tr.total("solver.backsub")),
        "solver.backsub_s": tr.total("solver.backsub"),
        "baselines.gmres_self_s": tr.self_time("baselines.gmres_solve"),
        "baselines.block_arnoldi_self_s": tr.self_time("baselines.block_arnoldi_step"),
        "baselines.block_lstsq_s": (tr.total("baselines.block_gmres_solve")
                                    - tr.total("baselines.block_arnoldi_step")),
        "cli.generate_rhs_s": median("cli.generate_rhs"),
    }


def time_cli_main(path, cfg) -> tuple[float, int]:
    """One in-process ``gpmr`` command on the file, all three methods."""
    argv = ["--matrix", str(path), "--method", "gpmr,gmres,block-gmres",
            "--atol", repr(cfg["atol"]), "--rtol", repr(cfg["rtol"]),
            "--maxiter", str(cfg["k_max"])]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = gpmr.cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code


def reference(workload: str, input_path):
    """The workload's matrix as scipy CSR and its all-ones right-hand side."""
    import scipy.io
    import scipy.sparse as sp

    from workloads import read_krylov

    if workload == "reservoir":
        C = scipy.io.mmread(input_path).tocsr()
    else:
        A, B = read_krylov(input_path)
        C = sp.bmat([[sp.identity(A.shape[0]), A], [B, sp.identity(B.shape[0])]],
                    format="csr")
    return C, C @ np.ones(C.shape[1])


def run_passes(workload: str, input_path, trace: bool, seconds: float) -> dict:
    """Repeat the pass until ``seconds`` are spent, at least MIN_PASSES
    times, and check every pass. ``peak_rss_mb`` is read after the first
    pass, before the checks load anything."""
    cfg = WORKLOADS[workload]
    if workload == "reservoir":
        def setup(tr):
            return setup_reservoir(input_path, tr)
    else:
        with np.load(input_path) as f:
            arrays = dict(f)

        def setup(tr):
            return setup_krylov(arrays, tr)

    passes, spans, failures = [], [], []
    peak_rss_mb = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        # stop when the next pass, as long as the mean so far, would overrun
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
        tr = Tracer() if trace else NullTracer()
        with tr.patched(trace_targets()):
            passed = run_pass(cfg, setup, tr)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            C, rhs = reference(workload, input_path)
            threshold = cfg["atol"] + cfg["rtol"] * float(np.linalg.norm(rhs))
        results = passed["results"]
        failures += check_pass(results, C, rhs, threshold, cfg["ones_bound"],
                                 cfg["block_rtol"])
        record = {
            "times": passed["times"],
            "failed": failed_solves(results),
            "iterations": {k: r["iterations"] for k, r in results.items()},
            "applies": {k: r["applies"] for k, r in results.items()},
            "true_relative_residual": {
                k: float(np.linalg.norm(rhs - C @ r["z"]) / np.linalg.norm(rhs))
                for k, r in results.items()},
        }
        if trace:
            layers = layer_metrics(tr, passed)
            layers["cli.main_s"] = 0.0
            if workload == "reservoir":
                layers["cli.main_s"], code = time_cli_main(input_path, cfg)
                if code != 0:
                    failures.append(f"gpmr command exited with {code}")
            record["layers"] = layers
            spans.append(tr.spans)
        passes.append(record)
    return {"passes": passes, "peak_rss_mb": peak_rss_mb, "failures": failures,
            "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure one workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_import_source()
    out = run_passes(args.workload, args.input, bool(args.trace), args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
