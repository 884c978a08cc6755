"""Experiment harness: load a matrix, partition, precondition, solve.

The default protocol mirrors the solver benchmarks this package is built
for: permute an unstructured square matrix into 2x2 block form, build a
right block-Jacobi preconditioner from the diagonal blocks, generate the
right-hand side so the exact solution is the vector of ones, then run
the selected solvers with an absolute/relative residual stopping rule
and report iteration counts, true residuals and timings.

Exit codes: 0 all selected methods converged, 1 unreadable input,
2 singular diagonal block, 3 at least one method did not converge,
4 at least one method met a non-finite residual norm (status
``nonfinite``, for example after an overflow); 4 takes precedence
over 3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import block_gmres_solve, gmres_solve
from .operators import (
    PreconditionerError,
    bisect_graph,
    build_preconditioned_system,
    extract_blocks,
    read_permutation,
    recover_solution,
)
from .solver import STATUS_NONFINITE, check_tolerances, gpmr_solve
from .sparse import MatrixMarketError, SparseMatrix, load_matrix_market, spmv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SINGULAR_BLOCK = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NONFINITE = 4

KNOWN_METHODS = ("gpmr", "gmres", "block-gmres")


class ExperimentInputError(Exception):
    """Unreadable or inconsistent input files."""


@dataclass
class ExperimentConfig:
    matrix_path: str
    partition: str = "auto"
    lam: float = 1.0
    mu: float = 1.0
    methods: tuple = ("gpmr", "gmres")
    atol: float = 1e-12
    rtol: float = 1e-10
    k_max: int = 500
    history_out: str | None = None
    reorth: bool = False
    rhs_path: str | None = None

    def __post_init__(self):
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("at least one method must be selected")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        check_tolerances(self.atol, self.rtol)
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


def generate_rhs(M: SparseMatrix, A: SparseMatrix, B: SparseMatrix, N: SparseMatrix):
    """Right-hand side pair making the all-ones vector the exact solution."""
    ones_m = np.ones(M.ncols)
    ones_n = np.ones(N.ncols)
    b = spmv(M, ones_m) + spmv(A, ones_n)
    c = spmv(B, ones_m) + spmv(N, ones_n)
    return b, c


def write_history_csv(histories, target) -> None:
    """Write per-iteration residual norms as CSV.

    ``histories`` maps method name to its residual-norm sequence; rows
    are ordered by method (input order) then iteration, values carry 17
    significant digits so a read-back is bit exact.
    """
    if not histories or all(len(h) == 0 for h in histories.values()):
        raise ValueError("no residual histories to write")
    lines = ["iteration,method,residual_norm"]
    for method, history in histories.items():
        for it, value in enumerate(history):
            lines.append(f"{it},{method},{value:.16e}")
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)


def read_history_csv(source):
    """Inverse of :func:`write_history_csv`, for round-trip checks."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "iteration,method,residual_norm":
        raise ValueError("unrecognized history file")
    histories: dict[str, list[float]] = {}
    for ln in lines[1:]:
        it, method, value = ln.split(",")
        histories.setdefault(method, []).append(float(value))
    return {k: np.asarray(v) for k, v in histories.items()}


def _load_inputs(cfg: ExperimentConfig):
    try:
        C = load_matrix_market(cfg.matrix_path)
    except OSError as exc:
        raise ExperimentInputError(f"cannot read matrix file: {exc}") from exc
    except MatrixMarketError as exc:
        raise ExperimentInputError(f"cannot parse matrix file: {exc}") from exc
    if C.nrows != C.ncols:
        raise ExperimentInputError("experiment needs a square matrix")

    if cfg.partition == "auto":
        split = bisect_graph(C)
    else:
        try:
            split = read_permutation(cfg.partition)
        except OSError as exc:
            raise ExperimentInputError(f"cannot read permutation file: {exc}") from exc
        except ValueError as exc:
            raise ExperimentInputError(f"bad permutation file: {exc}") from exc
        if split.order != C.nrows:
            raise ExperimentInputError(
                f"permutation covers {split.order} vertices, matrix has {C.nrows}")
    return C, split


def _load_rhs(cfg, m, n, blocks):
    if cfg.rhs_path is None:
        return generate_rhs(*blocks)
    try:
        values = np.loadtxt(cfg.rhs_path, dtype=np.float64).ravel()
    except OSError as exc:
        raise ExperimentInputError(f"cannot read rhs file: {exc}") from exc
    except ValueError as exc:
        raise ExperimentInputError(f"bad rhs file: {exc}") from exc
    if values.size != m + n:
        raise ExperimentInputError(
            f"rhs file has {values.size} values, system order is {m + n}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ExperimentInputError(f"rhs file value {bad[0]} is not finite: {values[bad[0]]}")
    return values[:m], values[m:]


def _run_method(method, system, prec, blocks, b_star, c_star, cfg):
    M, A, B, N = blocks
    m, n = system.m, system.n
    start = time.perf_counter()
    if method == "gpmr":
        report = gpmr_solve(system, cfg.atol, cfg.rtol, k_max=cfg.k_max,
                            reorth=cfg.reorth)
        history = report.residual_history
        x, y = report.x, report.y
    elif method == "gmres":
        report = gmres_solve(system.full_operator(), system.rhs_full(),
                             cfg.atol, cfg.rtol, cfg.k_max,
                             reorth=cfg.reorth, split=(m, n))
        history = report.residual_history
        x, y = report.x, report.y
    else:
        D = np.zeros((m + n, 2))
        D[:m, 0] = system.b
        D[m:, 1] = system.c
        rep_b, rep_c = block_gmres_solve(system.full_operator(), D,
                                         cfg.atol, cfg.rtol, cfg.k_max,
                                         reorth=cfg.reorth, split=(m, n))
        report = rep_b
        history = rep_b.diagnostics["summed_history"]
        x, y = rep_b.x + rep_c.x, rep_b.y + rep_c.y
    elapsed = time.perf_counter() - start
    # GPMR counts A and B applies; the baselines count full-operator
    # applies, each of which is one A apply plus one B apply
    applies = report.matvec_count * (1 if method == "gpmr" else 2)

    x_star, y_star = recover_solution(prec, x, y)
    if cfg.lam == 1.0 and cfg.mu == 1.0:
        # identity left preconditioner: the original-system residual equals
        # the solved-system residual, and the raw blocks give an
        # independent arithmetic path for it
        residual = np.concatenate([
            b_star - spmv(M, x_star) - spmv(A, y_star),
            c_star - spmv(B, x_star) - spmv(N, y_star),
        ])
        true_residual = float(np.linalg.norm(residual))
    else:
        true_residual = system.residual_norm(x, y)
    return {
        "method": method,
        "iterations": int(report.iterations),
        "status": report.status,
        "converged": report.status == "converged",
        "true_residual": true_residual,
        "matvec_count": int(applies),
        "wall_time": elapsed,
        "history": np.asarray(history),
        "x_star": x_star,
        "y_star": y_star,
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment and return a result dictionary.

    The dictionary carries matrix metadata, the partition sizes, the
    entries stored in the LU factors of each diagonal block and one
    entry per method with iterations, status, true residual in the
    original system, operator application count, wall time, residual
    history and the recovered solution. The application count
    ``matvec_count`` is in one unit for every method: applies of A plus
    applies of B (2 per iteration for GPMR and GMRES, 4 for Block-GMRES).
    """
    C, split = _load_inputs(cfg)
    blocks = extract_blocks(C, split)
    M, A, B, N = blocks
    b_star, c_star = _load_rhs(cfg, split.m, split.n, blocks)
    system, prec = build_preconditioned_system(M, A, B, N, b_star, c_star,
                                               lam=cfg.lam, mu=cfg.mu)

    results = [_run_method(method, system, prec, blocks, b_star, c_star, cfg)
               for method in cfg.methods]

    report = {
        "matrix": str(cfg.matrix_path),
        "order": C.nrows,
        "nnz": C.nnz_stored,
        "m": split.m,
        "n": split.n,
        "partition": cfg.partition,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "atol": cfg.atol,
        "rtol": cfg.rtol,
        "lu_fill": {"M": prec.Mfac.fill, "N": prec.Nfac.fill},
        "methods": {r["method"]: r for r in results},
    }
    report["all_converged"] = all(r["converged"] for r in results)

    if cfg.history_out is not None:
        histories = {r["method"]: r["history"] for r in results}
        write_history_csv(histories, cfg.history_out)
    return report


def format_table(report: dict) -> str:
    lines = [
        f"matrix       {report['matrix']}",
        f"order / nnz  {report['order']} / {report['nnz']}",
        f"partition    m={report['m']} n={report['n']} ({report['partition']})",
        f"lambda, mu   {report['lambda']}, {report['mu']}",
        f"tolerances   atol={report['atol']:g} rtol={report['rtol']:g}",
        "",
        f"{'method':<12} {'iters':>6} {'status':<15} {'residual':>12} "
        f"{'matvecs':>8} {'seconds':>9}",
    ]
    for name, res in report["methods"].items():
        lines.append(
            f"{name:<12} {res['iterations']:>6} {res['status']:<15} "
            f"{res['true_residual']:>12.4e} {res['matvec_count']:>8} "
            f"{res['wall_time']:>9.3f}")
    return "\n".join(lines)


def _json_safe(report: dict) -> dict:
    out = dict(report)
    out["methods"] = {}
    for name, res in report["methods"].items():
        cleaned = {k: v for k, v in res.items()
                   if k not in ("history", "x_star", "y_star")}
        cleaned["history_length"] = int(len(res["history"]))
        out["methods"][name] = cleaned
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpmr",
        description="Solve a partitioned sparse system with GPMR and baselines.")
    parser.add_argument("--matrix", required=True, help="Matrix Market file")
    parser.add_argument("--partition", default="auto",
                        help="'auto' for built-in bisection or a permutation file")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--method", default="gpmr,gmres",
                        help="comma-separated subset of gpmr,gmres,block-gmres")
    parser.add_argument("--atol", type=float, default=1e-12)
    parser.add_argument("--rtol", type=float, default=1e-10)
    parser.add_argument("--maxiter", type=int, default=500)
    parser.add_argument("--history", default=None, help="write residual CSV here")
    parser.add_argument("--reorth", action="store_true",
                        help="reorthogonalize the Krylov bases")
    parser.add_argument("--rhs", default=None,
                        help="override the ones-solution right-hand side")
    parser.add_argument("--json", default=None, help="write a JSON report here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig(
            matrix_path=args.matrix,
            partition=args.partition,
            lam=args.lam,
            mu=args.mu,
            methods=tuple(m.strip() for m in args.method.split(",") if m.strip()),
            atol=args.atol,
            rtol=args.rtol,
            k_max=args.maxiter,
            history_out=args.history,
            reorth=args.reorth,
            rhs_path=args.rhs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        report = run_experiment(cfg)
    except ExperimentInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except PreconditionerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_BLOCK

    print(format_table(report))
    if args.json is not None:
        Path(args.json).write_text(json.dumps(_json_safe(report), indent=2) + "\n")
    if any(r["status"] == STATUS_NONFINITE for r in report["methods"].values()):
        return EXIT_NONFINITE
    return EXIT_OK if report["all_converged"] else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
