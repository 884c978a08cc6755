"""Experiment harness: load a matrix, partition, precondition, solve.

The default protocol mirrors the solver benchmarks this package is built
for: permute an unstructured square matrix into 2x2 block form, build a
right block-Jacobi preconditioner from the diagonal blocks, generate the
right-hand side so the exact solution is the vector of ones, then run
the selected solvers with an absolute/relative residual stopping rule
and report iteration counts, true residuals and timings.

Exit codes: 0 all selected methods converged, 1 unreadable or unusable
input or an output directory that does not exist, 2 singular diagonal
block, 3 at least one method did not converge, 4 at least one method
met a non-finite residual norm (status ``nonfinite``, for example after
an overflow); 4 takes precedence over 3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import block_gmres_solve, gmres_solve
from .operators import (
    GraphPartitionError,
    PreconditionerError,
    bisect_graph,
    build_preconditioned_system,
    extract_blocks,
    read_permutation,
    recover_solution,
)
from .solver import STATUS_NONFINITE, check_stopping_rule, gpmr_solve
from .sparse import _LOADTXT_NOTES, MatrixMarketError, load_matrix_market, spmv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SINGULAR_BLOCK = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NONFINITE = 4

KNOWN_METHODS = ("gpmr", "gmres", "block-gmres")


class ExperimentInputError(Exception):
    """Unreadable, inconsistent or unusable input files."""


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
        # results are keyed by method name, so a repeat would show once
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"repeated methods: {repeated}")
        check_stopping_rule(self.atol, self.rtol, self.k_max)


def generate_rhs(M, A, B, N):
    """Right-hand side pair making the all-ones vector the exact solution
    of the block system with CSR blocks ``M``, ``A``, ``B`` and ``N``."""
    ones_m = np.ones(M.shape[1])
    ones_n = np.ones(N.shape[1])
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


def _load_inputs(cfg: ExperimentConfig):
    try:
        C = load_matrix_market(cfg.matrix_path)
    except OSError as exc:
        raise ExperimentInputError(f"cannot read matrix file: {exc}") from exc
    except MatrixMarketError as exc:
        raise ExperimentInputError(f"cannot parse matrix file: {exc}") from exc
    if C.shape[0] != C.shape[1]:
        raise ExperimentInputError("experiment needs a square matrix")

    if cfg.partition == "auto":
        try:
            split = bisect_graph(C)
        except GraphPartitionError as exc:
            raise ExperimentInputError(f"cannot partition matrix: {exc}") from exc
    else:
        try:
            split = read_permutation(cfg.partition)
        except OSError as exc:
            raise ExperimentInputError(f"cannot read permutation file: {exc}") from exc
        except ValueError as exc:
            raise ExperimentInputError(f"bad permutation file: {exc}") from exc
        if split.order != C.shape[0]:
            raise ExperimentInputError(
                f"permutation covers {split.order} vertices, matrix has {C.shape[0]}")
    return C, split


def _load_rhs(cfg, m, n, blocks):
    if cfg.rhs_path is None:
        b, c = generate_rhs(*blocks)
        source, why = "generated right-hand side", ": its rows of the matrix sum to zero"
    else:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _LOADTXT_NOTES, UserWarning)
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
            raise ExperimentInputError(
                f"rhs file value {bad[0]} is not finite: {values[bad[0]]}")
        b, c, source, why = values[:m], values[m:], "rhs file", ""
    for name, half in (("b", b), ("c", c)):
        if not np.any(half):
            raise ExperimentInputError(f"block {name} of the {source} is zero{why}")
    return b, c


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
    # the right preconditioner leaves the residual unchanged, so the raw
    # blocks give it on an arithmetic path independent of the solve
    residual = np.concatenate([
        b_star - cfg.lam * spmv(M, x_star) - spmv(A, y_star),
        c_star - spmv(B, x_star) - cfg.mu * spmv(N, y_star),
    ])
    true_residual = float(np.linalg.norm(residual))
    return {
        "method": method,
        "iterations": int(report.iterations),
        "status": report.status,
        "converged": report.converged,
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
    nonzeros of the LU factors of each diagonal block (``lu_fill``) and
    the entries SuperLU stores for them (``lu_stored``), and one entry
    per method with iterations, status, true residual in the original
    system, operator application count, wall time, residual history and
    the recovered solution. The application count
    ``matvec_count`` is in one unit for every method: applies of A plus
    applies of B (2 per iteration for GPMR and GMRES, 4 for Block-GMRES).
    """
    C, split = _load_inputs(cfg)
    blocks = extract_blocks(C, split)
    M, A, B, N = blocks
    for name, X in (("A", A), ("B", B)):
        if not np.any(X.data):
            raise ExperimentInputError(
                f"off-diagonal block {name} is zero: the partition leaves its "
                f"two parts uncoupled")
    b_star, c_star = _load_rhs(cfg, split.m, split.n, blocks)
    system, prec = build_preconditioned_system(M, A, B, N, b_star, c_star,
                                               lam=cfg.lam, mu=cfg.mu)

    results = [_run_method(method, system, prec, blocks, b_star, c_star, cfg)
               for method in cfg.methods]

    report = {
        "matrix": str(cfg.matrix_path),
        "order": C.shape[0],
        "nnz": C.nnz,
        "m": split.m,
        "n": split.n,
        "partition": cfg.partition,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "atol": cfg.atol,
        "rtol": cfg.rtol,
        "lu_fill": {"M": prec.Mfac.L.nnz + prec.Mfac.U.nnz,
                    "N": prec.Nfac.L.nnz + prec.Nfac.U.nnz},
        "lu_stored": {"M": prec.Mfac.nnz, "N": prec.Nfac.nnz},
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


def _method_list(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _without_separators(convert):
    """``convert`` for an option value, rejecting the digit separators
    Python's ``int`` and ``float`` accept (``1_0`` is 10 to both), so
    ``1_0`` is the same usage error as ``abc``."""
    def parse(text: str):
        if "_" in text:
            raise ValueError(text)
        return convert(text)
    # argparse names the type in its message: "invalid int value"
    parse.__name__ = convert.__name__
    return parse


_int = _without_separators(int)
_float = _without_separators(float)


def build_parser() -> argparse.ArgumentParser:
    """Command-line parser. Options left out are absent from the parsed
    namespace, so :class:`ExperimentConfig` supplies every default; the
    dests are its field names, plus ``json``."""
    parser = argparse.ArgumentParser(
        prog="gpmr", argument_default=argparse.SUPPRESS,
        description="Solve a partitioned sparse system with GPMR and baselines.")
    parser.add_argument("--matrix", dest="matrix_path", metavar="MATRIX",
                        required=True, help="Matrix Market file")
    parser.add_argument("--partition",
                        help="'auto' for built-in bisection or a permutation file")
    parser.add_argument("--lambda", dest="lam", type=_float)
    parser.add_argument("--mu", type=_float)
    parser.add_argument("--method", dest="methods", metavar="METHOD", type=_method_list,
                        help="comma-separated subset of gpmr,gmres,block-gmres")
    parser.add_argument("--atol", type=_float)
    parser.add_argument("--rtol", type=_float)
    parser.add_argument("--maxiter", dest="k_max", metavar="MAXITER", type=_int)
    parser.add_argument("--history", dest="history_out", metavar="HISTORY",
                        help="write residual CSV here")
    parser.add_argument("--reorth", action="store_true",
                        help="reorthogonalize the Krylov bases")
    parser.add_argument("--rhs", dest="rhs_path", metavar="RHS",
                        help="override the ones-solution right-hand side")
    parser.add_argument("--json", help="write a JSON report here")
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    json_path = options.pop("json", None)
    try:
        cfg = ExperimentConfig(**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # outputs are written after every solve, so a missing directory is
    # reported before the first
    for option, path in (("--history", cfg.history_out), ("--json", json_path)):
        if path is not None and not Path(path).parent.is_dir():
            print(f"error: cannot write {option} file {path}: "
                  f"no directory {Path(path).parent}", file=sys.stderr)
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
    if json_path is not None:
        Path(json_path).write_text(json.dumps(_json_safe(report), indent=2) + "\n")
    if any(r["status"] == STATUS_NONFINITE for r in report["methods"].values()):
        return EXIT_NONFINITE
    return EXIT_OK if report["all_converged"] else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
