"""Benchmark workloads: seeded input generators and solver settings.

    python3 perfbench/workloads.py reservoir --seed 3 --out perfbench/out/r.mtx
    python3 perfbench/workloads.py krylov --seed 3 --out perfbench/out/k.npz

The same seed always gives the same inputs. The program under test only
ever sees the files written here; the matrices themselves also serve as
the reference for the checks, which recompute residuals with scipy.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Solver settings and check bounds per workload. ``k_max`` sizes the
# preallocated Krylov storage, so it is part of the workload: it sets
# ``peak_rss_mb``. ``setup_repeats`` repeats the set-up inside one pass
# where a single set-up takes only milliseconds. ``ones_bound`` bounds
# |z - 1|_inf of every recovered solution; ``block_rtol`` bounds the gap
# between GPMR's history and Block-GMRES's summed history, relative to
# |(b, c)|.
WORKLOADS = {
    "reservoir": {"atol": 1e-12, "rtol": 1e-10, "k_max": 500,
                  "setup_repeats": 1, "ones_bound": 1e-8, "block_rtol": 1e-12},
    "krylov": {"atol": 1e-12, "rtol": 1e-8, "k_max": 500,
               "setup_repeats": 10, "ones_bound": 1e-5, "block_rtol": 1e-10},
}

# sherman5's shape: a 16 x 23 x 3 reservoir grid, 3 unknowns per cell
RESERVOIR_GRID = (16, 23, 3)
RESERVOIR_DOF = 3
RESERVOIR_ACCUMULATION, RESERVOIR_COUPLING, RESERVOIR_VELOCITY = 0.3, 0.3, 0.5

# random coupling pair: A is m x n, B is n x m, PER_ROW entries per row
KRYLOV_M, KRYLOV_N, KRYLOV_PER_ROW, KRYLOV_COUPLING = 6000, 4000, 8, 0.85


def reservoir_matrix(seed: int, grid=RESERVOIR_GRID) -> sp.csr_matrix:
    """Fully implicit reservoir stand-in: upwind convection-diffusion on a
    7-point grid with RESERVOIR_DOF coupled unknowns per cell.

    Cell permeabilities are log-normal; a face couples the same unknown
    of its two cells through the harmonic-mean transmissibility (the
    vertical faces are ten times weaker), plus an upwind convection term
    along +x, +y and +z. Each cell carries a dense ``dof x dof`` block:
    the diagonal is (1 + RESERVOIR_ACCUMULATION) times the row's outflow,
    and the unknowns of one cell couple with random weights of relative
    size RESERVOIR_COUPLING. Unknown ``d`` of cell ``(x, y, z)`` has index
    ``((z * ny + y) * nx + x) * dof + d``.
    """
    nx, ny, nz = grid
    dof = RESERVOIR_DOF
    rng = np.random.default_rng(seed)
    ncell = nx * ny * nz
    cell = np.arange(ncell).reshape(nz, ny, nx)
    perm = np.exp(0.5 * rng.standard_normal(ncell))
    rows, cols, vals = [], [], []
    outflow = np.zeros((ncell, dof))
    for axis, weight in ((2, 1.0), (1, 1.0), (0, 0.1)):
        lo = np.take(cell, np.arange(cell.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(cell, np.arange(1, cell.shape[axis]), axis=axis).ravel()
        trans = weight * 2.0 * perm[lo] * perm[hi] / (perm[lo] + perm[hi])
        for d in range(dof):
            diffusion = (1.0 + 0.3 * d) * trans
            convection = RESERVOIR_VELOCITY * (d + 1) / dof * trans
            rows += [hi * dof + d, lo * dof + d]
            cols += [lo * dof + d, hi * dof + d]
            vals += [-(diffusion + convection), -diffusion]
            np.add.at(outflow[:, d], hi, diffusion + convection)
            np.add.at(outflow[:, d], lo, diffusion)
    base = np.arange(ncell) * dof
    for a in range(dof):
        for b in range(dof):
            if a == b:
                v = (1.0 + RESERVOIR_ACCUMULATION) * outflow[:, a]
            else:
                v = (RESERVOIR_COUPLING * rng.uniform(-1.0, 1.0, ncell)
                     * np.sqrt(outflow[:, a] * outflow[:, b]))
            rows.append(base + a)
            cols.append(base + b)
            vals.append(v)
    order = ncell * dof
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(order, order))


def krylov_pair(seed: int):
    """Random sparse A (m x n) and B (n x m) with KRYLOV_PER_ROW distinct
    columns per row and N(0, 1) values scaled by
    KRYLOV_COUPLING / sqrt(KRYLOV_PER_ROW).

    With lam = mu = 1 the eigenvalues of the block operator are
    1 +- sqrt(eig(A B)) (and 1), and the spectral radius of A B is about
    0.73 (seeds 1-10), so GPMR and GMRES converge without a
    preconditioner.
    """
    rng = np.random.default_rng(seed)
    per_row = KRYLOV_PER_ROW
    scale = KRYLOV_COUPLING / np.sqrt(per_row)

    def block(nrows, ncols):
        cols = np.concatenate([rng.choice(ncols, per_row, replace=False)
                               for _ in range(nrows)])
        rows = np.repeat(np.arange(nrows), per_row)
        vals = scale * rng.standard_normal(nrows * per_row)
        return sp.csr_matrix((vals, (rows, cols)), shape=(nrows, ncols))

    return block(KRYLOV_M, KRYLOV_N), block(KRYLOV_N, KRYLOV_M)


def write_reservoir(seed: int, path) -> None:
    write_mtx(reservoir_matrix(seed), path)


def write_mtx(C, path) -> None:
    """Write ``C`` as coordinate Matrix Market, 1-based, with 17
    significant digits so a read-back is exact."""
    coo = C.tocoo()
    body = np.column_stack([coo.row + 1, coo.col + 1, coo.data])
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        np.savetxt(fh, body, fmt=("%d", "%d", "%.17g"))


def write_krylov(seed: int, path) -> None:
    """Write the coordinate arrays of the krylov pair as ``.npz``."""
    A, B = krylov_pair(seed)
    A, B = A.tocoo(), B.tocoo()
    np.savez(path, m=A.shape[0], n=A.shape[1],
             A_rows=A.row, A_cols=A.col, A_vals=A.data,
             B_rows=B.row, B_cols=B.col, B_vals=B.data)


def read_krylov(path):
    """The krylov pair as scipy CSR matrices, the checks' reference."""
    with np.load(path) as f:
        m, n = int(f["m"]), int(f["n"])
        A = sp.csr_matrix((f["A_vals"], (f["A_rows"], f["A_cols"])), shape=(m, n))
        B = sp.csr_matrix((f["B_vals"], (f["B_rows"], f["B_cols"])), shape=(n, m))
    return A, B


WRITERS = {"reservoir": (write_reservoir, ".mtx"), "krylov": (write_krylov, ".npz")}


def write_input(kind: str, seed: int, out_dir) -> Path:
    writer, suffix = WRITERS[kind]
    path = Path(out_dir) / f"{kind}-seed{seed}{suffix}"
    writer(seed, path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    WRITERS[args.kind][0](args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
