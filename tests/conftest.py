import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import gpmr.hessenberg as hessenberg
from gpmr import (
    HessenbergState,
    LinearOperator,
    PartitionedSystem,
    backward_substitution,
    hessenberg_init,
    hessenberg_step,
    ref,
)
from gpmr.hessenberg import BREAKDOWN_RTOL
from gpmr.solver import _qr_update


def csr(dense):
    """CSR copy of a dense array with its exact zeros dropped."""
    return scipy.sparse.csr_array(np.asarray(dense, dtype=np.float64))


def stored_entries(M):
    """(row, col, value) of every stored entry, in storage order."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return list(zip(rows.tolist(), M.indices.tolist(), M.data.tolist()))


def small_reservoir(seed=7):
    """The benchmark's ``reservoir`` stand-in (``perfbench/workloads.py``)
    on a 6 x 7 x 3 grid, three coupled unknowns per cell: a CSR matrix of
    order 378 whose bisection gives diagonal blocks of order 189."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    from workloads import reservoir_matrix

    return scipy.sparse.csr_array(reservoir_matrix(seed, grid=(6, 7, 3)))


def dense_operator(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return LinearOperator(*arr.shape, lambda x: arr @ x)


def identity_operator(n):
    return LinearOperator(n, n, lambda x: x.copy())


def pad_columns(columns, shape):
    """A zero matrix of ``shape`` with ``columns[j]`` at the top of its
    column j, or of columns 2j and 2j + 1 for a two-column block: the
    dense H and F of a :class:`HessenbergState` from ``Hcols`` and
    ``Fcols``, and block-Arnoldi's block-Hessenberg S from ``columns``."""
    M = np.zeros(shape)
    for j, col in enumerate(columns):
        col = np.asarray(col).reshape(len(col), -1)
        width = col.shape[1]
        M[: len(col), width * j:width * (j + 1)] = col
    return M


def random_block_system(rng, m, n, lam=1.0, mu=1.0, coupling=0.5):
    """Well-conditioned random system in preconditioned form.

    Off-diagonal blocks are scaled so the full operator stays close to
    the identity, which keeps iteration counts small and subproblems
    well conditioned. Returns the system plus the dense blocks.
    """
    scale = coupling / np.sqrt(max(m, n))
    A = scale * rng.standard_normal((m, n))
    B = scale * rng.standard_normal((n, m))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    system = PartitionedSystem(lam=lam, mu=mu, A=dense_operator(A),
                               B=dense_operator(B), b=b, c=c)
    return system, A, B


def dense_full_matrix(system, A, B):
    m, n = system.m, system.n
    return np.block([
        [system.lam * np.eye(m), A],
        [B, system.mu * np.eye(n)],
    ])


def starting_block(system):
    """The two-column block [(b, 0), (0, c)] of a partitioned system."""
    m = system.m
    D = np.zeros((m + system.n, 2))
    D[:m, 0] = system.b
    D[m:, 1] = system.c
    return D


@dataclass
class GpmrReplay:
    """The state ``gpmr_solve`` keeps: the process, each step's
    reflection ``(c, s)``, the triangle's packed columns and the
    transformed right-hand side."""

    hess: HessenbergState
    reflections: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    tbar: list = field(default_factory=list)


def replay_gpmr(system, steps, reorth=False):
    """Run ``steps`` iterations of GPMR's process and QR update outside
    the solver, as ``gpmr_solve`` runs them without a stopping rule.

    Returns the :class:`GpmrReplay` and the residual-norm history. A
    solve that ran k <= steps iterations on the same system must
    reproduce ``history[:k + 1]`` bit for bit.
    """
    hess = hessenberg_init(system.A, system.B, system.b, system.c, capacity=steps)
    replay = GpmrReplay(hess, tbar=[hess.beta, hess.gamma])
    history = [math.hypot(hess.beta, hess.gamma)]
    for k in range(1, steps + 1):
        hessenberg_step(hess, reorth=reorth)
        col_a, col_b, (c, s) = _qr_update(replay.reflections, float(system.lam),
                                          float(system.mu), hess.Hcols[k - 1],
                                          hess.Fcols[k - 1])
        t = ref(c, s, replay.tbar[-2], replay.tbar[-1], 0.0, 0.0)
        replay.reflections.append((c, s))
        replay.columns += (np.array(col_a), np.array(col_b))
        replay.tbar[-2:] = t
        history.append(math.hypot(t[2], t[3]))
    return replay, history


def replay_iterate(replay, k):
    """Iterate k of a replay, formed as ``gpmr_solve`` forms it; later
    steps leave the first k column pairs and tbar[:2k] as they were."""
    z = backward_substitution(replay.columns[: 2 * k], replay.tbar)
    return replay.hess.V[:, :k] @ z[0::2], replay.hess.U[:, :k] @ z[1::2]


def record_orthogonalize(monkeypatch):
    """Record every ``orthogonalize`` call the shared Arnoldi step makes;
    under a GMRES solve alone, those are GMRES's.

    Call j appends (rows, coeffs, scale, remainder): the basis rows it
    projected against (the solve's own storage, rows 0..j), the
    coefficients, the product norm on entry and a copy of the remainder.
    """
    calls = []
    real = hessenberg.orthogonalize

    def recorded(rows, w, reorth):
        scale = float(np.linalg.norm(w))
        coeffs = real(rows, w, reorth)
        calls.append((rows, coeffs.copy(), scale, w.copy()))
        return coeffs

    monkeypatch.setattr(hessenberg, "orthogonalize", recorded)
    return calls


def gmres_arnoldi(calls, k):
    """GMRES's basis V (dim x (k + 1)) and Hessenberg matrix H
    ((k + 1) x k) rebuilt from the first k recorded calls. A remainder
    at or below BREAKDOWN_RTOL times the product norm is a breakdown, as
    in the solve: its subdiagonal entry and the next basis vector are
    zero."""
    rows = calls[k - 1][0]
    V = np.zeros((rows.shape[1], k + 1))
    V[:, :k] = rows.T
    H = np.zeros((k + 1, k))
    for j, (_, coeffs, scale, remainder) in enumerate(calls[:k]):
        H[: j + 1, j] = coeffs
        hnext = float(np.linalg.norm(remainder))
        if hnext > BREAKDOWN_RTOL * scale:
            H[j + 1, j] = hnext
            if j == k - 1:
                V[:, k] = remainder / hnext
    return V, H


def _find_data_file(name):
    candidates = []
    env = os.environ.get("GPMR_DATA_DIR")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path(__file__).parent / "data" / name)
    for path in candidates:
        if path.exists():
            return path
    return None


@pytest.fixture(scope="session")
def sherman5_path():
    path = _find_data_file("sherman5.mtx")
    if path is None:
        pytest.skip("sherman5.mtx not available (no network in this environment); "
                    "set GPMR_DATA_DIR or place it under tests/data/")
    return path


@pytest.fixture(scope="session")
def sherman5_partition_path():
    path = _find_data_file("sherman5.perm")
    if path is None:
        pytest.skip("imported sherman5 partition not available; "
                    "place sherman5.perm next to sherman5.mtx")
    return path
