import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from gpmr import LinearOperator, PartitionedSystem


def csr(dense):
    """CSR copy of a dense array with its exact zeros dropped."""
    return scipy.sparse.csr_array(np.asarray(dense, dtype=np.float64))


def stored_entries(M):
    """(row, col, value) of every stored entry, in storage order."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return list(zip(rows.tolist(), M.indices.tolist(), M.data.tolist()))


def dense_operator(arr):
    return LinearOperator.from_dense(np.asarray(arr, dtype=np.float64))


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
