"""Bisection and block extraction against pure-Python references.

``reference_perm`` is the dict/deque breadth-first search that
``bisect_graph`` ran before its traversal moved onto
``scipy.sparse.csgraph``; the two must agree vertex for vertex on every
pattern, stored zeros, self loops and disconnected parts included.
"""

import time
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmr import BlockSplit, bisect_graph, csr_from_coo, csr_identity, extract_blocks
from conftest import stored_entries


def reference_perm(C):
    n = C.shape[0]
    adj = [set() for _ in range(n)]
    for i, j, _ in stored_entries(C):
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    adj = [sorted(a) for a in adj]

    def key(v):
        return (len(adj[v]), v)

    def bfs(root, allowed):
        level = {root: 0}
        queue = deque([root])
        order = [root]
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if allowed[w] and w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
                    order.append(w)
        return order, level

    visited = [False] * n
    ordering = []
    while len(ordering) < n:
        allowed = [not v for v in visited]
        u = min((v for v in range(n) if allowed[v]), key=key)
        ecc = -1
        for _ in range(64):
            order, level = bfs(u, allowed)
            if max(level.values()) <= ecc:
                break
            ecc = max(level.values())
            u = min((v for v in order if level[v] == ecc), key=key)
        order, _ = bfs(u, allowed)
        ordering += order
        for v in order:
            visited[v] = True
    return ordering


@st.composite
def square_patterns(draw):
    """Unsymmetric square patterns: stored zeros, self loops, and an
    optional one-way path that connects every vertex."""
    n = draw(st.integers(2, 24))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, st.sampled_from([0.0, 1.0, -2.5])),
                            max_size=3 * n))
    if draw(st.booleans()):
        entries += [(v, v + 1, 0.5) for v in range(n - 1)]
    coords = {(i, j): x for i, j, x in entries}
    rows = [i for i, _ in coords]
    cols = [j for _, j in coords]
    return csr_from_coo(n, n, rows, cols, list(coords.values()))


@settings(max_examples=300, deadline=None)
@given(square_patterns())
def test_bisect_matches_reference_bfs(C):
    split = bisect_graph(C)
    assert split.perm.tolist() == reference_perm(C)
    assert split.m == (C.shape[0] + 1) // 2


@settings(max_examples=300, deadline=None)
@given(square_patterns(), st.data())
def test_extract_blocks_keeps_every_stored_entry(C, data):
    n = C.shape[0]
    perm = np.array(data.draw(st.permutations(range(n))))
    m = data.draw(st.integers(1, n - 1))
    blocks = extract_blocks(C, BlockSplit(perm, m, n - m))
    pinv = np.argsort(perm)
    # C[perm][:, perm], entry by entry, cut at m
    want = {key: [] for key in "MABN"}
    for i, j, x in stored_entries(C):
        r, c = int(pinv[i]), int(pinv[j])
        key = "MABN"[2 * (r >= m) + (c >= m)]
        want[key].append((r - m * (r >= m), c - m * (c >= m), x))
    shapes = {"M": (m, m), "A": (m, n - m), "B": (n - m, m), "N": (n - m, n - m)}
    for key, block in zip("MABN", blocks):
        assert block.shape == shapes[key]
        # row-major with sorted columns, explicit zeros kept
        assert stored_entries(block) == sorted(want[key])


def grid_pattern(nx=4, ny=3, nz=2, dof=3, seed=7):
    """7-point grid, ``dof`` unknowns per cell coupled in a dense block;
    a face couples the same unknown of its two cells, one way on a
    seeded random third of the faces."""
    rng = np.random.default_rng(seed)
    cell = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    base = cell.ravel() * dof
    rows, cols = [], []
    for axis in range(3):
        lo = np.take(cell, np.arange(cell.shape[axis] - 1), axis=axis).ravel() * dof
        hi = np.take(cell, np.arange(1, cell.shape[axis]), axis=axis).ravel() * dof
        for d in range(dof):
            both = rng.random(lo.size) >= 1 / 3
            rows += [hi + d, lo[both] + d]
            cols += [lo + d, hi[both] + d]
    for a in range(dof):
        for b in range(dof):
            rows.append(base + a)
            cols.append(base + b)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = nx * ny * nz * dof
    return csr_from_coo(order, order, rows, cols, rng.standard_normal(rows.size))


# the permutation the dict/deque search gave for grid_pattern(); a change
# to the traversal order fails here first
GRID_PERM = [
    70, 34, 58, 67, 69, 71, 22, 31, 33, 35, 46, 55, 57, 59, 64, 66, 68, 10,
    19, 21, 23, 28, 30, 32, 43, 45, 47, 52, 54, 56, 61, 63, 65, 7, 9, 11,
    16, 18, 20, 25, 27, 29, 40, 42, 44, 49, 51, 53, 60, 62, 4, 6, 8, 13, 15,
    17, 24, 26, 37, 39, 41, 48, 50, 1, 3, 5, 12, 14, 36, 38, 0, 2,
]


def test_grid_permutation_is_pinned():
    C = grid_pattern()
    split = bisect_graph(C)
    assert split.perm.tolist() == GRID_PERM == reference_perm(C)
    assert (split.m, split.n) == (36, 36)


def test_isolated_vertices_are_one_piece_in_index_order():
    # every vertex of a diagonal matrix is its own component; one pass per
    # component made this quadratic
    n = 20000
    C = csr_identity(n)
    start = time.perf_counter()
    split = bisect_graph(C)
    elapsed = time.perf_counter() - start
    assert np.array_equal(split.perm, np.arange(n))
    assert (split.m, split.n) == (10000, 10000)
    assert elapsed < 1.0


def pairs_pattern(n, seed):
    """n/2 disjoint two-vertex components over shuffled vertices, and the
    permutation they bisect to: components in order of their smaller
    vertex, each from its larger vertex (the far end of its root)."""
    pairs = np.random.default_rng(seed).permutation(n).reshape(-1, 2)
    C = csr_from_coo(n, n, pairs[:, 0], pairs[:, 1], np.ones(n // 2))
    pairs = np.sort(pairs, axis=1)
    want = pairs[np.argsort(pairs[:, 0])][:, ::-1].ravel()
    return C, want


def test_pairs_pattern_matches_reference_bfs():
    C, want = pairs_pattern(40, seed=3)
    assert want.tolist() == reference_perm(C) == bisect_graph(C).perm.tolist()


def test_many_two_vertex_components_bisect_in_linear_time():
    # one search per component made this quadratic: 1.3-1.7 s at n = 8000
    C, want = pairs_pattern(8000, seed=5)
    start = time.perf_counter()
    split = bisect_graph(C)
    elapsed = time.perf_counter() - start
    assert np.array_equal(split.perm, want)
    assert elapsed < 0.5
