"""Sparse matrices, a Matrix Market reader and the LU the preconditioner needs.

Every matrix in this package is a ``scipy.sparse.csr_array`` of float64
values with sorted column indices and explicitly stored zeros kept.
``csr_from_coo``, ``csr_identity`` and ``spmv`` build and apply them.
The Matrix Market reader streams the entry lines of a file into one
``np.loadtxt`` pass, with no per-line string kept, and reads a file
again only when it fails, to name the failing line. Its lines end at
``\\n``, ``\\r\\n`` or ``\\r``, as :func:`open` breaks them. The LU
factorization with partial pivoting, ``P M Q = L U``, used to apply
block-Jacobi preconditioners, is SuperLU's in a minimum-degree column
order with this package's relative zero-pivot test on top. A block that
fails in that order is factored again in natural column order, so a
singular block names the column that natural order numbers. It never
builds a dense copy of a block that factors, and hands back scipy's
``SuperLU`` object itself.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import structural_rank
from scipy.sparse.linalg import SuperLU, splu


class MatrixMarketError(ValueError):
    """Base class for Matrix Market reading failures."""


class MalformedHeaderError(MatrixMarketError):
    """Banner or size line is missing, truncated or unreadable."""


class UnsupportedFormatError(MatrixMarketError):
    """Recognized Matrix Market feature that this reader does not accept."""


class IndexOutOfRangeError(MatrixMarketError):
    """A coordinate entry lies outside the declared matrix dimensions."""


class MalformedEntryError(MatrixMarketError):
    """A coordinate entry line could not be parsed."""


class SingularMatrixError(RuntimeError):
    """LU factorization hit a zero pivot; ``column`` is the failing column."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"singular matrix: zero pivot in column {column}")


def csr_from_coo(nrows, ncols, rows, cols, values) -> scipy.sparse.csr_array:
    """CSR matrix from coordinates: duplicates summed, explicit zeros kept,
    column indices sorted. Unequal lengths or an index out of range raise
    ``ValueError``."""
    return scipy.sparse.coo_array((values, (rows, cols)), shape=(nrows, ncols),
                                  dtype=np.float64).tocsr()


def csr_identity(n: int) -> scipy.sparse.csr_array:
    return scipy.sparse.eye_array(n, format="csr")


def spmv(M: scipy.sparse.csr_array, x) -> np.ndarray:
    """Matrix-vector product ``M @ x``; a length mismatch raises ``ValueError``."""
    return M @ np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Matrix Market reader
# ---------------------------------------------------------------------------

_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric"}


_ENTRY_DTYPES = {
    2: np.dtype([("row", np.int64), ("col", np.int64)]),
    3: np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)]),
}
# loadtxt warns when a section holds no entries and when comment or blank
# lines fall within ``max_rows``; both are expected here
_LOADTXT_NOTES = r"(loadtxt: input contained no data|Input line \d+ contained no data)"
_DECIMAL_INTEGER = re.compile(r"[+-]?[0-9]+")
# lines the error scan converts at once before it walks a failing block
# line by line, which costs about 20 us a line
_SCAN_BLOCK = 1024


def _load_entries(lines, fields, max_rows=None) -> np.ndarray:
    """The first ``fields`` columns of coordinate entry lines, a list of
    them or a text stream, in one C pass: a structured array of int64
    ``row`` and ``col`` and, for three fields, float64 ``val``. Blank
    lines are skipped and ``%`` starts a comment. A line that does not
    convert raises ``ValueError``."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _LOADTXT_NOTES, UserWarning)
        return np.loadtxt(lines, dtype=_ENTRY_DTYPES[fields], comments="%",
                          usecols=range(fields), max_rows=max_rows, ndmin=1)


def _oversized_entry(raw, parts, fields):
    """``(i, j, v)`` of an entry line whose only fault is an index beyond
    int64, with Python integer indices; None for any other line."""
    if not all(_DECIMAL_INTEGER.fullmatch(p) for p in parts[:2]):
        return None
    try:
        # read as floats, the indices can only have failed by their size
        values = np.loadtxt([raw], comments="%", usecols=range(fields), ndmin=2)[0]
    except ValueError:
        return None
    return int(parts[0]), int(parts[1]), float(values[2]) if fields == 3 else 1.0


def _entries_fit(entries, nrows, ncols) -> bool:
    """Every index of converted entries in range and every value finite."""
    rows, cols = entries["row"], entries["col"]
    return bool(np.all((rows >= 1) & (rows <= nrows) & (cols >= 1) & (cols <= ncols))
                and ("val" not in entries.dtype.names or np.isfinite(entries["val"]).all()))


def _raise_first_bad_entry(text, first_lineno, nrows, ncols, nnz, fields):
    """Raise the error of the first line left in the text stream ``text``
    (numbered from ``first_lineno``) that exceeds ``nnz`` entries, fails
    to convert, or holds a non-finite value or an index out of range;
    else the count mismatch.

    The stream is read ``_SCAN_BLOCK`` lines at a time. Blocks that pass
    are converted at once; the first block that fails is walked line by
    line. Each line is converted on its own exactly as the whole section
    was, so a section that failed as a whole fails here too: this never
    returns.
    """
    seen = 0
    for begin in itertools.count(first_lineno, _SCAN_BLOCK):
        block = list(itertools.islice(text, _SCAN_BLOCK))
        if not block:
            break
        try:
            entries = _load_entries(block, fields)
        except ValueError:
            entries = None
        if (entries is not None and seen + entries.size <= nnz
                and _entries_fit(entries, nrows, ncols)):
            seen += entries.size
            continue
        for lineno, raw in enumerate(block, start=begin):
            try:
                converted = _load_entries([raw], fields)
            except ValueError:
                converted = None
            else:
                if not converted.size:
                    continue  # a blank or comment line
            if seen >= nnz:
                raise MalformedEntryError(f"line {lineno}: more entries than declared ({nnz})")
            stripped = raw.strip()
            parts = stripped.split()
            if len(parts) < fields:
                raise MalformedEntryError(
                    f"line {lineno}: expected {fields} fields, got {len(parts)}")
            if converted is not None:
                i, j = int(converted["row"][0]), int(converted["col"][0])
                v = float(converted["val"][0]) if fields == 3 else 1.0
            elif (entry := _oversized_entry(raw, parts, fields)) is not None:
                i, j, v = entry
            else:
                raise MalformedEntryError(f"line {lineno}: unparsable entry {stripped!r}")
            if not math.isfinite(v):
                raise MalformedEntryError(f"line {lineno}: non-finite value {parts[2]!r}")
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise IndexOutOfRangeError(
                    f"line {lineno}: entry ({i}, {j}) outside {nrows} x {ncols}"
                )
            seen += 1
    raise MalformedEntryError(f"declared {nnz} entries but found {seen}")


def _read_matrix_market(text) -> scipy.sparse.csr_array:
    """:func:`load_matrix_market` on its open file. The header is read
    with ``readline``, so that the position after the size line can be
    told and sought back to."""
    lineno, banner = 0, ""
    while not banner:
        raw = text.readline()
        if not raw:
            raise MalformedHeaderError("empty input")
        lineno += 1
        banner = raw.strip()
    tokens = banner.split()
    if len(tokens) != 5 or not tokens[0].lower().startswith("%%matrixmarket"):
        raise MalformedHeaderError(f"bad banner line: {banner!r}")
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise MalformedHeaderError(f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise UnsupportedFormatError(f"unsupported format {fmt!r}, expected coordinate")
    if field == "complex":
        raise UnsupportedFormatError("complex matrices are not supported")
    if field not in _SUPPORTED_FIELDS:
        raise MalformedHeaderError(f"unknown field {field!r}")
    if symmetry in {"skew-symmetric", "hermitian"}:
        raise UnsupportedFormatError(f"unsupported symmetry {symmetry!r}")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise MalformedHeaderError(f"unknown symmetry {symmetry!r}")

    size_line = ""
    while not size_line or size_line.startswith("%"):
        raw = text.readline()
        if not raw:
            raise MalformedHeaderError("missing size line")
        lineno += 1
        size_line = raw.strip()
    parts = size_line.split()
    if len(parts) != 3:
        raise MalformedHeaderError(f"size line must have three fields: {size_line!r}")
    if not all(_DECIMAL_INTEGER.fullmatch(p) for p in parts):
        raise MalformedHeaderError(f"non-integer size line: {size_line!r}")
    nrows, ncols, nnz = (int(p) for p in parts)
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise MalformedHeaderError("negative dimension in size line")
    if symmetry == "symmetric" and nrows != ncols:
        raise MalformedHeaderError("symmetric matrix must be square")

    fields = 2 if field == "pattern" else 3
    body = text.tell()
    # loadtxt sizes its result by max_rows before it reads an entry. An
    # entry line takes at least 2 * fields characters with its line end,
    # and the end position, in bytes of the file, is no less than the
    # characters read, so max_rows stays within what the file can hold
    end = text.seek(0, io.SEEK_END)
    text.seek(body)
    max_rows = min(nnz, (end + 1) // (2 * fields)) + 1
    try:
        entries = _load_entries(text, fields, max_rows=max_rows)
    except ValueError:
        entries = None
    if entries is None or entries.size != nnz or not _entries_fit(entries, nrows, ncols):
        text.seek(body)
        _raise_first_bad_entry(text, lineno + 1, nrows, ncols, nnz, fields)
    rows = entries["row"] - 1
    cols = entries["col"] - 1
    vals = np.ones(nnz) if fields == 2 else entries["val"]

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return csr_from_coo(nrows, ncols, rows, cols, vals)


def load_matrix_market(path) -> scipy.sparse.csr_array:
    """Read a coordinate Matrix Market matrix from the file at ``path``.

    Supports real, integer and pattern fields with general or symmetric
    qualifiers. Symmetric input is expanded to full storage, pattern
    entries are assigned the value 1.0, duplicate coordinates are summed
    and indices become 0-based. A ``nan`` or ``inf`` value is a
    :class:`MalformedEntryError` naming its line.

    The file is decoded as UTF-8, an undecodable byte read as U+FFFD.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else: a form
    feed, vertical tab or Unicode line separator is a character within
    its line, where it separates fields like a space. The entry lines go
    from the open file into one ``np.loadtxt`` pass and are checked as
    whole arrays; fields past the value are ignored and ``%`` starts a
    comment. Sizes and indices are plain decimal integers and values
    plain decimal floats: digit separators (``1_0``) are a malformed size
    line or entry. Only a file that fails is read again from just after
    its size line, block by block and then line by line, to name the
    line that fails.
    """
    with open(path, encoding="utf-8", errors="replace", newline=None) as text:
        return _read_matrix_market(text)


# ---------------------------------------------------------------------------
# LU factorization with partial pivoting (SuperLU)
# ---------------------------------------------------------------------------

# Relative magnitude below which a pivot counts as zero.
PIVOT_RTOL = 1e-13
# SuperLU scales a pivot column by the pivot's reciprocal, which overflows
# below this magnitude.
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _weak_pivots(absdiag, u_colmax, l_colmax, floor=0.0) -> np.ndarray:
    """Columns whose pivot is at most ``PIVOT_RTOL`` times the largest
    magnitude in the working column at pivot time, which the factors give
    back as max(|U[:, j]|, |L[:, j]| |u_jj|), or below ``floor``."""
    colmax = np.maximum(u_colmax, l_colmax * absdiag)
    return np.flatnonzero((colmax == 0.0) | (absdiag <= PIVOT_RTOL * colmax)
                          | (absdiag < floor))


def _dense_singular_column(M: scipy.sparse.csr_array) -> int:
    """Failing column of an exactly singular ``M``, from LAPACK's LU of a
    densified copy; SuperLU rejects such a matrix without naming it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(M.toarray(), check_finite=False)
    absdiag = np.abs(np.diag(lu))
    bad = _weak_pivots(absdiag, np.abs(np.triu(lu)).max(axis=0),
                       np.abs(np.tril(lu, -1)).max(axis=0))
    if not bad.size:
        # SuperLU also stops where a subnormal pivot's reciprocal overflows
        bad = np.flatnonzero(absdiag < _SMALLEST_NORMAL)
    return int(bad[0])


def _checked_splu(csc, permc_spec: str, floor=0.0):
    """``splu`` in the column order ``permc_spec`` with partial pivoting,
    and the steps whose pivots :func:`_weak_pivots` flags; an exactly
    singular matrix raises SuperLU's ``RuntimeError``.

    ``relax=2`` merges only elimination subtrees of at most two columns
    into one supernode. SuperLU's default merges larger subtrees and pads
    them with explicit zeros, which every factorization and solve then
    works through. Relaxation changes how the factors are stored, not
    which pivots are picked (short of rounding ties), so the permutations
    and the fill are those of the default. ``relax=1`` pads a little less
    but lets a subnormal pivot through in natural order that SuperLU
    otherwise calls exactly singular.
    """
    lu = splu(csc, permc_spec=permc_spec, relax=2)
    L, U = lu.L, lu.U
    # every column of either factor stores its diagonal entry, so each
    # reduceat segment is a whole, nonempty column
    bad = _weak_pivots(np.abs(U.diagonal()),
                       np.maximum.reduceat(np.abs(U.data), U.indptr[:-1]),
                       np.maximum.reduceat(np.abs(L.data), L.indptr[:-1]), floor)
    return lu, bad


def sparse_lu(M: scipy.sparse.csr_array) -> SuperLU:
    """Factor a square matrix as ``P @ M @ Q = L @ U`` with SuperLU.

    The columns are eliminated in SuperLU's minimum-degree order of the
    pattern of ``M + M.T`` (``MMD_AT_PLUS_A``), with partial pivoting on
    the working column. If that factorization fails in any way (exactly
    singular, a pivot no larger than ``PIVOT_RTOL`` times its column
    maximum, or a subnormal pivot), ``M`` is factored again in natural
    column order, where column ``j`` is eliminated at step ``j``: a
    failing pivot there raises :class:`SingularMatrixError` naming column
    ``j`` of ``M``, and otherwise those factors are returned. A
    structurally singular ``M`` raises before SuperLU sees it, naming the
    column the natural-order factorization would. Both factorizations
    relax supernodes to at most two columns (``relax=2``), so the
    factors store little more than their fill.

    Returns scipy's ``SuperLU`` object. ``perm_r`` maps an original row
    to its position and ``perm_c`` an original column to its step, so
    ``M[argsort(perm_r)][:, argsort(perm_c)] == L @ U``. ``L`` (unit
    diagonal stored) and ``U`` are CSC copies the pivot test has already
    built; the object keeps them as long as it lives. ``L.nnz + U.nnz``
    is the fill and ``nnz`` the entries every ``solve`` reads: the fill
    plus the explicit zeros the supernodes are padded with.
    """
    if M.shape[0] != M.shape[1]:
        raise ValueError("LU factorization requires a square matrix")
    if structural_rank(M) < M.shape[0]:
        # SuperLU can abort on such a pattern, or corrupt its own heap
        raise SingularMatrixError(_dense_singular_column(M))
    csc = M.tocsc()
    try:
        lu, bad = _checked_splu(csc, "MMD_AT_PLUS_A", _SMALLEST_NORMAL)
        if not bad.size:
            return lu
    except RuntimeError:
        pass  # whatever SuperLU reports, natural order decides
    try:
        lu, bad = _checked_splu(csc, "NATURAL")
    except RuntimeError as exc:
        if "exactly singular" not in str(exc):
            raise
        raise SingularMatrixError(_dense_singular_column(M)) from exc
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return lu
