import io
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import structural_rank
from scipy.sparse.linalg import splu

from gpmr import (
    IndexOutOfRangeError,
    MalformedEntryError,
    MalformedHeaderError,
    MatrixMarketError,
    PreconditionerError,
    SingularMatrixError,
    UnsupportedFormatError,
    bisect_graph,
    build_preconditioned_system,
    csr_from_coo,
    csr_identity,
    extract_blocks,
    load_matrix_market,
    sparse_lu,
    spmv,
)
import gpmr.sparse
from gpmr.sparse import _dense_singular_column, _weak_pivots
from conftest import csr, read_mm, small_reservoir, stored_entries, write_general_mtx

BANNER = "%%MatrixMarket matrix coordinate real general\n"


def same_csr(P, Q):
    """Same shape and bit-identical ``indptr``, ``indices`` and ``data``."""
    return (P.shape == Q.shape and np.array_equal(P.indptr, Q.indptr)
            and np.array_equal(P.indices, Q.indices) and np.array_equal(P.data, Q.data))


def random_sparse(rng, nrows, ncols, density=0.3):
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.standard_normal((nrows, ncols)), 0.0)
    return csr(dense), dense


def diag_dominant(rng, n, density=0.25):
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return csr(dense), dense


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_single_entry():
    M = read_mm(BANNER + "2 2 1\n1 1 5.0\n")
    assert M.shape == (2, 2)
    assert M.nnz == 1
    assert M.toarray()[0, 0] == 5.0


def test_parse_sums_duplicates():
    text = BANNER + "2 2 2\n1 1 2.0\n1 1 3.0\n"
    M = read_mm(text)
    # oracle: accumulate coordinates in a dictionary
    acc = {}
    for i, j, v in [(0, 0, 2.0), (0, 0, 3.0)]:
        acc[(i, j)] = acc.get((i, j), 0.0) + v
    assert M.nnz == len(acc)
    assert M.toarray()[0, 0] == acc[(0, 0)]


def test_parse_symmetric_expands():
    text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 -1.0\n3 2 4.0\n"
    M = read_mm(text)
    dense = M.toarray()
    assert dense[0, 1] == dense[1, 0] == -1.0
    assert dense[1, 2] == dense[2, 1] == 4.0
    assert dense[0, 0] == 2.0


def test_parse_pattern_assigns_ones():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
    M = read_mm(text)
    assert np.array_equal(M.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_parse_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 7\n"
    assert read_mm(text).toarray()[1, 1] == 7.0


def test_parse_malformed_header():
    with pytest.raises(MalformedHeaderError):
        read_mm("%%NotMatrixMarket matrix coordinate real general\n1 1 0\n")
    with pytest.raises(MalformedHeaderError):
        read_mm(BANNER + "2 2\n")
    with pytest.raises(MalformedHeaderError):
        read_mm(BANNER + "a b c\n")
    with pytest.raises(MalformedHeaderError):
        read_mm("")


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket vector coordinate real general\n2 2 0\n", "unsupported object 'vector'"),
    ("%%MatrixMarket matrix coordinate foo general\n2 2 0\n", "unknown field 'foo'"),
    ("%%MatrixMarket matrix coordinate real weird\n2 2 0\n", "unknown symmetry 'weird'"),
    (BANNER + "% only a comment\n\n", "missing size line"),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
     "symmetric matrix must be square"),
], ids=["object", "field", "symmetry", "size-line", "symmetric-shape"])
def test_parse_header_errors_name_what_is_wrong(text, message):
    with pytest.raises(MalformedHeaderError, match=message):
        read_mm(text)


@pytest.mark.parametrize("size", ["1_0 1_0 1", "10 1_0 1", "2 2 0_1", "3 3 1.0", "+2 2 -1"])
def test_parse_size_line_takes_plain_decimal_integers(size):
    # Python's int reads "1_0" as 10; the size line takes what entry
    # lines take, and a negative count stays a header error
    with pytest.raises(MalformedHeaderError):
        read_mm(BANNER + size + "\n1 1 1.0\n")


def test_parse_size_line_accepts_signs():
    M = read_mm(BANNER + "+2 +2 +1\n1 1 3.0\n")
    assert M.shape == (2, 2) and M.nnz == 1


def test_parse_unsupported_kinds():
    with pytest.raises(UnsupportedFormatError):
        read_mm(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
    with pytest.raises(UnsupportedFormatError):
        read_mm("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
    with pytest.raises(UnsupportedFormatError):
        read_mm(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n")


def test_parse_out_of_range_index():
    with pytest.raises(IndexOutOfRangeError):
        read_mm(BANNER + "2 2 1\n3 1 1.0\n")
    with pytest.raises(IndexOutOfRangeError):
        read_mm(BANNER + "2 2 1\n1 0 1.0\n")


def test_parse_entry_errors():
    with pytest.raises(MalformedEntryError):
        read_mm(BANNER + "2 2 2\n1 1 1.0\n")
    with pytest.raises(MalformedEntryError):
        read_mm(BANNER + "2 2 1\n1 1 1.0\n2 2 2.0\n")
    with pytest.raises(MalformedEntryError):
        read_mm(BANNER + "2 2 1\n1 x 1.0\n")


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_parse_rejects_non_finite_values(value):
    with pytest.raises(MalformedEntryError, match="line 4"):
        read_mm(BANNER + f"2 2 2\n1 1 1.0\n2 2 {value}\n")


def test_parse_sherman5_dimensions(sherman5_path):
    M = load_matrix_market(sherman5_path)
    assert M.shape == (3312, 3312)
    assert M.nnz == 20793


def test_write_parse_round_trip_is_bit_exact():
    rng = np.random.default_rng(7)
    M, _ = random_sparse(rng, 12, 9, density=0.4)
    # explicit zeros (one negative) and empty rows 0, 2 and 4
    Z = csr_from_coo(5, 4, [1, 1, 3, 3, 3], [3, 0, 2, 1, 3], [0.0, 2.5, -0.0, 1e-3, 0.0])
    for X in (M, Z):
        buf = io.BytesIO()
        write_general_mtx(buf, X)
        again = read_mm(buf.getvalue())
        assert same_csr(again, X)
        buf2 = io.BytesIO()
        write_general_mtx(buf2, again)
        assert buf2.getvalue() == buf.getvalue()
    assert Z.nnz == 5


def test_parse_tolerates_real_world_formatting():
    variants = [
        # CRLF line endings
        BANNER.rstrip("\n") + "\r\n2 2 2\r\n1 1 1.5\r\n2 2 2.5\r\n",
        # comments and blank lines between entries
        BANNER + "% note\n2 2 2\n% another\n1 1 1.5\n\n2 2 2.5\n",
        # tabs and irregular spacing
        "%%MatrixMarket  matrix   coordinate real  general\n  2  2  2 \n 1  1  1.5\n 2\t2\t2.5\n",
        # case-insensitive banner tokens
        "%%matrixmarket matrix coordinate REAL General\n2 2 2\n1 1 1.5\n2 2 2.5\n",
    ]
    for text in variants:
        M = read_mm(text)
        assert np.array_equal(M.toarray(), [[1.5, 0.0], [0.0, 2.5]])


def test_round_trip_survives_extreme_values():
    vals = [1e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
            3.141592653589793, -0.0, 5e-324]
    M = csr(np.diag(vals))
    buf = io.BytesIO()
    write_general_mtx(buf, M)
    assert same_csr(read_mm(buf.getvalue()), M)


# a bad entry on physical line 8, behind comment and blank lines, with a
# valid entry after it so the declared count would otherwise hold
def entry_file(bad, banner=BANNER, nnz=3):
    return (banner + "% header comment\n"
            f"3 3 {nnz}\n"
            "1 1 1.0\n"
            "% a comment\n"
            "\n"
            "   % an indented comment\n"
            f"{bad}\n"
            "3 3 1.0\n")


@pytest.mark.parametrize("bad, error, message", [
    ("2 2", MalformedEntryError, "line 8: expected 3 fields, got 2"),
    ("2 x 1.0", MalformedEntryError, "line 8: unparsable entry '2 x 1.0'"),
    ("2.0 2 1.0", MalformedEntryError, "line 8: unparsable entry '2.0 2 1.0'"),
    ("2 2 abc", MalformedEntryError, "line 8: unparsable entry '2 2 abc'"),
    ("2 2 nan", MalformedEntryError, "line 8: non-finite value 'nan'"),
    ("2 2 1e999", MalformedEntryError, "line 8: non-finite value '1e999'"),
    ("4 1 1.0", IndexOutOfRangeError, "line 8: entry (4, 1) outside 3 x 3"),
    ("2 0 1.0", IndexOutOfRangeError, "line 8: entry (2, 0) outside 3 x 3"),
    ("99999999999999999999 1 1.0", IndexOutOfRangeError,
     "line 8: entry (99999999999999999999, 1) outside 3 x 3"),
    ("1 -99999999999999999999 2.5", IndexOutOfRangeError,
     "line 8: entry (1, -99999999999999999999) outside 3 x 3"),
    # a non-finite value is reported before the index, as for any entry
    ("99999999999999999999 1 inf", MalformedEntryError, "line 8: non-finite value 'inf'"),
])
def test_parse_names_the_physical_line_of_a_bad_entry(bad, error, message):
    with pytest.raises(error) as info:
        read_mm(entry_file(bad))
    assert type(info.value) is error
    assert str(info.value) == message


def long_entry_file(bad, cut=2500, extra=0):
    """Over 3000 lines of valid entries, comments and blanks with ``bad``
    inserted after line ``cut`` of the body; ``nnz`` counts every entry
    line but ``extra`` of them. Returns the text and the line of ``bad``."""
    body = []
    for k in range(3000):
        body.append(f"{k % 50 + 1} {k % 7 + 1} 1.5")
        if k % 10 == 0:
            body += ["% comment", ""]
    lines = body[:cut] + [bad] + body[cut:]
    nnz = sum(1 for line in lines if line and not line.startswith("%")) - extra
    return BANNER + f"50 50 {nnz}\n" + "\n".join(lines) + "\n", cut + 3


@pytest.mark.parametrize("bad, error, message", [
    ("2 2 nan", MalformedEntryError, "non-finite value 'nan'"),
    ("2 x 1.0", MalformedEntryError, "unparsable entry '2 x 1.0'"),
    ("51 1 1.0", IndexOutOfRangeError, "entry (51, 1) outside 50 x 50"),
    ("99999999999999999999 1 1.0", IndexOutOfRangeError,
     "entry (99999999999999999999, 1) outside 50 x 50"),
])
def test_parse_names_the_line_of_a_bad_entry_deep_in_a_long_file(bad, error, message):
    text, lineno = long_entry_file(bad)
    with pytest.raises(error) as info:
        read_mm(text)
    assert str(info.value) == f"line {lineno}: {message}"


def test_parse_counts_entries_across_a_long_file():
    text, _ = long_entry_file("2 2 2.0", extra=1)
    with pytest.raises(MalformedEntryError) as info:
        read_mm(text)
    # the entry past the declared count is on the last line
    assert str(info.value) == f"line {text.count(chr(10))}: more entries than declared (3000)"
    text, _ = long_entry_file("% no entry", extra=-1)
    with pytest.raises(MalformedEntryError) as info:
        read_mm(text)
    assert str(info.value) == "declared 3001 entries but found 3000"


def test_parse_names_the_line_of_the_first_extra_entry():
    with pytest.raises(MalformedEntryError) as info:
        read_mm(entry_file("2 2 2.0", nnz=1))
    assert str(info.value) == "line 8: more entries than declared (1)"
    # the extra line is not parsed: the count fails first
    with pytest.raises(MalformedEntryError) as info:
        read_mm(entry_file("not an entry", nnz=1))
    assert str(info.value) == "line 8: more entries than declared (1)"


def test_parse_names_the_first_bad_line_of_several():
    text = entry_file("2 2 nan").replace("3 3 1.0\n", "4 4 1.0\n")
    with pytest.raises(MalformedEntryError, match="^line 8: non-finite"):
        read_mm(text)
    # too few entries carries no line
    with pytest.raises(MalformedEntryError) as info:
        read_mm(entry_file("% not an entry", nnz=3))
    assert str(info.value) == "declared 3 entries but found 2"


def test_parse_pattern_entry_errors_name_the_line():
    banner = "%%MatrixMarket matrix coordinate pattern general\n"
    with pytest.raises(MalformedEntryError) as info:
        read_mm(entry_file("2", banner=banner))
    assert str(info.value) == "line 8: expected 2 fields, got 1"
    with pytest.raises(IndexOutOfRangeError) as info:
        read_mm(entry_file("2 99999999999999999999", banner=banner))
    assert str(info.value) == "line 8: entry (2, 99999999999999999999) outside 3 x 3"
    # trailing fields stay accepted, a value on a pattern entry included
    M = read_mm(entry_file("2 2 7.5 extra", banner=banner))
    assert np.array_equal(M.toarray(), np.eye(3))


@pytest.mark.parametrize("bad", ["1 1_0 2.5", "1_0 1 2.5", "2 2 2_5.0", "2 2 1.0_1"])
def test_parse_rejects_digit_separators(bad):
    # Python's int and float accept ``1_0`` as 10; the reader does not
    with pytest.raises(MalformedEntryError) as info:
        read_mm(entry_file(bad))
    assert type(info.value) is MalformedEntryError
    assert str(info.value) == f"line 8: unparsable entry {bad!r}"


def test_parse_without_entries_or_with_comments_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = read_mm(BANNER + "% c\n3 2 0\n% trailing comment\n\n")
        commented = read_mm(entry_file("2 2 2.0"))
    assert empty.shape == (3, 2) and empty.nnz == 0
    assert np.array_equal(commented.toarray(), np.diag([1.0, 2.0, 1.0]))


def oracle_csr(path):
    return scipy.sparse.csr_array(scipy.io.mmread(path))


def test_parse_matches_scipy_mmread_on_a_generated_matrix(tmp_path):
    rng = np.random.default_rng(14)
    n = 3000
    per_row = rng.integers(0, 9, size=n)
    per_row[rng.choice(n, 300, replace=False)] = 0  # empty rows
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, n, size=rows.size)
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-300, 300, size=rows.size)
    vals[rng.random(rows.size) < 0.05] = 0.0  # explicit zeros
    vals[rng.random(rows.size) < 0.01] = -0.0
    # a CSR with duplicate coordinates, written as it is stored
    order = np.lexsort((cols, rows))
    dup = rng.choice(rows.size, 500, replace=False)
    rows = np.concatenate([rows[order], rows[order][dup]])
    cols = np.concatenate([cols[order], cols[order][dup]])
    vals = np.concatenate([vals[order], rng.standard_normal(dup.size)])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    M = scipy.sparse.csr_array((vals[order], cols[order], indptr), shape=(n, n))
    assert not M.has_canonical_format
    path = tmp_path / "generated.mtx"
    write_general_mtx(path, M)
    parsed = load_matrix_market(path)
    assert same_csr(parsed, oracle_csr(path))
    assert np.diff(parsed.indptr).tolist().count(0) >= 300
    assert (parsed.data == 0).sum() > 0


def test_parse_matches_scipy_mmread_on_symmetric_and_pattern_files(tmp_path):
    texts = {
        "symmetric": "%%MatrixMarket matrix coordinate real symmetric\n"
                     "% lower triangle, diagonal included, one explicit zero\n"
                     "5 5 7\n1 1 4.0\n2 1 -1.25\n3 2 0.0\n3 3 2.5\n"
                     "5 1 1e-300\n5 4 -7.75\n5 5 3.0\n",
        "pattern": "%%MatrixMarket matrix coordinate pattern general\n"
                   "4 6 6\n1 1\n1 6\n3 2\n4 6\n2 5\n1 6\n",
        "symmetric pattern": "%%MatrixMarket matrix coordinate pattern symmetric\n"
                             "4 4 4\n1 1\n3 1\n4 2\n4 3\n",
    }
    for name, text in texts.items():
        path = tmp_path / f"{name.replace(' ', '-')}.mtx"
        path.write_text(text)
        parsed = load_matrix_market(path)
        assert same_csr(parsed, oracle_csr(path)), name
        assert parsed.data.dtype == np.float64


# ---------------------------------------------------------------------------
# line ends and file handling
# ---------------------------------------------------------------------------

def outcome(read, source):
    """What ``read(source)`` gives: the shape and the bytes of ``indptr``,
    ``indices`` and ``data``, or the class and message of its error."""
    try:
        M = read(source)
    except MatrixMarketError as exc:
        return type(exc), str(exc)
    return M.shape, M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_files_read_as_the_lf_file(end):
    texts = [entry_file("2 2 2.0"), entry_file("2 x 1.0"), entry_file("2 2 2.0", nnz=1),
             long_entry_file("51 1 1.0")[0], long_entry_file("% no entry", extra=-1)[0]]
    for text in texts:
        assert outcome(read_mm, text.replace("\n", end)) == outcome(read_mm, text)
    assert outcome(read_mm, texts[1].replace("\n", end)) == (
        MalformedEntryError, "line 8: unparsable entry '2 x 1.0'")


@pytest.mark.parametrize("char", ["\f", "\v", "\u2028"], ids=["ff", "vt", "ls"])
@pytest.mark.parametrize("line, message", [
    ("2 2{}2.0", None),
    ("{}2 2 2.0{}", None),
    ("2 2 2.0{}% note", None),
    ("2{}2", "line 8: expected 3 fields, got 2"),
    ("2 2 nan{}", "line 8: non-finite value 'nan'"),
    ("2 2{}4.0{}9", None),
])
def test_only_line_ends_break_an_entry_line(char, line, message):
    # str.splitlines would also break at these characters; the reader
    # does not, so the line that holds one is judged whole by the
    # streamed pass and by the scan of a failing file alike, and the
    # lines after it keep their numbers
    good = entry_file(line.replace("{}", char))
    later_bad = good.replace("3 3 1.0\n", "3 x 1.0\n")
    if message is None:
        shape, *_ = outcome(read_mm, good)
        assert shape == (3, 3)
        message = "line 9: unparsable entry '3 x 1.0'"
    else:
        assert outcome(read_mm, good) == (MalformedEntryError, message)
    assert outcome(read_mm, later_bad) == (MalformedEntryError, message)


def test_load_closes_its_file_whatever_the_outcome(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(gpmr.sparse, "open", recording_open, raising=False)
    bad_deep, lineno = long_entry_file("51 1 1.0")
    path = tmp_path / "m.mtx"
    for text, expected in [
        (entry_file("2 2 2.0"), None),
        ("%%MatrixMarket vector coordinate real general\n2 2 0\n",
         (MalformedHeaderError, "unsupported object 'vector'")),
        (entry_file("2 x 1.0"), (MalformedEntryError, "line 8: unparsable entry '2 x 1.0'")),
        # the scan of a failing file re-reads it through the same handle
        (bad_deep, (IndexOutOfRangeError, f"line {lineno}: entry (51, 1) outside 50 x 50")),
    ]:
        path.write_text(text)
        got = outcome(load_matrix_market, path)
        if expected is None:
            assert got[0] == (3, 3)
        else:
            assert got == expected
        assert len(opened) == 1 and opened.pop().closed


# ---------------------------------------------------------------------------
# matrix-vector kernels
# ---------------------------------------------------------------------------

def test_spmv_identity():
    assert np.array_equal(spmv(csr_identity(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_spmv_small_by_hand():
    M = csr([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(spmv(M, [1.0, 1.0]), [2.0, 1.0])


def test_spmv_matches_dense_product():
    rng = np.random.default_rng(11)
    M, dense = random_sparse(rng, 20, 20)
    x = rng.standard_normal(20)
    want = dense @ x
    got = spmv(M, x)
    assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


def test_spmv_handles_empty_rows():
    M = csr_from_coo(4, 3, [1, 3], [0, 2], [2.0, -1.0])
    assert np.array_equal(spmv(M, [1.0, 1.0, 1.0]), [0.0, 2.0, 0.0, -1.0])


def test_spmv_dimension_mismatch():
    with pytest.raises(ValueError):
        spmv(csr_identity(3), [1.0, 2.0])


@st.composite
def coordinates(draw):
    """Shape and coordinate lists with duplicates, explicit zeros, empty
    rows and m != n. Values are quarter-integers: duplicates are summed
    in an order the constructor does not promise, and sums of these are
    exact in every order."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, 20))
    index = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    coords = draw(st.lists(index, min_size=k, max_size=k))
    values = draw(st.lists(st.integers(-8, 8).map(lambda v: 0.25 * v), min_size=k, max_size=k))
    x = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    return m, n, coords, values, np.array(x)


@given(coordinates())
def test_csr_from_coo_and_spmv_match_oracles(case):
    m, n, coords, values, x = case
    rows = [i for i, _ in coords]
    cols = [j for _, j in coords]
    M = csr_from_coo(m, n, rows, cols, values)
    # oracle: accumulate coordinates in a dictionary
    acc = {}
    for key, v in zip(coords, values):
        acc[key] = acc.get(key, 0.0) + v
    assert M.shape == (m, n) and M.dtype == np.float64
    # row-major with sorted columns, explicit zeros kept
    assert stored_entries(M) == [(i, j, acc[(i, j)]) for i, j in sorted(acc)]
    dense = np.zeros((m, n))
    for (i, j), v in acc.items():
        dense[i, j] = v
    got = spmv(M, x)
    assert got.shape == (m,)
    # rounding is relative for normal products, absolute (up to 2**-1074
    # each) for subnormal ones
    bound = (1e-14 * (np.abs(dense) @ np.abs(x))
             + (np.count_nonzero(dense, axis=1) + 1) * 2.0**-1074)
    assert np.all(np.abs(got - dense @ x) <= bound)


# ---------------------------------------------------------------------------
# LU factorization
# ---------------------------------------------------------------------------

def test_lu_identity():
    F = sparse_lu(csr_identity(4))
    assert np.array_equal(np.argsort(F.perm_r), np.arange(4))
    assert np.array_equal(F.L.toarray(), np.eye(4))
    assert np.array_equal(F.U.toarray(), np.eye(4))
    assert F.L.nnz + F.U.nnz == 8


def test_lu_forced_pivot():
    # the zero diagonal is moved off by a row or a column exchange,
    # depending on the column order
    dense = np.array([[0.0, 1.0], [1.0, 0.0]])
    F = sparse_lu(csr(dense))
    rows, cols = np.argsort(F.perm_r), np.argsort(F.perm_c)
    assert np.array_equal(dense[rows][:, cols], np.eye(2))
    assert [1, 0] in (rows.tolist(), cols.tolist())
    assert np.array_equal(F.L.toarray(), np.eye(2))
    assert np.array_equal(F.U.toarray(), np.eye(2))


def test_lu_reconstruction():
    rng = np.random.default_rng(17)
    M, dense = diag_dominant(rng, 30)
    F = sparse_lu(M)
    lhs = dense[np.argsort(F.perm_r)][:, np.argsort(F.perm_c)]
    rhs = F.L.toarray() @ F.U.toarray()
    err = np.linalg.norm(lhs - rhs)
    assert err <= 1e-12 * np.linalg.norm(dense)


def test_lu_dense_path_reconstruction():
    rng = np.random.default_rng(19)
    n = 536
    M, dense = diag_dominant(rng, n, density=0.01)
    F = sparse_lu(M)
    lhs = dense[np.argsort(F.perm_r)][:, np.argsort(F.perm_c)]
    rhs = F.L.toarray() @ F.U.toarray()
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(dense)


def test_lu_reports_singular_column():
    dense = np.eye(4)
    dense[:, 2] = 0.0
    with pytest.raises(SingularMatrixError) as info:
        sparse_lu(csr(dense))
    assert info.value.column == 2

    rng = np.random.default_rng(23)
    dup = rng.standard_normal((5, 5))
    dup[:, 3] = dup[:, 1]
    with pytest.raises(SingularMatrixError) as info:
        sparse_lu(csr(dup))
    assert info.value.column == 3


def test_lu_names_exactly_zero_column_of_large_block():
    rng = np.random.default_rng(31)
    _, dense = diag_dominant(rng, 600, density=0.01)
    dense[:, 417] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as info:
            sparse_lu(csr(dense))
    assert info.value.column == 417


def test_lu_names_column_of_structurally_singular_block():
    # natural-order SuperLU stops on this pattern with an internal error,
    # not "exactly singular"; no factorization is tried on it
    dense = np.zeros((3, 3))
    dense[2] = 1.0
    with pytest.raises(SingularMatrixError) as info:
        sparse_lu(csr(dense))
    assert info.value.column == 1


def test_lu_subnormal_pivots_keep_the_natural_order_outcome():
    # the reciprocal of a subnormal pivot overflows in SuperLU. In natural
    # order this block's multiplier turns infinite and column 0 fails;
    # the minimum-degree order would accept it with a subnormal last pivot
    with pytest.raises(SingularMatrixError) as info:
        sparse_lu(csr([[5e-324, 1.0], [5e-324, 2.0]]))
    assert info.value.column == 0
    # SuperLU calls this one exactly singular, and LAPACK's pivots pass
    # the relative test: the first subnormal one is named
    with pytest.raises(SingularMatrixError) as info:
        sparse_lu(csr([[5e-324, 5e-324], [0.0, 1e-323]]))
    assert info.value.column == 0
    # a subnormal pivot that natural order accepts is still accepted
    F = sparse_lu(csr([[1.0, 0.0], [0.0, 5e-324]]))
    assert np.array_equal(F.U.diagonal(), [1.0, 5e-324])


def test_lu_stores_less_than_default_supernodes_for_the_same_factorization():
    # oracle: SuperLU at its default supernode relaxation, in the same
    # column order. Relaxing supernodes less only drops the explicit zeros
    # they are padded with: the pivots, and so the fill, stay the same
    C = small_reservoir()
    M, _, _, N = extract_blocks(C, bisect_graph(C))
    for X in (M, N):
        F = sparse_lu(X)
        default = splu(X.tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert np.array_equal(np.argsort(F.perm_r), np.argsort(default.perm_r))
        assert np.array_equal(np.argsort(F.perm_c), np.argsort(default.perm_c))
        fill = F.L.nnz + F.U.nnz
        assert fill == default.L.nnz + default.U.nnz
        assert fill <= F.nnz < default.nnz


def weak_steps(lu):
    """Steps whose pivots fail the relative test, in SuperLU's factors."""
    L, U = lu.L.toarray(), lu.U.toarray()
    return _weak_pivots(np.abs(np.diag(U)), np.abs(U).max(axis=0), np.abs(L).max(axis=0))


def arrowhead(n=8):
    dense = np.diag(np.full(n, 4.0))
    dense[0, :] = dense[:, 0] = 1.0
    dense[0, 0] = 10.0
    return dense


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-15])
def test_lu_singular_column_is_named_in_natural_order(scale):
    """A singular block names the column that natural order names, even
    where the fill-reducing factorization fails at another step.

    The minimum-degree order eliminates the arrowhead's columns last to
    first. With column 0 copied into column 5, the ordered factorization
    is exactly singular or, for the copy times 1 + 1e-15, has its weak
    pivot at step 7: reported as is, that step would name column 7.
    Only the natural-order refactor on failure names column 5.
    """
    nonsingular = sparse_lu(csr(arrowhead()))
    assert np.array_equal(np.argsort(nonsingular.perm_c), np.arange(8)[::-1])

    dense = arrowhead()
    dense[:, 5] = scale * dense[:, 0]
    M = csr(dense)
    if scale == 1.0:
        with pytest.raises(RuntimeError, match="exactly singular"):
            splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A")
    else:
        ordered = splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert weak_steps(ordered).tolist() == [7]
    with pytest.raises(SingularMatrixError) as info:
        sparse_lu(M)
    assert info.value.column == 5

    ok = csr_identity(8)
    with pytest.raises(PreconditionerError) as info:
        build_preconditioned_system(ok, ok, ok, M, np.ones(8), np.ones(8))
    assert info.value.block == "N"
    assert "column 5" in str(info.value)


def natural_order_column(M):
    """The column the pivot test of the natural-order SuperLU factors of
    ``M`` names, or None if they pass it. Where SuperLU finds ``M``
    exactly singular, as it must a structurally singular ``M`` (which it
    is not shown: it can abort or crash on one), LAPACK names it."""
    if structural_rank(M) < M.shape[0]:
        return _dense_singular_column(M)
    try:
        weak = weak_steps(splu(M.tocsc(), permc_spec="NATURAL"))
    except RuntimeError:
        return _dense_singular_column(M)
    return int(weak[0]) if weak.size else None


@st.composite
def lu_blocks(draw):
    """Sparse square blocks: a random pattern plus a dominant diagonal,
    and optionally one column zeroed or copied, up to a scale, into
    another."""
    n = draw(st.integers(2, 40))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, st.floats(-4.0, 4.0)),
                            max_size=4 * n))
    dense = np.zeros((n, n))
    for i, j, v in entries:
        dense[i, j] = v
    dense += np.diag(np.abs(dense).sum(axis=1) + draw(st.sampled_from([0.0, 0.5, 1.0])))
    edit = draw(st.sampled_from(["none", "zero", "copy"]))
    if edit != "none":
        target = draw(index)
        if edit == "zero":
            dense[:, target] = 0.0
        else:
            source = draw(index.filter(lambda i: i != target))
            dense[:, target] = draw(st.sampled_from([1.0, 1.0 + 1e-15, -2.5])) * dense[:, source]
    return dense


@settings(max_examples=300, deadline=None)
@given(lu_blocks())
def test_lu_matches_natural_order_contract(dense):
    """A block that factors reconstructs as ``P M Q = L U``; a block that
    does not names the column the natural-order factorization names.

    Fill is not compared with natural order here: minimum degree orders
    the pattern of M + M.T, so on some unsymmetric blocks it stores more.
    One is [[1.5, 1], [0, 0.5]]: upper triangular, so natural order
    stores 5 entries, while minimum degree eliminates column 1 first and
    stores 6.
    """
    M = csr(dense)
    try:
        F = sparse_lu(M)
    except SingularMatrixError as exc:
        assert exc.column == natural_order_column(M)
        return
    lhs = dense[np.argsort(F.perm_r)][:, np.argsort(F.perm_c)]
    assert np.linalg.norm(lhs - F.L.toarray() @ F.U.toarray()) <= 1e-12 * np.linalg.norm(dense)


def test_lu_factors_large_banded_block_without_dense_copy():
    n = 20000
    offsets = np.arange(-3, 4)
    rows = np.concatenate([np.arange(max(0, -k), min(n, n - k)) for k in offsets])
    cols = np.concatenate([np.arange(max(0, k), min(n, n + k)) for k in offsets])
    vals = np.where(rows == cols, 8.0, -1.0 + 0.01 * (rows % 7))
    M = csr_from_coo(n, n, rows, cols, vals)
    rhs = np.random.default_rng(37).standard_normal(n)
    tracemalloc.start()
    try:
        x = sparse_lu(M).solve(rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.linalg.norm(spmv(M, x) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_lu_requires_square():
    with pytest.raises(ValueError):
        sparse_lu(csr(np.ones((2, 3))))


def test_lu_solve_identity():
    F = sparse_lu(csr_identity(2))
    assert np.array_equal(F.solve(np.array([7.0, 8.0])), [7.0, 8.0])


def test_lu_solve_diagonal():
    F = sparse_lu(csr([[2.0, 0.0], [0.0, 4.0]]))
    assert np.array_equal(F.solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_lu_solve_residual():
    rng = np.random.default_rng(29)
    M, dense = diag_dominant(rng, 30)
    F = sparse_lu(M)
    rhs = rng.standard_normal(30)
    x = F.solve(rhs)
    assert np.linalg.norm(dense @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("n", [5, 33, 100])
def test_lu_solve_identity_residual_property(n):
    rng = np.random.default_rng(100 + n)
    M, dense = diag_dominant(rng, n)
    F = sparse_lu(M)
    rhs = rng.standard_normal(n)
    x = F.solve(rhs)
    bound = 1e-10 * np.linalg.norm(dense) * max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(dense @ x - rhs) <= bound


def test_csr_invariant_validation():
    with pytest.raises(ValueError):
        csr_from_coo(2, 2, [0, 1], [0], [1.0, 2.0])
    with pytest.raises(ValueError):
        csr_from_coo(1, 2, [0], [5], [1.0])
    with pytest.raises(ValueError):
        csr_from_coo(2, 2, [-1], [0], [1.0])
    # columns given out of order are stored sorted
    M = csr_from_coo(1, 2, [0, 0], [1, 0], [1.0, 2.0])
    assert M.has_sorted_indices
    assert np.array_equal(M.indices, [0, 1]) and np.array_equal(M.data, [2.0, 1.0])


def test_nnz_queries_distinguish_structure_from_values():
    M = csr_from_coo(2, 2, [0, 1], [0, 1], [1.0, 0.0])
    assert M.nnz == 2
    assert M.count_nonzero() == 1
