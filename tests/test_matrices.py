import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import pdist, squareform

from umtk import matrices
from umtk.hierarchy import LINKAGE_CRITERIA, Dendrogram, cophenetic, join_nodes, linkage
from umtk.matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    FrequencyMatrix,
    UltrametricMatrix,
    euclidean_distances,
)
from umtk import matrixio
from umtk.ultrametricity import Masked

from .oracles import brute_pairwise, read_labeled_matrix_csv, write_rows


def test_dissimilarity_accepts_valid():
    d = DissimilarityMatrix(np.array([[0.0, 1.0], [1.0, 2.0 - 2.0]]))
    assert d.n == 2
    assert d.condensed().tolist() == [1.0]


def test_dissimilarity_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        DissimilarityMatrix(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))


def test_asymmetry_error_names_the_worst_pair():
    vals = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    vals[2, 1] = np.nextafter(3.0, 4.0)
    ulp = np.nextafter(3.0, 4.0) - 3.0
    with pytest.raises(ValueError, match="must be symmetric") as info:
        DissimilarityMatrix(vals, labels=["a", "b", "c"])
    message = str(info.value)
    assert "(1, 2)" in message
    assert "('b', 'c')" in message
    assert repr(float(ulp)) in message


def test_dissimilarity_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        DissimilarityMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))


def test_dissimilarity_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError, match="nonnegative"):
        DissimilarityMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        DissimilarityMatrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_dissimilarity_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        DissimilarityMatrix(np.zeros((2, 3)))


def test_ultrametric_container_allows_negative_entries():
    # looser container for intermediate level matrices
    u = UltrametricMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert u.n == 2


@pytest.mark.parametrize(
    "cls, kind",
    [
        (DissimilarityMatrix, "dissimilarity matrix"),
        (UltrametricMatrix, "ultrametric matrix"),
    ],
)
def test_square_containers_name_themselves_in_errors(cls, kind):
    bad = [
        (np.zeros(3), "must be a 2-d array"),
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), "contains non-finite entries"),
        (np.zeros((2, 3)), "must be square"),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "must be symmetric"),
        (np.eye(2), "must have a zero diagonal"),
    ]
    for values, message in bad:
        with pytest.raises(ValueError, match=f"^{kind} {message}"):
            cls(values)
    with pytest.raises(ValueError, match=f"^{kind} has 2 rows but 1 labels"):
        cls(np.zeros((2, 2)), ["a"])
    other = UltrametricMatrix if cls is DissimilarityMatrix else DissimilarityMatrix
    assert not isinstance(cls(np.zeros((2, 2))), other)


def test_labels_default_and_explicit():
    d = DissimilarityMatrix(np.zeros((3, 3)), labels=["a", "b", "c"])
    assert d.labels == ["a", "b", "c"]
    d2 = DissimilarityMatrix(np.zeros((3, 3)))
    assert d2.labels == ["x1", "x2", "x3"]
    with pytest.raises(ValueError):
        DissimilarityMatrix(np.zeros((3, 3)), labels=["a", "b"])


def test_condensed_is_row_major_upper_triangle():
    vals = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    d = DissimilarityMatrix(vals)
    assert d.condensed().tolist() == [1.0, 2.0, 3.0]


def test_frequency_matrix_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        FrequencyMatrix(np.array([[0.0, -1.0]]))
    with pytest.raises(ValueError, match="grand total"):
        FrequencyMatrix(np.zeros((2, 2)))
    f = FrequencyMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert f.row_labels == ["r1", "r2"]
    assert f.col_labels == ["c1", "c2"]


def test_euclidean_distances_matches_bruteforce(rng):
    pts = rng.normal(size=(12, 4))
    got = euclidean_distances(CoordinateMatrix(pts))
    expected = brute_pairwise(pts)
    np.testing.assert_allclose(got.values, expected, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got.values, got.values.T)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    grid=st.booleans(),
    duplicates=st.booleans(),
    log_scale=st.integers(-8, 8),
    mixed_scales=st.booleans(),
    block_cells=st.one_of(st.none(), st.integers(1, 300)),
)
def test_euclidean_distances_bits_match_scipy(
    n, dim, seed, grid, duplicates, log_scale, mixed_scales, block_cells
):
    """Same bytes as squareform(pdist(X)), whatever the row-block size."""
    gen = np.random.default_rng(seed)
    pts = gen.integers(-2, 3, size=(n, dim)) if grid else gen.normal(size=(n, dim))
    if duplicates:
        pts = pts[gen.integers(0, n, size=n)]
    scale = gen.integers(-8, 9, size=dim) if mixed_scales else log_scale
    pts = pts * 10.0 ** scale
    cells = matrices._BLOCK_CELLS if block_cells is None else block_cells
    with mock.patch.object(matrices, "_BLOCK_CELLS", cells):
        got = euclidean_distances(CoordinateMatrix(pts)).values
    assert got.tobytes() == squareform(pdist(pts)).tobytes()


def test_euclidean_distances_needs_a_point():
    with pytest.raises(ValueError, match="at least one point"):
        euclidean_distances(CoordinateMatrix(np.zeros((0, 3))))


def test_euclidean_distances_keeps_labels(rng):
    pts = CoordinateMatrix(rng.normal(size=(4, 2)), ["w", "x", "y", "z"])
    d = euclidean_distances(pts)
    assert d.labels == ["w", "x", "y", "z"]


def test_dissimilarity_roundtrip(tmp_path):
    d = DissimilarityMatrix(
        np.array([[0.0, 1.5, 2.25], [1.5, 0.0, 0.125], [2.25, 0.125, 0.0]]),
        labels=["a", "b", "c"],
    )
    path = tmp_path / "d.csv"
    matrixio.write_dissimilarity(path, d, header_lines=["note: test"])
    back = matrixio.read_dissimilarity(path)
    np.testing.assert_array_equal(back.values, d.values)
    assert back.labels == d.labels


def test_roundtrip_is_exact_for_awkward_floats(tmp_path, rng):
    # .17g output must survive a write/read cycle bit for bit
    vals = rng.uniform(0.001, 1000.0, size=(6, 6))
    d = np.triu(vals, 1)
    d = d + d.T
    mat = DissimilarityMatrix(d)
    path = tmp_path / "d.csv"
    matrixio.write_dissimilarity(path, mat)
    back = matrixio.read_dissimilarity(path)
    np.testing.assert_array_equal(back.values, mat.values)


def test_coordinates_roundtrip(tmp_path, rng):
    pts = CoordinateMatrix(rng.normal(size=(5, 3)), list("abcde"))
    path = tmp_path / "coords.csv"
    matrixio.write_coordinates(path, pts)
    back = matrixio.read_coordinates(path)
    np.testing.assert_array_equal(back.coords, pts.coords)
    assert back.point_labels == pts.point_labels


def test_frequency_roundtrip(tmp_path):
    f = FrequencyMatrix(
        np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]]),
        ["d1", "d2"],
        ["x", "y", "z"],
    )
    path = tmp_path / "f.csv"
    matrixio.write_frequency(path, f)
    back = matrixio.read_frequency(path)
    np.testing.assert_array_equal(back.values, f.values)
    assert back.row_labels == f.row_labels
    assert back.col_labels == f.col_labels


def test_read_skips_comment_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "# tool: something\n# params: none\n,a,b\na,0,1\nb,1,0\n",
        encoding="utf-8",
    )
    d = matrixio.read_dissimilarity(path)
    assert d.labels == ["a", "b"]
    assert d.values[0, 1] == 1.0


def test_hash_labels_are_data_not_comments(tmp_path):
    # only the leading '#' block is comments; a row label may start with '#'
    d = DissimilarityMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
                            labels=["a", "#b", "c"])
    matrixio.write_dissimilarity(tmp_path / "d.csv", d, header_lines=["note: x"])
    assert matrixio.read_dissimilarity(tmp_path / "d.csv") == d

    pts = CoordinateMatrix(np.arange(6.0).reshape(3, 2), ["#p1", "p2", "# p3"])
    matrixio.write_coordinates(tmp_path / "c.csv", pts, header_lines=["note: x"])
    assert matrixio.read_coordinates(tmp_path / "c.csv") == pts

    f = FrequencyMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                        ["d1", "#d2", "d3"], ["#x", "y"])
    matrixio.write_frequency(tmp_path / "f.csv", f, header_lines=["note: x"])
    back = matrixio.read_frequency(tmp_path / "f.csv")
    assert back.row_labels == ["d1", "#d2", "d3"]
    assert back == f


def test_read_dissimilarity_rejects_mismatched_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",a,b\nb,0,1\na,1,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="labels"):
        matrixio.read_dissimilarity(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("a,0,1\nb,1\n", "ragged matrix rows"),
        ("a,0,1\nb,1,0,2\n", "ragged matrix rows"),
        ("a,0,1\nb,1,x\n", "non-numeric matrix entry"),
    ],
    ids=["short-row", "long-row", "bad-cell"],
)
def test_read_matrix_error_messages(tmp_path, body, message):
    path = tmp_path / "d.csv"
    path.write_text(",a,b\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        matrixio.read_labeled_matrix(path)


@pytest.mark.parametrize("head", ["# tool: x\n# note: y\n", ""], ids=["comments", "header"])
def test_read_matrix_skips_byte_order_mark(tmp_path, head):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (head + ",a,b\na,0,1\nb,1,0\n").encode("utf-8"))
    values, row_labels, col_labels = matrixio.read_labeled_matrix(path)
    assert values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert row_labels == col_labels == ["a", "b"]


@pytest.mark.parametrize("text", [",a,b\n", ',"a,1",b\r\n'], ids=["plain", "quoted"])
def test_read_header_only_matrix(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    values, row_labels, col_labels = matrixio.read_labeled_matrix(path)
    assert values.shape == (0, 2) and values.dtype == np.float64
    assert row_labels == [] and len(col_labels) == 2


def _float_bits(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0].item()


_PADS = ["", " ", "\t", "\x0c", "\xa0", "\u3000"]
#: Cells that float() reads, some of which numpy's parser rejects.
_GOOD_CELLS = ["nan", "-nan", "+nan", "-inf", "Infinity", "1e-400", "1e400", "1.", ".5",
               "-0", "1_0", "1_000.5", "١٢", "4 "]
#: Cells that float() rejects; "\x1c1" is one numpy's parser would read as 1.
_BAD_CELLS = ["", " ", "x", "1d5", "0x10", "1_", "1__0", "nan(123)", "3\x00", "\x1c1",
              "1\x1f", "--1", "١x"]
_LABEL_TEXT = st.text(alphabet=st.sampled_from(list(',"# \tabé中\xa0\n')),
                      min_size=1, max_size=6)


def _csv_cell(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _matrix_files(draw):
    """(text of a labeled matrix file, whether it is broken) for the reader test.

    Labels hold ',', '"', '#', spaces, newlines and non-ASCII text (quoted
    as csv needs, or quoted anyway); values are random float64 bit
    patterns written by repr or '%.17g', or cells float() reads, each
    padded with whitespace. Blank lines, LF / CRLF / CR endings and a
    leading comment block vary. A broken file gets one ragged row or one
    cell float() rejects.
    """
    n_cols = draw(st.integers(0, 4))
    n_rows = draw(st.integers(1, 5))
    quoted, broken = draw(st.booleans()), draw(st.booleans())
    # the header row is never empty or a comment, and no data row is empty,
    # so the file has at least one row under its header
    lines = [_csv_cell(draw(_LABEL_TEXT), True) if quoted
             else draw(st.sampled_from(["x", "a b", "h#", "é"] + [""] * (n_cols > 0)))]
    lines[0] = ",".join([lines[0]] + [
        _csv_cell(draw(_LABEL_TEXT), draw(st.booleans())) if quoted else f"c{j}#"
        for j in range(n_cols)])
    for _ in range(n_rows):
        label = draw(_LABEL_TEXT)
        if not quoted:
            label = label.replace('"', "").replace("\n", "").replace(",", "") or "z"
        cells = [_csv_cell(label, quoted and draw(st.booleans()))]
        for _ in range(n_cols):
            kind = draw(st.sampled_from(["repr", "%.17g", "literal"]))
            if kind == "literal":
                cell = draw(st.sampled_from(_GOOD_CELLS))
            else:
                x = draw(st.floats() | st.integers(0, 2**64 - 1).map(_float_bits))
                cell = repr(x) if kind == "repr" else "%.17g" % x
            cells.append(draw(st.sampled_from(_PADS)) + cell + draw(st.sampled_from(_PADS)))
        lines.append(",".join(cells))
    if broken:
        row = draw(st.integers(1, n_rows))
        if n_cols and draw(st.booleans()):
            cells = lines[row].split(",")
            cells[-1] = draw(st.sampled_from(_BAD_CELLS))
            lines[row] = ",".join(cells)
        else:
            lines[row] += draw(st.sampled_from([",1", ",1,2"]))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    comments = ["# " + draw(st.text(alphabet="ab, #\"", max_size=5))
                for _ in range(draw(st.integers(0, 2)))]
    text = "".join(f"{c}\n" for c in comments)
    text += "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text[: -len(endings[-1])]
    return text, broken


def _read_outcome(read, path):
    try:
        values, row_labels, col_labels = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return values.dtype, values.shape, values.tobytes(), row_labels, col_labels


@pytest.mark.parametrize("cell", ["1_0", "١٢", "\x1c1", "1\x1f", "\u30001\xa0", "nan(1)", "-nan"])
def test_read_matrix_cell_is_float_or_error(tmp_path, cell):
    # numpy's parser rejects the first two, which float() reads, and reads
    # the next two, which float() rejects
    path = tmp_path / "m.csv"
    path.write_text(f",a,b\nr,{cell},2\ns,3,4\n", encoding="utf-8")
    got = _read_outcome(matrixio.read_labeled_matrix, path)
    assert got == _read_outcome(read_labeled_matrix_csv, path)


@settings(max_examples=250, deadline=None)
@given(_matrix_files())
def test_read_matrix_matches_csv_oracle(tmp_path_factory, file):
    text, broken = file
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _read_outcome(matrixio.read_labeled_matrix, path)
    assert (got[0] == "error") == broken
    assert got == _read_outcome(read_labeled_matrix_csv, path)


def test_written_files_use_lf_and_utf8(tmp_path):
    d = DissimilarityMatrix(np.zeros((2, 2)), labels=["å", "b"])
    path = tmp_path / "d.csv"
    matrixio.write_dissimilarity(path, d)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert "å".encode("utf-8") in raw


def test_key_value_formatting(tmp_path):
    path = tmp_path / "kv.txt"
    matrixio.write_key_values(
        path, {"alpha": 0.5, "flag": True, "n": 7, "note": None}
    )
    text = path.read_text(encoding="utf-8")
    assert "alpha: 0.5\n" in text
    assert "flag: true\n" in text
    assert "n: 7\n" in text
    assert "note: \n" in text


def test_format_value_writes_numpy_bools_as_table_cells():
    assert matrixio.format_value(np.True_) == "true"
    assert matrixio.format_value(np.False_) == "false"


def test_key_value_lines_are_escaped_like_header_lines(tmp_path):
    path = tmp_path / "kv.txt"
    matrixio.write_key_values(path, {"note": "two\nlines", "path": "a\\b\rc"}, ["h: x\ny"])
    assert path.read_bytes() == b"# h: x\\ny\nnote: two\\nlines\npath: a\\\\b\\rc\n"


_INTS = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, 0, -1])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([
    -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
    0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0 * 1e-300,
])
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=8,
) | st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", " lead", "trail ", 'a,"b"\nc'])
_POOLS = {"int": _INTS, "float": _FLOATS, "bool": st.booleans(), "str": _TEXT}
_DTYPES = {"int": np.int64, "float": np.float64, "bool": bool}


@st.composite
def _tables(draw):
    """(header, numpy columns, oracle rows) of a random table.

    The writer encodes CHUNK_CELLS // n_cols rows at a time, so the row
    counts include that chunk length +- 1. Each column draws a small pool
    of values and fills its rows from the pool with a seeded generator, so
    such tables stay cheap to draw; masked columns blank a random share of
    their cells.
    """
    n_cols = draw(st.integers(1, 5))
    step = matrixio.CHUNK_CELLS // n_cols
    n_rows = draw(st.integers(0, 12) | st.sampled_from([step - 1, step, step + 1]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    header = [draw(_TEXT) for _ in range(n_cols)]
    columns, cells = [], []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(sorted(_POOLS)))
        pool = draw(st.lists(_POOLS[kind], min_size=1, max_size=6))
        values = [pool[t] for t in gen.integers(len(pool), size=n_rows).tolist()]
        if kind == "str":
            column = np.array(values, dtype=draw(st.sampled_from([object, str])))
            values = column.tolist()
        else:
            column = np.array(values, dtype=_DTYPES[kind])
        if draw(st.booleans()):
            mask = gen.random(n_rows) < draw(st.sampled_from([0.0, 0.3, 1.0]))
            column = np.ma.array(column, mask=mask)
            values = [None if m else v for v, m in zip(values, mask.tolist())]
        columns.append(column)
        cells.append(values)
    return header, columns, [list(row) for row in zip(*cells)]


_LABELS = st.lists(_TEXT | st.text(st.sampled_from([",", '"', "\r", "\n", "\t", "#", "a", "é"]),
                                   max_size=5), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_LABELS, st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(["x\ry", "\r\n", '#"q",', "\t é\n"], 2, 0)
def test_every_labeled_matrix_reads_back(tmp_path_factory, labels, dim, seed):
    """Labels holding ',', '"', CR, LF, tabs or a leading '#' survive each writer/reader pair."""
    out = tmp_path_factory.mktemp("labels")
    gen = np.random.default_rng(seed)
    coords = CoordinateMatrix(gen.normal(size=(len(labels), dim)), labels)
    d = euclidean_distances(coords)
    f = FrequencyMatrix(gen.random((len(labels), len(labels))) + 0.5, labels, labels[::-1])
    matrixio.write_dissimilarity(out / "d.csv", d)
    matrixio.write_coordinates(out / "x.csv", coords)
    matrixio.write_frequency(out / "f.csv", f)
    got_d = matrixio.read_dissimilarity(out / "d.csv")
    got_x = matrixio.read_coordinates(out / "x.csv")
    got_f = matrixio.read_frequency(out / "f.csv")
    assert got_d.labels == labels and np.array_equal(got_d.values, d.values)
    assert got_x.point_labels == labels and np.array_equal(got_x.coords, coords.coords)
    assert (got_f.row_labels, got_f.col_labels) == (labels, labels[::-1])
    assert np.array_equal(got_f.values, f.values)


@settings(max_examples=80, deadline=None)
@given(_tables(), st.lists(_TEXT, max_size=2))
def test_write_table_matches_row_writer(tmp_path_factory, table, header_lines):
    header, columns, rows = table
    out = tmp_path_factory.mktemp("table")
    matrixio.write_table(out / "new.csv", header, columns, header_lines)
    write_rows(out / "old.csv", [header] + rows, header_lines)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_write_table_rejects_malformed_columns(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="equal length"):
        matrixio.write_table(path, ["a", "b"], [np.arange(3), np.arange(4)])
    with pytest.raises(ValueError, match="1-D"):
        matrixio.write_table(path, ["a"], [np.float64(1.0)])
    with pytest.raises(ValueError, match="header"):
        matrixio.write_table(path, ["a"], [np.arange(3), np.arange(3)])
    with pytest.raises(ValueError, match="at least one column"):
        matrixio.write_table(path, [], [])
    with pytest.raises(TypeError, match="complex"):
        matrixio.write_table(path, ["z"], [np.zeros(2, dtype=complex)])


@settings(max_examples=40, deadline=None)
@given(_tables(), st.lists(st.integers(0, 40), max_size=4))
def test_table_stream_blocks_match_one_write(tmp_path_factory, table, cuts):
    header, columns, _ = table
    out = tmp_path_factory.mktemp("stream")
    matrixio.write_table(out / "once.csv", header, columns, ["h: 1"])
    bounds = [0, *sorted(min(c, len(columns[0])) for c in cuts), len(columns[0])]
    with matrixio.table_stream(out / "blocks.csv", header, ["h: 1"]) as write:
        for lo, hi in zip(bounds, bounds[1:]):
            write([c[lo:hi] for c in columns])
    assert (out / "blocks.csv").read_bytes() == (out / "once.csv").read_bytes()


def test_table_stream_removes_its_file_when_the_body_raises(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError, match="scan failed"):
        with matrixio.table_stream(path, ["a", "b"]) as write:
            write([np.arange(3), np.ones(3)])
            raise RuntimeError("scan failed")
    assert not path.exists()
    with pytest.raises(ValueError, match="header"):
        with matrixio.table_stream(path, ["a", "b"]) as write:
            write([np.arange(3)])
    assert not path.exists()


def test_table_stream_opens_its_file_at_the_first_block(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"earlier run\n")
    for body in (lambda write: write([np.arange(3)]), lambda write: 1 / 0):
        with pytest.raises((ValueError, ZeroDivisionError)):
            with matrixio.table_stream(path, ["a", "b"]) as write:
                body(write)
        assert path.read_bytes() == b"earlier run\n"
    with matrixio.table_stream(path, ["a", "b"], ["h: 1"]):
        pass
    matrixio.write_table(tmp_path / "empty.csv", ["a", "b"], [np.zeros(0), np.zeros(0)], ["h: 1"])
    assert path.read_bytes() == (tmp_path / "empty.csv").read_bytes() == b"# h: 1\na,b\n"


def _single_column_lines(path, column):
    matrixio.write_table(path, ["v"], [column])
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"v" and lines[-1] == b""
    return [line.decode("ascii") for line in lines[1:-1]]


def _float_cases(rng):
    """Named float64 arrays that stress the %.17g encoder."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    boundaries = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = []
    for values, steps in ((powers, 3), (boundaries, 40)):
        for direction in (np.inf, -np.inf):
            step = values
            for _ in range(steps):
                step = np.nextafter(step, direction)
                near.append(step)
    near = np.concatenate([powers, boundaries, *near])
    integers = np.concatenate([
        rng.integers(0, 2**63, 40_000, dtype=np.int64).astype(np.float64),
        rng.integers(-(2**53), 2**53, 40_000).astype(np.float64),
        2.0 ** np.arange(64), 2.0 ** np.arange(64) - 1, np.arange(-2000.0, 2000.0),
        10.0 ** np.arange(23), [2.0**63, 9007199254740993.0, 1e17 - 16],
    ])
    special = np.concatenate([
        rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64),
        [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, 1e-280, 1e280, 0.0, np.nan, np.inf],
    ])
    return {
        "random bit patterns": rng.integers(0, 2**64 - 1, 120_000, dtype=np.uint64,
                                            endpoint=True).view(np.float64),
        "powers of ten and the %g boundaries, +-ulps": np.concatenate([near, -near]),
        "integer-valued up to 2**63": np.concatenate([integers, -integers]),
        "subnormals and specials": np.concatenate([special, -special]),
        "uniform and log-uniform": np.concatenate([
            rng.uniform(-1.0, 1.0, 20_000), rng.uniform(-1e6, 1e6, 20_000),
            np.exp(rng.uniform(-745.0, 709.0, 20_000)),
        ]),
    }


def test_float_cells_match_percent_17g_at_scale(tmp_path, rng):
    for name, values in _float_cases(rng).items():
        lines = _single_column_lines(tmp_path / "f.csv", values)
        expected = ["%.17g" % x for x in values.tolist()]
        wrong = [(x, got, want) for x, got, want in zip(values.tolist(), lines, expected)
                 if got != want]
        assert len(lines) == len(expected)
        assert not wrong, (name, wrong[:5])


def test_float_fallback_cells_match_percent_17g(tmp_path, rng):
    # a tie margin of 1 sends every cell down the one-by-one '%.17g' route
    values = np.concatenate(list(_float_cases(rng).values()))[::7]
    with mock.patch.object(matrixio, "_TIE_MARGIN", 1.0):
        lines = _single_column_lines(tmp_path / "f.csv", values)
    assert lines == ["%.17g" % x for x in values.tolist()]


def test_int_cells_match_percent_d_at_scale(tmp_path, rng):
    powers = np.array([10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)])
    cases = {
        "int64": np.concatenate([
            rng.integers(-(2**63), 2**63 - 1, 100_000, dtype=np.int64, endpoint=True),
            rng.integers(-1000, 1000, 10_000), powers, -powers,
            [-(2**63), -(2**63) + 1, 2**63 - 1, 0, -1],
        ]).astype(np.int64),
        "uint64": np.concatenate([
            rng.integers(2**63, 2**64 - 1, 50_000, dtype=np.uint64, endpoint=True),
            np.array([0, 2**63, 2**64 - 1, 10**19, 10**19 - 1], dtype=np.uint64),
        ]),
        "int32": rng.integers(-(2**31), 2**31 - 1, 10_000, dtype=np.int32, endpoint=True),
        "uint8": np.arange(256, dtype=np.uint8),
    }
    # the largest magnitude sets how many 4-digit groups a chunk spells out
    for k in range(1, 5):
        cases[f"largest 10**{4 * k}"] = np.array([-(10 ** (4 * k)), 10 ** (4 * k) - 1, 7])
        cases[f"largest 10**{4 * k} - 1"] = np.array([10 ** (4 * k) - 1, -5, 0])
    for name, values in cases.items():
        lines = _single_column_lines(tmp_path / "i.csv", values)
        assert lines == ["%d" % v for v in values.tolist()], name


#: Texts near the filler byte 0xFF: NUL, and the characters whose UTF-8 ends in 0xBF.
_FILL_NEIGHBOURS = ["\x00", "\u00ff", "\uffff", "\U0010ffff", "a\x00b", "\u00ff,\x00",
                    '"\uffff"', "x\r\n\U0010ffff", "", "\x00\x00\u00ff\uffff"]


def test_text_cells_keep_every_byte_next_to_the_filler(tmp_path):
    """Text cells are _quote_cell's UTF-8 bytes, in header and body, in every column."""
    texts, r = _FILL_NEIGHBOURS, np.arange(23)
    # a str array drops trailing NULs itself, so its cells are read back from it
    columns = [np.array(texts, dtype=object)[r % 10], r - 3,
               np.array(texts, dtype=object)[(r + 3) % 10], np.array(texts, dtype=str)[(r + 7) % 10]]
    header = [texts[0], texts[4], texts[1], texts[3]]
    matrixio.write_table(tmp_path / "t.csv", header, columns)
    lines = [header] + [[c if isinstance(c, str) else "%d" % c for c in row]
                        for row in zip(*(c.tolist() for c in columns))]
    assert (tmp_path / "t.csv").read_bytes() == b"".join(
        ",".join(map(matrixio._quote_cell, line)).encode("utf-8") + b"\n" for line in lines)
    # a single-column row is '""' only when its cell writes no byte
    matrixio.write_table(tmp_path / "one.csv", ["\x00"], [np.array(texts, dtype=object)])
    assert (tmp_path / "one.csv").read_bytes() == b"".join(
        (matrixio._quote_cell(t) or '""').encode("utf-8") + b"\n" for t in ["\x00", *texts])


def test_int_chunks_with_and_without_a_negative(tmp_path, rng):
    """Only a chunk that holds a negative gets a sign word; the bytes do not show it."""
    step = matrixio.CHUNK_CELLS // 3
    chunks = [rng.integers(0, 300, (step, 3)), rng.integers(-(10**9), 10**9, (step, 3)),
              rng.integers(0, 10**8 + 1, (step, 3)), rng.integers(0, 10**4, (step, 3)),
              rng.integers(-(10**4), 10**4, (step + 5, 3))]
    chunks[0][5, 1], chunks[2][7, 2], chunks[3][9, 0] = -1, -(10**8), -(2**63)
    values = np.concatenate(chunks)
    mask = np.zeros(values.shape, dtype=bool)
    mask[step * 3 + 9, 0] = True  # chunk 3's only negative is blank
    columns = [np.ma.array(values[:, 0], mask=mask[:, 0]), values[:, 1], values[:, 2]]
    matrixio.write_table(tmp_path / "once.csv", ["a", "b", "c"], columns)
    expected = ["a,b,c"] + [",".join("" if m else "%d" % v for v, m in zip(row, row_mask))
                            for row, row_mask in zip(values.tolist(), mask.tolist())]
    assert (tmp_path / "once.csv").read_text().splitlines() == expected
    with matrixio.table_stream(tmp_path / "blocks.csv", ["a", "b", "c"]) as write:
        for lo in range(0, len(values), 1000):
            write([c[lo:lo + 1000] for c in columns])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()
    # a (data, mask) pair, as coefficient_scan hands its verdicts, writes as the masked array
    pair = Masked(values[:, 0], mask[:, 0])
    matrixio.write_table(tmp_path / "pair.csv", ["a", "b", "c"], [pair, *columns[1:]])
    assert (tmp_path / "pair.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()


def test_labeled_matrix_matches_row_writer(tmp_path, rng):
    # a float block many chunks long and wider than one column, beside labels
    values = rng.integers(0, 2**64 - 1, (matrixio.CHUNK_CELLS // 5 + 3, 7), dtype=np.uint64,
                          endpoint=True).view(np.float64)
    labels = [f"r{i}" for i in range(values.shape[0])]
    labels[:4] = ["a,b", 'say "x"', "", "#d"]
    cols = [f"c{j}" for j in range(6)] + ["x,y"]
    matrixio.write_labeled_matrix(tmp_path / "new.csv", values, labels, cols, ["h: 1"])
    write_rows(tmp_path / "old.csv", [["", *cols]] + [
        [label, *row] for label, row in zip(labels, values.tolist())], ["h: 1"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_labeled_matrix_rejects_mismatched_labels(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="column labels"):
        matrixio.write_labeled_matrix(path, np.zeros((2, 3)), ["a", "b"], ["x", "y"])
    with pytest.raises(ValueError, match="one label per row"):
        matrixio.write_labeled_matrix(path, np.zeros((2, 3)), ["a"], ["x", "y", "z"])
    with pytest.raises(ValueError, match="2-D"):
        matrixio.write_labeled_matrix(path, np.zeros(3), ["a", "b", "c"], ["x"])


@st.composite
def _level_trees(draw):
    """(distances, labels) whose trees' levels take every cell route: tie-heavy
    integers, duplicate points (zero levels), integer-valued Gaussian distances,
    multiples of 5e-324 and Gaussian distances above 1e280, whose squares
    overflow. n = 1, 2 and 3 included; labels hold ',', '"', CR and LF."""
    n = draw(st.integers(1, 3) | st.integers(4, 40))
    labels = [draw(_TEXT) + str(i) for i in range(n)]  # distinct
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("tied", "duplicates", "integer", "subnormal", "huge")))
    points = gen.normal(size=(n, 3))
    if kind == "duplicates":
        points[gen.random(n) < 0.4] = points[0]
    values = euclidean_distances(CoordinateMatrix(points)).values
    if kind in ("tied", "subnormal"):
        values = np.triu(gen.integers(0, 3, size=(n, n)), 1).astype(float)
        values = (values + values.T) * (5e-324 if kind == "subnormal" else 1.0)
    elif kind == "integer":
        values = np.rint(10 * values)
    elif kind == "huge":
        values *= 1e285
    return DissimilarityMatrix(values, labels)


@settings(max_examples=80, deadline=None)
@given(_level_trees(), st.sampled_from([matrixio.CHUNK_CELLS, 1, 5, 12, 30]), _LABELS)
def test_level_matrix_writes_the_cophenetic_bytes(tmp_path_factory, d, chunk, header_lines):
    """write_level_matrix of join_nodes(h) writes write_dissimilarity(cophenetic(h))'s
    bytes for every criterion, inversions (centroid, median) included, with
    chunks that split the rows anywhere."""
    out = tmp_path_factory.mktemp("levels")
    for criterion in LINKAGE_CRITERIA:
        if d.n == 1:
            h = Dendrogram(1, [], d.labels)
        else:
            try:
                h = linkage(d, criterion)
            except ValueError as exc:  # squares above 1e154 overflow
                assert criterion in ("ward", "centroid", "median") and "square" in str(exc)
                continue
        with mock.patch.object(matrixio, "CHUNK_CELLS", chunk):
            matrixio.write_dissimilarity(out / "float.csv", cophenetic(h), header_lines)
            heights, joins = join_nodes(h)
            matrixio.write_level_matrix(out / "levels.csv", joins, heights, h.labels,
                                        header_lines)
        assert (out / "levels.csv").read_bytes() == (out / "float.csv").read_bytes()


def test_levels_columns_write_as_their_float_columns(tmp_path):
    """Levels beside other columns, 1-D and 2-D codes, levels on the %.17g fallback."""
    levels = np.array([0.0, -0.0, 5e-324, 1.5, 1e290, np.nan, -np.inf, 0.1])
    codes = np.random.default_rng(0).integers(0, levels.size, size=(37, 4)).astype(np.int32)
    header = list("abcdef")
    with mock.patch.object(matrixio, "CHUNK_CELLS", 20):
        matrixio.write_table(tmp_path / "levels.csv", header, [
            np.arange(37), matrixio.Levels(codes[:, :3], levels),
            matrixio.Levels(codes[:, 3], levels[::-1]), levels[codes[:, 0]]])
        matrixio.write_table(tmp_path / "float.csv", header, [
            np.arange(37), levels[codes[:, :3]], levels[::-1][codes[:, 3]],
            levels[codes[:, 0]]])
    assert (tmp_path / "levels.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()
    with pytest.raises(TypeError, match="float64"):
        matrixio.write_table(tmp_path / "bad.csv", ["a"], [matrixio.Levels(levels, levels)])
    with pytest.raises(ValueError, match="1-D"):
        matrixio.write_table(tmp_path / "bad.csv", ["a"], [matrixio.Levels(codes[:, 0], codes)])
    with pytest.raises(ValueError, match="n x n"):
        matrixio.write_level_matrix(tmp_path / "bad.csv", codes[:5], levels, list("abcd"))
    assert not (tmp_path / "bad.csv").exists()
