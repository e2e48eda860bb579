import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist, squareform

from umtk import matrices
from umtk.matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    FrequencyMatrix,
    UltrametricMatrix,
    euclidean_distances,
)
from umtk import matrixio

from .oracles import brute_pairwise, write_rows


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


def test_read_dissimilarity_rejects_mismatched_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",a,b\nb,0,1\na,1,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="labels"):
        matrixio.read_dissimilarity(path)


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
_ROWS = st.integers(0, 12) | st.sampled_from(
    [matrixio.CHUNK_ROWS - 1, matrixio.CHUNK_ROWS, matrixio.CHUNK_ROWS + 1]
)


@st.composite
def _tables(draw):
    """(header, numpy columns, oracle rows) of a random table.

    Each column draws a small pool of values and fills its rows from the
    pool with a seeded generator, so tables of CHUNK_ROWS +- 1 rows stay
    cheap to draw; masked columns blank a random share of their cells.
    """
    n_rows = draw(_ROWS)
    n_cols = draw(st.integers(1, 5))
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


@settings(max_examples=80, deadline=None)
@given(_tables(), st.lists(_TEXT.filter(lambda t: "\n" not in t and "\r" not in t),
                           max_size=2))
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
