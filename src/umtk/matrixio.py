"""CSV readers and writers for labeled matrices and per-record tables.

Layout: an optional block of '#'-prefixed comment lines, then a header
row, then one row per record. A labeled matrix has an empty leading
header cell followed by the column labels, and each row starts with its
label. UTF-8 throughout, LF line endings.

Every table goes through one writer, write_table, which takes a header
and equal-length 1-D numpy arrays (one per column) and streams the rows
in chunks of CHUNK_ROWS, so at most one chunk of text is held at a time.
A column's dtype sets how its cells are written, byte for byte as
csv.writer(lineterminator="\n") writes format_value of each value:

- integers as %d;
- floats as %.17g, which round-trips exactly ("nan", "inf", "-0");
- booleans as true / false;
- strings as they are, quoted the way csv.writer quotes them;
- entries masked in a numpy masked array as empty cells.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    FrequencyMatrix,
    _SymmetricMatrix,
)


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


#: Rows formatted per write: the writer holds at most this many rows of text.
CHUNK_ROWS = 8192

#: A cell containing one of these may need quotes; csv.writer decides.
_QUOTE_CANDIDATE = re.compile(r'[,"\r\n]')


def _quote_cell(text: str) -> str:
    """text as csv.writer(lineterminator="\n") writes it beside another cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _cell_format(dtype: np.dtype) -> str:
    if dtype.kind in "iu":
        return "%d"
    if dtype.kind == "f":
        return "%.17g"
    if dtype.kind in "bUO":
        return "%s"
    raise TypeError(f"cannot write a column of dtype {dtype}")


def _cells(values: np.ndarray) -> list:
    """Python values of a column slice, ready for its cell format."""
    if values.dtype.kind == "b":
        return np.where(values, "true", "false").tolist()
    if values.dtype.kind in "UO":
        return [_quote_cell(v) if _QUOTE_CANDIDATE.search(v) else v
                for v in values.tolist()]
    return values.tolist()


def _format_rows(
    columns: list[np.ndarray],
    masks: list[np.ndarray | None],
    formats: list[str],
    lo: int,
    hi: int,
) -> str:
    """CSV text of rows lo..hi: one %-format call per row."""
    row_formats = []
    cells = []
    for values, mask, fmt in zip(columns, masks, formats):
        part = _cells(values[lo:hi])
        blank = np.flatnonzero(mask[lo:hi]).tolist() if mask is not None else []
        if blank:
            part = [fmt % v for v in part]
            for pos in blank:
                part[pos] = ""
            fmt = "%s"
        row_formats.append(fmt)
        cells.append(part)
    template = ",".join(row_formats) + "\n"
    lines = [template % row for row in zip(*cells)]
    if len(columns) == 1:
        # csv.writer writes a row whose only cell is empty as ""
        lines = ['""\n' if line == "\n" else line for line in lines]
    return "".join(lines)


def write_table(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    header_lines: Sequence[str] = (),
) -> None:
    """Write equal-length 1-D arrays as the columns of a CSV table.

    The '#' header lines come first, then the header row, then one row
    per array index. Each column's dtype sets how its cells are written
    (see the module docstring); entries masked in a numpy masked array
    are written as empty cells. Rows are formatted and written
    CHUNK_ROWS at a time.
    """
    columns = [np.asanyarray(c) for c in columns]
    if not columns:
        raise ValueError("a table needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header cells for {len(columns)} columns")
    if any(c.ndim != 1 for c in columns) or len({c.shape[0] for c in columns}) != 1:
        raise ValueError("table columns must be 1-D arrays of equal length")
    n_rows = columns[0].shape[0]
    masks = [np.ma.getmaskarray(c) if np.ma.isMaskedArray(c) else None
             for c in columns]
    data = [np.ma.getdata(c) for c in columns]
    formats = [_cell_format(c.dtype) for c in data]
    header_cols = [np.array([str(h)], dtype=object) for h in header]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(_format_rows(header_cols, [None] * len(header_cols),
                              ["%s"] * len(header_cols), 0, 1))
        for lo in range(0, n_rows, CHUNK_ROWS):
            fh.write(_format_rows(data, masks, formats, lo, lo + CHUNK_ROWS))


def read_rows(path: str | Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [row for row in csv.reader(lines) if row]


def write_labeled_matrix(
    path: str | Path,
    values: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    header_lines: Sequence[str] = (),
) -> None:
    matrix = np.asarray(values, dtype=np.float64)
    write_table(path, ["", *col_labels],
                [np.asarray(row_labels, dtype=object), *matrix.T], header_lines)


def read_labeled_matrix(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    rows = read_rows(path)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    col_labels = rows[0][1:]
    row_labels = [r[0] for r in rows[1:]]
    try:
        values = np.array(
            [[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64
        )
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric matrix entry ({exc})") from None
    if values.size and values.shape[1] != len(col_labels):
        raise ValueError(f"{path}: ragged matrix rows")
    return values, row_labels, col_labels


def read_dissimilarity(path: str | Path) -> DissimilarityMatrix:
    values, row_labels, col_labels = read_labeled_matrix(path)
    if row_labels != col_labels:
        raise ValueError(f"{path}: row and column labels must match")
    return DissimilarityMatrix(values, row_labels)


def read_coordinates(path: str | Path) -> CoordinateMatrix:
    values, row_labels, _ = read_labeled_matrix(path)
    return CoordinateMatrix(values, row_labels)


def read_frequency(path: str | Path) -> FrequencyMatrix:
    values, row_labels, col_labels = read_labeled_matrix(path)
    return FrequencyMatrix(values, row_labels, col_labels)


def write_dissimilarity(
    path: str | Path,
    d: _SymmetricMatrix,
    header_lines: Sequence[str] = (),
) -> None:
    write_labeled_matrix(path, d.values, d.labels, d.labels, header_lines)


def write_coordinates(
    path: str | Path,
    coords: CoordinateMatrix,
    header_lines: Sequence[str] = (),
) -> None:
    axis_labels = [f"f{i + 1}" for i in range(coords.dim)]
    write_labeled_matrix(
        path, coords.coords, coords.point_labels, axis_labels, header_lines
    )


def write_frequency(
    path: str | Path,
    f: FrequencyMatrix,
    header_lines: Sequence[str] = (),
) -> None:
    write_labeled_matrix(path, f.values, f.row_labels, f.col_labels, header_lines)


def write_key_values(
    path: str | Path,
    items: Mapping[str, object],
    header_lines: Sequence[str] = (),
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for key, value in items.items():
            fh.write(f"{key}: {format_value(value)}\n")
