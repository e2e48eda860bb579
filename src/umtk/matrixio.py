"""CSV readers and writers for labeled matrices and per-record tables.

Layout: an optional block of '#'-prefixed comment lines, then a header
row, then one row per record. Only that leading block is comments: a
data row may start with '#'. A labeled matrix has an empty leading
header cell followed by the column labels, and each row starts with its
label. UTF-8 throughout; the writers use LF line endings, and every
header line and key-value line stays on its one line: backslashes, CRs
and LFs in it are escaped as \\\\, \\r and \\n.

read_labeled_matrix skips a byte order mark, the leading '#' block and
empty lines. It reads rows in blocks of CHUNK_CELLS cells: a row's label is
its first cell (quoted ones, and a header with a '"', as csv.reader reads
them), its width is checked, and np.loadtxt parses the block's values. The
first block with a '"' elsewhere, ASCII 0x1c-0x1f (numpy's parser strips
them as whitespace, float() does not), a ragged row or a cell loadtxt
rejects ('1_0', non-ASCII digits) sends the whole file to csv.reader and
float(), the one route that raises errors; so values are float()'s.

Every table goes through one writer, table_stream: it writes the header
with the first block of rows and then appends blocks, each given as
equal-length numpy columns (1-D, or 2-D for several adjacent columns of
one dtype), so a scan can write each window's rows as it comes. write_table is the
one-block case; write_labeled_matrix passes its labels and its matrix
as one 2-D block. A column's dtype sets how its cells are written, byte
for byte as format_value and then _quote_cell write each value:

- integers as %d;
- floats as %.17g, which round-trips exactly ("nan", "inf", "-0");
- booleans as true / false;
- strings as they are, but quoted with their quotes doubled if they hold
  ',', '"', CR or LF (CR too: the reader takes it as a line end);
- masked entries as empty cells: a column with a mask (a numpy masked
  array, or any object with .data and .mask) is blank where it is true;
- Levels(codes, levels) as the column levels[codes], so that
  write_labeled_matrix of Levels(joins, heights) writes a tree's
  cophenetic matrix off join_nodes.

The writer is columnar. It encodes CHUNK_CELLS cells at a time: each run
of same-dtype numeric columns, and each coded column, becomes one uint8
array of fixed-width cell slots, and every slot byte a cell does not
write holds FILL (0xFF, a byte that never occurs in UTF-8, so no text
cell holds it). A chunk's CSV bytes are its joined slots with one
bytes.translate that deletes FILL. Integers are encoded by numpy alone.
A float x is scaled to the 17-digit integer D with an error-free
double-double product (Dekker 1971); its digits, point and exponent come
from lookup tables and are ORed into a word of FILL bytes that leaves
open only the bytes the cell writes. A cell whose D could be off by one
(within 1e-9 of a rounding tie, or at a power of ten), and every |x|
outside [1e-280, 1e280] (also 0, nan and inf), falls back to '%.17g' % x,
one cell at a time. Text and booleans are coded as Levels are: each
distinct value is encoded once per write, and chunks take slots by code.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    FrequencyMatrix,
    _SymmetricMatrix,
)


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


#: Cells encoded per write, whatever the width of a row: it bounds the
#: writer's byte blocks and digit temporaries (a few MB). Each encoder
#: call costs some 100 us of numpy calls, so much smaller chunks cost time.
CHUNK_CELLS = 8192

#: The slot byte of every byte a cell does not write; no UTF-8 text holds it.
FILL = 0xFF
_FILL_BYTE = bytes([FILL])

#: Header and key-value lines escape these so that each stays on one line.
_HEADER_ESCAPES = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})
#: Value cells np.loadtxt does not read as float() does: '"' needs csv.reader,
#: and numpy's parser strips the others as whitespace where float() rejects them.
_NOT_LOADTXT = '"\x1c\x1d\x1e\x1f'
#: A row's first cell, quoted (group 1, its quotes doubled) or plain (group 2).
_FIRST_CELL = re.compile(r'"((?:[^"]|"")*)"(?=,|\Z)|([^",]*)(?=,|\Z)')

# Float cells |x| in [_EASY_MIN, _EASY_MAX] take the numpy route; the
# decimal exponent e of such a cell lies in [_E_MIN, _E_MAX].
_EASY_MIN, _EASY_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -281, 280
#: Veltkamp's splitting constant 2**27 + 1: a double splits into two
#: 26-bit halves whose products are exact (Dekker 1971).
_SPLIT = 134217729.0
#: A scaled value closer than this to a rounding tie is formatted by Python.
_TIE_MARGIN = 1e-9

#: Layout classes: 0 and 1 scientific with 2 and 3 exponent digits, then
#: fixed notation for e = -4 .. 16 (the range where %g does not switch).
_FIXED_E = range(-4, 17)


def _comment_block(lines: Sequence[str]) -> bytes:
    """The UTF-8 '#' block of header lines: '# ', the escaped line, LF."""
    return "".join(f"# {line.translate(_HEADER_ESCAPES)}\n" for line in lines).encode("utf-8")


def _quote_cell(text: str) -> str:
    """A CSV cell: quoted, its quotes doubled, if it holds ',', '"', CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@functools.cache
def _tables() -> SimpleNamespace:
    """Constant tables of the encoders, built on the first write.

    pow10: 10**(16 - e) for e in [_E_MIN, _E_MAX] as an unevaluated sum
    hi + lo of doubles, each correctly rounded from exact integer
    arithmetic, with hi split for Dekker's product. quad: the four ASCII
    digits of 0..9999 as one uint32 each; top_quad: the same without
    leading zeros, FILL in their place (0 is all FILL); last_quad: top_quad
    with 0 written "0"; zeros: the trailing zero digits of 0..9999 (4 for
    0). lead_words, digit_words, exp_words: the words of the float cell by
    d0, by 4-digit group and by e - _E_MIN; float_fill: its fill words,
    float_row: the float_fill row of a 17-digit positive cell by e - _E_MIN.
    The int cell's sign, fill and separator words.
    """
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    q = np.arange(10000)
    quad = (np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
            + ord("0")).astype(np.uint8)
    top = np.where(q[:, None] < [1000, 100, 10, 1], FILL, quad)
    last = np.where(q[:, None] < [1000, 100, 10, 0], FILL, quad)
    zeros = np.zeros(10000, dtype=np.uint8)
    for power in (10, 100, 1000, 10000):
        zeros += q % power == 0
    digit = np.full((10000, 8), ord("."), dtype=np.uint8)
    digit[:, ::2] = quad
    e = np.arange(_E_MIN, _E_MAX + 1)
    cls = np.where((e >= _FIXED_E[0]) & (e <= _FIXED_E[-1]), e - _FIXED_E[0] + 2, np.abs(e) >= 100)
    return SimpleNamespace(
        hi=hi, hi_hi=hi_hi, hi_lo=hi - hi_hi, lo=np.array(lo),
        quad=_words(quad), top_quad=_words(top), last_quad=_words(last),
        zeros=zeros,
        lead_words=np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64),
        digit_words=_words(digit),
        exp_words=np.frombuffer(b"".join(b"e%+04d\0\0," % e
                                         for e in range(_E_MIN, _E_MAX + 1)), np.uint64),
        float_fill=_float_fill(), float_row=(cls * 17 + 16) * 2,
        sign_word=np.frombuffer(b"\xff\xff\xff-", np.uint32)[0],
        fill_word=np.frombuffer(_FILL_BYTE * 4, np.uint32)[0],
        separator_word=np.frombuffer(b"\xff\xff\xff,", np.uint32)[0],
    )


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 or 8 character codes as one uint32 or uint64 word each."""
    dtype = np.uint32 if chars.shape[1] == 4 else np.uint64
    return np.ascontiguousarray(chars, dtype=np.uint8).view(dtype)[:, 0]


def _float_fill() -> np.ndarray:
    """Fill words of the canonical float cell, by (class, digits - 1, negative).

    The cell is six 8-byte words: "-0.000", d0, "."; four words
    "d.d.d.d." holding d1..d16, each digit followed by a '.' slot; then
    "e", the exponent sign, three exponent digits, two unused slots and
    the ',' separator. "0.000" are the leading zeros of fixed cells with
    e < 0. A fill word's bytes are 0 where the cell writes the ORed byte
    and FILL elsewhere; the last row is the blank cell, only the ','.
    """
    keep = np.zeros((2 + len(_FIXED_E), 17, 2, 48), dtype=bool)
    keep[..., -1] = True
    keep[:, :, 1, 0] = True
    digits = np.arange(1, 18)[:, None]
    for cls in range(keep.shape[0]):
        k = keep[cls]
        if cls < 2:
            shown, dot = digits, np.where(digits > 1, 0, -1)
            k[..., 40:45] = [True, True, cls == 1, True, True]
        else:
            e = _FIXED_E[cls - 2]
            k[..., 1:2 - e] = e < 0
            shown = np.maximum(digits, e + 1)
            dot = np.where(digits > e + 1, e, -1)
        k[..., 6:39:2] = (np.arange(17) < shown)[:, None, :]
        k[..., 7:38:2] = (np.arange(16) == dot)[:, None, :]
    keep = np.concatenate([keep.reshape(-1, 48), np.arange(48)[None, :] == 47])
    return np.where(keep, 0, FILL).astype(np.uint8).view(np.uint64)


def _float_cells(x: np.ndarray, blank: np.ndarray) -> np.ndarray:
    """Byte slots of the %.17g cells of x.

    x is scaled by 10**(16 - e), e = floor(log10|x|), as a double-double
    (Dekker's exact product plus the low part of the power), and rounded
    to the 17-digit integer D. That is exact unless the scaled value lies
    within _TIE_MARGIN of a rounding tie, or D is 10**16 or 10**17 (a
    power-of-ten class boundary, where e may be one off), or |x| is
    outside [_EASY_MIN, _EASY_MAX] (also nan, inf and 0); those cells are
    formatted by '%.17g' % x, one by one.
    """
    t = _tables()
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    easy = (a >= _EASY_MIN) & (a <= _EASY_MAX) & ~blank
    a = np.where(easy, a, 1.5)
    e = np.floor(np.log10(a)).astype(np.intp)
    i = e - _E_MIN
    hi = t.hi[i]
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    h_hi, h_lo = t.hi_hi[i], t.hi_lo[i]
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * t.lo[i]
    down = np.floor(err)
    frac = err - down
    d = p.astype(np.int64) + down.astype(np.int64) + (frac > 0.5)
    hard = ~(easy & (np.abs(frac - 0.5) >= _TIE_MARGIN)
             & (d > 10**16) & (d < 10**17)) & ~blank
    d[hard | blank] = 10**16 + 1
    lead = d // 10**16
    rest = d - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    z = t.zeros
    trailing = z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1]))
    row = t.float_row[i] - 2 * trailing + (x < 0)
    row[blank] = len(t.float_fill) - 1
    words = t.float_fill.take(row, axis=0)
    words[..., 0] |= t.lead_words[lead]
    for j, group in enumerate((g1, g2, g3, g4), start=1):
        words[..., j] |= t.digit_words[group]
    words[..., 5] |= t.exp_words[i]
    buf = words.view(np.uint8)
    if hard.any():
        _put_bytes(buf, hard, [b"%.17g" % v for v in x[hard].tolist()])
    return buf


def _int_cells(v: np.ndarray, blank: np.ndarray) -> np.ndarray:
    """Byte slots of the %d cells of an integer array.

    The cell is 4-byte words: a sign word if some cell of v is negative,
    as many 4-digit groups as the largest magnitude in v needs, then the
    ','. A cell's groups above its highest nonzero one are FILL, and that
    one is written without leading zeros.
    """
    t = _tables()
    v = v.astype(np.uint64 if v.dtype.kind == "u" else np.int64)
    negative = v < 0
    signed = int(negative.any())
    u = v.view(np.uint64)
    if signed:
        u = np.where(negative, np.negative(u), u)
    u[blank] = 0
    groups, top = [u], int(u.max(initial=0))
    while top >= 10**4:
        top //= 10**4
        high = groups[-1] // 10**4
        groups[-1] = groups[-1] - high * 10**4
        groups.append(high)
    words = np.empty(v.shape + (signed + len(groups) + 1,), dtype=np.uint32)
    if signed:
        words[..., 0] = np.where(negative, t.sign_word, t.fill_word)
    high, *lower = reversed(groups)
    words[..., signed] = (t.top_quad if lower else t.last_quad)[high]
    started = high > 0
    for j, group in enumerate(lower, start=signed + 1):
        first = (t.last_quad if group is lower[-1] else t.top_quad)[group]
        words[..., j] = np.where(started, t.quad[group], first)
        started |= group > 0
    words[..., -1] = t.separator_word
    words[blank, :-1] = t.fill_word
    return words.view(np.uint8)


def _put_bytes(buf: np.ndarray, where: np.ndarray, cells: list[bytes]) -> None:
    """Write cells (one per True entry of where) into their slots, FILL-padded."""
    width = buf.shape[-1] - 1
    padded = b"".join(cell.ljust(width, _FILL_BYTE) for cell in cells)
    buf[where, :-1] = np.frombuffer(padded, np.uint8).reshape(-1, width)


_ENCODERS = {"i": _int_cells, "u": _int_cells, "f": _float_cells}


def _level_cells(levels: np.ndarray) -> np.ndarray:
    """Byte slots of the cells of levels, one per level. A text level is
    _quote_cell's UTF-8, FILL-padded to a width of at least 2 (the one-cell
    '""' rule of _encode_rows writes two bytes). A float level is its %.17g
    cell right-aligned in the narrowest FILL-padded slot, so that its ','
    stays last: a stable sort of a slot by whether it writes each byte puts
    FILL first."""
    if levels.dtype.kind in "UO":
        cells = [_quote_cell(text).encode("utf-8") for text in levels.tolist()]
        width = max([2, *map(len, cells)])
        return np.frombuffer(b"".join(cell.ljust(width, _FILL_BYTE) + b"," for cell in cells),
                             np.uint8).reshape(-1, width + 1)
    cells = _float_cells(levels, np.zeros(levels.shape, dtype=bool))
    writes = cells != FILL
    width = int(writes.sum(axis=1).max(initial=1))
    return np.take_along_axis(cells, np.argsort(writes, axis=1, kind="stable")[:, -width:], 1)


def _encode_rows(parts: list[np.ndarray]) -> bytes:
    """CSV bytes of rows given as byte slot arrays of shape (rows, k, width).

    Each cell's slot ends in a ',' separator, with FILL in every byte the
    cell does not write; the rows are the joined slots, with '\n' in the
    last one, less their FILL bytes.
    """
    rows, cells = parts[0].shape[0], sum(p.shape[1] for p in parts)
    parts = [p.reshape(rows, -1) for p in parts]
    buf = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)  # no copy of one
    buf[:, -1] = ord("\n")
    if cells == 1:
        # a row whose only cell is empty is written "", not as an empty line
        empty = (buf[:, :-1] == FILL).all(axis=1)
        buf[empty, :2] = ord('"')
    return buf.tobytes().translate(None, _FILL_BYTE)


class Levels(NamedTuple):
    """A column (1-D codes) or columns (2-D) written as the column
    levels[codes] would be, byte for byte, with each level encoded once.
    The levels are floats, or text (a str array drops trailing NULs, an
    object array keeps them)."""

    codes: np.ndarray
    levels: np.ndarray

    @property
    def size(self) -> int:  # what np.size reads, so it never builds levels[codes]
        return int(np.size(self.codes))


def _column(column) -> tuple[np.ndarray, np.ndarray | None, Callable]:
    """(data, mask, encoder) of a column, the mask None if no entry is masked.

    A column is masked if it has a .mask, so a (data, mask) pair is
    written as the masked array would be. numpy loads numpy.ma only on
    first use, and neither plain arrays nor such pairs import it here.
    A text column is coded as Levels of its texts in order of first use,
    and a bool column as Levels of false and true; the blank cell is one
    more level, "". A Levels column's encoder takes each code's slot from
    its level cells, each encoded once per write.
    """
    if not isinstance(column, Levels):
        mask = getattr(column, "mask", None)
        data = np.asarray(column if mask is None else column.data)
        mask = None if mask is None or not np.any(mask) else np.asarray(mask)
        if data.dtype.kind in _ENCODERS:
            return data, mask, _ENCODERS[data.dtype.kind]
        if data.dtype.kind not in "bUO":
            raise TypeError(f"cannot write a column of dtype {data.dtype}")
        keep = np.ones(data.shape, dtype=bool) if mask is None else ~mask
        if data.dtype.kind == "b":
            column = Levels(np.where(keep, data, 2), ["false", "true", ""])
        else:
            texts = data[keep].tolist()
            index = {text: code for code, text in enumerate(dict.fromkeys(texts))}
            codes = np.full(data.shape, len(index), dtype=np.min_scalar_type(len(index)))
            codes[keep] = np.fromiter(map(index.__getitem__, texts), codes.dtype, len(texts))
            column = Levels(codes, np.array([*index, ""], dtype=object))
    codes, levels = np.asarray(column.codes), np.asarray(column.levels)
    if levels.ndim != 1:
        raise ValueError("the levels of a Levels column must be a 1-D array")
    if codes.dtype.kind not in "iu":
        raise TypeError(f"cannot write Levels codes of dtype {codes.dtype}")
    cells = _level_cells(levels)
    return codes, None, lambda v, _: cells.take(v, axis=0)


def _block_cells(block: list[tuple[np.ndarray, np.ndarray | None, Callable]], lo: int, hi: int,
                 ) -> np.ndarray:
    """Byte slots, (rows, k, width), of rows lo..hi of a block of columns
    that share an encoder."""
    values = np.column_stack([v[lo:hi] for v, _, _ in block])
    if all(m is None for _, m, _ in block):
        return block[0][2](values, np.broadcast_to(False, values.shape))
    return block[0][2](values, np.column_stack([np.zeros(v[lo:hi].shape, dtype=bool) if m is None
                                               else m[lo:hi] for v, m, _ in block]))


@contextlib.contextmanager
def table_stream(
    path: str | Path,
    header: Sequence[str],
    header_lines: Sequence[str] = (),
) -> Iterator[Callable[[Sequence[np.ndarray | Levels]], None]]:
    """Open a CSV table whose rows come in blocks; yields write(columns).

    write(columns) appends one block: equal-length arrays, each one column
    (1-D) or several of one dtype (2-D), or Levels, written as the module
    docstring says. The bytes do not depend on how the rows are split into blocks.
    The file is opened at the first block (or on exit, for a table of no
    rows), so a body that raises before then leaves the path untouched;
    one that raises later has the file closed and removed.
    """
    header = [str(h) for h in header]
    if not header:
        raise ValueError("a table needs at least one column")
    step = max(1, CHUNK_CELLS // len(header))
    head = _column(np.array(header, dtype=object)[None, :])
    fh = None

    def write(columns: Sequence[np.ndarray | Levels]) -> None:
        nonlocal fh
        columns = [_column(c) for c in columns]
        data = [v for v, _, _ in columns]
        widths = [v.shape[1] if v.ndim == 2 else 1 for v in data]
        if sum(widths) != len(header):
            raise ValueError(f"{len(header)} header cells for {sum(widths)} columns")
        if any(v.ndim not in (1, 2) for v in data) or len({len(v) for v in data}) != 1:
            raise ValueError("table columns must be 1-D arrays of equal length")
        # a coded column's encoder is its own, so it forms a block alone
        blocks = [list(run) for _, run in itertools.groupby(columns, lambda c: (c[0].dtype, c[2]))]
        if fh is None:
            fh = open(path, "wb")
            fh.write(_comment_block(header_lines))
            fh.write(_encode_rows([_block_cells([head], 0, 1)]))
        for lo in range(0, len(data[0]), step):
            fh.write(_encode_rows([_block_cells(b, lo, lo + step) for b in blocks]))

    try:
        yield write
        write([np.zeros((0, len(header)))])  # opens a table that got no rows
    except BaseException:
        if fh is not None:
            fh.close()
            Path(path).unlink(missing_ok=True)
        raise
    fh.close()


def write_table(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    header_lines: Sequence[str] = (),
) -> None:
    """Write equal-length 1-D arrays as the columns of a CSV table: one table_stream block."""
    with table_stream(path, header, header_lines) as write:
        write(columns)


def write_labeled_matrix(
    path: str | Path,
    values: np.ndarray | Levels,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    header_lines: Sequence[str] = (),
) -> None:
    """Write a float matrix, or Levels of a 2-D code matrix, with row and column labels."""
    values = values if isinstance(values, Levels) else np.asarray(values, dtype=np.float64)
    shape = np.shape(values.codes if isinstance(values, Levels) else values)
    labels = np.asarray(row_labels, dtype=object)
    if len(shape) != 2 or labels.shape != shape[:1]:
        raise ValueError("a labeled matrix needs a 2-D matrix and one label per row")
    if len(col_labels) != shape[1]:
        raise ValueError(f"{len(col_labels)} column labels for {shape[1]} columns")
    with table_stream(path, ["", *col_labels], header_lines) as write:
        write([labels, values])


def read_labeled_matrix(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    """(values, row labels, column labels) of a labeled matrix file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        read = _read_blocks(fh)
        if read is not None:
            return read
        fh.seek(0)  # the whole file by csv.reader and float(): the route that raises errors
        rows = [r for r in csv.reader(itertools.dropwhile(lambda ln: ln.startswith("#"), fh)) if r]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: ragged matrix rows")
    try:
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric matrix entry ({exc})") from None
    return values.reshape(len(rows) - 1, len(rows[0]) - 1), [r[0] for r in rows[1:]], rows[0][1:]


def _read_blocks(fh) -> tuple[np.ndarray, list[str], list[str]] | None:
    """The matrix read in blocks of about CHUNK_CELLS cells, np.loadtxt taking
    each block's value cells; None at the first row that needs the csv route."""
    lines = itertools.dropwhile(lambda ln: ln.startswith("#"), fh)
    head = next((ln for ln in lines if ln.rstrip("\r\n")), None)
    if head is None:
        return None
    # a quoted header cell may hold a line end, so csv.reader reads on to the record's end
    header = (next(csv.reader(itertools.chain([head], lines))) if '"' in head
              else head.rstrip("\r\n").split(","))
    width, labels, blocks = len(header), [], []
    rows = (s for s in (ln.rstrip("\r\n") for ln in lines) if s)
    for chunk in iter(lambda: list(itertools.islice(rows, max(1, CHUNK_CELLS // width))), []):
        cells = []
        for row in chunk:
            first = _FIRST_CELL.match(row)
            tail = row[first.end():] if first else '"'  # '"' sends it to the csv route
            # (loadtxt would skip the empty line of a lone empty value cell)
            if tail.count(",") != width - 1 or tail == "," or any(c in tail for c in _NOT_LOADTXT):
                return None
            labels.append(first[2] if first[1] is None else first[1].replace('""', '"'))
            cells.append(tail[1:])
        try:
            blocks.append(np.loadtxt(cells, delimiter=",", comments=None, ndmin=2)
                          if width > 1 else np.empty((len(cells), 0)))
        except ValueError:
            return None
    return np.concatenate(blocks or [np.empty((0, width - 1))]), labels, header[1:]


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


def write_lines(
    path: str | Path,
    lines: Sequence[str],
    header_lines: Sequence[str] = (),
) -> None:
    """Write the '#' block of header_lines, then each of lines as it is, with an LF."""
    body = "".join(f"{line}\n" for line in lines).encode("utf-8")
    Path(path).write_bytes(_comment_block(header_lines) + body)


def write_key_values(
    path: str | Path,
    items: Mapping[str, object],
    header_lines: Sequence[str] = (),
) -> None:
    """Write one 'key: value' line per item, escaped as header lines are."""
    write_lines(path, [f"{key}: {format_value(v)}".translate(_HEADER_ESCAPES)
                       for key, v in items.items()], header_lines)
