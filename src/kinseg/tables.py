"""The CSV and JSON file formats of every kinseg input and artifact.

Tables are written as a header row, then one row per record: floats in
shortest round-trip form (``repr``), integers plainly, ``None`` as an
empty field, and ``\\r\\n`` line ends unless a caller asks for another.
Records given as Python rows go through ``csv.writer``; a 2D float
array is formatted in numpy with the same bytes (see ``write_csv``). A
Cartesian product of two float arrays formats each row of each array
once. A dense matrix with few stored cells is written in binary
from the rows of its column store, whose rows ascend within each
column: its rows are a merge of the columns, walked with one position
per column and no row index. One row of cells is converted to Python
scalars at a time, zero stretches are slices of one zero row, a row
with no stored cell is one prebuilt line, and lines go through a buffer
of ``WRITE_BYTES``.
Every file is written to a temporary name beside its path and
renamed into place, so a failed write leaves no partial file. Tables
are read back with a header check and a vectorised numeric parse that
rejects malformed, ragged and non-finite rows with the path. JSON is
written with an indent of 2, sorted keys and a final newline.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import warnings

import numpy as np

#: Rows of a float array formatted per ``write`` call.
BLOCK_ROWS = 4096
#: Buffer size, in bytes, of a dense matrix's file.
WRITE_BYTES = 1 << 18
#: Stored cells of a sparse matrix that a pass over them handles at a time.
CHUNK_CELLS = 1 << 14


def atomic_write(path, write_fn) -> None:
    """Call ``write_fn`` on a fresh temporary path in the directory of
    ``path``, then rename that file onto ``path``. On any error the
    temporary file is removed and ``path`` is left as it was. A missing
    directory is reported under ``path``, not the temporary name."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{name}-{os.urandom(4).hex()}~")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, (FileNotFoundError, NotADirectoryError)) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


_SPLIT = 2.0 ** 27 + 1  # splits a double into two halves of at most 26 bits
# 10^k and its two halves, from Python floats: an import that ran numpy
# kernels would page them in, and add to the RSS of every command
_POW10 = [10.0 ** k for k in range(23)]
_POW10_HI = [_SPLIT * p - (_SPLIT * p - p) for p in _POW10]
_POW10_LO = [p - hi for p, hi in zip(_POW10, _POW10_HI)]
_POW10, _POW10_HI, _POW10_LO = (np.array(v) for v in (_POW10, _POW10_HI, _POW10_LO))
#: A bound or a rounding tie nearer than this to its decision goes to ``repr``.
_NEAR = 1e-6
#: Text bytes of a cell: the ``repr`` of a float64 has at most 24 characters.
_TEXT = 24


@functools.cache
def _digit_groups() -> np.ndarray:
    """The 4-digit groups "0000" to "9999" as uint32, then the same with
    trailing zeros as NUL; made on first use, for the import's sake."""
    places = np.array([1000, 100, 10, 1], np.uint16)
    digits = (np.arange(10_000, dtype=np.uint16)[:, None] // places % 10).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    both = np.concatenate([digits + ord("0"), np.where(trailing, 0, digits + ord("0"))])
    return both.view(np.uint32).ravel()


def _repr_cells(cells) -> np.ndarray:
    """``repr`` of each float64 cell, NUL-padded to ``_TEXT`` bytes: the
    cells the fast path does not decide."""
    return np.array([repr(cell) for cell in cells.tolist()], dtype=f"S{_TEXT}")


def _off_integer(v) -> np.ndarray:
    """Whether each value is at least ``_NEAR`` from an integer."""
    return np.abs(v - np.rint(v)) >= _NEAR


def _shortest(x):
    """The shortest round-trip digits of each float64 cell of ``x``
    (Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018).

    Scaled by 10^s into [1e16, 1e17), |x| is X = |x| * 10^s exactly: a
    double product plus the rounding error that Dekker's two-product
    gives (10^s is an exact double for s <= 22). The numbers that read
    back as x are X +- H with H = ulp(x) * 10^s / 2, an exact double
    from 0.55 to 11.1, so the interval holds an integer; repr's digits
    are those of the multiple of the largest power of ten in it, the one
    nearest X.

    Returns (M, s, fast, whole): where ``fast`` holds, ``repr`` of |x|
    is the 17-digit integer M times 10^-s with its trailing zeros
    dropped, in fixed notation, and ``whole`` marks an integer; zero is
    M = 0 with s = 16. Elsewhere M and s are placeholders (s = 16).
    """
    a = np.abs(x)
    zero = a == 0  # written here: sent to repr, 0.3-0.6% of a session's cells
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) & ((1 << 52) - 1) != 0)
    a[~fast] = 1.5  # no NaN, inf or zero reaches a cast
    whole = a == np.floor(a)
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    p = a * _POW10[s]  # log10 may be one off next to a power of ten
    s += p < 1e16
    s -= p >= 1e17
    scale = _POW10[s]
    p = a * scale
    # Dekker's two-product: a * 10^s == p + err exactly
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    err = a_hi * _POW10_HI[s]
    err -= p
    err += a_hi * _POW10_LO[s]
    err += a_lo * _POW10_HI[s]
    err += a_lo * _POW10_LO[s]
    del a_hi, a_lo
    half = np.spacing(a)
    half *= scale
    half *= 0.5
    del a, scale
    # p >= 1e16 is an integer; X, a * 10^s less base, a multiple of 100, is
    # a double under 110, exact to about 1e-14
    base = p.astype(np.int64)
    del p
    X = (base % 100).astype(float)
    base -= X.astype(np.int64)
    X += err
    del err
    lo, hi = X - half, X + half
    del half
    # whether a bound on an integer reads back as x, and which of two
    # candidates at equal distance repr picks, is left to repr
    fast &= (_off_integer(lo) & _off_integer(hi)
             & _off_integer(X - 0.5) & _off_integer(X / 10 - 0.5))
    np.ceil(lo, out=lo)
    np.floor(hi, out=hi)
    # The integer nearest X, or the multiple of 10 nearest X if one is in
    # the interval. The interval is under 23 wide, so a multiple of 100 in
    # it is the only one, and it has the most trailing zeros.
    digits = np.rint(X)
    np.copyto(digits, np.floor(X / 10 + 0.5) * 10, where=np.floor(hi / 10) * 10 >= lo)
    np.floor(hi / 100, out=hi)
    hi *= 100
    np.copyto(digits, hi, where=hi >= lo)
    del X, lo, hi
    base += digits.astype(np.int64)
    fast &= (base >= 10 ** 16) & (base < 10 ** 17)
    s[~fast] = 16
    base[zero] = 0  # 0.0: the whole number 0 with its point after digit 0
    return base, s, fast | zero, (whole & fast) | zero


def _text_tables(lineterminator):
    """The byte masks and fixed bytes of a cell's text, by key.

    A cell is ``width`` bytes: sign and leading ``0.``/``0.000`` in bytes
    0 to 5, the digit area in bytes 6 to 23 and its separator, ``,`` or
    ``lineterminator``, from byte 24. Digit j of M sits at byte 6 + j
    unshifted or 7 + j shifted, to leave room for the point. The key
    is ((negative * 20 + decpt + 3) * 2 + whole) * 2 + last: decpt from
    -3 to 16 is the point's place, as in ``0.d1d2... * 10^decpt``, whole
    marks an integer value (``d...d0.0``, zeros kept) and last the last
    column. Bytes left NUL are dropped from the text.
    """
    end = lineterminator.encode()
    width = _TEXT + 4 * -(-max(len(end), 1) // 4)
    keep, shift, fixed = (np.zeros((160, width), np.uint8) for _ in range(3))
    for key in range(160):
        rest, last = divmod(key, 2)
        rest, whole = divmod(rest, 2)
        negative, decpt = divmod(rest, 20)
        decpt -= 3
        lead = b"-" * negative + (b"0." + b"0" * -decpt if decpt <= 0 else b"")
        fixed[key, :len(lead)] = np.frombuffer(lead, np.uint8)
        sep = end if last else b","
        fixed[key, _TEXT:_TEXT + len(sep)] = np.frombuffer(sep, np.uint8)
        if decpt <= 0:
            keep[key, 6:23] = 255
        else:
            keep[key, 6:6 + decpt] = 255
            fixed[key, 6 + decpt] = ord(".")
            shift[key, 7 + decpt:8 + decpt if whole else _TEXT] = 255
    return keep, shift, fixed


def _digit_bytes(M, whole, width) -> np.ndarray:
    """The digits of each M in a cell of ``width`` bytes: digit j at byte
    7 + j, NUL elsewhere and in place of a fraction's trailing zeros,
    then 4 NULs after the last cell."""
    buf = np.zeros(len(M) * width // 4 + 1, np.uint32)
    groups = buf[:-1].reshape(len(M), width // 4)
    rest, strip, table = M, ~whole, _digit_groups()
    for col in (5, 4, 3, 2):
        rest, group = np.divmod(rest, 10 ** 4)
        groups[:, col] = table[group + 10_000 * strip]
        strip &= group == 0
    digits = buf.view(np.uint8)
    digits[7:len(M) * width:width] = rest + ord("0")
    return digits


def _format_block(rows, keep, shift, fixed) -> str:
    """The CSV text of a 2D float array, from the tables of ``_text_tables``."""
    nrows, ncols = rows.shape
    x = np.ascontiguousarray(rows, dtype=float).ravel()
    n, width = x.size, keep.shape[1]
    M, s, fast, whole = _shortest(x)
    key = ((np.signbit(x) * 20 + (20 - s)) * 2 + whole) * 2
    key.reshape(nrows, ncols)[:, -1] += 1
    digits = _digit_bytes(M, whole, width)
    del M, s, whole
    # unshifted digits are read one byte on in the buffer, shifted ones as they are
    masks = np.take(keep, key, axis=0)
    text = np.bitwise_and(digits[1:n * width + 1].reshape(n, width), masks)
    # every key is in range; mode "raise" would copy ``out`` first
    np.take(shift, key, axis=0, out=masks, mode="clip")
    masks &= digits[:n * width].reshape(n, width)
    text |= masks
    np.take(fixed, key, axis=0, out=masks, mode="clip")
    text |= masks
    del digits, masks, key
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow, :_TEXT] = _repr_cells(x[slow]).view(np.uint8).reshape(-1, _TEXT)
    data = text.tobytes()
    del text
    return data.translate(None, b"\0").decode()


def _float_lines(rows, lineterminator):
    """The CSV text of a 2D float array, ``BLOCK_ROWS`` rows at a time."""
    tables = _text_tables(lineterminator)
    for start in range(0, len(rows), BLOCK_ROWS):
        yield _format_block(rows[start:start + BLOCK_ROWS], *tables)


def _write_table(path, header, lineterminator, write_body) -> None:
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=lineterminator)
            writer.writerow(header)
            write_body(fh, writer)

    atomic_write(path, write)


def write_csv(path, header, rows, lineterminator="\r\n") -> None:
    """Write ``header`` and then ``rows`` as CSV.

    ``rows`` is an iterable of sequences of Python scalars, written by
    ``csv.writer``, or a 2D float array. An array is written
    ``BLOCK_ROWS`` rows per ``write``, so memory stays flat on long
    tables, each block formatted in numpy. Zero and a cell with 1e-4 <=
    |x| < 1e16, the range ``repr`` prints in fixed notation, get its
    shortest round-trip digits from float64 and int64 arithmetic;
    non-finite values, other magnitudes, power-of-two significands (an
    asymmetric rounding interval) and cells within ``_NEAR`` of a
    rounding decision are formatted by ``repr`` itself. ``csv.writer``
    writes a float as its ``repr`` and never quotes one, so both paths
    give ``csv.writer``'s bytes.
    """
    def write_body(fh, writer):
        if not isinstance(rows, np.ndarray):
            writer.writerows(rows)
            return
        for text in _float_lines(rows, lineterminator):
            fh.write(text)

    _write_table(path, header, lineterminator, write_body)


def write_product_csv(path, header, left, right) -> None:
    """Write the Cartesian product of the rows of two 2D float arrays.

    Row ``i * len(right) + j`` is row ``i`` of ``left`` followed by row
    ``j`` of ``right``: the bytes ``write_csv`` gives for the stacked
    product array, with each row of each array formatted once.
    """
    def row_texts(rows, end):  # no cell's text holds a newline
        return [line + end for line in "".join(_float_lines(rows, "\n")).split("\n")[:-1]]

    prefixes = row_texts(left, ",")
    # prefix.join(["", *lines]) puts the prefix in front of every line
    lines = ["", *row_texts(right, "\r\n")]

    def write_body(fh, writer):
        for prefix in prefixes:
            fh.write(prefix.join(lines))

    _write_table(path, header, "\r\n", write_body)


def column_chunks(indptr):
    """(start, end) column ranges of whole columns, ``CHUNK_CELLS`` cells
    or one column each, of a matrix stored column by column at ``indptr``."""
    start, size = 0, len(indptr) - 1
    while start < size:
        end = max(start + 1, int(np.searchsorted(indptr, indptr[start] + CHUNK_CELLS, "right")) - 1)
        yield start, end
        start = end


def matrix_rows(indptr, rows, cells):
    """Walk a matrix stored column by column, row by row: column c holds
    ``cells[indptr[c]:indptr[c + 1]]`` at rows
    ``rows[indptr[c]:indptr[c + 1]]``, which ascend within each column.

    Yields ``(r, columns, values)`` for each row r that holds a stored
    cell, in ascending r: the row's columns, ascending, and their cells.
    The walk keeps each column that still has a stored cell and that
    cell's position; the next row is the least row among those cells, and
    the columns whose cell is on it advance.
    """
    live = np.flatnonzero(np.diff(indptr))  # columns with a stored cell left
    nxt, end = indptr[live], indptr[live + 1]  # each one's next cell, and its end
    while live.size:
        at = rows[nxt]
        r = at.min()
        hit = np.flatnonzero(at == r)
        yield int(r), live[hit], cells[nxt[hit]]
        nxt[hit] += 1
        left = nxt < end
        if not left.all():
            live, nxt, end = live[left], nxt[left], end[left]


def write_matrix_text(path, n, rows, fmt, sep, header="") -> None:
    """Write an n x n matrix as text, ``header`` then one line per row.

    ``rows`` yields ``(r, columns, values)`` in ascending r, as
    ``matrix_rows`` does, for the rows that hold a stored cell: each
    value prints as ``fmt % value`` at its column, and every other cell
    as 0. Cells are separated by ``sep``. Only one row's values are
    Python scalars at a time, so the write adds about one row to memory.
    Each stretch of adjacent stored cells in a row, found as the row is
    written, is formatted in one go, each zero stretch is a slice of one
    zero row, and a row with no stored cell is one prebuilt line. Lines
    go to the file in binary, through a buffer of ``WRITE_BYTES``.
    """
    zeros, item, width = ("0" + sep) * n, fmt + sep, 1 + len(sep)
    empty = (zeros[:-len(sep)] + "\n").encode()

    def write(tmp):
        with open(tmp, "wb", buffering=WRITE_BYTES) as fh:
            fh.write(header.encode())
            done = 0  # rows written
            for r, row_cols, values in rows:
                for _ in range(r - done):
                    fh.write(empty)
                row, starts = values.tolist(), [0, len(values)]
                if row_cols[-1] - row_cols[0] >= len(row):  # more than one stretch
                    # a stretch starts where the column does not go up by 1
                    starts[1:1] = (np.flatnonzero(np.diff(row_cols) != 1) + 1).tolist()
                pieces, filled = [], 0
                for s, e, col in zip(starts, starts[1:], row_cols[starts[:-1]].tolist()):
                    pieces.append(zeros[:(col - filled) * width])
                    pieces.append(item * (e - s) % tuple(row[s:e]))
                    filled = col + e - s
                pieces.append(zeros[:(n - filled) * width])
                fh.write(("".join(pieces)[:-len(sep)] + "\n").encode())
                done = r + 1
            for _ in range(n - done):
                fh.write(empty)

    atomic_write(path, write)


def read_csv(path, headers, dtype=float):
    """Read a CSV table whose header is one of ``headers``.

    Header cells are compared after stripping whitespace, and blank lines
    are skipped. Every data row must hold one finite ``dtype`` value per
    header field; ``#`` starts no comment.

    Returns:
        (header, rows): the header as a tuple of strings and the data as
        an array of shape (rows, len(header)), possibly with no rows.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty CSV")
        header = tuple(cell.strip() for cell in next(csv.reader([first])))
        if header not in headers:
            raise ValueError(f"{path}: unrecognised header {','.join(header)!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed data row ({exc})") from None
    if rows.size and rows.shape[1] != len(header):
        raise ValueError(f"{path}: row width does not match header")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in data row {bad[0] + 1}")
    return header, rows.reshape(-1, len(header))


def json_text(obj) -> str:
    """``obj`` as indented JSON with sorted keys and a final newline; a
    NaN or infinite float is a ValueError, as JSON has no token for it."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(json_text(obj))

    atomic_write(path, write)
