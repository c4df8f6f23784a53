"""The CSV and JSON file formats of every kinseg input and artifact.

Tables are written as a header row, then one row per record: floats in
shortest round-trip form (``repr``), integers plainly, ``None`` as an
empty field, and ``\\r\\n`` line ends unless a caller asks for another.
Records given as Python rows go through ``csv.writer``. A 2D float
array is formatted a block of rows at a time with one ``%r`` line
template; ``csv.writer`` also writes a float as its ``repr`` and quotes
no ``repr`` of a float, so the bytes are the same. A Cartesian product
of two float arrays formats each row of each array once. A dense
matrix with few stored cells is written in binary from a row layout of
its stored cells that callers can keep (4 bytes a stored cell), one row
of cells converted to Python scalars at a time: zero stretches are
slices of one zero row, a row with no stored cell is one prebuilt line,
and lines are gathered into writes of ``WRITE_BYTES`` or more. Every file
is written to a temporary name beside its path and renamed into place,
so a failed write leaves no partial file. Tables are read back with a
header check and a vectorised numeric parse that rejects malformed,
ragged and non-finite rows with the path. JSON is written with an
indent of 2, sorted keys and a final newline.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from typing import NamedTuple

import numpy as np

#: Rows of a float array formatted per ``write`` call.
BLOCK_ROWS = 4096
#: Bytes of a dense matrix's lines gathered before a ``write`` call.
WRITE_BYTES = 1 << 18
#: Stored cells of a sparse matrix that a pass over them handles at a time.
CHUNK_CELLS = 1 << 14


def atomic_write(path, write_fn) -> None:
    """Call ``write_fn`` on a fresh temporary path in the directory of
    ``path``, then rename that file onto ``path``. On any error the
    temporary file is removed and ``path`` is left as it was."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{name}-{os.urandom(4).hex()}~")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _template(width: int, end: str = "") -> str:
    """A ``%`` template of ``width`` comma-separated ``repr`` cells."""
    return ",".join(["%r"] * width) + end


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
    ``BLOCK_ROWS`` rows per ``write``: the block's cells fill one line
    template repeated once per row, ``line * rows % cells``, so memory
    stays flat on long tables. Each cell is the ``repr`` of a Python
    float, which is what ``csv.writer`` writes for it (it never quotes
    one), so both paths give the same bytes.
    """
    def write_body(fh, writer):
        if not isinstance(rows, np.ndarray):
            writer.writerows(rows)
            return
        line = _template(rows.shape[1], lineterminator)
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))

    _write_table(path, header, lineterminator, write_body)


def write_product_csv(path, header, left, right, lineterminator="\r\n") -> None:
    """Write the Cartesian product of the rows of two 2D float arrays.

    Row ``i * len(right) + j`` is row ``i`` of ``left`` followed by row
    ``j`` of ``right``: the bytes ``write_csv`` gives for the stacked
    product array, with each row of each array formatted once.
    """
    prefix, line = _template(left.shape[1], ","), _template(right.shape[1], lineterminator)
    prefixes = [prefix % tuple(row) for row in left.tolist()]
    # prefix.join(["", *lines]) puts the prefix in front of every line
    lines = ["", *(line % tuple(row) for row in right.tolist())]

    def write_body(fh, writer):
        for prefix in prefixes:
            fh.write(prefix.join(lines))

    _write_table(path, header, lineterminator, write_body)


class MatrixLayout(NamedTuple):
    """Where the stored cells of an n x n matrix sit, row by row.

    ``order`` puts the stored cells in row-major order, 4 bytes a cell
    (int32) while there are fewer than 2^31 cells and 8 beyond; the rest
    is a few numbers per stretch. The stretches of
    adjacent stored cells in row r are ``row_stretches[r]`` up to
    ``row_stretches[r + 1]``; stretch s starts at column
    ``first_cols[s]`` and holds the ordered cells ``bounds[s]`` up to
    ``bounds[s + 1]``.
    """

    n: int
    order: np.ndarray
    row_stretches: list
    first_cols: list
    bounds: list


def matrix_layout(n, rows, indptr) -> MatrixLayout:
    """The layout of an n x n matrix's stored cells, given column by
    column: column c holds the cells ``indptr[c]`` up to ``indptr[c + 1]``,
    at rows ``rows[indptr[c]:indptr[c + 1]]``.

    The cells come column by column, so a stable argsort of ``rows`` keeps
    each row's cells in column order: the order is row-major. The ordered
    cells are tested for stretches ``CHUNK_CELLS`` at a time by their rows
    and columns, from a column per cell in the narrowest unsigned type
    that holds n (2 bytes a cell up to 65,536 columns). The argsort's
    int64 result and the int32 order it is narrowed to, 12 bytes a cell,
    are the most held at once.
    """
    order = np.argsort(rows, kind="stable")
    cols = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), np.diff(indptr))

    def stretch_starts(a):
        """The ordered cells a + 1 up to a + ``CHUNK_CELLS`` that start a stretch."""
        cells = order[a:a + CHUNK_CELLS + 1]
        # a stretch starts where the row changes or the column does not go up by 1
        return np.flatnonzero((np.diff(rows[cells]) != 0) | (np.diff(cols[cells]) != 1)) + (a + 1)

    firsts = np.concatenate([np.zeros(min(len(order), 1), dtype=int),  # the first cell starts one
                             *map(stretch_starts, range(0, len(order), CHUNK_CELLS))])
    first_rows, first_cols = rows[order[firsts]], cols[order[firsts]]
    del cols  # before the narrowed order is made
    if len(order) < 2 ** 31:
        order = order.astype(np.int32)
    return MatrixLayout(n, order, np.searchsorted(first_rows, np.arange(n + 1)).tolist(),
                        first_cols.tolist(), [*firsts.tolist(), len(order)])


def write_matrix_text(path, layout, cells, fmt, sep, header="") -> None:
    """Write an n x n matrix as text, ``header`` then one line per row.

    ``cells`` are the stored cells in the order ``layout`` was made
    from; each prints as ``fmt % cell`` and every other cell as 0.
    Cells are separated by ``sep``. Only one row's cells are Python
    scalars at a time, so the write adds about one row to memory. Each
    stretch of adjacent stored cells in a row is formatted in one go,
    each zero stretch is a slice of one zero row, and a row with no
    stored cell is one prebuilt line. Lines go to the file in binary,
    gathered into writes of at least ``WRITE_BYTES``.
    """
    n, order, row_stretches, first_cols, bounds = layout
    cells = np.asarray(cells)
    zeros, item, width = ("0" + sep) * n, fmt + sep, 1 + len(sep)
    empty = (zeros[:-len(sep)] + "\n").encode()

    def write(tmp):
        with open(tmp, "wb") as fh:
            pending = [header.encode()]
            size = len(pending[0])
            for r in range(n):
                if row_stretches[r] == row_stretches[r + 1]:
                    line = empty
                else:
                    first, last = row_stretches[r], row_stretches[r + 1]
                    start, pieces, filled = bounds[first], [], 0
                    row = cells[order[start:bounds[last]]].tolist()
                    for s in range(first, last):
                        a, b = bounds[s] - start, bounds[s + 1] - start
                        pieces.append(zeros[:(first_cols[s] - filled) * width])
                        pieces.append(item * (b - a) % tuple(row[a:b]))
                        filled = first_cols[s] + b - a
                    pieces.append(zeros[:(n - filled) * width])
                    line = ("".join(pieces)[:-len(sep)] + "\n").encode()
                pending.append(line)
                size += len(line)
                if size >= WRITE_BYTES:
                    fh.write(b"".join(pending))
                    pending, size = [], 0
            fh.write(b"".join(pending))

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
    """``obj`` as indented JSON with sorted keys and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(json_text(obj))

    atomic_write(path, write)
