"""The CSV and JSON file formats of every kinseg input and artifact.

Tables are written with ``csv.writer``: a header row, then one row per
record, floats in shortest round-trip form (``repr``), ``None`` as an
empty field, and ``\\r\\n`` line ends unless a caller asks for another.
Tables are read back with a header check and a vectorised numeric parse
that rejects malformed, ragged and non-finite rows with the path. JSON
is written with an indent of 2, sorted keys and a final newline.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np


def write_csv(path, header, rows, lineterminator="\r\n") -> None:
    """Write ``header`` and then ``rows`` as CSV.

    ``rows`` is an iterable of sequences of Python scalars, or a 2D float
    array, which is converted one row at a time so that memory stays
    flat on long tables.
    """
    if isinstance(rows, np.ndarray):
        rows = (row.tolist() for row in rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


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
    with open(path, "w") as fh:
        fh.write(json_text(obj))
