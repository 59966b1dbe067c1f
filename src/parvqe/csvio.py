"""Columnar CSV writer, the one formatter behind every CSV artifact.

The bytes are what csv.writer (line terminator "\\n") writes for the rows,
with floats as repr, ints as str and None as an empty cell. A numeric
array column formats each distinct value once per table, found with
np.unique (on the int64 view of a float column, so -0.0 stays apart from
0.0), and indexes its rows from that text a chunk at a time; other
columns format a chunk at a time (format_column), and rows go out in chunks.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

CHUNK_LINES = 1024


def _quote(text: str) -> str:
    """A field as csv.writer quotes it: when it holds a comma, a quote or a
    newline, in quotes with its quotes doubled."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def format_column(column) -> Callable[[int, int], list[str]]:
    """The cells of rows lo:hi of column, as a function of (lo, hi)."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        floats = column.dtype.kind == "f"
        keys = np.asarray(column, np.float64).view(np.int64) if floats else column
        distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
        values = (distinct.view(np.float64) if floats else distinct).tolist()
        text = np.array(list(map(repr if floats else str, values)), dtype=object)
        return lambda lo, hi: text[inverse[lo:hi]].tolist()
    return lambda lo, hi: [
        "" if v is None else repr(float(v)) if isinstance(v, float) else _quote(str(v))
        for v in (column[lo:hi].tolist() if isinstance(column, np.ndarray) else column[lo:hi])]


def csv_chunks(header: Sequence[str], columns: Sequence) -> Iterator[str]:
    """The CSV text of header and equal-length columns (arrays or lists):
    the header line, then CHUNK_LINES rows at a time. No columns, or unequal
    lengths, raise ValueError."""
    if len(columns) == 0:
        raise ValueError("a CSV table needs at least one column")
    # csv.writer quotes a line's only field when it is empty
    join = ",".join if len(columns) > 1 else lambda row: row[0] or '""'
    yield join([_quote(name) for name, _ in zip(header, columns, strict=True)]) + "\n"
    cells = [format_column(column) for column in columns]
    for lo in range(0, max(map(len, columns)), CHUNK_LINES):
        rows = zip(*(cell(lo, lo + CHUNK_LINES) for cell in cells), strict=True)
        yield "\n".join(map(join, rows)) + "\n"


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_chunks(header, columns))
